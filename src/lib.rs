//! # fedopt
//!
//! A reproduction of *"Joint Optimization of Energy Consumption and Completion Time in
//! Federated Learning"* (Zhou, Zhao, Han, Guet — IEEE ICDCS 2022).
//!
//! The crate is a facade over the workspace members; most users only need the re-exports
//! below.
//!
//! ## Running experiments: the spec API
//!
//! The blessed way to describe and run a sweep is the declarative
//! [`ExperimentSpec`]: a serializable value holding
//! the sweep axis, scenario template, arms, seed policy, solver and engine options, and
//! the reports to render. The paper's figures are preset specs in
//! [`presets`], and the `fedopt` binary
//! (`cargo run --release --bin fedopt`) runs any of them — or any spec JSON file.
//!
//! ```rust
//! use fedopt::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut spec = fedopt::presets::spec(2, fedopt::presets::Variant::Quick).unwrap();
//! spec.scenario.devices = Some(6); // shrink the doctest
//! spec.seeds = fedopt::experiments::spec::SeedSpec::count(1);
//!
//! // Specs are data: lossless JSON round trip, byte-stable serialization.
//! let text = spec.to_json_string();
//! assert_eq!(ExperimentSpec::from_json_str(&text)?, spec);
//!
//! let run = spec.run_with_engine(&SweepEngine::single_thread())?;
//! println!("{}", run.reports[0].to_table_string());
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart
//!
//! ```rust
//! use fedopt::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the simulation scenario used in Section VII-A of the paper (50 devices,
//! // 500 m disc, 20 MHz, 12 dBm power cap, 2 GHz frequency cap).
//! let scenario = ScenarioBuilder::paper_default().with_devices(10).build(42)?;
//!
//! // Weighted objective: w1 on energy, w2 on completion time.
//! let weights = Weights::new(0.5, 0.5)?;
//!
//! let solver = JointOptimizer::new(SolverConfig::default());
//! let outcome = solver.solve(&scenario, weights)?;
//!
//! println!("energy = {:.2} J, delay = {:.2} s", outcome.total_energy_j, outcome.total_time_s);
//! assert!(outcome.allocation.is_feasible(&scenario, 1e-6));
//! # Ok(())
//! # }
//! ```
//!
//! ## Workspace layout
//!
//! | crate | contents |
//! |---|---|
//! | [`numopt`] | numerical-optimization substrate (Lambert W, bisection, projections, fractional programming) |
//! | [`wireless`] | FDMA channel model: path loss, shadowing, Shannon rate |
//! | [`flsys`] | FL system model: devices, energy/latency formulas, scenarios |
//! | [`fedopt_core`] | the paper's resource-allocation algorithm (Subproblems 1 & 2, Algorithm 2) |
//! | [`baselines`] | benchmark, communication-only, computation-only, Scheme 1 comparisons |
//! | [`fedsim`] | FedAvg training simulator with energy/time accounting |
//! | [`experiments`] | figure-by-figure reproduction harness for the paper's evaluation |

pub use baselines;
pub use experiments;
pub use fedopt_core;
pub use fedsim;
pub use flsys;
pub use numopt;
pub use wireless;

// The blessed experiment entry points, re-exported at the facade root.
pub use experiments::presets;
pub use experiments::spec;
pub use experiments::{ExperimentSpec, FigureReport, SpecError, SpecRun, SweepEngine};

/// Convenient re-exports of the types used by nearly every program built on this workspace.
pub mod prelude {
    pub use baselines::{BenchmarkAllocator, FixedSplitAllocator};
    pub use experiments::{ExperimentSpec, FigureReport, SweepEngine};
    pub use fedopt_core::{JointOptimizer, SolverConfig, SolverWorkspace, Weights};
    pub use flsys::{Allocation, Scenario, ScenarioBuilder, SystemParams};
    pub use wireless::units::{Db, Dbm, Hertz, Watts};
}
