//! # fedopt-core
//!
//! The primary contribution of *"Joint Optimization of Energy Consumption and Completion Time
//! in Federated Learning"* (ICDCS 2022): a resource-allocation algorithm that picks every
//! device's transmit power, CPU frequency and FDMA bandwidth share to minimize the weighted
//! sum `w1·E + w2·R_g·T` of total energy and total completion time.
//!
//! The solver follows the paper's decomposition:
//!
//! * [`sp1`] — Subproblem 1 (frequencies + round time): convex, solved directly by a search
//!   over the round time.
//! * [`sp2`] — Subproblem 2 (powers + bandwidths): a sum-of-ratios problem, solved with the
//!   Newton-like parametric method (the paper's Algorithm 1) whose inner problem is the
//!   Theorem-2 KKT system, plus an independent reference solver for cross-checking.
//! * [`alg2`] — Algorithm 2: one alternating outer loop for the weighted problem and the
//!   deadline-constrained variant used by Figures 7–8, its Subproblem-2 step (which the
//!   fixed-split baselines share), and the pure delay-minimization path.
//!
//! ## Example
//!
//! ```rust
//! use fedopt_core::{JointOptimizer, SolverConfig};
//! use flsys::{ScenarioBuilder, Weights};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = ScenarioBuilder::paper_default().with_devices(10).build(1)?;
//! let optimizer = JointOptimizer::new(SolverConfig::fast());
//! let outcome = optimizer.solve(&scenario, Weights::new(0.5, 0.5)?)?;
//! assert!(outcome.allocation.is_feasible(&scenario, 1e-5));
//! println!("energy {:.1} J, time {:.1} s", outcome.total_energy_j, outcome.total_time_s);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg2;
pub mod config;
pub mod error;
pub mod sp1;
pub mod sp2;
pub mod trace;
pub mod workspace;

pub use alg2::{JointOptimizer, Outcome, OutcomeSummary};
pub use config::SolverConfig;
pub use error::CoreError;
pub use sp2::kkt::KktScratch;
pub use sp2::{Sp2Scratch, Sp2Summary};
pub use trace::{OuterIteration, SolveCounters, Trace};
pub use workspace::SolverWorkspace;

// Re-exported so downstream users can write `fedopt_core::Weights` without importing `flsys`.
pub use flsys::Weights;
