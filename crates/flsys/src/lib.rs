//! # flsys
//!
//! The federated-learning *system model* of the ICDCS 2022 paper: devices, their computation
//! and communication parameters, the per-device energy and latency model (equations
//! (2)–(7), in [`model`]), the weighted objective (8)/(9), and generators for the simulation
//! scenarios of Section VII-A.
//!
//! This crate contains no optimization — it is the substrate that both the paper's algorithm
//! (`fedopt-core`) and every baseline (`baselines`) evaluate against, which guarantees that
//! all schemes are scored by exactly the same formulas.
//!
//! ## Example
//!
//! ```rust
//! use flsys::{Allocation, ScenarioBuilder, Weights};
//!
//! # fn main() -> Result<(), flsys::FlError> {
//! let scenario = ScenarioBuilder::paper_default().with_devices(8).build(7)?;
//! // A trivially feasible allocation: max power, equal bandwidth, max frequency.
//! let alloc = Allocation::equal_split_max(&scenario);
//! let cost = scenario.cost(&alloc)?;
//! assert!(cost.total_energy_j > 0.0);
//! assert!(cost.objective(Weights::new(0.5, 0.5)?) > 0.0);
//! assert!(cost.total_time_s > 0.0);
//! assert!(alloc.is_feasible(&scenario, 1e-9));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod arrays;
pub mod device;
pub mod error;
pub mod model;
pub mod params;
pub mod scenario;
pub mod weights;

pub use allocation::{Allocation, CostBreakdown, CostSummary};
pub use arrays::ScenarioArrays;
pub use device::DeviceProfile;
pub use error::FlError;
pub use model::DeviceCost;
pub use params::SystemParams;
pub use scenario::{Scenario, ScenarioBuilder};
pub use weights::Weights;
