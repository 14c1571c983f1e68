//! # numopt
//!
//! A small, dependency-free numerical-optimization toolkit that stands in for the convex
//! optimization package (CVX) used by the paper *"Joint Optimization of Energy Consumption and
//! Completion Time in Federated Learning"* (ICDCS 2022).
//!
//! The paper solves two convex subproblems per outer iteration; the structure of both is fully
//! characterized by their KKT conditions, so a general-purpose modelling language is not
//! required. This crate provides the numerical primitives those KKT systems need:
//!
//! * [`roots`] — safeguarded bisection, Brent-style hybrid and safeguarded Newton root
//!   finding for monotone and general continuous scalar functions (used for the bandwidth
//!   price `μ` in Theorem 2 and for the clearing price of the Subproblem-2 reference solver).
//! * [`scalar`] — golden-section search for one-dimensional convex minimization (used by the
//!   direct Subproblem-1 solver and the per-device time split of Algorithm 2's deadline
//!   variant).
//! * [`lambertw`] — the principal branch `W₀` of the Lambert W function, needed by equation
//!   (A.4) of the paper.
//! * [`fractional`] — a generic implementation of Jong's Newton-like algorithm for
//!   sum-of-ratios ("fractional programming") problems, the skeleton of the paper's
//!   Algorithm 1: one in-place, warm-startable entry point taking the full Newton step.
//! * [`grid`] — brute-force grid search, used only by tests and cross-validation helpers.
//!
//! All routines are deterministic, allocation-light, and return typed errors instead of
//! panicking on bad inputs.
//!
//! ## Example
//!
//! ```rust
//! use numopt::roots::bisect;
//! use numopt::scalar::golden_section_min;
//!
//! # fn main() -> Result<(), numopt::NumError> {
//! // Root of x^3 - 2 on [0, 2].
//! let r = bisect(|x| x * x * x - 2.0, 0.0, 2.0, 1e-12, 200)?;
//! assert!((r.root - 2f64.powf(1.0 / 3.0)).abs() < 1e-9);
//!
//! // Minimum of (x - 3)^2 on [0, 10].
//! let m = golden_section_min(|x| (x - 3.0) * (x - 3.0), 0.0, 10.0, 1e-10, 500)?;
//! assert!((m.argmin - 3.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fractional;
pub mod grid;
pub mod lambertw;
pub mod roots;
pub mod scalar;

pub use error::NumError;
pub use fractional::{
    solve_sum_of_ratios_in, FractionalProblem, FractionalSummary, JongConfig, JongScratch, WarmMode,
};
pub use lambertw::lambert_w0;
pub use roots::{bisect, brent, BisectOutcome};
pub use scalar::{golden_section_min, ScalarMinimum};
