//! Communication-only optimization (Figure 7 of the paper).
//!
//! > "Each device's computation frequency is set as a fixed value. We optimize only the
//! > transmission power and bandwidth allocated to each device. To guarantee there is a
//! > feasible solution, we set the fixed frequency value for each device as
//! > `R_g R_l c_n D_n / (T − R_g·max(d_n/r_n))`, which is derived from constraint (9a), and
//! > `r_n` is calculated from the initial bandwidth and transmission power."
//!
//! Those are the four fixed-split steps of [`crate::fixed_split`] with one compute budget
//! shared by every device: the deadline minus the **slowest** initial upload. That bound is
//! the only difference from [`crate::scheme1`], where each device's own upload bounds its
//! share.

use crate::fixed_split::{FixedSplitAllocator, UploadBound};
use fedopt_core::SolverConfig;

impl FixedSplitAllocator {
    /// Communication-only optimization: deadline-constrained energy minimization that
    /// only touches `(p, B)`, with every device's CPU frequency pinned to the paper's
    /// fixed value (the compute budget left by the slowest initial upload).
    pub fn comm_only(config: SolverConfig) -> Self {
        Self { link: Some(config), bound: UploadBound::Slowest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::model::meets_deadline;
    use flsys::ScenarioBuilder;

    #[test]
    fn allocation_is_feasible_and_roughly_meets_deadline() {
        let s = ScenarioBuilder::paper_default().with_devices(10).build(41).unwrap();
        let alloc = FixedSplitAllocator::comm_only(SolverConfig::fast());
        let deadline = 120.0;
        let r = alloc.allocate(&s, deadline).unwrap();
        assert!(r.allocation.is_feasible(&s, 1e-5));
        assert!(
            meets_deadline(r.total_time_s(), deadline),
            "time {} vs deadline {deadline}",
            r.total_time_s()
        );
    }

    #[test]
    fn tighter_deadline_never_reduces_energy() {
        let s = ScenarioBuilder::paper_default().with_devices(10).build(42).unwrap();
        let alloc = FixedSplitAllocator::comm_only(SolverConfig::fast());
        let tight = alloc.allocate(&s, 100.0).unwrap();
        let loose = alloc.allocate(&s, 150.0).unwrap();
        assert!(loose.total_energy_j() <= tight.total_energy_j() * 1.05);
    }

    #[test]
    fn frequencies_are_fixed_by_the_deadline_not_optimized() {
        // All devices share the same compute budget, so frequency ratios track c_n·D_n.
        let s = ScenarioBuilder::paper_default().with_devices(6).build(43).unwrap();
        let alloc = FixedSplitAllocator::comm_only(SolverConfig::fast());
        let r = alloc.allocate(&s, 130.0).unwrap();
        let ratios: Vec<f64> = s
            .devices
            .iter()
            .zip(&r.allocation.frequencies_hz)
            .map(|(d, &f)| f / d.cycles_per_local_iteration())
            .collect();
        let first = ratios[0];
        for rho in &ratios {
            assert!((rho - first).abs() / first < 1e-6, "ratios differ: {ratios:?}");
        }
    }
}
