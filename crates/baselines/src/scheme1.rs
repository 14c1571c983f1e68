//! Scheme 1 — the state-of-the-art comparison of Figure 8.
//!
//! The paper compares against Algorithm 3 of Yang et al., *"Energy efficient federated
//! learning over wireless communication networks"* (IEEE TWC 2021), which minimizes total
//! energy subject to a hard completion-time deadline. That solver is not publicly available
//! in Rust, so this module reimplements its *structure*: the four fixed-split steps of
//! [`crate::fixed_split`], with each device's computation share bounded by its **own**
//! initial upload time. That bound is the only difference from [`crate::comm_only`], whose
//! devices share the budget the slowest upload leaves.
//!
//! The essential difference from the proposed algorithm (which Figure 8 highlights) is that
//! the compute/upload time split is *not* re-optimized jointly with the bandwidth
//! allocation: when the deadline is tight, the initial equal-bandwidth split misjudges the
//! upload times and the scheme pays for it in energy — exactly the regime where the paper
//! reports the largest gap.

use crate::fixed_split::{FixedSplitAllocator, UploadBound};
use fedopt_core::SolverConfig;

impl FixedSplitAllocator {
    /// Scheme 1: the structure of Yang et al.'s deadline-constrained energy minimizer, with
    /// each device's computation share bounded by its own initial upload time.
    pub fn scheme1(config: SolverConfig) -> Self {
        Self { link: Some(config), bound: UploadBound::Own }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedopt_core::JointOptimizer;
    use flsys::model::meets_deadline;
    use flsys::{Scenario, ScenarioBuilder};

    fn scenario(seed: u64) -> Scenario {
        ScenarioBuilder::paper_default().with_devices(10).build(seed).unwrap()
    }

    #[test]
    fn allocation_is_feasible_and_roughly_meets_deadline() {
        let s = scenario(61);
        let alloc = FixedSplitAllocator::scheme1(SolverConfig::fast());
        let deadline = 100.0;
        let r = alloc.allocate(&s, deadline).unwrap();
        assert!(r.allocation.is_feasible(&s, 1e-5));
        assert!(
            meets_deadline(r.total_time_s(), deadline),
            "time {} vs {deadline}",
            r.total_time_s()
        );
    }

    #[test]
    fn tighter_deadline_costs_more_energy() {
        let s = scenario(62);
        let alloc = FixedSplitAllocator::scheme1(SolverConfig::fast());
        let tight = alloc.allocate(&s, 90.0).unwrap();
        let loose = alloc.allocate(&s, 150.0).unwrap();
        assert!(tight.total_energy_j() >= loose.total_energy_j() * (1.0 - 0.02));
    }

    #[test]
    fn proposed_algorithm_is_no_worse_than_scheme1() {
        // The headline claim of Figure 8.
        let s = scenario(63);
        let cfg = SolverConfig::fast();
        let scheme1 = FixedSplitAllocator::scheme1(cfg);
        let proposed = JointOptimizer::new(cfg);
        for deadline in [90.0, 110.0, 150.0] {
            let s1 = scheme1.allocate(&s, deadline).unwrap();
            let ours = proposed.solve_with_deadline(&s, deadline).unwrap();
            assert!(
                ours.total_energy_j <= s1.total_energy_j() * 1.02,
                "deadline {deadline}: proposed {} vs scheme1 {}",
                ours.total_energy_j,
                s1.total_energy_j()
            );
        }
    }
}
