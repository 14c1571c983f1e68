//! Computation-only optimization (Figure 7 of the paper).
//!
//! > "Each device's transmission power and bandwidth are fixed and we optimize only the CPU
//! > frequency. The transmission power and bandwidth of device n are set as `p_n = p_max` and
//! > `B_n = B/(2N)`."
//!
//! Those are the first three fixed-split steps of [`crate::fixed_split`], each device's
//! computation share bounded by its own initial upload as in [`crate::scheme1`], with step 4
//! (the `(p, B)` minimization) skipped.

use crate::fixed_split::{FixedSplitAllocator, UploadBound};

impl FixedSplitAllocator {
    /// Computation-only optimization: deadline-constrained energy minimization that only
    /// touches the CPU frequencies, with `(p, B)` pinned to the paper's fixed values.
    pub fn comp_only() -> Self {
        Self { link: None, bound: UploadBound::Own }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::model::meets_deadline;
    use flsys::ScenarioBuilder;

    #[test]
    fn allocation_is_feasible_and_uses_fixed_p_and_b() {
        let s = ScenarioBuilder::paper_default().with_devices(8).build(51).unwrap();
        let alloc = FixedSplitAllocator::comp_only();
        let r = alloc.allocate(&s, 120.0).unwrap();
        assert!(r.allocation.is_feasible(&s, 1e-6));
        let half_share = s.params.total_bandwidth.value() / (2.0 * 8.0);
        for (dev, (&p, &b)) in
            s.devices.iter().zip(r.allocation.powers_w.iter().zip(&r.allocation.bandwidths_hz))
        {
            assert_eq!(p, dev.p_max.value());
            assert!((b - half_share).abs() < 1.0);
        }
    }

    #[test]
    fn roughly_meets_deadline_when_feasible() {
        let s = ScenarioBuilder::paper_default().with_devices(8).build(52).unwrap();
        let alloc = FixedSplitAllocator::comp_only();
        let deadline = 130.0;
        let r = alloc.allocate(&s, deadline).unwrap();
        assert!(meets_deadline(r.total_time_s(), deadline));
    }

    #[test]
    fn looser_deadline_reduces_computation_energy() {
        let s = ScenarioBuilder::paper_default().with_devices(8).build(53).unwrap();
        let alloc = FixedSplitAllocator::comp_only();
        let tight = alloc.allocate(&s, 100.0).unwrap();
        let loose = alloc.allocate(&s, 150.0).unwrap();
        assert!(loose.cost.computation_energy_j <= tight.cost.computation_energy_j * (1.0 + 1e-9));
        // Transmission energy is identical because (p, B) are pinned.
        assert!((loose.cost.transmission_energy_j - tight.cost.transmission_energy_j).abs() < 1e-9);
    }
}
