//! Computation-only optimization (Figure 7 of the paper).
//!
//! > "Each device's transmission power and bandwidth are fixed and we optimize only the CPU
//! > frequency. The transmission power and bandwidth of device n are set as `p_n = p_max` and
//! > `B_n = B/(2N)`."

use crate::result::BaselineResult;
use fedopt_core::{sp1, CoreError, SolverWorkspace};
use flsys::{CostSummary, Scenario};

/// Deadline-constrained energy minimization that only touches the CPU frequencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompOnlyAllocator;

impl CompOnlyAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        Self
    }

    /// Minimizes computation energy under the total completion-time deadline
    /// `total_deadline_s`, with `(p, B)` pinned to the paper's fixed values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the scenario rejects the allocation shape.
    pub fn allocate(
        &self,
        scenario: &Scenario,
        total_deadline_s: f64,
    ) -> Result<BaselineResult, CoreError> {
        let mut ws = SolverWorkspace::new();
        self.allocate_summary_with(scenario, total_deadline_s, &mut ws)?;
        BaselineResult::evaluate(scenario, ws.allocation).map_err(CoreError::from)
    }

    /// [`Self::allocate`] against a caller-owned [`SolverWorkspace`], without materialising
    /// a [`BaselineResult`] — the sweep hot path, allocation-free in steady state. The
    /// chosen allocation stays in [`SolverWorkspace::allocation`]; the returned
    /// [`CostSummary`] totals are bit-identical to the full result's.
    ///
    /// # Errors
    ///
    /// Same as [`Self::allocate`].
    pub fn allocate_summary_with(
        &self,
        scenario: &Scenario,
        total_deadline_s: f64,
        ws: &mut SolverWorkspace,
    ) -> Result<CostSummary, CoreError> {
        let round_deadline = total_deadline_s / scenario.params.rg();

        ws.allocation.set_half_split_max(scenario);
        ws.upload_times_from_allocation(scenario);
        let SolverWorkspace { uploads_s, allocation, .. } = &mut *ws;

        // The cheapest frequencies that still meet the deadline given the fixed uplink times.
        let frequencies = &mut allocation.frequencies_hz;
        sp1::frequencies_for_deadline_into(scenario, round_deadline, uploads_s, frequencies);
        allocation.project_feasible(scenario);
        scenario.cost_summary(allocation).map_err(CoreError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::ScenarioBuilder;

    #[test]
    fn allocation_is_feasible_and_uses_fixed_p_and_b() {
        let s = ScenarioBuilder::paper_default().with_devices(8).build(51).unwrap();
        let alloc = CompOnlyAllocator::new();
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
        let alloc = CompOnlyAllocator::new();
        let deadline = 130.0;
        let r = alloc.allocate(&s, deadline).unwrap();
        assert!(r.total_time_s() <= deadline * 1.1);
    }

    #[test]
    fn looser_deadline_reduces_computation_energy() {
        let s = ScenarioBuilder::paper_default().with_devices(8).build(53).unwrap();
        let alloc = CompOnlyAllocator::new();
        let tight = alloc.allocate(&s, 100.0).unwrap();
        let loose = alloc.allocate(&s, 150.0).unwrap();
        assert!(loose.cost.computation_energy_j <= tight.cost.computation_energy_j * (1.0 + 1e-9));
        // Transmission energy is identical because (p, B) are pinned.
        assert!((loose.cost.transmission_energy_j - tight.cost.transmission_energy_j).abs() < 1e-9);
    }
}
