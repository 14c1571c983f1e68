//! Communication-only optimization (Figure 7 of the paper).
//!
//! > "Each device's computation frequency is set as a fixed value. We optimize only the
//! > transmission power and bandwidth allocated to each device. To guarantee there is a
//! > feasible solution, we set the fixed frequency value for each device as
//! > `R_g R_l c_n D_n / (T − R_g·max(d_n/r_n))`, which is derived from constraint (9a), and
//! > `r_n` is calculated from the initial bandwidth and transmission power."

use crate::result::BaselineResult;
use fedopt_core::sp2;
use fedopt_core::{CoreError, SolverConfig, SolverWorkspace};
use flsys::{CostSummary, Scenario, Weights};

/// Deadline-constrained energy minimization that only touches `(p, B)`.
#[derive(Debug, Clone, Default)]
pub struct CommOnlyAllocator {
    config: SolverConfig,
}

impl CommOnlyAllocator {
    /// Creates the allocator with the given solver configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self { config }
    }

    /// Minimizes transmission energy under the total completion-time deadline
    /// `total_deadline_s`, with every device's CPU frequency pinned to the paper's fixed
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the inner Subproblem-2 solver fails or the scenario rejects
    /// the allocation.
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
        let params = &scenario.params;
        let round_deadline = total_deadline_s / params.rg();
        let rl = params.rl();

        // Initial (p, B): maximum power, half-band equal split (the paper's initialization).
        ws.allocation.set_half_split_max(scenario);
        ws.allocation.rates_bps_into(scenario, &mut ws.rates_bps);
        ws.upload_times_from_rates(scenario);
        let SolverWorkspace {
            uploads_s, r_min_bps, frequencies_hz, sp2, allocation, counters, ..
        } = &mut *ws;
        let max_upload = uploads_s.iter().cloned().fold(0.0, f64::max);

        // Fixed frequency from constraint (9a), shared compute budget = deadline − slowest upload.
        let compute_budget = (round_deadline - max_upload).max(1e-6);
        frequencies_hz.clear();
        frequencies_hz.extend(
            scenario
                .devices
                .iter()
                .map(|d| d.clamp_frequency(rl * d.cycles_per_local_iteration() / compute_budget)),
        );

        // Optimize (p, B) for minimum transmission energy under the per-device rate floors
        // implied by the deadline and the fixed frequencies.
        r_min_bps.clear();
        r_min_bps.extend(scenario.devices.iter().enumerate().map(|(i, d)| {
            let t_cmp = rl * d.cycles_per_local_iteration() / frequencies_hz[i];
            let budget = (round_deadline - t_cmp).max(1e-6);
            d.upload_bits / budget
        }));
        sp2.stage_start(&allocation.powers_w, &allocation.bandwidths_hz);
        let sp2_sol =
            sp2::solve_in(scenario, Weights::energy_only(), r_min_bps, &self.config, sp2)?;
        counters.record_sp2(&sp2_sol);

        allocation.powers_w.copy_from_slice(&sp2.solution().powers_w);
        allocation.bandwidths_hz.copy_from_slice(&sp2.solution().bandwidths_hz);
        allocation.frequencies_hz.copy_from_slice(frequencies_hz);
        allocation.project_feasible(scenario);
        scenario.cost_summary(allocation).map_err(CoreError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::ScenarioBuilder;

    #[test]
    fn allocation_is_feasible_and_roughly_meets_deadline() {
        let s = ScenarioBuilder::paper_default().with_devices(10).build(41).unwrap();
        let alloc = CommOnlyAllocator::new(SolverConfig::fast());
        let deadline = 120.0;
        let r = alloc.allocate(&s, deadline).unwrap();
        assert!(r.allocation.is_feasible(&s, 1e-5));
        assert!(
            r.total_time_s() <= deadline * 1.1,
            "time {} vs deadline {deadline}",
            r.total_time_s()
        );
    }

    #[test]
    fn tighter_deadline_never_reduces_energy() {
        let s = ScenarioBuilder::paper_default().with_devices(10).build(42).unwrap();
        let alloc = CommOnlyAllocator::new(SolverConfig::fast());
        let tight = alloc.allocate(&s, 100.0).unwrap();
        let loose = alloc.allocate(&s, 150.0).unwrap();
        assert!(loose.total_energy_j() <= tight.total_energy_j() * 1.05);
    }

    #[test]
    fn frequencies_are_fixed_by_the_deadline_not_optimized() {
        // All devices share the same compute budget, so frequency ratios track c_n·D_n.
        let s = ScenarioBuilder::paper_default().with_devices(6).build(43).unwrap();
        let alloc = CommOnlyAllocator::new(SolverConfig::fast());
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
