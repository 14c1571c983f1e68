//! Scheme 1 — the state-of-the-art comparison of Figure 8.
//!
//! The paper compares against Algorithm 3 of Yang et al., *"Energy efficient federated
//! learning over wireless communication networks"* (IEEE TWC 2021), which minimizes total
//! energy subject to a hard completion-time deadline. That solver is not publicly available
//! in Rust, so this module reimplements its *structure*:
//!
//! 1. start from the paper's initialization `p_n = p_max`, `B_n = B/(2N)`;
//! 2. split every device's per-round deadline between computation and upload **once**, based
//!    on the initial uplink times;
//! 3. pick the cheapest CPU frequency that fits the computation share;
//! 4. minimize transmission energy over `(p, B)` under the rate floors implied by the upload
//!    share.
//!
//! The essential difference from the proposed algorithm (which Figure 8 highlights) is that
//! the compute/upload time split is *not* re-optimized jointly with the bandwidth
//! allocation: when the deadline is tight, the initial equal-bandwidth split misjudges the
//! upload times and the scheme pays for it in energy — exactly the regime where the paper
//! reports the largest gap.

use crate::result::BaselineResult;
use fedopt_core::sp2;
use fedopt_core::{CoreError, SolverConfig, SolverWorkspace};
use flsys::{CostSummary, Scenario, Weights};

/// Reimplementation of the structure of Yang et al.'s deadline-constrained energy minimizer.
#[derive(Debug, Clone, Default)]
pub struct Scheme1Allocator {
    config: SolverConfig,
}

impl Scheme1Allocator {
    /// Creates the allocator with the given solver configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self { config }
    }

    /// Minimizes total energy under the total completion-time deadline `total_deadline_s`.
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

        // Step 1: the paper's initialization.
        ws.allocation.set_half_split_max(scenario);
        ws.allocation.rates_bps_into(scenario, &mut ws.rates_bps);
        ws.upload_times_from_rates(scenario);
        let SolverWorkspace {
            uploads_s, r_min_bps, frequencies_hz, sp2, allocation, counters, ..
        } = &mut *ws;

        // Steps 2–3: fix each device's compute/upload split from the initial uplink time and
        // choose the cheapest frequency that fits the compute share.
        frequencies_hz.clear();
        frequencies_hz.extend(scenario.devices.iter().zip(uploads_s.iter()).map(|(d, &t_up)| {
            let compute_budget = (round_deadline - t_up).max(1e-6);
            d.clamp_frequency(rl * d.cycles_per_local_iteration() / compute_budget)
        }));

        // Step 4: transmission-energy minimization under the upload share left by that split.
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
    use fedopt_core::JointOptimizer;
    use flsys::ScenarioBuilder;

    fn scenario(seed: u64) -> Scenario {
        ScenarioBuilder::paper_default().with_devices(10).build(seed).unwrap()
    }

    #[test]
    fn allocation_is_feasible_and_roughly_meets_deadline() {
        let s = scenario(61);
        let alloc = Scheme1Allocator::new(SolverConfig::fast());
        let deadline = 100.0;
        let r = alloc.allocate(&s, deadline).unwrap();
        assert!(r.allocation.is_feasible(&s, 1e-5));
        assert!(r.total_time_s() <= deadline * 1.1, "time {} vs {deadline}", r.total_time_s());
    }

    #[test]
    fn tighter_deadline_costs_more_energy() {
        let s = scenario(62);
        let alloc = Scheme1Allocator::new(SolverConfig::fast());
        let tight = alloc.allocate(&s, 90.0).unwrap();
        let loose = alloc.allocate(&s, 150.0).unwrap();
        assert!(tight.total_energy_j() >= loose.total_energy_j() * (1.0 - 0.02));
    }

    #[test]
    fn proposed_algorithm_is_no_worse_than_scheme1() {
        // The headline claim of Figure 8.
        let s = scenario(63);
        let cfg = SolverConfig::fast();
        let scheme1 = Scheme1Allocator::new(cfg);
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
