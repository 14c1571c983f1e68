//! The fixed-split allocator behind comm-only (Figure 7) and Scheme 1 (Figure 8).
//!
//! Both baselines minimize total energy under a hard completion-time deadline in the same
//! four steps:
//!
//! 1. start from the paper's initialization `p_n = p_max`, `B_n = B/(2N)`;
//! 2. split every device's round deadline between computation and upload **once**, from
//!    the initial uplink times;
//! 3. pin each CPU frequency to the cheapest one that fits the computation share;
//! 4. minimize transmission energy over `(p, B)` under the rate floors the pinned
//!    frequencies leave ([`subproblem2_step`], Algorithm 2's own Subproblem-2 step).
//!
//! They differ only in which initial upload time bounds a device's computation share: the
//! slowest device's for comm-only ([`FixedSplitAllocator::comm_only`]), the device's own
//! for Scheme 1 ([`FixedSplitAllocator::scheme1`]).

use crate::result::BaselineResult;
use fedopt_core::alg2::subproblem2_step;
use fedopt_core::{CoreError, SolverConfig, SolverWorkspace};
use flsys::{CostSummary, Scenario, Weights};

/// Which initial upload time bounds a device's computation share of the round deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UploadBound {
    /// The slowest device's: one compute budget shared by every device (comm-only).
    Slowest,
    /// The device's own (Scheme 1).
    Own,
}

/// Deadline-constrained energy minimization with the compute/upload split fixed up front:
/// comm-only or Scheme 1 (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct FixedSplitAllocator {
    pub(crate) config: SolverConfig,
    pub(crate) bound: UploadBound,
}

impl FixedSplitAllocator {
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
        let round_deadline = total_deadline_s / scenario.params.rg();
        let rl = scenario.params.rl();

        // Step 1: the paper's initialization and its uplink times.
        ws.allocation.set_half_split_max(scenario);
        ws.upload_times_from_allocation(scenario);

        // Steps 2–3: the cheapest frequency that fits each device's computation share.
        let slowest = ws.uploads_s.iter().cloned().fold(0.0, f64::max);
        let SolverWorkspace { uploads_s, r_min_bps, allocation, .. } = &mut *ws;
        let frequencies = &mut allocation.frequencies_hz;
        frequencies.clear();
        frequencies.extend(scenario.devices.iter().zip(uploads_s.iter()).map(|(d, &own)| {
            let upload = if self.bound == UploadBound::Slowest { slowest } else { own };
            let compute_budget = (round_deadline - upload).max(1e-6);
            d.clamp_frequency(rl * d.cycles_per_local_iteration() / compute_budget)
        }));

        // Step 4: transmission-energy minimization under the upload share those frequencies
        // leave.
        r_min_bps.clear();
        r_min_bps.extend(scenario.devices.iter().zip(frequencies.iter()).map(|(d, &f)| {
            let t_cmp = rl * d.cycles_per_local_iteration() / f;
            d.upload_bits / (round_deadline - t_cmp).max(1e-6)
        }));
        ws.arrays.rebuild(scenario);
        let (_, cost) = subproblem2_step(scenario, Weights::energy_only(), &self.config, true, ws)?;
        Ok(cost)
    }
}
