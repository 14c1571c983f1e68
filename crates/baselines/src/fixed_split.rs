//! The fixed-split allocator behind comm-only and comp-only (Figure 7) and Scheme 1
//! (Figure 8).
//!
//! Each baseline minimizes total energy under a hard completion-time deadline in up to four
//! steps:
//!
//! 1. start from the paper's initialization `p_n = p_max`, `B_n = B/(2N)`;
//! 2. split every device's round deadline between computation and upload **once**, from
//!    the initial uplink times;
//! 3. pin each CPU frequency to the cheapest one that fits the computation share;
//! 4. minimize transmission energy over `(p, B)` under the rate floors the pinned
//!    frequencies leave ([`subproblem2_step`], Algorithm 2's own Subproblem-2 step).
//!
//! They differ in which initial upload time bounds a device's computation share — the
//! slowest device's for comm-only ([`FixedSplitAllocator::comm_only`]), the device's own for
//! Scheme 1 ([`FixedSplitAllocator::scheme1`]) and comp-only
//! ([`FixedSplitAllocator::comp_only`]) — and in whether step 4 runs: comp-only keeps the
//! initial `(p, B)`. Whatever the steps leave must meet the deadline by the rule every arm
//! shares ([`meets_deadline`]); a miss is [`CoreError::InfeasibleDeadline`].

use crate::result::BaselineResult;
use fedopt_core::alg2::subproblem2_step;
use fedopt_core::{CoreError, SolverConfig, SolverWorkspace};
use flsys::model::{computation_time, frequency_for_window, meets_deadline, rate_for_window};
use flsys::{CostSummary, Scenario, Weights};

/// Which initial upload time bounds a device's computation share of the round deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UploadBound {
    /// The slowest device's: one compute budget shared by every device (comm-only).
    Slowest,
    /// The device's own (Scheme 1, comp-only).
    Own,
}

/// Deadline-constrained energy minimization with the compute/upload split fixed up front:
/// comm-only, comp-only or Scheme 1 (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct FixedSplitAllocator {
    /// The solver of step 4's `(p, B)` minimization; `None` skips the step.
    pub(crate) link: Option<SolverConfig>,
    pub(crate) bound: UploadBound,
}

impl FixedSplitAllocator {
    /// Minimizes total energy under the total completion-time deadline `total_deadline_s`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleDeadline`] if the allocation misses the deadline, and
    /// any [`CoreError`] of the inner Subproblem-2 solver or the cost evaluation.
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
        ws.arrays.rebuild(scenario);

        // Steps 2–3: the cheapest frequency that fits each device's computation share.
        let slowest = ws.uploads_s.iter().cloned().fold(0.0, f64::max);
        let SolverWorkspace { uploads_s, r_min_bps, allocation, arrays, .. } = &mut *ws;
        let lanes = arrays.cycles_per_iter.iter().zip(&arrays.f_min_hz).zip(&arrays.f_max_hz);
        let frequencies = &mut allocation.frequencies_hz;
        frequencies.clear();
        frequencies.extend(lanes.zip(uploads_s.iter()).map(|(((&cd, &f_min), &f_max), &own)| {
            let upload = if self.bound == UploadBound::Slowest { slowest } else { own };
            frequency_for_window(rl, cd, f_min, f_max, round_deadline - upload)
        }));

        // Step 4: transmission-energy minimization under the upload share those frequencies
        // leave.
        let cost = match &self.link {
            Some(config) => {
                let lanes = arrays.cycles_per_iter.iter().zip(&arrays.upload_bits);
                r_min_bps.clear();
                r_min_bps.extend(lanes.zip(frequencies.iter()).map(|((&cd, &d_bits), &f)| {
                    rate_for_window(d_bits, round_deadline - computation_time(rl, cd, f))
                }));
                subproblem2_step(scenario, Weights::energy_only(), config, true, ws)?.1
            }
            None => scenario.cost_summary_arrays(arrays, allocation)?,
        };
        if !meets_deadline(cost.round_time_s, round_deadline) {
            return Err(CoreError::InfeasibleDeadline {
                requested_s: total_deadline_s,
                achievable_s: cost.total_time_s,
            });
        }
        Ok(cost)
    }
}
