//! Reusable per-device scratch buffers for the solver hot path.
//!
//! Every call into [`JointOptimizer::solve`] used to allocate a fresh set of per-device
//! vectors (upload times, rate floors, frequencies, KKT scratch) — dozens of
//! allocations per outer iteration, millions across a figure sweep at the paper's 100
//! scenario draws per point. A [`SolverWorkspace`] owns those buffers once; the entry
//! points that take one (`JointOptimizer::{solve_with, solve_summary_with,
//! solve_with_deadline_summary_in}` and the baselines' `allocate_summary_with`) borrow it
//! mutably and reuse the allocations call after call.
//!
//! # Reuse contract: everything is scratch, nothing is carried
//!
//! No field of the workspace carries *signal* between solver calls. Every entry point that
//! borrows the workspace clears or overwrites each buffer it touches *before* reading it,
//! and resizes buffers to the scenario at hand — so one workspace can serve scenarios of
//! different device counts back to back, and a freshly-created workspace produces
//! bit-identical results to a heavily reused one (a regression test in this module holds
//! that promise down). The only thing reuse preserves is `Vec` capacity.
//!
//! Two gated exceptions ride along without weakening that contract on the reference path:
//!
//! * [`SolverWorkspace::counters`] accumulates iteration counts across solves —
//!   instrumentation only, never read by any solver.
//! * With [`SolverConfig::warm_start`](crate::SolverConfig) **enabled** (the default), the
//!   Subproblem-2 scratch deliberately carries the previous solve's Jong multipliers,
//!   bandwidth price `μ` with each rate-constrained device's `W₀`/`e^W₀` pair at that
//!   price, reference clearing price and rate floors to seed the next solve. Results then
//!   converge to the same fixed point within the configured tolerances but may differ in
//!   the last bits depending on what the workspace solved before;
//!   [`SolverWorkspace::reset_warm_start`] restores the fresh-workspace behaviour. With
//!   warm start disabled none of that state is ever read and the strict contract holds bit
//!   for bit. Subproblem 1 carries nothing either way.
//!
//! Algorithm 2's Subproblem-1 step and the baselines need each device's upload time at the
//! working allocation, never its rate: [`SolverWorkspace::upload_times_from_allocation`]
//! writes `d_n / r_n` straight into [`SolverWorkspace::uploads_s`], with no rate lane in
//! between.
//!
//! The intended pattern is one workspace per worker thread, living as long as the worker:
//! the sweep engine (`experiments::engine`) creates one per worker, threads it through
//! `Arm::evaluate` for every cell that worker picks up, and calls
//! [`SolverWorkspace::reset_warm_start`] at every cell-group boundary so warm-started
//! sweeps stay bit-identical across thread counts.
//!
//! [`JointOptimizer::solve`]: crate::JointOptimizer::solve

use crate::sp2::Sp2Scratch;
use crate::trace::{OuterIteration, SolveCounters};
use flsys::{Allocation, ScenarioArrays};
use wireless::channel::shannon_rate_raw;

/// Reusable per-device buffers for [`JointOptimizer`](crate::JointOptimizer), Subproblem 1,
/// Subproblem 2 and the baseline allocators. See the [module docs](self) for the reuse
/// contract (all scratch, nothing carried).
///
/// The fields are public so downstream harnesses (the sweep engine, the baseline
/// allocators) can stage their own per-device intermediates in the same buffers; their
/// contents are unspecified between calls.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// Per-device upload times `T_n^up = d_n / r_n` (seconds), staged from the working
    /// allocation by [`Self::upload_times_from_allocation`].
    pub uploads_s: Vec<f64>,
    /// Per-device minimum-rate floors `r_n^min` handed to Subproblem 2 (bit/s).
    pub r_min_bps: Vec<f64>,
    /// Per-device CPU frequencies (Hz) — Subproblem 1's output buffer.
    pub frequencies_hz: Vec<f64>,
    /// Complete Subproblem-2 scratch: KKT buffers, the Newton-like outer loop's vectors,
    /// and the double-buffered `(p, B)` points (see [`Sp2Scratch`]).
    pub sp2: Sp2Scratch,
    /// Algorithm 2's working allocation (and general staging allocation for baselines).
    pub allocation: Allocation,
    /// The previous outer iterate (Algorithm 2's convergence metric compares against it).
    pub previous: Allocation,
    /// The best iterate seen so far. After a `*_summary_*` solve this holds the returned
    /// solution (the one piece of output that intentionally stays in the workspace).
    pub best: Allocation,
    /// Pooled backing store of the convergence [`Trace`](crate::Trace) — cleared per solve.
    pub trace: Vec<OuterIteration>,
    /// Cumulative iteration counters of every solve that borrowed this workspace
    /// (instrumentation only; reset with [`SolveCounters::reset`]).
    pub counters: SolveCounters,
    /// Struct-of-arrays view of the scenario's per-device quantities, rebuilt (capacity
    /// reused) at the top of every solve that borrows the workspace. The inner loops of
    /// Subproblems 1 and 2 read these contiguous lanes instead of chasing
    /// `DeviceProfile` fields.
    pub arrays: ScenarioArrays,
    /// Optional wall-clock budget for the *next* solve that borrows this workspace.
    ///
    /// When set, Algorithm 2 checks it at solve entry and at every outer-iteration
    /// boundary and abandons the solve with
    /// [`CoreError::DeadlineExpired`](crate::CoreError::DeadlineExpired) once the instant
    /// has passed — the hook serving layers use to turn a slow request into a typed
    /// `degraded` response instead of a hang. This is a caller-managed *input*, not
    /// carried state: solvers only read it, never clear or set it, so a long-lived
    /// workspace owner must decide per solve whether a budget applies (and `None`, the
    /// default, costs the hot path nothing beyond one branch per outer iteration).
    pub solve_deadline: Option<std::time::Instant>,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace with per-device buffers pre-sized for `n` devices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            uploads_s: Vec::with_capacity(n),
            r_min_bps: Vec::with_capacity(n),
            frequencies_hz: Vec::with_capacity(n),
            sp2: Sp2Scratch::new(),
            allocation: Allocation::default(),
            previous: Allocation::default(),
            best: Allocation::default(),
            trace: Vec::new(),
            counters: SolveCounters::default(),
            arrays: ScenarioArrays::with_capacity(n),
            solve_deadline: None,
        }
    }

    /// Drops every piece of carried warm-start state (Jong multipliers, `μ` seed and its
    /// `W₀` lane pair, reference price, rate floors), restoring fresh-workspace behaviour
    /// for the next warm-started solve. A no-op for results when
    /// [`SolverConfig::warm_start`](crate::SolverConfig) is off.
    pub fn reset_warm_start(&mut self) {
        self.sp2.reset_warm_start();
    }

    /// Tears the workspace down to a freshly-constructed state, keeping only the
    /// per-device `Vec` capacity as a sizing hint.
    ///
    /// This is the quarantine hammer for supervisors that suspect the workspace itself —
    /// a panicking solve, a non-finite objective, or warm-vs-cold drift beyond tolerance.
    /// Unlike [`Self::reset_warm_start`] (which drops only the deliberately-carried
    /// warm-start state) this also zeroes the counters, the staged allocations, the trace
    /// pool and any pending [`Self::solve_deadline`], so nothing a corrupted solve may
    /// have left behind can influence the next one.
    pub fn quarantine_reset(&mut self) {
        let n = self.uploads_s.capacity();
        *self = Self::with_capacity(n);
    }

    /// Fills [`Self::uploads_s`] with each device's upload time `T_n^up = d_n / r_n` at the
    /// Shannon rate the working [`Self::allocation`] gives it
    /// ([`flsys::model::upload_time`]: `∞` for a non-positive rate).
    pub fn upload_times_from_allocation(&mut self, scenario: &flsys::Scenario) {
        let n0 = scenario.params.noise.watts_per_hz();
        let Allocation { powers_w, bandwidths_hz, .. } = &self.allocation;
        self.uploads_s.clear();
        self.uploads_s.extend(scenario.devices.iter().enumerate().map(|(i, d)| {
            let r = shannon_rate_raw(powers_w[i], bandwidths_hz[i], d.gain.value(), n0);
            flsys::model::upload_time(d.upload_bits, r)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JointOptimizer, SolverConfig};
    use flsys::{ScenarioBuilder, Weights};

    /// The reuse contract: a workspace that has served a *larger* scenario (and a smaller
    /// one) must produce bit-identical results on the next scenario — stale buffer contents
    /// or lengths must never leak between calls.
    #[test]
    fn reuse_across_device_counts_matches_fresh_workspace() {
        // Warm start off: the strict contract (bit-identical to a fresh workspace) only
        // holds when no warm-start state is carried. The warm variant of this promise —
        // reuse + reset_warm_start() matches fresh — is held down by
        // `alg2::tests::warm_workspace_is_deterministic_after_reset`.
        let opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(false));
        let big = ScenarioBuilder::paper_default().with_devices(10).build(91).unwrap();
        let small = ScenarioBuilder::paper_default().with_devices(4).build(92).unwrap();
        let mid = ScenarioBuilder::paper_default().with_devices(7).build(93).unwrap();

        let mut reused = SolverWorkspace::new();
        // Dirty the workspace with a 10-device solve, then shrink to 4, then grow to 7.
        let mut seq = Vec::new();
        for s in [&big, &small, &mid] {
            seq.push(opt.solve_with(s, Weights::balanced(), &mut reused).unwrap());
        }

        for (s, reused_out) in [&big, &small, &mid].into_iter().zip(&seq) {
            let fresh =
                opt.solve_with(s, Weights::balanced(), &mut SolverWorkspace::new()).unwrap();
            assert_eq!(&fresh, reused_out, "workspace reuse changed the result");
            // And the plain (workspace-less) entry point agrees too.
            let plain = opt.solve(s, Weights::balanced()).unwrap();
            assert_eq!(&plain, reused_out);
        }

        // Same for the deadline-constrained path (the winning allocation and the trace).
        let mut reused = SolverWorkspace::with_capacity(10);
        for s in [&big, &small] {
            let summary = opt.solve_with_deadline_summary_in(s, 150.0, &mut reused).unwrap();
            let fresh = opt.solve_with_deadline(s, 150.0).unwrap();
            assert_eq!((&reused.best, &reused.trace), (&fresh.allocation, &fresh.trace.iterations));
            assert_eq!(summary.converged, fresh.converged);
        }
    }
}
