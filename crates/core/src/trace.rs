//! Convergence traces of the alternating optimization.

use serde::{Deserialize, Serialize};

/// Snapshot of one outer iteration of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OuterIteration {
    /// Outer iteration index (1-based, matching the paper's `k`).
    pub k: usize,
    /// Weighted objective `w1·E + w2·R_g·T` after this iteration.
    pub objective: f64,
    /// Total energy `E` after this iteration (J).
    pub total_energy_j: f64,
    /// Total completion time `R_g·T` after this iteration (s).
    pub total_time_s: f64,
    /// Normalized change of the solution vector relative to the previous iteration.
    pub solution_change: f64,
    /// Whether the Subproblem-2 Newton-like loop converged in this iteration, at the
    /// tolerance its iteration gave it ([`OuterIteration::sp2_phi_tol`]).
    pub sp2_converged: bool,
    /// Newton-like (Jong / Algorithm-1) iterations Subproblem 2 used in this iteration
    /// (`0` when the warm-start fast path skipped the loop).
    pub sp2_iterations: usize,
    /// The `‖ϕ‖∞` tolerance this iteration's Subproblem-2 solve was given: `jong.phi_tol`
    /// on the cold path, the inexact alternation's looser one on the warm path (see
    /// [`SolverConfig::warm_start`](crate::SolverConfig::warm_start)).
    pub sp2_phi_tol: f64,
}

/// Cumulative work counters of the solver stack, accumulated in a
/// [`SolverWorkspace`](crate::SolverWorkspace) across every solve that borrows it.
///
/// The counts are instrumentation only — they never influence the solve — and they are a
/// deterministic function of the solve inputs (plus any carried warm-start state), so
/// per-sweep totals are reproducible across thread counts. Warm-start savings are asserted
/// against these counters in tests, not just benchmarked: a warm-started sweep of the fig 2
/// quick grid must spend at most half the Jong iterations of a cold one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounters {
    /// Outer iterations of Algorithm 2 (both the weighted and the deadline alternation).
    pub outer_iterations: u64,
    /// Newton-like (Jong / Algorithm-1) iterations across all Subproblem-2 solves.
    pub jong_iterations: u64,
    /// Theorem-2 parametric (KKT) solves across all Subproblem-2 solves.
    pub kkt_solves: u64,
    /// `g'(μ)` lane passes across all `μ` searches: one count per pass over the
    /// rate-constrained devices, whether Newton, bisection or Brent ran it (the name
    /// predates the Newton search and is kept because benchmark and JSON readers use it).
    pub mu_bisect_evals: u64,
    /// Subproblem-2 solves short-circuited by the warm-start fast path.
    pub sp2_fast_path_hits: u64,
    /// Lane passes of Subproblem 1's Newton search for the optimal round time `T`.
    pub sp1_probe_evals: u64,
    /// `(ρ, idx)` key sorts of the Theorem-2 step-4b bounded LP — at most one per
    /// parametric KKT solve (zero when every device is rate-tight and the LP has no
    /// entries to order). The ordering is `μ`-invariant, so it is never re-sorted per
    /// `g'(μ)` evaluation; `lp_sorts ≤ kkt_solves` is the asserted evidence.
    pub lp_sorts: u64,
    /// Solves abandoned by the watchdog because no outer iteration produced a finite
    /// objective within the iteration budget (see
    /// [`CoreError::NonFiniteObjective`](crate::CoreError::NonFiniteObjective)). Callers
    /// degrade such a solve to an infeasible cell instead of aborting a whole sweep, so
    /// this counter is the only loud record that degradation happened.
    pub degraded_solves: u64,
}

impl SolveCounters {
    /// Adds `other`'s counts onto `self`.
    pub fn add(&mut self, other: &Self) {
        self.outer_iterations += other.outer_iterations;
        self.jong_iterations += other.jong_iterations;
        self.kkt_solves += other.kkt_solves;
        self.mu_bisect_evals += other.mu_bisect_evals;
        self.sp2_fast_path_hits += other.sp2_fast_path_hits;
        self.sp1_probe_evals += other.sp1_probe_evals;
        self.lp_sorts += other.lp_sorts;
        self.degraded_solves += other.degraded_solves;
    }

    /// The counts accumulated since an `earlier` snapshot of the same counter set.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            outer_iterations: self.outer_iterations - earlier.outer_iterations,
            jong_iterations: self.jong_iterations - earlier.jong_iterations,
            kkt_solves: self.kkt_solves - earlier.kkt_solves,
            mu_bisect_evals: self.mu_bisect_evals - earlier.mu_bisect_evals,
            sp2_fast_path_hits: self.sp2_fast_path_hits - earlier.sp2_fast_path_hits,
            sp1_probe_evals: self.sp1_probe_evals - earlier.sp1_probe_evals,
            lp_sorts: self.lp_sorts - earlier.lp_sorts,
            degraded_solves: self.degraded_solves - earlier.degraded_solves,
        }
    }

    /// Resets every count to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Folds one Subproblem-2 solve's summary into the counters.
    pub fn record_sp2(&mut self, summary: &crate::sp2::Sp2Summary) {
        self.jong_iterations += summary.iterations as u64;
        self.kkt_solves += summary.kkt_solves;
        self.mu_bisect_evals += summary.mu_bisect_evals;
        self.sp2_fast_path_hits += u64::from(summary.fast_path);
        self.lp_sorts += summary.lp_sorts;
    }
}

/// Full convergence trace of one solver run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// One entry per outer iteration, in order.
    pub iterations: Vec<OuterIteration>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one outer iteration.
    pub fn push(&mut self, iteration: OuterIteration) {
        self.iterations.push(iteration);
    }

    /// Number of outer iterations recorded.
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.iterations.is_empty()
    }

    /// The best (lowest) objective seen so far.
    pub fn best_objective(&self) -> Option<f64> {
        self.iterations
            .iter()
            .map(|it| it.objective)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(k: usize, obj: f64) -> OuterIteration {
        OuterIteration {
            k,
            objective: obj,
            total_energy_j: obj / 2.0,
            total_time_s: obj / 2.0,
            solution_change: 0.1,
            sp2_converged: true,
            sp2_iterations: 3,
            sp2_phi_tol: 1e-9,
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(iter(1, 10.0));
        t.push(iter(2, 8.0));
        t.push(iter(3, 7.9));
        assert_eq!(t.len(), 3);
        assert_eq!(t.best_objective(), Some(7.9));
    }

    #[test]
    fn empty_trace_has_no_best() {
        assert_eq!(Trace::new().best_objective(), None);
    }
}
