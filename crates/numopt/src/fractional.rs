//! Generic sum-of-ratios (fractional programming) solver.
//!
//! Subproblem 2 of the paper,
//! `min Σ_n w·p_n d_n / G_n(p_n, B_n)`, is a *sum-of-ratios* problem — NP-hard in general but
//! tractable here because every numerator is convex, every denominator is concave and
//! positive, and the feasible set is convex. The paper (following Y. Jong, *"An efficient
//! global optimization algorithm for nonlinear sum-of-ratios problem"*, 2012) converts it to a
//! parametric subtractive form and drives the parameters `(β, ν)` to a fixed point with a
//! Newton step (the paper's Algorithm 1, equations (24)–(31)).
//!
//! This module implements that outer loop generically: the caller supplies the numerators,
//! denominators and a solver for the parametric subproblem
//! `min_x Σ_i ν_i (n_i(x) − β_i d_i(x))`, and [`solve_sum_of_ratios_in`], the one entry
//! point, handles the Newton updates and convergence bookkeeping. Algorithm 1 damps the
//! step with the line search (29), but the rule is evaluated at the parametric response,
//! where the full step zeroes `ϕ`, so it accepts the full step (30)–(31) every time; the
//! loop takes that step directly and has no line search. Each iteration makes one pass
//! over the ratios at its response: the objective, `ϕ` and the Newton step all come from
//! one evaluation of every denominator.

use crate::error::NumError;

/// A sum-of-ratios minimization problem `min_x Σ_i w_i · n_i(x) / d_i(x)` over a convex set.
///
/// Implementors must guarantee, for every feasible `x` they ever return from
/// [`FractionalProblem::solve_parametric_into`]:
///
/// * `d_i(x) > 0` (denominators strictly positive),
/// * numerators and denominators finite.
pub trait FractionalProblem {
    /// Decision-variable type (e.g. a vector of per-device `(p, B)` pairs).
    type Point;

    /// Number of ratios `i = 0..len`.
    fn len(&self) -> usize;

    /// Returns `true` if the problem has no ratios.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Constant weight `w_i` multiplying ratio `i` in the objective.
    fn ratio_weight(&self, i: usize) -> f64;

    /// Numerator `n_i(x)` (convex in `x`).
    fn numerator(&self, i: usize, x: &Self::Point) -> f64;

    /// Denominator `d_i(x)` (concave and strictly positive in `x`).
    fn denominator(&self, i: usize, x: &Self::Point) -> f64;

    /// Solves the parametric (subtractive-form) subproblem
    /// `min_x Σ_i ν_i (n_i(x) − β_i d_i(x))` over the feasible set into `out`, so the outer
    /// loop can double-buffer two points instead of allocating one per iteration.
    ///
    /// `out` may hold an arbitrary (even wrongly-sized) previous point on entry;
    /// implementations must overwrite it completely.
    ///
    /// # Errors
    ///
    /// Implementations should return an error if the subproblem is infeasible or the inner
    /// solver fails; the outer loop aborts with that error.
    fn solve_parametric_into(
        &self,
        nu: &[f64],
        beta: &[f64],
        out: &mut Self::Point,
    ) -> Result<(), NumError>;
}

/// Configuration of the Newton-like outer loop (the paper's Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JongConfig {
    /// Maximum outer iterations `i₀` (at least 1). A run that stalls stops earlier.
    pub max_iter: usize,
    /// Terminate when `‖ϕ(β,ν)‖∞` falls below this tolerance.
    pub phi_tol: f64,
}

/// Iterations over which the best `‖ϕ‖∞` of a [`solve_sum_of_ratios_in`] run must fall
/// [`STALL_FACTOR`]-fold for the run to go on.
pub const STALL_WINDOW: usize = 5;

/// How far the best `‖ϕ‖∞` of a [`solve_sum_of_ratios_in`] run must fall over
/// [`STALL_WINDOW`] iterations for the run to go on.
pub const STALL_FACTOR: f64 = 4.0;

impl Default for JongConfig {
    fn default() -> Self {
        Self { max_iter: 60, phi_tol: 1e-9 }
    }
}

/// Reusable buffers of the Newton-like outer loop: the multipliers `(β, ν)`, the objective
/// history and the staged denominators.
///
/// Every field is pure scratch for [`solve_sum_of_ratios_in`]: cleared or fully overwritten
/// on entry, never read across calls, resized to the problem at hand — one instance can
/// serve problems of different sizes back to back and only `Vec` capacity survives. After a
/// successful solve, [`JongScratch::beta`] / [`JongScratch::nu`] hold the final multipliers
/// and [`JongScratch::history`] the per-iteration objectives.
///
/// The one deliberate exception is the warm-start continuation: with a
/// non-[`WarmMode::Cold`] mode the converged `(β, ν)` of the *previous* solve seed the next
/// one instead of being recomputed from the starting point. The scratch tracks whether it
/// holds such a valid seed; [`JongScratch::invalidate_warm`] drops it (e.g. when the caller
/// switches problems).
#[derive(Debug, Clone, Default)]
pub struct JongScratch {
    /// Final auxiliary ratio values `β_i = n_i / d_i` (output of the last solve).
    pub beta: Vec<f64>,
    /// Final multipliers `ν_i = w_i / d_i` (output of the last solve).
    pub nu: Vec<f64>,
    /// Objective value after every outer iteration of the last solve.
    pub history: Vec<f64>,
    /// `d_i(x)` at the latest response, staged by the pass that computes the objective and
    /// `ϕ` there, until the loop knows whether it steps from that point: the Newton step
    /// reads them instead of evaluating the denominators again.
    denominators: Vec<f64>,
    /// `true` while `beta`/`nu` hold the final multipliers of a successful solve (set on
    /// success, cleared on entry and by [`JongScratch::invalidate_warm`]).
    warm_valid: bool,
}

impl JongScratch {
    /// Drops the carried `(β, ν)` warm seed: the next warm-mode solve cold-starts.
    pub fn invalidate_warm(&mut self) {
        self.warm_valid = false;
    }

    /// Whether the scratch holds a usable `(β, ν)` seed for an `n`-ratio problem.
    pub fn warm_available(&self, n: usize) -> bool {
        self.warm_valid && self.beta.len() == n && self.nu.len() == n
    }

    /// Re-anchors the carried `(β, ν)` at `x` (the cold-initialization formulas evaluated
    /// there) and marks the seed valid. Callers use this when they *replace* the loop's
    /// solution with a point of their own — `fedopt-core`'s reference polish — so the
    /// continuation stays consistent with the point the next solve will see staged. The
    /// seed is invalidated instead if any denominator is non-positive.
    pub fn reanchor<P, F>(&mut self, problem: &F, x: &P)
    where
        F: FractionalProblem<Point = P> + ?Sized,
    {
        let n = problem.len();
        self.beta.clear();
        self.beta.resize(n, 0.0);
        self.nu.clear();
        self.nu.resize(n, 0.0);
        for i in 0..n {
            let d = problem.denominator(i, x);
            if d <= 0.0 || !d.is_finite() {
                self.warm_valid = false;
                return;
            }
            self.beta[i] = problem.numerator(i, x) / d;
            self.nu[i] = problem.ratio_weight(i) / d;
        }
        self.warm_valid = true;
    }
}

/// How much state from the previous solve [`solve_sum_of_ratios_in`] may reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmMode {
    /// Initialize `(β, ν)` from the starting point — the classic Algorithm-1 start and the
    /// reference path: the scratch's warm state is never read.
    Cold,
    /// Seed `(β, ν)` from the scratch's previous solve when
    /// [`JongScratch::warm_available`]; falls back to [`WarmMode::Cold`] otherwise. Safe
    /// whenever the problem *size* matches — stale multipliers only change the trajectory,
    /// never the fixed-point condition the loop converges to.
    Multipliers,
    /// [`WarmMode::Multipliers`], plus: return immediately (zero iterations, `converged`)
    /// when the carried multipliers already satisfy `‖ϕ‖∞ ≤ phi_tol` at the staged point.
    /// Only sound when the caller knows the parametric feasible set is unchanged since the
    /// solve that produced the carried multipliers — `ϕ` cannot see constraint drift
    /// (`fedopt-core`'s SP2 gates this on its rate floors being static).
    FastPath,
}

/// The scalar outcome of [`solve_sum_of_ratios_in`] (the point lands in the caller's
/// buffer, the multipliers and history in the [`JongScratch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionalSummary {
    /// Objective value `Σ_i w_i n_i / d_i` at the final point.
    pub objective: f64,
    /// `‖ϕ(β,ν)‖∞` at termination — the Newton residual of the optimality system (22)–(23).
    pub residual: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Whether the residual tolerance was reached.
    pub converged: bool,
}

/// One pass over the ratios at `x`: the objective `Σ_i w_i n_i / d_i` and the `ϕ(β,ν)`
/// residual of the optimality system (22)–(23) in the infinity norm, with every `d_i(x)`
/// staged in `denominators` for the Newton step.
///
/// # Errors
///
/// [`NumError::NonFiniteValue`] (with `at` the ratio index) for the first NaN component of
/// `ϕ`: `f64::max` would drop it and report a point with a NaN ratio as converged.
fn objective_and_residual<P, F>(
    problem: &F,
    x: &P,
    beta: &[f64],
    nu: &[f64],
    denominators: &mut Vec<f64>,
) -> Result<(f64, f64), NumError>
where
    F: FractionalProblem<Point = P> + ?Sized,
{
    // The components of ϕ carry the physical units of the numerators/weights, which in the
    // paper's Subproblem 2 differ by many orders of magnitude from 1. Normalizing each
    // component makes `phi_tol` a relative tolerance and keeps the stopping rule meaningful
    // across problem scales.
    denominators.clear();
    // -0.0 is the neutral element `Iterator::sum` starts from.
    let (mut objective, mut norm) = (-0.0, 0.0_f64);
    for i in 0..problem.len() {
        let n = problem.numerator(i, x);
        let d = problem.denominator(i, x);
        let w = problem.ratio_weight(i);
        objective += w * n / d;
        let phi1 = (-n + beta[i] * d) / n.abs().max(1e-300);
        let phi2 = (-w + nu[i] * d) / w.abs().max(1e-300);
        if phi1.is_nan() || phi2.is_nan() {
            return Err(NumError::NonFiniteValue { at: i as f64 });
        }
        norm = norm.max(phi1.abs()).max(phi2.abs());
        denominators.push(d);
    }
    Ok((objective, norm))
}

/// Runs the Newton-like algorithm of Jong (the paper's Algorithm 1) from the feasible point
/// staged in `x`.
///
/// Each outer iteration:
///
/// 1. solves the parametric subproblem at the current `(β, ν)` for a new `x` (step 4),
/// 2. stops if `‖ϕ(β, ν)‖∞ ≤ phi_tol` at that `x`,
/// 3. otherwise takes the full Newton step (30)–(31) on `(β, ν)`, which — because the
///    Jacobian of `ϕ` is `diag(d_i)` — moves them to `(n_i/d_i, w_i/d_i)` at the new `x`.
///
/// Steps 2 and 3 share one `O(n)` pass at the response: it yields the objective and `ϕ`,
/// and stages every denominator until the loop knows whether it steps; the step then reads
/// them (and the numerators, a product for Subproblem 2) instead of evaluating each rate
/// again. A cold solve that converges in `k` iterations thus reads `n·(k + 1)`
/// denominators: the start's multipliers, then one pass per iteration.
///
/// The loop stops after `max_iter` iterations at the latest, and earlier, unconverged, once
/// it stalls: when the best `‖ϕ‖∞` so far has not fallen [`STALL_FACTOR`]-fold over the
/// last [`STALL_WINDOW`] iterations. A stalled run ends exactly as one whose `max_iter` is
/// the iteration it stalled at: on its last response, with the multipliers stepped there.
/// Such a run is one whose parametric response cycles (say, between two vertices of the
/// inner problem), and more iterations rarely converge it; a caller with a second solver
/// (Subproblem 2's reference) judges the point instead.
///
/// `x` holds the starting point on entry and the final point on return; the loop
/// double-buffers it against `spare`, whose contents are irrelevant. The multipliers and the
/// objective history live in the [`JongScratch`], so with an in-place parametric solve the
/// loop performs zero heap allocations in steady state.
///
/// `mode` selects the start: [`WarmMode::Cold`] initializes `(β, ν)` at `x` and never reads
/// the warm state; [`WarmMode::Multipliers`] starts from the previous solve's converged
/// `(β, ν)` when [`JongScratch::warm_available`], worth several Newton iterations when
/// successive problems differ only slightly (the alternating outer loop of `fedopt-core`'s
/// Algorithm 2); [`WarmMode::FastPath`] also returns at once (zero iterations, `converged`)
/// when those multipliers still satisfy `phi_tol` at `x`. A warm solve meets the same
/// `phi_tol` fixed-point condition as a cold one; only the trajectory, and so the last bits
/// of the result, may differ.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if the problem has zero ratios.
/// * [`NumError::NonPositiveParameter`] (`max_iter`) if `config.max_iter` is zero: no
///   iteration, no response to return.
/// * [`NumError::NonPositiveParameter`] if a denominator is not strictly positive at the
///   starting point or at an iterate the loop steps from (not at one it stops at).
/// * [`NumError::NonFiniteValue`] (with `at` the ratio index) if `ϕ` has a NaN component,
///   as soon as the pass meets it.
/// * Errors returned by [`FractionalProblem::solve_parametric_into`] are propagated.
///
/// After an error the scratch's warm seed is invalid.
pub fn solve_sum_of_ratios_in<P, F>(
    problem: &F,
    x: &mut P,
    spare: &mut P,
    config: JongConfig,
    scratch: &mut JongScratch,
    mode: WarmMode,
) -> Result<FractionalSummary, NumError>
where
    F: FractionalProblem<Point = P> + ?Sized,
{
    let n_ratios = problem.len();
    if n_ratios == 0 {
        return Err(NumError::DimensionMismatch { expected: 1, actual: 0 });
    }
    if config.max_iter == 0 {
        return Err(NumError::NonPositiveParameter { name: "max_iter", value: 0.0 });
    }

    let warm = mode != WarmMode::Cold && scratch.warm_available(n_ratios);
    scratch.warm_valid = false; // an early error must not leave a half-valid seed behind
    let JongScratch { beta, nu, history, denominators, .. } = scratch;
    if !warm {
        beta.clear();
        beta.resize(n_ratios, 0.0);
        nu.clear();
        nu.resize(n_ratios, 0.0);
        // Initialize (β, ν) from the starting point (step 3).
        for i in 0..n_ratios {
            let d = problem.denominator(i, x);
            if d <= 0.0 || !d.is_finite() {
                return Err(NumError::NonPositiveParameter { name: "denominator", value: d });
            }
            beta[i] = problem.numerator(i, x) / d;
            nu[i] = problem.ratio_weight(i) / d;
        }
    }

    history.clear();
    history.reserve(config.max_iter);
    if warm && mode == WarmMode::FastPath {
        let (objective0, residual0) = objective_and_residual(problem, x, beta, nu, denominators)?;
        // The carried multipliers still satisfy the optimality system (22)–(23) at the
        // staged point: the previous fixed point is still a fixed point, skip the loop.
        if residual0 <= config.phi_tol {
            scratch.warm_valid = true;
            return Ok(FractionalSummary {
                objective: objective0,
                residual: residual0,
                iterations: 0,
                converged: true,
            });
        }
    }

    let (mut objective, mut residual) = (f64::NAN, f64::INFINITY);
    let mut iterations = 0;
    let mut converged = false;
    // Best ‖ϕ‖∞ so far, and in slot `it % STALL_WINDOW` the best as of `STALL_WINDOW`
    // iterations back (∞ before the window first fills).
    let mut best_residual = f64::INFINITY;
    let mut window = [f64::INFINITY; STALL_WINDOW];

    for it in 0..config.max_iter {
        iterations = it + 1;

        // Step 4: solve the parametric subproblem at the current (β, ν), double-buffering
        // the point instead of allocating a fresh one.
        problem.solve_parametric_into(nu, beta, spare)?;
        std::mem::swap(x, spare);

        // Convergence check: ϕ(β, ν) evaluated at the *response* x(β, ν). At the fixed point
        // the parametric solution reproduces the ratios that generated it — exactly the
        // optimality system (22)–(23) of Theorem 1.
        (objective, residual) = objective_and_residual(problem, x, beta, nu, denominators)?;
        history.push(objective);
        if residual <= config.phi_tol {
            converged = true;
            break;
        }

        // Steps 5–6: the full Newton step (30)–(31), β_i → n_i(x)/d_i(x), ν_i → w_i/d_i(x),
        // from the denominators the pass staged. Written as an increment, the form of the
        // damped step `β + ξʲ·(target − β)` at `j = 0`: `β + (target − β)` need not round
        // to `target`.
        for (i, &d) in denominators.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(NumError::NonPositiveParameter { name: "denominator", value: d });
            }
            beta[i] += problem.numerator(i, x) / d - beta[i];
            nu[i] += problem.ratio_weight(i) / d - nu[i];
        }

        // Stall exit: the run ends here exactly as if `max_iter` were `it + 1`.
        best_residual = best_residual.min(residual);
        let window_start = std::mem::replace(&mut window[it % STALL_WINDOW], best_residual);
        if best_residual > window_start / STALL_FACTOR {
            break;
        }
    }

    scratch.warm_valid = true;
    Ok(FractionalSummary { objective, residual, iterations, converged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Toy sum-of-ratios problem with a known solution:
    /// minimize (x+1)/x + (x-3)^2/1 over x in [0.5, 5].
    /// Single variable, two ratios. The second "ratio" has denominator 1 so this is really
    /// min (x+1)/x + (x-3)^2, a convex problem whose optimum we can verify by grid search.
    struct Toy;

    impl FractionalProblem for Toy {
        type Point = f64;

        fn len(&self) -> usize {
            2
        }
        fn ratio_weight(&self, _i: usize) -> f64 {
            1.0
        }
        fn numerator(&self, i: usize, x: &f64) -> f64 {
            match i {
                0 => x + 1.0,
                _ => (x - 3.0) * (x - 3.0),
            }
        }
        fn denominator(&self, i: usize, x: &f64) -> f64 {
            match i {
                0 => *x,
                _ => 1.0,
            }
        }
        fn solve_parametric_into(
            &self,
            nu: &[f64],
            beta: &[f64],
            out: &mut f64,
        ) -> Result<(), NumError> {
            // min over x of nu0*((x+1) - beta0*x) + nu1*((x-3)^2 - beta1)
            // => derivative: nu0*(1-beta0) + 2*nu1*(x-3) = 0
            let x = 3.0 - nu[0] * (1.0 - beta[0]) / (2.0 * nu[1]);
            *out = x.clamp(0.5, 5.0);
            Ok(())
        }
    }

    /// One solve from `x` with the default configuration and a zeroed spare point.
    fn run<F: FractionalProblem<Point = f64>>(
        problem: &F,
        x: &mut f64,
        scratch: &mut JongScratch,
        mode: WarmMode,
    ) -> Result<FractionalSummary, NumError> {
        solve_sum_of_ratios_in(problem, x, &mut 0.0, JongConfig::default(), scratch, mode)
    }

    /// A cold solve from `x0` on a fresh scratch: the final point, the summary, and the
    /// scratch holding the final multipliers and the objective history.
    fn solve_cold<F: FractionalProblem<Point = f64>>(
        problem: &F,
        x0: f64,
    ) -> Result<(f64, FractionalSummary, JongScratch), NumError> {
        let (mut x, mut scratch) = (x0, JongScratch::default());
        let summary = run(problem, &mut x, &mut scratch, WarmMode::Cold)?;
        Ok((x, summary, scratch))
    }

    #[test]
    fn toy_problem_matches_grid_search() {
        let (x, sol, _) = solve_cold(&Toy, 1.0).unwrap();
        assert!(sol.converged, "residual {}", sol.residual);

        // Grid-search reference.
        let axes = vec![crate::grid::linspace(0.5, 5.0, 20_001).unwrap()];
        let reference = crate::grid::grid_min(&axes, |p| {
            let x = p[0];
            (x + 1.0) / x + (x - 3.0) * (x - 3.0)
        })
        .unwrap();
        assert!(
            (sol.objective - reference.value).abs() < 1e-4,
            "jong {} vs grid {}",
            sol.objective,
            reference.value
        );
        assert!((x - reference.argmin[0]).abs() < 1e-2);
    }

    #[test]
    fn optimality_system_holds_at_fixed_point() {
        let (x, _, scratch) = solve_cold(&Toy, 4.0).unwrap();
        // (22)–(23): nu_i = w_i / d_i(x*), beta_i = n_i(x*) / d_i(x*).
        for i in 0..2 {
            let d = Toy.denominator(i, &x);
            let n = Toy.numerator(i, &x);
            assert!((scratch.nu[i] - 1.0 / d).abs() < 1e-6);
            assert!((scratch.beta[i] - n / d).abs() < 1e-6);
        }
    }

    #[test]
    fn history_is_recorded_and_mostly_decreasing() {
        // One entry per iteration, at its response: the start point has none.
        let (_, sol, scratch) = solve_cold(&Toy, 5.0).unwrap();
        assert_eq!(scratch.history.len(), sol.iterations);
        assert!(scratch.history.len() >= 2);
        assert!(scratch.history.last().unwrap() <= scratch.history.first().unwrap());
        assert_eq!(Some(&sol.objective), scratch.history.last());
    }

    #[test]
    fn zero_max_iter_is_a_typed_error() {
        let config = JongConfig { max_iter: 0, ..JongConfig::default() };
        let mut scratch = JongScratch::default();
        let err =
            solve_sum_of_ratios_in(&Toy, &mut 5.0, &mut 0.0, config, &mut scratch, WarmMode::Cold)
                .unwrap_err();
        assert_eq!(err, NumError::NonPositiveParameter { name: "max_iter", value: 0.0 });
    }

    #[test]
    fn reused_scratch_reproduces_a_fresh_solve_bitwise() {
        let (x1, s1, fresh) = solve_cold(&Toy, 5.0).unwrap();

        // A dirtied, reused scratch must reproduce the run bit for bit (the reuse contract),
        // whatever the spare buffer holds.
        let mut scratch = fresh.clone();
        let (mut x2, mut spare2) = (5.0, -7.0);
        let config = JongConfig::default();
        let s2 = solve_sum_of_ratios_in(
            &Toy,
            &mut x2,
            &mut spare2,
            config,
            &mut scratch,
            WarmMode::Cold,
        )
        .unwrap();
        assert_eq!(x2, x1);
        assert_eq!(s2, s1);
        assert_eq!(scratch.beta, fresh.beta);
        assert_eq!(scratch.nu, fresh.nu);
        assert_eq!(scratch.history, fresh.history);
    }

    #[test]
    fn warm_multipliers_reach_the_same_fixed_point() {
        // First solve populates the warm seed; the second starts from a different point but
        // carries the converged multipliers — it must land on the same fixed point.
        let (_, cold, mut scratch) = solve_cold(&Toy, 5.0).unwrap();
        let s2 = run(&Toy, &mut 4.0, &mut scratch, WarmMode::Multipliers).unwrap();
        assert!(s2.converged);
        assert!(
            (s2.objective - cold.objective).abs() <= 1e-8 * cold.objective.abs(),
            "warm {} vs cold {}",
            s2.objective,
            cold.objective
        );
    }

    #[test]
    fn fast_path_skips_the_loop_when_multipliers_still_hold() {
        let (mut x, first, mut scratch) = solve_cold(&Toy, 5.0).unwrap();
        assert!(first.converged);

        // Same point, carried multipliers, constraints unchanged: zero iterations.
        let again = run(&Toy, &mut x, &mut scratch, WarmMode::FastPath).unwrap();
        assert!(again.converged);
        assert_eq!(again.iterations, 0, "fast path must skip the loop");
        assert_eq!(again.objective, first.objective);

        // An invalidated seed falls back to the cold start (and still solves).
        scratch.invalidate_warm();
        assert!(!scratch.warm_available(2));
        let after_reset = run(&Toy, &mut x, &mut scratch, WarmMode::FastPath).unwrap();
        assert!(after_reset.iterations >= 1, "cold fallback must run the loop");
        assert!(after_reset.converged);
    }

    #[test]
    fn cold_mode_ignores_warm_state_bitwise() {
        let (x_ref, reference, fresh) = solve_cold(&Toy, 5.0).unwrap();

        // A scratch dirtied by a previous (different-start) solve, used in Cold mode, must
        // reproduce the fresh-scratch run bit for bit — the warm seed is never read.
        let (_, _, mut scratch) = solve_cold(&Toy, 1.0).unwrap();
        let mut x = 5.0;
        let summary = run(&Toy, &mut x, &mut scratch, WarmMode::Cold).unwrap();
        assert_eq!(x, x_ref);
        assert_eq!(summary.objective, reference.objective);
        assert_eq!(summary.iterations, reference.iterations);
        assert_eq!(scratch.beta, fresh.beta);
        assert_eq!(scratch.nu, fresh.nu);
    }

    /// [`Toy`] with probes: it counts denominator reads and parametric solves, and can make
    /// its second numerator NaN or return `x = 0` (where `d_0(x) = x` vanishes) from its
    /// second parametric solve.
    #[derive(Default)]
    struct Probed {
        nan_numerator: bool,
        zero_on_second_solve: bool,
        reads: Cell<usize>,
        solves: Cell<usize>,
    }

    impl FractionalProblem for Probed {
        type Point = f64;

        fn len(&self) -> usize {
            Toy.len()
        }
        fn ratio_weight(&self, i: usize) -> f64 {
            Toy.ratio_weight(i)
        }
        fn numerator(&self, i: usize, x: &f64) -> f64 {
            if self.nan_numerator && i == 1 {
                f64::NAN
            } else {
                Toy.numerator(i, x)
            }
        }
        fn denominator(&self, i: usize, x: &f64) -> f64 {
            self.reads.set(self.reads.get() + 1);
            Toy.denominator(i, x)
        }
        fn solve_parametric_into(
            &self,
            nu: &[f64],
            beta: &[f64],
            out: &mut f64,
        ) -> Result<(), NumError> {
            self.solves.set(self.solves.get() + 1);
            Toy.solve_parametric_into(nu, beta, out)?;
            if self.zero_on_second_solve && self.solves.get() == 2 {
                *out = 0.0;
            }
            Ok(())
        }
    }

    #[test]
    fn an_iteration_reads_each_denominator_once() {
        // Cold start (1 pass), then per iteration one pass yielding the objective, ϕ and
        // the Newton step: n·(k + 1).
        let problem = Probed::default();
        let (_, sol, _) = solve_cold(&problem, 5.0).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.iterations, 9);
        assert_eq!(problem.reads.get(), problem.len() * (sol.iterations + 1));
    }

    #[test]
    fn a_nan_ratio_is_a_typed_error_not_convergence() {
        let problem = Probed { nan_numerator: true, ..Probed::default() };
        assert_eq!(solve_cold(&problem, 5.0).err(), Some(NumError::NonFiniteValue { at: 1.0 }));
    }

    #[test]
    fn a_vanishing_denominator_mid_loop_is_an_error_and_drops_the_warm_seed() {
        // A successful solve leaves a valid warm seed behind, which a solve that fails
        // mid-loop must invalidate.
        let (_, _, mut scratch) = solve_cold(&Toy, 5.0).unwrap();
        assert!(scratch.warm_available(2));
        let problem = Probed { zero_on_second_solve: true, ..Probed::default() };
        let err = run(&problem, &mut 5.0, &mut scratch, WarmMode::Cold).unwrap_err();
        assert_eq!(err, NumError::NonPositiveParameter { name: "denominator", value: 0.0 });
        assert_eq!(problem.solves.get(), 2, "the error must come from the second iterate");
        assert!(!scratch.warm_available(2));
    }

    /// Two linear ratios over `x ∈ [0, 1]`, `(2 + 8x)/(1 + 9x) + (10 − 7x)/(10 − 9x)`, whose
    /// parametric objective is linear in `x`: the response is always a vertex, and from
    /// either vertex the other one scores lower. So the response alternates between 0 and 1
    /// and `‖ϕ‖∞` stays at 9 for good.
    struct Cycling;

    impl FractionalProblem for Cycling {
        type Point = f64;

        fn len(&self) -> usize {
            2
        }
        fn ratio_weight(&self, _i: usize) -> f64 {
            1.0
        }
        fn numerator(&self, i: usize, x: &f64) -> f64 {
            [2.0 + 8.0 * x, 10.0 - 7.0 * x][i]
        }
        fn denominator(&self, i: usize, x: &f64) -> f64 {
            [1.0 + 9.0 * x, 10.0 - 9.0 * x][i]
        }
        fn solve_parametric_into(
            &self,
            nu: &[f64],
            beta: &[f64],
            out: &mut f64,
        ) -> Result<(), NumError> {
            let value = |x: f64| {
                (0..2)
                    .map(|i| nu[i] * (self.numerator(i, &x) - beta[i] * self.denominator(i, &x)))
                    .sum::<f64>()
            };
            *out = if value(1.0) < value(0.0) { 1.0 } else { 0.0 };
            Ok(())
        }
    }

    #[test]
    fn a_cycling_response_ends_at_the_stall_window_unconverged() {
        let (mut x, mut scratch) = (0.0, JongScratch::default());
        let config = JongConfig::default();
        let sol = solve_sum_of_ratios_in(
            &Cycling,
            &mut x,
            &mut 0.0,
            config,
            &mut scratch,
            WarmMode::Cold,
        )
        .unwrap();
        assert!(!sol.converged);
        assert!((sol.residual - 9.0).abs() < 1e-12, "residual {}", sol.residual);
        assert_eq!(sol.iterations, STALL_WINDOW + 1, "not at max_iter = {}", config.max_iter);
        // It ends as a run capped at that iteration would: on the last response, with the
        // same multipliers and a valid warm seed.
        let (mut capped_x, mut capped) = (0.0, JongScratch::default());
        let cap = JongConfig { max_iter: STALL_WINDOW + 1, ..config };
        let capped_sol = solve_sum_of_ratios_in(
            &Cycling,
            &mut capped_x,
            &mut 0.0,
            cap,
            &mut capped,
            WarmMode::Cold,
        )
        .unwrap();
        assert_eq!(capped_sol, sol);
        assert_eq!((capped_x, &capped.beta, &capped.nu), (x, &scratch.beta, &scratch.nu));
        assert!(scratch.warm_available(2));
    }

    /// One ratio `x / 1` whose parametric "solve" replays a script of responses, each
    /// placed so that `‖ϕ‖∞ = |x_{k−1} − x_k| / x_k` follows the given residuals.
    struct Scripted {
        responses: Vec<f64>,
        next: Cell<usize>,
    }

    impl Scripted {
        fn new(x0: f64, residuals: &[f64]) -> Self {
            let mut x = x0;
            let responses = residuals
                .iter()
                .map(|phi| {
                    x /= 1.0 + phi;
                    x
                })
                .collect();
            Self { responses, next: Cell::new(0) }
        }
    }

    impl FractionalProblem for Scripted {
        type Point = f64;

        fn len(&self) -> usize {
            1
        }
        fn ratio_weight(&self, _i: usize) -> f64 {
            1.0
        }
        fn numerator(&self, _i: usize, x: &f64) -> f64 {
            *x
        }
        fn denominator(&self, _i: usize, _x: &f64) -> f64 {
            1.0
        }
        fn solve_parametric_into(
            &self,
            _: &[f64],
            _: &[f64],
            out: &mut f64,
        ) -> Result<(), NumError> {
            let k = self.next.get();
            self.next.set(k + 1);
            *out = self.responses[k];
            Ok(())
        }
    }

    #[test]
    fn a_residual_that_rises_before_it_converges_is_not_a_stall() {
        // The shape of a fig 8 quick solve: ‖ϕ‖∞ rises for three iterations, then converges.
        let phi = [1.2, 2.1, 4.5, 1.8, 5.4e-2, 1.1e-2, 1.5e-3, 6.0e-5, 7.5e-7, 2.0e-10];
        let problem = Scripted::new(1.0, &phi);
        let (x, sol, scratch) = solve_cold(&problem, 1.0).unwrap();
        // Without a stall exit the run converges at the first residual below `phi_tol`.
        let tol = JongConfig::default().phi_tol;
        let expected = phi.iter().position(|&r| r <= tol).unwrap() + 1;
        assert!(sol.converged);
        assert_eq!(sol.iterations, expected);
        assert!(sol.residual <= tol);
        assert_eq!(x, problem.responses[expected - 1]);
        assert_eq!(scratch.history, problem.responses[..expected]);
    }

    #[test]
    fn a_run_that_improves_then_cycles_stops_a_window_after_its_best_residual() {
        // The shape of a round-simulation solve: ‖ϕ‖∞ falls for three iterations, then the
        // response cycles. The best residual (iteration 3) is 4-fold below the one five
        // iterations before it, but at iteration 7 the best has not fallen 4-fold since
        // iteration 2, and the run ends there, unconverged.
        let phi = [9.4, 2.2, 1.08, 9.0, 10.5, 8.3, 7.7, 9.0, 10.5, 8.3, 7.7, 9.0];
        let problem = Scripted::new(1.0, &phi);
        let (_, sol, _) = solve_cold(&problem, 1.0).unwrap();
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 7);
        assert!(sol.iterations <= 3 + STALL_WINDOW);
    }

    #[test]
    fn rejects_empty_problem() {
        struct Empty;
        impl FractionalProblem for Empty {
            type Point = f64;
            fn len(&self) -> usize {
                0
            }
            fn ratio_weight(&self, _: usize) -> f64 {
                1.0
            }
            fn numerator(&self, _: usize, _: &f64) -> f64 {
                0.0
            }
            fn denominator(&self, _: usize, _: &f64) -> f64 {
                1.0
            }
            fn solve_parametric_into(
                &self,
                _: &[f64],
                _: &[f64],
                _: &mut f64,
            ) -> Result<(), NumError> {
                Ok(())
            }
        }
        assert!(matches!(solve_cold(&Empty, 0.0), Err(NumError::DimensionMismatch { .. })));
    }

    #[test]
    fn rejects_nonpositive_denominator_start() {
        struct BadDen;
        impl FractionalProblem for BadDen {
            type Point = f64;
            fn len(&self) -> usize {
                1
            }
            fn ratio_weight(&self, _: usize) -> f64 {
                1.0
            }
            fn numerator(&self, _: usize, x: &f64) -> f64 {
                *x
            }
            fn denominator(&self, _: usize, _x: &f64) -> f64 {
                0.0
            }
            fn solve_parametric_into(
                &self,
                _: &[f64],
                _: &[f64],
                out: &mut f64,
            ) -> Result<(), NumError> {
                *out = 1.0;
                Ok(())
            }
        }
        assert!(matches!(solve_cold(&BadDen, 1.0), Err(NumError::NonPositiveParameter { .. })));
    }
}
