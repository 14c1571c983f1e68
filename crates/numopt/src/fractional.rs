//! Generic sum-of-ratios (fractional programming) solver.
//!
//! Subproblem 2 of the paper,
//! `min Σ_n w·p_n d_n / G_n(p_n, B_n)`, is a *sum-of-ratios* problem — NP-hard in general but
//! tractable here because every numerator is convex, every denominator is concave and
//! positive, and the feasible set is convex. The paper (following Y. Jong, *"An efficient
//! global optimization algorithm for nonlinear sum-of-ratios problem"*, 2012) converts it to a
//! parametric subtractive form and drives the parameters `(β, ν)` to a fixed point with a
//! damped Newton step (the paper's Algorithm 1, equations (24)–(31)).
//!
//! This module implements that outer loop generically: the caller supplies the numerators,
//! denominators and a solver for the parametric subproblem
//! `min_x Σ_i ν_i (n_i(x) − β_i d_i(x))`, and [`solve_sum_of_ratios`] handles the Newton-like
//! updates, the damping line search (29), and convergence bookkeeping.

use crate::error::NumError;

/// A sum-of-ratios minimization problem `min_x Σ_i w_i · n_i(x) / d_i(x)` over a convex set.
///
/// Implementors must guarantee, for every feasible `x` they ever return from
/// [`FractionalProblem::solve_parametric`]:
///
/// * `d_i(x) > 0` (denominators strictly positive),
/// * numerators and denominators finite.
pub trait FractionalProblem {
    /// Decision-variable type (e.g. a vector of per-device `(p, B)` pairs).
    type Point: Clone;

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
    /// `min_x Σ_i ν_i (n_i(x) − β_i d_i(x))` over the feasible set and returns the minimizer.
    ///
    /// # Errors
    ///
    /// Implementations should return an error if the subproblem is infeasible or the inner
    /// solver fails; the outer loop aborts with that error.
    fn solve_parametric(&self, nu: &[f64], beta: &[f64]) -> Result<Self::Point, NumError>;

    /// [`Self::solve_parametric`] into a caller-owned point, so the outer loop can
    /// double-buffer two points instead of allocating one per iteration.
    ///
    /// `out` may hold an arbitrary (even wrongly-sized) previous point on entry;
    /// implementations must overwrite it completely. The default forwards to
    /// [`Self::solve_parametric`] and assigns — correct for every implementor, but it
    /// allocates; hot problems (e.g. `fedopt-core`'s `Sp2Problem`) override it with a
    /// genuinely in-place solve.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve_parametric`].
    fn solve_parametric_into(
        &self,
        nu: &[f64],
        beta: &[f64],
        out: &mut Self::Point,
    ) -> Result<(), NumError> {
        *out = self.solve_parametric(nu, beta)?;
        Ok(())
    }
}

/// Configuration of the Newton-like outer loop (the paper's Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JongConfig {
    /// Damping base `ξ ∈ (0,1)` of the line search (29).
    pub xi: f64,
    /// Sufficient-decrease constant `ε ∈ (0,1)` of the line search (29).
    pub epsilon: f64,
    /// Maximum outer iterations `i₀`.
    pub max_iter: usize,
    /// Terminate when `‖ϕ(β,ν)‖∞` falls below this tolerance.
    pub phi_tol: f64,
    /// Maximum exponent `j` tried by the damping line search before accepting the last trial.
    pub max_damping: usize,
}

impl Default for JongConfig {
    fn default() -> Self {
        Self { xi: 0.5, epsilon: 0.01, max_iter: 60, phi_tol: 1e-9, max_damping: 40 }
    }
}

/// Reusable buffers of the Newton-like outer loop: the multipliers `(β, ν)`, their
/// full-Newton targets, the damping-line-search trials, and the objective history.
///
/// Every field is pure scratch for [`solve_sum_of_ratios_in`]: cleared or fully overwritten
/// on entry, never read across calls, resized to the problem at hand — one instance can
/// serve problems of different sizes back to back and only `Vec` capacity survives. After a
/// successful solve, [`JongScratch::beta`] / [`JongScratch::nu`] hold the final multipliers
/// and [`JongScratch::history`] the per-iteration objectives (the data
/// [`FractionalSolution`] clones out in the allocating wrapper).
///
/// The one deliberate exception is the warm-start continuation
/// ([`solve_sum_of_ratios_warm_in`]): with a non-[`WarmMode::Cold`] mode the converged
/// `(β, ν)` of the *previous* solve seed the next one instead of being recomputed from the
/// starting point. The scratch tracks whether it holds such a valid seed;
/// [`JongScratch::invalidate_warm`] drops it (e.g. when the caller switches problems).
#[derive(Debug, Clone, Default)]
pub struct JongScratch {
    /// Final auxiliary ratio values `β_i = n_i / d_i` (output of the last solve).
    pub beta: Vec<f64>,
    /// Final multipliers `ν_i = w_i / d_i` (output of the last solve).
    pub nu: Vec<f64>,
    /// Objective value after every outer iteration of the last solve.
    pub history: Vec<f64>,
    beta_target: Vec<f64>,
    nu_target: Vec<f64>,
    trial_beta: Vec<f64>,
    trial_nu: Vec<f64>,
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

/// How much state from the previous solve [`solve_sum_of_ratios_warm_in`] may reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmMode {
    /// Initialize `(β, ν)` from the starting point — the classic Algorithm-1 start. This is
    /// the reference path: [`solve_sum_of_ratios_in`] always runs it.
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

/// Outcome of [`solve_sum_of_ratios`].
#[derive(Debug, Clone)]
pub struct FractionalSolution<P> {
    /// Final decision variables.
    pub point: P,
    /// Final auxiliary ratio values `β_i = n_i / d_i`.
    pub beta: Vec<f64>,
    /// Final multipliers `ν_i = w_i / d_i`.
    pub nu: Vec<f64>,
    /// Objective value `Σ_i w_i n_i / d_i` at [`FractionalSolution::point`].
    pub objective: f64,
    /// `‖ϕ(β,ν)‖∞` at termination — the Newton residual of the optimality system (22)–(23).
    pub residual: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Whether the residual tolerance was reached.
    pub converged: bool,
    /// Objective value after every outer iteration (useful for convergence plots/tests).
    pub history: Vec<f64>,
}

fn phi_inf_norm<P, F>(problem: &F, x: &P, beta: &[f64], nu: &[f64]) -> f64
where
    F: FractionalProblem<Point = P> + ?Sized,
{
    // The components of ϕ carry the physical units of the numerators/weights, which in the
    // paper's Subproblem 2 differ by many orders of magnitude from 1. Normalizing each
    // component makes `phi_tol` a relative tolerance and keeps the stopping rule meaningful
    // across problem scales.
    let mut norm: f64 = 0.0;
    for i in 0..problem.len() {
        let n = problem.numerator(i, x);
        let d = problem.denominator(i, x);
        let w = problem.ratio_weight(i);
        let phi1 = (-n + beta[i] * d) / n.abs().max(1e-300);
        let phi2 = (-w + nu[i] * d) / w.abs().max(1e-300);
        norm = norm.max(phi1.abs()).max(phi2.abs());
    }
    norm
}

fn objective_value<P, F>(problem: &F, x: &P) -> f64
where
    F: FractionalProblem<Point = P> + ?Sized,
{
    (0..problem.len())
        .map(|i| problem.ratio_weight(i) * problem.numerator(i, x) / problem.denominator(i, x))
        .sum()
}

/// Runs the damped Newton-like algorithm of Jong (the paper's Algorithm 1) starting from a
/// feasible point `x0`.
///
/// Each outer iteration:
///
/// 1. sets `ν_i = w_i / d_i(x)` and `β_i = n_i(x) / d_i(x)` (step 3 of Algorithm 1),
/// 2. solves the parametric subproblem for a new `x` (step 4),
/// 3. takes the damped Newton step (29)–(31) on `(β, ν)`, which — because the Jacobian of `ϕ`
///    is `diag(d_i)` — reduces to moving `(β, ν)` a fraction `ξ^j` of the way toward
///    `(n_i/d_i, w_i/d_i)` evaluated at the new `x`. The rule is evaluated at that same
///    `x`, where the full step zeroes `ϕ`, so `j = 0` is accepted every time.
///
/// The loop stops when `‖ϕ‖∞ ≤ phi_tol` or after `max_iter` iterations.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if the problem has zero ratios.
/// * [`NumError::NonPositiveParameter`] if a denominator is not strictly positive at any
///   iterate, or the configuration constants are outside `(0,1)`.
/// * Errors returned by [`FractionalProblem::solve_parametric`] are propagated.
pub fn solve_sum_of_ratios<P, F>(
    problem: &F,
    x0: P,
    config: JongConfig,
) -> Result<FractionalSolution<P>, NumError>
where
    P: Clone,
    F: FractionalProblem<Point = P> + ?Sized,
{
    let mut x = x0;
    let mut spare = x.clone();
    let mut scratch = JongScratch::default();
    let summary = solve_sum_of_ratios_in(problem, &mut x, &mut spare, config, &mut scratch)?;
    Ok(FractionalSolution {
        objective: summary.objective,
        point: x,
        beta: scratch.beta,
        nu: scratch.nu,
        residual: summary.residual,
        iterations: summary.iterations,
        converged: summary.converged,
        history: scratch.history,
    })
}

/// [`solve_sum_of_ratios`] against caller-owned buffers — the allocation-free form.
///
/// `x` holds the feasible starting point on entry and the final point on return; `spare` is
/// a second point buffer of the same type (its contents are irrelevant — each
/// [`FractionalProblem::solve_parametric_into`] call overwrites it completely) that the
/// loop double-buffers against `x`, so no point is ever allocated. All `(β, ν)` vectors and
/// the objective history live in the [`JongScratch`]; with a problem that overrides
/// `solve_parametric_into` in-place, the whole outer loop performs zero heap allocations in
/// steady state. Results are bit-identical to [`solve_sum_of_ratios`] — same arithmetic,
/// same order.
///
/// # Errors
///
/// Same as [`solve_sum_of_ratios`].
pub fn solve_sum_of_ratios_in<P, F>(
    problem: &F,
    x: &mut P,
    spare: &mut P,
    config: JongConfig,
    scratch: &mut JongScratch,
) -> Result<FractionalSummary, NumError>
where
    F: FractionalProblem<Point = P> + ?Sized,
{
    solve_sum_of_ratios_warm_in(problem, x, spare, config, scratch, WarmMode::Cold)
}

/// [`solve_sum_of_ratios_in`] with a warm-start continuation over the scratch's previous
/// solve.
///
/// With [`WarmMode::Cold`] this *is* [`solve_sum_of_ratios_in`] — bit-identical, the warm
/// state is never read. With [`WarmMode::Multipliers`] the converged `(β, ν)` of the
/// previous solve (when [`JongScratch::warm_available`]) replace the cold initialization,
/// so the first parametric solve already starts from the previous fixed point — worth
/// several Newton iterations when successive problems differ only slightly (the alternating
/// outer loop of `fedopt-core`'s Algorithm 2). [`WarmMode::FastPath`] additionally probes
/// `‖ϕ‖∞` at the staged point before the loop and returns immediately (zero iterations,
/// `converged = true`) when the carried multipliers still satisfy `phi_tol` — see the
/// soundness caveat on [`WarmMode::FastPath`].
///
/// Either warm mode converges to a point satisfying the same `phi_tol` fixed-point
/// condition as the cold path; only the trajectory (and hence the last-bits of the result)
/// may differ.
///
/// # Errors
///
/// Same as [`solve_sum_of_ratios`]. After an error the scratch's warm seed is invalid.
pub fn solve_sum_of_ratios_warm_in<P, F>(
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
    if !(config.xi > 0.0 && config.xi < 1.0) {
        return Err(NumError::NonPositiveParameter { name: "xi", value: config.xi });
    }
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(NumError::NonPositiveParameter { name: "epsilon", value: config.epsilon });
    }

    let warm = mode != WarmMode::Cold && scratch.warm_available(n_ratios);
    scratch.warm_valid = false; // an early error must not leave a half-valid seed behind
    let JongScratch { beta, nu, history, beta_target, nu_target, trial_beta, trial_nu, .. } =
        scratch;
    if warm {
        // Keep the carried (β, ν); only the private loop buffers need resizing.
        for buf in [&mut *beta_target, &mut *nu_target, &mut *trial_beta, &mut *trial_nu] {
            buf.clear();
            buf.resize(n_ratios, 0.0);
        }
    } else {
        for buf in [
            &mut *beta,
            &mut *nu,
            &mut *beta_target,
            &mut *nu_target,
            &mut *trial_beta,
            &mut *trial_nu,
        ] {
            buf.clear();
            buf.resize(n_ratios, 0.0);
        }
        // Initialize (β, ν) from the starting point.
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
    history.reserve(config.max_iter + 1);
    history.push(objective_value(problem, x));

    if warm && mode == WarmMode::FastPath {
        // The carried multipliers still satisfy the optimality system (22)–(23) at the
        // staged point: the previous fixed point is still a fixed point, skip the loop.
        let residual0 = phi_inf_norm(problem, x, beta, nu);
        if residual0 <= config.phi_tol {
            let objective = *history.last().expect("pushed above");
            scratch.warm_valid = true;
            return Ok(FractionalSummary {
                objective,
                residual: residual0,
                iterations: 0,
                converged: true,
            });
        }
    }

    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;

    for it in 0..config.max_iter {
        iterations = it + 1;

        // Step 4: solve the parametric subproblem at the current (β, ν), double-buffering
        // the point instead of allocating a fresh one.
        problem.solve_parametric_into(nu, beta, spare)?;
        std::mem::swap(x, spare);
        history.push(objective_value(problem, x));

        // Convergence check: ϕ(β, ν) evaluated at the *response* x(β, ν). At the fixed point
        // the parametric solution reproduces the ratios that generated it — exactly the
        // optimality system (22)–(23) of Theorem 1.
        residual = phi_inf_norm(problem, x, beta, nu);
        if residual <= config.phi_tol {
            converged = true;
            break;
        }

        // Full-Newton targets at the response point: β_i → n_i(x)/d_i(x), ν_i → w_i/d_i(x).
        for i in 0..n_ratios {
            let d = problem.denominator(i, x);
            if d <= 0.0 || !d.is_finite() {
                return Err(NumError::NonPositiveParameter { name: "denominator", value: d });
            }
            beta_target[i] = problem.numerator(i, x) / d;
            nu_target[i] = problem.ratio_weight(i) / d;
        }

        // Steps 5–6: Newton update of (β, ν) under the Armijo-like rule (29). The rule is
        // evaluated at the current x, where ϕ is linear in (β, ν) and the full-Newton targets
        // zero it up to rounding, so the full step (j = 0) always passes and no damping ever
        // happens: the loop mirrors Algorithm 1 but guards nothing, not even an inexact
        // inner solution. Every trial entry is rewritten before it is read, so the trial
        // buffers need no per-iteration reset.
        let phi_now = residual;
        let mut step = 1.0;
        for _j in 0..=config.max_damping {
            for i in 0..n_ratios {
                trial_beta[i] = beta[i] + step * (beta_target[i] - beta[i]);
                trial_nu[i] = nu[i] + step * (nu_target[i] - nu[i]);
            }
            let phi_trial = phi_inf_norm(problem, x, trial_beta, trial_nu);
            if phi_trial <= (1.0 - config.epsilon * step) * phi_now || phi_now == 0.0 {
                break;
            }
            step *= config.xi;
        }
        beta.copy_from_slice(trial_beta);
        nu.copy_from_slice(trial_nu);
    }

    scratch.warm_valid = true;
    Ok(FractionalSummary {
        objective: objective_value(problem, x),
        residual,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        fn solve_parametric(&self, nu: &[f64], beta: &[f64]) -> Result<f64, NumError> {
            // min over x of nu0*((x+1) - beta0*x) + nu1*((x-3)^2 - beta1)
            // => derivative: nu0*(1-beta0) + 2*nu1*(x-3) = 0
            let x = 3.0 - nu[0] * (1.0 - beta[0]) / (2.0 * nu[1]);
            Ok(x.clamp(0.5, 5.0))
        }
    }

    #[test]
    fn toy_problem_matches_grid_search() {
        let sol = solve_sum_of_ratios(&Toy, 1.0, JongConfig::default()).unwrap();
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
        assert!((sol.point - reference.argmin[0]).abs() < 1e-2);
    }

    #[test]
    fn optimality_system_holds_at_fixed_point() {
        let sol = solve_sum_of_ratios(&Toy, 4.0, JongConfig::default()).unwrap();
        // (22)–(23): nu_i = w_i / d_i(x*), beta_i = n_i(x*) / d_i(x*).
        for i in 0..2 {
            let d = Toy.denominator(i, &sol.point);
            let n = Toy.numerator(i, &sol.point);
            assert!((sol.nu[i] - 1.0 / d).abs() < 1e-6);
            assert!((sol.beta[i] - n / d).abs() < 1e-6);
        }
    }

    #[test]
    fn history_is_recorded_and_mostly_decreasing() {
        let sol = solve_sum_of_ratios(&Toy, 5.0, JongConfig::default()).unwrap();
        assert!(sol.history.len() >= 2);
        assert!(sol.history.last().unwrap() <= sol.history.first().unwrap());
    }

    #[test]
    fn in_place_driver_matches_allocating_wrapper_bitwise() {
        let config = JongConfig::default();
        let sol = solve_sum_of_ratios(&Toy, 5.0, config).unwrap();

        let mut x = 5.0;
        let mut spare = 0.0; // arbitrary garbage; overwritten by the first parametric solve
        let mut scratch = JongScratch::default();
        let s1 = solve_sum_of_ratios_in(&Toy, &mut x, &mut spare, config, &mut scratch).unwrap();
        assert_eq!(x, sol.point);
        assert_eq!(s1.objective, sol.objective);
        assert_eq!(s1.residual, sol.residual);
        assert_eq!(s1.iterations, sol.iterations);
        assert_eq!(s1.converged, sol.converged);
        assert_eq!(scratch.beta, sol.beta);
        assert_eq!(scratch.nu, sol.nu);
        assert_eq!(scratch.history, sol.history);

        // A dirtied, reused scratch must reproduce the run bit for bit (the reuse contract).
        let mut x2 = 5.0;
        let mut spare2 = -7.0;
        let s2 = solve_sum_of_ratios_in(&Toy, &mut x2, &mut spare2, config, &mut scratch).unwrap();
        assert_eq!(x2, x);
        assert_eq!(s2, s1);
    }

    #[test]
    fn warm_multipliers_reach_the_same_fixed_point() {
        let config = JongConfig::default();
        let cold = solve_sum_of_ratios(&Toy, 5.0, config).unwrap();

        // First solve populates the warm seed; the second starts from a different point but
        // carries the converged multipliers — it must land on the same fixed point.
        let mut scratch = JongScratch::default();
        let (mut x, mut spare) = (5.0, 0.0);
        solve_sum_of_ratios_warm_in(&Toy, &mut x, &mut spare, config, &mut scratch, WarmMode::Cold)
            .unwrap();
        let mut x2 = 4.0;
        let s2 = solve_sum_of_ratios_warm_in(
            &Toy,
            &mut x2,
            &mut spare,
            config,
            &mut scratch,
            WarmMode::Multipliers,
        )
        .unwrap();
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
        let config = JongConfig::default();
        let mut scratch = JongScratch::default();
        let (mut x, mut spare) = (5.0, 0.0);
        let first = solve_sum_of_ratios_warm_in(
            &Toy,
            &mut x,
            &mut spare,
            config,
            &mut scratch,
            WarmMode::Cold,
        )
        .unwrap();
        assert!(first.converged);

        // Same point, carried multipliers, constraints unchanged: zero iterations.
        let again = solve_sum_of_ratios_warm_in(
            &Toy,
            &mut x,
            &mut spare,
            config,
            &mut scratch,
            WarmMode::FastPath,
        )
        .unwrap();
        assert!(again.converged);
        assert_eq!(again.iterations, 0, "fast path must skip the loop");
        assert_eq!(again.objective, first.objective);

        // An invalidated seed falls back to the cold start (and still solves).
        scratch.invalidate_warm();
        assert!(!scratch.warm_available(2));
        let after_reset = solve_sum_of_ratios_warm_in(
            &Toy,
            &mut x,
            &mut spare,
            config,
            &mut scratch,
            WarmMode::FastPath,
        )
        .unwrap();
        assert!(after_reset.iterations >= 1, "cold fallback must run the loop");
        assert!(after_reset.converged);
    }

    #[test]
    fn cold_mode_ignores_warm_state_bitwise() {
        let config = JongConfig::default();
        let reference = solve_sum_of_ratios(&Toy, 5.0, config).unwrap();

        // A scratch dirtied by a previous (different-start) solve, used in Cold mode, must
        // reproduce the fresh-scratch run bit for bit — the warm seed is never read.
        let mut scratch = JongScratch::default();
        let (mut x0, mut spare) = (1.0, 0.0);
        solve_sum_of_ratios_warm_in(
            &Toy,
            &mut x0,
            &mut spare,
            config,
            &mut scratch,
            WarmMode::Cold,
        )
        .unwrap();
        let mut x = 5.0;
        let summary = solve_sum_of_ratios_warm_in(
            &Toy,
            &mut x,
            &mut spare,
            config,
            &mut scratch,
            WarmMode::Cold,
        )
        .unwrap();
        assert_eq!(x, reference.point);
        assert_eq!(summary.objective, reference.objective);
        assert_eq!(summary.iterations, reference.iterations);
        assert_eq!(scratch.beta, reference.beta);
        assert_eq!(scratch.nu, reference.nu);
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
            fn solve_parametric(&self, _: &[f64], _: &[f64]) -> Result<f64, NumError> {
                Ok(0.0)
            }
        }
        assert!(matches!(
            solve_sum_of_ratios(&Empty, 0.0, JongConfig::default()),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_config() {
        let bad_xi = JongConfig { xi: 1.5, ..Default::default() };
        assert!(solve_sum_of_ratios(&Toy, 1.0, bad_xi).is_err());
        let bad_eps = JongConfig { epsilon: 0.0, ..Default::default() };
        assert!(solve_sum_of_ratios(&Toy, 1.0, bad_eps).is_err());
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
            fn solve_parametric(&self, _: &[f64], _: &[f64]) -> Result<f64, NumError> {
                Ok(1.0)
            }
        }
        assert!(matches!(
            solve_sum_of_ratios(&BadDen, 1.0, JongConfig::default()),
            Err(NumError::NonPositiveParameter { .. })
        ));
    }
}
