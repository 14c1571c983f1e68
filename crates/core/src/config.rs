//! Solver configuration.

use numopt::JongConfig;
use serde::{Deserialize, Serialize};

/// Tunables of the resource-allocation solver (Algorithm 2 and its subproblem solvers).
///
/// The defaults reproduce the paper's setup; they are deliberately conservative so that the
/// evaluation harness never trips over a half-converged inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Maximum outer iterations `K` of Algorithm 2 (alternating Subproblem 1 / Subproblem 2).
    pub outer_max_iter: usize,
    /// Outer convergence tolerance `ε₀` on the normalized change of the solution vector.
    pub outer_tol: f64,
    /// Newton-like loop settings for Subproblem 2 (the paper's Algorithm 1).
    #[serde(skip, default = "default_jong")]
    pub jong: JongConfig,
    /// Tolerance of the search for the bandwidth-budget multiplier `μ`, as a fraction of
    /// `10·j_max` (the cold search's starting price, `j_max` the largest Appendix-B
    /// constant `ν_n d_n N₀ / g_n`), not of `μ` itself: the search stops within
    /// `mu_tol·10·j_max` of the root, or as close as the rounding of `g'(μ)` allows where
    /// that is finer. The legacy bracketed searches scale it by their expanded upper
    /// bracket instead when they start cold.
    pub mu_tol: f64,
    /// Tolerance of the one-dimensional searches (Subproblem 1 over `T`, baselines).
    pub scalar_tol: f64,
    /// Lower floor on any device's bandwidth share in hertz (keeps Shannon rates strictly
    /// positive so the sum-of-ratios denominators never vanish).
    pub bandwidth_floor_hz: f64,
    /// If `true`, Subproblem 2 cross-checks the Newton-like (Theorem 2) solution against a
    /// direct reference solver and keeps whichever attains lower communication energy.
    pub polish_with_reference: bool,
    /// Enables the warm-start continuation through the solver stack: Subproblem 2 seeds its
    /// Newton-like loop with the previous solve's `(β, ν)` multipliers, starts the `μ`
    /// search from the previous price, skips the loop entirely once the rate floors stop
    /// moving (a relative drift of at most [`SolverConfig::outer_tol`] against the previous
    /// solve's floors, a movement the outer alternation itself would already call
    /// converged) while the carried multipliers still satisfy the iteration's `‖ϕ‖∞`
    /// tolerance at the staged point, Subproblem 1 narrows its golden-section bracket
    /// around the previous round time, and Algorithm 2 carries the previous `(p, B)`
    /// iterate between outer iterations instead of restaging it. The alternation is also
    /// inexact: outer iteration `k` solves Subproblem 2 only to the `‖ϕ‖∞` tolerance
    /// `max(jong.phi_tol, min(1e-2, 0.3·change_{k−1}))`
    /// ([`alg2::FORCING_CEILING`](crate::alg2::FORCING_CEILING),
    /// [`alg2::FORCING_FACTOR`](crate::alg2::FORCING_FACTOR)), where `change_{k−1}` is the
    /// previous iteration's solution change (infinite at each run's first iteration), since
    /// the next Subproblem-1 step moves the rate floors by about that much anyway.
    ///
    /// `true` (the default) is the production path: the outer loop meets the same
    /// `outer_tol` contract along a cheaper trajectory, with every Subproblem-2 solve held
    /// to the tolerance above rather than to `jong.phi_tol`, so the last digits of the
    /// result may differ from the cold path; results can also depend on what a reused
    /// [`SolverWorkspace`](crate::SolverWorkspace) solved last (the sweep engine resets that
    /// state at every cell-group boundary to stay deterministic). `false` is the bit-exact
    /// cold reference path: no warm state is ever read, every Subproblem-2 solve meets
    /// `jong.phi_tol`, and results are identical to a solver without the continuation —
    /// the sweep engine's `FEDOPT_WARM_START=0` escape hatch forces it sweep-wide.
    #[serde(default)]
    pub warm_start: bool,
    /// Finds the Theorem-2 bandwidth multiplier `μ` with the superlinear search instead of
    /// pure bisection. `true` (the default) is the safeguarded Newton iteration on the
    /// convex decreasing `g'(μ)` (see `numopt::roots::root_of_decreasing_newton`): 6–8
    /// `g'(μ)` passes per cold KKT solve and 2.6–3.4 per warm one on the quick figure
    /// presets. `false` is the legacy path, pinned
    /// bit-identical by a frozen regression golden: pure bisection over a bracket, cold or
    /// around the warm seed. Both clamp identically when the budget constraint is inactive,
    /// and both stop within the solver's own `mu_tol`.
    #[serde(default = "default_superlinear_mu")]
    pub superlinear_mu: bool,
    /// Lets a warm-started solve run the Newton `μ` search from the previous price (see
    /// [`SolverConfig::superlinear_mu`]). `false` is the legacy warm path: a fixed bracket
    /// of relative half-width `1e-3` around the previous price, validated by its two end
    /// probes, widened up to four times and refined by Brent, with the cold search as the
    /// fallback. Cold solves run Newton either way. Only read when
    /// [`SolverConfig::warm_start`] and [`SolverConfig::superlinear_mu`] are set; kept only
    /// because the benchmark harness builds against it.
    #[serde(default = "default_adaptive_mu_bracket")]
    pub adaptive_mu_bracket: bool,
    /// Starts Algorithm 2's weighted outer loop from the workspace's carried best
    /// allocation ([`SolverWorkspace::best`](crate::SolverWorkspace::best)) instead of the
    /// equal-split initial point, when that allocation matches the scenario's device
    /// count. Combined with [`SolverConfig::warm_start`], a re-solve of the *same*
    /// problem then opens at the converged point with matching rate floors, Subproblem
    /// 2's fast path fires on the first outer iteration, and the loop converges
    /// immediately — zero Jong iterations for an identical repeat.
    ///
    /// `false` (the default) keeps the textbook initialization: every solve's trajectory
    /// is independent of what the workspace solved before, which is what sweeps pin
    /// their goldens against. Serving layers that key workspace reuse by request
    /// fingerprint are the intended consumer: they guarantee the carried best belongs to
    /// the same problem, so continuation is a pure speedup toward the same fixed point
    /// (within `outer_tol`). Only read when [`SolverConfig::warm_start`] is set.
    #[serde(default)]
    pub outer_continuation: bool,
}

fn default_jong() -> JongConfig {
    JongConfig::default()
}

fn default_superlinear_mu() -> bool {
    true
}

fn default_adaptive_mu_bracket() -> bool {
    true
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            outer_max_iter: 25,
            outer_tol: 1.0e-4,
            jong: default_jong(),
            mu_tol: 1.0e-11,
            scalar_tol: 1.0e-7,
            bandwidth_floor_hz: 1.0,
            polish_with_reference: true,
            warm_start: true,
            superlinear_mu: default_superlinear_mu(),
            adaptive_mu_bracket: default_adaptive_mu_bracket(),
            outer_continuation: false,
        }
    }
}

impl SolverConfig {
    /// A faster, looser configuration for benchmarks and large sweeps.
    pub fn fast() -> Self {
        Self {
            outer_max_iter: 10,
            outer_tol: 1.0e-3,
            jong: JongConfig { max_iter: 25, phi_tol: 1.0e-6 },
            mu_tol: 1.0e-9,
            scalar_tol: 1.0e-6,
            ..Self::default()
        }
    }

    /// This configuration with the warm-start continuation switched on or off.
    #[must_use]
    pub fn with_warm_start(self, warm_start: bool) -> Self {
        Self { warm_start, ..self }
    }

    /// This configuration with the superlinear `μ` search switched on or off
    /// (`false` = the legacy pure-bisection path; see [`SolverConfig::superlinear_mu`]).
    #[must_use]
    pub fn with_superlinear_mu(self, superlinear_mu: bool) -> Self {
        Self { superlinear_mu, ..self }
    }

    /// This configuration with the warm Newton `μ` search switched on or off
    /// (`false` = the fixed `1e-3` warm bracket refined by Brent; see
    /// [`SolverConfig::adaptive_mu_bracket`]).
    #[must_use]
    pub fn with_adaptive_mu_bracket(self, adaptive_mu_bracket: bool) -> Self {
        Self { adaptive_mu_bracket, ..self }
    }

    /// This configuration with the outer-loop continuation switched on or off
    /// (`false` = the independent-trajectory initialization; see
    /// [`SolverConfig::outer_continuation`]).
    #[must_use]
    pub fn with_outer_continuation(self, outer_continuation: bool) -> Self {
        Self { outer_continuation, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sensible() {
        let c = SolverConfig::default();
        assert!(c.outer_max_iter >= 5);
        assert!(c.outer_tol > 0.0 && c.outer_tol < 1.0);
        assert!(c.bandwidth_floor_hz > 0.0);
        assert!(c.polish_with_reference);
    }

    #[test]
    fn fast_is_looser_than_default() {
        let fast = SolverConfig::fast();
        let def = SolverConfig::default();
        assert!(fast.outer_max_iter <= def.outer_max_iter);
        assert!(fast.outer_tol >= def.outer_tol);
    }

    #[test]
    fn warm_start_defaults_on_and_rmin_tol_tracks_outer_tol() {
        // The fast path's rate-floor drift bound is `outer_tol` itself, so it tracks by
        // construction; what is left to pin is the warm-start default.
        let def = SolverConfig::default();
        assert!(def.warm_start, "warm start is the library-wide default since PR 6");
        let fast = SolverConfig::fast();
        assert!(fast.warm_start);
        assert!(!SolverConfig::default().with_warm_start(false).warm_start);
    }

    #[test]
    fn superlinear_mu_defaults_on_with_a_legacy_gate() {
        assert!(SolverConfig::default().superlinear_mu);
        assert!(SolverConfig::fast().superlinear_mu);
        let legacy = SolverConfig::default().with_superlinear_mu(false);
        assert!(!legacy.superlinear_mu, "the pure-bisection gate must stay selectable");
        assert_eq!(legacy.with_superlinear_mu(true), SolverConfig::default());
    }
}
