//! The Theorem-2 KKT solver for the parametric subproblem `SP2_v2`.
//!
//! Given the multipliers `(ν, β)` fixed by the outer Newton-like loop, `SP2_v2` (equation
//! (21)) is
//!
//! ```text
//! min_{p, B}  Σ_n ν_n (p_n d_n − β_n G_n(p_n, B_n))
//! s.t.        p_n^min ≤ p_n ≤ p_n^max,  Σ_n B_n ≤ B,  G_n(p_n, B_n) ≥ r_n^min .
//! ```
//!
//! The paper derives its solution in Appendix B:
//!
//! 1. Stationarity in `p` gives the affine relation (A.1)
//!    `p_n = (Λ_n − 1)·N₀·B_n / g_n` with `Λ_n = (ν_nβ_n + τ_n)·g_n / (N₀ d_n ν_n ln 2)`.
//! 2. Eliminating `p` yields a dual in `(τ, μ)`; the stationarity condition (A.3) links
//!    `τ_n` to the bandwidth price `μ` through a Lambert-W expression (A.4):
//!    `τ_n = (μ − j_n) ln 2 / W₀((μ − j_n)/(e·j_n)) − ν_nβ_n`, `j_n = ν_n d_n N₀ / g_n`.
//! 3. `μ` is the root of the scalar concave dual derivative `g'(μ) = 0`. We use the
//!    algebraically simplified form
//!    `g'(μ) = Σ_n r_n^min·ln2 / (W₀((μ − j_n)/(e·j_n)) + 1) − B`,
//!    which is equivalent to the paper's expression but avoids the removable singularity at
//!    `μ = j_n`. It is convex and decreasing in `μ` (`1/(1 + t)` is convex and decreasing,
//!    `W₀` concave), so the root is found by safeguarded Newton steps
//!    ([`root_of_decreasing_newton`]); the derivative
//!    `g''(μ) = −Σ_n r_n^min·ln2·W / ((μ − j_n)(1 + W)³)` comes from the same lane pass as
//!    `g'(μ)`, reusing its `W₀` values. Behind the legacy gates
//!    [`SolverConfig::superlinear_mu`] `= false` (the paper's pure bisection) and
//!    [`SolverConfig::adaptive_mu_bracket`] `= false` (a fixed warm bracket refined by
//!    Brent) the search brackets the root instead.
//! 4. Devices with `τ_n > 0` have a tight rate constraint: `B_n = r_n^min / log2(Λ_n)` and
//!    `p_n` from (A.1). The `W₀` of step 2 at the final `μ` is read from the lane the last
//!    `g'(μ)` pass left behind. The remaining devices solve the bounded linear program (A.6)
//!    in their bandwidths, which a greedy pass over the cost coefficients solves exactly.
//!
//! Box constraints on `p` (equation (38)) are applied by clamping, exactly as in the paper.

use super::{PowerBandwidth, Sp2Problem};
use crate::SolverConfig;
use numopt::lambertw::{lambert_w0, lambert_w0_seeded, ratio_over_w0};
use numopt::roots::{root_of_decreasing, root_of_decreasing_brent, root_of_decreasing_newton};
use numopt::scalar::clamp;
use numopt::NumError;
use wireless::channel::power_for_rate;

const LN2: f64 = std::f64::consts::LN_2;
const E: f64 = std::f64::consts::E;

/// Per-device LP data of step 4b: cost coefficient `ρ_n` and the bandwidth bounds implied by
/// the power box under the affine relation (A.1) with `τ_n = 0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LpEntry {
    idx: usize,
    rho: f64,
    b_lo: f64,
    b_hi: f64,
}

/// Reusable scratch buffers of the Theorem-2 KKT construction.
///
/// Every buffer is pure scratch: [`solve_parametric`] overwrites the contents on entry and
/// never reads state left by a previous call, so one instance can be reused across
/// arbitrarily many solves (and across scenarios of different device counts — the buffers
/// are resized per call). Reuse only saves the allocations.
///
/// Two kinds of *non-scratch* state ride along, neither of which affects the reference
/// path: cumulative work counters ([`KktScratch::parametric_solves`],
/// [`KktScratch::mu_bisect_evals`], [`KktScratch::lp_sorts`] — instrumentation only), and
/// the warm-start `μ` seed — the previous solve's price, read **only** when
/// [`SolverConfig::warm_start`] is set, and droppable at any time via
/// [`KktScratch::reset_warm_start`].
#[derive(Debug, Clone, Default)]
pub struct KktScratch {
    /// `j_n = ν_n d_n N₀ / g_n` per device (the constant of Appendix B).
    j: Vec<f64>,
    /// Compacted `j_n` lane of the rate-constrained devices only (in device order) — the
    /// `g'(μ)` summation set. Built **once per parametric solve**, so every `μ` probe is a
    /// dense, branch-free `O(m)` walk (`m` = rate-constrained devices) instead of an
    /// `O(n)` scan that re-tests `r_n^min > 0` on every device.
    rc_j: Vec<f64>,
    /// Matching compacted `r_n^min · ln 2` lane (the constant numerator of each `g'` term,
    /// hoisted out of the per-probe loop; `(r·ln2)/denom` is bit-identical to
    /// `r·ln2/denom` — same left-to-right grouping).
    rc_rmin_ln2: Vec<f64>,
    /// Matching `W₀((μ − j_n)/(e·j_n))` lane at the `μ` of the latest `g'(μ)` pass, which
    /// every pass rewrites. The searches end with a pass at the returned price, so step 2/4
    /// reads `W₀` here instead of evaluating it again, and each Newton pass after the first
    /// starts every device's Halley iteration from its value in the previous pass.
    rc_w: Vec<f64>,
    /// LP entries of the devices whose rate constraint is slack (step 4b).
    entries: Vec<LpEntry>,
    /// Cumulative count of Theorem-2 parametric solves performed with this scratch.
    pub parametric_solves: u64,
    /// Cumulative count of `g'(μ)` lane passes spent finding `μ`: one pass over the
    /// rate-constrained devices counts once, whether it was a Newton probe (which also
    /// yields `g''(μ)`), a bracket probe of the legacy searches, or the re-evaluation at the
    /// returned price that a legacy search needs when it did not probe that price last. The
    /// name predates the Newton search and is kept because benchmark and JSON readers use it.
    pub mu_bisect_evals: u64,
    /// Cumulative count of step-4b `(ρ, idx)` key sorts. The LP ordering is `μ`-invariant,
    /// so this advances exactly once per parametric solve — never once per `g'(μ)`
    /// evaluation. The complexity audit asserts this ratio.
    pub lp_sorts: u64,
    /// The previous solve's bandwidth price `μ` — the warm-start seed: the start of the
    /// Newton search, or the center of the legacy fixed-width bracket.
    warm_mu: f64,
    /// Whether [`KktScratch::warm_mu`] holds a usable seed.
    warm_mu_valid: bool,
}

/// Relative half-width of the legacy warm `μ` bracket
/// ([`SolverConfig::adaptive_mu_bracket`] `= false`, or pure bisection); a stale bracket
/// widens 16-fold, up to four tries, before the cold bracket takes over.
const WARM_DELTA: f64 = 1e-3;
/// Iteration budget of every `μ` search.
const MAX_ITER: usize = 300;

impl KktScratch {
    /// Drops the carried `μ` seed: the next warm-start solve searches from the cold start
    /// again.
    pub fn reset_warm_start(&mut self) {
        self.warm_mu_valid = false;
    }
}

/// Solves the parametric subproblem `SP2_v2` for fixed `(ν, β)` via the Theorem-2
/// construction.
///
/// Allocating convenience form of [`solve_parametric_into`].
///
/// # Errors
///
/// * [`NumError::NonFiniteValue`] (with `at` the device index) if some `ν_n` or `β_n` is
///   NaN or infinite.
/// * The Lambert-W error of a failed `W₀` evaluation, or the error of a failed `μ` search.
///
/// Callers treat any error as "fall back to the reference solver".
pub fn solve_parametric(
    problem: &Sp2Problem<'_>,
    nu: &[f64],
    beta: &[f64],
) -> Result<PowerBandwidth, NumError> {
    let mut point = PowerBandwidth::new(Vec::new(), Vec::new());
    solve_parametric_into(problem, nu, beta, &mut point)?;
    Ok(point)
}

/// [`solve_parametric`] into a caller-owned point — the allocation-free hot-path form.
///
/// `out` is pure scratch: whatever it holds on entry (any device count, any values) is
/// discarded, its vectors are resized to the scenario and every entry is written before the
/// final sanitize pass reads it. Together with the pooled [`KktScratch`] buffers this makes
/// the whole Theorem-2 construction allocation-free in steady state; results are
/// bit-identical to [`solve_parametric`].
///
/// # Errors
///
/// Same as [`solve_parametric`].
pub fn solve_parametric_into(
    problem: &Sp2Problem<'_>,
    nu: &[f64],
    beta: &[f64],
    out: &mut PowerBandwidth,
) -> Result<(), NumError> {
    let arrays = problem.arrays();
    let n = arrays.len();
    let n0 = problem.n0();
    let b_total = problem.total_bandwidth();
    let floor = problem.config().bandwidth_floor_hz;
    let r_min = problem.r_min_bps();
    if let Some(i) = nu.iter().zip(beta).position(|(v, b)| !(v.is_finite() && b.is_finite())) {
        return Err(NumError::NonFiniteValue { at: i as f64 });
    }
    let mut scratch = problem.scratch_mut();
    let KktScratch {
        j,
        rc_j,
        rc_rmin_ln2,
        rc_w,
        entries,
        parametric_solves,
        mu_bisect_evals,
        lp_sorts,
        warm_mu,
        warm_mu_valid,
    } = &mut *scratch;
    *parametric_solves += 1;

    // j_n = ν_n d_n N₀ / g_n (the constant of Appendix B), filled from the contiguous
    // lanes. The expression keeps the exact operand grouping of the struct walk
    // (ν·d·N₀/g, left to right over the raw per-device values), so the fill is
    // bit-identical to indexing the profiles.
    j.clear();
    j.extend(
        nu.iter()
            .zip(arrays.upload_bits.iter())
            .zip(arrays.gain.iter())
            .map(|((&nu_i, &d), &g)| (nu_i.max(1e-300)) * d * n0 / g),
    );

    // --- Step 3: bandwidth price μ from g'(μ) = 0 (root of a decreasing function). ---
    let has_rate_constraints = r_min.iter().any(|&r| r > 0.0);
    let config = problem.config();
    let mu = if has_rate_constraints {
        // Compact the summation set once per parametric solve: the μ search only ever
        // touches the rate-constrained devices, and their (j_n, r_n^min·ln2) pairs are
        // μ-invariant. Device order is preserved, so the per-probe sum below accumulates
        // the exact same terms in the exact same order as a full skip-scan would.
        rc_j.clear();
        rc_rmin_ln2.clear();
        for i in 0..n {
            if r_min[i] > 0.0 {
                rc_j.push(j[i]);
                rc_rmin_ln2.push(r_min[i] * LN2);
            }
        }
        rc_w.resize(rc_j.len(), 0.0);
        let j_max = j.iter().cloned().fold(0.0_f64, f64::max).max(1e-300);
        let j_min = j.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-300);
        let warm = (config.warm_start && *warm_mu_valid && *warm_mu > 0.0 && warm_mu.is_finite())
            .then_some(*warm_mu);
        let mut lanes = PriceLanes::new(rc_j, rc_rmin_ln2, rc_w, b_total);
        let price = bandwidth_price(&mut lanes, config, warm, j_min, j_max);
        *mu_bisect_evals += lanes.passes;
        price?
    } else {
        0.0
    };
    if config.warm_start && mu > 0.0 {
        *warm_mu = mu;
        *warm_mu_valid = true;
    }

    // --- Step 2/4: per-device multipliers τ_n and the rate-tight closed form. Devices whose
    // rate constraint is slack get their LP data (previously a second pass) built inline.
    // The output point doubles as the (p, B) working buffers. ---
    out.powers_w.clear();
    out.powers_w.resize(n, 0.0);
    out.bandwidths_hz.clear();
    out.bandwidths_hz.resize(n, 0.0);
    let powers = &mut out.powers_w;
    let bandwidths = &mut out.bandwidths_hz;
    entries.clear();
    let mut budget_used = 0.0;
    // Position in the rate-constrained lanes: `rc_w[k]` is device `i`'s W₀ at `μ`.
    let mut k = 0;

    for i in 0..n {
        let g = arrays.gain[i];
        let d = arrays.upload_bits[i];
        let (p_min, p_max) = (arrays.p_min_w[i], arrays.p_max_w[i]);
        let tau = if r_min[i] > 0.0 && mu > 0.0 {
            let w = rc_w[k];
            k += 1;
            (ratio_over_w0(mu - j[i], j[i], w)? * LN2 - nu[i] * beta[i]).max(0.0)
        } else {
            0.0
        };
        if tau > 0.0 {
            let lambda_n = (nu[i] * beta[i] + tau) * g / (n0 * d * nu[i].max(1e-300) * LN2);
            if lambda_n > 1.0 + 1e-9 && r_min[i] > 0.0 {
                let b = r_min[i] / lambda_n.log2();
                let p = (lambda_n - 1.0) * n0 * b / g;
                bandwidths[i] = b.max(floor);
                powers[i] = clamp(p, p_min, p_max);
                budget_used += bandwidths[i];
                continue;
            }
        }
        let lambda0 = beta[i] * g / (n0 * d * LN2);
        let (rho, b_lo, b_hi);
        if lambda0 > 1.0 + 1e-9 {
            rho = nu[i] * beta[i] / LN2 - n0 * d * nu[i] / g - nu[i] * beta[i] * lambda0.log2();
            let slope = (lambda0 - 1.0) * n0 / g; // p = slope · B
            let lo_from_pmin = p_min / slope;
            let hi_from_pmax = p_max / slope;
            let lo_from_rate = if r_min[i] > 0.0 { r_min[i] / lambda0.log2() } else { 0.0 };
            b_lo = lo_from_pmin.max(lo_from_rate).max(floor);
            b_hi = hi_from_pmax.max(b_lo);
        } else {
            // The unconstrained stationary power would be non-positive: the device sits at
            // p_min and simply wants as much bandwidth as the budget allows (the objective
            // is decreasing in B there). Its lower bound is whatever keeps the rate
            // constraint satisfiable at maximum power.
            rho = -nu[i] * beta[i]; // strictly negative ⇒ prioritized for leftover bandwidth
            b_lo = bandwidth_for_rate(g, p_max, r_min[i], n0, b_total, floor);
            b_hi = b_total;
        }
        entries.push(LpEntry { idx: i, rho, b_lo, b_hi });
    }

    // --- Step 4b: the bounded LP (A.6) over the devices whose rate constraint is slack. ---
    if !entries.is_empty() {
        let mut remaining = (b_total - budget_used).max(0.0);

        // Assign lower bounds first. Each floored share `(b_lo·scale).max(floor)` is computed
        // once and used both as the device's assignment and as its contribution to the spent
        // budget, so the two can never drift apart.
        let lo_sum: f64 = entries.iter().map(|e| e.b_lo).sum();
        let scale = if lo_sum > remaining && lo_sum > 0.0 { remaining / lo_sum } else { 1.0 };
        let mut assigned = 0.0;
        for e in entries.iter() {
            let share = (e.b_lo * scale).max(floor);
            bandwidths[e.idx] = share;
            assigned += share;
        }
        remaining = (remaining - assigned).max(0.0);

        // Spend the leftover on the devices with the most negative cost coefficient first.
        // `sort_unstable_by` with the `(ρ, idx)` key: ties on ρ resolve by device index —
        // exactly the order a stable sort would produce (entries are pushed in index order),
        // but the determinism no longer hinges on sort stability (and the unstable sort does
        // not allocate its merge buffer). The (ρ, idx) keys do not depend on μ's refinement
        // history, so this O(m log m) sort runs once per parametric solve — never per
        // g'(μ) probe; `lp_sorts` counts it as evidence.
        *lp_sorts += 1;
        entries.sort_unstable_by(|a, b| {
            (a.rho, a.idx).partial_cmp(&(b.rho, b.idx)).expect("finite coefficients")
        });
        for e in entries.iter() {
            if remaining <= 0.0 {
                break;
            }
            if e.rho < 0.0 {
                let extra = (e.b_hi - bandwidths[e.idx]).clamp(0.0, remaining);
                bandwidths[e.idx] += extra;
                remaining -= extra;
            }
        }

        // Recover powers from the affine relation (A.1), clamped into the box (38), and then
        // repaired upward if the rate constraint needs it.
        for e in entries.iter() {
            let i = e.idx;
            let g = arrays.gain[i];
            let d = arrays.upload_bits[i];
            let (p_min, p_max) = (arrays.p_min_w[i], arrays.p_max_w[i]);
            let lambda0 = beta[i] * g / (n0 * d * LN2);
            let p_raw =
                if lambda0 > 1.0 + 1e-9 { (lambda0 - 1.0) * n0 * bandwidths[i] / g } else { p_min };
            let mut p = clamp(p_raw, p_min, p_max);
            if r_min[i] > 0.0 {
                let needed = power_for_rate(r_min[i], bandwidths[i], g, n0);
                if needed > p {
                    p = clamp(needed, p_min, p_max);
                }
            }
            powers[i] = p;
        }
    }

    problem.sanitize(out);
    Ok(())
}

/// The `g'(μ)` lane walk of one parametric solve: the compacted rate-constrained lanes,
/// the `W₀` lane every pass rewrites, and what the price search records about its passes.
struct PriceLanes<'a> {
    j: &'a [f64],
    rmin_ln2: &'a [f64],
    w: &'a mut [f64],
    b_total: f64,
    /// The `μ` of the latest pass — the price the `w` lane belongs to.
    mu: f64,
    /// Passes performed.
    passes: u64,
    /// The first failed `W₀` evaluation. Its pass reports `g'(μ) = NaN`, which fails every
    /// search, and the solve returns this error instead of the search's.
    error: Option<NumError>,
}

impl<'a> PriceLanes<'a> {
    fn new(j: &'a [f64], rmin_ln2: &'a [f64], w: &'a mut [f64], b_total: f64) -> Self {
        Self { j, rmin_ln2, w, b_total, mu: f64::NAN, passes: 0, error: None }
    }

    /// One lane pass at `μ`: `(g'(μ), g''(μ))`, leaving each device's `W₀` in the lane.
    /// With `seeded`, each device's Halley iteration starts from its value in the previous
    /// pass instead of the cold guess. `g''` reuses the pass's `W₀`: no extra `exp` or
    /// `ln`.
    fn pass(&mut self, mu: f64, seeded: bool) -> (f64, f64) {
        self.passes += 1;
        self.mu = mu;
        let (mut sum, mut slope) = (0.0, 0.0);
        for ((&ji, &rml), wi) in self.j.iter().zip(self.rmin_ln2).zip(self.w.iter_mut()) {
            let arg = ((mu - ji) / (E * ji)).max(-1.0 / E);
            let w = match if seeded { lambert_w0_seeded(arg, *wi) } else { lambert_w0(arg) } {
                Ok(w) => w,
                Err(e) => {
                    self.error.get_or_insert(e);
                    return (f64::NAN, f64::NAN);
                }
            };
            *wi = w;
            // Simplified derivative term: r_min·ln2 / (W + 1).
            let denom = (w + 1.0).max(1e-12);
            sum += rml / denom;
            // Its μ-derivative is −r_min·ln2·W / ((μ − j)(1 + W)³); W/(μ − j) → 1/(e·j) at
            // μ = j.
            let w_over_y = if w == 0.0 { 1.0 / (E * ji) } else { w / (mu - ji) };
            slope += rml * w_over_y / (denom * denom * denom);
        }
        (sum - self.b_total, -slope)
    }

    /// `g'(μ)` alone, for the legacy bracketing searches. Unseeded, so each probe's `W₀`
    /// is bit-identical to a plain [`lambert_w0`] evaluation (the frozen bisection golden
    /// pins those bits).
    fn g_prime(&mut self, mu: f64) -> f64 {
        self.pass(mu, false).0
    }
}

/// Step 3: the bandwidth price `μ`, with the lane left holding `W₀` at that price.
///
/// The default search is Newton on the convex decreasing `g'` from the carried root
/// (`warm`) or, cold, from `10·j_max`; its tolerance is `mu_tol·10·j_max` either way. The
/// legacy gates bracket instead: a warm seed under `adaptive_mu_bracket = false`, or any
/// solve under `superlinear_mu = false`.
fn bandwidth_price(
    lanes: &mut PriceLanes<'_>,
    config: &SolverConfig,
    warm: Option<f64>,
    j_min: f64,
    j_max: f64,
) -> Result<f64, NumError> {
    let lo = 1e-9 * j_min;
    let tol = config.mu_tol * (10.0 * j_max);
    let price = if config.superlinear_mu && (config.adaptive_mu_bracket || warm.is_none()) {
        let mut seeded = false;
        let newton = |mu: f64| {
            let pass = lanes.pass(mu, seeded);
            seeded = true;
            pass
        };
        // No upper bracket to validate: from left of the root Newton never passes it.
        root_of_decreasing_newton(newton, lo, f64::MAX, warm.unwrap_or(10.0 * j_max), tol, MAX_ITER)
    } else {
        bracketed_price(lanes, config, warm, lo, tol, j_max)
    };
    if let Some(e) = lanes.error.take() {
        return Err(e);
    }
    let mu = price?;
    // Brent may return an iterate it did not probe last: evaluate the lane there, unseeded,
    // so step 2/4 reads the W₀ a plain evaluation at μ gives.
    if lanes.mu != mu {
        lanes.pass(mu, false);
        if let Some(e) = lanes.error.take() {
            return Err(e);
        }
    }
    Ok(mu)
}

/// The legacy `μ` searches behind [`SolverConfig::superlinear_mu`] and
/// [`SolverConfig::adaptive_mu_bracket`]: a warm bracket of relative half-width
/// [`WARM_DELTA`] around the seed, validated by its two end probes (`g'(lo) > 0 ≥ g'(hi)`)
/// and widened 16-fold up to four times, then a cold bracket `[lo, 10·j_max·4^k]`, its
/// upper end expanded until `g'` turns non-positive. The bracket is refined by Brent or,
/// without `superlinear_mu`, by pure bisection.
fn bracketed_price(
    lanes: &mut PriceLanes<'_>,
    config: &SolverConfig,
    warm: Option<f64>,
    lo: f64,
    tol: f64,
    j_max: f64,
) -> Result<f64, NumError> {
    let search = |lanes: &mut PriceLanes<'_>, lo: f64, hi: f64, tol: f64| {
        if config.superlinear_mu {
            root_of_decreasing_brent(|mu| lanes.g_prime(mu), lo, hi, tol, MAX_ITER)
        } else {
            root_of_decreasing(|mu| lanes.g_prime(mu), lo, hi, tol, MAX_ITER)
        }
    };
    if let Some(seed) = warm {
        let mut delta = WARM_DELTA;
        for _ in 0..4 {
            let (w_lo, w_hi) = ((seed * (1.0 - delta)).max(lo), seed * (1.0 + delta));
            let (g_lo, g_hi) = (lanes.g_prime(w_lo), lanes.g_prime(w_hi));
            if g_lo > 0.0 && g_hi <= 0.0 {
                // A failed refinement (e.g. a non-finite interior probe) falls back to the
                // cold bracket below rather than failing the solve — the warm bracket is
                // only ever a hint.
                if let Ok(mu) = search(lanes, w_lo, w_hi, tol) {
                    return Ok(mu);
                }
                break;
            }
            delta *= 16.0;
        }
    }
    // Expand the upper bracket until the derivative is non-positive.
    let mut mu_hi = 10.0 * j_max;
    let mut expansions = 0;
    while lanes.g_prime(mu_hi) > 0.0 && expansions < 200 {
        mu_hi *= 4.0;
        expansions += 1;
    }
    search(lanes, lo, mu_hi, config.mu_tol * mu_hi)
}

/// Smallest bandwidth at which a device with channel gain `g` can reach `r_min` at its
/// maximum power `p_max` (bisection on the monotone-increasing map `B ↦ G(p_max, B)`),
/// capped at `b_total`.
fn bandwidth_for_rate(g: f64, p_max: f64, r_min: f64, n0: f64, b_total: f64, floor: f64) -> f64 {
    if r_min <= 0.0 {
        return floor;
    }
    let rate_at = |b: f64| wireless::channel::shannon_rate_raw(p_max, b, g, n0);
    if rate_at(b_total) < r_min {
        // Not reachable even with the whole band: ask for the whole band (the sanitize pass
        // will scale it back together with everyone else).
        return b_total;
    }
    let mut lo = floor;
    let mut hi = b_total;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if rate_at(mid) >= r_min {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) / hi < 1e-9 {
            break;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use flsys::{Allocation, ScenarioArrays, ScenarioBuilder, Weights};
    use numopt::fractional::FractionalProblem;
    use wireless::channel::shannon_rate_raw;

    fn problem_fixture(
        n: usize,
        seed: u64,
        upload_window_s: f64,
    ) -> (flsys::Scenario, ScenarioArrays, SolverConfig, Vec<f64>) {
        let s = ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default();
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / upload_window_s).collect();
        (s, arrays, cfg, r_min)
    }

    fn nominal_multipliers(
        problem: &Sp2Problem<'_>,
        start: &PowerBandwidth,
    ) -> (Vec<f64>, Vec<f64>) {
        let n = problem.len();
        let mut nu = vec![0.0; n];
        let mut beta = vec![0.0; n];
        for i in 0..n {
            let d = problem.denominator(i, start);
            nu[i] = problem.ratio_weight(i) / d;
            beta[i] = problem.numerator(i, start) / d;
        }
        (nu, beta)
    }

    #[test]
    fn parametric_solution_is_feasible() {
        let (s, arrays, cfg, r_min) = problem_fixture(10, 11, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let point = solve_parametric(&problem, &nu, &beta).unwrap();

        let b_sum: f64 = point.bandwidths_hz.iter().sum();
        assert!(b_sum <= s.params.total_bandwidth.value() * (1.0 + 1e-6));
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            assert!(point.powers_w[i] >= dev.p_min.value() - 1e-15);
            assert!(point.powers_w[i] <= dev.p_max.value() + 1e-15);
            assert!(point.bandwidths_hz[i] >= cfg.bandwidth_floor_hz);
            let rate =
                shannon_rate_raw(point.powers_w[i], point.bandwidths_hz[i], dev.gain.value(), n0);
            assert!(rate > 0.0);
        }
    }

    #[test]
    fn parametric_solution_improves_parametric_objective() {
        // The KKT point should not be worse than the starting point on the subtractive
        // objective Σ ν(p·d − β·G).
        let (s, arrays, cfg, r_min) = problem_fixture(8, 13, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let parametric = |pt: &PowerBandwidth| -> f64 {
            (0..problem.len())
                .map(|i| nu[i] * (problem.numerator(i, pt) - beta[i] * problem.denominator(i, pt)))
                .sum()
        };
        let point = solve_parametric(&problem, &nu, &beta).unwrap();
        assert!(
            parametric(&point) <= parametric(&start) + 1e-9,
            "kkt point {} should improve on start {}",
            parametric(&point),
            parametric(&start)
        );
    }

    #[test]
    fn rate_tight_devices_hit_rate_floor() {
        // With a scarce band and a demanding rate floor, most devices should sit essentially
        // at r_min (the rate constraint is what drives their bandwidth share).
        let s = ScenarioBuilder::paper_default()
            .with_devices(10)
            .with_total_bandwidth(wireless::units::Hertz::from_mhz(2.0))
            .build(17)
            .unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default();
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.02).collect();
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let point = solve_parametric(&problem, &nu, &beta).unwrap();
        let n0 = s.params.noise.watts_per_hz();
        let mut tight = 0;
        for (i, dev) in s.devices.iter().enumerate() {
            let rate =
                shannon_rate_raw(point.powers_w[i], point.bandwidths_hz[i], dev.gain.value(), n0);
            assert!(rate >= r_min[i] * (1.0 - 1e-3), "device {i} violates rate floor");
            if rate <= r_min[i] * 1.05 {
                tight += 1;
            }
        }
        assert!(tight >= s.devices.len() / 2, "expected most devices rate-tight, got {tight}");
    }

    #[test]
    fn no_rate_constraint_spends_whole_budget_mostly_at_low_power() {
        let (s, arrays, cfg, _) = problem_fixture(6, 19, 0.05);
        let r_min = vec![0.0; 6];
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let point = solve_parametric(&problem, &nu, &beta).unwrap();
        let b_sum: f64 = point.bandwidths_hz.iter().sum();
        assert!(b_sum <= s.params.total_bandwidth.value() * (1.0 + 1e-6));
        assert!(b_sum > 0.0);
    }

    #[test]
    fn into_variant_matches_allocating_variant_from_dirty_out() {
        let (s, arrays, cfg, r_min) = problem_fixture(10, 11, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let fresh = solve_parametric(&problem, &nu, &beta).unwrap();

        // A wrongly-sized, garbage-filled output point must be overwritten completely.
        let mut dirty = PowerBandwidth::new(vec![f64::NAN; 3], vec![-1.0; 17]);
        solve_parametric_into(&problem, &nu, &beta, &mut dirty).unwrap();
        assert_eq!(dirty, fresh);
        // And reusing the same buffer again stays bit-identical.
        solve_parametric_into(&problem, &nu, &beta, &mut dirty).unwrap();
        assert_eq!(dirty, fresh);
    }

    #[test]
    fn step4b_lower_bound_assignment_and_budget_deduction_agree() {
        // The floored share `(b_lo·scale).max(floor)` used to be computed twice — once for
        // the assignment, once (re-derived inside a sum) for the budget deduction. Guard the
        // single-computation refactor two ways. First, the arithmetic identity on a mixed
        // set of entries (floored and unfloored):
        let entries = [
            LpEntry { idx: 0, rho: -1.0, b_lo: 10.0, b_hi: 100.0 },
            LpEntry { idx: 1, rho: 0.5, b_lo: 0.1, b_hi: 50.0 },
            LpEntry { idx: 2, rho: -0.2, b_lo: 7.0, b_hi: 9.0 },
        ];
        let (floor, remaining) = (2.0, 12.0);
        let lo_sum: f64 = entries.iter().map(|e| e.b_lo).sum();
        let scale = if lo_sum > remaining && lo_sum > 0.0 { remaining / lo_sum } else { 1.0 };
        let mut assigned = 0.0;
        for e in &entries {
            assigned += (e.b_lo * scale).max(floor);
        }
        let recomputed: f64 = entries.iter().map(|e| (e.b_lo * scale).max(floor)).sum();
        assert_eq!(assigned, recomputed, "assignment and deduction drifted apart");

        // Second, end to end: with a scarce band the lower bounds are scaled to fit the
        // budget exactly, so any drift between assignment and deduction would leave the
        // solver under- or over-spending the band.
        let s = ScenarioBuilder::paper_default()
            .with_devices(10)
            .with_total_bandwidth(wireless::units::Hertz::from_mhz(2.0))
            .build(17)
            .unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default();
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.02).collect();
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let point = solve_parametric(&problem, &nu, &beta).unwrap();
        let b_total = s.params.total_bandwidth.value();
        let b_sum: f64 = point.bandwidths_hz.iter().sum();
        assert!(
            (b_sum - b_total).abs() / b_total < 1e-6,
            "scarce band must be spent exactly: used {b_sum} of {b_total}"
        );
    }

    /// The lanes `solve_parametric` compacts for `(ν, β)`, with `j_min` and `j_max` over all
    /// devices: `(rc_j, rc_rmin_ln2, j_min, j_max)`.
    fn price_lanes_of(
        problem: &Sp2Problem<'_>,
        nu: &[f64],
        beta: &[f64],
    ) -> (Vec<f64>, Vec<f64>, f64, f64) {
        solve_parametric(problem, nu, beta).unwrap();
        let scratch = problem.scratch_mut();
        let j_max = scratch.j.iter().cloned().fold(0.0_f64, f64::max);
        let j_min = scratch.j.iter().cloned().fold(f64::INFINITY, f64::min);
        (scratch.rc_j.clone(), scratch.rc_rmin_ln2.clone(), j_min, j_max)
    }

    /// How far apart two searches may place the root of `g'` at `mu` through rounding
    /// alone. W₀ stops at a 1e-14-relative residual, so each g' term, and their sum (B at
    /// the root), carries ~1e-14 relative error; two searches may disagree by twice that
    /// over |g''|. Where the price dwarfs `j_max` (scarce bands, floors out of reach) this
    /// exceeds the search tolerance `mu_tol·10·j_max`.
    fn root_noise(j: &[f64], rml: &[f64], b_total: f64, mu: f64) -> f64 {
        let mut w = vec![0.0; j.len()];
        2e-14 * b_total / PriceLanes::new(j, rml, &mut w, b_total).pass(mu, false).1.abs()
    }

    /// A tight bisection root of `g'` over the legacy cold bracket.
    fn tight_root(lanes: &mut PriceLanes<'_>, j_min: f64, j_max: f64, tol: f64) -> f64 {
        let mut hi = 10.0 * j_max;
        while lanes.g_prime(hi) > 0.0 {
            hi *= 4.0;
        }
        root_of_decreasing(|mu| lanes.g_prime(mu), 1e-9 * j_min, hi, tol, 3000).unwrap()
    }

    #[test]
    fn lane_pass_second_derivative_matches_a_central_difference() {
        for n in [10, 1000] {
            let (s, arrays, cfg, r_min) = problem_fixture(n, 11, 0.05);
            let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
            let a = Allocation::equal_split_max(&s);
            let (nu, beta) =
                nominal_multipliers(&problem, &PowerBandwidth::new(a.powers_w, a.bandwidths_hz));
            let (j, rml, j_min, j_max) = price_lanes_of(&problem, &nu, &beta);
            let mut w = vec![0.0; j.len()];
            let mut lanes = PriceLanes::new(&j, &rml, &mut w, problem.total_bandwidth());
            let root = tight_root(&mut lanes, j_min, j_max, 1e-14 * j_max);
            // Around the root, far on either side, and exactly at a device's `j` (where the
            // W/(μ − j) factor takes its limit).
            for mu in [0.01 * root, 0.5 * root, root, 3.0 * root, 10.0 * j_max, j[0]] {
                let (_, slope) = lanes.pass(mu, false);
                let h = 1e-5 * mu;
                let central = (lanes.g_prime(mu + h) - lanes.g_prime(mu - h)) / (2.0 * h);
                assert!(
                    (slope - central).abs() <= 1e-6 * central.abs(),
                    "n = {n}, μ = {mu:e}: g'' {slope:e} vs central difference {central:e}"
                );
            }
            assert!(lanes.error.is_none());
        }
    }

    #[test]
    fn newton_price_is_within_tolerance_of_a_tight_bisection_root() {
        let cfg = SolverConfig::default();
        for (family, s) in crate::sp2::reference::tests::families() {
            let arrays = ScenarioArrays::from_scenario(&s);
            for r_min in crate::sp2::reference::tests::floor_levels(&s) {
                let problem =
                    Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
                let a = Allocation::equal_split_max(&s);
                let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
                let (nu, beta) = nominal_multipliers(&problem, &start);
                let (j, rml, j_min, j_max) = price_lanes_of(&problem, &nu, &beta);
                let tol = cfg.mu_tol * (10.0 * j_max);
                let mut w = vec![0.0; j.len()];
                let mut lanes = PriceLanes::new(&j, &rml, &mut w, problem.total_bandwidth());
                let tight = tight_root(&mut lanes, j_min, j_max, 1e-3 * tol);
                let noise = root_noise(&j, &rml, problem.total_bandwidth(), tight);
                // Cold, and warm from seeds on either side of the root.
                for warm in [None, Some(0.9 * tight), Some(tight), Some(1.1 * tight)] {
                    let mu = bandwidth_price(&mut lanes, &cfg, warm, j_min, j_max).unwrap();
                    assert!(
                        (mu - tight).abs() <= tol.max(noise),
                        "{family}: μ {mu:e} vs tight root {tight:e} from {warm:?} \
                         (tol {tol:e}, noise {noise:e})"
                    );
                    assert_eq!(lanes.mu, mu, "{family}: the W₀ lane must belong to μ");
                }
            }
        }
    }

    #[test]
    fn repeat_solve_at_unchanged_multipliers_takes_at_most_two_passes() {
        let cfg = SolverConfig::default();
        assert!(cfg.warm_start && cfg.superlinear_mu && cfg.adaptive_mu_bracket);
        for (family, s) in crate::sp2::reference::tests::families() {
            let arrays = ScenarioArrays::from_scenario(&s);
            for r_min in crate::sp2::reference::tests::floor_levels(&s) {
                let problem =
                    Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
                let a = Allocation::equal_split_max(&s);
                let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
                let (nu, beta) = nominal_multipliers(&problem, &start);
                let (j, rml, _, j_max) = price_lanes_of(&problem, &nu, &beta);
                problem.scratch_mut().reset_warm_start();
                let before = problem.scratch_mut().mu_bisect_evals;
                let first = solve_parametric(&problem, &nu, &beta).unwrap();
                let (after_first, mu) = {
                    let scratch = problem.scratch_mut();
                    (scratch.mu_bisect_evals, scratch.warm_mu)
                };
                let cold_passes = after_first - before;
                let repeat = solve_parametric(&problem, &nu, &beta).unwrap();
                let passes = problem.scratch_mut().mu_bisect_evals - after_first;
                if root_noise(&j, &rml, problem.total_bandwidth(), mu) <= cfg.mu_tol * 10.0 * j_max
                {
                    assert!(passes <= 2, "{family}: the repeat solve took {passes} passes");
                } else {
                    // Below the resolution of g' the repeat still ends by collapsing its
                    // bracket, in no more passes than the cold search.
                    assert!(passes <= cold_passes, "{family}: {passes} vs cold {cold_passes}");
                }
                for (x, y) in first.bandwidths_hz.iter().zip(&repeat.bandwidths_hz) {
                    assert!((x - y).abs() <= 1e-6 * x.abs(), "{family}: B {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn non_finite_multipliers_are_typed_errors_not_panics() {
        let (s, arrays, cfg, r_min) = problem_fixture(6, 11, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut nu_bad = nu.clone();
            nu_bad[2] = bad;
            let err = solve_parametric(&problem, &nu_bad, &beta).unwrap_err();
            assert_eq!(err, NumError::NonFiniteValue { at: 2.0 }, "ν[2] = {bad}");
            let mut beta_bad = beta.clone();
            beta_bad[2] = bad;
            let err = solve_parametric(&problem, &nu, &beta_bad).unwrap_err();
            assert_eq!(err, NumError::NonFiniteValue { at: 2.0 }, "β[2] = {bad}");
        }
        // The rejected calls left the scratch usable.
        assert!(solve_parametric(&problem, &nu, &beta).is_ok());
    }

    #[test]
    fn bandwidth_for_rate_is_inverse_of_rate() {
        let s = ScenarioBuilder::paper_default().with_devices(1).build(3).unwrap();
        let dev = &s.devices[0];
        let n0 = s.params.noise.watts_per_hz();
        let b_total = s.params.total_bandwidth.value();
        let r_min = 1.0e6;
        let b = bandwidth_for_rate(dev.gain.value(), dev.p_max.value(), r_min, n0, b_total, 1.0);
        let achieved = shannon_rate_raw(dev.p_max.value(), b, dev.gain.value(), n0);
        assert!((achieved - r_min).abs() / r_min < 1e-3);
        assert_eq!(
            bandwidth_for_rate(dev.gain.value(), dev.p_max.value(), 0.0, n0, b_total, 1.0),
            1.0
        );
    }
}
