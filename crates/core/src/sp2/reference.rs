//! The reference solver of Subproblem 2: the exact solve of a reduced problem.
//!
//! This solver attacks the *original* ratio objective rather than the parametric form,
//! through two structural facts:
//!
//! 1. For a fixed bandwidth `B_n`, the per-device communication energy
//!    `p·d_n / G_n(p, B_n)` is strictly increasing in `p` (because `G_n(p) ≥ p·∂G_n/∂p` for
//!    a concave function through the origin). The energy-optimal power is therefore the
//!    *smallest feasible* one: just enough to meet the rate floor `r_n^min`, clamped into
//!    the power box. Substituting it leaves the reduced energy `E_n(B)`, convex and
//!    decreasing in the bandwidth.
//! 2. The bandwidth budget therefore binds, and the reduced problem
//!    `min Σ_n E_n(B_n)` s.t. `Σ_n B_n = B`, `B_n ∈ [b_lo_n, B]` separates under a price
//!    `ω` on bandwidth: every device picks the minimiser of `E_n(B) + ωB`, and the clearing
//!    price makes the picks add up to `B`.
//!
//! Both steps are exact. Over its interval a device's reduced energy has up to two faces:
//!
//! * the **rate-tight face**, where the power lies inside the box and the rate equals the
//!   floor: `E_n(B) = c_n·B·(2^{r_n/B} − 1)` with `c_n = d_n N₀ / (r_n g_n)`. Its price
//!   response is closed-form, `B = r_n ln2 / (1 + W₀((ω/c_n − 1)/e))` — the same Lambert-W
//!   term as Theorem 2's `g'(μ)`;
//! * the **fixed-power face**: past the bandwidth where the tight power reaches `p_min`, or
//!   at `p_max` for a device whose floor is unreachable even with the whole band (whose
//!   soft-penalised energy is `11·p_max·d_n/G_n + const`). There
//!   `−E_n′(B) = k·p·d_n·ψ/G_n²` (`ψ = ∂G/∂B`, `k` = 1 or 11) decreases monotonically and
//!   the pick is one bracketed Brent root.
//!
//! The derivative jumps up at the kink between the faces (the reduced energy stays convex),
//! so a price between the two one-sided slopes picks the kink itself. The face boundaries —
//! the bandwidth `b_lo` at which `p_max` just meets the floor and the one at which the tight
//! power reaches `p_min` — come from one monotone Newton solve of
//! `B·log2(1 + g·p/(N₀·B)) = r` each ([`bandwidth_for_rate`]), and the clearing price is a
//! Brent root of the aggregate demand.
//!
//! The result is the optimum of the reduced problem, a feasible point of the sum-of-ratios
//! problem that does not depend on the Newton-like machinery at all. That makes it an
//! independent cross-check of Algorithm 1 (the role CVX played for the authors) and, with
//! [`SolverConfig::polish_with_reference`](crate::SolverConfig) on, the polish that replaces
//! the Newton-like point whenever it spends less communication energy.

use super::{PowerBandwidth, Sp2Problem};
use numopt::lambertw::lambert_w0;
use numopt::roots::brent_with_endpoints;
use numopt::scalar::clamp;
use numopt::NumError;
use wireless::channel::{bandwidth_for_rate, power_for_rate, shannon_rate_raw};

const LN2: f64 = std::f64::consts::LN_2;
const LN4: f64 = 2.0 * std::f64::consts::LN_2;

/// Slope of the soft penalty on an unreachable rate floor: the energy is scaled by
/// `1 + PENALTY·(r − G)/r`.
const PENALTY: f64 = 10.0;
/// Tolerance of the clearing-price search in `ln ω` (a relative accuracy on `ω`).
const PRICE_LOG_TOL: f64 = 1e-10;
/// Tolerance of a fixed-power-face pick in `ln B` (a relative accuracy on the pick).
const PICK_LOG_TOL: f64 = 1e-12;
/// Iteration cap of the Brent searches and Newton solves; each needs a handful.
const MAX_ITER: usize = 100;
/// Cap on the ×4 steps that widen a price bracket until it straddles the budget.
const MAX_EXPANSIONS: usize = 80;
/// Below this `x` the closed form of [`tight_slope`] cancels to `x²/2`.
const SERIES_X: f64 = 0.1;

/// The reference solver's working set, pooled in the [`Sp2Scratch`](super::Sp2Scratch).
///
/// The per-device face constants are pure scratch, rebuilt by every solve; they grow only
/// once the reference first runs, so a solver with the polish off never allocates them.
/// The clearing price of the last priced solve rides along as the warm-start seed:
/// successive Subproblem-2 solves inside Algorithm 2's alternation differ only slightly, so
/// the next price search opens at `[ω/4, 4ω]` instead of at the equal-share prices. The seed
/// is only read (and only armed) when [`SolverConfig::warm_start`](crate::SolverConfig) is
/// enabled; [`ReferenceScratch::reset_warm_start`] drops it.
#[derive(Debug, Clone, Default)]
pub struct ReferenceScratch {
    faces: Vec<Faces>,
    /// Clearing price of the last priced solve.
    omega: f64,
    /// Whether [`ReferenceScratch::omega`] may seed the next solve.
    warm: bool,
}

impl ReferenceScratch {
    /// Drops the carried price seed: the next solve brackets from scratch.
    pub fn reset_warm_start(&mut self) {
        self.warm = false;
    }
}

/// Per-device reduced energy under the "smallest feasible power" rule: the objective each
/// device's bandwidth pick minimises (plus `ω·B`).
fn reduced_energy(problem: &Sp2Problem<'_>, i: usize, bandwidth: f64) -> f64 {
    let arrays = problem.arrays();
    let n0 = problem.n0();
    let g = arrays.gain[i];
    let d = arrays.upload_bits[i];
    let r_min = problem.r_min_bps()[i];
    let p = clamp(power_for_rate(r_min, bandwidth, g, n0), arrays.p_min_w[i], arrays.p_max_w[i]);
    // The Shannon rate through `ln_1p`: at low SNR `(1 + snr).log2()` rounds the SNR, and
    // the noise swamps the flat objective the picks minimise.
    let rate = bandwidth * (g * p / (n0 * bandwidth)).ln_1p() / LN2;
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let mut energy = p * d / rate;
    // Soft penalty when even p_max cannot reach the rate floor with this bandwidth, so the
    // price search steers toward bandwidths that restore feasibility.
    if r_min > 0.0 && rate < r_min {
        energy *= 1.0 + PENALTY * (r_min - rate) / r_min;
    }
    energy
}

/// `−E′/c` on the rate-tight face at `x = r·ln2/B`: `1 + eˣ(x − 1)`, or for small `x` its
/// series `Σ_{m≥2} (m − 1)·xᵐ/m!` (truncated where the terms drop below `1e-16` of the sum).
fn tight_slope(x: f64) -> f64 {
    if x >= SERIES_X {
        return 1.0 + x.exp() * (x - 1.0);
    }
    let (mut sum, mut term) = (0.0, 0.5 * x * x);
    for m in 2..12 {
        sum += f64::from(m - 1) * term;
        term *= x / f64::from(m + 1);
    }
    sum
}

/// The `x = r·ln2/B` at which the tight face's `−E′/c` equals `z = ω/c`: the closed form
/// `1 + W₀((z − 1)/e)`. For small `z`, forming `(z − 1)/e` rounds `z` away near `W₀`'s
/// branch point, so there Newton's method on [`tight_slope`] runs instead, from `√(2z)`:
/// the slope is convex, increasing and at least `x²/2`, so the iterates fall monotonically
/// onto the root. NaN if the Lambert-W evaluation fails.
fn tight_response(z: f64) -> f64 {
    if z >= tight_slope(SERIES_X) {
        return lambert_w0((z - 1.0) / std::f64::consts::E).map_or(f64::NAN, |w| 1.0 + w);
    }
    let mut x = (2.0 * z).sqrt();
    for _ in 0..MAX_ITER {
        let step = (tight_slope(x) - z) / (x * x.exp());
        // A NaN step (x = 0 at z = 0) stops too.
        if step.is_nan() || step <= 4.0 * f64::EPSILON * x {
            break;
        }
        x -= step;
    }
    x
}

/// `−E′` on a fixed-power face at bandwidth `b`: `k·p·d·ψ/G²` with `snr_hz = g·p/N₀` and
/// `scale = k·p·d·ln2`.
fn fixed_slope(scale: f64, snr_hz: f64, b: f64) -> f64 {
    let s = snr_hz / b;
    let l = s.ln_1p();
    let bl = b * l;
    scale * (l - s / (1.0 + s)) / (bl * bl)
}

/// One device's reduced energy over its interval `[b_lo, B]`: a rate-tight face on
/// `[b_lo, b_fixed)` followed by a fixed-power face on `[b_fixed, B]`, either possibly empty.
#[derive(Debug, Clone, Copy, Default)]
struct Faces {
    /// Lower end of the interval: where `p_max` just meets the floor.
    b_lo: f64,
    /// Start of the fixed-power face: `b_lo` when the whole interval is fixed-power, `B`
    /// when it is all rate-tight.
    b_fixed: f64,
    /// `r·ln2` of the tight face.
    r_ln2: f64,
    /// `c = d·N₀/(r·g)` of the tight face.
    c: f64,
    /// `−E′` just left of `b_fixed` on the tight face (`+∞` without a tight face).
    slope_tight_end: f64,
    /// `g·p/N₀` at the fixed face's power.
    snr_hz: f64,
    /// `k·p·d·ln2` of the fixed face.
    fixed_scale: f64,
    /// `ln b_fixed`.
    ln_b_fixed: f64,
    /// `ln(−E′)` just right of `b_fixed` (`−∞` without a fixed face).
    ln_slope_fixed_lo: f64,
    /// `ln(−E′)` at `B`.
    ln_slope_fixed_hi: f64,
}

impl Faces {
    fn new(problem: &Sp2Problem<'_>, i: usize, b_total: f64) -> Self {
        let arrays = problem.arrays();
        let n0 = problem.n0();
        let g = arrays.gain[i];
        let d = arrays.upload_bits[i];
        let r = problem.r_min_bps()[i];
        let (p_min, p_max) = (arrays.p_min_w[i], arrays.p_max_w[i]);
        let floor = problem.config().bandwidth_floor_hz;
        // (b_lo, b_fixed, fixed-face power, penalty factor k)
        let (b_lo, b_fixed, p, k) = if r <= 0.0 {
            (floor, floor, p_min, 1.0)
        } else if shannon_rate_raw(p_max, b_total, g, n0) < r {
            // Infeasible even with the whole band; claim an equal share at p_max under the
            // penalty and let the sanitize pass arbitrate.
            let share = b_total / arrays.len() as f64;
            (share, share, p_max, 1.0 + PENALTY)
        } else {
            let b_lo = bandwidth_for_rate(r, p_max, g, n0, floor);
            let b_fixed = if p_min > 0.0 && shannon_rate_raw(p_min, b_total, g, n0) >= r {
                bandwidth_for_rate(r, p_min, g, n0, b_lo).min(b_total)
            } else {
                b_total
            };
            (b_lo, b_fixed, p_min, 1.0)
        };
        let r_ln2 = r * LN2;
        let c = d * n0 / (r * g);
        let snr_hz = g * p / n0;
        let fixed_scale = k * p * d * LN2;
        let slope_tight_end =
            if b_fixed > b_lo { c * tight_slope(r_ln2 / b_fixed) } else { f64::INFINITY };
        let ln_slope_fixed_lo = if b_fixed < b_total {
            fixed_slope(fixed_scale, snr_hz, b_fixed).ln()
        } else {
            f64::NEG_INFINITY
        };
        Self {
            b_lo,
            b_fixed,
            r_ln2,
            c,
            slope_tight_end,
            snr_hz,
            fixed_scale,
            ln_b_fixed: b_fixed.ln(),
            ln_slope_fixed_lo,
            ln_slope_fixed_hi: fixed_slope(fixed_scale, snr_hz, b_total).ln(),
        }
    }

    /// `−E′` at `b`, on whichever face `b` lies.
    fn slope_at(&self, b: f64) -> f64 {
        if b < self.b_fixed {
            self.c * tight_slope(self.r_ln2 / b)
        } else {
            fixed_slope(self.fixed_scale, self.snr_hz, b)
        }
    }

    /// The exact minimiser of `E(B) + ωB` over `[b_lo, B]` (`ln_omega = ln ω`). NaN only if
    /// a search fails, which the clearing-price search reports as a typed error.
    fn pick(&self, omega: f64, ln_omega: f64, b_total: f64, ln_b_total: f64) -> f64 {
        if omega > self.slope_tight_end {
            // Steeper than the tight face's end: the minimiser lies on the tight face.
            let b = self.r_ln2 / tight_response(omega / self.c);
            return if b.is_nan() { b } else { clamp(b, self.b_lo, self.b_fixed) };
        }
        if ln_omega >= self.ln_slope_fixed_lo {
            // Inside the subdifferential at the kink (or at b_lo).
            return self.b_fixed;
        }
        if ln_omega <= self.ln_slope_fixed_hi {
            return b_total;
        }
        // Fixed face, in log-log coordinates where `−E′ ≈ C·B⁻²` is nearly linear.
        let f = |t: f64| fixed_slope(self.fixed_scale, self.snr_hz, t.exp()).ln() - ln_omega;
        brent_with_endpoints(
            f,
            self.ln_b_fixed,
            self.ln_slope_fixed_lo - ln_omega,
            ln_b_total,
            self.ln_slope_fixed_hi - ln_omega,
            PICK_LOG_TOL,
            MAX_ITER,
        )
        .map_or(f64::NAN, |o| o.root.exp())
    }
}

/// Aggregate bandwidth demand at price `omega`.
fn demand(faces: &[Faces], omega: f64, b_total: f64) -> f64 {
    let (ln_omega, ln_b_total) = (omega.ln(), b_total.ln());
    faces.iter().map(|f| f.pick(omega, ln_omega, b_total, ln_b_total)).sum()
}

/// The price at which the aggregate demand clears the budget, by a Brent root of
/// `ln(demand/B)` over `ln ω` (decreasing, nearly linear for these power-law responses).
/// The search opens at `seed` (a `ln ω` bracket) and widens it by ×4 steps until it
/// straddles the budget.
fn clearing_price(faces: &[Faces], b_total: f64, seed: (f64, f64)) -> Result<f64, NumError> {
    let log_excess = |u: f64| (demand(faces, u.exp(), b_total) / b_total).ln();
    let (mut lo, mut hi) = seed;
    let mut f_lo = log_excess(lo);
    let mut f_hi = if hi > lo { log_excess(hi) } else { f_lo };
    for _ in 0..MAX_EXPANSIONS {
        if f_lo < 0.0 {
            (hi, f_hi) = (lo, f_lo);
            lo -= LN4;
            f_lo = log_excess(lo);
        } else if f_hi > 0.0 {
            (lo, f_lo) = (hi, f_hi);
            hi += LN4;
            f_hi = log_excess(hi);
        } else {
            break;
        }
    }
    let root = brent_with_endpoints(log_excess, lo, f_lo, hi, f_hi, PRICE_LOG_TOL, MAX_ITER)?;
    Ok(root.root.exp())
}

/// Solves Subproblem 2 directly (see the module docs) and returns a feasible `(p, B)` point.
///
/// Allocating convenience form of [`solve_reference_into`].
///
/// # Errors
///
/// [`NumError::DomainError`] for a NaN rate floor, [`NumError::NonFiniteValue`] when a
/// device's reduced energy is not finite at an end of its bandwidth interval (degenerate
/// inputs: zero power, NaN gains, infinite floors, …), and the errors of the Brent price
/// search; the caller treats any error as "keep the Newton-like solution".
pub fn solve_reference(problem: &Sp2Problem<'_>) -> Result<PowerBandwidth, NumError> {
    let mut point = PowerBandwidth::new(Vec::new(), Vec::new());
    solve_reference_into(problem, &mut point, &mut ReferenceScratch::default())?;
    Ok(point)
}

/// [`solve_reference`] into caller-owned buffers — the allocation-free hot-path form used
/// by the `polish_with_reference` pass of every Subproblem-2 solve.
///
/// `out` is overwritten completely and resized to the scenario. `scratch` carries the
/// previous clearing price between calls; it is only read (and only armed) when
/// [`SolverConfig::warm_start`](crate::SolverConfig) is enabled, so with warm start off —
/// or a freshly-reset scratch — results are bit-identical to [`solve_reference`]. Warm or
/// cold, the price search stops at the same relative accuracy, so the two agree to it.
///
/// # Errors
///
/// Same as [`solve_reference`]. On error `out` is unspecified.
pub fn solve_reference_into(
    problem: &Sp2Problem<'_>,
    out: &mut PowerBandwidth,
    scratch: &mut ReferenceScratch,
) -> Result<(), NumError> {
    let arrays = problem.arrays();
    let n = arrays.len();
    let b_total = problem.total_bandwidth();
    let n0 = problem.n0();
    let warm_on = problem.config().warm_start;

    scratch.faces.clear();
    for i in 0..n {
        if problem.r_min_bps()[i].is_nan() {
            let value = problem.r_min_bps()[i];
            return Err(NumError::DomainError { value, expected: "a rate floor that is not NaN" });
        }
        let faces = Faces::new(problem, i, b_total);
        // The reduced energy is convex on the interval, so finite ends mean finite values
        // in between; a non-finite end is a degenerate input.
        for b in [faces.b_lo, b_total] {
            if !reduced_energy(problem, i, b).is_finite() {
                return Err(NumError::NonFiniteValue { at: b });
            }
        }
        scratch.faces.push(faces);
    }
    let faces: &[Faces] = &scratch.faces;
    let lo_sum: f64 = faces.iter().map(|f| f.b_lo).sum();

    out.bandwidths_hz.clear();
    if lo_sum >= b_total {
        // The rate floors alone exhaust (or exceed) the budget: hand out proportional shares.
        out.bandwidths_hz.extend(faces.iter().map(|f| f.b_lo / lo_sum * b_total));
    } else {
        let seed = if warm_on && scratch.warm && scratch.omega > 0.0 && scratch.omega.is_finite() {
            let u = scratch.omega.ln();
            (u - LN4, u + LN4)
        } else {
            // Cold: the range of prices the devices would pay for an equal share. At the
            // lowest every device demands at least the share, so demand covers the budget.
            let share = b_total / n as f64;
            let (lo, hi) = faces
                .iter()
                .map(|f| f.slope_at(clamp(share, f.b_lo, b_total)).ln())
                .filter(|u| u.is_finite())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), u| (lo.min(u), hi.max(u)));
            if lo <= hi {
                (lo, hi)
            } else {
                (0.0, 0.0)
            }
        };
        let omega = clearing_price(faces, b_total, seed)?;
        let (ln_omega, ln_b_total) = (omega.ln(), b_total.ln());
        out.bandwidths_hz
            .extend(faces.iter().map(|f| f.pick(omega, ln_omega, b_total, ln_b_total)));
        // Spend exactly the budget: the price is accurate to PRICE_LOG_TOL, so this moves
        // every share by about that much.
        let used: f64 = out.bandwidths_hz.iter().sum();
        if used > 0.0 {
            let scale = b_total / used;
            for b in &mut out.bandwidths_hz {
                *b *= scale;
            }
        }
        scratch.omega = omega;
        if warm_on {
            scratch.warm = true;
        }
    }

    out.powers_w.clear();
    for i in 0..n {
        let p = clamp(
            power_for_rate(problem.r_min_bps()[i], out.bandwidths_hz[i], arrays.gain[i], n0),
            arrays.p_min_w[i],
            arrays.p_max_w[i],
        );
        out.powers_w.push(p);
    }

    problem.sanitize(out);
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use flsys::{Allocation, Scenario, ScenarioArrays, ScenarioBuilder, Weights};
    use numopt::scalar::golden_section_min_with_endpoints;
    use wireless::channel::{shannon_rate_db, shannon_rate_dp};
    use wireless::units::Hertz;

    fn fixture(
        n: usize,
        seed: u64,
        window_s: f64,
    ) -> (flsys::Scenario, ScenarioArrays, SolverConfig, Vec<f64>) {
        let s = ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default();
        let r_min = s.devices.iter().map(|d| d.upload_bits / window_s).collect();
        (s, arrays, cfg, r_min)
    }

    /// The scenario families the exact solve is checked on: paper defaults, then one
    /// off-default knob each. The KKT solver's `μ`-search tests reuse them.
    pub(crate) fn families() -> Vec<(&'static str, Scenario)> {
        let base = || ScenarioBuilder::paper_default().with_devices(12);
        vec![
            ("paper defaults", base().build(31).unwrap()),
            ("1 MHz band", base().with_total_bandwidth(Hertz::from_mhz(1.0)).build(32).unwrap()),
            (
                "p_max 5 dBm at 1 km",
                base().with_p_max_dbm(5.0).with_radius_km(1.0).build(33).unwrap(),
            ),
            ("f_max 0.5 GHz", base().with_f_max_ghz(0.5).build(34).unwrap()),
            ("5 Mbit uploads", base().with_upload_bits(5.0e6).build(35).unwrap()),
        ]
    }

    /// Rate floors `d_n / (window + t_max − t_n)` for upload windows from tight (the floors
    /// alone claim from a third of the band to more than all of it, some out of reach) to
    /// energy-only slack, where `t_n` is device `n`'s computation time at `f_max` — the
    /// floors Algorithm 2 hands Subproblem 2 for a round time `T = t_max + window`.
    pub(crate) fn floor_levels(s: &Scenario) -> Vec<Vec<f64>> {
        let rounds = f64::from(s.params.local_iterations);
        let t_cmp: Vec<f64> = s
            .devices
            .iter()
            .map(|d| rounds * d.cycles_per_local_iteration() / d.f_max.value())
            .collect();
        let t_max = t_cmp.iter().cloned().fold(0.0, f64::max);
        [0.002, 0.02, 0.2, 2.0, 200.0]
            .iter()
            .map(|window| {
                s.devices
                    .iter()
                    .zip(&t_cmp)
                    .map(|(d, t)| d.upload_bits / (window + t_max - t))
                    .collect()
            })
            .collect()
    }

    /// The golden-section pick the closed form replaced, kept as its oracle.
    fn oracle_pick(problem: &Sp2Problem<'_>, i: usize, omega: f64, b_lo: f64) -> f64 {
        let b_hi = problem.total_bandwidth();
        golden_section_min_with_endpoints(
            |b| reduced_energy(problem, i, b) + omega * b,
            b_lo,
            b_hi,
            problem.config().scalar_tol * b_hi,
            300,
        )
        .unwrap()
        .argmin
    }

    /// One-sided `−E′(b)` of the reduced energy (`side` +1 from the right, −1 from the left),
    /// by the chain rule through the smallest-feasible-power rule — independent of the
    /// closed form and of the face bookkeeping. On the rate-tight face the power moves with
    /// the bandwidth along `G(p, B) = r`, so `dp/dB = −G_B/G_p`.
    fn neg_slope(problem: &Sp2Problem<'_>, i: usize, b: f64, side: f64) -> f64 {
        let arrays = problem.arrays();
        let (n0, g, d) = (problem.n0(), arrays.gain[i], arrays.upload_bits[i]);
        let r = problem.r_min_bps()[i];
        let (p_min, p_max) = (arrays.p_min_w[i], arrays.p_max_w[i]);
        let p_side = power_for_rate(r, b * (1.0 + side * 1e-9), g, n0);
        let p_here = power_for_rate(r, b, g, n0);
        let (p, tight, k) = if r > 0.0 && p_side > p_max {
            (p_max, false, 1.0 + PENALTY)
        } else if r > 0.0 && p_side > p_min {
            (clamp(p_here, p_min, p_max), true, 1.0)
        } else {
            (p_min, false, 1.0)
        };
        let rate = shannon_rate_raw(p, b, g, n0);
        let (g_p, g_b) = (shannon_rate_dp(p, b, g, n0), shannon_rate_db(p, b, g, n0));
        let de_db = -p * d * g_b / (rate * rate);
        if tight {
            let de_dp = d * (rate - p * g_p) / (rate * rate);
            -(de_db + de_dp * (-g_b / g_p))
        } else {
            -k * de_db
        }
    }

    #[test]
    fn reference_beats_equal_split_at_max_power() {
        let (s, arrays, cfg, r_min) = fixture(10, 21, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w.clone(), a.bandwidths_hz.clone());
        let reference = solve_reference(&problem).unwrap();
        assert!(
            problem.comm_energy(&reference) <= problem.comm_energy(&start) * (1.0 + 1e-9),
            "reference {} should beat start {}",
            problem.comm_energy(&reference),
            problem.comm_energy(&start)
        );
    }

    #[test]
    fn reference_uses_the_whole_band() {
        let (s, arrays, cfg, r_min) = fixture(8, 22, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let reference = solve_reference(&problem).unwrap();
        let used: f64 = reference.bandwidths_hz.iter().sum();
        assert!(used >= 0.95 * s.params.total_bandwidth.value(), "band under-used: {used}");
        assert!(used <= s.params.total_bandwidth.value() * (1.0 + 1e-6));
    }

    #[test]
    fn reference_meets_rate_floors() {
        let (s, arrays, cfg, r_min) = fixture(12, 23, 0.03);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let reference = solve_reference(&problem).unwrap();
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            let rate = shannon_rate_raw(
                reference.powers_w[i],
                reference.bandwidths_hz[i],
                dev.gain.value(),
                n0,
            );
            assert!(rate >= r_min[i] * (1.0 - 1e-3), "device {i} rate {rate} < {}", r_min[i]);
        }
    }

    #[test]
    fn min_bandwidth_respects_rate_floor() {
        let (s, arrays, cfg, r_min) = fixture(5, 24, 0.02);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            let b = Faces::new(&problem, i, problem.total_bandwidth()).b_lo;
            let rate = shannon_rate_raw(dev.p_max.value(), b, dev.gain.value(), n0);
            assert!(rate >= r_min[i] * (1.0 - 1e-6));
            assert!(rate <= r_min[i] * (1.0 + 1e-9), "b_lo must be the smallest bandwidth");
        }
    }

    #[test]
    fn devices_with_better_channels_spend_less_energy() {
        // Aggregate sanity: the reference solution's total energy decreases if every channel
        // gain is improved by 6 dB.
        let (s, arrays, cfg, r_min) = fixture(10, 25, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let base = problem.comm_energy(&solve_reference(&problem).unwrap());

        let mut better = s.clone();
        for d in &mut better.devices {
            d.gain = wireless::channel::ChannelGain::new(d.gain.value() * 4.0);
        }
        let arrays2 = ScenarioArrays::from_scenario(&better);
        let problem2 =
            Sp2Problem::new(&better, &arrays2, Weights::balanced(), &r_min, &cfg).unwrap();
        let improved = problem2.comm_energy(&solve_reference(&problem2).unwrap());
        assert!(improved < base, "better channels should reduce energy ({improved} vs {base})");
    }

    #[test]
    fn exact_pick_never_loses_to_the_golden_section_oracle() {
        let cfg = SolverConfig::default();
        let mut priced = 0;
        for (family, s) in families() {
            let arrays = ScenarioArrays::from_scenario(&s);
            let b_total = s.params.total_bandwidth.value();
            for r_min in floor_levels(&s) {
                let problem =
                    Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
                let mut scratch = ReferenceScratch::default();
                let mut out = PowerBandwidth::default();
                solve_reference_into(&problem, &mut out, &mut scratch).unwrap();
                if scratch.omega <= 0.0 {
                    continue; // the floors exhausted the band: nothing was priced
                }
                priced += 1;
                for (i, faces) in scratch.faces.iter().enumerate() {
                    // 1e-3× to 1e3× the clearing price, plus prices just either side of
                    // the device's own face boundaries, where the kink logic decides.
                    let boundaries = [
                        faces.slope_at(faces.b_lo),
                        faces.slope_tight_end,
                        faces.ln_slope_fixed_lo.exp(),
                        faces.ln_slope_fixed_hi.exp(),
                    ];
                    let prices = [1e-3, 1e-2, 0.3, 1.0, 3.0, 1e2, 1e3]
                        .iter()
                        .map(|scale| scratch.omega * scale)
                        .chain(
                            boundaries.iter().flat_map(|&w| [w * (1.0 - 1e-4), w * (1.0 + 1e-4)]),
                        )
                        .filter(|w| w.is_finite() && *w > 0.0);
                    for omega in prices {
                        let pick = faces.pick(omega, omega.ln(), b_total, b_total.ln());
                        assert!(
                            (faces.b_lo..=b_total).contains(&pick),
                            "{family}: device {i} pick {pick} outside [{}, {b_total}]",
                            faces.b_lo
                        );
                        let oracle = oracle_pick(&problem, i, omega, faces.b_lo);
                        let value = reduced_energy(&problem, i, pick) + omega * pick;
                        let best = reduced_energy(&problem, i, oracle) + omega * oracle;
                        assert!(
                            value <= best + 1e-12 * best.abs(),
                            "{family}: device {i} at ω {omega}: exact {value} (B {pick}) vs \
                             oracle {best} (B {oracle})"
                        );
                    }
                }
            }
        }
        assert!(priced >= 20, "only {priced} priced solves: the families lost coverage");
    }

    #[test]
    fn reference_output_carries_an_optimality_certificate() {
        let cfg = SolverConfig::default();
        for (family, s) in families() {
            let arrays = ScenarioArrays::from_scenario(&s);
            let b_total = s.params.total_bandwidth.value();
            let n0 = s.params.noise.watts_per_hz();
            for r_min in floor_levels(&s) {
                let problem =
                    Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
                let mut scratch = ReferenceScratch::default();
                let mut out = PowerBandwidth::default();
                solve_reference_into(&problem, &mut out, &mut scratch).unwrap();

                let used: f64 = out.bandwidths_hz.iter().sum();
                assert!((used - b_total).abs() <= 1e-9 * b_total, "{family}: used {used}");
                for (i, (&p, &b)) in out.powers_w.iter().zip(&out.bandwidths_hz).enumerate() {
                    let rule = clamp(
                        power_for_rate(r_min[i], b, arrays.gain[i], n0),
                        arrays.p_min_w[i],
                        arrays.p_max_w[i],
                    );
                    assert!((p - rule).abs() <= 1e-12 * rule, "{family}: device {i} power {p}");
                }
                let omega = scratch.omega;
                if omega <= 0.0 {
                    continue; // proportional shares: no price to certify
                }
                for (i, (faces, &b)) in scratch.faces.iter().zip(&out.bandwidths_hz).enumerate() {
                    let right = neg_slope(&problem, i, b, 1.0);
                    assert!(
                        right <= omega * (1.0 + 1e-6),
                        "{family}: device {i} at B {b}: −E′(B⁺) {right} above ω {omega}"
                    );
                    if b > faces.b_lo * (1.0 + 1e-9) {
                        let left = neg_slope(&problem, i, b, -1.0);
                        assert!(
                            left >= omega * (1.0 - 1e-6),
                            "{family}: device {i} at B {b}: −E′(B⁻) {left} below ω {omega}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tight_response_inverts_the_tight_slope() {
        // Across the Newton/series branch at small z and the Lambert-W branch above it.
        for k in -48..=12 {
            let z = 10f64.powf(f64::from(k) * 0.5);
            let x = tight_response(z);
            let back = tight_slope(x);
            assert!((back - z).abs() <= 1e-13 * z, "z {z}: x {x} gives back {back}");
        }
        // The series (one ulp below the switch-over) and the closed form meet.
        let below = f64::from_bits(SERIES_X.to_bits() - 1);
        let (series, closed) = (tight_slope(below), tight_slope(SERIES_X));
        assert!((series - closed).abs() <= 1e-13 * closed, "{series} vs {closed}");
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let (s, arrays, cfg, mut r_min) = fixture(4, 26, 0.05);
        r_min[2] = f64::NAN;
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let err = solve_reference(&problem).unwrap_err();
        assert!(matches!(err, NumError::DomainError { .. }), "{err:?}");

        // No floor and zero minimum power: the smallest feasible power sends nothing.
        r_min[2] = 0.0;
        let mut silent = arrays.clone();
        silent.p_min_w[2] = 0.0;
        let problem = Sp2Problem::new(&s, &silent, Weights::balanced(), &r_min, &cfg).unwrap();
        let err = solve_reference(&problem).unwrap_err();
        assert!(matches!(err, NumError::NonFiniteValue { .. }), "{err:?}");
    }
}
