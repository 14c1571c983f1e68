//! Channel gains and the Shannon rate `G_n(p_n, B_n)`.
//!
//! Equation (1) of the paper gives the uplink rate of device `n` as
//! `r_n = B_n · log2(1 + g_n p_n / (N₀ B_n))`; Lemma 1 proves it jointly concave in
//! `(p_n, B_n)`. This module provides the gain type, the rate function, and helpers for its
//! partial derivatives (used by the KKT solvers and verified against finite differences in
//! the tests).

use crate::noise::NoiseDensity;
use crate::pathloss::PathLossModel;
use crate::shadowing::LogNormalShadowing;
use crate::units::{Db, Hertz, Kilometres, Watts};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Linear channel power gain `g_n ∈ (0, 1]` between a device and the base station.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct ChannelGain(f64);

impl ChannelGain {
    /// Wraps a linear gain value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the gain is not strictly positive or not finite.
    pub fn new(linear: f64) -> Self {
        debug_assert!(
            linear > 0.0 && linear.is_finite(),
            "channel gain must be positive and finite"
        );
        Self(linear)
    }

    /// Builds a gain from a (typically negative) dB figure.
    pub fn from_db(db: f64) -> Self {
        Self::new(Db::new(db).to_linear())
    }

    /// The linear gain value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The gain in dB.
    pub fn as_db(self) -> Db {
        Db::from_linear(self.0)
    }

    /// Synthesizes a gain from distance: deterministic path loss plus one shadowing draw.
    pub fn from_distance<R: Rng + ?Sized>(
        distance: Kilometres,
        path_loss: &PathLossModel,
        shadowing: &LogNormalShadowing,
        rng: &mut R,
    ) -> Self {
        Self::new(path_loss.gain(distance) * shadowing.sample_linear(rng))
    }
}

/// An uplink data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct RateBps(f64);

impl RateBps {
    /// Wraps a rate in bit/s.
    pub fn new(bits_per_sec: f64) -> Self {
        Self(bits_per_sec)
    }

    /// The rate in bit/s.
    pub fn as_bits_per_sec(self) -> f64 {
        self.0
    }
}

/// The exact Shannon rate of equation (1): `B · log2(1 + g·p / (N₀·B))`.
///
/// Degenerate inputs are handled the way the optimizer needs them: zero bandwidth or zero
/// power yields a zero rate (the limit of the formula).
pub fn shannon_rate(
    power: Watts,
    bandwidth: Hertz,
    gain: ChannelGain,
    noise: NoiseDensity,
) -> RateBps {
    RateBps::new(shannon_rate_raw(
        power.value(),
        bandwidth.value(),
        gain.value(),
        noise.watts_per_hz(),
    ))
}

/// Raw-`f64` version of [`shannon_rate`] for use inside hot solver loops.
///
/// `G(p, B) = B log2(1 + g p / (N0 B))`, with `G(p, 0) = 0` and `G(0, B) = 0`.
#[inline]
pub fn shannon_rate_raw(p: f64, b: f64, g: f64, n0: f64) -> f64 {
    if b <= 0.0 || p <= 0.0 {
        return 0.0;
    }
    b * (1.0 + g * p / (n0 * b)).log2()
}

/// Partial derivative `∂G/∂p = g / (N₀ B + g p) / ln 2 · B`… written in the numerically
/// stable form `(g B) / ((N₀ B + g p) ln 2)`.
#[inline]
pub fn shannon_rate_dp(p: f64, b: f64, g: f64, n0: f64) -> f64 {
    if b <= 0.0 {
        return 0.0;
    }
    g * b / ((n0 * b + g * p.max(0.0)) * std::f64::consts::LN_2)
}

/// Partial derivative `∂G/∂B = log2(1 + gp/(N₀B)) − gp / ((N₀B + gp) ln 2)`.
#[inline]
pub fn shannon_rate_db(p: f64, b: f64, g: f64, n0: f64) -> f64 {
    if b <= 0.0 || p <= 0.0 {
        // lim_{B→0} ∂G/∂B = +∞ for p > 0; for p = 0 the rate is identically 0.
        return if p > 0.0 { f64::INFINITY } else { 0.0 };
    }
    let snr = g * p / (n0 * b);
    (1.0 + snr).log2() - snr / ((1.0 + snr) * std::f64::consts::LN_2)
}

/// Inverse of the rate in the power coordinate: the power needed for device with gain `g` to
/// reach `rate` over bandwidth `b` — `p = (2^(rate/b) − 1)·N₀·b/g`.
///
/// Returns `f64::INFINITY` if `b ≤ 0` and `rate > 0`.
#[inline]
pub fn power_for_rate(rate: f64, b: f64, g: f64, n0: f64) -> f64 {
    if rate <= 0.0 {
        return 0.0;
    }
    if b <= 0.0 {
        return f64::INFINITY;
    }
    ((rate / b).exp2() - 1.0) * n0 * b / g
}

/// Iteration cap of [`bandwidth_for_rate`]; from any start left of the root it needs a
/// handful.
const BANDWIDTH_NEWTON_MAX_ITER: usize = 100;

/// Inverse of the rate in the bandwidth coordinate: the bandwidth `b_lo` at which power `p`
/// exactly meets rate `r` — the root of the concave, increasing `B ↦ G(p, B) − r`, by
/// Newton's method from `start`, a point at or left of the root. Concavity keeps every
/// tangent above the curve, so the iterates climb monotonically onto the root without
/// overshooting it. A `start` at or right of the root comes back unchanged.
///
/// The caller brackets the root: `r > 0`, and `G(p, B) ≥ r` for some finite `B` (the rate
/// tends to `g·p/(N₀ ln 2)` as `B` grows, so a larger `r` is out of reach at any bandwidth).
#[inline]
pub fn bandwidth_for_rate(r: f64, p: f64, g: f64, n0: f64, start: f64) -> f64 {
    let snr_hz = g * p / n0;
    let mut b = start;
    for _ in 0..BANDWIDTH_NEWTON_MAX_ITER {
        let s = snr_hz / b;
        let l = s.ln_1p();
        let gap = r - b * l / std::f64::consts::LN_2;
        // A NaN gap (NaN input) stops too; the caller's validation reports it.
        if gap.is_nan() || gap <= 0.0 {
            break;
        }
        let step = gap * std::f64::consts::LN_2 / (l - s / (1.0 + s));
        b += step;
        if step <= 4.0 * f64::EPSILON * b {
            break;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const G: f64 = 1.0e-10;
    const N0: f64 = 3.98e-21;

    #[test]
    fn rate_matches_hand_calculation() {
        // 10 dBm = 10 mW, 400 kHz, g = 1e-10, N0 ~ 3.98e-21 -> SNR = 1e-12/(1.592e-15) ~ 628.
        let p = 0.01;
        let b = 4.0e5;
        let snr = G * p / (N0 * b);
        let expected = b * (1.0 + snr).log2();
        let got = shannon_rate_raw(p, b, G, N0);
        assert!((got - expected).abs() / expected < 1e-12);
        assert!(got > 3.0e6 && got < 4.5e6, "rate {got} outside plausible range");
    }

    #[test]
    fn typed_and_raw_agree() {
        let typed = shannon_rate(
            Watts::new(0.01),
            Hertz::new(4.0e5),
            ChannelGain::new(G),
            NoiseDensity::from_watts_per_hz(N0),
        );
        let raw = shannon_rate_raw(0.01, 4.0e5, G, N0);
        assert_eq!(typed.as_bits_per_sec(), raw);
    }

    #[test]
    fn degenerate_inputs_give_zero() {
        assert_eq!(shannon_rate_raw(0.0, 1.0e6, G, N0), 0.0);
        assert_eq!(shannon_rate_raw(0.01, 0.0, G, N0), 0.0);
    }

    #[test]
    fn rate_is_monotone_in_power_and_bandwidth() {
        let mut prev = 0.0;
        for i in 1..50 {
            let p = i as f64 * 1e-3;
            let r = shannon_rate_raw(p, 4.0e5, G, N0);
            assert!(r > prev);
            prev = r;
        }
        prev = 0.0;
        for i in 1..50 {
            let b = i as f64 * 1e4;
            let r = shannon_rate_raw(0.01, b, G, N0);
            assert!(r > prev, "rate should increase with bandwidth");
            prev = r;
        }
    }

    #[test]
    fn partial_derivatives_match_finite_differences() {
        let p = 0.008;
        let b = 3.0e5;
        let eps_p = 1e-9;
        let eps_b = 1e-3;
        let dp_num = (shannon_rate_raw(p + eps_p, b, G, N0)
            - shannon_rate_raw(p - eps_p, b, G, N0))
            / (2.0 * eps_p);
        let db_num = (shannon_rate_raw(p, b + eps_b, G, N0)
            - shannon_rate_raw(p, b - eps_b, G, N0))
            / (2.0 * eps_b);
        assert!((shannon_rate_dp(p, b, G, N0) - dp_num).abs() / dp_num.abs() < 1e-5);
        assert!((shannon_rate_db(p, b, G, N0) - db_num).abs() / db_num.abs() < 1e-5);
    }

    #[test]
    fn concavity_along_random_segments() {
        // Lemma 1: G is concave in (p, B). Check midpoint concavity on random segments.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let p1 = rng.gen::<f64>() * 0.015 + 1e-4;
            let p2 = rng.gen::<f64>() * 0.015 + 1e-4;
            let b1 = rng.gen::<f64>() * 1.0e6 + 1e3;
            let b2 = rng.gen::<f64>() * 1.0e6 + 1e3;
            let mid = shannon_rate_raw(0.5 * (p1 + p2), 0.5 * (b1 + b2), G, N0);
            let avg = 0.5 * (shannon_rate_raw(p1, b1, G, N0) + shannon_rate_raw(p2, b2, G, N0));
            assert!(mid >= avg - 1e-6 * avg.abs().max(1.0), "concavity violated");
        }
    }

    #[test]
    fn power_for_rate_inverts_rate() {
        let b = 4.0e5;
        let target = 2.5e6;
        let p = power_for_rate(target, b, G, N0);
        let achieved = shannon_rate_raw(p, b, G, N0);
        assert!((achieved - target).abs() / target < 1e-12);
        assert_eq!(power_for_rate(0.0, b, G, N0), 0.0);
        assert_eq!(power_for_rate(1.0, 0.0, G, N0), f64::INFINITY);
    }

    #[test]
    fn bandwidth_for_rate_is_inverse_of_rate() {
        let (p_max, b_total, floor) = (0.01, 2.0e7, 1.0);
        for r in [1.0e3, 1.0e6, 3.0e7] {
            let b = bandwidth_for_rate(r, p_max, G, N0, floor);
            assert!(b > floor && b < b_total, "b_lo {b} outside ({floor}, {b_total}) at r = {r}");
            let achieved = shannon_rate_raw(p_max, b, G, N0);
            assert!((achieved - r).abs() / r < 1e-12, "rate {achieved} vs {r}");
            // Any start left of the root climbs onto the same root.
            let from_midway = bandwidth_for_rate(r, p_max, G, N0, 0.5 * b);
            assert!((from_midway - b).abs() <= 1e-12 * b, "{from_midway} vs {b}");
        }
        // A floor that already carries the rate is its own answer, as is any start right
        // of the root.
        let r_small = shannon_rate_raw(p_max, floor, G, N0) * 0.5;
        assert_eq!(bandwidth_for_rate(r_small, p_max, G, N0, floor), floor);
        assert_eq!(bandwidth_for_rate(1.0e6, p_max, G, N0, b_total), b_total);
    }

    #[test]
    fn gain_from_distance_is_reproducible_and_positive() {
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let pl = PathLossModel::paper_default();
        let sh = LogNormalShadowing::paper_default();
        let a = ChannelGain::from_distance(Kilometres::new(0.3), &pl, &sh, &mut rng_a);
        let b = ChannelGain::from_distance(Kilometres::new(0.3), &pl, &sh, &mut rng_b);
        assert_eq!(a, b);
        assert!(a.value() > 0.0 && a.value() < 1.0);
    }

    #[test]
    fn gain_db_round_trip() {
        let g = ChannelGain::from_db(-105.5);
        assert!((g.as_db().value() + 105.5).abs() < 1e-9);
    }
}
