//! The per-device model of the paper — equations (2)–(5) and (7) — and the questions every
//! scheme asks of it, over raw per-device values.
//!
//! Each function takes plain `f64`s: a [`crate::ScenarioArrays`] lane value and the
//! matching profile getter are the same bits, so the struct walks, the lane walks, the
//! solver and every baseline evaluate one formula, each guard named once:
//!
//! * a non-positive rate is an infinite upload ([`upload_time`], [`transmission_energy`])
//!   and a non-positive frequency an infinite computation ([`computation_time`]);
//! * an empty compute window runs the CPU flat out ([`frequency_for_window`]);
//! * no upload window is shorter than [`MIN_UPLOAD_WINDOW_S`] ([`rate_for_window`]);
//! * a completion time meets a deadline within [`DEADLINE_SLACK`] ([`meets_deadline`]).
//!
//! [`device_cost`] composes the equations into one device's [`DeviceCost`] per round, and
//! [`summarize`] folds those into the [`CostSummary`] behind every `Scenario::cost*` call.

use crate::allocation::CostSummary;
use crate::params::SystemParams;
use numopt::scalar::clamp;
use serde::{Deserialize, Serialize};
use wireless::channel::shannon_rate_raw;

/// The shortest upload window, in seconds, a rate floor is planned over: a window at or
/// below it (the deadline leaves no time to upload) asks for `d_n / MIN_UPLOAD_WINDOW_S`.
pub const MIN_UPLOAD_WINDOW_S: f64 = 1e-6;

/// Relative slack of [`meets_deadline`]: room for the floating-point repairs of
/// Subproblem 2's sanitize pass, which may leave a rate a rounding below its floor.
pub const DEADLINE_SLACK: f64 = 1e-3;

/// Cost of one device under an allocation, per global round.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeviceCost {
    /// Uplink rate (bit/s).
    pub rate_bps: f64,
    /// Upload time per round (s).
    pub upload_time_s: f64,
    /// Computation time per round (s).
    pub computation_time_s: f64,
    /// Transmission energy per round (J).
    pub transmission_energy_j: f64,
    /// Computation energy per round (J).
    pub computation_energy_j: f64,
}

impl DeviceCost {
    /// Per-round completion time of this device.
    pub fn round_time_s(&self) -> f64 {
        self.upload_time_s + self.computation_time_s
    }

    /// Per-round energy of this device.
    pub fn round_energy_j(&self) -> f64 {
        self.transmission_energy_j + self.computation_energy_j
    }
}

/// Upload time `T_n^up = d_n / r_n` (equation (2)); infinite for a non-positive rate.
#[inline]
pub fn upload_time(upload_bits: f64, rate_bps: f64) -> f64 {
    if rate_bps <= 0.0 {
        return f64::INFINITY;
    }
    upload_bits / rate_bps
}

/// Transmission energy `E_n^trans = p_n · d_n / r_n` per round (equation (3)); infinite for
/// a non-positive rate, which is how an unfinishable upload reaches objective comparisons.
#[inline]
pub fn transmission_energy(power_w: f64, upload_bits: f64, rate_bps: f64) -> f64 {
    if rate_bps <= 0.0 {
        return f64::INFINITY;
    }
    power_w * upload_bits / rate_bps
}

/// Computation energy `E_n^cmp = R_l · κ c_n D_n f_n²` per round (equations (4)–(5));
/// `cycles` is `c_n · D_n`, and `rl = 1` gives one local iteration's energy.
#[inline]
pub fn computation_energy(rl: f64, kappa: f64, cycles: f64, frequency_hz: f64) -> f64 {
    rl * (kappa * cycles * frequency_hz * frequency_hz)
}

/// Computation time `T_n^cmp = R_l c_n D_n / f_n` per round (equation (7)); infinite for a
/// non-positive frequency.
#[inline]
pub fn computation_time(rl: f64, cycles: f64, frequency_hz: f64) -> f64 {
    if frequency_hz <= 0.0 {
        return f64::INFINITY;
    }
    rl * cycles / frequency_hz
}

/// The cheapest frequency that computes a round within `window_s`:
/// `clamp(R_l c_n D_n / window, f_min, f_max)`, or `f_max` (best effort) for an empty
/// window.
#[inline]
pub fn frequency_for_window(rl: f64, cycles: f64, f_min: f64, f_max: f64, window_s: f64) -> f64 {
    if window_s <= 0.0 {
        return f_max;
    }
    clamp(rl * cycles / window_s, f_min, f_max)
}

/// The rate that uploads `d_n` within `window_s`, the window floored at
/// [`MIN_UPLOAD_WINDOW_S`].
#[inline]
pub fn rate_for_window(upload_bits: f64, window_s: f64) -> f64 {
    upload_bits / window_s.max(MIN_UPLOAD_WINDOW_S)
}

/// A power clamped into the device's box `[p_min, p_max]`.
#[inline]
pub fn power_in_box(power_w: f64, p_min: f64, p_max: f64) -> f64 {
    clamp(power_w, p_min, p_max)
}

/// Whether a completion time meets its deadline, within [`DEADLINE_SLACK`]. Every arm's
/// deadline is judged by this one rule, at the per-round scale.
#[inline]
pub fn meets_deadline(time_s: f64, deadline_s: f64) -> bool {
    time_s <= deadline_s * (1.0 + DEADLINE_SLACK)
}

/// One device's per-round cost at power `p`, bandwidth `b` and frequency `f`, from its gain
/// `g`, upload payload `d_n` and cycles `c_n · D_n`.
#[inline]
pub fn device_cost(
    params: &SystemParams,
    gain: f64,
    upload_bits: f64,
    cycles: f64,
    p: f64,
    b: f64,
    f: f64,
) -> DeviceCost {
    let rl = params.rl();
    let rate_bps = shannon_rate_raw(p, b, gain, params.noise.watts_per_hz());
    DeviceCost {
        rate_bps,
        upload_time_s: upload_time(upload_bits, rate_bps),
        computation_time_s: computation_time(rl, cycles, f),
        transmission_energy_j: transmission_energy(p, upload_bits, rate_bps),
        computation_energy_j: computation_energy(rl, params.kappa, cycles, f),
    }
}

/// Folds per-device costs, in device order, into the whole training process's totals:
/// energies summed (equation (6)) and scaled by `R_g`, the round time the slowest device's.
#[inline]
pub fn summarize(
    params: &SystemParams,
    costs: impl IntoIterator<Item = DeviceCost>,
) -> CostSummary {
    let mut transmission_sum = 0.0;
    let mut computation_sum = 0.0;
    let mut round_time_s = 0.0_f64;
    for cost in costs {
        transmission_sum += cost.transmission_energy_j;
        computation_sum += cost.computation_energy_j;
        round_time_s = round_time_s.max(cost.round_time_s());
    }
    let rg = params.rg();
    let transmission_energy_j = rg * transmission_sum;
    let computation_energy_j = rg * computation_sum;
    CostSummary {
        total_energy_j: transmission_energy_j + computation_energy_j,
        transmission_energy_j,
        computation_energy_j,
        round_time_s,
        total_time_s: rg * round_time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 500 samples of 2·10⁴ cycles: `c_n D_n = 10⁷`.
    const CYCLES: f64 = 1.0e7;

    #[test]
    fn transmission_energy_hand_check() {
        // 10 mW, 28.1 kbit at 2.81 Mbit/s -> 10 ms upload -> 0.1 mJ.
        let e = transmission_energy(0.01, 28_100.0, 2.81e6);
        assert!((e - 1.0e-4).abs() < 1e-12);
    }

    #[test]
    fn transmission_energy_infinite_for_zero_rate() {
        assert!(transmission_energy(0.01, 28_100.0, 0.0).is_infinite());
    }

    #[test]
    fn computation_energy_hand_check() {
        let params = SystemParams::paper_default();
        // kappa cD f^2 = 1e-28 * 1e7 * (1e9)^2 = 1e-3 J per local iteration.
        let per_iter = computation_energy(1.0, params.kappa, CYCLES, 1.0e9);
        assert!((per_iter - 1.0e-3).abs() < 1e-12);
        // One global round = R_l = 10 local iterations.
        let per_round = computation_energy(params.rl(), params.kappa, CYCLES, 1.0e9);
        assert!((per_round - 1.0e-2).abs() < 1e-12);
    }

    #[test]
    fn computation_energy_scales_quadratically() {
        let params = SystemParams::paper_default();
        let e1 = computation_energy(params.rl(), params.kappa, CYCLES, 0.5e9);
        let e2 = computation_energy(params.rl(), params.kappa, CYCLES, 1.0e9);
        assert!((e2 / e1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn upload_time_hand_check() {
        assert!((upload_time(28_100.0, 2.81e6) - 0.01).abs() < 1e-12);
        assert!(upload_time(28_100.0, 0.0).is_infinite());
    }

    #[test]
    fn computation_time_hand_check() {
        // 10 * 1e7 cycles at 1 GHz = 0.1 s.
        assert!((computation_time(10.0, CYCLES, 1.0e9) - 0.1).abs() < 1e-12);
        assert!(computation_time(10.0, CYCLES, 0.0).is_infinite());
    }

    #[test]
    fn windows_map_to_the_cheapest_frequency_and_rate_with_one_guard_each() {
        let (f_min, f_max) = (1.0e6, 2.0e9);
        // 10⁸ cycles in 0.1 s: 1 GHz, inside the box.
        assert!((frequency_for_window(10.0, CYCLES, f_min, f_max, 0.1) - 1.0e9).abs() < 1e-3);
        // Too short a window clamps to f_max, an empty one runs flat out too.
        assert_eq!(frequency_for_window(10.0, CYCLES, f_min, f_max, 0.01), f_max);
        assert_eq!(frequency_for_window(10.0, CYCLES, f_min, f_max, -1.0), f_max);
        // A long window clamps to f_min.
        assert_eq!(frequency_for_window(10.0, CYCLES, f_min, f_max, 1.0e6), f_min);
        assert!((rate_for_window(28_100.0, 0.01) - 2.81e6).abs() < 1e-6);
        for empty in [0.0, -3.0, 1e-9] {
            assert_eq!(rate_for_window(28_100.0, empty), 28_100.0 / MIN_UPLOAD_WINDOW_S);
        }
        assert_eq!(power_in_box(1.0, 1e-3, 0.02), 0.02);
        assert_eq!(power_in_box(0.0, 1e-3, 0.02), 1e-3);
    }

    #[test]
    fn the_deadline_rule_allows_its_slack_and_no_more() {
        assert!(meets_deadline(0.25, 0.25));
        assert!(meets_deadline(0.25 * (1.0 + 0.5 * DEADLINE_SLACK), 0.25));
        assert!(!meets_deadline(0.25 * (1.0 + 2.0 * DEADLINE_SLACK), 0.25));
        assert!(!meets_deadline(f64::INFINITY, 0.25));
        assert!(!meets_deadline(f64::NAN, 0.25));
    }
}
