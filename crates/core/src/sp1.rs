//! Subproblem 1 — computation-energy / completion-time minimization over `(f, T)`.
//!
//! Given the current uplink times `T_n^up` (fixed by the current `(p, B)`), Subproblem 1 of
//! the paper (problem (10)) is
//!
//! ```text
//! min_{f, T}  w1·R_g·Σ_n κ·R_l·c_n·D_n·f_n²  +  w2·R_g·T
//! s.t.        f_n^min ≤ f_n ≤ f_n^max,
//!             R_l·c_n·D_n / f_n + T_n^up ≤ T .
//! ```
//!
//! [`solve_direct`] eliminates `f`: for a fixed `T` the cheapest feasible frequency is the
//! smallest one meeting the deadline ([`flsys::model::frequency_for_window`]), which leaves
//! a one-dimensional convex function `V(T)` on `[T_min, T_max]` (every device at `f_max`,
//! every device at `f_min`). Its derivative
//! `dV/dT = w2·R_g − w1·R_g·Σ_n 2κ·f_n³`, summed over the devices above `f_min`, is
//! increasing, so the optimal `T` is the root of the convex decreasing `−dV/dT`, found by
//! safeguarded Newton steps.
//!
//! The paper solves the same problem through its Lagrangian dual (17): maximize
//! `Σ_n (2^{-2/3} + 2^{1/3})·h·c_n·D_n·λ_n^{2/3} + T_n^up·λ_n` over the scaled simplex
//! `{λ ≥ 0, Σ λ_n = w2·R_g}`, with `h = R_l (w1 κ R_g)^{1/3}`, then recover
//! `f_n* = (λ_n / (2 w1 R_g κ))^{1/3}` clamped into the frequency box ((16), (18)). Both
//! reach the optimum of (10); the tests check the Newton root against that optimum, found
//! by bisecting the same stationarity condition.

use crate::config::SolverConfig;
use crate::error::CoreError;
use flsys::model::{computation_time, frequency_for_window};
use flsys::{Scenario, ScenarioArrays, Weights};
use numopt::roots::root_of_decreasing_newton;

/// The lowest frequency the upper end of the `T` bracket assumes, so that a device whose
/// `f_min` is zero still leaves the search a finite `T_max`.
const BRACKET_FREQUENCY_FLOOR_HZ: f64 = 1e-3;

/// Probe budget of the root search over `T`; a Newton climb takes a handful.
const MAX_PROBES: usize = 100;

/// Result of a Subproblem-1 solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Sp1Solution {
    /// Optimal CPU frequency per device (Hz).
    pub frequencies_hz: Vec<f64>,
    /// Optimal auxiliary round-completion time `T` (seconds).
    pub round_time_s: f64,
    /// Value of the Subproblem-1 objective `w1·R_g·Σ κ R_l c_n D_n f_n² + w2·R_g·T`.
    pub objective: f64,
}

/// The scalar outputs of a Subproblem-1 solve (the frequencies land in a caller buffer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sp1Summary {
    /// Optimal auxiliary round-completion time `T` (seconds).
    pub round_time_s: f64,
    /// Value of the Subproblem-1 objective `w1·R_g·Σ κ R_l c_n D_n f_n² + w2·R_g·T`.
    pub objective: f64,
}

/// Computation-energy part of the Subproblem-1 objective for a given frequency vector,
/// each device's term grouped `κ·R_l·c_n·D_n·f_n²`.
fn computation_energy_term(scenario: &Scenario, frequencies: &[f64]) -> f64 {
    let p = &scenario.params;
    scenario
        .devices
        .iter()
        .zip(frequencies)
        .map(|(dev, &f)| p.kappa * p.rl() * dev.cycles_per_local_iteration() * f * f)
        .sum()
}

/// The cheapest feasible frequency of every device for a round deadline `T` and its uplink
/// time, into a caller-owned buffer (cleared first): the compute window `T − T_n^up`
/// through [`frequency_for_window`].
fn frequencies_for_deadline_into(
    arrays: &ScenarioArrays,
    rl: f64,
    round_deadline_s: f64,
    upload_times_s: &[f64],
    out: &mut Vec<f64>,
) {
    out.clear();
    let lanes = arrays.cycles_per_iter.iter().zip(&arrays.f_min_hz).zip(&arrays.f_max_hz);
    out.extend(lanes.zip(upload_times_s).map(|(((&cd, &f_min), &f_max), &t_up)| {
        frequency_for_window(rl, cd, f_min, f_max, round_deadline_s - t_up)
    }));
}

/// Solves Subproblem 1 exactly by reducing it to the root of its stationarity condition in
/// `T`.
///
/// # Errors
///
/// Returns [`CoreError::Model`] for a shape mismatch between `upload_times_s` and the
/// scenario, or [`CoreError::Numerical`] if the root search fails.
pub fn solve_direct(
    scenario: &Scenario,
    weights: Weights,
    upload_times_s: &[f64],
    config: &SolverConfig,
) -> Result<Sp1Solution, CoreError> {
    let arrays = ScenarioArrays::from_scenario(scenario);
    let mut frequencies_hz = Vec::with_capacity(scenario.devices.len());
    let summary = solve_direct_with_arrays_in(
        scenario,
        &arrays,
        weights,
        upload_times_s,
        config,
        &mut frequencies_hz,
        &mut 0,
    )?;
    Ok(Sp1Solution {
        frequencies_hz,
        round_time_s: summary.round_time_s,
        objective: summary.objective,
    })
}

/// [`solve_direct`] over a caller-held lane view, with the optimal frequencies written into
/// a caller-owned buffer (cleared first) — the Algorithm-2 hot-path form.
///
/// The optimal `T` is the root of `−dV/dT = w1·R_g·Σ_n 2κ·f_n³ − w2·R_g` on
/// `[T_min, T_max]`, convex and decreasing in `T`, with the derivative
/// `−6κ·w1·R_g·Σ_n f_n³ / (T − T_n^up)` from the same allocation-free pass over the
/// [`ScenarioArrays`] lanes. [`root_of_decreasing_newton`] climbs onto it from `T_min` and
/// stops within `scalar_tol·T_min`, which leaves the objective, stationary there, exact to
/// rounding. The solve carries no state between calls. `probe_evals` accumulates the lane
/// passes (the [`SolveCounters::sp1_probe_evals`](crate::SolveCounters) evidence).
///
/// # Errors
///
/// Same as [`solve_direct`], plus [`CoreError::Model`] if `arrays` does not match the
/// scenario size. A non-finite slope (an overflowing `f_n³`) or an infinite `T_min` is
/// [`numopt::NumError::NonFiniteValue`].
pub fn solve_direct_with_arrays_in(
    scenario: &Scenario,
    arrays: &ScenarioArrays,
    weights: Weights,
    upload_times_s: &[f64],
    config: &SolverConfig,
    frequencies_out: &mut Vec<f64>,
    probe_evals: &mut u64,
) -> Result<Sp1Summary, CoreError> {
    check_lengths(scenario, upload_times_s)?;
    if arrays.len() != scenario.devices.len() {
        return Err(CoreError::Model(flsys::FlError::AllocationSizeMismatch {
            devices: scenario.devices.len(),
            got: arrays.len(),
        }));
    }
    let params = &scenario.params;
    let w1 = weights.energy();
    let w2 = weights.time();
    let rg = params.rg();
    let rl = params.rl();

    // Feasible T bracket from the lanes: t_up + R_l·c_nD_n / f at f_max (lower) and f_min
    // (upper).
    let t_min = round_time(arrays, rl, &arrays.f_max_hz, upload_times_s);
    let t_max = arrays
        .cycles_per_iter
        .iter()
        .zip(&arrays.f_min_hz)
        .zip(upload_times_s)
        .map(|((&cd, &f_min), &t_up)| {
            t_up + computation_time(rl, cd, f_min.max(BRACKET_FREQUENCY_FLOOR_HZ))
        })
        .fold(0.0, f64::max)
        .max(t_min);

    // Degenerate corner cases first.
    if w2 == 0.0 {
        // No pressure on time: every device runs at its minimum frequency, and the round
        // time (infinite where `f_min` is zero) carries no weight.
        frequencies_out.clear();
        frequencies_out.extend_from_slice(&arrays.f_min_hz);
        let round = round_time(arrays, rl, frequencies_out, upload_times_s);
        let objective = w1 * rg * computation_energy_term(scenario, frequencies_out);
        return Ok(Sp1Summary { round_time_s: round, objective });
    }
    if w1 == 0.0 {
        // No pressure on energy: every device runs flat out.
        frequencies_out.clear();
        frequencies_out.extend_from_slice(&arrays.f_max_hz);
        let round = round_time(arrays, rl, frequencies_out, upload_times_s);
        let objective = w2 * rg * round;
        return Ok(Sp1Summary { round_time_s: round, objective });
    }
    if !t_min.is_finite() {
        // A device that cannot upload (`T_n^up = ∞`) leaves no finite round.
        return Err(numopt::NumError::NonFiniteValue { at: t_min }.into());
    }

    let pull = 2.0 * params.kappa * w1 * rg;
    let descent = |t: f64| {
        *probe_evals += 1;
        let (mut cubes, mut curvature) = (0.0, 0.0);
        let lanes = arrays.cycles_per_iter.iter().zip(&arrays.f_min_hz).zip(&arrays.f_max_hz);
        for (((&cd, &f_min), &f_max), &t_up) in lanes.zip(upload_times_s) {
            let window = t - t_up;
            let f = frequency_for_window(rl, cd, f_min, f_max, window);
            if f > f_min {
                let cube = f * f * f;
                cubes += cube;
                curvature += cube / window;
            }
        }
        (pull * cubes - w2 * rg, -3.0 * pull * curvature)
    };
    let tol = config.scalar_tol * t_min;
    let t = root_of_decreasing_newton(descent, t_min, t_max, t_min, tol, MAX_PROBES)?;
    frequencies_for_deadline_into(arrays, rl, t, upload_times_s, frequencies_out);
    // Report the actually achieved round time (≤ the searched T when clamping bites).
    let achieved_round = round_time(arrays, rl, frequencies_out, upload_times_s);
    let round_time_s = achieved_round.min(t).max(t_min);
    let objective =
        w1 * rg * computation_energy_term(scenario, frequencies_out) + w2 * rg * round_time_s;
    Ok(Sp1Summary { round_time_s, objective })
}

/// The round time `max_n (T_n^up + T_n^cmp)` of a frequency vector.
fn round_time(
    arrays: &ScenarioArrays,
    rl: f64,
    frequencies: &[f64],
    upload_times_s: &[f64],
) -> f64 {
    let lanes = arrays.cycles_per_iter.iter().zip(frequencies).zip(upload_times_s);
    lanes.map(|((&cd, &f), &t_up)| t_up + computation_time(rl, cd, f)).fold(0.0, f64::max)
}

fn check_lengths(scenario: &Scenario, upload_times_s: &[f64]) -> Result<(), CoreError> {
    if upload_times_s.len() != scenario.devices.len() {
        return Err(CoreError::Model(flsys::FlError::AllocationSizeMismatch {
            devices: scenario.devices.len(),
            got: upload_times_s.len(),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::ScenarioBuilder;

    fn scenario(n: usize) -> Scenario {
        ScenarioBuilder::paper_default().with_devices(n).build(123).unwrap()
    }

    fn uniform_uploads(scenario: &Scenario, t: f64) -> Vec<f64> {
        vec![t; scenario.devices.len()]
    }

    fn deadline_frequencies(s: &Scenario, deadline: f64, uploads: &[f64]) -> Vec<f64> {
        let (arrays, mut out) = (ScenarioArrays::from_scenario(s), Vec::new());
        frequencies_for_deadline_into(&arrays, s.params.rl(), deadline, uploads, &mut out);
        out
    }

    /// The optimum of (10) at fixed uploads, from the paper alone. At a given `T` each
    /// device runs at `clamp(R_l c_n D_n / (T − T_n^up), f_min, f_max)`, so the objective
    /// `V(T)` is convex on `[T_min, T_max]`, with the increasing derivative
    /// `dV/dT = w2·R_g − w1·R_g·Σ_n 2κ(R_l c_n D_n)³ / (T − T_n^up)³`, summed over the
    /// devices above `f_min`. Bisecting its sign change gives `T*`; returns `V(T*)`.
    fn exact_optimum(s: &Scenario, w: Weights, uploads: &[f64]) -> f64 {
        let (rg, rl, kappa) = (s.params.rg(), s.params.rl(), s.params.kappa);
        let devices: Vec<[f64; 4]> = s
            .devices
            .iter()
            .zip(uploads)
            .map(|(d, &u)| {
                [rl * d.cycles_per_local_iteration(), d.f_min.value(), d.f_max.value(), u]
            })
            .collect();
        let value = |t: f64| {
            let energy: f64 = devices
                .iter()
                .map(|&[a, f_min, f_max, u]| {
                    let f = (a / (t - u)).max(f_min).min(f_max);
                    kappa * a * f * f
                })
                .sum();
            w.energy() * rg * energy + w.time() * rg * t
        };
        let slope = |t: f64| {
            let pull: f64 = devices
                .iter()
                .filter(|&&[a, f_min, _, u]| a / (t - u) > f_min)
                .map(|&[a, _, _, u]| 2.0 * kappa * a.powi(3) / (t - u).powi(3))
                .sum();
            w.time() * rg - w.energy() * rg * pull
        };
        let t_min = devices.iter().map(|&[a, _, f_max, u]| u + a / f_max).fold(0.0, f64::max);
        let t_max = devices.iter().map(|&[a, f_min, _, u]| u + a / f_min).fold(t_min, f64::max);
        let (mut lo, mut hi) = (t_min, t_max);
        if slope(lo) >= 0.0 {
            return value(lo);
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if slope(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        value(lo).min(value(hi))
    }

    #[test]
    fn direct_beats_or_matches_naive_choices() {
        let s = scenario(10);
        let cfg = SolverConfig::default();
        let uploads = uniform_uploads(&s, 0.01);
        let w = Weights::balanced();
        let sol = solve_direct(&s, w, &uploads, &cfg).unwrap();

        // Compare against running everything at f_max and at f_min.
        for f_choice in ["max", "min"] {
            let freqs: Vec<f64> = s
                .devices
                .iter()
                .map(|d| if f_choice == "max" { d.f_max.value() } else { d.f_min.value() })
                .collect();
            let t = round_time(&ScenarioArrays::from_scenario(&s), s.params.rl(), &freqs, &uploads);
            let obj = w.energy() * s.params.rg() * computation_energy_term(&s, &freqs)
                + w.time() * s.params.rg() * t;
            assert!(
                sol.objective <= obj * (1.0 + 1e-9),
                "direct {} should beat naive {f_choice} {obj}",
                sol.objective
            );
        }
    }

    #[test]
    fn direct_respects_frequency_boxes_and_deadline() {
        let s = scenario(20);
        let cfg = SolverConfig::default();
        let uploads = uniform_uploads(&s, 0.02);
        let sol = solve_direct(&s, Weights::new(0.7, 0.3).unwrap(), &uploads, &cfg).unwrap();
        for (dev, &f) in s.devices.iter().zip(&sol.frequencies_hz) {
            assert!(f >= dev.f_min.value() - 1.0 && f <= dev.f_max.value() + 1.0);
        }
        // Every device finishes within the reported round time (up to numerical slack).
        let rl = s.params.rl();
        for (i, dev) in s.devices.iter().enumerate() {
            let t = uploads[i] + rl * dev.cycles_per_local_iteration() / sol.frequencies_hz[i];
            assert!(t <= sol.round_time_s * (1.0 + 1e-6), "device {i} misses deadline");
        }
    }

    #[test]
    fn extreme_weights_hit_boxes() {
        let s = scenario(5);
        let cfg = SolverConfig::default();
        let uploads = uniform_uploads(&s, 0.01);
        let energy_only = solve_direct(&s, Weights::energy_only(), &uploads, &cfg).unwrap();
        for (dev, &f) in s.devices.iter().zip(&energy_only.frequencies_hz) {
            assert_eq!(f, dev.f_min.value());
        }
        let time_only = solve_direct(&s, Weights::time_only(), &uploads, &cfg).unwrap();
        for (dev, &f) in s.devices.iter().zip(&time_only.frequencies_hz) {
            assert_eq!(f, dev.f_max.value());
        }
        assert!(time_only.round_time_s < energy_only.round_time_s);
    }

    #[test]
    fn higher_time_weight_gives_faster_rounds() {
        let s = scenario(15);
        let cfg = SolverConfig::default();
        let uploads = uniform_uploads(&s, 0.015);
        let slow = solve_direct(&s, Weights::new(0.9, 0.1).unwrap(), &uploads, &cfg).unwrap();
        let fast = solve_direct(&s, Weights::new(0.1, 0.9).unwrap(), &uploads, &cfg).unwrap();
        assert!(fast.round_time_s <= slow.round_time_s + 1e-9);
        let e = |sol: &Sp1Solution| computation_energy_term(&s, &sol.frequencies_hz);
        assert!(e(&fast) >= e(&slow) - 1e-12);
    }

    #[test]
    fn direct_matches_the_exact_optimum() {
        let cfg = SolverConfig::default();
        // On paper boxes and on 1 kHz–10 GHz boxes, whose low `f_min` stretches `T_max` to
        // ~10⁵ s, the root lands on the optimum to rounding.
        let wide = (wireless::units::Hertz::new(1.0e3), wireless::units::Hertz::from_ghz(10.0));
        for box_of in [None, Some(wide)] {
            for n in [1, 5, 20, 50] {
                for seed in 1..=5 {
                    let mut builder = ScenarioBuilder::paper_default().with_devices(n);
                    if let Some((f_min, f_max)) = box_of {
                        builder = builder.with_frequency_range(f_min, f_max);
                    }
                    let s = builder.build(seed).unwrap();
                    for upload_s in [0.001, 0.005, 0.01, 0.02, 0.035, 0.05] {
                        let uploads = uniform_uploads(&s, upload_s);
                        for w in Weights::paper_sweep() {
                            let direct = solve_direct(&s, w, &uploads, &cfg).unwrap().objective;
                            let opt = exact_optimum(&s, w, &uploads);
                            let at = format!("{box_of:?}, n {n}, seed {seed}, {upload_s} s, {w:?}");
                            assert!(direct >= opt * (1.0 - 1e-12), "{at}: {direct} below {opt}");
                            assert!(direct <= opt * (1.0 + 1e-12), "{at}: {direct} above {opt}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deadline_frequencies_meet_deadline() {
        let s = scenario(12);
        let uploads = uniform_uploads(&s, 0.01);
        let deadline = 0.3;
        let freqs = deadline_frequencies(&s, deadline, &uploads);
        let rl = s.params.rl();
        for (i, dev) in s.devices.iter().enumerate() {
            let t = uploads[i] + rl * dev.cycles_per_local_iteration() / freqs[i];
            // Either the deadline is met or the device is already at f_max (best effort).
            assert!(t <= deadline * (1.0 + 1e-9) || (freqs[i] - dev.f_max.value()).abs() < 1.0);
        }
    }

    #[test]
    fn impossible_deadline_returns_fmax() {
        let s = scenario(4);
        let uploads = uniform_uploads(&s, 1.0);
        let freqs = deadline_frequencies(&s, 0.5, &uploads); // uplink alone exceeds deadline
        for (dev, f) in s.devices.iter().zip(freqs) {
            assert_eq!(f, dev.f_max.value());
        }
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let s = scenario(3);
        let cfg = SolverConfig::default();
        let err = solve_direct(&s, Weights::balanced(), &[0.01, 0.01], &cfg).unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
    }

    #[test]
    fn arrays_entry_is_bit_identical_to_wrapper_when_cold() {
        let s = scenario(14);
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default().with_warm_start(false);
        let uploads = uniform_uploads(&s, 0.012);
        let w = Weights::new(0.6, 0.4).unwrap();

        let wrapper = solve_direct(&s, w, &uploads, &cfg).unwrap();

        let mut lane_freqs = Vec::new();
        let mut probes = 0u64;
        let lanes = solve_direct_with_arrays_in(
            &s,
            &arrays,
            w,
            &uploads,
            &cfg,
            &mut lane_freqs,
            &mut probes,
        )
        .unwrap();
        assert_eq!(
            (wrapper.round_time_s, wrapper.objective),
            (lanes.round_time_s, lanes.objective)
        );
        assert_eq!(wrapper.frequencies_hz, lane_freqs);
        assert!(probes > 0, "the probe counter must observe the search");
    }

    /// One search path: warm start on, warm start off, and the same inputs after an
    /// unrelated solve through the same buffers all take the same probes to the same bits.
    #[test]
    fn the_solve_is_stateless_warm_or_cold() {
        let s = scenario(12);
        let arrays = ScenarioArrays::from_scenario(&s);
        let warm = SolverConfig::default().with_warm_start(true);
        let (w, uploads) = (Weights::balanced(), uniform_uploads(&s, 0.015));
        let mut freqs = Vec::new();
        let mut solve = |cfg: &SolverConfig, w: Weights, uploads: &[f64]| {
            let mut probes = 0u64;
            let sol =
                solve_direct_with_arrays_in(&s, &arrays, w, uploads, cfg, &mut freqs, &mut probes)
                    .unwrap();
            (sol.round_time_s, sol.objective, freqs.clone(), probes)
        };

        let warm_first = solve(&warm, w, &uploads);
        let cold = solve(&warm.with_warm_start(false), w, &uploads);
        solve(&warm, Weights::new(0.9, 0.1).unwrap(), &uniform_uploads(&s, 0.04));
        let after_another = solve(&warm, w, &uploads);
        assert_eq!(warm_first, cold);
        assert_eq!(warm_first, after_another);
    }
}
