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
//! a one-dimensional convex function of `T`, minimized by golden-section search.
//!
//! The paper solves the same problem through its Lagrangian dual (17): maximize
//! `Σ_n (2^{-2/3} + 2^{1/3})·h·c_n·D_n·λ_n^{2/3} + T_n^up·λ_n` over the scaled simplex
//! `{λ ≥ 0, Σ λ_n = w2·R_g}`, with `h = R_l (w1 κ R_g)^{1/3}`, then recover
//! `f_n* = (λ_n / (2 w1 R_g κ))^{1/3}` clamped into the frequency box ((16), (18)). Both
//! reach the optimum of (10); the tests check the direct search against that optimum,
//! found from the stationarity of the objective in `T`.

use crate::config::SolverConfig;
use crate::error::CoreError;
use flsys::model::{computation_time, frequency_for_window};
use flsys::{Scenario, ScenarioArrays, Weights};
use numopt::scalar::golden_section_min_with_endpoints;

/// The lowest frequency the upper end of the `T` bracket assumes, so that a device whose
/// `f_min` is zero still leaves the search a finite `T_max`.
const BRACKET_FREQUENCY_FLOOR_HZ: f64 = 1e-3;

/// Geometric half-width of the warm-start golden-section bracket: the previous round time
/// `T` brackets the new search as `[T/γ, T·γ]` (intersected with the feasible `[T_min,
/// T_max]`). The outer alternation moves `T` by a few percent per iteration, so γ = 2 keeps
/// the warm bracket generous — a ~4× narrower interval than the cold `[T_min, T_max]` on
/// paper-default scenarios — while the interior-argmin check below catches any stale seed.
const SP1_WARM_BRACKET_FACTOR: f64 = 2.0;

/// Warm-start carry-over of Subproblem 1: the previous solve's optimal round time `T`,
/// used to narrow the golden-section bracket (the objective is unimodal in `T`, so an
/// argmin strictly inside the narrowed bracket is the global one; an argmin on a clipped
/// edge triggers a full-bracket re-search). Only read when
/// [`SolverConfig::warm_start`](crate::SolverConfig) is enabled;
/// [`Sp1WarmState::reset`] drops the seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sp1WarmState {
    t_prev: f64,
    valid: bool,
}

impl Sp1WarmState {
    /// Drops the carried round-time seed: the next solve searches the full bracket.
    pub fn reset(&mut self) {
        self.valid = false;
    }
}

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

/// Solves Subproblem 1 exactly by reducing it to a one-dimensional convex search over `T`.
///
/// # Errors
///
/// Returns [`CoreError::Model`] for a shape mismatch between `upload_times_s` and the
/// scenario, or [`CoreError::Numerical`] if the scalar search fails.
pub fn solve_direct(
    scenario: &Scenario,
    weights: Weights,
    upload_times_s: &[f64],
    config: &SolverConfig,
) -> Result<Sp1Solution, CoreError> {
    // A throwaway lane view and a fresh (invalid) warm state: this reference form is the
    // historical cold full-bracket search regardless of `config.warm_start`.
    let arrays = ScenarioArrays::from_scenario(scenario);
    let mut frequencies_hz = Vec::with_capacity(scenario.devices.len());
    let summary = solve_direct_with_arrays_in(
        scenario,
        &arrays,
        weights,
        upload_times_s,
        &SolverConfig { warm_start: false, ..*config },
        &mut frequencies_hz,
        &mut Sp1WarmState::default(),
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
/// The search is allocation-free: each golden-section probe evaluates the objective device
/// by device instead of materialising a frequency vector per probe, and the per-device
/// energy coefficient `κ·R_l·c_n·D_n` is hoisted out of the probe loop — it is staged in
/// `frequencies_out` (pure scratch until the search ends) with the exact multiplication
/// grouping of the unhoisted expression, so results stay bit-identical. The probe loop
/// walks the [`ScenarioArrays`] lanes (contiguous, bounds-check-free via `zip`).
///
/// `warm` carries the previous solve's optimal `T` and, with [`SolverConfig::warm_start`]
/// enabled, narrows the golden-section bracket to `[T/γ, T·γ] ∩ [T_min, T_max]` — the
/// objective is unimodal in `T`, so an argmin strictly inside the narrowed bracket is the
/// global one, and an argmin landing on a clipped bracket edge falls back to the full
/// `[T_min, T_max]` search; `probe_evals` accumulates the number of objective probes the
/// search spends (the [`SolveCounters::sp1_probe_evals`](crate::SolveCounters) evidence).
/// With warm start off the search trajectory — and hence every result bit — matches the
/// historical cold path.
///
/// # Errors
///
/// Same as [`solve_direct`], plus [`CoreError::Model`] if `arrays` does not match the
/// scenario size.
#[allow(clippy::too_many_arguments)]
pub fn solve_direct_with_arrays_in(
    scenario: &Scenario,
    arrays: &ScenarioArrays,
    weights: Weights,
    upload_times_s: &[f64],
    config: &SolverConfig,
    frequencies_out: &mut Vec<f64>,
    warm: &mut Sp1WarmState,
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

    // Hoist the per-device energy coefficient κ·R_l·c_n·D_n out of the probe loop, parked
    // in the output buffer (which nothing reads until `frequencies_for_deadline_into`
    // rewrites it after the search). The grouping `(κ·R_l)·c_nD_n` then `coef·f·f` matches
    // the old inline `κ·R_l·c_nD_n·f·f` left-to-right evaluation exactly, so every probe
    // value — and hence the search trajectory — is bit-identical to the unhoisted code.
    frequencies_out.clear();
    frequencies_out
        .extend(arrays.cycles_per_iter.iter().map(|&cd| params.kappa * params.rl() * cd));
    let energy_coef: &[f64] = frequencies_out;

    let probes = std::cell::Cell::new(0u64);
    let objective_of_t = |t: f64| {
        probes.set(probes.get() + 1);
        // Same per-device terms and summation order as `computation_energy_term` over
        // `frequencies_for_deadline`, without the intermediate vector: one fused
        // bounds-check-free walk over four read-only lanes.
        let mut energy = 0.0;
        let it = energy_coef
            .iter()
            .zip(&arrays.cycles_per_iter)
            .zip(&arrays.f_min_hz)
            .zip(&arrays.f_max_hz)
            .zip(upload_times_s);
        for ((((&coef, &cd), &f_min), &f_max), &t_up) in it {
            let f = frequency_for_window(rl, cd, f_min, f_max, t - t_up);
            energy += coef * f * f;
        }
        w1 * rg * energy + w2 * rg * t
    };
    let tol = config.scalar_tol * t_max.max(1.0);

    // Warm-start bracket narrowing around the previous optimal T, validated two ways: the
    // seed must fall inside the feasible interval, and the argmin must come back strictly
    // interior to any clipped edge (unimodality then guarantees it is the global argmin;
    // an edge hit means the optimum moved outside the narrow bracket — re-search in full).
    let mut best = None;
    if config.warm_start && warm.valid && warm.t_prev.is_finite() {
        let lo = t_min.max(warm.t_prev / SP1_WARM_BRACKET_FACTOR);
        let hi = t_max.min(warm.t_prev * SP1_WARM_BRACKET_FACTOR);
        if lo < hi {
            let candidate = golden_section_min_with_endpoints(&objective_of_t, lo, hi, tol, 500)?;
            let clipped_lo = lo > t_min && candidate.argmin <= lo + tol;
            let clipped_hi = hi < t_max && candidate.argmin >= hi - tol;
            if !clipped_lo && !clipped_hi {
                best = Some(candidate);
            }
        }
    }
    let best = match best {
        Some(best) => best,
        None => golden_section_min_with_endpoints(&objective_of_t, t_min, t_max, tol, 500)?,
    };
    *probe_evals += probes.get();
    if config.warm_start {
        warm.t_prev = best.argmin;
        warm.valid = true;
    }
    frequencies_for_deadline_into(arrays, rl, best.argmin, upload_times_s, frequencies_out);
    // Report the actually achieved round time (≤ the searched T when clamping bites).
    let achieved_round = round_time(arrays, rl, frequencies_out, upload_times_s);
    let round_time_s = achieved_round.min(best.argmin).max(t_min);
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
        // The search is never below the optimum, and on paper boxes within 1e-8 above it.
        for n in [1, 5, 20, 50] {
            for seed in 1..=5 {
                let s = ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap();
                for upload_s in [0.002, 0.01, 0.05] {
                    let uploads = uniform_uploads(&s, upload_s);
                    for w in Weights::paper_sweep() {
                        let direct = solve_direct(&s, w, &uploads, &cfg).unwrap().objective;
                        let opt = exact_optimum(&s, w, &uploads);
                        let at = format!("n {n}, seed {seed}, upload {upload_s} s, {w:?}");
                        assert!(direct >= opt * (1.0 - 1e-12), "{at}: {direct} below {opt}");
                        assert!(direct <= opt * (1.0 + 1e-8), "{at}: {direct} vs {opt}");
                    }
                }
            }
        }
        // A 1 kHz–10 GHz box: the search's tolerance scales with `T_max`, which the low
        // `f_min` stretches to ~10⁵ s, so it stops further from the optimum.
        let s = ScenarioBuilder::paper_default()
            .with_devices(8)
            .with_frequency_range(
                wireless::units::Hertz::new(1.0e3),
                wireless::units::Hertz::from_ghz(10.0),
            )
            .build(7)
            .unwrap();
        let (uploads, w) = (uniform_uploads(&s, 0.01), Weights::balanced());
        let direct = solve_direct(&s, w, &uploads, &cfg).unwrap().objective;
        let opt = exact_optimum(&s, w, &uploads);
        assert!(direct >= opt * (1.0 - 1e-12) && direct <= opt * (1.0 + 5e-5), "{direct} vs {opt}");
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
        let mut warm = Sp1WarmState::default();
        let mut probes = 0u64;
        let lanes = solve_direct_with_arrays_in(
            &s,
            &arrays,
            w,
            &uploads,
            &cfg,
            &mut lane_freqs,
            &mut warm,
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

    #[test]
    fn warm_bracket_saves_probes_and_stays_on_the_optimum() {
        let s = scenario(12);
        let arrays = ScenarioArrays::from_scenario(&s);
        let warm_cfg = SolverConfig::default().with_warm_start(true);
        let cold_cfg = warm_cfg.with_warm_start(false);
        let w = Weights::balanced();
        let uploads = uniform_uploads(&s, 0.015);
        // The outer alternation's typical move: upload times shift by a couple percent.
        let nearby = uniform_uploads(&s, 0.0153);

        let mut freqs = Vec::new();
        let mut warm = Sp1WarmState::default();
        let mut warm_probes = 0u64;
        solve_direct_with_arrays_in(
            &s,
            &arrays,
            w,
            &uploads,
            &warm_cfg,
            &mut freqs,
            &mut warm,
            &mut warm_probes,
        )
        .unwrap();
        let seeded_before = warm_probes;
        let warm_sol = solve_direct_with_arrays_in(
            &s,
            &arrays,
            w,
            &nearby,
            &warm_cfg,
            &mut freqs,
            &mut warm,
            &mut warm_probes,
        )
        .unwrap();
        let warm_second = warm_probes - seeded_before;

        let mut cold_state = Sp1WarmState::default();
        let mut cold_probes = 0u64;
        let cold_sol = solve_direct_with_arrays_in(
            &s,
            &arrays,
            w,
            &nearby,
            &cold_cfg,
            &mut freqs,
            &mut cold_state,
            &mut cold_probes,
        )
        .unwrap();

        assert!(
            warm_second < cold_probes,
            "narrowed bracket must probe less: warm {warm_second} vs cold {cold_probes}"
        );
        let rel = (warm_sol.objective - cold_sol.objective).abs() / cold_sol.objective;
        assert!(
            rel <= 1e-4,
            "warm {} vs cold {} (rel {rel})",
            warm_sol.objective,
            cold_sol.objective
        );

        // A wildly stale seed must fall back to the full bracket and still land on the
        // cold optimum (edge-hit detection), not silently return a clipped-bracket argmin.
        let mut stale = Sp1WarmState { t_prev: cold_sol.round_time_s * 50.0, valid: true };
        let mut stale_probes = 0u64;
        let stale_sol = solve_direct_with_arrays_in(
            &s,
            &arrays,
            w,
            &nearby,
            &warm_cfg,
            &mut freqs,
            &mut stale,
            &mut stale_probes,
        )
        .unwrap();
        let rel = (stale_sol.objective - cold_sol.objective).abs() / cold_sol.objective;
        assert!(rel <= 1e-6, "stale seed must re-search in full (rel {rel})");
    }
}
