//! Subproblem 2 — communication-energy minimization over `(p, B)` (a sum-of-ratios problem).
//!
//! With the frequencies and the round deadline `T` fixed by Subproblem 1, the remaining
//! problem (11) is
//!
//! ```text
//! min_{p, B}  w1·R_g·Σ_n p_n·d_n / G_n(p_n, B_n)
//! s.t.        p_n^min ≤ p_n ≤ p_n^max,
//!             Σ_n B_n ≤ B,
//!             G_n(p_n, B_n) ≥ r_n^min := d_n / (T − R_l c_n D_n / f_n).
//! ```
//!
//! The objective is a sum of ratios (convex numerators over concave positive denominators),
//! which the paper tackles with Jong's Newton-like parametric method (its Algorithm 1):
//!
//! * the generic outer loop lives in [`numopt::fractional`];
//! * the parametric inner problem `SP2_v2` (equation (21)) is solved in closed form by the
//!   KKT construction of Theorem 2 — a safeguarded Newton root of `g'(μ)` for the bandwidth
//!   multiplier `μ`, Lambert-W expression (A.4) for the per-device rate multipliers `τ_n`,
//!   closed-form bandwidth for rate-tight devices and the small LP (A.6) for the rest
//!   ([`kkt`]);
//! * [`reference`](mod@reference) solves the same problem exactly by another route. For a
//!   fixed bandwidth the energy-optimal power is the smallest feasible one, which leaves a
//!   convex energy per device in its bandwidth; a bandwidth price, cleared by a Brent root,
//!   splits the band (closed-form Lambert-W picks on the rate-tight face, a Brent root on
//!   the fixed-power face). It shares nothing with the Newton-like machinery, so tests use
//!   it as an independent cross-check.
//!
//! With [`SolverConfig::polish_with_reference`] on (the default) every solve also runs the
//! reference and keeps whichever point spends less communication energy. The polish is not
//! a corner-case guard: the Newton-like loop can stop above the optimum, or on a point that
//! misses a rate floor, while reporting convergence. Solves that replay a slowly moving
//! problem (the round simulation) keep the reference point almost every time; the paper's
//! sweeps keep it in a few percent of solves. A loop whose response cycles ends at the
//! stall exit of [`solve_sum_of_ratios_in`], unconverged, a few iterations in instead of at
//! its iteration cap, and its last response meets the reference here like any other.
//!
//! [`solve_in`] is the entry point: it solves from the point staged in an [`Sp2Scratch`]
//! and leaves the solution there, allocation-free in steady state. Algorithm 2's
//! Subproblem-2 step ([`crate::alg2::subproblem2_step`]) holds the scenario's lanes
//! already and calls [`solve_with_arrays_in`].
//!
//! [`SolverConfig::polish_with_reference`]: crate::SolverConfig

pub mod kkt;
pub mod reference;

use crate::config::SolverConfig;
use crate::error::CoreError;
use flsys::{Scenario, ScenarioArrays, Weights};
use kkt::KktScratch;
use numopt::fractional::{solve_sum_of_ratios_in, FractionalProblem, JongScratch, WarmMode};
use numopt::scalar::clamp;
use numopt::NumError;
use std::cell::RefCell;
use wireless::channel::{power_for_rate, shannon_rate_raw};

/// A `(p, B)` point — the decision variables of Subproblem 2.
#[derive(Debug, PartialEq, Default)]
pub struct PowerBandwidth {
    /// Transmit power per device (W).
    pub powers_w: Vec<f64>,
    /// Bandwidth per device (Hz).
    pub bandwidths_hz: Vec<f64>,
}

// Hand-written so `clone_from` reuses capacity via `Vec::clone_from` (the derived fallback
// reallocates; see the equivalent impl on `flsys::Allocation`).
impl Clone for PowerBandwidth {
    fn clone(&self) -> Self {
        Self { powers_w: self.powers_w.clone(), bandwidths_hz: self.bandwidths_hz.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.powers_w.clone_from(&source.powers_w);
        self.bandwidths_hz.clone_from(&source.bandwidths_hz);
    }
}

impl PowerBandwidth {
    /// Creates a point from raw vectors.
    pub fn new(powers_w: Vec<f64>, bandwidths_hz: Vec<f64>) -> Self {
        Self { powers_w, bandwidths_hz }
    }
}

/// The complete scratch state of a Subproblem-2 solve: KKT buffers, the Newton-like outer
/// loop's multiplier/history vectors, the double-buffered `(p, B)` points, and the
/// reference solver's working set.
///
/// Everything is pure scratch in the [`crate::workspace`] sense — [`solve_in`] overwrites
/// or clears each buffer before reading it and resizes per scenario, so one instance serves
/// scenarios of any device count back to back and only capacity survives. The one
/// flow-contract exception is the staged point: the caller stages the starting `(p, B)`
/// with [`Sp2Scratch::stage_start`] immediately before [`solve_in`], and reads the solution
/// back through [`Sp2Scratch::solution`] immediately after.
///
/// With [`SolverConfig::warm_start`] enabled, five more pieces deliberately survive
/// between solves and seed the next one: the Newton-like loop's converged `(β, ν)` (in the
/// [`JongScratch`]), the previous bandwidth price `μ` and each rate-constrained device's
/// `W₀`/`e^W₀` pair at that price (in the [`KktScratch`]; the first `g'(μ)` pass of the next
/// search starts from them), the reference polish's clearing price, and the rate floors of
/// the previous solve (`warm_r_min`, gating the fast path). None of them are ever read on
/// the cold path, and [`Sp2Scratch::reset_warm_start`] drops them all — the sweep engine
/// does so at every cell-group boundary so warm-started sweeps stay deterministic.
#[derive(Debug, Clone, Default)]
pub struct Sp2Scratch {
    /// Scratch of the Theorem-2 KKT construction (the parametric inner solver).
    pub kkt: KktScratch,
    /// Struct-of-arrays lanes of the current scenario, rebuilt (capacity-reusing) by
    /// [`solve_in`] on entry. Callers that already hold lanes skip the rebuild via
    /// [`solve_with_arrays_in`].
    arrays: ScenarioArrays,
    /// Scratch of the Newton-like outer loop (the paper's Algorithm 1).
    jong: JongScratch,
    /// Start point in / solution out; doubles as the outer loop's primary point buffer.
    point: PowerBandwidth,
    /// Second half of the outer loop's point double-buffer.
    spare: PowerBandwidth,
    /// Candidate point of the reference polish pass.
    reference: PowerBandwidth,
    /// Working set of the reference polish pass: per-device face constants (allocated only
    /// once the polish first runs) and the warm-start price seed.
    ref_scratch: reference::ReferenceScratch,
    /// Rate floors of the previous warm-start solve (the fast path fires only while the
    /// current floors are within [`SolverConfig::outer_tol`] of these, relatively).
    warm_r_min: Vec<f64>,
    /// Whether [`Sp2Scratch::warm_r_min`] holds the floors of a successful previous solve.
    warm_r_min_valid: bool,
}

impl Sp2Scratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages the starting `(p, B)` point for the next [`solve_in`] call (overwriting
    /// whatever point a previous solve left behind).
    ///
    /// Warm-started callers (Algorithm 2 with [`SolverConfig::warm_start`]) skip this
    /// between consecutive solves of the same scenario: the previous solution is already
    /// staged, un-projected — which is exactly what lets the fast path recognise it.
    pub fn stage_start(&mut self, powers_w: &[f64], bandwidths_hz: &[f64]) {
        self.point.powers_w.clear();
        self.point.powers_w.extend_from_slice(powers_w);
        self.point.bandwidths_hz.clear();
        self.point.bandwidths_hz.extend_from_slice(bandwidths_hz);
    }

    /// The solution point left behind by the last successful [`solve_in`] call.
    pub fn solution(&self) -> &PowerBandwidth {
        &self.point
    }

    /// Drops every piece of carried warm-start state (Jong multipliers, `μ` seed and its
    /// `W₀` lane pair, reference price, rate floors): the next solve behaves as if this
    /// scratch had never solved anything, even with [`SolverConfig::warm_start`] enabled.
    pub fn reset_warm_start(&mut self) {
        self.jong.invalidate_warm();
        self.kkt.reset_warm_start();
        self.ref_scratch.reset_warm_start();
        self.warm_r_min_valid = false;
    }
}

/// The scalar outcome of an in-place Subproblem-2 solve ([`solve_in`]); the solution point
/// stays in the [`Sp2Scratch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sp2Summary {
    /// Per-round communication energy `Σ_n p_n d_n / r_n` at the solution (J), *not* scaled
    /// by `w1 R_g`.
    pub comm_energy_per_round_j: f64,
    /// Whether the Newton-like outer loop converged, at the tolerance its iteration gave
    /// it (`config.jong.phi_tol` of the call; Algorithm 2's warm path loosens it per outer
    /// iteration).
    pub converged: bool,
    /// Outer (Algorithm-1) iterations used.
    pub iterations: usize,
    /// `true` when the reference polish replaced the Newton-like solution.
    pub polished: bool,
    /// `true` when the warm-start fast path skipped the Newton-like loop (and the polish)
    /// because the carried multipliers still satisfied `phi_tol` at the staged point.
    pub fast_path: bool,
    /// Theorem-2 parametric (KKT) solves this call performed.
    pub kkt_solves: u64,
    /// `g'(μ)` lane passes the `μ` searches of this call performed, one count per pass over
    /// the rate-constrained devices whichever search ran it (see
    /// [`KktScratch::mu_bisect_evals`]; the name predates the Newton search and is kept
    /// because benchmark and JSON readers use it).
    pub mu_bisect_evals: u64,
    /// Step-4b `(ρ, idx)` key sorts this call performed — exactly one per parametric KKT
    /// solve (the LP ordering is `μ`-invariant and is never re-sorted per `g'(μ)` probe).
    pub lp_sorts: u64,
}

/// The Subproblem-2 instance handed to the sum-of-ratios machinery.
pub struct Sp2Problem<'a> {
    scenario: &'a Scenario,
    /// Struct-of-arrays lanes of `scenario` — the layout every hot per-device loop (the
    /// Theorem-2 KKT construction, the rate/energy evaluations of the Newton-like outer
    /// loop, the reference polish) reads instead of walking the profile structs.
    arrays: &'a ScenarioArrays,
    /// Constant weight `w1·R_g` multiplying every ratio.
    weight: f64,
    /// Per-device minimum rate `r_n^min` (bit/s); `0` disables the rate constraint.
    r_min_bps: &'a [f64],
    config: &'a SolverConfig,
    /// KKT scratch buffers shared by every [`kkt::solve_parametric_into`] call on this instance
    /// (the Newton-like outer loop makes dozens). `RefCell` because the `FractionalProblem`
    /// trait hands the problem out by shared reference; `Sp2Problem` is not `Sync` and is
    /// never shared across threads.
    scratch: RefCell<KktScratch>,
}

impl<'a> Sp2Problem<'a> {
    /// Builds a Subproblem-2 instance over a scenario and its pre-built lane view
    /// (see [`ScenarioArrays::from_scenario`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if `r_min_bps` or `arrays` does not match the scenario
    /// size.
    pub fn new(
        scenario: &'a Scenario,
        arrays: &'a ScenarioArrays,
        weights: Weights,
        r_min_bps: &'a [f64],
        config: &'a SolverConfig,
    ) -> Result<Self, CoreError> {
        let n = scenario.devices.len();
        if r_min_bps.len() != n {
            return Err(CoreError::Model(flsys::FlError::AllocationSizeMismatch {
                devices: n,
                got: r_min_bps.len(),
            }));
        }
        if arrays.len() != n {
            return Err(CoreError::Model(flsys::FlError::AllocationSizeMismatch {
                devices: n,
                got: arrays.len(),
            }));
        }
        // A zero energy weight makes the ratio weights vanish and the parametric machinery
        // degenerate; the caller (Algorithm 2) special-cases that, but clamping here keeps
        // this type safe to use directly.
        let weight = (weights.energy() * scenario.params.rg()).max(1e-12);
        Ok(Self { scenario, arrays, weight, r_min_bps, config, scratch: RefCell::default() })
    }

    /// Mutable access to the KKT scratch buffers (for [`kkt::solve_parametric_into`]).
    pub(crate) fn scratch_mut(&self) -> std::cell::RefMut<'_, KktScratch> {
        self.scratch.borrow_mut()
    }

    /// The scenario this instance optimizes.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// The struct-of-arrays lane view of the scenario (same device order).
    pub fn arrays(&self) -> &ScenarioArrays {
        self.arrays
    }

    /// The per-device minimum rates (bit/s).
    pub fn r_min_bps(&self) -> &[f64] {
        self.r_min_bps
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        self.config
    }

    /// Noise power spectral density (W/Hz).
    pub fn n0(&self) -> f64 {
        self.scenario.params.noise.watts_per_hz()
    }

    /// Total bandwidth budget (Hz).
    pub fn total_bandwidth(&self) -> f64 {
        self.scenario.params.total_bandwidth.value()
    }

    /// Shannon rate of device `i` at a point, floored so it is always strictly positive.
    pub fn rate(&self, i: usize, point: &PowerBandwidth) -> f64 {
        let b = point.bandwidths_hz[i].max(self.config.bandwidth_floor_hz);
        let p = point.powers_w[i].max(self.arrays.p_min_w[i].max(1e-9));
        shannon_rate_raw(p, b, self.arrays.gain[i], self.n0()).max(1e-9)
    }

    /// Per-round communication energy `Σ_n p_n d_n / r_n` at a point (J).
    pub fn comm_energy(&self, point: &PowerBandwidth) -> f64 {
        (0..self.arrays.len())
            .map(|i| {
                let d = self.arrays.upload_bits[i];
                point.powers_w[i] * d / self.rate(i, point)
            })
            .sum()
    }

    /// Clamps a candidate point into the feasible set: power boxes, bandwidth floor, total
    /// bandwidth budget, and (best-effort) the per-device rate constraints.
    pub fn sanitize(&self, point: &mut PowerBandwidth) {
        let n = self.arrays.len();
        let floor = self.config.bandwidth_floor_hz;
        let b_total = self.total_bandwidth();
        for i in 0..n {
            let (p_min, p_max) = (self.arrays.p_min_w[i], self.arrays.p_max_w[i]);
            if !point.bandwidths_hz[i].is_finite() || point.bandwidths_hz[i] < floor {
                point.bandwidths_hz[i] = floor;
            }
            if !point.powers_w[i].is_finite() {
                point.powers_w[i] = p_max;
            }
            point.powers_w[i] = clamp(point.powers_w[i], p_min, p_max);
        }
        let sum: f64 = point.bandwidths_hz.iter().sum();
        if sum > b_total {
            let scale = b_total / sum;
            for b in &mut point.bandwidths_hz {
                *b = (*b * scale).max(floor.min(b_total / n as f64));
            }
        }
        // Best-effort rate repair: raise power (never bandwidth, which is budgeted) until the
        // rate constraint holds or the power box is exhausted.
        for i in 0..n {
            if self.r_min_bps[i] <= 0.0 {
                continue;
            }
            let b = point.bandwidths_hz[i];
            let needed = power_for_rate(self.r_min_bps[i], b, self.arrays.gain[i], self.n0());
            if needed > point.powers_w[i] {
                point.powers_w[i] = clamp(needed, self.arrays.p_min_w[i], self.arrays.p_max_w[i]);
            }
        }
    }
}

impl FractionalProblem for Sp2Problem<'_> {
    type Point = PowerBandwidth;

    fn len(&self) -> usize {
        self.scenario.devices.len()
    }

    fn ratio_weight(&self, _i: usize) -> f64 {
        self.weight
    }

    fn numerator(&self, i: usize, x: &PowerBandwidth) -> f64 {
        x.powers_w[i] * self.arrays.upload_bits[i]
    }

    fn denominator(&self, i: usize, x: &PowerBandwidth) -> f64 {
        self.rate(i, x)
    }

    fn solve_parametric_into(
        &self,
        nu: &[f64],
        beta: &[f64],
        out: &mut PowerBandwidth,
    ) -> Result<(), NumError> {
        kkt::solve_parametric_into(self, nu, beta, out)
    }
}

/// Solves Subproblem 2 from the point staged via [`Sp2Scratch::stage_start`] and leaves
/// the solution in [`Sp2Scratch::solution`], performing **zero heap allocations in steady
/// state** (after the scratch buffers have grown to the scenario's device count once).
///
/// Runs the paper's Algorithm 1 (Newton-like sum-of-ratios loop with the Theorem-2 KKT inner
/// solver). When [`SolverConfig::polish_with_reference`] is enabled the result is compared
/// against the direct reference solver on the true communication energy and the better point
/// is kept.
///
/// # Errors
///
/// Returns [`CoreError::Model`] for shape mismatches and [`CoreError::SolverFailure`] if
/// both the Newton-like path and the reference solver fail. On error the staged point's
/// contents are unspecified.
///
/// [`SolverConfig::polish_with_reference`]: crate::SolverConfig
pub fn solve_in(
    scenario: &Scenario,
    weights: Weights,
    r_min_bps: &[f64],
    config: &SolverConfig,
    scratch: &mut Sp2Scratch,
) -> Result<Sp2Summary, CoreError> {
    // Rebuild the lane view in place (capacity-reusing: zero allocations at steady state)
    // and delegate; `mem::take` sidesteps the simultaneous &scratch.arrays / &mut scratch
    // borrow, and the lanes are restored even on error.
    let mut arrays = std::mem::take(&mut scratch.arrays);
    arrays.rebuild(scenario);
    let result = solve_with_arrays_in(scenario, &arrays, weights, r_min_bps, config, scratch);
    scratch.arrays = arrays;
    result
}

/// [`solve_in`] over a caller-held lane view ([`ScenarioArrays`]), skipping the per-call
/// lane rebuild — the Algorithm-2 hot path builds the lanes once per scenario and reuses
/// them across every outer iteration. `arrays` must describe `scenario` (same devices,
/// same order); results are bit-identical to [`solve_in`].
///
/// # Errors
///
/// Same as [`solve_in`], plus [`CoreError::Model`] if `arrays` does not match the scenario
/// size.
pub fn solve_with_arrays_in(
    scenario: &Scenario,
    arrays: &ScenarioArrays,
    weights: Weights,
    r_min_bps: &[f64],
    config: &SolverConfig,
    scratch: &mut Sp2Scratch,
) -> Result<Sp2Summary, CoreError> {
    let problem = Sp2Problem::new(scenario, arrays, weights, r_min_bps, config)?;
    // Lend the caller's KKT buffers to this problem instance for the duration of the solve;
    // they are swapped back (with whatever capacity they grew) before returning.
    std::mem::swap(&mut *problem.scratch_mut(), &mut scratch.kkt);
    let kkt_solves_before = problem.scratch_mut().parametric_solves;
    let mu_evals_before = problem.scratch_mut().mu_bisect_evals;
    let lp_sorts_before = problem.scratch_mut().lp_sorts;
    let Sp2Scratch {
        jong, point, spare, reference, ref_scratch, warm_r_min, warm_r_min_valid, ..
    } = &mut *scratch;

    problem.sanitize(point);

    // Warm mode: carry the previous solve's (β, ν) whenever warm start is enabled; allow
    // the loop-skipping fast path only while the rate floors — the one part of the
    // constraint set ϕ cannot see — are still where the carried multipliers left them.
    let mode = if config.warm_start {
        let n = scenario.devices.len();
        let floors_static = *warm_r_min_valid
            && warm_r_min.len() == n
            && r_min_bps.iter().zip(warm_r_min.iter()).all(|(&r, &prev)| {
                (r - prev).abs() <= config.outer_tol * r.abs().max(prev.abs()).max(1.0)
            });
        if floors_static {
            WarmMode::FastPath
        } else {
            WarmMode::Multipliers
        }
    } else {
        WarmMode::Cold
    };
    *warm_r_min_valid = false; // revalidated below on success

    // Newton-like path, running in place on the staged point (double-buffered with `spare`).
    let newton = solve_sum_of_ratios_in(&problem, point, spare, config.jong, jong, mode);

    let mut best_energy = f64::INFINITY;
    let mut have_best = false;
    let mut converged = false;
    let mut iterations = 0;
    let mut polished = false;
    let mut fast_path = false;

    if let Ok(summary) = newton {
        fast_path = summary.iterations == 0 && summary.converged;
        problem.sanitize(point);
        let energy = problem.comm_energy(point);
        if energy.is_finite() {
            best_energy = energy;
            have_best = true;
            converged = summary.converged;
            iterations = summary.iterations;
        }
    }

    // The fast path skips the polish too: the returned point is the previous solve's, and
    // that solve already compared it against the reference candidate.
    if (config.polish_with_reference || !have_best)
        && !fast_path
        && reference::solve_reference_into(&problem, reference, ref_scratch).is_ok()
    {
        problem.sanitize(reference);
        let energy = problem.comm_energy(reference);
        if energy.is_finite() && energy < best_energy {
            best_energy = energy;
            have_best = true;
            polished = true;
            std::mem::swap(point, reference);
            if config.warm_start {
                // The polish replaced the loop's solution, so the carried multipliers no
                // longer describe the staged point; re-anchor them at the polished point so
                // the continuation (and its fast path) stays consistent with what the next
                // solve will see.
                jong.reanchor(&problem, point);
            }
        }
    }

    if have_best && config.warm_start {
        warm_r_min.clear();
        warm_r_min.extend_from_slice(r_min_bps);
        *warm_r_min_valid = true;
    }

    std::mem::swap(&mut *problem.scratch_mut(), &mut scratch.kkt);

    if !have_best {
        return Err(CoreError::SolverFailure(
            "both the Newton-like and reference Subproblem-2 solvers failed".to_string(),
        ));
    }

    Ok(Sp2Summary {
        comm_energy_per_round_j: best_energy,
        converged,
        iterations,
        polished,
        fast_path,
        kkt_solves: scratch.kkt.parametric_solves - kkt_solves_before,
        mu_bisect_evals: scratch.kkt.mu_bisect_evals - mu_evals_before,
        lp_sorts: scratch.kkt.lp_sorts - lp_sorts_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::{Allocation, ScenarioBuilder};

    fn setup(n: usize, seed: u64) -> (Scenario, SolverConfig) {
        let s = ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap();
        (s, SolverConfig::default())
    }

    fn equal_start(s: &Scenario) -> PowerBandwidth {
        let a = Allocation::equal_split_max(s);
        PowerBandwidth::new(a.powers_w, a.bandwidths_hz)
    }

    fn loose_r_min(s: &Scenario) -> Vec<f64> {
        // A rate floor that equal-split max power comfortably exceeds.
        vec![1.0e5; s.devices.len()]
    }

    /// Solves from `start` on a fresh scratch: the solution point and its per-round
    /// communication energy.
    fn solve(
        s: &Scenario,
        weights: Weights,
        r_min: &[f64],
        start: PowerBandwidth,
        cfg: &SolverConfig,
    ) -> Result<(PowerBandwidth, f64), CoreError> {
        let mut scratch = Sp2Scratch::new();
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let summary = solve_in(s, weights, r_min, cfg, &mut scratch)?;
        Ok((scratch.point, summary.comm_energy_per_round_j))
    }

    #[test]
    fn solve_reduces_comm_energy_vs_start() {
        let (s, cfg) = setup(10, 1);
        let arrays = ScenarioArrays::from_scenario(&s);
        let start = equal_start(&s);
        let r_min = loose_r_min(&s);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let start_energy = problem.comm_energy(&start);
        let (_, energy) = solve(&s, Weights::balanced(), &r_min, start, &cfg).unwrap();
        assert!(
            energy <= start_energy * (1.0 + 1e-9),
            "sp2 {energy} should not exceed start {start_energy}"
        );
    }

    #[test]
    fn solution_is_feasible() {
        let (s, cfg) = setup(12, 2);
        let (sol, _) =
            solve(&s, Weights::balanced(), &loose_r_min(&s), equal_start(&s), &cfg).unwrap();
        let b_sum: f64 = sol.bandwidths_hz.iter().sum();
        assert!(b_sum <= s.params.total_bandwidth.value() * (1.0 + 1e-6));
        for (i, dev) in s.devices.iter().enumerate() {
            assert!(sol.powers_w[i] >= dev.p_min.value() - 1e-12);
            assert!(sol.powers_w[i] <= dev.p_max.value() + 1e-12);
            assert!(sol.bandwidths_hz[i] > 0.0);
        }
    }

    #[test]
    fn rate_constraints_respected_when_feasible() {
        let (s, cfg) = setup(8, 3);
        // Moderate rate floor: 28.1 kbit in at most 50 ms.
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.05).collect();
        let (sol, _) = solve(&s, Weights::balanced(), &r_min, equal_start(&s), &cfg).unwrap();
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            let rate =
                shannon_rate_raw(sol.powers_w[i], sol.bandwidths_hz[i], dev.gain.value(), n0);
            assert!(
                rate >= r_min[i] * (1.0 - 1e-3),
                "device {i}: rate {rate} below floor {}",
                r_min[i]
            );
        }
    }

    #[test]
    fn newton_and_reference_agree_roughly() {
        // A scarce band and binding rate floors (the regime Algorithm 2 operates in: the
        // deadline from Subproblem 1 makes every rate constraint meaningful). The reference
        // solves the same problem exactly, so the Newton-like point can only land at or above
        // it; here the loop reports convergence about 2% above it, the gap
        // `polish_with_reference` closes. The loose bound only catches the two drifting apart.
        let s = ScenarioBuilder::paper_default()
            .with_devices(10)
            .with_total_bandwidth(wireless::units::Hertz::from_mhz(2.0))
            .build(4)
            .unwrap();
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.02).collect();
        let start = equal_start(&s);

        let cfg_newton = SolverConfig { polish_with_reference: false, ..SolverConfig::default() };
        let (_, newton) =
            solve(&s, Weights::balanced(), &r_min, start.clone(), &cfg_newton).unwrap();

        let cfg = SolverConfig::default();
        let arrays = ScenarioArrays::from_scenario(&s);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let reference = reference::solve_reference(&problem).unwrap();
        let ref_energy = problem.comm_energy(&reference);

        let ratio = newton / ref_energy;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "newton {newton} vs reference {ref_energy} (ratio {ratio})"
        );
    }

    #[test]
    fn mismatched_r_min_length_is_error() {
        let (s, cfg) = setup(4, 5);
        let err = solve(&s, Weights::balanced(), &[1.0; 3], equal_start(&s), &cfg).unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
    }

    #[test]
    fn sanitize_repairs_pathological_points() {
        let (s, cfg) = setup(5, 6);
        let arrays = ScenarioArrays::from_scenario(&s);
        let r_min = loose_r_min(&s);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let n = s.devices.len();
        let mut bad = PowerBandwidth::new(vec![f64::NAN; n], vec![-1.0; n]);
        problem.sanitize(&mut bad);
        for i in 0..n {
            assert!(bad.powers_w[i].is_finite());
            assert!(bad.bandwidths_hz[i] >= cfg.bandwidth_floor_hz);
        }
        let b_sum: f64 = bad.bandwidths_hz.iter().sum();
        assert!(b_sum <= s.params.total_bandwidth.value() * (1.0 + 1e-9));
    }

    #[test]
    fn warm_start_fast_path_fires_on_a_repeated_solve() {
        let (s, cfg) = setup(10, 8);
        let cfg = cfg.with_warm_start(true);
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.05).collect();
        let mut scratch = Sp2Scratch::new();
        let start = equal_start(&s);
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let first = solve_in(&s, Weights::balanced(), &r_min, &cfg, &mut scratch).unwrap();
        assert!(!first.fast_path);
        assert!(first.kkt_solves >= 1);

        // Same floors, solution still staged: the carried multipliers satisfy phi at the
        // staged point, so the whole Newton loop (and the polish) is skipped.
        let second = solve_in(&s, Weights::balanced(), &r_min, &cfg, &mut scratch).unwrap();
        assert!(second.fast_path, "expected the fast path on an unchanged problem");
        assert_eq!(second.iterations, 0);
        assert_eq!(second.kkt_solves, 0);
        assert_eq!(second.comm_energy_per_round_j, first.comm_energy_per_round_j);

        // Moving the rate floors beyond outer_tol must disarm the fast path.
        let moved: Vec<f64> = r_min.iter().map(|r| r * 1.05).collect();
        let third = solve_in(&s, Weights::balanced(), &moved, &cfg, &mut scratch).unwrap();
        assert!(!third.fast_path, "5% floor move must force a real solve");

        // And a warm-state reset restores cold-start behaviour entirely.
        scratch.reset_warm_start();
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let fourth = solve_in(&s, Weights::balanced(), &r_min, &cfg, &mut scratch).unwrap();
        assert!(!fourth.fast_path);
        assert!(fourth.iterations >= 1);
    }

    #[test]
    fn warm_and_cold_solves_agree_on_energy_within_tolerance() {
        let (s, cfg) = setup(12, 9);
        let cold_cfg = cfg.with_warm_start(false);
        let warm_cfg = cfg.with_warm_start(true);
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.04).collect();

        let mut cold_scratch = Sp2Scratch::new();
        let start = equal_start(&s);
        cold_scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let cold = solve_in(&s, Weights::balanced(), &r_min, &cold_cfg, &mut cold_scratch).unwrap();

        // Dirty the warm scratch with a neighbouring problem first, then solve the real one:
        // the carried multipliers/brackets must not pull the result off the fixed point.
        let mut warm_scratch = Sp2Scratch::new();
        let near: Vec<f64> = r_min.iter().map(|r| r * 1.02).collect();
        warm_scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        solve_in(&s, Weights::balanced(), &near, &warm_cfg, &mut warm_scratch).unwrap();
        let warm = solve_in(&s, Weights::balanced(), &r_min, &warm_cfg, &mut warm_scratch).unwrap();

        let rel = (warm.comm_energy_per_round_j - cold.comm_energy_per_round_j).abs()
            / cold.comm_energy_per_round_j;
        assert!(
            rel <= 1e-3,
            "warm {} vs cold {} (rel {rel})",
            warm.comm_energy_per_round_j,
            cold.comm_energy_per_round_j
        );
    }

    #[test]
    fn warm_start_spends_fewer_mu_bisection_evals() {
        let (s, cfg) = setup(10, 10);
        let cold_cfg = cfg.with_warm_start(false);
        let warm_cfg = cfg.with_warm_start(true);
        let start = equal_start(&s);

        let run = |cfg: &SolverConfig| -> (u64, u64) {
            let mut scratch = Sp2Scratch::new();
            let mut mu = 0;
            let mut kkt = 0;
            // Re-stage every time (so no fast path): isolate the carried μ seed.
            for window in [0.050, 0.0502, 0.0504] {
                let floors: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / window).collect();
                scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
                let out = solve_in(&s, Weights::balanced(), &floors, cfg, &mut scratch).unwrap();
                mu += out.mu_bisect_evals;
                kkt += out.kkt_solves;
            }
            (mu, kkt)
        };
        let (cold_mu, cold_kkt) = run(&cold_cfg);
        let (warm_mu, warm_kkt) = run(&warm_cfg);
        assert!(cold_kkt > 0 && warm_kkt > 0);
        assert!(
            warm_mu < cold_mu,
            "the carried μ seed must save g'(μ) passes: warm {warm_mu} vs cold {cold_mu}"
        );
    }

    #[test]
    fn tighter_rate_floor_costs_more_energy() {
        let (s, cfg) = setup(10, 7);
        let loose: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.2).collect();
        let tight: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.01).collect();
        let e_loose = solve(&s, Weights::balanced(), &loose, equal_start(&s), &cfg).unwrap().1;
        let e_tight = solve(&s, Weights::balanced(), &tight, equal_start(&s), &cfg).unwrap().1;
        assert!(
            e_tight >= e_loose * (1.0 - 1e-6),
            "tight deadline energy {e_tight} should be at least loose {e_loose}"
        );
    }
}
