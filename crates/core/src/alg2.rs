//! Algorithm 2 — the complete resource-allocation algorithm.
//!
//! [`JointOptimizer::solve`] reproduces the paper's Algorithm 2: starting from a feasible
//! allocation, it alternates
//!
//! 1. **Subproblem 1** (frequencies + auxiliary round time `T`) for the current uplink times,
//! 2. **Subproblem 2** (powers + bandwidths) for the rate floors implied by that `T`,
//!
//! until the solution stops changing or the iteration cap `K` is hit. The weighted objective
//! `w1·E + w2·R_g·T` is evaluated through `flsys` after every outer iteration and the best
//! iterate is returned, so the reported allocation is never worse than the initial feasible
//! point.
//!
//! [`JointOptimizer::solve_with_deadline`] is the deadline-constrained variant used for the
//! comparisons of Figures 7 and 8 (`w1 = 1, w2 = 0`, completion time as a hard constraint).
//! It runs the same outer loop, from two starting splits, and differs in two places only:
//! in Subproblem 1's place every device's round deadline is split between computation and
//! upload to minimize its energy at its current bandwidth share, and the best iterate is
//! the cheapest one that meets the deadline. The loop's Subproblem-2 half is the public
//! [`subproblem2_step`], which the fixed-split baselines call too.
//! [`JointOptimizer::minimize_round_time`] is the pure delay-minimization path used when
//! `w2 = 1`.

use crate::config::SolverConfig;
use crate::error::CoreError;
use crate::sp1;
use crate::sp2::{self, Sp2Summary};
use crate::trace::{OuterIteration, Trace};
use crate::workspace::SolverWorkspace;
use flsys::model::{
    computation_time, frequency_for_window, meets_deadline, power_in_box, rate_for_window,
    upload_time,
};
use flsys::{
    Allocation, CostBreakdown, CostSummary, DeviceProfile, Scenario, ScenarioArrays, Weights,
};
use numopt::roots::root_of_decreasing_newton;
use wireless::channel::{bandwidth_for_rate, power_for_rate, shannon_rate_db, shannon_rate_raw};

/// Iteration cap of [`JointOptimizer::minimize_round_time`]'s Newton search; it needs a
/// handful.
const ROUND_TIME_MAX_ITER: usize = 100;

/// The share of the previous outer iteration's `solution_change` that a warm outer
/// iteration asks of its Subproblem-2 solve as `‖ϕ‖∞` tolerance (see
/// [`SolverConfig::warm_start`]).
pub const FORCING_FACTOR: f64 = 0.3;

/// The loosest `‖ϕ‖∞` tolerance a warm outer iteration hands Subproblem 2: the one its
/// first iteration gets, before any change is known (see [`SolverConfig::warm_start`]).
pub const FORCING_CEILING: f64 = 1e-2;

/// The scalar outcome of a `*_summary_*` solve: everything the sweep hot path consumes,
/// with no owned buffers. The winning allocation itself stays in
/// [`SolverWorkspace::best`] and the convergence trace in [`SolverWorkspace::trace`] until
/// the next solve overwrites them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeSummary {
    /// The weighted objective `w1·E + w2·R_g·T` of the winning allocation.
    pub objective: f64,
    /// Total energy in joules.
    pub total_energy_j: f64,
    /// Total completion time in seconds.
    pub total_time_s: f64,
    /// Whether the outer loop met its tolerance before the iteration cap.
    pub converged: bool,
}

/// Result of a full resource-allocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The allocation the optimizer settled on (always feasible).
    pub allocation: Allocation,
    /// Cost breakdown of that allocation (energy, latency, per-device detail).
    pub cost: CostBreakdown,
    /// The weighted objective `w1·E + w2·R_g·T` of the returned allocation.
    pub objective: f64,
    /// Total energy in joules (convenience copy of `cost.total_energy_j`).
    pub total_energy_j: f64,
    /// Total completion time in seconds (convenience copy of `cost.total_time_s`).
    pub total_time_s: f64,
    /// The weights the run optimized for.
    pub weights: Weights,
    /// Convergence trace (one entry per outer iteration).
    pub trace: Trace,
    /// Whether the outer loop met its tolerance before the iteration cap.
    pub converged: bool,
}

/// The paper's resource-allocation algorithm (Algorithm 2) plus its deadline-constrained and
/// delay-only variants.
#[derive(Debug, Clone, Default)]
pub struct JointOptimizer {
    config: SolverConfig,
}

impl JointOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solves the weighted joint problem (9) for the given scenario and weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] for invalid inputs or [`CoreError::SolverFailure`] /
    /// [`CoreError::Numerical`] if both Subproblem-2 solvers fail (which the test-suite never
    /// observes on paper-like scenarios).
    pub fn solve(&self, scenario: &Scenario, weights: Weights) -> Result<Outcome, CoreError> {
        self.solve_with(scenario, weights, &mut SolverWorkspace::new())
    }

    /// [`Self::solve`] against a caller-owned [`SolverWorkspace`], so repeated solves (a
    /// figure sweep runs thousands) reuse one set of per-device buffers instead of
    /// allocating per call. The workspace is pure scratch — see [`crate::workspace`] for the
    /// reuse contract — and the result is bit-identical to [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_with(
        &self,
        scenario: &Scenario,
        weights: Weights,
        ws: &mut SolverWorkspace,
    ) -> Result<Outcome, CoreError> {
        let summary = self.solve_summary_with(scenario, weights, ws)?;
        self.outcome_from_workspace(scenario, weights, ws, summary)
    }

    /// Enforces the caller's wall-clock budget ([`SolverWorkspace::solve_deadline`]) at an
    /// outer-iteration boundary: past the instant, the solve is abandoned with the typed
    /// [`CoreError::DeadlineExpired`] degradation. `iterations` is the count of outer
    /// iterations already completed (what the error reports). A `None` budget — the
    /// default, and every non-serving caller — costs one branch.
    fn check_deadline(ws: &SolverWorkspace, iterations: usize) -> Result<(), CoreError> {
        if let Some(deadline) = ws.solve_deadline {
            if std::time::Instant::now() >= deadline {
                return Err(CoreError::DeadlineExpired { iterations });
            }
        }
        Ok(())
    }

    /// [`Self::solve_with`] without materialising an [`Outcome`]: the sweep hot path.
    ///
    /// Returns the scalar [`OutcomeSummary`] and leaves the winning allocation in
    /// [`SolverWorkspace::best`] (projected feasible) and the convergence trace in
    /// [`SolverWorkspace::trace`]. The numbers are bit-identical to [`Self::solve_with`] —
    /// this entry point merely skips cloning the allocation, the per-device cost breakdown
    /// and the trace, which makes a whole figure cell **allocation-free in steady state**
    /// (after the workspace has grown to the scenario's device count once).
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_summary_with(
        &self,
        scenario: &Scenario,
        weights: Weights,
        ws: &mut SolverWorkspace,
    ) -> Result<OutcomeSummary, CoreError> {
        ws.trace.clear();
        Self::check_deadline(ws, 0)?;
        if weights.time() >= 1.0 {
            // Pure delay minimization: energy plays no role, so Subproblem 2's objective is
            // degenerate. Solve the min-max completion-time problem directly.
            let (allocation, _round) = self.minimize_round_time(scenario)?;
            ws.best = allocation;
            return self.finish_summary(scenario, weights, ws, true);
        }

        // Outer-loop continuation (serving layers only; see `SolverConfig`): re-open at the
        // carried best allocation when it plausibly belongs to this scenario, so a repeat
        // of the same problem starts converged and SP2's fast path fires at k = 1. The
        // shape check is a guard against misuse, not the correctness argument — callers
        // must only enable this when the workspace last solved the *same* problem.
        let n = scenario.devices.len();
        let continued = self.config.warm_start
            && self.config.outer_continuation
            && ws.best.powers_w.len() == n
            && ws.best.frequencies_hz.len() == n
            && ws.best.bandwidths_hz.len() == n
            && ws.sp2.solution().powers_w.len() == n
            && ws.sp2.solution().bandwidths_hz.len() == n;
        if continued {
            let SolverWorkspace { allocation, best, .. } = &mut *ws;
            allocation.clone_from(best);
        } else {
            ws.allocation.set_equal_split_max(scenario);
        }
        ws.arrays.rebuild(scenario);
        let mut best = None;
        let converged =
            self.alternate(scenario, Subproblem1::Weighted(weights), continued, &mut best, ws)?;
        if best.is_none() {
            // Every iteration in the budget produced a non-finite objective: degrade the
            // solve (typed error + counter) instead of panicking or returning garbage.
            // Sweep layers map this to an infeasible cell, so one pathological draw
            // cannot abort a whole shard.
            ws.counters.degraded_solves += 1;
            return Err(CoreError::NonFiniteObjective { iterations: ws.trace.len() });
        }
        self.finish_summary(scenario, weights, ws, converged)
    }

    /// Minimizes total energy subject to a hard completion-time deadline for the whole
    /// training process (the setting of Figures 7 and 8, `w1 = 1, w2 = 0`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleDeadline`] when even the fastest round (every resource
    /// at its maximum, [`Self::minimize_round_time`]) misses the deadline by the rule of
    /// [`meets_deadline`], and the same solver errors as [`JointOptimizer::solve`].
    pub fn solve_with_deadline(
        &self,
        scenario: &Scenario,
        total_deadline_s: f64,
    ) -> Result<Outcome, CoreError> {
        let mut ws = SolverWorkspace::new();
        let summary = self.solve_with_deadline_summary_in(scenario, total_deadline_s, &mut ws)?;
        self.outcome_from_workspace(scenario, Weights::energy_only(), &ws, summary)
    }

    /// [`Self::solve_with_deadline`] against a caller-owned [`SolverWorkspace`], without
    /// materialising an [`Outcome`] — the sweep hot path of Figures 7 and 8, with the same
    /// workspace conventions as [`Self::solve_summary_with`] (winning allocation in
    /// [`SolverWorkspace::best`], trace in [`SolverWorkspace::trace`]; bit-identical
    /// numbers).
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve_with_deadline`].
    pub fn solve_with_deadline_summary_in(
        &self,
        scenario: &Scenario,
        total_deadline_s: f64,
        ws: &mut SolverWorkspace,
    ) -> Result<OutcomeSummary, CoreError> {
        if !(total_deadline_s.is_finite() && total_deadline_s > 0.0) {
            return Err(CoreError::Model(flsys::FlError::InvalidParameter {
                name: "total_deadline_s",
                value: total_deadline_s,
            }));
        }
        let weights = Weights::energy_only();
        let round_deadline = total_deadline_s / scenario.params.rg();

        Self::check_deadline(ws, 0)?;
        let (fastest_alloc, fastest_round) = self.minimize_round_time(scenario)?;
        if !meets_deadline(fastest_round, round_deadline) {
            return Err(CoreError::InfeasibleDeadline {
                requested_s: total_deadline_s,
                achievable_s: fastest_round * scenario.params.rg(),
            });
        }

        // The alternation is a local search, and at fixed deadlines its quality depends on
        // the starting bandwidth split: the equal split is the better seed when the deadline
        // is loose, the time-optimal split (which hands far devices the bandwidth they need)
        // is the better seed when the deadline is tight. Run both seeds and keep the cheaper
        // result that meets the deadline (tracked across both runs in `ws.best`). Each run
        // restages its own seed at k = 1, so warm continuation never crosses seeds.
        ws.trace.clear();
        ws.arrays.rebuild(scenario);
        let step = Subproblem1::Deadline { round_deadline };
        let mut best = None;
        ws.allocation.set_equal_split_max(scenario);
        let mut converged = self.alternate(scenario, step, false, &mut best, ws)?;
        ws.allocation.clone_from(&fastest_alloc);
        converged |= self.alternate(scenario, step, false, &mut best, ws)?;

        if best.is_none() {
            // Every iterate somehow missed the deadline (only possible in pathological corner
            // cases): fall back to the fastest allocation, which was proven to meet it.
            ws.best.clone_from(&fastest_alloc);
        }
        self.finish_summary(scenario, weights, ws, converged)
    }

    /// Algorithm 2's outer loop from the allocation staged in [`SolverWorkspace::allocation`],
    /// over the lanes already in [`SolverWorkspace::arrays`]: `step`, then
    /// [`subproblem2_step`], then one [`OuterIteration`] whose `k` continues the trace. An
    /// iterate `step` ranks eligible and better than `best` is copied into
    /// [`SolverWorkspace::best`]. Returns whether the change fell to `outer_tol`.
    ///
    /// Subproblem 2 restarts from the projected allocation every iteration on the cold
    /// path; with warm start only at `k = 1`, and not even then when `continued` (the
    /// scratch stages the previous solve's un-projected iterate, which the fast path needs).
    ///
    /// The warm path's alternation is inexact: iteration `k` solves Subproblem 2 only to
    /// the `‖ϕ‖∞` tolerance [`sp2_phi_tol`] derives from iteration `k − 1`'s change (loose
    /// while the next Subproblem-1 step will move the rate floors anyway, `jong.phi_tol`
    /// once the change is that small), with the change taken as infinite at this run's
    /// `k = 1`. The cold path gives every iteration `jong.phi_tol`.
    fn alternate(
        &self,
        scenario: &Scenario,
        step: Subproblem1,
        continued: bool,
        best: &mut Option<f64>,
        ws: &mut SolverWorkspace,
    ) -> Result<bool, CoreError> {
        let k_offset = ws.trace.len();
        let mut sp2_config = self.config;
        let mut previous_change = f64::INFINITY;
        for k in 1..=self.config.outer_max_iter {
            // Deadline watchdog: the caller's wall-clock budget is checked at every
            // outer-iteration boundary, so an expired budget costs at most one more
            // (bounded) iteration before the solve degrades to the typed error.
            Self::check_deadline(ws, k_offset + k - 1)?;
            ws.previous.clone_from(&ws.allocation);
            ws.counters.outer_iterations += 1;
            self.subproblem1(scenario, step, k_offset + k, ws)?;

            let restage = !(self.config.warm_start && (k > 1 || continued));
            if self.config.warm_start {
                sp2_config.jong.phi_tol = sp2_phi_tol(self.config.jong.phi_tol, previous_change);
            }
            let (sp2_sol, cost) =
                subproblem2_step(scenario, step.weights(), &sp2_config, restage, ws)?;
            let (objective, eligible) = step.rank(&cost);
            let change = ws.allocation.normalized_distance(&ws.previous);
            previous_change = change;
            ws.trace.push(OuterIteration {
                k: k_offset + k,
                objective,
                total_energy_j: cost.total_energy_j,
                total_time_s: cost.total_time_s,
                solution_change: change,
                sp2_converged: sp2_sol.converged,
                sp2_iterations: sp2_sol.iterations,
                sp2_phi_tol: sp2_config.jong.phi_tol,
            });
            // Watchdog: a non-finite objective (overflowed energy, NaN cost) must never be
            // accepted as "best" — it would propagate straight into the summary totals.
            if objective.is_finite() && eligible && best.map_or(true, |best| objective < best) {
                *best = Some(objective);
                ws.best.clone_from(&ws.allocation);
            }
            if change <= self.config.outer_tol {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The half of an outer iteration that plays Subproblem 1's role: writes the CPU
    /// frequencies into [`SolverWorkspace::frequencies_hz`] and the working allocation, and
    /// the rate floors for [`subproblem2_step`] into [`SolverWorkspace::r_min_bps`]. `k` is
    /// the iteration's trace index (what a degraded solve reports).
    fn subproblem1(
        &self,
        scenario: &Scenario,
        step: Subproblem1,
        k: usize,
        ws: &mut SolverWorkspace,
    ) -> Result<(), CoreError> {
        match step {
            Subproblem1::Weighted(weights) => {
                ws.upload_times_from_allocation(scenario);
                let round_time_s = match sp1::solve_direct_with_arrays_in(
                    scenario,
                    &ws.arrays,
                    weights,
                    &ws.uploads_s,
                    &self.config,
                    &mut ws.frequencies_hz,
                    &mut ws.counters.sp1_probe_evals,
                ) {
                    Ok(sol) => sol.round_time_s,
                    // Watchdog: a non-finite subproblem objective (overflowed energy, NaN
                    // cost) is a property of the draw, not a solver bug — degrade the whole
                    // solve to the typed infeasibility instead of escalating a hard error
                    // that would abort an entire sweep shard.
                    Err(CoreError::Numerical(numopt::NumError::NonFiniteValue { .. })) => {
                        ws.counters.degraded_solves += 1;
                        return Err(CoreError::NonFiniteObjective { iterations: k });
                    }
                    Err(e) => return Err(e),
                };
                rate_floors_into(
                    &ws.arrays,
                    scenario.params.rl(),
                    round_time_s,
                    &ws.frequencies_hz,
                    weights,
                    &mut ws.r_min_bps,
                );
            }
            Subproblem1::Deadline { round_deadline } => {
                self.optimal_split_for_deadline(scenario, round_deadline, ws);
            }
        }
        ws.allocation.frequencies_hz.copy_from_slice(&ws.frequencies_hz);
        Ok(())
    }

    /// For a fixed round deadline and the working allocation's bandwidth shares, chooses
    /// each device's computation/upload time split to minimize its per-round energy,
    /// writing the implied CPU frequencies and rate floors into
    /// [`SolverWorkspace::frequencies_hz`] and [`SolverWorkspace::r_min_bps`] (cleared
    /// first). This plays Subproblem 1's role in the deadline variant.
    ///
    /// For device `n` with bandwidth `B_n`, an upload time `t` implies the frequency
    /// `f_n = R_l c_n D_n / (deadline − t)` and the cheapest power reaching rate `d_n / t`;
    /// the per-round energy `κ R_l c_n D_n f_n² + p(t)·t` is minimized over `t` by a scalar
    /// search (it is unimodal: computation energy falls and transmission energy rises as `t`
    /// shrinks the compute share).
    fn optimal_split_for_deadline(
        &self,
        scenario: &Scenario,
        round_deadline: f64,
        ws: &mut SolverWorkspace,
    ) {
        let SolverWorkspace { allocation, frequencies_hz: frequencies, r_min_bps: r_min, .. } = ws;
        let params = &scenario.params;
        let rl = params.rl();
        let n0 = params.noise.watts_per_hz();
        frequencies.clear();
        r_min.clear();

        for (dev, &bandwidth_hz) in scenario.devices.iter().zip(&allocation.bandwidths_hz) {
            let cd = dev.cycles_per_local_iteration();
            let (f_min, f_max) = (dev.f_min.value(), dev.f_max.value());
            let b = bandwidth_hz.max(self.config.bandwidth_floor_hz);
            let g = dev.gain.value();
            let upload_budget_max = round_deadline - computation_time(rl, cd, f_max);
            // The shortest upload the device can manage with its current bandwidth is the one
            // at maximum power; restricting the search to [that, remaining budget] keeps every
            // candidate split power-feasible, so the objective below is finite and unimodal
            // (computation energy rises, transmission energy falls, as the upload shrinks the
            // compute share).
            let t_up_fastest =
                upload_time(dev.upload_bits, shannon_rate_raw(dev.p_max.value(), b, g, n0));
            if upload_budget_max <= 0.0 || t_up_fastest >= upload_budget_max {
                // The deadline leaves no upload window even at f_max, or flat-out
                // transmission cannot fit the one it leaves with this bandwidth share: run
                // flat out, and let the rate floor ask Subproblem 2 for more bandwidth.
                frequencies.push(f_max);
                r_min.push(rate_for_window(dev.upload_bits, upload_budget_max));
                continue;
            }
            let energy_of_split = |t_up: f64| -> f64 {
                let f = frequency_for_window(rl, cd, f_min, f_max, round_deadline - t_up);
                let comp = params.kappa * rl * cd * f * f;
                let rate = dev.upload_bits / t_up;
                let p_needed = power_for_rate(rate, b, g, n0);
                comp + power_in_box(p_needed, dev.p_min.value(), dev.p_max.value()) * t_up
            };
            let best = numopt::scalar::golden_section_min_with_endpoints(
                energy_of_split,
                t_up_fastest,
                upload_budget_max,
                self.config.scalar_tol * upload_budget_max,
                300,
            );
            let t_up = match best {
                Ok(m) => m.argmin,
                Err(_) => t_up_fastest,
            };
            frequencies.push(frequency_for_window(rl, cd, f_min, f_max, round_deadline - t_up));
            r_min.push(dev.upload_bits / t_up);
        }
    }

    /// Minimizes the per-round completion time: every device at `f_max` and `p_max`, the band
    /// split so that they all finish together. Returns the allocation and its round time in
    /// seconds.
    ///
    /// Device `n` finishes a round of length `t` once its upload carries the rate
    /// `r_n(t) = d_n / (t − t_cmp,n)`, which takes the bandwidth `B_n(t)` at which `p_max`
    /// meets that rate ([`bandwidth_for_rate`]). The fastest round is the root of the band
    /// excess `S(t) = Σ_n B_n(t) − B`: convex and decreasing (a convex increasing inverse
    /// rate of a convex decreasing rate), with `dB_n/dt = −(r_n / (t − t_cmp,n)) / G′(B_n)`
    /// from the same per-device solve, so safeguarded Newton steps
    /// ([`root_of_decreasing_newton`]) find it. They climb from the first round time at
    /// which every device could meet its rate on the whole band, where every `B_n` is
    /// finite, and stay below the equal-split round time, which is always feasible. The band
    /// the devices need at the root is scaled to the budget, so the returned round time is
    /// that of a feasible allocation. A device whose rate is zero on the whole band yields
    /// the equal split and an infinite round time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if the scenario rejects the allocation shape (cannot
    /// happen for scenarios built by `flsys`).
    pub fn minimize_round_time(&self, scenario: &Scenario) -> Result<(Allocation, f64), CoreError> {
        let devices = &scenario.devices;
        let n0 = scenario.params.noise.watts_per_hz();
        let b_total = scenario.params.total_bandwidth.value();
        let floor = self.config.bandwidth_floor_hz;
        let rl = scenario.params.rl();
        let t_cmp: Vec<f64> = devices
            .iter()
            .map(|d| computation_time(rl, d.cycles_per_local_iteration(), d.f_max.value()))
            .collect();

        // The round time when every device uploads over `b` at p_max.
        let round_time_at = |b: f64| {
            devices.iter().zip(&t_cmp).fold(0.0, |round: f64, (dev, &t_cmp)| {
                let rate = shannon_rate_raw(dev.p_max.value(), b, dev.gain.value(), n0);
                round.max(t_cmp + upload_time(dev.upload_bits, rate))
            })
        };
        // The bandwidth device `dev` needs to finish within round time `t`, and its slope in
        // `t` (zero where the bandwidth floor binds).
        let demand = |dev: &DeviceProfile, t_cmp: f64, t: f64| -> (f64, f64) {
            let budget = t - t_cmp;
            let rate = dev.upload_bits / budget;
            let (g, p_max) = (dev.gain.value(), dev.p_max.value());
            let b = bandwidth_for_rate(rate, p_max, g, n0, floor);
            let slope =
                if b > floor { -(rate / budget) / shannon_rate_db(p_max, b, g, n0) } else { 0.0 };
            (b, slope)
        };
        let excess = |t: f64| {
            let (need, slope) =
                devices.iter().zip(&t_cmp).fold((0.0, 0.0), |(need, slope), (dev, &t_cmp)| {
                    let (b, db) = demand(dev, t_cmp, t);
                    (need + b, slope + db)
                });
            (need - b_total, slope)
        };

        let (t_lo, t_hi) = (round_time_at(b_total), round_time_at(b_total / devices.len() as f64));
        // A failed search (a non-finite excess) falls back to the equal split's round time.
        let t_star = if t_hi.is_finite() {
            root_of_decreasing_newton(excess, t_lo, t_hi, t_lo, 0.0, ROUND_TIME_MAX_ITER)
                .unwrap_or(t_hi)
        } else {
            t_hi
        };

        let mut bandwidths: Vec<f64> =
            devices.iter().zip(&t_cmp).map(|(dev, &t_cmp)| demand(dev, t_cmp, t_star).0).collect();
        // Hand the band out in proportion to the need: slack can only shorten uploads, and
        // a need a rounding above the budget comes back to it.
        let scale = b_total / bandwidths.iter().sum::<f64>();
        for b in &mut bandwidths {
            *b *= scale;
        }
        let mut allocation = Allocation::new(
            devices.iter().map(|d| d.p_max.value()).collect(),
            devices.iter().map(|d| d.f_max.value()).collect(),
            bandwidths,
        );
        allocation.project_feasible(scenario);
        let cost = scenario.cost_summary(&allocation)?;
        Ok((allocation, cost.round_time_s))
    }

    /// Projects the winning allocation ([`SolverWorkspace::best`]) feasible and summarises
    /// its cost — the allocation-free tail of every `*_summary_*` path.
    fn finish_summary(
        &self,
        scenario: &Scenario,
        weights: Weights,
        ws: &mut SolverWorkspace,
        converged: bool,
    ) -> Result<OutcomeSummary, CoreError> {
        ws.best.project_feasible(scenario);
        let cost = scenario.cost_summary(&ws.best)?;
        Ok(OutcomeSummary {
            objective: cost.objective(weights),
            total_energy_j: cost.total_energy_j,
            total_time_s: cost.total_time_s,
            converged,
        })
    }

    /// Materialises a full [`Outcome`] (owned allocation, per-device cost breakdown,
    /// cloned trace) from the workspace state a `*_summary_*` solve left behind.
    fn outcome_from_workspace(
        &self,
        scenario: &Scenario,
        weights: Weights,
        ws: &SolverWorkspace,
        summary: OutcomeSummary,
    ) -> Result<Outcome, CoreError> {
        let allocation = ws.best.clone();
        let cost = scenario.cost(&allocation)?;
        Ok(Outcome {
            total_energy_j: cost.total_energy_j,
            total_time_s: cost.total_time_s,
            objective: cost.objective(weights),
            allocation,
            cost,
            weights,
            trace: Trace { iterations: ws.trace.clone() },
            converged: summary.converged,
        })
    }
}

/// What plays Subproblem 1's role in an outer iteration of Algorithm 2's loop, and which
/// iterate counts as best.
#[derive(Debug, Clone, Copy)]
enum Subproblem1 {
    /// The weighted problem (9): Subproblem 1's search over the round time `T`, then the
    /// rate floors that `T` implies. The best iterate has the lowest finite weighted
    /// objective.
    Weighted(Weights),
    /// The deadline variant: the per-device split of the round deadline (seconds). The best
    /// iterate has the lowest finite energy among those whose round time meets the deadline
    /// ([`meets_deadline`]).
    Deadline { round_deadline: f64 },
}

impl Subproblem1 {
    /// The weights Subproblem 2 minimizes under.
    fn weights(self) -> Weights {
        match self {
            Self::Weighted(weights) => weights,
            Self::Deadline { .. } => Weights::energy_only(),
        }
    }

    /// The objective an iterate is traced and ranked by, and whether it may become the
    /// best iterate at all.
    fn rank(self, cost: &CostSummary) -> (f64, bool) {
        match self {
            Self::Weighted(weights) => (cost.objective(weights), true),
            Self::Deadline { round_deadline } => {
                (cost.total_energy_j, meets_deadline(cost.round_time_s, round_deadline))
            }
        }
    }
}

/// The Subproblem-2 half of an Algorithm-2 outer iteration, and the one place a
/// Subproblem-2 point becomes an allocation: both variants of the loop and the fixed-split
/// baselines (comm-only, Scheme 1) call it.
///
/// Restages the working allocation's `(p, B)` as the start point if `restage` is set,
/// solves Subproblem 2 under [`SolverWorkspace::r_min_bps`] over the lanes in
/// [`SolverWorkspace::arrays`] (which must describe `scenario`), counts the solve, copies
/// the solution's `(p, B)` into the working allocation (its frequencies are the caller's)
/// and projects it feasible. Returns the solve's summary and the allocation's cost.
///
/// # Errors
///
/// [`CoreError::Model`] if the rate floors or the lanes do not match the scenario, and
/// [`CoreError::SolverFailure`] if both Subproblem-2 solvers fail.
pub fn subproblem2_step(
    scenario: &Scenario,
    weights: Weights,
    config: &SolverConfig,
    restage: bool,
    ws: &mut SolverWorkspace,
) -> Result<(Sp2Summary, CostSummary), CoreError> {
    let SolverWorkspace { r_min_bps, sp2, allocation, counters, arrays, .. } = ws;
    if restage {
        sp2.stage_start(&allocation.powers_w, &allocation.bandwidths_hz);
    }
    let summary = sp2::solve_with_arrays_in(scenario, arrays, weights, r_min_bps, config, sp2)?;
    counters.record_sp2(&summary);
    allocation.powers_w.copy_from_slice(&sp2.solution().powers_w);
    allocation.bandwidths_hz.copy_from_slice(&sp2.solution().bandwidths_hz);
    allocation.project_feasible(scenario);
    let cost = scenario.cost_summary_arrays(arrays, allocation)?;
    Ok((summary, cost))
}

/// The `‖ϕ‖∞` tolerance a warm outer iteration hands Subproblem 2:
/// `max(phi_tol, min(FORCING_CEILING, FORCING_FACTOR · previous_change))`, where
/// `previous_change` is the previous outer iteration's `solution_change` (infinite before
/// the first). The next Subproblem-1 step moves the rate floors by about that change, so
/// precision beyond a fraction of it is thrown away; near the fixed point the tolerance
/// falls back to `phi_tol`.
fn sp2_phi_tol(phi_tol: f64, previous_change: f64) -> f64 {
    phi_tol.max(FORCING_CEILING.min(FORCING_FACTOR * previous_change))
}

/// Rate floors `r_n^min = d_n / (T − R_l c_n D_n / f_n)` implied by a round deadline `T`,
/// written into a caller-owned buffer (cleared first). Reads the [`ScenarioArrays`] lanes
/// (one zip, no per-device struct chasing); `rl` is the scenario's local-iteration count
/// `R_l`. A deadline that leaves no room for the upload asks for the fastest rate the model
/// plans for ([`rate_for_window`]); the sanitize pass will do its best.
///
/// With no pressure on time (`w2 = 0` and no explicit deadline handling by the caller) the
/// floors are zero — the paper's constraint (9a) is slack in that regime.
fn rate_floors_into(
    arrays: &ScenarioArrays,
    rl: f64,
    round_time_s: f64,
    frequencies_hz: &[f64],
    weights: Weights,
    out: &mut Vec<f64>,
) {
    out.clear();
    if weights.time() <= 0.0 && round_time_s.is_infinite() {
        out.resize(arrays.len(), 0.0);
        return;
    }
    let lanes = arrays.cycles_per_iter.iter().zip(&arrays.upload_bits).zip(frequencies_hz);
    out.extend(lanes.map(|((&cd, &d_bits), &f)| {
        rate_for_window(d_bits, round_time_s - computation_time(rl, cd, f))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::ScenarioBuilder;

    fn scenario(n: usize, seed: u64) -> Scenario {
        ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap()
    }

    fn optimizer() -> JointOptimizer {
        JointOptimizer::new(SolverConfig::fast())
    }

    #[test]
    fn solve_beats_equal_split_for_all_paper_weights() {
        let s = scenario(10, 31);
        let opt = optimizer();
        let naive = s.cost(&Allocation::equal_split_max(&s)).unwrap();
        for w in Weights::paper_sweep() {
            let out = opt.solve(&s, w).unwrap();
            assert!(out.allocation.is_feasible(&s, 1e-5), "infeasible at {w:?}");
            assert!(
                out.objective <= naive.objective(w) * (1.0 + 1e-9),
                "objective {} worse than naive {} at {w:?}",
                out.objective,
                naive.objective(w)
            );
        }
    }

    #[test]
    fn energy_decreases_as_w1_grows() {
        let s = scenario(10, 32);
        let opt = optimizer();
        let mut energies = Vec::new();
        let mut times = Vec::new();
        for w in Weights::paper_sweep() {
            let out = opt.solve(&s, w).unwrap();
            energies.push(out.total_energy_j);
            times.push(out.total_time_s);
        }
        // paper_sweep is ordered from w1 = 0.9 down to 0.1: energy should (weakly) increase
        // along the sweep and completion time should (weakly) decrease.
        for pair in energies.windows(2) {
            assert!(pair[1] >= pair[0] * (1.0 - 0.05), "energy not monotone: {energies:?}");
        }
        for pair in times.windows(2) {
            assert!(pair[1] <= pair[0] * (1.0 + 0.05), "time not monotone: {times:?}");
        }
    }

    #[test]
    fn watchdog_degrades_non_finite_objectives_to_a_typed_error() {
        // Frequencies around 1e169 Hz make κ·c·f² overflow to +inf for every feasible
        // frequency, so no outer iteration can produce a finite objective. The watchdog
        // must hand back the typed degradation (and count it) — never accept the
        // non-finite iterate as "best", never panic.
        let s = ScenarioBuilder::paper_default()
            .with_devices(4)
            .with_f_min_hz(1e160)
            .with_f_max_ghz(1e160)
            .build(7)
            .unwrap();
        let opt = optimizer();
        let mut ws = SolverWorkspace::new();
        let before = ws.counters;
        match opt.solve_summary_with(&s, Weights::new(0.5, 0.5).unwrap(), &mut ws) {
            Err(CoreError::NonFiniteObjective { iterations }) => {
                assert!(iterations >= 1, "the watchdog must have let the loop run");
            }
            other => panic!("expected NonFiniteObjective, got {other:?}"),
        }
        assert_eq!(ws.counters.since(&before).degraded_solves, 1);
        // The workspace stays usable: a healthy scenario solves fine right after.
        let healthy = scenario(4, 7);
        let out = opt.solve_summary_with(&healthy, Weights::new(0.5, 0.5).unwrap(), &mut ws);
        assert!(out.is_ok(), "degradation must not poison the workspace: {out:?}");
        assert_eq!(ws.counters.degraded_solves, 1, "healthy solve must not count");
    }

    #[test]
    fn an_expired_solve_deadline_degrades_without_poisoning_the_workspace() {
        let s = scenario(10, 35);
        let opt = optimizer();
        let mut ws = SolverWorkspace::new();

        // A budget that is already in the past must stop the solve at the first boundary
        // check — zero outer iterations, typed error, no hang.
        ws.solve_deadline = Some(std::time::Instant::now() - std::time::Duration::from_millis(1));
        match opt.solve_summary_with(&s, Weights::new(0.5, 0.5).unwrap(), &mut ws) {
            Err(CoreError::DeadlineExpired { iterations }) => assert_eq!(iterations, 0),
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        match opt.solve_with_deadline_summary_in(&s, 500.0, &mut ws) {
            Err(CoreError::DeadlineExpired { iterations }) => assert_eq!(iterations, 0),
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        // A deadline miss is a budget property, not workspace corruption: it must not be
        // counted as a degraded (non-finite) solve.
        assert_eq!(ws.counters.degraded_solves, 0);

        // The budget is a caller-managed input — clearing it restores normal behaviour,
        // and a generous budget never fires.
        ws.solve_deadline = None;
        opt.solve_summary_with(&s, Weights::new(0.5, 0.5).unwrap(), &mut ws).unwrap();
        ws.solve_deadline = Some(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        opt.solve_summary_with(&s, Weights::new(0.5, 0.5).unwrap(), &mut ws).unwrap();
        ws.solve_deadline = None;
    }

    #[test]
    fn quarantine_reset_restores_fresh_workspace_behaviour() {
        let s = scenario(8, 36);
        let opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(true));
        let mut ws = SolverWorkspace::new();
        let fresh = opt.solve_summary_with(&s, Weights::balanced(), &mut ws).unwrap();

        // Dirty everything a solve can dirty (plus the deadline input), then quarantine.
        let _ = opt.solve_summary_with(&s, Weights::balanced(), &mut ws);
        ws.solve_deadline = Some(std::time::Instant::now() + std::time::Duration::from_secs(1));
        ws.quarantine_reset();
        assert!(ws.solve_deadline.is_none(), "quarantine must drop the pending budget");
        assert_eq!(
            ws.counters,
            crate::trace::SolveCounters::default(),
            "quarantine must zero the counters"
        );
        let after = opt.solve_summary_with(&s, Weights::balanced(), &mut ws).unwrap();
        assert_eq!(fresh, after, "a quarantined workspace must behave like a fresh one");
    }

    #[test]
    fn time_only_matches_min_round_time() {
        let s = scenario(8, 33);
        let opt = optimizer();
        let out = opt.solve(&s, Weights::time_only()).unwrap();
        let (_, fastest) = opt.minimize_round_time(&s).unwrap();
        assert!((out.cost.round_time_s - fastest).abs() / fastest < 0.05);
    }

    #[test]
    fn deadline_constrained_meets_deadline() {
        let s = scenario(10, 34);
        let opt = optimizer();
        let (_, fastest_round) = opt.minimize_round_time(&s).unwrap();
        let deadline = fastest_round * s.params.rg() * 2.0;
        let out = opt.solve_with_deadline(&s, deadline).unwrap();
        assert!(
            out.total_time_s <= deadline * 1.01,
            "missed deadline: {} > {}",
            out.total_time_s,
            deadline
        );
        assert!(out.allocation.is_feasible(&s, 1e-5));
    }

    #[test]
    fn looser_deadline_never_costs_more_energy() {
        let s = scenario(10, 35);
        let opt = optimizer();
        let (_, fastest_round) = opt.minimize_round_time(&s).unwrap();
        let base = fastest_round * s.params.rg();
        let tight = opt.solve_with_deadline(&s, base * 1.2).unwrap();
        let loose = opt.solve_with_deadline(&s, base * 3.0).unwrap();
        assert!(
            loose.total_energy_j <= tight.total_energy_j * (1.0 + 0.02),
            "loose {} vs tight {}",
            loose.total_energy_j,
            tight.total_energy_j
        );
    }

    #[test]
    fn impossible_deadline_is_reported() {
        let s = scenario(6, 36);
        let opt = optimizer();
        let err = opt.solve_with_deadline(&s, 1e-3).unwrap_err();
        assert!(matches!(err, CoreError::InfeasibleDeadline { .. }));
        let err = opt.solve_with_deadline(&s, -1.0).unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
    }

    #[test]
    fn min_round_time_allocation_is_feasible_and_fast() {
        let s = scenario(12, 37);
        let opt = optimizer();
        let (alloc, round) = opt.minimize_round_time(&s).unwrap();
        assert!(alloc.is_feasible(&s, 1e-5));
        // It should be at least as fast as the naive equal split.
        let naive = s.cost(&Allocation::equal_split_max(&s)).unwrap();
        assert!(round <= naive.round_time_s * (1.0 + 1e-6));
    }

    /// The fastest round by the nested bisection the Newton search replaced: 90 halvings of
    /// the round time over a doubling bracket, each feasibility test summing per-device
    /// bandwidths found by bisection to 1e-10 relative. The oracle of the tests below.
    fn bisection_round_time(s: &Scenario, floor: f64) -> Result<(Allocation, f64), CoreError> {
        let n0 = s.params.noise.watts_per_hz();
        let b_total = s.params.total_bandwidth.value();
        let rl = s.params.rl();
        let t_cmp: Vec<f64> = s
            .devices
            .iter()
            .map(|d| rl * d.cycles_per_local_iteration() / d.f_max.value())
            .collect();
        let bandwidth_needed = |i: usize, t: f64| -> f64 {
            let dev = &s.devices[i];
            let budget = t - t_cmp[i];
            if budget <= 0.0 {
                return f64::INFINITY;
            }
            let r_req = dev.upload_bits / budget;
            let rate_at = |b: f64| shannon_rate_raw(dev.p_max.value(), b, dev.gain.value(), n0);
            if rate_at(b_total) < r_req {
                return f64::INFINITY;
            }
            let (mut lo, mut hi) = (floor, b_total);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if rate_at(mid) >= r_req {
                    hi = mid;
                } else {
                    lo = mid;
                }
                if (hi - lo) / hi < 1e-10 {
                    break;
                }
            }
            hi
        };
        let feasible = |t: f64| {
            let mut sum = 0.0;
            for i in 0..s.devices.len() {
                let b = bandwidth_needed(i, t);
                if !b.is_finite() {
                    return false;
                }
                sum += b;
                if sum > b_total {
                    return false;
                }
            }
            true
        };
        let t_lo = t_cmp.iter().cloned().fold(0.0, f64::max);
        let mut hi = t_lo.max(1e-6) * 2.0 + 1e-3;
        let mut expansions = 0;
        while !feasible(hi) && expansions < 80 {
            hi *= 2.0;
            expansions += 1;
        }
        let mut lo = t_lo;
        for _ in 0..90 {
            let mid = 0.5 * (lo + hi);
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let mut bandwidths: Vec<f64> =
            (0..s.devices.len()).map(|i| bandwidth_needed(i, hi).min(b_total)).collect();
        let used: f64 = bandwidths.iter().sum();
        if used < b_total && used > 0.0 {
            bandwidths.iter_mut().for_each(|b| *b *= b_total / used);
        }
        let mut allocation = Allocation::new(
            s.devices.iter().map(|d| d.p_max.value()).collect(),
            s.devices.iter().map(|d| d.f_max.value()).collect(),
            bandwidths,
        );
        allocation.project_feasible(s);
        let cost = s.cost(&allocation)?;
        Ok((allocation, cost.round_time_s))
    }

    #[test]
    fn newton_round_time_matches_the_nested_bisection() {
        let opt = optimizer();
        let floor = opt.config().bandwidth_floor_hz;
        for n in [1, 2, 10, 50, 500] {
            for p_max_dbm in [0.0, 5.0, 12.0, 20.0] {
                for seed in 1..=6 {
                    let s = ScenarioBuilder::paper_default()
                        .with_devices(n)
                        .with_p_max_dbm(p_max_dbm)
                        .build(seed)
                        .unwrap();
                    let (alloc, round) = opt.minimize_round_time(&s).unwrap();
                    let (_, oracle) = bisection_round_time(&s, floor).unwrap();
                    let gap = (round - oracle).abs() / oracle;
                    assert!(
                        gap <= 1e-10,
                        "n = {n}, {p_max_dbm} dBm, seed {seed}: {round} vs {oracle} ({gap:e})"
                    );
                    assert!(alloc.is_feasible(&s, 1e-9), "n = {n}, {p_max_dbm} dBm, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn a_device_out_of_reach_ends_as_the_nested_bisection_does() {
        let opt = optimizer();
        let floor = opt.config().bandwidth_floor_hz;
        // A gain at which p_max carries no rate on the whole band (the Shannon rate rounds
        // to zero), and one at which it carries so little that a round takes ~10⁹ s.
        for gain in [1e-40, 1e-24] {
            let mut s = scenario(5, 3);
            s.devices[2].gain = wireless::channel::ChannelGain::new(gain);
            let (alloc, round) = opt.minimize_round_time(&s).unwrap();
            let (_, oracle) = bisection_round_time(&s, floor).unwrap();
            assert!(alloc.is_feasible(&s, 1e-9), "gain {gain}");
            if oracle.is_finite() {
                assert!((round - oracle).abs() <= 1e-10 * oracle, "{round} vs {oracle}");
            } else {
                assert_eq!(round, oracle, "gain {gain}");
            }
        }
        // With no rate at all, no deadline is met, and the error says so.
        let mut s = scenario(5, 3);
        s.devices[2].gain = wireless::channel::ChannelGain::new(1e-40);
        match opt.solve_with_deadline(&s, 1e300) {
            Err(CoreError::InfeasibleDeadline { achievable_s, .. }) => {
                assert_eq!(achievable_s, f64::INFINITY)
            }
            other => panic!("expected InfeasibleDeadline, got {other:?}"),
        }
        // Nor is any round finite, so the weighted solve degrades to the typed error.
        match opt.solve(&s, Weights::balanced()) {
            Err(CoreError::NonFiniteObjective { .. }) => {}
            other => panic!("expected NonFiniteObjective, got {other:?}"),
        }
    }

    #[test]
    fn trace_records_iterations_and_best_objective_is_returned() {
        let s = scenario(8, 38);
        let opt = optimizer();
        let out = opt.solve(&s, Weights::balanced()).unwrap();
        assert!(!out.trace.is_empty());
        let best_traced = out.trace.best_objective().unwrap();
        assert!(out.objective <= best_traced * (1.0 + 1e-9));
    }

    #[test]
    fn warm_start_matches_cold_within_outer_tol_and_saves_iterations() {
        let s = scenario(10, 40);
        let cold_opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(false));
        let warm_opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(true));
        for w in Weights::paper_sweep() {
            let mut cold_ws = SolverWorkspace::new();
            let mut warm_ws = SolverWorkspace::new();
            let cold = cold_opt.solve_summary_with(&s, w, &mut cold_ws).unwrap();
            let warm = warm_opt.solve_summary_with(&s, w, &mut warm_ws).unwrap();

            let rel = (warm.objective - cold.objective).abs() / cold.objective;
            assert!(
                rel <= cold_opt.config().outer_tol,
                "warm {} vs cold {} (rel {rel}) at {w:?}",
                warm.objective,
                cold.objective
            );
            assert_eq!(warm.converged, cold.converged, "convergence flags diverged at {w:?}");
            assert!(warm_ws.best.is_feasible(&s, 1e-5));

            // The continuation must do less inner work, not just different work.
            assert!(
                warm_ws.counters.jong_iterations <= cold_ws.counters.jong_iterations,
                "warm jong {} > cold {} at {w:?}",
                warm_ws.counters.jong_iterations,
                cold_ws.counters.jong_iterations
            );
            assert!(
                warm_ws.counters.mu_bisect_evals < cold_ws.counters.mu_bisect_evals,
                "warm μ evals {} not below cold {} at {w:?}",
                warm_ws.counters.mu_bisect_evals,
                cold_ws.counters.mu_bisect_evals
            );
        }
    }

    #[test]
    fn warm_start_deadline_variant_meets_deadline_and_matches_cold_energy() {
        let s = scenario(10, 41);
        let cold_opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(false));
        let warm_opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(true));
        let (_, fastest_round) = cold_opt.minimize_round_time(&s).unwrap();
        let deadline = fastest_round * s.params.rg() * 1.8;

        let cold = cold_opt.solve_with_deadline(&s, deadline).unwrap();
        let mut warm_ws = SolverWorkspace::new();
        let warm = warm_opt.solve_with_deadline_summary_in(&s, deadline, &mut warm_ws).unwrap();

        assert!(warm.total_time_s <= deadline * 1.01, "warm run missed the deadline");
        assert!(warm_ws.best.is_feasible(&s, 1e-5));
        let rel = (warm.total_energy_j - cold.total_energy_j).abs() / cold.total_energy_j;
        assert!(
            rel <= 1e-2,
            "warm deadline energy {} vs cold {} (rel {rel})",
            warm.total_energy_j,
            cold.total_energy_j
        );
    }

    /// Asserts every traced Subproblem-2 tolerance of a solve under `config` against the
    /// inexact-alternation rule; `starts` are the trace indices at which a run of the
    /// alternation begins.
    fn assert_sp2_phi_tol_rule(trace: &[OuterIteration], config: &SolverConfig, starts: &[usize]) {
        let phi_tol = config.jong.phi_tol;
        for (i, it) in trace.iter().enumerate() {
            let expected = if !config.warm_start {
                phi_tol
            } else if starts.contains(&i) {
                phi_tol.max(1e-2)
            } else {
                phi_tol.max(f64::min(1e-2, 0.3 * trace[i - 1].solution_change))
            };
            assert_eq!(it.sp2_phi_tol, expected, "entry k = {} (warm {})", it.k, config.warm_start);
        }
    }

    #[test]
    fn warm_sp2_tolerance_follows_the_previous_change_and_cold_keeps_phi_tol() {
        let s = scenario(10, 45);
        for preset in [SolverConfig::default(), SolverConfig::fast()] {
            for warm in [false, true] {
                let config = preset.with_warm_start(warm);
                let opt = JointOptimizer::new(config);

                let weighted = opt.solve(&s, Weights::balanced()).unwrap().trace.iterations;
                assert!(weighted.len() > 1, "the weighted loop must iterate (warm {warm})");
                assert_sp2_phi_tol_rule(&weighted, &config, &[0]);

                // The deadline variant runs the loop twice, from two seeds; the second run
                // starts after the first entry that stopped the first, or at the cap.
                let (_, fastest_round) = opt.minimize_round_time(&s).unwrap();
                let deadline = fastest_round * s.params.rg() * 1.8;
                let trace = opt.solve_with_deadline(&s, deadline).unwrap().trace.iterations;
                let second = trace
                    .iter()
                    .position(|it| it.solution_change <= config.outer_tol)
                    .map_or(config.outer_max_iter, |i| i + 1);
                assert!(second < trace.len(), "no second deadline run (warm {warm})");
                assert_sp2_phi_tol_rule(&trace, &config, &[0, second]);
            }
        }
    }

    #[test]
    fn warm_workspace_is_deterministic_after_reset() {
        // The engine's determinism hinges on reset_warm_start(): a reused warm workspace,
        // once reset, must reproduce the fresh-workspace warm result bit for bit.
        let opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(true));
        let a = scenario(9, 42);
        let b = scenario(6, 43);

        let fresh = opt.solve_with(&b, Weights::balanced(), &mut SolverWorkspace::new()).unwrap();
        let mut reused = SolverWorkspace::new();
        opt.solve_with(&a, Weights::balanced(), &mut reused).unwrap(); // dirty the warm state
        reused.reset_warm_start();
        let after_reset = opt.solve_with(&b, Weights::balanced(), &mut reused).unwrap();
        assert_eq!(after_reset, fresh, "reset_warm_start must restore fresh behaviour");
    }

    #[test]
    fn trace_records_sp2_iterations_and_fast_path_hits_are_counted() {
        let s = scenario(8, 44);
        let warm_opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(true));
        let mut ws = SolverWorkspace::new();
        let out = warm_opt.solve_with(&s, Weights::balanced(), &mut ws).unwrap();
        assert!(!out.trace.is_empty());
        // Jong iterations recorded per outer iteration must sum to the workspace total.
        let traced: u64 = out.trace.iterations.iter().map(|it| it.sp2_iterations as u64).sum();
        assert_eq!(traced, ws.counters.jong_iterations);
        assert_eq!(ws.counters.outer_iterations, out.trace.len() as u64);
        assert_eq!(ws.counters.jong_iterations, ws.counters.kkt_solves);
    }

    #[test]
    fn rate_floors_shrink_with_looser_deadline() {
        let s = scenario(5, 39);
        let freqs: Vec<f64> = s.devices.iter().map(|d| d.f_max.value()).collect();
        let arrays = ScenarioArrays::from_scenario(&s);
        let floors = |round_time_s| {
            let mut out = Vec::new();
            let (rl, w) = (s.params.rl(), Weights::balanced());
            rate_floors_into(&arrays, rl, round_time_s, &freqs, w, &mut out);
            out
        };
        let (tight, loose) = (floors(0.1), floors(1.0));
        for (t, l) in tight.iter().zip(&loose) {
            assert!(t > l);
        }
    }
}
