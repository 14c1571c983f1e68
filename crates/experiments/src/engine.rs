//! The parallel sweep engine behind every figure of the evaluation.
//!
//! The paper's protocol (Section VII) averages each figure point over many random scenario
//! draws (100 per point in the paper's setup). That grid — sweep point × scheme ("arm") ×
//! scenario seed — is embarrassingly parallel, and this module evaluates it as such: a
//! [`SweepGrid`] declares the cells, a [`SweepEngine`] evaluates them across threads, and
//! the per-(point, arm) results are reduced into [`Aggregate`]s (mean / standard deviation /
//! feasible-sample count) that the spec's reports render as [`FigureReport`]s.
//!
//! # Cell-group architecture
//!
//! The unit of parallel work is a **(point, seed) cell-group**, not a single cell. All arms
//! at a sweep point see the same scenario realisation per seed, so the engine builds each
//! scenario **once** per group and evaluates every arm of the group against the shared
//! build by reference — scenario builds drop from `points × arms × seeds` to
//! `points × seeds`. Arms that specialise their builder via [`Arm::prepare`] (Figures 5 and
//! 6 sweep per-arm device/round counts) are grouped by *identical prepared builder*, so
//! only genuinely distinct scenarios are built. [`SweepResult::counters`] reports scenarios
//! built vs cells evaluated; a regression test asserts that every arm's column is
//! bit-identical to the same arm run alone in a one-arm grid, where nothing is shared.
//!
//! Each worker thread owns one [`SolverWorkspace`] for its whole share of the grid and
//! threads it through [`CellContext::workspace`], so the solver hot path reuses one set of
//! per-device buffers instead of allocating per cell (the workspace is pure scratch — see
//! `fedopt_core::workspace` for the contract).
//!
//! # Seeding scheme
//!
//! Determinism is independent of thread count and scheduling because no randomness flows
//! through iteration order; every cell's inputs are pure functions of its *coordinates*:
//!
//! * **Scenario stream** — the cell's scenario is `builder.build(seed)`, where `seed` is the
//!   cell's entry from [`SweepGrid::seeds`] and the builder is derived from the cell's point
//!   (and arm, via [`Arm::prepare`]) alone. Every arm at a sweep point therefore sees *the
//!   same* scenario realisations — schemes are compared on identical draws, as in the paper
//!   (the cell-group sharing above merely stops re-building what is identical by
//!   construction).
//! * **Arm stream** — arms with internal randomness (the random benchmark) must not reuse
//!   the scenario seed, or their draws would be correlated with the channel realisations.
//!   Each cell carries [`CellContext::stream_seed`], produced by
//!   [`baselines::derive_stream_seed`] from the base seed (historically `seed ^ 0x9e37_79b9`,
//!   now defined in exactly one place).
//! * **Reduction order** — per-(point, arm) outputs are reduced sequentially in seed order
//!   (chunks of one point's seeds folded in order, see [`SweepEngine::run`]), so
//!   floating-point sums are bit-identical between a single-threaded and an N-threaded run
//!   and to the materialized [`SweepEngine::run_cells`] (verified by regression tests,
//!   one against the historical sequential helpers).
//!
//! Cells that report infeasibility ([`Arm::evaluate`] returning `Ok(None)`) are recorded,
//! not averaged: an [`Aggregate`] with `count == 0` keeps `NaN` means but the per-cell
//! sample counts travel with the [`FigureReport`], so "no feasible draw" is a labelled
//! condition instead of a silent `NaN`.
//!
//! Threading is one scheduler, `fold_in_order`: scoped `std::thread` workers claim work
//! items in increasing order and their outputs are folded in item order, at most a window
//! of items ahead of the fold. [`SweepEngine::run`] and [`SweepEngine::run_cells`] run the
//! same (point, seed-chunk) work body on it and differ only in the fold; the round
//! simulator and the fleet coordinator use it too. The environment cannot fetch `rayon`,
//! and the engine needs nothing more.
//!
//! [`FigureReport`]: crate::report::FigureReport

use crate::spec::section;
use fedopt_core::{CoreError, SolveCounters, SolverConfig, SolverWorkspace};
use flsys::{Scenario, ScenarioBuilder};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// One evaluated cell: the totals the figures plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutput {
    /// Total energy consumption in joules.
    pub energy_j: f64,
    /// Total completion time in seconds.
    pub time_s: f64,
}

impl CellOutput {
    /// Creates a cell output from the two totals.
    pub fn new(energy_j: f64, time_s: f64) -> Self {
        Self { energy_j, time_s }
    }
}

/// The coordinates, derived seeds and per-worker scratch of the cell being evaluated.
#[derive(Debug)]
pub struct CellContext<'a> {
    /// The sweep point's x value (e.g. `p_max` in dBm for Figure 2, the deadline in seconds
    /// for Figure 7).
    pub x: f64,
    /// The base (scenario) seed of this cell.
    pub seed: u64,
    /// The decorrelated stream seed for arm-internal randomness
    /// ([`baselines::derive_stream_seed`] of [`Self::seed`]).
    pub stream_seed: u64,
    /// Index of the sweep point within [`SweepGrid::points`].
    pub point_idx: usize,
    /// Index of the arm within [`SweepGrid::arms`].
    pub arm_idx: usize,
    /// Whether this sweep runs with the warm-start continuation
    /// ([`SweepEngine::with_warm_start`]). Arms must gate their solver configuration
    /// through [`CellContext::solver_config`] so the engine-level switch wins over
    /// whatever the arm was constructed with.
    pub warm_start: bool,
    /// Whether this sweep finds the bandwidth price `μ` by the superlinear (Newton) search
    /// rather than the legacy bisection ([`SweepEngine::with_superlinear_mu`]); gated
    /// through [`CellContext::solver_config`] like [`Self::warm_start`].
    pub superlinear_mu: bool,
    /// Whether warm-started solves of this sweep run the Newton `μ` search from the carried
    /// price rather than the legacy fixed warm bracket
    /// ([`SweepEngine::with_adaptive_mu_bracket`]); gated through
    /// [`CellContext::solver_config`] like [`Self::warm_start`].
    pub adaptive_mu_bracket: bool,
    /// Whether the solve may re-open Algorithm 2's outer loop at the workspace's carried
    /// best allocation (`SolverConfig::outer_continuation`). Always `false` in sweeps —
    /// every cell must have a trajectory independent of workspace history — and enabled
    /// per request by the serving loop (`crate::serve`) on a warm-cache hit, where the
    /// fingerprint guarantees the carried state belongs to the same problem.
    pub outer_continuation: bool,
    /// The worker thread's reusable solver workspace. Pure scratch (see
    /// `fedopt_core::workspace` for the contract): arms may hand it to any `*_with` solver
    /// entry point but must not expect state to survive between cells. With warm start
    /// enabled, solver state *does* carry between the cells of one (point, seed, scenario)
    /// group — in the grid's fixed arm order, reset by the engine at every group boundary,
    /// so results stay bit-identical across thread counts.
    pub workspace: &'a mut SolverWorkspace,
}

impl CellContext<'_> {
    /// The arm's solver configuration with the engine's warm-start switch applied: the
    /// sweep-level [`SweepEngine::with_warm_start`] decision overrides the config the arm
    /// was built with, so one engine flag flips the whole grid between the bit-exact cold
    /// reference path and the warm continuation.
    pub fn solver_config(&self, base: &SolverConfig) -> SolverConfig {
        base.with_warm_start(self.warm_start)
            .with_superlinear_mu(self.superlinear_mu)
            .with_adaptive_mu_bracket(self.adaptive_mu_bracket)
            .with_outer_continuation(self.outer_continuation)
    }
}

/// One scheme being swept: a column of the resulting figure.
///
/// Implementations must be [`Send`] + [`Sync`]; the engine shares them across worker
/// threads by reference and must never observe interior mutability across cells (that
/// would break run-to-run determinism). Per-cell mutable scratch belongs in
/// [`CellContext::workspace`], which the engine owns per worker thread.
pub trait Arm: Send + Sync {
    /// The column name, e.g. `"proposed w1=0.9,w2=0.1"` or `"benchmark"`.
    fn name(&self) -> String;

    /// Hook to specialise the sweep point's scenario builder for this arm (e.g. Figure 5's
    /// per-series device counts). The default keeps the point's builder unchanged.
    ///
    /// Arms whose prepared builders compare equal (the default does, trivially) share one
    /// scenario build per (point, seed) cell-group.
    fn prepare(&self, builder: &ScenarioBuilder) -> ScenarioBuilder {
        builder.clone()
    }

    /// Evaluates one cell. `Ok(None)` marks an infeasible cell (skipped by the aggregate,
    /// counted in [`Aggregate::attempts`] only); errors abort the sweep.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] other than "this cell is infeasible" (which is `Ok(None)`).
    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError>;
}

/// One sweep point: the x value and the scenario builder all arms share there.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// The x-axis value this point is plotted at.
    pub x: f64,
    /// Builder for the scenarios of this point (before [`Arm::prepare`]).
    pub builder: ScenarioBuilder,
}

/// The declarative evaluation grid: points × arms × seeds.
pub struct SweepGrid {
    /// The sweep points, in x-axis order.
    pub points: Vec<GridPoint>,
    /// The schemes, in column order.
    pub arms: Vec<Box<dyn Arm>>,
    /// The base scenario seeds averaged over, shared by every (point, arm).
    pub seeds: Vec<u64>,
}

impl SweepGrid {
    /// Creates an empty grid over the given scenario seeds.
    pub fn new(seeds: impl Into<Vec<u64>>) -> Self {
        Self { points: Vec::new(), arms: Vec::new(), seeds: seeds.into() }
    }

    /// Adds a sweep point.
    #[must_use]
    pub fn point(mut self, x: f64, builder: ScenarioBuilder) -> Self {
        self.points.push(GridPoint { x, builder });
        self
    }

    /// Adds an arm (column).
    #[must_use]
    pub fn arm(mut self, arm: impl Arm + 'static) -> Self {
        self.arms.push(Box::new(arm));
        self
    }

    /// Total number of cells the grid will evaluate.
    pub fn num_cells(&self) -> usize {
        self.points.len() * self.arms.len() * self.seeds.len()
    }
}

/// Mean / spread / sample-count summary of one (point, arm) across the seed draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Mean total energy over the feasible draws (`NaN` when `count == 0`).
    pub mean_energy_j: f64,
    /// Mean total completion time over the feasible draws (`NaN` when `count == 0`).
    pub mean_time_s: f64,
    /// Population standard deviation of the energy over the feasible draws.
    pub std_energy_j: f64,
    /// Population standard deviation of the completion time over the feasible draws.
    pub std_time_s: f64,
    /// Number of feasible draws behind the means.
    pub count: usize,
    /// Number of draws evaluated (feasible or not).
    pub attempts: usize,
}

impl Aggregate {
    /// Reduces the per-seed outputs of one (point, arm), in seed order.
    ///
    /// Defined as "push every sample into an [`AggregateAccumulator`] in seed order", so
    /// this materializing reduction and the streaming reduction are the *same* fold — one
    /// fed from a slice, one fed sample by sample — and therefore bit-identical by
    /// construction, regardless of which threads produced the samples.
    pub fn from_samples(samples: &[Option<CellOutput>]) -> Self {
        let mut acc = AggregateAccumulator::new();
        for sample in samples {
            acc.push(*sample);
        }
        acc.finish()
    }
}

/// Constant-memory accumulator behind every [`Aggregate`]: one per (point, arm), fed the
/// per-seed outputs *in seed order*.
///
/// Means are running sums (`Σx / n`, folded left to right — the historical summation
/// order), standard deviations use Welford's online update. The fold is a pure function of
/// the sample sequence, so any reduction that feeds samples in seed order — the
/// materializing [`Aggregate::from_samples`] or the engine's streaming chunk merge —
/// produces bit-identical aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggregateAccumulator {
    attempts: usize,
    count: usize,
    sum_energy: f64,
    sum_time: f64,
    welford_mean_energy: f64,
    m2_energy: f64,
    welford_mean_time: f64,
    m2_time: f64,
}

impl AggregateAccumulator {
    /// A fresh accumulator (zero samples).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in the next seed's output (`None` = infeasible draw: counted, not averaged).
    pub fn push(&mut self, sample: Option<CellOutput>) {
        self.attempts += 1;
        if let Some(s) = sample {
            self.count += 1;
            let n = self.count as f64;
            self.sum_energy += s.energy_j;
            self.sum_time += s.time_s;
            let de = s.energy_j - self.welford_mean_energy;
            self.welford_mean_energy += de / n;
            self.m2_energy += de * (s.energy_j - self.welford_mean_energy);
            let dt = s.time_s - self.welford_mean_time;
            self.welford_mean_time += dt / n;
            self.m2_time += dt * (s.time_s - self.welford_mean_time);
        }
    }

    /// Folds a contiguous run of per-seed outputs into this accumulator, in slice order.
    ///
    /// This is the merge operation of the sharded fleet path: a shard ships the raw
    /// `Option<CellOutput>` samples of its seed sub-range (not its partial sums — float
    /// addition is not associative, so merging sums would *not* reproduce the
    /// single-process bits), and the coordinator replays each shard's slice into the
    /// per-(point, arm) accumulator in shard order. Because the shards partition the seed
    /// range in order, the replayed fold is literally the same sequence of
    /// [`AggregateAccumulator::push`] calls a single-process run performs — bit-identical
    /// by construction.
    pub fn merge_samples(&mut self, samples: &[Option<CellOutput>]) {
        for sample in samples {
            self.push(*sample);
        }
    }

    /// The aggregate of everything pushed so far.
    pub fn finish(&self) -> Aggregate {
        if self.count == 0 {
            return Aggregate {
                mean_energy_j: f64::NAN,
                mean_time_s: f64::NAN,
                std_energy_j: f64::NAN,
                std_time_s: f64::NAN,
                count: 0,
                attempts: self.attempts,
            };
        }
        let n = self.count as f64;
        Aggregate {
            mean_energy_j: self.sum_energy / n,
            mean_time_s: self.sum_time / n,
            std_energy_j: (self.m2_energy / n).sqrt(),
            std_time_s: (self.m2_time / n).sqrt(),
            count: self.count,
            attempts: self.attempts,
        }
    }
}

section! {
    /// Work counters of one sweep: how many scenarios were actually built versus how many
    /// cells were evaluated against them. A shard document carries them as its `counters`
    /// member.
    ///
    /// With arms that don't specialise their builder, `scenarios_built == points × seeds`
    /// while `cells_evaluated == points × arms × seeds` — the build cost is amortised across
    /// the arm count. Both counters are deterministic (independent of thread count); a sweep
    /// that fails returns its error instead.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SweepCounters {
        /// Number of `ScenarioBuilder::build` calls the sweep performed.
        scenarios_built: usize;
        /// Number of [`Arm::evaluate`] calls the sweep performed.
        cells_evaluated: usize;
        /// Solver-stack iteration totals (outer, Jong, KKT, `μ`-bisection, fast-path hits)
        /// summed over every cell — the evidence that warm starting saves iterations, not
        /// just wall clock. Deterministic for a successful sweep, independent of thread
        /// count.
        solver: SolveCounters;
    }
}

impl SweepCounters {
    /// Folds another run's counters into this one. Every field is an exact integer sum,
    /// so merging per-shard counters in any order reproduces the single-process totals —
    /// the counter half of the fleet-merge bit-identity contract (the float half lives in
    /// [`AggregateAccumulator::merge_samples`]).
    pub fn merge(&mut self, other: &Self) {
        self.scenarios_built += other.scenarios_built;
        self.cells_evaluated += other.cells_evaluated;
        self.solver.add(&other.solver);
    }
}

/// The evaluated grid: one [`Aggregate`] per (point, arm).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The x value of every sweep point, in grid order.
    pub xs: Vec<f64>,
    /// The arm (column) names, in grid order.
    pub arm_names: Vec<String>,
    /// `aggregates[point_idx][arm_idx]`.
    pub aggregates: Vec<Vec<Aggregate>>,
    /// Scenario-build vs cell-evaluation counters of the run.
    pub counters: SweepCounters,
}

/// Environment variable read by [`SweepEngine::new`] to pin the default worker count
/// (positive integer; anything else is ignored). CI uses it to run the whole test suite
/// through both the sequential and the multi-worker scheduling path.
pub const THREADS_ENV: &str = "FEDOPT_SWEEP_THREADS";

/// Environment variable read by [`SweepEngine::new`] to set the default warm-start switch
/// (`1`/`true` enables, `0`/`false` disables; anything else is ignored and the default —
/// **on**, the warm continuation — applies). `FEDOPT_WARM_START=0` is the escape hatch
/// back to the bit-exact cold reference path. CI runs the whole test suite with the warm
/// continuation both on and off; tests that pin bit-exact reference outputs force
/// [`SweepEngine::with_warm_start`]`(false)` explicitly.
pub const WARM_START_ENV: &str = "FEDOPT_WARM_START";

/// The most seeds one work item holds. A chunk of one point's seeds is the unit of parallel
/// work of [`SweepEngine::run`] and [`SweepEngine::run_cells`]; larger chunks amortise
/// reduction overhead on 10⁴-draw grids, and the engine shrinks chunks below this cap when
/// a grid would otherwise yield too few work items to keep every worker busy (a few-point,
/// 100-seed paper grid on a many-core host). Output is bit-identical for every chunk size —
/// chunks are folded in order, seeds in order within each chunk.
pub const DEFAULT_SEED_CHUNK: usize = 64;

/// The [`WARM_START_ENV`] setting, if the environment states one explicitly: `Some(true)`
/// / `Some(false)` for a recognised value, `None` when unset or unparseable.
///
/// [`SweepEngine::new`] folds this into its default; the spec layer consults it directly
/// because an explicit environment setting outranks a spec's own `warm_start` default
/// (`FEDOPT_WARM_START=0` must force any sweep cold).
pub fn warm_start_env() -> Option<bool> {
    std::env::var(WARM_START_ENV).ok().and_then(|v| match v.trim() {
        "1" | "true" | "TRUE" | "True" => Some(true),
        "0" | "false" | "FALSE" | "False" => Some(false),
        _ => None,
    })
}

/// Evaluates [`SweepGrid`]s in parallel with deterministic output.
#[derive(Debug, Clone, Copy)]
pub struct SweepEngine {
    threads: NonZeroUsize,
    /// Cap on seeds per work item: [`DEFAULT_SEED_CHUNK`] (unit tests set other
    /// values through struct-update syntax).
    seed_chunk: usize,
    warm_start: bool,
    superlinear_mu: bool,
    adaptive_mu_bracket: bool,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine using all available CPU parallelism (or the [`THREADS_ENV`] override) and
    /// the [`WARM_START_ENV`] default for the warm-start switch.
    pub fn new() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .and_then(NonZeroUsize::new)
            .unwrap_or_else(|| std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN));
        let warm_start = warm_start_env().unwrap_or(true);
        Self {
            threads,
            seed_chunk: DEFAULT_SEED_CHUNK,
            warm_start,
            superlinear_mu: true,
            adaptive_mu_bracket: true,
        }
    }

    /// An engine with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is nonzero"),
            ..Self::new()
        }
    }

    /// A sequential engine — useful as the reference in determinism tests.
    pub fn single_thread() -> Self {
        Self::with_threads(1)
    }

    /// Enables or disables the warm-start continuation for every arm of the sweep
    /// (default: the [`WARM_START_ENV`] setting, on when unset). With warm start on, the
    /// solver carries Jong multipliers, bandwidth prices `μ` and rate floors between the
    /// outer iterations of each solve **and** across the arms of one (point, seed,
    /// scenario) cell-group — in the grid's fixed arm order, reset at every group boundary,
    /// so the output is still bit-identical across thread counts (just not bit-identical to
    /// the cold path: warm solves converge to the same fixed point within the solver
    /// tolerances along a cheaper trajectory). `with_warm_start(false)` is the bit-exact
    /// cold reference path regardless of the arms' own configs.
    #[must_use]
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Whether this engine runs sweeps with the warm-start continuation.
    pub fn warm_starts(&self) -> bool {
        self.warm_start
    }

    /// Enables or disables the superlinear (Newton) `μ` search for every arm of the sweep
    /// (default: enabled). `with_superlinear_mu(false)` is the legacy pure-bisection
    /// reference path — kept selectable so the historical goldens remain reproducible
    /// bit for bit (see `SolverConfig::superlinear_mu`).
    #[must_use]
    pub fn with_superlinear_mu(mut self, superlinear_mu: bool) -> Self {
        self.superlinear_mu = superlinear_mu;
        self
    }

    /// Whether this engine runs sweeps with the superlinear (Newton) `μ` search.
    pub fn superlinear_mu(&self) -> bool {
        self.superlinear_mu
    }

    /// Enables or disables the warm Newton `μ` search for every arm of the sweep (default:
    /// enabled). With it on, a warm-started solve starts Newton from the price its
    /// worker's KKT scratch carries from the previous solve, and near-stationary arms of a
    /// cell-group resolve `μ` in one or two `g'(μ)` passes.
    /// `with_adaptive_mu_bracket(false)` restores the legacy fixed-width warm bracket
    /// refined by Brent (see `SolverConfig::adaptive_mu_bracket`); cold solves
    /// (`with_warm_start(false)`, or the first solve after a reset) run Newton either way.
    #[must_use]
    pub fn with_adaptive_mu_bracket(mut self, adaptive_mu_bracket: bool) -> Self {
        self.adaptive_mu_bracket = adaptive_mu_bracket;
        self
    }

    /// Whether this engine runs warm sweeps with the Newton `μ` search.
    pub fn adaptive_mu_bracket(&self) -> bool {
        self.adaptive_mu_bracket
    }

    /// The effective seeds-per-chunk for a grid: the cap, shrunk (never grown) until the
    /// grid yields at least ~4 work items per worker, so a sweep never schedules coarser
    /// than the worker pool can use. At the floor of 1 seed per chunk a work item is one
    /// (point, seed) cell-group.
    fn effective_seed_chunk(&self, n_points: usize, n_seeds: usize) -> usize {
        let mut chunk = self.seed_chunk;
        if n_points == 0 || n_seeds == 0 {
            return chunk;
        }
        let target_items = self.threads() * 4;
        if n_points * n_seeds.div_ceil(chunk) < target_items {
            let chunks_per_point = target_items.div_ceil(n_points);
            chunk = (n_seeds / chunks_per_point).max(1);
        }
        chunk
    }

    /// The worker count this engine will use.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Evaluates every cell of the grid and reduces the per-(point, arm) aggregates.
    ///
    /// The work item is a chunk of one point's seeds (at most [`DEFAULT_SEED_CHUNK`]): per
    /// seed, the scenario is built once per set of arms whose prepared builders compare
    /// equal, and every arm of the set evaluates against the shared build by reference.
    /// The chunks fold into per-(point, arm) [`AggregateAccumulator`]s in item order, seeds
    /// in order within each chunk, so the result is bit-identical across thread counts and
    /// chunk sizes, and to the materialized `run_cells(grid)?.into_sweep_result()`,
    /// which runs the same work body with another fold. No chunk is claimed more than
    /// 4 × workers items ahead of the fold, so peak memory is `O(points × arms)`
    /// accumulators plus `O(workers × arms × chunk)` pending cell outputs — independent of
    /// the seed count, which is what makes `--seeds 10000` grids feasible.
    ///
    /// # Errors
    ///
    /// A hard cell error aborts the sweep: workers stop claiming work as soon as one cell
    /// fails, and in-flight chunks abandon their remaining cells at the next cell boundary
    /// (the cell being solved still finishes), so a deterministic early failure does not
    /// burn through the rest of an expensive grid. The error surfaced is the failing cell of
    /// the lowest work item among those evaluated — with one thread the work runs in order,
    /// so that is the first error the run hit; with more, scheduling decides which failing
    /// cells were reached first. Infeasible cells (`Ok(None)`) are not errors.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepResult, CoreError> {
        let n_arms = grid.arms.len();
        let mut accumulators = vec![AggregateAccumulator::new(); grid.points.len() * n_arms];
        let counters = self.sweep(grid, 4 * self.threads(), |point, arm, _, samples| {
            accumulators[point * n_arms + arm].merge_samples(samples);
        })?;
        let aggregates: Vec<Vec<Aggregate>> = (0..grid.points.len())
            .map(|p| (0..n_arms).map(|a| accumulators[p * n_arms + a].finish()).collect())
            .collect();
        Ok(SweepResult {
            xs: grid.points.iter().map(|p| p.x).collect(),
            arm_names: grid.arms.iter().map(|a| a.name()).collect(),
            aggregates,
            counters,
        })
    }

    /// Evaluates every cell of the grid and returns the **raw** per-cell outputs in
    /// `(point, arm, seed)` slot order, without reducing them to aggregates.
    ///
    /// This is the worker half of the sharded fleet path ([`crate::shard`]): a shard runs
    /// `run_cells` on its seed sub-range and ships the samples, and the coordinator
    /// replays them through [`AggregateAccumulator::merge_samples`] in shard order —
    /// reproducing the single-process [`SweepEngine::run`] reduction bit for bit. It runs
    /// the work body of [`SweepEngine::run`] and differs only in the fold, which writes
    /// each chunk's samples to their slots; since the matrix keeps every output anyway,
    /// claims may run any distance ahead of the fold. Memory is `O(points × arms × seeds)`
    /// samples, which is exactly the payload a shard has to ship. Tests use
    /// [`CellMatrix::into_sweep_result`] of it as the materialized reference for
    /// [`SweepEngine::run`].
    ///
    /// # Errors
    ///
    /// Same contract as [`SweepEngine::run`].
    pub fn run_cells(&self, grid: &SweepGrid) -> Result<CellMatrix, CoreError> {
        let (n_arms, n_seeds) = (grid.arms.len(), grid.seeds.len());
        let mut samples = vec![None; grid.num_cells()];
        let counters = self.sweep(grid, usize::MAX, |point, arm, seeds, cells| {
            let base = (point * n_arms + arm) * n_seeds;
            samples[base + seeds.start..base + seeds.end].copy_from_slice(cells);
        })?;
        Ok(CellMatrix {
            xs: grid.points.iter().map(|p| p.x).collect(),
            arm_names: grid.arms.iter().map(|a| a.name()).collect(),
            n_seeds,
            samples,
            counters,
        })
    }

    /// The work body of [`SweepEngine::run`] and [`SweepEngine::run_cells`]: evaluates the
    /// grid in (point, seed-chunk) work items on [`fold_in_order`] with the given window,
    /// and hands each item's samples to `sink(point_idx, arm_idx, seeds, samples)` in item
    /// order, arm by arm, where `seeds` is the chunk's range of [`SweepGrid::seeds`].
    /// Returns the sweep's counters.
    fn sweep(
        &self,
        grid: &SweepGrid,
        window: usize,
        mut sink: impl FnMut(usize, usize, Range<usize>, &[Option<CellOutput>]) + Send,
    ) -> Result<SweepCounters, CoreError> {
        let n_seeds = grid.seeds.len();
        let chunk = self.effective_seed_chunk(grid.points.len(), n_seeds);
        let n_chunks = n_seeds.div_ceil(chunk);
        let item_of = |item: usize| {
            let seed_lo = (item % n_chunks) * chunk;
            (item / n_chunks, seed_lo..(seed_lo + chunk).min(n_seeds))
        };
        let evaluator = GroupEvaluator::new(self, grid);
        let mut totals = SweepCounters::default();
        fold_in_order(
            grid.points.len() * n_chunks,
            self.threads(),
            window,
            SolverWorkspace::new,
            |ws, item| {
                let (point, seeds) = item_of(item);
                evaluator.evaluate_chunk(point, seeds, ws)
            },
            |item, (samples, counters): (Vec<Option<CellOutput>>, SweepCounters)| {
                let (point, seeds) = item_of(item);
                for (arm, arm_samples) in samples.chunks_exact(seeds.len()).enumerate() {
                    sink(point, arm, seeds.clone(), arm_samples);
                }
                totals.merge(&counters);
            },
        )?;
        Ok(totals)
    }
}

/// The raw output of [`SweepEngine::run_cells`]: every cell's `Option<CellOutput>` in
/// `(point, arm, seed)` slot order, plus the run's counters — the unreduced form a shard
/// ships to the fleet coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMatrix {
    /// The x value of every sweep point, in grid order.
    pub xs: Vec<f64>,
    /// The arm (column) names, in grid order.
    pub arm_names: Vec<String>,
    /// Number of seeds per (point, arm) — the innermost slot dimension.
    pub n_seeds: usize,
    /// `samples[(point_idx * arms + arm_idx) * n_seeds + seed_idx]`; `None` = infeasible
    /// draw (counted in the aggregate's `attempts`, not averaged).
    pub samples: Vec<Option<CellOutput>>,
    /// Scenario-build vs cell-evaluation counters of the run.
    pub counters: SweepCounters,
}

impl CellMatrix {
    /// The sample slice of one (point, arm) — `n_seeds` entries in seed order.
    pub fn cell_slice(&self, point_idx: usize, arm_idx: usize) -> &[Option<CellOutput>] {
        let base = (point_idx * self.arm_names.len() + arm_idx) * self.n_seeds;
        &self.samples[base..base + self.n_seeds]
    }

    /// Reduces this matrix to the [`SweepResult`] a plain [`SweepEngine::run`] would have
    /// produced — the degenerate single-shard merge.
    pub fn into_sweep_result(self) -> SweepResult {
        let n_arms = self.arm_names.len();
        let aggregates: Vec<Vec<Aggregate>> = (0..self.xs.len())
            .map(|p| (0..n_arms).map(|a| Aggregate::from_samples(self.cell_slice(p, a))).collect())
            .collect();
        SweepResult { xs: self.xs, arm_names: self.arm_names, aggregates, counters: self.counters }
    }
}

/// The one (point, seed-chunk) work body of a sweep: the grid, its prepared builders and
/// their arm-groups, and the abort flag. [`SweepEngine::run`] and
/// [`SweepEngine::run_cells`] both evaluate every chunk here and differ only in how they
/// fold the results, which is what makes `run_cells` a meaningful regression reference
/// for the streaming `run`.
struct GroupEvaluator<'a> {
    engine: &'a SweepEngine,
    grid: &'a SweepGrid,
    /// `builders[point][arm]`: the point's builder specialised by [`Arm::prepare`].
    builders: Vec<Vec<ScenarioBuilder>>,
    /// `groups[point]`: the point's arms grouped by identical prepared builder; every group
    /// shares one scenario build per seed.
    groups: Vec<Vec<Vec<usize>>>,
    /// Set by the first failing cell; in-flight chunks abandon their remaining cells.
    failed: AtomicBool,
}

impl<'a> GroupEvaluator<'a> {
    /// Specialises the grid's builders once per (point, arm) and groups each point's arms
    /// by identical prepared builder.
    fn new(engine: &'a SweepEngine, grid: &'a SweepGrid) -> Self {
        let builders: Vec<Vec<ScenarioBuilder>> = grid
            .points
            .iter()
            .map(|p| grid.arms.iter().map(|a| a.prepare(&p.builder)).collect())
            .collect();
        let groups = builders
            .iter()
            .map(|point_builders| {
                let mut point_groups: Vec<Vec<usize>> = Vec::new();
                for (arm_idx, builder) in point_builders.iter().enumerate() {
                    match point_groups.iter_mut().find(|group| &point_builders[group[0]] == builder)
                    {
                        Some(group) => group.push(arm_idx),
                        None => point_groups.push(vec![arm_idx]),
                    }
                }
                point_groups
            })
            .collect();
        Self { engine, grid, builders, groups, failed: AtomicBool::new(false) }
    }

    /// Evaluates the cell-groups of one point over a range of its seeds: per seed, each
    /// distinct prepared scenario is built once and every arm of its group evaluates
    /// against it. Returns the samples arm-major, seeds in order within each arm, and the
    /// chunk's counters. After another chunk's failure the chunk stops at the next build or
    /// cell boundary; its partial output is discarded with the whole run.
    fn evaluate_chunk(
        &self,
        point_idx: usize,
        seeds: Range<usize>,
        ws: &mut SolverWorkspace,
    ) -> Result<(Vec<Option<CellOutput>>, SweepCounters), CoreError> {
        let n_seeds = seeds.len();
        let mut samples = vec![None; self.grid.arms.len() * n_seeds];
        let mut counters = SweepCounters::default();
        let solver_before = ws.counters;
        'seeds: for (si, &seed) in self.grid.seeds[seeds].iter().enumerate() {
            for group in &self.groups[point_idx] {
                if self.failed.load(Ordering::Relaxed) {
                    break 'seeds;
                }
                let scenario = self.builders[point_idx][group[0]]
                    .build(seed)
                    .map_err(|e| self.fail(CoreError::from(e)))?;
                counters.scenarios_built += 1;
                // Warm-start state must never leak across scenario groups: each group's
                // output has to be a pure function of the group's own cells (in fixed arm
                // order), or determinism across thread counts — which decide who solved
                // what before — would be lost. Within the group, the arms deliberately seed
                // each other.
                ws.reset_warm_start();
                for &arm_idx in group {
                    if self.failed.load(Ordering::Relaxed) {
                        break 'seeds;
                    }
                    let mut ctx = CellContext {
                        x: self.grid.points[point_idx].x,
                        seed,
                        stream_seed: baselines::derive_stream_seed(seed),
                        point_idx,
                        arm_idx,
                        warm_start: self.engine.warm_start,
                        superlinear_mu: self.engine.superlinear_mu,
                        adaptive_mu_bracket: self.engine.adaptive_mu_bracket,
                        outer_continuation: false,
                        workspace: &mut *ws,
                    };
                    counters.cells_evaluated += 1;
                    samples[arm_idx * n_seeds + si] = self.grid.arms[arm_idx]
                        .evaluate(&scenario, &mut ctx)
                        .map_err(|e| self.fail(e))?;
                }
            }
        }
        counters.solver = ws.counters.since(&solver_before);
        Ok((samples, counters))
    }

    /// Raises the abort flag and passes the error through.
    fn fail(&self, error: CoreError) -> CoreError {
        self.failed.store(true, Ordering::Relaxed);
        error
    }
}

/// Runs `produce(state, item)` for every item of `0..n` on up to `threads` scoped workers
/// and hands each output to `fold(item, output)` in item order: the one scheduler behind
/// sweeps, shard workers, round simulations and the fleet coordinator.
///
/// Each worker owns one `init()` state (the engine's per-worker [`SolverWorkspace`], or
/// nothing) and claims items in increasing order; an output that finishes early is parked
/// until every earlier item is folded. No item is claimed more than `window` items ahead of
/// the fold, which bounds the parked outputs to `window`; callers that keep every output
/// anyway pass `n` or more. The first `Err` stops further claims, and the error of the
/// lowest failing item among those produced is returned — with one worker that is the
/// first error, and no later item runs. A panicking worker releases the workers waiting on
/// the window, then its panic propagates. With one worker no thread is spawned.
///
/// Outputs reach `fold` in the same order whatever the worker count, so the result is
/// independent of scheduling *provided `produce` is a pure function of its item*: the
/// worker state must be scratch, never carried signal (the [`SolverWorkspace`] contract).
///
/// # Errors
///
/// The error of the lowest failing item among those produced.
pub(crate) fn fold_in_order<S, T, E, I, P, F>(
    n: usize,
    threads: usize,
    window: usize,
    init: I,
    produce: P,
    mut fold: F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    I: Fn() -> S + Sync,
    P: Fn(&mut S, usize) -> Result<T, E> + Sync,
    F: FnMut(usize, T) + Send,
{
    let workers = threads.min(n).max(1);
    if workers == 1 {
        let mut state = init();
        for item in 0..n {
            fold(item, produce(&mut state, item)?);
        }
        return Ok(());
    }
    let pool = Pool {
        state: Mutex::new(PoolState {
            next: 0,
            folded: 0,
            parked: VecDeque::new(),
            fold,
            error: None,
            halted: false,
        }),
        progressed: Condvar::new(),
        n,
        window: window.max(1),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..workers).map(|_| scope.spawn(|| pool.work(&init, &produce))).collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    // Every worker returned, so none panicked while holding the lock.
    match pool.state.into_inner().expect("no worker panicked").error {
        Some((_, error)) => Err(error),
        None => Ok(()),
    }
}

/// The shared state of one multi-worker [`fold_in_order`] run.
struct Pool<T, E, F> {
    state: Mutex<PoolState<T, E, F>>,
    /// Signalled whenever the fold advances or the pool halts.
    progressed: Condvar,
    n: usize,
    window: usize,
}

struct PoolState<T, E, F> {
    /// The next unclaimed item.
    next: usize,
    /// The first item not yet folded.
    folded: usize,
    /// `parked[i]`: the output of item `folded + i`, once produced.
    parked: VecDeque<Option<T>>,
    fold: F,
    /// The lowest failing item and its error.
    error: Option<(usize, E)>,
    /// Set by the first error or a panicking worker; stops further claims.
    halted: bool,
}

impl<T, E, F: FnMut(usize, T)> Pool<T, E, F> {
    /// One worker: claims, produces and delivers until the items run out or the pool
    /// halts. A panic halts the pool before it propagates, so no peer waits forever on a
    /// fold that can no longer advance.
    fn work<S>(&self, init: impl Fn() -> S, produce: impl Fn(&mut S, usize) -> Result<T, E>) {
        let worker = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            while let Some(item) = self.claim() {
                self.deliver(item, produce(&mut state, item));
            }
        }));
        if let Err(panic) = worker {
            // A panic inside `fold` poisoned the lock, which halts the pool by itself.
            if let Ok(mut st) = self.state.lock() {
                st.halted = true;
            }
            self.progressed.notify_all();
            std::panic::resume_unwind(panic);
        }
    }

    /// The next item, waiting while it would run `window` or more items ahead of the
    /// fold; `None` once the items run out or the pool halts. A poisoned lock counts as
    /// halted.
    fn claim(&self) -> Option<usize> {
        let mut st = self.state.lock().ok()?;
        loop {
            if st.halted || st.next == self.n {
                return None;
            }
            if st.next - st.folded < self.window {
                st.next += 1;
                return Some(st.next - 1);
            }
            st = self.progressed.wait(st).ok()?;
        }
    }

    /// Records an error (halting the pool), or parks an output and folds every
    /// consecutive output from the fold frontier.
    fn deliver(&self, item: usize, output: Result<T, E>) {
        let Ok(mut guard) = self.state.lock() else { return };
        let st = &mut *guard;
        match output {
            Err(error) => {
                if st.error.as_ref().map_or(true, |(first, _)| item < *first) {
                    st.error = Some((item, error));
                }
                st.halted = true;
            }
            Ok(_) if st.halted => {}
            Ok(value) => {
                let slot = item - st.folded;
                if st.parked.len() <= slot {
                    st.parked.resize_with(slot + 1, || None);
                }
                st.parked[slot] = Some(value);
                while let Some(value) = st.parked.front_mut().and_then(Option::take) {
                    st.parked.pop_front();
                    (st.fold)(st.folded, value);
                    st.folded += 1;
                }
            }
        }
        drop(guard);
        self.progressed.notify_all();
    }
}

#[cfg(test)]
mod tests_support {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Test arm that errors on one seed of the first point and counts evaluations.
    pub struct FailingArm {
        pub evaluated: Arc<AtomicUsize>,
        pub fail_seed: u64,
    }

    impl Arm for FailingArm {
        fn name(&self) -> String {
            "failing".to_string()
        }

        fn evaluate(
            &self,
            _scenario: &Scenario,
            ctx: &mut CellContext<'_>,
        ) -> Result<Option<CellOutput>, CoreError> {
            self.evaluated.fetch_add(1, Ordering::Relaxed);
            if ctx.point_idx == 0 && ctx.seed == self.fail_seed {
                return Err(CoreError::SolverFailure("injected".to_string()));
            }
            Ok(Some(CellOutput::new(1.0, 1.0)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arms::SpecArm;
    use crate::spec::{ArmKind, ArmSpec, ScenarioSpec};
    use fedopt_core::SolverConfig;
    use flsys::Weights;
    use std::sync::atomic::AtomicUsize;

    /// A proposed-optimizer arm at `weights` on the fast solver preset.
    fn proposed(weights: Weights) -> SpecArm {
        SpecArm::new(ArmSpec::new(ArmKind::Proposed { weights }), SolverConfig::fast())
    }

    /// `engine` with its per-item seed cap replaced.
    fn with_chunk(engine: SweepEngine, seed_chunk: usize) -> SweepEngine {
        SweepEngine { seed_chunk, ..engine }
    }

    /// Folds `0..n` on `threads` workers, item `i` yielding `i * 31 % 17` after a delay
    /// that makes later items finish first. Asserts inside `produce` that no item is
    /// claimed `window` or more items ahead of the fold; returns the folded sequence.
    fn fold_all(n: usize, threads: usize, window: usize) -> Vec<(usize, usize)> {
        let frontier = AtomicUsize::new(0);
        let mut folded = Vec::new();
        let result: Result<(), ()> = fold_in_order(
            n,
            threads,
            window,
            || (),
            |_, item| {
                let at = frontier.load(Ordering::SeqCst);
                assert!(item < at + window, "item {item} claimed at fold {at}, window {window}");
                std::thread::sleep(std::time::Duration::from_micros((n - item) as u64 % 4 * 200));
                Ok(item * 31 % 17)
            },
            |item, output| {
                folded.push((item, output));
                frontier.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(result.is_ok());
        folded
    }

    #[test]
    fn fold_in_order_folds_the_sequential_sequence_at_any_worker_count() {
        let expected: Vec<(usize, usize)> = (0..40).map(|i| (i, i * 31 % 17)).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(fold_all(40, threads, 40), expected, "{threads} worker(s)");
            assert_eq!(fold_all(0, threads, 4), [], "{threads} worker(s), no items");
        }
    }

    #[test]
    fn fold_in_order_never_claims_more_than_the_window_ahead_of_the_fold() {
        let expected: Vec<(usize, usize)> = (0..40).map(|i| (i, i * 31 % 17)).collect();
        for threads in [2, 3, 8] {
            for window in [2, 4 * threads, 40] {
                assert_eq!(fold_all(40, threads, window), expected, "{threads}, window {window}");
            }
        }
    }

    #[test]
    fn fold_in_order_returns_the_first_error_and_runs_nothing_after_it() {
        // Claims run in item order and every claimed item finishes, so at any worker count
        // the lowest failing item is among those produced; at one, nothing after it runs.
        for threads in [1, 2, 4] {
            let (produced, mut folded) = (AtomicUsize::new(0), Vec::new());
            let result = fold_in_order(
                10,
                threads,
                10,
                || (),
                |_, item| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    if item == 3 || item == 5 {
                        Err(item)
                    } else {
                        Ok(item)
                    }
                },
                |item, _| folded.push(item),
            );
            assert_eq!(result, Err(3), "{threads} worker(s)");
            if threads == 1 {
                assert_eq!((produced.into_inner(), folded), (4, vec![0, 1, 2]));
            }
        }
    }

    #[test]
    fn aggregate_of_no_feasible_samples_is_labelled_not_silent() {
        let agg = Aggregate::from_samples(&[None, None, None]);
        assert_eq!(agg.count, 0);
        assert_eq!(agg.attempts, 3);
        assert!(agg.mean_energy_j.is_nan());
        let some = Aggregate::from_samples(&[Some(CellOutput::new(2.0, 4.0)), None]);
        assert_eq!(some.count, 1);
        assert_eq!(some.attempts, 2);
        assert_eq!(some.mean_energy_j, 2.0);
        assert_eq!(some.mean_time_s, 4.0);
        assert_eq!(some.std_energy_j, 0.0);
    }

    #[test]
    fn aggregate_mean_and_std_are_correct() {
        let agg = Aggregate::from_samples(&[
            Some(CellOutput::new(1.0, 10.0)),
            Some(CellOutput::new(3.0, 30.0)),
        ]);
        assert_eq!(agg.mean_energy_j, 2.0);
        assert_eq!(agg.mean_time_s, 20.0);
        assert_eq!(agg.std_energy_j, 1.0);
        assert_eq!(agg.std_time_s, 10.0);
        assert_eq!(agg.count, 2);
    }

    #[test]
    fn first_error_aborts_the_sweep_instead_of_draining_the_grid() {
        use crate::engine::tests_support::FailingArm;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let evaluated = Arc::new(AtomicUsize::new(0));
        let builder = flsys::ScenarioBuilder::paper_default().with_devices(2);
        let mut grid = SweepGrid::new((1..=4).collect::<Vec<u64>>());
        for x in 0..6 {
            grid = grid.point(f64::from(x), builder.clone());
        }
        let grid = grid.arm(FailingArm { evaluated: Arc::clone(&evaluated), fail_seed: 2 });

        let err = SweepEngine::single_thread().run(&grid).unwrap_err();
        assert!(matches!(err, CoreError::SolverFailure(ref m) if m == "injected"), "{err:?}");
        // Sequentially the failure at cell 1 (point 0, seed 2) stops the sweep: seed 1
        // succeeded, seed 2 failed, and the remaining 22 cells were never evaluated.
        assert_eq!(evaluated.load(Ordering::Relaxed), 2);

        // A parallel run also aborts (in-flight cells may still finish, so only an upper
        // bound is deterministic) and surfaces the same error type.
        evaluated.store(0, Ordering::Relaxed);
        let err = SweepEngine::with_threads(4).run(&grid).unwrap_err();
        assert!(matches!(err, CoreError::SolverFailure(_)));
        assert!(evaluated.load(Ordering::Relaxed) <= grid.num_cells());
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking_the_streaming_reducer() {
        use std::sync::mpsc;
        use std::time::Duration;

        /// Arm that panics on one specific cell.
        struct PanickingArm;
        impl Arm for PanickingArm {
            fn name(&self) -> String {
                "panicking".to_string()
            }
            fn evaluate(
                &self,
                _scenario: &Scenario,
                ctx: &mut CellContext<'_>,
            ) -> Result<Option<CellOutput>, CoreError> {
                assert!(!(ctx.point_idx == 1 && ctx.seed == 2), "injected panic");
                Ok(Some(CellOutput::new(1.0, 1.0)))
            }
        }

        let builder = flsys::ScenarioBuilder::paper_default().with_devices(2);
        let mut grid = SweepGrid::new((0..6).collect::<Vec<u64>>());
        for x in 0..4 {
            grid = grid.point(f64::from(x), builder.clone());
        }
        let grid = grid.arm(PanickingArm);

        // Run the sweep on its own thread so a regression (a worker parking forever on the
        // fold frontier) fails this test by timeout instead of hanging the suite.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Chunk size 1 so the panicked item genuinely pins the frontier for peers.
                with_chunk(SweepEngine::with_threads(4), 1).run(&grid)
            }));
            tx.send(result.is_err()).ok();
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("sweep deadlocked after a worker panic");
        assert!(panicked, "the injected panic must surface from the sweep");
    }

    #[test]
    fn scenario_builds_are_shared_per_prepared_builder_and_match_unshared() {
        // Two arms without a scenario patch share one build; the patched arm's distinct
        // builder gets its own.
        let arms = || -> Vec<Box<dyn Arm>> {
            let patched = ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })
                .labeled("N = 3")
                .with_scenario(ScenarioSpec { devices: Some(3), ..ScenarioSpec::default() });
            vec![
                Box::new(proposed(Weights::balanced())),
                Box::new(proposed(Weights::new(0.9, 0.1).unwrap())),
                Box::new(SpecArm::new(patched, SolverConfig::fast())),
            ]
        };
        let grid = |arms: Vec<Box<dyn Arm>>| {
            let mut grid = SweepGrid::new(vec![1u64, 2, 3]);
            for x in [6.0, 12.0] {
                grid = grid.point(
                    x,
                    flsys::ScenarioBuilder::paper_default().with_devices(5).with_p_max_dbm(x),
                );
            }
            grid.arms = arms;
            grid
        };
        let (points, seeds, n_arms, distinct_builders) = (2, 3, 3, 2);

        // Pinned to the cold solver path: with warm start, arms of a shared cell-group
        // deliberately seed each other, so an arm run alone is a *different* — equally
        // deterministic — warm trajectory.
        let engine = SweepEngine::single_thread().with_warm_start(false);
        let shared = engine.run(&grid(arms())).unwrap();
        assert_eq!(shared.counters.scenarios_built, points * seeds * distinct_builders);
        assert_eq!(shared.counters.cells_evaluated, points * seeds * n_arms);

        // Sharing must never change the numbers — only how often scenarios are rebuilt:
        // every arm's column equals that arm run alone, where nothing can be shared.
        for (arm_idx, arm) in arms().into_iter().enumerate() {
            let alone = engine.run(&grid(vec![arm])).unwrap();
            assert_eq!(alone.counters.scenarios_built, points * seeds);
            assert_eq!(alone.xs, shared.xs);
            assert_eq!(alone.arm_names, [shared.arm_names[arm_idx].clone()]);
            for (alone_row, shared_row) in alone.aggregates.iter().zip(&shared.aggregates) {
                assert_eq!(alone_row[..], [shared_row[arm_idx]], "arm {arm_idx} diverged");
            }
        }
    }

    #[test]
    fn effective_seed_chunk_shrinks_to_feed_the_workers() {
        // A single worker keeps the configured cap — no need for finer scheduling.
        assert_eq!(SweepEngine::with_threads(1).effective_seed_chunk(4, 100), DEFAULT_SEED_CHUNK);
        // A paper-style grid (6 points × 100 seeds) on 16 workers must split finely enough
        // to yield ≥ 4 items per worker instead of 2 coarse chunks per point.
        let engine = SweepEngine::with_threads(16);
        let chunk = engine.effective_seed_chunk(6, 100);
        assert!(chunk >= 1);
        assert!(
            6 * 100usize.div_ceil(chunk) >= 16 * 4,
            "chunk {chunk} leaves the 16-worker pool starved"
        );
        // The cap only ever shrinks; tiny grids floor at one seed per chunk.
        assert_eq!(engine.effective_seed_chunk(2, 3), 1);
        assert_eq!(with_chunk(SweepEngine::with_threads(2), 5).effective_seed_chunk(100, 1000), 5);
    }

    /// A small two-point grid over `seeds` with the given arms.
    fn small_grid(seeds: &[u64], arms: Vec<Box<dyn Arm>>) -> SweepGrid {
        let mut grid = SweepGrid::new(seeds);
        for x in [6.0, 12.0] {
            grid = grid.point(
                x,
                flsys::ScenarioBuilder::paper_default().with_devices(4).with_p_max_dbm(x),
            );
        }
        grid.arms = arms;
        grid
    }

    #[test]
    fn zero_arm_and_zero_seed_grids_keep_their_shapes() {
        // Per point, the attempts behind each arm's aggregate.
        let shape = |r: &SweepResult| -> Vec<Vec<usize>> {
            r.aggregates.iter().map(|row| row.iter().map(|a| a.attempts).collect()).collect()
        };
        for threads in [1, 3] {
            let engine = SweepEngine::with_threads(threads);
            for (grid, expected) in [
                (small_grid(&[1, 2, 3], Vec::new()), vec![vec![]; 2]),
                (small_grid(&[], vec![Box::new(proposed(Weights::balanced()))]), vec![vec![0]; 2]),
            ] {
                let cells = engine.run_cells(&grid).unwrap().into_sweep_result();
                for result in [engine.run(&grid).unwrap(), cells] {
                    assert_eq!(shape(&result), expected, "{threads} thread(s)");
                    assert_eq!(result.counters, SweepCounters::default());
                }
            }
        }
    }

    #[test]
    fn streaming_and_materializing_reductions_are_bit_identical() {
        let grid =
            || small_grid(&[0, 1, 2, 3, 4, 5, 6], vec![Box::new(proposed(Weights::balanced()))]);
        let materialized =
            SweepEngine::with_threads(2).run_cells(&grid()).unwrap().into_sweep_result();
        // Chunk sizes that divide, straddle and exceed the seed count, at 1 and 3 workers —
        // every combination must reproduce the materialized reduction bit for bit,
        // standard deviations included.
        for threads in [1usize, 3] {
            for chunk in [1usize, 2, 3, 7, 64] {
                let streamed =
                    with_chunk(SweepEngine::with_threads(threads), chunk).run(&grid()).unwrap();
                assert_eq!(
                    streamed, materialized,
                    "streaming diverged at {threads} thread(s), chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn engine_is_deterministic_across_thread_counts() {
        let grid = |seeds: &[u64]| {
            SweepGrid::new(seeds)
                .point(
                    6.0,
                    flsys::ScenarioBuilder::paper_default().with_devices(5).with_p_max_dbm(6.0),
                )
                .point(
                    12.0,
                    flsys::ScenarioBuilder::paper_default().with_devices(5).with_p_max_dbm(12.0),
                )
                .arm(proposed(Weights::balanced()))
        };
        let single = SweepEngine::single_thread().run(&grid(&[1, 2, 3])).unwrap();
        let multi = SweepEngine::with_threads(4).run(&grid(&[1, 2, 3])).unwrap();
        assert_eq!(single, multi);
    }
}
