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
//! Threading uses scoped `std::thread` workers: an in-order streaming reducer for
//! [`SweepEngine::run`] and a work-stealing indexed map ([`par_map_indexed_with`]) for
//! [`SweepEngine::run_cells`]; the environment cannot fetch `rayon`, and the engine needs
//! nothing more.
//!
//! [`FigureReport`]: crate::report::FigureReport

use fedopt_core::{CoreError, SolveCounters, SolverConfig, SolverWorkspace};
use flsys::{Scenario, ScenarioBuilder};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// Work counters of one sweep: how many scenarios were actually built versus how many
/// cells were evaluated against them.
///
/// With arms that don't specialise their builder, `scenarios_built == points × seeds`
/// while `cells_evaluated == points × arms × seeds` — the build cost is amortised across
/// the arm count. Both counters are deterministic for a successful sweep (independent of
/// thread count); after an aborted sweep they reflect only the work done before the
/// abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCounters {
    /// Number of `ScenarioBuilder::build` calls the sweep performed.
    pub scenarios_built: usize,
    /// Number of [`Arm::evaluate`] calls the sweep performed.
    pub cells_evaluated: usize,
    /// Solver-stack iteration totals (outer, Jong, KKT, `μ`-bisection, fast-path hits)
    /// summed over every cell — the evidence that warm starting saves iterations, not just
    /// wall clock. Deterministic for a successful sweep, independent of thread count.
    pub solver: SolveCounters,
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

/// The most seeds one streaming work item holds. A chunk of one point's seeds is the unit
/// of parallel work of [`SweepEngine::run`]; larger chunks amortise reduction overhead on
/// 10⁴-draw grids, and the engine shrinks chunks below this cap when a grid would
/// otherwise yield too few work items to keep every worker busy (a few-point, 100-seed
/// paper grid on a many-core host). Output is bit-identical for every chunk size — chunks
/// are folded in order, seeds in order within each chunk.
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
    /// Cap on seeds per streaming work item: [`DEFAULT_SEED_CHUNK`] (unit tests set other
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
    /// grid yields at least ~4 work items per worker, so streaming never schedules coarser
    /// than the worker pool can use. At the floor of 1 seed per chunk the granularity
    /// equals [`SweepEngine::run_cells`]'s per-(point, seed) cell-groups.
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
    /// The unit of parallel work is a chunk of one point's seeds (at most
    /// [`DEFAULT_SEED_CHUNK`]): per seed, the scenario is built once per set of arms whose
    /// prepared builders compare equal, and every arm of the set evaluates against the
    /// shared build by reference. A bounded-window reducer folds the chunks into
    /// per-(point, arm) [`AggregateAccumulator`]s in strict item order, seeds in order
    /// within each chunk, so the result is bit-identical across thread counts and chunk
    /// sizes, and to the materialized `run_cells(grid)?.into_sweep_result()`. Peak memory
    /// is `O(points × arms)` accumulators plus `O(window × arms × chunk)` pending cell
    /// outputs (window ≈ 4 × workers) — independent of the seed count, which is what makes
    /// `--seeds 10000` grids feasible.
    ///
    /// # Errors
    ///
    /// A hard cell error aborts the sweep: workers stop picking up new work as soon as one
    /// cell fails, and in-flight groups abandon their remaining cells at the next cell
    /// boundary (the cell being solved still finishes), so a deterministic early failure
    /// does not burn through the rest of an expensive grid. The error surfaced is the
    /// failing cell with the lowest `(point, arm, seed)` slot index among those evaluated —
    /// with one thread the work runs in order, so that is the first error the run hit; with
    /// more, scheduling decides which failing cells were reached first. Infeasible cells
    /// (`Ok(None)`) are not errors.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepResult, CoreError> {
        let (builders, groups) = self.prepare_groups(grid);
        let n_points = grid.points.len();
        let n_arms = grid.arms.len();
        let n_seeds = grid.seeds.len();
        let chunk = self.effective_seed_chunk(n_points, n_seeds);
        let n_chunks = n_seeds.div_ceil(chunk);
        let n_items = n_points * n_chunks;
        let workers = self.threads().min(n_items).max(1);
        let window = streaming_window(workers);

        let failed = AtomicBool::new(false);
        let scenarios_built = AtomicUsize::new(0);
        let cells_evaluated = AtomicUsize::new(0);
        let solver_totals = Mutex::new(SolveCounters::default());
        let reducer = StreamReducer::new(n_points, n_arms, n_chunks, chunk, n_seeds, window);
        let evaluator = GroupEvaluator {
            grid,
            builders: &builders,
            groups: &groups,
            failed: &failed,
            scenarios_built: &scenarios_built,
            cells_evaluated: &cells_evaluated,
            warm_start: self.warm_start,
            superlinear_mu: self.superlinear_mu,
            adaptive_mu_bracket: self.adaptive_mu_bracket,
            solver_totals: &solver_totals,
            progress: None,
        };

        // The (point, arm, seed) slot index of a cell — the same error-ordering key
        // `run_cells` uses.
        let slot_of = |point: usize, arm: usize, seed_idx: usize| -> usize {
            (point * n_arms + arm) * n_seeds + seed_idx
        };

        let worker_loop = || {
            let mut ws = SolverWorkspace::new();
            let mut buf: Vec<Option<CellOutput>> = Vec::new();
            while let Some(item) = reducer.claim() {
                // A claimed item that is neither deposited nor aborted would pin the fold
                // frontier and leave peers blocked in `claim` forever. The only way to exit
                // this block without reaching the deposit/abort decision below is a panic
                // mid-cell — the guard's Drop then poisons the reducer so every peer drains
                // and the panic propagates through the scope join instead of deadlocking.
                let mut guard = ClaimGuard { reducer: &reducer, armed: true };
                let point_idx = item / n_chunks;
                let chunk_idx = item % n_chunks;
                let seed_lo = chunk_idx * chunk;
                let seed_hi = (seed_lo + chunk).min(n_seeds);
                let clen = seed_hi - seed_lo;
                buf.clear();
                buf.resize(n_arms * clen, None);

                let mut error: Option<(usize, CoreError)> = None;
                'seeds: for (si, &seed) in grid.seeds[seed_lo..seed_hi].iter().enumerate() {
                    let outcome = evaluator.evaluate(point_idx, seed, &mut ws, &mut |arm, s| {
                        buf[arm * clen + si] = s;
                    });
                    match outcome {
                        GroupOutcome::Complete => {}
                        GroupOutcome::Abandoned => break 'seeds,
                        GroupOutcome::Failed(arm_idx, e) => {
                            error = Some((slot_of(point_idx, arm_idx, seed_lo + si), e));
                            break 'seeds;
                        }
                    }
                }
                guard.armed = false;

                if let Some((slot, e)) = error {
                    reducer.abort(slot, e);
                } else if !failed.load(Ordering::Relaxed) {
                    reducer.deposit(item, &mut buf);
                }
                // A chunk abandoned because *another* worker failed is simply not
                // deposited; the reducer is already aborted (or about to be) and the
                // partial results are discarded with the whole run.
            }
        };

        if workers == 1 {
            worker_loop();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker_loop)).collect();
                for h in handles {
                    h.join().expect("sweep worker panicked");
                }
            });
        }

        let (accumulators, error, _peak_pending) = reducer.into_parts();
        if let Some((_, e)) = error {
            return Err(e);
        }
        let aggregates: Vec<Vec<Aggregate>> = (0..n_points)
            .map(|p| (0..n_arms).map(|a| accumulators[p * n_arms + a].finish()).collect())
            .collect();

        Ok(SweepResult {
            xs: grid.points.iter().map(|p| p.x).collect(),
            arm_names: grid.arms.iter().map(|a| a.name()).collect(),
            aggregates,
            counters: SweepCounters {
                scenarios_built: scenarios_built.into_inner(),
                cells_evaluated: cells_evaluated.into_inner(),
                solver: solver_totals.into_inner().expect("counter totals poisoned"),
            },
        })
    }

    /// Evaluates every cell of the grid and returns the **raw** per-cell outputs in
    /// `(point, arm, seed)` slot order, without reducing them to aggregates.
    ///
    /// This is the worker half of the sharded fleet path ([`crate::shard`]): a shard runs
    /// `run_cells` on its seed sub-range and ships the samples, and the coordinator
    /// replays them through [`AggregateAccumulator::merge_samples`] in shard order —
    /// reproducing the single-process [`SweepEngine::run`] reduction bit for bit. The
    /// unit of parallel work is one (point, seed) cell-group with the same build sharing
    /// and error attribution as [`SweepEngine::run`], so every determinism property
    /// (bit-identical across thread counts, seed-order reduction keys) carries over
    /// unchanged; memory is `O(points × arms × seeds)` samples, which is exactly the
    /// payload a shard has to ship anyway. Tests use
    /// [`CellMatrix::into_sweep_result`] of it as the materialized reference for
    /// [`SweepEngine::run`].
    ///
    /// # Errors
    ///
    /// Same contract as [`SweepEngine::run`].
    pub fn run_cells(&self, grid: &SweepGrid) -> Result<CellMatrix, CoreError> {
        self.run_cells_with_progress(grid, None)
    }

    /// [`SweepEngine::run_cells`] with a live progress observer: `progress` (when given)
    /// is incremented once per evaluated cell, from whichever worker thread evaluated it.
    /// The fleet worker's heartbeat thread reads it to report cells-completed progress on
    /// stderr while the sweep is still running — the counter is observational only and
    /// never influences scheduling or results.
    ///
    /// # Errors
    ///
    /// Same contract as [`SweepEngine::run`].
    pub fn run_cells_with_progress(
        &self,
        grid: &SweepGrid,
        progress: Option<&AtomicUsize>,
    ) -> Result<CellMatrix, CoreError> {
        let (builders, groups) = self.prepare_groups(grid);
        let n_points = grid.points.len();
        let n_arms = grid.arms.len();
        let n_seeds = grid.seeds.len();

        enum Cell {
            Computed(Option<CellOutput>),
            Failed(CoreError),
            /// Not evaluated because some cell (of this group or an earlier one) failed.
            Skipped,
        }

        let failed = AtomicBool::new(false);
        let scenarios_built = AtomicUsize::new(0);
        let cells_evaluated = AtomicUsize::new(0);
        let solver_totals = Mutex::new(SolveCounters::default());
        let evaluator = GroupEvaluator {
            grid,
            builders: &builders,
            groups: &groups,
            failed: &failed,
            scenarios_built: &scenarios_built,
            cells_evaluated: &cells_evaluated,
            warm_start: self.warm_start,
            superlinear_mu: self.superlinear_mu,
            adaptive_mu_bracket: self.adaptive_mu_bracket,
            solver_totals: &solver_totals,
            progress,
        };
        // One cell-group = all arms of one (point, seed); returns one Cell per arm.
        let evaluate_group = |ws: &mut SolverWorkspace, item: usize| -> Vec<Cell> {
            let mut cells: Vec<Cell> = (0..n_arms).map(|_| Cell::Skipped).collect();
            let point_idx = item / n_seeds;
            let seed = grid.seeds[item % n_seeds];
            let outcome = evaluator.evaluate(point_idx, seed, ws, &mut |arm, sample| {
                cells[arm] = Cell::Computed(sample);
            });
            if let GroupOutcome::Failed(arm_idx, e) = outcome {
                cells[arm_idx] = Cell::Failed(e);
            }
            cells
        };

        let mut group_outputs = par_map_indexed_with(
            n_points * n_seeds,
            self.threads(),
            SolverWorkspace::new,
            evaluate_group,
        );

        // Re-slot the (point, seed)-major group outputs into (point, arm, seed) order and
        // surface the lowest-slot-indexed error among the evaluated cells.
        let mut samples: Vec<Option<CellOutput>> = Vec::with_capacity(grid.num_cells());
        let mut first_error: Option<CoreError> = None;
        let mut skipped = 0usize;
        // The read below transposes (item, arm) into (point, arm, seed) slot order, so
        // index arithmetic is clearer than nested iterators here.
        #[allow(clippy::needless_range_loop)]
        for p in 0..n_points {
            for a in 0..n_arms {
                for s in 0..n_seeds {
                    let cell =
                        std::mem::replace(&mut group_outputs[p * n_seeds + s][a], Cell::Skipped);
                    match cell {
                        Cell::Computed(sample) => samples.push(sample),
                        Cell::Failed(e) => {
                            if first_error.is_none() {
                                first_error = Some(e);
                            }
                        }
                        Cell::Skipped => skipped += 1,
                    }
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        debug_assert_eq!(skipped, 0, "skips must imply a surfaced failure");
        debug_assert_eq!(samples.len(), grid.num_cells());

        Ok(CellMatrix {
            xs: grid.points.iter().map(|p| p.x).collect(),
            arm_names: grid.arms.iter().map(|a| a.name()).collect(),
            n_seeds,
            samples,
            counters: SweepCounters {
                scenarios_built: scenarios_built.into_inner(),
                cells_evaluated: cells_evaluated.into_inner(),
                solver: solver_totals.into_inner().expect("counter totals poisoned"),
            },
        })
    }

    /// Specialises the grid's builders once per (point, arm) and groups each point's arms
    /// by identical prepared builder — the shared preamble of `run` and `run_cells`. Every
    /// group shares one scenario build per seed.
    #[allow(clippy::type_complexity)]
    fn prepare_groups(
        &self,
        grid: &SweepGrid,
    ) -> (Vec<Vec<ScenarioBuilder>>, Vec<Vec<Vec<usize>>>) {
        // Builders are pure data; specialise them once per (point, arm) up front.
        let builders: Vec<Vec<ScenarioBuilder>> = grid
            .points
            .iter()
            .map(|p| grid.arms.iter().map(|a| a.prepare(&p.builder)).collect())
            .collect();

        let groups: Vec<Vec<Vec<usize>>> = builders
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
        (builders, groups)
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

/// The shared per-sweep evaluation context of [`SweepEngine::run`] and
/// [`SweepEngine::run_cells`]: the grid, the prepared builders and their arm-groups, the
/// abort flag, and the work counters. Keeping the build-group-evaluate body (and its
/// failed-flag boundaries and error attribution) in exactly one place is what makes
/// `run_cells` a meaningful regression reference for the streaming `run`.
struct GroupEvaluator<'a> {
    grid: &'a SweepGrid,
    builders: &'a [Vec<ScenarioBuilder>],
    groups: &'a [Vec<Vec<usize>>],
    failed: &'a AtomicBool,
    scenarios_built: &'a AtomicUsize,
    cells_evaluated: &'a AtomicUsize,
    /// Engine-level warm-start switch, handed to every cell via [`CellContext`].
    warm_start: bool,
    /// Engine-level superlinear `μ`-search switch, handed to every cell via [`CellContext`].
    superlinear_mu: bool,
    /// Engine-level warm Newton `μ`-search switch, handed to every cell via [`CellContext`].
    adaptive_mu_bracket: bool,
    /// Per-sweep solver-iteration totals (folded once per cell-group; integer sums, so
    /// thread count and fold order cannot change the result).
    solver_totals: &'a Mutex<SolveCounters>,
    /// Optional live cells-completed observer (see
    /// [`SweepEngine::run_cells_with_progress`]); bumped alongside `cells_evaluated`.
    progress: Option<&'a AtomicUsize>,
}

/// How one (point, seed) cell-group evaluation ended.
enum GroupOutcome {
    /// Every cell of the group was delivered to the sink.
    Complete,
    /// Another worker failed the sweep; the group abandoned its remaining cells at a
    /// build/cell boundary (output is discarded with the whole run).
    Abandoned,
    /// This group hit a hard error on the given arm (the shared `failed` flag is set).
    Failed(usize, CoreError),
}

impl GroupEvaluator<'_> {
    /// Evaluates every arm of one (point, seed) cell-group, building each distinct
    /// prepared scenario once and delivering each computed cell to
    /// `sink(arm_idx, sample)`. Folds the group's solver-iteration counts into the
    /// per-sweep totals on every exit path.
    fn evaluate(
        &self,
        point_idx: usize,
        seed: u64,
        ws: &mut SolverWorkspace,
        sink: &mut dyn FnMut(usize, Option<CellOutput>),
    ) -> GroupOutcome {
        let counters_before = ws.counters;
        let outcome = self.evaluate_cells(point_idx, seed, ws, sink);
        let delta = ws.counters.since(&counters_before);
        if delta != SolveCounters::default() {
            self.solver_totals.lock().expect("counter totals poisoned").add(&delta);
        }
        outcome
    }

    fn evaluate_cells(
        &self,
        point_idx: usize,
        seed: u64,
        ws: &mut SolverWorkspace,
        sink: &mut dyn FnMut(usize, Option<CellOutput>),
    ) -> GroupOutcome {
        for group in &self.groups[point_idx] {
            // A build is the expensive step worth skipping once some other worker has
            // already failed the sweep.
            if self.failed.load(Ordering::Relaxed) {
                return GroupOutcome::Abandoned;
            }
            let scenario = match self.builders[point_idx][group[0]].build(seed) {
                Ok(scenario) => {
                    self.scenarios_built.fetch_add(1, Ordering::Relaxed);
                    scenario
                }
                Err(e) => {
                    self.failed.store(true, Ordering::Relaxed);
                    return GroupOutcome::Failed(group[0], CoreError::from(e));
                }
            };
            // Warm-start state must never leak across scenario groups: each group's output
            // has to be a pure function of the group's own cells (in fixed arm order), or
            // determinism across thread counts — which decide who solved what before —
            // would be lost. Within the group, the arms deliberately seed each other.
            ws.reset_warm_start();
            for &arm_idx in group {
                // Another worker may have failed while this group was mid-flight: abandon
                // the remaining (expensive) cells at the next cell boundary rather than
                // draining the whole group.
                if self.failed.load(Ordering::Relaxed) {
                    return GroupOutcome::Abandoned;
                }
                let mut ctx = CellContext {
                    x: self.grid.points[point_idx].x,
                    seed,
                    stream_seed: baselines::derive_stream_seed(seed),
                    point_idx,
                    arm_idx,
                    warm_start: self.warm_start,
                    superlinear_mu: self.superlinear_mu,
                    adaptive_mu_bracket: self.adaptive_mu_bracket,
                    outer_continuation: false,
                    workspace: &mut *ws,
                };
                self.cells_evaluated.fetch_add(1, Ordering::Relaxed);
                if let Some(progress) = self.progress {
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                match self.grid.arms[arm_idx].evaluate(&scenario, &mut ctx) {
                    Ok(sample) => sink(arm_idx, sample),
                    Err(e) => {
                        self.failed.store(true, Ordering::Relaxed);
                        return GroupOutcome::Failed(arm_idx, e);
                    }
                }
            }
        }
        GroupOutcome::Complete
    }
}

/// The streaming reducer's window: how many chunk items may be in flight or deposited but
/// not yet folded. Bounds the reducer's pending memory to `window × arms × seed_chunk`
/// cell outputs while leaving every worker a few items of slack.
fn streaming_window(workers: usize) -> usize {
    (workers * 4).max(2)
}

/// Bounded-window, in-order chunk reducer of [`SweepEngine::run`].
///
/// Work items (`point × chunk-of-seeds`) are claimed in increasing index order but finish
/// in arbitrary order; deposits park in a `window`-sized ring until every earlier item has
/// been folded, then fold — chunks in item order, seeds in order within each chunk — into
/// the per-(point, arm) [`AggregateAccumulator`]s. [`StreamReducer::claim`] blocks while
/// the claimant would run more than `window` items ahead of the fold frontier, which is
/// what bounds the ring: at most `window` chunks of cell outputs ever exist at once,
/// however many seeds the grid has. The fold order makes the result bit-identical to the
/// materialized [`SweepEngine::run_cells`] reduction (and independent of worker count) by
/// construction.
struct StreamReducer {
    state: Mutex<ReduceState>,
    progressed: Condvar,
    n_items: usize,
    n_arms: usize,
    n_chunks: usize,
    seed_chunk: usize,
    n_seeds: usize,
    window: usize,
}

struct ReduceState {
    /// Next unclaimed work item.
    next_item: usize,
    /// First item not yet folded (the fold frontier).
    floor: usize,
    /// Ring flag per window slot: deposited and awaiting its turn to fold.
    deposited: Vec<bool>,
    /// Ring of parked chunk outputs (`arm`-major, seed order within each arm).
    ring: Vec<Vec<Option<CellOutput>>>,
    /// One accumulator per (point, arm) — the whole reduction state.
    accumulators: Vec<AggregateAccumulator>,
    /// Set on the first hard cell error; stops claims and folding.
    aborted: bool,
    /// The lowest-slot error observed, surfaced as the sweep's result.
    error: Option<(usize, CoreError)>,
    /// High-water mark of deposited-but-unfolded chunks (bounded by `window`).
    peak_pending: usize,
    pending: usize,
}

/// Unwind guard of one claimed streaming work item: if the worker panics between claiming
/// and the deposit/abort decision, the Drop poisons the reducer so blocked peers drain
/// instead of waiting on a fold frontier that can never advance (the panic itself then
/// surfaces through the scope join).
struct ClaimGuard<'a> {
    reducer: &'a StreamReducer,
    armed: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.reducer.poison();
        }
    }
}

impl StreamReducer {
    fn new(
        n_points: usize,
        n_arms: usize,
        n_chunks: usize,
        seed_chunk: usize,
        n_seeds: usize,
        window: usize,
    ) -> Self {
        Self {
            state: Mutex::new(ReduceState {
                next_item: 0,
                floor: 0,
                deposited: vec![false; window],
                ring: (0..window).map(|_| Vec::new()).collect(),
                accumulators: vec![AggregateAccumulator::new(); n_points * n_arms],
                aborted: false,
                error: None,
                peak_pending: 0,
                pending: 0,
            }),
            progressed: Condvar::new(),
            n_items: n_points * n_chunks,
            n_arms,
            n_chunks,
            seed_chunk,
            n_seeds,
            window,
        }
    }

    /// Claims the next work item, blocking while the claim would run more than `window`
    /// items ahead of the fold frontier. Returns `None` when the grid is drained or the
    /// sweep aborted.
    fn claim(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("reducer poisoned");
        loop {
            if st.aborted || st.next_item >= self.n_items {
                return None;
            }
            if st.next_item < st.floor + self.window {
                let item = st.next_item;
                st.next_item += 1;
                return Some(item);
            }
            st = self.progressed.wait(st).expect("reducer poisoned");
        }
    }

    /// Records a hard cell error (keeping the lowest slot index) and aborts the sweep.
    fn abort(&self, slot: usize, error: CoreError) {
        let mut st = self.state.lock().expect("reducer poisoned");
        if st.error.as_ref().map_or(true, |(s, _)| slot < *s) {
            st.error = Some((slot, error));
        }
        st.aborted = true;
        self.progressed.notify_all();
    }

    /// Aborts the sweep without recording an error — called by a panicking worker's
    /// [`ClaimGuard`] so peers blocked in [`StreamReducer::claim`] wake up and drain.
    /// Tolerates a poisoned mutex (the panic may have happened while holding the lock, in
    /// which case every peer's own lock attempt already unblocks them by panicking).
    fn poison(&self) {
        if let Ok(mut st) = self.state.lock() {
            st.aborted = true;
        }
        self.progressed.notify_all();
    }

    /// Deposits a completed chunk (swapping the caller's buffer into the ring so both
    /// sides reuse their allocations) and folds every consecutive ready chunk from the
    /// frontier.
    fn deposit(&self, item: usize, buf: &mut Vec<Option<CellOutput>>) {
        let mut st = self.state.lock().expect("reducer poisoned");
        if st.aborted {
            return;
        }
        let slot = item % self.window;
        debug_assert!(!st.deposited[slot], "window slot collision");
        std::mem::swap(&mut st.ring[slot], buf);
        st.deposited[slot] = true;
        st.pending += 1;
        st.peak_pending = st.peak_pending.max(st.pending);
        debug_assert!(st.pending <= self.window, "pending chunks exceeded the window");

        while st.floor < st.next_item && st.deposited[st.floor % self.window] {
            let fold_slot = st.floor % self.window;
            st.deposited[fold_slot] = false;
            st.pending -= 1;
            let cells = std::mem::take(&mut st.ring[fold_slot]);
            let point_idx = st.floor / self.n_chunks;
            let chunk_idx = st.floor % self.n_chunks;
            let seed_lo = chunk_idx * self.seed_chunk;
            let clen = (seed_lo + self.seed_chunk).min(self.n_seeds) - seed_lo;
            debug_assert_eq!(cells.len(), self.n_arms * clen);
            for arm in 0..self.n_arms {
                let acc = &mut st.accumulators[point_idx * self.n_arms + arm];
                for sample in &cells[arm * clen..(arm + 1) * clen] {
                    acc.push(*sample);
                }
            }
            st.ring[fold_slot] = cells;
            st.floor += 1;
        }
        self.progressed.notify_all();
    }

    /// Consumes the reducer: `(accumulators, error, peak_pending)`.
    fn into_parts(self) -> (Vec<AggregateAccumulator>, Option<(usize, CoreError)>, usize) {
        let st = self.state.into_inner().expect("reducer poisoned");
        (st.accumulators, st.error, st.peak_pending)
    }
}

/// Maps `f` over `0..n` using up to `threads` scoped workers, each owning one worker state
/// created by `init` (the engine's per-worker [`SolverWorkspace`]), and returns the outputs
/// in index order.
///
/// Work is distributed by an atomic cursor (dynamic scheduling — solver cells vary wildly
/// in cost), but each worker tags outputs with their index and the final vector is
/// assembled by index, so the result is identical to the sequential map *provided `f` is a
/// pure function of its index* — the worker state must be scratch, never carried signal
/// (which is exactly the [`SolverWorkspace`] contract). With one thread — or one item — no
/// worker threads are spawned at all and a single state serves the whole range.
pub fn par_map_indexed_with<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.min(n).max(1);
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|idx| f(&mut state, idx)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let init = &init;
    let f = &f;
    let cursor = &cursor;
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        local.push((idx, f(&mut state, idx)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sweep worker panicked")).collect()
    });
    tagged.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, value)| value).collect()
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

    /// A proposed-optimizer arm at `weights` on the fast solver preset.
    fn proposed(weights: Weights) -> SpecArm {
        SpecArm::new(ArmSpec::new(ArmKind::Proposed { weights }), SolverConfig::fast())
    }

    /// `engine` with its per-item seed cap replaced.
    fn with_chunk(engine: SweepEngine, seed_chunk: usize) -> SweepEngine {
        SweepEngine { seed_chunk, ..engine }
    }

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let f = |i: usize| (i * 31) % 17;
        let expected: Vec<usize> = (0..100).map(f).collect();
        let map = |n, threads| par_map_indexed_with(n, threads, || (), |_, i| f(i));
        for threads in [1, 2, 3, 8] {
            assert_eq!(map(100, threads), expected);
        }
        assert_eq!(map(0, 4), Vec::<usize>::new());
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

    /// Streaming must hold exactly points×arms accumulators and a window-sized ring —
    /// never per-cell storage — and fold out-of-order deposits in item order.
    #[test]
    fn stream_reducer_is_bounded_and_folds_in_order() {
        let (points, arms, n_chunks, chunk, n_seeds) = (2usize, 3usize, 4usize, 2usize, 8usize);
        let window = 3;
        let reducer = StreamReducer::new(points, arms, n_chunks, chunk, n_seeds, window);
        {
            let st = reducer.state.lock().unwrap();
            assert_eq!(st.accumulators.len(), points * arms, "must be O(points×arms)");
            assert_eq!(st.ring.len(), window, "pending storage must be window-bounded");
        }

        // Claim everything the window allows; the next claim would have to block, so check
        // the guard condition instead of claiming from this single thread.
        let mut claimed = Vec::new();
        for _ in 0..window {
            claimed.push(reducer.claim().unwrap());
        }
        assert_eq!(claimed, vec![0, 1, 2]);
        {
            let st = reducer.state.lock().unwrap();
            assert!(st.next_item >= st.floor + window, "further claims must block");
        }

        // Deposit out of order: 2 and 1 park in the ring, 0 unlocks the in-order fold of
        // all three.
        let sample = |v: f64| Some(CellOutput::new(v, 10.0 * v));
        let chunk_cells = |base: f64| -> Vec<Option<CellOutput>> {
            // arm-major, 2 seeds per chunk: arm a gets (base + a·10), (base + a·10 + 1).
            (0..arms)
                .flat_map(|a| (0..chunk).map(move |s| sample(base + (a * 10 + s) as f64)))
                .collect()
        };
        reducer.deposit(2, &mut chunk_cells(200.0));
        reducer.deposit(1, &mut chunk_cells(100.0));
        {
            let st = reducer.state.lock().unwrap();
            assert_eq!(st.floor, 0, "nothing folds before item 0 lands");
            assert_eq!(st.pending, 2);
        }
        reducer.deposit(0, &mut chunk_cells(0.0));
        {
            let st = reducer.state.lock().unwrap();
            assert_eq!(st.floor, 3, "items 0..3 fold as one run");
            assert_eq!(st.pending, 0);
            assert!(st.peak_pending <= window);
        }

        // The folded accumulators must equal the sequential per-(point, arm) fold.
        let (accs, error, peak) = reducer.into_parts();
        assert!(error.is_none());
        assert!(peak <= window);
        // Point 0, arm 0 saw chunks 0,1,2 (seeds 0..6): samples base+0, base+1 per chunk.
        let expected = Aggregate::from_samples(&[
            sample(0.0),
            sample(1.0),
            sample(100.0),
            sample(101.0),
            sample(200.0),
            sample(201.0),
        ]);
        assert_eq!(accs[0].finish(), expected);
    }

    #[test]
    fn streaming_and_materializing_reductions_are_bit_identical() {
        let grid = || {
            let mut grid = SweepGrid::new((0..7).collect::<Vec<u64>>());
            for x in [6.0, 12.0] {
                grid = grid.point(
                    x,
                    flsys::ScenarioBuilder::paper_default().with_devices(4).with_p_max_dbm(x),
                );
            }
            grid.arm(proposed(Weights::balanced()))
        };
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
