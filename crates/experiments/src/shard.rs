//! Sharded fleet execution: split one [`ExperimentSpec`] into seed sub-range shards, run
//! them as subprocesses of the `fedopt` binary (or in process), cache finished shards on
//! disk by content hash, and merge the shard results back into the exact
//! [`SweepResult`] a single-process run would have produced.
//!
//! ## Bit-identity by replay, not by summing
//!
//! The merge contract is *byte-for-byte* equality with the unsharded run — aggregates,
//! counters, and the rendered `--json` report alike. Float addition is not associative,
//! so merging per-shard *sums* would not achieve that. Instead a shard ships the **raw
//! per-cell samples** of its seed sub-range ([`crate::engine::SweepEngine::run_cells`]) and the
//! coordinator replays them through one [`AggregateAccumulator`] per (point, arm) in
//! shard order ([`AggregateAccumulator::merge_samples`]). Because [`split`] partitions
//! the seed sequence contiguously and in order, the replayed fold performs literally the
//! same sequence of pushes as the single-process reduction — bit-identical by
//! construction. Counters are exact integer sums, mergeable in any order. The engine
//! resets all warm-start state at every (point, seed) cell-group boundary, so a cell's
//! output never depends on which other seeds share its process — which is what makes
//! seed-granular sharding sound in the first place.
//!
//! ## The shard document
//!
//! Everything crossing a process or filesystem boundary uses the deterministic
//! [`crate::json`] codec (never serde): the shard spec piped to a worker's stdin, and one
//! [`ShardResult`] document that is both what the worker streams back on stdout
//! (`fedopt run --spec - --shard-json`) and, byte for byte, the cache entry under
//! `--cache-dir`. Its members are declared once, as the `section!` rows of
//! [`ShardDocument`] (the row machinery of [`crate::spec`]), which alone decide what is
//! written, in which order, and what a reader accepts: one [`SampleCell`] per sample and
//! the [`SweepCounters`] rows, every solver counter included, for the counters. The
//! document is identified by its [`cache_key`] alone — the FNV-1a 64 hash of a canonical
//! preimage (format version, results revision, schema version, solver preset, and the
//! shard spec JSON normalized to drop result-invariant fields like `id`, `description`,
//! `reports` and engine scheduling knobs), so a renamed sweep reuses its cache and a
//! binary whose solves give other bits does not. Its whole-document `checksum` is
//! verified over the raw members before any of them is read, so a truncated or corrupted
//! document is a typed error on the pipe and a miss (recompute) on disk, never silently
//! trusted.
//!
//! ## Failure semantics
//!
//! The hardening contract, enforced under injected faults (see [`crate::fault`]): a
//! fleet run either completes byte-identical to the single-process run, salvages with
//! *explicit* holes ([`FleetOptions::allow_partial`] / [`FleetStats::holes`]), or fails
//! with a typed [`ShardError`] — it never hangs (wall-clock **and** heartbeat-silence
//! timeouts bound every worker), never panics the coordinator, and never returns
//! silently-wrong aggregates (the wire checksum and the replay-based merge see to that).
//! Failed shards are retried with deterministic exponential backoff ([`backoff_delay`]).

use crate::engine::{
    fold_in_order, Aggregate, AggregateAccumulator, CellMatrix, CellOutput, SweepCounters,
    SweepResult,
};
use crate::json::{fnv1a_64, Json};
use crate::spec::{
    check_at, ensure, section, EngineSpec, ExperimentSpec, Field, Obj, SeedPolicy, SpecError,
};
use fedopt_core::SolveCounters;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::fmt::{self, Display};
use std::io::Write as _;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Version of the shard result document, on the worker pipe and in the cache alike.
/// Bumping it invalidates every existing cache entry (the key preimage includes it).
/// Version 2 added the whole-document `checksum` member and the `degraded_solves`
/// counter; version 3 dropped `spec_id` and made the document the cache entry itself.
pub const SHARD_FORMAT_VERSION: u64 = 3;

/// Revision of what the solver computes, a member of every [`cache_key`] preimage. Any
/// change that moves a solve's output bits, on the warm or the cold path, bumps it: the
/// merge contract is byte equality with a single-process run of the *same* binary, so a
/// cache written by a binary that computes other bits must miss instead of answering.
/// Revision 1: warm KKT solves start from the carried `W₀` lane pair. Revision 2: the
/// fastest round is a Newton root, and Algorithm 1 stops a run that stalls. Revision 3:
/// the baselines report a missed deadline as an infeasible cell. Revision 4: the warm
/// path solves each Subproblem 2 only as tightly as the previous outer iteration moved.
pub const RESULTS_REVISION: u64 = 4;

/// Default per-shard wall-clock timeout of the subprocess runner.
pub const DEFAULT_SHARD_TIMEOUT: Duration = Duration::from_secs(600);

/// Default heartbeat-silence timeout of the subprocess runner: a worker that has not
/// emitted a [`HEARTBEAT_PREFIX`] stderr line for this long is killed as stalled, even
/// when its wall-clock budget is not yet spent — a silent hang must not cost the whole
/// [`DEFAULT_SHARD_TIMEOUT`].
pub const DEFAULT_HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(30);

/// Default retries per failed shard beyond its first attempt.
pub const DEFAULT_MAX_RETRIES: usize = 1;

/// Default base delay of the deterministic exponential retry backoff.
pub const DEFAULT_RETRY_BACKOFF: Duration = Duration::from_millis(100);

/// The worker heartbeat line on stderr. The coordinator reads any line with this prefix
/// as a liveness signal and keeps it out of the captured stderr tail.
pub const HEARTBEAT_PREFIX: &str = "fedopt-heartbeat";

/// Interval between a worker's heartbeat lines: four beats fit into the shortest silence
/// window the CLI accepts (`--shard-heartbeat 1`), so scheduling jitter alone never kills
/// a healthy worker.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Byte budget of the stderr tail captured per worker for failure reports. Oldest lines
/// are dropped first; any drop is marked with a leading `… (truncated)`.
pub const STDERR_TAIL_BUDGET: usize = 2048;

/// Grace period before a crashed writer's `*.json.tmp.<pid>` file is garbage-collected:
/// a younger temp file may belong to a live writer about to rename it into place.
pub const TMP_GRACE: Duration = Duration::from_secs(60);

/// `kind` tag of a shard result document.
const RESULT_KIND: &str = "fedopt_shard_result";
/// `kind` tag of the cache-key preimage document (never written to disk; hashed).
const KEY_KIND: &str = "fedopt_shard_cache_key";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why one shard attempt failed, as reported by a [`ShardRunner`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRunError {
    /// Human-readable description; ends up verbatim in the failure report.
    pub message: String,
    /// Seconds between the worker's last observed heartbeat and the failure, when the
    /// runner tracks heartbeats (`None` for in-process runs and for workers that never
    /// heartbeated).
    pub last_heartbeat_s: Option<f64>,
}

impl From<String> for ShardRunError {
    fn from(message: String) -> Self {
        Self { message, last_heartbeat_s: None }
    }
}

impl fmt::Display for ShardRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// One shard's terminal failure, after its retries.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFailure {
    /// Shard index (0-based) within the split.
    pub index: usize,
    /// Human-readable description of the shard's seed sub-range.
    pub seeds: String,
    /// How many attempts were made (1 + retries).
    pub attempts: usize,
    /// The last attempt's error.
    pub error: String,
    /// Seconds between the worker's last observed heartbeat and the failure, when known
    /// — the difference between "died instantly" and "went quiet mid-sweep".
    pub last_heartbeat_s: Option<f64>,
}

/// Why a fleet run (or one of its pieces) failed.
#[derive(Debug)]
pub enum ShardError {
    /// The parent spec failed validation (or a shard grid failed to compile/run).
    Spec(SpecError),
    /// A shard document was malformed.
    Codec(String),
    /// Some shards failed after their retry; the successful shards' work is described so
    /// nothing is silently dropped.
    Partial {
        /// Every failed shard, in shard order.
        failures: Vec<ShardFailure>,
        /// Number of shards that completed.
        completed: usize,
        /// Total number of shards.
        total: usize,
    },
    /// Shard results disagreed with each other or with the parent spec during the merge.
    Merge(String),
    /// Filesystem trouble in the cache directory.
    Io(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Spec(e) => write!(f, "{e}"),
            ShardError::Codec(msg) => write!(f, "malformed shard document: {msg}"),
            ShardError::Partial { failures, completed, total } => {
                writeln!(
                    f,
                    "fleet run FAILED: {} of {total} shards failed ({completed} completed):",
                    failures.len()
                )?;
                for failure in failures {
                    write!(
                        f,
                        "  shard {}/{total} (seeds {}) failed after {} attempt(s): {}",
                        failure.index + 1,
                        failure.seeds,
                        failure.attempts,
                        failure.error
                    )?;
                    if let Some(age) = failure.last_heartbeat_s {
                        write!(f, " [last heartbeat {age:.1}s before failure]")?;
                    }
                    writeln!(f)?;
                }
                write!(f, "no partial output was written")
            }
            ShardError::Merge(msg) => write!(f, "shard results do not merge: {msg}"),
            ShardError::Io(msg) => write!(f, "shard cache I/O: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for ShardError {
    fn from(e: SpecError) -> Self {
        ShardError::Spec(e)
    }
}

// ---------------------------------------------------------------------------
// Splitting
// ---------------------------------------------------------------------------

/// Partitions a valid spec's seed policy into at most `n` shard specs.
///
/// The shards partition the parent's seed sequence **exactly** — contiguous, in order, no
/// overlap, no gap — so replaying shard results in shard order reproduces the parent's
/// seed-order fold. `n` is clamped to the seed count (a 3-seed sweep split 8 ways yields
/// 3 single-seed shards); seed counts are balanced to within one (the first
/// `count % shards` shards get the extra seed). Every other spec field is copied
/// verbatim, so each shard is itself a complete, valid, runnable spec.
///
/// # Errors
///
/// [`ShardError::Spec`] when the parent spec fails validation, or [`ShardError::Merge`]
/// when `n == 0`.
pub fn split(spec: &ExperimentSpec, n: usize) -> Result<Vec<ExperimentSpec>, ShardError> {
    if n == 0 {
        return Err(ShardError::Merge("cannot split a spec into 0 shards".to_string()));
    }
    spec.validate()?;
    let total = spec.seeds.len();
    let shards = (n as u64).min(total).max(1);
    let base = total / shards;
    let remainder = total % shards;

    let mut out = Vec::with_capacity(shards as usize);
    let mut offset = 0u64;
    for k in 0..shards {
        let count = base + u64::from(k < remainder);
        let mut shard = spec.clone();
        shard.seeds.policy = match &spec.seeds.policy {
            SeedPolicy::Range { start, .. } => SeedPolicy::Range { start: start + offset, count },
            SeedPolicy::List(seeds) => {
                SeedPolicy::List(seeds[offset as usize..(offset + count) as usize].to_vec())
            }
        };
        out.push(shard);
        offset += count;
    }
    debug_assert_eq!(offset, total);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Cache key
// ---------------------------------------------------------------------------

/// The content-addressed cache key of a shard spec: 16 lowercase hex digits of the
/// FNV-1a 64 hash of the canonical key preimage.
///
/// The preimage is a compact JSON document of the cache-format version
/// ([`SHARD_FORMAT_VERSION`]), the results revision ([`RESULTS_REVISION`]), the spec
/// schema version, the resolved solver preset name, and the shard spec itself
/// **normalized to what actually determines the samples**:
/// `id`, `description` and `reports` are cleared (renaming a sweep or adding a report
/// must not re-key its finished shards) and the engine block keeps only the *effective*
/// warm-start switch — the thread count is a scheduling decision, proven
/// result-invariant by the engine's determinism tests. The warm-start switch *is*
/// result-affecting (warm solves converge along a different trajectory), so the key pins
/// it to the value the run will actually use, as [`EngineSpec::to_engine`] resolves it.
pub fn cache_key(spec: &ExperimentSpec) -> String {
    let mut normalized = spec.clone();
    normalized.id = String::new();
    normalized.description = String::new();
    normalized.reports = Vec::new();
    normalized.engine =
        EngineSpec { threads: None, warm_start: Some(spec.engine.to_engine().warm_starts()) };
    let preimage = Json::obj([
        ("kind", Json::Str(KEY_KIND.to_string())),
        ("cache_version", Json::uint(SHARD_FORMAT_VERSION)),
        ("results_revision", Json::uint(RESULTS_REVISION)),
        ("schema_version", Json::uint(crate::spec::SCHEMA_VERSION)),
        ("solver_preset", Json::Str(spec.solver.preset.name().to_string())),
        ("spec", normalized.to_json()),
    ]);
    hash_hex(&preimage)
}

/// 16 lowercase hex digits of the FNV-1a 64 hash of a document's compact serialization.
fn hash_hex(doc: &Json) -> String {
    format!("{:016x}", fnv1a_64(doc.to_compact_string().as_bytes()))
}

// ---------------------------------------------------------------------------
// The shard result and its codec
// ---------------------------------------------------------------------------

/// Where a solver counter is written besides the shard document, which carries them all.
#[derive(Clone, Copy)]
enum Emit {
    /// In every counters member.
    Always,
    /// Elsewhere only when nonzero, so fault-free output stays byte-stable.
    Nonzero,
    /// In the shard document only.
    ShardOnly,
}

/// The solver counters, in member order. Each accessor serves both directions: emit
/// reads the counter through it, parse writes it.
type CounterField = fn(&mut SolveCounters) -> &mut u64;
const SOLVER_COUNTERS: [(&str, CounterField, Emit); 8] = [
    ("outer_iterations", |c| &mut c.outer_iterations, Emit::Always),
    ("jong_iterations", |c| &mut c.jong_iterations, Emit::Always),
    ("kkt_solves", |c| &mut c.kkt_solves, Emit::Always),
    ("mu_bisect_evals", |c| &mut c.mu_bisect_evals, Emit::Always),
    ("sp2_fast_path_hits", |c| &mut c.sp2_fast_path_hits, Emit::Always),
    ("sp1_probe_evals", |c| &mut c.sp1_probe_evals, Emit::ShardOnly),
    ("lp_sorts", |c| &mut c.lp_sorts, Emit::ShardOnly),
    ("degraded_solves", |c| &mut c.degraded_solves, Emit::Nonzero),
];

/// Solver work counters as JSON. The shard document carries every row of the table; the
/// `counters.solver` member of `fedopt run --json` and a serve response's `counters`
/// (the *delta* its request contributed) write each row by its [`Emit`] rule.
pub(crate) fn solver_counters_json(c: &SolveCounters, shard_document: bool) -> Json {
    let mut c = *c;
    Json::Obj(
        SOLVER_COUNTERS
            .iter()
            .filter_map(|&(name, counter, emit)| {
                let value = *counter(&mut c);
                let shown = shard_document
                    || match emit {
                        Emit::Always => true,
                        Emit::Nonzero => value > 0,
                        Emit::ShardOnly => false,
                    };
                shown.then(|| (name.to_string(), Json::uint(value)))
            })
            .collect(),
    )
}

/// Reads the rows of the counter table; an absent row reads as `absent`, or is missing.
fn read_solver_counters(
    v: &Json,
    path: &dyn Display,
    absent: Option<u64>,
) -> Result<SolveCounters, SpecError> {
    let obj = Obj::new(v, path, &SOLVER_COUNTERS.map(|(name, _, _)| name))?;
    let mut counters = SolveCounters::default();
    for (name, counter, _) in SOLVER_COUNTERS {
        *counter(&mut counters) = obj.field(name, absent)?;
    }
    Ok(counters)
}

/// Every solver counter, as the shard document carries them.
impl Field for SolveCounters {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        read_solver_counters(v, path, None)
    }

    fn write(&self) -> Option<Json> {
        Some(solver_counters_json(self, true))
    }
}

/// Solver counters outside the shard document (a serve response's `counters`): each row
/// is written by its emit rule (always, only when nonzero, or never), and a row left out
/// reads back as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportedCounters(pub SolveCounters);

impl Field for ReportedCounters {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        read_solver_counters(v, path, Some(0)).map(Self)
    }

    fn write(&self) -> Option<Json> {
        Some(solver_counters_json(&self.0, false))
    }
}

/// One sample of the shard document: `null` for an infeasible draw, else
/// `[energy, time]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleCell(pub Option<CellOutput>);

impl Field for SampleCell {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        match v {
            Json::Null => Ok(Self(None)),
            pair => <(f64, f64)>::read(pair, path).map(|(e, t)| Self(Some(CellOutput::new(e, t)))),
        }
    }

    fn write(&self) -> Option<Json> {
        self.0.map_or(Some(Json::Null), |c| (c.energy_j, c.time_s).write())
    }
}

section! {
    /// The shard document, member by member: the worker's stdout line and, byte for byte,
    /// the cache entry. [`ShardResult::to_json`] writes it and [`ShardResult::from_json`]
    /// reads it.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ShardDocument {
        /// [`SHARD_FORMAT_VERSION`].
        schema_version: u64, check format_version;
        /// `"fedopt_shard_result"`.
        kind: String, check result_kind;
        /// [`cache_key`] of the shard spec, as computed by the process that ran it.
        key: String;
        /// The x value of every sweep point, in grid order.
        xs: Vec<f64>;
        /// The arm (column) names, in grid order.
        arm_names: Vec<String>;
        /// Number of seeds per (point, arm).
        seeds: usize;
        /// `samples[point][arm][seed]`, exactly `points × arms × seeds`.
        samples: Vec<Vec<Vec<SampleCell>>>;
        /// The shard's work counters, every solver counter included.
        counters: SweepCounters;
        /// The FNV-1a 64 hash of the compact serialization of every other member; unset
        /// while it is computed.
        checksum: Option<String>;
    }
    cross samples_fill_the_grid;
}

fn format_version(version: &u64) -> Result<(), String> {
    let message = format_args!("expected format {SHARD_FORMAT_VERSION}, got {version}");
    ensure(*version == SHARD_FORMAT_VERSION, message)
}

fn result_kind(kind: &str) -> Result<(), String> {
    ensure(kind == RESULT_KIND, format_args!("expected {RESULT_KIND:?}, got {kind:?}"))
}

fn samples_fill_the_grid(doc: &ShardDocument, path: &dyn Display) -> Result<(), SpecError> {
    let (points, arms, seeds) = (doc.xs.len(), doc.arm_names.len(), doc.seeds);
    let fills = doc.samples.len() == points
        && doc
            .samples
            .iter()
            .all(|row| row.len() == arms && row.iter().all(|cell| cell.len() == seeds));
    let message =
        format_args!("expected {points} × {arms} × {seeds} samples, each null or [energy, time]");
    check_at(path, "samples", ensure(fills, message))
}

/// The raw output of one shard: the [`CellMatrix`] of the shard spec — every cell sample
/// of its seed sub-range plus the shard's work counters — stamped with the cache key it
/// answers. The key is the result's one identity: it pins everything that determines
/// the samples and, by design, not the spec's name.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// [`cache_key`] of the shard spec, as computed by the process that ran it.
    pub key: String,
    /// The shard's samples and counters (the counters are exact integer sums that merge by
    /// addition).
    pub cells: CellMatrix,
}

impl ShardResult {
    /// Stamps a [`CellMatrix`] with the shard spec's cache key.
    pub fn from_cells(spec: &ExperimentSpec, cells: CellMatrix) -> Self {
        Self { key: cache_key(spec), cells }
    }

    /// Serializes to the deterministic [`ShardDocument`]: the worker's stdout format and,
    /// byte for byte, the cache entry format.
    ///
    /// The final `checksum` member is the FNV-1a 64 hash of the compact serialization of
    /// every *other* member. [`ShardResult::from_json`] re-derives and compares it, so a
    /// single flipped byte anywhere in the document — even one that still parses as a
    /// different valid number — is a typed codec error, never a silently-wrong merge.
    pub fn to_json(&self) -> Json {
        let cells = &self.cells;
        let samples = (0..cells.xs.len()).map(|p| {
            let cell = |a| cells.cell_slice(p, a).iter().copied().map(SampleCell).collect();
            (0..cells.arm_names.len()).map(cell).collect()
        });
        let mut doc = ShardDocument {
            schema_version: SHARD_FORMAT_VERSION,
            kind: RESULT_KIND.to_string(),
            key: self.key.clone(),
            xs: cells.xs.clone(),
            arm_names: cells.arm_names.clone(),
            seeds: cells.n_seeds,
            samples: samples.collect(),
            counters: cells.counters,
            checksum: None,
        };
        doc.checksum = doc.write().as_ref().map(hash_hex);
        doc.write().expect("a section always writes an object")
    }

    /// Serializes to the compact single-line document string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_compact_string()
    }

    /// Parses and structurally validates a shard document through the strict object
    /// reader that specs and serve requests use.
    ///
    /// # Errors
    ///
    /// [`ShardError::Codec`] naming the offending member on any missing or unknown
    /// member, type mismatch, version/kind/checksum mismatch, or dimension
    /// inconsistency (the sample tensor must be exactly `points × arms × seeds`).
    pub fn from_json(doc: &Json) -> Result<Self, ShardError> {
        Self::read(doc).map_err(|e| match e {
            SpecError::Invalid { path, message } => codec(format!("{path}: {message}")),
            other => codec(other.to_string()),
        })
    }

    fn read(doc: &Json) -> Result<Self, SpecError> {
        // Whole-document integrity check before trusting any value: hash the canonical
        // re-emission of everything but the checksum member. Our own compact output
        // re-emits byte-identically, so a corrupted byte either breaks the parse, changes
        // a value (hash mismatch), or was semantically inert — all three are safe.
        let obj = Obj::any(doc, &"shard")?;
        let members = doc.as_object().unwrap_or_default().iter().filter(|(k, _)| k != "checksum");
        let actual = hash_hex(&Json::Obj(members.cloned().collect()));
        if actual != obj.field::<String>("checksum", None)? {
            return Err(SpecError::invalid(
                obj.path_of("checksum"),
                format!("the other members hash to {actual}: the document was corrupted"),
            ));
        }
        let doc = ShardDocument::read(doc, &"shard")?;
        let samples = doc.samples.into_iter().flatten().flatten().map(|cell| cell.0).collect();
        let (xs, arm_names, n_seeds, counters) = (doc.xs, doc.arm_names, doc.seeds, doc.counters);
        Ok(Self { key: doc.key, cells: CellMatrix { xs, arm_names, n_seeds, samples, counters } })
    }

    /// [`ShardResult::from_json`] from text.
    ///
    /// # Errors
    ///
    /// [`ShardError::Codec`] on parse or structural failure.
    pub fn from_json_str(text: &str) -> Result<Self, ShardError> {
        let doc = Json::parse(text).map_err(|e| codec(format!("not valid JSON: {e}")))?;
        Self::from_json(&doc)
    }
}

fn codec(msg: impl Into<String>) -> ShardError {
    ShardError::Codec(msg.into())
}

/// Runs one shard spec in this process: compile the grid, evaluate with the spec's
/// engine, return the raw cell matrix stamped as a [`ShardResult`]. This is the body of
/// the `fedopt run --spec - --shard-json` worker mode.
///
/// # Errors
///
/// Validation errors, or any sweep error from the engine.
pub fn run_shard_in_process(spec: &ExperimentSpec) -> Result<ShardResult, SpecError> {
    let grid = spec.grid()?;
    let cells = spec.engine.to_engine().run_cells(&grid)?;
    Ok(ShardResult::from_cells(spec, cells))
}

// ---------------------------------------------------------------------------
// The on-disk cache
// ---------------------------------------------------------------------------

/// Content-addressed on-disk cache of finished shard results.
///
/// One file per shard, named `shard-<key>.json` after the shard spec's [`cache_key`].
/// An entry is the [`ShardResult`] document exactly as a worker prints it, so the
/// document's own checksum guards the disk as it guards the pipe: [`ShardCache::load`]
/// reads a truncated, bit-flipped or hand-edited entry as a miss (the shard is
/// recomputed and the entry overwritten) — corruption is never silently trusted. Writes
/// go through a temp file + rename, so a crashed writer leaves no half-written entry
/// under the final name. Entries carry no expiry: a key embeds everything that
/// determines the samples, so a hit can only go stale by bumping
/// [`SHARD_FORMAT_VERSION`].
#[derive(Debug, Clone)]
pub struct ShardCache {
    dir: PathBuf,
}

impl ShardCache {
    /// A cache over `dir`. Does no I/O: [`ShardCache::store`] creates the directory on
    /// its first write, and [`ShardCache::stats`] / [`ShardCache::gc`] fail on a
    /// directory that does not exist instead of creating a mistyped one.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The entry path of a cache key.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("shard-{key}.json"))
    }

    /// Loads and validates the entry of `key`. Any failure — missing file, a document
    /// [`ShardResult::from_json_str`] rejects, a key mismatch — is a miss (`None`), never
    /// an error: the coordinator recomputes and overwrites.
    pub fn load(&self, key: &str) -> Option<ShardResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        ShardResult::from_json_str(&text).ok().filter(|result| result.key == key)
    }

    /// Aggregate statistics of the cache directory: entry count/bytes plus leftover
    /// `*.json.tmp.<pid>` files from crashed (or currently in-flight) writers.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] when the directory cannot be listed.
    pub fn stats(&self) -> Result<CacheStats, ShardError> {
        let (entries, tmps) = self.scan()?;
        Ok(CacheStats {
            entries: entries.len() as u64,
            entry_bytes: entries.iter().map(|(_, n, _)| n).sum(),
            tmp_files: tmps.len() as u64,
            tmp_bytes: tmps.iter().map(|(_, n, _)| n).sum(),
        })
    }

    /// Garbage-collects the cache: removes crashed-writer temp files past their grace
    /// period ([`TMP_GRACE`], or `max_age` when that is sooner), expires entries older
    /// than `max_age`, then — when `max_bytes` is set — evicts the least-recently
    /// modified entries until the remainder fits the byte budget.
    ///
    /// Eviction is a plain unlink, which POSIX guarantees never disturbs a reader that
    /// already opened the file: an in-flight [`ShardCache::load`] finishes from the open
    /// descriptor, and the next load of that key is an ordinary miss. A concurrent
    /// writer is equally safe — [`ShardCache::store`] publishes by rename, so GC only
    /// ever sees complete entries or clearly-marked temp files.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] when the directory cannot be listed (individual remove
    /// failures are skipped — a file deleted by a concurrent GC is not an error).
    pub fn gc(
        &self,
        max_age: Option<Duration>,
        max_bytes: Option<u64>,
    ) -> Result<GcReport, ShardError> {
        let now = SystemTime::now();
        let age_of = |mtime: SystemTime| now.duration_since(mtime).unwrap_or(Duration::ZERO);
        let (mut entries, tmps) = self.scan()?;
        let mut report = GcReport::default();

        let tmp_cutoff = max_age.map_or(TMP_GRACE, |age| age.min(TMP_GRACE));
        for (path, _, mtime) in &tmps {
            if age_of(*mtime) >= tmp_cutoff && std::fs::remove_file(path).is_ok() {
                report.removed_tmp_files += 1;
            }
        }

        if let Some(max_age) = max_age {
            entries.retain(|(path, bytes, mtime)| {
                if age_of(*mtime) >= max_age && std::fs::remove_file(path).is_ok() {
                    report.evicted_entries += 1;
                    report.evicted_bytes += bytes;
                    false
                } else {
                    true
                }
            });
        }

        if let Some(max_bytes) = max_bytes {
            entries.sort_by_key(|e| e.2);
            let mut total: u64 = entries.iter().map(|(_, n, _)| *n).sum();
            let mut kept = Vec::with_capacity(entries.len());
            for (path, bytes, mtime) in entries {
                if total > max_bytes && std::fs::remove_file(&path).is_ok() {
                    report.evicted_entries += 1;
                    report.evicted_bytes += bytes;
                    total -= bytes;
                } else {
                    kept.push((path, bytes, mtime));
                }
            }
            entries = kept;
        }

        report.retained_entries = entries.len() as u64;
        report.retained_bytes = entries.iter().map(|(_, n, _)| n).sum();
        Ok(report)
    }

    /// Lists `(path, bytes, mtime)` of cache entries and of leftover temp files.
    fn scan(&self) -> Result<(Vec<ScanItem>, Vec<ScanItem>), ShardError> {
        let mut entries = Vec::new();
        let mut tmps = Vec::new();
        let listing = std::fs::read_dir(&self.dir)
            .map_err(|e| ShardError::Io(format!("cannot list {}: {e}", self.dir.display())))?;
        for item in listing {
            let Ok(item) = item else { continue };
            let name = item.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with("shard-") {
                continue;
            }
            let Ok(meta) = item.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            if name.contains(".json.tmp.") {
                tmps.push((item.path(), meta.len(), mtime));
            } else if name.ends_with(".json") {
                entries.push((item.path(), meta.len(), mtime));
            }
        }
        Ok((entries, tmps))
    }

    /// Stores a shard result under its own key (temp file + rename), creating the cache
    /// directory first if needed.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] when the directory cannot be created or the entry written.
    pub fn store(&self, result: &ShardResult) -> Result<(), ShardError> {
        let io = |e: std::io::Error, what: &str| ShardError::Io(format!("{what}: {e}"));
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| io(e, &format!("cannot create {}", self.dir.display())))?;
        let path = self.entry_path(&result.key);
        let tmp = self.dir.join(format!("shard-{}.json.tmp.{}", result.key, std::process::id()));
        std::fs::write(&tmp, result.to_json_string())
            .map_err(|e| io(e, "writing cache temp file"))?;
        std::fs::rename(&tmp, &path).map_err(|e| io(e, "publishing cache entry"))?;
        Ok(())
    }
}

/// `(path, bytes, mtime)` of one cache directory file.
type ScanItem = (PathBuf, u64, SystemTime);

/// Aggregate statistics of a cache directory (see [`ShardCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of published cache entries.
    pub entries: u64,
    /// Total bytes of the published entries.
    pub entry_bytes: u64,
    /// Leftover `*.json.tmp.<pid>` files from crashed (or in-flight) writers.
    pub tmp_files: u64,
    /// Total bytes of the leftover temp files.
    pub tmp_bytes: u64,
}

/// What one [`ShardCache::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries removed, by age or by the byte-budget LRU.
    pub evicted_entries: u64,
    /// Bytes reclaimed from evicted entries.
    pub evicted_bytes: u64,
    /// Crashed-writer temp files cleaned up.
    pub removed_tmp_files: u64,
    /// Entries kept.
    pub retained_entries: u64,
    /// Bytes kept.
    pub retained_bytes: u64,
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

/// Something that can run one shard spec to a [`ShardResult`] — in process for tests and
/// benchmarks, or as a `fedopt` subprocess for the fleet.
pub trait ShardRunner: Sync {
    /// Runs the shard.
    ///
    /// # Errors
    ///
    /// A [`ShardRunError`] whose message ends up verbatim in the partial-failure report
    /// (plus the last-heartbeat age, when the runner tracks one).
    fn run_shard(&self, spec: &ExperimentSpec) -> Result<ShardResult, ShardRunError>;
}

/// Runs shards inside the coordinating process (no subprocess, no timeout).
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessRunner;

impl ShardRunner for InProcessRunner {
    fn run_shard(&self, spec: &ExperimentSpec) -> Result<ShardResult, ShardRunError> {
        run_shard_in_process(spec).map_err(|e| ShardRunError::from(e.to_string()))
    }
}

/// Runs each shard as a subprocess of the `fedopt` binary: pipes the shard spec JSON to
/// `<program> run --spec - --shard-json` and parses the [`ShardResult`] document the
/// worker streams back on stdout. Enforces a per-shard wall-clock timeout **and** a
/// heartbeat-silence timeout — workers print a [`HEARTBEAT_PREFIX`] line on stderr every
/// [`HEARTBEAT_INTERVAL`], and a worker that goes quiet for [`DEFAULT_HEARTBEAT_TIMEOUT`] is killed as
/// stalled long before its wall-clock budget runs out. Non-heartbeat stderr is captured
/// into a [`STDERR_TAIL_BUDGET`]-bounded tail for failure reports, so a log-flooding
/// worker cannot balloon the coordinator's memory. The child inherits the coordinator's
/// environment — crucially including [`crate::engine::WARM_START_ENV`], so the
/// warm-start switch (and with it the cache key) agrees across the fleet.
#[derive(Debug, Clone)]
pub struct SubprocessRunner {
    program: PathBuf,
    timeout: Duration,
    heartbeat_timeout: Option<Duration>,
}

impl SubprocessRunner {
    /// A runner spawning `program` with the default timeouts.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        Self {
            program: program.into(),
            timeout: DEFAULT_SHARD_TIMEOUT,
            heartbeat_timeout: Some(DEFAULT_HEARTBEAT_TIMEOUT),
        }
    }

    /// Sets the per-shard wall-clock timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets (or with `None` disables) the heartbeat-silence timeout.
    /// A window must span several [`HEARTBEAT_INTERVAL`] beats; the CLI's whole seconds
    /// always do.
    #[must_use]
    pub fn with_heartbeat_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.heartbeat_timeout = timeout;
        self
    }
}

/// Shared per-worker stderr capture: the byte-bounded tail and the heartbeat liveness
/// clock. Public so the heartbeat fuzz suite can drive it with arbitrary
/// interleaved/truncated stderr directly.
#[derive(Debug, Default)]
pub struct StderrState {
    tail: VecDeque<String>,
    tail_bytes: usize,
    truncated: bool,
    last_heartbeat: Option<Instant>,
}

impl StderrState {
    /// Feeds one stderr line (without its newline) into the capture. Any
    /// [`HEARTBEAT_PREFIX`]-prefixed line, whatever follows the prefix, advances the
    /// liveness clock and stays out of the tail. Everything else lands in the
    /// [`STDERR_TAIL_BUDGET`]-bounded tail, oldest lines dropped first.
    pub fn observe(&mut self, line: &str) {
        if line.starts_with(HEARTBEAT_PREFIX) {
            self.last_heartbeat = Some(Instant::now());
            return;
        }
        let mut line = line.to_string();
        if line.len() > STDERR_TAIL_BUDGET {
            let mut cut = STDERR_TAIL_BUDGET;
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line.truncate(cut);
            self.truncated = true;
        }
        self.tail_bytes += line.len();
        self.tail.push_back(line);
        while self.tail_bytes > STDERR_TAIL_BUDGET && self.tail.len() > 1 {
            let dropped = self.tail.pop_front().expect("tail is non-empty");
            self.tail_bytes -= dropped.len();
            self.truncated = true;
        }
    }

    /// Renders the captured non-heartbeat tail for a failure report.
    pub fn render_tail(&self) -> String {
        if self.tail.is_empty() {
            return "(no stderr)".to_string();
        }
        let joined = self.tail.iter().map(String::as_str).collect::<Vec<_>>().join(" | ");
        if self.truncated {
            format!("… (truncated) | {joined}")
        } else {
            joined
        }
    }

    /// When the last heartbeat line was observed.
    pub fn last_heartbeat(&self) -> Option<Instant> {
        self.last_heartbeat
    }
}

/// How the subprocess poll loop ended.
enum WorkerExit {
    Status(std::process::ExitStatus),
    Killed(String),
}

impl ShardRunner for SubprocessRunner {
    fn run_shard(&self, spec: &ExperimentSpec) -> Result<ShardResult, ShardRunError> {
        let payload = spec.to_json_string();
        let mut cmd = Command::new(&self.program);
        cmd.args(["run", "--spec", "-", "--shard-json"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| {
            ShardRunError::from(format!("cannot spawn {}: {e}", self.program.display()))
        })?;

        // Dedicated threads for all three pipes: a worker blocked writing stdout while
        // the coordinator blocks writing a large spec to stdin would deadlock both.
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let stdin_writer = std::thread::spawn(move || {
            let _ = stdin.write_all(payload.as_bytes());
            // Dropping stdin closes the pipe — the worker's read loop sees EOF.
        });
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let stdout_reader = std::thread::spawn(move || {
            let mut buf = String::new();
            let _ = std::io::Read::read_to_string(&mut stdout, &mut buf);
            buf
        });
        // Stderr is read incrementally while the child runs: heartbeat lines feed the
        // liveness clock (and are excluded from capture), everything else lands in the
        // bounded tail.
        let stderr = child.stderr.take().expect("stderr was piped");
        let state = Arc::new(Mutex::new(StderrState::default()));
        let reader_state = Arc::clone(&state);
        let stderr_reader = std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(stderr);
            let mut buf = Vec::new();
            loop {
                buf.clear();
                match std::io::BufRead::read_until(&mut reader, b'\n', &mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let text = String::from_utf8_lossy(&buf);
                        let line = text.trim_end_matches(['\n', '\r']);
                        reader_state.lock().expect("stderr state poisoned").observe(line);
                    }
                }
            }
        });

        let start = Instant::now();
        let deadline = start + self.timeout;
        let exit = loop {
            match child.try_wait() {
                Ok(Some(status)) => break WorkerExit::Status(status),
                Ok(None) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break WorkerExit::Killed(format!(
                            "timed out after {:.0?} (worker killed)",
                            self.timeout
                        ));
                    }
                    if let Some(max_silence) = self.heartbeat_timeout {
                        let last = state.lock().expect("stderr state poisoned").last_heartbeat;
                        let silence = now.duration_since(last.unwrap_or(start));
                        if silence >= max_silence {
                            break WorkerExit::Killed(format!(
                                "no heartbeat for {silence:.0?} (worker killed as stalled)"
                            ));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => break WorkerExit::Killed(format!("waiting on worker failed: {e}")),
            }
        };
        if matches!(exit, WorkerExit::Killed(_)) {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = stdin_writer.join();
        let stdout_text = stdout_reader.join().unwrap_or_default();
        let _ = stderr_reader.join();

        let (tail, last_heartbeat_s) = {
            let st = state.lock().expect("stderr state poisoned");
            let age = st.last_heartbeat.map(|t| Instant::now().duration_since(t).as_secs_f64());
            (st.render_tail(), age)
        };
        let fail = |message: String| ShardRunError { message, last_heartbeat_s };

        let status = match exit {
            WorkerExit::Killed(reason) => return Err(fail(format!("{reason}; stderr: {tail}"))),
            WorkerExit::Status(status) => status,
        };
        if !status.success() {
            return Err(fail(format!("worker exited with {status}; stderr: {tail}")));
        }
        ShardResult::from_json_str(&stdout_text).map_err(|e| fail(format!("{e}; stderr: {tail}")))
    }
}

// ---------------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------------

/// How a fleet run is shaped: shard count, optional result cache, retry policy, and the
/// salvage switch. Up to one shard per available core runs at a time.
#[derive(Debug)]
pub struct FleetOptions {
    /// Number of shards to split into (clamped to the seed count; must be ≥ 1).
    pub shards: usize,
    /// Content-addressed result cache; `None` disables caching entirely.
    pub cache: Option<ShardCache>,
    /// Retries per failed shard beyond its first attempt (`0` disables retries).
    pub max_retries: usize,
    /// Base delay of the deterministic exponential backoff between attempts (see
    /// [`backoff_delay`]). `Duration::ZERO` disables waiting.
    pub backoff: Duration,
    /// Salvage mode: when some shards fail terminally but at least one completes, merge
    /// the survivors and record the missing seed ranges as explicit holes
    /// ([`FleetStats::holes`]) instead of failing the run. The merged means cover the
    /// surviving samples only — the holes, not any renormalization, are the record of
    /// what is missing.
    pub allow_partial: bool,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            shards: 0,
            cache: None,
            max_retries: DEFAULT_MAX_RETRIES,
            backoff: DEFAULT_RETRY_BACKOFF,
            allow_partial: false,
        }
    }
}

/// The deterministic exponential backoff before the `retry`-th retry (1-based) of a
/// failed shard: `base · 2^(retry−1)`, capped at 10 seconds. No jitter on purpose —
/// chaos tests assert exact retry schedules, and concurrent shards already
/// desynchronize naturally.
pub fn backoff_delay(base: Duration, retry: usize) -> Duration {
    const CAP: Duration = Duration::from_secs(10);
    let exponent = u32::try_from(retry.saturating_sub(1)).unwrap_or(u32::MAX).min(20);
    base.saturating_mul(1u32 << exponent).min(CAP)
}

/// What the coordinator observed: cache traffic, retries, and — in salvage mode — the
/// holes left by terminally failed shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Shards answered from the cache.
    pub shard_cache_hits: u64,
    /// Shards that had to be computed (cache configured but entry absent or invalid).
    pub shard_cache_misses: u64,
    /// Failed attempts that were retried (successfully or not).
    pub retries: u64,
    /// Terminally failed shards whose seed ranges are **missing** from the merged result.
    /// Always empty unless [`FleetOptions::allow_partial`] salvaged the run — consumers
    /// must surface these loudly, never fold them into a mean silently.
    pub holes: Vec<ShardFailure>,
    /// How many shards the run actually split into (after clamping to the seed count).
    /// Recorded in salvaged documents as `shard_count` so `fedopt run --fill-holes` can
    /// reproduce the identical split without the caller re-supplying `--shards`.
    pub shards: usize,
    /// Whether a cache was configured (the hit/miss counters are only meaningful then).
    pub cache_enabled: bool,
}

/// Splits the spec, runs every shard (one per available core at a time, cache-first,
/// configurable retries with deterministic backoff), and merges the shard results into the
/// exact [`SweepResult`] of a single-process run.
///
/// The worker pool claims shards in index order and hands their outcomes back in shard
/// order, so completion order never affects the output. A failed shard is
/// retried [`FleetOptions::max_retries`] times with [`backoff_delay`] waits between
/// attempts. Shards that still fail are collected into one loud [`ShardError::Partial`]
/// report naming each failed shard's seed range, last error, and last heartbeat age —
/// unless [`FleetOptions::allow_partial`] is set and at least one shard completed, in
/// which case the survivors are merged (bit-identical to their fault-free samples, the
/// replay simply skips the holes) and the failures come back as [`FleetStats::holes`].
///
/// # Errors
///
/// [`ShardError::Spec`] on an invalid parent spec, [`ShardError::Partial`] when shards
/// fail terminally (and salvage is off, or nothing completed), [`ShardError::Merge`]
/// when shard results are mutually inconsistent.
pub fn run_fleet(
    spec: &ExperimentSpec,
    opts: &FleetOptions,
    runner: &dyn ShardRunner,
) -> Result<(SweepResult, FleetStats), ShardError> {
    let shard_specs = split(spec, opts.shards)?;
    let keys: Vec<String> = shard_specs.iter().map(cache_key).collect();
    let total = shard_specs.len();
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let mut survivors: Vec<(usize, ShardResult)> = Vec::with_capacity(total);
    let mut failures: Vec<ShardFailure> = Vec::new();
    // Every shard runs to an outcome — a failed shard never stops its peers — so the pool
    // itself cannot fail; the window is the whole fleet, whose results are kept anyway.
    fold_in_order(
        total,
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        total,
        || (),
        |_, i| {
            let shard_spec = &shard_specs[i];
            let outcome =
                run_one_shard(shard_spec, &keys[i], opts, runner, (&hits, &misses, &retries))
                    .map_err(|(attempts, error)| ShardFailure {
                        index: i,
                        seeds: describe_seeds(shard_spec),
                        attempts,
                        error: error.message,
                        last_heartbeat_s: error.last_heartbeat_s,
                    });
            Ok::<_, Infallible>(outcome)
        },
        |i, outcome| match outcome {
            Ok(result) => survivors.push((i, result)),
            Err(failure) => failures.push(failure),
        },
    )
    .unwrap_or_else(|never| match never {});
    let completed = survivors.len();
    if !failures.is_empty() {
        let salvageable = opts.allow_partial && completed > 0;
        if !salvageable {
            return Err(ShardError::Partial { failures, completed, total });
        }
    }

    let stats = FleetStats {
        shard_cache_hits: hits.into_inner(),
        shard_cache_misses: misses.into_inner(),
        retries: retries.into_inner(),
        holes: failures,
        shards: total,
        cache_enabled: opts.cache.is_some(),
    };
    let merged = merge(&shard_specs, &survivors)?;
    Ok((merged, stats))
}

/// Cache-first execution of one shard with [`FleetOptions::max_retries`] retries and
/// deterministic backoff. Returns `(attempts, error)` on terminal failure.
fn run_one_shard(
    shard_spec: &ExperimentSpec,
    key: &str,
    opts: &FleetOptions,
    runner: &dyn ShardRunner,
    (hits, misses, retries): (&AtomicU64, &AtomicU64, &AtomicU64),
) -> Result<ShardResult, (usize, ShardRunError)> {
    if let Some(cache) = opts.cache.as_ref() {
        if let Some(result) = cache.load(key) {
            hits.fetch_add(1, Ordering::Relaxed);
            return Ok(result);
        }
        misses.fetch_add(1, Ordering::Relaxed);
    }
    let mut attempts = 0usize;
    let result = loop {
        attempts += 1;
        match runner.run_shard(shard_spec) {
            Ok(result) => break result,
            Err(_) if attempts <= opts.max_retries => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff_delay(opts.backoff, attempts));
            }
            Err(error) => return Err((attempts, error)),
        }
    };
    if result.key != key {
        return Err((
            attempts,
            ShardRunError::from(format!(
                "worker computed cache key {} for a shard the coordinator keyed {key} — \
                 the worker ran under a different effective configuration",
                result.key
            )),
        ));
    }
    if let Some(cache) = opts.cache.as_ref() {
        if let Err(e) = cache.store(&result) {
            // A failed store only loses future cache hits; the shard's result is good.
            eprintln!("warning: {e}");
        }
    }
    Ok(result)
}

/// Replays the surviving shard results, in shard order, into the single-process
/// [`SweepResult`]. With every shard present this is bit-identical to the unsharded
/// run; in salvage mode the fold simply skips the holes, so each (point, arm) aggregate
/// covers exactly the surviving shards' samples — bit-identical to those shards'
/// fault-free contribution, never a renormalized approximation of the full sweep.
fn merge(
    shard_specs: &[ExperimentSpec],
    survivors: &[(usize, ShardResult)],
) -> Result<SweepResult, ShardError> {
    let first =
        survivors.first().map(|(_, r)| r).ok_or_else(|| ShardError::Merge("no shards".into()))?;
    let (n_points, n_arms) = (first.cells.xs.len(), first.cells.arm_names.len());
    let mut accumulators: Vec<AggregateAccumulator> =
        vec![AggregateAccumulator::new(); n_points * n_arms];
    let mut counters = SweepCounters::default();

    for (i, result) in survivors {
        let shard_spec = &shard_specs[*i];
        if result.cells.xs != first.cells.xs || result.cells.arm_names != first.cells.arm_names {
            return Err(ShardError::Merge(format!(
                "shard {i} evaluated a different grid (points/arms mismatch)"
            )));
        }
        let expected_seeds = shard_spec.seeds.len();
        if result.cells.n_seeds as u64 != expected_seeds {
            return Err(ShardError::Merge(format!(
                "shard {i} carries {} seeds, its spec has {expected_seeds}",
                result.cells.n_seeds
            )));
        }
        for p in 0..n_points {
            for a in 0..n_arms {
                accumulators[p * n_arms + a].merge_samples(result.cells.cell_slice(p, a));
            }
        }
        counters.merge(&result.cells.counters);
    }

    let aggregates: Vec<Vec<Aggregate>> = (0..n_points)
        .map(|p| (0..n_arms).map(|a| accumulators[p * n_arms + a].finish()).collect())
        .collect();
    Ok(SweepResult {
        xs: first.cells.xs.clone(),
        arm_names: first.cells.arm_names.clone(),
        aggregates,
        counters,
    })
}

/// Human-readable seed sub-range of a shard spec, for failure reports and for matching
/// a salvaged document's `shard_holes` back to a re-split (`fedopt run --fill-holes`).
pub(crate) fn describe_seeds(spec: &ExperimentSpec) -> String {
    match &spec.seeds.policy {
        SeedPolicy::Range { start, count } => format!("{start}..{}", start + count),
        SeedPolicy::List(seeds) => format!("list of {}", seeds.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::warm_start_env;
    use crate::spec::{SeedSpec, SolverPreset};
    use std::path::Path;

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = crate::presets::spec(2, crate::presets::Variant::Quick).unwrap();
        spec.override_seed_count(5);
        spec
    }

    #[test]
    fn split_partitions_a_range_exactly() {
        let mut spec = tiny_spec();
        spec.seeds =
            SeedSpec { policy: SeedPolicy::Range { start: 7, count: 10 }, ..spec.seeds.clone() };
        let shards = split(&spec, 3).unwrap();
        assert_eq!(shards.len(), 3);
        let concatenated: Vec<u64> = shards.iter().flat_map(|s| s.seeds.values()).collect();
        assert_eq!(concatenated, spec.seeds.values());
        // Balanced to within one seed.
        let sizes: Vec<u64> = shards.iter().map(|s| s.seeds.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        // Everything but the seed policy is untouched.
        for shard in &shards {
            assert_eq!(shard.id, spec.id);
            assert_eq!(shard.arms, spec.arms);
            assert_eq!(shard.axis, spec.axis);
        }
    }

    #[test]
    fn split_clamps_to_the_seed_count_and_rejects_zero() {
        let spec = tiny_spec(); // 5 seeds
        assert_eq!(split(&spec, 16).unwrap().len(), 5);
        assert_eq!(split(&spec, 1).unwrap().len(), 1);
        assert!(matches!(split(&spec, 0), Err(ShardError::Merge(_))));
    }

    #[test]
    fn split_partitions_a_list_exactly() {
        let mut spec = tiny_spec();
        spec.seeds = SeedSpec::list([11u64, 3, 5, 8, 2, 13, 1]);
        let shards = split(&spec, 4).unwrap();
        let concatenated: Vec<u64> = shards.iter().flat_map(|s| s.seeds.values()).collect();
        assert_eq!(concatenated, vec![11, 3, 5, 8, 2, 13, 1]);
    }

    #[test]
    fn cache_key_ignores_naming_and_scheduling_but_not_results() {
        let spec = tiny_spec();
        let base = cache_key(&spec);
        assert_eq!(base.len(), 16, "16 hex digits");

        // Renaming, describing, re-reporting, re-threading: same key.
        let mut renamed = spec.clone();
        renamed.id = "renamed".to_string();
        renamed.description = "something else".to_string();
        renamed.reports.clear();
        renamed.engine.threads = Some(7);
        assert_eq!(cache_key(&renamed), base);

        // A different seed range: different key.
        let mut other_seeds = spec.clone();
        other_seeds.seeds =
            SeedSpec { policy: SeedPolicy::Range { start: 1, count: 5 }, ..spec.seeds.clone() };
        assert_ne!(cache_key(&other_seeds), base);

        // A different solver preset: different key.
        let mut other_solver = spec.clone();
        other_solver.solver.preset = SolverPreset::Default;
        assert_ne!(cache_key(&other_solver), base);

        // The warm-start switch is result-affecting: different key. (Guarded on a silent
        // environment — under FEDOPT_WARM_START the env pin wins for both, by design.)
        if warm_start_env().is_none() {
            let mut cold = spec.clone();
            cold.engine.warm_start = Some(false);
            assert_ne!(cache_key(&cold), base);
        }
    }

    /// One key, pinned per warm-start switch (the environment may pin it): any change to
    /// the preimage re-keys every cache, so it must be deliberate — bump
    /// [`RESULTS_REVISION`] and update these literals together.
    #[test]
    fn cache_key_of_a_fixed_spec_is_pinned() {
        let spec = tiny_spec();
        let expected = if spec.engine.to_engine().warm_starts() {
            "a8e66cbd907550c9"
        } else {
            "c9176035304c0b20"
        };
        assert_eq!(cache_key(&spec), expected);
    }

    #[test]
    fn shard_result_round_trips_through_the_wire_format() {
        // Seeds 2..4 of fig 2 quick on the cold single-thread path under a fixed key, so
        // the pinned document holds under every warm-start and thread setting.
        let spec = split(&tiny_spec(), 3).unwrap().remove(1);
        let engine = crate::SweepEngine::single_thread().with_warm_start(false);
        let cells = engine.run_cells(&spec.grid().unwrap()).unwrap();
        let result = ShardResult { key: "0123456789abcdef".to_string(), cells };
        let text = result.to_json_string();
        crate::check_golden("shard_fig2_quick_seeds2.json", &text);
        let back = ShardResult::from_json_str(&text).unwrap();
        assert_eq!(back, result);
        // And the document is byte-stable.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn malformed_shard_documents_are_rejected_with_context() {
        let spec = split(&tiny_spec(), 5).unwrap().remove(0);
        let good = run_shard_in_process(&spec).unwrap().to_json_string();
        let version = format!("\"schema_version\":{SHARD_FORMAT_VERSION}");
        for (needle, replacement) in [
            ("\"kind\":\"fedopt_shard_result\"", "\"kind\":\"something\""),
            (version.as_str(), "\"schema_version\":9"),
            ("\"seeds\":1", "\"seeds\":2"),
        ] {
            let bad = good.replacen(needle, replacement, 1);
            assert_ne!(bad, good, "replacement {needle:?} must apply");
            assert!(ShardResult::from_json_str(&bad).is_err(), "{needle} must be rejected");
        }
        assert!(ShardResult::from_json_str("not json").is_err());
        assert!(ShardResult::from_json_str("{}").is_err());
        // A checksum that holds does not let a tensor of the wrong shape through.
        let mut members = Json::parse(&good).unwrap().as_object().unwrap().to_vec();
        members.retain(|(k, _)| k != "checksum");
        members.iter_mut().find(|(k, _)| k == "seeds").unwrap().1 = Json::uint(2);
        let checksum = hash_hex(&Json::Obj(members.clone()));
        members.push(("checksum".to_string(), Json::Str(checksum)));
        let err = ShardResult::from_json(&Json::Obj(members)).unwrap_err();
        assert!(matches!(&err, ShardError::Codec(m) if m.starts_with("shard.samples:")), "{err}");
    }

    #[test]
    fn wire_checksum_rejects_single_byte_corruption() {
        let spec = split(&tiny_spec(), 5).unwrap().remove(0);
        let good = run_shard_in_process(&spec).unwrap().to_json_string();
        let corrupted = crate::fault::corrupt_payload(&good);
        assert_ne!(corrupted, good);
        match ShardResult::from_json_str(&corrupted) {
            Err(ShardError::Codec(_)) => {}
            Err(other) => panic!("expected a codec error, got {other:?}"),
            Ok(result) => assert_eq!(
                result,
                ShardResult::from_json_str(&good).unwrap(),
                "corruption may only be accepted when semantically inert"
            ),
        }
        // Dropping the checksum member entirely is equally fatal.
        let good_doc = run_shard_in_process(&spec).unwrap().to_json();
        if let Json::Obj(mut members) = good_doc {
            members.retain(|(k, _)| k != "checksum");
            let stripped = Json::Obj(members).to_compact_string();
            assert!(ShardResult::from_json_str(&stripped).is_err());
        } else {
            panic!("shard result must serialize to an object");
        }
    }

    #[test]
    fn degraded_solves_travel_on_the_wire() {
        let spec = split(&tiny_spec(), 5).unwrap().remove(0);
        let mut result = run_shard_in_process(&spec).unwrap();
        result.cells.counters.solver.degraded_solves = 3;
        let back = ShardResult::from_json_str(&result.to_json_string()).unwrap();
        assert_eq!(back.cells.counters.solver.degraded_solves, 3);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let base = Duration::from_millis(100);
        assert_eq!(backoff_delay(base, 1), Duration::from_millis(100));
        assert_eq!(backoff_delay(base, 2), Duration::from_millis(200));
        assert_eq!(backoff_delay(base, 3), Duration::from_millis(400));
        assert_eq!(backoff_delay(Duration::from_secs(8), 4), Duration::from_secs(10));
        assert_eq!(backoff_delay(Duration::ZERO, 7), Duration::ZERO);
        // Huge retry indices saturate instead of overflowing the shift.
        assert_eq!(backoff_delay(base, usize::MAX), Duration::from_secs(10));
    }

    #[test]
    fn stderr_tail_is_byte_bounded_and_marks_truncation() {
        let mut state = StderrState::default();
        assert_eq!(state.render_tail(), "(no stderr)");
        state.observe("short line");
        assert_eq!(state.render_tail(), "short line");
        for i in 0..200 {
            state.observe(&format!("noise line {i} {}", "x".repeat(64)));
        }
        let tail = state.render_tail();
        assert!(tail.starts_with("… (truncated) | "), "{tail}");
        assert!(tail.len() <= STDERR_TAIL_BUDGET + 64, "tail must stay near budget");
        assert!(tail.contains("noise line 199"), "newest lines survive");
        assert!(!tail.contains("short line"), "oldest lines are dropped");
        // Heartbeat lines feed the clock, not the tail.
        assert!(state.last_heartbeat.is_none());
        state.observe(HEARTBEAT_PREFIX);
        assert!(state.last_heartbeat.is_some());
        assert!(!state.render_tail().contains(HEARTBEAT_PREFIX));
        // A single over-budget line is cut, not kept whole.
        let mut fat = StderrState::default();
        fat.observe(&"y".repeat(STDERR_TAIL_BUDGET * 3));
        assert!(fat.render_tail().len() <= STDERR_TAIL_BUDGET + 32);
        assert!(fat.truncated);
    }

    #[test]
    fn cache_gc_respects_age_and_byte_budgets() {
        let dir = std::env::temp_dir().join(format!("fedopt-cache-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ShardCache::open(&dir);
        let shards = split(&tiny_spec(), 3).unwrap();
        let results: Vec<ShardResult> =
            shards.iter().map(|s| run_shard_in_process(s).unwrap()).collect();
        for r in &results {
            cache.store(r).unwrap();
            // An entry is the shard document, byte for byte.
            let entry = std::fs::read_to_string(cache.entry_path(&r.key)).unwrap();
            assert_eq!(entry, r.to_json_string());
        }
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 3);
        assert!(stats.entry_bytes > 0);
        assert_eq!(stats.tmp_files, 0);

        // Nothing is old and no byte budget binds: nothing evicted.
        let report = cache.gc(Some(Duration::from_secs(3600)), None).unwrap();
        assert_eq!(report.evicted_entries, 0);
        assert_eq!(report.retained_entries, 3);

        let backdate = |path: &Path, secs: u64| {
            let f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
            f.set_modified(SystemTime::now() - Duration::from_secs(secs)).unwrap();
        };

        // Age out one entry by back-dating its mtime.
        backdate(&cache.entry_path(&results[0].key), 7200);
        let report = cache.gc(Some(Duration::from_secs(3600)), None).unwrap();
        assert_eq!(report.evicted_entries, 1);
        assert!(cache.load(&results[0].key).is_none());
        assert!(cache.load(&results[1].key).is_some());

        // Byte budget: least-recently-modified entries go first until the rest fit.
        backdate(&cache.entry_path(&results[1].key), 60);
        let budget = cache.stats().unwrap().entry_bytes - 1; // forces ≥ 1 eviction
        let report = cache.gc(None, Some(budget)).unwrap();
        assert!(report.evicted_entries >= 1);
        assert!(cache.load(&results[1].key).is_none(), "the oldest entry goes first");
        assert!(cache.load(&results[2].key).is_some(), "the newest survives");
        assert!(cache.stats().unwrap().entry_bytes <= budget);
        assert_eq!(report.retained_bytes, cache.stats().unwrap().entry_bytes);

        // Crashed-writer temp files are cleaned once past the grace period — and a
        // fresh one is left alone (it may belong to a live writer).
        let stale = dir.join("shard-deadbeef.json.tmp.999");
        let fresh = dir.join("shard-cafebabe.json.tmp.998");
        std::fs::write(&stale, "half-written").unwrap();
        std::fs::write(&fresh, "half-written").unwrap();
        backdate(&stale, 7200);
        let report = cache.gc(None, None).unwrap();
        assert_eq!(report.removed_tmp_files, 1);
        assert!(!stale.exists());
        assert!(fresh.exists());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvaged_merge_is_bit_identical_to_surviving_shards_with_explicit_holes() {
        let spec = tiny_spec();
        let shards = split(&spec, 3).unwrap();
        let failing = describe_seeds(&shards[1]);

        struct FailSeeds(String);
        impl ShardRunner for FailSeeds {
            fn run_shard(&self, spec: &ExperimentSpec) -> Result<ShardResult, ShardRunError> {
                if describe_seeds(spec) == self.0 {
                    return Err(ShardRunError {
                        message: "injected terminal failure".to_string(),
                        last_heartbeat_s: Some(1.5),
                    });
                }
                run_shard_in_process(spec).map_err(|e| ShardRunError::from(e.to_string()))
            }
        }
        let runner = FailSeeds(failing.clone());

        // Without salvage: a loud typed Partial error naming the heartbeat age.
        let opts = FleetOptions { shards: 3, max_retries: 0, ..FleetOptions::default() };
        let err = run_fleet(&spec, &opts, &runner).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("fleet run FAILED"), "{text}");
        assert!(text.contains("last heartbeat 1.5s before failure"), "{text}");

        // With salvage: the survivors merge, the hole is explicit.
        let opts = FleetOptions {
            shards: 3,
            max_retries: 0,
            allow_partial: true,
            ..FleetOptions::default()
        };
        let (salvaged, stats) = run_fleet(&spec, &opts, &runner).unwrap();
        assert_eq!(stats.holes.len(), 1);
        assert_eq!(stats.holes[0].index, 1);
        assert_eq!(stats.holes[0].seeds, failing);
        assert_eq!(stats.holes[0].last_heartbeat_s, Some(1.5));
        assert!(!stats.cache_enabled);

        // Bit-identity: replay shards 0 and 2 by hand and compare every aggregate bit.
        let r0 = run_shard_in_process(&shards[0]).unwrap();
        let r2 = run_shard_in_process(&shards[2]).unwrap();
        let expected = merge(&shards, &[(0, r0), (2, r2)]).unwrap();
        assert_eq!(salvaged.xs, expected.xs);
        for (p, (got_row, want_row)) in
            salvaged.aggregates.iter().zip(&expected.aggregates).enumerate()
        {
            for (a, (got, want)) in got_row.iter().zip(want_row).enumerate() {
                assert_eq!(got.count, want.count, "count at ({p},{a})");
                assert_eq!(
                    got.mean_energy_j.to_bits(),
                    want.mean_energy_j.to_bits(),
                    "energy bits at ({p},{a})"
                );
                assert_eq!(
                    got.mean_time_s.to_bits(),
                    want.mean_time_s.to_bits(),
                    "time bits at ({p},{a})"
                );
            }
        }

        // All shards failing: salvage has nothing to save — still a typed error.
        struct FailAll;
        impl ShardRunner for FailAll {
            fn run_shard(&self, _: &ExperimentSpec) -> Result<ShardResult, ShardRunError> {
                Err(ShardRunError::from("boom".to_string()))
            }
        }
        let opts = FleetOptions {
            shards: 3,
            max_retries: 0,
            allow_partial: true,
            ..FleetOptions::default()
        };
        assert!(matches!(
            run_fleet(&spec, &opts, &FailAll).unwrap_err(),
            ShardError::Partial { .. }
        ));
    }
}
