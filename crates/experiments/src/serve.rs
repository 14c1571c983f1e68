//! `fedopt serve`: a crash-isolated, overload-shedding allocation service.
//!
//! The fleet path (`fedopt run --shards N`) answers *sweeps* — thousands of cells, one
//! report. This module answers *single allocation questions* at request rate: a
//! long-lived loop reads newline-delimited JSON requests (a [`RequestSpec`] — one-point
//! scenario patch + arm + solver overrides), dispatches them to a supervised pool of
//! worker threads each owning a hot [`SolverWorkspace`], and writes exactly one typed
//! JSON response per request, in request order.
//!
//! # The serving contract
//!
//! Every request gets exactly one response with `status` one of `ok`, `degraded`,
//! `shed` or `invalid` — never a hang, never a supervisor panic — and an identical
//! request stream always yields a byte-identical response stream (enable `--timing` to
//! trade that away for per-response latency):
//!
//! * **Deadlines** — a request (or session-wide `--deadline-ms`) wall-clock budget is
//!   enforced by Algorithm 2's iteration-boundary watchdog
//!   ([`SolverWorkspace::solve_deadline`]); a miss is a typed `degraded` response.
//! * **Admission control** — each worker has a bounded queue (`--queue-depth`); a full
//!   queue sheds the request with a typed `shed` response instead of building backlog.
//! * **Quarantine** — a panicking or non-finite solve tears down *that worker's*
//!   workspace ([`SolverWorkspace::quarantine_reset`]) and answers `degraded`; the
//!   worker keeps serving with a fresh workspace (`worker_restarts` counts respawns).
//! * **Warm-state self-healing** — near-identical consecutive requests on one worker
//!   keep the warm-start state (the PR 4 fast path resolves an identical cohort with 0
//!   Jong iterations); every `--warm-staleness` consecutive hits the worker re-solves
//!   cold, checks warm-vs-cold drift against the solver's `outer_tol`, and quarantines
//!   the workspace if the warm state has drifted.
//! * **Graceful drain** — stdin EOF (or SIGTERM via [`request_drain`]) stops admission,
//!   lets in-flight requests finish, and emits a final `fedopt-serve-stats` line with
//!   p50/p99 latency on stderr.
//!
//! Requests are dispatched round-robin (`seq % workers`) so the worker that handles a
//! request — and therefore the warm state it sees and the shed/no-shed outcome under
//! load — is a pure function of the request's position in the stream, not of thread
//! scheduling.
//!
//! Chaos plans ([`crate::fault`]) extend to the serving loop: `slowreq@i`, `poisonreq@i`
//! and `floodreq@i` inject a deadline-busting stall, a worker panic, and a
//! queue-flooding wedge at request index `i`, deterministically.
//!
//! [`SolverWorkspace`]: fedopt_core::SolverWorkspace
//! [`SolverWorkspace::solve_deadline`]: fedopt_core::SolverWorkspace::solve_deadline
//! [`SolverWorkspace::quarantine_reset`]: fedopt_core::SolverWorkspace::quarantine_reset

use crate::arms::SpecArm;
use crate::engine::{warm_start_env, Arm, CellContext, CellOutput};
use crate::fault::{FaultKind, FaultPlan};
use crate::json::{fnv1a_64, Json};
use crate::shard::solver_counters_json;
use crate::spec::{
    at_least_one, check_at, ensure, object, opt, seconds, section, ArmKind, ArmSpec, Field, Obj,
    ScenarioSpec, SolverSpec, SpecError,
};
use baselines::derive_stream_seed;
use fedopt_core::{CoreError, SolverWorkspace};
use flsys::{ScenarioBuilder, Weights};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::{self, BufRead, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Sender, TrySendError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Version of the request wire format; requests must carry `"schema_version": 1`.
pub const REQUEST_SCHEMA_VERSION: u64 = 1;

/// Version of the response wire format (the `schema_version` member of every response).
pub const RESPONSE_SCHEMA_VERSION: u64 = 1;

/// The `kind` discriminator of every response line.
pub const RESPONSE_KIND: &str = "fedopt_serve_response";

/// Prefix of the final stderr statistics line emitted after a drained session.
pub const STATS_PREFIX: &str = "fedopt-serve-stats";

/// Default worker-pool size. Deliberately a fixed small constant (not a core count):
/// round-robin dispatch makes warm-state locality and shed outcomes a function of the
/// worker count, and a machine-dependent default would break cross-machine
/// byte-stability of response streams.
pub const DEFAULT_WORKERS: usize = 2;

/// Default bounded admission-queue depth per worker.
pub const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Default number of consecutive warm-cache hits before a staleness refresh
/// (warm-vs-cold drift check) runs.
pub const DEFAULT_WARM_STALENESS: u64 = 64;

/// Hard cap on one request line, bytes. Longer lines are answered `invalid` without
/// being stored or parsed (a malicious or corrupted stream must not balloon memory).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Hard cap on the echoed `id` member, bytes.
pub const MAX_ID_BYTES: usize = 256;

// ---------------------------------------------------------------------------
// Request wire format
// ---------------------------------------------------------------------------

section! {
    /// One allocation request: a one-point scenario patch plus the arm and solver settings
    /// to answer it with. Parsed strictly (unknown keys are errors) from one JSON line.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RequestSpec {
        /// Wire-format version; must equal [`REQUEST_SCHEMA_VERSION`].
        schema_version: u64, check request_version;
        /// Opaque caller correlation id, echoed verbatim in the response.
        id: Option<String>, check id_bytes;
        /// Scenario overrides applied to [`ScenarioBuilder::paper_default`].
        scenario: ScenarioSpec = ScenarioSpec::default();
        /// Scenario seed (default 0).
        seed: u64 = 0;
        /// The scheme answering the request (default: proposed, balanced weights).
        arm: ArmSpec = ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() });
        /// Solver preset and tolerance overrides (default: the paper-faithful preset).
        solver: SolverSpec = SolverSpec::default();
        /// Per-request wall-clock budget in milliseconds; overrides the session default.
        deadline_ms: Option<u64>, check opt(at_least_one);
        /// The completion-time deadline in seconds handed to arms that read the axis value
        /// (`comm_only`, `comp_only`, `deadline_proposed` with `"deadline": "axis"`).
        deadline_s: Option<f64>, check opt(seconds);
    }
    cross axis_deadline_is_set;
}

fn request_version(version: &u64) -> Result<(), String> {
    ensure(
        *version == REQUEST_SCHEMA_VERSION,
        format_args!("unsupported version {version} (this build speaks {REQUEST_SCHEMA_VERSION})"),
    )
}

fn id_bytes(id: &Option<String>) -> Result<(), String> {
    let len = id.as_ref().map_or(0, String::len);
    ensure(len <= MAX_ID_BYTES, format_args!("at most {MAX_ID_BYTES} bytes (got {len})"))
}

fn axis_deadline_is_set(request: &RequestSpec, path: &dyn Display) -> Result<(), SpecError> {
    let set = request.deadline_s.is_some() || !request.arm.kind.reads_axis_deadline();
    ensure(set, "this arm kind optimizes under a completion-time deadline; set `deadline_s`")
        .map_err(|message| SpecError::invalid(path, message))
}

impl RequestSpec {
    /// Parses one request, strictly: unknown keys first, then `schema_version`, then the
    /// other members in order, each checked as it is read.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] naming the offending path and constraint.
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        Self::read(v, &"request")
    }

    /// Parses one request line from its textual form.
    ///
    /// # Errors
    ///
    /// The JSON syntax error or the [`Self::from_json`] validation error, as a string.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
        Self::from_json(&v).map_err(|e| e.to_string())
    }

    /// The canonical solve-relevant JSON of this request: everything that influences
    /// the solver's answer, nothing that does not (`id` and `deadline_ms` are
    /// excluded — a correlation id or wall-clock budget does not change the fixed
    /// point the solve converges to).
    pub fn canonical_json(&self) -> Json {
        object([
            ("schema_version", Some(Json::uint(REQUEST_SCHEMA_VERSION))),
            ("seed", self.seed.write()),
            ("scenario", self.scenario.write().filter(|_| !self.scenario.is_empty())),
            ("arm", self.arm.write()),
            ("solver", self.solver.write()),
            ("deadline_s", self.deadline_s.write()),
        ])
    }

    /// FNV-1a fingerprint of [`Self::canonical_json`] — the warm-start cache key: two
    /// requests with equal fingerprints solve the same problem, so carrying warm state
    /// from one to the other is the PR 4 fast path, not a correctness risk.
    pub fn fingerprint(&self) -> u64 {
        fnv1a_64(self.canonical_json().to_compact_string().as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Options and statistics
// ---------------------------------------------------------------------------

/// Configuration of one serving session.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker-pool size (each worker owns one hot [`fedopt_core::SolverWorkspace`]).
    pub workers: usize,
    /// Bounded admission-queue depth per worker; a full queue sheds.
    pub queue_depth: usize,
    /// Session-wide wall-clock budget per request, milliseconds. A request's own
    /// `deadline_ms` wins over this.
    pub deadline_ms: Option<u64>,
    /// Consecutive warm-cache hits before a warm-vs-cold drift check runs.
    pub warm_staleness: u64,
    /// Whether responses carry a `latency_us` member. Off by default: wall-clock
    /// readings in the payload break byte-identical replay.
    pub timing: bool,
    /// Warm-start override. `None` consults [`crate::engine::WARM_START_ENV`] and
    /// defaults to enabled — the whole point of a long-lived workspace.
    pub warm_start: Option<bool>,
    /// Chaos plan for this session (only serve-side kinds fire; see [`crate::fault`]).
    pub fault: Option<FaultPlan>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: DEFAULT_WORKERS,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            deadline_ms: None,
            warm_staleness: DEFAULT_WARM_STALENESS,
            timing: false,
            warm_start: None,
            fault: None,
        }
    }
}

/// Counters of one serving session (or the merge of a socket's sessions).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Non-blank request lines read.
    pub requests: u64,
    /// Responses with `status: "ok"`.
    pub ok: u64,
    /// Responses with `status: "degraded"` (deadline miss, infeasible, non-finite,
    /// worker panic).
    pub degraded: u64,
    /// Responses with `status: "shed"` (admission queue full).
    pub shed: u64,
    /// Responses with `status: "invalid"` (malformed or oversized request line).
    pub invalid: u64,
    /// Worker workspaces quarantined and rebuilt (panic, non-finite solve, or warm
    /// drift beyond tolerance).
    pub worker_restarts: u64,
    /// Requests that reused a worker's warm state (fingerprint match).
    pub warm_hits: u64,
    /// Requests that reset the warm state (fingerprint change or first request).
    pub warm_misses: u64,
    /// Staleness refreshes: warm probe + cold re-solve + drift check.
    pub warm_refreshes: u64,
    /// Refreshes whose warm-vs-cold drift exceeded `outer_tol` (each also quarantines).
    pub warm_drift_resets: u64,
    /// Per-response service latencies, microseconds (admission to response for shed
    /// and invalid, pickup to response for solved requests).
    pub latencies_us: Vec<u64>,
}

impl ServeStats {
    /// Folds another session's counters into this one (unix-socket serving merges the
    /// per-connection sessions).
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.invalid += other.invalid;
        self.worker_restarts += other.worker_restarts;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.warm_refreshes += other.warm_refreshes;
        self.warm_drift_resets += other.warm_drift_resets;
        self.latencies_us.extend_from_slice(&other.latencies_us);
    }

    /// The `p`-th latency percentile in microseconds (nearest-rank on a sorted copy);
    /// 0 when no latencies were recorded.
    pub fn percentile_us(&self, p: u64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as u64 - 1) * p) / 100;
        sorted[idx as usize]
    }

    /// The final stderr line of a drained session: every counter plus p50/p99 latency.
    pub fn summary_line(&self) -> String {
        format!(
            "{STATS_PREFIX} requests={} ok={} degraded={} shed={} invalid={} \
             worker_restarts={} warm_hits={} warm_misses={} warm_refreshes={} \
             warm_drift_resets={} p50_us={} p99_us={}",
            self.requests,
            self.ok,
            self.degraded,
            self.shed,
            self.invalid,
            self.worker_restarts,
            self.warm_hits,
            self.warm_misses,
            self.warm_refreshes,
            self.warm_drift_resets,
            self.percentile_us(50),
            self.percentile_us(99),
        )
    }
}

// ---------------------------------------------------------------------------
// Drain flag
// ---------------------------------------------------------------------------

static DRAIN: AtomicBool = AtomicBool::new(false);

/// The process-global drain flag the CLI session polls: once set, the serving loop
/// stops admitting requests, finishes what is in flight, and exits cleanly.
pub fn drain_flag() -> &'static AtomicBool {
    &DRAIN
}

/// Requests a graceful drain of the process-global serving session. Async-signal-safe
/// (one atomic store), so a SIGTERM handler may call it directly.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// The serving session
// ---------------------------------------------------------------------------

/// One admitted unit of work.
struct Job {
    seq: u64,
    req: RequestSpec,
}

/// What one handled request contributed to the session counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Degraded,
}

/// Everything a worker thread owns across requests: the hot workspace plus the
/// warm-cache bookkeeping that decides when its carried state is reused, refreshed or
/// quarantined.
struct WorkerState {
    workspace: SolverWorkspace,
    last_fingerprint: Option<u64>,
    warm_streak: u64,
}

impl WorkerState {
    fn new() -> Self {
        Self { workspace: SolverWorkspace::new(), last_fingerprint: None, warm_streak: 0 }
    }
}

/// How a request interacted with its worker's warm-start cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmLabel {
    Off,
    Hit,
    Miss,
    Refresh,
}

impl WarmLabel {
    fn as_str(self) -> &'static str {
        match self {
            WarmLabel::Off => "off",
            WarmLabel::Hit => "hit",
            WarmLabel::Miss => "miss",
            WarmLabel::Refresh => "refresh",
        }
    }
}

/// Runs one serving session: reads request lines from `input` until EOF or `drain`,
/// writes one response line per request to `output` (in request order, flushed per
/// line), and returns the session counters. The caller decides what to do with the
/// stats (the CLI prints [`ServeStats::summary_line`] on stderr).
///
/// # Errors
///
/// Only transport I/O errors (reading `input`, writing `output`). Request-level
/// problems are typed responses, never `Err`.
pub fn serve_session<R: BufRead, W: Write + Send>(
    mut input: R,
    output: W,
    opts: &ServeOptions,
    drain: &AtomicBool,
) -> io::Result<ServeStats> {
    let workers = opts.workers.max(1);
    let queue_depth = opts.queue_depth.max(1);
    let warm_enabled = opts.warm_start.or_else(warm_start_env).unwrap_or(true);
    let stats = Mutex::new(ServeStats::default());
    let eof = AtomicBool::new(false);
    let flood_engaged = AtomicBool::new(false);

    let io_result: io::Result<()> = std::thread::scope(|scope| {
        let (out_tx, out_rx) = channel::<(u64, String)>();

        // Writer: reorders worker responses back into request order and owns `output`.
        let writer = scope.spawn(move || -> io::Result<()> {
            let mut output = output;
            let mut next_seq = 0u64;
            let mut pending: BTreeMap<u64, String> = BTreeMap::new();
            while let Ok((seq, line)) = out_rx.recv() {
                pending.insert(seq, line);
                while let Some(line) = pending.remove(&next_seq) {
                    output.write_all(line.as_bytes())?;
                    output.write_all(b"\n")?;
                    output.flush()?;
                    next_seq += 1;
                }
            }
            debug_assert!(pending.is_empty(), "response stream ended with a sequence gap");
            Ok(())
        });

        let mut job_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = sync_channel::<Job>(queue_depth);
            job_txs.push(job_tx);
            let out_tx = out_tx.clone();
            let stats = &stats;
            let eof = &eof;
            let flood_engaged = &flood_engaged;
            scope.spawn(move || {
                let mut state = WorkerState::new();
                while let Ok(job) = job_rx.recv() {
                    let (line, outcome, latency_us) =
                        handle_job(&job, &mut state, opts, warm_enabled, eof, flood_engaged, stats);
                    let mut guard = stats.lock().expect("serve stats lock poisoned");
                    match outcome {
                        Outcome::Ok => guard.ok += 1,
                        Outcome::Degraded => guard.degraded += 1,
                    }
                    guard.latencies_us.push(latency_us);
                    drop(guard);
                    // A send error means the writer (and session) is gone; exit quietly.
                    if out_tx.send((job.seq, line)).is_err() {
                        break;
                    }
                }
            });
        }

        // Reader (this thread): admission control.
        let mut seq = 0u64;
        let mut line = Vec::new();
        loop {
            if drain.load(Ordering::SeqCst) {
                break;
            }
            let len = read_request_line(&mut input, &mut line)?;
            if len == 0 {
                break;
            }
            // Only a line under the cap is decoded; an oversized one is answered by length.
            let text = if len > MAX_REQUEST_BYTES {
                None
            } else {
                let utf8 = std::str::from_utf8(&line).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
                })?;
                Some(utf8.trim())
            };
            if text == Some("") {
                continue;
            }
            let this_seq = seq;
            seq += 1;
            {
                let mut guard = stats.lock().expect("serve stats lock poisoned");
                guard.requests += 1;
            }
            let admitted_at = Instant::now();
            let Some(text) = text else {
                let error = format!("request line exceeds {MAX_REQUEST_BYTES} bytes ({len} bytes)");
                reject(this_seq, None, "invalid", &error, opts, admitted_at, &stats, &out_tx);
                continue;
            };
            let req = match RequestSpec::from_json_str(text) {
                Ok(req) => req,
                Err(error) => {
                    // Best effort: echo the id even from an invalid request, if the
                    // line parsed as JSON at all.
                    let id = Json::parse(text)
                        .ok()
                        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(str::to_string)))
                        .filter(|id| id.len() <= MAX_ID_BYTES);
                    reject(this_seq, id, "invalid", &error, opts, admitted_at, &stats, &out_tx);
                    continue;
                }
            };
            let worker = (this_seq % workers as u64) as usize;
            match job_txs[worker].try_send(Job { seq: this_seq, req }) {
                Ok(()) => {
                    // Deterministic flooding: once the flood-target request is admitted,
                    // wait until its worker has *dequeued* it (and wedged), so how many
                    // follow-up requests fit the queue never depends on scheduling.
                    if opts.fault.is_some_and(|p| {
                        p.kind == FaultKind::FloodRequest && p.applies_to_request(this_seq)
                    }) {
                        let patience = Instant::now() + Duration::from_secs(5);
                        while !flood_engaged.load(Ordering::SeqCst) && Instant::now() < patience {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
                Err(TrySendError::Full(job)) => {
                    let error = format!(
                        "admission queue full (worker {worker}, depth {queue_depth}); \
                         request shed"
                    );
                    reject(
                        job.seq,
                        job.req.id.clone(),
                        "shed",
                        &error,
                        opts,
                        admitted_at,
                        &stats,
                        &out_tx,
                    );
                }
                Err(TrySendError::Disconnected(job)) => {
                    // The worker thread is gone — only possible when the session is
                    // tearing down; answer shed rather than dropping the request.
                    reject(
                        job.seq,
                        job.req.id.clone(),
                        "shed",
                        "worker unavailable; request shed",
                        opts,
                        admitted_at,
                        &stats,
                        &out_tx,
                    );
                }
            }
        }

        // Drain: release any flood wedge, stop admission, let in-flight work finish.
        eof.store(true, Ordering::SeqCst);
        drop(job_txs);
        drop(out_tx);
        match writer.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("serve writer thread panicked")),
        }
    });
    io_result?;
    Ok(stats.into_inner().expect("serve stats lock poisoned"))
}

/// Reads one request line into `buf`, newline included, storing at most
/// `MAX_REQUEST_BYTES + 1` bytes of it: the rest of an oversized line is consumed and
/// counted but never stored. Returns the line's full length in bytes (`0` at EOF).
fn read_request_line<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> io::Result<usize> {
    buf.clear();
    let mut len = 0;
    loop {
        let available = match input.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(len);
        }
        let (end, complete) = match available.iter().position(|&b| b == b'\n') {
            Some(newline) => (newline + 1, true),
            None => (available.len(), false),
        };
        let room = (MAX_REQUEST_BYTES + 1).saturating_sub(buf.len());
        buf.extend_from_slice(&available[..end.min(room)]);
        input.consume(end);
        len += end;
        if complete {
            return Ok(len);
        }
    }
}

/// Builds and enqueues a reader-side rejection response (`shed` or `invalid`).
#[allow(clippy::too_many_arguments)] // private plumbing shared by three call sites
fn reject(
    seq: u64,
    id: Option<String>,
    status: &str,
    error: &str,
    opts: &ServeOptions,
    admitted_at: Instant,
    stats: &Mutex<ServeStats>,
    out_tx: &Sender<(u64, String)>,
) {
    let latency_us = admitted_at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let mut members: Vec<(String, Json)> = vec![
        ("schema_version".to_string(), Json::uint(RESPONSE_SCHEMA_VERSION)),
        ("kind".to_string(), Json::Str(RESPONSE_KIND.to_string())),
        ("seq".to_string(), Json::uint(seq)),
    ];
    if let Some(id) = id {
        members.push(("id".to_string(), Json::Str(id)));
    }
    members.push(("status".to_string(), Json::Str(status.to_string())));
    members.push(("error".to_string(), Json::Str(error.to_string())));
    if opts.timing {
        members.push(("latency_us".to_string(), Json::uint(latency_us)));
    }
    let mut guard = stats.lock().expect("serve stats lock poisoned");
    match status {
        "shed" => guard.shed += 1,
        _ => guard.invalid += 1,
    }
    guard.latencies_us.push(latency_us);
    drop(guard);
    let _ = out_tx.send((seq, Json::Obj(members).to_compact_string()));
}

/// One solved request's payload, extracted from the workspace before any quarantine.
struct SolveOutput {
    cell: Option<CellOutput>,
    allocation: Option<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    counters: fedopt_core::SolveCounters,
}

/// Handles one admitted request on its worker thread: fault injection, warm-cache
/// bookkeeping, the (panic-isolated) solve, staleness refresh, and response assembly.
/// Returns the response line, the outcome counter to bump, and the service latency.
fn handle_job(
    job: &Job,
    state: &mut WorkerState,
    opts: &ServeOptions,
    warm_enabled: bool,
    eof: &AtomicBool,
    flood_engaged: &AtomicBool,
    stats: &Mutex<ServeStats>,
) -> (String, Outcome, u64) {
    let picked_up = Instant::now();
    let req = &job.req;
    let deadline_ms = req.deadline_ms.or(opts.deadline_ms);
    // The budget is anchored at pickup, *before* fault injection: an injected stall
    // (slowreq) then deterministically exhausts it, which is exactly the failure the
    // watchdog exists for.
    let budget = deadline_ms.map(|ms| picked_up + Duration::from_millis(ms));
    let fault = opts.fault.filter(|p| p.applies_to_request(job.seq));
    let mut poison = false;
    if let Some(plan) = fault {
        match plan.kind {
            FaultKind::SlowRequest => {
                // Sleep just past the budget (or a fixed stall with no budget set).
                let stall = deadline_ms.map_or(300, |ms| ms + 250);
                std::thread::sleep(Duration::from_millis(stall));
            }
            FaultKind::PoisonRequest => poison = true,
            FaultKind::FloodRequest => {
                flood_engaged.store(true, Ordering::SeqCst);
                while !eof.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            _ => {}
        }
    }

    // Warm-cache bookkeeping (per worker: round-robin dispatch makes the worker, and
    // therefore the cache state seen, a pure function of the request index).
    let fingerprint = req.fingerprint();
    let mut label = WarmLabel::Off;
    if warm_enabled {
        if state.last_fingerprint == Some(fingerprint) {
            state.warm_streak += 1;
            if state.warm_streak >= opts.warm_staleness.max(1) {
                label = WarmLabel::Refresh;
                state.warm_streak = 0;
            } else {
                label = WarmLabel::Hit;
            }
        } else {
            label = WarmLabel::Miss;
            state.workspace.reset_warm_start();
            state.last_fingerprint = Some(fingerprint);
            state.warm_streak = 0;
        }
    }

    let config = req.solver.resolve();
    let mut quarantine = false;
    let mut drift_reset = false;
    type SolveAttempt = Result<SolveOutput, (CoreError, fedopt_core::SolveCounters)>;
    let solved: Result<SolveAttempt, String> =
        panic::catch_unwind(AssertUnwindSafe(|| -> SolveAttempt {
            if poison {
                panic!("injected fault: poisoned request");
            }
            // On a cache hit (and on the refresh's warm probe) the fingerprint proves
            // the carried workspace state belongs to this very problem, so the solve may
            // re-open at the carried best allocation — the 0-Jong-iteration fast path.
            let continue_warm = matches!(label, WarmLabel::Hit | WarmLabel::Refresh);
            let mut output =
                evaluate_request(req, warm_enabled, continue_warm, &mut state.workspace, budget)?;
            if label == WarmLabel::Refresh {
                // Staleness check: re-solve genuinely cold (no carried state, no
                // continuation) and answer with the cold result; the warm probe is only
                // evidence for the drift verdict.
                let warm_cell = output.cell;
                state.workspace.reset_warm_start();
                output = evaluate_request(req, warm_enabled, false, &mut state.workspace, budget)?;
                let drift = match (warm_cell, output.cell) {
                    (Some(w), Some(c)) => {
                        rel_diff(w.energy_j, c.energy_j).max(rel_diff(w.time_s, c.time_s))
                    }
                    (None, None) => 0.0,
                    // Warm and cold disagree on feasibility itself: maximal drift.
                    _ => f64::INFINITY,
                };
                // NaN drift (a non-finite cell slipping through) counts as drifted.
                if drift.is_nan() || drift > config.outer_tol {
                    drift_reset = true;
                }
            }
            Ok(output)
        }))
        .map_err(|payload| panic_message(payload.as_ref()));

    let (status, outcome, extras) = match solved {
        Ok(Ok(output)) => {
            if drift_reset {
                quarantine = true;
            }
            match output.cell {
                Some(cell) => ("ok", Outcome::Ok, ResponseExtras::Solved { cell, output }),
                None => {
                    // The arm reported "no feasible answer". A non-finite-objective
                    // degradation leaves its mark in `degraded_solves`; that is
                    // workspace-corruption territory, unlike a cleanly infeasible
                    // deadline.
                    let non_finite = output.counters.degraded_solves > 0;
                    if non_finite {
                        quarantine = true;
                    }
                    let reason = if non_finite {
                        "no finite objective within the iteration budget; \
                         workspace quarantined and respawned"
                            .to_string()
                    } else {
                        "infeasible request: no resource allocation meets the deadline".to_string()
                    };
                    ("degraded", Outcome::Degraded, ResponseExtras::Degraded { reason, output })
                }
            }
        }
        Ok(Err((e, delta))) => {
            let reason = match &e {
                CoreError::DeadlineExpired { iterations } => {
                    format!("request deadline expired after {iterations} outer iteration(s)")
                }
                other => other.to_string(),
            };
            (
                "degraded",
                Outcome::Degraded,
                ResponseExtras::Degraded {
                    reason,
                    output: SolveOutput { cell: None, allocation: None, counters: delta },
                },
            )
        }
        Err(panic_msg) => {
            quarantine = true;
            // A panic may have fired mid-solve; no per-request delta is attributable.
            let unknown = fedopt_core::SolveCounters::default();
            (
                "degraded",
                Outcome::Degraded,
                ResponseExtras::Degraded {
                    reason: format!(
                        "worker panicked ({panic_msg}); workspace quarantined and respawned"
                    ),
                    output: SolveOutput { cell: None, allocation: None, counters: unknown },
                },
            )
        }
    };

    if quarantine {
        state.workspace.quarantine_reset();
        state.last_fingerprint = None;
        state.warm_streak = 0;
    }
    {
        let mut guard = stats.lock().expect("serve stats lock poisoned");
        match label {
            WarmLabel::Hit => guard.warm_hits += 1,
            WarmLabel::Miss => guard.warm_misses += 1,
            WarmLabel::Refresh => guard.warm_refreshes += 1,
            WarmLabel::Off => {}
        }
        if drift_reset {
            guard.warm_drift_resets += 1;
        }
        if quarantine {
            guard.worker_restarts += 1;
        }
    }

    let latency_us = picked_up.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let line = render_response(job, status, label, extras, opts, latency_us, req);
    (line, outcome, latency_us)
}

/// Per-status response payload handed to [`render_response`].
enum ResponseExtras {
    Solved { cell: CellOutput, output: SolveOutput },
    Degraded { reason: String, output: SolveOutput },
}

fn render_response(
    job: &Job,
    status: &str,
    label: WarmLabel,
    extras: ResponseExtras,
    opts: &ServeOptions,
    latency_us: u64,
    req: &RequestSpec,
) -> String {
    let mut members: Vec<(String, Json)> = vec![
        ("schema_version".to_string(), Json::uint(RESPONSE_SCHEMA_VERSION)),
        ("kind".to_string(), Json::Str(RESPONSE_KIND.to_string())),
        ("seq".to_string(), Json::uint(job.seq)),
    ];
    if let Some(id) = &req.id {
        members.push(("id".to_string(), Json::Str(id.clone())));
    }
    members.push(("status".to_string(), Json::Str(status.to_string())));
    match extras {
        ResponseExtras::Solved { cell, output } => {
            members.push(("energy_j".to_string(), Json::Num(cell.energy_j)));
            members.push(("time_s".to_string(), Json::Num(cell.time_s)));
            if let ArmKind::Proposed { weights } = &req.arm.kind {
                let objective = weights.energy() * cell.energy_j + weights.time() * cell.time_s;
                members.push(("objective".to_string(), Json::Num(objective)));
            }
            if let Some((powers, freqs, bands)) = output.allocation {
                members.push((
                    "allocation".to_string(),
                    Json::Obj(vec![
                        (
                            "powers_w".to_string(),
                            Json::Arr(powers.into_iter().map(Json::Num).collect()),
                        ),
                        (
                            "frequencies_hz".to_string(),
                            Json::Arr(freqs.into_iter().map(Json::Num).collect()),
                        ),
                        (
                            "bandwidths_hz".to_string(),
                            Json::Arr(bands.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                ));
            }
            members.push(("warm".to_string(), Json::Str(label.as_str().to_string())));
            members.push(("counters".to_string(), solver_counters_json(&output.counters, false)));
        }
        ResponseExtras::Degraded { reason, output } => {
            members.push(("reason".to_string(), Json::Str(reason)));
            members.push(("warm".to_string(), Json::Str(label.as_str().to_string())));
            members.push(("counters".to_string(), solver_counters_json(&output.counters, false)));
        }
    }
    if opts.timing {
        members.push(("latency_us".to_string(), Json::uint(latency_us)));
    }
    Json::Obj(members).to_compact_string()
}

/// Evaluates one request against a workspace: compiles the arm, builds the scenario,
/// and solves under the optional wall-clock budget. The returned counters are the
/// *delta* of this evaluation — captured before any quarantine can zero the
/// workspace's cumulative counters ([`fedopt_core::SolveCounters::since`] underflows
/// after a reset).
fn evaluate_request(
    req: &RequestSpec,
    warm_enabled: bool,
    continue_warm: bool,
    ws: &mut SolverWorkspace,
    budget: Option<Instant>,
) -> Result<SolveOutput, (CoreError, fedopt_core::SolveCounters)> {
    let config = req.solver.resolve();
    let arm = SpecArm::new(req.arm.clone(), config);
    let template = req.scenario.apply(ScenarioBuilder::paper_default());
    let builder = arm.prepare(&template);
    let scenario = builder
        .build(req.seed)
        .map_err(|e| (CoreError::Model(e), fedopt_core::SolveCounters::default()))?;
    let before = ws.counters;
    ws.solve_deadline = budget;
    let mut ctx = CellContext {
        x: req.deadline_s.unwrap_or(0.0),
        seed: req.seed,
        stream_seed: derive_stream_seed(req.seed),
        point_idx: 0,
        arm_idx: 0,
        warm_start: warm_enabled,
        superlinear_mu: config.superlinear_mu,
        adaptive_mu_bracket: config.adaptive_mu_bracket,
        outer_continuation: continue_warm,
        workspace: ws,
    };
    let result = arm.evaluate(&scenario, &mut ctx);
    ws.solve_deadline = None;
    let counters = ws.counters.since(&before);
    let cell = result.map_err(|e| (e, counters))?;
    // `ws.best` holds the returned solution only for the summary-solving schemes.
    let allocation = match (&req.arm.kind, cell) {
        (ArmKind::Proposed { .. } | ArmKind::DeadlineProposed { .. }, Some(_)) => Some((
            ws.best.powers_w.clone(),
            ws.best.frequencies_hz.clone(),
            ws.best.bandwidths_hz.clone(),
        )),
        _ => None,
    };
    Ok(SolveOutput { cell, allocation, counters })
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() / scale
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Unix-socket transport
// ---------------------------------------------------------------------------

/// Binds the nonblocking listener [`serve_unix_socket`] serves on, creating the socket
/// file at `path` (a stale socket there is removed first).
///
/// # Errors
///
/// Binding. Any existing path that is not a socket is an
/// [`io::ErrorKind::AlreadyExists`] error and is left untouched.
#[cfg(unix)]
pub fn bind_unix_socket(path: &std::path::Path) -> io::Result<std::os::unix::net::UnixListener> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path)?,
        Ok(_) => {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "the path exists and is not a socket; refusing to replace it",
            ));
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Serves sequential connections on a listener from [`bind_unix_socket`] until
/// [`drain_flag`] is set: each connection is one [`serve_session`] (its own request
/// sequence and fault indices); the returned stats are the merge over all connections.
/// The socket file at `path` is removed on clean exit.
///
/// # Errors
///
/// Accepting, or a session's transport I/O.
#[cfg(unix)]
pub fn serve_unix_socket(
    listener: &std::os::unix::net::UnixListener,
    path: &std::path::Path,
    opts: &ServeOptions,
    drain: &AtomicBool,
) -> io::Result<ServeStats> {
    let mut total = ServeStats::default();
    loop {
        if drain.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                stream.set_nonblocking(false)?;
                let reader = io::BufReader::new(stream.try_clone()?);
                let session = serve_session(reader, stream, opts, drain)?;
                total.merge(&session);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_session(input: &str, opts: &ServeOptions) -> (Vec<Json>, String, ServeStats) {
        let drain = AtomicBool::new(false);
        let mut out: Vec<u8> = Vec::new();
        let stats = serve_session(input.as_bytes(), &mut out, opts, &drain).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines = text
            .lines()
            .map(|l| Json::parse(l).expect("every response line must be valid JSON"))
            .collect();
        (lines, text, stats)
    }

    fn small_request(id: &str, seed: u64) -> String {
        format!(
            "{{\"schema_version\":1,\"id\":\"{id}\",\"scenario\":{{\"devices\":5}},\
             \"seed\":{seed},\"solver\":{{\"preset\":\"fast\"}}}}"
        )
    }

    fn status_of(v: &Json) -> &str {
        v.get("status").and_then(Json::as_str).unwrap()
    }

    fn one_worker() -> ServeOptions {
        ServeOptions { workers: 1, warm_start: Some(true), ..ServeOptions::default() }
    }

    #[test]
    fn request_parsing_is_strict_and_round_trips() {
        let req = RequestSpec::from_json_str(&small_request("r-1", 7)).unwrap();
        assert_eq!(req.id.as_deref(), Some("r-1"));
        assert_eq!(req.seed, 7);
        assert_eq!(req.scenario.devices, Some(5));
        // The fingerprint keys the solve, not the correlation metadata.
        let mut twin = req.clone();
        twin.id = Some("different-id".to_string());
        twin.deadline_ms = Some(1000);
        assert_eq!(req.fingerprint(), twin.fingerprint());
        let mut other_seed = req.clone();
        other_seed.seed = 8;
        assert_ne!(req.fingerprint(), other_seed.fingerprint());

        for bad in [
            // Unknown key.
            "{\"schema_version\":1,\"bogus\":1}",
            // Wrong version.
            "{\"schema_version\":2}",
            // Missing version.
            "{\"seed\":1}",
            // Deadline-reading arm without deadline_s.
            "{\"schema_version\":1,\"arm\":{\"kind\":\"comm_only\"}}",
            // Zero deadline budget.
            "{\"schema_version\":1,\"deadline_ms\":0}",
            // Non-positive axis deadline.
            "{\"schema_version\":1,\"deadline_s\":0}",
            // A retired solver knob.
            "{\"schema_version\":1,\"solver\":{\"preset\":\"fast\",\"warm_rmin_tol\":1e-4}}",
            // Not an object.
            "[1,2,3]",
            // Not JSON at all.
            "hello",
        ] {
            assert!(RequestSpec::from_json_str(bad).is_err(), "{bad:?} must be rejected");
        }
        // The same solver section without the retired knob is fine.
        RequestSpec::from_json_str("{\"schema_version\":1,\"solver\":{\"preset\":\"fast\"}}")
            .unwrap();
        // A deadline arm with deadline_s is fine.
        RequestSpec::from_json_str(
            "{\"schema_version\":1,\"arm\":{\"kind\":\"comm_only\"},\"deadline_s\":150}",
        )
        .unwrap();
    }

    #[test]
    fn a_session_answers_every_request_in_order_and_byte_stably() {
        let input = format!(
            "{}\n{}\nnot json at all\n\n{}\n",
            small_request("a", 0),
            small_request("a", 0), // identical → warm hit on the single worker
            small_request("b", 3),
        );
        let (lines, text, stats) = run_session(&input, &one_worker());
        assert_eq!(lines.len(), 4, "blank lines get no response, everything else does");
        let statuses: Vec<&str> = lines.iter().map(status_of).collect();
        assert_eq!(statuses, ["ok", "ok", "invalid", "ok"]);
        for (i, v) in lines.iter().enumerate() {
            assert_eq!(v.get("seq").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(v.get("kind").and_then(Json::as_str), Some(RESPONSE_KIND));
        }
        // The duplicate request reuses the warm state, and the PR 4 fast path resolves
        // it without a single Jong iteration.
        assert_eq!(lines[1].get("warm").and_then(Json::as_str), Some("hit"));
        let jong =
            lines[1].get("counters").and_then(|c| c.get("jong_iterations")).and_then(Json::as_u64);
        assert_eq!(jong, Some(0), "a warm cache hit must solve with 0 Jong iterations");
        // Warm and cold answers agree within the solver tolerance.
        let warm = lines[1].get("energy_j").and_then(Json::as_f64).unwrap();
        let cold = lines[0].get("energy_j").and_then(Json::as_f64).unwrap();
        // Agreement is bounded by the solver's own tolerance (fast preset: 1e-3).
        assert!(rel_diff(warm, cold) <= 1e-3, "warm {warm} vs cold {cold}");
        // An `ok` proposed response carries the allocation vectors.
        let alloc = lines[0].get("allocation").unwrap();
        assert_eq!(alloc.get("powers_w").and_then(Json::as_array).unwrap().len(), 5);

        assert_eq!(stats.requests, 4);
        assert_eq!((stats.ok, stats.invalid, stats.shed), (3, 1, 0));
        assert_eq!((stats.warm_misses, stats.warm_hits), (2, 1));
        assert_eq!(stats.latencies_us.len(), 4);

        // Identical request stream → byte-identical response stream.
        let (_, replay, _) = run_session(&input, &one_worker());
        assert_eq!(text, replay);
    }

    #[test]
    fn a_flooded_worker_sheds_deterministically() {
        let opts = ServeOptions {
            workers: 1,
            queue_depth: 1,
            fault: Some(FaultPlan::parse("floodreq@0").unwrap()),
            warm_start: Some(true),
            ..ServeOptions::default()
        };
        let one = small_request("f", 0);
        let input = format!("{one}\n{one}\n{one}\n{one}\n");
        let (lines, _, stats) = run_session(&input, &opts);
        let statuses: Vec<&str> = lines.iter().map(status_of).collect();
        // Request 0 wedges the worker until EOF, request 1 fills the depth-1 queue,
        // requests 2 and 3 are shed; at EOF the wedge releases and 0 and 1 solve.
        assert_eq!(statuses, ["ok", "ok", "shed", "shed"]);
        assert_eq!((stats.ok, stats.shed), (2, 2));
        assert!(lines[2].get("error").and_then(Json::as_str).unwrap().contains("queue full"));
    }

    #[test]
    fn a_poisoned_request_quarantines_only_its_worker() {
        let opts = ServeOptions {
            workers: 1,
            fault: Some(FaultPlan::parse("poisonreq@0").unwrap()),
            warm_start: Some(true),
            ..ServeOptions::default()
        };
        let input = format!("{}\n{}\n", small_request("p", 0), small_request("p", 1));
        let (lines, _, stats) = run_session(&input, &opts);
        let statuses: Vec<&str> = lines.iter().map(status_of).collect();
        assert_eq!(statuses, ["degraded", "ok"], "the worker must keep serving after quarantine");
        let reason = lines[0].get("reason").and_then(Json::as_str).unwrap();
        assert!(reason.contains("worker panicked"), "{reason}");
        assert!(reason.contains("quarantined"), "{reason}");
        assert_eq!(stats.worker_restarts, 1);
        assert_eq!((stats.ok, stats.degraded), (1, 1));
    }

    #[test]
    fn a_slow_request_misses_its_deadline_as_a_typed_degradation() {
        let opts = ServeOptions {
            workers: 1,
            fault: Some(FaultPlan::parse("slowreq@0").unwrap()),
            warm_start: Some(true),
            ..ServeOptions::default()
        };
        let line = "{\"schema_version\":1,\"scenario\":{\"devices\":5},\
                    \"solver\":{\"preset\":\"fast\"},\"deadline_ms\":50}";
        let input = format!("{line}\n");
        let (lines, _, stats) = run_session(&input, &opts);
        assert_eq!(status_of(&lines[0]), "degraded");
        let reason = lines[0].get("reason").and_then(Json::as_str).unwrap();
        assert!(reason.contains("deadline expired"), "{reason}");
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.worker_restarts, 0, "a deadline miss is not workspace corruption");
    }

    #[test]
    fn warm_state_is_refreshed_on_schedule_and_drift_checked() {
        let opts = ServeOptions { warm_staleness: 2, ..one_worker() };
        let one = small_request("w", 0);
        let input = format!("{one}\n{one}\n{one}\n{one}\n");
        let (lines, _, stats) = run_session(&input, &opts);
        let labels: Vec<&str> =
            lines.iter().map(|v| v.get("warm").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(labels, ["miss", "hit", "refresh", "hit"]);
        assert_eq!(stats.warm_refreshes, 1);
        assert_eq!(stats.warm_drift_resets, 0, "a healthy warm state must pass the drift check");
        assert_eq!(stats.worker_restarts, 0);
        assert!(lines.iter().all(|v| status_of(v) == "ok"));
    }

    #[test]
    fn stats_summary_line_reports_percentiles() {
        let stats = ServeStats {
            requests: 3,
            ok: 3,
            latencies_us: vec![100, 200, 300],
            ..ServeStats::default()
        };
        assert_eq!(stats.percentile_us(50), 200);
        assert_eq!(stats.percentile_us(99), 200); // nearest-rank over 3 samples
        assert_eq!(stats.percentile_us(100), 300);
        let line = stats.summary_line();
        assert!(line.starts_with(STATS_PREFIX), "{line}");
        assert!(line.contains("requests=3"), "{line}");
        assert!(line.contains("p50_us=200"), "{line}");
        assert_eq!(ServeStats::default().percentile_us(99), 0);
    }

    #[cfg(unix)]
    #[test]
    fn the_unix_socket_transport_serves_sequential_connections() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::os::unix::net::UnixStream;
        let dir = std::env::temp_dir().join(format!("fedopt-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.sock");
        // A stale socket left by an earlier server is replaced.
        let _ = std::fs::remove_file(&path);
        drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
        let drain = AtomicBool::new(false);
        let opts = one_worker();
        let listener = bind_unix_socket(&path).unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve_unix_socket(&listener, &path, &opts, &drain));
            // The socket is bound before the server starts, so one connection goes through.
            let stream = UnixStream::connect(&path).unwrap();
            let mut writer = stream.try_clone().unwrap();
            writeln!(writer, "{}", small_request("s", 0)).unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v = Json::parse(line.trim()).unwrap();
            assert_eq!(status_of(&v), "ok");
            // Closing the write half ends the session; drain ends the accept loop.
            writer.shutdown(std::net::Shutdown::Write).unwrap();
            drop(reader);
            drop(writer);
            drain.store(true, Ordering::SeqCst);
            let stats = handle.join().unwrap().unwrap();
            assert_eq!((stats.requests, stats.ok), (1, 1));
        });
        assert!(!path.exists(), "the socket file must be cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
