//! The `fedopt` command line: one binary for every figure and every spec.
//!
//! One tested argument parser and one dispatcher, for every verb:
//!
//! ```text
//! fedopt list                                   # the figure presets and what they show
//! fedopt spec --fig 2 [--paper] [--seeds N]     # print a figure's ExperimentSpec as JSON
//! fedopt run  --fig 2 [--paper] [--seeds N] [--threads N] [--json]
//! fedopt run  --spec experiment.json [--json]   # run any serialized spec ("-" = stdin)
//! fedopt spec --fig 2 | fedopt run --spec -     # specs are data: pipe them
//! fedopt sim  --preset rounds-quick [--json]    # round-structured FL simulation
//! fedopt spec --preset rounds-quick             # print a sim preset's spec
//! ```
//!
//! `run` prints each report as an aligned table plus CSV, or — with `--json` — one
//! [`RunDocument`]: the spec identity, every [`FigureReport`] and the work counters,
//! declared once as `section!` rows (the row machinery of [`crate::spec`]) and
//! byte-stable for golden-file diffs (the CI `cli-smoke` job pins it). `--fill-holes`
//! reads a salvaged document back through the same rows. All diagnostics go to stderr,
//! so stdout is always exactly the payload.
//!
//! ## Fleet mode
//!
//! ```text
//! fedopt run --fig 2 --shards 4 [--cache-dir D] [--shard-timeout S] [--json]
//!            [--shard-retries N] [--shard-backoff-ms MS] [--shard-heartbeat S]
//!            [--allow-partial]
//! fedopt shard split --fig 2 --shards 4        # print the shard specs, don't run them
//! fedopt shard cache stats --cache-dir D       # size up a shard cache
//! fedopt shard cache gc --cache-dir D [--max-age SECS] [--max-bytes N]
//! fedopt run --spec - --shard-json             # worker mode (the coordinator's child)
//! ```
//!
//! `--shards N` splits the run's seed policy into `N` sub-range shards
//! ([`crate::shard::split`]) and runs each as a subprocess of this same binary
//! (`run --spec - --shard-json`), merging the shard results back bit-identically — a
//! sharded `--json` document is byte-for-byte the single-process one. With
//! `--cache-dir`, finished shards are stored content-addressed on disk and re-runs
//! answer from the cache; the document then grows `shard_cache_hits` /
//! `shard_cache_misses` counters (and only then, so uncached sharded output stays
//! diffable against single-process goldens).
//!
//! ## Failure semantics
//!
//! Workers print a bare `fedopt-heartbeat` liveness line on stderr every 250 ms; the
//! coordinator kills a worker that goes heartbeat-silent (`--shard-heartbeat`, default
//! 30 s) or overruns its wall clock (`--shard-timeout`), retries it with deterministic
//! exponential backoff (`--shard-retries` / `--shard-backoff-ms`), and — with
//! `--allow-partial` — salvages what completed, reporting the missing seed ranges as
//! explicit holes (`shard_holes` in the JSON document, a `note:` line in the tables)
//! instead of silently renormalizing means. The `FEDOPT_FAULT_PLAN` environment variable
//! ([`crate::fault`]) injects deterministic worker faults to chaos-test exactly this
//! path; only worker mode consults it.
//!
//! The binary (the facade crate's `src/bin/fedopt.rs`) is a thin wrapper over
//! [`main_with`], so every branch here is exercisable from unit tests.

use crate::fault::{FaultKind, FaultPlan};
use crate::json::Json;
use crate::presets::{self, Variant};
use crate::report::FigureReport;
use crate::serve::{self, ServeOptions};
use crate::shard::{self, FleetOptions, FleetStats, ShardCache, ShardError, SubprocessRunner};
use crate::spec::{at_least_one, opt, section, ExperimentSpec, Field, SpecError, SpecRun};
use crate::{SweepCounters, SweepResult};
use std::fmt;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// The usage text (`fedopt help` / any parse error).
pub const USAGE: &str = "\
fedopt — declarative sweep runner for the ICDCS 2022 reproduction

USAGE:
  fedopt list                        list the figure and sim presets
  fedopt spec (--fig N [--paper] | --preset NAME) [--seeds N] [--threads N]
                                     print a preset as a JSON ExperimentSpec
  fedopt run --fig N [--paper|--quick] [--seeds N] [--threads N] [--json]
                                     run a figure preset
  fedopt run --spec FILE [--seeds N] [--threads N] [--json]
                                     run a serialized spec (FILE of '-' reads stdin)
  fedopt sim (--preset NAME | --spec FILE) [--seeds N] [--threads N] [--json]
                                     run a round-structured FL simulation: per-round
                                     channel redraws, stragglers, and policy columns
                                     (re-solve | static | fedaecs | elastic)
  fedopt run ... --shards N [--cache-dir DIR] [--shard-timeout SECS]
                 [--shard-retries N] [--shard-backoff-ms MS] [--shard-heartbeat SECS]
                 [--allow-partial]
                                     split the run into N seed shards, execute them as
                                     fedopt subprocesses, merge bit-identically
  fedopt run ... --fill-holes REPORT --cache-dir DIR
                                     resume a salvaged run: re-run only the shards a
                                     --allow-partial JSON document reports as holes,
                                     replay the survivors from the cache, emit the
                                     complete document
  fedopt serve [--socket PATH] [--workers N] [--queue-depth N] [--deadline-ms MS]
               [--warm-staleness N] [--timing]
                                     long-lived solve service: JSON-lines requests on
                                     stdin (or a unix socket), one typed JSON response
                                     per request (ok | degraded | shed | invalid)
  fedopt shard split (--fig N | --spec FILE) --shards N
                                     print the N shard specs as a JSON array
  fedopt shard cache stats --cache-dir DIR
                                     report entry/tmp counts and bytes of a shard cache
  fedopt shard cache gc --cache-dir DIR [--max-age SECS] [--max-bytes N]
                                     expire old entries, evict LRU past the byte budget,
                                     and clean up crashed writers' tmp files
  fedopt help                        this text

OPTIONS:
  --fig N            figure number (2..=8)
  --preset NAME      round-simulation preset (rounds-quick | rounds-paper)
  --paper            full-scale paper preset (50 devices, 100 draws/point, warm start on)
  --quick            small CI preset (the default)
  --seeds N          override the draws per point with seeds 0..N
  --threads N        pin the sweep-engine worker count
  --json             emit one machine-readable JSON document instead of tables + CSV
  --spec FILE        run the ExperimentSpec in FILE ('-' for stdin)
  --shards N         fleet mode: seed-shard the sweep across N worker subprocesses
  --cache-dir DIR    content-addressed shard result cache (requires --shards)
  --shard-timeout S  per-shard wall-clock timeout in seconds (requires --shards)
  --shard-retries N  retries per failed shard before giving up; 0 disables
                     (requires --shards; default 1)
  --shard-backoff-ms MS
                     base of the exponential retry backoff (requires --shards; default 100)
  --shard-heartbeat S
                     kill a worker after S seconds of heartbeat silence; workers beat
                     every 0.25 seconds (requires --shards; default 30)
  --allow-partial    salvage mode: merge completed shards, report failed seed ranges as
                     explicit holes instead of failing the run (requires --shards)
  --fill-holes FILE  resume the salvaged JSON document FILE: re-run only its shard_holes
                     under the recorded shard_count split (requires --cache-dir — the
                     surviving shards replay from the cache)
  --shard-json       worker mode: print the raw shard result document (internal)
  --socket PATH      serve on a unix domain socket instead of stdin/stdout
  --workers N        serve: worker threads, each owning a hot solver workspace (default 2)
  --queue-depth N    serve: per-worker admission queue depth; a full queue sheds
                     (default 16)
  --deadline-ms MS   serve: default per-request wall-clock budget (a request's own
                     deadline_ms member overrides it)
  --warm-staleness N serve: warm-cache hits between drift-checked cold refreshes
                     (default 64)
  --timing           serve: include latency_us in every response (off by default — it
                     breaks replay byte-identity)

Environment: FEDOPT_SWEEP_THREADS pins the default worker count; FEDOPT_WARM_START
overrides every spec's warm-start default (0 forces cold, 1 forces warm);
FEDOPT_FAULT_PLAN (<kind>@<target>) injects a deterministic fault for chaos tests —
worker kinds fire on a shard's first seed, serve kinds (slowreq/poisonreq/floodreq)
on a request index.";

/// A CLI failure: a message for stderr (usage problems include the usage text).
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    /// What went wrong.
    pub message: String,
    /// Whether the error is a usage mistake (print [`USAGE`] along with it).
    pub usage: bool,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        Self { message: message.into(), usage: true }
    }

    fn runtime(message: impl Into<String>) -> Self {
        Self { message: message.into(), usage: false }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::runtime(e.to_string())
    }
}

impl From<ShardError> for CliError {
    fn from(e: ShardError) -> Self {
        CliError::runtime(e.to_string())
    }
}

/// Where a `run` gets its spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecSource {
    /// A figure preset.
    Fig {
        /// The figure number.
        fig: u8,
        /// Paper scale instead of quick.
        paper: bool,
    },
    /// A serialized spec file (`"-"` = stdin).
    File(String),
}

/// Where a `sim` gets its spec: a named round-simulation preset or a spec file with a
/// `rounds` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimSource {
    /// A named round-simulation preset ([`presets::SIM_PRESETS`]).
    Preset(String),
    /// A serialized spec file (`"-"` = stdin); must carry a `rounds` section.
    File(String),
}

/// The `--seeds` / `--threads` overrides shared by `run` and `spec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Overrides {
    /// Replace the spec's seed policy with the range `0..N`.
    pub seeds: Option<u64>,
    /// Pin the engine worker count.
    pub threads: Option<usize>,
}

impl Overrides {
    fn apply(self, spec: &mut ExperimentSpec) {
        if let Some(n) = self.seeds {
            spec.override_seed_count(n);
        }
        if let Some(n) = self.threads {
            spec.engine.threads = Some(n);
        }
    }
}

/// The fleet-mode options of `fedopt run` (`--shards` and friends).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetArgs {
    /// Seed-shard the run across this many `fedopt` worker subprocesses.
    pub shards: Option<usize>,
    /// Content-addressed shard result cache directory (requires `shards`).
    pub cache_dir: Option<String>,
    /// Per-shard wall-clock timeout in seconds (requires `shards`).
    pub shard_timeout_s: Option<u64>,
    /// Retries per failed shard; `0` disables retrying (requires `shards`).
    pub shard_retries: Option<u64>,
    /// Base of the exponential retry backoff, in milliseconds (requires `shards`).
    pub shard_backoff_ms: Option<u64>,
    /// Kill a worker after this many seconds of heartbeat silence (requires `shards`).
    pub shard_heartbeat_s: Option<u64>,
    /// Salvage mode: merge completed shards, surface failures as explicit holes.
    pub allow_partial: bool,
    /// Resume mode: path of a salvaged `--json` document whose `shard_holes` are the
    /// only shards to re-run (requires `cache_dir`; excludes `shards`).
    pub fill_holes: Option<String>,
    /// Worker mode: print the raw [`crate::shard::ShardResult`] document and exit.
    pub shard_json: bool,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `fedopt run …`
    Run {
        /// The spec to run.
        source: SpecSource,
        /// Seed/thread overrides.
        overrides: Overrides,
        /// Emit the JSON document instead of tables.
        json: bool,
        /// Sharded fleet execution options.
        fleet: FleetArgs,
    },
    /// `fedopt shard split …` — print the shard specs instead of running them.
    ShardSplit {
        /// The spec to split.
        source: SpecSource,
        /// How many shards.
        shards: usize,
        /// Seed/thread overrides, baked in before splitting.
        overrides: Overrides,
    },
    /// `fedopt shard cache stats --cache-dir DIR`
    CacheStats {
        /// The cache directory.
        dir: String,
    },
    /// `fedopt shard cache gc --cache-dir DIR [--max-age SECS] [--max-bytes N]`
    CacheGc {
        /// The cache directory.
        dir: String,
        /// Expire entries older than this many seconds.
        max_age_s: Option<u64>,
        /// Evict least-recently-modified entries until the cache fits this budget.
        max_bytes: Option<u64>,
    },
    /// `fedopt spec …`
    Spec {
        /// The figure number (`--fig N`); exactly one of `fig`/`preset` is set.
        fig: Option<u8>,
        /// A round-simulation preset name (`--preset NAME`).
        preset: Option<String>,
        /// Paper scale instead of quick (figure presets only).
        paper: bool,
        /// Baked into the printed spec.
        overrides: Overrides,
    },
    /// `fedopt sim …` — the round-structured FL simulation.
    Sim {
        /// The sim spec to run.
        source: SimSource,
        /// Seed/thread overrides.
        overrides: Overrides,
        /// Emit the JSON document instead of the table rendering.
        json: bool,
    },
    /// `fedopt serve …` — the long-lived, crash-isolated allocation service.
    Serve {
        /// Unix-socket path to listen on (`None` = one stdin/stdout session).
        socket: Option<String>,
        /// Worker threads, each owning a hot solver workspace.
        workers: usize,
        /// Per-worker admission-queue depth; a full queue sheds.
        queue_depth: usize,
        /// Default per-request wall-clock budget in milliseconds.
        deadline_ms: Option<u64>,
        /// Warm-cache hits between drift-checked cold refreshes.
        warm_staleness: u64,
        /// Include per-request latency in every response.
        timing: bool,
    },
    /// `fedopt list`
    List,
    /// `fedopt help` / `--help` / no arguments.
    Help,
}

// ---------------------------------------------------------------------------
// The one argument parser (inherited from the historical bins' common.rs)
// ---------------------------------------------------------------------------

/// Removes `--flag` from `args`; returns whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Removes one `--flag VALUE` / `--flag=VALUE` occurrence from `args`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    let prefix = format!("{flag}=");
    let Some(idx) = args.iter().position(|a| a == flag || a.starts_with(&prefix)) else {
        return Ok(None);
    };
    let arg = args.remove(idx);
    if let Some(value) = arg.strip_prefix(&prefix) {
        return Ok(Some(value.to_string()));
    }
    if idx < args.len() && !args[idx].starts_with("--") {
        return Ok(Some(args.remove(idx)));
    }
    Err(CliError::usage(format!("{flag} requires a value (e.g. `{flag} 4`)")))
}

/// Removes one positive-integer-valued flag — the `--seeds N` / `--threads N` contract of
/// the historical figure binaries.
fn take_positive(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, CliError> {
    match take_value(args, flag)? {
        None => Ok(None),
        Some(value) => value.parse::<u64>().ok().filter(|&n| n > 0).map(Some).ok_or_else(|| {
            CliError::usage(format!(
                "{flag} requires a positive integer, got {value:?} (e.g. `{flag} 4`)"
            ))
        }),
    }
}

/// Removes one non-negative-integer-valued flag. Unlike [`take_positive`], `0` is a
/// meaningful value here (`--shard-retries 0` disables retrying; `--max-bytes 0`
/// evicts everything).
fn take_nonneg(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, CliError> {
    match take_value(args, flag)? {
        None => Ok(None),
        Some(value) => value.parse::<u64>().map(Some).map_err(|_| {
            CliError::usage(format!(
                "{flag} requires a non-negative integer, got {value:?} (e.g. `{flag} 2`)"
            ))
        }),
    }
}

fn take_overrides(args: &mut Vec<String>) -> Result<Overrides, CliError> {
    let seeds = take_positive(args, "--seeds")?;
    if let Some(n) = seeds {
        // The spec's own validation rejects this too, but only at run time — fail the
        // parse so `fedopt spec --seeds …` can never print an invalid spec either.
        if n > crate::spec::MAX_SEEDS {
            return Err(CliError::usage(format!(
                "--seeds {n} exceeds the per-spec maximum of {} — shard larger sweeps \
                 with `fedopt run --shards N` or `fedopt shard split`",
                crate::spec::MAX_SEEDS
            )));
        }
    }
    Ok(Overrides { seeds, threads: take_positive(args, "--threads")?.map(|n| n as usize) })
}

fn take_fig(args: &mut Vec<String>) -> Result<Option<u8>, CliError> {
    match take_value(args, "--fig")? {
        None => Ok(None),
        Some(value) => {
            let fig =
                value.parse::<u8>().ok().filter(|f| presets::FIGURES.contains(f)).ok_or_else(
                    || {
                        CliError::usage(format!(
                            "--fig requires a figure number in 2..=8, got {value:?}"
                        ))
                    },
                )?;
            Ok(Some(fig))
        }
    }
}

/// Returns `(paper, either_switch_present)`.
fn take_variant(args: &mut Vec<String>) -> Result<(bool, bool), CliError> {
    let paper = take_switch(args, "--paper");
    let quick = take_switch(args, "--quick");
    if paper && quick {
        return Err(CliError::usage("--paper and --quick are mutually exclusive"));
    }
    Ok((paper, paper || quick))
}

fn reject_leftovers(args: &[String]) -> Result<(), CliError> {
    if let Some(first) = args.first() {
        return Err(CliError::usage(format!("unrecognised argument {first:?}")));
    }
    Ok(())
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// [`CliError`] with `usage = true` on any unknown or malformed argument.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((verb, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut rest: Vec<String> = rest.to_vec();
    match verb.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => {
            reject_leftovers(&rest)?;
            Ok(Command::List)
        }
        "spec" => {
            let fig = take_fig(&mut rest)?;
            let preset = take_value(&mut rest, "--preset")?;
            let (paper, variant_given) = take_variant(&mut rest)?;
            let overrides = take_overrides(&mut rest)?;
            reject_leftovers(&rest)?;
            match (&fig, &preset) {
                (None, None) => {
                    return Err(CliError::usage("`fedopt spec` requires --fig N or --preset NAME"));
                }
                (Some(_), Some(_)) => {
                    return Err(CliError::usage("--fig and --preset are mutually exclusive"));
                }
                (None, Some(_)) if variant_given => {
                    return Err(CliError::usage(
                        "--paper/--quick scale figure presets; they cannot modify \
                         --preset NAME",
                    ));
                }
                _ => {}
            }
            Ok(Command::Spec { fig, preset, paper, overrides })
        }
        "sim" => {
            let preset = take_value(&mut rest, "--preset")?;
            let file = take_value(&mut rest, "--spec")?;
            let overrides = take_overrides(&mut rest)?;
            let json = take_switch(&mut rest, "--json");
            reject_leftovers(&rest)?;
            let source = match (preset, file) {
                (Some(name), None) => SimSource::Preset(name),
                (None, Some(path)) => SimSource::File(path),
                (Some(_), Some(_)) => {
                    return Err(CliError::usage("--preset and --spec are mutually exclusive"));
                }
                (None, None) => {
                    return Err(CliError::usage(
                        "`fedopt sim` requires --preset NAME or --spec FILE",
                    ));
                }
            };
            Ok(Command::Sim { source, overrides, json })
        }
        "run" => {
            let source = take_source(&mut rest)?
                .ok_or_else(|| CliError::usage("`fedopt run` requires --fig N or --spec FILE"))?;
            let overrides = take_overrides(&mut rest)?;
            let json = take_switch(&mut rest, "--json");
            let fleet = FleetArgs {
                shards: take_positive(&mut rest, "--shards")?.map(|n| n as usize),
                cache_dir: take_value(&mut rest, "--cache-dir")?,
                shard_timeout_s: take_positive(&mut rest, "--shard-timeout")?,
                shard_retries: take_nonneg(&mut rest, "--shard-retries")?,
                shard_backoff_ms: take_nonneg(&mut rest, "--shard-backoff-ms")?,
                shard_heartbeat_s: take_positive(&mut rest, "--shard-heartbeat")?,
                allow_partial: take_switch(&mut rest, "--allow-partial"),
                fill_holes: take_value(&mut rest, "--fill-holes")?,
                shard_json: take_switch(&mut rest, "--shard-json"),
            };
            reject_leftovers(&rest)?;
            if fleet.fill_holes.is_some() {
                if fleet.shards.is_some() {
                    return Err(CliError::usage(
                        "--fill-holes resumes the split recorded in the document; it \
                         cannot combine with --shards",
                    ));
                }
                if fleet.allow_partial {
                    return Err(CliError::usage(
                        "--fill-holes completes a salvaged run; --allow-partial would \
                         let it stay partial",
                    ));
                }
                if fleet.cache_dir.is_none() {
                    return Err(CliError::usage(
                        "--fill-holes requires --cache-dir DIR — the surviving shards \
                         replay from the shard cache, only the holes are recomputed",
                    ));
                }
            }
            if fleet.shards.is_none() && fleet.fill_holes.is_none() {
                for (set, flag) in [
                    (fleet.cache_dir.is_some(), "--cache-dir"),
                    (fleet.shard_timeout_s.is_some(), "--shard-timeout"),
                    (fleet.shard_retries.is_some(), "--shard-retries"),
                    (fleet.shard_backoff_ms.is_some(), "--shard-backoff-ms"),
                    (fleet.shard_heartbeat_s.is_some(), "--shard-heartbeat"),
                    (fleet.allow_partial, "--allow-partial"),
                ] {
                    if set {
                        return Err(CliError::usage(format!("{flag} requires --shards N")));
                    }
                }
            }
            if fleet.shard_json && (json || fleet.shards.is_some() || fleet.fill_holes.is_some()) {
                return Err(CliError::usage(
                    "--shard-json is the worker-mode output format; it cannot combine \
                     with --json, --shards, or --fill-holes",
                ));
            }
            Ok(Command::Run { source, overrides, json, fleet })
        }
        "serve" => {
            let socket = take_value(&mut rest, "--socket")?;
            let workers = take_positive(&mut rest, "--workers")?
                .map_or(serve::DEFAULT_WORKERS, |n| n as usize);
            let queue_depth = take_positive(&mut rest, "--queue-depth")?
                .map_or(serve::DEFAULT_QUEUE_DEPTH, |n| n as usize);
            let deadline_ms = take_positive(&mut rest, "--deadline-ms")?;
            let warm_staleness = take_positive(&mut rest, "--warm-staleness")?
                .unwrap_or(serve::DEFAULT_WARM_STALENESS);
            let timing = take_switch(&mut rest, "--timing");
            reject_leftovers(&rest)?;
            Ok(Command::Serve { socket, workers, queue_depth, deadline_ms, warm_staleness, timing })
        }
        "shard" => match rest.split_first() {
            Some((sub, tail)) if sub == "split" => {
                let mut tail: Vec<String> = tail.to_vec();
                let source = take_source(&mut tail)?.ok_or_else(|| {
                    CliError::usage("`fedopt shard split` requires --fig N or --spec FILE")
                })?;
                let overrides = take_overrides(&mut tail)?;
                let shards = take_positive(&mut tail, "--shards")?
                    .ok_or_else(|| CliError::usage("`fedopt shard split` requires --shards N"))?
                    as usize;
                reject_leftovers(&tail)?;
                Ok(Command::ShardSplit { source, shards, overrides })
            }
            Some((sub, tail)) if sub == "cache" => {
                let mut tail: Vec<String> = tail.to_vec();
                let action = (!tail.is_empty()).then(|| tail.remove(0));
                let dir = |tail: &mut Vec<String>, what: &str| {
                    take_value(tail, "--cache-dir")?.ok_or_else(|| {
                        CliError::usage(format!(
                            "`fedopt shard cache {what}` requires --cache-dir DIR"
                        ))
                    })
                };
                match action.as_deref() {
                    Some("stats") => {
                        let dir = dir(&mut tail, "stats")?;
                        reject_leftovers(&tail)?;
                        Ok(Command::CacheStats { dir })
                    }
                    Some("gc") => {
                        let dir = dir(&mut tail, "gc")?;
                        let max_age_s = take_nonneg(&mut tail, "--max-age")?;
                        let max_bytes = take_nonneg(&mut tail, "--max-bytes")?;
                        reject_leftovers(&tail)?;
                        Ok(Command::CacheGc { dir, max_age_s, max_bytes })
                    }
                    _ => Err(CliError::usage(
                        "`fedopt shard cache` has two subcommands: `stats` and `gc`",
                    )),
                }
            }
            _ => Err(CliError::usage("`fedopt shard` has subcommands `split` and `cache`")),
        },
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    }
}

/// Parses the shared spec-source arguments (`--fig`/`--paper`/`--quick`/`--spec`).
/// `Ok(None)` when none were given — the verbs word their own "required" errors.
fn take_source(rest: &mut Vec<String>) -> Result<Option<SpecSource>, CliError> {
    let fig = take_fig(rest)?;
    let file = take_value(rest, "--spec")?;
    let (paper, variant_given) = take_variant(rest)?;
    match (fig, file) {
        (Some(fig), None) => Ok(Some(SpecSource::Fig { fig, paper })),
        (None, Some(path)) => {
            if variant_given {
                return Err(CliError::usage(
                    "--paper/--quick select a preset; they cannot modify --spec FILE",
                ));
            }
            Ok(Some(SpecSource::File(path)))
        }
        (Some(_), Some(_)) => Err(CliError::usage("--fig and --spec are mutually exclusive")),
        (None, None) => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

fn preset(fig: u8, paper: bool) -> Result<ExperimentSpec, CliError> {
    let variant = if paper { Variant::Paper } else { Variant::Quick };
    presets::spec(fig, variant)
        .ok_or_else(|| CliError::usage(format!("no preset for figure {fig}")))
}

/// Resolves a round-simulation preset name. The unknown-name error deliberately names
/// *both* preset families — a user who guessed the wrong family lands on their feet.
fn sim_preset(name: &str) -> Result<ExperimentSpec, CliError> {
    presets::sim(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown preset {name:?} — sim presets are {}; figure presets are \
             fig{}..=fig{} (selected with --fig N)",
            presets::SIM_PRESETS.join(" | "),
            presets::FIGURES[0],
            presets::FIGURES[presets::FIGURES.len() - 1],
        ))
    })
}

/// Loads a `fedopt sim` spec and checks it actually has a `rounds` section — a sweep
/// spec fed to the wrong verb gets a pointer back to `fedopt run`, not a generic
/// validation error.
fn load_sim_spec(source: &SimSource) -> Result<ExperimentSpec, CliError> {
    let spec = match source {
        SimSource::Preset(name) => sim_preset(name)?,
        SimSource::File(path) => load_spec(&SpecSource::File(path.clone()))?,
    };
    if spec.rounds.is_none() {
        return Err(CliError::runtime(format!(
            "spec {:?} has no `rounds` section — `fedopt sim` runs round simulations; \
             sweep specs run with `fedopt run --spec …`",
            spec.id
        )));
    }
    Ok(spec)
}

fn load_spec(source: &SpecSource) -> Result<ExperimentSpec, CliError> {
    match source {
        SpecSource::Fig { fig, paper } => preset(*fig, *paper),
        SpecSource::File(path) => {
            let text = if path == "-" {
                std::io::read_to_string(std::io::stdin())
                    .map_err(|e| CliError::runtime(format!("reading stdin: {e}")))?
            } else {
                std::fs::read_to_string(path)
                    .map_err(|e| CliError::runtime(format!("reading {path}: {e}")))?
            };
            Ok(ExperimentSpec::from_json_str(&text)?)
        }
    }
}

/// The `list` payload.
pub fn render_list() -> String {
    let mut out = String::from("figure  preset ids      what it shows\n");
    for &fig in &presets::FIGURES {
        let summary = presets::summary(fig).expect("every listed figure has a summary");
        out.push_str(&format!("fig{fig}    quick | paper   {summary}\n"));
    }
    out.push_str("\nsim preset      what it shows\n");
    for name in presets::SIM_PRESETS {
        let summary = presets::sim_summary(name).expect("every listed sim preset has a summary");
        out.push_str(&format!("{name:<15} {summary}\n"));
    }
    out.push_str(
        "\nrun a figure with `fedopt run --fig N [--paper]`; run a round simulation with \
         `fedopt sim --preset NAME`; print either spec with `fedopt spec --fig N` / \
         `fedopt spec --preset NAME`.\n",
    );
    out
}

section! {
    /// The document `fedopt run --json` prints, one row per member. Members a run does not
    /// use are left out, so fault-free output stays byte-identical to a single process's.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunDocument {
        /// Wire-format version; must equal [`crate::spec::SCHEMA_VERSION`].
        schema_version: u64, check crate::spec::schema_version;
        /// The spec's `id`.
        spec_id: String;
        /// Every rendered report, in the spec's order.
        reports: Vec<FigureReport>;
        /// The sweep's work counters.
        counters: RunCounters;
        /// A salvaged run's missing shards, in shard order.
        shard_holes: Option<Vec<ShardHole>>;
        /// A salvaged run's split, which `--fill-holes` reproduces.
        shard_count: Option<usize>, check opt(at_least_one);
    }
}

section! {
    /// The work counters of a run, with the shard cache's traffic when one was configured.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RunCounters {
        /// Scenario builds the sweep performed.
        scenarios_built: usize;
        /// Cells the sweep evaluated.
        cells_evaluated: usize;
        /// Solver iteration totals, each counter by its emit rule.
        solver: shard::ReportedCounters;
        /// Shards answered from the cache.
        shard_cache_hits: Option<u64>;
        /// Shards the cache could not answer.
        shard_cache_misses: Option<u64>;
    }
}

section! {
    /// One shard a salvaged run is missing.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ShardHole {
        /// Shard index (0-based) within the split.
        shard: usize;
        /// The shard's seed sub-range.
        seeds: String;
        /// How many attempts were made (1 + retries).
        attempts: usize;
        /// The last attempt's error.
        error: String;
    }
}

impl RunDocument {
    /// The document of a finished run. `fleet` adds the cache counters when a cache was
    /// configured and, for a salvaged run, its holes and split.
    pub(crate) fn new(spec: &ExperimentSpec, run: &SpecRun, fleet: Option<&FleetStats>) -> Self {
        let SweepCounters { scenarios_built, cells_evaluated, solver } = run.result.counters;
        let cache = fleet.filter(|stats| stats.cache_enabled);
        let salvage = fleet.filter(|stats| !stats.holes.is_empty());
        let hole = |h: &shard::ShardFailure| ShardHole {
            shard: h.index,
            seeds: h.seeds.clone(),
            attempts: h.attempts,
            error: h.error.clone(),
        };
        Self {
            schema_version: crate::spec::SCHEMA_VERSION,
            spec_id: spec.id.clone(),
            reports: run.reports.clone(),
            counters: RunCounters {
                scenarios_built,
                cells_evaluated,
                solver: shard::ReportedCounters(solver),
                shard_cache_hits: cache.map(|stats| stats.shard_cache_hits),
                shard_cache_misses: cache.map(|stats| stats.shard_cache_misses),
            },
            shard_holes: salvage.map(|stats| stats.holes.iter().map(hole).collect()),
            shard_count: salvage.map(|stats| stats.shards),
        }
    }

    /// Reads a run document strictly, through the same rows that write it.
    ///
    /// # Errors
    ///
    /// The JSON parse error, or `<path>: <message>` naming an unknown, missing or
    /// mistyped member by its dotted path under `run.`.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        Self::read(&Json::parse(text).map_err(|e| e.to_string())?, &"run")
            .map_err(SpecError::path_message)
    }

    /// The document as printed: pretty, byte-stable, with a trailing newline.
    pub fn to_json_string(&self) -> String {
        self.write().expect("a section always writes an object").to_pretty_string()
    }
}

/// The [`RunDocument`] of a single-process run, as a JSON value.
pub fn run_document(spec: &ExperimentSpec, run: &SpecRun) -> Json {
    RunDocument::new(spec, run, None).write().expect("a section always writes an object")
}

/// Renders a finished run: the historical tables + CSV, or the [`RunDocument`] with the
/// members `fleet` adds.
pub fn render_run(
    spec: &ExperimentSpec,
    run: &SpecRun,
    json: bool,
    fleet: Option<&FleetStats>,
) -> String {
    if json {
        return RunDocument::new(spec, run, fleet).to_json_string();
    }
    let mut out = String::new();
    for report in &run.reports {
        out.push_str(&report.to_table_string());
        out.push('\n');
        out.push_str(&format!("--- CSV ({}) ---\n", report.id));
        out.push_str(&report.to_csv_string());
        out.push('\n');
    }
    out
}

/// Parses and executes a command line, returning the stdout payload. Progress goes to
/// stderr so stdout stays pipeable (`fedopt spec … | fedopt run --spec -`).
///
/// # Errors
///
/// [`CliError`] for usage mistakes, unreadable/invalid specs, and sweep failures.
pub fn main_with(args: &[String]) -> Result<String, CliError> {
    match parse(args)? {
        Command::Help => Ok(format!("{USAGE}\n")),
        Command::List => Ok(render_list()),
        Command::Spec { fig, preset: sim_name, paper, overrides } => {
            let mut spec = match (fig, sim_name) {
                (Some(fig), None) => preset(fig, paper)?,
                (None, Some(name)) => sim_preset(&name)?,
                _ => unreachable!("parse enforces exactly one of --fig/--preset"),
            };
            overrides.apply(&mut spec);
            Ok(spec.to_json_string())
        }
        Command::Sim { source, overrides, json } => {
            let mut spec = load_sim_spec(&source)?;
            overrides.apply(&mut spec);
            let engine = spec.engine.to_engine();
            let rounds = spec.rounds.as_ref().expect("load_sim_spec checked for rounds");
            eprintln!(
                "simulating {} ({} rounds x {} policies x {} seeds, {} threads, warm start {})...",
                spec.id,
                rounds.rounds,
                rounds.policies.len(),
                spec.seeds.len(),
                engine.threads(),
                if engine.warm_starts() { "on" } else { "off" },
            );
            let run = crate::rounds::simulate_with_engine(&spec, &engine)?;
            Ok(if json { run.to_json_string() } else { run.to_table_string() })
        }
        Command::Run { source, overrides, json, fleet } => {
            let mut spec = load_spec(&source)?;
            overrides.apply(&mut spec);
            if fleet.shard_json {
                // Worker mode: raw samples out, nothing rendered. One compact line so the
                // coordinator can stream-parse stdout.
                return run_worker(&spec);
            }
            if let Some(report_path) = fleet.fill_holes.clone() {
                return run_fill_holes(&spec, &report_path, &fleet, json);
            }
            if let Some(shards) = fleet.shards {
                return run_fleet_command(&spec, shards, &fleet, json);
            }
            let engine = spec.engine.to_engine();
            eprintln!(
                "running {} ({} points x {} arms x {} draws/point, {} threads, warm start {})...",
                spec.id,
                spec.axis.values.len(),
                spec.arms.len(),
                spec.seeds.len(),
                engine.threads(),
                if engine.warm_starts() { "on" } else { "off" },
            );
            let run = spec.run_with_engine(&engine)?;
            Ok(render_run(&spec, &run, json, None))
        }
        Command::ShardSplit { source, shards, overrides } => {
            let mut spec = load_spec(&source)?;
            overrides.apply(&mut spec);
            let shard_specs = shard::split(&spec, shards)?;
            let doc = Json::Arr(shard_specs.iter().map(ExperimentSpec::to_json).collect());
            Ok(doc.to_pretty_string())
        }
        Command::CacheStats { dir } => {
            let stats = ShardCache::open(&dir).stats()?;
            Ok(format!(
                "cache {dir}\n  entries:   {} ({} bytes)\n  tmp files: {} ({} bytes)\n",
                stats.entries, stats.entry_bytes, stats.tmp_files, stats.tmp_bytes
            ))
        }
        Command::Serve { socket, workers, queue_depth, deadline_ms, warm_staleness, timing } => {
            // Only the serve-side fault kinds apply here; a plan targeting shard seeds
            // stays armed for worker subprocesses and is inert for the service.
            let fault = FaultPlan::from_env()
                .map_err(CliError::runtime)?
                .filter(|plan| plan.kind.is_serve_fault());
            let opts = ServeOptions {
                workers,
                queue_depth,
                deadline_ms,
                warm_staleness,
                timing,
                warm_start: None,
                fault,
            };
            run_serve_command(socket, &opts)
        }
        Command::CacheGc { dir, max_age_s, max_bytes } => {
            let report =
                ShardCache::open(&dir).gc(max_age_s.map(Duration::from_secs), max_bytes)?;
            Ok(format!(
                "cache {dir}\n  evicted:   {} entries ({} bytes)\n  tmp files: {} removed\n  \
                 retained:  {} entries ({} bytes)\n",
                report.evicted_entries,
                report.evicted_bytes,
                report.removed_tmp_files,
                report.retained_entries,
                report.retained_bytes
            ))
        }
    }
}

/// Worker mode (`fedopt run --spec - --shard-json`): compute the shard, heartbeat on
/// stderr while doing so, print the one-line wire document — unless a
/// [`FaultPlan`](crate::fault::FaultPlan) targets this shard, in which case misbehave
/// exactly as planned (this is the production failure surface the chaos suite drives).
fn run_worker(spec: &ExperimentSpec) -> Result<String, CliError> {
    let fault = FaultPlan::from_env()
        .map_err(CliError::runtime)?
        .filter(|plan| plan.applies_to(spec))
        .map(|plan| plan.kind);
    match fault {
        Some(FaultKind::CrashOnEntry) => {
            return Err(CliError::runtime("injected fault: crash on entry"));
        }
        Some(FaultKind::Stall) => {
            // Hang silently forever: no heartbeat, no output. Only the coordinator's
            // heartbeat timeout can end this worker.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some(FaultKind::StderrFlood) => {
            for i in 0..5000 {
                eprintln!("injected flood line {i}: runaway diagnostic output before a crash");
            }
            return Err(CliError::runtime("injected fault: stderr flood then crash"));
        }
        _ => {}
    }
    let result = std::thread::scope(|scope| {
        // Beat at once, then every interval until `_done` drops at the end of this closure
        // (or while unwinding from it) and disconnects the channel.
        let (_done, finished) = mpsc::channel::<()>();
        scope.spawn(move || loop {
            eprintln!("{}", shard::HEARTBEAT_PREFIX);
            if finished.recv_timeout(shard::HEARTBEAT_INTERVAL) != Err(RecvTimeoutError::Timeout) {
                break;
            }
        });
        shard::run_shard_in_process(spec)
    })?;
    let line = result.to_json_string();
    match fault {
        Some(FaultKind::TruncateStdout) => {
            // Exit mid-stream: half a document, no newline, successful exit status —
            // the shape of a broken pipe or a disk-full stdout redirect.
            let mut cut = line.len() / 2;
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            Ok(line[..cut].to_string())
        }
        Some(FaultKind::CorruptWire) => Ok(format!("{}\n", crate::fault::corrupt_payload(&line))),
        _ => Ok(format!("{line}\n")),
    }
}

/// The subprocess runner a fleet-mode (or fill-holes) command configures.
fn subprocess_runner(fleet: &FleetArgs) -> Result<SubprocessRunner, CliError> {
    let program = std::env::current_exe()
        .map_err(|e| CliError::runtime(format!("cannot locate the fedopt binary: {e}")))?;
    let mut runner = SubprocessRunner::new(program);
    if let Some(secs) = fleet.shard_timeout_s {
        runner = runner.with_timeout(Duration::from_secs(secs));
    }
    if let Some(secs) = fleet.shard_heartbeat_s {
        runner = runner.with_heartbeat_timeout(Some(Duration::from_secs(secs)));
    }
    Ok(runner)
}

/// The [`FleetOptions`] a fleet-mode (or fill-holes) command configures.
fn fleet_options(fleet: &FleetArgs, shards: usize, allow_partial: bool) -> FleetOptions {
    FleetOptions {
        shards,
        cache: fleet.cache_dir.as_ref().map(ShardCache::open),
        max_retries: fleet.shard_retries.map_or(shard::DEFAULT_MAX_RETRIES, |n| n as usize),
        backoff: fleet.shard_backoff_ms.map_or(shard::DEFAULT_RETRY_BACKOFF, Duration::from_millis),
        allow_partial,
    }
}

/// The coordinator half of `fedopt run --shards N`: split, fan out to `fedopt`
/// subprocesses, merge, render.
fn run_fleet_command(
    spec: &ExperimentSpec,
    shards: usize,
    fleet: &FleetArgs,
    json: bool,
) -> Result<String, CliError> {
    let runner = subprocess_runner(fleet)?;
    let opts = fleet_options(fleet, shards, fleet.allow_partial);
    eprintln!(
        "running {} as a fleet ({} shards over {} draws/point{})...",
        spec.id,
        shards.min(spec.seeds.len().try_into().unwrap_or(usize::MAX)).max(1),
        spec.seeds.len(),
        match &fleet.cache_dir {
            Some(dir) => format!(", cache {dir}"),
            None => String::new(),
        },
    );
    let (result, stats) = shard::run_fleet(spec, &opts, &runner)?;
    if stats.cache_enabled {
        eprintln!(
            "fleet done: {} cache hits, {} misses, {} retries",
            stats.shard_cache_hits, stats.shard_cache_misses, stats.retries
        );
    }
    Ok(render_run(spec, &fleet_run(spec, result, &stats), json, Some(&stats)))
}

/// A merged fleet run; a salvaged run's holes go to stderr and into each report's note.
fn fleet_run(spec: &ExperimentSpec, result: SweepResult, stats: &FleetStats) -> SpecRun {
    let mut reports = spec.render_reports(&result);
    if !stats.holes.is_empty() {
        eprintln!(
            "WARNING: salvaged a partial fleet run — {} shard(s) failed terminally; their \
             seed ranges are holes, means are over the surviving draws only:",
            stats.holes.len(),
        );
        for hole in &stats.holes {
            eprintln!("  shard {} (seeds {}): {}", hole.index, hole.seeds, hole.error);
        }
        let missing: Vec<String> = stats.holes.iter().map(|h| h.seeds.clone()).collect();
        let note = format!("salvaged fleet run: seeds {} missing", missing.join(", "));
        for report in &mut reports {
            report.note = Some(note.clone());
        }
    }
    SpecRun { result, reports }
}

/// The resume half of salvage (`fedopt run --fill-holes REPORT`): read the salvaged
/// document's `shard_holes` and `shard_count`, re-run the identical split with the
/// survivors answering from the shard cache (cache-first, so only the holes cost
/// compute), and emit the complete document — byte-identical to a run that never
/// faulted. The document's `spec_id` must match the spec selected on the command line;
/// a document without holes, or without a recorded split, is a loud error rather than a
/// silent full re-run.
fn run_fill_holes(
    spec: &ExperimentSpec,
    report_path: &str,
    fleet: &FleetArgs,
    json: bool,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(report_path)
        .map_err(|e| CliError::runtime(format!("reading {report_path}: {e}")))?;
    let doc = RunDocument::from_json_str(&text).map_err(|why| {
        CliError::runtime(format!("--fill-holes: {report_path} is not a JSON run document: {why}"))
    })?;
    if doc.spec_id != spec.id {
        return Err(CliError::runtime(format!(
            "--fill-holes: {report_path} documents spec {:?} but the command line selects \
             {:?} — refusing to merge unrelated runs",
            doc.spec_id, spec.id
        )));
    }
    let holes = doc.shard_holes.filter(|holes| !holes.is_empty()).ok_or_else(|| {
        CliError::runtime(format!(
            "--fill-holes: {report_path} reports no shard_holes — the document is already \
             complete, nothing to fill"
        ))
    })?;
    let shard_count = doc.shard_count.ok_or_else(|| {
        CliError::runtime(format!(
            "--fill-holes: {report_path} records no shard_count — only salvaged documents \
             from `--shards N --allow-partial` runs are resumable"
        ))
    })?;
    let missing: Vec<&str> = holes.iter().map(|hole| hole.seeds.as_str()).collect();
    eprintln!(
        "filling {} hole(s) of {report_path} (seeds {}) under the recorded {shard_count}-shard \
         split; surviving shards replay from the cache...",
        holes.len(),
        missing.join(", "),
    );
    let runner = subprocess_runner(fleet)?;
    let opts = fleet_options(fleet, shard_count, false);
    let (result, stats) = shard::run_fleet(spec, &opts, &runner)?;
    eprintln!(
        "holes filled: {} shard(s) answered from the cache, {} recomputed",
        stats.shard_cache_hits, stats.shard_cache_misses
    );
    // The filled document must be byte-identical to the never-faulted single-process
    // document — the cache traffic is reported on stderr (above), not in the payload.
    Ok(render_run(spec, &fleet_run(spec, result, &stats), json, None))
}

/// The `serve` verb: a long-lived allocation service over stdin/stdout or a unix
/// socket. Responses stream directly to the transport while the session runs — the
/// returned payload is empty on purpose — and the run's stats summary goes to stderr,
/// where all diagnostics live.
fn run_serve_command(socket: Option<String>, opts: &ServeOptions) -> Result<String, CliError> {
    eprintln!(
        "serving ({} worker(s), queue depth {}, default deadline {}, warm staleness {})...",
        opts.workers,
        opts.queue_depth,
        opts.deadline_ms.map_or_else(|| "none".to_string(), |ms| format!("{ms} ms")),
        opts.warm_staleness,
    );
    let stats = match socket {
        Some(path) => serve_socket(&path, opts)?,
        None => {
            // The owned handle (not StdoutLock, which is !Send) crosses into the
            // session's writer thread; it is the only stdout writer for the run.
            let stdin = std::io::stdin().lock();
            serve::serve_session(stdin, std::io::stdout(), opts, serve::drain_flag())
                .map_err(|e| CliError::runtime(format!("serve: {e}")))?
        }
    };
    eprintln!("{}", stats.summary_line());
    Ok(String::new())
}

#[cfg(unix)]
fn serve_socket(path: &str, opts: &ServeOptions) -> Result<serve::ServeStats, CliError> {
    let socket = std::path::Path::new(path);
    let error = |e| CliError::runtime(format!("serve --socket {path}: {e}"));
    let listener = serve::bind_unix_socket(socket).map_err(error)?;
    eprintln!("listening on {path} (SIGTERM drains; each connection is one session)");
    serve::serve_unix_socket(&listener, socket, opts, serve::drain_flag()).map_err(error)
}

#[cfg(not(unix))]
fn serve_socket(path: &str, _opts: &ServeOptions) -> Result<serve::ServeStats, CliError> {
    Err(CliError::runtime(format!(
        "serve --socket {path}: unix domain sockets are unavailable on this platform; \
         use the stdin/stdout transport"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SeedPolicy;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_documented_command_lines() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert_eq!(
            parse(&argv("spec --fig 2")).unwrap(),
            Command::Spec {
                fig: Some(2),
                preset: None,
                paper: false,
                overrides: Overrides::default()
            }
        );
        assert_eq!(
            parse(&argv("spec --preset rounds-quick --seeds 2")).unwrap(),
            Command::Spec {
                fig: None,
                preset: Some("rounds-quick".to_string()),
                paper: false,
                overrides: Overrides { seeds: Some(2), threads: None },
            }
        );
        assert_eq!(
            parse(&argv("sim --preset rounds-quick --seeds 2 --threads 1 --json")).unwrap(),
            Command::Sim {
                source: SimSource::Preset("rounds-quick".to_string()),
                overrides: Overrides { seeds: Some(2), threads: Some(1) },
                json: true,
            }
        );
        assert_eq!(
            parse(&argv("sim --spec -")).unwrap(),
            Command::Sim {
                source: SimSource::File("-".to_string()),
                overrides: Overrides::default(),
                json: false,
            }
        );
        assert_eq!(
            parse(&argv("run --fig 7 --paper --seeds 25 --threads 8 --json")).unwrap(),
            Command::Run {
                source: SpecSource::Fig { fig: 7, paper: true },
                overrides: Overrides { seeds: Some(25), threads: Some(8) },
                json: true,
                fleet: FleetArgs::default(),
            }
        );
        // `--flag=value` form and flag order both work (the historical bins' contract).
        assert_eq!(
            parse(&argv("run --json --seeds=3 --fig=2")).unwrap(),
            Command::Run {
                source: SpecSource::Fig { fig: 2, paper: false },
                overrides: Overrides { seeds: Some(3), threads: None },
                json: true,
                fleet: FleetArgs::default(),
            }
        );
        assert_eq!(
            parse(&argv("run --spec - --json")).unwrap(),
            Command::Run {
                source: SpecSource::File("-".to_string()),
                overrides: Overrides::default(),
                json: true,
                fleet: FleetArgs::default(),
            }
        );
    }

    #[test]
    fn rejects_malformed_command_lines_with_usage_errors() {
        for bad in [
            "frobnicate",
            "run",
            "run --fig 1",
            "run --fig nine",
            "run --fig 2 --spec x.json",
            "run --fig 2 --paper --quick",
            "run --spec x.json --paper",
            "run --fig 2 --seeds 0",
            "run --fig 2 --seeds 9007199254740993",
            "run --spec x.json --quick",
            "run --fig 2 --seeds",
            "run --fig 2 --threads -3",
            "run --fig 2 --threads two",
            "spec",
            "spec --fig 2 extra",
            "spec --fig 2 --preset rounds-quick",
            "spec --preset rounds-quick --paper",
            "list --fig 2",
            // Sim combinations.
            "sim",
            "sim --preset rounds-quick --spec x.json",
            "sim --fig 2",
            "sim --preset rounds-quick --paper",
            "sim --preset rounds-quick extra",
            "sim --preset rounds-quick --seeds 0",
            // Fleet-flag combinations.
            "run --fig 2 --shards 0",
            "run --fig 2 --cache-dir /tmp/c",
            "run --fig 2 --shard-timeout 60",
            "run --fig 2 --shard-retries 2",
            "run --fig 2 --shard-backoff-ms 50",
            "run --fig 2 --shard-heartbeat 5",
            "run --fig 2 --allow-partial",
            "run --fig 2 --shards 2 --shard-retries -1",
            "run --fig 2 --shards 2 --shard-retries many",
            "run --fig 2 --shards 2 --shard-heartbeat 0",
            "run --fig 2 --shard-json --json",
            "run --fig 2 --shard-json --shards 2",
            // No heartbeat-interval flag: workers beat at one fixed cadence.
            "run --fig 2 --shard-heartbeat-interval-ms 500",
            "run --fig 2 --shards 2 --shard-heartbeat-interval-ms 0",
            "run --fig 2 --shards 2 --shard-heartbeat-interval-ms soon",
            "run --fig 2 --shards 2 --shard-heartbeat 1 --shard-heartbeat-interval-ms 2000",
            "run --fig 2 --shards 2 --shard-heartbeat-interval-ms 31000",
            // Fill-holes combinations.
            "run --fig 2 --fill-holes r.json",
            "run --fig 2 --fill-holes r.json --cache-dir /tmp/c --shards 2",
            "run --fig 2 --fill-holes r.json --cache-dir /tmp/c --allow-partial",
            "run --fig 2 --fill-holes r.json --cache-dir /tmp/c --shard-json",
            // Serve combinations.
            "serve --workers 0",
            "serve --queue-depth 0",
            "serve --deadline-ms 0",
            "serve --warm-staleness none",
            "serve extra",
            "serve --fig 2",
            "shard",
            "shard merge",
            "shard split --shards 3",
            "shard split --fig 2",
            "shard split --fig 2 --spec x.json --shards 2",
            "shard cache",
            "shard cache stats",
            "shard cache gc --max-age 10",
            "shard cache flush --cache-dir /tmp/c",
            "shard cache gc --cache-dir /tmp/c --max-age never",
            "shard cache stats --cache-dir /tmp/c extra",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert!(err.usage, "{bad:?} must be a usage error, got {err:?}");
        }
    }

    #[test]
    fn parses_the_fleet_command_lines() {
        assert_eq!(
            parse(&argv("run --fig 2 --shards 3 --cache-dir /tmp/c --shard-timeout 90 --json"))
                .unwrap(),
            Command::Run {
                source: SpecSource::Fig { fig: 2, paper: false },
                overrides: Overrides::default(),
                json: true,
                fleet: FleetArgs {
                    shards: Some(3),
                    cache_dir: Some("/tmp/c".to_string()),
                    shard_timeout_s: Some(90),
                    ..FleetArgs::default()
                },
            }
        );
        assert_eq!(
            parse(&argv(
                "run --fig 2 --shards 4 --shard-retries 0 --shard-backoff-ms 250 \
                 --shard-heartbeat 5 --allow-partial"
            ))
            .unwrap(),
            Command::Run {
                source: SpecSource::Fig { fig: 2, paper: false },
                overrides: Overrides::default(),
                json: false,
                fleet: FleetArgs {
                    shards: Some(4),
                    shard_retries: Some(0),
                    shard_backoff_ms: Some(250),
                    shard_heartbeat_s: Some(5),
                    allow_partial: true,
                    ..FleetArgs::default()
                },
            }
        );
        assert_eq!(
            parse(&argv("shard cache stats --cache-dir /tmp/c")).unwrap(),
            Command::CacheStats { dir: "/tmp/c".to_string() }
        );
        assert_eq!(
            parse(&argv("shard cache gc --cache-dir /tmp/c --max-age 3600 --max-bytes 0")).unwrap(),
            Command::CacheGc {
                dir: "/tmp/c".to_string(),
                max_age_s: Some(3600),
                max_bytes: Some(0),
            }
        );
        assert_eq!(
            parse(&argv("shard cache gc --cache-dir /tmp/c")).unwrap(),
            Command::CacheGc { dir: "/tmp/c".to_string(), max_age_s: None, max_bytes: None }
        );
        assert_eq!(
            parse(&argv("run --spec - --shard-json")).unwrap(),
            Command::Run {
                source: SpecSource::File("-".to_string()),
                overrides: Overrides::default(),
                json: false,
                fleet: FleetArgs { shard_json: true, ..FleetArgs::default() },
            }
        );
        assert_eq!(
            parse(&argv("shard split --fig 5 --paper --seeds 40 --shards 8")).unwrap(),
            Command::ShardSplit {
                source: SpecSource::Fig { fig: 5, paper: true },
                shards: 8,
                overrides: Overrides { seeds: Some(40), threads: None },
            }
        );
        assert_eq!(
            parse(&argv("run --fig 2 --fill-holes salvaged.json --cache-dir /tmp/c --json"))
                .unwrap(),
            Command::Run {
                source: SpecSource::Fig { fig: 2, paper: false },
                overrides: Overrides::default(),
                json: true,
                fleet: FleetArgs {
                    fill_holes: Some("salvaged.json".to_string()),
                    cache_dir: Some("/tmp/c".to_string()),
                    ..FleetArgs::default()
                },
            }
        );
    }

    #[test]
    fn parses_the_serve_command_lines() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                socket: None,
                workers: serve::DEFAULT_WORKERS,
                queue_depth: serve::DEFAULT_QUEUE_DEPTH,
                deadline_ms: None,
                warm_staleness: serve::DEFAULT_WARM_STALENESS,
                timing: false,
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --socket /tmp/fedopt.sock --workers 4 --queue-depth 1 \
                 --deadline-ms 250 --warm-staleness 8 --timing"
            ))
            .unwrap(),
            Command::Serve {
                socket: Some("/tmp/fedopt.sock".to_string()),
                workers: 4,
                queue_depth: 1,
                deadline_ms: Some(250),
                warm_staleness: 8,
                timing: true,
            }
        );
    }

    #[test]
    fn fill_holes_rejects_documents_it_cannot_resume() {
        let dir = std::env::temp_dir().join(format!("fedopt-fill-holes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache");
        let run_with = |doc: &str| {
            let path = dir.join("report.json");
            std::fs::write(&path, doc).unwrap();
            main_with(&argv(&format!(
                "run --fig 2 --seeds 4 --json --fill-holes {} --cache-dir {}",
                path.display(),
                cache.display()
            )))
        };
        // A real document of fig 2 quick (one seed: the checks only read its members),
        // complete or salvaged, edited one member at a time.
        let mut spec = preset(2, false).unwrap();
        spec.override_seed_count(1);
        let run = spec.run().unwrap();
        let hole = shard::ShardFailure {
            index: 1,
            seeds: "2..4".to_string(),
            attempts: 1,
            error: "crashed".to_string(),
            last_heartbeat_s: None,
        };
        let stats = FleetStats { holes: vec![hole], shards: 2, ..FleetStats::default() };
        let salvaged = RunDocument::new(&spec, &run, Some(&stats)).write().unwrap();
        let edit = |key: &str, value: Option<Json>| {
            let mut members = salvaged.as_object().unwrap().to_vec();
            match (members.iter().position(|(k, _)| k == key), value) {
                (Some(i), Some(value)) => members[i].1 = value,
                (None, Some(value)) => members.push((key.to_string(), value)),
                (Some(i), None) => drop(members.remove(i)),
                (None, None) => unreachable!("nothing to edit"),
            }
            Json::Obj(members).to_pretty_string()
        };
        for (doc, needle) in [
            ("not json".to_string(), "not a JSON run document"),
            (edit("spec_id", None), "run.spec_id: missing required key"),
            (edit("spec_id", Some(Json::Str("other".into()))), "refusing to merge unrelated runs"),
            (run_document(&spec, &run).to_pretty_string(), "no shard_holes"),
            (edit("shard_holes", Some(Json::Arr(Vec::new()))), "no shard_holes"),
            (edit("shard_count", None), "no shard_count"),
            (edit("extra", Some(Json::uint(1))), "run.extra: unknown key"),
            (edit("shard_count", Some(Json::Str("2".into()))), "run.shard_count: expected a"),
            (edit("shard_count", Some(Json::uint(0))), "run.shard_count: must be at least 1"),
        ] {
            let err = run_with(&doc).unwrap_err();
            assert!(!err.usage, "{doc:?} must be a runtime error");
            assert!(err.message.contains(needle), "{doc:?}: {}", err.message);
        }
        assert!(!cache.exists(), "a rejected document must not create the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A salvaged, cached fleet run's document carries every optional member: the cache
    /// counters, `shard_holes`, `shard_count`, and a note on each report. Its 5 s point is
    /// infeasible for every arm, so its cells are `null`.
    #[test]
    fn salvaged_run_document_with_every_optional_member_matches_golden() {
        /// Fails the shard starting at seed 1; computes the others cold on one thread,
        /// whatever `FEDOPT_WARM_START` says.
        struct FailSeedOne;
        impl shard::ShardRunner for FailSeedOne {
            fn run_shard(
                &self,
                spec: &ExperimentSpec,
            ) -> Result<shard::ShardResult, shard::ShardRunError> {
                if spec.seeds.values()[0] == 1 {
                    return Err(shard::ShardRunError {
                        message: "injected terminal failure".to_string(),
                        last_heartbeat_s: Some(1.5),
                    });
                }
                let engine = crate::SweepEngine::single_thread().with_warm_start(false);
                let cells = spec.grid().and_then(|grid| Ok(engine.run_cells(&grid)?));
                Ok(shard::ShardResult::from_cells(spec, cells.map_err(|e| e.to_string())?))
            }
        }
        let mut spec = preset(7, false).unwrap();
        spec.axis.values = vec![5.0, 100.0, 150.0];
        spec.override_seed_count(3);
        let dir = std::env::temp_dir().join(format!("fedopt-salvaged-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FleetOptions {
            shards: 3,
            cache: Some(ShardCache::open(&dir)),
            max_retries: 1,
            backoff: Duration::ZERO,
            allow_partial: true,
        };
        // The first run fills the cache with the two survivors; the second answers them
        // from it and fails the hole again.
        shard::run_fleet(&spec, &opts, &FailSeedOne).unwrap();
        let (result, stats) = shard::run_fleet(&spec, &opts, &FailSeedOne).unwrap();
        assert_eq!((stats.shard_cache_hits, stats.shard_cache_misses), (2, 1));
        let run = fleet_run(&spec, result, &stats);
        let document = render_run(&spec, &run, true, Some(&stats));
        crate::check_golden("run_salvaged_fig7_quick_seeds3.json", &document);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_split_prints_a_parseable_partition() {
        let out = main_with(&argv("shard split --fig 2 --seeds 5 --shards 3")).unwrap();
        let doc = Json::parse(&out).unwrap();
        let arr = doc.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        let shards: Vec<ExperimentSpec> =
            arr.iter().map(|v| ExperimentSpec::from_json(v).unwrap()).collect();
        let all_seeds: Vec<u64> = shards.iter().flat_map(|s| s.seeds.values()).collect();
        assert_eq!(all_seeds, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shard_json_worker_output_is_a_parseable_shard_result() {
        let mut spec = preset(2, false).unwrap();
        Overrides { seeds: Some(2), threads: Some(1) }.apply(&mut spec);
        let dir = std::env::temp_dir().join(format!("fedopt-cli-worker-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        std::fs::write(&path, spec.to_json_string()).unwrap();
        let out = main_with(&argv(&format!("run --spec {} --shard-json", path.display()))).unwrap();
        let result = crate::shard::ShardResult::from_json_str(&out).unwrap();
        assert_eq!(result.key, crate::shard::cache_key(&spec));
        assert_eq!(result.cells.n_seeds, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overrides_bake_into_the_spec() {
        let mut spec = preset(2, false).unwrap();
        Overrides { seeds: Some(5), threads: Some(3) }.apply(&mut spec);
        assert_eq!(spec.seeds.policy, SeedPolicy::Range { start: 0, count: 5 });
        assert_eq!(spec.engine.threads, Some(3));
    }

    #[test]
    fn spec_command_output_is_a_parseable_round_trip() {
        let out = main_with(&argv("spec --fig 3 --seeds 4 --threads 2")).expect("spec must print");
        let parsed = ExperimentSpec::from_json_str(&out).expect("printed spec must parse");
        let mut expected = preset(3, false).unwrap();
        Overrides { seeds: Some(4), threads: Some(2) }.apply(&mut expected);
        assert_eq!(parsed, expected);
    }

    #[test]
    fn spec_preset_output_is_a_parseable_round_trip() {
        let out = main_with(&argv("spec --preset rounds-quick --seeds 2"))
            .expect("sim preset spec must print");
        let parsed = ExperimentSpec::from_json_str(&out).expect("printed spec must parse");
        let mut expected = presets::sim("rounds-quick").unwrap();
        Overrides { seeds: Some(2), threads: None }.apply(&mut expected);
        assert_eq!(parsed, expected);
        assert!(parsed.rounds.is_some(), "sim preset specs carry a rounds section");
    }

    #[test]
    fn unknown_preset_errors_name_both_preset_families() {
        for line in ["spec --preset rounds-nope", "sim --preset rounds-nope"] {
            let err = main_with(&argv(line)).unwrap_err();
            assert!(err.usage, "{line:?} must be a usage error");
            for needle in ["rounds-quick", "rounds-paper", "fig2", "fig8"] {
                assert!(
                    err.message.contains(needle),
                    "{line:?}: error must name both preset families, missing {needle:?} \
                     in {}",
                    err.message
                );
            }
        }
    }

    #[test]
    fn sim_rejects_specs_without_a_rounds_section() {
        let spec = preset(2, false).unwrap();
        let dir = std::env::temp_dir().join(format!("fedopt-cli-sim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        std::fs::write(&path, spec.to_json_string()).unwrap();
        let err = main_with(&argv(&format!("sim --spec {}", path.display()))).unwrap_err();
        assert!(!err.usage, "a rounds-less spec is a runtime error, not a usage one");
        assert!(err.message.contains("fedopt run"), "points back to the sweep verb: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_command_renders_both_output_modes() {
        let json =
            main_with(&argv("sim --preset rounds-quick --seeds 1 --threads 1 --json")).unwrap();
        let doc = Json::parse(&json).expect("sim --json must be parseable JSON");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("round_sim"));
        assert_eq!(doc.get("seeds").and_then(Json::as_f64), Some(1.0));
        let table = main_with(&argv("sim --preset rounds-quick --seeds 1 --threads 1")).unwrap();
        for label in ["re-solve", "static", "fedaecs", "elastic"] {
            assert!(table.contains(label), "table must show the {label} policy:\n{table}");
        }
    }

    #[test]
    fn list_names_every_figure() {
        let out = render_list();
        for &fig in &presets::FIGURES {
            assert!(out.contains(&format!("fig{fig}")), "missing fig{fig} in {out}");
        }
        for name in presets::SIM_PRESETS {
            assert!(out.contains(name), "missing sim preset {name} in {out}");
        }
    }

    #[test]
    fn help_is_returned_for_bare_invocations() {
        assert!(main_with(&[]).unwrap().contains("USAGE"));
        assert!(main_with(&argv("--help")).unwrap().contains("--spec FILE"));
    }
}
