//! The end-to-end runs of the batch workloads (`sweep-paper`, `sim-rounds`, `fleet-1e5`):
//! the release binary is run once per chunk of seed-drawn input until the run's time is
//! up, and every chunk's output is checked.

use crate::checks;
use crate::inputs;
use crate::outcome::{Checks, Outcome};
use crate::proc;
use crate::stats::{median, Metric};
use crate::Ctx;
use experiments::json::{fnv1a_64, Json};
use experiments::ExperimentSpec;
use std::time::Instant;

/// Fewest set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Set-up runs go on past [`SETUP_REPS`] until this many seconds have passed (or
/// [`SETUP_MAX_REPS`] runs), so a set-up of a few milliseconds gets a few hundred runs: over
/// eight `sweep-paper` runs the median of 21 spread by 26 %, the median of 201 by 16 %.
pub const SETUP_BUDGET_S: f64 = 0.5;

/// Most set-up runs per benchmark run.
pub const SETUP_MAX_REPS: usize = 401;

/// One batch workload.
pub struct Batch {
    /// Workload name.
    pub name: &'static str,
    /// The chunk inputs.
    pub spec: fn(u64, u64) -> ExperimentSpec,
    /// `fedopt` arguments that read a spec on stdin.
    pub args: &'static [&'static str],
    /// Chunks every run makes, however long they take; the deterministic counters cover
    /// exactly these.
    pub min_chunks: u64,
    /// Operations in one chunk.
    pub ops: fn(&ExperimentSpec) -> u64,
    /// Output checks of one chunk's document.
    pub check: fn(&ExperimentSpec, &Json, u64, u64, &mut Checks),
    /// Name and unit of the workload's throughput figure, and whether it reports per-op
    /// seconds (one solve per chunk) instead of operations per second.
    pub named: (&'static str, &'static str, bool),
}

const RUN_ARGS: &[&str] = &["run", "--spec", "-", "--json", "--threads", "1"];
const SIM_ARGS: &[&str] = &["sim", "--spec", "-", "--json", "--threads", "1"];

/// `sweep-paper`.
pub const SWEEP: Batch = Batch {
    name: "sweep-paper",
    spec: inputs::sweep_spec,
    args: RUN_ARGS,
    min_chunks: 8,
    ops: |s| (s.axis.values.len() * s.arms.len() * s.seeds.values().len()) as u64,
    check: checks::sweep_doc,
    named: ("sweep.cells_per_s", "1/s", false),
};

/// `sim-rounds`.
pub const SIM: Batch = Batch {
    name: "sim-rounds",
    spec: inputs::sim_spec,
    args: SIM_ARGS,
    min_chunks: 6,
    ops: |s| {
        let rounds = s.rounds.as_ref().expect("sim specs carry rounds");
        (rounds.policies.len() as u64) * u64::from(rounds.rounds) * s.seeds.values().len() as u64
    },
    check: checks::sim_doc,
    named: ("sim.rounds_per_s", "1/s", false),
};

/// `fleet-1e5`.
pub const FLEET: Batch = Batch {
    name: "fleet-1e5",
    spec: inputs::fleet_spec,
    args: RUN_ARGS,
    min_chunks: 2,
    ops: |s| (s.axis.values.len() * s.arms.len() * s.seeds.values().len()) as u64,
    check: checks::fleet_doc,
    named: ("fleet.solve_s", "s", true),
};

/// The set-up input of a batch workload.
pub fn setup_spec(batch: &Batch, seed: u64) -> ExperimentSpec {
    let mut one = inputs::one_cell(&(batch.spec)(seed, 0));
    if batch.name == FLEET.name {
        one.axis.values = vec![inputs::FLEET_SETUP_DEVICES as f64];
    }
    one
}

/// Median wall seconds of runs of `input` (process start to exit): at least [`SETUP_REPS`]
/// of them, more while [`SETUP_BUDGET_S`] lasts.
pub fn setup_seconds(ctx: &Ctx, args: &[&str], input: &[u8], checks: &mut Checks) -> f64 {
    let stderr = ctx.stderr_path("setup");
    let mut walls = Vec::new();
    let start = Instant::now();
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_REPS && start.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            break;
        }
        match proc::run(&ctx.fedopt, args, input, &stderr) {
            Ok(out) if out.finished.code == 0 => walls.push(out.wall_s),
            Ok(out) => {
                checks.fail(
                    0,
                    format!(
                        "set-up run exited {}: {}",
                        out.finished.code,
                        proc::stderr_tail(&stderr)
                    ),
                );
            }
            Err(e) => checks.fail(0, format!("set-up run failed to start: {e}")),
        }
    }
    median(&walls).unwrap_or(0.0)
}

/// The end-to-end run of a batch workload.
pub fn run(ctx: &Ctx, batch: &Batch) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_spec(batch, ctx.seed).to_json_string();
    let setup_s = setup_seconds(ctx, batch.args, setup.as_bytes(), &mut out.checks);

    let stderr = ctx.stderr_path("chunk");
    let start = Instant::now();
    let mut wall_ms_per_op = Vec::new();
    let (mut total_ops, mut total_s, mut peak_kib) = (0u64, 0.0f64, 0u64);
    let mut chunk_walls = Vec::new();
    let mut digest = String::new();
    let mut totals: Vec<(String, u64)> = Vec::new();
    let mut chunk = 0u64;
    while chunk < batch.min_chunks || start.elapsed().as_secs_f64() < ctx.seconds {
        let spec = (batch.spec)(ctx.seed, chunk);
        let ops = (batch.ops)(&spec);
        out.checks.attempted += ops;
        match proc::run(&ctx.fedopt, batch.args, spec.to_json_string().as_bytes(), &stderr) {
            Ok(run) if run.finished.code == 0 => {
                peak_kib = peak_kib.max(run.finished.peak_rss_kib);
                total_ops += ops;
                total_s += run.wall_s;
                chunk_walls.push(Json::Num(run.wall_s));
                wall_ms_per_op.push(run.wall_s * 1e3 / ops as f64);
                let text = String::from_utf8_lossy(&run.stdout);
                match Json::parse(&text) {
                    Ok(doc) => {
                        (batch.check)(&spec, &doc, ctx.seed, chunk, &mut out.checks);
                        if chunk < batch.min_chunks {
                            digest.push_str(&format!("{:016x}", fnv1a_64(text.as_bytes())));
                            add_counters(&doc, &mut totals);
                        }
                    }
                    Err(e) => {
                        out.checks.fail(ops, format!("chunk {chunk}: unparsable output: {e}"))
                    }
                }
            }
            Ok(run) => out.checks.fail(
                ops,
                format!(
                    "chunk {chunk}: exit {}: {}",
                    run.finished.code,
                    proc::stderr_tail(&stderr)
                ),
            ),
            Err(e) => out.checks.fail(ops, format!("chunk {chunk}: cannot run fedopt: {e}")),
        }
        chunk += 1;
    }

    // The median, not a lower percentile: on a shared host the same work flips between
    // states about 25 % apart for seconds to minutes at a time, and a lower percentile
    // lands on the faster state whenever a run meets a short stretch of it. Over five
    // seeds the lower decile spread by 12 % on `sim-rounds` and 11 % on `fleet-1e5`
    // (where it is the fastest of six chunks); the median by 9 % and 5 %.
    let latency = median(&wall_ms_per_op).unwrap_or(0.0);
    let (name, unit, per_op) = batch.named;
    let named = if per_op {
        latency / 1e3
    } else if total_s > 0.0 {
        total_ops as f64 / total_s
    } else {
        0.0
    };
    out.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_kib as f64 / 1024.0, "MB"),
        Metric::new("latency_ms", latency, "ms"),
        Metric::new("ok_share", out.checks.ok_share(), "ratio"),
    ];
    out.named = vec![
        Metric::new(name, named, unit),
        Metric::new("failed_share", 1.0 - out.checks.ok_share(), "ratio"),
        Metric::new("chunks", chunk as f64, "count"),
    ];
    out.counter("chunks_counted", batch.min_chunks);
    for (key, value) in totals {
        out.counter(&key, value);
    }
    out.counters.push(("output_digest".to_string(), Json::Str(digest)));
    out.extra.push(("chunk_wall_s".to_string(), Json::Arr(chunk_walls)));
    out
}

/// Folds a run document's `counters` member (engine builds and cells, solver counters)
/// into `totals`.
fn add_counters(doc: &Json, totals: &mut Vec<(String, u64)>) {
    let Some(counters) = doc.get("counters").and_then(Json::as_object) else { return };
    let mut add = |key: String, value: u64| match totals.iter_mut().find(|(k, _)| *k == key) {
        Some((_, total)) => *total += value,
        None => totals.push((key, value)),
    };
    for (key, value) in counters {
        match value.as_object() {
            Some(inner) => {
                for (k, v) in inner {
                    add(format!("{key}.{k}"), v.as_u64().unwrap_or(0));
                }
            }
            None => add(key.clone(), value.as_u64().unwrap_or(0)),
        }
    }
}
