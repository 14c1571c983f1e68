//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Run from the repository root, e.g.
//! `cargo run --release -q --manifest-path perfbench/Cargo.toml -- --workload sweep-paper`.
//! Prints every metric by name and unit, runs the output checks, writes a result file
//! under `perfbench/out/`, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--write-reference` regenerates the committed sweep reference table instead.

use experiments::json::Json;
use perfbench::outcome::Outcome;
use perfbench::{batch, checks, inputs, proc, serve, traced, Ctx, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.write_reference && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit, cores, CPU, toolchain, build profile and binary of this run.
fn metadata(ctx: &Ctx) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let binary = ctx.fedopt.strip_prefix(&ctx.root).unwrap_or(&ctx.fedopt);
    Json::obj([
        ("commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("nproc", Json::uint(nproc)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("build_profile", Json::Str("release".to_string())),
        ("binary", Json::Str(binary.display().to_string())),
    ])
}

/// Regenerates the committed sweep reference table from the current binary.
fn write_reference(ctx: &Ctx) -> Result<(), String> {
    let mut entries = Vec::new();
    for seed in checks::reference_seeds() {
        let spec = inputs::sweep_spec(seed, 0);
        let run = proc::run(
            &ctx.fedopt,
            &["run", "--spec", "-", "--json", "--threads", "1"],
            spec.to_json_string().as_bytes(),
            &ctx.stderr_path("reference"),
        )
        .map_err(|e| format!("cannot run fedopt: {e}"))?;
        let doc = Json::parse(&String::from_utf8_lossy(&run.stdout))
            .map_err(|e| format!("seed {seed}: {e}"))?;
        let objectives = checks::sweep_objectives(&spec, &doc)
            .into_iter()
            .map(|row| {
                Json::Arr(row.into_iter().map(|v| v.map_or(Json::Null, Json::Num)).collect())
            })
            .collect();
        entries
            .push(Json::obj([("seed", Json::uint(seed)), ("objectives", Json::Arr(objectives))]));
    }
    let table = Json::obj([
        (
            "description",
            Json::Str(
                "sweep-paper chunk-0 objectives [point][arm]: w1*E + w2*T for the weighted \
                 arms, E for the random benchmark and the deadline arm, null for Scheme 1"
                    .to_string(),
            ),
        ),
        ("tolerance_rel", Json::Num(checks::REFERENCE_REL_TOL)),
        ("seeds", Json::Arr(entries)),
    ]);
    if let Some(dir) = Path::new(checks::REFERENCE_PATH).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(checks::REFERENCE_PATH, table.to_pretty_string())
        .map_err(|e| format!("cannot write {}: {e}", checks::REFERENCE_PATH))
}

fn run_workload(ctx: &Ctx, trace: bool) -> Outcome {
    match (ctx.workload.as_str(), trace) {
        ("sweep-paper", false) => batch::run(ctx, &batch::SWEEP),
        ("sweep-paper", true) => traced::sweep(ctx, &batch::SWEEP),
        ("fleet-1e5", false) => batch::run(ctx, &batch::FLEET),
        ("fleet-1e5", true) => traced::sweep(ctx, &batch::FLEET),
        ("sim-rounds", false) => batch::run(ctx, &batch::SIM),
        ("sim-rounds", true) => traced::sim(ctx),
        ("serve-mixed", false) => serve::run(ctx),
        ("serve-mixed", true) => serve::trace(ctx),
        (other, _) => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !(root.join("Cargo.toml").is_file() && root.join("crates").is_dir()) {
        return Err("run from the root of a fedopt checkout".to_string());
    }
    let fedopt = proc::build_fedopt(&root)?;
    let out_dir = root.join("perfbench").join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        root,
        fedopt,
        out_dir,
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    if args.write_reference {
        return write_reference(&ctx);
    }

    let mut outcome = run_workload(&ctx, args.trace);
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome.checks.fail(0, format!("metric {} is not finite", m.name));
        }
    }
    let checks = &outcome.checks;
    let correct = checks.failed == 0 && checks.messages.is_empty();

    println!(
        "perfbench {} seed {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace)
    );
    for m in outcome.metrics.iter().chain(&outcome.named) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &outcome.counters {
        println!("  counter {name} = {}", value.to_compact_string());
    }
    if !outcome.not_exercised.is_empty() {
        println!(
            "  not exercised by this workload (reported as 0): {}",
            outcome.not_exercised.join(", ")
        );
    }
    println!("  attempted {} failed {} correct {correct}", checks.attempted, checks.failed);
    for msg in &checks.messages {
        println!("  FAILED: {msg}");
    }

    let metric_json = |m: &perfbench::stats::Metric| {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        (
            m.name.clone(),
            Json::Obj(vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]),
        )
    };
    let mut result = vec![
        ("workload".to_string(), Json::Str(ctx.workload.clone())),
        ("seed".to_string(), Json::uint(ctx.seed)),
        ("seconds".to_string(), Json::Num(ctx.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("meta".to_string(), metadata(&ctx)),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::uint(checks.attempted)),
        ("failed".to_string(), Json::uint(checks.failed)),
        (
            "failures".to_string(),
            Json::Arr(checks.messages.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics".to_string(), Json::Obj(outcome.metrics.iter().map(metric_json).collect())),
        ("named".to_string(), Json::Obj(outcome.named.iter().map(metric_json).collect())),
        ("counters".to_string(), Json::Obj(outcome.counters.clone())),
        (
            "not_exercised".to_string(),
            Json::Arr(outcome.not_exercised.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    result.extend(outcome.extra);
    let file = ctx.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&file, Json::Obj(result).to_pretty_string())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!(
        "  result file {}",
        Path::new("perfbench/out").join(file.file_name().unwrap_or_default()).display()
    );

    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::uint(checks.attempted.max(1))),
        ("failed".to_string(), Json::uint(checks.failed)),
        ("metrics".to_string(), Json::Obj(outcome.metrics.iter().map(metric_json).collect())),
    ]);
    println!("{}", line.to_compact_string());
    Ok(())
}
