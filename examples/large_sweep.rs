//! A 10⁴-draw Figure-2-style sweep in bounded memory — the workload the streaming
//! reduction exists for.
//!
//! ```text
//! cargo run --release --example large_sweep -- --seeds 10000
//! ```
//!
//! The sweep is the quick Figure 2 preset cut to two `p_max` points, two arms and small
//! scenarios, compiled with `spec.grid()`. The engine evaluates `points × arms × seeds`
//! cells but never materialises them: each worker streams chunks of one point's seeds into
//! `points × arms` constant-size accumulators (plus a bounded window of in-flight chunks),
//! so `--seeds 10000` costs the same memory as `--seeds 10`. Output is bit-identical to
//! the materialized `run_cells` reduction and to a single-threaded run. Drop `--seeds` (or
//! pass a smaller value) for a quicker demo; the default reproduces the full 10⁴-draw
//! grid.

use fedopt::experiments::engine::DEFAULT_SEED_CHUNK;
use fedopt::prelude::*;
use fedopt::presets::{self, Variant};
use fedopt::spec::{ArmKind, ArmSpec, BenchmarkDraw};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut seeds: u64 = 10_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = args.next().ok_or("--seeds needs a value")?.parse()?;
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }

    // A solver-bound Figure-2 slice: two p_max points, one energy-leaning weight pair,
    // small devices so 10⁴ draws finish in minutes rather than hours.
    let mut spec = presets::spec(2, Variant::Quick).expect("figure 2 exists");
    spec.scenario.devices = Some(6);
    spec.axis.values = vec![5.0, 12.0];
    spec.arms = vec![
        ArmSpec::new(ArmKind::Proposed { weights: Weights::new(0.9, 0.1)? }),
        ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }),
    ];
    spec.override_seed_count(seeds);
    let grid = spec.grid()?;

    let engine = SweepEngine::new();
    let (points, arms) = (grid.points.len(), grid.arms.len());
    println!(
        "sweeping {points} points × {arms} arms × {seeds} draws = {} cells on {} thread(s)",
        grid.num_cells(),
        engine.threads(),
    );
    println!(
        "streaming reduction: {points}×{arms} = {} accumulators + a {} seed chunk window \
         (vs {} materialised cells)",
        points * arms,
        DEFAULT_SEED_CHUNK,
        grid.num_cells(),
    );

    let started = std::time::Instant::now();
    let result = engine.run(&grid)?;
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "done in {elapsed:.1}s ({:.0} cells/sec, scenarios built: {})\n",
        grid.num_cells() as f64 / elapsed,
        result.counters.scenarios_built,
    );

    println!("{:>12}  {:>24}  {:>24}", "p_max (dBm)", "mean energy (J)", "mean time (s)");
    for (x, row) in result.xs.iter().zip(&result.aggregates) {
        for (name, agg) in result.arm_names.iter().zip(row) {
            println!(
                "{x:>12}  {:>24}  {:>24}",
                format!("{:.2} ± {:.2} [{name}]", agg.mean_energy_j, agg.std_energy_j),
                format!("{:.2} ± {:.2}", agg.mean_time_s, agg.std_time_s),
            );
        }
    }
    Ok(())
}
