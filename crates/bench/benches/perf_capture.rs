//! Machine-readable perf capture for the solver/engine performance work: measures
//! cells/sec on the solver-bound fig2 quick grid (legacy pure-bisection, cold, and warm
//! paths), steady-state allocations per cell, the sp2 hot-path latency, the solver
//! iteration counters on each path, fleet-scale single-scenario solves at 10³/10⁴/10⁵
//! devices, sharded-fleet sweep rows (1/2/4 worker subprocesses on the fig2 100-draw
//! grid, plus a cold-vs-cached re-run over the content-addressed shard cache), the
//! warm Newton-vs-fixed-bracket `g'(μ)` pass counts, and the streaming reduction's
//! accumulator footprint, then writes the per-run `BENCH_PR7.capture.json` at the
//! workspace root (gitignored; CI uploads it as an artifact so the perf trajectory is
//! recorded per commit). The curated, committed before/after snapshots live separately
//! in `BENCH_PR3.json` / `BENCH_PR4.json` / `BENCH_PR6.json` / `BENCH_PR7.json` — this
//! bench never touches them.
//!
//! Run with `cargo bench -p fedopt-bench --bench perf_capture` (build the release
//! `fedopt` binary first so the fleet rows can spawn real worker subprocesses; without
//! it they fall back to in-process workers and say so in the capture).
//!
//! The fleet rows honor `FEDOPT_BIN` as an explicit path to the coordinator binary.

use experiments::engine::DEFAULT_SEED_CHUNK;
use experiments::presets::{self, Variant};
use experiments::shard::{
    run_fleet, FleetOptions, InProcessRunner, ShardCache, ShardRunner, SubprocessRunner,
};
use experiments::SweepEngine;
use fedopt_bench::thread_allocation_count;
use fedopt_core::{sp2, JointOptimizer, SolveCounters, SolverConfig, SolverWorkspace};
use flsys::{ScenarioBuilder, Weights};
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: fedopt_bench::CountingAllocator = fedopt_bench::CountingAllocator;

fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let spec = presets::spec(2, Variant::Quick).expect("figure 2 exists");
    let grid = spec.grid().expect("the preset compiles");
    let devices = spec.scenario.devices.expect("the fig2 preset pins its device count");
    let solver_cfg = spec.solver.resolve();
    let cells = grid.num_cells();
    let (points, arms) = (grid.points.len(), grid.arms.len());

    // --- Solver-bound grid throughput on three paths (sequential engine: measures the
    // solve path, not thread scaling): the legacy pure-bisection μ-root (the PR 4 state,
    // still selectable via with_superlinear_mu(false)), the cold superlinear path, and the
    // warm default.
    let legacy_engine =
        SweepEngine::single_thread().with_warm_start(false).with_superlinear_mu(false);
    let cold_engine = SweepEngine::single_thread().with_warm_start(false);
    let warm_engine = SweepEngine::single_thread().with_warm_start(true);
    spec.run_with_engine(&cold_engine).unwrap(); // warm-up (page cache, lazy allocs)
    let legacy_secs = best_of(3, || spec.run_with_engine(&legacy_engine).unwrap());
    let cold_secs = best_of(3, || spec.run_with_engine(&cold_engine).unwrap());
    let warm_secs = best_of(3, || spec.run_with_engine(&warm_engine).unwrap());
    let cold_cells_per_sec = cells as f64 / cold_secs;
    let warm_cells_per_sec = cells as f64 / warm_secs;

    // --- Solver iteration counters on the same grid for each path (the non-wall-clock
    // evidence that the continuation and the superlinear μ-step save work).
    let legacy_counters = legacy_engine.run(&grid).unwrap().counters.solver;
    let cold_counters = cold_engine.run(&grid).unwrap().counters.solver;
    let warm_counters = warm_engine.run(&grid).unwrap().counters.solver;

    // --- Steady-state allocations per cell (same contract as tests/alloc_free.rs),
    // measured on the warm path — the stricter case, since it carries state.
    let scenario = ScenarioBuilder::paper_default().with_devices(devices).build(11).unwrap();
    let optimizer = JointOptimizer::new(solver_cfg.with_warm_start(true));
    let mut ws = SolverWorkspace::new();
    optimizer.solve_summary_with(&scenario, Weights::balanced(), &mut ws).unwrap(); // warm-up
    let before = thread_allocation_count();
    let reps = 20u64;
    for _ in 0..reps {
        ws.reset_warm_start();
        optimizer.solve_summary_with(&scenario, Weights::balanced(), &mut ws).unwrap();
    }
    let allocs_per_cell = (thread_allocation_count() - before) as f64 / reps as f64;

    // --- sp2 hot-path latency (the Theorem-2 + Algorithm-1 stack, allocation-free form).
    let r_min: Vec<f64> = scenario.devices.iter().map(|d| d.upload_bits / 0.05).collect();
    let start_alloc = flsys::Allocation::equal_split_max(&scenario);
    let mut scratch = sp2::Sp2Scratch::new();
    let sp2_secs = {
        let mut once = || {
            scratch.stage_start(&start_alloc.powers_w, &start_alloc.bandwidths_hz);
            sp2::solve_in(&scenario, Weights::balanced(), &r_min, &solver_cfg, &mut scratch)
                .unwrap()
                .comm_energy_per_round_j
        };
        once(); // warm-up
        best_of(10, &mut once)
    };

    // --- Streaming reduction footprint: accumulators are O(points × arms) by construction.
    let peak_accumulators = points * arms;

    // --- Fleet-scale single-scenario solves (PR 6): one cold solve per device count on
    // the struct-of-arrays hot path (fast config, reference polish off — the large_n
    // preset's setup), wall clock plus the counters that prove the scalar searches stay
    // flat in n.
    let mut fleet_cfg = SolverConfig::fast();
    fleet_cfg.polish_with_reference = false;
    let fleet = JointOptimizer::new(fleet_cfg);
    let fleet_rows: Vec<(usize, f64, SolveCounters)> = [1_000usize, 10_000, 100_000]
        .iter()
        .map(|&n| {
            let scenario = ScenarioBuilder::paper_default().with_devices(n).build(11).unwrap();
            let mut ws = SolverWorkspace::with_capacity(n);
            fleet.solve_summary_with(&scenario, Weights::balanced(), &mut ws).unwrap(); // warm-up
            let runs = if n >= 100_000 { 2 } else { 3 };
            let secs = best_of(runs, || {
                ws.reset_warm_start();
                fleet.solve_summary_with(&scenario, Weights::balanced(), &mut ws).unwrap()
            });
            ws.counters.reset();
            ws.reset_warm_start();
            fleet.solve_summary_with(&scenario, Weights::balanced(), &mut ws).unwrap();
            (n, secs, ws.counters)
        })
        .collect();
    let fleet_json: String = fleet_rows
        .iter()
        .map(|(n, secs, k)| {
            format!(
                "    {{ \"devices\": {n}, \"solve_ms\": {:.1}, \"mu_evals\": {}, \
                 \"sp1_probe_evals\": {}, \"kkt_solves\": {}, \"lp_sorts\": {} }}",
                secs * 1e3,
                k.mu_bisect_evals,
                k.sp1_probe_evals,
                k.kkt_solves,
                k.lp_sorts
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // --- Warm μ search: the default (Newton from the carried price) against the legacy
    // fixed-width warm bracket refined by Brent, counters only (same grid as above). The
    // JSON keys keep their earlier names so captures stay comparable across commits.
    let fixed_mu = SweepEngine::single_thread()
        .with_warm_start(true)
        .with_adaptive_mu_bracket(false)
        .run(&grid)
        .unwrap()
        .counters
        .solver
        .mu_bisect_evals;
    let adaptive_mu = warm_counters.mu_bisect_evals;

    // --- Sharded fleet sweeps (PR 7): the fig2 quick protocol at the paper's 100
    // draws/point, direct vs 1/2/4 worker subprocesses (workers pinned to 1 engine
    // thread each so the rows measure fleet fan-out, not intra-worker threading), plus
    // a cold-vs-cached re-run over the content-addressed shard cache.
    let mut fleet_spec = presets::spec(2, Variant::Quick).unwrap();
    fleet_spec.override_seed_count(100);
    fleet_spec.engine.threads = Some(1);
    let runner = locate_fedopt();
    let runner_kind = match &runner {
        FleetRunner::Subprocess(_) => "subprocess",
        FleetRunner::InProcess => "in_process",
    };
    let runner: Box<dyn ShardRunner> = match runner {
        FleetRunner::Subprocess(bin) => Box::new(SubprocessRunner::new(bin)),
        FleetRunner::InProcess => Box::new(InProcessRunner),
    };
    let direct_secs = best_of(2, || fleet_spec.run().unwrap());
    let shard_rows: Vec<(usize, f64)> = [1usize, 2, 4]
        .iter()
        .map(|&n| {
            let opts = FleetOptions { shards: n, ..FleetOptions::default() };
            let secs = best_of(2, || run_fleet(&fleet_spec, &opts, runner.as_ref()).unwrap());
            (n, secs)
        })
        .collect();
    let shard_json: String = shard_rows
        .iter()
        .map(|(n, secs)| {
            format!(
                "    {{ \"shards\": {n}, \"sweep_ms\": {:.1}, \"speedup_vs_direct\": {:.3} }}",
                secs * 1e3,
                direct_secs / secs
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let cache_dir: PathBuf =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/shard-cache-bench"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let fleet_opts = || FleetOptions {
        shards: 4,
        cache: Some(ShardCache::open(&cache_dir)),
        ..FleetOptions::default()
    };
    let cold_start = Instant::now();
    let (_, cold_stats) = run_fleet(&fleet_spec, &fleet_opts(), runner.as_ref()).unwrap();
    let cache_cold_secs = cold_start.elapsed().as_secs_f64();
    let warm_start_t = Instant::now();
    let (_, warm_stats) = run_fleet(&fleet_spec, &fleet_opts(), runner.as_ref()).unwrap();
    let cache_warm_secs = warm_start_t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&cache_dir);

    let json = format!(
        "{{\n  \"bench\": \"perf_capture\",\n  \"grid\": \"fig2_quick\",\n  \
         \"cells\": {cells},\n  \"legacy_bisect_cells_per_sec\": {:.1},\n  \
         \"cold_cells_per_sec\": {cold_cells_per_sec:.1},\n  \
         \"warm_cells_per_sec\": {warm_cells_per_sec:.1},\n  \
         \"superlinear_mu_speedup\": {:.3},\n  \"warm_speedup\": {:.3},\n  \
         \"legacy_mu_bisect_evals\": {},\n  \
         \"cold_jong_iterations\": {},\n  \"warm_jong_iterations\": {},\n  \
         \"cold_mu_bisect_evals\": {},\n  \"warm_mu_bisect_evals\": {},\n  \
         \"cold_sp1_probe_evals\": {},\n  \"warm_sp1_probe_evals\": {},\n  \
         \"cold_lp_sorts\": {},\n  \"cold_kkt_solves\": {},\n  \
         \"warm_fast_path_hits\": {},\n  \
         \"allocs_per_cell_steady_state\": {allocs_per_cell},\n  \
         \"sp2_solve_in_us\": {:.1},\n  \"peak_accumulators\": {peak_accumulators},\n  \
         \"large_n\": [\n{fleet_json}\n  ],\n  \
         \"adaptive_mu_bracket_warm_mu_evals\": {adaptive_mu},\n  \
         \"fixed_mu_bracket_warm_mu_evals\": {fixed_mu},\n  \
         \"fleet\": {{\n    \"grid\": \"fig2_quick_seeds100\",\n    \
         \"runner\": \"{runner_kind}\",\n    \
         \"direct_sweep_ms\": {:.1},\n    \"shards\": [\n{shard_json}\n    ],\n    \
         \"cache_cold_ms\": {:.1},\n    \"cache_warm_ms\": {:.1},\n    \
         \"cache_speedup\": {:.1},\n    \
         \"cold_hits_misses\": [{}, {}],\n    \"warm_hits_misses\": [{}, {}]\n  }},\n  \
         \"seed_chunk\": {},\n  \"threads\": 1\n}}\n",
        cells as f64 / legacy_secs,
        legacy_secs / cold_secs,
        cold_secs / warm_secs,
        legacy_counters.mu_bisect_evals,
        cold_counters.jong_iterations,
        warm_counters.jong_iterations,
        cold_counters.mu_bisect_evals,
        warm_counters.mu_bisect_evals,
        cold_counters.sp1_probe_evals,
        warm_counters.sp1_probe_evals,
        cold_counters.lp_sorts,
        cold_counters.kkt_solves,
        warm_counters.sp2_fast_path_hits,
        sp2_secs * 1e6,
        direct_secs * 1e3,
        cache_cold_secs * 1e3,
        cache_warm_secs * 1e3,
        cache_cold_secs / cache_warm_secs,
        cold_stats.shard_cache_hits,
        cold_stats.shard_cache_misses,
        warm_stats.shard_cache_hits,
        warm_stats.shard_cache_misses,
        DEFAULT_SEED_CHUNK,
    );
    print!("{json}");

    // Workspace root (bench crate lives at crates/bench).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR7.capture.json");
    std::fs::write(out, &json).expect("write BENCH_PR7.capture.json");
    eprintln!("wrote {out}");

    assert_eq!(allocs_per_cell, 0.0, "steady-state cells must not allocate");
    assert!(
        warm_counters.jong_iterations < cold_counters.jong_iterations,
        "warm start must save Jong iterations"
    );
    assert!(
        cold_counters.mu_bisect_evals < legacy_counters.mu_bisect_evals,
        "the superlinear μ-step must save g'(μ) evaluations over pure bisection"
    );
    // The step-4b sort happens once per parametric KKT solve, never per μ-evaluation.
    assert!(cold_counters.lp_sorts <= cold_counters.kkt_solves, "lp re-sorted per μ-eval");
    assert!(
        adaptive_mu < fixed_mu,
        "the warm Newton μ search must spend fewer g'(μ) passes than the fixed warm bracket"
    );
    assert_eq!(warm_stats.shard_cache_misses, 0, "a warm re-run must be pure cache reads");
}

enum FleetRunner {
    Subprocess(PathBuf),
    InProcess,
}

/// The release `fedopt` binary next to this bench's own executable (`FEDOPT_BIN`
/// overrides). Bench executables live in `target/<profile>/deps/`, the binary one level
/// up in `target/<profile>/`.
fn locate_fedopt() -> FleetRunner {
    if let Ok(path) = std::env::var("FEDOPT_BIN") {
        return FleetRunner::Subprocess(PathBuf::from(path));
    }
    let candidate = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("fedopt")))
        .filter(|p| p.is_file());
    match candidate {
        Some(bin) => FleetRunner::Subprocess(bin),
        None => {
            eprintln!(
                "note: no fedopt binary found next to the bench executable \
                 (build with `cargo build --release -p fedopt --bin fedopt` or set \
                 FEDOPT_BIN); fleet rows fall back to in-process workers"
            );
            FleetRunner::InProcess
        }
    }
}
