//! The zero-allocation proof of the solver hot path.
//!
//! With the instrumented global allocator installed, a warmed-up [`SolverWorkspace`] must
//! evaluate every cell of the quick figure-2 preset — every proposed-arm weight pair
//! and the random benchmark, across all points and seeds — with **zero heap allocations**
//! on the measuring thread. Allocation counts are per-thread, so concurrently running
//! sibling tests cannot pollute the measurement.

use experiments::presets::{self, Variant};
use experiments::spec::ArmKind;
use fedopt_bench::thread_allocation_count;
use fedopt_core::{sp2, JointOptimizer, SolverConfig, SolverWorkspace};
use flsys::{Scenario, Weights};

#[global_allocator]
static ALLOCATOR: fedopt_bench::CountingAllocator = fedopt_bench::CountingAllocator;

/// The fig2 quick grid as plain data: every scenario (points × seeds), prebuilt — scenario
/// construction is not part of the per-cell contract (the engine builds once per
/// cell-group and shares) — plus the proposed arms' weight pairs and the solver config.
struct QuickGrid {
    scenarios: Vec<Scenario>,
    weights: Vec<Weights>,
    solver: SolverConfig,
}

fn fig2_quick_grid() -> QuickGrid {
    let spec = presets::spec(2, Variant::Quick).expect("figure 2 exists");
    let grid = spec.grid().expect("the preset compiles");
    let scenarios = grid
        .points
        .iter()
        .flat_map(|point| grid.seeds.iter().map(|&seed| point.builder.build(seed).unwrap()))
        .collect();
    let weights = spec
        .arms
        .iter()
        .filter_map(|arm| match arm.kind {
            ArmKind::Proposed { weights } => Some(weights),
            _ => None,
        })
        .collect();
    QuickGrid { scenarios, weights, solver: spec.solver.resolve() }
}

#[test]
fn fig2_quick_cells_are_allocation_free_after_warmup() {
    let QuickGrid { scenarios, weights, solver } = fig2_quick_grid();
    // Pin the cold path: this test never resets warm state between scenarios, so the
    // (now-default) continuation would make the two passes' trajectories — and checksums —
    // differ. The warm variant below owns the warm-path contract.
    let optimizer = JointOptimizer::new(solver.with_warm_start(false));
    let mut ws = SolverWorkspace::new();

    let run_all_cells = |ws: &mut SolverWorkspace| {
        let mut checksum = 0.0;
        for scenario in &scenarios {
            // Proposed arms: one cell per weight pair.
            for &w in &weights {
                let out = optimizer.solve_summary_with(scenario, w, ws).unwrap();
                checksum += out.total_energy_j;
            }
            // The random-benchmark arm.
            let bench = baselines::BenchmarkAllocator::new();
            let summary = bench
                .random_frequency_summary_with(scenario, baselines::derive_stream_seed(7), ws)
                .unwrap();
            checksum += summary.total_energy_j;
        }
        checksum
    };

    // Warm-up pass: buffers grow to the grid's device count and iteration depth once.
    let warm = run_all_cells(&mut ws);

    // Steady state: a full second pass over every cell of the grid must not allocate.
    let before = thread_allocation_count();
    let measured = run_all_cells(&mut ws);
    let allocations = thread_allocation_count() - before;
    assert_eq!(
        allocations,
        0,
        "expected 0 heap allocations across {} warmed-up cells, counted {allocations}",
        scenarios.len() * (weights.len() + 1),
    );
    // The measured pass did real work (identical to the warm-up pass — pure scratch).
    assert_eq!(measured, warm);
    assert!(measured.is_finite() && measured > 0.0);
}

/// The warm-start continuation must stay inside the pooled buffers too: a warmed-up
/// workspace evaluating the same cells with `warm_start` enabled (carried multipliers,
/// μ/ω brackets, rate-floor snapshots, fast-path probes) performs zero heap allocations.
#[test]
fn warm_started_cells_are_allocation_free_after_warmup() {
    let QuickGrid { scenarios, weights, solver } = fig2_quick_grid();
    let optimizer = JointOptimizer::new(solver.with_warm_start(true));
    let mut ws = SolverWorkspace::new();

    let run_all_cells = |ws: &mut SolverWorkspace| {
        let mut checksum = 0.0;
        for scenario in &scenarios {
            // The engine resets warm state at every cell-group boundary; mirror that here
            // so the measured pass exercises both the reset and the in-group carry.
            ws.reset_warm_start();
            for &w in &weights {
                let out = optimizer.solve_summary_with(scenario, w, ws).unwrap();
                checksum += out.total_energy_j;
            }
        }
        checksum
    };

    let warm = run_all_cells(&mut ws);
    let before = thread_allocation_count();
    let measured = run_all_cells(&mut ws);
    assert_eq!(
        thread_allocation_count() - before,
        0,
        "warm-started cells must not touch the heap after warm-up"
    );
    assert_eq!(measured, warm, "warm state is reset per scenario, so passes must agree");
}

#[test]
fn sp2_solve_in_is_allocation_free_after_warmup() {
    let scenario = flsys::ScenarioBuilder::paper_default().with_devices(10).build(11).unwrap();
    let cfg = SolverConfig::default();
    let r_min: Vec<f64> = scenario.devices.iter().map(|d| d.upload_bits / 0.05).collect();
    let start = flsys::Allocation::equal_split_max(&scenario);
    let mut scratch = sp2::Sp2Scratch::new();

    let solve_once = |scratch: &mut sp2::Sp2Scratch| {
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        sp2::solve_in(&scenario, Weights::balanced(), &r_min, &cfg, scratch)
            .unwrap()
            .comm_energy_per_round_j
    };

    let warm = solve_once(&mut scratch);
    let before = thread_allocation_count();
    let energy = solve_once(&mut scratch);
    assert_eq!(
        thread_allocation_count() - before,
        0,
        "a warmed-up sp2::solve_in must not touch the heap"
    );
    assert_eq!(energy, warm);
}
