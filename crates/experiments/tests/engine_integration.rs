//! Integration tests of the parallel sweep engine on the figure presets: determinism
//! across thread counts, bit-exact agreement with an independent reimplementation of the
//! pre-engine sequential averaging helpers, and the parallel speedup the engine exists
//! for.

use baselines::BenchmarkAllocator;
use experiments::engine::{Arm, CellContext, CellOutput, SweepGrid};
use experiments::presets::{self, Variant};
use experiments::spec::{ArmKind, ExperimentSpec, SpecRun};
use experiments::{FigureReport, SweepEngine};
use fedopt_core::{CoreError, JointOptimizer};
use flsys::{Scenario, ScenarioBuilder, Weights};
use std::time::Instant;

fn fig2_quick() -> ExperimentSpec {
    presets::spec(2, Variant::Quick).expect("figure 2 exists")
}

/// The quick figure-7 preset shrunk to `devices` devices over deadlines that include an
/// infeasible one (30 s), so the per-cell sample counts vary.
fn fig7_with_misses(devices: usize) -> ExperimentSpec {
    let mut spec = presets::spec(7, Variant::Quick).expect("figure 7 exists");
    spec.scenario.devices = Some(devices);
    spec.axis.values = vec![30.0, 110.0, 150.0];
    spec
}

fn run(spec: &ExperimentSpec, engine: &SweepEngine) -> SpecRun {
    spec.run_with_engine(engine).expect("preset must evaluate")
}

/// The parallel engine must produce bit-identical reports to a forced single-thread run:
/// per-cell seeding depends only on cell coordinates and reduction order is fixed, so
/// thread count and scheduling must not leak into the output.
#[test]
fn parallel_reports_are_bit_identical_to_single_threaded() {
    let spec = fig2_quick();
    let seq = run(&spec, &SweepEngine::single_thread());
    for threads in [2, 4, 7] {
        let par = run(&spec, &SweepEngine::with_threads(threads));
        assert_eq!(seq, par, "sweep diverged at {threads} threads");
    }

    // Also across a figure with infeasible cells (deadline misses), where the per-cell
    // sample counts must agree too.
    let spec7 = fig7_with_misses(8);
    let seq = run(&spec7, &SweepEngine::single_thread());
    let par = run(&spec7, &SweepEngine::with_threads(4));
    assert_eq!(seq, par);
}

/// Warm-started sweeps must be exactly as deterministic as cold ones: the warm state is
/// reset at every cell-group boundary and carried only inside a group (fixed arm order),
/// so thread count and scheduling cannot leak into the output — including the solver
/// iteration totals.
#[test]
fn warm_started_sweeps_are_bit_identical_across_thread_counts() {
    let spec = fig2_quick();
    let seq = run(&spec, &SweepEngine::single_thread().with_warm_start(true));
    for threads in [2, 4] {
        let par = run(&spec, &SweepEngine::with_threads(threads).with_warm_start(true));
        assert_eq!(seq, par, "warm sweep or its counters diverged at {threads} threads");
    }

    // And with infeasible cells in the mix (deadline misses, dual-seed deadline solver).
    let spec7 = fig7_with_misses(6);
    let seq = run(&spec7, &SweepEngine::single_thread().with_warm_start(true));
    let par = run(&spec7, &SweepEngine::with_threads(4).with_warm_start(true));
    assert_eq!(seq, par);
}

/// The warm-start acceptance evidence in counter form, not wall clock: on the fig2 quick
/// grid a warm sweep must spend at most half the cold sweep's Jong iterations (its
/// Subproblem-2 solves are inexact) and strictly fewer μ-bisection evaluations, hit the
/// fast path at least once, and never take more outer iterations — while agreeing with
/// the cold means to solver tolerance.
#[test]
fn warm_sweep_spends_strictly_fewer_iterations_than_cold_on_fig2_quick() {
    let spec = fig2_quick();
    let cold = SweepEngine::with_threads(2).with_warm_start(false).run_spec(&spec).unwrap();
    let warm = SweepEngine::with_threads(2).with_warm_start(true).run_spec(&spec).unwrap();
    let outer_tol = spec.solver.resolve().outer_tol;

    let (c, w) = (cold.counters.solver, warm.counters.solver);
    assert!(c.jong_iterations > 0, "cold sweep must do real work");
    assert!(
        2 * w.jong_iterations <= c.jong_iterations,
        "warm Jong iterations {} above half of cold's {}",
        w.jong_iterations,
        c.jong_iterations
    );
    assert!(
        w.mu_bisect_evals < c.mu_bisect_evals,
        "warm μ evals {} not strictly below cold {}",
        w.mu_bisect_evals,
        c.mu_bisect_evals
    );
    assert!(w.outer_iterations <= c.outer_iterations);
    assert!(w.sp2_fast_path_hits > 0, "the fast path never fired on the quick grid");
    assert_eq!(c.sp2_fast_path_hits, 0, "cold sweeps must never take the warm fast path");

    // Same physics: every (point, arm) mean agrees with the cold reference to well within
    // the solver's own outer tolerance.
    for (cold_row, warm_row) in cold.aggregates.iter().zip(&warm.aggregates) {
        for (a, b) in cold_row.iter().zip(warm_row) {
            let rel = (a.mean_energy_j - b.mean_energy_j).abs() / a.mean_energy_j;
            assert!(rel <= outer_tol, "warm mean drifted by {rel}");
        }
    }
}

/// The Newton `μ` search in counter form: on the warm fig2 quick grid each parametric KKT
/// solve spends at most 4 `g'(μ)` lane passes on average (about 2.6 measured; the
/// bracketed Brent search it replaced spent 6.4: 2 bracket-validation probes plus the
/// refinement).
#[test]
fn warm_newton_mu_search_spends_at_most_four_passes_per_kkt_solve_on_fig2_quick() {
    let warm = SweepEngine::with_threads(2).with_warm_start(true).run_spec(&fig2_quick()).unwrap();
    let c = warm.counters.solver;
    assert!(c.kkt_solves > 0, "the warm sweep must do real work");
    assert!(
        c.mu_bisect_evals <= 4 * c.kkt_solves,
        "{} g'(μ) passes over {} KKT solves: more than 4 per solve",
        c.mu_bisect_evals,
        c.kkt_solves
    );
}

/// The default warm `μ` search (Newton from the carried root) must spend strictly fewer
/// `g'(μ)` passes on the warm fig2 quick grid than the legacy fixed-width warm bracket
/// refined by Brent (`with_adaptive_mu_bracket(false)`) — while agreeing with it to well
/// within the solver's own outer tolerance. Cold sweeps carry no seed, so both settings
/// run the same Newton search there and the gate must be invisible.
#[test]
fn adaptive_mu_bracket_spends_strictly_fewer_mu_evals_on_warm_fig2_quick() {
    assert!(SweepEngine::new().adaptive_mu_bracket(), "adaptive width is the default");
    let spec = fig2_quick();
    let warm = SweepEngine::with_threads(2).with_warm_start(true);
    let fixed = warm.with_adaptive_mu_bracket(false).run_spec(&spec).unwrap();
    let adaptive = warm.run_spec(&spec).unwrap();
    let outer_tol = spec.solver.resolve().outer_tol;

    let (f, a) = (fixed.counters.solver, adaptive.counters.solver);
    assert!(f.mu_bisect_evals > 0, "the fixed-width warm sweep must do real work");
    assert!(
        a.mu_bisect_evals < f.mu_bisect_evals,
        "adaptive warm μ evals {} not strictly below fixed-width {}",
        a.mu_bisect_evals,
        f.mu_bisect_evals
    );

    // Same physics: the adaptive bracket only changes where the root search *starts*, so
    // every (point, arm) mean agrees with the fixed-width warm reference to well within
    // the solver's outer tolerance.
    for (fixed_row, adaptive_row) in fixed.aggregates.iter().zip(&adaptive.aggregates) {
        for (x, y) in fixed_row.iter().zip(adaptive_row) {
            let rel = (x.mean_energy_j - y.mean_energy_j).abs() / x.mean_energy_j;
            assert!(rel <= outer_tol, "adaptive mean drifted by {rel}");
        }
    }

    // Cold sweeps never read warm state, so the gate must be bit-invisible there.
    let cold = SweepEngine::with_threads(2).with_warm_start(false);
    let cold_fixed = cold.with_adaptive_mu_bracket(false).run_spec(&spec).unwrap();
    let cold_adaptive = cold.run_spec(&spec).unwrap();
    assert_eq!(cold_fixed, cold_adaptive, "cold path must not depend on the bracket gate");
}

/// The whole point of the cell-group refactor: a sweep builds `points × seeds` scenarios
/// (per distinct prepared builder), not `points × arms × seeds`, while still evaluating
/// every cell.
#[test]
fn scenario_builds_scale_with_points_times_seeds_not_arms() {
    let grid = fig2_quick().grid().unwrap();
    let (points, arms, seeds) = (grid.points.len(), grid.arms.len(), grid.seeds.len());
    assert!(arms > 1, "needs multiple arms for the assertion to mean anything");

    let result = SweepEngine::with_threads(2).run(&grid).unwrap();
    assert_eq!(
        result.counters.scenarios_built,
        points * seeds,
        "all {arms} fig2 arms share the point's builder, so builds must not scale with arms"
    );
    assert_eq!(result.counters.cells_evaluated, points * arms * seeds);

    // The counters are part of the deterministic output: a sequential run agrees.
    let sequential = SweepEngine::single_thread().run(&grid).unwrap();
    assert_eq!(sequential.counters, result.counters);
}

/// A solver-free arm whose output is a cheap deterministic function of the cell
/// coordinates, with a sprinkling of infeasible cells — lets the 10⁴-draw reduction tests
/// run in seconds while still exercising sums, spreads and feasible-sample counts.
struct SyntheticArm {
    tag: f64,
}

impl Arm for SyntheticArm {
    fn name(&self) -> String {
        format!("synthetic {}", self.tag)
    }

    fn evaluate(
        &self,
        _scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        if ctx.seed % 97 == 13 {
            return Ok(None); // labelled infeasible draw
        }
        let v = (ctx.seed as f64).sin() * self.tag + ctx.x;
        Ok(Some(CellOutput::new(v * v + 1.0, v.abs() + 0.5)))
    }
}

/// The headline property of the streaming reduction: on a 10⁴-draw grid it must reproduce
/// the materialized `run_cells(..).into_sweep_result()` bit for bit — means, standard
/// deviations, feasible counts and attempt counts — while holding only O(points × arms)
/// accumulators plus a bounded window of in-flight chunks (`run_cells` holds all 60 000
/// cell outputs).
#[test]
fn ten_thousand_draw_grid_streams_bit_identically_to_materializing() {
    let grid = || {
        let builder = ScenarioBuilder::paper_default().with_devices(2);
        SweepGrid::new((0..10_000).collect::<Vec<u64>>())
            .point(5.0, builder.clone())
            .point(9.0, builder.clone())
            .point(12.0, builder)
            .arm(SyntheticArm { tag: 1.0 })
            .arm(SyntheticArm { tag: 2.5 })
    };

    let materialized = SweepEngine::with_threads(2).run_cells(&grid()).unwrap().into_sweep_result();
    // 13 of every 97 seeds... exactly the draws with seed % 97 == 13 are infeasible.
    let expected_infeasible = (0..10_000u64).filter(|s| s % 97 == 13).count();
    for row in &materialized.aggregates {
        for agg in row {
            assert_eq!(agg.attempts, 10_000);
            assert_eq!(agg.count, 10_000 - expected_infeasible);
        }
    }

    for threads in [1usize, 4] {
        let streamed = SweepEngine::with_threads(threads).run(&grid()).unwrap();
        assert_eq!(streamed, materialized, "streaming diverged at {threads} thread(s)");
    }
}

/// Every figure's quick preset must produce bit-identical runs (aggregates, counters and
/// reports) through the streaming `run` and the materialized
/// `run_cells(..).into_sweep_result()` — the acceptance bar of the streaming refactor. At
/// 2 workers the engine already schedules one-seed chunks for every quick preset (at most
/// 4 points × 2 seeds is fewer than the 8 work items it aims for), so even these grids
/// exercise multi-chunk folding.
#[test]
fn all_figure_quick_presets_stream_bit_identically() {
    let engine = SweepEngine::with_threads(2);
    for &fig in &presets::FIGURES {
        let spec = presets::spec(fig, Variant::Quick).expect("figure preset exists");
        let cells = engine.run_cells(&spec.grid().unwrap()).unwrap().into_sweep_result();
        let materialized = SpecRun { reports: spec.render_reports(&cells), result: cells };
        assert_eq!(run(&spec, &engine), materialized, "fig{fig} quick preset diverged");
    }
}

/// Reimplementation of the pre-refactor sequential helpers (`average_proposed` /
/// `average_benchmark` from the old `experiments::sweep`), kept here as the regression
/// reference for the quick figure-2 preset. It reads the preset's numbers (devices, seeds,
/// `p_max` values, weight pairs, solver) but none of the engine's machinery: every cell
/// rebuilds its own scenario.
fn fig2_reference(spec: &ExperimentSpec) -> Result<(FigureReport, FigureReport), CoreError> {
    let devices = spec.scenario.devices.expect("the fig2 preset pins its device count");
    let seeds = spec.seeds.values();
    let solver = spec.solver.resolve();
    let weights: Vec<Weights> = spec
        .arms
        .iter()
        .filter_map(|arm| match arm.kind {
            ArmKind::Proposed { weights } => Some(weights),
            _ => None,
        })
        .collect();
    let average_proposed =
        |builder: &ScenarioBuilder, weights: Weights| -> Result<(f64, f64), CoreError> {
            // The reference predates the warm-start continuation, which has since become
            // the library default — pin it off to keep reproducing the historical numbers.
            let optimizer = JointOptimizer::new(solver.with_warm_start(false));
            let (mut energy, mut time) = (0.0, 0.0);
            for &seed in &seeds {
                let scenario = builder.build(seed)?;
                let out = optimizer.solve(&scenario, weights)?;
                energy += out.total_energy_j;
                time += out.total_time_s;
            }
            let n = seeds.len().max(1) as f64;
            Ok((energy / n, time / n))
        };
    let average_benchmark = |builder: &ScenarioBuilder| -> Result<(f64, f64), CoreError> {
        let bench = BenchmarkAllocator::new();
        let (mut energy, mut time) = (0.0, 0.0);
        for &seed in &seeds {
            let scenario = builder.build(seed)?;
            // The historical inline stream-seed derivation, spelled out on purpose so this
            // reference stays independent of `baselines::derive_stream_seed`.
            let result = bench.random_frequency(&scenario, seed ^ 0x9e37_79b9)?;
            energy += result.total_energy_j();
            time += result.total_time_s();
        }
        let n = seeds.len().max(1) as f64;
        Ok((energy / n, time / n))
    };

    let mut columns: Vec<String> = weights
        .iter()
        .map(|w| format!("proposed w1={:.1},w2={:.1}", w.energy(), w.time()))
        .collect();
    columns.push("benchmark".to_string());
    let mut energy = FigureReport::new(
        "fig2a",
        "Total energy consumption vs maximum transmit power",
        "p_max (dBm)",
        "total energy (J)",
        columns.clone(),
    );
    let mut delay = FigureReport::new(
        "fig2b",
        "Total completion time vs maximum transmit power",
        "p_max (dBm)",
        "total time (s)",
        columns,
    );
    for &p_max in &spec.axis.values {
        let builder = ScenarioBuilder::paper_default().with_devices(devices).with_p_max_dbm(p_max);
        let mut e_row = Vec::new();
        let mut t_row = Vec::new();
        for &w in &weights {
            let (e, t) = average_proposed(&builder, w)?;
            e_row.push(e);
            t_row.push(t);
        }
        let (e_bench, t_bench) = average_benchmark(&builder)?;
        e_row.push(e_bench);
        t_row.push(t_bench);
        // Every draw is feasible, so every cell averages the full seed set.
        let counts = vec![seeds.len(); e_row.len()];
        energy.push_row_with_counts(p_max, e_row, counts.clone());
        delay.push_row_with_counts(p_max, t_row, counts);
    }
    Ok((energy, delay))
}

/// The quick figure-2 preset through the engine must reproduce the pre-refactor helpers'
/// output bit for bit (values, column names, row order). The reference helpers predate the
/// warm-start continuation, so the engine is pinned to the cold solver path — exactly the
/// `with_warm_start(false)` bit-identity guarantee.
#[test]
fn fig2_quick_output_is_unchanged_from_pre_refactor_helpers() {
    let spec = fig2_quick();
    let reports = run(&spec, &SweepEngine::new().with_warm_start(false)).reports;
    let (energy_new, delay_new) = (&reports[0], &reports[1]);
    let (energy_ref, delay_ref) = fig2_reference(&spec).unwrap();

    assert_eq!(energy_new.columns, energy_ref.columns);
    assert_eq!(delay_new.columns, delay_ref.columns);
    // Compare the numerical payload exactly rather than the whole struct (the titles are
    // the preset's). The rows carry the counts too, so the engine's must reflect the full
    // seed set everywhere.
    assert_eq!(energy_new.rows, energy_ref.rows, "energy rows must be bit-identical");
    assert_eq!(delay_new.rows, delay_ref.rows, "delay rows must be bit-identical");
}

/// On a machine with ≥ 4 cores, 4 engine workers must finish the quick figure-2 preset at
/// least 2× faster than the sequential engine (the grid is embarrassingly parallel).
/// Skipped (with a message) on smaller machines, where the speedup physically cannot
/// materialise; the determinism test above still covers correctness there.
///
/// Ignored in the default suite because it is timing-sensitive: libtest would run it
/// concurrently with the other tests in this binary (which spawn their own engine
/// workers), skewing the baseline. CI runs it serialized via
/// `cargo test -p experiments --test engine_integration -- --ignored --test-threads=1`.
#[test]
#[ignore = "timing-sensitive; run serialized with -- --ignored --test-threads=1"]
fn four_threads_give_at_least_2x_on_quick_fig2() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available, need >= 4");
        return;
    }
    let spec = fig2_quick();
    let time_with = |engine: &SweepEngine| {
        // Warm once (page cache, lazy allocations), then take the best of two runs.
        run(&spec, engine);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            run(&spec, engine);
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let sequential = time_with(&SweepEngine::single_thread());
    let parallel = time_with(&SweepEngine::with_threads(4));
    let speedup = sequential / parallel;
    assert!(
        speedup >= 2.0,
        "expected >= 2x speedup with 4 threads, got {speedup:.2}x ({sequential:.3}s -> {parallel:.3}s)"
    );
}
