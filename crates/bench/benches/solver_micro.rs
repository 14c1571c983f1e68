//! Micro-benchmarks of the solver building blocks: the numerical substrate, Subproblem 1,
//! Subproblem 2, and the full Algorithm 2 at several system sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedopt_core::sp2;
use fedopt_core::{sp1, JointOptimizer, SolverConfig, SolverWorkspace};
use flsys::{Allocation, ScenarioBuilder, Weights};
use std::time::Duration;

fn bench_numerics(c: &mut Criterion) {
    let mut group = c.benchmark_group("numopt");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("lambert_w0", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..100 {
                acc += numopt::lambert_w0(std::hint::black_box(i as f64 * 0.37)).unwrap();
            }
            acc
        })
    });
    group.bench_function("simplex_projection_50", |b| {
        let v: Vec<f64> = (0..50).map(|i| (i as f64 * 0.77).sin()).collect();
        b.iter(|| {
            let mut x = v.clone();
            numopt::project_simplex(&mut x, 1.0).unwrap();
            x[0]
        })
    });
    group.finish();
}

fn bench_subproblems(c: &mut Criterion) {
    let mut group = c.benchmark_group("subproblems");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(4));
    let cfg = SolverConfig::fast();
    for &n in &[10usize, 25] {
        let scenario = ScenarioBuilder::paper_default().with_devices(n).build(7).unwrap();
        let uploads = vec![0.01; n];
        group.bench_with_input(BenchmarkId::new("sp1_direct", n), &n, |b, _| {
            b.iter(|| {
                sp1::solve_direct(&scenario, Weights::balanced(), &uploads, &cfg).unwrap().objective
            })
        });
        let alloc = Allocation::equal_split_max(&scenario);
        let r_min: Vec<f64> = scenario.devices.iter().map(|d| d.upload_bits / 0.05).collect();
        // The all-scratch form the sweep engine drives: zero heap allocations in steady
        // state.
        group.bench_with_input(BenchmarkId::new("sp2_solve_in", n), &n, |b, _| {
            let mut scratch = sp2::Sp2Scratch::new();
            b.iter(|| {
                scratch.stage_start(&alloc.powers_w, &alloc.bandwidths_hz);
                sp2::solve_in(&scenario, Weights::balanced(), &r_min, &cfg, &mut scratch)
                    .unwrap()
                    .comm_energy_per_round_j
            })
        });
    }
    group.finish();
}

fn bench_full_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm2");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(6));
    let cfg = SolverConfig::fast();
    let optimizer = JointOptimizer::new(cfg);
    for &n in &[10usize, 25] {
        let scenario = ScenarioBuilder::paper_default().with_devices(n).build(9).unwrap();
        group.bench_with_input(BenchmarkId::new("solve_balanced", n), &n, |b, _| {
            b.iter(|| optimizer.solve(&scenario, Weights::balanced()).unwrap().objective)
        });
        // The workspace-reusing hot path the sweep engine drives (bit-identical output).
        group.bench_with_input(BenchmarkId::new("solve_balanced_with_workspace", n), &n, |b, _| {
            let mut ws = SolverWorkspace::with_capacity(n);
            b.iter(|| {
                optimizer.solve_with(&scenario, Weights::balanced(), &mut ws).unwrap().objective
            })
        });
        // The summary form: identical numbers, no Outcome materialisation — the actual
        // per-cell path of every figure sweep (zero allocations in steady state).
        group.bench_with_input(BenchmarkId::new("solve_balanced_summary", n), &n, |b, _| {
            let mut ws = SolverWorkspace::with_capacity(n);
            b.iter(|| {
                optimizer
                    .solve_summary_with(&scenario, Weights::balanced(), &mut ws)
                    .unwrap()
                    .objective
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_numerics, bench_subproblems, bench_full_solve);
criterion_main!(benches);
