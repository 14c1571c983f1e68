//! The benchmark's inputs are pure functions of the workload seed, and the deterministic
//! counters it records beside every run repeat exactly for the same inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use experiments::engine::SweepEngine;
use experiments::rounds;
use experiments::serve::{serve_session, ServeOptions};
use perfbench::inputs;
use std::sync::atomic::AtomicBool;

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for chunk in [0, 3] {
        assert_eq!(inputs::sweep_spec(7, chunk), inputs::sweep_spec(7, chunk));
        assert_eq!(inputs::sim_spec(7, chunk), inputs::sim_spec(7, chunk));
        assert_eq!(inputs::fleet_spec(7, chunk), inputs::fleet_spec(7, chunk));
        assert_ne!(inputs::sweep_spec(7, chunk), inputs::sweep_spec(8, chunk));
        assert_ne!(inputs::sim_spec(7, chunk), inputs::sim_spec(8, chunk));
        assert_ne!(inputs::fleet_spec(7, chunk), inputs::fleet_spec(8, chunk));
    }
    assert_ne!(inputs::sweep_spec(7, 0), inputs::sweep_spec(7, 1), "chunks draw new seeds");
    assert_eq!(inputs::serve_stream(7, 2.0), inputs::serve_stream(7, 2.0));
    assert_ne!(inputs::serve_stream(7, 2.0), inputs::serve_stream(8, 2.0));

    let stream = inputs::serve_stream(7, 10.0);
    let rate = stream.len() as f64 / 10.0;
    assert!((rate / inputs::SERVE_RATE_PER_S - 1.0).abs() < 0.1, "arrival rate {rate}/s");
    let repeats = stream.iter().filter(|r| r.repeat).count() as f64 / stream.len() as f64;
    assert!((repeats - inputs::SERVE_REPEAT_SHARE).abs() < 0.05, "repeat share {repeats}");
    assert!(stream.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
}

#[test]
fn sweep_counters_repeat_exactly() {
    let mut spec = inputs::sweep_spec(inputs::DEFAULT_SEED, 0);
    spec.axis.values.truncate(1);
    let engine = SweepEngine::single_thread().with_warm_start(true);
    let first = spec.run_with_engine(&engine).expect("sweep runs");
    let second = spec.run_with_engine(&engine).expect("sweep runs");
    assert_eq!(first.result.counters, second.result.counters);
    assert_eq!(first.result.counters.cells_evaluated, spec.arms.len());
    assert!(first.result.counters.solver.jong_iterations > 0);
}

#[test]
fn serve_counters_and_responses_repeat_exactly() {
    let stream = inputs::serve_stream(inputs::DEFAULT_SEED, 0.2);
    let input: String = stream.iter().map(|r| format!("{}\n", r.line)).collect();
    // A queue as deep as the stream, so nothing is shed however fast the reader runs.
    let opts = ServeOptions {
        workers: 1,
        queue_depth: stream.len(),
        warm_start: Some(true),
        ..ServeOptions::default()
    };
    let run = || {
        let mut out = Vec::new();
        let stats = serve_session(input.as_bytes(), &mut out, &opts, &AtomicBool::new(false))
            .expect("in-memory session");
        (out, stats)
    };
    let (out1, stats1) = run();
    let (out2, stats2) = run();
    assert_eq!(out1, out2, "identical request streams give identical response streams");
    assert_eq!(stats1.requests, stream.len() as u64);
    assert_eq!(stats1.ok, stats2.ok);
    assert_eq!((stats1.warm_hits, stats1.warm_misses), (stats2.warm_hits, stats2.warm_misses));
    assert_eq!(stats1.warm_hits, stream.iter().filter(|r| r.repeat).count() as u64);
    assert_eq!(stats1.shed + stats1.degraded + stats1.invalid, 0);
}

#[test]
fn sim_output_repeats_exactly() {
    let mut spec = inputs::sim_spec(inputs::DEFAULT_SEED, 0);
    spec.seeds = experiments::spec::SeedSpec::list(vec![spec.seeds.values()[0]]);
    spec.rounds.as_mut().expect("sim specs carry rounds").rounds = 4;
    let engine = SweepEngine::single_thread().with_warm_start(true);
    let first = rounds::simulate_with_engine(&spec, &engine).expect("sim runs");
    let second = rounds::simulate_with_engine(&spec, &engine).expect("sim runs");
    assert_eq!(first.to_json_string(), second.to_json_string());
}
