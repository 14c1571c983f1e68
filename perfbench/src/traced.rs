//! The traced runs of the batch workloads. Each chunk of the workload's own input is run
//! in-process three ways: through the library's own entry point (untraced), through the
//! harness's copy of the engine's loop with the tracer off, and through the same loop with
//! spans around every build and cell. The layer replays follow each solve and are kept
//! out of the traced pass's wall time.

use crate::batch::Batch;
use crate::inputs;
use crate::layers::{probe_solve, Layers};
use crate::outcome::Outcome;
use crate::stats::Metric;
use crate::tracer::Tracer;
use crate::Ctx;
use baselines::derive_stream_seed;
use experiments::engine::{Arm, CellContext};
use experiments::json::Json;
use experiments::rounds;
use experiments::spec::{ArmKind, AxisKind, RoundPolicy};
use experiments::{ExperimentSpec, SweepEngine};
use fedopt_core::{JointOptimizer, SolverWorkspace};
use fedsim::{FederatedDataset, RoundTrainer, SyntheticConfig};
use flsys::{Scenario, ScenarioBuilder, Weights};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wireless::{ChannelGain, LogNormalShadowing};

/// The span name of a cell of arm kind `kind`.
fn cell_span(kind: &ArmKind) -> &'static str {
    match kind {
        ArmKind::Proposed { .. } | ArmKind::DeadlineProposed { .. } => "alg2.solve",
        ArmKind::Benchmark { .. } => "baselines.benchmark",
        ArmKind::Scheme1 { .. } => "baselines.scheme1",
        _ => "cell",
    }
}

/// The harness's copy of the engine's single-thread loop over a spec's grid: per point
/// and seed, one build per group of arms with equal prepared builders, the warm state
/// reset at every group, the arms evaluated in order. Returns the wall seconds of the pass
/// without the layer replays and the seconds inside build and cell spans.
fn replay_grid(
    spec: &ExperimentSpec,
    engine: &SweepEngine,
    tracer: &mut Tracer,
    mut layers: Option<&mut Layers>,
) -> (f64, f64) {
    let grid = spec.grid().expect("workload specs are valid");
    let base = spec.solver.resolve();
    let mut ws = SolverWorkspace::new();
    let (mut probe_s, mut spans_ns) = (0.0, 0.0);
    let start = Instant::now();
    for (p, point) in grid.points.iter().enumerate() {
        let builders: Vec<ScenarioBuilder> =
            grid.arms.iter().map(|arm| arm.prepare(&point.builder)).collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (a, builder) in builders.iter().enumerate() {
            match groups.iter_mut().find(|g| builders[g[0]] == *builder) {
                Some(group) => group.push(a),
                None => groups.push(vec![a]),
            }
        }
        for &seed in &grid.seeds {
            for group in &groups {
                let tag = format!("p{p}/s{seed}");
                let root = tracer.begin("engine.group", None, &tag);
                let span = tracer.begin("flsys.build", root, &tag);
                let scenario = builders[group[0]].build(seed).expect("workload scenarios build");
                let build_ns = tracer.end(span);
                spans_ns += build_ns;
                if let Some(layers) = layers.as_deref_mut() {
                    layers.build_us.push(build_ns / 1e3);
                }
                ws.reset_warm_start();
                for &a in group {
                    let kind = &spec.arms[a].kind;
                    let cell_tag = format!("{tag}/a{a}");
                    let before = ws.counters;
                    let mut ctx = CellContext {
                        x: point.x,
                        seed,
                        stream_seed: derive_stream_seed(seed),
                        point_idx: p,
                        arm_idx: a,
                        warm_start: engine.warm_starts(),
                        superlinear_mu: engine.superlinear_mu(),
                        adaptive_mu_bracket: engine.adaptive_mu_bracket(),
                        outer_continuation: false,
                        workspace: &mut ws,
                    };
                    let config = ctx.solver_config(&base);
                    let span = tracer.begin(cell_span(kind), root, &cell_tag);
                    let result = grid.arms[a].evaluate(&scenario, &mut ctx);
                    let cell_ns = tracer.end(span);
                    spans_ns += cell_ns;
                    let Some(layers) = layers.as_deref_mut() else { continue };
                    let weights = match kind {
                        ArmKind::Proposed { weights } => *weights,
                        ArmKind::DeadlineProposed { .. } => Weights::energy_only(),
                        ArmKind::Benchmark { .. } => {
                            layers.benchmark_us.push(cell_ns / 1e3);
                            continue;
                        }
                        ArmKind::Scheme1 { .. } => {
                            layers.scheme1_ms.push(cell_ns / 1e6);
                            continue;
                        }
                        _ => continue,
                    };
                    layers.record_solve(cell_ns / 1e6, &ws.counters.since(&before));
                    if matches!(result, Ok(Some(_))) {
                        let probe = Instant::now();
                        probe_solve(
                            tracer, root, &cell_tag, &scenario, &ws, weights, &config, layers,
                        );
                        probe_s += probe.elapsed().as_secs_f64();
                    }
                }
                tracer.end(root);
            }
        }
    }
    (start.elapsed().as_secs_f64() - probe_s, spans_ns / 1e9)
}

/// The traced run of `sweep-paper` or `fleet-1e5`.
pub fn sweep(ctx: &Ctx, batch: &Batch) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    let mut chunk = 0;
    while chunk == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut spec = (batch.spec)(ctx.seed, chunk);
        spec.engine.threads = Some(1);
        let engine = spec.engine.to_engine();
        out.checks.attempted += (batch.ops)(&spec);

        let t = Instant::now();
        let run = spec.run_with_engine(&engine);
        layers.engine_run_s += t.elapsed().as_secs_f64();
        match run {
            Ok(run) => {
                layers.builds += run.result.counters.scenarios_built as u64;
                layers.cells += run.result.counters.cells_evaluated as u64;
                let span = tracer.begin("json.report_emit", None, &format!("chunk{chunk}"));
                let doc = experiments::cli::run_document(&spec, &run).to_pretty_string();
                layers.report_emit_ms.push(tracer.end(span) / 1e6);
                match Json::parse(&doc) {
                    Ok(doc) => (batch.check)(&spec, &doc, ctx.seed, chunk, &mut out.checks),
                    Err(e) => out.checks.fail((batch.ops)(&spec), format!("report: {e}")),
                }
            }
            Err(e) => out.checks.fail((batch.ops)(&spec), format!("chunk {chunk}: {e}")),
        }

        layers.untraced_s += replay_grid(&spec, &engine, &mut Tracer::new(false), None).0;
        let (traced_s, spans_s) = replay_grid(&spec, &engine, &mut tracer, Some(&mut layers));
        layers.traced_s += traced_s;
        layers.engine_cells_s += spans_s;
        chunk += 1;
    }
    finish(out, layers, tracer, chunk)
}

/// Round `round`'s channel: the base gains refaded by the round's pinned log-normal
/// stream, as the simulator's re-solve policy sees them.
fn refade(scenario0: &Scenario, refade_db: f64, stream_seed: u64) -> Scenario {
    let mut scenario = scenario0.clone();
    if refade_db > 0.0 {
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let shadow = LogNormalShadowing::new(refade_db);
        for device in &mut scenario.devices {
            device.gain = ChannelGain::new(device.gain.value() * shadow.sample_linear(&mut rng));
        }
    }
    scenario
}

/// One-policy copies of a simulation spec, with the policy's kind.
fn single_policy_specs(spec: &ExperimentSpec) -> Vec<(&'static str, ExperimentSpec)> {
    let policies = &spec.rounds.as_ref().expect("sim specs carry rounds").policies;
    policies
        .iter()
        .map(|policy| {
            let mut single = spec.clone();
            single.rounds.as_mut().expect("cloned above").policies = vec![policy.clone()];
            (policy.policy.name(), single)
        })
        .collect()
}

/// The traced run of `sim-rounds`.
pub fn sim(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    let mut chunk = 0;
    while chunk == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut spec = inputs::sim_spec(ctx.seed, chunk);
        spec.engine.threads = Some(1);
        let engine = spec.engine.to_engine();
        let ops = (crate::batch::SIM.ops)(&spec);
        out.checks.attempted += ops;
        let singles = single_policy_specs(&spec);

        let t = Instant::now();
        for (_, single) in &singles {
            let _ = rounds::simulate_with_engine(single, &engine);
        }
        layers.untraced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for (kind, single) in &singles {
            let span = tracer.begin(&format!("sim.policy.{kind}"), None, &format!("chunk{chunk}"));
            let result = rounds::simulate_with_engine(single, &engine);
            let ms = tracer.end(span) / 1e6;
            layers.policy_ms.entry(kind.to_string()).or_default().push(ms);
            if let Err(e) = result {
                out.checks.fail(ops / singles.len() as u64, format!("chunk {chunk}: {kind}: {e}"));
            }
        }
        layers.traced_s += t.elapsed().as_secs_f64();

        match rounds::simulate_with_engine(&spec, &engine) {
            Ok(run) => {
                let span = tracer.begin("json.report_emit", None, &format!("chunk{chunk}"));
                let doc = run.to_json_string();
                layers.report_emit_ms.push(tracer.end(span) / 1e6);
                match Json::parse(&doc) {
                    Ok(doc) => {
                        crate::checks::sim_doc(&spec, &doc, ctx.seed, chunk, &mut out.checks)
                    }
                    Err(e) => out.checks.fail(ops, format!("report: {e}")),
                }
            }
            Err(e) => out.checks.fail(ops, format!("chunk {chunk}: {e}")),
        }
        replay_sim_layers(&spec, &engine, &mut tracer, &mut layers);
        chunk += 1;
    }
    finish(out, layers, tracer, chunk)
}

/// Layer replays on a simulation chunk's inputs: the scenario build per seed, the
/// re-solve policy's per-round Algorithm 2 solves on the refaded channels (each followed by
/// the solve replays), and `RoundTrainer::step` over the whole fleet for every round.
fn replay_sim_layers(
    spec: &ExperimentSpec,
    engine: &SweepEngine,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let plan = spec.rounds.as_ref().expect("sim specs carry rounds");
    assert_eq!(spec.axis.kind, AxisKind::Devices, "sim specs sweep one device count");
    let template = spec
        .scenario
        .apply(ScenarioBuilder::paper_default())
        .with_devices(spec.axis.values[0] as usize);
    let config = spec
        .solver
        .resolve()
        .with_warm_start(engine.warm_starts())
        .with_superlinear_mu(engine.superlinear_mu())
        .with_adaptive_mu_bracket(engine.adaptive_mu_bracket())
        .with_outer_continuation(false);
    let optimizer = JointOptimizer::new(config);
    let weights = plan.policies.iter().find_map(|p| match p.policy {
        RoundPolicy::ReSolve { weights } => Some(weights),
        _ => None,
    });
    let mut ws = SolverWorkspace::new();
    for seed in spec.seeds.values() {
        let tag = format!("s{seed}");
        let span = tracer.begin("flsys.build", None, &tag);
        let scenario0 = template.build(seed).expect("workload scenarios build");
        layers.build_us.push(tracer.end(span) / 1e3);
        if let Some(weights) = weights {
            ws.reset_warm_start();
            for round in 1..=u64::from(plan.rounds) {
                let round_tag = format!("{tag}/r{round}");
                let stream = plan.channel_stream.derive_round(seed, round);
                let scenario = refade(&scenario0, plan.refade_db, stream);
                let before = ws.counters;
                let span = tracer.begin("alg2.solve", None, &round_tag);
                let solved = optimizer.solve_with(&scenario, weights, &mut ws);
                let ms = tracer.end(span) / 1e6;
                if solved.is_ok() {
                    layers.record_solve(ms, &ws.counters.since(&before));
                    probe_solve(tracer, None, &round_tag, &scenario, &ws, weights, &config, layers);
                }
            }
        }
        let n = scenario0.devices.len();
        let dataset = FederatedDataset::synthetic(
            &SyntheticConfig::default()
                .with_devices(n)
                .with_samples_per_device(plan.training.samples_per_device as usize),
            derive_stream_seed(seed),
        );
        let mut trainer = RoundTrainer::new(
            &dataset,
            plan.training.learning_rate,
            scenario0.params.local_iterations,
        );
        let everyone: Vec<usize> = (0..n).collect();
        for round in 1..=plan.rounds {
            let span = tracer.begin("fedsim.step", None, &format!("{tag}/r{round}"));
            std::hint::black_box(trainer.step(&everyone));
            layers.step_us.push(tracer.end(span) / 1e3);
        }
    }
}

/// Turns a traced run's samples into its metrics and result-file members.
fn finish(mut out: Outcome, layers: Layers, tracer: Tracer, chunks: u64) -> Outcome {
    let (metrics, not_exercised) = layers.metrics();
    out.metrics = metrics;
    out.not_exercised = not_exercised;
    out.named = vec![Metric::new("chunks", chunks as f64, "count")];
    out.extra.push(("span_summary".to_string(), tracer.summary_json()));
    out.extra.push(("spans".to_string(), tracer.spans_json()));
    out
}
