//! Per-layer measurements of the traced run: the samples each workload collects, the
//! replays of single layer calls, and the fixed list of per-layer metrics.
//!
//! "Replay" means the harness times an isolated call to a public function on the
//! workload's own inputs; those numbers are labelled as replays, never as self time.

use crate::stats::{median, percentile, share, Metric};
use crate::tracer::{SpanId, Tracer};
use fedopt_core::sp2::kkt;
use fedopt_core::sp2::{self, PowerBandwidth, Sp2Problem, Sp2Scratch};
use fedopt_core::{SolveCounters, SolverConfig, SolverWorkspace};
use flsys::{Scenario, ScenarioArrays, Weights};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The round-simulation policies, in the order of the `sim.policy_ms.*` metrics.
pub const SIM_POLICIES: [&str; 4] = ["re_solve", "static", "fedaecs", "elastic"];

/// Samples and counts collected by one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// `ScenarioBuilder::build` spans, µs.
    pub build_us: Vec<f64>,
    /// `Scenario::cost` replays, µs per call.
    pub cost_us: Vec<f64>,
    /// Algorithm 2 solve spans (proposed and deadline cells, serve and sim solves), ms.
    pub solve_ms: Vec<f64>,
    /// Number of Algorithm 2 solves behind [`Self::counters`].
    pub solves: u64,
    /// Solver counters summed over those solves.
    pub counters: SolveCounters,
    /// Per replay: (SP2 time with the polish − without) ÷ time with the polish.
    pub polish_share: Vec<f64>,
    /// SP2 replays with the reference polish on.
    pub reference_calls: u64,
    /// Of those, replays where the reference point beat the Newton-like point.
    pub reference_wins: u64,
    /// KKT replays, ns per `g'(μ)` evaluation per device.
    pub kkt_ns: Vec<f64>,
    /// Random-benchmark cell spans, µs.
    pub benchmark_us: Vec<f64>,
    /// Scheme 1 cell spans, ms.
    pub scheme1_ms: Vec<f64>,
    /// Wall seconds of `ExperimentSpec::run` on the traced inputs.
    pub engine_run_s: f64,
    /// Wall seconds of the build and cell spans of the same inputs.
    pub engine_cells_s: f64,
    /// Scenario builds the engine made.
    pub builds: u64,
    /// Cells the engine evaluated.
    pub cells: u64,
    /// `RequestSpec::from_json_str` spans, µs.
    pub request_parse_us: Vec<f64>,
    /// Report `to_json_string` spans, ms.
    pub report_emit_ms: Vec<f64>,
    /// Client latency minus the server's `latency_us`, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Server `latency_us` of warm-cache hits.
    pub hit_service_us: Vec<f64>,
    /// Server `latency_us` of warm-cache misses.
    pub miss_service_us: Vec<f64>,
    /// Responses labelled as warm-cache hits.
    pub warm_hits: u64,
    /// Requests sent.
    pub requests: u64,
    /// `rounds::simulate` spans on one-policy specs, ms, by policy kind.
    pub policy_ms: BTreeMap<String, Vec<f64>>,
    /// `RoundTrainer::step` spans, µs.
    pub step_us: Vec<f64>,
    /// How late the load generator sent each request, ms.
    pub lag_ms: Vec<f64>,
    /// Wall seconds of the traced pass (replays excluded).
    pub traced_s: f64,
    /// Wall seconds of the same pass with the tracer off.
    pub untraced_s: f64,
}

impl Layers {
    /// Records one Algorithm 2 solve: its span duration and its counter delta.
    pub fn record_solve(&mut self, ms: f64, delta: &SolveCounters) {
        self.solve_ms.push(ms);
        self.solves += 1;
        self.counters.add(delta);
    }

    /// Every per-layer metric of `BENCHMARK.json`, in its order, plus the names of those
    /// this workload does not exercise (reported as 0).
    pub fn metrics(&self) -> (Vec<Metric>, Vec<String>) {
        let per_solve = |count: u64| (self.solves > 0).then(|| count as f64 / self.solves as f64);
        let c = &self.counters;
        let engine = (self.engine_run_s > 0.0).then_some(());
        let mut rows: Vec<(String, Option<f64>, &'static str)> = vec![
            ("flsys.build_us".into(), median(&self.build_us), "us"),
            ("flsys.cost_us".into(), median(&self.cost_us), "us"),
            ("alg2.solve_ms".into(), median(&self.solve_ms), "ms"),
            ("alg2.outer_iters".into(), per_solve(c.outer_iterations), "count"),
            ("sp1.probe_evals".into(), per_solve(c.sp1_probe_evals), "count"),
            ("sp2.jong_iters".into(), per_solve(c.jong_iterations), "count"),
            ("sp2.kkt_solves".into(), per_solve(c.kkt_solves), "count"),
            ("sp2.mu_evals".into(), per_solve(c.mu_bisect_evals), "count"),
            (
                "sp2.fast_path_share".into(),
                (c.outer_iterations > 0)
                    .then(|| share(c.sp2_fast_path_hits as f64, c.outer_iterations as f64)),
                "ratio",
            ),
            ("sp2.polish_share".into(), polish_share(self), "ratio"),
            (
                "sp2.reference_win_share".into(),
                (self.reference_calls > 0)
                    .then(|| share(self.reference_wins as f64, self.reference_calls as f64)),
                "ratio",
            ),
            ("kkt.ns_per_mu_eval_device".into(), median(&self.kkt_ns), "ns"),
            ("baselines.benchmark_us".into(), median(&self.benchmark_us), "us"),
            ("baselines.scheme1_ms".into(), median(&self.scheme1_ms), "ms"),
            (
                "engine.overhead_share".into(),
                engine.map(|()| 1.0 - self.engine_cells_s / self.engine_run_s),
                "ratio",
            ),
            (
                "engine.builds_per_cell".into(),
                engine.map(|()| share(self.builds as f64, self.cells as f64)),
                "ratio",
            ),
            ("json.request_parse_us".into(), median(&self.request_parse_us), "us"),
            ("json.report_emit_ms".into(), median(&self.report_emit_ms), "ms"),
            ("serve.queue_wait_p99_ms".into(), percentile(&self.queue_wait_ms, 99.0), "ms"),
            ("serve.hit_service_us".into(), median(&self.hit_service_us), "us"),
            ("serve.miss_service_us".into(), median(&self.miss_service_us), "us"),
            (
                "serve.warm_hit_share".into(),
                (self.requests > 0).then(|| share(self.warm_hits as f64, self.requests as f64)),
                "ratio",
            ),
        ];
        for policy in SIM_POLICIES {
            let samples = self.policy_ms.get(policy).map_or(&[][..], Vec::as_slice);
            rows.push((format!("sim.policy_ms.{policy}"), median(samples), "ms"));
        }
        rows.push(("fedsim.step_us".into(), median(&self.step_us), "us"));
        rows.push(("loadgen.lag_p99_ms".into(), percentile(&self.lag_ms, 99.0), "ms"));
        let traced = (self.untraced_s > 0.0).then_some(());
        rows.push(("trace.wall_s".into(), traced.map(|()| self.traced_s), "s"));
        rows.push(("trace.untraced_wall_s".into(), traced.map(|()| self.untraced_s), "s"));
        rows.push((
            "trace.overhead_share".into(),
            traced.map(|()| self.traced_s / self.untraced_s - 1.0),
            "ratio",
        ));

        let mut not_exercised = Vec::new();
        let metrics = rows
            .into_iter()
            .map(|(name, value, unit)| {
                let value = value.filter(|v| v.is_finite()).unwrap_or_else(|| {
                    not_exercised.push(name.clone());
                    0.0
                });
                Metric::new(name, value, unit)
            })
            .collect();
        (metrics, not_exercised)
    }
}

/// The polish share over the replays. Exactly 0 when the workload's solver runs without
/// the polish (no replay is made then: the reference never runs).
fn polish_share(layers: &Layers) -> Option<f64> {
    if layers.polish_share.is_empty() {
        return (!layers.kkt_ns.is_empty()).then_some(0.0);
    }
    median(&layers.polish_share)
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Replays the layers under one finished Algorithm 2 solve, whose final allocation and
/// rate floors the workspace still holds (`ws.best`, `ws.r_min_bps`):
///
/// * `Scenario::cost` on the final allocation;
/// * `sp2::solve_in` from the final allocation at the final rate floors, cold, with the
///   reference polish off and — when the solver uses it — on;
/// * `kkt::solve_parametric_into` at the Newton-like multipliers of the final point,
///   divided by the `g'(μ)` evaluations per parametric solve that the polish-off SP2
///   replay counted (the problem's own KKT counters are private to the solver crate).
#[allow(clippy::too_many_arguments)] // one call site per workload; grouping adds nothing
pub fn probe_solve(
    tracer: &mut Tracer,
    parent: SpanId,
    tag: &str,
    scenario: &Scenario,
    ws: &SolverWorkspace,
    weights: Weights,
    config: &SolverConfig,
    layers: &mut Layers,
) {
    let n = scenario.devices.len();
    let best = &ws.best;
    if best.powers_w.len() != n || ws.r_min_bps.len() != n || weights.time() >= 1.0 {
        return;
    }

    let reps = (20_000 / n).clamp(1, 1_000);
    let span = tracer.begin("replay.flsys.cost", parent, tag);
    let start = Instant::now();
    for _ in 0..reps {
        black_box(scenario.cost(black_box(best)).ok());
    }
    layers.cost_us.push(elapsed_ns(start) / reps as f64 / 1e3);
    tracer.end(span);

    let cold = config.with_warm_start(false).with_outer_continuation(false);
    let replay_sp2 = |polish: bool, tracer: &mut Tracer| {
        let cfg = SolverConfig { polish_with_reference: polish, ..cold };
        let mut scratch = Sp2Scratch::new();
        scratch.stage_start(&best.powers_w, &best.bandwidths_hz);
        let name = if polish { "replay.sp2.polish_on" } else { "replay.sp2.polish_off" };
        let span = tracer.begin(name, parent, tag);
        let start = Instant::now();
        let summary = sp2::solve_in(scenario, weights, &ws.r_min_bps, &cfg, &mut scratch);
        let ns = elapsed_ns(start);
        tracer.end(span);
        summary.ok().map(|s| (ns, s))
    };
    let Some((off_ns, off)) = replay_sp2(false, tracer) else { return };
    if config.polish_with_reference {
        if let Some((on_ns, on)) = replay_sp2(true, tracer) {
            layers.polish_share.push((on_ns - off_ns) / on_ns);
            layers.reference_calls += 1;
            layers.reference_wins += u64::from(on.polished);
        }
    }
    if off.kkt_solves == 0 || off.mu_bisect_evals == 0 {
        return;
    }
    let evals_per_solve = off.mu_bisect_evals as f64 / off.kkt_solves as f64;

    let arrays = ScenarioArrays::from_scenario(scenario);
    let cfg = SolverConfig { polish_with_reference: false, ..cold };
    let Ok(problem) = Sp2Problem::new(scenario, &arrays, weights, &ws.r_min_bps, &cfg) else {
        return;
    };
    let point = PowerBandwidth::new(best.powers_w.clone(), best.bandwidths_hz.clone());
    let ratio_weight = (weights.energy() * scenario.params.rg()).max(1e-12);
    let mut nu = Vec::with_capacity(n);
    let mut beta = Vec::with_capacity(n);
    for i in 0..n {
        let rate = problem.rate(i, &point);
        nu.push(ratio_weight / rate);
        beta.push(point.powers_w[i] * arrays.upload_bits[i] / rate);
    }
    let mut out = PowerBandwidth::new(Vec::new(), Vec::new());
    let reps = (200_000 / n).clamp(1, 200);
    let span = tracer.begin("replay.kkt.solve_parametric", parent, tag);
    let start = Instant::now();
    for _ in 0..reps {
        black_box(kkt::solve_parametric_into(&problem, &nu, &beta, &mut out).ok());
    }
    let per_call_ns = elapsed_ns(start) / reps as f64;
    tracer.end(span);
    layers.kkt_ns.push(per_call_ns / evals_per_solve / n as f64);
}
