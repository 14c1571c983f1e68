//! `serve-mixed`: one `fedopt serve --workers 1` process driven open loop over stdin.
//!
//! A writer thread sends each request when it is due (Poisson arrivals); the calling
//! thread reads the responses. Latency is timed from each request's *due* time, so a stall
//! also charges the requests queued behind it, and the generator's own lateness is
//! reported beside it.

use crate::batch::setup_seconds;
use crate::inputs::{self, ServeRequest};
use crate::layers::{probe_solve, Layers};
use crate::outcome::{Checks, Outcome};
use crate::proc::{self, Finished};
use crate::stats::{median, percentile, Metric};
use crate::tracer::Tracer;
use crate::Ctx;
use experiments::json::{fnv1a_64, Json};
use experiments::serve::RequestSpec;
use experiments::spec::ArmKind;
use fedopt_core::{JointOptimizer, SolverWorkspace};
use flsys::{Allocation, Scenario, ScenarioBuilder};
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The latency limit of `ok_share` on this workload: a request counts only if it is
/// answered `ok`, passes the output checks, and arrives within this many ms of its due
/// time.
pub const SLO_MS: f64 = 50.0;

/// `fedopt serve` arguments: one worker, so warm-cache hits are a function of the stream;
/// an admission queue deep enough that a burst of slow solves queues instead of shedding (a
/// shed request would count as failed); and `--timing`, so each response carries its
/// server-side service time.
const SERVE_ARGS: &[&str] = &["serve", "--workers", "1", "--queue-depth", "4096", "--timing"];

/// What one open-loop session left behind.
struct Capture {
    /// When each request was actually written, ns after the stream started.
    sent_ns: Vec<u64>,
    /// Each response line with its arrival, ns after the stream started.
    received: Vec<(u64, String)>,
    /// Exit facts of the server.
    finished: Finished,
}

/// Runs one open-loop session of `requests` against a fresh server.
fn drive(ctx: &Ctx, requests: &[ServeRequest]) -> io::Result<Capture> {
    let stderr = std::fs::File::create(ctx.stderr_path("serve"))?;
    let mut child = Command::new(&ctx.fedopt)
        .args(SERVE_ARGS)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");
    let start = Instant::now();
    let (sent_ns, received) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut sent = Vec::with_capacity(requests.len());
            for req in requests {
                let due = Duration::from_nanos(req.due_ns);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let line = format!("{}\n", req.line);
                if stdin.write_all(line.as_bytes()).is_err() {
                    break;
                }
                sent.push(start.elapsed().as_nanos() as u64);
            }
            sent // dropping stdin here closes it: the server drains and exits
        });
        let mut received = Vec::with_capacity(requests.len());
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            received.push((start.elapsed().as_nanos() as u64, line.trim_end().to_string()));
            line.clear();
        }
        (writer.join().expect("load generator thread panicked"), received)
    });
    let finished = proc::reap(&child)?;
    Ok(Capture { sent_ns, received, finished })
}

/// Rebuilds the request's scenario with `flsys`.
fn scenario_of(req: &RequestSpec) -> Option<Scenario> {
    req.scenario.apply(ScenarioBuilder::paper_default()).build(req.seed).ok()
}

fn f64_array(v: Option<&Json>) -> Option<Vec<f64>> {
    v?.as_array()?.iter().map(Json::as_f64).collect()
}

fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(f64::MIN_POSITIVE)
}

/// Checks one `ok` response against its request: the scenario rebuilt from the request's
/// patch and seed, energy and time recomputed from the returned allocation with
/// `Scenario::cost` (1e-9 relative), and the allocation inside its boxes and budget.
fn check_ok(response: &Json, scenario: &Scenario) -> Result<(), String> {
    let alloc = response.get("allocation").ok_or("no allocation")?;
    let powers = f64_array(alloc.get("powers_w")).ok_or("bad powers_w")?;
    let freqs = f64_array(alloc.get("frequencies_hz")).ok_or("bad frequencies_hz")?;
    let bands = f64_array(alloc.get("bandwidths_hz")).ok_or("bad bandwidths_hz")?;
    let allocation = Allocation::new(powers, freqs, bands);
    let cost = scenario.cost(&allocation).map_err(|e| format!("cost: {e}"))?;
    let energy = response.get("energy_j").and_then(Json::as_f64).ok_or("no energy_j")?;
    let time = response.get("time_s").and_then(Json::as_f64).ok_or("no time_s")?;
    if rel_err(energy, cost.total_energy_j) > 1e-9 || rel_err(time, cost.total_time_s) > 1e-9 {
        return Err(format!(
            "reported (E, T) = ({energy}, {time}) but the allocation costs ({}, {})",
            cost.total_energy_j, cost.total_time_s
        ));
    }
    let slack = 1e-9;
    let b_total = scenario.params.total_bandwidth.value();
    let b_sum: f64 = allocation.bandwidths_hz.iter().sum();
    if b_sum > b_total * (1.0 + slack) || allocation.bandwidths_hz.iter().any(|&b| b < 0.0) {
        return Err(format!("bandwidths sum to {b_sum} > B = {b_total}"));
    }
    for (i, dev) in scenario.devices.iter().enumerate() {
        let (p, f) = (allocation.powers_w[i], allocation.frequencies_hz[i]);
        let p_ok = p >= dev.p_min.value() * (1.0 - slack) && p <= dev.p_max.value() * (1.0 + slack);
        let f_ok = f >= dev.f_min.value() * (1.0 - slack) && f <= dev.f_max.value() * (1.0 + slack);
        if !(p_ok && f_ok) {
            return Err(format!("device {i}: power {p} W or frequency {f} Hz outside its box"));
        }
    }
    Ok(())
}

/// Per-request verdicts of one session: latency from due time, and whether the response
/// was `ok` and passed its checks. Missing, out-of-order and non-`ok` responses fail.
struct Verdicts {
    latency_ms: Vec<Option<f64>>,
    passed: Vec<bool>,
    responses: Vec<Option<Json>>,
}

fn judge(requests: &[ServeRequest], cap: &Capture, checks: &mut Checks) -> Verdicts {
    let n = requests.len();
    checks.attempted += n as u64;
    if cap.finished.code != 0 {
        checks.fail(0, format!("fedopt serve exited {}", cap.finished.code));
    }
    if cap.received.len() != n {
        checks.fail(0, format!("{} responses to {n} requests", cap.received.len()));
    }
    let mut verdicts =
        Verdicts { latency_ms: vec![None; n], passed: vec![false; n], responses: vec![None; n] };
    let mut scenario: Option<(u64, Scenario)> = None;
    for (i, req) in requests.iter().enumerate() {
        let Some((at_ns, line)) = cap.received.get(i) else {
            checks.fail(1, format!("request {i}: no response"));
            continue;
        };
        verdicts.latency_ms[i] = Some(at_ns.saturating_sub(req.due_ns) as f64 / 1e6);
        let Ok(response) = Json::parse(line) else {
            checks.fail(1, format!("request {i}: unparsable response"));
            continue;
        };
        let seq = response.get("seq").and_then(Json::as_u64);
        let id = response.get("id").and_then(Json::as_str);
        let status = response.get("status").and_then(Json::as_str).unwrap_or("?").to_string();
        let expected_id = format!("r{i}");
        let verdict = if seq != Some(i as u64) || id != Some(expected_id.as_str()) {
            Err(format!("out of order (seq {seq:?}, id {id:?})"))
        } else if status != "ok" {
            Err(format!("status {status}"))
        } else {
            let parsed = RequestSpec::from_json_str(&req.line).map_err(|e| e.to_string());
            match parsed {
                Ok(spec) => {
                    let fingerprint = spec.fingerprint();
                    if scenario.as_ref().map(|(f, _)| *f) != Some(fingerprint) {
                        scenario = scenario_of(&spec).map(|s| (fingerprint, s));
                    }
                    match &scenario {
                        Some((_, s)) => check_ok(&response, s),
                        None => Err("scenario does not build".to_string()),
                    }
                }
                Err(e) => Err(format!("request does not parse: {e}")),
            }
        };
        match verdict {
            Ok(()) => verdicts.passed[i] = true,
            Err(why) => checks.fail(1, format!("request {i}: {why}")),
        }
        verdicts.responses[i] = Some(response);
    }
    verdicts
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = setup_seconds(ctx, SERVE_ARGS, b"", &mut out.checks);
    let requests = inputs::serve_stream(ctx.seed, ctx.seconds);
    let cap = match drive(ctx, &requests) {
        Ok(cap) => cap,
        Err(e) => {
            out.checks.attempted += requests.len() as u64;
            out.checks.fail(requests.len() as u64, format!("cannot drive fedopt serve: {e}"));
            return out;
        }
    };
    let verdicts = judge(&requests, &cap, &mut out.checks);
    let latencies: Vec<f64> = verdicts.latency_ms.iter().flatten().copied().collect();
    let within = verdicts
        .latency_ms
        .iter()
        .zip(&verdicts.passed)
        .filter(|(lat, ok)| **ok && lat.is_some_and(|l| l <= SLO_MS))
        .count();
    let slo_ok = within as f64 / requests.len().max(1) as f64;
    let lag = lag_ms(&requests, &cap);
    let service_ms: Vec<Option<f64>> = verdicts
        .responses
        .iter()
        .map(|r| r.as_ref()?.get("latency_us")?.as_f64().map(|us| us / 1e3))
        .collect();
    let all_service: Vec<f64> = service_ms.iter().flatten().copied().collect();
    let mean_service = all_service.iter().sum::<f64>() / all_service.len().max(1) as f64;
    out.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", cap.finished.peak_rss_kib as f64 / 1024.0, "MB"),
        Metric::new("latency_ms", mix_weighted_median(&requests, &service_ms), "ms"),
        Metric::new("ok_share", slo_ok, "ratio"),
    ];
    out.named = vec![
        Metric::new("serve.service_mean_ms", mean_service, "ms"),
        Metric::new("serve.p50_ms", median(&latencies).unwrap_or(0.0), "ms"),
        Metric::new("serve.p99_ms", percentile(&latencies, 99.0).unwrap_or(0.0), "ms"),
        Metric::new("serve.slo_ok_share", slo_ok, "ratio"),
        Metric::new("failed_share", 1.0 - out.checks.ok_share(), "ratio"),
        Metric::new("loadgen.lag_p99_ms", percentile(&lag, 99.0).unwrap_or(0.0), "ms"),
        Metric::new("requests", requests.len() as f64, "count"),
    ];
    response_counters(&verdicts.responses, &cap, &mut out);
    let quantiles = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9]
        .iter()
        .map(|&p| Json::Num(percentile(&latencies, p).unwrap_or(0.0)))
        .collect();
    out.extra.push(("latency_ms_p10_25_50_75_90_99_99.9".to_string(), Json::Arr(quantiles)));
    out
}

/// How late the load generator sent each request, ms.
fn lag_ms(requests: &[ServeRequest], cap: &Capture) -> Vec<f64> {
    cap.sent_ns
        .iter()
        .zip(requests)
        .map(|(&sent, req)| sent.saturating_sub(req.due_ns) as f64 / 1e6)
        .collect()
}

/// `latency_ms` of a session: the median server-side service time (pickup to response, the
/// `latency_us` of `--timing`) within each request class (cohort size, preset, warm repeat
/// or not), weighted by the class's share of the stream's nominal mix. Requests without a
/// response are left out (they already count as failed).
///
/// Why not the latency from the due time: queue wait multiplies every slowdown of the host,
/// so the median latency from the due time moved by 2.5× between runs that met a slow
/// stretch and runs that did not. Service time moves with the program's speed alone; the
/// latency from the due time is printed beside it (`serve.p50_ms`, `serve.p99_ms`).
/// Why per class with fixed weights: a seed draws its own mix, and a few 50-device
/// `default` misses more or less move any plain average of the stream. Over the same five
/// seeds the lower decile of one-second window means spread by 11 %, this by 4 %.
fn mix_weighted_median(requests: &[ServeRequest], service_ms: &[Option<f64>]) -> f64 {
    let mut total = 0.0;
    for &(devices, p_devices) in &inputs::SERVE_DEVICES {
        for (preset, p_preset) in [
            ("default", inputs::SERVE_DEFAULT_PRESET_SHARE),
            ("fast", 1.0 - inputs::SERVE_DEFAULT_PRESET_SHARE),
        ] {
            for (repeat, p_repeat) in
                [(true, inputs::SERVE_REPEAT_SHARE), (false, 1.0 - inputs::SERVE_REPEAT_SHARE)]
            {
                let class: Vec<f64> = requests
                    .iter()
                    .zip(service_ms)
                    .filter(|(r, _)| {
                        r.devices == devices && r.preset == preset && r.repeat == repeat
                    })
                    .filter_map(|(_, ms)| *ms)
                    .collect();
                total += p_devices * p_preset * p_repeat * median(&class).unwrap_or(0.0);
            }
        }
    }
    total
}

/// Serve counters (requests, statuses, warm hits and misses) and the solver counters the
/// responses carry, summed; plus a digest of the response stream.
fn response_counters(responses: &[Option<Json>], cap: &Capture, out: &mut Outcome) {
    let mut totals: Vec<(String, u64)> = Vec::new();
    let mut add = |key: String| match totals.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => *v += 1,
        None => totals.push((key, 1)),
    };
    let mut solver: Vec<(String, u64)> = Vec::new();
    for r in responses.iter().flatten() {
        add(format!("status.{}", r.get("status").and_then(Json::as_str).unwrap_or("?")));
        add(format!("warm.{}", r.get("warm").and_then(Json::as_str).unwrap_or("none")));
        for (k, v) in r.get("counters").and_then(Json::as_object).unwrap_or(&[]) {
            let key = format!("solver.{k}");
            let value = v.as_u64().unwrap_or(0);
            match solver.iter_mut().find(|(s, _)| *s == key) {
                Some((_, total)) => *total += value,
                None => solver.push((key, value)),
            }
        }
    }
    out.counter("requests", cap.received.len() as u64);
    totals.sort();
    for (k, v) in totals.into_iter().chain(solver) {
        out.counter(&k, v);
    }
    // The digest leaves out `latency_us`, the one member that differs from run to run.
    let stream: String = responses
        .iter()
        .flatten()
        .map(|r| match r {
            Json::Obj(members) => {
                let kept = members.iter().filter(|(k, _)| k != "latency_us").cloned().collect();
                format!("{}\n", Json::Obj(kept).to_compact_string())
            }
            other => format!("{}\n", other.to_compact_string()),
        })
        .collect();
    out.counters.push((
        "output_digest".to_string(),
        Json::Str(format!("{:016x}", fnv1a_64(stream.as_bytes()))),
    ));
}

/// Replays requests in-process the way a one-worker server answers them — parse, build,
/// warm-cache bookkeeping by fingerprint, Algorithm 2 with outer continuation on a hit —
/// and returns how many requests it answered and the wall seconds of the pass without the
/// layer replays. It stops early once `budget_s` is spent. With `layers`, every solve is
/// also replayed layer by layer.
fn replay(
    requests: &[ServeRequest],
    tracer: &mut Tracer,
    mut layers: Option<&mut Layers>,
    budget_s: f64,
) -> (usize, f64) {
    let mut ws = SolverWorkspace::new();
    let mut last_fingerprint = None;
    let mut probe_s = 0.0;
    let start = Instant::now();
    let mut answered = 0;
    for (i, r) in requests.iter().enumerate() {
        if start.elapsed().as_secs_f64() - probe_s >= budget_s {
            break;
        }
        answered = i + 1;
        let tag = format!("r{i}");
        let root = tracer.begin("serve.request", None, &tag);
        let span = tracer.begin("json.request_parse", root, &tag);
        let parsed = RequestSpec::from_json_str(&r.line);
        let parse_ns = tracer.end(span);
        let Ok(req) = parsed else { continue };
        let ArmKind::Proposed { weights } = req.arm.kind else { continue };
        let fingerprint = req.fingerprint();
        let hit = last_fingerprint == Some(fingerprint);
        if !hit {
            ws.reset_warm_start();
            last_fingerprint = Some(fingerprint);
        }
        let config = req.solver.resolve().with_warm_start(true).with_outer_continuation(hit);
        let span = tracer.begin("flsys.build", root, &tag);
        let scenario = scenario_of(&req);
        let build_ns = tracer.end(span);
        let Some(scenario) = scenario else { continue };
        let before = ws.counters;
        let span = tracer.begin("alg2.solve", root, &tag);
        let solved = JointOptimizer::new(config).solve_summary_with(&scenario, weights, &mut ws);
        let solve_ns = tracer.end(span);
        tracer.end(root);
        if let Some(layers) = layers.as_deref_mut() {
            layers.request_parse_us.push(parse_ns / 1e3);
            layers.build_us.push(build_ns / 1e3);
            if solved.is_ok() {
                layers.record_solve(solve_ns / 1e6, &ws.counters.since(&before));
                let probe = Instant::now();
                probe_solve(tracer, None, &tag, &scenario, &ws, weights, &config, layers);
                probe_s += probe.elapsed().as_secs_f64();
            }
        }
    }
    (answered, start.elapsed().as_secs_f64() - probe_s)
}

/// The traced run: the first half of the workload's stream against the binary, with the
/// server-side service time of each response split by warm label, then an untraced and a traced
/// in-process replay of as many of those requests as the remaining time allows.
pub fn trace(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let requests = inputs::serve_stream(ctx.seed, ctx.seconds / 2.0);
    match drive(ctx, &requests) {
        Ok(cap) => {
            let verdicts = judge(&requests, &cap, &mut out.checks);
            layers.requests = requests.len() as u64;
            for (i, response) in verdicts.responses.iter().enumerate() {
                let Some(r) = response else { continue };
                let service_us = r.get("latency_us").and_then(Json::as_f64).unwrap_or(0.0);
                match r.get("warm").and_then(Json::as_str) {
                    Some("hit") => {
                        layers.warm_hits += 1;
                        layers.hit_service_us.push(service_us);
                    }
                    Some("miss") => layers.miss_service_us.push(service_us),
                    _ => {}
                }
                if let Some(latency) = verdicts.latency_ms[i] {
                    layers.queue_wait_ms.push(latency - service_us / 1e3);
                }
            }
            layers.lag_ms = lag_ms(&requests, &cap);
            response_counters(&verdicts.responses, &cap, &mut out);
        }
        Err(e) => {
            out.checks.attempted += requests.len() as u64;
            out.checks.fail(requests.len() as u64, format!("cannot drive fedopt serve: {e}"));
        }
    }

    // The in-process replay fits the time left: an untraced pass over as much of the
    // stream as a quarter of it allows, then the traced pass over the same prefix.
    let (count, untraced_s) =
        replay(&requests, &mut Tracer::new(false), None, (ctx.seconds / 8.0).max(0.5));
    layers.untraced_s = untraced_s;
    let mut tracer = Tracer::new(true);
    layers.traced_s = replay(&requests[..count], &mut tracer, Some(&mut layers), f64::INFINITY).1;

    let (metrics, not_exercised) = layers.metrics();
    out.metrics = metrics;
    out.not_exercised = not_exercised;
    out.named = vec![Metric::new("replayed_requests", count as f64, "count")];
    out.extra.push(("span_summary".to_string(), tracer.summary_json()));
    out.extra.push(("spans".to_string(), tracer.spans_json()));
    out
}
