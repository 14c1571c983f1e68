//! Workload inputs, each a pure function of the workload seed (and, for the batch
//! workloads, of the chunk index). The program under test only ever sees what these
//! functions generate.

use experiments::json::fnv1a_64;
use experiments::presets::{self, Variant};
use experiments::spec::{ArmKind, ArmSpec, DeadlineSpec, SeedSpec};
use experiments::ExperimentSpec;
use fedopt_core::{JointOptimizer, SolverConfig};

/// The seed a run uses when `--seed` is not given; the committed sweep reference table
/// covers it and the nine seeds after it.
pub const DEFAULT_SEED: u64 = 1;

/// The completion-time deadline of the sweep's Scheme 1 and deadline-proposed arms.
pub const SWEEP_DEADLINE_S: f64 = 100.0;

/// Scenario seeds per `sim-rounds` chunk (half the `rounds-paper` preset's ten, so a run
/// times many short chunks).
pub const SIM_SEEDS_PER_CHUNK: usize = 5;

/// Devices of the `fleet-1e5` solve.
pub const FLEET_DEVICES: usize = 100_000;

/// Devices of the `fleet-1e5` set-up input: one cell of the same spec at a size whose
/// solve is negligible next to process start, spec parse and workspace set-up.
pub const FLEET_SETUP_DEVICES: usize = 1_000;

/// Mean arrival rate of the `serve-mixed` open loop, requests per second.
pub const SERVE_RATE_PER_S: f64 = 150.0;

/// Probability that a `serve-mixed` request repeats the previous request's cohort.
pub const SERVE_REPEAT_SHARE: f64 = 0.5;

/// `serve-mixed` cohort sizes and their probabilities (skewed small).
pub const SERVE_DEVICES: [(usize, f64); 4] = [(5, 0.5), (10, 0.3), (20, 0.15), (50, 0.05)];

/// Probability that a fresh `serve-mixed` cohort asks for the default solver preset
/// (the rest ask for `fast`).
pub const SERVE_DEFAULT_PRESET_SHARE: f64 = 0.2;

/// SplitMix64: a tiny, fully specified generator, so inputs never depend on a library's
/// random-number implementation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one (workload, seed, chunk) stream.
    pub fn stream(workload: &str, seed: u64, chunk: u64) -> Self {
        let mut state = fnv1a_64(workload.as_bytes());
        state ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        state = state.rotate_left(17) ^ chunk.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        Self(state)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A scenario seed: 40 bits, well inside the exact JSON integer range.
    pub fn scenario_seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }
}

/// One chunk of `sweep-paper`: one point of the paper's Fig. 2 protocol (50 devices, the
/// five weight pairs and the random benchmark, default solver, warm start on) plus
/// Scheme 1 and the deadline-constrained proposed arm at [`SWEEP_DEADLINE_S`], over one
/// seed-drawn scenario seed. Chunk `c` takes the `c mod 8`-th `p_max` of 5–12 dBm, so
/// every eight chunks cover the whole axis.
///
/// About one scenario in a hundred cannot meet the deadline even with every resource at
/// its maximum; the deadline arm then reports it infeasible. The workload keeps to
/// scenarios with room under the deadline: a drawn seed is used only if the fastest
/// possible completion time at the hardest sweep point (the lowest `p_max`) is at most
/// 90 % of the deadline.
pub fn sweep_spec(seed: u64, chunk: u64) -> ExperimentSpec {
    let mut spec = presets::fig2(Variant::Paper);
    spec.id = "sweep-paper".to_string();
    spec.arms.push(ArmSpec::new(ArmKind::Scheme1 { deadline_s: SWEEP_DEADLINE_S }));
    spec.arms.push(ArmSpec::new(ArmKind::DeadlineProposed {
        deadline: DeadlineSpec::FixedS(SWEEP_DEADLINE_S),
    }));
    let hardest = spec.grid().expect("the sweep spec is valid").points[0].builder.clone();
    let point = spec.axis.values[(chunk % spec.axis.values.len() as u64) as usize];
    spec.axis.values = vec![point];
    let mut rng = SplitMix64::stream("sweep-paper", seed, chunk);
    let scenario_seed = loop {
        let candidate = rng.scenario_seed();
        let scenario = hardest.build(candidate).expect("paper scenarios build");
        let fastest = JointOptimizer::new(SolverConfig::default())
            .minimize_round_time(&scenario)
            .map(|(_, round_s)| round_s * scenario.params.rg());
        if fastest.is_ok_and(|t| t <= 0.9 * SWEEP_DEADLINE_S) {
            break candidate;
        }
    };
    spec.seeds = SeedSpec::list(vec![scenario_seed]);
    spec
}

/// One chunk of `sim-rounds`: the `rounds-paper` shape (10 devices, 40 rounds, four
/// policies, default solver) over [`SIM_SEEDS_PER_CHUNK`] seed-drawn scenario seeds.
pub fn sim_spec(seed: u64, chunk: u64) -> ExperimentSpec {
    let mut spec = presets::rounds_paper();
    spec.id = "sim-rounds".to_string();
    let mut rng = SplitMix64::stream("sim-rounds", seed, chunk);
    spec.seeds =
        SeedSpec::list((0..SIM_SEEDS_PER_CHUNK).map(|_| rng.scenario_seed()).collect::<Vec<_>>());
    spec
}

/// One chunk of `fleet-1e5`: the `large_n` preset at [`FLEET_DEVICES`] devices (fast
/// solver, polish off, balanced weights) over one seed-drawn scenario.
pub fn fleet_spec(seed: u64, chunk: u64) -> ExperimentSpec {
    let mut spec = presets::large_n(FLEET_DEVICES);
    spec.id = "fleet-1e5".to_string();
    let mut rng = SplitMix64::stream("fleet-1e5", seed, chunk);
    spec.seeds = SeedSpec::list(vec![rng.scenario_seed()]);
    spec
}

/// The set-up input of a batch workload: its chunk-0 spec cut to one cell — the first
/// axis value, the first seed, and its cheapest column (the random benchmark of a sweep,
/// the last policy and one round of a simulation) — so a run covers process start, spec
/// parse, scenario build and workspace set-up but almost no solving.
pub fn one_cell(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut one = spec.clone();
    one.axis.values.truncate(1);
    if let Some(bench) = spec.arms.iter().position(|a| matches!(a.kind, ArmKind::Benchmark { .. }))
    {
        one.arms = vec![spec.arms[bench].clone()];
    }
    one.arms.truncate(1);
    one.seeds = SeedSpec::list(vec![spec.seeds.values()[0]]);
    if let Some(rounds) = &mut one.rounds {
        rounds.rounds = 1;
        rounds.policies = rounds.policies.split_off(rounds.policies.len() - 1);
    }
    one
}

/// One request of the `serve-mixed` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// When the request is due to be sent, nanoseconds after the stream starts.
    pub due_ns: u64,
    /// The request line (JSON, no trailing newline).
    pub line: String,
    /// Whether this request repeats the previous request's cohort (a warm-cache hit on a
    /// one-worker server).
    pub repeat: bool,
    /// Cohort size of the request.
    pub devices: usize,
    /// Solver preset of the request, `fast` or `default`.
    pub preset: &'static str,
}

/// The `serve-mixed` request stream for a run of `seconds`: Poisson arrivals at
/// [`SERVE_RATE_PER_S`]; cohorts of [`SERVE_DEVICES`] devices with the `fast` or
/// `default` preset; about [`SERVE_REPEAT_SHARE`] of the requests repeat the previous
/// cohort; no deadlines.
pub fn serve_stream(seed: u64, seconds: f64) -> Vec<ServeRequest> {
    let mut rng = SplitMix64::stream("serve-mixed", seed, 0);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut previous: Option<(usize, u64, &str)> = None;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / SERVE_RATE_PER_S;
        if t >= seconds {
            break;
        }
        let repeat = previous.is_some() && rng.next_f64() < SERVE_REPEAT_SHARE;
        let (devices, scenario_seed, preset) = match previous {
            Some(cohort) if repeat => cohort,
            _ => {
                let mut u = rng.next_f64();
                let mut devices = SERVE_DEVICES[SERVE_DEVICES.len() - 1].0;
                for &(n, p) in &SERVE_DEVICES {
                    if u < p {
                        devices = n;
                        break;
                    }
                    u -= p;
                }
                let preset =
                    if rng.next_f64() < SERVE_DEFAULT_PRESET_SHARE { "default" } else { "fast" };
                (devices, rng.scenario_seed(), preset)
            }
        };
        previous = Some((devices, scenario_seed, preset));
        let line = format!(
            "{{\"schema_version\":1,\"id\":\"r{}\",\"scenario\":{{\"devices\":{devices}}},\
             \"seed\":{scenario_seed},\"solver\":{{\"preset\":\"{preset}\"}}}}",
            out.len()
        );
        out.push(ServeRequest { due_ns: (t * 1e9) as u64, line, repeat, devices, preset });
    }
    out
}
