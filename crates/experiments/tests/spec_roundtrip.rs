//! Lossless-serialization guarantees of the spec wire format: every CLI preset and a
//! property-tested space of generated [`ExperimentSpec`]s survive
//! `parse(serialize(spec)) == spec` exactly, and the canonical serialized form is stable
//! under re-serialization (diff- and cache-safe).

use experiments::presets::{self, Variant};
use experiments::spec::{
    ArmKind, ArmSpec, AxisKind, AxisSpec, BenchmarkDraw, DeadlineSpec, EngineSpec, ExperimentSpec,
    Metric, ReportSpec, ScenarioSpec, SeedPolicy, SeedSpec, SolverPreset, SolverSpec,
};
use flsys::Weights;
use proptest::prelude::*;
use proptest::TestRng;

/// Every spec the CLI can emit or run from a preset round-trips losslessly, and its
/// canonical form is a fixed point of serialize ∘ parse.
#[test]
fn all_cli_presets_round_trip_losslessly() {
    for variant in [Variant::Quick, Variant::Paper] {
        for spec in presets::all(variant) {
            let text = spec.to_json_string();
            let parsed = ExperimentSpec::from_json_str(&text)
                .unwrap_or_else(|e| panic!("{} failed to re-parse: {e}\n{text}", spec.id));
            assert_eq!(parsed, spec, "{} ({variant:?}) is not lossless", spec.id);
            assert_eq!(parsed.to_json_string(), text, "{} is not canonical", spec.id);
        }
    }
}

/// And so do seed-range overrides of the presets (the `--seeds N` path the CI smoke job
/// pipes around).
#[test]
fn seed_overridden_presets_round_trip() {
    for &fig in &presets::FIGURES {
        let mut spec = presets::spec(fig, Variant::Quick).unwrap();
        spec.override_seed_count(3);
        let text = spec.to_json_string();
        assert_eq!(ExperimentSpec::from_json_str(&text).unwrap(), spec);
    }
}

// ---------------------------------------------------------------------------
// Property test: generated specs
// ---------------------------------------------------------------------------

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// A uniform f64 with a few decimals (keeps failures readable; exactness is guaranteed by
/// the format for *any* f64 and is additionally exercised by the raw `below`-derived
/// values below).
fn small_f64(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + rng.unit_f64() * (hi - lo)
}

fn arbitrary_scenario(rng: &mut TestRng) -> ScenarioSpec {
    let mut scenario = ScenarioSpec::default();
    if rng.below(2) == 0 {
        scenario.devices = Some(1 + rng.below(100) as usize);
    }
    if rng.below(2) == 0 {
        scenario.radius_km = Some(small_f64(rng, 0.05, 2.0));
    }
    match rng.below(3) {
        0 => scenario.samples_per_device = Some(1 + rng.below(1000)),
        1 => scenario.total_samples = Some(1 + rng.below(100_000)),
        _ => {}
    }
    if rng.below(2) == 0 {
        let lo = small_f64(rng, 1.0e3, 1.0e5);
        scenario.cycles_per_sample = Some((lo, lo * (1.0 + rng.unit_f64())));
    }
    if rng.below(3) == 0 {
        scenario.upload_bits = Some(small_f64(rng, 1.0e3, 1.0e6));
    }
    if rng.below(3) == 0 {
        scenario.p_min_dbm = Some(small_f64(rng, -5.0, 3.0));
    }
    if rng.below(3) == 0 {
        scenario.p_max_dbm = Some(small_f64(rng, 5.0, 20.0));
    }
    if rng.below(4) == 0 {
        scenario.f_min_hz = Some(small_f64(rng, 1.0e5, 1.0e7));
    }
    if rng.below(4) == 0 {
        scenario.f_max_ghz = Some(small_f64(rng, 0.5, 3.0));
    }
    if rng.below(3) == 0 {
        scenario.global_rounds = Some(1 + rng.below(500) as u32);
    }
    if rng.below(3) == 0 {
        scenario.local_iterations = Some(1 + rng.below(200) as u32);
    }
    if rng.below(4) == 0 {
        scenario.total_bandwidth_hz = Some(small_f64(rng, 1.0e6, 1.0e8));
    }
    if rng.below(4) == 0 {
        scenario.shadowing_db = Some(small_f64(rng, 0.0, 12.0));
    }
    scenario
}

fn arbitrary_arm(rng: &mut TestRng, axis: AxisKind) -> ArmSpec {
    // Axis-deadline arms are only valid on a deadline axis.
    let kind = if axis == AxisKind::DeadlineS { rng.below(7) } else { rng.below(4) };
    let kind = match kind {
        0 => {
            let w1 = rng.below(11) as f64 / 10.0;
            ArmKind::Proposed { weights: Weights::new(w1, 1.0 - w1).expect("valid pair") }
        }
        1 => ArmKind::Benchmark {
            draw: *pick(rng, &[BenchmarkDraw::Frequency, BenchmarkDraw::Power]),
        },
        2 => ArmKind::Scheme1 { deadline_s: small_f64(rng, 40.0, 200.0) },
        3 => ArmKind::DeadlineProposed {
            deadline: DeadlineSpec::FixedS(small_f64(rng, 40.0, 200.0)),
        },
        4 => ArmKind::DeadlineProposed { deadline: DeadlineSpec::Axis },
        5 => ArmKind::CommOnly,
        _ => ArmKind::CompOnly,
    };
    let mut arm = ArmSpec::new(kind);
    if rng.below(3) == 0 {
        arm = arm.labeled(format!("series {} — \"{}\"", rng.below(100), rng.below(10)));
    }
    if rng.below(3) == 0 {
        arm = arm.with_scenario(arbitrary_scenario(rng));
    }
    arm
}

fn arbitrary_spec(rng: &mut TestRng) -> ExperimentSpec {
    let axis_kind = *pick(
        rng,
        &[
            AxisKind::PMaxDbm,
            AxisKind::FMaxGhz,
            AxisKind::Devices,
            AxisKind::RadiusKm,
            AxisKind::LocalIterations,
            AxisKind::GlobalRounds,
            AxisKind::DeadlineS,
        ],
    );
    let n_values = 1 + rng.below(5) as usize;
    let values: Vec<f64> = (0..n_values)
        .map(|_| {
            if axis_kind.is_integer() {
                (1 + rng.below(200)) as f64
            } else {
                // Raw 53-bit-derived values: exercises shortest-round-trip formatting on
                // floats with long decimal expansions, not just tidy literals.
                small_f64(rng, 0.01, 250.0)
            }
        })
        .collect();
    let mut spec = ExperimentSpec::new(
        &format!("gen-{}", rng.below(1_000_000)),
        AxisSpec { kind: axis_kind, values },
    );
    spec.description =
        "generated by the round-trip property test\n\"quotes\" and ünïcode".to_string();
    spec.scenario = arbitrary_scenario(rng);
    let n_arms = 1 + rng.below(4) as usize;
    spec.arms = (0..n_arms).map(|_| arbitrary_arm(rng, axis_kind)).collect();
    spec.seeds = if rng.below(2) == 0 {
        SeedSpec {
            policy: SeedPolicy::Range { start: rng.below(1 << 40), count: 1 + rng.below(10_000) },
            stream_derivation: Default::default(),
        }
    } else {
        let n = 1 + rng.below(8);
        SeedSpec::list((0..n).map(|_| rng.below(1 << 53)).collect::<Vec<u64>>())
    };
    spec.solver = SolverSpec {
        preset: *pick(rng, &[SolverPreset::Default, SolverPreset::Fast]),
        outer_max_iter: (rng.below(3) == 0).then(|| 1 + rng.below(50) as usize),
        outer_tol: (rng.below(3) == 0).then(|| small_f64(rng, 1.0e-8, 1.0e-2)),
        mu_tol: (rng.below(4) == 0).then(|| small_f64(rng, 1.0e-12, 1.0e-6)),
        scalar_tol: (rng.below(4) == 0).then(|| small_f64(rng, 1.0e-9, 1.0e-4)),
        feasibility_tol: (rng.below(4) == 0).then(|| small_f64(rng, 1.0e-9, 1.0e-4)),
        bandwidth_floor_hz: (rng.below(4) == 0).then(|| small_f64(rng, 0.1, 100.0)),
        polish_with_reference: (rng.below(3) == 0).then(|| rng.below(2) == 0),
        warm_rmin_tol: (rng.below(4) == 0).then(|| small_f64(rng, 1.0e-6, 1.0e-2)),
    };
    spec.engine = EngineSpec {
        threads: (rng.below(3) == 0).then(|| 1 + rng.below(16) as usize),
        warm_start: (rng.below(3) == 0).then(|| rng.below(2) == 0),
        shard_retries: (rng.below(4) == 0).then(|| rng.below(5)),
        shard_timeout_s: (rng.below(4) == 0).then(|| 1 + rng.below(600)),
    };
    let n_reports = rng.below(3) as usize;
    spec.reports = (0..n_reports)
        .map(|i| {
            ReportSpec::new(
                &format!("gen{i}"),
                *pick(rng, &[Metric::Energy, Metric::Time]),
                "generated title — with punctuation: [a]/{b}",
                "x label (units)",
            )
        })
        .collect();
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(serialize(spec)) == spec` over the generated spec space, and serialization
    /// is canonical (a second round trip is byte-identical).
    #[test]
    fn generated_specs_round_trip_losslessly(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let spec = arbitrary_spec(&mut rng);
        prop_assert!(spec.validate().is_ok(), "generator produced an invalid spec: {spec:?}");
        let text = spec.to_json_string();
        let parsed = match ExperimentSpec::from_json_str(&text) {
            Ok(parsed) => parsed,
            Err(e) => return Err(TestCaseError::fail(format!("re-parse failed: {e}\n{text}"))),
        };
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.to_json_string(), text);
    }
}
