//! The paper's seven evaluation figures as [`ExperimentSpec`] values — the figure
//! library turned into *data*.
//!
//! Each figure has a [`Variant::Quick`] preset (small device counts and seed grids,
//! suitable for CI and benches) and a [`Variant::Paper`] preset (the paper's 50-device,
//! 100-draws-per-point protocol). These specs are the only definition of the figures:
//! `fedopt run --fig N` runs them, and the `cli_golden` integration test pins the
//! cold-path JSON document of every quick preset byte for byte
//! (`tests/golden/fig2_quick_seeds3.json` and `tests/golden/figN_quick.json`). A smaller
//! run of a figure is a plain edit of its spec (`scenario.devices`, `axis.values`,
//! `seeds`, `arms`).
//!
//! The **paper** presets pin the warm-start continuation on
//! (`engine.warm_start = Some(true)`): a full-scale figure run is exactly the repeated
//! re-solving of slowly-moving problems the continuation was built for (~2.2× end to
//! end), and warm results agree with cold within the solver tolerances. The quick presets
//! leave the flag unset, so the library default — warm, since the continuation became the
//! library-wide default — applies, and an explicit `FEDOPT_WARM_START` environment
//! setting (`0` is the cold escape hatch) still overrides either direction.
//!
//! Beyond the seven figures, [`large_n`] is the fleet-scale quick preset: one sweep point
//! at a caller-chosen device count (10³–10⁶), few seeds, the reference polish disabled —
//! the spec-expressible form of the `large_n` benchmark scenarios.

use crate::spec::{
    ArmKind, ArmSpec, AxisKind, AxisSpec, BenchmarkDraw, DeadlineSpec, ExperimentSpec, Metric,
    ReportSpec, RoundPolicy, RoundPolicySpec, RoundsReportSpec, RoundsSpec, ScenarioSpec, SeedSpec,
    SimTrainingSpec, SolverSpec, StragglerSpec,
};
use baselines::StreamDerivation;
use flsys::Weights;

/// Which preset scale of a figure to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Small CI-friendly preset: fewer devices, one or two seeds and three or four sweep
    /// points, with the fast solver.
    Quick,
    /// The paper's full protocol: its device counts and sweep points, 100 draws per
    /// point, the default solver, warm start on by default.
    Paper,
}

impl Variant {
    fn is_paper(self) -> bool {
        matches!(self, Self::Paper)
    }

    fn suffix(self) -> &'static str {
        match self {
            Self::Quick => "quick",
            Self::Paper => "paper",
        }
    }
}

/// The figure numbers with presets in this module.
pub const FIGURES: [u8; 7] = [2, 3, 4, 5, 6, 7, 8];

/// One-line summaries, parallel to [`FIGURES`] (what `fedopt list` prints).
pub fn summary(fig: u8) -> Option<&'static str> {
    Some(match fig {
        2 => "energy & delay vs maximum transmit power (five weight pairs + benchmark)",
        3 => "energy & delay vs maximum CPU frequency (five weight pairs + benchmark)",
        4 => "energy & delay vs number of devices (total samples fixed)",
        5 => "energy & delay vs cell radius, for N ∈ {20, 50, 80}",
        6 => "energy & delay vs local iterations, for R_g ∈ {50…400}",
        7 => "energy vs completion-time deadline: joint vs comm-only vs comp-only",
        8 => "energy vs maximum transmit power at fixed deadlines: proposed vs Scheme 1",
        _ => return None,
    })
}

/// The spec of one figure at one scale, or `None` for an unknown figure number.
pub fn spec(fig: u8, variant: Variant) -> Option<ExperimentSpec> {
    Some(match fig {
        2 => fig2(variant),
        3 => fig3(variant),
        4 => fig4(variant),
        5 => fig5(variant),
        6 => fig6(variant),
        7 => fig7(variant),
        8 => fig8(variant),
        _ => return None,
    })
}

/// All seven figure specs at one scale, in figure order.
pub fn all(variant: Variant) -> Vec<ExperimentSpec> {
    FIGURES.iter().map(|&fig| spec(fig, variant).expect("FIGURES entries have specs")).collect()
}

fn base(fig: u8, variant: Variant, description: &str) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        &format!("fig{fig}"),
        AxisSpec { kind: AxisKind::PMaxDbm, values: Vec::new() },
    );
    spec.description = format!("Fig. {fig} ({} preset): {description}", variant.suffix());
    spec.solver = if variant.is_paper() { SolverSpec::default() } else { SolverSpec::fast() };
    if variant.is_paper() {
        // Full-scale paper runs default the warm-start continuation on. Quick presets
        // leave it unset, so the library default or `FEDOPT_WARM_START` decides.
        spec.engine.warm_start = Some(true);
    }
    spec
}

fn proposed_sweep_arms(weights: &[Weights]) -> Vec<ArmSpec> {
    weights.iter().map(|&w| ArmSpec::new(ArmKind::Proposed { weights: w })).collect()
}

fn energy_and_delay_reports(fig: u8, subject: &str, x_label: &str) -> Vec<ReportSpec> {
    vec![
        ReportSpec::new(
            &format!("fig{fig}a"),
            Metric::Energy,
            &format!("Total energy consumption vs {subject}"),
            x_label,
        ),
        ReportSpec::new(
            &format!("fig{fig}b"),
            Metric::Time,
            &format!("Total completion time vs {subject}"),
            x_label,
        ),
    ]
}

/// Figure 2 — energy/delay vs maximum transmit power.
pub fn fig2(variant: Variant) -> ExperimentSpec {
    let mut spec = base(
        2,
        variant,
        "total energy and delay vs the maximum transmit power limit, five weight pairs of \
         the proposed algorithm against the random benchmark",
    );
    spec.axis = AxisSpec {
        kind: AxisKind::PMaxDbm,
        values: match variant {
            Variant::Quick => vec![5.0, 8.0, 10.0, 12.0],
            Variant::Paper => (5..=12).map(f64::from).collect(),
        },
    };
    spec.scenario.devices = Some(if variant.is_paper() { 50 } else { 15 });
    spec.arms = proposed_sweep_arms(&Weights::paper_sweep());
    spec.arms.push(ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }));
    spec.seeds = match variant {
        Variant::Quick => SeedSpec::list(vec![11, 12]),
        Variant::Paper => SeedSpec::count(100),
    };
    spec.reports = energy_and_delay_reports(2, "maximum transmit power", "p_max (dBm)");
    spec
}

/// Figure 3 — energy/delay vs maximum CPU frequency.
pub fn fig3(variant: Variant) -> ExperimentSpec {
    let mut spec = base(
        3,
        variant,
        "total energy and delay vs the maximum CPU frequency, five weight pairs of the \
         proposed algorithm against the random benchmark",
    );
    spec.axis = AxisSpec {
        kind: AxisKind::FMaxGhz,
        values: match variant {
            Variant::Quick => vec![0.25, 0.5, 1.0, 2.0],
            Variant::Paper => vec![0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
        },
    };
    spec.scenario.devices = Some(if variant.is_paper() { 50 } else { 15 });
    spec.arms = proposed_sweep_arms(&Weights::paper_sweep());
    spec.arms.push(ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Power }));
    spec.seeds = match variant {
        Variant::Quick => SeedSpec::list(vec![21, 22]),
        Variant::Paper => SeedSpec::count(100),
    };
    spec.reports = energy_and_delay_reports(3, "maximum CPU frequency", "f_max (GHz)");
    spec
}

/// Figure 4 — energy/delay vs number of devices at a fixed total sample count.
pub fn fig4(variant: Variant) -> ExperimentSpec {
    let mut spec = base(
        4,
        variant,
        "total energy and delay vs the number of devices, the total training set fixed at \
         25 000 samples split equally",
    );
    spec.axis = AxisSpec {
        kind: AxisKind::Devices,
        values: match variant {
            Variant::Quick => vec![10.0, 20.0, 40.0],
            Variant::Paper => vec![20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0],
        },
    };
    spec.scenario.total_samples = Some(25_000);
    let weights: Vec<Weights> = match variant {
        Variant::Quick => vec![
            Weights::new(0.9, 0.1).expect("valid"),
            Weights::new(0.5, 0.5).expect("valid"),
            Weights::new(0.1, 0.9).expect("valid"),
        ],
        Variant::Paper => Weights::paper_sweep().to_vec(),
    };
    spec.arms = proposed_sweep_arms(&weights);
    spec.seeds = match variant {
        Variant::Quick => SeedSpec::list(vec![31]),
        Variant::Paper => SeedSpec::count(100),
    };
    spec.reports = energy_and_delay_reports(4, "number of devices", "number of devices");
    spec
}

/// Figure 5 — energy/delay vs cell radius, one series per device count.
pub fn fig5(variant: Variant) -> ExperimentSpec {
    let mut spec = base(
        5,
        variant,
        "total energy and delay vs the radius of the placement disc, one series per device \
         count, at w1 = w2 = 0.5",
    );
    spec.axis = AxisSpec {
        kind: AxisKind::RadiusKm,
        values: match variant {
            Variant::Quick => vec![0.1, 0.5, 1.0],
            Variant::Paper => vec![0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5],
        },
    };
    spec.scenario.samples_per_device = Some(500);
    let device_counts: &[usize] = match variant {
        Variant::Quick => &[10, 20],
        Variant::Paper => &[20, 50, 80],
    };
    spec.arms = device_counts
        .iter()
        .map(|&n| {
            ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })
                .labeled(format!("N = {n}"))
                .with_scenario(ScenarioSpec { devices: Some(n), ..ScenarioSpec::default() })
        })
        .collect();
    spec.seeds = match variant {
        Variant::Quick => SeedSpec::list(vec![41]),
        Variant::Paper => SeedSpec::count(100),
    };
    spec.reports = energy_and_delay_reports(5, "cell radius (w1 = w2 = 0.5)", "radius (km)");
    spec
}

/// Figure 6 — energy/delay vs local iterations, one series per global-round count.
pub fn fig6(variant: Variant) -> ExperimentSpec {
    let mut spec = base(
        6,
        variant,
        "total energy and delay vs the local iterations per global round, one series per \
         global-round count, at w1 = w2 = 0.5",
    );
    spec.axis = AxisSpec {
        kind: AxisKind::LocalIterations,
        values: match variant {
            Variant::Quick => vec![10.0, 50.0, 110.0],
            Variant::Paper => vec![10.0, 30.0, 50.0, 70.0, 90.0, 110.0],
        },
    };
    spec.scenario.devices = Some(if variant.is_paper() { 50 } else { 10 });
    let global_rounds: &[u32] = match variant {
        Variant::Quick => &[50, 400],
        Variant::Paper => &[50, 100, 200, 300, 400],
    };
    spec.arms = global_rounds
        .iter()
        .map(|&rg| {
            ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })
                .labeled(format!("R_g = {rg}"))
                .with_scenario(ScenarioSpec { global_rounds: Some(rg), ..ScenarioSpec::default() })
        })
        .collect();
    spec.seeds = match variant {
        Variant::Quick => SeedSpec::list(vec![51]),
        Variant::Paper => SeedSpec::count(100),
    };
    spec.reports = energy_and_delay_reports(
        6,
        "local iterations per round (w1 = w2 = 0.5)",
        "local iterations R_l",
    );
    spec
}

/// Figure 7 — energy vs completion-time deadline: joint vs comm-only vs comp-only.
pub fn fig7(variant: Variant) -> ExperimentSpec {
    let mut spec = base(
        7,
        variant,
        "total energy vs the maximum completion time, the joint optimizer against \
         communication-only and computation-only optimization at p_max = 10 dBm",
    );
    spec.axis = AxisSpec {
        kind: AxisKind::DeadlineS,
        values: match variant {
            Variant::Quick => vec![100.0, 120.0, 150.0],
            Variant::Paper => vec![100.0, 110.0, 120.0, 130.0, 140.0, 150.0],
        },
    };
    spec.scenario.devices = Some(if variant.is_paper() { 50 } else { 12 });
    spec.scenario.p_max_dbm = Some(10.0);
    spec.arms = vec![
        ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::Axis }),
        ArmSpec::new(ArmKind::CommOnly),
        ArmSpec::new(ArmKind::CompOnly),
    ];
    spec.seeds = match variant {
        Variant::Quick => SeedSpec::list(vec![61]),
        Variant::Paper => SeedSpec::count(100),
    };
    spec.reports = vec![ReportSpec::new(
        "fig7",
        Metric::Energy,
        "Total energy consumption vs maximum completion time",
        "maximum completion time T (s)",
    )];
    spec
}

/// Figure 8 — energy vs maximum transmit power at fixed deadlines: proposed vs Scheme 1.
pub fn fig8(variant: Variant) -> ExperimentSpec {
    let mut spec = base(
        8,
        variant,
        "total energy vs the maximum transmit power at fixed completion-time deadlines, \
         the proposed algorithm against Scheme 1 (Yang et al., IEEE TWC 2021)",
    );
    spec.axis = AxisSpec {
        kind: AxisKind::PMaxDbm,
        values: match variant {
            Variant::Quick => vec![6.0, 9.0, 12.0],
            Variant::Paper => (5..=12).map(f64::from).collect(),
        },
    };
    spec.scenario.devices = Some(if variant.is_paper() { 50 } else { 12 });
    let deadlines: &[f64] = match variant {
        Variant::Quick => &[100.0, 150.0],
        Variant::Paper => &[80.0, 100.0, 150.0],
    };
    spec.arms = deadlines
        .iter()
        .flat_map(|&t| {
            [
                ArmSpec::new(ArmKind::Scheme1 { deadline_s: t }),
                ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) }),
            ]
        })
        .collect();
    spec.seeds = match variant {
        Variant::Quick => SeedSpec::list(vec![71]),
        Variant::Paper => SeedSpec::count(100),
    };
    spec.reports = vec![ReportSpec::new(
        "fig8",
        Metric::Energy,
        "Total energy consumption vs maximum transmit power at fixed deadlines",
        "p_max (dBm)",
    )];
    spec
}

/// Fleet-scale single-scenario quick preset: one sweep point at `devices` devices, one
/// seed, the balanced-weights proposed arm only.
///
/// This is the spec-expressible form of the `large_n` benchmark scenarios (10³–10⁶
/// devices — the [`crate::spec::MAX_DEVICES`] guardrail still applies at validation).
/// Two deliberate departures from the figure presets:
///
/// * the **reference polish is off** (`solver.polish_with_reference = Some(false)`): the
///   Subproblem-2 reference polish re-solves the reduced problem after every Newton-like
///   solve — `O(n)` per-device price responses at every step of a Brent search for the
///   clearing price — which is cheap at paper scale but a large share of a solve past
///   ~10³ devices, while the KKT path it cross-checks is itself `O(n log n)`;
/// * the seed grid is a single draw: at fleet scale the per-scenario solve *is* the
///   experiment, and averaging belongs in seed-sharded shards (see
///   [`crate::spec::MAX_SEEDS`]).
pub fn large_n(devices: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        "large_n",
        AxisSpec { kind: AxisKind::Devices, values: vec![devices as f64] },
    );
    spec.description = format!(
        "large_n (quick preset): one balanced-weights solve of a {devices}-device scenario \
         (fleet-scale hot-path exercise; reference polish off)"
    );
    spec.solver = SolverSpec::fast();
    spec.solver.polish_with_reference = Some(false);
    spec.scenario.samples_per_device = Some(500);
    spec.arms = vec![ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })];
    spec.seeds = SeedSpec::list(vec![1]);
    spec.reports = vec![
        ReportSpec::new(
            "large_n_energy",
            Metric::Energy,
            "Total energy consumption at fleet scale",
            "number of devices",
        ),
        ReportSpec::new(
            "large_n_time",
            Metric::Time,
            "Total completion time at fleet scale",
            "number of devices",
        ),
    ];
    spec
}

// ---------------------------------------------------------------------------
// Round-simulation presets (`fedopt sim --preset <name>`)
// ---------------------------------------------------------------------------

/// The named round-simulation presets, in listing order.
pub const SIM_PRESETS: [&str; 2] = ["rounds-quick", "rounds-paper"];

/// One-line summaries, parallel to [`SIM_PRESETS`] (what `fedopt list` prints).
pub fn sim_summary(name: &str) -> Option<&'static str> {
    Some(match name {
        "rounds-quick" => {
            "12-round fading/straggler simulation, 8 devices, 3 seeds: re-solve vs static \
             vs FedAECS vs ELASTIC"
        }
        "rounds-paper" => {
            "40-round fading/straggler simulation, 10 devices, 10 seeds: re-solve vs \
             static vs FedAECS vs ELASTIC"
        }
        _ => return None,
    })
}

/// The spec of one round-simulation preset, or `None` for an unknown name.
pub fn sim(name: &str) -> Option<ExperimentSpec> {
    Some(match name {
        "rounds-quick" => rounds_quick(),
        "rounds-paper" => rounds_paper(),
        _ => return None,
    })
}

/// The four-policy column set every sim preset compares. The solver arms run
/// energy-only weights (the paper's Figs. 7–8 setting): with `w1 = 1` the per-round
/// re-solve is energy-optimal for each redrawn channel, so it beats replaying the round-0
/// allocation on cumulative energy by construction — the gap the sim measures is pure
/// re-optimization gain.
fn sim_policies() -> Vec<RoundPolicySpec> {
    vec![
        RoundPolicySpec::new(RoundPolicy::ReSolve { weights: Weights::energy_only() })
            .labeled("re-solve"),
        RoundPolicySpec::new(RoundPolicy::Static { weights: Weights::energy_only() })
            .labeled("static"),
        // ε_n = ln(1 + 0.05·60) ≈ 1.39 per device; Γ ≥ 1.8 needs about four of them.
        RoundPolicySpec::new(RoundPolicy::FedAecs { epsilon: 1.8, mu: 0.05, t_max_s: None })
            .labeled("fedaecs"),
        // n_i = α·(E_i + 1) − 1 ≤ 0 ⟺ E_i ≤ (1 − α)/α ≈ 0.031 J: admits the cheap half
        // of the fleet under the sequential-upload energy model.
        RoundPolicySpec::new(RoundPolicy::Elastic { alpha: 0.97 }).labeled("elastic"),
    ]
}

/// Quick round-simulation preset: 8 devices, 12 rounds, 3 seeds, 6 dB per-round refades,
/// mild stragglers, the fast solver.
///
/// The scenario's `R_g` is pinned to the simulated horizon so the solver's objective
/// (which scales energy by `R_g`) prices exactly the rounds being simulated.
pub fn rounds_quick() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        "rounds-quick",
        AxisSpec { kind: AxisKind::Devices, values: vec![8.0] },
    );
    spec.description = "rounds-quick (sim preset): 12 global rounds over an 8-device \
                        scenario with 6 dB per-round refades and stragglers — the paper's \
                        re-solved optimizer vs a static allocation vs FedAECS/ELASTIC \
                        selection"
        .to_string();
    spec.solver = SolverSpec::fast();
    spec.scenario.global_rounds = Some(12);
    spec.seeds = SeedSpec::list(vec![11, 12, 13]);
    spec.rounds = Some(RoundsSpec {
        rounds: 12,
        refade_db: 6.0,
        channel_stream: StreamDerivation::RoundChannelFnv,
        straggler: StragglerSpec { dropout: 0.08, slow: 0.15, slow_factor: 2.0 },
        training: SimTrainingSpec::default(),
        policies: sim_policies(),
        report: RoundsReportSpec {
            id: "rounds-quick".to_string(),
            title: "Round trajectory under per-round fading and stragglers (quick)".to_string(),
        },
    });
    spec
}

/// Full-scale round-simulation preset: 10 devices, 40 rounds, 10 seeds, heavier
/// stragglers, the default solver, warm-start continuation pinned on (the per-round
/// re-solve is exactly the repeated slowly-moving problem the continuation was built
/// for).
pub fn rounds_paper() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        "rounds-paper",
        AxisSpec { kind: AxisKind::Devices, values: vec![10.0] },
    );
    spec.description = "rounds-paper (sim preset): 40 global rounds over a 10-device \
                        scenario with 6 dB per-round refades and heavier stragglers — the \
                        paper's re-solved optimizer vs a static allocation vs \
                        FedAECS/ELASTIC selection"
        .to_string();
    spec.engine.warm_start = Some(true);
    spec.scenario.global_rounds = Some(40);
    spec.seeds = SeedSpec::count(10);
    spec.rounds = Some(RoundsSpec {
        rounds: 40,
        refade_db: 6.0,
        channel_stream: StreamDerivation::RoundChannelFnv,
        straggler: StragglerSpec { dropout: 0.1, slow: 0.2, slow_factor: 2.5 },
        training: SimTrainingSpec::default(),
        policies: sim_policies(),
        report: RoundsReportSpec {
            id: "rounds-paper".to_string(),
            title: "Round trajectory under per-round fading and stragglers (full scale)"
                .to_string(),
        },
    });
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SolverPreset;

    #[test]
    fn every_figure_has_both_variants_and_they_validate() {
        for &fig in &FIGURES {
            assert!(summary(fig).is_some(), "figure {fig} needs a summary");
            for variant in [Variant::Quick, Variant::Paper] {
                let spec = spec(fig, variant).unwrap();
                spec.validate().unwrap_or_else(|e| panic!("fig{fig} {variant:?}: {e}"));
                assert_eq!(spec.id, format!("fig{fig}"));
                assert!(!spec.reports.is_empty());
            }
        }
        assert!(spec(1, Variant::Quick).is_none());
        assert!(spec(9, Variant::Paper).is_none());
        assert!(summary(0).is_none());
        assert_eq!(all(Variant::Quick).len(), FIGURES.len());
    }

    #[test]
    fn paper_presets_default_warm_start_on_and_quick_stays_cold() {
        for &fig in &FIGURES {
            let quick = spec(fig, Variant::Quick).unwrap();
            assert_eq!(
                quick.engine.warm_start, None,
                "fig{fig} quick must inherit the library default (warm, FEDOPT_WARM_START=0 \
                 to escape)"
            );
            assert_eq!(quick.solver.preset, SolverPreset::Fast);
            let paper = spec(fig, Variant::Paper).unwrap();
            assert_eq!(
                paper.engine.warm_start,
                Some(true),
                "fig{fig} paper must default the warm-start continuation on"
            );
            assert_eq!(paper.solver.preset, SolverPreset::Default);
            assert_eq!(paper.seeds, SeedSpec::count(100), "paper protocol is 100 draws/point");
        }
    }

    #[test]
    fn paper_scales_match_the_paper_protocol() {
        let fig2 = spec(2, Variant::Paper).unwrap();
        assert_eq!(fig2.scenario.devices, Some(50));
        assert_eq!(fig2.axis.values.len(), 8);
        assert_eq!(fig2.arms.len(), 6);
        let fig5 = spec(5, Variant::Paper).unwrap();
        assert_eq!(fig5.arms.len(), 3);
        assert_eq!(fig5.arms[1].label.as_deref(), Some("N = 50"));
        let fig8 = spec(8, Variant::Paper).unwrap();
        assert_eq!(fig8.arms.len(), 6, "a (scheme1, proposed) pair per deadline");
    }

    #[test]
    fn sim_presets_validate_and_round_trip() {
        for name in SIM_PRESETS {
            assert!(sim_summary(name).is_some(), "{name} needs a summary");
            let spec = sim(name).unwrap();
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.id, name);
            let rounds = spec.rounds.as_ref().expect("sim presets carry a rounds section");
            assert_eq!(rounds.policies.len(), 4);
            assert_eq!(rounds.report.id, name);
            assert!(spec.arms.is_empty(), "sim presets have no sweep arms");
            // The rounds section survives the wire format losslessly.
            let text = spec.to_json_string();
            assert_eq!(ExperimentSpec::from_json_str(&text).unwrap(), spec);
        }
        assert!(sim("rounds-nope").is_none());
        assert!(sim_summary("fig2").is_none());
    }

    #[test]
    fn large_n_preset_validates_and_disables_the_reference_polish() {
        for devices in [1_000usize, 10_000, 100_000] {
            let spec = large_n(devices);
            spec.validate().unwrap_or_else(|e| panic!("large_n({devices}): {e}"));
            assert_eq!(spec.axis.kind, AxisKind::Devices);
            assert_eq!(spec.axis.values, vec![devices as f64]);
            assert_eq!(spec.solver.polish_with_reference, Some(false));
            assert_eq!(spec.arms.len(), 1);
        }
        // Past the guardrail the spec must fail loudly at validation.
        let err = large_n(crate::spec::MAX_DEVICES + 1).validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("large_n"), "guardrail error must point at the preset: {msg}");
    }
}
