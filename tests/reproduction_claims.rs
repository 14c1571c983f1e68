//! Small-scale versions of the qualitative claims of the paper's evaluation section, run
//! through the same figure presets that regenerate the figures. Each claim edits a quick
//! preset down to a few devices, one seed and two sweep values. The experiments crate's
//! unit tests check the fig 2, 6, 7 and 8 claims on one more input each.

use experiments::presets::{self, Variant};
use experiments::spec::{ArmKind, ArmSpec, DeadlineSpec, ExperimentSpec, ScenarioSpec, SeedSpec};
use experiments::FigureReport;
use flsys::Weights;

/// A quick figure preset averaged over the single draw `seed` at the sweep values `xs`.
fn quick(fig: u8, seed: u64, xs: &[f64]) -> ExperimentSpec {
    let mut spec = presets::spec(fig, Variant::Quick).expect("figure preset exists");
    spec.seeds = SeedSpec::list(vec![seed]);
    spec.axis.values = xs.to_vec();
    spec
}

fn proposed(w1: f64, w2: f64) -> ArmSpec {
    ArmSpec::new(ArmKind::Proposed { weights: Weights::new(w1, w2).unwrap() })
}

fn reports(spec: &ExperimentSpec) -> Vec<FigureReport> {
    spec.run().expect("claim spec must evaluate").reports
}

#[test]
fn fig2_claims_hold_at_small_scale() {
    // At this device count the paper's "every weight pair beats the benchmark on energy"
    // only holds for the energy-leaning pairs (the energy optimum scales with 1/N), so the
    // robust cross-scale claims are: the energy-focused pair wins on energy, the
    // time-focused pair wins on delay, and both metrics are monotone in the weights.
    let mut spec = quick(2, 201, &[6.0, 12.0]);
    spec.scenario.devices = Some(8);
    let benchmark = spec.arms.pop().expect("the fig2 preset ends with the benchmark");
    spec.arms = vec![proposed(0.9, 0.1), proposed(0.1, 0.9), benchmark];
    let reports = reports(&spec);
    let (energy, delay) = (&reports[0], &reports[1]);
    assert_eq!(energy.rows.len(), 2);
    for ((_, e_row), (_, t_row)) in energy.rows.iter().zip(&delay.rows) {
        let e_bench = *e_row.last().unwrap();
        let t_bench = *t_row.last().unwrap();
        // w1 = 0.9 beats the benchmark on energy (Fig. 2a's headline).
        assert!(e_row[0] < e_bench, "w1=0.9 energy {} vs {e_bench}", e_row[0]);
        // w2 = 0.9 beats the benchmark on delay (Fig. 2b's headline).
        assert!(t_row[1] < t_bench, "w2=0.9 delay {} vs {t_bench}", t_row[1]);
        // Larger w1 ⇒ lower energy; larger w2 ⇒ lower delay.
        assert!(e_row[0] <= e_row[1] * 1.05);
        assert!(t_row[1] <= t_row[0] * 1.05);
    }
    // Every cell averaged its full seed set.
    assert_eq!(energy.counts, vec![vec![1; energy.columns.len()]; energy.rows.len()]);
}

#[test]
fn fig3_proposed_energy_plateaus_while_the_benchmark_rises() {
    // With 6 devices and an energy-leaning weight pair the unconstrained optimum frequency
    // sits well below 1.2 GHz, so the plateau (Fig. 3a's flat proposed lines) shows
    // between caps of 1.2 GHz and 2 GHz while the benchmark, which always runs at the
    // cap, keeps rising.
    let mut spec = quick(3, 2, &[1.2, 2.0]);
    spec.scenario.devices = Some(6);
    let benchmark = spec.arms.pop().expect("the fig3 preset ends with the benchmark");
    spec.arms = vec![proposed(0.9, 0.1), benchmark];
    let reports = reports(&spec);
    let energy = &reports[0];
    let (bench_low, bench_high) = (energy.rows[0].1[1], energy.rows[1].1[1]);
    assert!(bench_high > bench_low);
    let (prop_low, prop_high) = (energy.rows[0].1[0], energy.rows[1].1[0]);
    assert!(
        prop_high <= prop_low * 1.05,
        "proposed energy should plateau: {prop_low} -> {prop_high}"
    );
    // And the proposed energy sits below the benchmark at both caps.
    assert!(prop_low < bench_low && prop_high < bench_high);
    assert_eq!(reports[1].rows.len(), 2);
}

#[test]
fn fig4_more_devices_with_fixed_total_samples_reduce_delay() {
    let mut spec = quick(4, 3, &[5.0, 20.0]);
    spec.scenario.total_samples = Some(10_000);
    spec.arms = vec![proposed(0.1, 0.9)];
    let reports = reports(&spec);
    assert_eq!(reports[0].rows.len(), 2);
    // With 4x fewer samples per device, the time-weighted run finishes faster.
    let delay = &reports[1];
    let (few, many) = (delay.rows[0].1[0], delay.rows[1].1[0]);
    assert!(many < few, "delay should drop with more devices: {few} -> {many}");
}

#[test]
fn fig5_delay_grows_with_radius() {
    let mut spec = quick(5, 5, &[0.1, 1.5]);
    spec.arms = vec![ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })
        .labeled("N = 8")
        .with_scenario(ScenarioSpec { devices: Some(8), ..ScenarioSpec::default() })];
    let reports = reports(&spec);
    let delay = &reports[1];
    let (near, far) = (delay.rows[0].1[0], delay.rows[1].1[0]);
    assert!(far > near, "delay should grow with radius: {near} -> {far}");
    assert_eq!(reports[0].columns, vec!["N = 8".to_string()]);
}

#[test]
fn fig6_energy_and_delay_scale_with_training_effort() {
    let mut spec = quick(6, 202, &[10.0, 110.0]);
    spec.scenario.devices = Some(6);
    let reports = reports(&spec);
    let (energy, delay) = (&reports[0], &reports[1]);
    // Both metrics grow along both axes of training effort: R_l (rows) and R_g (the
    // preset's 50- and 400-round columns).
    for c in 0..2 {
        assert!(energy.rows[1].1[c] > energy.rows[0].1[c]);
        assert!(delay.rows[1].1[c] > delay.rows[0].1[c]);
    }
    for r in 0..2 {
        assert!(energy.rows[r].1[1] > energy.rows[r].1[0]);
        assert!(delay.rows[r].1[1] > delay.rows[r].1[0]);
    }
}

#[test]
fn fig7_ordering_joint_then_comm_then_comp() {
    let mut spec = quick(7, 203, &[120.0, 150.0]);
    spec.scenario.devices = Some(8);
    let report = &reports(&spec)[0];
    for (deadline, row) in &report.rows {
        let (joint, comm, comp) = (row[0], row[1], row[2]);
        assert!(joint <= comm * 1.02, "T={deadline}: joint {joint} vs comm-only {comm}");
        assert!(comm <= comp * 1.05, "T={deadline}: comm-only {comm} vs comp-only {comp}");
    }
    // A looser deadline never costs the joint scheme more energy.
    assert!(report.rows[1].1[0] <= report.rows[0].1[0] * 1.02);
}

#[test]
fn fig8_proposed_at_least_matches_scheme1() {
    // A deadline of 45 s is genuinely tight for 8 devices (the fastest possible schedule
    // needs ~25 s), which is where the paper reports the largest advantage; 150 s is
    // loose, where the two schemes converge.
    let mut spec = quick(8, 204, &[8.0, 12.0]);
    spec.scenario.devices = Some(8);
    spec.arms = [45.0, 150.0]
        .into_iter()
        .flat_map(|t| {
            [
                ArmSpec::new(ArmKind::Scheme1 { deadline_s: t }),
                ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) }),
            ]
        })
        .collect();
    let report = &reports(&spec)[0];
    // Columns: scheme1(45 s), proposed(45 s), scheme1(150 s), proposed(150 s).
    let (mut tight_gaps, mut loose_gaps) = (Vec::new(), Vec::new());
    for (p_max, row) in &report.rows {
        for pair in row.chunks(2) {
            assert!(
                pair[1] <= pair[0] * 1.02,
                "p_max={p_max}: proposed {} should not lose to scheme1 {}",
                pair[1],
                pair[0]
            );
        }
        tight_gaps.push(row[0] - row[1]);
        loose_gaps.push(row[2] - row[3]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&tight_gaps) >= avg(&loose_gaps) - 1e-9,
        "the advantage should be at least as large at the tight deadline \
         (tight {tight_gaps:?} vs loose {loose_gaps:?})"
    );
    assert!(
        avg(&tight_gaps) > 0.0,
        "proposed should win strictly at the tight deadline: {tight_gaps:?}"
    );
}
