//! Fig. 8 at small scale: the quick preset cut to 8 devices, one draw, two transmit powers
//! and the deadlines T = 40 s and 150 s.

mod tests {
    use crate::presets::{self, Variant};
    use crate::report::ReportRow;
    use crate::spec::{ArmKind, ArmSpec, DeadlineSpec, SeedSpec};

    #[test]
    fn proposed_never_loses_to_scheme1_and_gap_grows_when_tight() {
        // A deadline of 40 s is genuinely tight for 8 devices (the fastest possible schedule
        // needs ~25 s), which is where the paper reports the largest advantage; 150 s is
        // loose, where the two schemes converge.
        let mut spec = presets::spec(8, Variant::Quick).expect("figure 8 exists");
        spec.scenario.devices = Some(8);
        spec.seeds = SeedSpec::list(vec![8]);
        spec.axis.values = vec![8.0, 12.0];
        spec.arms = [40.0, 150.0]
            .into_iter()
            .flat_map(|t| {
                [
                    ArmSpec::new(ArmKind::Scheme1 { deadline_s: t }),
                    ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) }),
                ]
            })
            .collect();
        let report = &spec.run().unwrap().reports[0];
        // Columns: scheme1(T=40), proposed(T=40), scheme1(T=150), proposed(T=150).
        let (mut tight_gaps, mut loose_gaps) = (Vec::new(), Vec::new());
        for ReportRow { x: p_max, values, .. } in &report.rows {
            let row: Vec<f64> = values.iter().map(|v| v.0).collect();
            for pair in row.chunks(2) {
                let (scheme1, proposed) = (pair[0], pair[1]);
                assert!(proposed <= scheme1 * 1.02, "p_max={p_max}: {proposed} vs {scheme1}");
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
}
