//! Fig. 7 at small scale: the quick preset (p_max = 10 dBm) cut to 8 devices, one draw and
//! two deadlines.

mod tests {
    use crate::presets::{self, Variant};
    use crate::report::ReportRow;
    use crate::spec::SeedSpec;

    #[test]
    fn joint_beats_comm_only_beats_comp_only() {
        let mut spec = presets::spec(7, Variant::Quick).expect("figure 7 exists");
        spec.scenario.devices = Some(8);
        spec.seeds = SeedSpec::list(vec![7]);
        spec.axis.values = vec![110.0, 150.0];
        let report = &spec.run().unwrap().reports[0];
        for ReportRow { x: deadline, values, .. } in &report.rows {
            let (proposed, comm, comp) = (values[0].0, values[1].0, values[2].0);
            assert!(
                proposed <= comm * 1.02,
                "T={deadline}: proposed {proposed} should beat comm-only {comm}"
            );
            assert!(
                comm <= comp * 1.05,
                "T={deadline}: comm-only {comm} should beat comp-only {comp}"
            );
        }
        // Looser deadline never costs the proposed scheme more energy.
        assert!(report.rows[1].values[0].0 <= report.rows[0].values[0].0 * 1.02);
    }
}
