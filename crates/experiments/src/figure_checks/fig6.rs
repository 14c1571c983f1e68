//! Fig. 6 at small scale: the quick preset (R_g = 50 and 400) cut to 6 devices, one draw
//! and two local-iteration counts.

mod tests {
    use crate::presets::{self, Variant};
    use crate::spec::SeedSpec;

    #[test]
    fn energy_and_delay_grow_with_local_iterations_and_rounds() {
        let mut spec = presets::spec(6, Variant::Quick).expect("figure 6 exists");
        spec.scenario.devices = Some(6);
        spec.seeds = SeedSpec::list(vec![6]);
        spec.axis.values = vec![10.0, 90.0];
        let reports = spec.run().unwrap().reports;
        let (energy, delay) = (&reports[0], &reports[1]);
        // More local iterations: both metrics grow (column-wise comparison).
        for c in 0..2 {
            assert!(energy.rows[1].values[c].0 > energy.rows[0].values[c].0);
            assert!(delay.rows[1].values[c].0 > delay.rows[0].values[c].0);
        }
        // More global rounds: both metrics grow (row-wise comparison).
        for r in 0..2 {
            assert!(energy.rows[r].values[1].0 > energy.rows[r].values[0].0);
            assert!(delay.rows[r].values[1].0 > delay.rows[r].values[0].0);
        }
    }
}
