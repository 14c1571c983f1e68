//! End-to-end integration tests spanning the whole workspace: scenario generation → joint
//! optimization → cost evaluation → comparison against every baseline.

use fedopt::prelude::*;

fn scenario(devices: usize, seed: u64) -> Scenario {
    ScenarioBuilder::paper_default().with_devices(devices).build(seed).unwrap()
}

#[test]
fn proposed_allocation_is_feasible_and_beats_naive_allocations() {
    let s = scenario(12, 100);
    let optimizer = JointOptimizer::new(SolverConfig::fast());
    let naive = s.cost(&Allocation::equal_split_max(&s)).unwrap();
    for weights in Weights::paper_sweep() {
        let out = optimizer.solve(&s, weights).unwrap();
        assert!(out.allocation.is_feasible(&s, 1e-5), "infeasible allocation at {weights:?}");
        assert!(
            out.objective <= naive.objective(weights) * (1.0 + 1e-9),
            "objective at {weights:?} did not improve on the naive allocation"
        );
        // The reported aggregates match an independent re-evaluation through flsys.
        let recheck = s.cost(&out.allocation).unwrap();
        assert!((recheck.total_energy_j - out.total_energy_j).abs() < 1e-9);
        assert!((recheck.total_time_s - out.total_time_s).abs() < 1e-9);
    }
}

#[test]
fn weight_sweep_traces_out_a_monotone_tradeoff() {
    let s = scenario(12, 101);
    let optimizer = JointOptimizer::new(SolverConfig::fast());
    let mut energies = Vec::new();
    let mut times = Vec::new();
    for weights in Weights::paper_sweep() {
        let out = optimizer.solve(&s, weights).unwrap();
        energies.push(out.total_energy_j);
        times.push(out.total_time_s);
    }
    for pair in energies.windows(2) {
        assert!(pair[1] >= pair[0] * 0.95, "energy not monotone along the sweep: {energies:?}");
    }
    for pair in times.windows(2) {
        assert!(pair[1] <= pair[0] * 1.05, "time not monotone along the sweep: {times:?}");
    }
}

#[test]
fn proposed_beats_the_random_benchmark_on_energy() {
    let s = scenario(20, 102);
    let optimizer = JointOptimizer::new(SolverConfig::fast());
    let bench = BenchmarkAllocator::new().random_frequency(&s, 102).unwrap();
    let out = optimizer.solve(&s, Weights::new(0.9, 0.1).unwrap()).unwrap();
    assert!(
        out.total_energy_j < bench.total_energy_j(),
        "proposed {} should beat benchmark {}",
        out.total_energy_j,
        bench.total_energy_j()
    );
}

#[test]
fn deadline_variant_dominates_every_deadline_baseline() {
    let s = scenario(10, 103);
    let cfg = SolverConfig::fast();
    let optimizer = JointOptimizer::new(cfg);
    let scheme1 = FixedSplitAllocator::scheme1(cfg);
    let comm = FixedSplitAllocator::comm_only(cfg);
    let comp = FixedSplitAllocator::comp_only();
    for deadline in [60.0, 100.0, 150.0] {
        let ours = optimizer.solve_with_deadline(&s, deadline).unwrap();
        assert!(ours.total_time_s <= deadline * 1.01, "missed deadline {deadline}");
        for (name, energy) in [
            ("scheme1", scheme1.allocate(&s, deadline).unwrap().total_energy_j()),
            ("comm-only", comm.allocate(&s, deadline).unwrap().total_energy_j()),
            ("comp-only", comp.allocate(&s, deadline).unwrap().total_energy_j()),
        ] {
            assert!(
                ours.total_energy_j <= energy * 1.02,
                "deadline {deadline}: proposed {} should not lose to {name} {energy}",
                ours.total_energy_j
            );
        }
    }
}

#[test]
fn solver_is_deterministic_for_a_fixed_scenario() {
    let s = scenario(8, 104);
    let optimizer = JointOptimizer::new(SolverConfig::fast());
    let a = optimizer.solve(&s, Weights::balanced()).unwrap();
    let b = optimizer.solve(&s, Weights::balanced()).unwrap();
    assert_eq!(a.allocation, b.allocation);
    assert_eq!(a.objective, b.objective);
}

#[test]
fn infeasible_deadline_is_reported_not_silently_violated() {
    let s = scenario(8, 105);
    let optimizer = JointOptimizer::new(SolverConfig::fast());
    let err = optimizer.solve_with_deadline(&s, 0.01).unwrap_err();
    assert!(matches!(err, fedopt::fedopt_core::CoreError::InfeasibleDeadline { .. }));
}
