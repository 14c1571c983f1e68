//! The one [`Arm`] implementation: a spec arm ([`ArmSpec`]) compiled against its solver
//! configuration.
//!
//! An arm is one column of a figure: the proposed joint optimizer (weighted or
//! deadline-constrained), the random benchmark, and each `baselines` allocator. Every
//! scheme is an [`ArmKind`] variant, and what a variant *does* for one cell lives in the
//! single `match` of [`SpecArm`]'s [`Arm::evaluate`]; its column label is
//! [`ArmKind::column_name`] and its per-arm scenario patch is [`ArmSpec::scenario`].

use crate::engine::{Arm, CellContext, CellOutput};
use crate::spec::{ArmKind, ArmSpec, BenchmarkDraw, DeadlineSpec};
use baselines::{BenchmarkAllocator, CommOnlyAllocator, CompOnlyAllocator, Scheme1Allocator};
use fedopt_core::{CoreError, JointOptimizer, SolverConfig};
use flsys::{Scenario, ScenarioBuilder};

/// A spec arm ready to evaluate: the [`ArmSpec`] plus the resolved solver configuration
/// (which the engine's switches override per cell, see [`CellContext::solver_config`]).
pub(crate) struct SpecArm {
    spec: ArmSpec,
    solver: SolverConfig,
}

impl SpecArm {
    pub(crate) fn new(spec: ArmSpec, solver: SolverConfig) -> Self {
        Self { spec, solver }
    }
}

impl Arm for SpecArm {
    fn name(&self) -> String {
        self.spec.label.clone().unwrap_or_else(|| self.spec.kind.column_name())
    }

    fn prepare(&self, builder: &ScenarioBuilder) -> ScenarioBuilder {
        match &self.spec.scenario {
            Some(patch) => patch.apply(builder.clone()),
            None => builder.clone(),
        }
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        // Built per cell (a copy of one plain-data config — free) so the engine's switches
        // gate the solver uniformly across every arm. Each scheme runs its summary path:
        // bit-identical totals to the full solve, zero heap allocations in steady state.
        let solver = ctx.solver_config(&self.solver);
        let ws = &mut *ctx.workspace;
        let output = match &self.spec.kind {
            ArmKind::Proposed { weights } => JointOptimizer::new(solver)
                .solve_summary_with(scenario, *weights, ws)
                .map(|s| CellOutput::new(s.total_energy_j, s.total_time_s)),
            ArmKind::DeadlineProposed { deadline } => {
                let deadline_s = match deadline {
                    DeadlineSpec::Axis => ctx.x,
                    DeadlineSpec::FixedS(t) => *t,
                };
                JointOptimizer::new(solver)
                    .solve_with_deadline_summary_in(scenario, deadline_s, ws)
                    .map(|s| CellOutput::new(s.total_energy_j, s.total_time_s))
            }
            // The random draw comes from the cell's decorrelated stream seed
            // (`baselines::derive_stream_seed`), never from the scenario seed.
            ArmKind::Benchmark { draw } => {
                let allocator = BenchmarkAllocator::new();
                match draw {
                    BenchmarkDraw::Frequency => {
                        allocator.random_frequency_summary_with(scenario, ctx.stream_seed, ws)
                    }
                    BenchmarkDraw::Power => {
                        allocator.random_power_summary_with(scenario, ctx.stream_seed, ws)
                    }
                }
                .map(|s| CellOutput::new(s.total_energy_j, s.total_time_s))
                .map_err(CoreError::from)
            }
            ArmKind::CommOnly => CommOnlyAllocator::new(solver)
                .allocate_summary_with(scenario, ctx.x, ws)
                .map(|s| CellOutput::new(s.total_energy_j, s.total_time_s)),
            ArmKind::CompOnly => CompOnlyAllocator::new(solver)
                .allocate_summary_with(scenario, ctx.x, ws)
                .map(|s| CellOutput::new(s.total_energy_j, s.total_time_s)),
            ArmKind::Scheme1 { deadline_s } => Scheme1Allocator::new(solver)
                .allocate_summary_with(scenario, *deadline_s, ws)
                .map(|s| CellOutput::new(s.total_energy_j, s.total_time_s)),
        };
        match output {
            Ok(cell) => Ok(Some(cell)),
            // An infeasible deadline or a watchdog-degraded draw (only Algorithm 2 raises
            // either) is an infeasible *cell*, not a sweep abort: the aggregate records it
            // through the sample count, and the solver's `degraded_solves` counter keeps
            // a degraded draw loud in the run document.
            Err(CoreError::InfeasibleDeadline { .. } | CoreError::NonFiniteObjective { .. }) => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SweepEngine, SweepGrid};
    use crate::spec::ScenarioSpec;
    use flsys::Weights;

    fn arm(spec: ArmSpec) -> SpecArm {
        SpecArm::new(spec, SolverConfig::fast())
    }

    fn plain(kind: ArmKind) -> SpecArm {
        arm(ArmSpec::new(kind))
    }

    #[test]
    fn proposed_beats_benchmark_on_average() {
        // Port of the historical sweep-helper test: the energy-leaning proposed arm beats
        // the random benchmark on mean energy over the same scenario draws.
        let grid = SweepGrid::new(vec![1u64, 2])
            .point(12.0, ScenarioBuilder::paper_default().with_devices(6))
            .arm(plain(ArmKind::Proposed { weights: Weights::balanced() }))
            .arm(plain(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }));
        let result = SweepEngine::single_thread().run(&grid).unwrap();
        let row = &result.aggregates[0];
        assert!(row[0].mean_energy_j < row[1].mean_energy_j);
        assert_eq!(row[0].count, 2);
        assert_eq!(row[1].count, 2);
    }

    #[test]
    fn infeasible_deadline_yields_zero_count_not_nan_surprise() {
        let deadline_arm = || plain(ArmKind::DeadlineProposed { deadline: DeadlineSpec::Axis });
        let grid = SweepGrid::new(vec![1u64])
            .point(1e-6, ScenarioBuilder::paper_default().with_devices(5))
            .arm(deadline_arm());
        let result = SweepEngine::single_thread().run(&grid).unwrap();
        let agg = result.aggregates[0][0];
        assert_eq!(agg.count, 0);
        assert_eq!(agg.attempts, 1);
        assert!(agg.mean_energy_j.is_nan());
        // A loose deadline is feasible.
        let grid = SweepGrid::new(vec![1u64])
            .point(200.0, ScenarioBuilder::paper_default().with_devices(5))
            .arm(deadline_arm());
        let agg = SweepEngine::single_thread().run(&grid).unwrap().aggregates[0][0];
        assert_eq!(agg.count, 1);
        assert!(agg.mean_energy_j.is_finite() && agg.mean_energy_j > 0.0);
    }

    #[test]
    fn configured_arm_renames_and_reconfigures() {
        let arm = arm(ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })
            .labeled("N = 3")
            .with_scenario(ScenarioSpec { devices: Some(3), ..ScenarioSpec::default() }));
        assert_eq!(arm.name(), "N = 3");
        let grid = SweepGrid::new(vec![1u64])
            .point(12.0, ScenarioBuilder::paper_default().with_devices(5).with_p_max_dbm(12.0))
            .arm(arm);
        let result = SweepEngine::single_thread().run(&grid).unwrap();
        assert_eq!(result.arm_names, vec!["N = 3".to_string()]);
        assert!(result.aggregates[0][0].mean_energy_j > 0.0);
    }

    #[test]
    fn benchmark_arm_uses_the_derived_stream() {
        // The benchmark cell must reproduce BenchmarkAllocator::random_frequency with the
        // stream seed derived from the base seed — the historical `seed ^ 0x9e37_79b9`.
        let scenario = ScenarioBuilder::paper_default().with_devices(6).build(11).unwrap();
        let direct = BenchmarkAllocator::new()
            .random_frequency(&scenario, baselines::derive_stream_seed(11))
            .unwrap();
        let grid = SweepGrid::new(vec![11u64])
            .point(12.0, ScenarioBuilder::paper_default().with_devices(6))
            .arm(plain(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }));
        let agg = SweepEngine::single_thread().run(&grid).unwrap().aggregates[0][0];
        assert_eq!(agg.mean_energy_j, direct.total_energy_j());
        assert_eq!(agg.mean_time_s, direct.total_time_s());
    }
}
