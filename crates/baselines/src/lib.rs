//! # baselines
//!
//! Every comparison scheme used in the evaluation section (Section VII) of the ICDCS 2022
//! paper, scored through exactly the same `flsys` cost formulas as the proposed algorithm:
//!
//! * [`benchmark`] — the random **benchmark** of Figures 2 and 3: equal bandwidth split,
//!   maximum power with a random CPU frequency (power sweep) or maximum frequency with a
//!   random transmit power (frequency sweep).
//! * [`comm_only`] — **communication-only** optimization (Figure 7): frequencies pinned to
//!   the value that just meets the deadline under the initial uplink times, powers and
//!   bandwidths optimized.
//! * [`comp_only`] — **computation-only** optimization (Figure 7): powers and bandwidths
//!   pinned to `p_max` and `B/(2N)`, frequencies optimized.
//! * [`scheme1`] — **Scheme 1** (Figure 8): a reimplementation of the structure of Yang et
//!   al., *"Energy efficient federated learning over wireless communication networks"*
//!   (IEEE TWC 2021) — energy minimization under a hard deadline with a per-device time split
//!   fixed up front instead of re-optimized jointly with the bandwidth allocation.
//!
//! The three deadline baselines are one [`FixedSplitAllocator`] ([`fixed_split`]): each
//! fixes every device's compute/upload split once from the initial uplink times. Comm-only
//! and Scheme 1 then hand the rate floors to Algorithm 2's own Subproblem-2 step, comp-only
//! keeps the initial powers and bandwidths. The split is bounded by the slowest device's
//! upload (comm-only) or by each device's own (Scheme 1, comp-only). A baseline whose
//! allocation misses the deadline reports it infeasible, by the rule Algorithm 2 uses.
//!
//! All baselines return a [`BaselineResult`] so the experiment harness can treat every scheme
//! uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod comm_only;
pub mod comp_only;
pub mod fixed_split;
pub mod result;
pub mod scheme1;
pub mod seeding;

pub use benchmark::BenchmarkAllocator;
pub use fixed_split::FixedSplitAllocator;
pub use result::BaselineResult;
pub use seeding::{derive_stream_seed, round_channel_seed, StreamDerivation};

#[cfg(test)]
mod tests {
    use super::*;
    use fedopt_core::{CoreError, JointOptimizer, SolverConfig, SolverWorkspace};
    use flsys::{CostSummary, ScenarioBuilder, Weights};

    /// One baseline's workspace path against its owned result: bit-identical allocation
    /// and totals on a fresh workspace, and again on one an Algorithm 2 solve of `dirty`
    /// left behind.
    fn check(
        owned: BaselineResult,
        summary: impl Fn(&mut SolverWorkspace) -> Result<CostSummary, CoreError>,
        dirty: &flsys::Scenario,
    ) {
        let c = &owned.cost;
        let full = [c.total_energy_j, c.transmission_energy_j, c.computation_energy_j];
        let full = (full, c.round_time_s, c.total_time_s);
        let mut ws = SolverWorkspace::new();
        for reused in [false, true] {
            if reused {
                let optimizer = JointOptimizer::new(SolverConfig::fast().with_warm_start(false));
                optimizer.solve_summary_with(dirty, Weights::balanced(), &mut ws).unwrap();
                optimizer.solve_with_deadline_summary_in(dirty, 150.0, &mut ws).unwrap();
            }
            let t = summary(&mut ws).unwrap();
            let totals = [t.total_energy_j, t.transmission_energy_j, t.computation_energy_j];
            assert_eq!((totals, t.round_time_s, t.total_time_s), full, "reused: {reused}");
            assert_eq!(ws.allocation, owned.allocation, "reused: {reused}");
        }
    }

    /// Comm-only, Scheme 1 and comp-only. The dirty scenarios have a different device
    /// count, and the same count with other channels (stale lanes there would give
    /// silently wrong bits, not an error). Cold: with warm start on, a reused workspace
    /// carries Subproblem-2 state on purpose.
    #[test]
    fn workspace_path_matches_allocate_on_fresh_and_reused_workspaces() {
        let s = ScenarioBuilder::paper_default().with_devices(10).build(71).unwrap();
        let cold = SolverConfig::fast().with_warm_start(false);
        let (comm, scheme1) =
            (FixedSplitAllocator::comm_only(cold), FixedSplitAllocator::scheme1(cold));
        let comp = FixedSplitAllocator::comp_only();
        for (n, seed) in [(14, 72), (10, 73)] {
            let dirty = ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap();
            for t in [90.0, 130.0] {
                let full = comm.allocate(&s, t).unwrap();
                check(full, |ws| comm.allocate_summary_with(&s, t, ws), &dirty);
                let full = scheme1.allocate(&s, t).unwrap();
                check(full, |ws| scheme1.allocate_summary_with(&s, t, ws), &dirty);
                let full = comp.allocate(&s, t).unwrap();
                check(full, |ws| comp.allocate_summary_with(&s, t, ws), &dirty);
            }
        }
    }
}
