//! # experiments
//!
//! The reproduction harness for the evaluation section (Section VII) of the ICDCS 2022 paper.
//!
//! An experiment is a serializable [`spec::ExperimentSpec`] (axis + scenario template +
//! arms + seed policy + solver/engine options + reports), and the seven figures are just
//! preset spec values in [`presets`]. The single `fedopt` binary ([`cli`]) runs any spec
//! from a figure number or a JSON file, and [`engine::SweepEngine::run_spec`] compiles a
//! spec onto the imperative [`engine::SweepGrid`] machinery. Because specs are data
//! (lossless JSON round trip, byte-stable serialization), a sweep can be received over a
//! wire, cached, diffed, replayed, and sharded — a shard is a spec plus a seed range.
//!
//! All sweeps evaluate through the same substrate: a declarative [`engine::SweepGrid`]
//! (sweep points × arms — one per [`spec::ArmSpec`] — × scenario seeds) evaluated by the
//! parallel [`engine::SweepEngine`] across threads in (point, seed) cell-groups — one
//! scenario build shared by every arm of the group, one reusable
//! [`SolverWorkspace`](fedopt_core::SolverWorkspace) per worker thread — with
//! deterministic, thread-count-independent output (see the [`engine`] module docs for the
//! cell-group architecture and the seeding scheme).
//!
//! | preset | paper figure | sweep |
//! |---|---|---|
//! | [`presets::fig2`] | Fig. 2a/2b | energy & delay vs maximum transmit power, five weight pairs + benchmark |
//! | [`presets::fig3`] | Fig. 3a/3b | energy & delay vs maximum CPU frequency, five weight pairs + benchmark |
//! | [`presets::fig4`] | Fig. 4a/4b | energy & delay vs number of devices (total samples fixed) |
//! | [`presets::fig5`] | Fig. 5a/5b | energy & delay vs cell radius for N ∈ {20, 50, 80} |
//! | [`presets::fig6`] | Fig. 6a/6b | energy & delay vs local iterations for R_g ∈ {50…400} |
//! | [`presets::fig7`] | Fig. 7 | energy vs completion-time deadline: joint vs comm-only vs comp-only |
//! | [`presets::fig8`] | Fig. 8 | energy vs maximum transmit power at fixed deadlines: proposed vs Scheme 1 |
//!
//! A smaller run of a figure is a plain edit of its preset:
//!
//! ```rust
//! use experiments::presets::{self, Variant};
//!
//! # fn main() -> Result<(), experiments::SpecError> {
//! let mut spec = presets::spec(7, Variant::Quick).expect("figure 7 exists");
//! spec.scenario.devices = Some(6); // keep the doctest fast
//! spec.axis.values = vec![110.0, 150.0];
//! let run = spec.run()?;
//! assert_eq!(run.reports[0].columns.len(), 3);
//! println!("{}", run.reports[0].to_table_string());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arms;
pub mod cli;
pub mod engine;
pub mod fault;
pub mod json;
pub mod presets;
pub mod report;
pub mod rounds;
pub mod serve;
pub mod shard;
pub mod spec;

// Small-scale checks of the figure presets, one test module per figure they edit.
#[cfg(test)]
#[path = "figure_checks/fig2.rs"]
mod fig2;
#[cfg(test)]
#[path = "figure_checks/fig6.rs"]
mod fig6;
#[cfg(test)]
#[path = "figure_checks/fig7.rs"]
mod fig7;
#[cfg(test)]
#[path = "figure_checks/fig8.rs"]
mod fig8;

/// Compares `actual` with the golden file `tests/golden/<name>`, or writes it there under
/// `FEDOPT_BLESS=1`.
#[cfg(test)]
pub(crate) fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var("FEDOPT_BLESS").is_ok() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("blessing {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e})"));
    assert_eq!(actual, golden, "{path:?} is stale; regenerate with FEDOPT_BLESS=1");
}

pub use engine::{Aggregate, SweepCounters, SweepEngine, SweepGrid, SweepResult};
pub use report::FigureReport;
pub use rounds::RoundSimRun;
pub use shard::{FleetOptions, FleetStats, ShardCache, ShardError, ShardResult};
pub use spec::{ExperimentSpec, SpecError, SpecRun};
