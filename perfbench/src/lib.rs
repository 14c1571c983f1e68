//! The repository benchmark.
//!
//! Four workloads drive the release `fedopt` binary from outside and check its outputs
//! (`--trace 0`), or call the library's layer functions in-process inside spans to give
//! per-layer numbers (`--trace 1`). See `perfbench/README.md` for the workloads, the
//! metrics and the predictions they exist to test.

pub mod batch;
pub mod checks;
pub mod inputs;
pub mod layers;
pub mod outcome;
pub mod proc;
pub mod serve;
pub mod stats;
pub mod traced;
pub mod tracer;

use std::path::PathBuf;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sweep-paper", "serve-mixed", "sim-rounds", "fleet-1e5"];

/// What every workload run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The checkout's root (the working directory).
    pub root: PathBuf,
    /// The release `fedopt` binary.
    pub fedopt: PathBuf,
    /// Where result files and child stderr go.
    pub out_dir: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// How long the run measures, seconds.
    pub seconds: f64,
}

impl Ctx {
    /// The file a child process's stderr goes to.
    pub fn stderr_path(&self, what: &str) -> PathBuf {
        self.out_dir.join(format!("{}-seed{}-{what}.stderr", self.workload, self.seed))
    }
}
