//! What one benchmark run reports, and the bookkeeping of its output checks.

use crate::stats::Metric;
use experiments::json::Json;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (cells, policy-rounds, requests or solves).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Most failure messages kept per run.
    const MAX_MESSAGES: usize = 20;

    /// Counts `ops` operations as failed, for `why`.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        if self.messages.len() < Self::MAX_MESSAGES {
            self.messages.push(why.into());
        }
    }

    /// Share of attempted operations that succeeded and passed every check.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// The metrics of the final JSON line (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// The workload's own named metrics, printed for people and kept in the result file.
    pub named: Vec<Metric>,
    /// Deterministic counters: these repeat exactly for the same seed.
    pub counters: Vec<(String, Json)>,
    /// Per-layer metrics this workload does not exercise (reported as 0).
    pub not_exercised: Vec<String>,
    /// Further members of the result file (spans, per-chunk samples).
    pub extra: Vec<(String, Json)>,
}

impl Outcome {
    /// Adds a deterministic counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), Json::uint(value)));
    }
}
