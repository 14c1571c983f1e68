//! Deterministic fault injection for chaos-testing the fleet path.
//!
//! A [`FaultPlan`] names one fault class and one target seed. It travels to fleet
//! workers through the [`FAULT_PLAN_ENV`] environment variable (subprocess workers
//! inherit the coordinator's environment), and **only** the worker whose shard *starts*
//! at the target seed misbehaves — every other shard, and the coordinator itself, runs
//! clean. That makes chaos tests deterministic end to end: the same plan always fails
//! the same shard in the same way, so the hardening contract ("byte-identical,
//! explicit-hole salvage, or typed error — never a hang, never a coordinator panic")
//! is assertable in CI.
//!
//! The shard-side plan is consulted exclusively by the worker mode of the `fedopt` CLI
//! (`fedopt run --spec - --shard-json`), i.e. by coordinator-spawned subprocesses —
//! which is exactly the production failure surface: real worker crashes, stalls and
//! corrupted pipes all happen on the far side of the [`crate::shard::SubprocessRunner`]
//! boundary, so that is where injected ones must happen too.
//!
//! The serve-side kinds ([`FaultKind::SlowRequest`], [`FaultKind::PoisonRequest`],
//! [`FaultKind::FloodRequest`]) target `fedopt serve` instead: there the `@<target>`
//! suffix addresses a **0-based request index** in the session's input stream, and the
//! fault fires inside the worker thread that picked that request up. The two families
//! are mutually inert — a serve plan is ignored by fleet workers and a shard plan is
//! ignored by the serving loop — so one environment variable covers both surfaces
//! without cross-talk.

use crate::spec::{wire_names, ExperimentSpec};
use std::fmt;

/// Environment variable carrying a serialized fault plan (`<kind>@<seed>`), e.g.
/// `crash@3`. Unset means no injection; a malformed value is a loud error, never
/// silently ignored (a typo'd chaos run must not masquerade as a clean control run).
pub const FAULT_PLAN_ENV: &str = "FEDOPT_FAULT_PLAN";

/// The injectable fault classes, each modeling one real-world worker failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker exits with an error before doing any work (spawn-time crash, OOM
    /// kill at startup, bad binary).
    CrashOnEntry,
    /// The worker computes its shard but exits mid-stream, leaving a truncated result
    /// document on stdout (broken pipe, disk-full stdout redirection).
    TruncateStdout,
    /// The worker hangs silently forever, emitting no heartbeat and no output (livelock,
    /// NFS stall). Only a timeout can end it.
    Stall,
    /// The worker emits a complete-looking result document with one byte flipped
    /// (memory corruption, torn write). The wire checksum must catch it.
    CorruptWire,
    /// The worker floods stderr with garbage lines and then fails (runaway logging
    /// before a crash). The coordinator's stderr capture must stay bounded.
    StderrFlood,
    /// Serve-side: the worker sleeps past the request's wall-clock budget before
    /// solving (GC pause, page-fault storm, cold cache). The deadline watchdog must
    /// turn it into a typed `degraded` response, never a hang.
    SlowRequest,
    /// Serve-side: handling the target request panics inside the worker (heap
    /// corruption, logic bug on a hostile input). Quarantine must tear down only that
    /// worker's workspace and the supervisor must keep answering.
    PoisonRequest,
    /// Serve-side: the worker holds the target request until the input stream reaches
    /// EOF before solving it (a wedged downstream dependency). With a bounded queue
    /// this deterministically forces admission-control shedding of the requests piled
    /// up behind it.
    FloodRequest,
}

wire_names!(pub FaultKind, "fault kind" {
    CrashOnEntry => "crash",
    TruncateStdout => "truncate",
    Stall => "stall",
    CorruptWire => "corrupt",
    StderrFlood => "flood",
    SlowRequest => "slowreq",
    PoisonRequest => "poisonreq",
    FloodRequest => "floodreq",
});

impl FaultKind {
    /// Whether this kind targets the serving loop (`fedopt serve`) rather than fleet
    /// shard workers. The serving loop honors exactly these kinds and treats every
    /// other plan as dormant, and vice versa.
    pub const fn is_serve_fault(self) -> bool {
        matches!(self, FaultKind::SlowRequest | FaultKind::PoisonRequest | FaultKind::FloodRequest)
    }
}

/// One planned fault: which class, and which target (a shard's first seed, or — for
/// serve-side kinds — a request index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault class to inject.
    pub kind: FaultKind,
    /// For shard kinds: the shard whose seed sub-range *starts* with this seed
    /// misbehaves; all others run clean. For serve kinds: the 0-based index of the
    /// request in the session's input stream that misbehaves. A target outside the
    /// sweep/stream makes the plan a no-op (the control arm of a chaos experiment).
    pub target_seed: u64,
}

impl FaultPlan {
    /// Parses the `<kind>@<seed>` wire form.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformation (unknown kind, missing `@`,
    /// non-numeric seed).
    pub fn parse(text: &str) -> Result<Self, String> {
        let (kind_text, seed_text) = text
            .split_once('@')
            .ok_or_else(|| format!("fault plan {text:?} must look like <kind>@<seed>"))?;
        let kind = FaultKind::from_name(kind_text).ok_or_else(|| {
            format!(
                "unknown fault kind {kind_text:?} (expected crash, truncate, stall, \
                 corrupt or flood for fleet shards; slowreq, poisonreq or floodreq \
                 for serve requests)"
            )
        })?;
        let target_seed = seed_text
            .parse::<u64>()
            .map_err(|_| format!("fault target seed {seed_text:?} must be an unsigned integer"))?;
        Ok(Self { kind, target_seed })
    }

    /// Reads the plan from [`FAULT_PLAN_ENV`]. `Ok(None)` when unset.
    ///
    /// # Errors
    ///
    /// The parse error of a set-but-malformed value — callers must surface it, not
    /// swallow it.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(FAULT_PLAN_ENV) {
            Ok(text) => Self::parse(&text).map(Some).map_err(|e| format!("{FAULT_PLAN_ENV}: {e}")),
            Err(_) => Ok(None),
        }
    }

    /// Whether this plan targets the given shard spec: true iff the spec's seed
    /// sequence starts with the target seed. Serve-side kinds never target a shard.
    pub fn applies_to(&self, spec: &ExperimentSpec) -> bool {
        !self.kind.is_serve_fault() && spec.seeds.values().first() == Some(&self.target_seed)
    }

    /// Whether this plan targets the serve request at the given 0-based stream index.
    /// Shard-side kinds never target a request.
    pub fn applies_to_request(&self, index: u64) -> bool {
        self.kind.is_serve_fault() && self.target_seed == index
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind.name(), self.target_seed)
    }
}

/// Deterministically corrupts one wire line: XORs the byte at the midpoint with
/// `0x20`. The result parses as garbage or as a changed value — either way the
/// receiver's checksum (or parser) must reject it; it must never be silently merged.
pub fn corrupt_payload(line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    if !bytes.is_empty() {
        let pos = bytes.len() / 2;
        bytes[pos] ^= 0x20;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_the_wire_form() {
        for kind in [
            FaultKind::CrashOnEntry,
            FaultKind::TruncateStdout,
            FaultKind::Stall,
            FaultKind::CorruptWire,
            FaultKind::StderrFlood,
            FaultKind::SlowRequest,
            FaultKind::PoisonRequest,
            FaultKind::FloodRequest,
        ] {
            let plan = FaultPlan { kind, target_seed: 42 };
            assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        }
    }

    #[test]
    fn malformed_plans_are_loud_typed_errors() {
        for bad in ["", "crash", "crash@", "crash@x", "@3", "segfault@1", "crash@-1"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn plans_target_exactly_the_shard_starting_at_the_seed() {
        let spec = crate::presets::spec(2, crate::presets::Variant::Quick).unwrap();
        let first = spec.seeds.values()[0];
        let plan = FaultPlan { kind: FaultKind::CrashOnEntry, target_seed: first };
        assert!(plan.applies_to(&spec));
        let miss = FaultPlan { kind: FaultKind::CrashOnEntry, target_seed: first + 999 };
        assert!(!miss.applies_to(&spec));
    }

    #[test]
    fn the_two_fault_families_are_mutually_inert() {
        let spec = crate::presets::spec(2, crate::presets::Variant::Quick).unwrap();
        let first = spec.seeds.values()[0];
        // A serve plan aimed exactly at a shard's first seed still never fires there…
        let serve = FaultPlan { kind: FaultKind::PoisonRequest, target_seed: first };
        assert!(!serve.applies_to(&spec));
        assert!(serve.applies_to_request(first));
        // …and a shard plan aimed at a request index never fires in the serving loop.
        let shard = FaultPlan { kind: FaultKind::CrashOnEntry, target_seed: 0 };
        assert!(!shard.applies_to_request(0));
        for kind in [FaultKind::SlowRequest, FaultKind::PoisonRequest, FaultKind::FloodRequest] {
            assert!(kind.is_serve_fault());
        }
        for kind in [
            FaultKind::CrashOnEntry,
            FaultKind::TruncateStdout,
            FaultKind::Stall,
            FaultKind::CorruptWire,
            FaultKind::StderrFlood,
        ] {
            assert!(!kind.is_serve_fault());
        }
    }

    #[test]
    fn corruption_changes_the_payload_deterministically() {
        let line = "{\"kind\":\"fedopt_shard_result\",\"value\":1.25}";
        let corrupted = corrupt_payload(line);
        assert_ne!(corrupted, line);
        assert_eq!(corrupt_payload(line), corrupted, "must be deterministic");
        assert_eq!(corrupt_payload(""), "");
    }
}
