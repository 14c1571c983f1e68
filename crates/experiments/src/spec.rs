//! The declarative experiment API: a serializable [`ExperimentSpec`] describing one sweep.
//!
//! Every figure of the paper's evaluation — and any scenario beyond it — is one value of
//! this module: a named sweep **axis** with its values, a **scenario template** mapped
//! onto [`ScenarioBuilder`], a closed set of **arms** (every scheme the figures compare),
//! a **seed policy** (explicit list or a `start..start+count` range, with the
//! stream-seed derivation pinned by [`baselines::StreamDerivation`] name), **solver**
//! settings (preset plus tolerance overrides), **engine** options (threads, warm start,
//! fleet shard retries and timeout), and the **reports** to render from the evaluated
//! grid.
//!
//! A spec is *data*: it serializes to JSON ([`ExperimentSpec::to_json_string`]) and back
//! ([`ExperimentSpec::from_json_str`]) losslessly, so a sweep description can be received
//! over a wire, cached, diffed, replayed, and sharded (a shard is a spec plus a seed
//! range). Running one compiles it onto the imperative machinery — the spec's
//! [`ExperimentSpec::grid`] produces the [`SweepGrid`] that [`SweepEngine::run_spec`]
//! evaluates, one arm per [`ArmSpec`] whose [`ArmKind`] decides what a cell computes, so
//! the engine's scenario sharing, allocation-free hot path, streaming reduction and
//! warm-start continuation serve every spec alike. The figures are preset specs
//! ([`crate::presets`]), pinned by golden JSON documents of their quick runs.
//!
//! ```rust
//! use experiments::presets;
//! use experiments::SweepEngine;
//!
//! # fn main() -> Result<(), experiments::spec::SpecError> {
//! let mut spec = presets::spec(2, presets::Variant::Quick).expect("figure 2 exists");
//! spec.seeds.policy = experiments::spec::SeedPolicy::Range { start: 0, count: 1 };
//! spec.scenario.devices = Some(6); // keep the doctest fast
//!
//! // Lossless JSON round trip: the serialized form *is* the experiment.
//! let text = spec.to_json_string();
//! assert_eq!(experiments::spec::ExperimentSpec::from_json_str(&text)?, spec);
//!
//! let run = spec.run_with_engine(&SweepEngine::single_thread())?;
//! assert_eq!(run.reports.len(), 2); // fig2a (energy) and fig2b (delay)
//! # Ok(())
//! # }
//! ```
//!
//! # Wire format
//!
//! The JSON schema is versioned by the top-level `schema_version` field (currently
//! [`SCHEMA_VERSION`]); parsing rejects other versions and unknown keys (typos fail
//! loudly instead of silently changing the experiment). Optional fields are omitted when
//! unset, object member order is fixed, and floats use shortest-round-trip formatting, so
//! serialization is deterministic and byte-stable — see `examples/specs/` for a committed
//! example and the README for the annotated schema.

use crate::arms::SpecArm;
use crate::engine::{Aggregate, SweepEngine, SweepGrid, SweepResult};
use crate::json::{Json, JsonError, MAX_EXACT_INT};
use crate::report::FigureReport;
use baselines::StreamDerivation;
use fedopt_core::{CoreError, SolverConfig};
use flsys::{ScenarioBuilder, Weights};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The wire-format version this module reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Most scenario seeds one spec may carry (10⁷ ≈ an 80 MB materialized seed vector).
/// Larger experiments must be sharded: a shard is the same spec with a seed sub-range
/// (`seeds.start`/`seeds.count`), so the cap bounds a *unit of work*, not the protocol.
/// `fedopt run --shards N` splits and runs one automatically; `fedopt shard split`
/// prints the shard specs (see [`crate::shard::split`]).
pub const MAX_SEEDS: u64 = 10_000_000;

/// Most devices one scenario may hold (10⁶). One solve at this count is feasible with the
/// struct-of-arrays hot path (seven `f64` lanes ≈ 56 MB plus the allocation buffers), but
/// a *sweep* over such scenarios is not a unit of work this crate schedules — past the
/// guardrail the spec layer fails loudly and points at the [`crate::presets::large_n`]
/// quick preset, which expresses the fleet-scale single-scenario experiment (few seeds,
/// reference polish off) instead of a paper-style grid. Mirrors the [`MAX_SEEDS`] cap: it
/// bounds a unit of work, not the protocol.
pub const MAX_DEVICES: usize = 1_000_000;

/// Why a spec could not be parsed, validated, compiled, or run.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The input was not valid JSON.
    Json(JsonError),
    /// The JSON was well-formed but not a valid spec; `path` locates the offending field.
    Invalid {
        /// Dotted path of the field, e.g. `axis.values[2]`.
        path: String,
        /// What is wrong with it.
        message: String,
    },
    /// The compiled sweep failed while running.
    Sweep(CoreError),
}

impl SpecError {
    pub(crate) fn invalid(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self::Invalid { path: path.into(), message: message.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "spec is not valid JSON: {e}"),
            SpecError::Invalid { path, message } => {
                write!(f, "invalid spec at `{path}`: {message}")
            }
            SpecError::Sweep(e) => write!(f, "sweep failed: {e}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Json(e) => Some(e),
            SpecError::Sweep(e) => Some(e),
            SpecError::Invalid { .. } => None,
        }
    }
}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<CoreError> for SpecError {
    fn from(e: CoreError) -> Self {
        SpecError::Sweep(e)
    }
}

// ---------------------------------------------------------------------------
// Axis
// ---------------------------------------------------------------------------

/// Which scenario knob (or arm input) the sweep's x values drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AxisKind {
    /// Maximum transmit power in dBm (Figures 2 and 8).
    PMaxDbm,
    /// Maximum CPU frequency in GHz (Figure 3).
    FMaxGhz,
    /// Number of devices (Figure 4); values must be positive integers.
    Devices,
    /// Radius of the placement disc in kilometres (Figure 5).
    RadiusKm,
    /// Local iterations per global round (Figure 6); values must be positive integers.
    LocalIterations,
    /// Global aggregation rounds; values must be positive integers.
    GlobalRounds,
    /// Completion-time deadline in seconds (Figure 7). Leaves the scenario untouched —
    /// deadline-constrained arms read the x value directly.
    DeadlineS,
}

impl AxisKind {
    /// The stable wire name of this axis.
    pub const fn name(self) -> &'static str {
        match self {
            Self::PMaxDbm => "p_max_dbm",
            Self::FMaxGhz => "f_max_ghz",
            Self::Devices => "devices",
            Self::RadiusKm => "radius_km",
            Self::LocalIterations => "local_iterations",
            Self::GlobalRounds => "global_rounds",
            Self::DeadlineS => "deadline_s",
        }
    }

    /// Looks an axis up by its wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        [
            Self::PMaxDbm,
            Self::FMaxGhz,
            Self::Devices,
            Self::RadiusKm,
            Self::LocalIterations,
            Self::GlobalRounds,
            Self::DeadlineS,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }

    /// Whether values on this axis must be positive integers.
    pub fn is_integer(self) -> bool {
        matches!(self, Self::Devices | Self::LocalIterations | Self::GlobalRounds)
    }

    fn check(self, x: f64, path: &str) -> Result<(), SpecError> {
        if !x.is_finite() {
            return Err(SpecError::invalid(path, "axis values must be finite"));
        }
        if self.is_integer() && (x.fract() != 0.0 || !(1.0..=4_294_967_295.0).contains(&x)) {
            return Err(SpecError::invalid(
                path,
                format!("axis `{}` requires positive integer values, got {x}", self.name()),
            ));
        }
        if self == Self::Devices && x > MAX_DEVICES as f64 {
            return Err(SpecError::invalid(
                path,
                format!(
                    "axis `devices` is capped at {MAX_DEVICES} devices per scenario (got {x}); \
                     fleet-scale experiments should start from the `large_n` quick preset \
                     (`experiments::presets::large_n`) and split the seed grid across \
                     workers with `fedopt run --shards N` or `fedopt shard split`, not \
                     grow a single sweep past the guardrail"
                ),
            ));
        }
        // dBm is a log scale (negative is meaningful); the physical magnitudes are not —
        // and a non-positive deadline would only produce silent all-infeasible rows,
        // while the equivalent fixed-deadline arm fails loudly.
        let must_be_positive = matches!(self, Self::FMaxGhz | Self::RadiusKm | Self::DeadlineS);
        if must_be_positive && x <= 0.0 {
            return Err(SpecError::invalid(
                path,
                format!("axis `{}` requires strictly positive values, got {x}", self.name()),
            ));
        }
        Ok(())
    }

    /// Applies one axis value to a sweep point's scenario builder.
    pub(crate) fn apply(self, builder: ScenarioBuilder, x: f64) -> ScenarioBuilder {
        match self {
            Self::PMaxDbm => builder.with_p_max_dbm(x),
            Self::FMaxGhz => builder.with_f_max_ghz(x),
            Self::Devices => builder.with_devices(x as usize),
            Self::RadiusKm => builder.with_radius_km(x),
            Self::LocalIterations => builder.with_local_iterations(x as u32),
            Self::GlobalRounds => builder.with_global_rounds(x as u32),
            Self::DeadlineS => builder,
        }
    }
}

/// The sweep axis: which knob varies and the values it takes (the figure's x values).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisSpec {
    /// The swept knob.
    pub kind: AxisKind,
    /// The x values, in plot order.
    pub values: Vec<f64>,
}

impl AxisSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.kind.name().to_string())),
            ("values", Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect())),
        ])
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["name", "values"])?;
        let name = obj.str("name")?;
        let kind = AxisKind::from_name(name).ok_or_else(|| {
            SpecError::invalid(obj.path_of("name"), format!("unknown axis name {name:?}"))
        })?;
        Ok(Self { kind, values: obj.f64_array("values")? })
    }
}

// ---------------------------------------------------------------------------
// Scenario template / patch
// ---------------------------------------------------------------------------

/// A serializable patch over [`ScenarioBuilder::paper_default`]: every field is optional
/// and unset fields keep the paper's Section VII-A defaults.
///
/// Used twice: as the spec's scenario **template** (shared by every sweep point) and as a
/// per-arm **patch** ([`ArmSpec::scenario`], how Figures 5 and 6 express per-series
/// device counts and round counts).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Number of devices `N`.
    pub devices: Option<usize>,
    /// Radius of the placement disc in kilometres.
    pub radius_km: Option<f64>,
    /// Samples per device (mutually exclusive with [`Self::total_samples`]).
    pub samples_per_device: Option<u64>,
    /// Total samples split equally across devices (Figure 4's setting).
    pub total_samples: Option<u64>,
    /// Per-sample CPU-cycle range `[lo, hi]` from which `c_n` is drawn.
    pub cycles_per_sample: Option<(f64, f64)>,
    /// Upload payload `d_n` in bits.
    pub upload_bits: Option<f64>,
    /// Minimum transmit power in dBm.
    pub p_min_dbm: Option<f64>,
    /// Maximum transmit power in dBm.
    pub p_max_dbm: Option<f64>,
    /// Minimum CPU frequency in Hz.
    pub f_min_hz: Option<f64>,
    /// Maximum CPU frequency in GHz.
    pub f_max_ghz: Option<f64>,
    /// Global aggregation rounds `R_g`.
    pub global_rounds: Option<u32>,
    /// Local iterations per global round `R_l`.
    pub local_iterations: Option<u32>,
    /// Total uplink bandwidth `B` in Hz.
    pub total_bandwidth_hz: Option<f64>,
    /// Log-normal shadowing standard deviation in dB (`0` disables fading).
    pub shadowing_db: Option<f64>,
}

impl ScenarioSpec {
    /// Applies the patch to a builder (unset fields leave it unchanged).
    pub fn apply(&self, mut builder: ScenarioBuilder) -> ScenarioBuilder {
        if let Some(n) = self.devices {
            builder = builder.with_devices(n);
        }
        if let Some(r) = self.radius_km {
            builder = builder.with_radius_km(r);
        }
        if let Some(s) = self.samples_per_device {
            builder = builder.with_samples_per_device(s);
        }
        if let Some(t) = self.total_samples {
            builder = builder.with_total_samples(t);
        }
        if let Some((lo, hi)) = self.cycles_per_sample {
            builder = builder.with_cycles_per_sample_range(lo, hi);
        }
        if let Some(b) = self.upload_bits {
            builder = builder.with_upload_bits(b);
        }
        if let Some(p) = self.p_min_dbm {
            builder = builder.with_p_min_dbm(p);
        }
        if let Some(p) = self.p_max_dbm {
            builder = builder.with_p_max_dbm(p);
        }
        if let Some(f) = self.f_min_hz {
            builder = builder.with_f_min_hz(f);
        }
        if let Some(f) = self.f_max_ghz {
            builder = builder.with_f_max_ghz(f);
        }
        if let Some(r) = self.global_rounds {
            builder = builder.with_global_rounds(r);
        }
        if let Some(r) = self.local_iterations {
            builder = builder.with_local_iterations(r);
        }
        if let Some(b) = self.total_bandwidth_hz {
            builder = builder.with_total_bandwidth(wireless_hertz(b));
        }
        if let Some(s) = self.shadowing_db {
            builder = builder.with_shadowing_db(s);
        }
        builder
    }

    /// Whether every field is unset (an identity patch).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.samples_per_device.is_some() && self.total_samples.is_some() {
            return Err(SpecError::invalid(
                path,
                "`samples_per_device` and `total_samples` are mutually exclusive",
            ));
        }
        if let Some((lo, hi)) = self.cycles_per_sample {
            if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo) {
                return Err(SpecError::invalid(
                    format!("{path}.cycles_per_sample"),
                    format!("range [{lo}, {hi}] must be positive and ordered"),
                ));
            }
        }
        // dBm values are log-scale (negative is fine) and shadowing may be 0 (disabled);
        // the physical magnitudes must be strictly positive.
        for (name, value) in [("p_min_dbm", self.p_min_dbm), ("p_max_dbm", self.p_max_dbm)] {
            if let Some(v) = value {
                if !v.is_finite() {
                    return Err(SpecError::invalid(format!("{path}.{name}"), "must be finite"));
                }
            }
        }
        if let Some(v) = self.shadowing_db {
            if !(v.is_finite() && v >= 0.0) {
                return Err(SpecError::invalid(
                    format!("{path}.shadowing_db"),
                    "must be finite and non-negative",
                ));
            }
        }
        for (name, value) in [
            ("radius_km", self.radius_km),
            ("upload_bits", self.upload_bits),
            ("f_min_hz", self.f_min_hz),
            ("f_max_ghz", self.f_max_ghz),
            ("total_bandwidth_hz", self.total_bandwidth_hz),
        ] {
            if let Some(v) = value {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SpecError::invalid(
                        format!("{path}.{name}"),
                        "must be a positive finite number",
                    ));
                }
            }
        }
        if self.devices == Some(0) {
            return Err(SpecError::invalid(format!("{path}.devices"), "must be at least 1"));
        }
        if let Some(n) = self.devices {
            if n > MAX_DEVICES {
                return Err(SpecError::invalid(
                    format!("{path}.devices"),
                    format!(
                        "capped at {MAX_DEVICES} devices per scenario (got {n}); fleet-scale \
                         experiments should start from the `large_n` quick preset \
                         (`experiments::presets::large_n`) and spread the seed grid with \
                         `fedopt run --shards N` instead of growing a single scenario \
                         past the guardrail"
                    ),
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        let mut push = |key: &str, value: Option<Json>| {
            if let Some(v) = value {
                members.push((key.to_string(), v));
            }
        };
        push("devices", self.devices.map(|n| Json::uint(n as u64)));
        push("radius_km", self.radius_km.map(Json::Num));
        push("samples_per_device", self.samples_per_device.map(Json::uint));
        push("total_samples", self.total_samples.map(Json::uint));
        push(
            "cycles_per_sample",
            self.cycles_per_sample.map(|(lo, hi)| Json::Arr(vec![Json::Num(lo), Json::Num(hi)])),
        );
        push("upload_bits", self.upload_bits.map(Json::Num));
        push("p_min_dbm", self.p_min_dbm.map(Json::Num));
        push("p_max_dbm", self.p_max_dbm.map(Json::Num));
        push("f_min_hz", self.f_min_hz.map(Json::Num));
        push("f_max_ghz", self.f_max_ghz.map(Json::Num));
        push("global_rounds", self.global_rounds.map(|r| Json::uint(u64::from(r))));
        push("local_iterations", self.local_iterations.map(|r| Json::uint(u64::from(r))));
        push("total_bandwidth_hz", self.total_bandwidth_hz.map(Json::Num));
        push("shadowing_db", self.shadowing_db.map(Json::Num));
        Json::Obj(members)
    }

    pub(crate) fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(
            v,
            path,
            &[
                "devices",
                "radius_km",
                "samples_per_device",
                "total_samples",
                "cycles_per_sample",
                "upload_bits",
                "p_min_dbm",
                "p_max_dbm",
                "f_min_hz",
                "f_max_ghz",
                "global_rounds",
                "local_iterations",
                "total_bandwidth_hz",
                "shadowing_db",
            ],
        )?;
        let spec = Self {
            devices: obj.opt_usize("devices")?,
            radius_km: obj.opt_f64("radius_km")?,
            samples_per_device: obj.opt_u64("samples_per_device")?,
            total_samples: obj.opt_u64("total_samples")?,
            cycles_per_sample: obj.opt_f64_pair("cycles_per_sample")?,
            upload_bits: obj.opt_f64("upload_bits")?,
            p_min_dbm: obj.opt_f64("p_min_dbm")?,
            p_max_dbm: obj.opt_f64("p_max_dbm")?,
            f_min_hz: obj.opt_f64("f_min_hz")?,
            f_max_ghz: obj.opt_f64("f_max_ghz")?,
            global_rounds: obj.opt_u32("global_rounds")?,
            local_iterations: obj.opt_u32("local_iterations")?,
            total_bandwidth_hz: obj.opt_f64("total_bandwidth_hz")?,
            shadowing_db: obj.opt_f64("shadowing_db")?,
        };
        spec.validate(path)?;
        Ok(spec)
    }
}

fn wireless_hertz(hz: f64) -> wireless::units::Hertz {
    wireless::units::Hertz::new(hz)
}

// ---------------------------------------------------------------------------
// Arms
// ---------------------------------------------------------------------------

/// Which random draw the benchmark arm makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchmarkDraw {
    /// Random CPU frequency at maximum power (the Figure-2 benchmark).
    Frequency,
    /// Random transmit power at maximum frequency (the Figure-3 benchmark).
    Power,
}

impl BenchmarkDraw {
    const fn name(self) -> &'static str {
        match self {
            Self::Frequency => "frequency",
            Self::Power => "power",
        }
    }
}

/// Where a deadline-constrained arm reads its deadline from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeadlineSpec {
    /// The sweep point's x value is the deadline (requires a
    /// [`AxisKind::DeadlineS`] axis).
    Axis,
    /// A fixed deadline in seconds (one series per value, as in Figure 8).
    FixedS(f64),
}

/// The closed set of schemes an arm can run — every comparison of the paper's evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArmKind {
    /// The proposed joint optimizer at a fixed weight pair (Figures 2–6).
    Proposed {
        /// The objective weights `(w1, w2)`.
        weights: Weights,
    },
    /// The deadline-constrained proposed optimizer (Figures 7 and 8).
    DeadlineProposed {
        /// Where the deadline comes from.
        deadline: DeadlineSpec,
    },
    /// The random benchmark of Figures 2 and 3.
    Benchmark {
        /// Which resource is drawn at random.
        draw: BenchmarkDraw,
    },
    /// Communication-only optimization under the axis deadline (Figure 7).
    CommOnly,
    /// Computation-only optimization under the axis deadline (Figure 7).
    CompOnly,
    /// Scheme 1 (Yang et al., IEEE TWC 2021) at a fixed deadline (Figure 8).
    Scheme1 {
        /// The fixed deadline in seconds.
        deadline_s: f64,
    },
}

impl ArmKind {
    const fn name(&self) -> &'static str {
        match self {
            Self::Proposed { .. } => "proposed",
            Self::DeadlineProposed { .. } => "deadline_proposed",
            Self::Benchmark { .. } => "benchmark",
            Self::CommOnly => "comm_only",
            Self::CompOnly => "comp_only",
            Self::Scheme1 { .. } => "scheme1",
        }
    }

    /// The scheme's column label when the arm sets no [`ArmSpec::label`].
    pub(crate) fn column_name(&self) -> String {
        match self {
            Self::Proposed { weights } => {
                format!("proposed w1={:.1},w2={:.1}", weights.energy(), weights.time())
            }
            Self::DeadlineProposed { deadline: DeadlineSpec::Axis } => "proposed".to_string(),
            Self::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) } => {
                format!("proposed (T={t:.0}s)")
            }
            Self::Benchmark { .. } => "benchmark".to_string(),
            Self::CommOnly => "communication only".to_string(),
            Self::CompOnly => "computation only".to_string(),
            Self::Scheme1 { deadline_s } => format!("scheme1 (T={deadline_s:.0}s)"),
        }
    }
}

/// One column of the figure: a scheme, an optional display label, and an optional
/// per-arm scenario patch (applied after the sweep point's template + axis value).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmSpec {
    /// The scheme.
    pub kind: ArmKind,
    /// Overrides the scheme's generated column label.
    pub label: Option<String>,
    /// Per-arm scenario overrides (Figures 5 and 6 sweep per-series device and round
    /// counts this way). Arms whose *effective* builders compare equal still share one
    /// scenario build per (point, seed) — the engine groups by prepared builder.
    pub scenario: Option<ScenarioSpec>,
}

impl ArmSpec {
    /// A plain arm of the given kind (no label or scenario overrides).
    pub fn new(kind: ArmKind) -> Self {
        Self { kind, label: None, scenario: None }
    }

    /// This arm with a display label.
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// This arm with a per-arm scenario patch.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = Some(scenario);
        self
    }

    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        match &self.kind {
            ArmKind::Scheme1 { deadline_s } if !(deadline_s.is_finite() && *deadline_s > 0.0) => {
                return Err(SpecError::invalid(
                    format!("{path}.deadline_s"),
                    "must be a positive finite number of seconds",
                ));
            }
            ArmKind::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) }
                if !(t.is_finite() && *t > 0.0) =>
            {
                return Err(SpecError::invalid(
                    format!("{path}.deadline"),
                    "must be \"axis\" or a positive finite number of seconds",
                ));
            }
            _ => {}
        }
        if let Some(patch) = &self.scenario {
            patch.validate(&format!("{path}.scenario"))?;
        }
        Ok(())
    }

    pub(crate) fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> =
            vec![("kind".to_string(), Json::Str(self.kind.name().to_string()))];
        match &self.kind {
            ArmKind::Proposed { weights } => {
                members.push(("w1".to_string(), Json::Num(weights.energy())));
                members.push(("w2".to_string(), Json::Num(weights.time())));
            }
            ArmKind::DeadlineProposed { deadline } => {
                let value = match deadline {
                    DeadlineSpec::Axis => Json::Str("axis".to_string()),
                    DeadlineSpec::FixedS(t) => Json::Num(*t),
                };
                members.push(("deadline".to_string(), value));
            }
            ArmKind::Benchmark { draw } => {
                members.push(("draw".to_string(), Json::Str(draw.name().to_string())));
            }
            ArmKind::Scheme1 { deadline_s } => {
                members.push(("deadline_s".to_string(), Json::Num(*deadline_s)));
            }
            ArmKind::CommOnly | ArmKind::CompOnly => {}
        }
        if let Some(label) = &self.label {
            members.push(("label".to_string(), Json::Str(label.clone())));
        }
        if let Some(patch) = &self.scenario {
            members.push(("scenario".to_string(), patch.to_json()));
        }
        Json::Obj(members)
    }

    pub(crate) fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        // Strictness is per kind: each scheme allows exactly its own payload keys, so the
        // discriminator is peeked first and the full key check runs per variant.
        let kind_name = Obj::any(v, path)?.str("kind")?.to_string();
        fn with<'x>(extra: &[&'x str]) -> Vec<&'x str> {
            let mut allowed = vec!["kind", "label", "scenario"];
            allowed.extend_from_slice(extra);
            allowed
        }
        let (kind, obj) = match kind_name.as_str() {
            "proposed" => {
                let obj = Obj::new(v, path, &with(&["w1", "w2"]))?;
                let (w1, w2) = (obj.f64("w1")?, obj.f64("w2")?);
                let weights = Weights::new(w1, w2).map_err(|e| {
                    SpecError::invalid(path.to_string(), format!("invalid weights: {e}"))
                })?;
                (ArmKind::Proposed { weights }, obj)
            }
            "deadline_proposed" => {
                let obj = Obj::new(v, path, &with(&["deadline"]))?;
                let deadline = match obj.req("deadline")? {
                    Json::Str(s) if s == "axis" => DeadlineSpec::Axis,
                    Json::Num(t) => DeadlineSpec::FixedS(*t),
                    _ => {
                        return Err(SpecError::invalid(
                            obj.path_of("deadline"),
                            "must be \"axis\" or a number of seconds",
                        ))
                    }
                };
                (ArmKind::DeadlineProposed { deadline }, obj)
            }
            "benchmark" => {
                let obj = Obj::new(v, path, &with(&["draw"]))?;
                let draw = match obj.str("draw")? {
                    "frequency" => BenchmarkDraw::Frequency,
                    "power" => BenchmarkDraw::Power,
                    other => {
                        return Err(SpecError::invalid(
                            obj.path_of("draw"),
                            format!("unknown benchmark draw {other:?}"),
                        ))
                    }
                };
                (ArmKind::Benchmark { draw }, obj)
            }
            "comm_only" => (ArmKind::CommOnly, Obj::new(v, path, &with(&[]))?),
            "comp_only" => (ArmKind::CompOnly, Obj::new(v, path, &with(&[]))?),
            "scheme1" => {
                let obj = Obj::new(v, path, &with(&["deadline_s"]))?;
                (ArmKind::Scheme1 { deadline_s: obj.f64("deadline_s")? }, obj)
            }
            other => {
                return Err(SpecError::invalid(
                    format!("{path}.kind"),
                    format!("unknown arm kind {other:?}"),
                ))
            }
        };
        let label = obj.opt_str("label")?.map(str::to_string);
        let scenario = match obj.get("scenario") {
            Some(patch) => Some(ScenarioSpec::from_json(patch, &obj.path_of("scenario"))?),
            None => None,
        };
        let spec = Self { kind, label, scenario };
        spec.validate(path)?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

/// How the scenario seeds averaged over are produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// The contiguous range `start .. start + count` — the natural shard unit: splitting
    /// a sweep across processes is splitting this range.
    Range {
        /// First seed.
        start: u64,
        /// Number of seeds (draws per point).
        count: u64,
    },
    /// An explicit seed list (what the quick presets use).
    List(Vec<u64>),
}

/// The spec's seed block: the scenario-seed policy plus the named stream-seed derivation
/// rule (see [`baselines::StreamDerivation`]) arms with internal randomness use.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedSpec {
    /// How the base (scenario) seeds are produced.
    pub policy: SeedPolicy,
    /// The derivation of arm-internal stream seeds from base seeds. Pinned by name in the
    /// wire format so a replay under a different rule is refused instead of silently
    /// producing different benchmark columns: only [`StreamDerivation::XorGolden32`], the
    /// rule of [`baselines::derive_stream_seed`] that every sweep, `sim` and `serve` use,
    /// validates.
    pub stream_derivation: StreamDerivation,
}

impl SeedSpec {
    /// An explicit seed list under the default stream derivation.
    pub fn list(seeds: impl Into<Vec<u64>>) -> Self {
        Self {
            policy: SeedPolicy::List(seeds.into()),
            stream_derivation: StreamDerivation::default(),
        }
    }

    /// The range `0..count` under the default stream derivation.
    pub fn count(count: u64) -> Self {
        Self {
            policy: SeedPolicy::Range { start: 0, count },
            stream_derivation: StreamDerivation::default(),
        }
    }

    /// Number of scenario seeds (draws per point) without materializing them.
    pub fn len(&self) -> u64 {
        match &self.policy {
            SeedPolicy::Range { count, .. } => *count,
            SeedPolicy::List(seeds) => seeds.len() as u64,
        }
    }

    /// Whether the policy yields no seeds (invalid; rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the seed values, in order.
    pub fn values(&self) -> Vec<u64> {
        match &self.policy {
            SeedPolicy::Range { start, count } => (*start..start + count).collect(),
            SeedPolicy::List(seeds) => seeds.clone(),
        }
    }

    fn validate(&self, path: &str) -> Result<(), SpecError> {
        // Any other named rule would be silently ignored (see `stream_derivation`).
        if self.stream_derivation != StreamDerivation::XorGolden32 {
            return Err(SpecError::invalid(
                format!("{path}.stream_derivation"),
                format!(
                    "arm streams derive with {:?} only (got {:?})",
                    StreamDerivation::XorGolden32.name(),
                    self.stream_derivation.name()
                ),
            ));
        }
        match &self.policy {
            SeedPolicy::Range { start, count } => {
                if *count == 0 {
                    return Err(SpecError::invalid(format!("{path}.count"), "must be at least 1"));
                }
                if *count > MAX_SEEDS {
                    return Err(SpecError::invalid(
                        format!("{path}.count"),
                        format!(
                            "at most {MAX_SEEDS} seeds per spec — shard larger sweeps \
                             into seed sub-ranges with `fedopt run --shards N` or \
                             `fedopt shard split`"
                        ),
                    ));
                }
                if start.checked_add(*count).map_or(true, |end| end > MAX_EXACT_INT) {
                    return Err(SpecError::invalid(
                        path,
                        "seed range must stay within the exact JSON integer range (2^53)",
                    ));
                }
            }
            SeedPolicy::List(seeds) => {
                if seeds.is_empty() {
                    return Err(SpecError::invalid(format!("{path}.list"), "must not be empty"));
                }
                if seeds.len() as u64 > MAX_SEEDS {
                    return Err(SpecError::invalid(
                        format!("{path}.list"),
                        format!(
                            "at most {MAX_SEEDS} seeds per spec — shard larger sweeps \
                             into seed sub-lists with `fedopt run --shards N` or \
                             `fedopt shard split`"
                        ),
                    ));
                }
                if seeds.iter().any(|&s| s > MAX_EXACT_INT) {
                    return Err(SpecError::invalid(
                        format!("{path}.list"),
                        "seeds must stay within the exact JSON integer range (2^53)",
                    ));
                }
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        match &self.policy {
            SeedPolicy::Range { start, count } => {
                members.push(("start".to_string(), Json::uint(*start)));
                members.push(("count".to_string(), Json::uint(*count)));
            }
            SeedPolicy::List(seeds) => {
                members.push((
                    "list".to_string(),
                    Json::Arr(seeds.iter().map(|&s| Json::uint(s)).collect()),
                ));
            }
        }
        members.push((
            "stream_derivation".to_string(),
            Json::Str(self.stream_derivation.name().to_string()),
        ));
        Json::Obj(members)
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["start", "count", "list", "stream_derivation"])?;
        let policy = match (obj.get("list"), obj.get("count")) {
            (Some(_), None) => SeedPolicy::List(obj.u64_array("list")?),
            (None, Some(_)) => SeedPolicy::Range {
                start: obj.opt_u64("start")?.unwrap_or(0),
                count: obj.u64("count")?,
            },
            _ => {
                return Err(SpecError::invalid(
                    path,
                    "seeds need exactly one of `list` or `count` (+ optional `start`)",
                ))
            }
        };
        if matches!(policy, SeedPolicy::List(_)) && obj.get("start").is_some() {
            return Err(SpecError::invalid(
                obj.path_of("start"),
                "`start` only applies to range seed policies",
            ));
        }
        let derivation_name = obj.str("stream_derivation")?;
        let stream_derivation = StreamDerivation::from_name(derivation_name).ok_or_else(|| {
            SpecError::invalid(
                obj.path_of("stream_derivation"),
                format!("unknown stream derivation {derivation_name:?}"),
            )
        })?;
        let spec = Self { policy, stream_derivation };
        spec.validate(path)?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------------

/// Which [`SolverConfig`] the overrides start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolverPreset {
    /// [`SolverConfig::default`] — the paper-faithful tolerances.
    #[default]
    Default,
    /// [`SolverConfig::fast`] — the looser quick-preset tolerances.
    Fast,
}

impl SolverPreset {
    const fn name(self) -> &'static str {
        match self {
            Self::Default => "default",
            Self::Fast => "fast",
        }
    }

    fn base(self) -> SolverConfig {
        match self {
            Self::Default => SolverConfig::default(),
            Self::Fast => SolverConfig::fast(),
        }
    }
}

/// Serializable solver settings: a preset plus optional tolerance overrides.
///
/// The warm-start switch is *not* here: it is an engine-level decision
/// ([`EngineSpec::warm_start`]) because the sweep engine overrides every arm's solver
/// config with its own flag to keep one sweep uniformly cold or warm.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SolverSpec {
    /// The starting configuration.
    pub preset: SolverPreset,
    /// Override of [`SolverConfig::outer_max_iter`].
    pub outer_max_iter: Option<usize>,
    /// Override of [`SolverConfig::outer_tol`].
    pub outer_tol: Option<f64>,
    /// Override of [`SolverConfig::mu_tol`].
    pub mu_tol: Option<f64>,
    /// Override of [`SolverConfig::scalar_tol`].
    pub scalar_tol: Option<f64>,
    /// Override of [`SolverConfig::bandwidth_floor_hz`].
    pub bandwidth_floor_hz: Option<f64>,
    /// Override of [`SolverConfig::polish_with_reference`].
    pub polish_with_reference: Option<bool>,
}

impl SolverSpec {
    /// The fast preset with no overrides.
    pub fn fast() -> Self {
        Self { preset: SolverPreset::Fast, ..Self::default() }
    }

    /// Resolves the preset and overrides into a concrete [`SolverConfig`].
    pub fn resolve(&self) -> SolverConfig {
        let mut config = self.preset.base();
        if let Some(v) = self.outer_max_iter {
            config.outer_max_iter = v;
        }
        if let Some(v) = self.outer_tol {
            config.outer_tol = v;
        }
        if let Some(v) = self.mu_tol {
            config.mu_tol = v;
        }
        if let Some(v) = self.scalar_tol {
            config.scalar_tol = v;
        }
        if let Some(v) = self.bandwidth_floor_hz {
            config.bandwidth_floor_hz = v;
        }
        if let Some(v) = self.polish_with_reference {
            config.polish_with_reference = v;
        }
        config
    }

    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        for (name, value) in [
            ("outer_tol", self.outer_tol),
            ("mu_tol", self.mu_tol),
            ("scalar_tol", self.scalar_tol),
            ("bandwidth_floor_hz", self.bandwidth_floor_hz),
        ] {
            if let Some(v) = value {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SpecError::invalid(
                        format!("{path}.{name}"),
                        "must be a positive finite number",
                    ));
                }
            }
        }
        if self.outer_max_iter == Some(0) {
            return Err(SpecError::invalid(format!("{path}.outer_max_iter"), "must be at least 1"));
        }
        Ok(())
    }

    pub(crate) fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> =
            vec![("preset".to_string(), Json::Str(self.preset.name().to_string()))];
        let mut push = |key: &str, value: Option<Json>| {
            if let Some(v) = value {
                members.push((key.to_string(), v));
            }
        };
        push("outer_max_iter", self.outer_max_iter.map(|v| Json::uint(v as u64)));
        push("outer_tol", self.outer_tol.map(Json::Num));
        push("mu_tol", self.mu_tol.map(Json::Num));
        push("scalar_tol", self.scalar_tol.map(Json::Num));
        push("bandwidth_floor_hz", self.bandwidth_floor_hz.map(Json::Num));
        push("polish_with_reference", self.polish_with_reference.map(Json::Bool));
        Json::Obj(members)
    }

    pub(crate) fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(
            v,
            path,
            &[
                "preset",
                "outer_max_iter",
                "outer_tol",
                "mu_tol",
                "scalar_tol",
                "bandwidth_floor_hz",
                "polish_with_reference",
            ],
        )?;
        let preset = match obj.str("preset")? {
            "default" => SolverPreset::Default,
            "fast" => SolverPreset::Fast,
            other => {
                return Err(SpecError::invalid(
                    obj.path_of("preset"),
                    format!("unknown solver preset {other:?}"),
                ))
            }
        };
        let spec = Self {
            preset,
            outer_max_iter: obj.opt_usize("outer_max_iter")?,
            outer_tol: obj.opt_f64("outer_tol")?,
            mu_tol: obj.opt_f64("mu_tol")?,
            scalar_tol: obj.opt_f64("scalar_tol")?,
            bandwidth_floor_hz: obj.opt_f64("bandwidth_floor_hz")?,
            polish_with_reference: obj.opt_bool("polish_with_reference")?,
        };
        spec.validate(path)?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Serializable engine options. Unset fields keep [`SweepEngine::new`]'s defaults
/// (all cores / environment overrides). A sharded run's retry and timeout policy is not
/// spec data: it lives on the `--shard-retries` / `--shard-timeout` flags alone.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineSpec {
    /// Worker thread count ([`SweepEngine::with_threads`]).
    pub threads: Option<usize>,
    /// Warm-start continuation default for this spec. An explicit
    /// [`crate::engine::WARM_START_ENV`] environment setting still wins (so
    /// `FEDOPT_WARM_START=0` forces any spec cold), but when the environment is silent
    /// this field decides — the paper presets default it on.
    pub warm_start: Option<bool>,
}

impl EngineSpec {
    /// Builds the engine these options describe. Precedence for the warm-start switch:
    /// explicit environment setting > spec field > on.
    pub fn to_engine(&self) -> SweepEngine {
        let mut engine = match self.threads {
            Some(n) => SweepEngine::with_threads(n),
            None => SweepEngine::new(),
        };
        // `SweepEngine::new` already folded the environment in; only a *silent*
        // environment lets the spec's default take effect.
        if crate::engine::warm_start_env().is_none() {
            if let Some(warm) = self.warm_start {
                engine = engine.with_warm_start(warm);
            }
        }
        engine
    }

    fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.threads == Some(0) {
            return Err(SpecError::invalid(format!("{path}.threads"), "must be at least 1"));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        let mut push = |key: &str, value: Option<Json>| {
            if let Some(v) = value {
                members.push((key.to_string(), v));
            }
        };
        push("threads", self.threads.map(|v| Json::uint(v as u64)));
        push("warm_start", self.warm_start.map(Json::Bool));
        Json::Obj(members)
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["threads", "warm_start"])?;
        let spec =
            Self { threads: obj.opt_usize("threads")?, warm_start: obj.opt_bool("warm_start")? };
        spec.validate(path)?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Which aggregate metric a report plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Mean total energy in joules.
    Energy,
    /// Mean total completion time in seconds.
    Time,
}

impl Metric {
    const fn name(self) -> &'static str {
        match self {
            Self::Energy => "energy",
            Self::Time => "time",
        }
    }
}

/// One figure (or sub-figure) rendered from the evaluated grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportSpec {
    /// Identifier matching the paper, e.g. `"fig2a"`.
    pub id: String,
    /// The plotted metric.
    pub metric: Metric,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
}

impl ReportSpec {
    /// A report description.
    pub fn new(id: &str, metric: Metric, title: &str, x_label: &str) -> Self {
        Self { id: id.to_string(), metric, title: title.to_string(), x_label: x_label.to_string() }
    }

    /// Renders this report from an evaluated grid: one row per sweep point carrying the
    /// metric's means and the per-cell feasible-sample counts.
    pub fn render(&self, result: &SweepResult) -> FigureReport {
        let (y_label, mean): (&str, fn(&Aggregate) -> f64) = match self.metric {
            Metric::Energy => ("total energy (J)", |a| a.mean_energy_j),
            Metric::Time => ("total time (s)", |a| a.mean_time_s),
        };
        let mut report = FigureReport::new(
            &self.id,
            &self.title,
            &self.x_label,
            y_label,
            result.arm_names.clone(),
        );
        for (x, row) in result.xs.iter().zip(&result.aggregates) {
            report.push_row_with_counts(
                *x,
                row.iter().map(mean).collect(),
                row.iter().map(|a| a.count).collect(),
            );
        }
        report
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("metric", Json::Str(self.metric.name().to_string())),
            ("title", Json::Str(self.title.clone())),
            ("x_label", Json::Str(self.x_label.clone())),
        ])
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["id", "metric", "title", "x_label"])?;
        let metric = match obj.str("metric")? {
            "energy" => Metric::Energy,
            "time" => Metric::Time,
            other => {
                return Err(SpecError::invalid(
                    obj.path_of("metric"),
                    format!("unknown metric {other:?}"),
                ))
            }
        };
        Ok(Self {
            id: obj.str("id")?.to_string(),
            metric,
            title: obj.str("title")?.to_string(),
            x_label: obj.str("x_label")?.to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Round simulation
// ---------------------------------------------------------------------------

/// Cap on the number of simulated global rounds per spec.
pub const MAX_SIM_ROUNDS: u32 = 100_000;

/// The closed set of per-round allocation/selection policies the round simulator
/// compares — the round-by-round counterpart of [`ArmKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum RoundPolicy {
    /// Re-runs Algorithm 2 on each round's redrawn channel (warm-started across rounds
    /// when the engine's continuation is on). Every device that survives dropout
    /// participates.
    ReSolve {
        /// The objective weights `(w1, w2)`.
        weights: Weights,
    },
    /// Solves Algorithm 2 once on the base (round-0) channel and reuses that allocation
    /// for every round — what a deployment that never re-optimizes pays under fading.
    Static {
        /// The objective weights `(w1, w2)`.
        weights: Weights,
    },
    /// FedAECS-style accuracy-constrained selection: greedily admits the
    /// cheapest-energy-per-accuracy devices (accuracy proxy `ε_n = ln(1 + μ·D_n)`)
    /// until the round accuracy `Γ = ln(1 + Σ ε_n)` reaches `epsilon`, skipping devices
    /// whose round time exceeds `t_max_s`. Runs on the equal-split allocation.
    FedAecs {
        /// Required round accuracy `ε₀` (on the `Γ` scale).
        epsilon: f64,
        /// Accuracy-proxy curvature `μ` in `ε_n = ln(1 + μ·D_n)`.
        mu: f64,
        /// Per-device round-time cap in seconds (`None` disables the cap).
        t_max_s: Option<f64>,
    },
    /// ELASTIC-style (Yu et al.) joint selection with a **sequential-upload** wall-clock
    /// model: each device uploads alone over the full bandwidth, waiting its
    /// `t_wait` recurrence turn; a device is selected when its energy score
    /// `α·(E_n + 1) − 1 ≤ 0` (smaller `alpha` admits more devices).
    Elastic {
        /// Energy/participation trade-off `α ∈ (0, 1]`.
        alpha: f64,
    },
}

impl RoundPolicy {
    /// The stable wire name of this policy kind.
    pub const fn name(&self) -> &'static str {
        match self {
            Self::ReSolve { .. } => "re_solve",
            Self::Static { .. } => "static",
            Self::FedAecs { .. } => "fedaecs",
            Self::Elastic { .. } => "elastic",
        }
    }
}

/// One column of the round simulation: a policy plus an optional display label.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPolicySpec {
    /// The policy.
    pub policy: RoundPolicy,
    /// Overrides the policy's generated column label.
    pub label: Option<String>,
}

impl RoundPolicySpec {
    /// A plain policy column (no label override).
    pub fn new(policy: RoundPolicy) -> Self {
        Self { policy, label: None }
    }

    /// This policy with a display label.
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The display label: the override, or the policy's wire name.
    pub fn display_label(&self) -> &str {
        self.label.as_deref().unwrap_or(self.policy.name())
    }

    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        match &self.policy {
            RoundPolicy::ReSolve { .. } | RoundPolicy::Static { .. } => {}
            RoundPolicy::FedAecs { epsilon, mu, t_max_s } => {
                for (name, v) in [("epsilon", *epsilon), ("mu", *mu)] {
                    if !(v.is_finite() && v > 0.0) {
                        return Err(SpecError::invalid(
                            format!("{path}.{name}"),
                            "must be a positive finite number",
                        ));
                    }
                }
                if let Some(t) = t_max_s {
                    if !(t.is_finite() && *t > 0.0) {
                        return Err(SpecError::invalid(
                            format!("{path}.t_max_s"),
                            "must be a positive finite number of seconds",
                        ));
                    }
                }
            }
            RoundPolicy::Elastic { alpha } => {
                if !(alpha.is_finite() && *alpha > 0.0 && *alpha <= 1.0) {
                    return Err(SpecError::invalid(format!("{path}.alpha"), "must be in (0, 1]"));
                }
            }
        }
        Ok(())
    }

    pub(crate) fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> =
            vec![("kind".to_string(), Json::Str(self.policy.name().to_string()))];
        match &self.policy {
            RoundPolicy::ReSolve { weights } | RoundPolicy::Static { weights } => {
                members.push(("w1".to_string(), Json::Num(weights.energy())));
                members.push(("w2".to_string(), Json::Num(weights.time())));
            }
            RoundPolicy::FedAecs { epsilon, mu, t_max_s } => {
                members.push(("epsilon".to_string(), Json::Num(*epsilon)));
                members.push(("mu".to_string(), Json::Num(*mu)));
                if let Some(t) = t_max_s {
                    members.push(("t_max_s".to_string(), Json::Num(*t)));
                }
            }
            RoundPolicy::Elastic { alpha } => {
                members.push(("alpha".to_string(), Json::Num(*alpha)));
            }
        }
        if let Some(label) = &self.label {
            members.push(("label".to_string(), Json::Str(label.clone())));
        }
        Json::Obj(members)
    }

    pub(crate) fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        // Same per-kind strictness as `ArmSpec::from_json`: peek the discriminator, then
        // check the full key set against exactly that kind's payload.
        let kind_name = Obj::any(v, path)?.str("kind")?.to_string();
        fn with<'x>(extra: &[&'x str]) -> Vec<&'x str> {
            let mut allowed = vec!["kind", "label"];
            allowed.extend_from_slice(extra);
            allowed
        }
        let weights_of = |obj: &Obj<'_>| -> Result<Weights, SpecError> {
            let (w1, w2) = (obj.f64("w1")?, obj.f64("w2")?);
            Weights::new(w1, w2)
                .map_err(|e| SpecError::invalid(path.to_string(), format!("invalid weights: {e}")))
        };
        let (policy, obj) = match kind_name.as_str() {
            "re_solve" => {
                let obj = Obj::new(v, path, &with(&["w1", "w2"]))?;
                (RoundPolicy::ReSolve { weights: weights_of(&obj)? }, obj)
            }
            "static" => {
                let obj = Obj::new(v, path, &with(&["w1", "w2"]))?;
                (RoundPolicy::Static { weights: weights_of(&obj)? }, obj)
            }
            "fedaecs" => {
                let obj = Obj::new(v, path, &with(&["epsilon", "mu", "t_max_s"]))?;
                (
                    RoundPolicy::FedAecs {
                        epsilon: obj.f64("epsilon")?,
                        mu: obj.f64("mu")?,
                        t_max_s: obj.opt_f64("t_max_s")?,
                    },
                    obj,
                )
            }
            "elastic" => {
                let obj = Obj::new(v, path, &with(&["alpha"]))?;
                (RoundPolicy::Elastic { alpha: obj.f64("alpha")? }, obj)
            }
            other => {
                return Err(SpecError::invalid(
                    format!("{path}.kind"),
                    format!("unknown round policy kind {other:?}"),
                ))
            }
        };
        let spec = Self { policy, label: obj.opt_str("label")?.map(str::to_string) };
        spec.validate(path)?;
        Ok(spec)
    }
}

/// The straggler model applied every round, per device, from the straggler stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// Probability a device misses the round entirely (no training, no cost).
    pub dropout: f64,
    /// Probability a participating device straggles (its computation slows down).
    pub slow: f64,
    /// Computation time/energy multiplier for a straggling device (`≥ 1`).
    pub slow_factor: f64,
}

impl Default for StragglerSpec {
    fn default() -> Self {
        Self { dropout: 0.0, slow: 0.0, slow_factor: 1.0 }
    }
}

impl StragglerSpec {
    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        for (name, v) in [("dropout", self.dropout), ("slow", self.slow)] {
            if !(v.is_finite() && (0.0..1.0).contains(&v)) {
                return Err(SpecError::invalid(
                    format!("{path}.{name}"),
                    "must be a probability in [0, 1)",
                ));
            }
        }
        if !(self.slow_factor.is_finite() && self.slow_factor >= 1.0) {
            return Err(SpecError::invalid(
                format!("{path}.slow_factor"),
                "must be a finite multiplier of at least 1",
            ));
        }
        Ok(())
    }

    pub(crate) fn to_json(self) -> Json {
        Json::obj([
            ("dropout", Json::Num(self.dropout)),
            ("slow", Json::Num(self.slow)),
            ("slow_factor", Json::Num(self.slow_factor)),
        ])
    }

    pub(crate) fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["dropout", "slow", "slow_factor"])?;
        let default = Self::default();
        let spec = Self {
            dropout: obj.opt_f64("dropout")?.unwrap_or(default.dropout),
            slow: obj.opt_f64("slow")?.unwrap_or(default.slow),
            slow_factor: obj.opt_f64("slow_factor")?.unwrap_or(default.slow_factor),
        };
        spec.validate(path)?;
        Ok(spec)
    }
}

/// The synthetic training task the round simulator learns on (see
/// [`fedsim::SyntheticConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTrainingSpec {
    /// Synthetic samples per device.
    pub samples_per_device: u64,
    /// Local SGD learning rate.
    pub learning_rate: f64,
}

impl Default for SimTrainingSpec {
    fn default() -> Self {
        Self { samples_per_device: 60, learning_rate: 0.5 }
    }
}

impl SimTrainingSpec {
    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.samples_per_device == 0 {
            return Err(SpecError::invalid(
                format!("{path}.samples_per_device"),
                "must be at least 1",
            ));
        }
        if self.samples_per_device > 1_000_000 {
            return Err(SpecError::invalid(
                format!("{path}.samples_per_device"),
                "capped at 1000000 synthetic samples per device",
            ));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(SpecError::invalid(
                format!("{path}.learning_rate"),
                "must be a positive finite number",
            ));
        }
        Ok(())
    }

    pub(crate) fn to_json(self) -> Json {
        Json::obj([
            ("samples_per_device", Json::uint(self.samples_per_device)),
            ("learning_rate", Json::Num(self.learning_rate)),
        ])
    }

    pub(crate) fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["samples_per_device", "learning_rate"])?;
        let default = Self::default();
        let spec = Self {
            samples_per_device: obj
                .opt_u64("samples_per_device")?
                .unwrap_or(default.samples_per_device),
            learning_rate: obj.opt_f64("learning_rate")?.unwrap_or(default.learning_rate),
        };
        spec.validate(path)?;
        Ok(spec)
    }
}

/// Identity of the rendered round-trajectory report.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundsReportSpec {
    /// Identifier, e.g. `"rounds-quick"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
}

impl RoundsReportSpec {
    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.id.is_empty() {
            return Err(SpecError::invalid(format!("{path}.id"), "must not be empty"));
        }
        Ok(())
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj([("id", Json::Str(self.id.clone())), ("title", Json::Str(self.title.clone()))])
    }

    pub(crate) fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["id", "title"])?;
        let spec = Self { id: obj.str("id")?.to_string(), title: obj.str("title")?.to_string() };
        spec.validate(path)?;
        Ok(spec)
    }
}

/// The optional round-simulation section of a spec, run by `fedopt sim` (the
/// `experiments::rounds` subsystem). When present, the spec's axis must hold exactly one
/// value (the single scenario point simulated) and the sweep `arms` may be empty.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundsSpec {
    /// Number of simulated global rounds `T`.
    pub rounds: u32,
    /// Per-round log-normal block-fading standard deviation in dB (`0` freezes the
    /// channel at its base realisation).
    pub refade_db: f64,
    /// The named derivation of per-round channel/straggler stream seeds. Pinned in the
    /// wire format; must be a round-indexed rule
    /// ([`StreamDerivation::RoundChannelFnv`]).
    pub channel_stream: StreamDerivation,
    /// The straggler/dropout model.
    pub straggler: StragglerSpec,
    /// The synthetic training task.
    pub training: SimTrainingSpec,
    /// The policies compared, in column order.
    pub policies: Vec<RoundPolicySpec>,
    /// Identity of the rendered trajectory report.
    pub report: RoundsReportSpec,
}

impl RoundsSpec {
    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.rounds == 0 {
            return Err(SpecError::invalid(format!("{path}.rounds"), "must be at least 1"));
        }
        if self.rounds > MAX_SIM_ROUNDS {
            return Err(SpecError::invalid(
                format!("{path}.rounds"),
                format!("capped at {MAX_SIM_ROUNDS} simulated rounds"),
            ));
        }
        if !(self.refade_db.is_finite() && self.refade_db >= 0.0) {
            return Err(SpecError::invalid(
                format!("{path}.refade_db"),
                "must be finite and non-negative",
            ));
        }
        if self.channel_stream.derive_round(0, 0) == self.channel_stream.derive_round(0, 1) {
            return Err(SpecError::invalid(
                format!("{path}.channel_stream"),
                format!(
                    "must be a round-indexed stream derivation (e.g. {:?}); {:?} maps \
                     every round to one stream",
                    StreamDerivation::RoundChannelFnv.name(),
                    self.channel_stream.name()
                ),
            ));
        }
        self.straggler.validate(&format!("{path}.straggler"))?;
        self.training.validate(&format!("{path}.training"))?;
        if self.policies.is_empty() {
            return Err(SpecError::invalid(format!("{path}.policies"), "must not be empty"));
        }
        for (i, policy) in self.policies.iter().enumerate() {
            policy.validate(&format!("{path}.policies[{i}]"))?;
        }
        self.report.validate(&format!("{path}.report"))?;
        Ok(())
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("rounds", Json::uint(u64::from(self.rounds))),
            ("refade_db", Json::Num(self.refade_db)),
            ("channel_stream", Json::Str(self.channel_stream.name().to_string())),
            ("straggler", self.straggler.to_json()),
            ("training", self.training.to_json()),
            ("policies", Json::Arr(self.policies.iter().map(RoundPolicySpec::to_json).collect())),
            ("report", self.report.to_json()),
        ])
    }

    pub(crate) fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let obj = Obj::new(
            v,
            path,
            &[
                "rounds",
                "refade_db",
                "channel_stream",
                "straggler",
                "training",
                "policies",
                "report",
            ],
        )?;
        let channel_stream = match obj.opt_str("channel_stream")? {
            None => StreamDerivation::RoundChannelFnv,
            Some(name) => StreamDerivation::from_name(name).ok_or_else(|| {
                SpecError::invalid(
                    obj.path_of("channel_stream"),
                    format!("unknown stream derivation {name:?}"),
                )
            })?,
        };
        let straggler = match obj.get("straggler") {
            Some(s) => StragglerSpec::from_json(s, &obj.path_of("straggler"))?,
            None => StragglerSpec::default(),
        };
        let training = match obj.get("training") {
            Some(t) => SimTrainingSpec::from_json(t, &obj.path_of("training"))?,
            None => SimTrainingSpec::default(),
        };
        let policies = obj
            .array("policies")?
            .iter()
            .enumerate()
            .map(|(i, p)| RoundPolicySpec::from_json(p, &format!("{path}.policies[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let spec = Self {
            rounds: obj.u64("rounds")?.try_into().map_err(|_| {
                SpecError::invalid(obj.path_of("rounds"), "must fit in a 32-bit round count")
            })?,
            refade_db: obj.opt_f64("refade_db")?.unwrap_or(0.0),
            channel_stream,
            straggler,
            training,
            policies,
            report: RoundsReportSpec::from_json(obj.req("report")?, &obj.path_of("report"))?,
        };
        spec.validate(path)?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

/// A complete, serializable description of one sweep experiment. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Wire-format version; must equal [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Short machine-friendly identifier (e.g. `"fig2"`).
    pub id: String,
    /// Human-readable description of what the sweep shows.
    pub description: String,
    /// The sweep axis.
    pub axis: AxisSpec,
    /// Scenario template shared by every point (a patch over the paper defaults).
    pub scenario: ScenarioSpec,
    /// The schemes compared, in column order.
    pub arms: Vec<ArmSpec>,
    /// Scenario seeds and stream-seed derivation.
    pub seeds: SeedSpec,
    /// Solver preset and overrides.
    pub solver: SolverSpec,
    /// Engine options.
    pub engine: EngineSpec,
    /// Reports rendered from the evaluated grid, in output order.
    pub reports: Vec<ReportSpec>,
    /// Optional round-simulation section, run by `fedopt sim` instead of the sweep
    /// engine. When present, `arms` may be empty and the axis must hold one value.
    pub rounds: Option<RoundsSpec>,
}

/// The outcome of running a spec: the raw evaluated grid plus the rendered reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRun {
    /// The evaluated grid (aggregates + work counters).
    pub result: SweepResult,
    /// The spec's reports, rendered in order.
    pub reports: Vec<FigureReport>,
}

impl ExperimentSpec {
    /// A minimal spec skeleton: one axis, no arms yet, one seed, default solver/engine,
    /// no reports. Useful as a starting point for hand-built experiments.
    pub fn new(id: &str, axis: AxisSpec) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            id: id.to_string(),
            description: String::new(),
            axis,
            scenario: ScenarioSpec::default(),
            arms: Vec::new(),
            seeds: SeedSpec::count(1),
            solver: SolverSpec::default(),
            engine: EngineSpec::default(),
            reports: Vec::new(),
            rounds: None,
        }
    }

    /// Replaces the seed policy with the range `0..count` (the CLI's `--seeds N`).
    pub fn override_seed_count(&mut self, count: u64) {
        self.seeds.policy = SeedPolicy::Range { start: 0, count };
    }

    /// Validates every component without compiling the grid.
    ///
    /// # Errors
    ///
    /// The first [`SpecError::Invalid`] found, with the offending field's path.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(SpecError::invalid(
                "schema_version",
                format!("expected {SCHEMA_VERSION}, got {}", self.schema_version),
            ));
        }
        if self.id.is_empty() {
            return Err(SpecError::invalid("id", "must not be empty"));
        }
        if self.axis.values.is_empty() {
            return Err(SpecError::invalid("axis.values", "must not be empty"));
        }
        for (i, &x) in self.axis.values.iter().enumerate() {
            self.axis.kind.check(x, &format!("axis.values[{i}]"))?;
        }
        self.scenario.validate("scenario")?;
        if let Some(rounds) = &self.rounds {
            rounds.validate("rounds")?;
            if self.axis.values.len() != 1 {
                return Err(SpecError::invalid(
                    "axis.values",
                    format!(
                        "a round-simulation spec pins one scenario point, so the axis \
                         must hold exactly one value (got {})",
                        self.axis.values.len()
                    ),
                ));
            }
        }
        if self.arms.is_empty() && self.rounds.is_none() {
            return Err(SpecError::invalid("arms", "must not be empty"));
        }
        for (i, arm) in self.arms.iter().enumerate() {
            arm.validate(&format!("arms[{i}]"))?;
            let needs_axis_deadline = matches!(
                arm.kind,
                ArmKind::DeadlineProposed { deadline: DeadlineSpec::Axis }
                    | ArmKind::CommOnly
                    | ArmKind::CompOnly
            );
            if needs_axis_deadline && self.axis.kind != AxisKind::DeadlineS {
                return Err(SpecError::invalid(
                    format!("arms[{i}]"),
                    format!(
                        "arm kind `{}` reads its deadline from the axis, which requires a \
                         `deadline_s` axis (got `{}`)",
                        arm.kind.name(),
                        self.axis.kind.name()
                    ),
                ));
            }
        }
        self.seeds.validate("seeds")?;
        self.solver.validate("solver")?;
        self.engine.validate("engine")?;
        Ok(())
    }

    /// Compiles the spec into the imperative [`SweepGrid`] the engine evaluates.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when validation fails.
    pub fn grid(&self) -> Result<SweepGrid, SpecError> {
        self.validate()?;
        if self.arms.is_empty() {
            return Err(SpecError::invalid(
                "arms",
                "this spec has no sweep arms; round-simulation specs run with `fedopt sim`",
            ));
        }
        let solver = self.solver.resolve();
        let template = self.scenario.apply(ScenarioBuilder::paper_default());
        let mut grid = SweepGrid::new(self.seeds.values());
        for &x in &self.axis.values {
            grid = grid.point(x, self.axis.kind.apply(template.clone(), x));
        }
        for arm in &self.arms {
            grid = grid.arm(SpecArm::new(arm.clone(), solver));
        }
        Ok(grid)
    }

    /// Runs the spec on the engine its [`EngineSpec`] describes.
    ///
    /// # Errors
    ///
    /// Validation errors, or any sweep error from the engine.
    pub fn run(&self) -> Result<SpecRun, SpecError> {
        self.run_with_engine(&self.engine.to_engine())
    }

    /// Runs the spec on an explicit engine (thread-count and warm-start control for
    /// tests; the spec's own [`EngineSpec`] is ignored).
    ///
    /// # Errors
    ///
    /// Validation errors, or any sweep error from the engine.
    pub fn run_with_engine(&self, engine: &SweepEngine) -> Result<SpecRun, SpecError> {
        let result = engine.run_spec(self)?;
        let reports = self.render_reports(&result);
        Ok(SpecRun { result, reports })
    }

    /// Renders the spec's reports from an already-evaluated grid.
    pub fn render_reports(&self, result: &SweepResult) -> Vec<FigureReport> {
        self.reports.iter().map(|r| r.render(result)).collect()
    }

    /// The spec as a JSON value (deterministic member order).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("schema_version".to_string(), Json::uint(self.schema_version)),
            ("id".to_string(), Json::Str(self.id.clone())),
            ("description".to_string(), Json::Str(self.description.clone())),
            ("axis".to_string(), self.axis.to_json()),
            ("scenario".to_string(), self.scenario.to_json()),
            ("arms".to_string(), Json::Arr(self.arms.iter().map(ArmSpec::to_json).collect())),
            ("seeds".to_string(), self.seeds.to_json()),
            ("solver".to_string(), self.solver.to_json()),
            ("engine".to_string(), self.engine.to_json()),
            (
                "reports".to_string(),
                Json::Arr(self.reports.iter().map(ReportSpec::to_json).collect()),
            ),
        ];
        // Appended last and omitted when unset, so sweep-only specs keep their bytes.
        if let Some(rounds) = &self.rounds {
            members.push(("rounds".to_string(), rounds.to_json()));
        }
        Json::Obj(members)
    }

    /// The canonical serialized form (pretty-printed, trailing newline) — byte-stable for
    /// a given spec, and lossless: `from_json_str(to_json_string(s)) == s`.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a spec from a JSON value and validates it.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] on schema-version mismatch, unknown keys, wrong types, or
    /// failed validation.
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        let obj = Obj::new(
            v,
            "spec",
            &[
                "schema_version",
                "id",
                "description",
                "axis",
                "scenario",
                "arms",
                "seeds",
                "solver",
                "engine",
                "reports",
                "rounds",
            ],
        )?;
        let version = obj.u64("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(SpecError::invalid(
                "spec.schema_version",
                format!("this build reads schema version {SCHEMA_VERSION}, got {version}"),
            ));
        }
        let arms = obj
            .array("arms")?
            .iter()
            .enumerate()
            .map(|(i, arm)| ArmSpec::from_json(arm, &format!("spec.arms[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let reports = obj
            .array("reports")?
            .iter()
            .enumerate()
            .map(|(i, r)| ReportSpec::from_json(r, &format!("spec.reports[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let spec = Self {
            schema_version: version,
            id: obj.str("id")?.to_string(),
            description: obj.str("description")?.to_string(),
            axis: AxisSpec::from_json(obj.req("axis")?, "spec.axis")?,
            scenario: ScenarioSpec::from_json(obj.req("scenario")?, "spec.scenario")?,
            arms,
            seeds: SeedSpec::from_json(obj.req("seeds")?, "spec.seeds")?,
            solver: SolverSpec::from_json(obj.req("solver")?, "spec.solver")?,
            engine: EngineSpec::from_json(obj.req("engine")?, "spec.engine")?,
            reports,
            rounds: match obj.get("rounds") {
                Some(r) => Some(RoundsSpec::from_json(r, "spec.rounds")?),
                None => None,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses and validates a spec from its serialized form.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] for malformed JSON, otherwise as [`ExperimentSpec::from_json`].
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }
}

impl SweepEngine {
    /// Compiles and evaluates a spec on this engine: `spec → SweepGrid → SweepResult`.
    /// The spec's own [`EngineSpec`] is **not** consulted (this engine's settings win);
    /// use [`ExperimentSpec::run`] to honor it.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when the spec fails validation, [`SpecError::Sweep`] when a
    /// cell fails.
    pub fn run_spec(&self, spec: &ExperimentSpec) -> Result<SweepResult, SpecError> {
        let grid = spec.grid()?;
        self.run(&grid).map_err(SpecError::Sweep)
    }
}

// ---------------------------------------------------------------------------
// Strict object reader
// ---------------------------------------------------------------------------

/// Strict object accessor: type checks, required/optional getters, unknown-key rejection,
/// and dotted error paths.
pub(crate) struct Obj<'a> {
    path: &'a str,
    members: &'a [(String, Json)],
}

impl<'a> Obj<'a> {
    /// An object whose keys must all be in `allowed`.
    pub(crate) fn new(v: &'a Json, path: &'a str, allowed: &[&str]) -> Result<Self, SpecError> {
        let obj = Self::any(v, path)?;
        obj.check_keys(allowed)?;
        Ok(obj)
    }

    /// An object with no key restrictions (used to peek at a discriminator first).
    pub(crate) fn any(v: &'a Json, path: &'a str) -> Result<Self, SpecError> {
        match v.as_object() {
            Some(members) => Ok(Self { path, members }),
            None => Err(SpecError::invalid(path, "expected a JSON object")),
        }
    }

    pub(crate) fn check_keys(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (key, _) in self.members {
            if !allowed.contains(&key.as_str()) {
                return Err(SpecError::invalid(
                    self.path_of(key),
                    format!("unknown key (allowed: {})", allowed.join(", ")),
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn path_of(&self, key: &str) -> String {
        format!("{}.{key}", self.path)
    }

    pub(crate) fn get(&self, key: &str) -> Option<&'a Json> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub(crate) fn req(&self, key: &str) -> Result<&'a Json, SpecError> {
        self.get(key).ok_or_else(|| SpecError::invalid(self.path_of(key), "missing required key"))
    }

    pub(crate) fn str(&self, key: &str) -> Result<&'a str, SpecError> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| SpecError::invalid(self.path_of(key), "expected a string"))
    }

    pub(crate) fn opt_str(&self, key: &str) -> Result<Option<&'a str>, SpecError> {
        self.get(key)
            .map(|v| {
                v.as_str().ok_or_else(|| SpecError::invalid(self.path_of(key), "expected a string"))
            })
            .transpose()
    }

    pub(crate) fn f64(&self, key: &str) -> Result<f64, SpecError> {
        self.req(key)?
            .as_f64()
            .ok_or_else(|| SpecError::invalid(self.path_of(key), "expected a number"))
    }

    pub(crate) fn opt_f64(&self, key: &str) -> Result<Option<f64>, SpecError> {
        self.get(key)
            .map(|v| {
                v.as_f64().ok_or_else(|| SpecError::invalid(self.path_of(key), "expected a number"))
            })
            .transpose()
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, SpecError> {
        self.req(key)?.as_u64().ok_or_else(|| {
            SpecError::invalid(self.path_of(key), "expected a non-negative integer (≤ 2^53)")
        })
    }

    pub(crate) fn opt_u64(&self, key: &str) -> Result<Option<u64>, SpecError> {
        self.get(key)
            .map(|v| {
                v.as_u64().ok_or_else(|| {
                    SpecError::invalid(
                        self.path_of(key),
                        "expected a non-negative integer (≤ 2^53)",
                    )
                })
            })
            .transpose()
    }

    pub(crate) fn opt_u32(&self, key: &str) -> Result<Option<u32>, SpecError> {
        self.opt_u64(key)?
            .map(|v| {
                u32::try_from(v).map_err(|_| {
                    SpecError::invalid(self.path_of(key), "expected a 32-bit unsigned integer")
                })
            })
            .transpose()
    }

    pub(crate) fn opt_usize(&self, key: &str) -> Result<Option<usize>, SpecError> {
        self.opt_u64(key)?
            .map(|v| {
                usize::try_from(v).map_err(|_| {
                    SpecError::invalid(self.path_of(key), "does not fit this platform's usize")
                })
            })
            .transpose()
    }

    pub(crate) fn opt_bool(&self, key: &str) -> Result<Option<bool>, SpecError> {
        self.get(key)
            .map(|v| {
                v.as_bool()
                    .ok_or_else(|| SpecError::invalid(self.path_of(key), "expected a boolean"))
            })
            .transpose()
    }

    pub(crate) fn array(&self, key: &str) -> Result<&'a [Json], SpecError> {
        self.req(key)?
            .as_array()
            .ok_or_else(|| SpecError::invalid(self.path_of(key), "expected an array"))
    }

    pub(crate) fn f64_array(&self, key: &str) -> Result<Vec<f64>, SpecError> {
        self.array(key)?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_f64().ok_or_else(|| {
                    SpecError::invalid(format!("{}[{i}]", self.path_of(key)), "expected a number")
                })
            })
            .collect()
    }

    pub(crate) fn u64_array(&self, key: &str) -> Result<Vec<u64>, SpecError> {
        self.array(key)?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_u64().ok_or_else(|| {
                    SpecError::invalid(
                        format!("{}[{i}]", self.path_of(key)),
                        "expected a non-negative integer (≤ 2^53)",
                    )
                })
            })
            .collect()
    }

    pub(crate) fn opt_f64_pair(&self, key: &str) -> Result<Option<(f64, f64)>, SpecError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let items = v.as_array().ok_or_else(|| {
                    SpecError::invalid(self.path_of(key), "expected a two-number array")
                })?;
                match items {
                    [a, b] => match (a.as_f64(), b.as_f64()) {
                        (Some(lo), Some(hi)) => Ok(Some((lo, hi))),
                        _ => Err(SpecError::invalid(
                            self.path_of(key),
                            "expected a two-number array",
                        )),
                    },
                    _ => Err(SpecError::invalid(self.path_of(key), "expected exactly two numbers")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Arm;

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            "tiny",
            AxisSpec { kind: AxisKind::PMaxDbm, values: vec![6.0, 12.0] },
        );
        spec.description = "tiny fixture".to_string();
        spec.scenario.devices = Some(5);
        spec.arms = vec![
            ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() }),
            ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }),
        ];
        spec.seeds = SeedSpec::list(vec![1, 2]);
        spec.solver = SolverSpec::fast();
        spec.reports = vec![ReportSpec::new("tinya", Metric::Energy, "t", "p_max (dBm)")];
        spec
    }

    #[test]
    fn round_trips_through_json() {
        let spec = tiny_spec();
        let text = spec.to_json_string();
        assert_eq!(ExperimentSpec::from_json_str(&text).unwrap(), spec);
        // And the canonical form is stable under a second round trip.
        assert_eq!(ExperimentSpec::from_json_str(&text).unwrap().to_json_string(), text);
    }

    #[test]
    fn unknown_keys_and_versions_are_rejected() {
        let spec = tiny_spec();
        let mut json = spec.to_json();
        if let Json::Obj(members) = &mut json {
            members.push(("surprise".to_string(), Json::Bool(true)));
        }
        let err = ExperimentSpec::from_json(&json).unwrap_err();
        assert!(
            matches!(&err, SpecError::Invalid { path, .. } if path == "spec.surprise"),
            "{err}"
        );

        // A retired engine switch or solver knob is an unknown key like any typo.
        for (section, key, value) in [
            ("engine", "scenario_sharing", Json::Bool(false)),
            ("engine", "streaming", Json::Bool(false)),
            ("engine", "seed_chunk", Json::uint(7)),
            ("engine", "shard_retries", Json::uint(2)),
            ("engine", "shard_timeout_s", Json::uint(60)),
            ("solver", "feasibility_tol", Json::Num(1e-6)),
            ("solver", "warm_rmin_tol", Json::Num(1e-4)),
        ] {
            let mut retired = spec.to_json();
            if let Json::Obj(members) = &mut retired {
                let (_, table) = members.iter_mut().find(|(k, _)| k == section).unwrap();
                if let Json::Obj(fields) = table {
                    fields.push((key.to_string(), value));
                }
            }
            let err = ExperimentSpec::from_json(&retired).unwrap_err();
            let expected = format!("spec.{section}.{key}");
            assert!(matches!(&err, SpecError::Invalid { path, .. } if *path == expected), "{err}");
        }

        let mut wrong_version = spec.to_json();
        if let Json::Obj(members) = &mut wrong_version {
            members[0].1 = Json::uint(999);
        }
        let err = ExperimentSpec::from_json(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("schema version"), "{err}");
    }

    #[test]
    fn validation_catches_structural_mistakes() {
        let mut no_arms = tiny_spec();
        no_arms.arms.clear();
        assert!(
            matches!(no_arms.validate(), Err(SpecError::Invalid { path, .. }) if path == "arms")
        );

        let mut bad_axis = tiny_spec();
        bad_axis.axis = AxisSpec { kind: AxisKind::Devices, values: vec![2.5] };
        assert!(bad_axis.validate().is_err(), "fractional device counts must be rejected");

        let mut axis_deadline_mismatch = tiny_spec();
        axis_deadline_mismatch.arms.push(ArmSpec::new(ArmKind::CommOnly));
        let err = axis_deadline_mismatch.validate().unwrap_err();
        assert!(err.to_string().contains("deadline_s"), "{err}");

        let mut conflicting_samples = tiny_spec();
        conflicting_samples.scenario.samples_per_device = Some(10);
        conflicting_samples.scenario.total_samples = Some(100);
        assert!(conflicting_samples.validate().is_err());

        let mut empty_seeds = tiny_spec();
        empty_seeds.seeds = SeedSpec::list(Vec::new());
        assert!(empty_seeds.validate().is_err());

        // A non-positive deadline axis must fail as loudly as the fixed-deadline form.
        let mut zero_deadline_axis = tiny_spec();
        zero_deadline_axis.axis = AxisSpec { kind: AxisKind::DeadlineS, values: vec![0.0] };
        zero_deadline_axis.arms =
            vec![ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::Axis })];
        let err = zero_deadline_axis.validate().unwrap_err();
        assert!(err.to_string().contains("strictly positive"), "{err}");

        let mut zero_radius = tiny_spec();
        zero_radius.scenario.radius_km = Some(0.0);
        assert!(zero_radius.validate().is_err());

        // Seed counts the grid compiler could never materialize are a loud validation
        // error, not an OOM at compile time.
        let mut huge_range = tiny_spec();
        huge_range.seeds = SeedSpec {
            policy: SeedPolicy::Range { start: 0, count: MAX_SEEDS + 1 },
            ..huge_range.seeds
        };
        let err = huge_range.validate().unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
        let mut max_range = tiny_spec();
        max_range.seeds = SeedSpec {
            policy: SeedPolicy::Range { start: 0, count: MAX_SEEDS },
            ..max_range.seeds
        };
        assert!(max_range.validate().is_ok(), "the cap itself is allowed");

        // Arm streams always derive with `xor-golden32`; another named rule would be
        // silently ignored, so it is refused.
        let mut other_stream = tiny_spec();
        other_stream.seeds.stream_derivation = StreamDerivation::RoundChannelFnv;
        assert!(
            matches!(other_stream.validate(), Err(SpecError::Invalid { path, .. })
                if path == "seeds.stream_derivation"),
            "a stream rule sweeps do not use must be rejected"
        );
    }

    #[test]
    fn seed_policies_materialize_in_order() {
        assert_eq!(SeedSpec::count(3).values(), vec![0, 1, 2]);
        assert_eq!(
            SeedSpec { policy: SeedPolicy::Range { start: 5, count: 2 }, ..SeedSpec::count(1) }
                .values(),
            vec![5, 6]
        );
        assert_eq!(SeedSpec::list(vec![11, 7]).values(), vec![11, 7]);
    }

    #[test]
    fn engine_spec_round_trips_and_builds() {
        let spec = EngineSpec { threads: Some(2), warm_start: Some(false) };
        let parsed = EngineSpec::from_json(&spec.to_json(), "engine").unwrap();
        assert_eq!(parsed, spec);
        let engine = spec.to_engine();
        assert_eq!(engine.threads(), 2);
        // The spec's warm-start default applies unless the environment pins one.
        assert_eq!(engine.warm_starts(), crate::engine::warm_start_env().unwrap_or(false));
        // The empty spec serializes to an empty object.
        assert_eq!(EngineSpec::default().to_json(), Json::Obj(vec![]));
    }

    #[test]
    fn solver_overrides_resolve_over_the_preset() {
        let mut spec = SolverSpec::fast();
        spec.outer_tol = Some(2.5e-3);
        spec.polish_with_reference = Some(false);
        let config = spec.resolve();
        assert_eq!(config.outer_max_iter, SolverConfig::fast().outer_max_iter);
        assert_eq!(config.outer_tol, 2.5e-3);
        assert!(!config.polish_with_reference);
        // No overrides: exactly the preset.
        assert_eq!(SolverSpec::fast().resolve(), SolverConfig::fast());
        assert_eq!(SolverSpec::default().resolve(), SolverConfig::default());
    }

    #[test]
    fn compiled_grid_matches_a_hand_built_one() {
        let spec = tiny_spec();
        let grid = spec.grid().unwrap();
        assert_eq!(grid.seeds, vec![1, 2]);
        assert_eq!(grid.points.len(), 2);
        assert_eq!(grid.arms.len(), 2);
        assert_eq!(grid.arms[0].name(), "proposed w1=0.5,w2=0.5");
        assert_eq!(grid.arms[1].name(), "benchmark");
        let expected = ScenarioBuilder::paper_default().with_devices(5).with_p_max_dbm(12.0);
        assert_eq!(grid.points[1].builder, expected);
    }

    #[test]
    fn labeled_and_patched_arms_compile_to_configured_arms() {
        let arm = ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })
            .labeled("N = 3")
            .with_scenario(ScenarioSpec { devices: Some(3), ..ScenarioSpec::default() });
        let live = SpecArm::new(arm, SolverConfig::fast());
        assert_eq!(live.name(), "N = 3");
        let base = ScenarioBuilder::paper_default();
        assert_eq!(live.prepare(&base), base.clone().with_devices(3));
    }

    #[test]
    fn run_spec_evaluates_the_grid() {
        let mut spec = tiny_spec();
        spec.seeds = SeedSpec::list(vec![1]);
        spec.axis.values = vec![12.0];
        let run = spec.run_with_engine(&SweepEngine::single_thread()).unwrap();
        assert_eq!(run.result.xs, vec![12.0]);
        assert_eq!(run.reports.len(), 1);
        assert_eq!(run.reports[0].id, "tinya");
        assert!(run.result.aggregates[0][0].mean_energy_j > 0.0);
    }
}
