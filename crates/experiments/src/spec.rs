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
//!
//! Each fixed-shape section — the spec itself, its scenario, solver, engine and reports,
//! and the round simulation's rounds, straggler, training and report blocks — is declared
//! as one row per key: the key's name, its type, the value an absent key takes, its range
//! check and, for scenario and solver keys, the setter it applies. The rows alone decide
//! the section's member order, the keys it accepts, how each value parses, and that an
//! out-of-range value is reported at `spec.<section>.<key>`. Every value on the wire
//! (scalars, lists, options, sections, and the tagged arm and policy shapes) reads and
//! writes through one crate-private `Field` trait. Only rules across keys or sections are
//! written out by hand: `samples_per_device` ⊕ `total_samples`, axis-deadline arms, the
//! seed range, and the one-point round-simulation axis. Parsing checks every rule once, as
//! it reads; [`ExperimentSpec::validate`] walks the same rules over a spec built in code,
//! so either way an error names a path under `spec.`.

use crate::arms::SpecArm;
use crate::engine::{Aggregate, SweepEngine, SweepGrid, SweepResult};
use crate::json::{Json, JsonError, MAX_EXACT_INT};
use crate::report::FigureReport;
use baselines::StreamDerivation;
use fedopt_core::{CoreError, SolverConfig};
use flsys::{ScenarioBuilder, Weights};
use serde::{Deserialize, Serialize};
use std::fmt::{self, Display};

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
        /// Dotted path of the field, e.g. `spec.axis.values[2]`.
        path: String,
        /// What is wrong with it.
        message: String,
    },
    /// The compiled sweep failed while running.
    Sweep(CoreError),
}

impl SpecError {
    pub(crate) fn invalid(path: impl Display, message: impl Into<String>) -> Self {
        Self::Invalid { path: path.to_string(), message: message.into() }
    }

    /// `<path>: <message>`, how a document other than a spec names an invalid member.
    pub(crate) fn path_message(self) -> String {
        match self {
            Self::Invalid { path, message } => format!("{path}: {message}"),
            other => other.to_string(),
        }
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
// Fields and sections: how every wire value reads, writes and validates
// ---------------------------------------------------------------------------

/// A value of the wire format. Paths are dotted (`spec.arms[2].w1`) and only formatted
/// when an error needs one.
pub(crate) trait Field: Sized {
    /// Reads the value, naming `path` in any error.
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError>;

    /// The value as JSON, or `None` to leave its key out (an unset option).
    fn write(&self) -> Option<Json>;

    /// What an absent key reads as; `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }

    /// Checks the value held at `path`. Sections and tagged shapes check their members;
    /// a scalar's range is its row's check instead.
    fn validate(&self, _path: &dyn Display) -> Result<(), SpecError> {
        Ok(())
    }
}

/// Scalars read with one [`Json`] accessor; a wrong-typed value fails as `expected …`.
macro_rules! scalar_fields {
    ($($ty:ty: $expected:literal, |$json:ident| $read:expr, |$value:ident| $write:expr;)*) => {$(
        impl Field for $ty {
            fn read($json: &Json, path: &dyn Display) -> Result<Self, SpecError> {
                $read.ok_or_else(|| SpecError::invalid(path, $expected))
            }

            fn write(&self) -> Option<Json> {
                let $value = self;
                Some($write)
            }
        }
    )*};
}

scalar_fields! {
    f64: "expected a number", |v| v.as_f64(), |x| Json::Num(*x);
    u64: "expected a non-negative integer (≤ 2^53)", |v| v.as_u64(), |x| Json::uint(*x);
    bool: "expected a boolean", |v| v.as_bool(), |x| Json::Bool(*x);
    String: "expected a string", |v| v.as_str().map(str::to_string), |x| Json::Str(x.clone());
}

/// Narrower unsigned integers: read as a `u64`, then range-checked.
macro_rules! narrow_fields {
    ($($ty:ty: $expected:literal;)*) => {$(
        impl Field for $ty {
            fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
                Self::try_from(u64::read(v, path)?)
                    .map_err(|_| SpecError::invalid(path, $expected))
            }

            fn write(&self) -> Option<Json> {
                Some(Json::uint(*self as u64))
            }
        }
    )*};
}

narrow_fields! {
    u32: "expected a 32-bit unsigned integer";
    usize: "does not fit this platform's usize";
}

impl Field for (f64, f64) {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        let invalid = |message| SpecError::invalid(path, message);
        match v.as_array().ok_or_else(|| invalid("expected a two-number array"))? {
            [lo, hi] => match (lo.as_f64(), hi.as_f64()) {
                (Some(lo), Some(hi)) => Ok((lo, hi)),
                _ => Err(invalid("expected a two-number array")),
            },
            _ => Err(invalid("expected exactly two numbers")),
        }
    }

    fn write(&self) -> Option<Json> {
        Some(Json::Arr(vec![Json::Num(self.0), Json::Num(self.1)]))
    }
}

impl<T: Field> Field for Option<T> {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        T::read(v, path).map(Some)
    }

    fn write(&self) -> Option<Json> {
        self.as_ref()?.write()
    }

    fn absent() -> Option<Self> {
        Some(None)
    }

    fn validate(&self, path: &dyn Display) -> Result<(), SpecError> {
        self.as_ref().map_or(Ok(()), |value| value.validate(path))
    }
}

impl<T: Field> Field for Vec<T> {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        let items = v.as_array().ok_or_else(|| SpecError::invalid(path, "expected an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item, &format_args!("{path}[{i}]")))
            .collect()
    }

    fn write(&self) -> Option<Json> {
        Some(Json::Arr(self.iter().filter_map(Field::write).collect()))
    }

    fn validate(&self, path: &dyn Display) -> Result<(), SpecError> {
        self.iter()
            .enumerate()
            .try_for_each(|(i, item)| item.validate(&format_args!("{path}[{i}]")))
    }
}

/// A value written as its wire name: `name()` writes it, `from_name` reads it back, and
/// an unknown name fails as `unknown <what> "…"`.
macro_rules! name_field {
    ($ty:ty, $what:literal) => {
        impl $crate::spec::Field for $ty {
            fn read(
                v: &$crate::json::Json,
                path: &dyn ::std::fmt::Display,
            ) -> Result<Self, $crate::spec::SpecError> {
                use $crate::spec::SpecError;
                let name =
                    v.as_str().ok_or_else(|| SpecError::invalid(path, "expected a string"))?;
                Self::from_name(name)
                    .ok_or_else(|| SpecError::invalid(path, format!("unknown {} {name:?}", $what)))
            }

            fn write(&self) -> Option<$crate::json::Json> {
                Some($crate::json::Json::Str(self.name().to_string()))
            }
        }
    };
}
pub(crate) use name_field;

name_field!(StreamDerivation, "stream derivation");

/// Names each value of a fieldless wire enum once, for both its `name()` and parsing.
macro_rules! wire_names {
    ($vis:vis $ty:ident, $what:literal { $($variant:ident => $name:literal,)* }) => {
        impl $ty {
            /// The stable wire name of this value.
            $vis const fn name(self) -> &'static str {
                match self {
                    $(Self::$variant => $name,)*
                }
            }

            /// Looks a value up by its wire name.
            $vis fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($name => Some(Self::$variant),)*
                    _ => None,
                }
            }
        }

        $crate::spec::name_field!($ty, $what);
    };
}
pub(crate) use wire_names;

/// An object of the members that are set, in the given order.
pub(crate) fn object<'k>(members: impl IntoIterator<Item = (&'k str, Option<Json>)>) -> Json {
    Json::Obj(
        members.into_iter().filter_map(|(key, value)| Some((key.to_string(), value?))).collect(),
    )
}

/// Declares a fixed-shape section as one row per key,
/// `key: Type [= default] [, check f] [, apply g];`, then an optional `apply Target;` and
/// an optional `cross f;` rule over the whole section.
///
/// The rows generate the public struct, its `KEYS` (the member order it writes and the
/// allowed list an unknown key is rejected with) and its [`Field`] impl. An absent key
/// reads as its row's default; without one it is unset (`Option` rows) or required.
/// Reading checks each row as soon as it is read, its value's own members first and then
/// the row's check, whose message is reported at `<path>.<key>`; the `cross` rule runs
/// last. [`Field::validate`] walks the same rules over a value built in code. With
/// `apply Target;` the section also gets `apply(&self, Target) -> Target`, which hands
/// every set `Option` row to its `g(target, value)` in row order.
macro_rules! section {
    (@default) => { None };
    (@default $default:expr) => { Some($default) };
    (@apply $name:ident, $target:ty, {
        $(
            $(#[$row_meta:meta])*
            $key:ident: $ty:ty $(= $default:expr)? $(, check $check:expr)? $(, apply $apply:expr)?;
        )*
    }) => {
        impl $name {
            /// Applies the set keys to `target` in row order; unset keys leave it unchanged.
            pub fn apply(&self, target: $target) -> $target {
                $($(let target = $crate::spec::apply_row(target, self.$key, $apply);)?)*
                target
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($rows:tt)* }
        apply $target:ty;
        $(cross $cross:ident;)?
    ) => {
        $crate::spec::section! { $(#[$meta])* pub struct $name { $($rows)* } $(cross $cross;)? }
        $crate::spec::section!(@apply $name, $target, { $($rows)* });
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$row_meta:meta])*
                $key:ident: $ty:ty $(= $default:expr)? $(, check $check:expr)? $(, apply $apply:expr)?;
            )*
        }
        $(cross $cross:ident;)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$row_meta])* pub $key: $ty,)*
        }

        impl $name {
            /// The section's keys, in the order it writes them.
            const KEYS: &'static [&'static str] = &[$(stringify!($key)),*];
        }

        impl $crate::spec::Field for $name {
            fn read(
                v: &$crate::json::Json,
                path: &dyn ::std::fmt::Display,
            ) -> Result<Self, $crate::spec::SpecError> {
                let obj = $crate::spec::Obj::new(v, path, Self::KEYS)?;
                let section = Self {
                    $($key: {
                        let default = $crate::spec::section!(@default $($default)?);
                        let value: $ty = obj.field(stringify!($key), default)?;
                        $($crate::spec::check_at(path, stringify!($key), $check(&value))?;)?
                        value
                    },)*
                };
                $($cross(&section, path)?;)?
                Ok(section)
            }

            fn write(&self) -> Option<$crate::json::Json> {
                Some($crate::spec::object([
                    $((stringify!($key), $crate::spec::Field::write(&self.$key))),*
                ]))
            }

            fn validate(
                &self,
                path: &dyn ::std::fmt::Display,
            ) -> Result<(), $crate::spec::SpecError> {
                $(
                    $crate::spec::Field::validate(
                        &self.$key,
                        &format_args!("{path}.{}", stringify!($key)),
                    )?;
                    $($crate::spec::check_at(path, stringify!($key), $check(&self.$key))?;)?
                )*
                $($cross(self, path)?;)?
                Ok(())
            }
        }
    };
}
pub(crate) use section;

/// One `apply` row: `apply(target, value)` when the row is set.
pub(crate) fn apply_row<T, V>(target: T, value: Option<V>, apply: fn(T, V) -> T) -> T {
    match value {
        Some(value) => apply(target, value),
        None => target,
    }
}

// Row checks. Each returns what an out-of-range value must be; the section names the path.

/// A check's failure, reported at `<path>.<key>`.
pub(crate) fn check_at(
    path: &dyn Display,
    key: &str,
    check: Result<(), String>,
) -> Result<(), SpecError> {
    check.map_err(|message| SpecError::invalid(format_args!("{path}.{key}"), message))
}

/// The check of an `Option` row: an unset value passes.
pub(crate) fn opt<T>(
    check: fn(&T) -> Result<(), String>,
) -> impl Fn(&Option<T>) -> Result<(), String> {
    move |value| value.as_ref().map_or(Ok(()), check)
}

pub(crate) fn ensure(ok: bool, message: impl Display) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| message.to_string())
}

pub(crate) fn at_least_one<T: PartialEq + From<u8>>(n: &T) -> Result<(), String> {
    ensure(*n != T::from(0), "must be at least 1")
}

/// Physical magnitudes.
fn positive(v: &f64) -> Result<(), String> {
    ensure(v.is_finite() && *v > 0.0, "must be a positive finite number")
}

/// dBm values: log-scale, so negative is meaningful.
fn finite(v: &f64) -> Result<(), String> {
    ensure(v.is_finite(), "must be finite")
}

/// Spreads in dB, where `0` disables the effect.
fn non_negative(v: &f64) -> Result<(), String> {
    ensure(v.is_finite() && *v >= 0.0, "must be finite and non-negative")
}

pub(crate) fn seconds(t: &f64) -> Result<(), String> {
    ensure(t.is_finite() && *t > 0.0, "must be a positive finite number of seconds")
}

fn probability(v: &f64) -> Result<(), String> {
    ensure(v.is_finite() && (0.0..1.0).contains(v), "must be a probability in [0, 1)")
}

fn multiplier(v: &f64) -> Result<(), String> {
    ensure(v.is_finite() && *v >= 1.0, "must be a finite multiplier of at least 1")
}

/// A device count: at least one, at most [`MAX_DEVICES`] (also the `devices` axis check).
fn devices_in_range(n: &usize) -> Result<(), String> {
    at_least_one(n)?;
    ensure(
        *n <= MAX_DEVICES,
        format_args!(
            "capped at {MAX_DEVICES} devices per scenario (got {n}); fleet-scale \
             experiments should start from the `large_n` quick preset \
             (`experiments::presets::large_n`) and spread the seed grid with \
             `fedopt run --shards N` instead of growing a single scenario past the guardrail"
        ),
    )
}

fn ordered_range(&(lo, hi): &(f64, f64)) -> Result<(), String> {
    let ordered = lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo;
    ensure(ordered, format_args!("range [{lo}, {hi}] must be positive and ordered"))
}

fn not_empty_str(s: &str) -> Result<(), String> {
    ensure(!s.is_empty(), "must not be empty")
}

fn not_empty<T>(items: &[T]) -> Result<(), String> {
    ensure(!items.is_empty(), "must not be empty")
}

fn synthetic_samples(n: &u64) -> Result<(), String> {
    at_least_one(n)?;
    ensure(*n <= 1_000_000, "capped at 1000000 synthetic samples per device")
}

fn sim_rounds(n: &u32) -> Result<(), String> {
    at_least_one(n)?;
    ensure(*n <= MAX_SIM_ROUNDS, format_args!("capped at {MAX_SIM_ROUNDS} simulated rounds"))
}

/// A round-sim stream rule must give each round its own stream.
fn round_indexed(rule: &StreamDerivation) -> Result<(), String> {
    ensure(
        rule.derive_round(0, 0) != rule.derive_round(0, 1),
        format_args!(
            "must be a round-indexed stream derivation (e.g. {:?}); {:?} maps every round to \
             one stream",
            StreamDerivation::RoundChannelFnv.name(),
            rule.name()
        ),
    )
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

wire_names!(pub AxisKind, "axis name" {
    PMaxDbm => "p_max_dbm",
    FMaxGhz => "f_max_ghz",
    Devices => "devices",
    RadiusKm => "radius_km",
    LocalIterations => "local_iterations",
    GlobalRounds => "global_rounds",
    DeadlineS => "deadline_s",
});

impl AxisKind {
    /// Whether values on this axis must be positive integers.
    pub fn is_integer(self) -> bool {
        matches!(self, Self::Devices | Self::LocalIterations | Self::GlobalRounds)
    }

    fn check(self, x: f64, path: &dyn Display) -> Result<(), SpecError> {
        if !x.is_finite() {
            return Err(SpecError::invalid(path, "axis values must be finite"));
        }
        if self.is_integer() && (x.fract() != 0.0 || !(1.0..=4_294_967_295.0).contains(&x)) {
            return Err(SpecError::invalid(
                path,
                format!("axis `{}` requires positive integer values, got {x}", self.name()),
            ));
        }
        if self == Self::Devices {
            devices_in_range(&(x as usize)).map_err(|message| SpecError::invalid(path, message))?;
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

impl Field for AxisSpec {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["name", "values"])?;
        let axis = Self { kind: obj.field("name", None)?, values: obj.field("values", None)? };
        axis.validate(path)?;
        Ok(axis)
    }

    fn write(&self) -> Option<Json> {
        Some(object([("name", self.kind.write()), ("values", self.values.write())]))
    }

    fn validate(&self, path: &dyn Display) -> Result<(), SpecError> {
        check_at(path, "values", not_empty(&self.values))?;
        self.values
            .iter()
            .enumerate()
            .try_for_each(|(i, &x)| self.kind.check(x, &format_args!("{path}.values[{i}]")))
    }
}

// ---------------------------------------------------------------------------
// Scenario template / patch
// ---------------------------------------------------------------------------

section! {
    /// A serializable patch over [`ScenarioBuilder::paper_default`]: every field is optional
    /// and unset fields keep the paper's Section VII-A defaults.
    ///
    /// Used twice: as the spec's scenario **template** (shared by every sweep point) and as a
    /// per-arm **patch** ([`ArmSpec::scenario`], how Figures 5 and 6 express per-series
    /// device counts and round counts).
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct ScenarioSpec {
        /// Number of devices `N`.
        devices: Option<usize>, check opt(devices_in_range), apply ScenarioBuilder::with_devices;
        /// Radius of the placement disc in kilometres.
        radius_km: Option<f64>, check opt(positive), apply ScenarioBuilder::with_radius_km;
        /// Samples per device (mutually exclusive with [`Self::total_samples`]).
        samples_per_device: Option<u64>, check opt(at_least_one),
            apply ScenarioBuilder::with_samples_per_device;
        /// Total samples split equally across devices (Figure 4's setting). It must cover
        /// every device: building a scenario with fewer samples than devices fails.
        total_samples: Option<u64>, check opt(at_least_one),
            apply ScenarioBuilder::with_total_samples;
        /// Per-sample CPU-cycle range `[lo, hi]` from which `c_n` is drawn.
        cycles_per_sample: Option<(f64, f64)>, check opt(ordered_range),
            apply |b, (lo, hi)| b.with_cycles_per_sample_range(lo, hi);
        /// Upload payload `d_n` in bits.
        upload_bits: Option<f64>, check opt(positive), apply ScenarioBuilder::with_upload_bits;
        /// Minimum transmit power in dBm.
        p_min_dbm: Option<f64>, check opt(finite), apply ScenarioBuilder::with_p_min_dbm;
        /// Maximum transmit power in dBm.
        p_max_dbm: Option<f64>, check opt(finite), apply ScenarioBuilder::with_p_max_dbm;
        /// Minimum CPU frequency in Hz.
        f_min_hz: Option<f64>, check opt(positive), apply ScenarioBuilder::with_f_min_hz;
        /// Maximum CPU frequency in GHz.
        f_max_ghz: Option<f64>, check opt(positive), apply ScenarioBuilder::with_f_max_ghz;
        /// Global aggregation rounds `R_g`.
        global_rounds: Option<u32>, check opt(at_least_one),
            apply ScenarioBuilder::with_global_rounds;
        /// Local iterations per global round `R_l`.
        local_iterations: Option<u32>, check opt(at_least_one),
            apply ScenarioBuilder::with_local_iterations;
        /// Total uplink bandwidth `B` in Hz.
        total_bandwidth_hz: Option<f64>, check opt(positive),
            apply |b, hz| b.with_total_bandwidth(wireless::units::Hertz::new(hz));
        /// Log-normal shadowing standard deviation in dB (`0` disables fading).
        shadowing_db: Option<f64>, check opt(non_negative), apply ScenarioBuilder::with_shadowing_db;
    }
    apply ScenarioBuilder;
    cross samples_are_exclusive;
}

fn samples_are_exclusive(s: &ScenarioSpec, path: &dyn Display) -> Result<(), SpecError> {
    let exclusive = s.samples_per_device.is_none() || s.total_samples.is_none();
    ensure(exclusive, "`samples_per_device` and `total_samples` are mutually exclusive")
        .map_err(|message| SpecError::invalid(path, message))
}

impl ScenarioSpec {
    /// Whether every field is unset (an identity patch).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
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

wire_names!(BenchmarkDraw, "benchmark draw" {
    Frequency => "frequency",
    Power => "power",
});

/// Where a deadline-constrained arm reads its deadline from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeadlineSpec {
    /// The sweep point's x value is the deadline (requires a
    /// [`AxisKind::DeadlineS`] axis).
    Axis,
    /// A fixed deadline in seconds (one series per value, as in Figure 8).
    FixedS(f64),
}

impl Field for DeadlineSpec {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        match v {
            Json::Str(s) if s == "axis" => Ok(Self::Axis),
            Json::Num(t) => Ok(Self::FixedS(*t)),
            _ => Err(SpecError::invalid(path, "must be \"axis\" or a number of seconds")),
        }
    }

    fn write(&self) -> Option<Json> {
        Some(match self {
            Self::Axis => Json::Str("axis".to_string()),
            Self::FixedS(t) => Json::Num(*t),
        })
    }
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
    /// Whether the arm optimizes under the deadline the axis (or a request's `deadline_s`)
    /// supplies.
    pub(crate) const fn reads_axis_deadline(&self) -> bool {
        matches!(
            self,
            Self::DeadlineProposed { deadline: DeadlineSpec::Axis }
                | Self::CommOnly
                | Self::CompOnly
        )
    }

    const fn name(&self) -> &'static str {
        match self {
            Self::Proposed { .. } => ArmTag::Proposed,
            Self::DeadlineProposed { .. } => ArmTag::DeadlineProposed,
            Self::Benchmark { .. } => ArmTag::Benchmark,
            Self::CommOnly => ArmTag::CommOnly,
            Self::CompOnly => ArmTag::CompOnly,
            Self::Scheme1 { .. } => ArmTag::Scheme1,
        }
        .name()
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

/// The schemes of [`ArmKind`] by wire name, each spelled once.
#[derive(Clone, Copy)]
enum ArmTag {
    Proposed,
    DeadlineProposed,
    Benchmark,
    CommOnly,
    CompOnly,
    Scheme1,
}

wire_names!(ArmTag, "arm kind" {
    Proposed => "proposed",
    DeadlineProposed => "deadline_proposed",
    Benchmark => "benchmark",
    CommOnly => "comm_only",
    CompOnly => "comp_only",
    Scheme1 => "scheme1",
});

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
}

// Tagged shapes (arms and round policies): the `kind` member picks the payload keys, so
// the kind is peeked first and the full key check runs per kind.

fn peek_kind<Tag: Field>(v: &Json, path: &dyn Display) -> Result<Tag, SpecError> {
    Obj::any(v, path)?.field("kind", None)
}

/// A tagged object whose keys must be `common` followed by its kind's `payload`.
fn tagged<'a>(
    v: &'a Json,
    path: &'a dyn Display,
    common: &[&str],
    payload: &[&str],
) -> Result<Obj<'a>, SpecError> {
    Obj::new(v, path, &[common, payload].concat())
}

fn read_weights(obj: &Obj<'_>) -> Result<Weights, SpecError> {
    Weights::new(obj.field("w1", None)?, obj.field("w2", None)?)
        .map_err(|e| SpecError::invalid(obj.path, format!("invalid weights: {e}")))
}

fn weight_members(weights: &Weights) -> [(&'static str, Option<Json>); 2] {
    [("w1", Some(Json::Num(weights.energy()))), ("w2", Some(Json::Num(weights.time())))]
}

impl Field for ArmSpec {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        let payload = |keys: &[&str]| tagged(v, path, &["kind", "label", "scenario"], keys);
        let (kind, obj) = match peek_kind(v, path)? {
            ArmTag::Proposed => {
                let obj = payload(&["w1", "w2"])?;
                (ArmKind::Proposed { weights: read_weights(&obj)? }, obj)
            }
            ArmTag::DeadlineProposed => {
                let obj = payload(&["deadline"])?;
                (ArmKind::DeadlineProposed { deadline: obj.field("deadline", None)? }, obj)
            }
            ArmTag::Benchmark => {
                let obj = payload(&["draw"])?;
                (ArmKind::Benchmark { draw: obj.field("draw", None)? }, obj)
            }
            ArmTag::CommOnly => (ArmKind::CommOnly, payload(&[])?),
            ArmTag::CompOnly => (ArmKind::CompOnly, payload(&[])?),
            ArmTag::Scheme1 => {
                let obj = payload(&["deadline_s"])?;
                (ArmKind::Scheme1 { deadline_s: obj.field("deadline_s", None)? }, obj)
            }
        };
        let arm =
            Self { kind, label: obj.field("label", None)?, scenario: obj.field("scenario", None)? };
        arm.validate(path)?;
        Ok(arm)
    }

    fn write(&self) -> Option<Json> {
        let mut members = vec![("kind", Some(Json::Str(self.kind.name().to_string())))];
        match &self.kind {
            ArmKind::Proposed { weights } => members.extend(weight_members(weights)),
            ArmKind::DeadlineProposed { deadline } => members.push(("deadline", deadline.write())),
            ArmKind::Benchmark { draw } => members.push(("draw", draw.write())),
            ArmKind::Scheme1 { deadline_s } => members.push(("deadline_s", deadline_s.write())),
            ArmKind::CommOnly | ArmKind::CompOnly => {}
        }
        members.push(("label", self.label.write()));
        members.push(("scenario", self.scenario.write()));
        Some(object(members))
    }

    fn validate(&self, path: &dyn Display) -> Result<(), SpecError> {
        match &self.kind {
            ArmKind::Scheme1 { deadline_s } => check_at(path, "deadline_s", seconds(deadline_s))?,
            ArmKind::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) } => {
                let message = "must be \"axis\" or a positive finite number of seconds";
                check_at(path, "deadline", ensure(t.is_finite() && *t > 0.0, message))?;
            }
            _ => {}
        }
        self.scenario.validate(&format_args!("{path}.scenario"))
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
}

impl Field for SeedSpec {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        let obj = Obj::new(v, path, &["start", "count", "list", "stream_derivation"])?;
        let policy = match (obj.get("list"), obj.get("count")) {
            (Some(_), None) => SeedPolicy::List(obj.field("list", None)?),
            (None, Some(_)) => SeedPolicy::Range {
                start: obj.field("start", Some(0))?,
                count: obj.field("count", None)?,
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
        let spec = Self { policy, stream_derivation: obj.field("stream_derivation", None)? };
        spec.validate(path)?;
        Ok(spec)
    }

    fn write(&self) -> Option<Json> {
        let mut members = match &self.policy {
            SeedPolicy::Range { start, count } => {
                vec![("start", start.write()), ("count", count.write())]
            }
            SeedPolicy::List(seeds) => vec![("list", seeds.write())],
        };
        members.push(("stream_derivation", self.stream_derivation.write()));
        Some(object(members))
    }

    fn validate(&self, path: &dyn Display) -> Result<(), SpecError> {
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
        let (key, empty, unit) = match &self.policy {
            SeedPolicy::Range { .. } => ("count", "must be at least 1", "ranges"),
            SeedPolicy::List(_) => ("list", "must not be empty", "lists"),
        };
        let len = self.len();
        if len == 0 {
            return Err(SpecError::invalid(format_args!("{path}.{key}"), empty));
        }
        if len > MAX_SEEDS {
            return Err(SpecError::invalid(
                format_args!("{path}.{key}"),
                format!(
                    "at most {MAX_SEEDS} seeds per spec — shard larger sweeps into seed \
                     sub-{unit} with `fedopt run --shards N` or `fedopt shard split`"
                ),
            ));
        }
        match &self.policy {
            SeedPolicy::Range { start, count }
                if start.checked_add(*count).map_or(true, |end| end > MAX_EXACT_INT) =>
            {
                Err(SpecError::invalid(
                    path,
                    "seed range must stay within the exact JSON integer range (2^53)",
                ))
            }
            SeedPolicy::List(seeds) if seeds.iter().any(|&s| s > MAX_EXACT_INT) => {
                Err(SpecError::invalid(
                    format_args!("{path}.list"),
                    "seeds must stay within the exact JSON integer range (2^53)",
                ))
            }
            _ => Ok(()),
        }
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

wire_names!(pub(crate) SolverPreset, "solver preset" {
    Default => "default",
    Fast => "fast",
});

impl SolverPreset {
    fn base(self) -> SolverConfig {
        match self {
            Self::Default => SolverConfig::default(),
            Self::Fast => SolverConfig::fast(),
        }
    }
}

section! {
    /// Serializable solver settings: a preset plus optional tolerance overrides.
    ///
    /// The warm-start switch is *not* here: it is an engine-level decision
    /// ([`EngineSpec::warm_start`]) because the sweep engine overrides every arm's solver
    /// config with its own flag to keep one sweep uniformly cold or warm.
    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    pub struct SolverSpec {
        /// The starting configuration.
        preset: SolverPreset;
        /// Override of [`SolverConfig::outer_max_iter`].
        outer_max_iter: Option<usize>, check opt(at_least_one),
            apply |c, v| SolverConfig { outer_max_iter: v, ..c };
        /// Override of [`SolverConfig::outer_tol`].
        outer_tol: Option<f64>, check opt(positive), apply |c, v| SolverConfig { outer_tol: v, ..c };
        /// Override of [`SolverConfig::mu_tol`].
        mu_tol: Option<f64>, check opt(positive), apply |c, v| SolverConfig { mu_tol: v, ..c };
        /// Override of [`SolverConfig::scalar_tol`].
        scalar_tol: Option<f64>, check opt(positive),
            apply |c, v| SolverConfig { scalar_tol: v, ..c };
        /// Override of [`SolverConfig::bandwidth_floor_hz`].
        bandwidth_floor_hz: Option<f64>, check opt(positive),
            apply |c, v| SolverConfig { bandwidth_floor_hz: v, ..c };
        /// Override of [`SolverConfig::polish_with_reference`].
        polish_with_reference: Option<bool>,
            apply |c, v| SolverConfig { polish_with_reference: v, ..c };
    }
    apply SolverConfig;
}

impl SolverSpec {
    /// The fast preset with no overrides.
    pub fn fast() -> Self {
        Self { preset: SolverPreset::Fast, ..Self::default() }
    }

    /// Resolves the preset and overrides into a concrete [`SolverConfig`].
    pub fn resolve(&self) -> SolverConfig {
        self.apply(self.preset.base())
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

section! {
    /// Serializable engine options. Unset fields keep [`SweepEngine::new`]'s defaults
    /// (all cores / environment overrides). A sharded run's retry and timeout policy is not
    /// spec data: it lives on the `--shard-retries` / `--shard-timeout` flags alone.
    #[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
    pub struct EngineSpec {
        /// Worker thread count ([`SweepEngine::with_threads`]).
        threads: Option<usize>, check opt(at_least_one);
        /// Warm-start continuation default for this spec. An explicit
        /// [`crate::engine::WARM_START_ENV`] environment setting still wins (so
        /// `FEDOPT_WARM_START=0` forces any spec cold), but when the environment is silent
        /// this field decides — the paper presets default it on.
        warm_start: Option<bool>;
    }
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

wire_names!(Metric, "metric" {
    Energy => "energy",
    Time => "time",
});

section! {
    /// One figure (or sub-figure) rendered from the evaluated grid.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct ReportSpec {
        /// Identifier matching the paper, e.g. `"fig2a"`.
        id: String;
        /// The plotted metric.
        metric: Metric;
        /// Human-readable title.
        title: String;
        /// Label of the x axis.
        x_label: String;
    }
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
            Self::ReSolve { .. } => PolicyTag::ReSolve,
            Self::Static { .. } => PolicyTag::Static,
            Self::FedAecs { .. } => PolicyTag::FedAecs,
            Self::Elastic { .. } => PolicyTag::Elastic,
        }
        .name()
    }
}

/// The policies of [`RoundPolicy`] by wire name, each spelled once.
#[derive(Clone, Copy)]
enum PolicyTag {
    ReSolve,
    Static,
    FedAecs,
    Elastic,
}

wire_names!(PolicyTag, "round policy kind" {
    ReSolve => "re_solve",
    Static => "static",
    FedAecs => "fedaecs",
    Elastic => "elastic",
});

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
}

impl Field for RoundPolicySpec {
    fn read(v: &Json, path: &dyn Display) -> Result<Self, SpecError> {
        let payload = |keys: &[&str]| tagged(v, path, &["kind", "label"], keys);
        let (policy, obj) = match peek_kind(v, path)? {
            PolicyTag::ReSolve => {
                let obj = payload(&["w1", "w2"])?;
                (RoundPolicy::ReSolve { weights: read_weights(&obj)? }, obj)
            }
            PolicyTag::Static => {
                let obj = payload(&["w1", "w2"])?;
                (RoundPolicy::Static { weights: read_weights(&obj)? }, obj)
            }
            PolicyTag::FedAecs => {
                let obj = payload(&["epsilon", "mu", "t_max_s"])?;
                let policy = RoundPolicy::FedAecs {
                    epsilon: obj.field("epsilon", None)?,
                    mu: obj.field("mu", None)?,
                    t_max_s: obj.field("t_max_s", None)?,
                };
                (policy, obj)
            }
            PolicyTag::Elastic => {
                let obj = payload(&["alpha"])?;
                (RoundPolicy::Elastic { alpha: obj.field("alpha", None)? }, obj)
            }
        };
        let spec = Self { policy, label: obj.field("label", None)? };
        spec.validate(path)?;
        Ok(spec)
    }

    fn write(&self) -> Option<Json> {
        let mut members = vec![("kind", Some(Json::Str(self.policy.name().to_string())))];
        match &self.policy {
            RoundPolicy::ReSolve { weights } | RoundPolicy::Static { weights } => {
                members.extend(weight_members(weights));
            }
            RoundPolicy::FedAecs { epsilon, mu, t_max_s } => members.extend([
                ("epsilon", epsilon.write()),
                ("mu", mu.write()),
                ("t_max_s", t_max_s.write()),
            ]),
            RoundPolicy::Elastic { alpha } => members.push(("alpha", alpha.write())),
        }
        members.push(("label", self.label.write()));
        Some(object(members))
    }

    fn validate(&self, path: &dyn Display) -> Result<(), SpecError> {
        match &self.policy {
            RoundPolicy::ReSolve { .. } | RoundPolicy::Static { .. } => Ok(()),
            RoundPolicy::FedAecs { epsilon, mu, t_max_s } => {
                check_at(path, "epsilon", positive(epsilon))?;
                check_at(path, "mu", positive(mu))?;
                check_at(path, "t_max_s", opt(seconds)(t_max_s))
            }
            RoundPolicy::Elastic { alpha } => {
                let in_range = alpha.is_finite() && *alpha > 0.0 && *alpha <= 1.0;
                check_at(path, "alpha", ensure(in_range, "must be in (0, 1]"))
            }
        }
    }
}

section! {
    /// The straggler model applied every round, per device, from the straggler stream.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct StragglerSpec {
        /// Probability a device misses the round entirely (no training, no cost).
        dropout: f64 = Self::default().dropout, check probability;
        /// Probability a participating device straggles (its computation slows down).
        slow: f64 = Self::default().slow, check probability;
        /// Computation time/energy multiplier for a straggling device (`≥ 1`).
        slow_factor: f64 = Self::default().slow_factor, check multiplier;
    }
}

impl Default for StragglerSpec {
    fn default() -> Self {
        Self { dropout: 0.0, slow: 0.0, slow_factor: 1.0 }
    }
}

section! {
    /// The synthetic training task the round simulator learns on (see
    /// [`fedsim::SyntheticConfig`]).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SimTrainingSpec {
        /// Synthetic samples per device.
        samples_per_device: u64 = Self::default().samples_per_device, check synthetic_samples;
        /// Local SGD learning rate.
        learning_rate: f64 = Self::default().learning_rate, check positive;
    }
}

impl Default for SimTrainingSpec {
    fn default() -> Self {
        Self { samples_per_device: 60, learning_rate: 0.5 }
    }
}

section! {
    /// Identity of the rendered round-trajectory report.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RoundsReportSpec {
        /// Identifier, e.g. `"rounds-quick"`.
        id: String, check not_empty_str;
        /// Human-readable title.
        title: String;
    }
}

section! {
    /// The optional round-simulation section of a spec, run by `fedopt sim` (the
    /// `experiments::rounds` subsystem). When present, the spec's axis must hold exactly one
    /// value (the single scenario point simulated) and the sweep `arms` may be empty.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RoundsSpec {
        /// Number of simulated global rounds `T`.
        rounds: u32, check sim_rounds;
        /// Per-round log-normal block-fading standard deviation in dB (`0` freezes the
        /// channel at its base realisation).
        refade_db: f64 = 0.0, check non_negative;
        /// The named derivation of per-round channel/straggler stream seeds. Pinned in the
        /// wire format; must be a round-indexed rule
        /// ([`StreamDerivation::RoundChannelFnv`]).
        channel_stream: StreamDerivation = StreamDerivation::RoundChannelFnv, check round_indexed;
        /// The straggler/dropout model.
        straggler: StragglerSpec = StragglerSpec::default();
        /// The synthetic training task.
        training: SimTrainingSpec = SimTrainingSpec::default();
        /// The policies compared, in column order.
        policies: Vec<RoundPolicySpec>, check not_empty;
        /// Identity of the rendered trajectory report.
        report: RoundsReportSpec;
    }
}

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

section! {
    /// A complete, serializable description of one sweep experiment. See the module docs.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct ExperimentSpec {
        /// Wire-format version; must equal [`SCHEMA_VERSION`].
        schema_version: u64, check schema_version;
        /// Short machine-friendly identifier (e.g. `"fig2"`).
        id: String, check not_empty_str;
        /// Human-readable description of what the sweep shows.
        description: String;
        /// The sweep axis.
        axis: AxisSpec;
        /// Scenario template shared by every point (a patch over the paper defaults).
        scenario: ScenarioSpec;
        /// The schemes compared, in column order.
        arms: Vec<ArmSpec>;
        /// Scenario seeds and stream-seed derivation.
        seeds: SeedSpec;
        /// Solver preset and overrides.
        solver: SolverSpec;
        /// Engine options.
        engine: EngineSpec;
        /// Reports rendered from the evaluated grid, in output order.
        reports: Vec<ReportSpec>;
        /// Optional round-simulation section, run by `fedopt sim` instead of the sweep
        /// engine. When present, `arms` may be empty and the axis must hold one value.
        /// Written last and omitted when unset, so sweep-only specs keep their bytes.
        rounds: Option<RoundsSpec>;
    }
    cross sweep_or_simulation;
}

pub(crate) fn schema_version(version: &u64) -> Result<(), String> {
    ensure(
        *version == SCHEMA_VERSION,
        format_args!("this build reads schema version {SCHEMA_VERSION}, got {version}"),
    )
}

/// The rules across sections: a round simulation pins one axis value, a sweep needs
/// arms, and arms that read the axis deadline need a `deadline_s` axis.
fn sweep_or_simulation(spec: &ExperimentSpec, path: &dyn Display) -> Result<(), SpecError> {
    let (axis, points) = (spec.axis.kind, spec.axis.values.len());
    if spec.rounds.is_some() {
        let one_point = ensure(
            points == 1,
            format_args!(
                "a round-simulation spec pins one scenario point, so the axis must hold \
                 exactly one value (got {points})"
            ),
        );
        check_at(path, "axis.values", one_point)?;
    } else {
        check_at(path, "arms", not_empty(&spec.arms))?;
    }
    match spec.arms.iter().position(|arm| arm.kind.reads_axis_deadline()) {
        Some(i) if axis != AxisKind::DeadlineS => Err(SpecError::invalid(
            format_args!("{path}.arms[{i}]"),
            format!(
                "arm kind `{}` reads its deadline from the axis, which requires a \
                 `deadline_s` axis (got `{}`)",
                spec.arms[i].kind.name(),
                axis.name()
            ),
        )),
        _ => Ok(()),
    }
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

    /// Validates every component without compiling the grid, at paths under `spec.`
    /// (the same walk parsing runs).
    ///
    /// # Errors
    ///
    /// The first [`SpecError::Invalid`] found, with the offending field's path.
    pub fn validate(&self) -> Result<(), SpecError> {
        Field::validate(self, &"spec")
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
                "spec.arms",
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
        self.write().expect("a section always writes an object")
    }

    /// The canonical serialized form (pretty-printed, trailing newline) — byte-stable for
    /// a given spec, and lossless: `from_json_str(to_json_string(s)) == s`.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a spec from a JSON value, validating it as it reads.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] on schema-version mismatch, unknown keys, wrong types, or
    /// failed validation.
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        // The version is checked first: a document of another version fails on it, not on
        // whichever of its members this build does not know.
        let version: u64 = Obj::any(v, &"spec")?.field("schema_version", None)?;
        check_at(&"spec", "schema_version", schema_version(&version))?;
        Self::read(v, &"spec")
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

/// The strict object reader behind every document this crate parses (specs, serve
/// requests, shard results): it rejects keys outside an allowed list, reads each member
/// as a [`Field`] with [`Obj::field`], and names the offending member's dotted path in
/// every error. Spec sections pass their rows' key list; hand-written shapes list theirs.
pub(crate) struct Obj<'a> {
    path: &'a dyn Display,
    members: &'a [(String, Json)],
}

impl<'a> Obj<'a> {
    /// An object whose keys must all be in `allowed`.
    pub(crate) fn new(
        v: &'a Json,
        path: &'a dyn Display,
        allowed: &[&str],
    ) -> Result<Self, SpecError> {
        let obj = Self::any(v, path)?;
        match obj.members.iter().find(|(key, _)| !allowed.contains(&key.as_str())) {
            Some((key, _)) => Err(SpecError::invalid(
                obj.path_of(key),
                format!("unknown key (allowed: {})", allowed.join(", ")),
            )),
            None => Ok(obj),
        }
    }

    /// An object with no key restrictions (used to peek at a discriminator first).
    pub(crate) fn any(v: &'a Json, path: &'a dyn Display) -> Result<Self, SpecError> {
        match v.as_object() {
            Some(members) => Ok(Self { path, members }),
            None => Err(SpecError::invalid(path, "expected a JSON object")),
        }
    }

    pub(crate) fn path_of(&self, key: &str) -> String {
        format!("{}.{key}", self.path)
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Reads member `key`. An absent key reads as `default`, then as [`Field::absent`]
    /// (`None` for an option); otherwise it is a missing required key.
    pub(crate) fn field<T: Field>(&self, key: &str, default: Option<T>) -> Result<T, SpecError> {
        match self.get(key) {
            Some(v) => T::read(v, &format_args!("{}.{key}", self.path)),
            None => default
                .or_else(T::absent)
                .ok_or_else(|| SpecError::invalid(self.path_of(key), "missing required key")),
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
            matches!(no_arms.validate(), Err(SpecError::Invalid { path, .. }) if path == "spec.arms")
        );

        // A parsed document reports its axis values under `spec.` like every other key.
        let fig3 = crate::presets::spec(3, crate::presets::Variant::Quick).unwrap();
        let renamed = fig3.to_json_string().replace("\"f_max_ghz\"", "\"devices\"");
        assert!(
            matches!(ExperimentSpec::from_json_str(&renamed), Err(SpecError::Invalid { path, .. })
                if path == "spec.axis.values[0]"),
            "a fractional device count on a renamed axis is reported at its spec path"
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
                if path == "spec.seeds.stream_derivation"),
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
        let parsed = EngineSpec::read(&spec.write().unwrap(), &"engine").unwrap();
        assert_eq!(parsed, spec);
        let engine = spec.to_engine();
        assert_eq!(engine.threads(), 2);
        // The spec's warm-start default applies unless the environment pins one.
        assert_eq!(engine.warm_starts(), crate::engine::warm_start_env().unwrap_or(false));
        // The empty spec serializes to an empty object.
        assert_eq!(EngineSpec::default().write(), Some(Json::Obj(vec![])));
    }

    /// Sets `key` in the object at the dotted `section` path of a spec document.
    fn set(doc: &mut Json, section: &str, key: &str, value: Json) {
        let mut node = doc;
        for part in section.split('.') {
            let Json::Obj(members) = node else { panic!("`{part}` is not in an object") };
            node = &mut members.iter_mut().find(|(k, _)| k == part).expect("section exists").1;
        }
        let Json::Obj(members) = node else { panic!("`{section}` is not an object") };
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => members.push((key.to_string(), value)),
        }
    }

    #[test]
    fn every_checked_row_rejects_bad_values_at_its_path() {
        let (num, text) = (Json::Num, |s: &str| Json::Str(s.to_string()));
        // (section, key, an out-of-range value, a wrong-typed value)
        let rows = [
            ("scenario", "devices", num(0.0), text("5")),
            ("scenario", "devices", num(1_000_001.0), num(2.5)),
            ("scenario", "radius_km", num(0.0), text("1")),
            ("scenario", "samples_per_device", num(0.0), num(-1.0)),
            ("scenario", "total_samples", num(0.0), num(0.5)),
            ("scenario", "cycles_per_sample", Json::Arr(vec![num(3.0), num(1.0)]), num(1.0)),
            ("scenario", "upload_bits", num(0.0), text("x")),
            ("scenario", "p_min_dbm", num(f64::INFINITY), text("x")),
            ("scenario", "p_max_dbm", num(f64::NAN), Json::Bool(true)),
            ("scenario", "f_min_hz", num(0.0), text("x")),
            ("scenario", "f_max_ghz", num(-2.0), text("x")),
            ("scenario", "global_rounds", num(0.0), num(5e9)),
            ("scenario", "local_iterations", num(0.0), text("x")),
            ("scenario", "total_bandwidth_hz", num(0.0), text("x")),
            ("scenario", "shadowing_db", num(-0.5), text("x")),
            ("solver", "outer_max_iter", num(0.0), text("x")),
            ("solver", "outer_tol", num(0.0), text("x")),
            ("solver", "mu_tol", num(0.0), text("x")),
            ("solver", "scalar_tol", num(-1.0), text("x")),
            ("solver", "bandwidth_floor_hz", num(0.0), text("x")),
            ("engine", "threads", num(0.0), text("x")),
            ("rounds", "rounds", num(0.0), text("x")),
            ("rounds", "rounds", num(100_001.0), num(5e9)),
            ("rounds", "refade_db", num(-1.0), text("x")),
            ("rounds", "channel_stream", text("xor-golden32"), num(1.0)),
            ("rounds", "policies", Json::Arr(vec![]), text("x")),
            ("rounds.straggler", "dropout", num(1.0), text("x")),
            ("rounds.straggler", "slow", num(-0.1), text("x")),
            ("rounds.straggler", "slow_factor", num(0.5), text("x")),
            ("rounds.training", "samples_per_device", num(0.0), text("x")),
            ("rounds.training", "samples_per_device", num(1_000_001.0), num(-1.0)),
            ("rounds.training", "learning_rate", num(0.0), text("x")),
            ("rounds.report", "id", text(""), num(1.0)),
        ];
        let base = crate::presets::sim("rounds-quick").expect("preset exists").to_json();
        for (section, key, out_of_range, wrong_type) in rows {
            for value in [out_of_range, wrong_type] {
                let mut doc = base.clone();
                set(&mut doc, section, key, value.clone());
                let err = ExperimentSpec::from_json(&doc).unwrap_err();
                let expected = format!("spec.{section}.{key}");
                assert!(
                    matches!(&err, SpecError::Invalid { path, .. } if *path == expected),
                    "{expected} = {value:?}: {err}"
                );
            }
        }
    }

    /// Reads `full` back with one unknown key: the allowed list must be its emit order.
    fn assert_allows_what_it_writes<T: Field>(full: &T) {
        let mut doc = full.write().unwrap();
        let Json::Obj(members) = &mut doc else { panic!("sections write objects") };
        let written: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let message = format!("unknown key (allowed: {})", written.join(", "));
        members.push(("surprise".to_string(), Json::Bool(true)));
        let err = T::read(&doc, &"section").err().expect("an unknown key is rejected");
        assert_eq!(err, SpecError::invalid("section.surprise", message));
    }

    #[test]
    fn every_section_accepts_exactly_the_keys_it_writes() {
        assert_allows_what_it_writes(&ScenarioSpec {
            devices: Some(1),
            radius_km: Some(1.0),
            samples_per_device: Some(1),
            total_samples: Some(1),
            cycles_per_sample: Some((1.0, 2.0)),
            upload_bits: Some(1.0),
            p_min_dbm: Some(0.0),
            p_max_dbm: Some(1.0),
            f_min_hz: Some(1.0),
            f_max_ghz: Some(1.0),
            global_rounds: Some(1),
            local_iterations: Some(1),
            total_bandwidth_hz: Some(1.0),
            shadowing_db: Some(0.0),
        });
        assert_allows_what_it_writes(&SolverSpec {
            preset: SolverPreset::Fast,
            outer_max_iter: Some(1),
            outer_tol: Some(1.0),
            mu_tol: Some(1.0),
            scalar_tol: Some(1.0),
            bandwidth_floor_hz: Some(1.0),
            polish_with_reference: Some(true),
        });
        assert_allows_what_it_writes(&EngineSpec { threads: Some(1), warm_start: Some(true) });
        assert_allows_what_it_writes(&ReportSpec::new("r", Metric::Time, "t", "x"));
        let rounds = crate::presets::sim("rounds-quick").expect("preset exists").rounds.unwrap();
        assert_allows_what_it_writes(&rounds.straggler);
        assert_allows_what_it_writes(&rounds.training);
        assert_allows_what_it_writes(&rounds.report);
        assert_allows_what_it_writes(&rounds);
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
