//! Golden-file pins of the CLI's machine-readable surfaces:
//!
//! * the `fedopt run --fig 2 --seeds 3 --json` document against
//!   `tests/golden/fig2_quick_seeds3.json` (floats compared **exactly** — sweep output is
//!   deterministic and the JSON writer is shortest-round-trip, so any byte difference is
//!   a real behaviour change), mirroring the CI `cli-smoke` job's end-to-end diff;
//! * the `fedopt run --fig N --json` document of every other figure (N = 3..8, the
//!   preset's own seeds) against `tests/golden/figN_quick.json`, under the same exact
//!   comparison;
//! * the committed example spec `examples/specs/fig2_quick.json` against what
//!   `fedopt spec --fig 2` prints today (the README documents that file — it must never
//!   drift from the preset).
//!
//! Regenerate them after an intentional change with:
//! `FEDOPT_BLESS=1 cargo test -p experiments --test cli_golden`.

use experiments::cli;
use experiments::engine::SweepEngine;
use experiments::presets::{self, Variant};
use experiments::spec::ExperimentSpec;
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn check_golden(actual: &str, path: &Path, regenerate_hint: &str) {
    if std::env::var("FEDOPT_BLESS").is_ok() {
        std::fs::write(path, actual).unwrap_or_else(|e| panic!("blessing {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); {regenerate_hint}"));
    assert_eq!(actual, golden, "{path:?} is stale; {regenerate_hint}");
}

const BLESS_HINT: &str =
    "regenerate with FEDOPT_BLESS=1 cargo test -p experiments --test cli_golden";

/// Runs `spec` on the cold solver path and pins its JSON document against `golden`. The
/// engine is pinned explicitly (single thread, warm start off) so the pin holds under
/// every CI matrix entry; output is thread-count independent, so the CLI reproduces it at
/// any `--threads`.
fn check_cold_document(spec: &ExperimentSpec, golden: &str) {
    let engine = SweepEngine::single_thread().with_warm_start(false);
    let run = spec.run_with_engine(&engine).expect("quick preset must evaluate");
    let document = cli::run_document(spec, &run).to_pretty_string();
    check_golden(&document, &manifest_dir().join("tests/golden").join(golden), BLESS_HINT);
    // The same document must also be exactly what the text renderer's JSON mode emits.
    assert_eq!(cli::render_run(spec, &run, true), document);
}

/// The exact document the CI smoke job diffs: `fedopt run --fig 2 --seeds 3 --json`.
#[test]
fn fig2_quick_seeds3_json_document_matches_golden() {
    let mut spec = presets::spec(2, Variant::Quick).expect("figure 2 exists");
    spec.override_seed_count(3);
    check_cold_document(&spec, "fig2_quick_seeds3.json");
}

/// Figures 3–8 at their quick presets' own seeds: the exact documents
/// `fedopt run --fig N --json` prints (the CI smoke job diffs the binary's output
/// against these files too).
#[test]
fn figure_quick_json_documents_match_goldens() {
    for fig in 3..=8u8 {
        let spec = presets::spec(fig, Variant::Quick).expect("figure preset exists");
        check_cold_document(&spec, &format!("fig{fig}_quick.json"));
    }
}

/// The fleet preset (fast solver, polish off) at 10³ devices on the cold path: the
/// per-device lane kernels of a large solve, which the figure presets never reach.
#[test]
fn large_n_1e3_cold_document_matches_golden() {
    check_cold_document(&presets::large_n(1000), "large_n_1e3_cold.json");
}

/// The legacy reference pin: the same document on the cold solver path with the
/// superlinear (Brent) `μ`-root step switched off must still reproduce the historical
/// pure-bisection golden **bit for bit**. This is the gate the PR 6 hot-path work hides
/// behind: the struct-of-arrays lanes, the hoisted constants and the once-per-solve
/// `(ρ, idx)` sort are all exact rewrites, so with Brent *and* warm start off nothing may
/// drift — any diff here is a real numerical regression, not an intentional re-bless.
///
/// `fig2_quick_seeds3_bisect.json` is frozen (copied from the pre-Brent golden); it is
/// deliberately **not** re-blessed by `FEDOPT_BLESS`.
#[test]
fn fig2_quick_seeds3_legacy_bisection_path_is_bit_identical() {
    let mut spec = presets::spec(2, Variant::Quick).expect("figure 2 exists");
    spec.override_seed_count(3);
    let engine = SweepEngine::single_thread().with_warm_start(false).with_superlinear_mu(false);
    let run = spec.run_with_engine(&engine).expect("fig2 quick must evaluate");
    let document = cli::run_document(&spec, &run).to_pretty_string();
    let path = manifest_dir().join("tests/golden/fig2_quick_seeds3_bisect.json");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing frozen legacy golden {path:?} ({e})"));
    assert_eq!(
        document, golden,
        "the legacy cold+bisection path drifted — the SoA/complexity rewrites must be exact"
    );
}

/// The committed, README-documented example spec is exactly `fedopt spec --fig 2` today.
#[test]
fn committed_example_spec_is_fresh_and_parseable() {
    let spec = presets::spec(2, Variant::Quick).expect("figure 2 exists");
    let path = manifest_dir().join("../../examples/specs/fig2_quick.json");
    check_golden(&spec.to_json_string(), &path, BLESS_HINT);
    if std::env::var("FEDOPT_BLESS").is_err() {
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(ExperimentSpec::from_json_str(&text).unwrap(), spec);
    }
}

/// The pipe the CI smoke job runs — `fedopt spec --fig 2 | fedopt run --spec -` — hinges
/// on the printed spec re-parsing to the same experiment; pin that equivalence at the
/// library level too (the subprocess half lives in CI).
#[test]
fn printed_spec_reparses_to_the_same_experiment() {
    for &fig in &presets::FIGURES {
        let args: Vec<String> =
            ["spec", "--fig", &fig.to_string()].iter().map(|s| s.to_string()).collect();
        let printed = cli::main_with(&args).expect("spec subcommand must print");
        let parsed = ExperimentSpec::from_json_str(&printed).expect("printed spec must parse");
        assert_eq!(parsed, presets::spec(fig, Variant::Quick).unwrap());
    }
}
