//! The fleet-merge bit-identity contract: splitting any spec into shards, running them
//! independently, and merging must reproduce the single-process [`SweepResult`] — not
//! approximately, but bit-for-bit, because float addition is non-associative and the
//! merge therefore replays raw samples in seed order instead of summing partial
//! aggregates. Plus the cache's corruption guarantees: a damaged entry is a miss and a
//! recompute, never a silently trusted wrong answer.

use experiments::cli;
use experiments::presets::{self, Variant};
use experiments::shard::{
    cache_key, run_fleet, split, FleetOptions, InProcessRunner, ShardCache, ShardError,
};
use experiments::spec::{ExperimentSpec, SeedPolicy, SeedSpec, SpecRun};
use experiments::SweepResult;
use proptest::prelude::*;
use proptest::TestRng;

/// Byte-level equality of two sweep results: counters exactly, every aggregate field by
/// `f64::to_bits` (plain `==` would wrongly fail on equal NaNs — figure 7's infeasible
/// cells aggregate to NaN means — and wrongly pass on `0.0 == -0.0`).
fn assert_bit_identical(merged: &SweepResult, direct: &SweepResult, what: &str) {
    assert_eq!(merged.xs, direct.xs, "{what}: xs");
    assert_eq!(merged.arm_names, direct.arm_names, "{what}: arm names");
    assert_eq!(merged.counters, direct.counters, "{what}: counters");
    assert_eq!(merged.aggregates.len(), direct.aggregates.len(), "{what}: point count");
    for (p, (m_row, d_row)) in merged.aggregates.iter().zip(&direct.aggregates).enumerate() {
        assert_eq!(m_row.len(), d_row.len(), "{what}: arm count at point {p}");
        for (a, (m, d)) in m_row.iter().zip(d_row).enumerate() {
            let pairs = [
                ("mean_energy_j", m.mean_energy_j, d.mean_energy_j),
                ("mean_time_s", m.mean_time_s, d.mean_time_s),
                ("std_energy_j", m.std_energy_j, d.std_energy_j),
                ("std_time_s", m.std_time_s, d.std_time_s),
            ];
            for (field, merged_v, direct_v) in pairs {
                assert_eq!(
                    merged_v.to_bits(),
                    direct_v.to_bits(),
                    "{what}: {field} differs at point {p}, arm {a}: {merged_v} vs {direct_v}"
                );
            }
            assert_eq!(m.count, d.count, "{what}: count at point {p}, arm {a}");
            assert_eq!(m.attempts, d.attempts, "{what}: attempts at point {p}, arm {a}");
        }
    }
}

/// The acceptance gate: every figure preset, split three ways, merges back to the exact
/// single-process result — including the rendered `--json` document, byte for byte.
#[test]
fn every_figure_preset_merges_bit_identically_across_three_shards() {
    for &fig in &presets::FIGURES {
        let mut spec = presets::spec(fig, Variant::Quick).unwrap();
        // Keep the gate fast but non-trivial: enough seeds that every shard is non-empty
        // and unevenly sized (7 = 3 + 2 + 2).
        spec.override_seed_count(7);
        let direct = spec.run().unwrap();
        let opts = FleetOptions { shards: 3, ..FleetOptions::default() };
        let (merged, stats) = run_fleet(&spec, &opts, &InProcessRunner).unwrap();
        assert_bit_identical(&merged, &direct.result, &format!("fig{fig}"));
        assert_eq!(stats.shard_cache_hits, 0, "no cache configured");
        assert_eq!(stats.shard_cache_misses, 0, "no cache configured");

        let merged_run = SpecRun { reports: spec.render_reports(&merged), result: merged };
        assert_eq!(
            cli::run_document(&spec, &merged_run).to_pretty_string(),
            cli::run_document(&spec, &direct).to_pretty_string(),
            "fig{fig}: rendered JSON documents must be byte-identical"
        );
    }
}

#[test]
fn shard_counts_beyond_the_seed_count_still_merge_exactly() {
    let mut spec = presets::spec(3, Variant::Quick).unwrap();
    spec.override_seed_count(2);
    let direct = spec.run().unwrap();
    for shards in [1, 2, 5, 16] {
        let opts = FleetOptions { shards, ..FleetOptions::default() };
        let (merged, _) = run_fleet(&spec, &opts, &InProcessRunner).unwrap();
        assert_bit_identical(&merged, &direct.result, &format!("{shards} shards"));
    }
}

#[test]
fn a_warm_cache_answers_every_shard_and_stays_bit_identical() {
    let mut spec = presets::spec(2, Variant::Quick).unwrap();
    spec.override_seed_count(6);
    let direct = spec.run().unwrap();
    let dir = std::env::temp_dir().join(format!("fedopt-shard-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let opts = |dir: &std::path::Path| FleetOptions {
        shards: 3,
        cache: Some(ShardCache::open(dir)),
        ..FleetOptions::default()
    };
    let (cold, cold_stats) = run_fleet(&spec, &opts(&dir), &InProcessRunner).unwrap();
    assert_eq!((cold_stats.shard_cache_hits, cold_stats.shard_cache_misses), (0, 3));
    let (warm, warm_stats) = run_fleet(&spec, &opts(&dir), &InProcessRunner).unwrap();
    assert_eq!((warm_stats.shard_cache_hits, warm_stats.shard_cache_misses), (3, 0));

    assert_bit_identical(&cold, &direct.result, "cold cached fleet");
    assert_bit_identical(&warm, &direct.result, "warm cached fleet");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Renaming a sweep keeps its cache: the key leaves out `id`, `description` and
/// `reports`, and a shard result carries no identity beside its key, so the renamed
/// re-run is answered entirely from disk and still merges to the single-process answer.
#[test]
fn a_renamed_sweep_is_answered_from_its_cache() {
    let mut spec = presets::spec(2, Variant::Quick).unwrap();
    spec.override_seed_count(6);
    let direct = spec.run().unwrap();
    let dir = std::env::temp_dir().join(format!("fedopt-shard-rename-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts =
        FleetOptions { shards: 3, cache: Some(ShardCache::open(&dir)), ..FleetOptions::default() };
    let (_, cold_stats) = run_fleet(&spec, &opts, &InProcessRunner).unwrap();
    assert_eq!((cold_stats.shard_cache_hits, cold_stats.shard_cache_misses), (0, 3));

    let mut renamed = spec.clone();
    renamed.id = "fig2-renamed".to_string();
    renamed.description = "the same sweep under another name".to_string();
    renamed.reports.truncate(1);
    let (merged, stats) = run_fleet(&renamed, &opts, &InProcessRunner).unwrap();
    assert_eq!((stats.shard_cache_hits, stats.shard_cache_misses), (3, 0));
    assert_bit_identical(&merged, &direct.result, "renamed sweep over its cache");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entries_are_recomputed_never_trusted() {
    let mut spec = presets::spec(2, Variant::Quick).unwrap();
    spec.override_seed_count(3);
    let direct = spec.run().unwrap();
    let dir = std::env::temp_dir().join(format!("fedopt-shard-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Populate the cache, then damage every entry a different way.
    let cache = ShardCache::open(&dir);
    let shard_specs = split(&spec, 3).unwrap();
    let opts = FleetOptions { shards: 3, cache: Some(cache.clone()), ..FleetOptions::default() };
    run_fleet(&spec, &opts, &InProcessRunner).unwrap();

    let keys: Vec<String> = shard_specs.iter().map(cache_key).collect();
    let paths: Vec<std::path::PathBuf> = keys.iter().map(|k| cache.entry_path(k)).collect();
    // Entry 0: truncated mid-document.
    let text = std::fs::read_to_string(&paths[0]).unwrap();
    std::fs::write(&paths[0], &text[..text.len() / 2]).unwrap();
    // Entry 1: one payload byte flipped — still valid JSON, but the hash no longer
    // matches. Flip a digit inside a sample so the document parses.
    let text = std::fs::read_to_string(&paths[1]).unwrap();
    let pos = text.find("\"samples\":").unwrap();
    let digit =
        text[pos..].char_indices().find(|(_, c)| c.is_ascii_digit()).map(|(i, _)| pos + i).unwrap();
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'9' { b'8' } else { bytes[digit] + 1 };
    std::fs::write(&paths[1], bytes).unwrap();
    // Entry 2: left intact.

    for (i, key) in keys.iter().enumerate() {
        let loaded = cache.load(key);
        if i == 2 {
            assert!(loaded.is_some(), "the intact entry must still load");
        } else {
            assert!(loaded.is_none(), "damaged entry {i} must read as a miss");
        }
    }

    // The fleet recomputes the two damaged shards, trusts the intact one, and the merged
    // result is still exactly the single-process answer.
    let opts = FleetOptions { shards: 3, cache: Some(cache.clone()), ..FleetOptions::default() };
    let (merged, stats) = run_fleet(&spec, &opts, &InProcessRunner).unwrap();
    assert_eq!((stats.shard_cache_hits, stats.shard_cache_misses), (1, 2));
    assert_bit_identical(&merged, &direct.result, "fleet over a damaged cache");
    // And the damaged entries were re-written in place.
    for key in &keys {
        assert!(cache.load(key).is_some(), "recomputed entries must be restored");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_runner_produces_a_loud_partial_report() {
    struct FailOdd;
    impl experiments::shard::ShardRunner for FailOdd {
        fn run_shard(
            &self,
            spec: &ExperimentSpec,
        ) -> Result<experiments::shard::ShardResult, experiments::shard::ShardRunError> {
            let first_seed = spec.seeds.values()[0];
            if first_seed % 2 == 1 {
                Err(experiments::shard::ShardRunError::from(format!(
                    "synthetic failure for seed {first_seed}"
                )))
            } else {
                experiments::shard::run_shard_in_process(spec, None)
                    .map_err(|e| experiments::shard::ShardRunError::from(e.to_string()))
            }
        }
    }
    let mut spec = presets::spec(2, Variant::Quick).unwrap();
    spec.override_seed_count(4); // shards start at seeds 0, 2, 3 → the last one fails
    let opts = FleetOptions { shards: 3, ..FleetOptions::default() };
    let err = run_fleet(&spec, &opts, &FailOdd).unwrap_err();
    match &err {
        ShardError::Partial { failures, completed, total } => {
            assert_eq!(*total, 3);
            assert_eq!(*completed, 2);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].attempts, 2, "one retry before giving up");
            assert!(failures[0].error.contains("synthetic failure"));
        }
        other => panic!("expected a partial failure, got {other:?}"),
    }
    let report = err.to_string();
    assert!(report.contains("1 of 3 shards failed"), "{report}");
    assert!(report.contains("seeds 3..4"), "the report names the failed range: {report}");
}

#[test]
fn configured_retries_are_exhausted_before_a_shard_fails_terminally() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingFailure(AtomicUsize);
    impl experiments::shard::ShardRunner for CountingFailure {
        fn run_shard(
            &self,
            _spec: &ExperimentSpec,
        ) -> Result<experiments::shard::ShardResult, experiments::shard::ShardRunError> {
            let n = self.0.fetch_add(1, Ordering::Relaxed) + 1;
            Err(experiments::shard::ShardRunError::from(format!("attempt {n} down")))
        }
    }

    let mut spec = presets::spec(2, Variant::Quick).unwrap();
    spec.override_seed_count(2);
    let runner = CountingFailure(AtomicUsize::new(0));
    let opts = FleetOptions {
        shards: 1,
        max_retries: 3,
        backoff: std::time::Duration::ZERO, // the schedule is covered by backoff_delay tests
        ..FleetOptions::default()
    };
    let err = run_fleet(&spec, &opts, &runner).unwrap_err();
    assert_eq!(runner.0.load(Ordering::Relaxed), 4, "1 initial try + 3 retries");
    match err {
        ShardError::Partial { failures, .. } => {
            assert_eq!(failures[0].attempts, 4);
            assert!(failures[0].error.contains("attempt 4"), "the last error wins");
        }
        other => panic!("expected a partial failure, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

fn arbitrary_seed_policy(rng: &mut TestRng, max_count: u64) -> SeedPolicy {
    if rng.below(2) == 0 {
        SeedPolicy::Range { start: rng.below(1 << 40), count: 1 + rng.below(max_count) }
    } else {
        let n = 1 + rng.below(max_count);
        SeedPolicy::List((0..n).map(|_| rng.below(1 << 50)).collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting any seed policy into N ∈ [1, 16] shards partitions the seed sequence
    /// exactly: concatenating the shards' seeds, in shard order, reproduces the parent's
    /// seed sequence, with no overlap, gap, or reordering — and each shard is itself a
    /// valid spec.
    #[test]
    fn splitting_partitions_the_seed_sequence_exactly(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let mut spec = presets::spec(2, Variant::Quick).unwrap();
        spec.seeds = SeedSpec {
            policy: arbitrary_seed_policy(&mut rng, 5_000),
            ..spec.seeds.clone()
        };
        let n = 1 + rng.below(16) as usize;
        let shards = split(&spec, n).unwrap();

        prop_assert!(!shards.is_empty());
        prop_assert!(shards.len() <= n);
        let parent: Vec<u64> = spec.seeds.values();
        let concatenated: Vec<u64> =
            shards.iter().flat_map(|s| s.seeds.values()).collect();
        prop_assert_eq!(&concatenated, &parent);
        // Balanced to within one seed, and every shard validates on its own.
        let sizes: Vec<u64> = shards.iter().map(|s| s.seeds.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced shard sizes {:?}", sizes);
        for shard in &shards {
            prop_assert!(shard.validate().is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end on small random sweeps: merged fleet output is bit-identical to the
    /// unsharded engine for arbitrary seed policies and shard counts.
    #[test]
    fn merged_fleets_match_the_unsharded_engine(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let mut spec = presets::spec(2, Variant::Quick).unwrap();
        spec.seeds = SeedSpec {
            policy: arbitrary_seed_policy(&mut rng, 5),
            ..spec.seeds.clone()
        };
        let n = 1 + rng.below(6) as usize;
        let direct = spec.run().unwrap();
        let opts = FleetOptions { shards: n, ..FleetOptions::default() };
        let (merged, _) = run_fleet(&spec, &opts, &InProcessRunner).unwrap();
        assert_bit_identical(&merged, &direct.result, &format!("{n}-shard random fleet"));
    }
}
