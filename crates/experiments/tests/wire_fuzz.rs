//! Fuzzing the shard wire format and the on-disk cache against damage. The contract:
//! truncation, bit flips, and appended junk always yield a typed codec error (or a
//! cache miss) — never a panic, and never an *accepted but different* payload. A
//! mutation may only be accepted when it is semantically inert, i.e. the decoded result
//! equals the original exactly.

use experiments::presets::{self, Variant};
use experiments::shard::{self, split, ShardCache, ShardError, ShardResult};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::OnceLock;

/// One real shard result document, computed once (the mutations are cheap; the solve
/// is not).
fn base() -> &'static (ShardResult, String) {
    static BASE: OnceLock<(ShardResult, String)> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut spec = presets::spec(2, Variant::Quick).unwrap();
        spec.override_seed_count(2);
        let shard_spec = split(&spec, 2).unwrap().remove(0);
        let result = shard::run_shard_in_process(&shard_spec).unwrap();
        let line = result.to_json_string();
        (result, line)
    })
}

/// Asserts the damage contract on one mutated document.
fn assert_rejected_or_inert(mutated: &str, what: &str) -> Result<(), TestCaseError> {
    match ShardResult::from_json_str(mutated) {
        Err(ShardError::Codec(_)) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!(
            "{what}: wire damage must be a codec error, got {other:?}"
        ))),
        Ok(decoded) => {
            if decoded == base().0 {
                Ok(()) // semantically inert mutation (e.g. flip inside ignored whitespace)
            } else {
                Err(TestCaseError::fail(format!(
                    "{what}: a mutated document was ACCEPTED with a different payload"
                )))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any strict prefix of a wire document is rejected: the trailing checksum member
    /// means a truncated document can never re-hash consistently.
    #[test]
    fn truncated_documents_never_decode(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let line = &base().1;
        let mut cut = 1 + rng.below(line.len() as u64 - 1) as usize;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(
            ShardResult::from_json_str(&line[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte document must not decode",
            line.len()
        );
    }

    /// A single flipped byte is caught — by the parser if it breaks the syntax, by the
    /// whole-document checksum if it does not.
    #[test]
    fn single_byte_flips_are_rejected_or_inert(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let line = &base().1;
        let mut bytes = line.clone().into_bytes();
        let pos = rng.below(bytes.len() as u64) as usize;
        let mask = 1 + rng.below(255) as u8;
        bytes[pos] ^= mask;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        prop_assume!(mutated != *line); // lossy re-encoding can undo some flips
        assert_rejected_or_inert(&mutated, &format!("flip {mask:#04x} at byte {pos}"))?;
    }

    /// Trailing junk after the document is rejected: the codec consumes the whole
    /// input, so concatenated or torn writes cannot smuggle in a payload.
    #[test]
    fn appended_junk_is_rejected(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let line = &base().1;
        let junk: String = (0..1 + rng.below(12))
            .map(|_| char::from(b'!' + rng.below(90) as u8))
            .collect();
        let mutated = format!("{line}{junk}");
        assert_rejected_or_inert(&mutated, &format!("appended junk {junk:?}"))?;
    }

    /// The same damage on a *cache entry* is a miss and nothing else: `load` returns
    /// `None` (recompute) rather than a corrupt payload, and never panics.
    #[test]
    fn damaged_cache_entries_read_as_misses(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let (result, line) = base();
        let dir = std::env::temp_dir()
            .join(format!("fedopt-wire-fuzz-{}-{seed:016x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ShardCache::open(&dir);
        cache.store(result).unwrap();

        let mut bytes = line.clone().into_bytes();
        match rng.below(3) {
            0 => {
                let cut = 1 + rng.below(bytes.len() as u64 - 1) as usize;
                bytes.truncate(cut);
            }
            1 => {
                let pos = rng.below(bytes.len() as u64) as usize;
                bytes[pos] ^= 1 + rng.below(255) as u8;
            }
            _ => bytes.extend_from_slice(b"{trailing junk"),
        }
        std::fs::write(cache.entry_path(&result.key), &bytes).unwrap();

        match cache.load(&result.key) {
            None => {}
            Some(loaded) => prop_assert!(
                loaded == *result,
                "a damaged cache entry may only load when the damage was inert"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
