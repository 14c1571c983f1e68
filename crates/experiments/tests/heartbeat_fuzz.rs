//! Fuzzing the worker heartbeat protocol against stderr damage. The liveness contract:
//! a heartbeat is any line that starts with `fedopt-heartbeat`, whatever follows it.
//! Malformed, interleaved or truncated lines must never panic the coordinator's
//! [`StderrState`]; the liveness clock answers to the prefix alone, and prefixed lines
//! never reach the failure tail. The shape mirrors `wire_fuzz.rs`: damage is either
//! rejected or inert, never a panic.

use experiments::shard::{StderrState, HEARTBEAT_PREFIX};
use proptest::prelude::*;
use proptest::TestRng;

/// Payload-shaped fragments (`t=`, `cells=`, numbers, whitespace): whatever follows the
/// prefix, the line is a plain beat.
const FRAGMENTS: &[&str] =
    &["t=", "cells=", "s", "t=1.5", "cells=nine", " ", "\t", "=", "-", ".", "NaN", "inf", "µs"];

/// One line of structured junk: protocol fragments interleaved with printable noise.
fn junk_line(rng: &mut TestRng) -> String {
    let pieces = rng.below(12);
    let mut line = String::new();
    for _ in 0..pieces {
        if rng.below(3) == 0 {
            line.push_str(FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize]);
        } else {
            line.push(char::from(b' ' + rng.below(95) as u8));
        }
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary lines — protocol-shaped junk, with and without the heartbeat prefix —
    /// never panic the stderr capture, and each moves the liveness clock exactly when it
    /// carries the prefix.
    #[test]
    fn malformed_lines_never_panic_the_parser_or_the_clock(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        for _ in 0..8 {
            let body = junk_line(&mut rng);
            let line = if rng.below(2) == 0 { format!("{HEARTBEAT_PREFIX}{body}") } else { body };
            let mut state = StderrState::default();
            state.observe(&line);
            let _ = state.render_tail();
            prop_assert_eq!(state.last_heartbeat().is_some(), line.starts_with(HEARTBEAT_PREFIX));
        }
    }

    /// Any truncation of a heartbeat line is handled without panicking, and only a cut
    /// that keeps the whole prefix counts as a beat: a truncated line never invents a
    /// heartbeat time.
    #[test]
    fn truncated_heartbeats_never_panic_and_never_invent_a_time(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let line = format!("{HEARTBEAT_PREFIX}{}", junk_line(&mut rng));
        let mut cut = 1 + rng.below(line.len() as u64 - 1) as usize;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &line[..cut];
        let mut state = StderrState::default();
        state.observe(prefix);
        prop_assert_eq!(state.last_heartbeat().is_some(), prefix.starts_with(HEARTBEAT_PREFIX));
    }

    /// Mangled heartbeats and plain noise interleaved after a real beat never corrupt
    /// the worker's progress — the liveness clock is never forgotten, never runs
    /// backwards, and only prefixed lines move it — and never corrupt the failure tail:
    /// every noise line lands there, no prefixed line does.
    #[test]
    fn interleaved_garbage_never_corrupts_progress_or_the_tail(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let mut state = StderrState::default();
        state.observe(&format!("{HEARTBEAT_PREFIX} t=1.0s cells=7"));
        let mut noise = Vec::new();
        for _ in 0..rng.below(16) {
            let before = state.last_heartbeat().expect("the first beat is never forgotten");
            let body = junk_line(&mut rng);
            if rng.below(2) == 0 {
                state.observe(&format!("{HEARTBEAT_PREFIX}{body}"));
                let after = state.last_heartbeat().expect("a beat keeps the clock set");
                prop_assert!(after >= before, "a heartbeat never moves the clock backwards");
            } else {
                state.observe(&body);
                prop_assert_eq!(state.last_heartbeat(), Some(before)); // noise never moves the clock
                noise.push(body);
            }
        }
        // At most 15 lines of at most 12 short pieces each: far inside the tail budget.
        let tail = state.render_tail();
        prop_assert!(
            !tail.contains(HEARTBEAT_PREFIX),
            "heartbeat-prefixed lines stay out of the failure tail"
        );
        for line in &noise {
            prop_assert!(tail.contains(line.as_str()), "noise line {:?} missing from {:?}", line, tail);
        }
    }
}
