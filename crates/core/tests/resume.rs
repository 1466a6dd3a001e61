//! Differential tests for the resumable check: a session checked after
//! every event resumes each check from the last witness, and must decide
//! exactly what a fresh search of the same prefix decides — in every
//! search mode, with or without a memo bound, and through the full-walk
//! fallback when the retained prefix has no completion — and what fresh
//! searches of the prefix's independent components decide together.

mod common;

use common::{components, projection};
use proptest::prelude::*;
use tm_harness::randhist::{interleaved_history, random_history, GenConfig};
use tm_model::{History, SpecRegistry};
use tm_opacity::search::search;
use tm_opacity::{CheckSession, SearchConfig, SearchMode};

/// Histories with commit-pending and aborted transactions and noisy reads.
const NOISY: GenConfig = GenConfig {
    txs: 5,
    objs: 2,
    max_ops: 4,
    noise: 0.3,
    commit_pending: 0.25,
    abort: 0.25,
};

/// Parts of an interleaved history: 4–9 transactions over 2–3 disjoint
/// register sets, so the search sees several components.
const PART: GenConfig = GenConfig {
    txs: 3,
    objs: 2,
    max_ops: 3,
    ..NOISY
};

const MODES: [SearchMode; 3] = [
    SearchMode::OPACITY,
    SearchMode::STRICT_SERIALIZABILITY,
    SearchMode::SERIALIZABILITY,
];

/// Checks `h` after every event through one session, through a fresh
/// search of each prefix, and through fresh searches of the prefix's
/// components (found by the test's own union-find, so one component at a
/// time: the criterion holds iff it holds for each); returns the session's
/// fallback count, or the first disagreement.
fn session_against_fresh(
    h: &History,
    specs: &SpecRegistry,
    mode: SearchMode,
    memo_capacity: Option<usize>,
) -> Result<usize, String> {
    let config = SearchConfig {
        memo_capacity,
        ..SearchConfig::default()
    };
    let mut session = CheckSession::new(specs, mode, config);
    for (i, e) in h.events().iter().enumerate() {
        session.extend(e).unwrap();
        let live = session.check().unwrap().holds();
        let prefix = h.prefix(i + 1);
        let fresh = search(&prefix, specs, mode).unwrap().holds();
        let split = components(&prefix).iter().all(|part| {
            search(&projection(&prefix, part), specs, mode)
                .unwrap()
                .holds()
        });
        if live != fresh || live != split {
            return Err(format!(
                "{mode:?} cap {memo_capacity:?}: prefix {} of {h}: session {live}, \
                 fresh {fresh}, by components {split}",
                i + 1
            ));
        }
    }
    Ok(session.lifetime_stats().fallbacks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Resuming from the checkpoint never changes a verdict.
    #[test]
    fn resumed_session_matches_fresh_search_at_every_prefix(seed in 0u64..100_000) {
        let h = random_history(&NOISY, seed);
        let specs = SpecRegistry::registers();
        for mode in MODES {
            for cap in [None, Some(1), Some(8)] {
                if let Err(msg) = session_against_fresh(&h, &specs, mode, cap) {
                    prop_assert!(false, "{}", msg);
                }
            }
        }
    }

    /// The same on histories of 2–3 independent parts, where a check
    /// completes one component before it starts the next.
    #[test]
    fn resumed_session_matches_fresh_search_on_interleaved_parts(seed in 0u64..100_000) {
        let h = interleaved_history(&PART, seed);
        let specs = SpecRegistry::registers();
        for mode in MODES {
            for cap in [None, Some(1), Some(8)] {
                if let Err(msg) = session_against_fresh(&h, &specs, mode, cap) {
                    prop_assert!(false, "{}", msg);
                }
            }
        }
    }

    /// Under a node limit the resumed session may give up only where a
    /// fresh limited check gives up too: a "no" that is only the cap's
    /// must never veto a "yes" the fresh check finds.
    #[test]
    fn node_limited_session_is_never_worse_than_a_fresh_limited_check(
        seed in 0u64..100_000,
        limit in 1usize..40,
    ) {
        let h = random_history(&NOISY, seed);
        let specs = SpecRegistry::registers();
        let config = SearchConfig {
            node_limit: Some(limit),
            ..SearchConfig::default()
        };
        let mut session = CheckSession::new(&specs, SearchMode::OPACITY, config);
        for (i, e) in h.events().iter().enumerate() {
            session.extend(e).unwrap();
            let live = session.check().unwrap().holds();
            let fresh = CheckSession::new(&specs, SearchMode::OPACITY, config)
                .check_history(&h.prefix(i + 1))
                .unwrap()
                .holds();
            prop_assert!(
                live || !fresh,
                "limit {}: prefix {} of {}: session says no, fresh says yes",
                limit,
                i + 1,
                h
            );
        }
    }
}

#[test]
fn the_differential_sweep_exercises_the_fallback() {
    // The property above is only as strong as the paths it reaches: over a
    // fixed sweep, the resumed opacity checks must hit the fallback (the
    // suffix below the retained prefix has no completion) and still agree
    // with fresh searches.
    let specs = SpecRegistry::registers();
    let mut fallbacks = 0;
    for seed in 0..200 {
        let h = random_history(&NOISY, seed);
        fallbacks += session_against_fresh(&h, &specs, SearchMode::OPACITY, None).unwrap();
    }
    assert!(fallbacks > 0, "no check in the sweep fell back");
}
