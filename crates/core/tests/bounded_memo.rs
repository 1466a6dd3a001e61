//! Property tests for the memory-bounded search: a tight memo capacity must
//! never change an answer, in a one-shot check or in a resumable session
//! whose invalidation rules compose with eviction.

use proptest::prelude::*;
use tm_harness::randhist::{random_history, GenConfig};
use tm_model::SpecRegistry;
use tm_opacity::search::search;
use tm_opacity::{CheckSession, SearchConfig, SearchMode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A tight memo capacity must never change a verdict — eviction only
    /// costs recomputation.
    #[test]
    fn bounded_memo_is_verdict_identical_on_random_histories(
        seed in 0u64..10_000,
        cap in 1usize..24,
    ) {
        let h = random_history(&GenConfig::default(), seed);
        let specs = SpecRegistry::registers();
        let unbounded = search(&h, &specs, SearchMode::OPACITY).unwrap();
        let config = SearchConfig {
            memo_capacity: Some(cap),
            ..SearchConfig::default()
        };
        let out = CheckSession::new(&specs, SearchMode::OPACITY, config)
            .check_history(&h)
            .unwrap();
        prop_assert_eq!(out.holds(), unbounded.holds(), "cap={} on {}", cap, h);
    }

    /// Session use (the monitor's shape): extending and re-checking a
    /// bounded session at every prefix matches fresh unbounded checks — the
    /// memo's invalidation rules compose with eviction.
    #[test]
    fn bounded_session_matches_batch_on_prefixes(seed in 0u64..3_000) {
        let config = GenConfig {
            txs: 5,
            objs: 2,
            max_ops: 4,
            noise: 0.3,
            commit_pending: 0.25,
            abort: 0.25,
        };
        let h = random_history(&config, seed);
        let specs = SpecRegistry::registers();
        let session_config = SearchConfig {
            memo_capacity: Some(8),
            ..SearchConfig::default()
        };
        let mut session = CheckSession::new(&specs, SearchMode::OPACITY, session_config);
        for (i, e) in h.events().iter().enumerate() {
            session.extend(e).unwrap();
            let live = session.check().unwrap().holds();
            let fresh = search(&h.prefix(i + 1), &specs, SearchMode::OPACITY)
                .unwrap()
                .holds();
            prop_assert_eq!(live, fresh, "prefix {} of {}", i + 1, h);
        }
    }
}
