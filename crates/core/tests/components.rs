//! Differential tests on histories with several independent components.
//!
//! The search completes one component — a class of transactions connected
//! by operations on a shared object or by real-time order — before it
//! starts the next, and gives up as soon as one cannot be completed
//! (DESIGN.md, "Independent components"). These properties feed it
//! histories that really have several components
//! ([`interleaved_history`]) and compare its verdicts and witnesses with
//! deciders that know nothing of components: fresh checks of each
//! component's projection, found by the union-find in `common`; the
//! Theorem-2 graph decider; and the model crate's legality replay.

mod common;

use common::{components, projection};
use proptest::prelude::*;
use tm_harness::randhist::{interleaved_history, GenConfig};
use tm_model::{History, SpecRegistry};
use tm_opacity::graphcheck::decide_via_graph;
use tm_opacity::opacity::witness_history;
use tm_opacity::search::search;
use tm_opacity::{CheckSession, SearchConfig, SearchMode};

/// Each part: three transactions on two registers with noisy reads,
/// commit-pending and aborted transactions; 6–9 transactions in all.
const PART: GenConfig = GenConfig {
    txs: 3,
    objs: 2,
    max_ops: 3,
    noise: 0.3,
    commit_pending: 0.2,
    abort: 0.2,
};

/// Parts small enough for the graph decider: 4–6 transactions in all.
const SMALL_PART: GenConfig = GenConfig { txs: 2, ..PART };

fn opaque(h: &History) -> bool {
    search(h, &SpecRegistry::registers(), SearchMode::OPACITY)
        .unwrap()
        .holds()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A history is opaque iff each component's projection is, and the
    /// session counts the same components as the union-find.
    #[test]
    fn verdict_is_the_conjunction_of_the_components(seed in 0u64..100_000) {
        let h = interleaved_history(&PART, seed);
        let parts = components(&h);
        let specs = SpecRegistry::registers();
        let mut session = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let verdict = session.check_history(&h).unwrap().holds();
        prop_assert_eq!(session.components(), parts.len(), "{}", h);
        let conjunction = parts.iter().all(|part| opaque(&projection(&h, part)));
        prop_assert_eq!(verdict, conjunction, "components {:?} of {}", parts, h);
    }

    /// Every witness is a Definition-1 serialization: sequential, legal
    /// under the model crate's replay, and extending real-time order. A
    /// search from the root places each component contiguously.
    #[test]
    fn positive_witnesses_are_legal_and_contiguous(seed in 0u64..100_000) {
        let h = interleaved_history(&PART, seed);
        let specs = SpecRegistry::registers();
        let Some(w) = search(&h, &specs, SearchMode::OPACITY).unwrap().witness else {
            return Ok(());
        };
        let s = witness_history(&h, &w);
        prop_assert!(s.is_sequential(), "{}", s);
        prop_assert!(tm_model::preserves_real_time(&h, &s), "{}", s);
        prop_assert!(tm_model::all_txs_legal(&s, &specs).is_ok(), "{}", s);
        let order = w.tx_order();
        for part in components(&h) {
            let at: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|(_, t)| part.contains(t))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(at.len(), part.len());
            prop_assert_eq!(at[at.len() - 1] - at[0] + 1, at.len(), "{:?} in {:?}", part, order);
        }
    }
}

proptest! {
    // The graph decider enumerates n!·2^p orders: fewer, smaller cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The serialization search agrees with the Theorem-2 graph decider,
    /// which shares no code with it.
    #[test]
    fn verdict_matches_the_graph_decider(seed in 0u64..100_000) {
        let h = interleaved_history(&SMALL_PART, seed);
        prop_assert!(h.txs().len() <= 6);
        let graph = decide_via_graph(&h, &SpecRegistry::registers(), 6).unwrap();
        prop_assert_eq!(opaque(&h), graph.opaque(), "{}", h);
    }
}

#[test]
fn the_generator_yields_both_split_and_joined_histories() {
    // The properties above are only as strong as their inputs: the sweep
    // must contain histories whose parts stay independent, histories
    // whose parts real-time edges join, and both verdicts.
    let (mut split, mut joined, mut yes) = (0, 0, 0);
    for seed in 0..200 {
        let h = interleaved_history(&PART, seed);
        assert!(tm_model::is_well_formed(&h), "seed {seed}: {h}");
        if components(&h).len() >= 2 {
            split += 1;
        } else {
            joined += 1;
        }
        if opaque(&h) {
            yes += 1;
        }
    }
    assert!(
        split >= 40,
        "only {split} of 200 histories have several components"
    );
    assert!(
        joined >= 10,
        "only {joined} of 200 histories are one component"
    );
    assert!(
        (20..180).contains(&yes),
        "{yes} of 200 histories are opaque"
    );
}
