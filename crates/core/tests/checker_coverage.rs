//! Broader coverage of the checker surface: criteria aliases, search
//! configuration, the explanation machinery, the monitor under node limits,
//! and graph-decider corners not exercised by the paper histories.

use tm_model::builder::{paper, HistoryBuilder};
use tm_model::{SpecRegistry, TxId};
use tm_opacity::criteria::{
    check_progressive, classify, is_global_atomic, is_one_copy_serializable, is_serializable,
    is_strictly_serializable, is_tx_linearizable,
};
use tm_opacity::explain::explain_violation;
use tm_opacity::graph::GraphError;
use tm_opacity::graphcheck::{construct_graph_witness, decide_via_graph};
use tm_opacity::incremental::OpacityMonitor;
use tm_opacity::opacity::{is_opaque, is_opaque_with};
use tm_opacity::{CheckError, SearchConfig, SearchMode};

fn specs() -> SpecRegistry {
    SpecRegistry::registers()
}

#[test]
fn criteria_aliases_agree_with_their_definitions() {
    for h in [paper::h1(), paper::h2(), paper::h4(), paper::h5()] {
        assert_eq!(
            is_global_atomic(&h, &specs()).unwrap(),
            is_serializable(&h, &specs()).unwrap()
        );
        assert_eq!(
            is_one_copy_serializable(&h, &specs()).unwrap(),
            is_serializable(&h, &specs()).unwrap()
        );
        assert_eq!(
            is_tx_linearizable(&h, &specs()).unwrap(),
            is_strictly_serializable(&h, &specs()).unwrap()
        );
    }
}

#[test]
fn classify_profile_is_internally_consistent() {
    for h in [
        paper::h1(),
        paper::h2(),
        paper::h3(),
        paper::h4(),
        paper::h5(),
    ] {
        let p = classify(&h, &specs()).unwrap();
        // opacity ⟹ strict serializability ⟹ serializability.
        if p.opaque {
            assert!(p.strictly_serializable, "{h}");
        }
        if p.strictly_serializable {
            assert!(p.serializable, "{h}");
        }
    }
}

#[test]
fn node_limit_makes_checker_conservative_not_wrong() {
    // With a node limit, a positive verdict is still trustworthy; only
    // "no witness found" may be a false negative. H5 is opaque and small
    // enough that even a modest limit finds the witness.
    let h = paper::h5();
    let tight = is_opaque_with(
        &h,
        &specs(),
        SearchConfig {
            node_limit: Some(3),
            ..SearchConfig::default()
        },
    )
    .unwrap();
    let loose = is_opaque_with(
        &h,
        &specs(),
        SearchConfig {
            node_limit: Some(10_000),
            ..SearchConfig::default()
        },
    )
    .unwrap();
    assert!(loose.opaque);
    // The tight limit may or may not find it; if it claims opaque, the
    // witness must be real.
    if tight.opaque {
        let w = tight.witness.unwrap();
        let s = tm_opacity::opacity::witness_history(&h, &w);
        assert!(tm_model::all_txs_legal(&s, &specs()).is_ok());
    }
}

#[test]
fn search_modes_on_commit_pending_histories() {
    // A striking asymmetry: the committed-only criteria ERASE the
    // commit-pending writer, leaving T2's read of 1 unjustifiable — so the
    // history is "not serializable" — while opacity's completion semantics
    // can commit the writer and accept the history. Opacity is not simply
    // stronger on every history; it is a different (completion-aware)
    // quantification.
    let h = HistoryBuilder::new()
        .write(1, "x", 1)
        .try_commit(1)
        .read(2, "x", 1)
        .try_commit(2)
        .commit(2)
        .build();
    assert!(!is_serializable(&h, &specs()).unwrap());
    assert!(!is_strictly_serializable(&h, &specs()).unwrap());
    assert!(is_opaque(&h, &specs()).unwrap().opaque);
    // Plain serializability can also hold where opacity fails:
    let h2 = HistoryBuilder::new()
        .write(1, "x", 1)
        .commit_ok(1)
        .read(2, "x", 0) // stale: started after C1
        .commit_ok(2)
        .build();
    assert!(is_serializable(&h2, &specs()).unwrap());
    assert!(!is_opaque(&h2, &specs()).unwrap().opaque);
    let _ = SearchMode::OPACITY; // mode constants are part of the API
}

#[test]
fn explanations_for_various_violations() {
    // Real-time violation (stale read after commit).
    let stale = HistoryBuilder::new()
        .write(1, "x", 1)
        .commit_ok(1)
        .read(2, "x", 0)
        .commit_ok(2)
        .build();
    let ex = explain_violation(&stale, &specs()).unwrap().unwrap();
    assert!(ex.event.contains("ret2(x,read)"));
    assert!(ex.placeable_prefix.contains(&TxId(1)));

    // Dirty read.
    let dirty = HistoryBuilder::new()
        .write(1, "x", 9)
        .read(2, "x", 9)
        .try_commit(2)
        .commit(2)
        .try_abort(1)
        .abort(1)
        .build();
    let ex = explain_violation(&dirty, &specs()).unwrap().unwrap();
    // The violation is visible as soon as T2's read returns the dirty 9
    // (T1 is live non-commit-pending at that point).
    assert!(ex.event.contains("ret2(x,read)"), "{}", ex.event);

    // No explanation for opaque histories.
    assert!(explain_violation(&paper::h4(), &specs()).unwrap().is_none());
}

#[test]
fn monitor_with_custom_config() {
    let specs = specs();
    let mut m = OpacityMonitor::new(&specs).with_config(SearchConfig {
        node_limit: Some(100_000),
        ..SearchConfig::default()
    });
    assert_eq!(m.feed_all(&paper::h5()).unwrap(), None);
    // H5's ten responses are checked, its ten invocations skipped. The
    // last check (C3, already placed committed) resumes from a complete
    // checkpoint and may cost no node, so the work shows in the lifetime.
    assert_eq!(m.check_counts(), (10, 10));
    assert!(m.lifetime_stats().nodes > 0);
    assert_eq!(m.history().len(), paper::h5().len());
}

#[test]
fn graph_decider_with_multiple_commit_pending() {
    // Two commit-pending writers, one reader of each: both must be in V.
    let h = HistoryBuilder::new()
        .write(1, "x", 1)
        .try_commit(1)
        .write(2, "y", 2)
        .try_commit(2)
        .read(3, "x", 1)
        .read(3, "y", 2)
        .try_commit(3)
        .commit(3)
        .build();
    assert!(is_opaque(&h, &specs()).unwrap().opaque);
    let v = decide_via_graph(&h, &specs(), 6).unwrap();
    assert!(v.opaque());
    let w = v.witness.unwrap();
    assert!(w.visible.contains(&TxId(1)) && w.visible.contains(&TxId(2)));
    // The constructive path agrees.
    let cw = construct_graph_witness(&h, &specs()).unwrap().unwrap();
    assert!(cw.visible.contains(&TxId(1)) && cw.visible.contains(&TxId(2)));
}

#[test]
fn graph_decider_rejects_when_only_bad_visibility_choices_exist() {
    // T3 read x from commit-pending T1, but T1 then ABORTS: no V helps.
    let h = HistoryBuilder::new()
        .write(1, "x", 1)
        .try_commit(1)
        .read(3, "x", 1)
        .try_commit(3)
        .commit(3)
        .abort(1)
        .build();
    assert!(!is_opaque(&h, &specs()).unwrap().opaque);
    assert!(!decide_via_graph(&h, &specs(), 6).unwrap().opaque());
    assert!(construct_graph_witness(&h, &specs()).unwrap().is_none());
}

#[test]
fn graph_witness_past_the_engine_limit_is_an_error_not_a_panic() {
    // 64 transactions plus the synthetic T0 exceed the search's bitmask:
    // the construction reports the engine's error instead of panicking.
    let mut b = HistoryBuilder::new();
    for t in 1..=64u32 {
        b = b.write(t, "x", t as i64).commit_ok(t);
    }
    let err = construct_graph_witness(&b.build(), &specs()).unwrap_err();
    assert_eq!(
        err,
        GraphError::Search(CheckError::TooManyTransactions { found: 65, max: 64 })
    );
    assert!(err.to_string().contains("exceed engine limit"), "{err}");
}

#[test]
fn progressiveness_on_paper_histories() {
    // H1's forced abort of T2 is justified (T3 conflicted while live):
    // H1's TM may be progressive — its sin is opacity, not progress.
    let r = check_progressive(&paper::h1());
    assert!(r.progressive(), "{:?}", r.violations);
    // H5: T1's forced abort justified by T3 (concurrent, both touch x).
    let r = check_progressive(&paper::h5());
    assert!(r.progressive());
}

#[test]
fn empty_and_single_event_histories() {
    use tm_model::History;
    let empty = History::new();
    assert!(is_opaque(&empty, &specs()).unwrap().opaque);
    assert!(is_serializable(&empty, &specs()).unwrap());
    let single = HistoryBuilder::new().inv_read(1, "x").build();
    assert!(
        is_opaque(&single, &specs()).unwrap().opaque,
        "pending invocation only"
    );
}
