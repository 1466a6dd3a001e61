//! Experiments E1–E4: the paper's worked examples, verified end-to-end.
//!
//! Every concrete claim the paper makes about its example histories H1–H5
//! (Figures 1 and 2, Sections 4 and 5) is asserted here against the
//! executable model and checkers.

use opacity_tm::model::builder::paper;
use opacity_tm::model::{
    complete_histories, is_well_formed, preserves_real_time, RealTimeOrder, SpecRegistry, TxId,
    TxStatus,
};
use opacity_tm::opacity::criteria::{
    classify, is_global_atomic, is_serializable, is_strictly_serializable, snapshot_isolated,
    ScheduleProperties,
};
use opacity_tm::opacity::graphcheck::decide_via_graph;
use opacity_tm::opacity::opacity::{is_opaque, witness_history};
use opacity_tm::opacity::Placement;

fn specs() -> SpecRegistry {
    SpecRegistry::registers()
}

/// E1 — Figure 1: H1 satisfies global atomicity (even strictly) and
/// recoverability, but the forcefully aborted T2 observes an inconsistent
/// state, so H1 is not opaque.
#[test]
fn e1_figure1_h1_separates_opacity_from_classical_criteria() {
    let h1 = paper::h1();
    assert!(is_well_formed(&h1));

    // Classical criteria are all satisfied…
    assert!(is_serializable(&h1, &specs()).unwrap());
    assert!(is_global_atomic(&h1, &specs()).unwrap());
    assert!(is_strictly_serializable(&h1, &specs()).unwrap());
    let sched = ScheduleProperties::of(&h1);
    assert!(sched.recoverable);
    assert!(sched.avoids_cascading_aborts);

    // …but opacity is violated.
    assert!(!is_opaque(&h1, &specs()).unwrap().opaque);
    // Cross-check through the independent Theorem-2 procedure.
    let graph = decide_via_graph(&h1, &specs(), 8).unwrap();
    assert!(
        graph.consistent,
        "H1 is consistent — the failure is ordering, not values"
    );
    assert!(!graph.opaque());
}

/// E1 (detail) — the paper's two candidate serializations of H1 both fail
/// on T2, for exactly the reasons given in Section 5.3.
#[test]
fn e1_h1_failure_reasons_match_paper() {
    use opacity_tm::model::{tx_legal_in, HistoryBuilder};
    // Order (1): T1 · T2 · T3 — "the second read of T2 returns 2 instead
    // of 0".
    let s1 = HistoryBuilder::new()
        .write(1, "x", 1)
        .commit_ok(1)
        .read(2, "x", 1)
        .read(2, "y", 2)
        .try_commit(2)
        .abort(2)
        .write(3, "x", 2)
        .write(3, "y", 2)
        .commit_ok(3)
        .build();
    assert!(tx_legal_in(&s1, TxId(2), &specs()).is_err());
    // Order (2): T1 · T3 · T2 — "the first read of T2 returns 1 instead of
    // 2 (the value written by T3)".
    let s2 = paper::h2();
    assert!(tx_legal_in(&s2, TxId(2), &specs()).is_err());
    // T1 and T3 are legal in both orders.
    for s in [&s1, &s2] {
        assert!(tx_legal_in(s, TxId(1), &specs()).is_ok());
        assert!(tx_legal_in(s, TxId(3), &specs()).is_ok());
    }
}

/// E2 — Figure 2: H5 is opaque, with the paper's witness S = T2 · T1 · T3.
#[test]
fn e2_figure2_h5_is_opaque_with_paper_witness() {
    let h5 = paper::h5();
    assert!(is_well_formed(&h5));
    // The real-time facts of Section 5.3: Complete(H5) = {H5} and
    // ≺_H5 = {(T2, T3)}.
    assert_eq!(complete_histories(&h5).len(), 1);
    let rt = RealTimeOrder::of(&h5);
    assert_eq!(rt.pairs(), vec![(TxId(2), TxId(3))]);

    let report = is_opaque(&h5, &specs()).unwrap();
    assert!(report.opaque);
    let w = report.witness.unwrap();
    assert_eq!(w.tx_order(), vec![TxId(2), TxId(1), TxId(3)]);

    // Materialize S and verify it is everything Definition 1 demands.
    let s = witness_history(&h5, &w);
    assert!(s.is_sequential());
    assert!(preserves_real_time(&h5, &s));
    assert!(opacity_tm::model::all_txs_legal(&s, &specs()).is_ok());
}

/// E1/E2 — every paper history judged by every criterion, as a table.
/// Columns: serializable, strictly serializable, recoverable, avoids
/// cascading aborts, strict, rigorous, snapshot-isolated, opaque. The
/// captions' claims are in it: H1 is globally atomic, even strictly, and
/// recoverable but not opaque (Figure 1); H3, H4 and H5 are opaque.
#[test]
fn criteria_table_of_the_paper_histories() {
    const Y: bool = true;
    const N: bool = false;
    let table = [
        ("H1", paper::h1(), [Y, Y, Y, Y, Y, N, N, N]),
        ("H2", paper::h2(), [Y, Y, Y, Y, Y, Y, N, N]),
        ("H3", paper::h3(), [Y, Y, Y, N, N, N, Y, Y]),
        ("H4", paper::h4(), [Y, Y, Y, N, N, N, Y, Y]),
        ("H5", paper::h5(), [Y, Y, Y, N, N, N, Y, Y]),
    ];
    for (name, h, pinned) in table {
        let p = classify(&h, &specs()).unwrap();
        let row = [
            p.serializable,
            p.strictly_serializable,
            p.recoverable,
            p.avoids_cascading_aborts,
            p.strict,
            p.rigorous,
            snapshot_isolated(&h, &specs()).unwrap(),
            p.opaque,
        ];
        assert_eq!(row, pinned, "{name}");
    }
}

/// E3 — history H4 (Section 5.2): the dual semantics of a commit-pending
/// transaction. T3 sees T2's write, T1 does not — and H4 is opaque, but
/// only by treating T2 as committed and ordering T1 before it.
#[test]
fn e3_h4_commit_pending_dual_semantics() {
    let h4 = paper::h4();
    let report = is_opaque(&h4, &specs()).unwrap();
    assert!(report.opaque);
    let w = report.witness.unwrap();
    assert_eq!(w.placement_of(TxId(2)), Some(Placement::Committed));
    let order = w.tx_order();
    let pos = |t: u32| order.iter().position(|&x| x == TxId(t)).unwrap();
    assert!(pos(1) < pos(2) && pos(2) < pos(3));

    // The variant where T1 also reads y = 5 is NOT opaque ("T1 would
    // observe an inconsistent state (x = 0 and y = 5)").
    use opacity_tm::model::HistoryBuilder;
    let bad = HistoryBuilder::new()
        .read(1, "x", 0)
        .write(2, "x", 5)
        .write(2, "y", 5)
        .try_commit(2)
        .read(3, "y", 5)
        .read(1, "y", 5)
        .build();
    assert!(!is_opaque(&bad, &specs()).unwrap().opaque);
}

/// E4 — history H3 and its completions (Section 4): T1 commit-pending, T2
/// live; in every completion T1 resolves either way and T2 is forcefully
/// aborted. H3 is opaque only by committing T1 (T2 read its write).
#[test]
fn e4_h3_completions() {
    let h3 = paper::h3();
    let cs = complete_histories(&h3);
    assert_eq!(cs.len(), 2);
    for c in &cs {
        assert!(c.is_complete());
        assert_eq!(c.status(TxId(2)), TxStatus::ForcefullyAborted);
    }
    let report = is_opaque(&h3, &specs()).unwrap();
    assert!(report.opaque);
    assert_eq!(
        report.witness.unwrap().placement_of(TxId(1)),
        Some(Placement::Committed)
    );
}

/// H2 is the sequential equivalent of H1 (Section 4's equivalence example).
#[test]
fn h2_equivalent_to_h1_and_sequential() {
    let h1 = paper::h1();
    let h2 = paper::h2();
    assert!(h1.equivalent(&h2));
    assert!(!h1.is_sequential());
    assert!(h2.is_sequential());
    assert!(preserves_real_time(&h1, &h2));
}

/// Section 5.2's subtle claim: "the set of all opaque histories is not
/// prefix-closed". A live transaction's `tryC` can turn a non-opaque
/// history opaque — a commit-pending transaction may be placed as
/// committed, while a merely-live one must be aborted in every completion.
#[test]
fn e16_opacity_is_not_prefix_closed() {
    use opacity_tm::model::{Event, HistoryBuilder};
    // T1 (live, NOT commit-pending) wrote x = 1; committed T2 read it.
    let prefix = HistoryBuilder::new()
        .write(1, "x", 1)
        .read(2, "x", 1)
        .try_commit(2)
        .commit(2)
        .build();
    assert!(
        !is_opaque(&prefix, &specs()).unwrap().opaque,
        "live non-commit-pending T1 must be aborted in every completion, \
         so T2's read is a dirty read"
    );
    // Appending T1's tryC makes it commit-pending — now a completion may
    // commit it, and the full history is opaque.
    let mut full = prefix.clone();
    full.push(Event::TryCommit(TxId(1)));
    let report = is_opaque(&full, &specs()).unwrap();
    assert!(
        report.opaque,
        "the extension is opaque though its prefix is not"
    );
    assert_eq!(
        report.witness.unwrap().placement_of(TxId(1)),
        Some(Placement::Committed)
    );
    // This is exactly why a TM must keep EVERY prefix opaque at generation
    // time (the monitor's job): the prefix above corresponds to a moment
    // at which the TM had already leaked an uncommitted value.
}

/// All five paper histories pass well-formedness and the checkers agree
/// between the definitional and the graph-based procedures.
#[test]
fn definitional_and_graph_checkers_agree_on_all_paper_histories() {
    for h in [
        paper::h1(),
        paper::h2(),
        paper::h3(),
        paper::h4(),
        paper::h5(),
    ] {
        let d = is_opaque(&h, &specs()).unwrap().opaque;
        let g = decide_via_graph(&h, &specs(), 8).unwrap().opaque();
        assert_eq!(d, g, "checkers disagree on {h}");
    }
}
