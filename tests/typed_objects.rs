//! End-to-end exercise of the typed transactional-object subsystem through
//! the facade crate: encodings over real TMs, object-level recording, the
//! conformance battery's headline verdicts, and the online monitor running
//! against a rich-object history.

use opacity_tm::harness::{
    execute_objects, object_conformance, ObjOp, ObjProgram, ObjScript, ObjectKind,
};
use opacity_tm::model::{ObjId, OpName, Value};
use opacity_tm::opacity::incremental::OpacityMonitor;
use opacity_tm::opacity::opacity::is_opaque;
use opacity_tm::opacity::SearchConfig;
use opacity_tm::stm::objects::encodings::{CounterEnc, QueueEnc, SetEnc};
use opacity_tm::stm::objects::{run_typed_tx, TypedSpace, TypedStm};
use opacity_tm::stm::{SiStm, Stm, Tl2Stm, TmRegistry};

fn factory(name: &'static str) -> impl Fn(usize) -> Box<dyn Stm> + Sync {
    opacity_tm::stm::TmRegistry::suite().factory(name).unwrap()
}

/// The paper-level claim of this subsystem, end to end: snapshot isolation
/// commits a write-skew outcome on a *set* that no serial execution allows,
/// and the recorded object-level history convicts it — while TL2, driven
/// through the very same probe, stays opaque in every interleaving.
#[test]
fn object_level_write_skew_separates_si_from_opacity() {
    let si = object_conformance(
        &factory("sistm"),
        &[ObjectKind::Set],
        2,
        SearchConfig::default(),
    );
    let skew = si.probe("set-write-skew").expect("probe selected");
    assert!(skew.well_formed);
    assert!(!skew.opaque && !skew.serializable, "SI must be convicted");
    assert!(!skew.violations.is_empty(), "violations carry the schedule");

    let tl2 = object_conformance(
        &factory("tl2"),
        &[ObjectKind::Set],
        2,
        SearchConfig::default(),
    );
    assert!(
        tl2.all_clean(),
        "an opaque TM is acquitted on the same probe"
    );
}

/// One concrete convicting interleaving, pinned: both SI transactions read
/// the empty set and both insert — the committed history admits no legal
/// serialization of the set object.
#[test]
fn si_write_skew_on_a_set_reproduced_by_hand() {
    let space = TypedSpace::builder()
        .with("s", SetEnc { domain: 4 })
        .build();
    let tm = TypedStm::new(space, |k| Box::new(SiStm::new(k)));
    let program = ObjProgram {
        threads: vec![
            ObjScript {
                ops: vec![
                    ObjOp {
                        obj: "s",
                        op: OpName::Contains,
                        args: vec![Value::int(1)],
                    },
                    ObjOp {
                        obj: "s",
                        op: OpName::Contains,
                        args: vec![Value::int(2)],
                    },
                    ObjOp {
                        obj: "s",
                        op: OpName::Insert,
                        args: vec![Value::int(1)],
                    },
                ],
            },
            ObjScript {
                ops: vec![
                    ObjOp {
                        obj: "s",
                        op: OpName::Contains,
                        args: vec![Value::int(1)],
                    },
                    ObjOp {
                        obj: "s",
                        op: OpName::Contains,
                        args: vec![Value::int(2)],
                    },
                    ObjOp {
                        obj: "s",
                        op: OpName::Insert,
                        args: vec![Value::int(2)],
                    },
                ],
            },
        ],
    };
    // Fully interleaved: both read their snapshots before either commits.
    let out = execute_objects(&tm, &program, &[0, 1, 0, 1, 0, 1, 0, 1]);
    assert!(
        out.txs[0].committed && out.txs[1].committed,
        "SI commits both"
    );
    assert_eq!(
        out.txs[1].returns,
        vec![Value::Bool(false), Value::Bool(false), Value::Bool(true)],
        "T2 saw the empty snapshot and inserted"
    );
    let h = tm.history();
    let report = is_opaque(&h, &tm.registry()).unwrap();
    assert!(!report.opaque, "write skew on the set: {h}");
}

/// The resumable online monitor consumes a typed history incrementally
/// under the object registry — rich specs ride the same search core.
#[test]
fn online_monitor_follows_a_typed_history() {
    let space = TypedSpace::builder()
        .with("c", CounterEnc)
        .with("q", QueueEnc { cap: 16 })
        .build();
    let tm = TypedStm::new(space, |k| Box::new(Tl2Stm::new(k)));
    let c = tm.handle("c");
    let q = tm.handle("q");
    for round in 0..4 {
        run_typed_tx(&tm, 0, |tx| {
            tx.inc(c)?;
            tx.enq(q, round)
        });
        run_typed_tx(&tm, 1, |tx| {
            tx.get(c)?;
            tx.deq(q)
        });
    }
    let h = tm.history();
    let specs = tm.registry();
    let mut monitor = OpacityMonitor::new(&specs);
    assert_eq!(
        monitor.feed_all(&h).expect("typed history is well-formed"),
        None,
        "every prefix of the TL2 typed run is opaque"
    );
    // The recorded history speaks object names, not register names.
    assert!(h.events().iter().all(|e| e
        .obj()
        .map_or(true, |o| o == &ObjId::new("c") || o == &ObjId::new("q"))));
}

/// Retry loops, handles, and invariants work across every TM via the
/// facade — the "zero per-TM changes" claim.
#[test]
fn typed_counter_conserves_increments_on_every_tm() {
    for make in TmRegistry::suite().names().into_iter().map(factory) {
        let typed = TypedStm::new(ObjectKind::Counter.standard_space(64), |k| make(k));
        let total = 10;
        for i in 0..total {
            run_typed_tx(&typed, i % 2, |tx| tx.inc(tx.handle("o")));
        }
        let (v, _) = run_typed_tx(&typed, 0, |tx| tx.get(tx.handle("o")));
        assert_eq!(v, total as i64, "{}", typed.name());
    }
}
