//! Experiment E22: closed nesting, executable (Section 7).
//!
//! E15 validates the Section 7 *translation* on hand-built histories; this
//! suite runs actual nested transactions on the lazy-acquire TM (`begin_astm`'s
//! scope API), records parent and child under separate transaction ids,
//! flattens with `tm_model::flatten`, and judges the result with the
//! ordinary opacity machinery — the full path from executable nesting to
//! the paper's flat model.
//!
//! The semantics exercised:
//! * a child observes the parent's buffered writes ("a nested transaction
//!   should observe the changes done by its parent");
//! * a committed closed child merges into the parent (its `tryC`/`C` are
//!   internal);
//! * an aborted child is a *partial* abort: the parent's redo log is
//!   restored and the parent proceeds — something the flat interface
//!   cannot express;
//! * the aborted child's legality is judged against the parent context
//!   (the flatten splice), and the whole flattened history is opaque.

use opacity_tm::model::{flatten, SpecRegistry, TxId};
use opacity_tm::opacity::opacity::is_opaque;
use opacity_tm::stm::astm::AstmStm;
use opacity_tm::stm::{run_tx, Stm, Tx};

fn specs() -> SpecRegistry {
    SpecRegistry::registers()
}

/// Flatten the TM's recorded history with its own nesting info and check
/// opacity.
fn flat_opaque(stm: &AstmStm) -> bool {
    let h = stm.recorder().history();
    let flat = flatten(&h, &stm.nesting_info());
    assert!(opacity_tm::model::is_well_formed(&flat), "{flat}");
    is_opaque(&flat, &specs()).unwrap().opaque
}

#[test]
fn child_sees_parent_buffered_writes() {
    let stm = AstmStm::new(2);
    let mut t = stm.begin_astm(0);
    t.write(0, 42).unwrap(); // parent's write, not yet committed anywhere
    t.begin_nested();
    assert_eq!(
        t.read(0).unwrap(),
        42,
        "the child must see the parent's write"
    );
    t.commit_nested();
    Box::new(t).commit().unwrap();
    assert!(flat_opaque(&stm));
}

#[test]
fn committed_child_merges_into_parent() {
    let stm = AstmStm::new(2);
    let mut t = stm.begin_astm(0);
    t.write(0, 1).unwrap();
    t.begin_nested();
    t.write(1, 2).unwrap();
    t.commit_nested();
    Box::new(t).commit().unwrap();
    // Both writes are durable.
    let ((a, b), _) = run_tx(&stm, 0, |tx| Ok((tx.read(0)?, tx.read(1)?)));
    assert_eq!((a, b), (1, 2));
    // The flattened history contains a single committed transaction.
    let flat = flatten(&stm.recorder().history(), &stm.nesting_info());
    let parent_committed = flat
        .txs()
        .iter()
        .filter(|&&t| flat.status(t).is_committed())
        .count();
    assert_eq!(parent_committed, 2, "the worker + the reader, no child tx");
    assert!(is_opaque(&flat, &specs()).unwrap().opaque);
}

#[test]
fn aborted_child_is_a_partial_abort() {
    let stm = AstmStm::new(3);
    let mut t = stm.begin_astm(0);
    t.write(0, 10).unwrap(); // parent work before the child
    t.begin_nested();
    t.write(0, 99).unwrap(); // child overwrites the parent's buffer…
    t.write(1, 99).unwrap(); // …and touches a new register
    t.abort_nested(); // partial abort
    assert_eq!(t.read(0).unwrap(), 10, "the parent's own write is restored");
    t.write(2, 30).unwrap(); // the parent continues productively
    Box::new(t).commit().unwrap();
    let ((a, b, c), _) = run_tx(&stm, 0, |tx| Ok((tx.read(0)?, tx.read(1)?, tx.read(2)?)));
    assert_eq!((a, b, c), (10, 0, 30), "no child effect may survive");
    assert!(flat_opaque(&stm));
}

#[test]
fn aborted_child_read_of_parent_buffer_is_legal_via_the_splice() {
    // The child reads the parent's uncommitted write and aborts. In the
    // flat history that read is only legal because flatten prefixes the
    // child with the parent's preceding operations — exactly the paper's
    // "together with all the preceding operations of its parent".
    let stm = AstmStm::new(2);
    let mut t = stm.begin_astm(0);
    t.write(0, 7).unwrap();
    t.begin_nested();
    assert_eq!(t.read(0).unwrap(), 7);
    t.abort_nested();
    Box::new(t).commit().unwrap();
    assert!(flat_opaque(&stm));
    // Without the splice the child would be judged against the committed
    // state (0) and the flat history would be rejected; verify the child
    // transaction exists as aborted in the flattened view.
    let flat = flatten(&stm.recorder().history(), &stm.nesting_info());
    assert!(
        flat.txs().iter().any(|&t| flat.status(t).is_aborted()),
        "the aborted child survives flattening under its own id: {flat}"
    );
}

#[test]
fn child_reads_do_not_constrain_the_parent_after_child_abort() {
    // The child reads r1; a concurrent writer then commits to r1; the
    // child aborts. The parent never read r1 itself, so it must still
    // commit — the child's footprint died with it.
    let stm = AstmStm::new(2);
    let mut t = stm.begin_astm(0);
    t.write(0, 5).unwrap();
    t.begin_nested();
    assert_eq!(t.read(1).unwrap(), 0);
    t.abort_nested();
    run_tx(&stm, 1, |tx| tx.write(1, 77)); // invalidates the child's read
    Box::new(t)
        .commit()
        .expect("parent unaffected by the dead child's reads");
    assert!(flat_opaque(&stm));
}

#[test]
fn forced_abort_inside_child_kills_parent_and_child() {
    // Timing subtlety, worth its own documentation: the model has no
    // "begin" event, so a nested child's span starts at its first
    // *operation*. The child must perform an operation before the
    // conflicting writer commits — otherwise the flat model (rightly)
    // places the whole child after the writer, and the spliced parent
    // context would be judged against the post-writer state. The child's
    // read of r1 below both pins its span and seeds the validation that
    // later kills it.
    let stm = AstmStm::new(2);
    let mut t = stm.begin_astm(0);
    assert_eq!(t.read(0).unwrap(), 0); // parent read, to be invalidated
    t.begin_nested();
    assert_eq!(t.read(1).unwrap(), 0); // child op: pins the child's span
    run_tx(&stm, 1, |tx| tx.write(0, 9)); // concurrent conflicting commit
                                          // The child's next read triggers whole-read-set validation → abort
                                          // (the parent's r0 entry is stale), answering the child's invocation
                                          // with A and aborting the parent too.
    assert!(t.read(1).is_err(), "stale parent read must abort");
    drop(t);
    let h = stm.recorder().history();
    let flat = flatten(&h, &stm.nesting_info());
    assert!(opacity_tm::model::is_well_formed(&flat), "{flat}");
    assert!(is_opaque(&flat, &specs()).unwrap().opaque, "{flat}");
    // Everyone except the writer is aborted.
    let committed = flat
        .txs()
        .iter()
        .filter(|&&t| flat.status(t).is_committed())
        .count();
    assert_eq!(committed, 1);
}

#[test]
fn nested_histories_from_many_runs_stay_opaque() {
    // A small battery mixing commits, child aborts, and plain transactions.
    let stm = AstmStm::new(3);
    for round in 0..5i64 {
        let mut t = stm.begin_astm(0);
        if t.write(0, 100 + round).is_ok() {
            t.begin_nested();
            let keep = t.read(1).map(|v| v % 2 == 0).unwrap_or(false);
            if t.write(1, 200 + round).is_err() {
                drop(t);
                continue;
            }
            if keep {
                t.commit_nested();
            } else {
                t.abort_nested();
            }
            let _ = Box::new(t).commit();
        }
        run_tx(&stm, 1, |tx| {
            let v = tx.read(2)?;
            tx.write(2, v + 1)
        });
    }
    assert!(flat_opaque(&stm));
}

#[test]
#[should_panic(expected = "one level deep")]
fn deep_nesting_is_rejected() {
    let stm = AstmStm::new(1);
    let mut t = stm.begin_astm(0);
    t.begin_nested();
    t.begin_nested();
}

#[test]
fn open_scope_at_commit_is_aborted_conservatively() {
    let stm = AstmStm::new(2);
    let mut t = stm.begin_astm(0);
    t.write(0, 1).unwrap();
    t.begin_nested();
    t.write(1, 99).unwrap();
    // Committing with the scope still open: the child is aborted first.
    Box::new(t).commit().unwrap();
    let ((a, b), _) = run_tx(&stm, 0, |tx| Ok((tx.read(0)?, tx.read(1)?)));
    assert_eq!((a, b), (1, 0), "the unterminated child's write must vanish");
    assert!(flat_opaque(&stm));
}

#[test]
fn nesting_info_reflects_all_scopes() {
    let stm = AstmStm::new(1);
    let mut t = stm.begin_astm(0);
    t.begin_nested();
    t.commit_nested();
    t.begin_nested();
    t.abort_nested();
    Box::new(t).commit().unwrap();
    let info = stm.nesting_info();
    let h = stm.recorder().history();
    let nested_txs: Vec<TxId> = h
        .txs()
        .into_iter()
        .filter(|&t| info.parent_of(t).is_some())
        .collect();
    assert_eq!(nested_txs.len(), 2, "both children registered");
}
