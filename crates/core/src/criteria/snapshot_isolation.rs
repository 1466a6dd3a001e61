//! Snapshot isolation as a history-level criterion.
//!
//! Section 1 lists "a version of SI-STM \[26\]" among the TM implementations
//! that knowingly trade opacity for performance, and suggests opacity "can
//! also be used as a reference point for expressing the semantics of such TM
//! implementations and deriving other, possibly weaker, correctness
//! criteria". This module is one such derived criterion, executable: it is
//! what the SI-STM implementation in `tm-stm` actually guarantees, and it
//! slots strictly between "nothing" and opacity in the lattice —
//!
//! * **weaker than opacity**: a write-skew history is snapshot-isolated but
//!   not opaque (not even serializable over its committed transactions);
//! * **incomparable with plain serializability**: serializability says
//!   nothing about live/aborted transactions (the Figure-1 history H1 is
//!   serializable but *not* snapshot-isolated — T2's two reads cannot come
//!   from one committed snapshot), while write skew is snapshot-isolated but
//!   not serializable.
//!
//! # The formalization
//!
//! Following Berenson et al. (the paper's reference \[1\]), restricted to
//! read/write registers and lifted to *all* transactions of a history (live
//! and aborted included, in the same spirit as Definition 1):
//!
//! A history `H` is snapshot-isolated if there is a total order `≪` on the
//! committed transactions of `H` extending the real-time order, and, for
//! every transaction `T` in `H`, a *snapshot point* — a prefix `P_T` of `≪`
//! containing every committed transaction that completed before `T` began
//! and nothing that started after `T` completed — such that:
//!
//! 1. **snapshot reads**: every non-local read of `T` returns the value of
//!    the last write to that register by `P_T` (or the initial value), and
//! 2. **first-committer-wins**: if `T` is committed at position `i` of `≪`,
//!    the write set of `T` is disjoint from the write set of every
//!    committed transaction ordered in `≪` after `P_T` and before `T`.
//!
//! Local reads (preceded by the transaction's own write to the register)
//! must return the own written value, as everywhere else in the model.
//!
//! The decision procedure enumerates the orders `≪` (real-time pruned) and,
//! per transaction, the feasible snapshot prefixes — the latter check is
//! per-transaction independent, so the cost is `O(orders × n²)` past the
//! permutation enumeration, fine at the history sizes the test-suite and
//! generator use (the same regime as the Definition-1 checker).

use std::collections::HashMap;

use crate::search::CheckError;
use tm_model::{History, ObjId, OpName, RealTimeOrder, SpecRegistry, TxId, Value};

/// Per-transaction register footprint used by the SI decision procedure.
#[derive(Clone, Debug, Default)]
struct Footprint {
    /// Non-local reads in program order: `(register, returned value)`.
    snapshot_reads: Vec<(ObjId, Value)>,
    /// Local reads: `(register, returned value, last own write before it)`.
    local_reads: Vec<(ObjId, Value, Value)>,
    /// Registers written, with the final written value (unused by the
    /// checks below beyond membership, kept for diagnostics).
    writes: HashMap<ObjId, Value>,
}

/// The verdict of [`is_snapshot_isolated`], with a witness on success.
#[derive(Clone, Debug)]
pub struct SiReport {
    /// Does the history satisfy snapshot isolation?
    pub snapshot_isolated: bool,
    /// On success: the witness commit order `≪`.
    pub commit_order: Option<Vec<TxId>>,
    /// On success: per-transaction snapshot points, as the number of
    /// committed transactions (prefix length of `≪`) visible to each
    /// transaction.
    pub snapshot_points: Option<HashMap<TxId, usize>>,
}

/// Decides snapshot isolation for a register-only history.
///
/// Non-register operations yield [`CheckError::NoSpec`] — snapshot isolation
/// (like the Section 5.4 graph characterization) is defined here over
/// read/write registers.
///
/// ```
/// use tm_model::{HistoryBuilder, SpecRegistry};
/// use tm_opacity::criteria::{is_snapshot_isolated, is_serializable};
///
/// // The canonical write skew: both transactions read the initial
/// // snapshot, write disjoint registers, and commit.
/// let h = HistoryBuilder::new()
///     .read(1, "x", 0).read(1, "y", 0)
///     .read(2, "x", 0).read(2, "y", 0)
///     .write(1, "x", -1).write(2, "y", -1)
///     .commit_ok(1).commit_ok(2)
///     .build();
/// let specs = SpecRegistry::registers();
/// assert!(is_snapshot_isolated(&h, &specs).unwrap().snapshot_isolated);
/// assert!(!is_serializable(&h, &specs).unwrap());
/// ```
pub fn is_snapshot_isolated(h: &History, specs: &SpecRegistry) -> Result<SiReport, CheckError> {
    check_snapshot_isolated(h, specs)
}

/// Convenience wrapper returning just the boolean verdict.
pub fn snapshot_isolated(h: &History, specs: &SpecRegistry) -> Result<bool, CheckError> {
    Ok(check_snapshot_isolated(h, specs)?.snapshot_isolated)
}

fn check_snapshot_isolated(h: &History, specs: &SpecRegistry) -> Result<SiReport, CheckError> {
    is_well_formed_checked(h)?;
    let footprints = collect_footprints(h)?;
    // Local reads are checked unconditionally: they are independent of the
    // order and snapshot choices.
    for fp in footprints.values() {
        for (_, returned, own) in &fp.local_reads {
            if returned != own {
                return Ok(SiReport {
                    snapshot_isolated: false,
                    commit_order: None,
                    snapshot_points: None,
                });
            }
        }
    }

    let rt = RealTimeOrder::of(h);
    let committed = h.committed_txs();
    let pending = h.commit_pending_txs();

    // Commit-pending transactions carry the dual semantics of Section 5.2:
    // each may appear committed or aborted. Enumerate the subsets treated
    // as committed, exactly as the graph decider enumerates its set V.
    for mask in 0..(1u32 << pending.len().min(20)) {
        let mut all_committed = committed.clone();
        for (i, &t) in pending.iter().enumerate() {
            if mask & (1 << i) != 0 {
                all_committed.push(t);
            }
        }
        let n = all_committed.len();
        // Enumerate total orders of committed transactions extending ≺_H.
        let mut order: Vec<TxId> = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let mut found: Option<(Vec<TxId>, HashMap<TxId, usize>)> = None;
        enumerate_orders(
            h,
            specs,
            &rt,
            &all_committed,
            &footprints,
            &mut order,
            &mut used,
            &mut found,
        );
        if let Some((order, points)) = found {
            return Ok(SiReport {
                snapshot_isolated: true,
                commit_order: Some(order),
                snapshot_points: Some(points),
            });
        }
    }
    Ok(SiReport {
        snapshot_isolated: false,
        commit_order: None,
        snapshot_points: None,
    })
}

fn is_well_formed_checked(h: &History) -> Result<(), CheckError> {
    tm_model::check_well_formed(h).map_err(CheckError::NotWellFormed)
}

/// Extracts per-transaction footprints; errors on non-register operations.
fn collect_footprints(h: &History) -> Result<HashMap<TxId, Footprint>, CheckError> {
    let mut out: HashMap<TxId, Footprint> = HashMap::new();
    for t in h.txs() {
        let view = h.tx_view(t);
        let fp = out.entry(t).or_default();
        for op in &view.ops {
            match op.op {
                OpName::Read => {
                    let v = op.val.clone();
                    match fp.writes.get(&op.obj) {
                        Some(own) => fp.local_reads.push((op.obj.clone(), v, own.clone())),
                        None => fp.snapshot_reads.push((op.obj.clone(), v)),
                    }
                }
                OpName::Write => {
                    let v = op.args.first().cloned().unwrap_or(Value::Unit);
                    fp.writes.insert(op.obj.clone(), v);
                }
                ref other => {
                    return Err(CheckError::NoSpec(format!(
                        "snapshot isolation is register-only; found operation {other}"
                    )))
                }
            }
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_orders(
    h: &History,
    specs: &SpecRegistry,
    rt: &RealTimeOrder,
    committed: &[TxId],
    footprints: &HashMap<TxId, Footprint>,
    order: &mut Vec<TxId>,
    used: &mut [bool],
    found: &mut Option<(Vec<TxId>, HashMap<TxId, usize>)>,
) {
    if found.is_some() {
        return;
    }
    if order.len() == committed.len() {
        if let Some(points) = check_order(h, specs, rt, footprints, order) {
            *found = Some((order.clone(), points));
        }
        return;
    }
    'candidates: for (i, &t) in committed.iter().enumerate() {
        if used[i] {
            continue;
        }
        // Real-time pruning: every committed predecessor must be placed.
        for (j, &u) in committed.iter().enumerate() {
            if !used[j] && i != j && rt.precedes(u, t) {
                continue 'candidates;
            }
        }
        used[i] = true;
        order.push(t);
        enumerate_orders(h, specs, rt, committed, footprints, order, used, found);
        order.pop();
        used[i] = false;
        if found.is_some() {
            return;
        }
    }
}

/// Given a committed order, finds a feasible snapshot point for every
/// transaction of `h` (committed or not), or `None`.
fn check_order(
    h: &History,
    specs: &SpecRegistry,
    rt: &RealTimeOrder,
    footprints: &HashMap<TxId, Footprint>,
    order: &[TxId],
) -> Option<HashMap<TxId, usize>> {
    let pos: HashMap<TxId, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    // Snapshot states after each prefix of the order: states[p] maps
    // register -> value after the first p committed transactions.
    let mut states: Vec<HashMap<ObjId, Value>> = Vec::with_capacity(order.len() + 1);
    let mut snapshot: HashMap<ObjId, Value> = HashMap::new();
    states.push(snapshot.clone());
    for &t in order {
        if let Some(fp) = footprints.get(&t) {
            for (obj, v) in &fp.writes {
                snapshot.insert(obj.clone(), v.clone());
            }
        }
        states.push(snapshot.clone());
    }

    let mut points = HashMap::new();
    for t in h.txs() {
        let fp = footprints.get(&t).cloned().unwrap_or_default();
        // Feasible snapshot-point range from the real-time order:
        // everything that completed before T began must be visible…
        let mut lo = 0usize;
        for (&u, &pu) in &pos {
            if u != t && rt.precedes(u, t) {
                lo = lo.max(pu + 1);
            }
        }
        // …and nothing that began after T completed may be visible.
        let mut hi = order.len();
        for (&u, &pu) in &pos {
            if u != t && rt.precedes(t, u) {
                hi = hi.min(pu);
            }
        }
        // A committed transaction cannot see its own or later commits.
        if let Some(&pt) = pos.get(&t) {
            hi = hi.min(pt);
        }
        let mut chosen = None;
        'points: for p in lo..=hi {
            // 1. snapshot reads
            for (obj, v) in &fp.snapshot_reads {
                let expected = states[p]
                    .get(obj)
                    .cloned()
                    .unwrap_or_else(|| specs.initial_of(obj).unwrap_or(Value::int(0)));
                if *v != expected {
                    continue 'points;
                }
            }
            // 2. first-committer-wins for committed transactions
            if let Some(&pt) = pos.get(&t) {
                for &u in &order[p..pt] {
                    if u == t {
                        continue;
                    }
                    let other = footprints.get(&u).cloned().unwrap_or_default();
                    if fp.writes.keys().any(|o| other.writes.contains_key(o)) {
                        continue 'points;
                    }
                }
            }
            chosen = Some(p);
            break;
        }
        points.insert(t, chosen?);
    }
    Some(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::builder::{paper, HistoryBuilder};

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    fn si(h: &History) -> bool {
        snapshot_isolated(h, &regs()).unwrap()
    }

    #[test]
    fn empty_and_sequential_histories_are_si() {
        assert!(si(&History::new()));
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .write(2, "y", 2)
            .commit_ok(2)
            .build();
        assert!(si(&h));
    }

    #[test]
    fn write_skew_is_si_but_not_serializable() {
        // T1 reads x,y then writes x := -1; T2 reads x,y then writes
        // y := -1; both commit. Disjoint write sets, common snapshot.
        let h = HistoryBuilder::new()
            .read(1, "x", 0)
            .read(1, "y", 0)
            .read(2, "x", 0)
            .read(2, "y", 0)
            .write(1, "x", -1)
            .write(2, "y", -1)
            .commit_ok(1)
            .commit_ok(2)
            .build();
        assert!(si(&h), "write skew must satisfy SI");
        assert!(
            !super::super::is_serializable(&h, &regs()).unwrap(),
            "write skew must not be serializable"
        );
        assert!(!crate::opacity::is_opaque(&h, &regs()).unwrap().opaque);
    }

    #[test]
    fn lost_update_is_not_si() {
        // Both read x=0 and write x — overlapping write sets with a common
        // snapshot: first-committer-wins forbids the second commit.
        let h = HistoryBuilder::new()
            .read(1, "x", 0)
            .read(2, "x", 0)
            .write(1, "x", 1)
            .write(2, "x", 2)
            .commit_ok(1)
            .commit_ok(2)
            .build();
        assert!(!si(&h));
    }

    #[test]
    fn h1_is_serializable_but_not_si() {
        // Figure 1: aborted T2 reads x=1 (pre-T3) and y=2 (post-T3) —
        // no single committed snapshot provides that view.
        let h = paper::h1();
        assert!(super::super::is_serializable(&h, &regs()).unwrap());
        assert!(!si(&h), "H1's fractured read must violate SI");
    }

    #[test]
    fn h5_is_si() {
        // Figure 2 is opaque, and opacity implies SI on this history: the
        // witness order T2 ≪ T3 serves, with T1 reading T2's snapshot.
        assert!(si(&paper::h5()));
    }

    #[test]
    fn live_transaction_with_fractured_view_violates_si() {
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .write(1, "y", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .read(2, "y", 0) // mixes the initial snapshot with T1's
            .build();
        assert!(!si(&h));
    }

    #[test]
    fn local_reads_must_see_own_writes() {
        let h = HistoryBuilder::new()
            .write(1, "x", 5)
            .read(1, "x", 0) // must be 5
            .commit_ok(1)
            .build();
        assert!(!si(&h));
    }

    #[test]
    fn real_time_order_binds_snapshots() {
        // T1 commits x=1 strictly before T2 begins; T2 reading the initial
        // value is a stale (disallowed) snapshot.
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 0)
            .commit_ok(2)
            .build();
        assert!(!si(&h));
    }

    #[test]
    fn concurrent_reader_may_use_old_snapshot() {
        // The reader overlaps the writer: the pre-commit snapshot is fair
        // game (multi-version freedom, as in history H4).
        let h = HistoryBuilder::new()
            .read(1, "x", 0)
            .write(2, "x", 5)
            .write(2, "y", 5)
            .commit_ok(2)
            .read(1, "y", 0)
            .commit_ok(1)
            .build();
        assert!(si(&h));
    }

    #[test]
    fn commit_pending_writer_visible_or_not() {
        // H4 (Section 5.2): T3 sees commit-pending T2's write, T1 does not
        // — both readers still have *consistent single snapshots*, so SI
        // holds (as does opacity).
        assert!(si(&paper::h4()));
    }

    #[test]
    fn snapshot_points_witness_is_reported() {
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .commit_ok(2)
            .build();
        let r = is_snapshot_isolated(&h, &regs()).unwrap();
        assert!(r.snapshot_isolated);
        let order = r.commit_order.unwrap();
        assert_eq!(order.len(), 2);
        let points = r.snapshot_points.unwrap();
        // T2's snapshot must include T1.
        assert_eq!(points[&TxId(2)], 1);
    }

    #[test]
    fn non_register_operations_are_rejected() {
        let h = HistoryBuilder::new().inc(1, "c").commit_ok(1).build();
        assert!(matches!(
            snapshot_isolated(&h, &regs()),
            Err(CheckError::NoSpec(_))
        ));
    }

    #[test]
    fn opaque_histories_in_the_suite_are_si() {
        // Spot-check the implication opacity ⇒ SI on the paper histories.
        for h in [paper::h2(), paper::h4(), paper::h5()] {
            if crate::opacity::is_opaque(&h, &regs()).unwrap().opaque {
                assert!(si(&h), "opacity must imply SI on {h}");
            }
        }
    }
}
