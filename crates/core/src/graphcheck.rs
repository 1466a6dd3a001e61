//! Deciding opacity via Theorem 2.
//!
//! Theorem 2: a register history `H` (unique writes, initializing committed
//! `T0`) is opaque iff (1) `H` is consistent and (2) there exist a total
//! order `≪` on its transactions and a set `V` of commit-pending
//! transactions such that `OPG(nonlocal(H), ≪, V)` is well-formed and
//! acyclic.
//!
//! Two entry points:
//!
//! * [`construct_graph_witness`] — for an opaque history, *constructs* a
//!   `(≪, V)` pair and verifies Theorem 2's conditions on it. This is the
//!   cheap "⇒" direction used to double-check every positive verdict of
//!   the definitional checker.
//! * [`decide_via_graph`] — the full existential search over `(≪, V)`
//!   (permutations × subsets). Exponential, intended for the Theorem-2
//!   cross-validation suite on small histories; it is an *independent*
//!   decision procedure sharing no code with the definitional search.
//!
//! ### Why the construction always succeeds on opaque histories
//!
//! The `≪` used is a Definition-1 serialization order of `H · T0`, and the
//! OPG's rule-1 edges come from `≺_H` of the full history (see
//! [`build_opg`]'s documentation for why *not* from `nonlocal(H)`'s
//! real-time order). Every edge then provably points forward in `≪`:
//! rt edges because the witness preserves `≺_H`; rf edges because, under
//! unique writes, a legal reader must be serialized after the (committed or
//! visible) writer of the value it read; rw edges by construction; and ww
//! edges because a visible intermediate writer between `Tk` and a reader of
//! `Tk`'s value would make that read illegal. Hence the OPG is acyclic and
//! well-formed whenever a Definition-1 witness exists.

use std::collections::HashSet;

use crate::graph::{
    build_opg, check_graph_preconditions, is_consistent, with_initial_tx, GraphError,
};
use crate::search::Placement;
use tm_model::{History, SpecRegistry, TxId};

/// A `(≪, V)` pair that makes the OPG well-formed and acyclic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphWitness {
    /// The total order `≪` (including the synthetic `T0`).
    pub order: Vec<TxId>,
    /// The visible commit-pending set `V`.
    pub visible: HashSet<TxId>,
}

/// The verdict of the Theorem-2 decision procedure.
#[derive(Clone, Debug)]
pub struct GraphVerdict {
    /// Is the history consistent (precondition (1) of Theorem 2)?
    pub consistent: bool,
    /// A witness if one exists.
    pub witness: Option<GraphWitness>,
    /// Number of `(≪, V)` candidates examined.
    pub candidates_checked: usize,
}

impl GraphVerdict {
    /// Theorem 2's "opaque" verdict.
    pub fn opaque(&self) -> bool {
        self.consistent && self.witness.is_some()
    }
}

/// Prepares `h` for the graph machinery: checks preconditions and prepends
/// the initializing transaction.
fn prepare(h: &History, specs: &SpecRegistry) -> Result<History, GraphError> {
    let h0 = with_initial_tx(h, specs);
    check_graph_preconditions(&h0)?;
    Ok(h0)
}

/// Constructs a Theorem-2 witness for an opaque history: serializes
/// `H · T0-prefix` with the definitional engine, converts the serialization
/// order into `≪` and the committed placements of commit-pending
/// transactions into `V`, then verifies that the OPG is well-formed and
/// acyclic.
///
/// Returns `Ok(None)` when no witness exists (the history is inconsistent
/// or not opaque) — so `construct_graph_witness(h).is_some()` agrees with
/// opacity on histories meeting the Section 5.4 preconditions.
pub fn construct_graph_witness(
    h: &History,
    specs: &SpecRegistry,
) -> Result<Option<GraphWitness>, GraphError> {
    let h0 = prepare(h, specs)?;
    if !is_consistent(&h0) {
        return Ok(None);
    }
    let report = crate::opacity::is_opaque(&h0, specs).map_err(GraphError::Search)?;
    let Some(w) = report.witness else {
        return Ok(None);
    };
    let order: Vec<TxId> = w.order.iter().map(|(t, _)| *t).collect();
    let visible: HashSet<TxId> = w
        .order
        .iter()
        .filter(|(t, p)| *p == Placement::Committed && h0.status(*t).is_commit_pending())
        .map(|(t, _)| *t)
        .collect();
    let g = build_opg(&h0, &order, &visible);
    if g.is_well_formed() && g.is_acyclic() {
        Ok(Some(GraphWitness { order, visible }))
    } else {
        Ok(None)
    }
}

/// Decides opacity of `h` purely through Theorem 2, by exhaustive search
/// over total orders `≪` and visible sets `V`.
///
/// Cost is `O(n! · 2^p)` graph constructions; the function refuses histories
/// with more than `max_txs` transactions (default use: cross-validation on
/// randomly generated histories with ≤ 6 transactions).
pub fn decide_via_graph(
    h: &History,
    specs: &SpecRegistry,
    max_txs: usize,
) -> Result<GraphVerdict, GraphError> {
    let h0 = prepare(h, specs)?;
    let consistent = is_consistent(&h0);
    if !consistent {
        return Ok(GraphVerdict {
            consistent,
            witness: None,
            candidates_checked: 0,
        });
    }
    let txs = h0.txs();
    assert!(
        txs.len() <= max_txs + 1, // +1 for T0
        "decide_via_graph: {} transactions exceed limit {max_txs}",
        txs.len() - 1
    );
    let commit_pending = h0.commit_pending_txs();
    let mut candidates_checked = 0usize;

    // Enumerate V ⊆ commit-pending, then permutations of the transactions.
    let p = commit_pending.len();
    for mask in 0u32..(1u32 << p) {
        let visible: HashSet<TxId> = commit_pending
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, t)| *t)
            .collect();
        let mut perm = txs.clone();
        let found = heaps_search(&mut perm, &mut |order: &[TxId]| {
            candidates_checked += 1;
            let g = build_opg(&h0, order, &visible);
            g.is_well_formed() && g.is_acyclic()
        });
        if let Some(order) = found {
            return Ok(GraphVerdict {
                consistent,
                witness: Some(GraphWitness { order, visible }),
                candidates_checked,
            });
        }
    }
    Ok(GraphVerdict {
        consistent,
        witness: None,
        candidates_checked,
    })
}

/// Heap's algorithm with early exit; returns the first permutation accepted
/// by `accept`.
fn heaps_search<F: FnMut(&[TxId]) -> bool>(
    items: &mut Vec<TxId>,
    accept: &mut F,
) -> Option<Vec<TxId>> {
    fn rec<F: FnMut(&[TxId]) -> bool>(
        k: usize,
        items: &mut Vec<TxId>,
        accept: &mut F,
    ) -> Option<Vec<TxId>> {
        if k <= 1 {
            return accept(items).then(|| items.clone());
        }
        for i in 0..k {
            if let Some(found) = rec(k - 1, items, accept) {
                return Some(found);
            }
            if k % 2 == 0 {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
        None
    }
    let n = items.len();
    if n == 0 {
        return accept(items).then(|| items.clone());
    }
    rec(n, items, accept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::INIT_TX;
    use crate::opacity::is_opaque;
    use tm_model::builder::{paper, HistoryBuilder};

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    #[test]
    fn theorem2_agrees_on_paper_histories() {
        for (h, expect) in [
            (paper::h1(), false),
            (paper::h3(), true),
            (paper::h4(), true),
            (paper::h5(), true),
        ] {
            let definitional = is_opaque(&h, &regs()).unwrap().opaque;
            assert_eq!(definitional, expect, "definitional on {h}");
            let graph = decide_via_graph(&h, &regs(), 8).unwrap();
            assert_eq!(graph.opaque(), expect, "graph on {h}");
        }
    }

    #[test]
    fn construction_of_graph_witnesses() {
        for h in [paper::h3(), paper::h4(), paper::h5()] {
            assert!(is_opaque(&h, &regs()).unwrap().opaque);
            let w = construct_graph_witness(&h, &regs()).unwrap();
            assert!(w.is_some(), "{h}");
        }
        // Non-opaque history: no witness is constructible.
        assert!(construct_graph_witness(&paper::h1(), &regs())
            .unwrap()
            .is_none());
    }

    #[test]
    fn h4_requires_t2_visible() {
        // T3 reads commit-pending T2's write: every graph witness must put
        // T2 in V.
        let v = decide_via_graph(&paper::h4(), &regs(), 8).unwrap();
        let w = v.witness.expect("H4 opaque");
        assert!(w.visible.contains(&TxId(2)));
    }

    #[test]
    fn inconsistent_history_rejected_without_search() {
        // A read of a never-written value is inconsistent: Theorem 2 fails
        // its first condition and no candidates are examined.
        let h = HistoryBuilder::new().read(1, "x", 99).commit_ok(1).build();
        let v = decide_via_graph(&h, &regs(), 8).unwrap();
        assert!(!v.consistent);
        assert!(!v.opaque());
        assert_eq!(v.candidates_checked, 0);
        assert!(!is_opaque(&h, &regs()).unwrap().opaque);
    }

    #[test]
    fn graph_witness_order_contains_t0_first_sometimes() {
        let v = decide_via_graph(&paper::h5(), &regs(), 8).unwrap();
        let w = v.witness.unwrap();
        assert!(w.order.contains(&INIT_TX));
        assert_eq!(w.order.len(), 4);
    }

    #[test]
    fn counter_history_is_unsupported() {
        let h = HistoryBuilder::new().inc(1, "c").commit_ok(1).build();
        assert!(matches!(
            decide_via_graph(&h, &regs(), 8),
            Err(GraphError::NonRegisterOperation(_))
        ));
    }
}
