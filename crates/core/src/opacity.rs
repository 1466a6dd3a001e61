//! Opacity — Definition 1 of the paper, as an executable checker.
//!
//! A history `H` is **opaque** iff there exists a sequential history `S`
//! equivalent to some history in `Complete(H)`, such that (1) `S` preserves
//! the real-time order of `H`, and (2) every transaction `Ti ∈ S` is legal
//! in `S`.
//!
//! The checker runs the memoized serialization search of [`crate::search`]
//! in [`SearchMode::OPACITY`]: every transaction of `H` must be placed, the
//! placement order must respect `≺_H`, commit-pending transactions may be
//! placed as committed or aborted (choosing the member of `Complete(H)`),
//! and each placed transaction must replay legally against the committed
//! prefix.

use crate::search::{
    search, CheckError, CheckSession, Placement, SearchConfig, SearchMode, SearchOutcome, Witness,
};
use tm_model::{History, SpecRegistry};

/// The verdict of an opacity check.
#[derive(Clone, Debug)]
pub struct OpacityReport {
    /// Is the history opaque?
    pub opaque: bool,
    /// A serialization witness when opaque: the order of the equivalent
    /// sequential history `S` and the commit decisions for commit-pending
    /// transactions.
    pub witness: Option<Witness>,
    /// Search statistics.
    pub stats: crate::search::SearchStats,
}

impl OpacityReport {
    fn from_outcome(out: SearchOutcome) -> Self {
        OpacityReport {
            opaque: out.witness.is_some(),
            witness: out.witness,
            stats: out.stats,
        }
    }

    /// Renders the witness as the paper renders its examples:
    /// `S = H|T2 · H|T1 · H|T3` with placement annotations.
    pub fn describe_witness(&self) -> String {
        match &self.witness {
            None => "no witness: history is not opaque".to_string(),
            Some(w) => {
                let parts: Vec<String> = w
                    .order
                    .iter()
                    .map(|(t, p)| {
                        let ann = match p {
                            Placement::Committed => "committed",
                            Placement::Aborted => "aborted",
                        };
                        format!("H|{t} ({ann})")
                    })
                    .collect();
                format!("S = {}", parts.join(" · "))
            }
        }
    }
}

/// Checks whether `h` is opaque (Definition 1).
pub fn is_opaque(h: &History, specs: &SpecRegistry) -> Result<OpacityReport, CheckError> {
    Ok(OpacityReport::from_outcome(search(
        h,
        specs,
        SearchMode::OPACITY,
    )?))
}

/// [`is_opaque`] with an explicit search configuration (for bounding work
/// or memo size on adversarial inputs).
pub fn is_opaque_with(
    h: &History,
    specs: &SpecRegistry,
    config: SearchConfig,
) -> Result<OpacityReport, CheckError> {
    let out = CheckSession::new(specs, SearchMode::OPACITY, config).check_history(h)?;
    Ok(OpacityReport::from_outcome(out))
}

/// Materializes the sequential history `S` described by a witness: the
/// concatenation `H|T_{σ(1)} · H|T_{σ(2)} · …` with the completion events
/// dictated by the placements appended to each live transaction.
///
/// The result is sequential, equivalent to a member of `Complete(H)`,
/// preserves `≺_H` (by construction of the witness), and has every
/// transaction legal — it is the object whose existence Definition 1
/// asserts. Used by tests to validate the checker against the model crate's
/// independent legality machinery.
pub fn witness_history(h: &History, witness: &Witness) -> History {
    use tm_model::complete::{apply_completion, CommitDecision, Completion};

    // First complete H according to the witness decisions, then reorder
    // per-transaction blocks.
    let decisions = witness
        .order
        .iter()
        .filter(|(t, _)| h.status(*t).is_commit_pending())
        .map(|(t, p)| {
            let d = match p {
                Placement::Committed => CommitDecision::Commit,
                Placement::Aborted => CommitDecision::Abort,
            };
            (*t, d)
        })
        .collect();
    let completed = apply_completion(h, &Completion { decisions });
    let mut out = History::new();
    for (t, _) in &witness.order {
        for e in completed.per_tx(*t).events() {
            out.push(e.clone());
        }
    }
    // Defensive: any transaction of H missing from the witness (cannot
    // happen for witnesses produced by the search) is appended at the end.
    for t in completed.txs() {
        if witness.placement_of(t).is_none() {
            for e in completed.per_tx(t).events() {
                out.push(e.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::builder::{paper, HistoryBuilder};
    use tm_model::{all_txs_legal, preserves_real_time, TxId, TxStatus};

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    #[test]
    fn h1_is_not_opaque() {
        // The paper's Figure 1 history: global atomicity + recoverability
        // hold, yet T2 observes an inconsistent state.
        let r = is_opaque(&paper::h1(), &regs()).unwrap();
        assert!(!r.opaque);
        assert!(r.witness.is_none());
        assert!(r.describe_witness().contains("not opaque"));
    }

    #[test]
    fn h3_is_opaque() {
        let r = is_opaque(&paper::h3(), &regs()).unwrap();
        assert!(r.opaque);
    }

    #[test]
    fn h4_is_opaque() {
        // Section 5.2: T3 sees commit-pending T2's write, T1 does not.
        let r = is_opaque(&paper::h4(), &regs()).unwrap();
        assert!(r.opaque, "H4 must be opaque");
    }

    #[test]
    fn h4_strengthened_is_not_opaque() {
        // The paper: "if T1 read value 5 from y, then opacity would be
        // violated, because T1 would observe an inconsistent state
        // (x = 0 and y = 5)".
        let h = HistoryBuilder::new()
            .read(1, "x", 0)
            .write(2, "x", 5)
            .write(2, "y", 5)
            .try_commit(2)
            .read(3, "y", 5)
            .read(1, "y", 5)
            .build();
        let r = is_opaque(&h, &regs()).unwrap();
        assert!(!r.opaque);
    }

    #[test]
    fn h5_is_opaque_with_paper_witness() {
        let h = paper::h5();
        let r = is_opaque(&h, &regs()).unwrap();
        assert!(r.opaque);
        assert!(r.describe_witness().starts_with("S = "));
        let w = r.witness.unwrap();
        assert_eq!(w.tx_order(), vec![TxId(2), TxId(1), TxId(3)]);
    }

    #[test]
    fn witness_history_is_a_definition1_witness() {
        // Validate the checker's output against the model crate's
        // independent machinery for every opaque paper history.
        for h in [paper::h3(), paper::h4(), paper::h5()] {
            let r = is_opaque(&h, &regs()).unwrap();
            let w = r.witness.expect("opaque");
            let s = witness_history(&h, &w);
            assert!(s.is_sequential(), "{s}");
            assert!(s.is_complete(), "{s}");
            assert!(preserves_real_time(&h, &s), "{s}");
            assert!(all_txs_legal(&s, &regs()).is_ok(), "{s}");
            // Equivalence to a member of Complete(H): per-tx event sequences
            // must extend H's by at most completion events.
            for t in h.txs() {
                let orig = h.per_tx(t);
                let news = s.per_tx(t);
                assert!(news.len() >= orig.len());
                assert_eq!(&news.events()[..orig.len()], orig.events());
            }
        }
    }

    #[test]
    fn read_your_own_aborted_write_is_opaque() {
        // A transaction must see its own writes even if it later aborts.
        let h = HistoryBuilder::new()
            .write(1, "x", 3)
            .read(1, "x", 3)
            .try_abort(1)
            .abort(1)
            .build();
        assert!(is_opaque(&h, &regs()).unwrap().opaque);
    }

    #[test]
    fn dirty_read_is_not_opaque() {
        // T2 reads T1's not-yet-committed (and never-committed) write.
        let h = HistoryBuilder::new()
            .write(1, "x", 7)
            .read(2, "x", 7)
            .try_commit(2)
            .commit(2)
            .try_abort(1)
            .abort(1)
            .build();
        assert!(!is_opaque(&h, &regs()).unwrap().opaque);
    }

    #[test]
    fn read_from_commit_pending_forces_commit_placement() {
        // H3-like: T2 reads T1's write while T1 is commit-pending. Opaque
        // only by placing T1 as committed.
        let h = paper::h3();
        let r = is_opaque(&h, &regs()).unwrap();
        let w = r.witness.unwrap();
        assert_eq!(w.placement_of(TxId(1)), Some(Placement::Committed));
        assert_eq!(h.status(TxId(1)), TxStatus::CommitPending);
    }

    #[test]
    fn nonserializable_committed_reads_not_opaque() {
        // Classic write-skew-ish: T1 and T2 each read both registers and
        // observe each other's writes in incompatible orders.
        let h = HistoryBuilder::new()
            .read(1, "x", 0)
            .read(2, "y", 0)
            .write(1, "y", 1)
            .write(2, "x", 2)
            .commit_ok(1)
            .commit_ok(2)
            .read(3, "x", 2)
            .read(3, "y", 0)
            .commit_ok(3)
            .build();
        // T3 reads x=2 (from T2) but y=0, though T1 committed y=1: no legal
        // serialization.
        assert!(!is_opaque(&h, &regs()).unwrap().opaque);
    }

    #[test]
    fn sequential_legal_history_is_opaque() {
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .write(2, "y", 2)
            .commit_ok(2)
            .read(3, "y", 2)
            .commit_ok(3)
            .build();
        let r = is_opaque(&h, &regs()).unwrap();
        assert!(r.opaque);
        assert_eq!(
            r.witness.unwrap().tx_order(),
            vec![TxId(1), TxId(2), TxId(3)]
        );
    }
}
