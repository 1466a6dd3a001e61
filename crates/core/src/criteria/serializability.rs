//! Serializability (Section 3.2), which in this model is also global
//! atomicity (Section 3.4) and 1-copy serializability (Section 3.3).
//!
//! A history `H` is serializable if the committed transactions of `H` issue
//! the same operations and receive the same responses as in some legal
//! sequential history `S` consisting only of the transactions committed in
//! `H`. Classical serializability is stated for read/write objects;
//! Weihl's *global atomicity* generalizes it to arbitrary objects with
//! sequential specifications. In this object-generic model the two coincide,
//! so [`is_serializable`] decides global atomicity too.
//!
//! 1-copy serializability (Bernstein & Goodman) allows multiple physical
//! versions of each object while demanding that committed transactions
//! behave as if a single copy existed. Our model is *value-based*: histories
//! record the values operations actually returned, never which physical copy
//! produced them, so the "one logical copy" requirement is exactly the
//! existence of a legal single-state sequential history over the committed
//! transactions — again [`is_serializable`]. The limitations the paper
//! attributes to 1-copy serializability (read/write-only model, no
//! constraint on live or aborted transactions) are therefore shared with it
//! here, which is the point of the Section 3.3 comparison.
//!
//! None of these criteria constrains live or aborted transactions — the gap
//! opacity fills.

use crate::search::{search, CheckError, CheckSession, SearchConfig, SearchMode};
use tm_model::{History, SpecRegistry};

/// Final-state serializability of the committed transactions of `h`; also
/// global atomicity and 1-copy serializability (see the module docs).
pub fn is_serializable(h: &History, specs: &SpecRegistry) -> Result<bool, CheckError> {
    Ok(search(h, specs, SearchMode::SERIALIZABILITY)?.holds())
}

/// [`is_serializable`] with an explicit search configuration (node cap,
/// bounded memo) — the knob the conformance pipeline threads through for
/// adversarial recorded histories.
pub fn is_serializable_with(
    h: &History,
    specs: &SpecRegistry,
    config: SearchConfig,
) -> Result<bool, CheckError> {
    Ok(
        CheckSession::new(specs, SearchMode::SERIALIZABILITY, config)
            .check_history(h)?
            .holds(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_model::builder::{paper, HistoryBuilder};
    use tm_model::objects::Counter;
    use tm_model::SpecRegistry;

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    #[test]
    fn h1_is_serializable() {
        // Aborted T2's inconsistent view is invisible to serializability.
        assert!(is_serializable(&paper::h1(), &regs()).unwrap());
    }

    #[test]
    fn committed_cycle_is_not_serializable() {
        // T1 reads x=0 then writes y=1; T2 reads y=0 then writes x=1; both
        // commit reading pre-states: classic non-serializable write skew on
        // reads... make it a read-write cycle that genuinely fails:
        // T1: r(x)=0 w(y)=1; T2: r(y)=1 w(x)=5; T3 reads x=0 after T2
        // commits -- simpler: two txs reading each other's writes.
        let h = HistoryBuilder::new()
            .read(1, "x", 9) // nobody ever writes 9
            .commit_ok(1)
            .build();
        assert!(!is_serializable(&h, &regs()).unwrap());
    }

    #[test]
    fn fractured_reads_not_serializable() {
        // Committed T3 observes T1's write to x but not T1's write to y,
        // with no other writers: no sequential order explains it.
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .write(1, "y", 1)
            .commit_ok(1)
            .read(3, "x", 1)
            .read(3, "y", 0)
            .commit_ok(3)
            .build();
        assert!(!is_serializable(&h, &regs()).unwrap());
    }

    #[test]
    fn aborted_transactions_are_erased() {
        // A wildly illegal aborted transaction does not affect
        // serializability.
        let h = HistoryBuilder::new()
            .read(1, "x", 12345)
            .try_commit(1)
            .abort(1)
            .write(2, "x", 1)
            .commit_ok(2)
            .build();
        assert!(is_serializable(&h, &regs()).unwrap());
    }

    #[test]
    fn counter_increments_all_serializable() {
        // Section 3.4: with counter semantics, k blind increments commute —
        // all committed increments serialize.
        let specs = SpecRegistry::new().with("c", Arc::new(Counter));
        let mut b = HistoryBuilder::new();
        for t in 1..=6u32 {
            b = b.inc(t, "c");
        }
        for t in 1..=6u32 {
            b = b.commit_ok(t);
        }
        assert!(is_serializable(&b.build(), &specs).unwrap());
    }

    #[test]
    fn live_transactions_are_ignored() {
        // A live transaction reading garbage does not affect
        // serializability (but would break opacity).
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 77)
            .build();
        assert!(is_serializable(&h, &regs()).unwrap());
        assert!(!crate::opacity::is_opaque(&h, &regs()).unwrap().opaque);
    }
}
