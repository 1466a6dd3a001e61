//! Strict serializability: serializability "considered in its strict form
//! \[24\] to account for real-time ordering" (Sections 1 and 3.2; the
//! paper's citation 24 is Papadimitriou's JACM 1979 serializability paper).
//!
//! The committed transactions must admit a legal sequential order that
//! additionally preserves `≺_H`. The paper's point (and test
//! `h1_strictly_serializable_yet_not_opaque` below) is that even this is not
//! sufficient for TM: it says nothing about live or aborted transactions.

use crate::search::{search, CheckError, SearchMode};
use tm_model::{History, SpecRegistry};

/// Is `h` strictly serializable (committed transactions, real-time order
/// preserved)?
///
/// This is also transaction-level linearizability (Section 3.1): treating
/// each committed transaction as one operation on the composite shared
/// state, linearizability asks for a single point within each transaction's
/// lifespan at which it appears to take effect — a legal sequential order of
/// the committed transactions preserving real time. The paper's criticism
/// stands regardless: a TM transaction "is not a black box operation" —
/// linearizability says nothing about the values observed by live or
/// aborted transactions, which is what opacity adds.
pub fn is_strictly_serializable(h: &History, specs: &SpecRegistry) -> Result<bool, CheckError> {
    Ok(search(h, specs, SearchMode::STRICT_SERIALIZABILITY)?.holds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::serializability::is_serializable;
    use tm_model::builder::{paper, HistoryBuilder};

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    #[test]
    fn h1_strictly_serializable_yet_not_opaque() {
        assert!(is_strictly_serializable(&paper::h1(), &regs()).unwrap());
        assert!(
            !crate::opacity::is_opaque(&paper::h1(), &regs())
                .unwrap()
                .opaque
        );
    }

    #[test]
    fn stale_read_violates_strictness_only() {
        // T2 starts after T1 commits x=1 but reads the overwritten 0 — the
        // "extensive caching" anomaly of Section 2. Serializable (order T2
        // before T1) but not strictly serializable.
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 0)
            .commit_ok(2)
            .build();
        assert!(is_serializable(&h, &regs()).unwrap());
        assert!(!is_strictly_serializable(&h, &regs()).unwrap());
    }

    #[test]
    fn concurrent_transactions_may_reorder() {
        // T2 overlaps T1, so placing T2 before T1 is allowed.
        let h = HistoryBuilder::new()
            .inv_write(1, "x", 1)
            .inv_read(2, "x")
            .ret_write(1, "x")
            .ret_read(2, "x", 0)
            .commit_ok(1)
            .commit_ok(2)
            .build();
        assert!(is_strictly_serializable(&h, &regs()).unwrap());
    }

    #[test]
    fn strict_implies_plain_serializability() {
        for h in [paper::h1(), paper::h2(), paper::h4(), paper::h5()] {
            if is_strictly_serializable(&h, &regs()).unwrap() {
                assert!(is_serializable(&h, &regs()).unwrap());
            }
        }
    }
}
