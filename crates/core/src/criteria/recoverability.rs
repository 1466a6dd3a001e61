//! The recoverability family (Section 3.5) and rigorous scheduling
//! (Section 3.6), as schedule-level properties.
//!
//! These criteria constrain *when* operations may occur relative to the
//! commit/abort events of other transactions, rather than asserting the
//! existence of an equivalent sequential history:
//!
//! * **recoverability** (Hadzilacos): if `Tk` reads from `Ti` and `Tk`
//!   commits, then `Ti` committed before `Tk`'s commit;
//! * **avoiding cascading aborts (ACA)**: transactions only read values
//!   written by already-committed transactions;
//! * **strictness**: no transaction reads or overwrites a value written by a
//!   transaction that is still live — the paper's "strongest form" of
//!   recoverability ("if a transaction Ti updates a shared object x, then no
//!   other transaction can perform an operation on x until Ti commits or
//!   aborts");
//! * **rigorousness** (Breitbart et al., Section 3.6): strictness plus no
//!   overwriting of objects read by live transactions.
//!
//! The hierarchy `rigorous ⊆ strict ⊆ ACA ⊆ recoverable` is asserted by the
//! property tests. For non-register objects, any non-read-only operation
//! counts as an update and read-only operations count as reads; the
//! reads-from relation is defined for registers via the unique-writes
//! convention.

use tm_model::{Event, History, ObjId, OpName, TxId, Value};

/// Is `op` read-only (leaves the object state unchanged)?
fn is_read_only(op: &OpName) -> bool {
    matches!(op, OpName::Read | OpName::Get | OpName::Contains)
}

/// A single schedule-property violation, for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The transaction whose operation violates the property.
    pub tx: TxId,
    /// The other transaction involved.
    pub other: TxId,
    /// The object on which they clash.
    pub obj: ObjId,
    /// Human-readable description.
    pub what: String,
}

/// The recoverability-family verdicts for one history.
#[derive(Clone, Debug, Default)]
pub struct ScheduleProperties {
    /// Recoverability holds.
    pub recoverable: bool,
    /// ACA holds.
    pub avoids_cascading_aborts: bool,
    /// Strictness holds.
    pub strict: bool,
    /// Rigorousness holds.
    pub rigorous: bool,
    /// Violations found, one list per property.
    pub violations: ViolationLists,
}

/// Per-property violation lists.
#[derive(Clone, Debug, Default)]
pub struct ViolationLists {
    /// Violations of recoverability.
    pub recoverability: Vec<Violation>,
    /// Violations of ACA.
    pub aca: Vec<Violation>,
    /// Violations of strictness.
    pub strictness: Vec<Violation>,
    /// Violations of rigorousness (beyond strictness).
    pub rigorousness: Vec<Violation>,
}

/// An access extracted from the history, at its invocation position.
struct Access {
    pos: usize,
    tx: TxId,
    obj: ObjId,
    is_update: bool,
    /// For register writes: the written value (for reads-from).
    written: Option<Value>,
    /// For register reads: the read value (filled from the response).
    read: Option<Value>,
}

/// Detailed report used by [`ScheduleProperties::of`].
#[derive(Clone, Debug, Default)]
pub struct RecoverabilityReport {
    /// The reads-from pairs `(reader, writer, object)` discovered.
    pub reads_from: Vec<(TxId, TxId, ObjId)>,
}

impl ScheduleProperties {
    /// Computes all four properties for `h` in one scan.
    pub fn of(h: &History) -> ScheduleProperties {
        let (props, _) = Self::of_with_report(h);
        props
    }

    /// Computes the properties and the reads-from report.
    pub fn of_with_report(h: &History) -> (ScheduleProperties, RecoverabilityReport) {
        let events = h.events();
        // Completion position of each transaction (C/A event index).
        let completion: std::collections::HashMap<TxId, (usize, bool)> = {
            let mut m = std::collections::HashMap::new();
            for (i, e) in events.iter().enumerate() {
                match e {
                    Event::Commit(t) => {
                        m.insert(*t, (i, true));
                    }
                    Event::Abort(t) => {
                        m.insert(*t, (i, false));
                    }
                    _ => {}
                }
            }
            m
        };
        let committed_at = |t: TxId, pos: usize| -> bool {
            matches!(completion.get(&t), Some(&(c, true)) if c < pos)
        };
        let completed_at = |t: TxId, pos: usize| -> bool {
            matches!(completion.get(&t), Some(&(c, _)) if c < pos)
        };

        // Extract accesses. Updates are timed at their invocation; register
        // read values come from the matching response.
        let mut accesses: Vec<Access> = Vec::new();
        {
            let mut pending: std::collections::HashMap<TxId, usize> =
                std::collections::HashMap::new();
            for (i, e) in events.iter().enumerate() {
                match e {
                    Event::Inv { tx, obj, op, args } => {
                        let is_update = !is_read_only(op);
                        let written = if *op == OpName::Write {
                            args.first().cloned()
                        } else {
                            None
                        };
                        accesses.push(Access {
                            pos: i,
                            tx: *tx,
                            obj: obj.clone(),
                            is_update,
                            written,
                            read: None,
                        });
                        pending.insert(*tx, accesses.len() - 1);
                    }
                    Event::Ret { tx, op, val, .. } => {
                        if *op == OpName::Read {
                            if let Some(&ai) = pending.get(tx) {
                                accesses[ai].read = Some(val.clone());
                            }
                        }
                        pending.remove(tx);
                    }
                    _ => {}
                }
            }
        }

        // The reads-from relation (registers, unique-writes convention):
        // the writer of the value actually read, choosing the latest
        // matching write that precedes the read if several exist.
        let mut reads_from: Vec<(usize, TxId, TxId, ObjId)> = Vec::new(); // (read pos, reader, writer, obj)
        for (a, v) in accesses
            .iter()
            .filter_map(|a| a.read.as_ref().map(|v| (a, v)))
        {
            let writer = accesses
                .iter()
                .filter(|w| w.obj == a.obj && w.written.as_ref() == Some(v) && w.pos < a.pos)
                .max_by_key(|w| w.pos)
                .map(|w| w.tx);
            if let Some(wtx) = writer {
                if wtx != a.tx {
                    reads_from.push((a.pos, a.tx, wtx, a.obj.clone()));
                }
            }
        }

        let mut v = ViolationLists::default();

        // Recoverability: if Tk reads from Ti and Tk commits, Ti must have
        // committed before Tk's commit.
        for (_, reader, writer, obj) in &reads_from {
            if let Some(&(ck, true)) = completion.get(reader) {
                let ok = matches!(completion.get(writer), Some(&(ci, true)) if ci < ck);
                if !ok {
                    v.recoverability.push(Violation {
                        tx: *reader,
                        other: *writer,
                        obj: obj.clone(),
                        what: format!(
                            "{reader} committed having read from {writer}, which did not commit first"
                        ),
                    });
                }
            }
        }

        // ACA: every read must be from a transaction already committed at
        // the time of the read.
        for (pos, reader, writer, obj) in &reads_from {
            if !committed_at(*writer, *pos) {
                v.aca.push(Violation {
                    tx: *reader,
                    other: *writer,
                    obj: obj.clone(),
                    what: format!("{reader} read {obj} from uncommitted {writer}"),
                });
            }
        }

        // Strictness: no operation on x while another transaction that
        // updated x is incomplete.
        for a in &accesses {
            for w in &accesses {
                if w.is_update
                    && w.tx != a.tx
                    && w.obj == a.obj
                    && w.pos < a.pos
                    && !completed_at(w.tx, a.pos)
                {
                    v.strictness.push(Violation {
                        tx: a.tx,
                        other: w.tx,
                        obj: a.obj.clone(),
                        what: format!("{} accessed {} updated by incomplete {}", a.tx, a.obj, w.tx),
                    });
                }
            }
        }

        // Rigorousness: additionally, no update of x while another
        // transaction that read x is incomplete.
        for a in accesses.iter().filter(|a| a.is_update) {
            for r in accesses.iter().filter(|r| !r.is_update) {
                if r.tx != a.tx && r.obj == a.obj && r.pos < a.pos && !completed_at(r.tx, a.pos) {
                    v.rigorousness.push(Violation {
                        tx: a.tx,
                        other: r.tx,
                        obj: a.obj.clone(),
                        what: format!("{} updated {} read by incomplete {}", a.tx, a.obj, r.tx),
                    });
                }
            }
        }

        let props = ScheduleProperties {
            recoverable: v.recoverability.is_empty(),
            avoids_cascading_aborts: v.aca.is_empty(),
            strict: v.strictness.is_empty(),
            rigorous: v.strictness.is_empty() && v.rigorousness.is_empty(),
            violations: v,
        };
        let report = RecoverabilityReport {
            reads_from: reads_from
                .into_iter()
                .map(|(_, r, w, o)| (r, w, o))
                .collect(),
        };
        (props, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::builder::{paper, HistoryBuilder};

    #[test]
    fn h1_is_recoverable_and_aca() {
        // The paper: "H satisfies recoverability: T2 accesses x after T1
        // commits and before T3 starts, whilst T2 accesses y after T3
        // commits."
        let p = ScheduleProperties::of(&paper::h1());
        assert!(p.recoverable);
        assert!(p.avoids_cascading_aborts);
        // Strictness also holds in H1: every access is to committed data.
        assert!(p.strict);
    }

    #[test]
    fn h1_reads_from() {
        let (_, report) = ScheduleProperties::of_with_report(&paper::h1());
        assert!(report.reads_from.contains(&(TxId(2), TxId(1), "x".into())));
        assert!(report.reads_from.contains(&(TxId(2), TxId(3), "y".into())));
    }

    #[test]
    fn dirty_read_breaks_aca_and_strictness() {
        let h = HistoryBuilder::new()
            .write(1, "x", 7)
            .read(2, "x", 7) // T1 still live: dirty read
            .commit_ok(1)
            .commit_ok(2)
            .build();
        let p = ScheduleProperties::of(&h);
        assert!(!p.avoids_cascading_aborts);
        assert!(!p.strict);
        assert!(!p.rigorous);
        // Recoverable though: T1 commits before T2's commit.
        assert!(p.recoverable);
    }

    #[test]
    fn commit_before_writer_breaks_recoverability() {
        let h = HistoryBuilder::new()
            .write(1, "x", 7)
            .read(2, "x", 7)
            .commit_ok(2) // reader commits first
            .commit_ok(1)
            .build();
        let p = ScheduleProperties::of(&h);
        assert!(!p.recoverable);
        assert_eq!(p.violations.recoverability.len(), 1);
        assert_eq!(p.violations.recoverability[0].tx, TxId(2));
    }

    #[test]
    fn read_from_aborted_breaks_recoverability() {
        let h = HistoryBuilder::new()
            .write(1, "x", 7)
            .read(2, "x", 7)
            .try_abort(1)
            .abort(1)
            .commit_ok(2)
            .build();
        assert!(!ScheduleProperties::of(&h).recoverable);
    }

    #[test]
    fn overwrite_of_read_data_breaks_rigorousness_only() {
        // T1 reads x; T2 then writes x while T1 is live. Strict (nothing
        // dirty is touched) but not rigorous.
        let h = HistoryBuilder::new()
            .read(1, "x", 0)
            .write(2, "x", 5)
            .commit_ok(2)
            .commit_ok(1)
            .build();
        let p = ScheduleProperties::of(&h);
        assert!(p.strict);
        assert!(!p.rigorous);
        assert_eq!(p.violations.rigorousness.len(), 1);
    }

    #[test]
    fn concurrent_blind_writes_break_strictness() {
        // Section 3.6's overlapping writers: all update x,y,z concurrently.
        let mut b = HistoryBuilder::new();
        for t in 1..=3u32 {
            b = b
                .write(t, "x", t as i64)
                .write(t, "y", t as i64)
                .write(t, "z", t as i64);
        }
        for t in 1..=3u32 {
            b = b.commit_ok(t);
        }
        let p = ScheduleProperties::of(&b.build());
        assert!(!p.strict);
        assert!(!p.rigorous);
        // No reads at all: recoverability and ACA hold vacuously.
        assert!(p.recoverable);
        assert!(p.avoids_cascading_aborts);
    }

    #[test]
    fn concurrent_counter_incs_break_strictness() {
        // Section 3.4/3.5: recoverability's strong form forbids concurrent
        // increments even though they commute.
        let h = HistoryBuilder::new()
            .inc(1, "c")
            .inc(2, "c")
            .commit_ok(1)
            .commit_ok(2)
            .build();
        let p = ScheduleProperties::of(&h);
        assert!(!p.strict);
        // No reads: ACA/recoverability vacuous.
        assert!(p.recoverable && p.avoids_cascading_aborts);
    }

    #[test]
    fn sequential_history_satisfies_everything() {
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .write(2, "x", 2)
            .commit_ok(2)
            .build();
        let p = ScheduleProperties::of(&h);
        assert!(p.recoverable && p.avoids_cascading_aborts && p.strict && p.rigorous);
    }

    #[test]
    fn hierarchy_rigorous_implies_strict_implies_aca() {
        // Sanity over the paper histories and some crafted ones.
        for h in [
            paper::h1(),
            paper::h2(),
            paper::h3(),
            paper::h4(),
            paper::h5(),
            HistoryBuilder::new()
                .write(1, "x", 1)
                .read(2, "x", 1)
                .commit_ok(1)
                .commit_ok(2)
                .build(),
        ] {
            let p = ScheduleProperties::of(&h);
            if p.rigorous {
                assert!(p.strict, "{h}");
            }
            if p.strict {
                assert!(p.avoids_cascading_aborts, "{h}");
            }
            if p.avoids_cascading_aborts {
                assert!(p.recoverable, "{h}");
            }
        }
    }
}
