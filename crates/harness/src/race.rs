//! Vector-clock happens-before checking over base-object access traces.
//!
//! The stepper in [`crate::dpor`] records every instrumented base-object
//! access as a [`TraceEvent`]. This module replays such a trace through a
//! vector-clock engine and flags violations of the ordering discipline the
//! TM protocols promise their version clocks:
//!
//! * **Stamp uniqueness** — no two commits may publish the same write
//!   version. GV1 earns uniqueness from its `fetch_add`; the mutants'
//!   pass-on-failure clock earns it through residue arithmetic, and
//!   dropping the residue (the seeded `DroppedResidue` mutant) makes two
//!   racing ticks collide.
//! * **Stamp monotonicity** — when one stamp *happens before* another, the
//!   earlier one must be strictly smaller. Happens-before here is program
//!   order plus release→acquire edges on modeled lock cells (commit
//!   locks); deliberately *not* data observation, because a correct
//!   pass-on-failure clock lets two unordered commits adopt numerically
//!   unordered stamps — flagging those would convict innocent protocols.
//! * **Publish-last** — a committer holding the global commit lock must
//!   finish installing its writes before publishing the new clock value;
//!   a record-cell write after the publish leaks a state where readers can
//!   see the new clock but stale data.
//! * **Lock pairing** — acquires and releases of modeled lock cells must
//!   nest sanely (no double acquire, no release by a non-holder).
//!
//! The checker is trace-level and protocol-agnostic: it never asks which TM
//! produced the events, only whether the events keep these promises.

use std::collections::BTreeMap;
use std::fmt;

use tm_stm::trace_cells::{AccessKind, CellId, TraceEvent};

/// One violated ordering invariant, with enough context to print a useful
/// diagnosis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaceViolation {
    /// Two commits published the same version stamp.
    DuplicateStamp {
        /// The colliding stamp value.
        ts: u64,
        /// The two publishing threads (first, second in trace order).
        threads: (usize, usize),
    },
    /// A happens-before-ordered pair of stamps is not strictly increasing.
    StampOrderInversion {
        /// The earlier (thread, stamp) pair.
        first: (usize, u64),
        /// The later (thread, stamp) pair — ordered after `first` by
        /// happens-before, yet numerically not greater.
        second: (usize, u64),
    },
    /// A committer wrote a record cell after publishing the clock while
    /// still holding the commit lock.
    PublishNotLast {
        /// The offending thread.
        thread: usize,
        /// The record cell written after the publish.
        cell: CellId,
    },
    /// An acquire of a held cell, or a release by a non-holder.
    LockMisuse {
        /// The offending thread.
        thread: usize,
        /// The lock cell involved.
        cell: CellId,
        /// `Acquire` or `Release`.
        kind: AccessKind,
    },
}

impl fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceViolation::DuplicateStamp { ts, threads } => write!(
                f,
                "duplicate version stamp {ts} published by threads {} and {}",
                threads.0, threads.1
            ),
            RaceViolation::StampOrderInversion { first, second } => write!(
                f,
                "stamp order inversion: thread {} published {} happens-before \
                 thread {} publishing {}",
                first.0, first.1, second.0, second.1
            ),
            RaceViolation::PublishNotLast { thread, cell } => write!(
                f,
                "thread {thread} wrote {cell} after publishing the clock \
                 while holding the commit lock"
            ),
            RaceViolation::LockMisuse { thread, cell, kind } => {
                write!(f, "thread {thread}: {kind:?} misuse on {cell}")
            }
        }
    }
}

/// A published stamp with the vector clock of its publication point.
struct StampRecord {
    thread: usize,
    ts: u64,
    vc: Vec<u64>,
}

/// Did the event with clock `earlier` (from `thread`) happen before the
/// point with clock `later`?
fn happens_before(thread: usize, earlier: &[u64], later: &[u64]) -> bool {
    later[thread] >= earlier[thread]
}

/// Checks `events` (a trace from one complete stepped execution over
/// `nthreads` workers) against the clock-ordering invariants. Returns every
/// violation found, in trace order.
pub fn check(events: &[TraceEvent], nthreads: usize) -> Vec<RaceViolation> {
    let mut violations = Vec::new();
    // One vector clock per thread; component t counts thread t's events.
    let mut vc: Vec<Vec<u64>> = vec![vec![0; nthreads]; nthreads];
    // Clock of the last release per lock cell.
    let mut release_vc: BTreeMap<CellId, Vec<u64>> = BTreeMap::new();
    // Current holder of each lock cell.
    let mut held_by: BTreeMap<CellId, usize> = BTreeMap::new();
    // Per thread: has it published the clock inside the current
    // commit-lock span?
    let mut published_in_span: Vec<bool> = vec![false; nthreads];
    let mut holds_commit_lock: Vec<bool> = vec![false; nthreads];
    // All stamps seen, plus a value -> first publisher index for uniqueness.
    let mut stamps: Vec<StampRecord> = Vec::new();
    let mut first_by_value: BTreeMap<u64, usize> = BTreeMap::new();

    for ev in events {
        match *ev {
            TraceEvent::Access(a) => {
                let t = a.thread;
                if t >= nthreads {
                    continue; // foreign thread (e.g. setup); ignore
                }
                vc[t][t] += 1;
                match a.kind {
                    AccessKind::Acquire => {
                        if held_by.contains_key(&a.cell) {
                            violations.push(RaceViolation::LockMisuse {
                                thread: t,
                                cell: a.cell,
                                kind: AccessKind::Acquire,
                            });
                        }
                        held_by.insert(a.cell, t);
                        if let Some(rel) = release_vc.get(&a.cell) {
                            for (mine, theirs) in vc[t].iter_mut().zip(rel) {
                                *mine = (*mine).max(*theirs);
                            }
                        }
                        if a.cell == CellId::CommitLock {
                            holds_commit_lock[t] = true;
                            published_in_span[t] = false;
                        }
                    }
                    AccessKind::Release => {
                        if held_by.get(&a.cell) != Some(&t) {
                            violations.push(RaceViolation::LockMisuse {
                                thread: t,
                                cell: a.cell,
                                kind: AccessKind::Release,
                            });
                        }
                        held_by.remove(&a.cell);
                        release_vc.insert(a.cell, vc[t].clone());
                        if a.cell == CellId::CommitLock {
                            holds_commit_lock[t] = false;
                            published_in_span[t] = false;
                        }
                    }
                    AccessKind::Read | AccessKind::Write | AccessKind::Rmw => {
                        let is_clock_write = matches!(a.cell, CellId::Clock(_)) && a.kind.writes();
                        let is_record_write =
                            matches!(a.cell, CellId::Record(_)) && a.kind.writes();
                        if holds_commit_lock[t] {
                            if is_clock_write {
                                published_in_span[t] = true;
                            } else if is_record_write && published_in_span[t] {
                                violations.push(RaceViolation::PublishNotLast {
                                    thread: t,
                                    cell: a.cell,
                                });
                            }
                        }
                    }
                }
            }
            TraceEvent::Stamp { thread, ts } => {
                if thread >= nthreads {
                    continue;
                }
                vc[thread][thread] += 1;
                match first_by_value.get(&ts) {
                    Some(&first) => violations.push(RaceViolation::DuplicateStamp {
                        ts,
                        threads: (stamps[first].thread, thread),
                    }),
                    None => {
                        first_by_value.insert(ts, stamps.len());
                    }
                }
                let record = StampRecord {
                    thread,
                    ts,
                    vc: vc[thread].clone(),
                };
                for earlier in &stamps {
                    if happens_before(earlier.thread, &earlier.vc, &record.vc)
                        && earlier.ts >= record.ts
                    {
                        violations.push(RaceViolation::StampOrderInversion {
                            first: (earlier.thread, earlier.ts),
                            second: (record.thread, record.ts),
                        });
                    }
                }
                stamps.push(record);
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::trace_cells::AccessEvent;

    fn access(thread: usize, cell: CellId, kind: AccessKind) -> TraceEvent {
        TraceEvent::Access(AccessEvent { thread, cell, kind })
    }

    fn stamp(thread: usize, ts: u64) -> TraceEvent {
        TraceEvent::Stamp { thread, ts }
    }

    #[test]
    fn clean_commit_lock_protocol_is_acquitted() {
        // Two committers serialized by the commit lock, installing before
        // publishing, stamps strictly increasing along the lock chain.
        let trace = vec![
            access(0, CellId::CommitLock, AccessKind::Acquire),
            access(0, CellId::Record(0), AccessKind::Write),
            stamp(0, 1),
            access(0, CellId::Clock(0), AccessKind::Rmw),
            access(0, CellId::CommitLock, AccessKind::Release),
            access(1, CellId::CommitLock, AccessKind::Acquire),
            access(1, CellId::Record(0), AccessKind::Write),
            stamp(1, 2),
            access(1, CellId::Clock(0), AccessKind::Rmw),
            access(1, CellId::CommitLock, AccessKind::Release),
        ];
        assert_eq!(check(&trace, 2), vec![]);
    }

    #[test]
    fn duplicate_stamps_are_convicted() {
        let trace = vec![stamp(0, 256), stamp(1, 256)];
        assert_eq!(
            check(&trace, 2),
            vec![RaceViolation::DuplicateStamp {
                ts: 256,
                threads: (0, 1),
            }]
        );
    }

    #[test]
    fn unordered_equal_stamps_from_one_thread_still_collide() {
        // Uniqueness is global, not per pair of threads. A same-thread pair
        // also trips monotonicity (program order, not strictly greater).
        let trace = vec![stamp(0, 7), stamp(0, 7)];
        let vs = check(&trace, 1);
        assert_eq!(
            vs.iter()
                .filter(|v| matches!(v, RaceViolation::DuplicateStamp { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn lock_ordered_stamp_inversion_is_convicted() {
        // Thread 0 publishes 5 inside the lock; thread 1, ordered after it
        // by the release->acquire edge, publishes 3.
        let trace = vec![
            access(0, CellId::CommitLock, AccessKind::Acquire),
            stamp(0, 5),
            access(0, CellId::CommitLock, AccessKind::Release),
            access(1, CellId::CommitLock, AccessKind::Acquire),
            stamp(1, 3),
            access(1, CellId::CommitLock, AccessKind::Release),
        ];
        assert_eq!(
            check(&trace, 2),
            vec![RaceViolation::StampOrderInversion {
                first: (0, 5),
                second: (1, 3),
            }]
        );
    }

    #[test]
    fn concurrent_unordered_stamps_may_invert_freely() {
        // No lock edge between the threads: a pass-on-failure clock is
        // allowed to hand numerically unordered stamps to unordered commits.
        let trace = vec![stamp(0, 5), stamp(1, 3)];
        assert_eq!(check(&trace, 2), vec![]);
    }

    #[test]
    fn program_order_alone_orders_stamps() {
        let trace = vec![stamp(0, 5), stamp(0, 5 /* not strictly greater */)];
        // Both a duplicate and an inversion: the same-value pair is caught
        // twice, once per invariant.
        let vs = check(&trace, 1);
        assert!(vs
            .iter()
            .any(|v| matches!(v, RaceViolation::DuplicateStamp { .. })));
        assert!(vs
            .iter()
            .any(|v| matches!(v, RaceViolation::StampOrderInversion { .. })));
    }

    #[test]
    fn record_write_after_publish_under_commit_lock_is_convicted() {
        let trace = vec![
            access(0, CellId::CommitLock, AccessKind::Acquire),
            stamp(0, 1),
            access(0, CellId::Clock(0), AccessKind::Rmw),
            access(0, CellId::Record(3), AccessKind::Write),
            access(0, CellId::CommitLock, AccessKind::Release),
        ];
        assert_eq!(
            check(&trace, 1),
            vec![RaceViolation::PublishNotLast {
                thread: 0,
                cell: CellId::Record(3),
            }]
        );
    }

    #[test]
    fn record_write_after_publish_without_the_lock_is_fine() {
        // TL2-style: no commit lock, lock-word stores after the tick are
        // the normal publication path.
        let trace = vec![
            stamp(0, 1),
            access(0, CellId::Clock(0), AccessKind::Rmw),
            access(0, CellId::Record(3), AccessKind::Write),
        ];
        assert_eq!(check(&trace, 1), vec![]);
    }

    #[test]
    fn lock_misuse_is_convicted_both_ways() {
        let double_acquire = vec![
            access(0, CellId::CommitLock, AccessKind::Acquire),
            access(1, CellId::CommitLock, AccessKind::Acquire),
        ];
        assert!(matches!(
            check(&double_acquire, 2)[..],
            [RaceViolation::LockMisuse {
                kind: AccessKind::Acquire,
                ..
            }]
        ));
        let stray_release = vec![access(1, CellId::CommitLock, AccessKind::Release)];
        assert!(matches!(
            check(&stray_release, 2)[..],
            [RaceViolation::LockMisuse {
                kind: AccessKind::Release,
                ..
            }]
        ));
    }
}
