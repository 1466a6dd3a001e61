//! Multi-threaded workloads over real OS threads.
//!
//! Where the scheduler in [`crate::sched`] gives determinism, these
//! workloads give *realism*: genuinely concurrent threads hammering a TM,
//! with semantic invariants checked at the end. This module's tests run
//! every workload on every TM.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::objconformance::ObjectKind;
use tm_stm::objects::{run_typed_tx, TypedStm};
use tm_stm::{run_tx, Stm};

/// Aggregated results of a workload run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
}

impl WorkloadStats {
    /// Abort ratio `aborts / (commits + aborts)`.
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

/// The bank workload: `accounts` registers, initial balance `initial` each;
/// every thread performs `transfers` random transfers (read two accounts,
/// move a random amount).
///
/// Invariant: the total balance is conserved — checked on return.
///
/// # Panics
/// Panics if the conservation invariant is violated (a serializability bug
/// in the TM under test).
pub fn bank(
    stm: &dyn Stm,
    threads: usize,
    accounts: usize,
    transfers: usize,
    seed: u64,
) -> WorkloadStats {
    assert!(stm.k() >= accounts && accounts >= 2);
    let initial = 100i64;
    // Fund the accounts.
    run_tx(stm, 0, |tx| {
        for a in 0..accounts {
            tx.write(a, initial)?;
        }
        Ok(())
    });

    let stats = std::sync::Mutex::new(WorkloadStats::default());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stats = &stats;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                let mut local = WorkloadStats::default();
                for _ in 0..transfers {
                    let from = rng.gen_range(0..accounts);
                    let mut to = rng.gen_range(0..accounts);
                    if to == from {
                        to = (to + 1) % accounts;
                    }
                    let amount: i64 = rng.gen_range(1..=10);
                    let (_, rs) = run_tx(stm, t, |tx| {
                        let a = tx.read(from)?;
                        let b = tx.read(to)?;
                        tx.write(from, a - amount)?;
                        tx.write(to, b + amount)
                    });
                    local.commits += rs.commits;
                    local.aborts += rs.aborts;
                }
                let mut s = stats.lock().unwrap();
                s.commits += local.commits;
                s.aborts += local.aborts;
            });
        }
    });

    // Conservation check.
    let (total, _) = run_tx(stm, 0, |tx| {
        let mut sum = 0;
        for a in 0..accounts {
            sum += tx.read(a)?;
        }
        Ok(sum)
    });
    assert_eq!(
        total,
        initial * accounts as i64,
        "{}: bank conservation violated",
        stm.name()
    );
    stats.into_inner().unwrap()
}

/// The counter workload: every thread increments register 0 `increments`
/// times (read + write — the read/write encoding of Section 3.4, where at
/// most one of any set of concurrent increments can commit per round).
///
/// Invariant: the final value equals `threads × increments` — checked on
/// return.
pub fn counter(stm: &dyn Stm, threads: usize, increments: usize) -> WorkloadStats {
    let stats = std::sync::Mutex::new(WorkloadStats::default());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stats = &stats;
            scope.spawn(move || {
                let mut local = WorkloadStats::default();
                for _ in 0..increments {
                    let (_, rs) = run_tx(stm, t, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                    local.commits += rs.commits;
                    local.aborts += rs.aborts;
                }
                let mut s = stats.lock().unwrap();
                s.commits += local.commits;
                s.aborts += local.aborts;
            });
        }
    });
    let (v, _) = run_tx(stm, 0, |tx| tx.read(0));
    assert_eq!(
        v,
        (threads * increments) as i64,
        "{}: lost updates detected",
        stm.name()
    );
    stats.into_inner().unwrap()
}

/// The commit storm: every thread repeatedly commits a tiny update
/// transaction on its *own* register, so data conflicts are impossible and
/// the only shared hot spot is the TM's commit path — for the
/// timestamp-based TMs, the GV1 version clock, whose `fetch_add` every
/// commit issues on one cache line.
///
/// Invariant: no aborts can occur (disjoint write sets; on TL2-style TMs a
/// read of the own register never observes a foreign version) — every
/// register must end at `txs_per_thread` and every attempt must commit.
///
/// # Panics
/// Panics if any update is lost or any transaction aborted.
pub fn commit_storm(stm: &dyn Stm, threads: usize, txs_per_thread: usize) -> WorkloadStats {
    assert!(stm.k() >= threads, "one register per thread required");
    let stats = std::sync::Mutex::new(WorkloadStats::default());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stats = &stats;
            scope.spawn(move || {
                let mut local = WorkloadStats::default();
                for i in 0..txs_per_thread {
                    let (_, rs) = run_tx(stm, t, |tx| tx.write(t, (i + 1) as i64));
                    local.commits += rs.commits;
                    local.aborts += rs.aborts;
                }
                let mut s = stats.lock().unwrap();
                s.commits += local.commits;
                s.aborts += local.aborts;
            });
        }
    });
    for t in 0..threads {
        let (v, _) = run_tx(stm, 0, |tx| tx.read(t));
        assert_eq!(
            v,
            txs_per_thread as i64,
            "{}: thread {t}'s commits were lost",
            stm.name()
        );
    }
    stats.into_inner().unwrap()
}

/// A read-dominated workload: each thread performs `txs` transactions; a
/// fraction `write_pct`/100 of them write one register, the rest read
/// `reads_per_tx` random registers.
pub fn read_mostly(
    stm: &dyn Stm,
    threads: usize,
    txs: usize,
    reads_per_tx: usize,
    write_pct: u32,
    seed: u64,
) -> WorkloadStats {
    let k = stm.k();
    let stats = std::sync::Mutex::new(WorkloadStats::default());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stats = &stats;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0xDEAD_BEEF));
                let mut local = WorkloadStats::default();
                for i in 0..txs {
                    let (_, rs) = if rng.gen_ratio(write_pct, 100) {
                        let obj = rng.gen_range(0..k);
                        let v = (t * txs + i) as i64;
                        run_tx(stm, t, |tx| tx.write(obj, v))
                    } else {
                        let objs: Vec<usize> =
                            (0..reads_per_tx).map(|_| rng.gen_range(0..k)).collect();
                        run_tx(stm, t, |tx| {
                            for &o in &objs {
                                tx.read(o)?;
                            }
                            Ok(())
                        })
                    };
                    local.commits += rs.commits;
                    local.aborts += rs.aborts;
                }
                let mut s = stats.lock().unwrap();
                s.commits += local.commits;
                s.aborts += local.aborts;
            });
        }
    });
    stats.into_inner().unwrap()
}

/// The typed-object storm: `threads` threads each perform `ops`
/// transactions against one typed object of the given kind (built with
/// [`ObjectKind::standard_space`] sized for `threads × ops` operations),
/// with a per-kind semantic invariant checked on return:
///
/// * **counter** — every thread increments; the final count must equal
///   `threads × ops` (the object-level lost-update check);
/// * **cas** — every thread reads and CASes the value one up (the CAS is
///   against the own read, so it succeeds within the transaction); final
///   value as for the counter;
/// * **queue / stack** — even threads produce, odd threads consume;
///   dequeued + drained-at-the-end must equal the number enqueued;
/// * **pqueue** — every thread inserts; draining at the end must yield
///   exactly `threads × ops` elements in non-decreasing priority order;
/// * **log** — every thread appends; the final log length must equal
///   `threads × ops`;
/// * **set / map / register** — threads mutate disjoint-ish slots; the
///   final observation must match the last committed mutation.
///
/// # Panics
/// Panics if the invariant is violated (a semantic bug in the TM under
/// test).
pub fn typed_storm(
    typed: &TypedStm,
    kind: ObjectKind,
    threads: usize,
    ops: usize,
) -> WorkloadStats {
    use std::sync::atomic::{AtomicU64, Ordering};
    let o = typed.handle("o");
    let stats = std::sync::Mutex::new(WorkloadStats::default());
    // Successful consumer removals (queue/stack), for exact conservation.
    let consumed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stats = &stats;
            let consumed = &consumed;
            scope.spawn(move || {
                let mut local = WorkloadStats::default();
                for i in 0..ops {
                    let (_, rs) = match kind {
                        ObjectKind::Counter => run_typed_tx(typed, t, |tx| tx.inc(o)),
                        ObjectKind::Cas => run_typed_tx(typed, t, |tx| {
                            let v = tx.read_reg(o)?;
                            tx.cas(o, v, v + 1).map(|_| ())
                        }),
                        ObjectKind::Queue => {
                            if t % 2 == 0 {
                                run_typed_tx(typed, t, |tx| tx.enq(o, (t * ops + i) as i64))
                            } else {
                                let (got, rs) = run_typed_tx(typed, t, |tx| tx.deq(o));
                                if got.is_some() {
                                    consumed.fetch_add(1, Ordering::Relaxed);
                                }
                                ((), rs)
                            }
                        }
                        ObjectKind::Stack => {
                            if t % 2 == 0 {
                                run_typed_tx(typed, t, |tx| tx.push(o, (t * ops + i) as i64))
                            } else {
                                let (got, rs) = run_typed_tx(typed, t, |tx| tx.pop(o));
                                if got.is_some() {
                                    consumed.fetch_add(1, Ordering::Relaxed);
                                }
                                ((), rs)
                            }
                        }
                        ObjectKind::Set => run_typed_tx(typed, t, |tx| {
                            let v = (i % 8) as i64;
                            tx.insert(o, v)?;
                            tx.contains(o, v)?;
                            tx.remove(o, v).map(|_| ())
                        }),
                        ObjectKind::Map => run_typed_tx(typed, t, |tx| {
                            let k = (t % 8) as i64;
                            tx.put(o, k, i as i64)?;
                            tx.map_get(o, k).map(|_| ())
                        }),
                        ObjectKind::PQueue => {
                            run_typed_tx(typed, t, |tx| tx.pq_insert(o, (i % 8) as i64))
                        }
                        ObjectKind::Log => {
                            run_typed_tx(typed, t, |tx| tx.append(o, (t * ops + i) as i64))
                        }
                        ObjectKind::Register => run_typed_tx(typed, t, |tx| {
                            tx.write_reg(o, (t * ops + i) as i64)?;
                            tx.read_reg(o).map(|_| ())
                        }),
                    };
                    local.commits += rs.commits;
                    local.aborts += rs.aborts;
                }
                let mut s = stats.lock().unwrap();
                s.commits += local.commits;
                s.aborts += local.aborts;
            });
        }
    });

    // Per-kind semantic invariants.
    let total = (threads * ops) as i64;
    match kind {
        ObjectKind::Counter => {
            let (v, _) = run_typed_tx(typed, 0, |tx| tx.get(o));
            assert_eq!(v, total, "{}: typed counter lost updates", typed.name());
        }
        ObjectKind::Cas => {
            let (v, _) = run_typed_tx(typed, 0, |tx| tx.read_reg(o));
            assert_eq!(v, total, "{}: typed cas lost updates", typed.name());
        }
        ObjectKind::Queue => {
            let producers = threads.div_ceil(2);
            let enqueued = (producers * ops) as u64;
            let (drained, _) = run_typed_tx(typed, 0, |tx| {
                let mut n = 0u64;
                while tx.deq(o)?.is_some() {
                    n += 1;
                }
                Ok(n)
            });
            let consumed = consumed.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(
                consumed + drained,
                enqueued,
                "{}: queue conservation (consumed {consumed} + drained {drained} != enqueued {enqueued})",
                typed.name()
            );
        }
        ObjectKind::Stack => {
            let producers = threads.div_ceil(2);
            let pushed = (producers * ops) as u64;
            let (drained, _) = run_typed_tx(typed, 0, |tx| {
                let mut n = 0u64;
                while tx.pop(o)?.is_some() {
                    n += 1;
                }
                Ok(n)
            });
            let consumed = consumed.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(
                consumed + drained,
                pushed,
                "{}: stack conservation (consumed {consumed} + drained {drained} != pushed {pushed})",
                typed.name()
            );
        }
        ObjectKind::PQueue => {
            let (order, _) = run_typed_tx(typed, 0, |tx| {
                let mut out = Vec::new();
                while let Some(v) = tx.extract_min(o)? {
                    out.push(v);
                }
                Ok(out)
            });
            assert_eq!(
                order.len() as i64,
                total,
                "{}: pqueue conservation",
                typed.name()
            );
            assert!(
                order.windows(2).all(|w| w[0] <= w[1]),
                "{}: pqueue drained out of order: {order:?}",
                typed.name()
            );
        }
        ObjectKind::Log => {
            let (contents, _) = run_typed_tx(typed, 0, |tx| tx.log_read(o));
            assert_eq!(
                contents.len() as i64,
                total,
                "{}: log conservation",
                typed.name()
            );
        }
        ObjectKind::Set => {
            let (leftover, _) = run_typed_tx(typed, 0, |tx| {
                let mut n = 0;
                for v in 0..8 {
                    if tx.contains(o, v)? {
                        n += 1;
                    }
                }
                Ok(n)
            });
            assert_eq!(leftover, 0, "{}: set storm must end empty", typed.name());
        }
        ObjectKind::Map | ObjectKind::Register => {
            // Last-committed-write wins: nothing stronger to assert, but the
            // read must succeed.
            run_typed_tx(typed, 0, |tx| match kind {
                ObjectKind::Map => tx.map_get(o, 0).map(|_| ()),
                _ => tx.read_reg(o).map(|_| ()),
            });
        }
    }
    stats.into_inner().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every suite TM over `k` registers, recording off.
    fn quiet_suite(k: usize) -> Vec<Box<dyn Stm>> {
        let cfg = tm_stm::StmConfig::new(k).recording(false);
        let suite = tm_stm::TmRegistry::suite();
        suite.specs().iter().map(|s| s.build(&cfg)).collect()
    }

    #[test]
    fn bank_conserves_money_on_every_stm() {
        for stm in quiet_suite(8) {
            let s = bank(stm.as_ref(), 3, 8, 30, 42);
            assert!(s.commits >= 3 * 30, "{}", stm.name());
        }
    }

    #[test]
    fn counter_counts_on_every_stm() {
        for stm in quiet_suite(1) {
            let s = counter(stm.as_ref(), 3, 25);
            assert_eq!(s.commits, (3 * 25), "{}", stm.name());
            assert!(s.abort_rate() < 1.0);
        }
    }

    #[test]
    fn read_mostly_completes() {
        for stm in quiet_suite(16) {
            let s = read_mostly(stm.as_ref(), 2, 40, 5, 10, 7);
            assert!(s.commits >= 80, "{}", stm.name());
        }
    }

    #[test]
    fn commit_storm_commits_every_attempt_on_disjoint_registers() {
        // The commit-storm workload: zero aborts by construction, on every
        // clocked TM (and on a clockless TM for good measure).
        let reg = tm_stm::TmRegistry::suite();
        for spec in ["tl2", "mvstm", "sistm", "dstm"] {
            let stm = reg
                .get(spec)
                .expect("valid spec")
                .build(&tm_stm::StmConfig::new(4).recording(false));
            let s = commit_storm(stm.as_ref(), 4, 50);
            assert_eq!(s.commits, 200, "{spec}");
            assert_eq!(s.aborts, 0, "{spec}: disjoint writes must not conflict");
        }
    }

    #[test]
    fn typed_storm_invariants_hold_on_every_stm_and_kind() {
        let threads = 3;
        let ops = 12;
        let reg = tm_stm::TmRegistry::suite();
        for kind in ObjectKind::ALL {
            for spec in reg.specs() {
                let name = spec.name;
                let typed = TypedStm::new(kind.standard_space(threads * ops), |k| {
                    spec.build(&tm_stm::StmConfig::new(k).recording(false))
                });
                let s = typed_storm(&typed, kind, threads, ops);
                assert!(
                    s.commits >= (threads * ops) as u64,
                    "{name}/{kind}: {} commits",
                    s.commits
                );
            }
        }
    }

    #[test]
    fn abort_rate_math() {
        let s = WorkloadStats {
            commits: 75,
            aborts: 25,
        };
        assert!((s.abort_rate() - 0.25).abs() < 1e-9);
        assert_eq!(WorkloadStats::default().abort_rate(), 0.0);
    }
}
