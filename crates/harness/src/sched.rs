//! The deterministic interleaving explorer.
//!
//! Executes a [`Program`] against a TM under an explicit [`Schedule`] — a
//! sequence of thread indices, each meaning "that thread performs its next
//! action (operation or commit)". Because every TM in `tm-stm` except the
//! global-lock one is non-blocking at operation granularity, a single OS
//! thread can drive any interleaving, making anomalies (and their absence)
//! perfectly reproducible. The global lock runs through the same
//! [`execute`] on schedules that never overlap two transactions.
//!
//! * exhaustive enumeration of all interleavings of small programs
//!   ([`all_schedules`]) powers the opacity-validation experiment E11 and,
//!   through `sweep_schedules`, both conformance batteries;
//! * seeded random schedules ([`random_schedule`]) scale to larger programs;
//! * hand-written schedules reproduce the paper's scenarios exactly (the
//!   proof sketch of Theorem 3, TL2's non-progressiveness, the Section 2
//!   inconsistent-view hazard).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::script::{Program, ScriptOp};
use tm_stm::{StepReport, Stm, Tx};

/// A schedule: thread indices in the order they take actions.
pub type Schedule = Vec<usize>;

/// The fate and observations of one scripted transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxOutcome {
    /// Did the transaction commit?
    pub committed: bool,
    /// Values returned by its reads, in script order (stops early if the
    /// transaction aborted mid-script).
    pub reads: Vec<i64>,
    /// Per-operation step report.
    pub steps: StepReport,
}

/// The result of executing a program under a schedule.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// Per-thread transaction outcomes.
    pub txs: Vec<TxOutcome>,
}

impl ExecOutcome {
    /// Number of committed transactions.
    pub fn commits(&self) -> usize {
        self.txs.iter().filter(|t| t.committed).count()
    }
}

/// Executes `program` on `stm` under `schedule`.
///
/// Schedule entries pointing at finished (committed/aborted) threads are
/// skipped, so any sequence long enough is valid; [`complete_schedule`]
/// appends a round-robin tail to guarantee completion.
///
/// # Panics
/// Panics if `stm` is blocking (the global lock) and the schedule begins a
/// transaction while another is live: on one OS thread that `begin` would
/// wait forever. Serial schedules drive a blocking TM fine.
pub fn execute(stm: &dyn Stm, program: &Program, schedule: &[usize]) -> ExecOutcome {
    assert!(
        stm.k() >= program.required_k(),
        "program touches register {} but TM has k={}",
        program.required_k().saturating_sub(1),
        stm.k()
    );
    struct Thread<'a> {
        tx: Option<Box<dyn Tx + 'a>>,
        pc: usize,
        committed: bool,
        aborted: bool,
        reads: Vec<i64>,
        steps: StepReport,
    }
    let mut threads: Vec<Thread<'_>> = (0..program.threads.len())
        .map(|_| Thread {
            tx: None, // began lazily at the thread's first scheduled action
            pc: 0,
            committed: false,
            aborted: false,
            reads: Vec::new(),
            steps: StepReport::default(),
        })
        .collect();

    for &ti in schedule {
        let script = &program.threads[ti];
        if threads[ti].committed || threads[ti].aborted {
            continue;
        }
        if threads[ti].tx.is_none() {
            assert!(
                !stm.blocking() || threads.iter().all(|t| t.tx.is_none()),
                "blocking TM '{}' cannot be interleaved on one OS thread",
                stm.name()
            );
            threads[ti].tx = Some(stm.begin(ti));
        }
        let t = &mut threads[ti];
        if t.pc < script.ops.len() {
            let tx = t.tx.as_mut().expect("live thread has a tx");
            let result = match script.ops[t.pc] {
                ScriptOp::Read(obj) => tx.read(obj).map(|v| t.reads.push(v)),
                ScriptOp::Write(obj, v) => tx.write(obj, v),
            };
            t.steps = tx.steps();
            t.pc += 1;
            if result.is_err() {
                t.aborted = true;
                t.tx = None;
            }
        } else {
            // Final action: commit.
            let tx = t.tx.take().expect("live thread has a tx");
            let steps_before = tx.steps();
            match tx.commit() {
                Ok(()) => t.committed = true,
                Err(_) => t.aborted = true,
            }
            t.steps = steps_before;
        }
    }

    ExecOutcome {
        txs: threads
            .into_iter()
            .map(|t| TxOutcome {
                committed: t.committed,
                reads: t.reads,
                steps: t.steps,
            })
            .collect(),
    }
}

/// Appends a round-robin tail so that every thread finishes even if
/// `schedule` is short.
pub fn complete_schedule(program: &Program, schedule: &[usize]) -> Schedule {
    let mut out = schedule.to_vec();
    let counts = program.action_counts();
    for (i, c) in counts.iter().enumerate() {
        for _ in 0..*c {
            out.push(i);
        }
    }
    out
}

/// Enumerates all interleavings of threads with the given action counts.
///
/// The number of interleavings is the multinomial coefficient; the function
/// panics if it would exceed `limit` (protecting tests from explosion).
pub fn all_schedules(action_counts: &[usize], limit: usize) -> Vec<Schedule> {
    let total: usize = action_counts.iter().sum();
    let mut out = Vec::new();
    let mut remaining = action_counts.to_vec();
    let mut prefix = Vec::with_capacity(total);
    fn rec(
        remaining: &mut [usize],
        prefix: &mut Vec<usize>,
        total: usize,
        out: &mut Vec<Schedule>,
        limit: usize,
    ) {
        if prefix.len() == total {
            assert!(
                out.len() < limit,
                "interleaving enumeration exceeds limit {limit}"
            );
            out.push(prefix.clone());
            return;
        }
        for i in 0..remaining.len() {
            if remaining[i] > 0 {
                remaining[i] -= 1;
                prefix.push(i);
                rec(remaining, prefix, total, out, limit);
                prefix.pop();
                remaining[i] += 1;
            }
        }
    }
    rec(&mut remaining, &mut prefix, total, &mut out, limit);
    out
}

/// The schedules a conformance battery sweeps for a program with these
/// per-thread action counts: every interleaving, or for a blocking TM,
/// whose transactions cannot overlap on one OS thread, the two serial
/// orders (threads ascending, then descending).
pub(crate) fn sweep_schedules(action_counts: &[usize], blocking: bool) -> Vec<Schedule> {
    if !blocking {
        return all_schedules(action_counts, 200);
    }
    let serial = |order: &mut dyn Iterator<Item = usize>| -> Schedule {
        order
            .flat_map(|t| std::iter::repeat(t).take(action_counts[t]))
            .collect()
    };
    let n = action_counts.len();
    vec![serial(&mut (0..n)), serial(&mut (0..n).rev())]
}

/// A seeded random interleaving of the program's actions.
pub fn random_schedule(program: &Program, seed: u64) -> Schedule {
    let mut sched: Schedule = Vec::new();
    for (i, c) in program.action_counts().iter().enumerate() {
        for _ in 0..*c {
            sched.push(i);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    sched.shuffle(&mut rng);
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::TxScript;
    use tm_stm::{GlockStm, NonOpaqueStm, Tl2Stm};

    fn two_thread_program() -> Program {
        Program::new(vec![
            TxScript::new().read(0).read(1),
            TxScript::new().write(0, 4).write(1, 4),
        ])
    }

    #[test]
    fn serial_schedules_commit_everything() {
        let p = two_thread_program();
        let stm = Tl2Stm::new(2);
        // Thread 0 fully, then thread 1.
        let out = execute(&stm, &p, &[0, 0, 0, 1, 1, 1]);
        assert_eq!(out.commits(), 2);
        assert_eq!(out.txs[0].reads, vec![0, 0]);
    }

    #[test]
    fn schedule_count_is_multinomial() {
        // 3 + 3 actions: C(6,3) = 20 interleavings.
        let scheds = all_schedules(&[3, 3], 1000);
        assert_eq!(scheds.len(), 20);
        // 2+2+2: 6!/(2!2!2!) = 90.
        assert_eq!(all_schedules(&[2, 2, 2], 1000).len(), 90);
    }

    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn enumeration_limit_guards() {
        all_schedules(&[8, 8], 100);
    }

    #[test]
    fn nonopaque_inconsistent_read_is_reproducible() {
        // The deterministic version of the Section 2 hazard: reader sees
        // r0 before the writer and r1 after it.
        let p = two_thread_program();
        let stm = NonOpaqueStm::new(2);
        // Reader reads r0; writer does everything and commits; reader
        // reads r1 (inconsistent!), then tries to commit (fails).
        let out = execute(&stm, &p, &[0, 1, 1, 1, 0, 0]);
        assert_eq!(out.txs[0].reads, vec![0, 4], "mixed snapshot expected");
        assert!(!out.txs[0].committed);
        assert!(out.txs[1].committed);
    }

    #[test]
    fn tl2_never_returns_inconsistent_reads_in_any_interleaving() {
        let p = two_thread_program();
        for sched in all_schedules(&p.action_counts(), 100) {
            let stm = Tl2Stm::new(2);
            let out = execute(&stm, &p, &sched);
            // Whatever happened, completed read pairs are consistent:
            // (0,0) or (4,4), never mixed.
            if out.txs[0].reads.len() == 2 {
                let r = &out.txs[0].reads;
                assert!(r == &vec![0, 0] || r == &vec![4, 4], "{sched:?}: {r:?}");
            }
        }
    }

    #[test]
    fn random_schedule_is_a_permutation_of_actions() {
        let p = two_thread_program();
        let s = random_schedule(&p, 42);
        assert_eq!(s.len(), 6);
        assert_eq!(s.iter().filter(|&&t| t == 0).count(), 3);
        // Seeded: reproducible.
        assert_eq!(s, random_schedule(&p, 42));
    }

    #[test]
    fn complete_schedule_finishes_everyone() {
        let p = two_thread_program();
        let stm = Tl2Stm::new(2);
        let sched = complete_schedule(&p, &[1, 0]);
        let out = execute(&stm, &p, &sched);
        assert_eq!(out.txs.len(), 2);
        assert!(out.txs.iter().all(|t| t.committed || !t.reads.is_empty()));
        assert_eq!(
            out.commits() + out.txs.iter().filter(|t| !t.committed).count(),
            2
        );
    }

    #[test]
    fn blocking_tm_runs_its_serial_sweep() {
        let p = two_thread_program();
        let serial = sweep_schedules(&p.action_counts(), true);
        assert_eq!(serial, vec![vec![0, 0, 0, 1, 1, 1], vec![1, 1, 1, 0, 0, 0]]);
        for sched in serial {
            assert_eq!(execute(&GlockStm::new(2), &p, &sched).commits(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "blocking TM 'glock' cannot be interleaved")]
    fn blocking_tm_refuses_a_second_live_transaction() {
        execute(
            &GlockStm::new(2),
            &two_thread_program(),
            &[0, 1, 0, 1, 0, 1],
        );
    }

    #[test]
    fn skipped_entries_for_finished_threads() {
        let p = Program::new(vec![TxScript::new().read(0)]);
        let stm = Tl2Stm::new(1);
        // Far more entries than actions: extras are ignored.
        let out = execute(&stm, &p, &[0; 10]);
        assert_eq!(out.commits(), 1);
    }
}

/// Counts inversions of `schedule` relative to the fully serial order
/// (all of thread 0's actions, then thread 1's, …): the number of action
/// pairs executed in the "wrong" (concurrent) order. A serial schedule has
/// 0 inversions; the count measures how much genuine interleaving remains.
pub fn inversions(schedule: &[usize]) -> usize {
    let mut count = 0;
    for i in 0..schedule.len() {
        for j in i + 1..schedule.len() {
            if schedule[i] > schedule[j] {
                count += 1;
            }
        }
    }
    count
}

/// Shrinks a failure-inducing schedule towards seriality while preserving
/// a property (greedy adjacent-swap hill climbing).
///
/// Given a schedule under which `violates` holds (e.g. "the recorded
/// history is not opaque"), repeatedly tries to swap adjacent actions of
/// different threads into serial order; a swap is kept iff the property
/// still holds. The fixpoint is locally minimal: undoing any single
/// remaining inversion destroys the violation, so the surviving
/// out-of-order pairs *are* the essential race — the first thing a TM
/// designer wants from a failing fuzz run.
///
/// `violates` must be deterministic (drive a fresh TM through the explorer
/// inside it). Cost: O(len²) in the worst case times the cost of one run.
pub fn shrink_schedule(schedule: &[usize], mut violates: impl FnMut(&[usize]) -> bool) -> Schedule {
    assert!(
        violates(schedule),
        "shrink_schedule needs a violating schedule"
    );
    let mut current = schedule.to_vec();
    loop {
        let mut improved = false;
        for i in 0..current.len().saturating_sub(1) {
            if current[i] > current[i + 1] {
                current.swap(i, i + 1);
                if violates(&current) {
                    improved = true;
                } else {
                    current.swap(i, i + 1); // revert
                }
            }
        }
        if !improved {
            return current;
        }
    }
}

#[cfg(test)]
mod shrink_tests {
    use super::*;
    use crate::script::TxScript;
    use tm_stm::NonOpaqueStm;

    #[test]
    fn inversion_counting() {
        assert_eq!(inversions(&[0, 0, 1, 1]), 0);
        assert_eq!(inversions(&[1, 0]), 1);
        assert_eq!(inversions(&[1, 1, 0, 0]), 4);
    }

    #[test]
    fn shrinks_to_the_essential_race() {
        // Reader-vs-writer on the commit-time validator: find any violating
        // schedule, then shrink it. The §2 fracture needs the writer's
        // commit BETWEEN the two reads — at least one inversion must
        // survive, and the shrunk schedule must still violate.
        let p = Program::new(vec![
            TxScript::new().read(0).read(1),
            TxScript::new().write(0, 7).write(1, 7),
        ]);
        let violates = |sched: &[usize]| {
            let stm = NonOpaqueStm::new(2);
            tm_stm::run_tx(&stm, 0, |tx| {
                tx.write(0, 1)?;
                tx.write(1, 1)
            });
            execute(&stm, &p, sched);
            let h = stm.recorder().history();
            !tm_opacity::opacity::is_opaque(&h, &tm_model::SpecRegistry::registers())
                .unwrap()
                .opaque
        };
        let bad = all_schedules(&p.action_counts(), 100)
            .into_iter()
            .rev() // start from a maximally-interleaved one
            .find(|s| violates(s))
            .expect("some schedule violates");
        let shrunk = shrink_schedule(&bad, violates);
        assert!(violates(&shrunk), "shrinking must preserve the violation");
        assert!(
            inversions(&shrunk) <= inversions(&bad),
            "shrinking must not add interleaving"
        );
        // Local minimality: undoing any remaining inversion kills it.
        for i in 0..shrunk.len() - 1 {
            if shrunk[i] > shrunk[i + 1] {
                let mut undone = shrunk.clone();
                undone.swap(i, i + 1);
                assert!(
                    !violates(&undone),
                    "shrunk schedule is not locally minimal at {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a violating schedule")]
    fn rejects_non_violating_input() {
        shrink_schedule(&[0, 1], |_| false);
    }
}
