//! Experiment E11: the paper's Section 1 claim — "most TM systems we know
//! of do ensure opacity" — validated behaviourally.
//!
//! Every opaque-by-design TM must produce opaque histories under
//! (a) exhaustive interleavings of small adversarial programs, (b) seeded
//! random interleavings of bigger ones, and (c) genuinely concurrent
//! threads. The deliberately non-opaque TM must produce at least one
//! serializable-but-not-opaque history — exhibiting exactly the gap the
//! paper's lower bound is about.

use opacity_tm::harness::{all_schedules, execute, random_schedule, Program, TxScript};
use opacity_tm::model::{History, SpecRegistry};
use opacity_tm::opacity::criteria::is_serializable;
use opacity_tm::opacity::opacity::is_opaque;
use opacity_tm::stm::{run_tx, NonOpaqueStm, Stm, StmConfig, TmRegistry};

/// Every opaque-by-design suite TM over `k` registers.
fn opaque_suite(k: usize) -> Vec<Box<dyn Stm>> {
    let suite = TmRegistry::suite();
    let opaque = suite
        .specs()
        .iter()
        .filter(|s| s.properties.opaque_by_design);
    opaque.map(|s| s.build(&StmConfig::new(k))).collect()
}

fn specs() -> SpecRegistry {
    SpecRegistry::registers()
}

fn assert_opaque(h: &History, who: &str, context: &str) {
    let r = is_opaque(h, &specs()).unwrap();
    assert!(
        r.opaque,
        "{who} produced a non-opaque history under {context}:\n{h}"
    );
}

/// The adversarial two-thread program: a scanning reader racing a
/// multi-object writer — the shape that exposes inconsistent snapshots.
fn reader_vs_writer() -> Program {
    Program::new(vec![
        TxScript::new().read(0).read(1),
        TxScript::new().write(0, 7).write(1, 7),
    ])
}

/// A three-thread mix: reader, writer, read-modify-write.
fn three_way() -> Program {
    Program::new(vec![
        TxScript::new().read(0).read(1),
        TxScript::new().write(0, 5),
        TxScript::new().read(1).write(1, 9),
    ])
}

#[test]
fn opaque_stms_exhaustive_interleavings_reader_vs_writer() {
    let p = reader_vs_writer();
    let schedules = all_schedules(&p.action_counts(), 100);
    assert_eq!(schedules.len(), 20);
    for sched in &schedules {
        for stm in opaque_suite(2) {
            if stm.blocking() {
                continue;
            }
            execute(stm.as_ref(), &p, sched);
            assert_opaque(
                &stm.recorder().history(),
                stm.name(),
                &format!("schedule {sched:?}"),
            );
        }
    }
}

#[test]
fn opaque_stms_exhaustive_interleavings_three_way() {
    let p = three_way();
    // (2+1, 1+1, 2+1) actions: 8!/(3!2!3!) = 560 interleavings.
    let schedules = all_schedules(&p.action_counts(), 1000);
    assert_eq!(schedules.len(), 560);
    for (i, sched) in schedules.iter().enumerate() {
        // Exhaustive interleavings over all TMs is expensive with the
        // checker in the loop; sample every third schedule for breadth.
        if i % 3 != 0 {
            continue;
        }
        for stm in opaque_suite(2) {
            if stm.blocking() {
                continue;
            }
            execute(stm.as_ref(), &p, sched);
            assert_opaque(
                &stm.recorder().history(),
                stm.name(),
                &format!("schedule {sched:?}"),
            );
        }
    }
}

#[test]
fn opaque_stms_random_interleavings_larger_program() {
    let p = Program::new(vec![
        TxScript::new().read(0).read(1).read(2).read(3),
        TxScript::new().write(0, 1).write(2, 1),
        TxScript::new().write(1, 2).write(3, 2),
        TxScript::new().read(2).write(3, 3),
    ]);
    for seed in 0..40 {
        let sched = random_schedule(&p, seed);
        for stm in opaque_suite(4) {
            if stm.blocking() {
                continue;
            }
            execute(stm.as_ref(), &p, &sched);
            assert_opaque(
                &stm.recorder().history(),
                stm.name(),
                &format!("seed {seed}"),
            );
        }
    }
}

#[test]
fn opaque_stms_threaded_histories_are_opaque() {
    // Real threads, real races; small scale so the checker stays fast.
    for stm in opaque_suite(3) {
        let stm = stm.as_ref();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..2 {
                    run_tx(stm, 0, |tx| {
                        let a = tx.read(0)?;
                        tx.write(1, a + 1)
                    });
                }
            });
            s.spawn(|| {
                for _ in 0..2 {
                    run_tx(stm, 1, |tx| {
                        tx.write(0, 10)?;
                        tx.write(2, 20)
                    });
                }
            });
        });
        assert_opaque(&stm.recorder().history(), stm.name(), "2 threads × 2 txs");
    }
}

#[test]
fn nonopaque_stm_produces_serializable_but_not_opaque_history() {
    // The deterministic witness: reader sees r0 before the writer commits
    // and r1 after — the Figure-1 anomaly, live.
    let stm = NonOpaqueStm::new(2);
    // Seed the registers so values are distinguishable.
    run_tx(&stm, 0, |tx| {
        tx.write(0, 1)?;
        tx.write(1, 1)
    });
    let p = reader_vs_writer();
    let sched = vec![0usize, 1, 1, 1, 0, 0];
    let out = execute(&stm, &p, &sched);
    assert_eq!(out.txs[0].reads, vec![1, 7], "the mixed snapshot");
    let h = stm.recorder().history();
    let r = is_opaque(&h, &specs()).unwrap();
    assert!(!r.opaque, "the recorded history must violate opacity:\n{h}");
    assert!(
        is_serializable(&h, &specs()).unwrap(),
        "committed transactions remain serializable:\n{h}"
    );
}

#[test]
fn nonopaque_violations_found_by_exhaustive_search() {
    // Sweep all interleavings; count how many produce opacity violations.
    let p = reader_vs_writer();
    let mut violations = 0;
    for sched in all_schedules(&p.action_counts(), 100) {
        let stm = NonOpaqueStm::new(2);
        run_tx(&stm, 0, |tx| {
            tx.write(0, 1)?;
            tx.write(1, 1)
        });
        execute(&stm, &p, &sched);
        let h = stm.recorder().history();
        if !is_opaque(&h, &specs()).unwrap().opaque {
            violations += 1;
        }
    }
    assert!(
        violations > 0,
        "commit-time-only validation must violate opacity in some interleaving"
    );
}
