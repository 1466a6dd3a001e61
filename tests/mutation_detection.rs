//! Experiment E19: mutation testing — the checkers as protocol bug-finders.
//!
//! The paper's opening argument is that without a formal correctness
//! condition "it is impossible to check the correctness of these
//! implementations". Here that claim is run in reverse: realistic bugs are
//! planted into a TL2-style protocol (`tm_stm::mutants`), adversarial
//! programs are swept through every interleaving by the deterministic
//! explorer, and the recorded histories are judged by the Definition-1
//! checker and the serializability checker. Every mutant is caught; the
//! faithful baseline never is; and the two mutants are separated by *which*
//! oracle catches them:
//!
//! * `SkipReadValidation` is invisible to serializability (its committed
//!   transactions stay serializable) — only the opacity checker flags it;
//! * `SkipCommitValidation` already breaks serializability (lost updates);
//! * the baseline passes both on all schedules.
//!
//! This is exactly the practical value the paper ascribes to opacity as a
//! checkable criterion, demonstrated end-to-end.

use opacity_tm::harness::{all_schedules, execute, Program, TxScript};
use opacity_tm::model::SpecRegistry;
use opacity_tm::opacity::criteria::is_serializable;
use opacity_tm::opacity::opacity::is_opaque;
use opacity_tm::stm::{run_tx, MutantStm, Mutation, Stm, StmConfig};

fn specs() -> SpecRegistry {
    SpecRegistry::registers()
}

/// The reader-vs-writer probe program (the §2 hazard shape).
fn reader_vs_writer() -> Program {
    Program::new(vec![
        TxScript::new().read(0).read(1),
        TxScript::new().write(0, 7).write(1, 7),
    ])
}

/// The lost-update probe program: two read-modify-writes on one register.
fn rmw_vs_rmw() -> Program {
    Program::new(vec![
        TxScript::new().read(0).write(0, 100),
        TxScript::new().read(0).write(0, 200),
    ])
}

/// Sweeps every interleaving of `program`, returning how many produced
/// (non-opaque, non-serializable) histories.
fn sweep(mutation: Mutation, program: &Program) -> (usize, usize) {
    let mut non_opaque = 0;
    let mut non_serializable = 0;
    for sched in all_schedules(&program.action_counts(), 200) {
        let stm = MutantStm::new(2, mutation);
        // Distinguishable initial state.
        run_tx(&stm, 0, |tx| {
            tx.write(0, 1)?;
            tx.write(1, 1)
        });
        execute(&stm, program, &sched);
        let h = stm.recorder().history();
        assert!(
            opacity_tm::model::is_well_formed(&h),
            "{}: ill-formed history under {sched:?}: {h}",
            mutation.name()
        );
        if !is_opaque(&h, &specs()).unwrap().opaque {
            non_opaque += 1;
        }
        if !is_serializable(&h, &specs()).unwrap() {
            non_serializable += 1;
        }
    }
    (non_opaque, non_serializable)
}

#[test]
fn baseline_is_never_flagged() {
    for program in [reader_vs_writer(), rmw_vs_rmw()] {
        let (non_opaque, non_ser) = sweep(Mutation::None, &program);
        assert_eq!(non_opaque, 0, "faithful protocol flagged as non-opaque");
        assert_eq!(non_ser, 0, "faithful protocol flagged as non-serializable");
    }
}

#[test]
fn skip_read_validation_caught_by_opacity_only() {
    let (non_opaque, non_ser) = sweep(Mutation::SkipReadValidation, &reader_vs_writer());
    assert!(
        non_opaque > 0,
        "the opacity checker must catch the inconsistent-read mutant"
    );
    assert_eq!(
        non_ser, 0,
        "committed transactions of this mutant stay serializable — the bug \
         is invisible to the classical criterion"
    );
}

#[test]
fn skip_commit_validation_caught_by_serializability() {
    let (non_opaque, non_ser) = sweep(Mutation::SkipCommitValidation, &rmw_vs_rmw());
    assert!(non_ser > 0, "lost updates must break serializability");
    // Non-serializable implies non-opaque; the counts agree on that.
    assert!(non_opaque >= non_ser);
}

#[test]
fn lost_update_mutant_breaks_semantic_invariant_under_threads() {
    // The same bug, caught the systems way: a threaded counter loses
    // increments. Unlike the explorer sweep this is probabilistic in
    // *which* increments collide, but with no validation at all every
    // concurrent overlap loses an update, so detection over a few hundred
    // increments is effectively certain.
    let quiet = StmConfig::new(1).recording(false);
    let stm = MutantStm::with_config(&quiet, Mutation::SkipCommitValidation);
    let per_thread = 400;
    std::thread::scope(|scope| {
        for t in 0..2 {
            let stm = &stm;
            scope.spawn(move || {
                for _ in 0..per_thread {
                    run_tx(stm, t, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                }
            });
        }
    });
    let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
    assert!(
        v <= 2 * per_thread,
        "counter can never exceed the number of increments"
    );
    // The faithful baseline must conserve every increment under the very
    // same load (regression guard for the harness itself).
    let good = MutantStm::with_config(&quiet, Mutation::None);
    std::thread::scope(|scope| {
        for t in 0..2 {
            let good = &good;
            scope.spawn(move || {
                for _ in 0..per_thread {
                    run_tx(good, t, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                }
            });
        }
    });
    let (v, _) = run_tx(&good, 0, |tx| tx.read(0));
    assert_eq!(v, 2 * per_thread, "baseline must not lose updates");
}

#[test]
fn mutant_write_skew_shape_commits_a_cycle() {
    // Deterministic non-serializable commit under SkipCommitValidation:
    // T1 reads x then writes y; T2 reads y then writes x; both commit.
    let stm = MutantStm::new(2, Mutation::SkipCommitValidation);
    let p = Program::new(vec![
        TxScript::new().read(0).write(1, 5),
        TxScript::new().read(1).write(0, 9),
    ]);
    // Fully overlapped: all reads happen before either commit.
    let out = execute(&stm, &p, &[0, 1, 0, 1, 0, 1]);
    assert_eq!(out.commits(), 2, "the mutant must commit the cycle");
    let h = stm.recorder().history();
    assert!(!is_serializable(&h, &specs()).unwrap(), "{h}");
    assert!(!is_opaque(&h, &specs()).unwrap().opaque, "{h}");
}

#[test]
fn every_mutant_is_distinguished_from_the_baseline() {
    // The summary table of E19: for each *validation* mutant, at least one
    // probe program and oracle separates it from Mutation::None. The two
    // seeded concurrency mutants (DroppedResidue, UnlicensedFastPath) are
    // deliberately excluded: op-granular interleavings cannot split a clock
    // tick, so this sweep cannot catch them — that blind spot belongs to
    // the step-level explorer (`tm_harness::dpor`), whose convictions are
    // pinned in `crates/harness/tests/race_analysis.rs`.
    let mut caught = 0;
    for m in [Mutation::SkipReadValidation, Mutation::SkipCommitValidation] {
        let mut flagged = false;
        for program in [reader_vs_writer(), rmw_vs_rmw()] {
            let (non_opaque, non_ser) = sweep(m, &program);
            if non_opaque > 0 || non_ser > 0 {
                flagged = true;
            }
        }
        assert!(flagged, "{}: no oracle caught this mutant", m.name());
        caught += 1;
    }
    assert_eq!(caught, 2);
}

#[test]
fn concurrency_mutants_are_invisible_to_op_level_sweeps() {
    // The negative half of the argument for step-level analysis: the two
    // concurrency mutants sail through every op-granular interleaving of
    // both probes, on both oracles.
    for m in [Mutation::DroppedResidue, Mutation::UnlicensedFastPath] {
        for program in [reader_vs_writer(), rmw_vs_rmw()] {
            let (non_opaque, non_ser) = sweep(m, &program);
            assert_eq!(
                (non_opaque, non_ser),
                (0, 0),
                "{}: an op-level sweep should NOT catch this mutant",
                m.name()
            );
        }
    }
}
