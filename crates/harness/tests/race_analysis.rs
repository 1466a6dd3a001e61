//! Step-level race analysis: convictions, acquittals, and the POR
//! soundness check.
//!
//! The op-level mutation experiment (`tests/mutation_detection.rs`) ends
//! with a blind spot: the two seeded *concurrency* mutants are invisible to
//! any op-granular sweep, because an op-level schedule can never split a
//! clock tick between its load and its CAS. This suite is the other half
//! of that argument:
//!
//! * both concurrency mutants are **convicted** by the step-level explorer,
//!   each with a minimized, replayable schedule artifact;
//! * every TM that is opaque by design is **acquitted** on the probes:
//!   every explored run's recorded history is opaque and its step trace
//!   race-free — while `nonopaque`'s torn reads and `sistm`'s *documented*
//!   write skew are found (true positives on real TMs, not false alarms);
//! * the sleep-set reduction explores strictly fewer interleavings than
//!   naive enumeration while observing the **identical outcome set**, for
//!   every non-blocking TM — checked on fixed programs and on
//!   property-tested random tiny programs.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tm_harness::dpor::{
    convictions, explore, probed_config, replay_schedule, ConvictionKind, DporConfig, SharedStm,
};
use tm_harness::race::RaceViolation;
use tm_harness::{shrink_schedule, Program, TxScript};
use tm_model::{History, SpecRegistry};
use tm_opacity::opacity::is_opaque;
use tm_stm::trace_cells::StepProbe;
use tm_stm::{
    AstmStm, DstmStm, MutantStm, Mutation, MvStm, NonOpaqueStm, SiStm, Tl2Stm, TplStm, VisibleStm,
};

type Factory = Box<dyn Fn(Arc<dyn StepProbe>) -> SharedStm + Sync>;

/// Every non-blocking real TM. `glock` is excluded: it is blocking (a
/// worker would sit inside the global mutex across steps), and a global
/// lock admits no step-level interleaving to analyse in the first place.
fn real_tms(k: usize) -> Vec<(&'static str, Factory)> {
    vec![
        (
            "tl2",
            Box::new(move |p| Arc::new(Tl2Stm::with_config(&probed_config(k, p))) as SharedStm),
        ),
        (
            "mvstm",
            Box::new(move |p| Arc::new(MvStm::with_config(&probed_config(k, p))) as SharedStm),
        ),
        (
            "sistm",
            Box::new(move |p| Arc::new(SiStm::with_config(&probed_config(k, p))) as SharedStm),
        ),
        (
            "dstm",
            Box::new(move |p| Arc::new(DstmStm::with_config(&probed_config(k, p))) as SharedStm),
        ),
        (
            "visible",
            Box::new(move |p| Arc::new(VisibleStm::with_config(&probed_config(k, p))) as SharedStm),
        ),
        (
            "tpl",
            Box::new(move |p| Arc::new(TplStm::with_config(&probed_config(k, p))) as SharedStm),
        ),
        (
            "astm",
            Box::new(move |p| Arc::new(AstmStm::with_config(&probed_config(k, p))) as SharedStm),
        ),
        (
            "nonopaque",
            Box::new(move |p| {
                Arc::new(NonOpaqueStm::with_config(&probed_config(k, p))) as SharedStm
            }),
        ),
        (
            "mutant-none",
            Box::new(move |p| {
                Arc::new(MutantStm::with_config(&probed_config(k, p), Mutation::None)) as SharedStm
            }),
        ),
    ]
}

fn mutant_factory(k: usize, mutation: Mutation) -> Factory {
    Box::new(move |p| Arc::new(MutantStm::with_config(&probed_config(k, p), mutation)) as SharedStm)
}

/// The §2 hazard shape at step granularity.
fn reader_vs_writer() -> Program {
    Program::new(vec![
        TxScript::new().read(0).read(1),
        TxScript::new().write(0, 7).write(1, 7),
    ])
}

/// Two read-modify-writes on one register.
fn rmw_vs_rmw() -> Program {
    Program::new(vec![
        TxScript::new().read(0).write(0, 100),
        TxScript::new().read(0).write(0, 200),
    ])
}

/// Crossing read and write sets: committing both is write skew.
fn write_skew() -> Program {
    Program::new(vec![
        TxScript::new().read(0).write(1, 5),
        TxScript::new().read(1).write(0, 7),
    ])
}

// ---------------------------------------------------------------------------
// Convictions
// ---------------------------------------------------------------------------

#[test]
fn dropped_residue_is_convicted_with_a_minimized_replayable_schedule() {
    // Two blind writers on disjoint registers: the only interaction is the
    // clock tick itself, which the broken clock cannot keep collision-free
    // once the tick is split between its load and its CAS.
    let program = Program::new(vec![
        TxScript::new().write(0, 1),
        TxScript::new().write(1, 2),
    ]);
    let factory = mutant_factory(2, Mutation::DroppedResidue);
    let res = explore(
        &factory,
        &program,
        &DporConfig {
            preemption_bound: Some(2),
            stop_on_violation: true,
            ..DporConfig::default()
        },
    );
    let conviction = res
        .violations
        .iter()
        .find(|c| {
            matches!(
                c.kind,
                ConvictionKind::Race(RaceViolation::DuplicateStamp { .. })
            )
        })
        .expect("the residue-dropping clock must duplicate a stamp");

    // The schedule is a replayable artifact: re-running it on a fresh TM
    // reproduces the duplicate stamp deterministically.
    let convicts = |sched: &[usize]| {
        let replayed = replay_schedule(&factory, &program, sched);
        tm_harness::race::check(&replayed.trace, program.threads.len())
            .iter()
            .any(|v| matches!(v, RaceViolation::DuplicateStamp { .. }))
    };
    assert!(convicts(&conviction.schedule), "conviction must replay");

    // Minimize it: greedy adjacent de-inversion keeps only the essential
    // race (the two ticks interleaved load/load/CAS/CAS).
    let minimized = shrink_schedule(&conviction.schedule, convicts);
    assert!(
        convicts(&minimized),
        "minimized schedule must still convict"
    );
    assert!(
        tm_harness::inversions(&minimized) <= tm_harness::inversions(&conviction.schedule),
        "shrinking must not add disorder"
    );

    // And the fix is exactly the residue: the same schedule on the same
    // protocol with the residue kept is clean. That protocol is
    // UnlicensedFastPath's, whose bug needs a read set to skip — this
    // program is write-only, so its fast path cannot fire here.
    let fixed = mutant_factory(2, Mutation::UnlicensedFastPath);
    let replayed = replay_schedule(&fixed, &program, &minimized);
    assert_eq!(
        tm_harness::race::check(&replayed.trace, 2),
        vec![],
        "thread residues keep adopter stamps distinct"
    );
}

#[test]
fn unlicensed_fast_path_is_convicted_of_write_skew() {
    // Two transactions with crossing read/write sets commit in one clock
    // advance: the CAS winner ticks, the loser adopts its tick (its
    // tick-load read the old count, its CAS failed). Each sees "the clock
    // advanced exactly once since my begin", skips read validation — and
    // misses the other's write lock. Both commit: a write skew no serial
    // order explains, so the recorded history is not opaque. It takes two
    // preemptions; bounds 0 and 1 acquit.
    let program = Program::new(vec![
        TxScript::new().read(0).write(1, 5),
        TxScript::new().read(1).write(0, 7),
    ]);
    let factory = mutant_factory(2, Mutation::UnlicensedFastPath);
    let cfg = |bound| DporConfig {
        max_interleavings: 200_000,
        preemption_bound: Some(bound),
        check_races: false, // the faithful pass-on-failure clock is innocent here
        stop_on_violation: true,
        ..DporConfig::default()
    };
    for bound in [0, 1] {
        let res = explore(&factory, &program, &cfg(bound));
        assert!(!res.truncated, "bound {bound}");
        assert!(res.violations.is_empty(), "bound {bound} convicts");
    }
    let res = explore(&factory, &program, &cfg(2));
    let conviction = res
        .violations
        .iter()
        .find(|c| matches!(c.kind, ConvictionKind::NonOpaqueHistory))
        .expect("the unlicensed fast path must commit a write skew");

    // Replay the witness and inspect it: both crossing transactions
    // committed having read the *old* value of the other's write target.
    let convicts = |sched: &[usize]| {
        let r = replay_schedule(&factory, &program, sched);
        !convictions(&program, &r, false).is_empty()
    };
    assert!(convicts(&conviction.schedule), "conviction must replay");
    let witness = replay_schedule(&factory, &program, &conviction.schedule);
    assert!(witness.outcomes[0].committed && witness.outcomes[1].committed);
    assert_eq!(witness.outcomes[0].reads, vec![0], "skew: read pre-state");
    assert_eq!(witness.outcomes[1].reads, vec![0], "skew: read pre-state");

    let minimized = shrink_schedule(&conviction.schedule, convicts);
    assert!(
        convicts(&minimized),
        "minimized schedule must still convict"
    );

    // The licensed protocol (GV1, same schedule) refuses the skew:
    // at least one crosser validates, sees the other's lock or version,
    // and aborts.
    let baseline = mutant_factory(2, Mutation::None);
    let replayed = replay_schedule(&baseline, &program, &minimized);
    assert!(
        convictions(&program, &replayed, false).is_empty(),
        "the licensed protocol stays opaque on the convicting schedule"
    );
}

// ---------------------------------------------------------------------------
// Acquittals
// ---------------------------------------------------------------------------

#[test]
fn every_real_tm_is_acquitted_on_the_probe_programs() {
    // Every explored run is judged: its step trace by the race checker,
    // its recorded history by the opacity checker. A TM that is opaque by
    // design must be acquitted on every run. Commit-time-only validation
    // hands an aborted reader a torn snapshot, and snapshot isolation
    // commits write skew, so `nonopaque` and `sistm` must each be
    // convicted of a non-opaque history, and of nothing else.
    for (name, factory) in real_tms(2) {
        let mut convicted = Vec::new();
        for (pname, program) in [
            ("reader-vs-writer", reader_vs_writer()),
            ("rmw-vs-rmw", rmw_vs_rmw()),
            ("write-skew", write_skew()),
        ] {
            let res = explore(&factory, &program, &DporConfig::default());
            assert!(res.interleavings > 0, "{name}/{pname}: nothing explored");
            let kinds: Vec<String> = res.violations.iter().map(|c| c.kind.to_string()).collect();
            assert!(
                res.violations
                    .iter()
                    .all(|c| matches!(c.kind, ConvictionKind::NonOpaqueHistory)),
                "{name}/{pname}: {}",
                kinds.join("; ")
            );
            if !res.violations.is_empty() {
                convicted.push(pname);
            }
        }
        let expected: &[&str] = match name {
            "nonopaque" => &["reader-vs-writer"],
            "sistm" => &["write-skew"],
            _ => &[],
        };
        assert_eq!(convicted, expected, "{name}: convicted on");
    }
}

/// The recorded history of every stepped run of `program` under the
/// default explorer budget, abandoned branches included: every TM the
/// explorer builds (one per stepped run) is kept here.
fn stepped_histories(factory: &Factory, program: &Program, what: &str) -> Vec<History> {
    let kept: Mutex<Vec<SharedStm>> = Mutex::new(Vec::new());
    let keeping = |p: Arc<dyn StepProbe>| {
        let stm = factory(p);
        kept.lock().unwrap().push(Arc::clone(&stm));
        stm
    };
    let res = explore(&keeping, program, &DporConfig::default());
    let kept = kept.into_inner().unwrap();
    assert!(kept.len() >= res.interleavings, "{what}");
    kept.iter().map(|stm| stm.recorder().history()).collect()
}

#[test]
fn every_stepped_history_of_an_opaque_tm_is_opaque() {
    // The explorer judges the history of every run it completes. A branch
    // that is sleep-blocked or cut by the preemption bound is abandoned,
    // and its workers free-run the rest of their transactions unstepped;
    // those histories are recorded too. Here every stepped run's history,
    // abandoned branches included, goes to the opacity checker: the
    // opaque-by-design TMs must be acquitted on every one, and
    // commit-time-only validation must be convicted on some.
    let specs = SpecRegistry::registers();
    let judged = [
        "tl2",
        "mvstm",
        "dstm",
        "astm",
        "visible",
        "tpl",
        "nonopaque",
    ];
    for (name, factory) in real_tms(2) {
        if !judged.contains(&name) {
            continue;
        }
        let mut nonopaque = Vec::new();
        for (pname, program) in [
            ("reader-vs-writer", reader_vs_writer()),
            ("rmw-vs-rmw", rmw_vs_rmw()),
        ] {
            let torn = stepped_histories(&factory, &program, &format!("{name}/{pname}"))
                .iter()
                .filter(|h| !is_opaque(h, &specs).unwrap().opaque)
                .count();
            nonopaque.push((pname, torn));
        }
        if name == "nonopaque" {
            assert!(
                nonopaque.iter().any(|&(_, torn)| torn > 0),
                "commit-time-only validation must leak a torn read: {nonopaque:?}"
            );
        } else {
            assert!(
                nonopaque.iter().all(|&(_, torn)| torn == 0),
                "{name}: non-opaque stepped histories {nonopaque:?}"
            );
        }
    }
}

/// 64-bit FNV-1a, written out here so the pins below do not depend on a
/// hasher whose output may change between toolchains.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn distinct_stepped_histories_are_pinned() {
    // Where a TM records each event relative to its base-object steps
    // decides which histories the step-level interleavings produce: the
    // count and a digest of the distinct ones pin that order per TM.
    let mut got = Vec::new();
    let sabotaged = [
        Mutation::SkipReadValidation,
        Mutation::SkipCommitValidation,
        Mutation::DroppedResidue,
        Mutation::UnlicensedFastPath,
    ]
    .map(|m| (m.name(), mutant_factory(2, m)));
    for (name, factory) in real_tms(2).into_iter().chain(sabotaged) {
        for (pname, program) in [
            ("reader-vs-writer", reader_vs_writer()),
            ("rmw-vs-rmw", rmw_vs_rmw()),
        ] {
            // Only a completed interleaving is deterministic: a branch the
            // explorer abandons lets its threads free-run. A completed one
            // ends with the explorer's read-back transaction, one more
            // than the program's threads.
            let distinct: BTreeSet<String> =
                stepped_histories(&factory, &program, &format!("{name}/{pname}"))
                    .iter()
                    .filter(|h| h.txs().len() > program.threads.len())
                    .map(|h| format!("{h}\n"))
                    .collect();
            let digest = distinct
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |d, h| fnv1a(d, h.as_bytes()));
            got.push((name, pname, distinct.len(), digest));
        }
    }
    assert_eq!(
        got,
        vec![
            ("tl2", "reader-vs-writer", 13, 0x8811e20575a3d7d7),
            ("tl2", "rmw-vs-rmw", 18, 0x5f4cc12456a07bdd),
            ("mvstm", "reader-vs-writer", 7, 0x8017bbe80fa907e9),
            ("mvstm", "rmw-vs-rmw", 8, 0x3534e673820f125c),
            ("sistm", "reader-vs-writer", 7, 0x8017bbe80fa907e9),
            ("sistm", "rmw-vs-rmw", 8, 0x3534e673820f125c),
            // dstm's commit is three steps apart (announce, validate,
            // decide), so the other thread's events fall between more.
            ("dstm", "reader-vs-writer", 102, 0x65dc2f7fb8e0669e),
            ("dstm", "rmw-vs-rmw", 72, 0xb3850e5b7088db34),
            ("visible", "reader-vs-writer", 59, 0x172dea7d7c877127),
            ("visible", "rmw-vs-rmw", 66, 0x0261046d6a454635),
            ("tpl", "reader-vs-writer", 65, 0xe1c77af18511aabe),
            ("tpl", "rmw-vs-rmw", 90, 0xfb9f93840aa0b7de),
            ("astm", "reader-vs-writer", 18, 0xd0e3259f0eec3e5d),
            ("astm", "rmw-vs-rmw", 20, 0xfd61faec265bb36f),
            ("nonopaque", "reader-vs-writer", 22, 0x3132f51237681a53),
            ("nonopaque", "rmw-vs-rmw", 20, 0xfd61faec265bb36f),
            ("mutant-none", "reader-vs-writer", 13, 0x8811e20575a3d7d7),
            ("mutant-none", "rmw-vs-rmw", 18, 0x5f4cc12456a07bdd),
            (
                "mutant-skip-read-validation",
                "reader-vs-writer",
                43,
                0x66f1f4efbb02e9f6
            ),
            (
                "mutant-skip-read-validation",
                "rmw-vs-rmw",
                38,
                0xd04e8c72e70f4f39
            ),
            (
                "mutant-skip-commit-validation",
                "reader-vs-writer",
                13,
                0x8811e20575a3d7d7
            ),
            (
                "mutant-skip-commit-validation",
                "rmw-vs-rmw",
                22,
                0x07ab95b296f293fd
            ),
            (
                "mutant-dropped-residue",
                "reader-vs-writer",
                13,
                0x8811e20575a3d7d7
            ),
            (
                "mutant-dropped-residue",
                "rmw-vs-rmw",
                18,
                0x5f4cc12456a07bdd
            ),
            (
                "mutant-unlicensed-fast-path",
                "reader-vs-writer",
                13,
                0x8811e20575a3d7d7
            ),
            (
                "mutant-unlicensed-fast-path",
                "rmw-vs-rmw",
                18,
                0x5f4cc12456a07bdd
            ),
        ]
    );
}

#[test]
fn snapshot_isolation_write_skew_is_a_true_positive() {
    // `sistm` documents its own anomaly: snapshot reads plus write-set-only
    // validation commit write skew. The explorer finds exactly that — which
    // is evidence the history judge has teeth on *real* TMs, and that the
    // acquittals above are not vacuous.
    let program = write_skew();
    let factory: Factory =
        Box::new(move |p| Arc::new(SiStm::with_config(&probed_config(2, p))) as SharedStm);
    let res = explore(
        &factory,
        &program,
        &DporConfig {
            preemption_bound: Some(2),
            check_races: false,
            stop_on_violation: true,
            ..DporConfig::default()
        },
    );
    assert!(
        res.violations
            .iter()
            .any(|c| matches!(c.kind, ConvictionKind::NonOpaqueHistory)),
        "snapshot isolation's write skew must be found"
    );
}

// ---------------------------------------------------------------------------
// POR soundness: reduced exploration, identical outcomes
// ---------------------------------------------------------------------------

/// Explores `program` twice — naive and sleep-set — and checks the
/// reduction is sound (same outcomes) and effective (not more work).
fn naive_vs_reduced(name: &str, factory: &Factory, program: &Program) -> (usize, usize) {
    let quiet = DporConfig {
        max_interleavings: 60_000,
        check_races: false,
        ..DporConfig::default()
    };
    let naive = explore(
        factory,
        program,
        &DporConfig {
            sleep_sets: false,
            ..quiet.clone()
        },
    );
    let reduced = explore(factory, program, &quiet);
    assert!(
        !naive.truncated && !reduced.truncated,
        "{name}: budget too small for {program:?}"
    );
    assert_eq!(
        naive.outcomes, reduced.outcomes,
        "{name}: sleep sets must not lose an outcome on {program:?}"
    );
    assert!(
        reduced.interleavings <= naive.interleavings,
        "{name}: reduction cannot explore more"
    );
    (naive.interleavings, reduced.interleavings)
}

#[test]
fn sleep_sets_are_sound_and_strictly_reducing_on_every_tm() {
    // One-op-per-thread programs keep the naive side enumerable; across
    // them every dependence case (w/w, r/w, disjoint) is exercised.
    let programs = [
        Program::new(vec![
            TxScript::new().write(0, 1),
            TxScript::new().write(0, 2),
        ]),
        Program::new(vec![TxScript::new().read(0), TxScript::new().write(0, 7)]),
        Program::new(vec![
            TxScript::new().write(0, 1),
            TxScript::new().write(1, 2),
        ]),
    ];
    for (name, factory) in real_tms(2) {
        let mut naive_total = 0;
        let mut reduced_total = 0;
        for program in &programs {
            let (n, r) = naive_vs_reduced(name, &factory, program);
            naive_total += n;
            reduced_total += r;
        }
        assert!(
            reduced_total < naive_total,
            "{name}: sleep sets explored {reduced_total} of {naive_total} — no reduction at all"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random tiny programs and a random TM, the reduced exploration
    /// observes exactly the naive outcome set.
    #[test]
    fn dpor_equals_naive_on_random_tiny_programs(
        tm_idx in 0usize..11,
        a_write in 0u8..2,
        a_obj in 0usize..2,
        b_write in 0u8..2,
        b_obj in 0usize..2,
    ) {
        let mk = |write: u8, obj: usize, v: i64| {
            if write == 1 {
                TxScript::new().write(obj, v)
            } else {
                TxScript::new().read(obj)
            }
        };
        let program = Program::new(vec![mk(a_write, a_obj, 3), mk(b_write, b_obj, 4)]);
        let tms = real_tms(2);
        let (name, factory) = &tms[tm_idx % tms.len()];
        naive_vs_reduced(name, factory, &program);
    }
}

#[test]
fn dropped_residue_never_takes_the_fast_path() {
    // The residue-free clock's stamps satisfy `wv == rv + 1` whenever two
    // committers share one advance (`(c << 8 | 0xff) + 1 == (c + 1) << 8`),
    // so a mutant that trusted the GV1 fast path would inherit
    // UnlicensedFastPath's write skew on the same program. Its only bug is
    // the duplicate stamp: read-set validation must always run.
    let program = Program::new(vec![
        TxScript::new().read(0).write(1, 5),
        TxScript::new().read(1).write(0, 7),
        TxScript::new().write(2, 1),
    ]);
    let factory = mutant_factory(3, Mutation::DroppedResidue);
    let res = explore(
        &factory,
        &program,
        &DporConfig {
            max_interleavings: 200_000,
            preemption_bound: Some(3),
            check_races: false, // duplicate stamps are the other test's
            stop_on_violation: true,
            ..DporConfig::default()
        },
    );
    assert!(
        !res.violations
            .iter()
            .any(|c| matches!(c.kind, ConvictionKind::NonOpaqueHistory)),
        "the residue-dropping mutant must keep validating its reads"
    );
}
