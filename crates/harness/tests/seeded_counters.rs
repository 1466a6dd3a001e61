//! Deterministic counters of the TMs on seeded schedules.
//!
//! Wall-clock commits/s are too noisy to bound, so these tests pin what
//! each TM does on a fixed set of seeded programs, each run under its
//! seeded [`random_schedule`]: commits, aborts, every base-object step the
//! [`StepProbe`](tm_stm::trace_cells::StepProbe) sees (the paper's §6.1
//! cost unit), and the share of those steps that touch the clock word.
//!
//! * The timestamp-based TMs (`tl2`, `mvstm`, `sistm`) all run on TL2's GV1
//!   counter: any change to the commit protocol, the fast path or the
//!   clock's metering moves at least one of their figures.
//! * The conflict-resolving TMs (`dstm`, `visible`, `astm`, `tpl`,
//!   `nonopaque`) have no clock: their figures move with the conflict
//!   policy (which side of a conflict aborts) and the read/acquire paths.
//!
//! A digest of every recorded history pins the order of the recorded
//! events as well, for the same TMs and for [`MutantStm`] under every
//! [`Mutation`]: where an event is recorded relative to the base-object
//! steps changes the histories even when no count moves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_harness::{execute, random_schedule, Program, TxScript};
use tm_stm::trace_cells::{AccessLog, CellId, TraceEvent};
use tm_stm::{MutantStm, Mutation, Stm, StmConfig, TmRegistry};

/// Registers every generated program draws from: few enough that the
/// transactions conflict often.
const REGS: usize = 3;
/// Programs per TM.
const PROGRAMS: u64 = 500;

/// A seeded program of 2–4 threads, each a transaction of 1–4 reads and
/// writes over [`REGS`] registers.
fn seeded_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let threads = rng.gen_range(2..5);
    Program::new(
        (0..threads)
            .map(|t| {
                let mut script = TxScript::new();
                for i in 0..rng.gen_range(1..5) {
                    let obj = rng.gen_range(0..REGS);
                    script = if rng.gen_bool(0.5) {
                        script.read(obj)
                    } else {
                        script.write(obj, (t * 10 + i + 1) as i64)
                    };
                }
                script
            })
            .collect(),
    )
}

/// Totals over every program for one TM.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counters {
    commits: usize,
    aborts: usize,
    steps: usize,
    clock_steps: usize,
}

fn run(build: impl Fn(&StmConfig) -> Box<dyn Stm>) -> Counters {
    let mut c = Counters::default();
    for seed in 0..PROGRAMS {
        let program = seeded_program(seed);
        let log = AccessLog::shared();
        let stm = build(&StmConfig::new(REGS).probe(log.clone()));
        let out = execute(stm.as_ref(), &program, &random_schedule(&program, seed));
        c.commits += out.commits();
        c.aborts += out.txs.len() - out.commits();
        for event in log.snapshot() {
            if let TraceEvent::Access(a) = event {
                c.steps += 1;
                if matches!(a.cell, CellId::Clock(_)) {
                    c.clock_steps += 1;
                }
            }
        }
    }
    c
}

fn pinned(commits: usize, aborts: usize, steps: usize, clock_steps: usize) -> Counters {
    Counters {
        commits,
        aborts,
        steps,
        clock_steps,
    }
}

fn run_all<'a>(tms: &[&'a str]) -> Vec<(&'a str, Counters)> {
    let registry = TmRegistry::suite();
    tms.iter()
        .map(|&tm| {
            let spec = registry.get(tm).expect("suite TM");
            (tm, run(|cfg| spec.build(cfg)))
        })
        .collect()
}

#[test]
fn gv1_counters_are_pinned_on_seeded_schedules() {
    let got = run_all(&["tl2", "mvstm", "sistm"]);
    assert_eq!(
        got,
        vec![
            ("tl2", pinned(1018, 511, 9949, 717)),
            ("mvstm", pinned(1038, 491, 7970, 1282)),
            ("sistm", pinned(1127, 402, 7741, 1460)),
        ]
    );
}

#[test]
fn conflict_resolving_counters_are_pinned_on_seeded_schedules() {
    let got = run_all(&["dstm", "visible", "astm", "tpl", "nonopaque"]);
    assert_eq!(
        got,
        vec![
            // dstm's commit stores its decided status after validating
            // (one more step than its old validate-then-CAS commit).
            ("dstm", pinned(963, 566, 18728, 0)),
            ("visible", pinned(808, 721, 11684, 0)),
            ("astm", pinned(1219, 310, 13426, 0)),
            ("tpl", pinned(824, 705, 11489, 0)),
            ("nonopaque", pinned(1219, 310, 12172, 0)),
        ]
    );
}

#[test]
fn mutant_counters_are_pinned_on_seeded_schedules() {
    // The baseline's figures are tl2's; each planted bug moves its own.
    let got: Vec<(&str, Counters)> = Mutation::all()
        .into_iter()
        .map(|m| {
            (
                m.name(),
                run(|cfg| Box::new(MutantStm::with_config(cfg, m))),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("mutant-none", pinned(1018, 511, 9949, 717)),
            ("mutant-skip-read-validation", pinned(932, 597, 10760, 743)),
            (
                "mutant-skip-commit-validation",
                pinned(1456, 73, 12005, 1079)
            ),
            ("mutant-dropped-residue", pinned(1018, 511, 10936, 1434)),
            (
                "mutant-unlicensed-fast-path",
                pinned(1018, 511, 10666, 1434)
            ),
        ]
    );
}

/// 64-bit FNV-1a, written out here so the pins below do not depend on a
/// hasher whose output may change between toolchains.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One digest over the `Display` text of the history each seeded program
/// records, in seed order: it moves if any recorded event moves.
fn history_digest(build: impl Fn(&StmConfig) -> Box<dyn Stm>) -> u64 {
    (0..PROGRAMS).fold(FNV_BASIS, |h, seed| {
        let program = seeded_program(seed);
        let stm = build(&StmConfig::new(REGS));
        execute(stm.as_ref(), &program, &random_schedule(&program, seed));
        fnv1a(h, format!("{}\n", stm.recorder().history()).as_bytes())
    })
}

#[test]
fn recorded_histories_are_pinned_on_seeded_schedules() {
    let registry = TmRegistry::suite();
    let mut got: Vec<(&str, u64)> = [
        "tl2",
        "mvstm",
        "sistm",
        "dstm",
        "visible",
        "astm",
        "tpl",
        "nonopaque",
    ]
    .iter()
    .map(|&tm| {
        let spec = registry.get(tm).expect("suite TM");
        (tm, history_digest(|cfg| spec.build(cfg)))
    })
    .collect();
    for m in Mutation::all() {
        got.push((
            m.name(),
            history_digest(|cfg| Box::new(MutantStm::with_config(cfg, m))),
        ));
    }
    // The mutants run tl2's own protocol, so three of them record tl2's
    // histories on these op-granular schedules: the concurrency mutants
    // differ only below the operation, and the baseline plants nothing.
    assert_eq!(
        got,
        vec![
            ("tl2", 0xfb68934432cdc688),
            ("mvstm", 0x26599c7a858a481b),
            ("sistm", 0x266941eb1b520109),
            ("dstm", 0x361dd4f6b33b5d25),
            ("visible", 0x30d9445d6546add1),
            ("astm", 0x86fa5d5e7b0fb08a),
            ("tpl", 0x0f1f4af9f7221a75),
            ("nonopaque", 0xf88c534fb86ffdb5),
            ("mutant-none", 0xfb68934432cdc688),
            ("mutant-skip-read-validation", 0xee781f650e01cfd2),
            ("mutant-skip-commit-validation", 0x5a43d02d608a51cb),
            ("mutant-dropped-residue", 0xfb68934432cdc688),
            ("mutant-unlicensed-fast-path", 0xfb68934432cdc688),
        ]
    );
}
