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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_harness::{execute, random_schedule, Program, TxScript};
use tm_stm::trace_cells::{AccessLog, CellId, TraceEvent};
use tm_stm::{StmConfig, TmRegistry};

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

fn run(tm: &str) -> Counters {
    let registry = TmRegistry::suite();
    let spec = registry.get(tm).expect("suite TM");
    let mut c = Counters::default();
    for seed in 0..PROGRAMS {
        let program = seeded_program(seed);
        let log = AccessLog::shared();
        let stm = spec.build(&StmConfig::new(REGS).probe(log.clone()));
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
    tms.iter().map(|&tm| (tm, run(tm))).collect()
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
            ("dstm", pinned(963, 566, 17596, 0)),
            ("visible", pinned(808, 721, 11684, 0)),
            ("astm", pinned(1219, 310, 13426, 0)),
            ("tpl", pinned(824, 705, 11489, 0)),
            ("nonopaque", pinned(1219, 310, 12172, 0)),
        ]
    );
}
