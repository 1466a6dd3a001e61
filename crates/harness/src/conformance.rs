//! The TM conformance kit — the paper's programme ("without such
//! formalization, it is impossible to check the correctness of these
//! implementations") packaged as a reusable battery.
//!
//! [`check_conformance`] takes any [`Stm`] factory, drives it through
//! every interleaving of a set of adversarial probe programs plus a
//! threaded invariant workload, judges every recorded history with the
//! `tm-opacity` checkers, and reports which contracts held:
//!
//! * **opacity** (Definition 1) on every recorded history;
//! * **serializability** of committed transactions on every history;
//! * **snapshot isolation** on every history;
//! * **progressiveness** on the Section 6.2 discriminating probe (a
//!   conflicting operation invoked *after* the conflicting peer committed
//!   must not abort);
//! * **no lost updates** under a genuinely concurrent counter.
//!
//! The expected matrix for this repository's own nine TMs and three
//! mutants is pinned in the tests below — a downstream implementor runs
//! the same battery on their TM and compares rows. Violations carry the
//! offending schedule so failures are reproducible.
//!
//! The interleaving sweep is embarrassingly parallel — every `(probe,
//! schedule)` pair drives a *fresh* TM instance — so
//! [`conformance_parallel`] shards it across a scoped-thread worker pool
//! ([`crate::parallel`]) and merges the per-schedule verdicts back **in
//! schedule order**: the report (flags, violation list, counts) is
//! byte-identical for any worker count. [`check_conformance`] is the
//! single-threaded wrapper.

use tm_model::SpecRegistry;
use tm_opacity::criteria::{is_serializable_with, snapshot_isolated};
use tm_opacity::opacity::is_opaque_with;
use tm_opacity::SearchConfig;
use tm_stm::{run_tx, Stm};

use crate::parallel::parallel_map;
use crate::sched::{all_schedules_reduced, execute, Schedule};
use crate::script::{Program, TxScript};

/// The outcome of one conformance run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConformanceReport {
    /// The TM's self-reported name.
    pub name: String,
    /// Every recorded history was well-formed (a hard requirement — the
    /// other verdicts are meaningless without it).
    pub well_formed: bool,
    /// Every recorded history was opaque.
    pub opaque: bool,
    /// Every recorded history had serializable committed transactions.
    pub serializable: bool,
    /// Every recorded history was snapshot-isolated.
    pub snapshot_isolated: bool,
    /// The Section 6.2 probe: the reader committed although the
    /// conflicting writer finished before the reader's conflicting read.
    pub progressive_probe: bool,
    /// The threaded counter conserved every increment.
    pub no_lost_updates: bool,
    /// Human-readable descriptions of the first few violations.
    pub violations: Vec<String>,
    /// Histories checked across all sweeps.
    pub histories_checked: usize,
}

impl ConformanceReport {
    /// One fixed-width table row (pair with [`header`]).
    pub fn row(&self) -> String {
        let yn = |b: bool| if b { "yes" } else { "NO " };
        format!(
            "{:<30} {:>6} {:>6} {:>6} {:>6} {:>12} {:>10}",
            self.name,
            yn(self.well_formed),
            yn(self.opaque),
            yn(self.serializable),
            yn(self.snapshot_isolated),
            yn(self.progressive_probe),
            yn(self.no_lost_updates),
        )
    }
}

/// The header matching [`ConformanceReport::row`].
pub fn header() -> String {
    format!(
        "{:<30} {:>6} {:>6} {:>6} {:>6} {:>12} {:>10}",
        "tm", "wf", "opaque", "ser", "si", "progressive", "no-lost-up"
    )
}

/// The probe programs swept through every interleaving.
fn probes() -> Vec<(&'static str, Program)> {
    vec![
        (
            "reader-vs-writer",
            Program::new(vec![
                TxScript::new().read(0).read(1),
                TxScript::new().write(0, 7).write(1, 7),
            ]),
        ),
        (
            "rmw-vs-rmw",
            Program::new(vec![
                TxScript::new().read(0).write(0, 100),
                TxScript::new().read(0).write(0, 200),
            ]),
        ),
        (
            "write-skew",
            Program::new(vec![
                TxScript::new().read(0).read(1).write(0, -1),
                TxScript::new().read(0).read(1).write(1, -1),
            ]),
        ),
    ]
}

/// Runs a program one whole transaction at a time (for blocking TMs),
/// following the thread order in which `schedule` first mentions each
/// thread.
fn run_serially(stm: &dyn Stm, program: &Program, schedule: &[usize]) {
    let mut order: Vec<usize> = Vec::new();
    for &t in schedule {
        if !order.contains(&t) {
            order.push(t);
        }
    }
    for ti in order {
        let mut tx = stm.begin(ti);
        let mut dead = false;
        for op in &program.threads[ti].ops {
            let r = match *op {
                crate::script::ScriptOp::Read(obj) => tx.read(obj).map(|_| ()),
                crate::script::ScriptOp::Write(obj, v) => tx.write(obj, v),
            };
            if r.is_err() {
                dead = true;
                break;
            }
        }
        if !dead {
            let _ = tx.commit();
        }
    }
}

/// One `(probe, schedule)` unit of sweep work.
struct SweepItem {
    pname: &'static str,
    program: Program,
    sched: Schedule,
}

/// The verdicts for one recorded history, computed on any worker thread.
struct SweepVerdict {
    wf: bool,
    opaque: bool,
    serializable: bool,
    snapshot_isolated: bool,
}

/// Builds the full deterministic work list for the sweep phase.
fn sweep_items(blocking: bool) -> Vec<SweepItem> {
    let mut items = Vec::new();
    for (pname, program) in probes() {
        // Blocking TMs (the global lock) cannot be interleaved on one OS
        // thread: run the two serial orders through the raw Tx API instead.
        let schedules = if blocking {
            let counts = program.action_counts();
            let serial_01: Vec<usize> = std::iter::repeat(0)
                .take(counts[0])
                .chain(std::iter::repeat(1).take(counts[1]))
                .collect();
            let serial_10: Vec<usize> = std::iter::repeat(1)
                .take(counts[1])
                .chain(std::iter::repeat(0).take(counts[0]))
                .collect();
            vec![serial_01, serial_10]
        } else {
            // One representative per commutation class; `visible_reads =
            // true` because the battery hosts visible-reader TMs, for which
            // even read/read overlap is observable. (On these probes every
            // footprint overlaps from the first action, so the conservative
            // relation merges nothing and coverage is exactly the full
            // sweep — the reduction pays off on disjoint-footprint
            // programs, see the pinned counts in `sched`.)
            all_schedules_reduced(&program, true, 200)
        };
        for sched in schedules {
            items.push(SweepItem {
                pname,
                program: program.clone(),
                sched,
            });
        }
    }
    items
}

/// Executes one sweep item against a fresh TM and judges the recorded
/// history. Pure in the item index: safe to run on any worker.
fn run_sweep_item(
    make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    blocking: bool,
    item: &SweepItem,
    search: SearchConfig,
) -> SweepVerdict {
    let specs = SpecRegistry::registers();
    let stm = make(2);
    run_tx(stm.as_ref(), 0, |tx| {
        tx.write(0, 1)?;
        tx.write(1, 1)
    });
    if blocking {
        run_serially(stm.as_ref(), &item.program, &item.sched);
    } else {
        execute(stm.as_ref(), &item.program, &item.sched);
    }
    let h = stm.recorder().history();
    let wf = tm_model::is_well_formed(&h);
    if !wf {
        return SweepVerdict {
            wf,
            opaque: true,
            serializable: true,
            snapshot_isolated: true,
        };
    }
    SweepVerdict {
        wf,
        opaque: is_opaque_with(&h, &specs, search)
            .map(|r| r.opaque)
            .unwrap_or(false),
        serializable: is_serializable_with(&h, &specs, search).unwrap_or(false),
        snapshot_isolated: snapshot_isolated(&h, &specs).unwrap_or(false),
    }
}

/// Runs the full battery against TMs built by `make` (called with the
/// number of registers each sub-experiment needs; every history is taken
/// from a fresh instance). Single-threaded; equivalent to
/// [`conformance_parallel`] with `jobs = 1`.
pub fn check_conformance(make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync)) -> ConformanceReport {
    conformance_parallel(make, 1)
}

/// [`check_conformance`] with the interleaving sweep sharded across `jobs`
/// scoped worker threads.
///
/// Every `(probe, schedule)` pair runs against a fresh TM instance, so the
/// items are independent; the per-item verdicts are merged back in schedule
/// order, making the report **identical for every `jobs` value** (the
/// property is pinned by a test below and by the harness property suite).
pub fn conformance_parallel(
    make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    jobs: usize,
) -> ConformanceReport {
    conformance_parallel_with(make, jobs, SearchConfig::default())
}

/// [`conformance_parallel`] with an explicit serialization-search
/// configuration for the per-history opacity/serializability checks.
///
/// This is how the *intra-history* parallel search composes with the
/// *inter-history* sweep sharding: `jobs` spreads independent `(probe,
/// schedule)` pairs across workers, while `search.search_jobs` parallelizes
/// the root placements of each individual check and `search.memo_capacity`
/// bounds its dead-end table. Verdicts are independent of both knobs (the
/// parallel search is verdict-identical and eviction only costs
/// recomputation), so the report stays byte-identical — pinned by the
/// property tests.
pub fn conformance_parallel_with(
    make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    jobs: usize,
    search: SearchConfig,
) -> ConformanceReport {
    conformance_observed(make, make, jobs, search)
}

/// [`conformance_parallel_with`] for a factory whose TMs carry an
/// observability handle: `make` builds the TMs of the scheduled executions
/// (the interleaving sweep and the progressiveness probe), `unobserved`
/// builds the one the threaded lost-update probe runs on.
///
/// The threaded probe's aborts depend on how the OS schedules its two
/// threads, so it must not count into the `stm.*` metrics: with the
/// handle kept off it, those counters are a function of the scheduled
/// executions alone and agree for every `jobs` value.
pub fn conformance_observed(
    make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    unobserved: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    jobs: usize,
    search: SearchConfig,
) -> ConformanceReport {
    let name = make(1).name().to_string();
    let blocking = make(1).blocking();
    let mut report = ConformanceReport {
        name,
        well_formed: true,
        opaque: true,
        serializable: true,
        snapshot_isolated: true,
        progressive_probe: false,
        no_lost_updates: true,
        violations: Vec::new(),
        histories_checked: 0,
    };
    let flag = |field: &mut bool, ok: bool, what: &str, violations: &mut Vec<String>| {
        if !ok {
            *field = false;
            if violations.len() < 8 {
                violations.push(what.to_string());
            }
        }
    };

    // ---- interleaving sweeps (sharded) ------------------------------------
    let items = sweep_items(blocking);
    let verdicts = parallel_map(items.len(), jobs, |i| {
        run_sweep_item(make, blocking, &items[i], search)
    });
    for (item, v) in items.iter().zip(&verdicts) {
        let SweepItem { pname, sched, .. } = item;
        report.histories_checked += 1;
        flag(
            &mut report.well_formed,
            v.wf,
            &format!("{pname} {sched:?}: ill-formed history"),
            &mut report.violations,
        );
        if !v.wf {
            continue;
        }
        flag(
            &mut report.opaque,
            v.opaque,
            &format!("{pname} {sched:?}: opacity violated"),
            &mut report.violations,
        );
        flag(
            &mut report.serializable,
            v.serializable,
            &format!("{pname} {sched:?}: committed txs not serializable"),
            &mut report.violations,
        );
        flag(
            &mut report.snapshot_isolated,
            v.snapshot_isolated,
            &format!("{pname} {sched:?}: snapshot isolation violated"),
            &mut report.violations,
        );
    }

    // ---- progressiveness probe (Section 6.2's discriminating schedule) ----
    if !blocking {
        let stm = make(2);
        let program = Program::new(vec![
            TxScript::new().read(0).read(1),
            TxScript::new().write(1, 9),
        ]);
        // T1 reads r0; T2 writes r1 and commits; T1 reads r1 (a conflicting
        // operation invoked after the conflicting peer completed).
        let out = execute(stm.as_ref(), &program, &[0, 1, 1, 0, 0]);
        report.progressive_probe = out.txs[0].committed;
    } else {
        report.progressive_probe = true; // serial execution never conflicts
    }

    // ---- threaded lost-update probe ----------------------------------------
    let stm = unobserved(1);
    stm.recorder().set_enabled(false);
    let per_thread = 150;
    std::thread::scope(|scope| {
        for t in 0..2 {
            let stm = stm.as_ref();
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
    let (v, _) = run_tx(stm.as_ref(), 0, |tx| tx.read(0));
    if v != 2 * per_thread {
        report.no_lost_updates = false;
        report.violations.push(format!(
            "counter: {} of {} increments survived",
            v,
            2 * per_thread
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::{MutantStm, Mutation};

    /// The pinned conformance matrix of the in-tree TMs (the reference a
    /// downstream implementor compares against).
    #[test]
    fn matrix_for_the_in_tree_suite() {
        // (name, opaque, serializable, si, progressive-probe)
        let expected: &[(&str, bool, bool, bool, bool)] = &[
            ("glock", true, true, true, true),
            ("tl2", true, true, true, false),
            ("dstm", true, true, true, true),
            ("astm", true, true, true, true),
            ("visible", true, true, true, true),
            ("tpl", true, true, true, true),
            ("mvstm", true, true, true, true),
            ("sistm", false, false, true, true),
            ("nonopaque", false, true, false, true),
        ];
        for stm in tm_stm::all_stms(2) {
            let name = stm.name();
            drop(stm);
            let factory = move |k: usize| -> Box<dyn tm_stm::Stm> {
                tm_stm::all_stms(k)
                    .into_iter()
                    .find(|s| s.name() == name)
                    .expect("name stable")
            };
            let r = check_conformance(&factory);
            let row = expected
                .iter()
                .find(|(n, ..)| *n == name)
                .unwrap_or_else(|| panic!("no expectation for {name}"));
            assert!(r.well_formed, "{name}: {:?}", r.violations);
            assert!(r.no_lost_updates, "{name}: {:?}", r.violations);
            assert_eq!(r.opaque, row.1, "{name} opacity: {:?}", r.violations);
            assert_eq!(r.serializable, row.2, "{name} ser: {:?}", r.violations);
            assert_eq!(r.snapshot_isolated, row.3, "{name} si: {:?}", r.violations);
            assert_eq!(
                r.progressive_probe, row.4,
                "{name} progressive: {:?}",
                r.violations
            );
            let floor = if name == "glock" { 6 } else { 60 };
            assert!(
                r.histories_checked >= floor,
                "{name}: swept {}",
                r.histories_checked
            );
        }
    }

    /// Satellite of the configurable-TM redesign: the register battery's
    /// verdicts are invariant under the clock scheme — the opaque clocked
    /// TMs stay opaque on sharded and deferred clocks, and SI-STM's
    /// anomaly profile is unchanged (the scheme moves contention around,
    /// never correctness).
    #[test]
    fn clocked_tms_keep_their_verdicts_under_every_clock_scheme() {
        use tm_stm::{ClockScheme, TmRegistry};
        let reg = TmRegistry::suite();
        for base in ["tl2", "mvstm", "sistm"] {
            for scheme in ClockScheme::SWEEP {
                if scheme.is_single() {
                    continue; // the default scheme is pinned by the matrix test
                }
                let spec = format!("{base}+{scheme}");
                let factory = reg.factory(&spec).expect("clocked TMs accept every scheme");
                let r = conformance_parallel(&factory, 2);
                assert!(r.well_formed, "{spec}: {:?}", r.violations);
                assert!(r.no_lost_updates, "{spec}: {:?}", r.violations);
                let opaque_expected = base != "sistm";
                assert_eq!(r.opaque, opaque_expected, "{spec}: {:?}", r.violations);
                assert_eq!(
                    r.serializable, opaque_expected,
                    "{spec}: {:?}",
                    r.violations
                );
                assert!(r.snapshot_isolated, "{spec}: {:?}", r.violations);
                // TL2 stays non-progressive (the rv check is scheme-independent);
                // the multi-version TMs keep passing the probe.
                assert_eq!(r.progressive_probe, base != "tl2", "{spec}");
            }
        }
    }

    #[test]
    fn mutants_fail_their_advertised_contracts() {
        let skip_read =
            check_conformance(&|k| Box::new(MutantStm::new(k, Mutation::SkipReadValidation)));
        assert!(!skip_read.opaque);
        assert!(skip_read.serializable, "{:?}", skip_read.violations);
        let skip_commit =
            check_conformance(&|k| Box::new(MutantStm::new(k, Mutation::SkipCommitValidation)));
        assert!(!skip_commit.serializable);
        // Lost updates under real threads are probabilistic at this scale;
        // the deterministic interleaving sweep above already convicts the
        // mutant, so the threaded probe is informative, not asserted.
        let baseline = check_conformance(&|k| Box::new(MutantStm::new(k, Mutation::None)));
        assert!(baseline.opaque && baseline.serializable && baseline.no_lost_updates);
    }

    #[test]
    fn report_rendering() {
        let r = check_conformance(&|k| Box::new(tm_stm::Tl2Stm::new(k)));
        assert!(header().contains("opaque"));
        assert!(r.row().contains("tl2"));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn parallel_sweep_is_deterministic_across_job_counts() {
        // The progressive/lost-update probes are inherently sequential and
        // shared; the sweep — the bulk of the work — must merge identically
        // for any worker count, including on a TM with real violations so
        // the violation lists (content AND order) are exercised.
        // The threaded lost-update probe is the one probabilistic component
        // (real threads); mask it out so the comparison pins exactly the
        // deterministic sweep + progressive probe.
        let normalize = |mut r: ConformanceReport| {
            r.no_lost_updates = true;
            r.violations.retain(|v| !v.starts_with("counter:"));
            r
        };
        for factory in [
            (|k| Box::new(MutantStm::new(k, Mutation::SkipReadValidation)) as Box<dyn tm_stm::Stm>)
                as fn(usize) -> Box<dyn tm_stm::Stm>,
            |k| Box::new(tm_stm::Tl2Stm::new(k)) as Box<dyn tm_stm::Stm>,
        ] {
            let sequential = normalize(conformance_parallel(&factory, 1));
            for jobs in [2, 4, 7] {
                let parallel = normalize(conformance_parallel(&factory, jobs));
                assert_eq!(sequential, parallel, "jobs={jobs}");
            }
        }
    }
}
