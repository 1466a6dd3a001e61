//! The TM conformance kit — the paper's programme ("without such
//! formalization, it is impossible to check the correctness of these
//! implementations") packaged as a reusable battery.
//!
//! [`conformance`] takes any [`Stm`] factory, drives it through every
//! interleaving of a set of adversarial probe programs plus a threaded
//! invariant workload, judges every recorded history with the
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
//! This module also holds the sweep driver that the typed-object battery
//! ([`crate::objconformance`]) shares: every `(probe, schedule)` pair of
//! `sweep_schedules` drives a *fresh* TM instance, so the sweep shards
//! across a scoped-thread worker pool ([`crate::parallel`]); one judge
//! decides each recorded history, and the verdicts are folded back **in
//! schedule order**, so a report (flags, violation list, counts) is
//! byte-identical for any worker count.

use tm_model::{History, SpecRegistry};
use tm_opacity::criteria::{is_serializable_with, snapshot_isolated};
use tm_opacity::opacity::is_opaque_with;
use tm_opacity::SearchConfig;
use tm_stm::{run_tx, Stm};

use crate::parallel::parallel_map;
use crate::sched::{execute, sweep_schedules, Schedule};
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

/// The verdicts on one recorded history.
pub(crate) struct Verdict {
    well_formed: bool,
    opaque: bool,
    serializable: bool,
    snapshot_isolated: bool,
}

/// The one history judge of both batteries. An ill-formed history fails
/// only well-formedness: the other verdicts are meaningless without it.
/// Snapshot isolation is judged only `with_si` (the typed battery does not
/// report it) and reads as held otherwise.
pub(crate) fn judge(
    h: &History,
    specs: &SpecRegistry,
    search: SearchConfig,
    with_si: bool,
) -> Verdict {
    let well_formed = tm_model::is_well_formed(h);
    Verdict {
        well_formed,
        opaque: !well_formed
            || is_opaque_with(h, specs, search)
                .map(|r| r.opaque)
                .unwrap_or(false),
        serializable: !well_formed || is_serializable_with(h, specs, search).unwrap_or(false),
        snapshot_isolated: !well_formed || !with_si || snapshot_isolated(h, specs).unwrap_or(false),
    }
}

/// Verdicts folded in schedule order: which contracts held on every
/// history, and the first eight violations.
#[derive(Clone)]
pub(crate) struct Tally {
    pub(crate) well_formed: bool,
    pub(crate) opaque: bool,
    pub(crate) serializable: bool,
    pub(crate) snapshot_isolated: bool,
    pub(crate) histories_checked: usize,
    pub(crate) violations: Vec<String>,
}

impl Tally {
    pub(crate) fn new() -> Self {
        Tally {
            well_formed: true,
            opaque: true,
            serializable: true,
            snapshot_isolated: true,
            histories_checked: 0,
            violations: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, probe: &str, sched: &[usize], v: &Verdict) {
        self.histories_checked += 1;
        for (field, ok, what) in [
            (&mut self.well_formed, v.well_formed, "ill-formed history"),
            (&mut self.opaque, v.opaque, "opacity violated"),
            (
                &mut self.serializable,
                v.serializable,
                "committed txs not serializable",
            ),
            (
                &mut self.snapshot_isolated,
                v.snapshot_isolated,
                "snapshot isolation violated",
            ),
        ] {
            if !ok {
                *field = false;
                if self.violations.len() < 8 {
                    self.violations.push(format!("{probe} {sched:?}: {what}"));
                }
            }
        }
    }
}

/// The sweep driver of both batteries: runs every `(probe, schedule)` pair
/// through `run` on up to `jobs` workers and returns the verdicts with
/// their probe index and schedule, in sweep order.
pub(crate) fn sweep<P: Sync>(
    probes: &[P],
    counts: impl Fn(&P) -> Vec<usize>,
    blocking: bool,
    jobs: usize,
    run: impl Fn(&P, &[usize]) -> Verdict + Sync,
) -> Vec<(usize, Schedule, Verdict)> {
    let items: Vec<(usize, Schedule)> = probes
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            sweep_schedules(&counts(p), blocking)
                .into_iter()
                .map(move |s| (i, s))
        })
        .collect();
    let verdicts = parallel_map(items.len(), jobs, |i| {
        let (p, sched) = &items[i];
        run(&probes[*p], sched)
    });
    items
        .into_iter()
        .zip(verdicts)
        .map(|((p, sched), v)| (p, sched, v))
        .collect()
}

/// Runs the register battery against TMs built by `make` (called with the
/// number of registers each sub-experiment needs; every history is taken
/// from a fresh instance), sharding the interleaving sweep across `jobs`
/// scoped worker threads.
///
/// `make` builds the TMs of the scheduled executions (the interleaving
/// sweep and the progressiveness probe), `unobserved` the one the threaded
/// lost-update probe runs on. That probe's aborts depend on how the OS
/// schedules its two threads, so a factory that carries an observability
/// handle passes its handle-free twin as `unobserved`: the `stm.*` counters
/// are then a function of the scheduled executions alone and agree for
/// every `jobs` value. The probe reads no history, so `unobserved` may
/// build its TM with recording off. Other callers pass the same factory
/// twice.
///
/// `search` configures the per-history opacity and serializability
/// checks: `search.memo_capacity` bounds each check's dead-end table.
/// Verdicts are independent of it and of `jobs` (eviction only costs
/// recomputation), so the report stays byte-identical — pinned by the
/// property tests.
pub fn conformance(
    make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    unobserved: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    jobs: usize,
    search: SearchConfig,
) -> ConformanceReport {
    let name = make(1).name().to_string();
    let blocking = make(1).blocking();

    // ---- interleaving sweeps (sharded) ------------------------------------
    let probes = probes();
    let specs = SpecRegistry::registers();
    let mut tally = Tally::new();
    let verdicts = sweep(
        &probes,
        |(_, program)| program.action_counts(),
        blocking,
        jobs,
        |(_, program), sched| {
            let stm = make(2);
            run_tx(stm.as_ref(), 0, |tx| {
                tx.write(0, 1)?;
                tx.write(1, 1)
            });
            execute(stm.as_ref(), program, sched);
            judge(&stm.recorder().history(), &specs, search, true)
        },
    );
    for (p, sched, v) in verdicts {
        tally.record(probes[p].0, &sched, &v);
    }
    let mut report = ConformanceReport {
        name,
        well_formed: tally.well_formed,
        opaque: tally.opaque,
        serializable: tally.serializable,
        snapshot_isolated: tally.snapshot_isolated,
        progressive_probe: true, // serial execution never conflicts
        no_lost_updates: true,
        violations: tally.violations,
        histories_checked: tally.histories_checked,
    };

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
    }

    // ---- threaded lost-update probe ----------------------------------------
    let stm = unobserved(1);
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

    fn battery(make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync)) -> ConformanceReport {
        conformance(make, make, 1, SearchConfig::default())
    }

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
        let suite = tm_stm::TmRegistry::suite();
        for name in suite.names() {
            let factory = suite.factory(name).expect("suite TM name");
            let r = battery(&factory);
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

    #[test]
    fn mutants_fail_their_advertised_contracts() {
        let skip_read = battery(&|k| Box::new(MutantStm::new(k, Mutation::SkipReadValidation)));
        assert!(!skip_read.opaque);
        assert!(skip_read.serializable, "{:?}", skip_read.violations);
        let skip_commit = battery(&|k| Box::new(MutantStm::new(k, Mutation::SkipCommitValidation)));
        assert!(!skip_commit.serializable);
        // Lost updates under real threads are probabilistic at this scale;
        // the deterministic interleaving sweep above already convicts the
        // mutant, so the threaded probe is informative, not asserted.
        let baseline = battery(&|k| Box::new(MutantStm::new(k, Mutation::None)));
        assert!(baseline.opaque && baseline.serializable && baseline.no_lost_updates);
    }

    #[test]
    fn report_rendering() {
        let r = battery(&|k| Box::new(tm_stm::Tl2Stm::new(k)));
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
            let sequential = normalize(battery(&factory));
            for jobs in [2, 4, 7] {
                let parallel = normalize(conformance(
                    &factory,
                    &factory,
                    jobs,
                    SearchConfig::default(),
                ));
                assert_eq!(sequential, parallel, "jobs={jobs}");
            }
        }
    }
}
