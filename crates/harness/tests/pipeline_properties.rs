//! Property tests for the resumable checking pipeline.
//!
//! Two contracts are pinned here, each over a large deterministic sample:
//!
//! 1. **The incremental monitor is observationally equivalent to batch
//!    re-checking.** For random well-formed histories, the monitor's verdict
//!    *and* first-violation prefix must equal what running the batch checker
//!    on every prefix reports — i.e. the resumable `CheckSession` (persistent
//!    memo, checks resumed from the last witness, in-place states) may never
//!    change an answer, only its cost.
//! 2. **The parallel conformance kit is byte-identical to the sequential
//!    one** for every in-tree TM and mutant: sharding the schedule sweep
//!    across worker threads must be invisible in the report.

use tm_harness::randhist::{random_history, GenConfig};
use tm_harness::{conformance, ConformanceReport};
use tm_model::SpecRegistry;
use tm_opacity::incremental::{MonitorVerdict, OpacityMonitor};
use tm_opacity::opacity::is_opaque;
use tm_opacity::SearchConfig;
use tm_stm::{MutantStm, Mutation};

/// Batch reference: index of the first event whose prefix is non-opaque.
fn first_violating_prefix(h: &tm_model::History, specs: &SpecRegistry) -> Option<usize> {
    (0..h.len()).find(|&i| !is_opaque(&h.prefix(i + 1), specs).unwrap().opaque)
}

#[test]
fn incremental_monitor_equals_batch_prefix_checks_on_random_histories() {
    let specs = SpecRegistry::registers();
    let configs = [
        GenConfig::default(),
        GenConfig {
            txs: 6,
            objs: 2,
            max_ops: 5,
            noise: 0.4,
            commit_pending: 0.3,
            abort: 0.2,
        },
        GenConfig {
            txs: 3,
            objs: 1,
            max_ops: 3,
            noise: 0.6,
            commit_pending: 0.0,
            abort: 0.5,
        },
    ];
    let mut violated = 0usize;
    let mut clean = 0usize;
    for (ci, config) in configs.iter().enumerate() {
        for seed in 0..120u64 {
            let h = random_history(config, seed);
            let expected = first_violating_prefix(&h, &specs);
            let mut monitor = OpacityMonitor::new(&specs);
            let got = monitor.feed_all(&h).unwrap();
            assert_eq!(
                got, expected,
                "config {ci} seed {seed}: monitor and batch disagree on {h}"
            );
            match got {
                Some(_) => violated += 1,
                None => clean += 1,
            }
            // The verdict stream must also match per prefix: a violation is
            // only reported at (and sticky after) the first bad prefix.
            let mut monitor = OpacityMonitor::new(&specs);
            for (i, e) in h.events().iter().enumerate() {
                let v = monitor.feed(e.clone()).unwrap();
                match expected {
                    Some(at) if i >= at => {
                        assert_eq!(
                            v,
                            MonitorVerdict::Violated { at },
                            "config {ci} seed {seed}"
                        )
                    }
                    _ => assert_ne!(
                        v,
                        MonitorVerdict::Violated { at: i },
                        "config {ci} seed {seed}: spurious violation at {i} of {h}"
                    ),
                }
            }
        }
    }
    // The sample must actually exercise both outcomes.
    assert!(violated > 20, "only {violated} violating histories sampled");
    assert!(clean > 20, "only {clean} clean histories sampled");
}

/// Masks the one probabilistic probe (real-thread lost updates) so the
/// comparison pins exactly the deterministic pipeline.
fn normalize(mut r: ConformanceReport) -> ConformanceReport {
    r.no_lost_updates = true;
    r.violations.retain(|v| !v.starts_with("counter:"));
    r
}

#[test]
fn conformance_parallel_is_identical_to_sequential_for_all_tms_and_mutants() {
    // The nine in-tree TMs…
    let suite = tm_stm::TmRegistry::suite();
    assert_eq!(suite.names().len(), 9);
    for name in suite.names() {
        let factory = suite.factory(name).expect("suite TM name");
        let sequential = normalize(conformance(&factory, &factory, 1, SearchConfig::default()));
        let parallel = normalize(conformance(&factory, &factory, 4, SearchConfig::default()));
        assert_eq!(sequential, parallel, "{name}: jobs=4 diverged");
        assert_eq!(sequential.row(), parallel.row(), "{name}: rendered row");
    }
    // …and the three mutants.
    for mutation in [
        Mutation::None,
        Mutation::SkipReadValidation,
        Mutation::SkipCommitValidation,
    ] {
        let factory =
            move |k: usize| -> Box<dyn tm_stm::Stm> { Box::new(MutantStm::new(k, mutation)) };
        let sequential = normalize(conformance(&factory, &factory, 1, SearchConfig::default()));
        let parallel = normalize(conformance(&factory, &factory, 4, SearchConfig::default()));
        assert_eq!(sequential, parallel, "{mutation:?}: jobs=4 diverged");
    }
}
