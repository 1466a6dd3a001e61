//! The full conformance reports, pinned byte for byte.
//!
//! The CLI transcripts pin only the rendered rows. This golden pins every
//! field of both batteries' reports — histories checked, the violation
//! lists with their schedules, every flag — for each registry TM and the
//! three op-level mutants, so a restructuring of the harness that changes
//! which schedules are swept, in which order, or how a history is judged
//! fails here even when no row moves.
//!
//! The register battery's threaded lost-update probe races real threads,
//! and on the mutants it may or may not lose an update: their
//! `no_lost_updates` flag and `counter:` violation are masked. On the
//! registry TMs a lost update is a real bug, so it stays pinned.
//!
//! The expected text is `golden/batteries.txt`; on a mismatch the test
//! prints the rendering it got.

use tm_harness::{ConformanceReport, ObjectConformanceReport, ObjectKind};
use tm_opacity::SearchConfig;
use tm_stm::{MutantStm, Mutation, Stm, TmRegistry};

type Factory<'a> = &'a (dyn Fn(usize) -> Box<dyn Stm> + Sync);

fn register_report(make: Factory<'_>) -> ConformanceReport {
    tm_harness::conformance(make, make, 2, SearchConfig::default())
}

fn object_report(make: Factory<'_>) -> ObjectConformanceReport {
    tm_harness::object_conformance(make, &ObjectKind::ALL, 2, SearchConfig::default())
}

fn render(make: Factory<'_>, mask_lost_updates: bool, out: &mut String) {
    let mut report = register_report(make);
    if mask_lost_updates {
        report.no_lost_updates = true;
        report.violations.retain(|v| !v.starts_with("counter:"));
    }
    out.push_str(&format!("{report:#?}\n{:#?}\n", object_report(make)));
}

#[test]
fn both_batteries_render_their_golden_reports() {
    let mut got = String::new();
    let reg = TmRegistry::suite();
    for name in reg.names() {
        let factory = reg.factory(name).expect("registry name");
        render(&factory, false, &mut got);
    }
    for mutation in [
        Mutation::None,
        Mutation::SkipReadValidation,
        Mutation::SkipCommitValidation,
    ] {
        let factory = |k: usize| -> Box<dyn Stm> { Box::new(MutantStm::new(k, mutation)) };
        render(&factory, true, &mut got);
    }
    let expected = include_str!("golden/batteries.txt");
    assert!(got == expected, "battery reports moved; got:\n{got}");
}
