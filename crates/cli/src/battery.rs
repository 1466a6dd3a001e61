//! The TM registry and its conformance battery: `list` and `conformance`.

use std::io::Write;

use tm_harness::ObjectKind;
use tm_opacity::SearchConfig;
use tm_stm::{MutantStm, Mutation, Stm, StmConfig, TmRegistry, TmSpec};

use crate::Error;

/// `list`: the TM registry and its properties.
pub(crate) fn list(out: &mut dyn Write) -> Result<i32, Error> {
    let yn = |b: bool| if b { "yes" } else { "no " };
    let mut row = |cells: [&str; 7]| {
        let [tm, progressive, single, invisible, opaque, ser, blocking] = cells;
        writeln!(
            out,
            "{tm:<10} {progressive:>11} {single:>10} {invisible:>9} {opaque:>6} {ser:>6} \
             {blocking:>8}"
        )
    };
    row([
        "tm",
        "progressive",
        "single-ver",
        "invisible",
        "opaque",
        "ser",
        "blocking",
    ])?;
    for spec in TmRegistry::suite().specs() {
        let p = spec.properties;
        row([
            spec.name,
            yn(p.progressive),
            yn(p.single_version),
            yn(p.invisible_reads),
            yn(p.opaque_by_design),
            yn(p.serializable_by_design),
            yn(spec.blocking),
        ])?;
    }
    Ok(0)
}

/// `conformance`: the battery over every swept TM, then (with `mutants`)
/// over the deliberately broken mutants. `objects` selects the
/// typed-object battery instead of the register one.
///
/// The output is deliberately job-count-free: `--jobs N` must be
/// byte-identical to `--jobs 1` (deterministic sharded merge).
pub(crate) fn conformance(
    tm: Option<&str>,
    jobs: usize,
    search: SearchConfig,
    mutants: bool,
    objects: Option<&[ObjectKind]>,
    out: &mut dyn Write,
) -> Result<i32, Error> {
    let reg = TmRegistry::suite();
    // The lookup is fallible; the error carries the registry's menu of
    // valid names.
    let selection: Vec<&TmSpec> = match tm {
        Some(name) => vec![reg.get(name).map_err(|e| format!("conformance: {e}"))?],
        None => reg.specs().iter().collect(),
    };
    let mut failures: Vec<String> = Vec::new();
    let mut all_clean = true;
    match objects {
        Some(_) => writeln!(out, "{}", tm_harness::object_header())?,
        None => writeln!(out, "{}", tm_harness::conformance_header())?,
    }
    for tm in selection {
        let props = tm.properties;
        // The battery's TMs feed the STM-layer counters into the metrics
        // snapshot; the threaded lost-update probe's TMs do not, since its
        // aborts depend on scheduling.
        let observed = |k: usize| tm.build(&StmConfig::new(k).obs(search.obs));
        let unobserved = |k: usize| tm.build(&StmConfig::new(k));
        if let Some(kinds) = objects {
            // Typed-object battery: rich-semantics probes judged against
            // the objects' own sequential specifications. Well-formedness
            // is unconditional; the full battery is the contract for
            // opaque-by-design TMs, and committed transactions must stay
            // serializable wherever the TM advertises it (the object-level
            // analogue of the register battery's lost-update gate).
            // SI-STM's convictions are expected rows, not failures.
            let report = tm_harness::object_conformance(&observed, kinds, jobs, search);
            let ok = report.probes.iter().all(|p| p.well_formed)
                && (!props.opaque_by_design || report.all_clean())
                && (!props.serializable_by_design || report.probes.iter().all(|p| p.serializable));
            if !ok {
                all_clean = false;
                failures.extend(report.probes.iter().flat_map(|p| p.violations.clone()));
            }
            for probe in &report.probes {
                writeln!(out, "{}", probe.row(tm.name))?;
            }
        } else {
            let report = tm_harness::conformance(&observed, &unobserved, jobs, search);
            // Opacity is the contract under test; TMs that advertise a
            // weaker criterion (sistm, nonopaque) are expected rows, not
            // failures — only well-formedness and lost updates are
            // unconditional.
            if !report.well_formed || !report.no_lost_updates {
                all_clean = false;
                failures.extend(report.violations.iter().cloned());
            }
            writeln!(out, "{}", report.row())?;
        }
    }
    if mutants {
        for mutation in [
            Mutation::None,
            Mutation::SkipReadValidation,
            Mutation::SkipCommitValidation,
        ] {
            let factory = |k: usize| -> Box<dyn Stm> { Box::new(MutantStm::new(k, mutation)) };
            if let Some(kinds) = objects {
                let report = tm_harness::object_conformance(&factory, kinds, jobs, search);
                for probe in &report.probes {
                    writeln!(out, "{}", probe.row(&report.name))?;
                }
            } else {
                writeln!(
                    out,
                    "{}",
                    tm_harness::conformance(&factory, &factory, jobs, search).row()
                )?;
            }
        }
    }
    for f in failures.iter().take(8) {
        writeln!(out, "violation: {f}")?;
    }
    Ok(if all_clean { 0 } else { 1 })
}
