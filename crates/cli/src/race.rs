//! `race`: the step-level race analysis battery.

use std::io::Write;
use std::sync::Arc;

use tm_harness::{
    convictions, explore, replay_schedule, shrink_schedule, Conviction, ConvictionKind, DporConfig,
    Program, SharedStm, StmFactory, TxScript,
};
use tm_obs::ObsHandle;
use tm_stm::trace_cells::StepProbe;
use tm_stm::{MutantStm, Mutation, StmConfig, TmRegistry, TmSpec};

use crate::Error;

/// The step-level probe programs of the `race` sweep — the same §2 hazard
/// shapes as the conformance battery. `sistm` commits write skew *by
/// design* (a documented anomaly, not a clock-discipline race), so its
/// `write-skew` row reads `CONVICTED (by design)` without failing the
/// sweep; every TM that is opaque by design must stay clean on it.
fn race_probes() -> [(&'static str, Program); 3] {
    [
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
                TxScript::new().read(0).write(1, 5),
                TxScript::new().read(1).write(0, 7),
            ]),
        ),
    ]
}

/// A DPOR factory: `build` over `base` with the explorer's step probe
/// attached.
fn dpor_factory(
    base: StmConfig,
    build: impl Fn(&StmConfig) -> SharedStm + Sync,
) -> impl Fn(Arc<dyn StepProbe>) -> SharedStm + Sync {
    move |probe| build(&base.clone().probe(probe))
}

/// What a row's exploration is expected to find: nothing (a TM that is
/// opaque by design), no race but perhaps non-opaque histories (one that
/// is not), or a conviction (the seeded mutants).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    Acquittal,
    NotOpaque,
    Conviction,
}

/// Explores one probe program and prints its row; a conviction also
/// prints its minimized replayable schedule. Returns whether the outcome
/// was the expected one.
fn judge(
    out: &mut dyn Write,
    label: &str,
    probe: &str,
    factory: StmFactory<'_>,
    program: &Program,
    cfg: &DporConfig,
    expect: Expect,
) -> Result<bool, Error> {
    let res = explore(factory, program, cfg);
    let by_design = |c: &Conviction| {
        expect == Expect::NotOpaque && matches!(c.kind, ConvictionKind::NonOpaqueHistory)
    };
    // A race outranks a non-opaque history the TM owns up to.
    let conviction = res
        .violations
        .iter()
        .find(|c| !by_design(c))
        .or(res.violations.first());
    let verdict = match (conviction, expect) {
        (None, Expect::Conviction) => "ESCAPED — the analysis lost its teeth".to_string(),
        (None, _) => "clean".to_string(),
        (Some(c), Expect::Conviction) => format!("CONVICTED (expected): {}", c.kind),
        (Some(c), _) if by_design(c) => format!("CONVICTED (by design): {}", c.kind),
        (Some(c), _) => format!("CONVICTED: {}", c.kind),
    };
    let explored = if res.truncated {
        "truncated"
    } else {
        "complete"
    };
    let interleavings = res.interleavings;
    writeln!(
        out,
        "{label:<28} {probe:<18} {interleavings:>13} {explored:>9}  {verdict}"
    )?;
    if let Some(conviction) = conviction {
        // Minimize towards seriality while the replay still convicts; the
        // printed schedule is the artifact — feeding it back through the
        // stepper reproduces the violation deterministically.
        let violates = |sched: &[usize]| {
            let r = replay_schedule(factory, program, sched);
            !convictions(program, &r, cfg.check_races).is_empty()
        };
        let minimized = if violates(&conviction.schedule) {
            shrink_schedule(&conviction.schedule, violates)
        } else {
            conviction.schedule.clone()
        };
        let rendered = minimized
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        writeln!(out, "  minimized schedule (thread per step): {rendered}")?;
    }
    Ok(match conviction {
        None => expect != Expect::Conviction,
        Some(c) => expect == Expect::Conviction || by_design(c),
    })
}

/// `race`: every probe over one TM, or over every non-blocking TM of
/// the suite followed by the mutant self-test. The observability handle
/// flows into every TM the battery builds, so STM commit/abort counters
/// land in the metrics snapshot.
pub(crate) fn race(
    tm: Option<&str>,
    cfg: &DporConfig,
    obs: ObsHandle,
    out: &mut dyn Write,
) -> Result<i32, Error> {
    let reg = TmRegistry::suite();
    let specs: Vec<&TmSpec> = match tm {
        Some(name) => vec![reg.get(name).map_err(|e| format!("race: {e}"))?],
        None => reg.specs().iter().filter(|s| !s.blocking).collect(),
    };
    writeln!(
        out,
        "{:<28} {:<18} {:>13} {:>9}  verdict",
        "tm", "probe", "interleavings", "explored"
    )?;
    let mut all_clean = true;
    for spec in specs {
        if spec.blocking {
            return Err(format!(
                "race: '{}' is blocking — a transaction would hold the global \
                 lock across yield points; the step-level explorer needs \
                 non-blocking TMs",
                spec.name
            )
            .into());
        }
        let factory = dpor_factory(StmConfig::new(2).obs(obs), |cfg| Arc::from(spec.build(cfg)));
        let expect = if spec.properties.opaque_by_design {
            Expect::Acquittal
        } else {
            Expect::NotOpaque
        };
        for (probe, program) in race_probes() {
            all_clean &= judge(out, spec.name, probe, &factory, &program, cfg, expect)?;
        }
    }
    // Suite mode doubles as a self-test of the analysis: the two seeded
    // concurrency mutants — invisible to every op-granular sweep — must be
    // convicted at step granularity, each with a replayable schedule. Their
    // programs and preemption bounds are fixed (the smallest known to
    // convict), independent of the sweep knobs.
    let mut mutants_convicted = true;
    if tm.is_none() {
        let teeth = [
            (
                "mutant:dropped-residue",
                Mutation::DroppedResidue,
                Program::new(vec![
                    TxScript::new().write(0, 1),
                    TxScript::new().write(1, 2),
                ]),
                2,
            ),
            (
                "mutant:unlicensed-fast-path",
                Mutation::UnlicensedFastPath,
                Program::new(vec![
                    TxScript::new().read(0).write(1, 5),
                    TxScript::new().read(1).write(0, 7),
                ]),
                2,
            ),
        ];
        for (label, mutation, program, bound) in teeth {
            let base = StmConfig::new(program.required_k()).obs(obs);
            let factory = dpor_factory(base, |cfg| Arc::new(MutantStm::with_config(cfg, mutation)));
            let mcfg = DporConfig {
                max_interleavings: cfg.max_interleavings.max(200_000),
                preemption_bound: Some(bound),
                stop_on_violation: true,
                ..DporConfig::default()
            };
            mutants_convicted &= judge(
                out,
                label,
                "seeded-hazard",
                &factory,
                &program,
                &mcfg,
                Expect::Conviction,
            )?;
        }
    }
    Ok(if all_clean && mutants_convicted { 0 } else { 1 })
}
