//! `race`: the step-level race analysis battery.

use std::io::Write;
use std::sync::Arc;

use tm_harness::{
    check_race_trace, committed_serializable, explore, replay_schedule, shrink_schedule,
    DporConfig, Program, SharedStm, StmFactory, TxScript,
};
use tm_obs::ObsHandle;
use tm_stm::trace_cells::StepProbe;
use tm_stm::{MutantStm, Mutation, StmConfig, TmRegistry, TmSpec};

use crate::Error;

/// The step-level probe programs of the `race` sweep — the same §2 hazard
/// shapes as the conformance battery, minus write skew: `sistm` commits
/// write skew *by design* (a documented anomaly, not a clock-discipline
/// race), so a skew probe would convict a TM that is exactly as weak as it
/// advertises. The mutant self-test supplies the skew program where it
/// belongs.
fn race_probes() -> [(&'static str, Program); 2] {
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
    ]
}

/// A DPOR factory: `build` over `base`, with the explorer's step probe
/// attached when it passes one.
fn dpor_factory(
    base: StmConfig,
    build: impl Fn(&StmConfig) -> SharedStm + Sync,
) -> impl Fn(Option<Arc<dyn StepProbe>>) -> SharedStm + Sync {
    move |probe| match probe {
        Some(probe) => build(&base.clone().probe(probe)),
        None => build(&base),
    }
}

/// Explores one probe program and prints its row; a conviction also
/// prints its minimized replayable schedule. `expected` says whether a
/// conviction is the expected outcome (the mutant self-test). Returns
/// whether the outcome was the expected one.
fn judge(
    out: &mut dyn Write,
    label: &str,
    probe: &str,
    factory: StmFactory<'_>,
    program: &Program,
    cfg: &DporConfig,
    expected: bool,
) -> Result<bool, Error> {
    let res = explore(factory, program, cfg);
    let conviction = res.violations.first();
    let verdict = match (conviction, expected) {
        (None, false) => "clean".to_string(),
        (None, true) => "ESCAPED — the analysis lost its teeth".to_string(),
        (Some(c), false) => format!("CONVICTED: {}", c.kind),
        (Some(c), true) => format!("CONVICTED (expected): {}", c.kind),
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
            !check_race_trace(&r.trace, program.threads.len()).is_empty()
                || !committed_serializable(factory, program, &r.outcomes, &r.final_state)
        };
        let minimized = if violates(&conviction.schedule) {
            shrink_schedule(&conviction.schedule, violates)
        } else {
            conviction.schedule.clone()
        };
        let rendered: Vec<String> = minimized.iter().map(usize::to_string).collect();
        let rendered = rendered.join(" ");
        writeln!(out, "  minimized schedule (thread per step): {rendered}")?;
    }
    Ok(conviction.is_some() == expected)
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
        let base = StmConfig::new(2).recording(false).obs(obs);
        let factory = dpor_factory(base, |cfg| Arc::from(spec.build(cfg)));
        for (probe, program) in race_probes() {
            all_clean &= judge(out, spec.name, probe, &factory, &program, cfg, false)?;
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
                    TxScript::new().write(2, 1),
                ]),
                3,
            ),
        ];
        for (label, mutation, program, bound) in teeth {
            let base = StmConfig::new(program.required_k())
                .recording(false)
                .obs(obs);
            let factory = dpor_factory(base, |cfg| Arc::new(MutantStm::with_config(cfg, mutation)));
            let mcfg = DporConfig {
                max_interleavings: cfg.max_interleavings.max(200_000),
                preemption_bound: Some(bound),
                stop_on_violation: true,
                ..DporConfig::default()
            };
            mutants_convicted &=
                judge(out, label, "seeded-hazard", &factory, &program, &mcfg, true)?;
        }
    }
    Ok(if all_clean && mutants_convicted { 0 } else { 1 })
}
