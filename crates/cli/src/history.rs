//! The commands over one history: `check`, `explain`, `criteria`, `graph`,
//! `convert` and `generate`.

use std::collections::HashSet;
use std::io::Write;

use tm_model::{History, RealTimeOrder, SpecRegistry};
use tm_opacity::criteria;
use tm_opacity::explain::explain_violation;
use tm_opacity::graph::{build_opg, nonlocal, with_initial_tx};
use tm_opacity::graphcheck::construct_graph_witness;
use tm_opacity::opacity::is_opaque_with;
use tm_opacity::SearchConfig;
use tm_trace::{from_json, from_text, to_json_pretty, to_text};

use crate::Error;

/// Reads a trace from `path` (`-` = stdin) and parses it, auto-detecting
/// the format: inputs whose first non-whitespace byte is `{` are JSON.
pub fn load_history(path: &str) -> Result<History, String> {
    let raw = if path == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    parse_trace(&raw)
}

/// Parses trace content with format auto-detection.
pub fn parse_trace(raw: &str) -> Result<History, String> {
    if raw.trim_start().starts_with('{') {
        from_json(raw).map_err(|e| format!("JSON trace: {e}"))
    } else {
        from_text(raw).map_err(|e| format!("text trace: {e}"))
    }
}

/// [`load_history`], then reject a history that is not well-formed.
fn load_checked(path: &str) -> Result<History, String> {
    let h = load_history(path)?;
    tm_model::check_well_formed(&h).map_err(|e| format!("not well-formed: {e}"))?;
    Ok(h)
}

/// Runs `f`; with a sink, a ticker thread meanwhile renders its
/// `search.nodes_live` counter (updated once per kilonode by the search) as
/// a live line on stderr. The ticker clears its line before `f` returns,
/// so the verdict output is never interleaved with it.
fn with_progress<T>(obs: Option<tm_obs::ObsHandle>, f: impl FnOnce() -> T) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let Some(obs) = obs else { return f() };
    // Dropping `stop` (also when `f` unwinds) ends the ticker.
    let (stop, stopped) = channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let tick = std::time::Duration::from_millis(100);
            let mut printed = false;
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
                if let Some(snap) = obs.snapshot() {
                    let nodes = snap.counter("search.nodes_live").unwrap_or(0);
                    eprint!("\rsearch: {nodes} nodes explored …");
                    printed = true;
                }
            }
            if printed {
                eprint!("\r\x1b[2K");
            }
        });
        let result = f();
        drop(stop);
        result
    })
}

/// `check`: the opacity verdict, with a witness serialization when opaque.
pub(crate) fn check(
    file: &str,
    search: SearchConfig,
    progress: bool,
    out: &mut dyn Write,
) -> Result<i32, Error> {
    let h = load_checked(file)?;
    let specs = SpecRegistry::registers();
    let report = with_progress(progress.then_some(search.obs), || {
        is_opaque_with(&h, &specs, search)
    })?;
    let (events, txs) = (h.len(), h.txs().len());
    writeln!(out, "history: {events} events, {txs} transactions")?;
    let nodes = report.stats.nodes;
    if !report.opaque {
        let hint = "hint: run `tmcheck explain` for the violation localization";
        writeln!(
            out,
            "verdict: NOT OPAQUE\nsearch: {nodes} nodes explored\n{hint}"
        )?;
        return Ok(1);
    }
    writeln!(out, "verdict: OPAQUE")?;
    if let Some(witness) = &report.witness {
        let order: Vec<String> = witness
            .order
            .iter()
            .map(|(t, p)| format!("{t}({p:?})"))
            .collect();
        writeln!(out, "witness serialization: {}", order.join(" ≪ "))?;
    }
    writeln!(out, "search: {nodes} nodes explored")?;
    Ok(0)
}

/// `explain`: localize the first opacity violation.
pub(crate) fn explain(file: &str, out: &mut dyn Write) -> Result<i32, Error> {
    let h = load_checked(file)?;
    let Some(ex) = explain_violation(&h, &SpecRegistry::registers())? else {
        writeln!(out, "history is opaque — nothing to explain")?;
        return Ok(0);
    };
    writeln!(out, "{ex}")?;
    Ok(1)
}

/// `criteria`: one verdict per criterion of the Section-3 lattice.
pub(crate) fn criteria(file: &str, out: &mut dyn Write) -> Result<i32, Error> {
    let h = load_checked(file)?;
    let specs = SpecRegistry::registers();
    let p = criteria::classify(&h, &specs)?;
    let yn = |b: bool| if b { "yes" } else { "NO" };
    let si = criteria::snapshot_isolated(&h, &specs).map_or("n/a (non-register objects)", yn);
    for (label, verdict) in [
        ("serializable (global atomicity):", yn(p.serializable)),
        ("strictly serializable:", yn(p.strictly_serializable)),
        ("recoverable:", yn(p.recoverable)),
        ("avoids cascading aborts:", yn(p.avoids_cascading_aborts)),
        ("strict:", yn(p.strict)),
        ("rigorous (§3.6):", yn(p.rigorous)),
        ("snapshot-isolated:", si),
        ("opaque (Definition 1):", yn(p.opaque)),
    ] {
        writeln!(out, "{label:<34}{verdict}")?;
    }
    Ok(if p.opaque { 0 } else { 1 })
}

/// `graph`: Graphviz DOT of the Section-5.4 opacity graph.
pub(crate) fn graph(file: &str, out: &mut dyn Write) -> Result<i32, Error> {
    let h = load_checked(file)?;
    let specs = SpecRegistry::registers();
    let h0 = nonlocal(&with_initial_tx(&h, &specs));
    let (header, order, visible, code): (_, _, HashSet<_>, _) =
        match construct_graph_witness(&h, &specs)? {
            Some(witness) => (
                "// OPG(nonlocal(H·T0), ≪, V) for the opacity witness",
                witness.order,
                witness.visible.into_iter().collect(),
                0,
            ),
            None => {
                // No witness exists: render the graph under the
                // real-time-compatible identity order with V = all
                // commit-pending, for inspection of the obstruction.
                let rt = RealTimeOrder::of(&h0);
                let mut order = h0.txs();
                order.sort_by(|&a, &b| match (rt.precedes(a, b), rt.precedes(b, a)) {
                    (true, _) => std::cmp::Ordering::Less,
                    (_, true) => std::cmp::Ordering::Greater,
                    _ => a.cmp(&b),
                });
                (
                    "// history is NOT opaque: no (≪,V) yields a well-formed acyclic OPG;\n\
                     // shown under the identity order with V = all commit-pending",
                    order,
                    h0.commit_pending_txs().into_iter().collect(),
                    1,
                )
            }
        };
    let dot = build_opg(&h0, &order, &visible).to_dot();
    writeln!(out, "{header}\n{dot}")?;
    Ok(code)
}

/// `convert` and `generate`: a history in either trace format, ending in a
/// newline.
pub(crate) fn render(h: &History, json: bool, out: &mut dyn Write) -> Result<i32, Error> {
    if json {
        writeln!(out, "{}", to_json_pretty(h))?;
    } else {
        write!(out, "{}", to_text(h))?;
    }
    Ok(0)
}
