//! The real-time-chained knot workload, shared by the test binaries that
//! pin what the serialization search spends on it: `knot_workloads.rs`
//! (nodes, memo hits, resident entries) and `monitor_footprint.rs`
//! (allocations and live bytes).

use tm_model::{History, HistoryBuilder};

/// The real-time-chained counterpart of `knot_workloads.rs`'s
/// `search_knot_history`: `knots` contention knots (`writers` blind
/// writers plus one needle reader per knot, each on its own register)
/// **chained in real time behind one-transaction gates**, closed by a
/// committed reader observing a value nobody wrote.
///
/// Each phase opens with a *gate* transaction that completes before any
/// later transaction begins, so the gate is a real-time predecessor of
/// everything after it — the history's **root fan-out is exactly 1 by
/// construction** (only the first gate is placeable on an empty frontier,
/// and it is committed, so it admits one placement). The width is all in
/// the interior of each knot (knot `r`'s `writers + 1` transactions are
/// mutually concurrent, and the reader observes the knot's FIRST writer, so
/// the needle prunes late). Distinct final writes per knot keep the
/// phase-boundary states distinct, so the interior work grows with
/// `writers ^ knots`. The impossible final read keeps the history
/// non-opaque, so every check exhausts the space: deterministic node counts
/// with no early-exit variance.
pub fn rt_chain_knot_history(knots: u32, writers: u32) -> History {
    let mut b = HistoryBuilder::new();
    let mut next = 1u32;
    for r in 0..knots {
        // The gate: completes before every later transaction's first event.
        let gate = next;
        next += 1;
        b = b
            .write(gate, &format!("g{r}"), 1)
            .try_commit(gate)
            .commit(gate);
        // The knot: all invocations precede all completions, so the knot's
        // transactions are mutually concurrent (no intra-knot RT edges).
        let obj = format!("k{r}");
        let base = next;
        next += writers + 1;
        for i in 0..writers {
            b = b.write(base + i, &obj, ((base + i) * 10) as i64);
        }
        let reader = base + writers;
        b = b.read(reader, &obj, (base * 10) as i64);
        for i in 0..=writers {
            b = b.try_commit(base + i).commit(base + i);
        }
    }
    let poison = next;
    b = b.read(poison, "k0", -1).try_commit(poison).commit(poison);
    b.build()
}
