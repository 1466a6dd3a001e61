//! # tm-bench — benchmark workloads with pinned counters
//!
//! The history generators behind the search and monitor benchmarks (the
//! `perfbench` package's `gen.rs` cites them by name), and the tests that
//! pin what the serialization search does on them. Node, memo-hit, eviction
//! and resident counts are facts about the search, not about the host, so
//! they are exact assertions here; wall-clock figures live in `perfbench`.
//!
//! * [`monitor_workload`] — real-time-sequenced contention knots, every
//!   prefix opaque: the online monitor against batch re-checks from scratch
//!   ([`batch_prefix_nodes`]), and the streaming monitor under memo caps;
//! * [`search_knot_history`] — mutually concurrent knots, one independent
//!   component each;
//! * [`sequential_knot_search`] — phased knots on one register: the batch
//!   check under memo caps;
//! * [`rt_chain_knot_history`] — knots chained in real time behind gates:
//!   one component whose interior work grows with the knot count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use tm_model::{History, HistoryBuilder};

/// The standard monitor workload: a prefix-opaque history of
/// repeated **contention knots**, each of which makes a from-scratch check
/// backtrack while the resumable monitor extends its previous witness.
///
/// One knot on a fresh register: six concurrent blind writers, then — once
/// the first writer is commit-pending — a reader that observes the *first*
/// writer's value and commits. The only serializations place `w1` and then
/// the reader before the remaining writers, so an unbiased DFS must first
/// exhaust the dead subtrees in which `w2..w6` precede the reader. Knots
/// are real-time-sequenced, so every re-check from scratch re-pays the
/// search for *every* knot so far, while the incremental monitor pays each
/// knot once and then resumes below the knots its witness already places.
///
/// Every prefix of the workload is opaque, so a monitor consumes it
/// end-to-end. `events` may land mid-knot; the truncated prefix is still
/// well-formed.
pub fn monitor_workload(events: usize) -> History {
    const WRITERS: u32 = 6;
    let per_round = 4 * WRITERS as usize + 4;
    let rounds = events.div_ceil(per_round).max(1) as u32;
    let mut b = HistoryBuilder::new();
    for r in 0..rounds {
        let obj = format!("k{r}");
        let base = r * (WRITERS + 1);
        let reader = base + WRITERS + 1;
        for i in 1..=WRITERS {
            b = b.write(base + i, &obj, ((base + i) * 10) as i64);
        }
        b = b.try_commit(base + 1);
        b = b.read(reader, &obj, ((base + 1) * 10) as i64);
        b = b.commit(base + 1);
        for i in 2..=WRITERS {
            b = b.try_commit(base + i).commit(base + i);
        }
        b = b.try_commit(reader).commit(reader);
    }
    b.build().prefix(events)
}

/// The concurrent search workload: `knots` mutually concurrent
/// contention knots — `writers` blind writers plus one reader per knot,
/// each knot on its own register — closed by a committed reader observing a
/// value nobody ever wrote.
///
/// Every transaction's first event precedes every completion, so there are
/// **no real-time edges at all**: every transaction is a root candidate,
/// `knots × (writers + 1) + 1` transactions, any of which could go first.
/// The impossible final read makes the history non-opaque, so every check
/// refutes it with the same deterministic node count, with no early-exit
/// variance.
///
/// The knots share no object and no real-time edge, so each knot (the first
/// one together with the poison reader) is an independent component. The
/// search completes one component before it starts the next and gives up
/// as soon as one cannot be completed, so it pays the *sum* of the per-knot
/// state spaces, not their product: with the poison on the first knot it
/// stops inside that knot, and with the poison on the last knot it pays
/// every knot once. The chained shape of [`rt_chain_knot_history`] is the
/// one-component counterpart whose interior work still grows with the
/// number of knots.
pub fn search_knot_history(knots: u32, writers: u32) -> History {
    let mut b = HistoryBuilder::new();
    // Phase 1: every operation completes before any transaction does, so
    // pred masks stay empty and every placement order is real-time-legal.
    for r in 0..knots {
        let obj = format!("k{r}");
        let base = r * (writers + 1);
        for i in 1..=writers {
            b = b.write(base + i, &obj, ((base + i) * 10) as i64);
        }
        // The knot reader observes the knot's FIRST writer, so only
        // serializations where that writer is the latest write before the
        // reader survive.
        b = b.read(base + writers + 1, &obj, ((base + 1) * 10) as i64);
    }
    let poison = knots * (writers + 1) + 1;
    b = b.read(poison, "k0", -1);
    // Phase 2: all completions.
    for r in 0..knots {
        let base = r * (writers + 1);
        for i in 1..=writers + 1 {
            b = b.try_commit(base + i).commit(base + i);
        }
    }
    b = b.try_commit(poison).commit(poison);
    b.build()
}

/// The memory-stress search workload: `knots`
/// **real-time-sequenced** contention knots, all on ONE register, closed by
/// a committed reader observing a value nobody wrote.
///
/// Real-time order makes the search strictly phased — knot `r+1`'s
/// transactions are placeable only after every knot-`r` transaction — and
/// the shared register makes the phases *converge*: whatever knot `r`'s
/// last writer left behind, knot `r+1`'s first placement overwrites it, so
/// cross-knot state products collapse and the unbounded node count grows
/// only linearly in `knots`. The dead-end table, however, accumulates every
/// knot's interior: its peak grows with the history while the *live*
/// working set is roughly one knot's interior plus the convergence spine —
/// exactly the shape on which a bounded memo should win, and the workload
/// behind the "quarter-capacity costs <20% extra nodes" bar pinned in the
/// tests below. (The impossible final read forces exhaustion, so node
/// counts are deterministic.)
pub fn sequential_knot_search(knots: u32, writers: u32) -> History {
    let mut b = HistoryBuilder::new();
    for r in 0..knots {
        let base = r * (writers + 1);
        let reader = base + writers + 1;
        for i in 1..=writers {
            b = b.write(base + i, "x", ((base + i) * 10) as i64);
        }
        b = b.try_commit(base + 1);
        b = b.read(reader, "x", ((base + 1) * 10) as i64);
        b = b.commit(base + 1);
        for i in 2..=writers {
            b = b.try_commit(base + i).commit(base + i);
        }
        b = b.try_commit(reader).commit(reader);
    }
    let poison = knots * (writers + 1) + 1;
    b = b.read(poison, "x", -1).try_commit(poison).commit(poison);
    b.build()
}

/// The real-time-chained counterpart of [`search_knot_history`]: `knots`
/// contention knots (`writers` blind writers plus one needle reader per
/// knot, each on its own register) **chained in real time behind
/// one-transaction gates**, closed by a committed reader observing a value
/// nobody wrote.
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

/// Total DFS nodes for checking every response-event prefix of `h` from
/// scratch — the cost model of the pre-resumable monitor, and the baseline
/// the monitor's pinned node counts are compared against.
pub fn batch_prefix_nodes(h: &History, specs: &tm_model::SpecRegistry) -> usize {
    let mut total = 0;
    for i in 0..h.len() {
        if h.events()[i].is_response() {
            total += tm_opacity::opacity::is_opaque(&h.prefix(i + 1), specs)
                .expect("workload prefixes are checkable")
                .stats
                .nodes;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::SpecRegistry;
    use tm_opacity::incremental::OpacityMonitor;

    #[test]
    fn monitor_workload_prefixes_are_opaque_and_well_formed() {
        let specs = SpecRegistry::registers();
        let h = monitor_workload(72);
        assert_eq!(h.len(), 72);
        assert!(tm_model::is_well_formed(&h));
        let mut m = OpacityMonitor::new(&specs);
        assert_eq!(
            m.feed_all(&h).unwrap(),
            None,
            "every prefix of the standard workload must be opaque"
        );
    }

    #[test]
    fn search_knot_history_is_wellformed_and_nonopaque() {
        use tm_opacity::search::{search, SearchMode};
        let specs = SpecRegistry::registers();
        let h = search_knot_history(2, 3);
        assert!(tm_model::is_well_formed(&h));
        let out = search(&h, &specs, SearchMode::OPACITY).unwrap();
        assert!(!out.holds(), "the poison read must defeat every witness");
    }

    #[test]
    fn rt_chain_knot_history_is_wellformed_and_nonopaque() {
        use tm_opacity::search::{search, SearchMode};
        let specs = SpecRegistry::registers();
        let h = rt_chain_knot_history(3, 3);
        assert!(tm_model::is_well_formed(&h));
        let out = search(&h, &specs, SearchMode::OPACITY).unwrap();
        assert!(!out.holds(), "the poison read must defeat every witness");
    }

    #[test]
    fn bounded_memo_quarter_cap_regresses_nodes_under_20_percent() {
        // The ROADMAP's bounded-memory acceptance bar, pinned
        // deterministically on the phased contention-knot workload: with
        // the memo capped at 1/4 of the unbounded table's peak size, the
        // resident count respects the cap, the cap genuinely binds
        // (evictions happen), the verdict is unchanged, and the total
        // search work grows by less than 20%.
        use tm_opacity::{CheckSession, SearchConfig, SearchMode};
        let specs = SpecRegistry::registers();
        let h = sequential_knot_search(15, 3);
        let mut unbounded = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        for e in h.events() {
            unbounded.extend(e).unwrap();
        }
        let base = unbounded.check().unwrap();
        assert!(!base.holds());
        // A batch check never invalidates mid-check, so the table only
        // grows: the post-check resident count IS the peak.
        let peak = unbounded.memo_resident();
        assert!(
            peak >= 256,
            "workload too small to exercise the bound: {peak}"
        );
        let cap = peak / 4;
        let mut bounded = CheckSession::new(
            &specs,
            SearchMode::OPACITY,
            SearchConfig {
                memo_capacity: Some(cap),
                ..SearchConfig::default()
            },
        );
        for e in h.events() {
            bounded.extend(e).unwrap();
        }
        let out = bounded.check().unwrap();
        assert_eq!(out.holds(), base.holds(), "verdict unchanged");
        assert!(
            bounded.memo_resident() <= cap,
            "resident {} exceeds cap {cap}",
            bounded.memo_resident()
        );
        assert!(out.stats.evictions > 0, "the cap must actually bind");
        let overhead = out.stats.nodes as f64 / base.stats.nodes.max(1) as f64 - 1.0;
        assert!(
            overhead < 0.20,
            "quarter-capacity overhead {:.1}% (nodes {} vs {})",
            overhead * 100.0,
            out.stats.nodes,
            base.stats.nodes
        );
    }

    #[test]
    fn bounded_memo_monitor_latency_path_degrades_gracefully() {
        // The streaming half of the bounded-memory story: the monitor's
        // invalidation already keeps its table small, and even an
        // aggressive cap (an eighth of the streaming peak) costs only a
        // modest amount of re-exploration — no thrash cliff. Every point is
        // pinned exactly: `(peak resident, evictions, lifetime nodes)` at
        // caps of a half, a quarter and an eighth of the unbounded peak.
        use tm_opacity::incremental::MonitorVerdict;
        use tm_opacity::SearchConfig;
        let specs = SpecRegistry::registers();
        let h = monitor_workload(192);
        let run = |config: SearchConfig| {
            let mut m = OpacityMonitor::new(&specs).with_config(config);
            let mut peak = 0usize;
            for e in h.events() {
                let verdict = m.feed(e.clone()).unwrap();
                assert!(!matches!(verdict, MonitorVerdict::Violated { .. }));
                peak = peak.max(m.memo_resident());
            }
            (peak, m.memo_evictions(), m.lifetime_stats().nodes)
        };
        let (peak, evictions, base_nodes) = run(SearchConfig::default());
        assert_eq!((peak, evictions, base_nodes), (33, 0, 1399));
        for (frac, pinned) in [
            (2, (16, 326, 1480)),
            (4, (8, 952, 1786)),
            (8, (4, 1998, 2535)),
        ] {
            let cap = peak / frac;
            let point = run(SearchConfig {
                memo_capacity: Some(cap),
                ..SearchConfig::default()
            });
            assert_eq!(point, pinned, "cap {cap}");
            assert!(point.0 <= cap);
            assert!(
                point.2 < base_nodes * 2,
                "cap {cap}: streaming overhead too high: {} vs {base_nodes}",
                point.2
            );
        }
    }

    #[test]
    fn incremental_monitor_beats_batch_rechecks_12x_at_length_64() {
        // The acceptance bar of the resumable session: on the standard
        // workload at history length 64, the incremental path does at most
        // a twelfth of the batch path's search work. Each check resumes
        // below the unchanged prefix of the last witness. Both node counts
        // are deterministic, so the whole table is pinned:
        // `(events, incremental nodes, batch nodes)`.
        let specs = SpecRegistry::registers();
        let table = [
            (16, 13, 35),
            (32, 209, 1104),
            (64, 418, 5308),
            (96, 627, 12612),
            (128, 841, 23015),
            (192, 1399, 53459),
        ];
        for (events, incremental, batch) in table {
            let h = monitor_workload(events);
            assert_eq!(h.len(), events);
            let mut m = OpacityMonitor::new(&specs);
            assert_eq!(m.feed_all(&h).unwrap(), None);
            assert_eq!(
                (m.lifetime_stats().nodes, batch_prefix_nodes(&h, &specs)),
                (incremental, batch),
                "length {events}"
            );
        }
        let (_, incremental, batch) = table[2];
        assert!(
            batch >= 12 * incremental,
            "batch {batch} nodes vs incremental {incremental} nodes: ratio {:.2} < 12",
            batch as f64 / incremental as f64
        );
    }

    #[test]
    fn monitor_lifetime_counters_are_pinned() {
        // The monitor's exploration over a whole stream is deterministic,
        // so its lifetime counters are pinned exactly: `(nodes, memo_hits,
        // illegal_placements, state_clones)`. Resuming from the checkpoint
        // never needs the full-walk fallback on this workload, and the
        // nodes per check stay flat as the history triples (a check that
        // re-walked the witness from the root would grow with it).
        let specs = SpecRegistry::registers();
        let run = |events: usize| {
            let mut m = OpacityMonitor::new(&specs);
            assert_eq!(m.feed_all(&monitor_workload(events)).unwrap(), None);
            let s = m.lifetime_stats();
            assert_eq!(s.fallbacks, 0, "length {events}");
            let per_check = s.nodes as f64 / m.check_counts().0 as f64;
            (
                [s.nodes, s.memo_hits, s.illegal_placements, s.state_clones],
                per_check,
            )
        };
        let (short, short_per_check) = run(64);
        assert_eq!(short, [418, 172, 144, 144]);
        let (long, long_per_check) = run(192);
        assert_eq!(long, [1399, 584, 484, 484]);
        assert!(
            long_per_check <= 1.2 * short_per_check,
            "nodes per check grew from {short_per_check:.2} to {long_per_check:.2}"
        );
    }

    /// [`search_knot_history`] with the poison read moved from the first
    /// knot's register to the last knot's.
    fn poison_on_last_knot(knots: u32, writers: u32) -> History {
        use tm_model::{Event, ObjId, TxId};
        let poison = TxId(knots * (writers + 1) + 1);
        let last = ObjId::new(&format!("k{}", knots - 1));
        let mut h = History::new();
        for e in search_knot_history(knots, writers).events() {
            h.push(match e {
                Event::Inv { tx, op, args, .. } if *tx == poison => Event::Inv {
                    tx: *tx,
                    obj: last.clone(),
                    op: op.clone(),
                    args: args.clone(),
                },
                Event::Ret { tx, op, val, .. } if *tx == poison => Event::Ret {
                    tx: *tx,
                    obj: last.clone(),
                    op: op.clone(),
                    val: val.clone(),
                },
                _ => e.clone(),
            });
        }
        h
    }

    #[test]
    fn a_failing_last_component_costs_the_sum_of_the_components() {
        // Each knot is a component. The first k - 1 are completed once
        // each (four nodes: the boundary and three placements), and the
        // last one, which holds the poison read, fails at its boundary.
        // Searched as one product space, the same history took 113, 1 345,
        // …, 117 440 513 nodes for k = 2, 3, …, 8.
        use tm_opacity::search::{search, SearchMode};
        let specs = SpecRegistry::registers();
        for k in 2..=8u32 {
            let h = poison_on_last_knot(k, 2);
            let out = search(&h, &specs, SearchMode::OPACITY).unwrap();
            assert!(!out.holds(), "k = {k}");
            assert_eq!(out.stats.nodes, 4 * k as usize + 4, "k = {k}");
        }
    }

    /// The exploration counters the representation of object states must
    /// not move: `(nodes, memo_hits, illegal_placements, state_clones,
    /// evictions)`.
    fn exploration(stats: tm_opacity::SearchStats) -> [usize; 5] {
        [
            stats.nodes,
            stats.memo_hits,
            stats.illegal_placements,
            stats.state_clones,
            stats.evictions,
        ]
    }

    #[test]
    fn exploration_counters_are_pinned() {
        // Exhaustive searches are deterministic, so their counters are
        // facts about the search, not about the host. Pinned exactly: a
        // change to how object states are stored or fingerprinted must not
        // move a single node, and a fingerprint change that reshuffles the
        // memo shards shows up in the bounded check's evictions.
        use tm_opacity::search::search;
        use tm_opacity::{CheckSession, SearchConfig, SearchMode};
        let specs = SpecRegistry::registers();
        let check = |h: &History, config: SearchConfig| {
            let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
            for e in h.events() {
                s.extend(e).unwrap();
            }
            let out = s.check().unwrap();
            assert!(!out.holds(), "every pinned history is non-opaque");
            (exploration(out.stats), s.memo_resident())
        };
        // The four shapes of the benchmark's check batch.
        let shapes = [
            (
                "chained 3x3",
                rt_chain_knot_history(3, 3),
                [339, 65, 144, 274, 0],
            ),
            (
                "concurrent 3x2",
                search_knot_history(3, 2),
                [8, 0, 11, 8, 0],
            ),
            (
                "chained 5x3",
                rt_chain_knot_history(5, 3),
                [3147, 605, 1332, 2542, 0],
            ),
            (
                "concurrent 2x4",
                search_knot_history(2, 4),
                [85, 32, 78, 53, 0],
            ),
        ];
        for (name, h, pinned) in &shapes {
            let (counters, resident) = check(h, SearchConfig::default());
            assert_eq!(&counters, pinned, "{name}");
            assert_eq!(
                resident, pinned[3],
                "{name}: an unbounded batch check keeps every insert"
            );
            let oneshot = search(h, &specs, SearchMode::OPACITY).unwrap();
            assert_eq!(exploration(oneshot.stats), counters, "{name}");
        }
        // The half- and quarter-capacity bounded checks of the phased knot
        // workload.
        let h = sequential_knot_search(15, 3);
        let (unbounded, peak) = check(&h, SearchConfig::default());
        assert_eq!((unbounded, peak), ([460, 159, 166, 301, 0], 301));
        let capped = |cap| {
            check(
                &h,
                SearchConfig {
                    memo_capacity: Some(cap),
                    ..SearchConfig::default()
                },
            )
        };
        assert_eq!(capped(peak / 2), ([460, 144, 181, 316, 168], 148));
        assert_eq!(capped(peak / 4), ([483, 145, 199, 338, 264], 74));
    }
}
