//! # tm-bench — benchmark harness
//!
//! Criterion benchmarks regenerating the paper's quantitative content:
//!
//! * `benches/lower_bound.rs` — E8/E9: the Theorem-3 scenarios (wall-clock
//!   companion to the exact step counts printed by
//!   `cargo run --release --example lower_bound`);
//! * `benches/checker.rs` — E13: definitional checker, graph construction,
//!   online monitor, and the memoization ablation;
//! * `benches/throughput.rs` — E14: committed-transaction throughput and
//!   abort rates across the TM design space, plus the contention-manager
//!   ablation;
//! * `benches/model_ops.rs` — model-layer primitives (projection, legality,
//!   well-formedness);
//! * `benches/monitor.rs` — the resumable online monitor against batch
//!   re-check-from-scratch on growing histories (the `report` bin writes
//!   the machine-readable companion `BENCH_monitor.json`);
//! * `benches/clocks.rs` — commit-throughput scaling of the pluggable
//!   version-clock schemes (`single`/`sharded:N`/`deferred`) on the
//!   commit-storm workload (companion artifact: `BENCH_clocks.json`).
//!
//! The library itself only hosts shared history generators for the benches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use tm_model::{History, HistoryBuilder};

/// Builds a legal sequential chain history: `n` transactions, each reading
/// the previous value of `x` and writing the next (a checker-friendly
/// baseline whose serialization is unique).
pub fn chain_history(n: u32) -> History {
    let mut b = HistoryBuilder::new();
    for t in 1..=n {
        b = b
            .read(t, "x", (t - 1) as i64)
            .write(t, "x", t as i64)
            .commit_ok(t);
    }
    b.build()
}

/// Builds a history of `n` concurrent committed blind writers to one
/// register (the stress case for the serialization search: n! orders, tiny
/// state space — memoization's best case).
pub fn blind_writers_history(n: u32) -> History {
    let mut b = HistoryBuilder::new();
    for t in 1..=n {
        b = b.write(t, "x", t as i64);
    }
    for t in 1..=n {
        b = b.commit_ok(t);
    }
    b.build()
}

/// The standard workload of the `monitor` bench: a prefix-opaque history of
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
/// knot once and then walks its witness in linear time.
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

/// The workload of the `search/*` bench suite: `knots` mutually concurrent
/// contention knots — `writers` blind writers plus one reader per knot,
/// each knot on its own register — closed by a committed reader observing a
/// value nobody ever wrote.
///
/// Every transaction's first event precedes every completion, so there are
/// **no real-time edges at all**: every transaction is a root candidate,
/// which gives the parallel search `knots × (writers + 1) + 1` independent
/// root subtrees to distribute over its work-stealing pool. The impossible
/// final read makes the history non-opaque, so a batch check must exhaust
/// the entire serialization space — a deterministic node count with no
/// early-exit variance, which is what a throughput-scaling bench needs.
/// The per-knot state spaces multiply, so the dead-end memo grows into the
/// thousands of entries even at small sizes (the stress case for
/// `memo_capacity`).
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
        // reader survive — the search must thread every knot's needle
        // simultaneously.
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

/// The memory-stress workload of the `search/*` suite: `knots`
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

/// The adversary of the root-split parallel search: `knots` contention
/// knots (`writers` blind writers plus one needle reader per knot, each on
/// its own register) **chained in real time behind one-transaction
/// gates**, closed by a committed reader observing a value nobody wrote.
///
/// Each phase opens with a *gate* transaction that completes before any
/// later transaction begins, so the gate is a real-time predecessor of
/// everything after it — the history's **root fan-out is exactly 1 by
/// construction** (only the first gate is placeable on an empty frontier,
/// and it is committed, so it admits one placement). Root-only parallelism
/// therefore degenerates to a sequential walk no matter how many workers
/// are configured; only dynamic subtree splitting
/// ([`tm_opacity::SearchConfig::split_depth`]) lets the pool distribute
/// the wide interior of each knot (knot `r`'s `writers + 1` transactions
/// are mutually concurrent, and the reader observes the knot's FIRST
/// writer, so the needle prunes late). Distinct final writes per knot keep
/// the phase-boundary states distinct, so the interior work grows with
/// `writers ^ knots` — plenty of nodes to distribute. The impossible final
/// read keeps the history non-opaque, so every check exhausts the space:
/// deterministic sequential node counts with no early-exit variance.
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

/// Builds a mixed reader/writer history with `n` committed transactions on
/// two registers that exercises backtracking in the checker.
pub fn mixed_history(n: u32) -> History {
    let mut b = HistoryBuilder::new();
    let mut last_x = 0i64;
    for t in 1..=n {
        if t % 2 == 1 {
            b = b
                .write(t, "x", t as i64)
                .write(t, "y", t as i64)
                .commit_ok(t);
            last_x = t as i64;
        } else {
            b = b.read(t, "x", last_x).read(t, "y", last_x).commit_ok(t);
        }
    }
    b.build()
}

/// Total DFS nodes for checking every response-event prefix of `h` from
/// scratch — the cost model of the pre-resumable monitor, and the baseline
/// the `monitor` bench and `BENCH_monitor.json` compare against.
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
    use tm_opacity::opacity::is_opaque;

    #[test]
    fn generated_bench_histories_are_opaque() {
        let specs = SpecRegistry::registers();
        for h in [chain_history(6), blind_writers_history(6), mixed_history(8)] {
            assert!(tm_model::is_well_formed(&h));
            assert!(is_opaque(&h, &specs).unwrap().opaque, "{h}");
        }
    }

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
    fn search_knot_history_is_wellformed_nonopaque_and_root_parallel() {
        use tm_opacity::search::Search;
        use tm_opacity::{SearchConfig, SearchMode};
        let specs = SpecRegistry::registers();
        let h = search_knot_history(2, 3);
        assert!(tm_model::is_well_formed(&h));
        let seq = Search::new(&h, &specs, SearchMode::OPACITY, SearchConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(!seq.holds(), "the poison read must defeat every witness");
        // Parallel verdict identity on the bench workload itself.
        for jobs in [2usize, 4, 8] {
            let out = Search::new(
                &h,
                &specs,
                SearchMode::OPACITY,
                SearchConfig {
                    search_jobs: jobs,
                    ..SearchConfig::default()
                },
            )
            .unwrap()
            .run()
            .unwrap();
            assert_eq!(out.holds(), seq.holds(), "jobs={jobs}");
        }
    }

    #[test]
    fn rt_chain_knot_history_has_root_fanout_one_and_splits_feed_workers() {
        use tm_opacity::search::Search;
        use tm_opacity::{SearchConfig, SearchMode};
        let specs = SpecRegistry::registers();
        let h = rt_chain_knot_history(3, 3);
        assert!(tm_model::is_well_formed(&h));
        let seq = Search::new(&h, &specs, SearchMode::OPACITY, SearchConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(!seq.holds(), "the poison read must defeat every witness");
        // Root fan-out 1 by construction: with splitting disabled, the
        // parallel engine degenerates to a single root task no matter the
        // worker count — no steals, nothing donated.
        let rootonly = Search::new(
            &h,
            &specs,
            SearchMode::OPACITY,
            SearchConfig {
                search_jobs: 8,
                split_depth: 0,
                ..SearchConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(rootonly.holds(), seq.holds());
        assert_eq!(rootonly.stats.steals, 0, "root fan-out must be 1");
        assert_eq!(rootonly.stats.donated_tasks, 0, "splitting was disabled");
        // With splitting enabled the hungry workers actually get fed, and
        // the verdict is unchanged.
        for jobs in [4usize, 8] {
            let out = Search::new(
                &h,
                &specs,
                SearchMode::OPACITY,
                SearchConfig {
                    search_jobs: jobs,
                    ..SearchConfig::default()
                },
            )
            .unwrap()
            .run()
            .unwrap();
            assert_eq!(out.holds(), seq.holds(), "jobs={jobs}");
            assert!(
                out.stats.donated_tasks > 0,
                "jobs={jobs}: splitting must feed the hungry workers"
            );
            assert!(out.stats.splits > 0, "jobs={jobs}");
            assert!(
                out.stats.splits <= out.stats.donated_tasks,
                "each split donates at least one task"
            );
        }
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
        // modest amount of re-exploration — no thrash cliff.
        use tm_opacity::incremental::OpacityMonitor;
        use tm_opacity::SearchConfig;
        let specs = SpecRegistry::registers();
        let h = monitor_workload(192);
        let mut unbounded = OpacityMonitor::new(&specs);
        let mut peak = 0usize;
        for e in h.events() {
            unbounded.feed(e.clone()).unwrap();
            peak = peak.max(unbounded.memo_resident());
        }
        let base_nodes = unbounded.lifetime_stats().nodes.max(1);
        let cap = (peak / 8).max(1);
        let mut bounded = OpacityMonitor::new(&specs).with_config(SearchConfig {
            memo_capacity: Some(cap),
            ..SearchConfig::default()
        });
        assert_eq!(bounded.feed_all(&h).unwrap(), None, "verdicts unchanged");
        assert!(bounded.memo_resident() <= cap);
        let nodes = bounded.lifetime_stats().nodes;
        assert!(
            nodes < base_nodes * 2,
            "eighth-capacity streaming overhead too high: {nodes} vs {base_nodes}"
        );
    }

    #[test]
    fn incremental_monitor_beats_batch_rechecks_5x_at_length_64() {
        // The acceptance bar of the resumable-core refactor: on the standard
        // workload at history length 64, the incremental path does at most a
        // fifth of the batch path's search work (deterministic node counts,
        // so this is a stable proxy for the wall-clock bench).
        let specs = SpecRegistry::registers();
        let h = monitor_workload(64);
        assert_eq!(h.len(), 64);
        let mut m = OpacityMonitor::new(&specs);
        assert_eq!(m.feed_all(&h).unwrap(), None);
        let incremental = m.lifetime_stats().nodes.max(1);
        let batch = batch_prefix_nodes(&h, &specs);
        assert!(
            batch >= 5 * incremental,
            "batch {batch} nodes vs incremental {incremental} nodes: ratio {:.2} < 5",
            batch as f64 / incremental as f64
        );
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
        use tm_opacity::search::Search;
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
                [1345, 833, 1088, 512, 0],
            ),
            (
                "chained 5x3",
                rt_chain_knot_history(5, 3),
                [3147, 605, 1332, 2542, 0],
            ),
            (
                "concurrent 2x4",
                search_knot_history(2, 4),
                [8905, 6096, 5459, 2809, 0],
            ),
        ];
        for (name, h, pinned) in &shapes {
            let (counters, resident) = check(h, SearchConfig::default());
            assert_eq!(&counters, pinned, "{name}");
            assert_eq!(
                resident, pinned[3],
                "{name}: an unbounded batch check keeps every insert"
            );
            let oneshot = Search::new(h, &specs, SearchMode::OPACITY, SearchConfig::default())
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(exploration(oneshot.stats), counters, "{name}");
        }
        // The quarter-capacity bounded check of the phased knot workload.
        let h = sequential_knot_search(15, 3);
        let (unbounded, peak) = check(&h, SearchConfig::default());
        assert_eq!((unbounded, peak), ([460, 159, 166, 301, 0], 301));
        let bounded = check(
            &h,
            SearchConfig {
                memo_capacity: Some(peak / 4),
                ..SearchConfig::default()
            },
        );
        assert_eq!(bounded, ([483, 145, 199, 338, 264], 74));
    }
}
