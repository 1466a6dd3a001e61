//! `check_batch`: the path of `tmcheck check` — parse a tm-trace JSON
//! document, check it is well-formed, run `is_opaque` with the default
//! search configuration — over a seeded batch of exhaustive knot histories.

use std::time::Instant;

use tm_model::{check_well_formed, SpecRegistry};
use tm_opacity::opacity::is_opaque;
use tm_opacity::search::{CheckSession, SearchConfig, SearchMode, SearchStats};
use tm_trace::{from_json, to_json};

use crate::gen::{self, BatchItem};
use crate::measure::{metric, ratio, Histogram, Metric};
use crate::trace::{Layer, Tracer};

pub struct Batch {
    texts: Vec<String>,
    items: Vec<BatchItem>,
    /// Node count of each history's first check. Every later check of the
    /// same history must repeat it: exhaustive searches are deterministic.
    pins: Vec<usize>,
    specs: SpecRegistry,
}

/// What one check produced.
struct Outcome {
    opaque: bool,
    stats: SearchStats,
}

fn check(text: &str, specs: &SpecRegistry) -> Result<Outcome, String> {
    let h = from_json(text).map_err(|e| e.to_string())?;
    check_well_formed(&h).map_err(|e| e.to_string())?;
    let report = is_opaque(&h, specs).map_err(|e| e.to_string())?;
    Ok(Outcome {
        opaque: report.opaque,
        stats: report.stats,
    })
}

impl Batch {
    /// Generates and renders the batch, then checks every history once
    /// (the warm-up) to pin its node count. Returns the failures seen.
    pub fn setup(seed: u64) -> (Batch, u64) {
        let items = gen::batch(seed);
        let texts = items.iter().map(|i| to_json(&i.history)).collect();
        let mut batch = Batch {
            texts,
            items,
            pins: Vec::new(),
            specs: SpecRegistry::registers(),
        };
        let mut failed = 0;
        for text in &batch.texts {
            match check(text, &batch.specs) {
                Ok(o) => {
                    failed += u64::from(o.opaque);
                    batch.pins.push(o.stats.nodes);
                }
                Err(e) => {
                    eprintln!("check failed: {e}");
                    failed += 1;
                    batch.pins.push(0);
                }
            }
        }
        (batch, failed)
    }

    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Prints the node counts of each shape.
    pub fn describe(&self) {
        for (shape, _) in gen::BATCH {
            let mut nodes: Vec<usize> = (0..self.len())
                .filter(|&i| self.items[i].shape == shape)
                .map(|i| self.pins[i])
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            println!("# {shape}: nodes per history {nodes:?}");
        }
    }

    /// One check of history `i`: a failure unless it is reported not
    /// opaque with its pinned node count.
    fn verify(&self, i: usize, outcome: Result<Outcome, String>) -> Option<SearchStats> {
        match outcome {
            Ok(o) if !o.opaque && o.stats.nodes == self.pins[i] => Some(o.stats),
            Ok(o) => {
                eprintln!(
                    "history {i}: opaque={} nodes={} (expected not opaque, {} nodes)",
                    o.opaque, o.stats.nodes, self.pins[i]
                );
                None
            }
            Err(e) => {
                eprintln!("history {i}: {e}");
                None
            }
        }
    }

    /// Checks the batch round-robin until `deadline` (or for `rounds`
    /// whole batches), timing each history from text to verdict.
    pub fn timed(&self, deadline: Option<Instant>, rounds: u64) -> (Histogram, u64, u64, f64) {
        let mut hist = Histogram::new();
        let (mut ops, mut failed) = (0u64, 0u64);
        let start = Instant::now();
        'run: for _ in 0..rounds {
            for i in 0..self.len() {
                let t = Instant::now();
                let outcome = check(&self.texts[i], &self.specs);
                hist.record(t.elapsed().as_nanos() as u64);
                ops += 1;
                failed += u64::from(self.verify(i, outcome).is_none());
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break 'run;
                }
            }
        }
        (hist, ops, failed, start.elapsed().as_secs_f64())
    }

    /// The traced run: `rounds` whole batches untraced and as many traced,
    /// alternating (so drift of the host and warm-up fall on both sides of
    /// `bench.trace_overhead` alike), with spans around the tm-trace parse
    /// and `is_opaque`.
    pub fn traced(&self, rounds: u64, spans_out: &std::path::Path) -> (Vec<Metric>, u64, u64) {
        let mut tracer = Tracer::new();
        let mut stats = SearchStats::default();
        let (mut ops, mut failed, mut untraced_s, mut wall) = (0u64, 0u64, 0f64, 0f64);
        for round in 0..rounds {
            let (_, n, f, s) = self.timed(None, 1);
            ops += n;
            failed += f;
            untraced_s += s;
            let start = Instant::now();
            for i in 0..self.len() {
                let op = (round as usize * self.len() + i) as u32;
                let parsed = tracer.span(Layer::TraceParse, op, || from_json(&self.texts[i]));
                let outcome = parsed.map_err(|e| e.to_string()).and_then(|h| {
                    check_well_formed(&h).map_err(|e| e.to_string())?;
                    tracer
                        .span(Layer::Search, op, || is_opaque(&h, &self.specs))
                        .map(|r| Outcome {
                            opaque: r.opaque,
                            stats: r.stats,
                        })
                        .map_err(|e| e.to_string())
                });
                match self.verify(i, outcome) {
                    Some(s) => stats.absorb(&s),
                    None => failed += 1,
                }
            }
            wall += start.elapsed().as_nanos() as f64;
        }
        tracer.write_chrome(spans_out);
        let memo_resident = self
            .items
            .iter()
            .filter_map(|item| {
                let config = SearchConfig::default();
                let mut session = CheckSession::new(&self.specs, SearchMode::OPACITY, config);
                session.check_history(&item.history).ok()?;
                Some(session.memo_resident())
            })
            .max()
            .unwrap_or(0);
        let n = (rounds as usize * self.len()) as f64;
        let nodes = stats.nodes as f64;
        let (parse, search) = (tracer.total(Layer::TraceParse), tracer.total(Layer::Search));
        let mut m = crate::serve_only_layers();
        m.extend([
            metric("search.nodes_per_op", ratio(nodes, n), "count"),
            metric("search.ns_per_node", ratio(search, nodes), "ns"),
            metric(
                "search.memo_hit_ratio",
                ratio(stats.memo_hits as f64, nodes),
                "ratio",
            ),
            metric(
                "search.illegal_ratio",
                ratio(stats.illegal_placements as f64, nodes),
                "ratio",
            ),
            metric(
                "search.clones_per_node",
                ratio(stats.state_clones as f64, nodes),
                "ratio",
            ),
            metric("search.memo_resident", memo_resident as f64, "count"),
            metric("search.workers", stats.workers as f64, "count"),
            metric("trace.parse_ns", ratio(parse, n), "ns"),
        ]);
        for (name, v) in [
            ("frame.share", 0.0),
            ("trace.share", parse),
            ("table.share", 0.0),
            ("journal.share", 0.0),
            ("monitor.share", 0.0),
            ("search.share", search),
            ("daemon.share", 0.0),
        ] {
            m.push(metric(name, ratio(v, wall), "ratio"));
        }
        m.push(metric(
            "layer.unattributed_share",
            ratio(wall - parse - search, wall),
            "ratio",
        ));
        m.push(metric(
            "bench.trace_overhead",
            ratio(wall, untraced_s * 1e9),
            "ratio",
        ));
        (m, ops + n as u64, failed)
    }
}
