//! `bench_trend` — diffs two `BENCH_*.json` artifacts of the same kind and
//! flags regressions of the tracked metric.
//!
//! ```sh
//! cargo run --release -p tm-bench --bin bench_trend -- \
//!     baseline/BENCH_monitor.json BENCH_monitor.json [--max-regression-pct 20]
//! ```
//!
//! Five artifact kinds are understood, keyed by their `"bench"` field:
//!
//! | kind | tracked metric (higher is better) | point key |
//! |------|-----------------------------------|-----------|
//! | `monitor` | `node_ratio` (batch / incremental search nodes — deterministic) | history length (`events`) |
//! | `typed-objects` | `commits_per_sec` of the typed storms | tm × object × threads |
//! | `clocks` | `commits_per_sec` of the commit storm | tm × clock × threads |
//! | `search` | `nodes_per_sec` of the sequential batch search | the point's `workload` (`knot/nodes_per_sec`) |
//! | `serve` | `verdicts_per_sec` of the multiplexed replay daemon | session count × memo budget |
//!
//! The `search` artifact's verdict-latency points additionally contribute
//! their folded `check.verdict_ns` histogram percentiles (`hist_p50_ns`,
//! `hist_p95_ns`) as **lower-is-better** trend points keyed
//! `latency/cap=…/…`; latency points without histogram fields (older
//! baselines) are skipped. The `serve` artifact's points do the same with
//! the daemon's `serve.verdict_ns` histogram, keyed
//! `latency/sessions=…/budget=…/…`. CI diffs these warn-only: timing
//! percentiles are noisier than the deterministic node counts.
//!
//! A point regresses when the current metric moves more than the threshold
//! in its bad direction (down for throughput-like metrics, up for
//! latency-like ones) against the baseline at the same key. Exit codes: `0` — no
//! regression, `1` — regression detected, `2` — usage or parse error
//! (including artifacts of different kinds). A **missing baseline file is
//! not an error**: a newly introduced artifact kind has no cached baseline
//! on its first CI run, so the tool prints an informational "no baseline"
//! line and exits `0`. CI runs this as a warn-only step against the
//! previous run's cached artifacts.

/// Extracts the leading JSON number after `"key":` in `line`.
fn field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let pos = line.find(&pat)?;
    let rest = line[pos + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the JSON string after `"key":` in `line`.
fn sfield(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let pos = line.find(&pat)?;
    let rest = line[pos + pat.len()..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// A keyed trend point with its improvement direction.
#[derive(Debug, PartialEq)]
struct Point {
    key: String,
    value: f64,
    /// `true` for latency-like metrics: a rise is the regression.
    lower_is_better: bool,
}

impl Point {
    fn higher(key: String, value: f64) -> Point {
        Point {
            key,
            value,
            lower_is_better: false,
        }
    }

    fn lower(key: String, value: f64) -> Point {
        Point {
            key,
            value,
            lower_is_better: true,
        }
    }
}

/// A parsed artifact: its kind plus keyed metric points.
#[derive(Debug, PartialEq)]
struct Artifact {
    kind: String,
    points: Vec<Point>,
}

/// Parses a `BENCH_*.json` body (one point object per line, as the
/// `report` bin writes them) into keyed metric points.
fn parse_artifact(json: &str) -> Option<Artifact> {
    let kind = json.lines().find_map(|l| sfield(l, "bench"))?;
    let mut points = Vec::new();
    for line in json.lines() {
        match kind.as_str() {
            "monitor" => {
                let Some(events) = field(line, "events") else {
                    continue;
                };
                if let Some(v) = field(line, "node_ratio") {
                    points.push(Point::higher(format!("events={}", events as u64), v));
                }
            }
            "typed-objects" => {
                let (Some(tm), Some(object), Some(threads)) = (
                    sfield(line, "tm"),
                    sfield(line, "object"),
                    field(line, "threads"),
                ) else {
                    continue;
                };
                if let Some(v) = field(line, "commits_per_sec") {
                    points.push(Point::higher(
                        format!("{tm}/{object}/t{}", threads as u64),
                        v,
                    ));
                }
            }
            "clocks" => {
                let (Some(tm), Some(clock), Some(threads)) = (
                    sfield(line, "tm"),
                    sfield(line, "clock"),
                    field(line, "threads"),
                ) else {
                    continue;
                };
                if let Some(v) = field(line, "commits_per_sec") {
                    points.push(Point::higher(
                        format!("{tm}+{clock}/t{}", threads as u64),
                        v,
                    ));
                }
            }
            "search" => {
                if let (Some(workload), Some(v)) =
                    (sfield(line, "workload"), field(line, "nodes_per_sec"))
                {
                    // The throughput point, keyed by its workload.
                    points.push(Point::higher(format!("{workload}/nodes_per_sec"), v));
                } else if field(line, "hist_count").is_some() {
                    // Verdict-latency points: the folded histogram
                    // percentiles trend lower-is-better, keyed per memo cap.
                    let cap = sfield(line, "cap")
                        .or_else(|| field(line, "cap").map(|c| (c as u64).to_string()))
                        .unwrap_or_else(|| "?".to_string());
                    for metric in ["hist_p50_ns", "hist_p95_ns"] {
                        if let Some(v) = field(line, metric) {
                            points.push(Point::lower(format!("latency/cap={cap}/{metric}"), v));
                        }
                    }
                }
            }
            "serve" => {
                let (Some(sessions), Some(budget)) = (
                    field(line, "sessions"),
                    sfield(line, "budget")
                        .or_else(|| field(line, "budget").map(|b| (b as u64).to_string())),
                ) else {
                    continue;
                };
                // faults=on points (chaos-plan overhead) trend separately;
                // faults=off (and legacy artifacts without the field) keep
                // the bare key so baselines stay comparable.
                let chaos = match sfield(line, "faults") {
                    Some(f) if f == "on" => "/faults=on",
                    _ => "",
                };
                let key = format!("sessions={}/budget={budget}{chaos}", sessions as u64);
                if let Some(v) = field(line, "verdicts_per_sec") {
                    points.push(Point::higher(key.clone(), v));
                }
                for metric in ["hist_p50_ns", "hist_p95_ns"] {
                    if let Some(v) = field(line, metric) {
                        points.push(Point::lower(format!("latency/{key}/{metric}"), v));
                    }
                }
            }
            _ => {}
        }
    }
    Some(Artifact { kind, points })
}

/// One comparison row.
#[derive(Debug, PartialEq)]
struct Delta {
    key: String,
    baseline: f64,
    current: f64,
    lower_is_better: bool,
}

impl Delta {
    /// Relative change of the metric (sign as measured; interpret via
    /// [`Delta::regressed`]).
    fn change_pct(&self) -> f64 {
        if self.baseline <= 0.0 {
            return 0.0;
        }
        (self.current - self.baseline) / self.baseline * 100.0
    }

    /// Did the metric move beyond `threshold_pct` in its bad direction?
    fn regressed(&self, threshold_pct: f64) -> bool {
        if self.lower_is_better {
            self.change_pct() > threshold_pct
        } else {
            self.change_pct() < -threshold_pct
        }
    }
}

/// Pairs up baseline and current points by key.
fn compare(baseline: &[Point], current: &[Point]) -> Vec<Delta> {
    current
        .iter()
        .filter_map(|cur| {
            let base = baseline.iter().find(|p| p.key == cur.key)?.value;
            Some(Delta {
                key: cur.key.clone(),
                baseline: base,
                current: cur.value,
                lower_is_better: cur.lower_is_better,
            })
        })
        .collect()
}

fn main() {
    let mut max_regression_pct = 20.0f64;
    let mut files: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--max-regression-pct" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) => max_regression_pct = v,
                None => {
                    eprintln!("bench_trend: --max-regression-pct needs a number");
                    std::process::exit(2);
                }
            }
        } else if arg.starts_with("--") {
            eprintln!("bench_trend: unknown flag '{arg}'");
            std::process::exit(2);
        } else {
            files.push(arg);
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        eprintln!("usage: bench_trend <baseline.json> <current.json> [--max-regression-pct N]");
        std::process::exit(2);
    };
    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_trend: {path}: {e}");
            std::process::exit(2);
        })
    };
    let parse = |path: &str| -> Artifact {
        parse_artifact(&read(path)).unwrap_or_else(|| {
            eprintln!("bench_trend: {path}: no \"bench\" kind found");
            std::process::exit(2);
        })
    };
    // A newly introduced artifact kind has no cached baseline on its first
    // run: that is information, not an error — report it (naming the kind,
    // read from the current artifact since the baseline is the missing
    // side) and succeed so CI seeds the cache without red noise.
    if !std::path::Path::new(baseline_path.as_str()).exists() {
        let current = parse(current_path);
        println!(
            "bench_trend: no baseline at {baseline_path} for the `{}` artifact — \
             first run for this kind; nothing to compare",
            current.kind
        );
        std::process::exit(0);
    }
    let baseline = parse(baseline_path);
    let current = parse(current_path);
    if baseline.kind != current.kind {
        eprintln!(
            "bench_trend: artifact kinds differ (baseline: {}, current: {})",
            baseline.kind, current.kind
        );
        std::process::exit(2);
    }
    if baseline.points.is_empty() || current.points.is_empty() {
        eprintln!(
            "bench_trend: no metric points found \
             (baseline: {}, current: {})",
            baseline.points.len(),
            current.points.len()
        );
        std::process::exit(2);
    }
    let metric = match current.kind.as_str() {
        "monitor" => "node ratio",
        "search" => "nodes/sec (or ns, lower-is-better on latency/ keys)",
        "serve" => "verdicts/sec (or ns, lower-is-better on latency/ keys)",
        _ => "commits/sec",
    };
    let deltas = compare(&baseline.points, &current.points);
    if deltas.is_empty() {
        eprintln!("bench_trend: no common point keys between the two artifacts");
        std::process::exit(2);
    }
    println!("| point | baseline {metric} | current {metric} | change |");
    println!("|---|---|---|---|");
    let mut regressed = false;
    for d in &deltas {
        let flag = if d.regressed(max_regression_pct) {
            regressed = true;
            "  <-- REGRESSION"
        } else {
            ""
        };
        println!(
            "| {} | {:.2} | {:.2} | {:+.1}% |{flag}",
            d.key,
            d.baseline,
            d.current,
            d.change_pct()
        );
    }
    if regressed {
        eprintln!(
            "bench_trend: {} {metric} regression beyond {max_regression_pct}%",
            current.kind
        );
        std::process::exit(1);
    }
    println!("bench_trend: within {max_regression_pct}% of baseline on all common points");
}

#[cfg(test)]
mod tests {
    use super::*;

    const MONITOR: &str = r#"{
  "bench": "monitor",
  "jobs": 4,
  "points": [
    {"events": 32, "incremental_ns": 10, "batch_ns": 80, "incremental_nodes": 100, "batch_nodes": 800, "speedup": 8.00, "node_ratio": 8.00},
    {"events": 64, "incremental_ns": 10, "batch_ns": 120, "incremental_nodes": 100, "batch_nodes": 1200, "speedup": 12.00, "node_ratio": 12.00}
  ]
}"#;

    const CLOCKS: &str = r#"{
  "bench": "clocks",
  "points": [
    {"tm": "tl2", "clock": "single", "threads": 8, "txs": 300, "commits": 2400, "aborts": 0, "wall_ns": 1000, "commits_per_sec": 2400000}
  ]
}"#;

    const OBJECTS: &str = r#"{
  "bench": "typed-objects",
  "points": [
    {"tm": "tl2", "object": "counter", "threads": 2, "ops": 150, "commits": 300, "aborts": 12, "wall_ns": 5, "commits_per_sec": 60000}
  ]
}"#;

    #[test]
    fn extracts_every_monitor_point() {
        let a = parse_artifact(MONITOR).unwrap();
        assert_eq!(a.kind, "monitor");
        assert_eq!(
            a.points,
            vec![
                Point::higher("events=32".to_string(), 8.0),
                Point::higher("events=64".to_string(), 12.0)
            ]
        );
    }

    const SEARCH: &str = r#"{
  "bench": "search",
  "points": [
    {"workload": "knot", "wall_ns": 1000000, "nodes": 33076, "nodes_per_sec": 33076000},
    {"cap": "unbounded", "events": 192, "p50_ns": 900, "p95_ns": 4000, "p99_ns": 9000, "resident": 484, "evictions": 0, "total_nodes": 3567},
    {"cap": 121, "events": 192, "p50_ns": 950, "p95_ns": 4200, "p99_ns": 9400, "resident": 120, "evictions": 214, "total_nodes": 3789, "hist_count": 96, "hist_p50_ns": 1024, "hist_p95_ns": 4095, "hist_p99_ns": 8191}
  ]
}"#;

    #[test]
    fn extracts_search_throughput_and_latency_histograms() {
        let a = parse_artifact(SEARCH).unwrap();
        assert_eq!(a.kind, "search");
        assert_eq!(
            a.points,
            vec![
                Point::higher("knot/nodes_per_sec".to_string(), 33_076_000.0),
                Point::lower("latency/cap=121/hist_p50_ns".to_string(), 1024.0),
                Point::lower("latency/cap=121/hist_p95_ns".to_string(), 4095.0),
            ],
            "latency points trend only through their folded histogram \
             fields (lower-is-better); pre-histogram baselines are skipped"
        );
    }

    const SERVE: &str = r#"{
  "bench": "serve",
  "points": [
    {"sessions": 64, "events": 700, "budget": "unbounded", "wall_ns": 1000000, "verdicts": 700, "turns": 770, "verdicts_per_sec": 700000, "hist_p50_ns": 2047, "hist_p95_ns": 16383, "hist_p99_ns": 32767},
    {"sessions": 64, "events": 700, "budget": 65536, "wall_ns": 1250000, "verdicts": 700, "turns": 770, "verdicts_per_sec": 560000, "hist_p50_ns": 2047, "hist_p95_ns": 16383, "hist_p99_ns": 32767}
  ]
}"#;

    #[test]
    fn extracts_serve_throughput_and_latency_points() {
        let a = parse_artifact(SERVE).unwrap();
        assert_eq!(a.kind, "serve");
        assert_eq!(
            a.points,
            vec![
                Point::higher("sessions=64/budget=unbounded".to_string(), 700_000.0),
                Point::lower(
                    "latency/sessions=64/budget=unbounded/hist_p50_ns".to_string(),
                    2047.0
                ),
                Point::lower(
                    "latency/sessions=64/budget=unbounded/hist_p95_ns".to_string(),
                    16_383.0
                ),
                Point::higher("sessions=64/budget=65536".to_string(), 560_000.0),
                Point::lower(
                    "latency/sessions=64/budget=65536/hist_p50_ns".to_string(),
                    2047.0
                ),
                Point::lower(
                    "latency/sessions=64/budget=65536/hist_p95_ns".to_string(),
                    16_383.0
                ),
            ],
            "budgeted and unbudgeted rows key separately; the daemon's \
             serve.verdict_ns percentiles trend lower-is-better"
        );
    }

    #[test]
    fn extracts_clock_and_object_points() {
        let a = parse_artifact(CLOCKS).unwrap();
        assert_eq!(a.kind, "clocks");
        assert_eq!(
            a.points,
            vec![Point::higher("tl2+single/t8".to_string(), 2_400_000.0)]
        );
        let a = parse_artifact(OBJECTS).unwrap();
        assert_eq!(a.kind, "typed-objects");
        assert_eq!(
            a.points,
            vec![Point::higher("tl2/counter/t2".to_string(), 60_000.0)]
        );
        assert!(parse_artifact("{}").is_none());
    }

    #[test]
    fn field_parses_ints_floats_and_negatives() {
        assert_eq!(field(r#"{"x": 42,"#, "x"), Some(42.0));
        assert_eq!(field(r#"{"x": -1.5}"#, "x"), Some(-1.5));
        assert_eq!(field(r#"{"y": 1}"#, "x"), None);
        assert_eq!(sfield(r#"{"tm": "tl2","#, "tm"), Some("tl2".to_string()));
        assert_eq!(sfield(r#"{"tm": 3}"#, "tm"), None);
    }

    #[test]
    fn compare_pairs_by_key() {
        let keyed = |pairs: &[(&str, f64)]| -> Vec<Point> {
            pairs
                .iter()
                .map(|(k, v)| Point::higher(k.to_string(), *v))
                .collect()
        };
        let base = keyed(&[("a", 8.0), ("b", 12.0), ("c", 20.0)]);
        let cur = keyed(&[("a", 9.0), ("b", 9.0), ("d", 30.0)]);
        let deltas = compare(&base, &cur);
        assert_eq!(deltas.len(), 2, "c and d have no partner");
        assert!(deltas[0].change_pct() > 0.0, "a improved");
        let drop = deltas[1].change_pct();
        assert!((-25.01..=-24.99).contains(&drop), "12 -> 9 is -25%: {drop}");
    }

    #[test]
    fn regression_direction_follows_the_metric() {
        let throughput = Delta {
            key: "knot/nodes_per_sec".to_string(),
            baseline: 100.0,
            current: 70.0,
            lower_is_better: false,
        };
        assert!(throughput.regressed(20.0), "-30% throughput regresses");
        let latency = Delta {
            key: "latency/cap=121/hist_p95_ns".to_string(),
            baseline: 100.0,
            current: 70.0,
            lower_is_better: true,
        };
        assert!(!latency.regressed(20.0), "-30% latency is an improvement");
        let latency_up = Delta {
            current: 130.0,
            ..latency
        };
        assert!(latency_up.regressed(20.0), "+30% latency regresses");
    }

    #[test]
    fn zero_baseline_does_not_divide() {
        let d = Delta {
            key: "x".to_string(),
            baseline: 0.0,
            current: 5.0,
            lower_is_better: false,
        };
        assert_eq!(d.change_pct(), 0.0);
    }
}
