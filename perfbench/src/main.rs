//! The repository benchmark: `perfbench --workload W --seed N --seconds S
//! --trace 0|1`. See README.md for the workloads and the metric dictionary.
//!
//! With `--trace 0` it runs the workload untraced for `S` seconds, in rounds
//! that each set the workload up again (reporting the median set-up time),
//! and prints the end-to-end metrics. With `--trace 1` it runs a fixed
//! amount of the workload, untraced and traced in alternation, and prints
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object, and the exit code is 0 only if every output was
//! correct.

#![forbid(unsafe_code)]

mod batch;
mod gen;
mod measure;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use measure::{median, metric, Histogram, Metric};
use serve::{Stop, Stream};

/// Times each run sets itself up; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Feeds the warm-up of a serve set-up covers, in whole passes, so every
/// serve workload warms up on about the same amount of work.
const WARM_FEEDS: usize = 20_000;

/// The per-layer metrics and their units, in the order they are printed.
/// Every workload reports all of them; a layer that is not on a workload's
/// path reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("frame.parse_ns", "ns"),
    ("frame.render_ns", "ns"),
    ("frame.bytes_per_op", "B"),
    ("table.route_ns", "ns"),
    ("table.turn_self_ns", "ns"),
    ("table.turns_per_op", "count"),
    ("table.queue_depth_max", "count"),
    ("daemon.self_ns_per_op", "ns"),
    ("journal.record_ns", "ns"),
    ("journal.records_per_op", "count"),
    ("journal.bytes_per_op", "B"),
    ("journal.fsyncs_per_kop", "count"),
    ("journal.fsync_us", "us"),
    ("monitor.feed_ns", "ns"),
    ("monitor.check_ratio", "ratio"),
    ("monitor.nodes_per_check", "count"),
    ("monitor.memo_resident_max", "count"),
    ("search.nodes_per_op", "count"),
    ("search.ns_per_node", "ns"),
    ("search.memo_hit_ratio", "ratio"),
    ("search.illegal_ratio", "ratio"),
    ("search.clones_per_node", "ratio"),
    ("search.memo_resident", "count"),
    ("search.workers", "count"),
    ("trace.parse_ns", "ns"),
    ("frame.share", "ratio"),
    ("trace.share", "ratio"),
    ("table.share", "ratio"),
    ("journal.share", "ratio"),
    ("monitor.share", "ratio"),
    ("search.share", "ratio"),
    ("daemon.share", "ratio"),
    ("layer.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// The serve-path layers (frame, table, daemon, journal, monitor) that
/// `check_batch` never reaches, at 0.
pub fn serve_only_layers() -> Vec<Metric> {
    PER_LAYER[..17]
        .iter()
        .map(|&(name, unit)| metric(name, 0.0, unit))
        .collect()
}

/// One workload: how it is generated and which path it takes.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ServeFleet,
    ServeJournal,
    ServeKnots,
    CheckBatch,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "serve_fleet" => Workload::ServeFleet,
            "serve_journal" => Workload::ServeJournal,
            "serve_knots" => Workload::ServeKnots,
            "check_batch" => Workload::CheckBatch,
            _ => return None,
        })
    }

    /// Whole passes (batches, for `check_batch`) of a traced run: fixed,
    /// so its counts repeat exactly for a seed.
    fn traced_passes(self) -> u64 {
        match self {
            Workload::ServeFleet => 16,
            Workload::ServeJournal => 4,
            Workload::ServeKnots => 200,
            Workload::CheckBatch => 40,
        }
    }

    fn traffic(self, seed: u64) -> gen::Traffic {
        match self {
            Workload::ServeKnots => gen::knots(seed),
            _ => gen::fleet(seed),
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut name = String::new();
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
                name = value.clone();
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        name,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The scratch directory for journals and span files, inside the build
/// directory of the checkout.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-work")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_fleet|serve_journal|serve_knots|check_batch \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let work = work_dir();
    let run_dir = work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    host_facts(&run_dir);
    let spans_out = work.join(format!("spans-{}-{}.json", args.name, args.seed));
    let (reported, printed, attempted, failed) = if args.trace {
        let (m, attempted, failed) = traced(&args, &run_dir, &spans_out);
        (m, Vec::new(), attempted, failed)
    } else {
        untraced(&args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let correct = failed == 0;
    measure::print_result(correct, attempted.max(1), failed, &reported, &printed);
    if !correct {
        std::process::exit(1);
    }
}

/// [`SETUP_REPS`] rounds, each a set-up (generation, rendering, daemon
/// construction, warm-up) followed by its share of the `--seconds` of
/// untraced work. Spreading the set-ups over the run lets their median see
/// the same slow and fast stretches of the host that the timed work sees.
/// Returns the reported and the printed-only metrics, attempted and failed.
fn untraced(args: &Args, run_dir: &Path) -> (Vec<Metric>, Vec<Metric>, u64, u64) {
    let w = args.workload;
    let chunk = Duration::from_secs_f64(args.seconds) / SETUP_REPS as u32;
    let journal_dir = run_dir.join("journal");
    let journal = (w == Workload::ServeJournal).then_some(journal_dir.as_path());
    let mut setup = Vec::new();
    let mut hist = Histogram::new();
    // `ops` are the timed operations; `attempted` adds the warm-up ones,
    // whose outputs are checked too.
    let (mut ops, mut attempted, mut failed, mut wall_s) = (0, 0, 0, 0.0);
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        if w == Workload::CheckBatch {
            let (b, f) = batch::Batch::setup(args.seed);
            setup.push(t.elapsed().as_secs_f64());
            if rep == 0 {
                b.describe();
            }
            let (h, n, g, s) = b.timed(Some(Instant::now() + chunk), u64::MAX);
            hist.merge(&h);
            ops += n;
            attempted += b.len() as u64 + n;
            failed += f + g;
            wall_s += s;
            continue;
        }
        let stream = Rc::new(Stream::new(&w.traffic(args.seed)));
        let warm_passes = WARM_FEEDS.div_ceil(stream.feeds()) as u64;
        let warm = serve::closed_loop(&stream, journal, Stop::Passes(warm_passes));
        setup.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            println!(
                "# {} sessions, {} feeds per pass",
                stream.sessions(),
                stream.feeds()
            );
        }
        let run = serve::closed_loop(&stream, journal, Stop::Deadline(Instant::now() + chunk));
        hist.merge(&run.hist);
        ops += run.feeds;
        attempted += warm.feeds + run.feeds;
        failed += warm.failed + run.failed;
        wall_s += run.wall_s;
    }
    println!("# setup times {setup:?}");
    println!("# {ops} timed operations in {wall_s:.3} s");
    let (reported, printed) = measure::end_to_end(&hist, attempted, wall_s, median(setup), failed);
    (reported, printed, attempted, failed)
}

/// The traced run: lockstep self-test (serve), then a fixed amount of work,
/// untraced and traced in alternation.
fn traced(args: &Args, run_dir: &Path, spans_out: &Path) -> (Vec<Metric>, u64, u64) {
    let w = args.workload;
    let passes = w.traced_passes();
    let (metrics, attempted, failed) = if w == Workload::CheckBatch {
        let (b, f) = batch::Batch::setup(args.seed);
        b.describe();
        let (m, ops, g) = b.traced(passes, spans_out);
        (m, b.len() as u64 + ops, f + g)
    } else {
        let stream = Rc::new(Stream::new(&w.traffic(args.seed)));
        let journaled = w == Workload::ServeJournal;
        let (a, b) = (run_dir.join("lockstep-a"), run_dir.join("lockstep-b"));
        let same = serve::lockstep(&stream, journaled.then_some((a.as_path(), b.as_path())));
        let (m, ops, f) = serve::traced_run(&stream, journaled, run_dir, passes, spans_out);
        (m, ops, f + u64::from(!same))
    };
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let m = metrics
            .iter()
            .find(|m| m.name == name && m.unit == unit)
            .unwrap_or_else(|| panic!("per-layer metric {name} ({unit}) not measured"));
        ordered.push(metric(m.name, m.value, m.unit));
    }
    (ordered, attempted, failed)
}

/// Prints the facts a result needs to be compared: parallelism, build
/// profile, compiler, commit (or a digest of the sources when the checkout
/// is not a git repository), and the filesystem the journal lives on.
fn host_facts(run_dir: &Path) {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# host available_parallelism={parallelism} profile={profile} rustc=\"{}\" commit={} sources={:016x} journal_fs={}",
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "none".into()),
        source_digest(),
        filesystem_of(run_dir),
    );
}

fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .map(|s| s.trim().to_string()),
    }
}

/// FNV-1a over the paths and contents of the Rust sources and manifests
/// under `crates/` and `perfbench/`, in sorted order.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The type of the filesystem `dir` is on, from `/proc/self/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
