//! # tm-cli — the `tmcheck` command-line opacity checker
//!
//! The paper's criterion is only useful to practitioners if arbitrary TM
//! traces can be judged without writing Rust. `tmcheck` reads a history in
//! either trace format of `tm-trace` (JSON or line-oriented text,
//! auto-detected) and runs the full `tm-opacity` toolbox over it:
//!
//! ```text
//! tmcheck check    <file>   # opacity verdict + serialization witness
//! tmcheck explain  <file>   # first fatal event + stuck-transaction analysis
//! tmcheck criteria <file>   # the Section-3 criteria lattice, one verdict per row
//! tmcheck graph    <file>   # Graphviz DOT of the Section-5.4 opacity graph
//! tmcheck convert  <file> --json|--text   # format conversion
//! tmcheck generate [--seed N --txs N --objs N --ops N --json]
//! tmcheck conformance [--jobs N] [--tm SPEC] [--clock SCHEME] [--mutants]
//! tmcheck race     [--tm SPEC] [--steps N] [--preemptions K]
//! tmcheck serve    [--socket PATH | --replay FILE | --stdin] [--memo-budget BYTES]
//! tmcheck list              # the TM registry and its configuration axes
//! ```
//!
//! `race` is the *step-level* analogue of `conformance`: it drives each
//! non-blocking TM through the DPOR interleaving explorer (yield points at
//! every instrumented base-object access, not every operation), runs the
//! vector-clock clock-discipline checker and the committed-subset
//! serializability oracle over every explored schedule, and — in suite
//! mode — re-convicts the two seeded concurrency mutants as a self-test,
//! printing each conviction's minimized replayable schedule.
//!
//! `serve` turns the checker into a long-lived streaming daemon (the
//! `tm-serve` crate): line-delimited `tm-serve/v1.1` JSON frames open,
//! feed, and close thousands of concurrent check sessions, each answered
//! with a per-event opacity verdict — over stdin, a Unix socket, or a
//! recorded replay file (the deterministic CI mode). `--journal`/`--resume`
//! give it crash recovery (a restarted daemon continues every session with
//! unchanged seq numbering), `--fault-plan` injects a seeded fault
//! schedule for chaos testing, and the watermark/reap flags turn overload
//! into `busy` pushback instead of failure.
//!
//! `conformance` runs the `tm-harness` conformance kit over the in-tree TM
//! suite; `--jobs N` shards the interleaving sweep across `N` worker
//! threads with deterministic merging, so the output is identical for every
//! `N`. TM selection goes through the fallible `tm_stm::TmRegistry`: `--tm`
//! accepts full specs (`tl2+sharded:16`) and a typo prints the menu of
//! valid names instead of panicking; `--clock single|sharded[:N]|deferred`
//! sweeps the clocked TMs (tl2, mvstm, sistm) under that version-clock
//! scheme.
//!
//! Exit codes: `0` — the property holds (or output was produced), `1` — the
//! history violates opacity, `2` — usage or input error, `3` — a `serve`
//! fault-plan injected crash fired (the crash-recovery harness's signal).
//! `-` reads stdin.
//!
//! The library surface (`run`) is exercised directly by the test-suite; the
//! binary in `main.rs` is a thin wrapper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::io::{Read as _, Write};

use tm_harness::{random_history, GenConfig, ObjectKind};
use tm_model::{History, RealTimeOrder, SpecRegistry};
use tm_opacity::criteria;
use tm_opacity::explain::explain_violation;
use tm_opacity::graph::{build_opg, nonlocal, with_initial_tx};
use tm_opacity::graphcheck::construct_graph_witness;
use tm_opacity::opacity::is_opaque_with;
use tm_opacity::SearchConfig;
use tm_trace::{from_json, from_text, to_json_pretty, to_text};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `check <file> [--search-jobs N] [--memo-cap M] [--split-depth D]
    /// [--split-granularity G] [--metrics-out FILE] [--trace-out FILE]
    /// [--progress]`
    Check {
        /// Input path (`-` = stdin).
        file: String,
        /// Worker threads for the serialization search itself (`0` = auto:
        /// one per hardware thread).
        search_jobs: usize,
        /// Bound on resident dead-end memo entries (≥ 1; default
        /// unbounded).
        memo_cap: Option<usize>,
        /// Depth window for dynamic subtree splitting (`0` disables).
        split_depth: usize,
        /// Minimum untried candidates a frame needs to donate one (≥ 1).
        split_granularity: usize,
        /// Write a `tm-metrics/v1` JSON metrics snapshot here.
        metrics_out: Option<String>,
        /// Write a Chrome-trace JSON span file here.
        trace_out: Option<String>,
        /// Render a live single-line progress counter on stderr.
        progress: bool,
    },
    /// `explain <file>`
    Explain(String),
    /// `criteria <file>`
    Criteria(String),
    /// `graph <file>`
    Graph(String),
    /// `convert <file> --json|--text`
    Convert {
        /// Input path (`-` = stdin).
        file: String,
        /// Emit JSON (`true`) or text (`false`).
        json: bool,
    },
    /// `generate [--seed N --txs N --objs N --ops N --json]`
    Generate {
        /// Generator seed.
        seed: u64,
        /// Transactions.
        txs: usize,
        /// Registers.
        objs: usize,
        /// Max operations per transaction.
        ops: usize,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// `conformance [--jobs N] [--search-jobs N] [--memo-cap M] [--tm SPEC]
    /// [--clock SCHEME] [--mutants] [--objects SET]`
    Conformance {
        /// Worker threads for the interleaving sweep (≥ 1).
        jobs: usize,
        /// Worker threads for each individual serialization search (`0` =
        /// auto: one per hardware thread).
        search_jobs: usize,
        /// Bound on each search's resident dead-end memo entries (≥ 1;
        /// default unbounded).
        memo_cap: Option<usize>,
        /// Depth window for dynamic subtree splitting (`0` disables).
        split_depth: usize,
        /// Minimum untried candidates a frame needs to donate one (≥ 1).
        split_granularity: usize,
        /// Restrict to one TM spec (`tl2`, `tl2+sharded:16`, …; default:
        /// the whole suite).
        tm: Option<String>,
        /// Sweep the clocked TMs under this clock scheme instead of the
        /// full suite under the default clock.
        clock: Option<tm_stm::ClockScheme>,
        /// Also run the deliberately broken mutants.
        mutants: bool,
        /// Typed-object probe battery: `--objects all` or a comma list of
        /// kinds. `None` runs the classic register battery.
        objects: Option<Vec<ObjectKind>>,
        /// Write a `tm-metrics/v1` JSON metrics snapshot here.
        metrics_out: Option<String>,
        /// Write a Chrome-trace JSON span file here.
        trace_out: Option<String>,
    },
    /// `race [--tm SPEC] [--steps N] [--preemptions K] [--metrics-out FILE]
    /// [--trace-out FILE]`
    Race {
        /// Restrict to one non-blocking TM spec (default: every
        /// non-blocking TM in the suite, plus the concurrency-mutant
        /// self-test).
        tm: Option<String>,
        /// Budget: maximum explored interleavings per probe (≥ 1).
        steps: usize,
        /// Preemption bound for the real-TM sweep (0 = serial orders only).
        preemptions: usize,
        /// Write a `tm-metrics/v1` JSON metrics snapshot here.
        metrics_out: Option<String>,
        /// Write a Chrome-trace JSON span file here.
        trace_out: Option<String>,
    },
    /// `serve [--socket PATH | --replay FILE | --stdin] [--max-sessions N]
    /// [--memo-budget BYTES] [--node-budget N] [--inbox-cap N]
    /// [--fault-plan FILE|SPEC] [--journal DIR] [--resume]
    /// [--fsync-every N] [--idle-reap N] [--queue-watermark N]
    /// [--memo-watermark BYTES] [--metrics-out FILE] [--trace-out FILE]`
    Serve {
        /// Listen on a Unix socket at this path (mutually exclusive with
        /// `replay`; default is the stdin transport).
        socket: Option<String>,
        /// Offline deterministic mode: drain a recorded frame file.
        replay: Option<String>,
        /// Maximum concurrently open sessions.
        max_sessions: usize,
        /// Global memo-byte ceiling apportioned across open sessions
        /// (default: unbudgeted).
        memo_budget: Option<u64>,
        /// Search nodes one session may burn per scheduler turn.
        node_budget: u64,
        /// Unchecked events buffered per session before `busy` pushback.
        inbox_cap: usize,
        /// Injected fault schedule: a `tm-faults/v1` JSON file path or an
        /// inline `kind@frame[:args],...` spec.
        fault_plan: Option<String>,
        /// Append the crash-recovery session journal under this directory.
        journal: Option<String>,
        /// Rebuild the session table from `--journal`'s journal first.
        resume: bool,
        /// `sync_data` the journal every N records.
        fsync_every: usize,
        /// Reap sessions idle for N scheduler turns (default: never).
        idle_reap: Option<u64>,
        /// Shed feeds with hinted `busy` frames at this run-queue depth.
        queue_watermark: Option<usize>,
        /// Shed opens with hinted `busy` frames past this resident memo.
        memo_watermark: Option<u64>,
        /// Write a `tm-metrics/v1` JSON metrics snapshot here.
        metrics_out: Option<String>,
        /// Write a Chrome-trace JSON span file here.
        trace_out: Option<String>,
    },
    /// `list`
    List,
    /// `help`
    Help,
}

/// Usage text shown by `tmcheck help` and on argument errors.
pub const USAGE: &str = "\
tmcheck — opacity checker for transactional-memory traces
  (Guerraoui & Kapałka, \"On the Correctness of Transactional Memory\", PPoPP 2008)

USAGE:
  tmcheck check    <file> [--search-jobs N] [--memo-cap M]
                          [--split-depth D] [--split-granularity G]
                          [--metrics-out FILE] [--trace-out FILE] [--progress]
                                    opacity verdict + witness (exit 1 if
                                    violated); --search-jobs N drives the
                                    serialization search with N work-stealing
                                    workers sharing the dead-end memo (0 =
                                    auto: one per hardware thread; verdict
                                    identical to the sequential search);
                                    --memo-cap M bounds the resident memo
                                    entries with segmented-LRU eviction;
                                    --split-depth D sets the window (relative
                                    to each task's root) in which busy
                                    workers donate untried branches to hungry
                                    workers (0 = root-only parallelism,
                                    default 8), --split-granularity G the
                                    minimum untried candidates a frame needs
                                    before donating one (default 1);
                                    --metrics-out writes a tm-metrics/v1 JSON
                                    snapshot of search/memo/verdict counters,
                                    --trace-out a Chrome-trace (Perfetto-
                                    loadable) span file, --progress renders a
                                    live node counter on stderr
  tmcheck explain  <file>           localize the first opacity violation
  tmcheck criteria <file>           verdicts for the full Section-3 criteria lattice
  tmcheck graph    <file>           Graphviz DOT of the Section-5.4 opacity graph
  tmcheck convert  <file> --json|--text    convert between trace formats
  tmcheck generate [--seed N] [--txs N] [--objs N] [--ops N] [--json]
  tmcheck conformance [--jobs N] [--search-jobs N] [--memo-cap M]
                      [--split-depth D] [--split-granularity G] [--tm SPEC]
                      [--clock SCHEME] [--mutants] [--objects SET]
                      [--metrics-out FILE] [--trace-out FILE]
                                    run the TM conformance battery (exit 1 if
                                    any swept TM violates a contract); --jobs
                                    shards the sweep deterministically;
                                    --search-jobs/--memo-cap/--split-depth/
                                    --split-granularity configure each
                                    individual history check as in `check`
                                    (output is invariant under all); --tm
                                    takes a spec (tl2, tl2+sharded:16, …);
                                    --clock single|sharded[:N]|deferred sweeps
                                    the clocked TMs (tl2, mvstm, sistm) under
                                    that version-clock scheme;
                                    --objects all (or e.g. --objects set,queue)
                                    sweeps typed-object probes — write-skew
                                    sets, producer/consumer queues, commutative
                                    counter storms — instead of the register
                                    battery; --metrics-out/--trace-out write
                                    the observability artifacts as in `check`
                                    (the battery text itself is unchanged)
  tmcheck race [--tm SPEC] [--steps N] [--preemptions K]
               [--metrics-out FILE] [--trace-out FILE]
                                    step-level race analysis: explore
                                    instrumented base-object interleavings
                                    with dynamic partial-order reduction,
                                    check version-clock discipline
                                    (vector-clock happens-before) and
                                    committed-subset serializability on every
                                    schedule (exit 1 on a conviction);
                                    without --tm, sweeps every non-blocking
                                    TM and re-convicts the two seeded
                                    concurrency mutants as a self-test,
                                    printing minimized replayable schedules;
                                    --steps bounds explored interleavings per
                                    probe, --preemptions bounds context
                                    switches away from a runnable thread
  tmcheck serve [--socket PATH | --replay FILE | --stdin]
                [--max-sessions N] [--memo-budget BYTES] [--node-budget N]
                [--inbox-cap N] [--fault-plan FILE|SPEC] [--journal DIR]
                [--resume] [--fsync-every N] [--idle-reap N]
                [--queue-watermark N] [--memo-watermark BYTES]
                [--metrics-out FILE] [--trace-out FILE]
                                    the streaming monitoring daemon: ingest
                                    line-delimited tm-serve/v1.1 JSON frames
                                    (open/feed/close/shutdown), multiplex one
                                    resumable opacity monitor per session with
                                    fair round-robin turns, and answer every
                                    event with a verdict frame; --socket
                                    listens on a Unix socket (one frame stream
                                    per connection), --replay drains a
                                    recorded frame file deterministically (the
                                    CI mode; output is a pure function of the
                                    file), --stdin is the default live
                                    single-stream mode; --max-sessions caps
                                    open sessions, --memo-budget apportions a
                                    global memo-byte ceiling across sessions,
                                    --node-budget bounds one session's search
                                    nodes per scheduler turn, --inbox-cap the
                                    events buffered before `busy` pushback;
                                    --fault-plan injects a fault schedule
                                    (torn@F:K, drop@F:N, stall@F:T, werr@F:N,
                                    memo@F:BxD, node@F:NxD, crash@F,
                                    gen@SEED:HxC — a file path or inline
                                    spec; injected crashes exit 3);
                                    --journal DIR appends an fsync-batched
                                    session journal, --resume rebuilds the
                                    table from it so a restarted daemon
                                    continues every session with unchanged
                                    seq numbering, --fsync-every batches the
                                    journal syncs; --idle-reap closes
                                    sessions idle that many turns,
                                    --queue-watermark / --memo-watermark
                                    shed load with `busy` frames carrying
                                    retry_after_turns hints; exits 0 on a
                                    clean drain, 1 if any session was
                                    poisoned by a hard error
  tmcheck list                      the TM registry: names, properties, and
                                    which configuration axes each TM accepts
  tmcheck help

  <file> may be '-' for stdin. Formats (JSON / text) are auto-detected;
  see the tm-trace crate documentation for their grammar.
";

/// Parses `--jobs`/`--memo-cap` style values: a number that must be at
/// least 1, with the conformance-flag error style.
fn positive_flag(
    it: &mut std::slice::Iter<'_, String>,
    cmd: &str,
    flag: &str,
) -> Result<usize, String> {
    it.next()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{cmd}: {flag} needs a number ≥ 1"))
}

/// Parses `--metrics-out`/`--trace-out` style values: a file path.
fn path_flag(
    it: &mut std::slice::Iter<'_, String>,
    cmd: &str,
    flag: &str,
) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{cmd}: {flag} needs a file path"))
}

/// Parses `--search-jobs`/`--split-depth` style values, where `0` is a
/// meaningful setting (auto-parallelism / splitting disabled).
fn nonneg_flag(
    it: &mut std::slice::Iter<'_, String>,
    cmd: &str,
    flag: &str,
    zero_means: &str,
) -> Result<usize, String> {
    it.next()
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| format!("{cmd}: {flag} needs a number ≥ 0 (0 = {zero_means})"))
}

/// Parses command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| "missing command".to_string())?;
    let file_arg = |it: &mut std::slice::Iter<'_, String>| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{cmd}: missing <file> argument"))
    };
    match cmd.as_str() {
        "check" => {
            let file = file_arg(&mut it)?;
            let defaults = SearchConfig::default();
            let mut search_jobs = 1usize;
            let mut memo_cap = None;
            let mut split_depth = defaults.split_depth;
            let mut split_granularity = defaults.split_granularity;
            let mut metrics_out = None;
            let mut trace_out = None;
            let mut progress = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--search-jobs" => {
                        search_jobs = nonneg_flag(&mut it, "check", "--search-jobs", "auto")?;
                    }
                    "--memo-cap" => {
                        memo_cap = Some(positive_flag(&mut it, "check", "--memo-cap")?);
                    }
                    "--split-depth" => {
                        split_depth = nonneg_flag(&mut it, "check", "--split-depth", "disabled")?;
                    }
                    "--split-granularity" => {
                        split_granularity = positive_flag(&mut it, "check", "--split-granularity")?;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(path_flag(&mut it, "check", "--metrics-out")?);
                    }
                    "--trace-out" => {
                        trace_out = Some(path_flag(&mut it, "check", "--trace-out")?);
                    }
                    "--progress" => progress = true,
                    other => return Err(format!("check: unknown flag '{other}'")),
                }
            }
            Ok(Command::Check {
                file,
                search_jobs,
                memo_cap,
                split_depth,
                split_granularity,
                metrics_out,
                trace_out,
                progress,
            })
        }
        "explain" => Ok(Command::Explain(file_arg(&mut it)?)),
        "criteria" => Ok(Command::Criteria(file_arg(&mut it)?)),
        "graph" => Ok(Command::Graph(file_arg(&mut it)?)),
        "convert" => {
            let file = file_arg(&mut it)?;
            let mut json = None;
            for flag in it {
                match flag.as_str() {
                    "--json" => json = Some(true),
                    "--text" => json = Some(false),
                    other => return Err(format!("convert: unknown flag '{other}'")),
                }
            }
            let json = json.ok_or_else(|| "convert: need --json or --text".to_string())?;
            Ok(Command::Convert { file, json })
        }
        "generate" => {
            let mut g = Command::Generate {
                seed: 1,
                txs: 4,
                objs: 3,
                ops: 4,
                json: false,
            };
            let Command::Generate {
                seed,
                txs,
                objs,
                ops,
                json,
            } = &mut g
            else {
                unreachable!()
            };
            // Sizes must be ≥ 1: a 0-transaction / 0-register / 0-op
            // request is a flag typo, not a meaningful workload.
            fn size_of(v: u64, name: &str) -> Result<usize, String> {
                if v == 0 {
                    return Err(format!("generate: {name} must be ≥ 1"));
                }
                usize::try_from(v).map_err(|_| format!("generate: {name} is too large"))
            }
            while let Some(flag) = it.next() {
                let mut num = |name: &str| -> Result<u64, String> {
                    it.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| format!("generate: {name} needs a number"))
                };
                match flag.as_str() {
                    "--seed" => *seed = num("--seed")?,
                    "--txs" => *txs = size_of(num("--txs")?, "--txs")?,
                    "--objs" => *objs = size_of(num("--objs")?, "--objs")?,
                    "--ops" => *ops = size_of(num("--ops")?, "--ops")?,
                    "--json" => *json = true,
                    other => return Err(format!("generate: unknown flag '{other}'")),
                }
            }
            Ok(g)
        }
        "list" => Ok(Command::List),
        "conformance" => {
            let defaults = SearchConfig::default();
            let mut jobs = 1usize;
            let mut search_jobs = 1usize;
            let mut memo_cap = None;
            let mut split_depth = defaults.split_depth;
            let mut split_granularity = defaults.split_granularity;
            let mut tm = None;
            let mut clock = None;
            let mut mutants = false;
            let mut objects = None;
            let mut metrics_out = None;
            let mut trace_out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--jobs" => {
                        jobs = positive_flag(&mut it, "conformance", "--jobs")?;
                    }
                    "--search-jobs" => {
                        search_jobs = nonneg_flag(&mut it, "conformance", "--search-jobs", "auto")?;
                    }
                    "--memo-cap" => {
                        memo_cap = Some(positive_flag(&mut it, "conformance", "--memo-cap")?);
                    }
                    "--split-depth" => {
                        split_depth =
                            nonneg_flag(&mut it, "conformance", "--split-depth", "disabled")?;
                    }
                    "--split-granularity" => {
                        split_granularity =
                            positive_flag(&mut it, "conformance", "--split-granularity")?;
                    }
                    "--tm" => {
                        tm = Some(
                            it.next()
                                .cloned()
                                .ok_or_else(|| "conformance: --tm needs a name".to_string())?,
                        );
                    }
                    "--clock" => {
                        let spec = it
                            .next()
                            .ok_or_else(|| "conformance: --clock needs a scheme".to_string())?;
                        clock = Some(
                            tm_stm::ClockScheme::parse(spec)
                                .map_err(|e| format!("conformance: {e}"))?,
                        );
                    }
                    "--mutants" => mutants = true,
                    "--objects" => {
                        let spec = it.next().ok_or_else(|| {
                            "conformance: --objects needs a set (all or a comma list of kinds)"
                                .to_string()
                        })?;
                        objects = Some(
                            ObjectKind::parse_set(spec).map_err(|e| format!("conformance: {e}"))?,
                        );
                    }
                    "--metrics-out" => {
                        metrics_out = Some(path_flag(&mut it, "conformance", "--metrics-out")?);
                    }
                    "--trace-out" => {
                        trace_out = Some(path_flag(&mut it, "conformance", "--trace-out")?);
                    }
                    other => return Err(format!("conformance: unknown flag '{other}'")),
                }
            }
            Ok(Command::Conformance {
                jobs,
                search_jobs,
                memo_cap,
                split_depth,
                split_granularity,
                tm,
                clock,
                mutants,
                objects,
                metrics_out,
                trace_out,
            })
        }
        "race" => {
            let mut tm = None;
            let mut steps = 200_000usize;
            let mut preemptions = 2usize;
            let mut metrics_out = None;
            let mut trace_out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--metrics-out" => {
                        metrics_out = Some(path_flag(&mut it, "race", "--metrics-out")?);
                    }
                    "--trace-out" => {
                        trace_out = Some(path_flag(&mut it, "race", "--trace-out")?);
                    }
                    "--tm" => {
                        tm = Some(
                            it.next()
                                .cloned()
                                .ok_or_else(|| "race: --tm needs a name".to_string())?,
                        );
                    }
                    "--steps" => {
                        steps = positive_flag(&mut it, "race", "--steps")?;
                    }
                    "--preemptions" => {
                        // 0 is meaningful here (serial orders only), so the
                        // ≥ 1 helper does not apply.
                        preemptions = it
                            .next()
                            .and_then(|v| v.parse::<usize>().ok())
                            .ok_or_else(|| "race: --preemptions needs a number ≥ 0".to_string())?;
                    }
                    other => return Err(format!("race: unknown flag '{other}'")),
                }
            }
            Ok(Command::Race {
                tm,
                steps,
                preemptions,
                metrics_out,
                trace_out,
            })
        }
        "serve" => {
            let defaults = tm_serve::ServeConfig::default();
            let mut socket = None;
            let mut replay = None;
            let mut stdin = false;
            let mut max_sessions = defaults.max_sessions;
            let mut memo_budget = None;
            let mut node_budget = defaults.node_budget;
            let mut inbox_cap = defaults.inbox_capacity;
            let mut fault_plan = None;
            let mut journal = None;
            let mut resume = false;
            let mut fsync_every = defaults.fsync_every;
            let mut idle_reap = None;
            let mut queue_watermark = None;
            let mut memo_watermark = None;
            let mut metrics_out = None;
            let mut trace_out = None;
            // u64-valued flags (byte/node budgets) that must be ≥ 1.
            fn positive_u64(
                it: &mut std::slice::Iter<'_, String>,
                flag: &str,
            ) -> Result<u64, String> {
                it.next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("serve: {flag} needs a number ≥ 1"))
            }
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--socket" => socket = Some(path_flag(&mut it, "serve", "--socket")?),
                    "--replay" => replay = Some(path_flag(&mut it, "serve", "--replay")?),
                    "--stdin" => stdin = true,
                    "--max-sessions" => {
                        max_sessions = positive_flag(&mut it, "serve", "--max-sessions")?;
                    }
                    "--memo-budget" => {
                        memo_budget = Some(positive_u64(&mut it, "--memo-budget")?);
                    }
                    "--node-budget" => node_budget = positive_u64(&mut it, "--node-budget")?,
                    "--inbox-cap" => {
                        inbox_cap = positive_flag(&mut it, "serve", "--inbox-cap")?;
                    }
                    "--fault-plan" => {
                        fault_plan = Some(path_flag(&mut it, "serve", "--fault-plan")?);
                    }
                    "--journal" => journal = Some(path_flag(&mut it, "serve", "--journal")?),
                    "--resume" => resume = true,
                    "--fsync-every" => {
                        fsync_every = positive_flag(&mut it, "serve", "--fsync-every")?;
                    }
                    "--idle-reap" => idle_reap = Some(positive_u64(&mut it, "--idle-reap")?),
                    "--queue-watermark" => {
                        queue_watermark =
                            Some(positive_flag(&mut it, "serve", "--queue-watermark")?);
                    }
                    "--memo-watermark" => {
                        memo_watermark = Some(positive_u64(&mut it, "--memo-watermark")?);
                    }
                    "--metrics-out" => {
                        metrics_out = Some(path_flag(&mut it, "serve", "--metrics-out")?);
                    }
                    "--trace-out" => {
                        trace_out = Some(path_flag(&mut it, "serve", "--trace-out")?);
                    }
                    other => return Err(format!("serve: unknown flag '{other}'")),
                }
            }
            let chosen =
                usize::from(socket.is_some()) + usize::from(replay.is_some()) + usize::from(stdin);
            if chosen > 1 {
                return Err(
                    "serve: --socket, --replay, and --stdin are mutually exclusive".to_string(),
                );
            }
            if resume && journal.is_none() {
                return Err("serve: --resume requires --journal DIR".to_string());
            }
            Ok(Command::Serve {
                socket,
                replay,
                max_sessions,
                memo_budget,
                node_budget,
                inbox_cap,
                fault_plan,
                journal,
                resume,
                fsync_every,
                idle_reap,
                queue_watermark,
                memo_watermark,
                metrics_out,
                trace_out,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Reads a trace from `path` (`-` = stdin) and parses it, auto-detecting
/// the format: inputs whose first non-whitespace byte is `{` are JSON.
pub fn load_history(path: &str) -> Result<History, String> {
    let raw = if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("stdin: {e}"))?;
        s
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

/// Installs a process-wide observability sink when any observability
/// output was requested; returns the disabled (no-op) handle otherwise, so
/// unobserved runs carry zero instrumentation cost.
fn obs_for(
    metrics_out: &Option<String>,
    trace_out: &Option<String>,
    progress: bool,
) -> tm_obs::ObsHandle {
    if metrics_out.is_some() || trace_out.is_some() || progress {
        tm_obs::ObsHandle::install()
    } else {
        tm_obs::ObsHandle::disabled()
    }
}

/// Writes the versioned observability artifacts: a `tm-metrics/v1` JSON
/// snapshot and/or a Chrome-trace (Perfetto-loadable) span file.
fn write_artifacts(
    obs: tm_obs::ObsHandle,
    metrics_out: Option<&str>,
    trace_out: Option<&str>,
) -> Result<(), String> {
    if let Some(path) = metrics_out {
        let snap = obs
            .snapshot()
            .ok_or_else(|| "--metrics-out: observability sink missing".to_string())?;
        std::fs::write(path, snap.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = trace_out {
        let trace = tm_trace::chrome_trace_json(&obs.spans());
        std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// A live single-line progress display on stderr, fed by the observability
/// sink's `search.nodes_live` counter (updated once per kilonode by the
/// search workers). Dropping the guard stops the ticker and clears the
/// line, so the verdict output below is never interleaved with it.
struct Progress {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Progress {
    fn spawn(obs: tm_obs::ObsHandle) -> Progress {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let seen = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut printed = false;
            while !seen.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(100));
                if let Some(snap) = obs.snapshot() {
                    let nodes = snap.counter("search.nodes_live").unwrap_or(0);
                    eprint!("\rsearch: {nodes} nodes explored …");
                    printed = true;
                }
            }
            if printed {
                // Clear the counter line before the verdict is printed.
                eprint!("\r\x1b[2K");
            }
        });
        Progress {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// Returns the process exit code (0 ok / property holds, 1 opacity
/// violated, 2 error).
pub fn run(cmd: &Command, out: &mut dyn Write) -> i32 {
    match execute(cmd, out) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}

fn execute(cmd: &Command, out: &mut dyn Write) -> Result<i32, String> {
    let specs = SpecRegistry::registers();
    let w = |out: &mut dyn Write, s: String| -> Result<(), String> {
        writeln!(out, "{s}").map_err(|e| e.to_string())
    };
    match cmd {
        Command::Help => {
            w(out, USAGE.to_string())?;
            Ok(0)
        }
        Command::Check {
            file,
            search_jobs,
            memo_cap,
            split_depth,
            split_granularity,
            metrics_out,
            trace_out,
            progress,
        } => {
            let h = load_history(file)?;
            tm_model::check_well_formed(&h).map_err(|e| format!("not well-formed: {e}"))?;
            let obs = obs_for(metrics_out, trace_out, *progress);
            let config = SearchConfig {
                search_jobs: *search_jobs,
                memo_capacity: *memo_cap,
                split_depth: *split_depth,
                split_granularity: *split_granularity,
                obs,
                ..SearchConfig::default()
            };
            let ticker = (*progress && obs.enabled()).then(|| Progress::spawn(obs));
            let report = is_opaque_with(&h, &specs, config).map_err(|e| e.to_string())?;
            drop(ticker);
            write_artifacts(obs, metrics_out.as_deref(), trace_out.as_deref())?;
            w(
                out,
                format!(
                    "history: {} events, {} transactions",
                    h.len(),
                    h.txs().len()
                ),
            )?;
            let parallel_line = |out: &mut dyn Write| -> Result<(), String> {
                if *search_jobs != 1 {
                    w(
                        out,
                        format!(
                            "parallel: {} workers, {} steals, {} splits, {} donated tasks, \
                             {} cancelled",
                            report.stats.workers,
                            report.stats.steals,
                            report.stats.splits,
                            report.stats.donated_tasks,
                            report.stats.cancelled_tasks
                        ),
                    )?;
                }
                Ok(())
            };
            if report.opaque {
                w(out, "verdict: OPAQUE".to_string())?;
                if let Some(witness) = &report.witness {
                    let order: Vec<String> = witness
                        .order
                        .iter()
                        .map(|(t, p)| format!("{t}({p:?})"))
                        .collect();
                    w(out, format!("witness serialization: {}", order.join(" ≪ ")))?;
                }
                w(
                    out,
                    format!("search: {} nodes explored", report.stats.nodes),
                )?;
                parallel_line(out)?;
                Ok(0)
            } else {
                w(out, "verdict: NOT OPAQUE".to_string())?;
                w(
                    out,
                    format!("search: {} nodes explored", report.stats.nodes),
                )?;
                parallel_line(out)?;
                w(
                    out,
                    "hint: run `tmcheck explain` for the violation localization".to_string(),
                )?;
                Ok(1)
            }
        }
        Command::Explain(file) => {
            let h = load_history(file)?;
            tm_model::check_well_formed(&h).map_err(|e| format!("not well-formed: {e}"))?;
            match explain_violation(&h, &specs).map_err(|e| e.to_string())? {
                None => {
                    w(out, "history is opaque — nothing to explain".to_string())?;
                    Ok(0)
                }
                Some(ex) => {
                    w(out, format!("{ex}"))?;
                    Ok(1)
                }
            }
        }
        Command::Criteria(file) => {
            let h = load_history(file)?;
            tm_model::check_well_formed(&h).map_err(|e| format!("not well-formed: {e}"))?;
            let profile = criteria::classify(&h, &specs).map_err(|e| e.to_string())?;
            let si = criteria::snapshot_isolated(&h, &specs)
                .map(|b| if b { "yes" } else { "NO" })
                .unwrap_or("n/a (non-register objects)");
            let yn = |b: bool| if b { "yes" } else { "NO" };
            w(
                out,
                format!(
                    "serializable (global atomicity):  {}",
                    yn(profile.serializable)
                ),
            )?;
            w(
                out,
                format!(
                    "strictly serializable:            {}",
                    yn(profile.strictly_serializable)
                ),
            )?;
            w(
                out,
                format!(
                    "recoverable:                      {}",
                    yn(profile.recoverable)
                ),
            )?;
            w(
                out,
                format!(
                    "avoids cascading aborts:          {}",
                    yn(profile.avoids_cascading_aborts)
                ),
            )?;
            w(
                out,
                format!("strict:                           {}", yn(profile.strict)),
            )?;
            w(
                out,
                format!("rigorous (§3.6):                  {}", yn(profile.rigorous)),
            )?;
            w(out, format!("snapshot-isolated:                {si}"))?;
            w(
                out,
                format!("opaque (Definition 1):            {}", yn(profile.opaque)),
            )?;
            Ok(if profile.opaque { 0 } else { 1 })
        }
        Command::Graph(file) => {
            let h = load_history(file)?;
            tm_model::check_well_formed(&h).map_err(|e| format!("not well-formed: {e}"))?;
            match construct_graph_witness(&h, &specs).map_err(|e| e.to_string())? {
                Some(witness) => {
                    let h0 = nonlocal(&with_initial_tx(&h, &specs));
                    let visible: HashSet<_> = witness.visible.iter().copied().collect();
                    let g = build_opg(&h0, &witness.order, &visible);
                    w(
                        out,
                        "// OPG(nonlocal(H·T0), ≪, V) for the opacity witness".to_string(),
                    )?;
                    w(out, g.to_dot())?;
                    Ok(0)
                }
                None => {
                    // No witness exists: render the graph under the
                    // real-time-compatible identity order with V = all
                    // commit-pending, for inspection of the obstruction.
                    let h0 = nonlocal(&with_initial_tx(&h, &specs));
                    let rt = RealTimeOrder::of(&h0);
                    let mut order = h0.txs();
                    order.sort_by(|&a, &b| {
                        if rt.precedes(a, b) {
                            std::cmp::Ordering::Less
                        } else if rt.precedes(b, a) {
                            std::cmp::Ordering::Greater
                        } else {
                            a.cmp(&b)
                        }
                    });
                    let visible: HashSet<_> = h0.commit_pending_txs().into_iter().collect();
                    let g = build_opg(&h0, &order, &visible);
                    w(
                        out,
                        "// history is NOT opaque: no (≪,V) yields a well-formed acyclic OPG;\n\
                         // shown under the identity order with V = all commit-pending"
                            .to_string(),
                    )?;
                    w(out, g.to_dot())?;
                    Ok(1)
                }
            }
        }
        Command::Convert { file, json } => {
            let h = load_history(file)?;
            let rendered = if *json {
                to_json_pretty(&h)
            } else {
                to_text(&h)
            };
            write!(out, "{rendered}").map_err(|e| e.to_string())?;
            if *json {
                w(out, String::new())?;
            }
            Ok(0)
        }
        Command::List => {
            let reg = tm_stm::TmRegistry::suite();
            let yn = |b: bool| if b { "yes" } else { "no " };
            w(
                out,
                format!(
                    "{:<10} {:>11} {:>10} {:>9} {:>6} {:>6} {:>8} {:>4} {:>8}",
                    "tm",
                    "progressive",
                    "single-ver",
                    "invisible",
                    "opaque",
                    "ser",
                    "clock",
                    "cm",
                    "blocking"
                ),
            )?;
            for spec in reg.specs() {
                let p = spec.properties;
                w(
                    out,
                    format!(
                        "{:<10} {:>11} {:>10} {:>9} {:>6} {:>6} {:>8} {:>4} {:>8}",
                        spec.name,
                        yn(p.progressive),
                        yn(p.single_version),
                        yn(p.invisible_reads),
                        yn(p.opaque_by_design),
                        yn(p.serializable_by_design),
                        if spec.clocked { "any" } else { "-" },
                        if spec.cm_tunable { "any" } else { "-" },
                        yn(spec.blocking),
                    ),
                )?;
            }
            w(
                out,
                "\nclock schemes (clocked TMs): single (GV1 counter), sharded:N \
                 (GV5-style padded array), deferred (GV4 pass-on-failure)\n\
                 spec syntax: <tm>[+<clock>], e.g. tl2+sharded:16, mvstm+deferred"
                    .to_string(),
            )?;
            Ok(0)
        }
        Command::Conformance {
            jobs,
            search_jobs,
            memo_cap,
            split_depth,
            split_granularity,
            tm,
            clock,
            mutants,
            objects,
            metrics_out,
            trace_out,
        } => {
            use tm_harness::{
                conformance_observed, conformance_parallel_with, object_conformance_with,
            };
            let obs = obs_for(metrics_out, trace_out, false);
            let search = SearchConfig {
                search_jobs: *search_jobs,
                memo_capacity: *memo_cap,
                split_depth: *split_depth,
                split_granularity: *split_granularity,
                obs,
                ..SearchConfig::default()
            };
            let reg = tm_stm::TmRegistry::suite();
            // Resolve the sweep into TM specs; every lookup is fallible and
            // the errors carry the registry's menu of valid names.
            let specs_to_run: Vec<String> = match (tm, clock) {
                (Some(spec), None) => vec![spec.clone()],
                (Some(spec), Some(scheme)) => {
                    if spec.contains('+') {
                        return Err(format!(
                            "conformance: clock given twice ('{spec}' and --clock {scheme})"
                        ));
                    }
                    vec![format!("{spec}+{scheme}")]
                }
                (None, Some(scheme)) => reg
                    .specs()
                    .iter()
                    .filter(|s| s.clocked)
                    .map(|s| format!("{}+{scheme}", s.name))
                    .collect(),
                (None, None) => reg.names().iter().map(|n| n.to_string()).collect(),
            };
            type Factory = Box<dyn Fn(usize) -> Box<dyn tm_stm::Stm> + Sync>;
            // Per TM: its label, its advertised properties, the factory of
            // the battery, and the same TM with no observability handle (the
            // threaded lost-update probe's, whose scheduling-dependent
            // aborts must stay out of the stm.* counters).
            let mut selection: Vec<(String, tm_stm::StmProperties, Factory, Factory)> = Vec::new();
            for spec in specs_to_run {
                let props = reg
                    .parse_spec(&spec)
                    .map_err(|e| format!("conformance: {e}"))?
                    .0
                    .properties;
                let unobserved = reg
                    .factory(&spec)
                    .map_err(|e| format!("conformance: {e}"))?;
                let factory: Factory = if obs.enabled() {
                    // Thread the observability handle into every TM the
                    // battery builds, so the STM-layer commit/abort/clock
                    // counters land in the metrics snapshot. The spec was
                    // validated by parse_spec above.
                    let spec = spec.clone();
                    Box::new(move |k: usize| {
                        tm_stm::TmRegistry::suite()
                            .build_with(&spec, &tm_stm::StmConfig::new(k).obs(obs))
                            .unwrap_or_else(|e| panic!("validated spec '{spec}': {e}"))
                    })
                } else {
                    Box::new(unobserved)
                };
                selection.push((spec, props, factory, Box::new(unobserved)));
            }
            // Deliberately job-count-free output: `--jobs N` must be
            // byte-identical to `--jobs 1` (deterministic sharded merge).
            let mut all_clean = true;
            let mut failures: Vec<String> = Vec::new();
            if let Some(kinds) = objects {
                // Typed-object battery: rich-semantics probes judged
                // against the objects' own sequential specifications.
                w(out, tm_harness::object_header())?;
                for (label, props, factory, _) in &selection {
                    let report = object_conformance_with(factory.as_ref(), kinds, *jobs, search);
                    // Well-formedness is unconditional; the full battery is
                    // the contract for opaque-by-design TMs, and committed
                    // transactions must stay serializable wherever the TM
                    // advertises it (the object-level analogue of the
                    // register battery's lost-update gate). SI-STM's
                    // convictions are expected rows, not failures.
                    let ok = report.probes.iter().all(|p| p.well_formed)
                        && (!props.opaque_by_design || report.all_clean())
                        && (!props.serializable_by_design
                            || report.probes.iter().all(|p| p.serializable));
                    if !ok {
                        all_clean = false;
                        failures.extend(
                            report
                                .probes
                                .iter()
                                .flat_map(|p| p.violations.iter().cloned()),
                        );
                    }
                    for probe in &report.probes {
                        w(out, probe.row(label))?;
                    }
                }
                if *mutants {
                    use tm_stm::{MutantStm, Mutation};
                    for mutation in [
                        Mutation::None,
                        Mutation::SkipReadValidation,
                        Mutation::SkipCommitValidation,
                    ] {
                        let factory = move |k: usize| -> Box<dyn tm_stm::Stm> {
                            Box::new(MutantStm::new(k, mutation))
                        };
                        let report = object_conformance_with(&factory, kinds, *jobs, search);
                        for probe in &report.probes {
                            w(out, probe.row(&report.name))?;
                        }
                    }
                }
            } else {
                w(out, tm_harness::conformance_header())?;
                for (label, _props, factory, unobserved) in &selection {
                    let mut report =
                        conformance_observed(factory.as_ref(), unobserved.as_ref(), *jobs, search);
                    report.name = label.clone();
                    // Opacity is the contract under test; TMs that advertise
                    // a weaker criterion (sistm, nonopaque) are expected
                    // rows, not failures — only well-formedness and lost
                    // updates are unconditional.
                    if !report.well_formed || !report.no_lost_updates {
                        all_clean = false;
                        failures.extend(report.violations.iter().cloned());
                    }
                    w(out, report.row())?;
                }
                if *mutants {
                    use tm_stm::{MutantStm, Mutation};
                    for mutation in [
                        Mutation::None,
                        Mutation::SkipReadValidation,
                        Mutation::SkipCommitValidation,
                    ] {
                        let factory = move |k: usize| -> Box<dyn tm_stm::Stm> {
                            Box::new(MutantStm::new(k, mutation))
                        };
                        let report = conformance_parallel_with(&factory, *jobs, search);
                        w(out, report.row())?;
                    }
                }
            }
            write_artifacts(obs, metrics_out.as_deref(), trace_out.as_deref())?;
            if all_clean {
                Ok(0)
            } else {
                for f in failures.iter().take(8) {
                    w(out, format!("violation: {f}"))?;
                }
                Ok(1)
            }
        }
        Command::Race {
            tm,
            steps,
            preemptions,
            metrics_out,
            trace_out,
        } => {
            let obs = obs_for(metrics_out, trace_out, false);
            let code = run_race(out, tm.as_deref(), *steps, *preemptions, obs)?;
            write_artifacts(obs, metrics_out.as_deref(), trace_out.as_deref())?;
            Ok(code)
        }
        Command::Serve {
            socket,
            replay,
            max_sessions,
            memo_budget,
            node_budget,
            inbox_cap,
            fault_plan,
            journal,
            resume,
            fsync_every,
            idle_reap,
            queue_watermark,
            memo_watermark,
            metrics_out,
            trace_out,
        } => {
            let obs = obs_for(metrics_out, trace_out, false);
            let plan = match fault_plan {
                Some(arg) => {
                    // A path wins when it exists; otherwise the argument is
                    // an inline `kind@frame[:args],...` (or JSON) spec.
                    let text = match std::fs::read_to_string(arg) {
                        Ok(contents) => contents,
                        Err(_) => arg.clone(),
                    };
                    match tm_serve::FaultPlan::parse(&text) {
                        Ok(plan) => plan,
                        Err(e) => return Err(format!("serve: --fault-plan: {e}")),
                    }
                }
                None => tm_serve::FaultPlan::new(),
            };
            let config = tm_serve::ServeConfig {
                max_sessions: *max_sessions,
                memo_budget_bytes: *memo_budget,
                inbox_capacity: *inbox_cap,
                node_budget: *node_budget,
                fault_plan: plan,
                journal_dir: journal.as_ref().map(std::path::PathBuf::from),
                resume: *resume,
                fsync_every: *fsync_every,
                idle_reap_turns: *idle_reap,
                queue_watermark: *queue_watermark,
                memo_watermark_bytes: *memo_watermark,
                obs,
                ..tm_serve::ServeConfig::default()
            };
            let transport = match (socket, replay) {
                (Some(path), _) => tm_serve::Transport::Socket(path.into()),
                (None, Some(path)) => tm_serve::Transport::Replay(path.into()),
                (None, None) => tm_serve::Transport::Stdin,
            };
            let code = tm_serve::run(transport, config, out);
            write_artifacts(obs, metrics_out.as_deref(), trace_out.as_deref())?;
            Ok(code)
        }
        Command::Generate {
            seed,
            txs,
            objs,
            ops,
            json,
        } => {
            let config = GenConfig {
                txs: *txs,
                objs: *objs,
                max_ops: *ops,
                ..GenConfig::default()
            };
            let h = random_history(&config, *seed);
            let rendered = if *json {
                to_json_pretty(&h)
            } else {
                to_text(&h)
            };
            write!(out, "{rendered}").map_err(|e| e.to_string())?;
            Ok(0)
        }
    }
}

/// The step-level probe programs of the `race` sweep — the same §2 hazard
/// shapes as the conformance battery, minus write skew: `sistm` commits
/// write skew *by design* (a documented anomaly, not a clock-discipline
/// race), so a skew probe would convict a TM that is exactly as weak as it
/// advertises. The mutant self-test supplies the skew program where it
/// belongs.
fn race_probes() -> Vec<(&'static str, tm_harness::Program)> {
    use tm_harness::TxScript;
    vec![
        (
            "reader-vs-writer",
            tm_harness::Program::new(vec![
                TxScript::new().read(0).read(1),
                TxScript::new().write(0, 7).write(1, 7),
            ]),
        ),
        (
            "rmw-vs-rmw",
            tm_harness::Program::new(vec![
                TxScript::new().read(0).write(0, 100),
                TxScript::new().read(0).write(0, 200),
            ]),
        ),
    ]
}

/// Explores every probe for one TM factory, printing a row per probe and
/// the minimized replayable schedule for any conviction. Returns whether
/// every probe came back clean.
fn race_sweep_one(
    out: &mut dyn Write,
    label: &str,
    factory: tm_harness::StmFactory<'_>,
    cfg: &tm_harness::DporConfig,
) -> Result<bool, String> {
    use tm_harness::{committed_serializable, explore, replay_schedule, shrink_schedule};
    let w = |out: &mut dyn Write, s: String| -> Result<(), String> {
        writeln!(out, "{s}").map_err(|e| e.to_string())
    };
    let mut clean = true;
    for (pname, program) in race_probes() {
        let res = explore(factory, &program, cfg);
        let complete = if res.truncated {
            "truncated"
        } else {
            "complete"
        };
        if res.violations.is_empty() {
            w(
                out,
                format!(
                    "{label:<28} {pname:<18} {:>13} {complete:>9}  clean",
                    res.interleavings
                ),
            )?;
            continue;
        }
        clean = false;
        let conviction = &res.violations[0];
        w(
            out,
            format!(
                "{label:<28} {pname:<18} {:>13} {complete:>9}  CONVICTED: {}",
                res.interleavings, conviction.kind
            ),
        )?;
        // Minimize towards seriality while the replay still convicts; the
        // printed schedule is the artifact — feeding it back through the
        // stepper reproduces the violation deterministically.
        let violates = |sched: &[usize]| {
            let r = replay_schedule(factory, &program, sched);
            !tm_harness::check_race_trace(&r.trace, program.threads.len()).is_empty()
                || !committed_serializable(factory, &program, &r.outcomes, &r.final_state)
        };
        let minimized = if violates(&conviction.schedule) {
            shrink_schedule(&conviction.schedule, violates)
        } else {
            conviction.schedule.clone()
        };
        let rendered: Vec<String> = minimized.iter().map(usize::to_string).collect();
        w(
            out,
            format!(
                "  minimized schedule (thread per step): {}",
                rendered.join(" ")
            ),
        )?;
    }
    Ok(clean)
}

/// `tmcheck race`: the step-level analysis battery. The observability
/// handle (disabled unless `--metrics-out`/`--trace-out` was given) flows
/// into every TM the battery builds, so STM commit/abort counters land in
/// the metrics snapshot.
fn run_race(
    out: &mut dyn Write,
    tm: Option<&str>,
    steps: usize,
    preemptions: usize,
    obs: tm_obs::ObsHandle,
) -> Result<i32, String> {
    use std::sync::Arc;
    use tm_harness::{DporConfig, SharedStm};
    use tm_stm::trace_cells::StepProbe;
    use tm_stm::StmConfig;
    let w = |out: &mut dyn Write, s: String| -> Result<(), String> {
        writeln!(out, "{s}").map_err(|e| e.to_string())
    };
    let reg = tm_stm::TmRegistry::suite();
    let specs: Vec<String> = match tm {
        Some(s) => vec![s.to_string()],
        None => reg
            .specs()
            .iter()
            .filter(|s| !s.blocking)
            .map(|s| s.name.to_string())
            .collect(),
    };
    w(
        out,
        format!(
            "{:<28} {:<18} {:>13} {:>9}  verdict",
            "tm", "probe", "interleavings", "explored"
        ),
    )?;
    let cfg = DporConfig {
        max_interleavings: steps,
        preemption_bound: Some(preemptions),
        ..DporConfig::default()
    };
    let mut all_clean = true;
    for spec in &specs {
        let (tmspec, scheme) = {
            let (t, scheme) = reg.parse_spec(spec).map_err(|e| format!("race: {e}"))?;
            (*t, scheme)
        };
        if tmspec.blocking {
            return Err(format!(
                "race: '{spec}' is blocking — a transaction would hold the global \
                 lock across yield points; the step-level explorer needs \
                 non-blocking TMs"
            ));
        }
        let factory = move |p: Option<Arc<dyn StepProbe>>| -> SharedStm {
            let cfg = StmConfig::new(2).clock(scheme).recording(false).obs(obs);
            let cfg = match p {
                Some(probe) => cfg.probe(probe),
                None => cfg,
            };
            Arc::from(tmspec.build(&cfg))
        };
        all_clean &= race_sweep_one(out, spec, &factory, &cfg)?;
    }
    // Suite mode doubles as a self-test of the analysis: the two seeded
    // concurrency mutants — invisible to every op-granular sweep — must be
    // convicted at step granularity, each with a replayable schedule. Their
    // programs and preemption bounds are fixed (the smallest known to
    // convict), independent of the sweep knobs.
    let mut mutants_convicted = true;
    if tm.is_none() {
        use tm_harness::TxScript;
        use tm_stm::{MutantStm, Mutation};
        let teeth: [(&str, Mutation, tm_harness::Program, usize); 2] = [
            (
                "mutant:dropped-residue",
                Mutation::DroppedResidue,
                tm_harness::Program::new(vec![
                    TxScript::new().write(0, 1),
                    TxScript::new().write(1, 2),
                ]),
                2,
            ),
            (
                "mutant:unlicensed-fast-path",
                Mutation::UnlicensedFastPath,
                tm_harness::Program::new(vec![
                    TxScript::new().read(0).write(1, 5),
                    TxScript::new().read(1).write(0, 7),
                    TxScript::new().write(2, 1),
                ]),
                3,
            ),
        ];
        for (label, mutation, program, bound) in teeth {
            let k = program.required_k();
            let factory = move |p: Option<Arc<dyn StepProbe>>| -> SharedStm {
                let cfg = StmConfig::new(k).recording(false).obs(obs);
                let cfg = match p {
                    Some(probe) => cfg.probe(probe),
                    None => cfg,
                };
                Arc::new(MutantStm::with_config(&cfg, mutation))
            };
            let mcfg = DporConfig {
                max_interleavings: steps.max(200_000),
                preemption_bound: Some(bound),
                stop_on_violation: true,
                ..DporConfig::default()
            };
            let res = tm_harness::explore(&factory, &program, &mcfg);
            if let Some(conviction) = res.violations.first() {
                w(
                    out,
                    format!(
                        "{label:<28} {:<18} {:>13} {:>9}  CONVICTED (expected): {}",
                        "seeded-hazard",
                        res.interleavings,
                        if res.truncated {
                            "truncated"
                        } else {
                            "complete"
                        },
                        conviction.kind
                    ),
                )?;
                let violates = |sched: &[usize]| {
                    let r = tm_harness::replay_schedule(&factory, &program, sched);
                    !tm_harness::check_race_trace(&r.trace, program.threads.len()).is_empty()
                        || !tm_harness::committed_serializable(
                            &factory,
                            &program,
                            &r.outcomes,
                            &r.final_state,
                        )
                };
                let minimized = if violates(&conviction.schedule) {
                    tm_harness::shrink_schedule(&conviction.schedule, violates)
                } else {
                    conviction.schedule.clone()
                };
                let rendered: Vec<String> = minimized.iter().map(usize::to_string).collect();
                w(
                    out,
                    format!(
                        "  minimized schedule (thread per step): {}",
                        rendered.join(" ")
                    ),
                )?;
            } else {
                mutants_convicted = false;
                w(
                    out,
                    format!(
                        "{label:<28} {:<18} {:>13} {:>9}  ESCAPED — the analysis lost its teeth",
                        "seeded-hazard",
                        res.interleavings,
                        if res.truncated {
                            "truncated"
                        } else {
                            "complete"
                        },
                    ),
                )?;
            }
        }
    }
    Ok(if all_clean && mutants_convicted { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &Command) -> (i32, String) {
        let mut buf = Vec::new();
        let code = run(cmd, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    /// A `check` command with default search knobs.
    fn check_cmd(file: String) -> Command {
        Command::Check {
            file,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            metrics_out: None,
            trace_out: None,
            progress: false,
        }
    }

    fn fixture(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("tmcheck-test-{name}-{}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const OPAQUE_TRACE: &str = "\
inv T1 x write 1\nret T1 x write ok\ntryC T1\nC T1
inv T2 x read\nret T2 x read 1\ntryC T2\nC T2\n";

    const H1_TRACE: &str = "\
inv T1 x write 1\nret T1 x write ok\ntryC T1\nC T1
inv T2 x read\nret T2 x read 1
inv T3 x write 2\nret T3 x write ok
inv T3 y write 2\nret T3 y write ok\ntryC T3\nC T3
inv T2 y read\nret T2 y read 2\ntryC T2\nA T2\n";

    #[test]
    fn parse_args_all_commands() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert_eq!(parse_args(&a("check f")), Ok(check_cmd("f".into())));
        assert_eq!(
            parse_args(&a("check f --search-jobs 8 --memo-cap 4096")),
            Ok(Command::Check {
                file: "f".into(),
                search_jobs: 8,
                memo_cap: Some(4096),
                split_depth: 8,
                split_granularity: 1,
                metrics_out: None,
                trace_out: None,
                progress: false,
            })
        );
        assert_eq!(
            parse_args(&a("explain f")),
            Ok(Command::Explain("f".into()))
        );
        assert_eq!(
            parse_args(&a("criteria f")),
            Ok(Command::Criteria("f".into()))
        );
        assert_eq!(parse_args(&a("graph f")), Ok(Command::Graph("f".into())));
        assert_eq!(
            parse_args(&a("convert f --json")),
            Ok(Command::Convert {
                file: "f".into(),
                json: true
            })
        );
        assert_eq!(
            parse_args(&a("generate --seed 7 --txs 3 --json")),
            Ok(Command::Generate {
                seed: 7,
                txs: 3,
                objs: 3,
                ops: 4,
                json: true
            })
        );
        assert_eq!(parse_args(&a("help")), Ok(Command::Help));
        assert_eq!(
            parse_args(&a("conformance")),
            Ok(Command::Conformance {
                jobs: 1,
                search_jobs: 1,
                memo_cap: None,
                split_depth: 8,
                split_granularity: 1,
                tm: None,
                clock: None,
                mutants: false,
                objects: None,
                metrics_out: None,
                trace_out: None
            })
        );
        assert_eq!(
            parse_args(&a("conformance --jobs 4 --tm tl2 --mutants")),
            Ok(Command::Conformance {
                jobs: 4,
                search_jobs: 1,
                memo_cap: None,
                split_depth: 8,
                split_granularity: 1,
                tm: Some("tl2".into()),
                clock: None,
                mutants: true,
                objects: None,
                metrics_out: None,
                trace_out: None
            })
        );
        assert_eq!(
            parse_args(&a("conformance --objects all")),
            Ok(Command::Conformance {
                jobs: 1,
                search_jobs: 1,
                memo_cap: None,
                split_depth: 8,
                split_granularity: 1,
                tm: None,
                clock: None,
                mutants: false,
                objects: Some(ObjectKind::ALL.to_vec()),
                metrics_out: None,
                trace_out: None
            })
        );
        assert_eq!(
            parse_args(&a("conformance --objects set,queue --tm sistm")),
            Ok(Command::Conformance {
                jobs: 1,
                search_jobs: 1,
                memo_cap: None,
                split_depth: 8,
                split_granularity: 1,
                tm: Some("sistm".into()),
                clock: None,
                mutants: false,
                objects: Some(vec![ObjectKind::Queue, ObjectKind::Set]),
                metrics_out: None,
                trace_out: None
            })
        );
        assert!(parse_args(&a("conformance --jobs 0")).is_err());
        assert!(parse_args(&a("conformance --jobs x")).is_err());
        assert!(parse_args(&a("conformance --bogus")).is_err());
        assert!(parse_args(&a("conformance --objects")).is_err());
        assert!(parse_args(&a("conformance --objects bogus")).is_err());
        assert!(parse_args(&a("bogus")).is_err());
        assert!(parse_args(&a("convert f")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn numeric_flags_are_validated_with_friendly_errors() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        for (args, needle) in [
            ("generate --txs 0", "--txs must be ≥ 1"),
            ("generate --objs 0", "--objs must be ≥ 1"),
            ("generate --ops 0", "--ops must be ≥ 1"),
            ("generate --txs x", "--txs needs a number"),
            ("generate --seed", "--seed needs a number"),
            ("conformance --jobs 0", "--jobs needs a number ≥ 1"),
            ("conformance --jobs -3", "--jobs needs a number ≥ 1"),
            (
                "conformance --search-jobs x",
                "--search-jobs needs a number ≥ 0 (0 = auto)",
            ),
            ("conformance --memo-cap 0", "--memo-cap needs a number ≥ 1"),
            ("conformance --memo-cap", "--memo-cap needs a number ≥ 1"),
            (
                "check f --search-jobs -2",
                "--search-jobs needs a number ≥ 0 (0 = auto)",
            ),
            (
                "check f --search-jobs",
                "--search-jobs needs a number ≥ 0 (0 = auto)",
            ),
            ("check f --memo-cap -1", "--memo-cap needs a number ≥ 1"),
            (
                "check f --split-depth x",
                "--split-depth needs a number ≥ 0 (0 = disabled)",
            ),
            (
                "conformance --split-granularity 0",
                "--split-granularity needs a number ≥ 1",
            ),
        ] {
            let err = parse_args(&a(args)).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
        // Boundary values stay accepted; --search-jobs 0 now means "auto".
        assert!(parse_args(&a("generate --txs 1 --objs 1 --ops 1 --seed 0")).is_ok());
        assert!(parse_args(&a("check f --search-jobs 1 --memo-cap 1")).is_ok());
        assert!(parse_args(&a("conformance --search-jobs 1 --memo-cap 1")).is_ok());
        assert!(parse_args(&a(
            "check f --search-jobs 0 --split-depth 0 --split-granularity 1"
        ))
        .is_ok());
        assert!(parse_args(&a("conformance --search-jobs 0 --split-depth 16")).is_ok());
    }

    #[test]
    fn check_verdict_is_invariant_under_search_knobs() {
        // The parallel, bounded search must not change any verdict the CLI
        // reports — same exit code and same OPAQUE/NOT OPAQUE line.
        for (trace, expected) in [(OPAQUE_TRACE, 0), (H1_TRACE, 1)] {
            let f = fixture("knobs", trace);
            let (code, _out) = run_str(&check_cmd(f.clone()));
            assert_eq!(code, expected);
            let (code_p, out_p) = run_str(&Command::Check {
                file: f,
                search_jobs: 4,
                memo_cap: Some(8),
                split_depth: 8,
                split_granularity: 1,
                metrics_out: None,
                trace_out: None,
                progress: false,
            });
            assert_eq!(code_p, expected, "{out_p}");
        }
    }

    #[test]
    fn parallel_check_surfaces_split_counters() {
        // With more than one search job the check report must expose the
        // work-stealing telemetry, including the new split counters.
        let f = fixture("split-counters", OPAQUE_TRACE);
        let (code, out) = run_str(&Command::Check {
            file: f,
            search_jobs: 4,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            metrics_out: None,
            trace_out: None,
            progress: false,
        });
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("workers,"), "{out}");
        assert!(!out.contains(" 0 workers"), "{out}");
        assert!(out.contains("splits"), "{out}");
        assert!(out.contains("donated tasks"), "{out}");
        // The sequential engine stays quiet about parallel telemetry.
        let f = fixture("split-counters-seq", OPAQUE_TRACE);
        let (code, out) = run_str(&check_cmd(f));
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("splits"), "{out}");
    }

    #[test]
    fn conformance_output_is_invariant_under_search_knobs() {
        let cmd = |search_jobs, memo_cap, split_depth, split_granularity| Command::Conformance {
            jobs: 1,
            search_jobs,
            memo_cap,
            split_depth,
            split_granularity,
            tm: Some("tl2".into()),
            clock: None,
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        };
        let (code1, baseline) = run_str(&cmd(1, None, 8, 1));
        assert_eq!(code1, 0, "{baseline}");
        // Parallelism, bounded memo, and the splitting discipline (every
        // split_depth/split_granularity corner incl. disabled and auto
        // jobs) may only change speed, never a byte of the battery.
        for (sj, cap, sd, sg) in [
            (2, None, 8, 1),
            (1, Some(32), 8, 1),
            (3, Some(8), 8, 1),
            (4, None, 0, 1),
            (4, None, 1, 1),
            (4, None, 64, 3),
            (0, Some(16), 2, 2),
        ] {
            let (code, out) = run_str(&cmd(sj, cap, sd, sg));
            assert_eq!(code, 0, "{out}");
            assert_eq!(
                out, baseline,
                "search-jobs={sj} memo-cap={cap:?} split-depth={sd} \
                 split-granularity={sg} changed the battery"
            );
        }
    }

    #[test]
    fn check_opaque_trace_exits_zero() {
        let f = fixture("ok", OPAQUE_TRACE);
        let (code, output) = run_str(&check_cmd(f));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("OPAQUE"));
        assert!(output.contains("witness serialization"));
    }

    #[test]
    fn check_h1_exits_one() {
        let f = fixture("h1", H1_TRACE);
        let (code, output) = run_str(&check_cmd(f));
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("NOT OPAQUE"));
    }

    #[test]
    fn explain_localizes_h1() {
        let f = fixture("h1e", H1_TRACE);
        let (code, output) = run_str(&Command::Explain(f));
        assert_eq!(code, 1);
        // The fatal event is T2's read of y returning 2.
        assert!(output.contains("ret2(y,read)→2"), "{output}");
    }

    #[test]
    fn criteria_table_shows_the_separation() {
        let f = fixture("h1c", H1_TRACE);
        let (code, output) = run_str(&Command::Criteria(f));
        assert_eq!(code, 1);
        assert!(
            output.contains("serializable (global atomicity):  yes"),
            "{output}"
        );
        assert!(
            output.contains("opaque (Definition 1):            NO"),
            "{output}"
        );
    }

    #[test]
    fn graph_emits_dot() {
        let f = fixture("g", OPAQUE_TRACE);
        let (code, output) = run_str(&Command::Graph(f));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("digraph"), "{output}");
        let f = fixture("g1", H1_TRACE);
        let (code, output) = run_str(&Command::Graph(f));
        assert_eq!(code, 1);
        assert!(output.contains("NOT opaque"), "{output}");
        assert!(output.contains("digraph"), "{output}");
    }

    #[test]
    fn convert_roundtrips_between_formats() {
        let f = fixture("conv", OPAQUE_TRACE);
        let (code, json) = run_str(&Command::Convert {
            file: f,
            json: true,
        });
        assert_eq!(code, 0);
        let f2 = fixture("conv2", &json);
        let (code, text) = run_str(&Command::Convert {
            file: f2,
            json: false,
        });
        assert_eq!(code, 0);
        assert_eq!(
            parse_trace(&text).unwrap().events(),
            parse_trace(OPAQUE_TRACE).unwrap().events()
        );
    }

    #[test]
    fn generate_emits_parsable_wellformed_history() {
        let (code, text) = run_str(&Command::Generate {
            seed: 11,
            txs: 4,
            objs: 3,
            ops: 4,
            json: false,
        });
        assert_eq!(code, 0);
        let h = parse_trace(&text).unwrap();
        assert!(tm_model::is_well_formed(&h));
        let (code, json) = run_str(&Command::Generate {
            seed: 11,
            txs: 4,
            objs: 3,
            ops: 4,
            json: true,
        });
        assert_eq!(code, 0);
        assert_eq!(parse_trace(&json).unwrap().events(), h.events());
    }

    #[test]
    fn conformance_output_is_identical_across_job_counts() {
        // The acceptance contract of the parallel pipeline: sharding the
        // sweep across 4 workers is invisible in the rendered battery.
        let (code1, seq) = run_str(&Command::Conformance {
            jobs: 1,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: None,
            clock: None,
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        });
        let (code4, par) = run_str(&Command::Conformance {
            jobs: 4,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: None,
            clock: None,
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code1, 0, "{seq}");
        assert_eq!(code4, 0, "{par}");
        assert_eq!(seq, par, "jobs=4 output diverged from jobs=1");
        assert!(seq.contains("tl2"));
        assert!(seq.contains("glock"));
    }

    #[test]
    fn conformance_single_tm_and_unknown_tm() {
        let (code, out) = run_str(&Command::Conformance {
            jobs: 2,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("tl2".into()),
            clock: None,
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("tl2"));
        assert!(!out.contains("glock"));
        let (code, out) = run_str(&Command::Conformance {
            jobs: 1,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("nonesuch".into()),
            clock: None,
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 2);
        assert!(out.contains("unknown TM"), "{out}");
    }

    #[test]
    fn conformance_objects_sweeps_rich_probes() {
        // The SI conviction is visible from the CLI: the set write-skew row
        // shows NO for opacity/serializability, yet sistm is an expected
        // row, not a battery failure — exit code stays 0.
        let (code, out) = run_str(&Command::Conformance {
            jobs: 2,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("sistm".into()),
            clock: None,
            mutants: false,
            objects: Some(vec![ObjectKind::Set]),
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("set-write-skew"), "{out}");
        let skew_row = out
            .lines()
            .find(|l| l.contains("set-write-skew"))
            .expect("row present");
        assert!(skew_row.contains("NO"), "{skew_row}");
        // An opaque TM passes the same probe.
        let (code, out) = run_str(&Command::Conformance {
            jobs: 1,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("tl2".into()),
            clock: None,
            mutants: false,
            objects: Some(vec![ObjectKind::Set, ObjectKind::Queue]),
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("queue-producer-consumer"), "{out}");
        assert!(
            !out.lines().any(|l| l.contains("tl2") && l.contains("NO")),
            "{out}"
        );
    }

    #[test]
    fn conformance_objects_output_is_identical_across_job_counts() {
        let cmd = |jobs| Command::Conformance {
            jobs,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("tl2".into()),
            clock: None,
            mutants: false,
            objects: Some(vec![ObjectKind::Counter, ObjectKind::Set]),
            metrics_out: None,
            trace_out: None,
        };
        let (code1, seq) = run_str(&cmd(1));
        let (code3, par) = run_str(&cmd(3));
        assert_eq!(code1, 0, "{seq}");
        assert_eq!(code3, 0, "{par}");
        assert_eq!(seq, par, "jobs=3 object battery diverged from jobs=1");
    }

    #[test]
    fn list_renders_the_registry() {
        let (code, out) = run_str(&Command::List);
        assert_eq!(code, 0);
        for name in tm_stm::TmRegistry::suite().names() {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("sharded:N"), "{out}");
        assert!(out.contains("tl2+sharded:16"), "{out}");
    }

    #[test]
    fn conformance_clock_flag_sweeps_the_clocked_tms() {
        let (code, out) = run_str(&Command::Conformance {
            jobs: 2,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: None,
            clock: Some(tm_stm::ClockScheme::Sharded(4)),
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        for row in ["tl2+sharded:4", "mvstm+sharded:4", "sistm+sharded:4"] {
            assert!(out.contains(row), "{out}");
        }
        assert!(
            !out.contains("dstm"),
            "clockless TMs must be skipped: {out}"
        );
    }

    #[test]
    fn conformance_tm_accepts_full_specs() {
        let (code, out) = run_str(&Command::Conformance {
            jobs: 1,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("tl2+deferred".into()),
            clock: None,
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("tl2+deferred"), "{out}");
    }

    #[test]
    fn conformance_clock_errors_are_friendly() {
        // Clock scheme on a clockless TM.
        let (code, out) = run_str(&Command::Conformance {
            jobs: 1,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("dstm".into()),
            clock: Some(tm_stm::ClockScheme::Deferred),
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 2);
        assert!(out.contains("no global clock"), "{out}");
        // Clock given twice.
        let (code, out) = run_str(&Command::Conformance {
            jobs: 1,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("tl2+sharded:2".into()),
            clock: Some(tm_stm::ClockScheme::Deferred),
            mutants: false,
            objects: None,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 2);
        assert!(out.contains("clock given twice"), "{out}");
        // Unparsable scheme at parse_args level.
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert!(parse_args(&a("conformance --clock gv9"))
            .unwrap_err()
            .contains("unknown clock scheme"));
        assert!(parse_args(&a("conformance --clock"))
            .unwrap_err()
            .contains("--clock needs a scheme"));
        assert_eq!(parse_args(&a("list")), Ok(Command::List));
        assert_eq!(
            parse_args(&a("conformance --clock sharded:16 --jobs 2")),
            Ok(Command::Conformance {
                jobs: 2,
                search_jobs: 1,
                memo_cap: None,
                split_depth: 8,
                split_granularity: 1,
                tm: None,
                clock: Some(tm_stm::ClockScheme::Sharded(16)),
                mutants: false,
                objects: None,
                metrics_out: None,
                trace_out: None
            })
        );
    }

    #[test]
    fn conformance_objects_with_clock_scheme() {
        let (code, out) = run_str(&Command::Conformance {
            jobs: 2,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("sistm".into()),
            clock: Some(tm_stm::ClockScheme::Sharded(2)),
            mutants: false,
            objects: Some(vec![ObjectKind::Set]),
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        let skew_row = out
            .lines()
            .find(|l| l.contains("set-write-skew"))
            .expect("row present");
        assert!(skew_row.contains("sistm+sharded:2"), "{skew_row}");
        assert!(
            skew_row.contains("NO"),
            "conviction must survive: {skew_row}"
        );
    }

    #[test]
    fn race_flags_parse_with_friendly_errors() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert_eq!(
            parse_args(&a("race")),
            Ok(Command::Race {
                tm: None,
                steps: 200_000,
                preemptions: 2,
                metrics_out: None,
                trace_out: None
            })
        );
        assert_eq!(
            parse_args(&a("race --tm tl2+deferred --steps 500 --preemptions 0")),
            Ok(Command::Race {
                tm: Some("tl2+deferred".into()),
                steps: 500,
                preemptions: 0,
                metrics_out: None,
                trace_out: None
            })
        );
        for (args, needle) in [
            ("race --steps 0", "--steps needs a number ≥ 1"),
            ("race --steps x", "--steps needs a number ≥ 1"),
            ("race --steps", "--steps needs a number ≥ 1"),
            ("race --preemptions x", "--preemptions needs a number ≥ 0"),
            ("race --preemptions", "--preemptions needs a number ≥ 0"),
            ("race --tm", "--tm needs a name"),
            ("race --bogus", "unknown flag"),
        ] {
            let err = parse_args(&a(args)).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
    }

    #[test]
    fn race_acquits_a_single_real_tm() {
        let (code, out) = run_str(&Command::Race {
            tm: Some("tl2".into()),
            steps: 2_000,
            preemptions: 2,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("reader-vs-writer"), "{out}");
        assert!(out.contains("rmw-vs-rmw"), "{out}");
        assert!(out.contains("clean"), "{out}");
        assert!(!out.contains("CONVICTED"), "{out}");
        // Single-TM mode has no mutant self-test rows.
        assert!(!out.contains("mutant:"), "{out}");
    }

    #[test]
    fn race_rejects_blocking_and_unknown_tms() {
        let (code, out) = run_str(&Command::Race {
            tm: Some("glock".into()),
            steps: 100,
            preemptions: 1,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("blocking"), "{out}");
        let (code, out) = run_str(&Command::Race {
            tm: Some("nonesuch".into()),
            steps: 100,
            preemptions: 1,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown TM"), "{out}");
    }

    #[test]
    fn race_suite_convicts_the_mutants_and_acquits_everyone_else() {
        // The full battery: every non-blocking TM clean, both seeded
        // concurrency mutants convicted with a printed schedule artifact.
        let (code, out) = run_str(&Command::Race {
            tm: None,
            steps: 200_000,
            preemptions: 2,
            metrics_out: None,
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        for name in ["tl2", "dstm", "sistm", "nonopaque", "tpl"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(!out.contains("glock"), "blocking TM must be skipped: {out}");
        assert!(out.contains("mutant:dropped-residue"), "{out}");
        assert!(out.contains("mutant:unlicensed-fast-path"), "{out}");
        assert_eq!(out.matches("CONVICTED (expected)").count(), 2, "{out}");
        assert_eq!(out.matches("minimized schedule").count(), 2, "{out}");
        assert!(!out.contains("ESCAPED"), "{out}");
    }

    /// A `check` command with observability artifacts requested.
    fn check_with_artifacts(file: String, metrics: &str, trace: &str) -> Command {
        Command::Check {
            file,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            metrics_out: Some(metrics.to_string()),
            trace_out: Some(trace.to_string()),
            progress: false,
        }
    }

    fn artifact_path(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("tmcheck-art-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn observability_flags_parse_with_friendly_errors() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert_eq!(
            parse_args(&a(
                "check f --progress --metrics-out m.json --trace-out t.json"
            )),
            Ok(Command::Check {
                file: "f".into(),
                search_jobs: 1,
                memo_cap: None,
                split_depth: 8,
                split_granularity: 1,
                metrics_out: Some("m.json".into()),
                trace_out: Some("t.json".into()),
                progress: true,
            })
        );
        for (args, needle) in [
            ("check f --metrics-out", "--metrics-out needs a file path"),
            ("check f --trace-out", "--trace-out needs a file path"),
            (
                "conformance --metrics-out",
                "--metrics-out needs a file path",
            ),
            ("race --trace-out", "--trace-out needs a file path"),
        ] {
            let err = parse_args(&a(args)).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
        assert!(parse_args(&a("conformance --metrics-out m --trace-out t")).is_ok());
        assert!(parse_args(&a("race --metrics-out m --trace-out t")).is_ok());
        // --progress is check-only.
        assert!(parse_args(&a("conformance --progress")).is_err());
    }

    #[test]
    fn check_writes_versioned_metrics_and_trace_artifacts() {
        let f = fixture("artifacts", OPAQUE_TRACE);
        let metrics = artifact_path("check-metrics");
        let trace = artifact_path("check-trace");
        // Observability must not change a byte of the verdict output.
        let (code_bare, bare) = run_str(&check_cmd(f.clone()));
        let (code, observed) = run_str(&check_with_artifacts(f, &metrics, &trace));
        assert_eq!(code, code_bare);
        assert_eq!(observed, bare, "observability changed the verdict output");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"schema\": \"tm-metrics/v1\""), "{m}");
        assert!(m.contains("\"search.nodes\""), "{m}");
        assert!(m.contains("\"check.verdict_ns\""), "{m}");
        assert!(m.contains("\"search.workers\""), "{m}");
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"schemaVersion\": 1"), "{t}");
        assert!(t.contains("\"traceEvents\""), "{t}");
        assert!(
            t.contains("\"check\""),
            "the check span must be present: {t}"
        );
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn auto_search_jobs_reports_the_effective_worker_count() {
        // `--search-jobs 0` resolves to the hardware parallelism; the
        // parallel line and the metrics snapshot must both report the
        // resolved count, never the literal 0.
        let f = fixture("auto-workers", OPAQUE_TRACE);
        let metrics = artifact_path("auto-workers-metrics");
        let (code, out) = run_str(&Command::Check {
            file: f,
            search_jobs: 0,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            metrics_out: Some(metrics.clone()),
            trace_out: None,
            progress: false,
        });
        assert_eq!(code, 0, "{out}");
        let line = out
            .lines()
            .find(|l| l.starts_with("parallel:"))
            .expect("parallel line present under auto jobs");
        assert!(!line.contains(" 0 workers"), "{line}");
        let workers: u64 = line
            .trim_start_matches("parallel: ")
            .split(' ')
            .next()
            .and_then(|n| n.parse().ok())
            .expect("leading worker count");
        assert!(workers >= 1, "{line}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            m.contains(&format!("\"search.workers\": {workers}")),
            "snapshot must record the same effective count: {m}"
        );
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn conformance_metrics_cover_search_and_stm_layers() {
        let metrics = artifact_path("conf-metrics");
        let trace = artifact_path("conf-trace");
        let cmd = |m: Option<String>, t: Option<String>| Command::Conformance {
            jobs: 1,
            search_jobs: 1,
            memo_cap: None,
            split_depth: 8,
            split_granularity: 1,
            tm: Some("tl2".into()),
            clock: None,
            mutants: false,
            objects: None,
            metrics_out: m,
            trace_out: t,
        };
        let (code_bare, bare) = run_str(&cmd(None, None));
        let (code, observed) = run_str(&cmd(Some(metrics.clone()), Some(trace.clone())));
        assert_eq!(code, code_bare);
        assert_eq!(observed, bare, "observability changed the battery output");
        let m = std::fs::read_to_string(&metrics).unwrap();
        for counter in [
            "\"search.checks\"",
            "\"search.nodes\"",
            "\"memo.probes\"",
            "\"stm.commits\"",
            "\"stm.clock.ticks\"",
        ] {
            assert!(m.contains(counter), "missing {counter}: {m}");
        }
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("\"traceEvents\""));
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn conformance_monotone_counters_agree_across_job_counts() {
        // The observability analogue of the byte-identical-output contract:
        // sharding the sweep across jobs may only change timing, never a
        // monotone counter. Counters serialize from a BTreeMap, so the
        // whole section compares as a string.
        let counters_for = |jobs: usize, tag: &str| {
            let metrics = artifact_path(tag);
            let (code, out) = run_str(&Command::Conformance {
                jobs,
                search_jobs: 1,
                memo_cap: None,
                split_depth: 8,
                split_granularity: 1,
                tm: Some("tl2".into()),
                clock: None,
                mutants: false,
                objects: None,
                metrics_out: Some(metrics.clone()),
                trace_out: None,
            });
            assert_eq!(code, 0, "{out}");
            let m = std::fs::read_to_string(&metrics).unwrap();
            let _ = std::fs::remove_file(&metrics);
            let start = m.find("\"counters\"").expect("counters section");
            let end = m.find("\"gauges\"").expect("gauges section");
            m[start..end].to_string()
        };
        let seq = counters_for(1, "jobs1-metrics");
        let par = counters_for(3, "jobs3-metrics");
        assert_eq!(seq, par, "jobs=3 counters diverged from jobs=1");
    }

    #[test]
    fn race_writes_observability_artifacts() {
        let metrics = artifact_path("race-metrics");
        let (code, out) = run_str(&Command::Race {
            tm: Some("tl2".into()),
            steps: 2_000,
            preemptions: 1,
            metrics_out: Some(metrics.clone()),
            trace_out: None,
        });
        assert_eq!(code, 0, "{out}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"schema\": \"tm-metrics/v1\""), "{m}");
        assert!(m.contains("\"stm.commits\""), "{m}");
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn missing_file_is_a_usage_error() {
        let (code, output) = run_str(&check_cmd("/nonexistent/trace".into()));
        assert_eq!(code, 2);
        assert!(output.contains("error:"));
    }

    #[test]
    fn ill_formed_trace_is_rejected() {
        // A response without its invocation.
        let f = fixture("wf", "ret T1 x read 0\n");
        let (code, output) = run_str(&check_cmd(f));
        assert_eq!(code, 2);
        assert!(output.contains("not well-formed"), "{output}");
    }

    #[test]
    fn help_prints_usage() {
        let (code, output) = run_str(&Command::Help);
        assert_eq!(code, 0);
        assert!(output.contains("USAGE"));
    }

    /// A `serve` command with default knobs and the given transport flags.
    fn serve_cmd(socket: Option<String>, replay: Option<String>) -> Command {
        Command::Serve {
            socket,
            replay,
            max_sessions: 4096,
            memo_budget: None,
            node_budget: 50_000,
            inbox_cap: 1024,
            fault_plan: None,
            journal: None,
            resume: false,
            fsync_every: 32,
            idle_reap: None,
            queue_watermark: None,
            memo_watermark: None,
            metrics_out: None,
            trace_out: None,
        }
    }

    #[test]
    fn serve_flags_parse_with_friendly_errors() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert_eq!(parse_args(&a("serve")), Ok(serve_cmd(None, None)));
        assert_eq!(
            parse_args(&a("serve --stdin")),
            Ok(serve_cmd(None, None)),
            "--stdin is the explicit spelling of the default transport"
        );
        assert_eq!(
            parse_args(&a(
                "serve --replay frames.jsonl --memo-budget 65536 --max-sessions 128"
            )),
            Ok(Command::Serve {
                socket: None,
                replay: Some("frames.jsonl".into()),
                max_sessions: 128,
                memo_budget: Some(65_536),
                node_budget: 50_000,
                inbox_cap: 1024,
                fault_plan: None,
                journal: None,
                resume: false,
                fsync_every: 32,
                idle_reap: None,
                queue_watermark: None,
                memo_watermark: None,
                metrics_out: None,
                trace_out: None,
            })
        );
        assert_eq!(
            parse_args(&a(
                "serve --socket /tmp/tm.sock --node-budget 1000 --inbox-cap 16"
            )),
            Ok(Command::Serve {
                socket: Some("/tmp/tm.sock".into()),
                replay: None,
                max_sessions: 4096,
                memo_budget: None,
                node_budget: 1000,
                inbox_cap: 16,
                fault_plan: None,
                journal: None,
                resume: false,
                fsync_every: 32,
                idle_reap: None,
                queue_watermark: None,
                memo_watermark: None,
                metrics_out: None,
                trace_out: None,
            })
        );
        for (args, needle) in [
            ("serve --memo-budget 0", "--memo-budget needs a number ≥ 1"),
            ("serve --memo-budget x", "--memo-budget needs a number ≥ 1"),
            ("serve --node-budget 0", "--node-budget needs a number ≥ 1"),
            (
                "serve --max-sessions 0",
                "--max-sessions needs a number ≥ 1",
            ),
            ("serve --inbox-cap 0", "--inbox-cap needs a number ≥ 1"),
            ("serve --replay", "--replay needs a file path"),
            ("serve --socket", "--socket needs a file path"),
            ("serve --bogus", "unknown flag"),
            ("serve --socket /tmp/s --replay f", "mutually exclusive"),
            ("serve --stdin --replay f", "mutually exclusive"),
            ("serve --resume", "--resume requires --journal"),
            ("serve --journal", "--journal needs a file path"),
            ("serve --fault-plan", "--fault-plan needs a file path"),
            ("serve --fsync-every 0", "--fsync-every needs a number ≥ 1"),
            ("serve --idle-reap 0", "--idle-reap needs a number ≥ 1"),
            (
                "serve --queue-watermark 0",
                "--queue-watermark needs a number ≥ 1",
            ),
            (
                "serve --memo-watermark 0",
                "--memo-watermark needs a number ≥ 1",
            ),
        ] {
            let err = parse_args(&a(args)).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
    }

    #[test]
    fn serve_robustness_flags_parse() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let parsed = parse_args(&a(
            "serve --replay f.jsonl --fault-plan torn@3:10,crash@9 --journal /tmp/j \
             --resume --fsync-every 8 --idle-reap 100 --queue-watermark 32 \
             --memo-watermark 1048576",
        ))
        .unwrap();
        match parsed {
            Command::Serve {
                fault_plan,
                journal,
                resume,
                fsync_every,
                idle_reap,
                queue_watermark,
                memo_watermark,
                ..
            } => {
                assert_eq!(fault_plan.as_deref(), Some("torn@3:10,crash@9"));
                assert_eq!(journal.as_deref(), Some("/tmp/j"));
                assert!(resume);
                assert_eq!(fsync_every, 8);
                assert_eq!(idle_reap, Some(100));
                assert_eq!(queue_watermark, Some(32));
                assert_eq!(memo_watermark, Some(1_048_576));
            }
            other => panic!("parsed to {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_a_bad_fault_plan_spec() {
        let stream = h1_frame_stream("fp");
        let file = fixture("serve-bad-plan", &stream);
        let mut cmd = serve_cmd(None, Some(file));
        if let Command::Serve { fault_plan, .. } = &mut cmd {
            *fault_plan = Some("explode@1".into());
        }
        let (code, out) = run_str(&cmd);
        assert_eq!(code, 2);
        assert!(out.contains("--fault-plan"), "{out}");
        assert!(out.contains("explode"), "{out}");
    }

    #[test]
    fn serve_crash_then_resume_continues_the_replay() {
        // A fault plan kills the daemon mid-replay (exit 3); re-running the
        // same file with --resume completes it, and the concatenated
        // verdict stream matches an uninterrupted run exactly.
        let stream = h1_frame_stream("cr");
        let file = fixture("serve-crash-resume", &stream);
        let journal =
            std::env::temp_dir().join(format!("tmcheck-test-serve-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&journal);
        let journal_s = journal.to_string_lossy().into_owned();

        let (clean_code, clean_out) = run_str(&serve_cmd(None, Some(file.clone())));
        assert_eq!(clean_code, 0);

        let mut crashed = serve_cmd(None, Some(file.clone()));
        if let Command::Serve {
            fault_plan,
            journal,
            ..
        } = &mut crashed
        {
            *fault_plan = Some("crash@5".into());
            *journal = Some(journal_s.clone());
        }
        let (code1, out1) = run_str(&crashed);
        assert_eq!(code1, 3, "injected crash must exit 3: {out1}");

        let mut resumed = serve_cmd(None, Some(file));
        if let Command::Serve {
            journal, resume, ..
        } = &mut resumed
        {
            *journal = Some(journal_s);
            *resume = true;
        }
        let (code2, out2) = run_str(&resumed);
        assert_eq!(code2, clean_code, "{out2}");
        let stitched: Vec<&str> = out1.lines().chain(out2.lines()).collect();
        let clean: Vec<&str> = clean_out.lines().collect();
        assert_eq!(stitched, clean, "resume must continue byte-identically");
        let _ = std::fs::remove_dir_all(&journal);
    }

    /// A recorded frame stream for H1 (violates at its last event).
    fn h1_frame_stream(session: &str) -> String {
        let h = tm_model::builder::paper::h1();
        let mut lines = vec![tm_serve::render_client_frame(
            &tm_serve::ClientFrame::Open {
                session: session.to_string(),
            },
        )];
        for e in h.events() {
            lines.push(tm_serve::render_client_frame(
                &tm_serve::ClientFrame::Feed {
                    session: session.to_string(),
                    event: e.clone(),
                    seq: None,
                },
            ));
        }
        lines.push(tm_serve::render_client_frame(
            &tm_serve::ClientFrame::Close {
                session: session.to_string(),
            },
        ));
        lines.join("\n")
    }

    #[test]
    fn serve_replay_reproduces_the_library_replay_byte_for_byte() {
        let stream = h1_frame_stream("cli");
        let file = fixture("serve-replay", &stream);
        let (code, output) = run_str(&serve_cmd(None, Some(file)));
        assert_eq!(code, 0, "{output}");
        let mut expected = Vec::new();
        let expected_code =
            tm_serve::replay(tm_serve::ServeConfig::default(), &stream, &mut expected);
        assert_eq!(code, expected_code);
        assert_eq!(output, String::from_utf8(expected).unwrap());
        assert!(output.contains("\"verdict\":\"violated\""), "{output}");
        assert!(output.contains("\"frame\":\"closed\""), "{output}");
    }

    #[test]
    fn serve_replay_missing_file_is_a_usage_error() {
        let (code, _out) = run_str(&serve_cmd(None, Some("/nonexistent/frames.jsonl".into())));
        assert_eq!(code, 2);
    }

    #[test]
    fn serve_writes_observability_artifacts() {
        let stream = h1_frame_stream("obs");
        let file = fixture("serve-obs-frames", &stream);
        let metrics = std::env::temp_dir().join(format!(
            "tmcheck-test-serve-metrics-{}.json",
            std::process::id()
        ));
        let cmd = Command::Serve {
            socket: None,
            replay: Some(file),
            max_sessions: 4096,
            memo_budget: Some(1 << 20),
            node_budget: 50_000,
            inbox_cap: 1024,
            fault_plan: None,
            journal: None,
            resume: false,
            fsync_every: 32,
            idle_reap: None,
            queue_watermark: None,
            memo_watermark: None,
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            trace_out: None,
        };
        let (code, output) = run_str(&cmd);
        assert_eq!(code, 0, "{output}");
        let snapshot = std::fs::read_to_string(&metrics).unwrap();
        let _ = std::fs::remove_file(&metrics);
        assert!(snapshot.contains("tm-metrics/v1"), "{snapshot}");
        for metric in ["serve.sessions_opened", "serve.verdicts", "serve.turns"] {
            assert!(snapshot.contains(metric), "missing {metric}: {snapshot}");
        }
    }
}
