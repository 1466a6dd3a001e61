//! Argument parsing: the usage text, and one flag reader that every
//! subcommand's parser shares, so each flag error message is written once.

use std::str::FromStr;

use tm_harness::{DporConfig, GenConfig, ObjectKind};
use tm_opacity::SearchConfig;
use tm_serve::{ServeConfig, Transport};

use crate::{Artifacts, Command};

/// Usage text shown by `tmcheck help` and on argument errors.
pub const USAGE: &str = "\
tmcheck — opacity checker for transactional-memory traces
  (Guerraoui & Kapałka, \"On the Correctness of Transactional Memory\", PPoPP 2008)

USAGE:
  tmcheck check    <file> [--memo-cap M]
                          [--metrics-out FILE] [--trace-out FILE] [--progress]
                                    opacity verdict + witness (exit 1 if
                                    violated); --memo-cap M bounds the
                                    resident dead-end memo entries with
                                    segmented-LRU eviction (verdict
                                    unchanged); --metrics-out writes a
                                    tm-metrics/v1 JSON snapshot of
                                    search/memo/verdict counters,
                                    --trace-out a Chrome-trace (Perfetto-
                                    loadable) span file, --progress renders a
                                    live node counter on stderr
  tmcheck explain  <file>           localize the first opacity violation
  tmcheck criteria <file>           verdicts for the full Section-3 criteria lattice
  tmcheck graph    <file>           Graphviz DOT of the Section-5.4 opacity graph
  tmcheck convert  <file> --json|--text    convert between trace formats
  tmcheck generate [--seed N] [--txs N] [--objs N] [--ops N] [--json]
  tmcheck conformance [--jobs N] [--memo-cap M] [--tm NAME]
                      [--mutants] [--objects SET]
                      [--metrics-out FILE] [--trace-out FILE]
                                    run the TM conformance battery (exit 1 if
                                    any swept TM violates a contract); --jobs
                                    shards the sweep deterministically;
                                    --memo-cap bounds each individual history
                                    check as in `check` (output is invariant
                                    under both); --tm
                                    restricts the sweep to one TM (see list);
                                    --objects all (or e.g. --objects set,queue)
                                    sweeps typed-object probes — write-skew
                                    sets, producer/consumer queues, commutative
                                    counter storms — instead of the register
                                    battery; --metrics-out/--trace-out write
                                    the observability artifacts as in `check`
                                    (the battery text itself is unchanged)
  tmcheck race [--tm NAME] [--steps N] [--preemptions K]
               [--metrics-out FILE] [--trace-out FILE]
                                    step-level race analysis: explore
                                    instrumented base-object interleavings
                                    with dynamic partial-order reduction;
                                    check every schedule's version-clock
                                    discipline (vector-clock happens-before)
                                    and recorded history's opacity (exit 1
                                    on a conviction, except CONVICTED (by
                                    design): a non-opaque history of a TM
                                    not opaque by design); without --tm,
                                    sweeps every non-blocking TM and
                                    re-convicts the two seeded concurrency
                                    mutants as a self-test, printing
                                    minimized replayable schedules;
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

/// A reader over one subcommand's flags.
struct Args<'a> {
    cmd: &'a str,
    it: std::slice::Iter<'a, String>,
    /// Whether the subcommand takes `--metrics-out`/`--trace-out`, which
    /// [`Args::flag`] then reads into `artifacts`.
    observed: bool,
    artifacts: Artifacts,
}

impl<'a> Args<'a> {
    /// An error, prefixed with the subcommand.
    fn error(&self, e: impl std::fmt::Display) -> String {
        format!("{}: {e}", self.cmd)
    }

    fn unknown(&self, flag: &str) -> String {
        self.error(format_args!("unknown flag '{flag}'"))
    }

    /// The positional `<file>` argument.
    fn file(&mut self) -> Result<String, String> {
        let file = self.it.next().cloned();
        file.ok_or_else(|| self.error("missing <file> argument"))
    }

    /// The next flag, after reading any observability-artifact flags.
    fn flag(&mut self) -> Result<Option<&'a str>, String> {
        while let Some(flag) = self.it.next() {
            match flag.as_str() {
                "--metrics-out" if self.observed => {
                    self.artifacts.metrics_out = Some(self.path(flag)?);
                }
                "--trace-out" if self.observed => {
                    self.artifacts.trace_out = Some(self.path(flag)?);
                }
                flag => return Ok(Some(flag)),
            }
        }
        Ok(None)
    }

    /// A flag's value parsed as `T` and accepted by `ok`; `what` names the
    /// expected value in the error.
    fn checked<T: FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let value = self.it.next().and_then(|v| v.parse().ok()).filter(ok);
        value.ok_or_else(|| self.error(format_args!("{flag} needs {what}")))
    }

    /// A flag's value: a name or a plain number.
    fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        self.checked(flag, what, |_| true)
    }

    fn path<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag, "a file path")
    }

    /// A count: a number ≥ 1.
    fn count<T: FromStr + PartialOrd + From<u8>>(&mut self, flag: &str) -> Result<T, String> {
        self.checked(flag, "a number ≥ 1", |n| *n >= T::from(1))
    }
}

/// Parses command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    let mut r = Args {
        cmd,
        it: rest.iter(),
        observed: matches!(cmd.as_str(), "check" | "conformance" | "race" | "serve"),
        artifacts: Artifacts::default(),
    };
    Ok(match cmd.as_str() {
        "check" => {
            let file = r.file()?;
            let (mut search, mut progress) = (SearchConfig::default(), false);
            while let Some(flag) = r.flag()? {
                match flag {
                    "--memo-cap" => search.memo_capacity = Some(r.count(flag)?),
                    "--progress" => progress = true,
                    _ => return Err(r.unknown(flag)),
                }
            }
            Command::Check {
                file,
                search,
                progress,
                artifacts: r.artifacts,
            }
        }
        "explain" => Command::Explain(r.file()?),
        "criteria" => Command::Criteria(r.file()?),
        "graph" => Command::Graph(r.file()?),
        "convert" => {
            let file = r.file()?;
            let mut json = None;
            while let Some(flag) = r.flag()? {
                json = Some(match flag {
                    "--json" => true,
                    "--text" => false,
                    _ => return Err(r.unknown(flag)),
                });
            }
            let json = json.ok_or_else(|| r.error("need --json or --text"))?;
            Command::Convert { file, json }
        }
        "generate" => {
            let (mut seed, mut config, mut json) = (1, GenConfig::default(), false);
            // Sizes must be ≥ 1: a 0-transaction / 0-register / 0-op
            // request is a flag typo, not a meaningful workload.
            let size = |r: &mut Args, flag: &str| match r.value(flag, "a number")? {
                0 => Err(r.error(format_args!("{flag} must be ≥ 1"))),
                n => Ok(n),
            };
            while let Some(flag) = r.flag()? {
                match flag {
                    "--seed" => seed = r.value(flag, "a number")?,
                    "--txs" => config.txs = size(&mut r, flag)?,
                    "--objs" => config.objs = size(&mut r, flag)?,
                    "--ops" => config.max_ops = size(&mut r, flag)?,
                    "--json" => json = true,
                    _ => return Err(r.unknown(flag)),
                }
            }
            Command::Generate { seed, config, json }
        }
        "list" => Command::List,
        "conformance" => {
            let (mut jobs, mut search) = (1, SearchConfig::default());
            let (mut tm, mut mutants, mut objects) = (None, false, None);
            while let Some(flag) = r.flag()? {
                match flag {
                    "--jobs" => jobs = r.count(flag)?,
                    "--memo-cap" => search.memo_capacity = Some(r.count(flag)?),
                    "--tm" => tm = Some(r.value(flag, "a name")?),
                    "--mutants" => mutants = true,
                    "--objects" => {
                        let spec: String = r.value(flag, "a set (all or a comma list of kinds)")?;
                        objects = Some(ObjectKind::parse_set(&spec).map_err(|e| r.error(e))?);
                    }
                    _ => return Err(r.unknown(flag)),
                }
            }
            Command::Conformance {
                jobs,
                search,
                tm,
                mutants,
                objects,
                artifacts: r.artifacts,
            }
        }
        "race" => {
            let mut tm = None;
            let mut dpor = DporConfig {
                max_interleavings: 200_000,
                preemption_bound: Some(2),
                ..DporConfig::default()
            };
            while let Some(flag) = r.flag()? {
                match flag {
                    "--tm" => tm = Some(r.value(flag, "a name")?),
                    "--steps" => dpor.max_interleavings = r.count(flag)?,
                    // 0 is meaningful here (serial orders only).
                    "--preemptions" => {
                        dpor.preemption_bound = Some(r.value(flag, "a number ≥ 0")?);
                    }
                    _ => return Err(r.unknown(flag)),
                }
            }
            Command::Race {
                tm,
                dpor,
                artifacts: r.artifacts,
            }
        }
        "serve" => {
            let mut config = ServeConfig::default();
            let (mut transport, mut clash, mut fault_plan) = (None, false, None);
            while let Some(flag) = r.flag()? {
                match flag {
                    "--socket" | "--replay" | "--stdin" => {
                        let chosen = match flag {
                            "--socket" => Transport::Socket(r.path(flag)?),
                            "--replay" => Transport::Replay(r.path(flag)?),
                            _ => Transport::Stdin,
                        };
                        let kind = std::mem::discriminant;
                        clash |= transport.as_ref().is_some_and(|t| kind(t) != kind(&chosen));
                        transport = Some(chosen);
                    }
                    "--max-sessions" => config.max_sessions = r.count(flag)?,
                    "--memo-budget" => config.memo_budget_bytes = Some(r.count(flag)?),
                    "--node-budget" => config.node_budget = r.count(flag)?,
                    "--inbox-cap" => config.inbox_capacity = r.count(flag)?,
                    "--fault-plan" => fault_plan = Some(r.path(flag)?),
                    "--journal" => config.journal_dir = Some(r.path(flag)?),
                    "--resume" => config.resume = true,
                    "--fsync-every" => config.fsync_every = r.count(flag)?,
                    "--idle-reap" => config.idle_reap_turns = Some(r.count(flag)?),
                    "--queue-watermark" => config.queue_watermark = Some(r.count(flag)?),
                    "--memo-watermark" => config.memo_watermark_bytes = Some(r.count(flag)?),
                    _ => return Err(r.unknown(flag)),
                }
            }
            if clash {
                return Err(r.error("--socket, --replay, and --stdin are mutually exclusive"));
            }
            if config.resume && config.journal_dir.is_none() {
                return Err(r.error("--resume requires --journal DIR"));
            }
            Command::Serve {
                transport: transport.unwrap_or(Transport::Stdin),
                config,
                fault_plan,
                artifacts: r.artifacts,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown command '{other}'")),
    })
}
