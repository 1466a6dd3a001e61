//! # tm-cli — the `tmcheck` command-line opacity checker
//!
//! The paper's criterion is only useful to practitioners if arbitrary TM
//! traces can be judged without writing Rust. `tmcheck` reads a history in
//! either trace format of `tm-trace` (JSON or line-oriented text,
//! auto-detected) and runs the full `tm-opacity` toolbox over it. The
//! command synopsis is [`USAGE`], the text `tmcheck help` prints.
//!
//! `race` is the *step-level* analogue of `conformance`: it drives each
//! non-blocking TM through the DPOR interleaving explorer (yield points at
//! every instrumented base-object access, not every operation), runs the
//! vector-clock clock-discipline checker over every explored schedule and
//! the opacity checker over its recorded history, and — in suite mode —
//! re-convicts the two seeded concurrency mutants as a self-test, printing
//! each conviction's minimized replayable schedule. A non-opaque history
//! of a TM not opaque by design (`nonopaque`, `sistm`) reads `CONVICTED
//! (by design)` and keeps exit 0; a race always fails.
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
//! `N`. TM selection goes through the fallible `tm_stm::TmRegistry`: a
//! `--tm` typo prints the menu of valid names instead of panicking.
//!
//! Exit codes: `0` — the property holds (or output was produced), `1` — the
//! history violates opacity, `2` — usage or input error (reported on
//! stderr), `3` — a `serve` fault-plan injected crash fired (the
//! crash-recovery harness's signal). `-` reads stdin.
//!
//! The library surface ([`parse_args`], [`run`]) is exercised directly by
//! the test-suite; the binary in `main.rs` is a thin wrapper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod args;
mod battery;
mod history;
mod race;
mod serve;

use std::io::Write;

use tm_harness::{DporConfig, GenConfig, ObjectKind};
use tm_obs::ObsHandle;
use tm_opacity::SearchConfig;
use tm_serve::{ServeConfig, Transport};

pub use args::{parse_args, USAGE};
pub use history::{load_history, parse_trace};

/// The error of a failed command, reported as `error: …` on stderr.
type Error = Box<dyn std::error::Error>;

/// Where `--metrics-out` / `--trace-out` write the observability
/// artifacts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Artifacts {
    /// Write a `tm-metrics/v1` JSON metrics snapshot here.
    pub metrics_out: Option<String>,
    /// Write a Chrome-trace (Perfetto-loadable) JSON span file here.
    pub trace_out: Option<String>,
}

/// A parsed command line. Each variant carries the library configuration
/// its flags set.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `check <file>`: the opacity verdict and a witness.
    Check {
        /// Input path (`-` = stdin).
        file: String,
        /// Search knobs; `--memo-cap` sets `memo_capacity`.
        search: SearchConfig,
        /// Render a live single-line progress counter on stderr.
        progress: bool,
        /// Observability artifacts to write.
        artifacts: Artifacts,
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
    /// `generate`: one random history.
    Generate {
        /// Generator seed.
        seed: u64,
        /// Sizes; `--txs`, `--objs` and `--ops` set them.
        config: GenConfig,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// `conformance`: the TM conformance battery.
    Conformance {
        /// Worker threads for the interleaving sweep (≥ 1).
        jobs: usize,
        /// Each history check's search knobs, as in `check`.
        search: SearchConfig,
        /// Restrict to one TM by name (default: the whole suite).
        tm: Option<String>,
        /// Also run the deliberately broken mutants.
        mutants: bool,
        /// Typed-object probe battery: `--objects all` or a comma list of
        /// kinds. `None` runs the classic register battery.
        objects: Option<Vec<ObjectKind>>,
        /// Observability artifacts to write.
        artifacts: Artifacts,
    },
    /// `race`: the step-level race analysis battery.
    Race {
        /// Restrict to one non-blocking TM by name (default: every
        /// non-blocking TM in the suite, plus the concurrency-mutant
        /// self-test).
        tm: Option<String>,
        /// Exploration budget: `--steps` sets `max_interleavings`,
        /// `--preemptions` the `preemption_bound`.
        dpor: DporConfig,
        /// Observability artifacts to write.
        artifacts: Artifacts,
    },
    /// `serve`: the streaming monitoring daemon.
    Serve {
        /// Where frames come from.
        transport: Transport,
        /// Daemon configuration, except the fault plan.
        config: ServeConfig,
        /// Injected fault schedule: an inline `kind@frame[:args],...` spec
        /// or the path of a file holding one, resolved at run time.
        fault_plan: Option<String>,
        /// Observability artifacts to write.
        artifacts: Artifacts,
    },
    /// `list`
    List,
    /// `help`
    Help,
}

impl Command {
    /// The artifacts this command was asked to write.
    fn artifacts(&self) -> Option<&Artifacts> {
        match self {
            Command::Check { artifacts, .. }
            | Command::Conformance { artifacts, .. }
            | Command::Race { artifacts, .. }
            | Command::Serve { artifacts, .. } => Some(artifacts),
            _ => None,
        }
    }
}

/// Executes a parsed command, writing its output to `out` and any error to
/// `err`.
///
/// Returns the process exit code (0 ok / property holds, 1 opacity
/// violated, 2 error, 3 injected `serve` crash).
pub fn run(cmd: &Command, out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let artifacts = cmd.artifacts().cloned().unwrap_or_default();
    // Install a sink only when something reads it, so unobserved runs
    // carry zero instrumentation cost.
    let progress = matches!(cmd, Command::Check { progress: true, .. });
    let observed = artifacts != Artifacts::default() || progress;
    let obs = observed.then(ObsHandle::install).unwrap_or_default();
    let result = execute(cmd, obs, out).and_then(|code| {
        if let Some(path) = &artifacts.metrics_out {
            let snap = obs
                .snapshot()
                .ok_or("--metrics-out: observability sink missing")?;
            std::fs::write(path, snap.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &artifacts.trace_out {
            let trace = tm_trace::chrome_trace_json(&obs.spans());
            std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(code)
    });
    result.unwrap_or_else(|e| {
        let _ = writeln!(err, "error: {e}");
        2
    })
}

fn execute(cmd: &Command, obs: ObsHandle, out: &mut dyn Write) -> Result<i32, Error> {
    let observed = |search: &SearchConfig| SearchConfig { obs, ..*search };
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(0)
        }
        Command::Check {
            file,
            search,
            progress,
            ..
        } => history::check(file, observed(search), *progress, out),
        Command::Explain(file) => history::explain(file, out),
        Command::Criteria(file) => history::criteria(file, out),
        Command::Graph(file) => history::graph(file, out),
        Command::Convert { file, json } => history::render(&load_history(file)?, *json, out),
        Command::Generate { seed, config, json } => {
            history::render(&tm_harness::random_history(config, *seed), *json, out)
        }
        Command::List => battery::list(out),
        Command::Conformance {
            jobs,
            search,
            tm,
            mutants,
            objects,
            ..
        } => {
            let (tm, objects) = (tm.as_deref(), objects.as_deref());
            battery::conformance(tm, *jobs, observed(search), *mutants, objects, out)
        }
        Command::Race { tm, dpor, .. } => race::race(tm.as_deref(), dpor, obs, out),
        Command::Serve {
            transport,
            config,
            fault_plan,
            ..
        } => serve::serve(transport, config, fault_plan.as_deref(), obs, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `cmd`: its exit code, stdout and stderr.
    fn run_io(cmd: &Command) -> (i32, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(cmd, &mut out, &mut err);
        let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
        (code, text(out), text(err))
    }

    fn run_str(cmd: &Command) -> (i32, String) {
        let (code, out, _) = run_io(cmd);
        (code, out)
    }

    /// Search knobs with the given memo capacity.
    fn memo(memo_capacity: Option<usize>) -> SearchConfig {
        SearchConfig {
            memo_capacity,
            ..SearchConfig::default()
        }
    }

    fn artifacts(metrics_out: Option<String>, trace_out: Option<String>) -> Artifacts {
        Artifacts {
            metrics_out,
            trace_out,
        }
    }

    /// The race budget for `--steps` and `--preemptions`.
    fn dpor(max_interleavings: usize, preemptions: usize) -> DporConfig {
        DporConfig {
            max_interleavings,
            preemption_bound: Some(preemptions),
            ..DporConfig::default()
        }
    }

    /// Generator sizes for `--txs`, `--objs` and `--ops`.
    fn gen(txs: usize, objs: usize, max_ops: usize) -> GenConfig {
        GenConfig {
            txs,
            objs,
            max_ops,
            ..GenConfig::default()
        }
    }

    /// A `check` command with default search knobs.
    fn check_cmd(file: String) -> Command {
        Command::Check {
            file,
            search: SearchConfig::default(),
            artifacts: Artifacts::default(),
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
            parse_args(&a("check f --memo-cap 4096")),
            Ok(Command::Check {
                file: "f".into(),
                search: memo(Some(4096)),
                artifacts: Artifacts::default(),
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
                config: gen(3, 3, 4),
                json: true
            })
        );
        assert_eq!(parse_args(&a("help")), Ok(Command::Help));
        assert_eq!(
            parse_args(&a("conformance")),
            Ok(Command::Conformance {
                jobs: 1,
                search: SearchConfig::default(),
                tm: None,
                mutants: false,
                objects: None,
                artifacts: Artifacts::default(),
            })
        );
        assert_eq!(
            parse_args(&a("conformance --jobs 4 --tm tl2 --mutants")),
            Ok(Command::Conformance {
                jobs: 4,
                search: SearchConfig::default(),
                tm: Some("tl2".into()),
                mutants: true,
                objects: None,
                artifacts: Artifacts::default(),
            })
        );
        assert_eq!(
            parse_args(&a("conformance --objects all")),
            Ok(Command::Conformance {
                jobs: 1,
                search: SearchConfig::default(),
                tm: None,
                mutants: false,
                objects: Some(ObjectKind::ALL.to_vec()),
                artifacts: Artifacts::default(),
            })
        );
        assert_eq!(
            parse_args(&a("conformance --objects set,queue --tm sistm")),
            Ok(Command::Conformance {
                jobs: 1,
                search: SearchConfig::default(),
                tm: Some("sistm".into()),
                mutants: false,
                objects: Some(vec![ObjectKind::Queue, ObjectKind::Set]),
                artifacts: Artifacts::default(),
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
            ("conformance --memo-cap 0", "--memo-cap needs a number ≥ 1"),
            ("conformance --memo-cap", "--memo-cap needs a number ≥ 1"),
            ("check f --memo-cap -1", "--memo-cap needs a number ≥ 1"),
        ] {
            let err = parse_args(&a(args)).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
        // Boundary values stay accepted.
        assert!(parse_args(&a("generate --txs 1 --objs 1 --ops 1 --seed 0")).is_ok());
        assert!(parse_args(&a("check f --memo-cap 1")).is_ok());
        assert!(parse_args(&a("conformance --memo-cap 1")).is_ok());
    }

    #[test]
    fn check_verdict_is_invariant_under_search_knobs() {
        // The bounded search must not change any verdict the CLI reports —
        // same exit code and same OPAQUE/NOT OPAQUE line.
        for (trace, expected) in [(OPAQUE_TRACE, 0), (H1_TRACE, 1)] {
            let f = fixture("knobs", trace);
            let (code, _out) = run_str(&check_cmd(f.clone()));
            assert_eq!(code, expected);
            let (code_p, out_p) = run_str(&Command::Check {
                file: f,
                search: memo(Some(8)),
                artifacts: Artifacts::default(),
                progress: false,
            });
            assert_eq!(code_p, expected, "{out_p}");
        }
    }

    #[test]
    fn conformance_output_is_invariant_under_search_knobs() {
        let cmd = |memo_cap| Command::Conformance {
            jobs: 1,
            search: memo(memo_cap),
            tm: Some("tl2".into()),
            mutants: false,
            objects: None,
            artifacts: Artifacts::default(),
        };
        let (code1, baseline) = run_str(&cmd(None));
        assert_eq!(code1, 0, "{baseline}");
        // A bounded memo may only change speed, never a byte of the battery.
        for cap in [32, 16, 8] {
            let (code, out) = run_str(&cmd(Some(cap)));
            assert_eq!(code, 0, "{out}");
            assert_eq!(out, baseline, "memo-cap={cap} changed the battery");
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
            config: gen(4, 3, 4),
            json: false,
        });
        assert_eq!(code, 0);
        let h = parse_trace(&text).unwrap();
        assert!(tm_model::is_well_formed(&h));
        let (code, json) = run_str(&Command::Generate {
            seed: 11,
            config: gen(4, 3, 4),
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
            search: SearchConfig::default(),
            tm: None,
            mutants: false,
            objects: None,
            artifacts: Artifacts::default(),
        });
        let (code4, par) = run_str(&Command::Conformance {
            jobs: 4,
            search: SearchConfig::default(),
            tm: None,
            mutants: false,
            objects: None,
            artifacts: Artifacts::default(),
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
            search: SearchConfig::default(),
            tm: Some("tl2".into()),
            mutants: false,
            objects: None,
            artifacts: Artifacts::default(),
        });
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("tl2"));
        assert!(!out.contains("glock"));
        let (code, _, err) = run_io(&Command::Conformance {
            jobs: 1,
            search: SearchConfig::default(),
            tm: Some("nonesuch".into()),
            mutants: false,
            objects: None,
            artifacts: Artifacts::default(),
        });
        assert_eq!(code, 2);
        assert!(err.contains("unknown TM"), "{err}");
    }

    #[test]
    fn conformance_objects_sweeps_rich_probes() {
        // The SI conviction is visible from the CLI: the set write-skew row
        // shows NO for opacity/serializability, yet sistm is an expected
        // row, not a battery failure — exit code stays 0.
        let (code, out) = run_str(&Command::Conformance {
            jobs: 2,
            search: SearchConfig::default(),
            tm: Some("sistm".into()),
            mutants: false,
            objects: Some(vec![ObjectKind::Set]),
            artifacts: Artifacts::default(),
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
            search: SearchConfig::default(),
            tm: Some("tl2".into()),
            mutants: false,
            objects: Some(vec![ObjectKind::Set, ObjectKind::Queue]),
            artifacts: Artifacts::default(),
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
            search: SearchConfig::default(),
            tm: Some("tl2".into()),
            mutants: false,
            objects: Some(vec![ObjectKind::Counter, ObjectKind::Set]),
            artifacts: Artifacts::default(),
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
        assert!(!out.contains("clock"), "{out}");
    }

    #[test]
    fn conformance_clock_errors_are_friendly() {
        // A TM with a clock suffix is an unknown TM, answered with the menu.
        let (code, _, err) = run_io(&Command::Conformance {
            jobs: 1,
            search: SearchConfig::default(),
            tm: Some("tl2+gv4".into()),
            mutants: false,
            objects: None,
            artifacts: Artifacts::default(),
        });
        assert_eq!(code, 2);
        assert!(err.contains("unknown TM 'tl2+gv4'"), "{err}");
        assert!(err.contains("glock") && err.contains("tpl"), "{err}");
        // There is no clock flag to select.
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        for args in ["conformance --clock deferred", "conformance --clock"] {
            assert!(
                parse_args(&a(args))
                    .unwrap_err()
                    .contains("unknown flag '--clock'"),
                "{args}"
            );
        }
    }

    #[test]
    fn race_flags_parse_with_friendly_errors() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert_eq!(
            parse_args(&a("race")),
            Ok(Command::Race {
                tm: None,
                dpor: dpor(200_000, 2),
                artifacts: Artifacts::default(),
            })
        );
        assert_eq!(
            parse_args(&a("race --tm tl2 --steps 500 --preemptions 0")),
            Ok(Command::Race {
                tm: Some("tl2".into()),
                dpor: dpor(500, 0),
                artifacts: Artifacts::default(),
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
            dpor: dpor(2_000, 2),
            artifacts: Artifacts::default(),
        });
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("reader-vs-writer"), "{out}");
        assert!(out.contains("rmw-vs-rmw"), "{out}");
        assert!(out.contains("write-skew"), "{out}");
        assert!(out.contains("clean"), "{out}");
        assert!(!out.contains("CONVICTED"), "{out}");
        // Single-TM mode has no mutant self-test rows.
        assert!(!out.contains("mutant:"), "{out}");
    }

    #[test]
    fn race_rejects_blocking_and_unknown_tms() {
        let (code, _, err) = run_io(&Command::Race {
            tm: Some("glock".into()),
            dpor: dpor(100, 1),
            artifacts: Artifacts::default(),
        });
        assert_eq!(code, 2, "{err}");
        assert!(err.contains("blocking"), "{err}");
        let (code, _, err) = run_io(&Command::Race {
            tm: Some("nonesuch".into()),
            dpor: dpor(100, 1),
            artifacts: Artifacts::default(),
        });
        assert_eq!(code, 2, "{err}");
        assert!(err.contains("unknown TM"), "{err}");
    }

    #[test]
    fn race_suite_convicts_the_mutants_and_acquits_everyone_else() {
        // The full battery: every TM that is opaque by design clean,
        // `nonopaque`'s torn reads and `sistm`'s write skew reported as by
        // design, both seeded
        // concurrency mutants convicted, each conviction with a printed
        // schedule artifact.
        let (code, out) = run_str(&Command::Race {
            tm: None,
            dpor: dpor(200_000, 2),
            artifacts: Artifacts::default(),
        });
        assert_eq!(code, 0, "{out}");
        for name in ["tl2", "dstm", "sistm", "nonopaque", "tpl"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(!out.contains("glock"), "blocking TM must be skipped: {out}");
        assert!(out.contains("mutant:dropped-residue"), "{out}");
        assert!(out.contains("mutant:unlicensed-fast-path"), "{out}");
        assert_eq!(out.matches("CONVICTED (expected)").count(), 2, "{out}");
        let by_design: Vec<&str> = out
            .lines()
            .filter(|l| l.contains("CONVICTED (by design)"))
            .collect();
        assert_eq!(by_design.len(), 2, "{out}");
        assert!(by_design[0].starts_with("nonopaque "), "{out}");
        assert!(by_design[0].contains("reader-vs-writer"), "{out}");
        assert!(by_design[1].starts_with("sistm "), "{out}");
        assert!(by_design[1].contains("write-skew"), "{out}");
        assert_eq!(out.matches("minimized schedule").count(), 4, "{out}");
        assert!(!out.contains("ESCAPED"), "{out}");
    }

    /// A `check` command with observability artifacts requested.
    fn check_with_artifacts(file: String, metrics: &str, trace: &str) -> Command {
        Command::Check {
            file,
            search: SearchConfig::default(),
            artifacts: artifacts(Some(metrics.to_string()), Some(trace.to_string())),
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
                search: SearchConfig::default(),
                artifacts: artifacts(Some("m.json".into()), Some("t.json".into())),
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
    fn conformance_metrics_cover_search_and_stm_layers() {
        let metrics = artifact_path("conf-metrics");
        let trace = artifact_path("conf-trace");
        let cmd = |m: Option<String>, t: Option<String>| Command::Conformance {
            jobs: 1,
            search: SearchConfig::default(),
            tm: Some("tl2".into()),
            mutants: false,
            objects: None,
            artifacts: artifacts(m, t),
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
                search: SearchConfig::default(),
                tm: Some("tl2".into()),
                mutants: false,
                objects: None,
                artifacts: artifacts(Some(metrics.clone()), None),
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
            dpor: dpor(2_000, 1),
            artifacts: artifacts(Some(metrics.clone()), None),
        });
        assert_eq!(code, 0, "{out}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"schema\": \"tm-metrics/v1\""), "{m}");
        assert!(m.contains("\"stm.commits\""), "{m}");
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn missing_file_is_a_usage_error() {
        let (code, out, err) = run_io(&check_cmd("/nonexistent/trace".into()));
        assert_eq!(code, 2);
        assert_eq!(out, "", "errors go to stderr");
        assert!(err.starts_with("error: /nonexistent/trace: "), "{err}");
    }

    #[test]
    fn ill_formed_trace_is_rejected() {
        // A response without its invocation.
        let f = fixture("wf", "ret T1 x read 0\n");
        let (code, out, err) = run_io(&check_cmd(f));
        assert_eq!(code, 2);
        assert_eq!(out, "", "errors go to stderr");
        assert!(err.contains("not well-formed"), "{err}");
    }

    #[test]
    fn help_prints_usage() {
        let (code, output) = run_str(&Command::Help);
        assert_eq!(code, 0);
        assert!(output.contains("USAGE"));
    }

    /// A `serve` command with default knobs over `transport`.
    fn serve_cmd(transport: Transport) -> Command {
        serve_with(transport, ServeConfig::default(), None)
    }

    fn serve_with(transport: Transport, config: ServeConfig, fault_plan: Option<&str>) -> Command {
        Command::Serve {
            transport,
            config,
            fault_plan: fault_plan.map(String::from),
            artifacts: Artifacts::default(),
        }
    }

    fn replay(file: &str) -> Transport {
        Transport::Replay(file.into())
    }

    #[test]
    fn serve_flags_parse_with_friendly_errors() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert_eq!(parse_args(&a("serve")), Ok(serve_cmd(Transport::Stdin)));
        assert_eq!(
            parse_args(&a("serve --stdin")),
            Ok(serve_cmd(Transport::Stdin)),
            "--stdin is the explicit spelling of the default transport"
        );
        assert_eq!(
            parse_args(&a(
                "serve --replay frames.jsonl --memo-budget 65536 --max-sessions 128"
            )),
            Ok(serve_with(
                replay("frames.jsonl"),
                ServeConfig {
                    max_sessions: 128,
                    memo_budget_bytes: Some(65_536),
                    ..ServeConfig::default()
                },
                None
            ))
        );
        assert_eq!(
            parse_args(&a(
                "serve --socket /tmp/tm.sock --node-budget 1000 --inbox-cap 16"
            )),
            Ok(serve_with(
                Transport::Socket("/tmp/tm.sock".into()),
                ServeConfig {
                    node_budget: 1000,
                    inbox_capacity: 16,
                    ..ServeConfig::default()
                },
                None
            ))
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
        ));
        let config = ServeConfig {
            journal_dir: Some("/tmp/j".into()),
            resume: true,
            fsync_every: 8,
            idle_reap_turns: Some(100),
            queue_watermark: Some(32),
            memo_watermark_bytes: Some(1_048_576),
            ..ServeConfig::default()
        };
        let plan = Some("torn@3:10,crash@9");
        assert_eq!(parsed, Ok(serve_with(replay("f.jsonl"), config, plan)));
    }

    #[test]
    fn serve_rejects_a_bad_fault_plan_spec() {
        let stream = h1_frame_stream("fp");
        let file = fixture("serve-bad-plan", &stream);
        let cmd = serve_with(replay(&file), ServeConfig::default(), Some("explode@1"));
        let (code, out, err) = run_io(&cmd);
        assert_eq!(code, 2);
        assert_eq!(out, "", "errors go to stderr");
        assert!(err.contains("--fault-plan"), "{err}");
        assert!(err.contains("explode"), "{err}");
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

        let (clean_code, clean_out) = run_str(&serve_cmd(replay(&file)));
        assert_eq!(clean_code, 0);

        let journaled = ServeConfig {
            journal_dir: Some(journal.clone()),
            ..ServeConfig::default()
        };
        let crashed = serve_with(replay(&file), journaled.clone(), Some("crash@5"));
        let (code1, out1) = run_str(&crashed);
        assert_eq!(code1, 3, "injected crash must exit 3: {out1}");

        let resumed = ServeConfig {
            resume: true,
            ..journaled
        };
        let (code2, out2) = run_str(&serve_with(replay(&file), resumed, None));
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
        let (code, output) = run_str(&serve_cmd(replay(&file)));
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
        // The daemon itself reports the unreadable file on stderr.
        let (code, out, _) = run_io(&serve_cmd(replay("/nonexistent/frames.jsonl")));
        assert_eq!(code, 2);
        assert_eq!(out, "", "no frame is written");
    }

    #[test]
    fn serve_writes_observability_artifacts() {
        let stream = h1_frame_stream("obs");
        let file = fixture("serve-obs-frames", &stream);
        let metrics = std::env::temp_dir().join(format!(
            "tmcheck-test-serve-metrics-{}.json",
            std::process::id()
        ));
        let config = ServeConfig {
            memo_budget_bytes: Some(1 << 20),
            ..ServeConfig::default()
        };
        let cmd = Command::Serve {
            transport: replay(&file),
            config,
            fault_plan: None,
            artifacts: artifacts(Some(metrics.to_string_lossy().into_owned()), None),
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
