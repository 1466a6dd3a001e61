//! Byte-for-byte transcripts of the `tmcheck` binary.
//!
//! Every case runs the built binary with a fixed argument list (and,
//! for some, a fixed stdin) inside `tests/transcripts/inputs/`, and pins
//! its exit status, stdout and stderr in one golden file under
//! `tests/transcripts/`. The goldens are the contract a rewrite of the
//! CLI must keep: any changed byte of help text, verdict output or error
//! message fails here.
//!
//! Parse errors print `error: …`, a blank line and the usage text on
//! stderr. Their golden file stores that usage tail as `<USAGE>` when it
//! is exactly the `help` golden's stdout, so the usage text is pinned
//! once, by the `help` case.
//!
//! To regenerate every golden after an *intentional* output change:
//!
//! ```text
//! TRANSCRIPTS_REGEN=1 cargo test -p tm-cli --test transcripts
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts")
}

/// Runs `tmcheck args…` in the inputs directory, feeding `stdin`.
fn run(args: &[&str], stdin: &str) -> (String, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tmcheck"))
        .args(args)
        .current_dir(dir().join("inputs"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tmcheck");
    let mut pipe = child.stdin.take().expect("stdin pipe");
    let input = stdin.to_string();
    // A child that exits early closes the pipe; the write error is moot.
    let writer = std::thread::spawn(move || {
        let _ = pipe.write_all(input.as_bytes());
    });
    let out = child.wait_with_output().expect("wait for tmcheck");
    writer.join().expect("stdin writer");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    let (status, stderr) = match out.status.code() {
        Some(code) => (code.to_string(), stderr),
        // A runtime abort names the thread id; only the signal is stable.
        None => {
            use std::os::unix::process::ExitStatusExt as _;
            let signal = out.status.signal().unwrap_or(0);
            (format!("signal {signal}"), "(not pinned)\n".to_string())
        }
    };
    (
        status,
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        stderr,
    )
}

/// One stream of a transcript, marking a missing final newline.
fn stream(name: &str, text: &str) -> String {
    let mut s = format!("--- {name}\n{text}");
    if !text.is_empty() && !text.ends_with('\n') {
        s.push_str("\n\\ no newline at end\n");
    }
    s
}

/// The rendered transcript of one case.
fn transcript(args: &[&str], stdin: &str, usage: Option<&str>) -> String {
    let (status, out, mut err) = run(args, stdin);
    if let Some(usage) = usage {
        if let Some(head) = err.strip_suffix(usage) {
            err = format!("{head}<USAGE>\n");
        }
    }
    format!(
        "$ tmcheck {}\nexit: {status}\n{}{}",
        args.join(" "),
        stream("stdout", &out),
        stream("stderr", &err)
    )
}

/// Compares `actual` with the golden `name`, or rewrites it under
/// `TRANSCRIPTS_REGEN`.
fn pin(name: &str, actual: &str) {
    let path = dir().join(name);
    if std::env::var_os("TRANSCRIPTS_REGEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; regenerate with TRANSCRIPTS_REGEN=1 cargo test -p tm-cli --test transcripts",
            path.display()
        )
    });
    assert_eq!(
        actual, golden,
        "{name} drifted; regenerate with TRANSCRIPTS_REGEN=1 if the change is intentional"
    );
}

/// Pins `tmcheck args` (split on whitespace), fed `stdin`, in the golden
/// `name.txt`.
fn pin_case(name: &str, args: &str, stdin: &str) {
    let args: Vec<&str> = args.split_whitespace().collect();
    pin(&format!("{name}.txt"), &transcript(&args, stdin, None));
}

/// Pins each `(golden name, args)` case, with empty stdin.
fn pin_each(cases: &[(&str, &str)]) {
    for (name, args) in cases {
        pin_case(name, args, "");
    }
}

#[test]
fn help_and_list() {
    pin_each(&[("help", "help"), ("list", "list")]);
}

#[test]
fn history_commands() {
    for cmd in ["check", "explain", "criteria", "graph"] {
        for input in ["h1.txt", "h1.json", "opaque.txt", "opaque.json"] {
            let name = format!("{cmd}_{}", input.replace('.', "_"));
            pin_case(&name, &format!("{cmd} {input}"), "");
        }
    }
    pin_each(&[
        ("convert_h1_txt_to_json", "convert h1.txt --json"),
        ("convert_h1_json_to_text", "convert h1.json --text"),
        ("generate_seed_9", "generate --seed 9"),
        ("generate_seed_9_json", "generate --seed 9 --json"),
        ("check_missing_file", "check missing.txt"),
        ("convert_missing_file", "convert missing.txt --json"),
        ("check_ill_formed", "check ill_formed.txt"),
        ("explain_ill_formed", "explain ill_formed.txt"),
    ]);
}

#[test]
fn conformance_battery() {
    pin_each(&[
        ("conformance", "conformance"),
        (
            "conformance_objects_all_mutants",
            "conformance --objects all --mutants",
        ),
        ("conformance_objects_all", "conformance --objects all"),
        (
            "conformance_mvstm_set",
            "conformance --tm mvstm --objects set",
        ),
        ("conformance_unknown_tm", "conformance --tm nonesuch"),
    ]);
    // The register battery's lost-update probe races real threads, so a
    // mutant may or may not lose an update on a given run: its rows' last
    // column is masked.
    let t = transcript(&["conformance", "--mutants"], "", None);
    let masked: Vec<String> = t
        .lines()
        .map(|l| match l.strip_suffix("yes").or(l.strip_suffix("NO ")) {
            Some(head) if l.starts_with("mutant-") => format!("{head}?"),
            _ => l.to_string(),
        })
        .collect();
    pin("conformance_mutants.txt", &(masked.join("\n") + "\n"));
}

#[test]
fn race_battery() {
    pin_each(&[
        ("race_tl2_steps_500", "race --tm tl2 --steps 500"),
        ("race", "race"),
        ("race_blocking_tm", "race --tm glock"),
    ]);
}

#[test]
fn serve_errors() {
    pin_each(&[
        ("serve_replay_missing_file", "serve --replay missing.jsonl"),
        ("serve_bad_fault_plan", "serve --fault-plan explode@1"),
    ]);
}

/// A fault plan read from a file: the torn seventh line becomes an
/// `error` frame and the session's sixth event is never fed. A plan file
/// that does not exist is an error naming it, not an inline spec.
#[test]
fn serve_fault_plan_file() {
    pin_each(&[
        (
            "serve_fault_plan_file",
            "serve --replay serve_frames.jsonl --fault-plan fault_plan.txt",
        ),
        (
            "serve_fault_plan_missing_file",
            "serve --replay serve_frames.jsonl --fault-plan missing-plan.txt",
        ),
    ]);
}

/// Inputs nested 200 000 levels deep, never closed: deeper than any
/// decoder may recurse.
#[test]
fn deep_nesting() {
    let deep = "[".repeat(200_000);
    pin_case(
        "check_deep_text",
        "check -",
        &format!("inv T1 x write {deep}\n"),
    );
    let json = format!("{{\"version\":1,\"events\":{deep}");
    pin_case("check_deep_json", "check -", &json);
    let frames = format!("{deep}\n{{\"frame\":\"shutdown\"}}\n");
    pin_case("serve_deep_line", "serve --stdin", &frames);
}

/// Every parse error, in one golden file: the message is pinned exactly,
/// the usage tail against the `help` golden.
#[test]
fn parse_errors() {
    let (_, usage, _) = run(&["help"], "");
    let cases = [
        "",
        "bogus",
        "check",
        "check f --bogus",
        "check f --memo-cap -1",
        "check f --memo-cap 0",
        "check f --metrics-out",
        "check f --trace-out",
        "explain",
        "convert f",
        "convert f --yaml",
        "generate --txs 0",
        "generate --objs 0",
        "generate --ops 0",
        "generate --txs x",
        "generate --seed",
        "generate --txs 99999999999999999999",
        "generate --bogus",
        "conformance --jobs 0",
        "conformance --jobs -3",
        "conformance --jobs x",
        "conformance --memo-cap 0",
        "conformance --memo-cap",
        "conformance --bogus",
        "conformance --tm",
        "conformance --objects",
        "conformance --objects bogus",
        "conformance --clock gv9",
        "conformance --clock",
        "conformance --metrics-out",
        "conformance --progress",
        "race --steps 0",
        "race --steps x",
        "race --steps",
        "race --preemptions x",
        "race --preemptions",
        "race --tm",
        "race --bogus",
        "race --trace-out",
        "serve --memo-budget 0",
        "serve --memo-budget x",
        "serve --node-budget 0",
        "serve --max-sessions 0",
        "serve --inbox-cap 0",
        "serve --replay",
        "serve --socket",
        "serve --bogus",
        "serve --socket /tmp/s --replay f",
        "serve --stdin --replay f",
        "serve --resume",
        "serve --journal",
        "serve --fault-plan",
        "serve --fsync-every 0",
        "serve --idle-reap 0",
        "serve --queue-watermark 0",
        "serve --memo-watermark 0",
        "serve --metrics-out",
    ];
    let all: Vec<String> = cases
        .iter()
        .map(|args| {
            let args: Vec<&str> = args.split_whitespace().collect();
            transcript(&args, "", Some(&usage))
        })
        .collect();
    pin("parse_errors.txt", &all.join("\n"));
}
