//! Byte-stability gate for the serve daemon's replay engine.
//!
//! `tests/fixtures/serve_smoke.frames.jsonl` is a committed `tm-serve/v1`
//! client-frame stream (8 interleaved sessions of generated histories) and
//! `serve_smoke.expected.jsonl` the exact server-frame bytes its replay must
//! produce under a constrained global memo budget. CI's `serve-smoke` job
//! replays the fixture through the `tmcheck serve` binary and diffs against
//! the expected file; this test is the same gate in-process, so a drift in
//! the wire format or the verdict stream fails locally before it fails in CI.
//!
//! To regenerate both files after an *intentional* protocol change:
//!
//! ```text
//! SERVE_SMOKE_REGEN=1 cargo test --test serve_smoke
//! ```

use opacity_tm::serve::{render_client_frame, replay, ClientFrame, ServeConfig, EST_ENTRY_BYTES};

/// Sessions in the fixture fleet.
const SESSIONS: usize = 8;

/// The constrained global memo budget the fixture replays under: 4 estimated
/// entries per session, far below the per-session floor, so every session
/// runs at the 64-entry floor from its open on and the governor never
/// retunes one. Shares that move between the floor and unbounded are
/// covered by `crates/serve/tests/backpressure.rs`.
fn fixture_budget() -> u64 {
    SESSIONS as u64 * 4 * EST_ENTRY_BYTES
}

/// The committed client-frame stream: 8 sessions opened up front, their
/// generated histories fed round-robin one event at a time, then closed in
/// id order and the daemon shut down.
fn fixture_frames() -> String {
    let histories: Vec<(String, tm_model::History)> = (0..SESSIONS)
        .map(|i| {
            let config = tm_harness::randhist::GenConfig::default();
            let h = tm_harness::randhist::random_history(&config, 4200 + i as u64);
            (format!("smoke{i:02}"), h)
        })
        .collect();
    let mut lines = Vec::new();
    for (id, _) in &histories {
        lines.push(render_client_frame(&ClientFrame::Open {
            session: id.clone(),
        }));
    }
    let max_len = histories.iter().map(|(_, h)| h.len()).max().unwrap_or(0);
    for round in 0..max_len {
        for (id, h) in &histories {
            if let Some(e) = h.events().get(round) {
                lines.push(render_client_frame(&ClientFrame::Feed {
                    session: id.clone(),
                    event: e.clone(),
                    seq: None,
                }));
            }
        }
    }
    for (id, _) in &histories {
        lines.push(render_client_frame(&ClientFrame::Close {
            session: id.clone(),
        }));
    }
    lines.push(render_client_frame(&ClientFrame::Shutdown));
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn replay_fixture(frames: &str) -> (String, i32) {
    let config = ServeConfig {
        memo_budget_bytes: Some(fixture_budget()),
        ..ServeConfig::default()
    };
    let mut out = Vec::new();
    let code = replay(config, frames, &mut out);
    (
        String::from_utf8(out).expect("server frames are UTF-8"),
        code,
    )
}

#[test]
fn the_committed_fixture_replays_byte_for_byte() {
    let frames = fixture_frames();
    let (output, code) = replay_fixture(&frames);
    assert_eq!(code, 0, "the fixture fleet has no poisoned sessions");

    if std::env::var_os("SERVE_SMOKE_REGEN").is_some() {
        std::fs::create_dir_all(fixture_path("")).unwrap();
        std::fs::write(fixture_path("serve_smoke.frames.jsonl"), &frames).unwrap();
        std::fs::write(fixture_path("serve_smoke.expected.jsonl"), &output).unwrap();
        return;
    }

    let committed_frames = std::fs::read_to_string(fixture_path("serve_smoke.frames.jsonl"))
        .expect(
            "missing fixture; regenerate with SERVE_SMOKE_REGEN=1 cargo test --test serve_smoke",
        );
    assert_eq!(
        committed_frames, frames,
        "the generated client-frame stream drifted from the committed fixture; \
         regenerate with SERVE_SMOKE_REGEN=1 if the change is intentional"
    );
    let committed_expected = std::fs::read_to_string(fixture_path("serve_smoke.expected.jsonl"))
        .expect(
            "missing fixture; regenerate with SERVE_SMOKE_REGEN=1 cargo test --test serve_smoke",
        );
    assert_eq!(
        committed_expected, output,
        "replaying the committed fixture no longer reproduces the committed \
         server frames byte-for-byte; regenerate with SERVE_SMOKE_REGEN=1 if \
         the change is intentional"
    );
}

#[test]
fn the_expected_frames_carry_one_verdict_per_fed_event() {
    let committed_frames = std::fs::read_to_string(fixture_path("serve_smoke.frames.jsonl"))
        .expect("missing fixture; regenerate with SERVE_SMOKE_REGEN=1");
    let committed_expected = std::fs::read_to_string(fixture_path("serve_smoke.expected.jsonl"))
        .expect("missing fixture; regenerate with SERVE_SMOKE_REGEN=1");
    let feeds = committed_frames
        .lines()
        .filter(|l| l.contains("\"frame\":\"feed\""))
        .count();
    let verdicts = committed_expected
        .lines()
        .filter(|l| l.contains("\"frame\":\"verdict\""))
        .count();
    assert_eq!(verdicts, feeds, "replay answers every feed with a verdict");
    // Replay flow-controls its reader instead of bouncing frames, so the
    // expected stream is busy-free — that is what makes it byte-stable.
    assert!(!committed_expected.contains("\"frame\":\"busy\""));
    let closed = committed_expected
        .lines()
        .filter(|l| l.contains("\"frame\":\"closed\""))
        .count();
    assert_eq!(closed, SESSIONS);
}
