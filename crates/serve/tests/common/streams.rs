//! Frame streams and output readers shared by the serve test binaries,
//! which include this file with `#[path]`. Not every binary uses every
//! helper.
#![allow(dead_code)]

use tm_harness::randhist::{random_history, GenConfig};
use tm_model::History;
use tm_serve::{render_client_frame, ClientFrame};
use tm_trace::Json;

/// The benchmark fleet: `n` random default-profile histories as sessions
/// `s000`, `s001`, …, seeded `9000 + i`.
pub fn fleet(n: usize) -> Vec<(String, History)> {
    (0..n)
        .map(|i| {
            (
                format!("s{i:03}"),
                random_history(&GenConfig::default(), 9000 + i as u64),
            )
        })
        .collect()
}

/// A fleet stream: every session opens, events interleave round-robin one
/// per session per round, then every session closes.
pub fn interleaved_stream(sessions: &[(String, History)]) -> String {
    let mut lines = Vec::new();
    for (id, _) in sessions {
        lines.push(render_client_frame(&ClientFrame::Open {
            session: id.clone(),
        }));
    }
    let max_len = sessions.iter().map(|(_, h)| h.len()).max().unwrap_or(0);
    for round in 0..max_len {
        for (id, h) in sessions {
            if let Some(event) = h.events().get(round) {
                lines.push(render_client_frame(&ClientFrame::Feed {
                    session: id.clone(),
                    event: event.clone(),
                    seq: None,
                }));
            }
        }
    }
    for (id, _) in sessions {
        lines.push(render_client_frame(&ClientFrame::Close {
            session: id.clone(),
        }));
    }
    lines.join("\n")
}

/// Every line of the daemon's output, parsed.
pub fn frames_of(output: &[u8]) -> Vec<Json> {
    String::from_utf8(output.to_vec())
        .expect("daemon output is UTF-8")
        .lines()
        .map(|l| Json::parse(l).expect("daemon emits valid JSON"))
        .collect()
}

/// A server frame's `frame` field.
pub fn kind(doc: &Json) -> String {
    match doc.get("frame") {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("frame field missing or non-string: {other:?}"),
    }
}
