//! Spans recorded from the benchmark's own files, around its calls into
//! each layer. Totals accumulate for the whole traced run; the first
//! [`KEPT_SPANS`] spans are also kept in memory and written out at the end
//! as a Chrome trace (loadable in Perfetto).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Layer {
    DaemonRead,
    FrameParse,
    TableRoute,
    TableTurn,
    FrameRender,
    DaemonWrite,
    TraceParse,
    Search,
}

const LAYERS: usize = 8;

/// Span records kept for the Chrome trace.
const KEPT_SPANS: usize = 50_000;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::DaemonRead => "daemon.read",
            Layer::FrameParse => "frame.parse",
            Layer::TableRoute => "table.route",
            Layer::TableTurn => "table.turn",
            Layer::FrameRender => "frame.render",
            Layer::DaemonWrite => "daemon.write",
            Layer::TraceParse => "trace.parse",
            Layer::Search => "search.is_opaque",
        }
    }
}

struct Span {
    layer: Layer,
    /// The operation the span belongs to (its input line, or history).
    op: u32,
    start_ns: u64,
    dur_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    total_ns: [u64; LAYERS],
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            total_ns: [0; LAYERS],
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, op: u32, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let dur_ns = (end - start).as_nanos() as u64;
        self.total_ns[layer as usize] += dur_ns;
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                layer,
                op,
                start_ns: (start - self.t0).as_nanos() as u64,
                dur_ns,
            });
        }
        r
    }

    /// Total time spent in `layer`'s spans, in ns.
    pub fn total(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize] as f64
    }

    /// Writes the kept spans as Chrome trace events (best effort: the
    /// trace is a by-product, not a result).
    pub fn write_chrome(&self, path: &Path) {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.layer.name(),
                s.start_ns as f64 / 1000.0,
                s.dur_ns as f64 / 1000.0,
                s.op
            );
        }
        out.push_str("]}\n");
        if std::fs::write(path, out).is_ok() {
            println!("# first {} spans: {}", self.spans.len(), path.display());
        }
    }
}
