//! # tm-obs
//!
//! The observability spine of the opacity checker: one dependency-free
//! metrics registry (monotone counters, gauges, log₂-bucketed latency
//! histograms) plus span-based structured tracing, shared by the search,
//! monitor, and STM layers.
//!
//! ## The one merge primitive
//!
//! Every telemetry merge in the workspace — `SearchStats::absorb` folding
//! per-worker counters in deterministic worker order, histogram merges, the
//! registry snapshot — bottoms out in [`merge_counters`]: element-wise
//! monotone addition of two equal-length counter slices. Addition is
//! associative and commutative, so any merge order yields the same totals;
//! the parallel search still merges in worker order (worker 0 first) so
//! *sequences* of intermediate states are reproducible too.
//!
//! ## Zero cost when disabled
//!
//! Instrumented code holds an [`ObsHandle`] — a `Copy` wrapper around
//! `Option<&'static ObsSink>`. The default handle is *disabled*: every
//! metric and span method is a branch on `None` and returns immediately —
//! no clock read, no lock, no allocation (pinned by the
//! `disabled_path_allocates_nothing` integration test). [`ObsHandle::install`]
//! creates a sink for the lifetime of the process (one deliberate small
//! leak per installation, which is what lets the handle stay `Copy` and
//! thread through `Copy` configs like the search's).
//!
//! ## Overhead discipline when enabled
//!
//! The registry is a mutex-guarded map keyed by `&'static str`. That is
//! fine for *per-check* and *per-commit* granularity and deliberately not
//! fine for per-node granularity: hot loops (the DFS, the STM step meter)
//! keep counting into their existing per-worker locals and **fold** into
//! the registry once per check / per run, exactly like `SearchStats`
//! always merged. Spans go to bounded per-shard ring buffers (overflow is
//! counted, never blocks).
//!
//! ## Artifacts
//!
//! [`Snapshot::to_json`] renders the `tm-metrics/v1` document written by
//! `tmcheck … --metrics-out`; the span records feed the Chrome
//! `chrome://tracing` / Perfetto emitter in `tm-trace` (written by
//! `--trace-out`). Schema versions only ever increment; fields are only
//! added, never repurposed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod registry;
mod span;

pub use histogram::{bucket_index, bucket_upper_bound, Histogram, BUCKETS};
pub use registry::{ObsSink, Snapshot};
pub use span::{SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicU64, Ordering};

/// The version tag written into every `tm-metrics` document.
pub const METRICS_SCHEMA: &str = "tm-metrics/v1";

/// Element-wise monotone merge of two equal-length counter slices — the
/// single merge implementation behind `SearchStats::absorb`, histogram
/// merges, and every other telemetry fold in the workspace.
///
/// Saturating so that a pathological counter sum can never wrap a monotone
/// reading backwards.
///
/// # Panics
///
/// Panics if the slices differ in length (merging differently-shaped
/// telemetry is a bug, not an input error).
pub fn merge_counters(into: &mut [u64], from: &[u64]) {
    assert_eq!(
        into.len(),
        from.len(),
        "merge_counters: shape mismatch ({} vs {} cells)",
        into.len(),
        from.len()
    );
    for (a, b) in into.iter_mut().zip(from) {
        *a = a.saturating_add(*b);
    }
}

/// A standalone monotone counter: the sanctioned home for cross-thread
/// telemetry tallies that live *inside* another data structure (the memo
/// table's eviction count, a step probe's access count) rather than in a
/// registry. Relaxed ordering — readings are monotone and eventually
/// consistent, which is all telemetry needs.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A `Copy` capability to the process's observability sink; disabled by
/// default. See the crate docs for the cost model.
#[derive(Clone, Copy, Default)]
pub struct ObsHandle {
    sink: Option<&'static ObsSink>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.sink.is_some() {
            "ObsHandle(enabled)"
        } else {
            "ObsHandle(disabled)"
        })
    }
}

/// Two handles are equal when they feed the same sink, or are both
/// disabled.
impl PartialEq for ObsHandle {
    fn eq(&self, other: &Self) -> bool {
        match (self.sink, other.sink) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

impl Eq for ObsHandle {}

impl ObsHandle {
    /// The disabled handle: every operation is a no-op.
    pub const fn disabled() -> Self {
        ObsHandle { sink: None }
    }

    /// Creates a fresh sink living for the rest of the process and returns
    /// an enabled handle to it. The sink is deliberately leaked — a small,
    /// bounded allocation per installation — so the handle can be `Copy`
    /// and flow through `Copy` configuration structs without lifetimes or
    /// reference counting.
    pub fn install() -> Self {
        ObsHandle {
            sink: Some(Box::leak(Box::new(ObsSink::new()))),
        }
    }

    /// Is a sink attached?
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Adds `n` to the monotone counter `name` (no-op when disabled).
    pub fn counter_add(&self, name: &'static str, n: u64) {
        if let Some(sink) = self.sink {
            sink.counter_add(name, n);
        }
    }

    /// Sets the gauge `name` to `v` (no-op when disabled).
    pub fn gauge_set(&self, name: &'static str, v: u64) {
        if let Some(sink) = self.sink {
            sink.gauge_set(name, v);
        }
    }

    /// Records one observation `v` into the log₂ histogram `name` (no-op
    /// when disabled).
    pub fn observe(&self, name: &'static str, v: u64) {
        if let Some(sink) = self.sink {
            sink.observe(name, v);
        }
    }

    /// Opens a scoped span; the guard records `{name, cat, start, duration,
    /// thread}` into the sink's ring buffers when dropped. Disabled handles
    /// return an inert guard without reading the clock.
    pub fn span(&self, name: &'static str, cat: &'static str) -> SpanGuard {
        SpanGuard::open(self.sink, name, cat)
    }

    /// A point-in-time copy of all metrics; `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.sink.map(ObsSink::snapshot)
    }

    /// All span records captured so far, in start-time order; empty when
    /// disabled.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.sink.map(ObsSink::spans).unwrap_or_default()
    }

    /// Spans lost to ring-buffer overflow (0 when disabled).
    pub fn dropped_spans(&self) -> u64 {
        self.sink.map(ObsSink::dropped_spans).unwrap_or(0)
    }
}

/// Opens a scoped span on an [`ObsHandle`] expression: `span!(obs, "check",
/// "search")` binds the guard to the enclosing scope.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr, $cat:expr) => {
        let _tm_obs_span = $obs.span($name, $cat);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_counters_adds_elementwise_and_saturates() {
        let mut a = [1, 2, u64::MAX - 1];
        merge_counters(&mut a, &[10, 0, 5]);
        assert_eq!(a, [11, 2, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_counters_rejects_shape_mismatch() {
        merge_counters(&mut [0, 0], &[1]);
    }

    #[test]
    fn counter_is_monotone_across_threads() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.add(2);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = ObsHandle::disabled();
        assert!(!obs.enabled());
        obs.counter_add("x", 1);
        obs.gauge_set("g", 7);
        obs.observe("h", 123);
        {
            span!(obs, "nothing", "test");
        }
        assert!(obs.snapshot().is_none());
        assert!(obs.spans().is_empty());
        assert_eq!(obs.dropped_spans(), 0);
        assert_eq!(format!("{obs:?}"), "ObsHandle(disabled)");
        assert!(!format!("{:?}", ObsHandle::default()).contains("enabled)"));
    }

    #[test]
    fn installed_handle_collects_metrics_and_spans() {
        let obs = ObsHandle::install();
        assert!(obs.enabled());
        assert_eq!(format!("{obs:?}"), "ObsHandle(enabled)");
        obs.counter_add("search.nodes", 10);
        obs.counter_add("search.nodes", 5);
        obs.gauge_set("search.workers", 4);
        obs.gauge_set("search.workers", 8);
        obs.observe("check.verdict_ns", 1500);
        {
            span!(obs, "check", "search");
        }
        let snap = obs.snapshot().expect("enabled");
        assert_eq!(snap.counter("search.nodes"), Some(15));
        assert_eq!(snap.gauge("search.workers"), Some(8));
        let h = snap.histogram("check.verdict_ns").expect("recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1500);
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "check");
        assert_eq!(spans[0].cat, "search");
    }

    #[test]
    fn handle_is_copy_and_both_copies_hit_the_same_sink() {
        let obs = ObsHandle::install();
        let copy = obs;
        copy.counter_add("k", 1);
        obs.counter_add("k", 1);
        assert_eq!(obs.snapshot().unwrap().counter("k"), Some(2));
        // Equality is sink identity.
        assert_eq!(copy, obs);
        assert_ne!(ObsHandle::install(), obs);
        assert_ne!(ObsHandle::disabled(), obs);
        assert_eq!(ObsHandle::disabled(), ObsHandle::default());
    }
}
