//! The `monitor` bench: the resumable online monitor against batch
//! re-check-from-scratch on growing histories.
//!
//! `incremental/N` feeds the standard contention-knot workload
//! ([`tm_bench::monitor_workload`]) event by event through one
//! `OpacityMonitor`, whose `CheckSession` keeps its memo table and witness
//! across checks. `batch/N` re-runs the one-shot checker on every
//! response-event prefix — exactly what the monitor did before the
//! pipeline refactor. The machine-independent companion numbers (node
//! counts, ratio) are emitted by the `report` bin into
//! `BENCH_monitor.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tm_bench::monitor_workload;
use tm_model::SpecRegistry;
use tm_opacity::incremental::OpacityMonitor;
use tm_opacity::opacity::is_opaque;

fn bench_incremental_vs_batch(c: &mut Criterion) {
    let specs = SpecRegistry::registers();
    let mut group = c.benchmark_group("monitor");
    group.sample_size(20);
    for len in [32usize, 64, 128] {
        let h = monitor_workload(len);
        group.bench_with_input(BenchmarkId::new("incremental", len), &h, |b, h| {
            b.iter(|| {
                let mut m = OpacityMonitor::new(&specs);
                m.feed_all(h).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("batch", len), &h, |b, h| {
            b.iter(|| {
                let mut violations = 0;
                for i in 0..h.len() {
                    if h.events()[i].is_response()
                        && !is_opaque(&h.prefix(i + 1), &specs).unwrap().opaque
                    {
                        violations += 1;
                    }
                }
                violations
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_vs_batch);
criterion_main!(benches);
