//! Property tests for the GV1 version clock: strictly monotone, unique
//! commit timestamps under genuine multi-threaded contention — the
//! invariants the TL2-style and multi-version protocols lean on.

use std::sync::atomic::{AtomicU64, Ordering};

use tm_stm::{
    run_tx, GlobalClock, Meter, MvStm, OpKind, SiStm, Stm, StmConfig, Tl2Stm, VersionClock,
};

const THREADS: usize = 8;
const TICKS_PER_THREAD: usize = 400;

/// Drives `THREADS` threads of interleaved sample/tick traffic and returns
/// every issued timestamp tagged with its thread.
fn storm(clock: &dyn GlobalClock) -> Vec<Vec<u64>> {
    // A coarse global high-water mark: any tick must exceed every
    // timestamp *fully published* before the tick started (the cross-
    // thread happens-before half of strict monotonicity).
    let high_water = AtomicU64::new(0);
    let mut per_thread: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let high_water = &high_water;
                scope.spawn(move || {
                    let mut m = Meter::new();
                    let mut issued = Vec::with_capacity(TICKS_PER_THREAD);
                    m.begin_op(OpKind::Commit);
                    for _ in 0..TICKS_PER_THREAD {
                        let floor = high_water.load(Ordering::SeqCst);
                        let s = clock.sample(&mut m);
                        let ts = clock.tick(&mut m);
                        assert!(ts > s, "thread {t}: tick {ts} ≤ own sample {s}");
                        assert!(
                            ts > floor,
                            "thread {t}: tick {ts} ≤ pre-tick high water {floor}"
                        );
                        assert!(
                            clock.sample(&mut m) >= ts,
                            "thread {t}: tick {ts} not sampleable after return"
                        );
                        // Publish to the high-water mark only after the tick
                        // fully completed, so the floor check above is a true
                        // happens-before assertion.
                        high_water.fetch_max(ts, Ordering::SeqCst);
                        issued.push(ts);
                    }
                    m.end_op();
                    issued
                })
            })
            .collect();
        for h in handles {
            per_thread.push(h.join().expect("clock storm thread panicked"));
        }
    });
    per_thread
}

#[test]
fn gv1_issues_strictly_monotone_unique_timestamps_under_contention() {
    let clock = VersionClock::new();
    let per_thread = storm(&clock);
    // Per-thread strict monotonicity.
    for (t, issued) in per_thread.iter().enumerate() {
        assert!(
            issued.windows(2).all(|w| w[0] < w[1]),
            "thread {t} issued a non-increasing timestamp"
        );
    }
    // Global uniqueness.
    let mut all: Vec<u64> = per_thread.iter().flatten().copied().collect();
    assert_eq!(all.len(), THREADS * TICKS_PER_THREAD);
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(
        all.len(),
        before,
        "duplicate commit timestamps issued under contention"
    );
    // The final sample dominates everything issued.
    let mut m = Meter::new();
    m.begin_op(OpKind::Commit);
    let final_sample = clock.sample(&mut m);
    m.end_op();
    assert!(final_sample >= *all.last().unwrap());
}

/// The threaded counter invariant holds for every clocked TM — timestamps
/// remain a sound serialization backbone when real threads race on
/// commits.
#[test]
fn clocked_tms_conserve_counter_updates_under_contention() {
    type MakeTm = fn(&StmConfig) -> Box<dyn Stm>;
    let makes: [(&str, MakeTm); 3] = [
        ("tl2", |c| Box::new(Tl2Stm::with_config(c))),
        ("mvstm", |c| Box::new(MvStm::with_config(c))),
        ("sistm", |c| Box::new(SiStm::with_config(c))),
    ];
    for (name, make) in makes {
        let stm = make(&StmConfig::new(1).recording(false));
        let threads = 4;
        let per_thread = 60;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let stm = stm.as_ref();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        // The write set covers the read set, so even SI's
                        // write-only validation must conserve.
                        run_tx(stm, t, |tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                    }
                });
            }
        });
        let (v, _) = run_tx(stm.as_ref(), 0, |tx| tx.read(0));
        assert_eq!(v, (threads * per_thread) as i64, "{name}: lost updates");
        assert!(
            stm.recorder().is_empty(),
            "{name}: recording-off TM allocated events"
        );
    }
}
