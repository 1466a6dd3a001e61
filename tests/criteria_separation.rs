//! Experiments E5/E6: the Section 3 separations between opacity and the
//! classical criteria, on the paper's own motivating scenarios.

use std::sync::Arc;

use opacity_tm::model::objects::Counter;
use opacity_tm::model::{HistoryBuilder, SpecRegistry};
use opacity_tm::opacity::criteria::{classify, ScheduleProperties};
use opacity_tm::opacity::opacity::is_opaque;

/// E5 — the Section 3.4 counter: k transactions concurrently increment a
/// shared counter (without reading it).
///
/// * with **counter semantics**, all of them may commit — the history is
///   opaque (and serializable);
/// * **recoverability in its strong form** (strictness) rejects the
///   concurrency: "each modifies the same shared object";
/// * with the **read/write encoding**, transactions that read the same
///   value cannot all commit — the same concurrency becomes non-opaque.
#[test]
fn e5_counter_semantics_vs_recoverability() {
    let k = 8;
    let specs = SpecRegistry::new().with("c", Arc::new(Counter));

    // All increments interleaved, then all commits.
    let mut b = HistoryBuilder::new();
    for t in 1..=k {
        b = b.inc(t, "c");
    }
    for t in 1..=k {
        b = b.commit_ok(t);
    }
    let h = b.build();

    // Opaque with counter semantics (increments commute).
    assert!(is_opaque(&h, &specs).unwrap().opaque);
    // A subsequent reader sees the sum of all increments.
    let mut b = HistoryBuilder::new();
    for t in 1..=k {
        b = b.inc(t, "c");
    }
    for t in 1..=k {
        b = b.commit_ok(t);
    }
    let h_with_reader = b.get(99, "c", k as i64).commit_ok(99).build();
    assert!(is_opaque(&h_with_reader, &specs).unwrap().opaque);

    // Strict recoverability forbids the very same concurrency.
    let sched = ScheduleProperties::of(&h);
    assert!(
        !sched.strict,
        "strong recoverability must reject concurrent increments"
    );
    assert!(
        sched.recoverable,
        "plain recoverability is vacuous without reads"
    );

    // Read/write encoding (Section 3.4): each transaction reads the
    // counter then writes back the incremented value. "Among the
    // transactions that read the same value from x, only one can commit."
    let rw_specs = SpecRegistry::registers();
    let mut b = HistoryBuilder::new();
    for t in 1..=3u32 {
        b = b.read(t, "c", 0);
    }
    for t in 1..=3u32 {
        b = b.write(t, "c", 1);
    }
    for t in 1..=3u32 {
        b = b.commit_ok(t);
    }
    let rw_all_commit = b.build();
    assert!(
        !is_opaque(&rw_all_commit, &rw_specs).unwrap().opaque,
        "read/write encoding: concurrent increments cannot all commit"
    );
    // With exactly one committer (the others aborted), the encoding is fine.
    let mut b = HistoryBuilder::new();
    for t in 1..=3u32 {
        b = b.read(t, "c", 0);
    }
    for t in 1..=3u32 {
        b = b.write(t, "c", 1);
    }
    let rw_one_commit = b
        .commit_ok(1)
        .try_commit(2)
        .abort(2)
        .try_commit(3)
        .abort(3)
        .build();
    assert!(is_opaque(&rw_one_commit, &rw_specs).unwrap().opaque);
}

/// E6 — the Section 3.6 overlapping blind writers: k transactions write
/// x, y, z concurrently. Rigorous scheduling demands that all but one be
/// blocked or aborted; opacity accepts the history as long as the final
/// state is some transaction's complete write set.
#[test]
fn e6_blind_writers_rigorousness_too_strong() {
    let k = 4u32;
    let specs = SpecRegistry::registers();
    // Interleave all writes (each tx writes x, y, z), then commit everyone.
    let mut b = HistoryBuilder::new();
    for t in 1..=k {
        b = b.write(t, "x", t as i64);
    }
    for t in 1..=k {
        b = b.write(t, "y", t as i64);
    }
    for t in 1..=k {
        b = b.write(t, "z", t as i64);
    }
    for t in 1..=k {
        b = b.commit_ok(t);
    }
    let h = b.build();

    // Opaque: any serialization of the committed blind writers is legal
    // (the user-visible end state is x = y = z = some single t).
    assert!(is_opaque(&h, &specs).unwrap().opaque);

    // A subsequent reader observing a *consistent* end state keeps it
    // opaque; a fractured state does not.
    let reader_ok = {
        let mut b = HistoryBuilder::new();
        for t in 1..=k {
            b = b
                .write(t, "x", t as i64)
                .write(t, "y", t as i64)
                .write(t, "z", t as i64);
        }
        for t in 1..=k {
            b = b.commit_ok(t);
        }
        b.read(9, "x", 2)
            .read(9, "y", 2)
            .read(9, "z", 2)
            .commit_ok(9)
            .build()
    };
    assert!(is_opaque(&reader_ok, &specs).unwrap().opaque);

    let reader_fractured = {
        let mut b = HistoryBuilder::new();
        for t in 1..=k {
            b = b
                .write(t, "x", t as i64)
                .write(t, "y", t as i64)
                .write(t, "z", t as i64);
        }
        for t in 1..=k {
            b = b.commit_ok(t);
        }
        b.read(9, "x", 1)
            .read(9, "y", 2)
            .read(9, "z", 1)
            .commit_ok(9)
            .build()
    };
    assert!(
        !is_opaque(&reader_fractured, &specs).unwrap().opaque,
        "x = 1, y = 2, z = 1 is not the write set of any single transaction"
    );

    // Rigorous scheduling rejects the concurrency outright.
    let sched = ScheduleProperties::of(&h);
    assert!(!sched.strict && !sched.rigorous);
}

/// The full criteria lattice on a battery of crafted histories: opacity is
/// strictly stronger than strict serializability, incomparable with the
/// recoverability family.
#[test]
fn criteria_lattice_relationships() {
    let specs = SpecRegistry::registers();

    // (a) opaque ⟹ strictly serializable ⟹ serializable.
    let opaque_h = HistoryBuilder::new()
        .write(1, "x", 1)
        .commit_ok(1)
        .read(2, "x", 1)
        .commit_ok(2)
        .build();
    let p = classify(&opaque_h, &specs).unwrap();
    assert!(p.opaque && p.strictly_serializable && p.serializable);

    // (b) strictly serializable but not opaque (H1-style): aborted reader
    // sees a fractured state.
    let h = HistoryBuilder::new()
        .write(1, "x", 1)
        .write(1, "y", 1)
        .commit_ok(1)
        .read(2, "x", 1)
        .write(3, "x", 2)
        .write(3, "y", 2)
        .commit_ok(3)
        .read(2, "y", 2)
        .try_commit(2)
        .abort(2)
        .build();
    let p = classify(&h, &specs).unwrap();
    assert!(p.strictly_serializable && !p.opaque);

    // (c) opaque but not rigorous (E6's blind writers): opacity tolerates
    // concurrency the scheduling criteria forbid.
    let blind = HistoryBuilder::new()
        .write(1, "x", 1)
        .write(2, "x", 2)
        .commit_ok(1)
        .commit_ok(2)
        .build();
    let p = classify(&blind, &specs).unwrap();
    assert!(p.opaque && !p.strict);

    // (d) rigorous but not opaque is impossible for *complete* register
    // histories with consistent reads... but rigorous and non-serializable
    // reads can coexist when a read returns a never-written value:
    let garbage = HistoryBuilder::new().read(1, "x", 42).commit_ok(1).build();
    let p = classify(&garbage, &specs).unwrap();
    assert!(p.rigorous, "schedule-level criteria do not inspect values");
    assert!(!p.serializable && !p.opaque);
}

/// The snapshot-isolation column of the criteria table (E17):
/// SI sits strictly between "anything goes" and opacity, and is
/// *incomparable* with serializability.
#[test]
fn snapshot_isolation_position_in_the_lattice() {
    use opacity_tm::model::builder::paper;
    use opacity_tm::opacity::criteria::snapshot_isolated;
    let specs = SpecRegistry::registers();

    // The pinned verdicts for the paper's histories (the SI column of
    // `criteria_table_of_the_paper_histories` in tests/paper_examples.rs).
    let expected = [
        ("H1", paper::h1(), false), // fractured aborted read: no snapshot
        ("H2", paper::h2(), false), // equivalent to H1, sequential
        ("H3", paper::h3(), true),
        ("H4", paper::h4(), true), // commit-pending duals handled like V
        ("H5", paper::h5(), true),
    ];
    for (name, h, si) in expected {
        assert_eq!(
            snapshot_isolated(&h, &specs).unwrap(),
            si,
            "{name}: unexpected SI verdict"
        );
    }

    // Incomparability with serializability, both directions:
    // (a) serializable but not SI — H1;
    let p = classify(&paper::h1(), &specs).unwrap();
    assert!(p.serializable);
    assert!(!snapshot_isolated(&paper::h1(), &specs).unwrap());
    // (b) SI but not serializable — write skew.
    let skew = HistoryBuilder::new()
        .read(1, "x", 0)
        .read(1, "y", 0)
        .read(2, "x", 0)
        .read(2, "y", 0)
        .write(1, "x", -1)
        .write(2, "y", -1)
        .commit_ok(1)
        .commit_ok(2)
        .build();
    let p = classify(&skew, &specs).unwrap();
    assert!(!p.serializable && !p.opaque);
    assert!(snapshot_isolated(&skew, &specs).unwrap());
}
