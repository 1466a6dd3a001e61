//! Concurrency stress tests for every TM implementation.
//!
//! Real threads, real contention, semantic invariants checked after every
//! run (the workload helpers panic on violation), plus recorded-history
//! well-formedness and serializability of committed transactions under
//! randomized deterministic interleavings.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tm_harness::{bank, execute, Program, TxScript};
use tm_model::SpecRegistry;
use tm_opacity::criteria::is_serializable;
use tm_opacity::opacity::is_opaque;
use tm_stm::{run_tx, Stm, StmConfig, TmRegistry};

/// Every suite TM, each built from `cfg`.
fn suite(cfg: &StmConfig) -> Vec<Box<dyn Stm>> {
    let registry = TmRegistry::suite();
    registry.specs().iter().map(|s| s.build(cfg)).collect()
}

#[test]
fn four_thread_bank_on_every_stm() {
    // Four threads transfer between 12 accounts; `bank` panics unless the
    // total is conserved.
    for stm in suite(&StmConfig::new(12).recording(false)) {
        bank(stm.as_ref(), 4, 12, 50, 1000);
    }
}

#[test]
fn recorded_threaded_histories_are_well_formed_everywhere() {
    for stm in suite(&StmConfig::new(4)) {
        let stm = stm.as_ref();
        std::thread::scope(|scope| {
            for t in 0..3 {
                scope.spawn(move || {
                    for i in 0..3 {
                        run_tx(stm, t, |tx| {
                            let v = tx.read(t)?;
                            tx.write((t + 1) % 4, v + i)
                        });
                    }
                });
            }
        });
        let h = stm.recorder().history();
        assert!(tm_model::is_well_formed(&h), "{}: {h}", stm.name());
        assert_eq!(h.committed_txs().len(), 9, "{}", stm.name());
    }
}

/// Regression stress for the MvStm publish-last ordering: sustained
/// two-thread counter contention with fresh transactions beginning
/// constantly — the begin/commit race (snapshot timestamp adopted before
/// its versions are visible) loses updates within a few thousand
/// increments if present.
#[test]
fn mvstm_counter_no_lost_updates_under_sustained_contention() {
    for _round in 0..5 {
        let stm = tm_stm::MvStm::with_config(&StmConfig::new(1).recording(false));
        let per_thread = 400;
        std::thread::scope(|scope| {
            for t in 0..2 {
                let stm = &stm;
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        run_tx(stm, t, |tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                    }
                });
            }
        });
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 2 * per_thread, "lost updates in MvStm");
    }
}

/// Two-thread concurrent snapshot reads: any opaque TM must never let a
/// reader commit with a fractured view of a two-register invariant.
#[test]
fn snapshot_invariant_under_real_races() {
    for stm in suite(&StmConfig::new(2).recording(false))
        .into_iter()
        .filter(|s| s.properties().opaque_by_design)
    {
        let stm = stm.as_ref();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 1..100i64 {
                    run_tx(stm, 0, |tx| {
                        tx.write(0, i)?;
                        tx.write(1, i)
                    });
                }
            });
            scope.spawn(move || {
                for _ in 0..100 {
                    let ((a, b), _) = run_tx(stm, 1, |tx| {
                        let a = tx.read(0)?;
                        let b = tx.read(1)?;
                        Ok((a, b))
                    });
                    assert_eq!(a, b, "{}: fractured snapshot committed", stm.name());
                }
            });
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs under random interleavings: every recorded history
    /// has serializable committed transactions; for opaque-by-design TMs
    /// the whole history is opaque.
    #[test]
    fn random_interleavings_preserve_contracts(
        seed in 0u64..100_000,
        ops_a in 1usize..4,
        ops_b in 1usize..4,
    ) {
        let specs = SpecRegistry::registers();
        let mut rng = StdRng::seed_from_u64(seed);
        // Two scripted transactions over 3 registers with random ops.
        let mk = |rng: &mut StdRng, n: usize, base: i64| -> TxScript {
            (0..n).fold(TxScript::new(), |script, i| {
                let (read, obj) = (rng.gen_bool(0.5), rng.gen_range(0..3usize));
                if read {
                    script.read(obj)
                } else {
                    script.write(obj, base + i as i64)
                }
            })
        };
        let program = Program::new(vec![mk(&mut rng, ops_a, 100), mk(&mut rng, ops_b, 200)]);
        // A random interleaving of (ops+commit) actions.
        let mut actions: Vec<usize> = std::iter::repeat(0)
            .take(ops_a + 1)
            .chain(std::iter::repeat(1).take(ops_b + 1))
            .collect();
        use rand::seq::SliceRandom;
        actions.shuffle(&mut rng);

        for stm in suite(&StmConfig::new(3)) {
            if stm.blocking() {
                continue;
            }
            let stm = stm.as_ref();
            execute(stm, &program, &actions);
            let h = stm.recorder().history();
            prop_assert!(tm_model::is_well_formed(&h), "{}: {}", stm.name(), h);
            if stm.properties().serializable_by_design {
                prop_assert!(
                    is_serializable(&h, &specs).unwrap(),
                    "{}: committed txs not serializable: {}",
                    stm.name(),
                    h
                );
            } else {
                // The snapshot-isolation TM forfeits serializability (write
                // skew) but must still deliver its advertised criterion.
                prop_assert!(
                    tm_opacity::criteria::snapshot_isolated(&h, &specs).unwrap(),
                    "{}: history not snapshot-isolated: {}",
                    stm.name(),
                    h
                );
            }
            if stm.properties().opaque_by_design {
                prop_assert!(
                    is_opaque(&h, &specs).unwrap().opaque,
                    "{}: non-opaque history: {}",
                    stm.name(),
                    h
                );
            }
        }
    }
}
