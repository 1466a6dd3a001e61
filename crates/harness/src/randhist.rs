//! Random well-formed history generation.
//!
//! Fuel for the Theorem-2 cross-validation (experiment E7): generate many
//! small register histories — some opaque, some subtly broken — and check
//! that the definitional checker (Definition 1) and the graph checker
//! (Theorem 2) always agree.
//!
//! The generator maintains the per-transaction well-formedness automaton and
//! emits events at op granularity, with knobs for:
//!
//! * how often reads return *plausible* values (initial value or some value
//!   written earlier to the object — near-miss histories that stress the
//!   checkers) versus the *currently expected* committed value;
//! * how many transactions are left live / commit-pending at the end;
//! * unique writes (every write value is globally fresh), so the graph
//!   characterization's precondition holds by construction.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use tm_model::{Event, History, HistoryBuilder, ObjId, TxId};

/// Configuration of the random-history generator.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Number of transactions.
    pub txs: usize,
    /// Number of registers (named `x0..`).
    pub objs: usize,
    /// Operations attempted per transaction (uniform 1..=max).
    pub max_ops: usize,
    /// Probability that a read returns a random previously-written value (or
    /// the initial 0) instead of the best-guess current value.
    pub noise: f64,
    /// Probability that a transaction is left commit-pending (tryC with no
    /// response) instead of completed.
    pub commit_pending: f64,
    /// Probability that a completed transaction aborts instead of commits.
    pub abort: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            txs: 4,
            objs: 3,
            max_ops: 4,
            noise: 0.25,
            commit_pending: 0.15,
            abort: 0.2,
        }
    }
}

/// Generates one random well-formed register history from `seed`.
///
/// Writes are globally unique (value = `100·tx + seq`), so the history
/// satisfies the unique-writes precondition of the graph characterization.
pub fn random_history(config: &GenConfig, seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HistoryBuilder::new();

    // Per-transaction state.
    #[derive(Clone)]
    struct TxState {
        id: u32,
        ops_left: usize,
        done: bool,
        write_seq: i64,
    }
    let mut txs: Vec<TxState> = (1..=config.txs as u32)
        .map(|id| TxState {
            id,
            ops_left: rng.gen_range(1..=config.max_ops),
            done: false,
            write_seq: 0,
        })
        .collect();

    // Values written to each object so far (any tx), for plausible reads.
    let mut written: Vec<Vec<i64>> = vec![vec![]; config.objs];
    // A naive guess of each object's "current" value: last written by a
    // committed-or-any transaction (the generator does not simulate a real
    // TM — noise is the point).
    let mut current: Vec<i64> = vec![0; config.objs];
    let obj_name = |o: usize| format!("x{o}");

    while txs.iter().any(|t| !t.done) {
        let alive: Vec<usize> = txs
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.done)
            .map(|(i, _)| i)
            .collect();
        let &ti = alive.choose(&mut rng).expect("some tx alive");
        let (id, finish) = {
            let t = &mut txs[ti];
            if t.ops_left == 0 {
                (t.id, true)
            } else {
                t.ops_left -= 1;
                (t.id, false)
            }
        };
        if finish {
            txs[ti].done = true;
            if rng.gen_bool(config.commit_pending) {
                b = b.try_commit(id);
            } else if rng.gen_bool(config.abort) {
                b = b.try_commit(id).abort(id);
            } else {
                b = b.try_commit(id).commit(id);
            }
            continue;
        }
        let o = rng.gen_range(0..config.objs);
        let name = obj_name(o);
        if rng.gen_bool(0.5) {
            // Read: plausible-noisy or best-guess.
            let v = if rng.gen_bool(config.noise) {
                let mut candidates = written[o].clone();
                candidates.push(0);
                *candidates.choose(&mut rng).expect("nonempty")
            } else {
                current[o]
            };
            b = b.read(id, &name, v);
        } else {
            let t = &mut txs[ti];
            t.write_seq += 1;
            let v = 100 * id as i64 + t.write_seq;
            written[o].push(v);
            current[o] = v;
            b = b.write(id, &name, v);
        }
    }
    b.build()
}

/// Generates a history of 2–3 independent parts from `seed`: outputs of
/// [`random_history`] under `config`, merged by a seeded interleaving that
/// keeps each part's own event order.
///
/// Part `i` shifts its transaction ids by `i · config.txs` and renames its
/// registers `p{i}x{o}`, so the parts share no transaction and no object.
/// The only edges between parts are real-time ones: a transaction of one
/// part that completes before a transaction of another part begins
/// precedes it. The merge emits runs of 1–3 events from one part at a
/// time, so some histories keep their parts as separate components of the
/// serialization search and others join them through such edges.
pub fn interleaved_history(config: &GenConfig, seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let parts = rng.gen_range(2..=3usize);
    let mut streams: Vec<_> = (0..parts)
        .map(|i| {
            let shift = (i * config.txs) as u32;
            let part = random_history(config, rng.next_u64());
            let renamed: Vec<Event> = part
                .events()
                .iter()
                .map(|e| rename_part(e, i, shift))
                .collect();
            renamed.into_iter()
        })
        .collect();
    let mut h = History::new();
    let mut live: Vec<usize> = (0..parts).collect();
    while let Some(&i) = live.choose(&mut rng) {
        for _ in 0..rng.gen_range(1..=3usize) {
            match streams[i].next() {
                Some(e) => h.push(e),
                None => {
                    live.retain(|&j| j != i);
                    break;
                }
            }
        }
    }
    h
}

/// Event `e` of part `part`: its transaction id shifted by `shift`, its
/// object renamed into the part's namespace.
fn rename_part(e: &Event, part: usize, shift: u32) -> Event {
    let tx = TxId(e.tx().0 + shift);
    let obj = |o: &ObjId| ObjId::new(&format!("p{part}{}", o.name()));
    match e {
        Event::Inv {
            obj: o, op, args, ..
        } => Event::Inv {
            tx,
            obj: obj(o),
            op: op.clone(),
            args: args.clone(),
        },
        Event::Ret {
            obj: o, op, val, ..
        } => Event::Ret {
            tx,
            obj: obj(o),
            op: op.clone(),
            val: val.clone(),
        },
        Event::TryCommit(_) => Event::TryCommit(tx),
        Event::TryAbort(_) => Event::TryAbort(tx),
        Event::Commit(_) => Event::Commit(tx),
        Event::Abort(_) => Event::Abort(tx),
    }
}

/// Generates `n` histories with consecutive seeds.
pub fn batch(config: &GenConfig, base_seed: u64, n: usize) -> Vec<History> {
    (0..n)
        .map(|i| random_history(config, base_seed + i as u64))
        .collect()
}

/// The merged result of a [`cross_validate`] sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrossValReport {
    /// Histories checked.
    pub total: usize,
    /// Histories on which the definitional checker (Definition 1) and the
    /// graph decider (Theorem 2) returned the same verdict.
    pub agree: usize,
    /// Histories the definitional checker judged opaque.
    pub opaque: usize,
    /// Seeds on which the two deciders disagreed (must stay empty; kept in
    /// the report so a regression is immediately reproducible).
    pub disagreeing_seeds: Vec<u64>,
}

/// The Theorem-2 cross-validation (experiment E7), sharded across `jobs`
/// scoped worker threads.
///
/// For each of `n` consecutive seeds starting at `base_seed`, generates a
/// random history, decides opacity both definitionally and via the graph
/// characterization, and tallies agreement. Each seed's verdict is a pure
/// function of the seed, and the merge walks seeds in order, so the report
/// is identical for every `jobs` value.
pub fn cross_validate(config: &GenConfig, base_seed: u64, n: usize, jobs: usize) -> CrossValReport {
    use tm_model::SpecRegistry;
    use tm_opacity::graphcheck::decide_via_graph;
    use tm_opacity::opacity::is_opaque;

    let per_seed = crate::parallel::parallel_map(n, jobs, |i| {
        let seed = base_seed + i as u64;
        let specs = SpecRegistry::registers();
        let h = random_history(config, seed);
        let definitional = is_opaque(&h, &specs).expect("generated histories are checkable");
        let graph = decide_via_graph(&h, &specs, config.txs.max(6))
            .expect("generated histories are checkable")
            .opaque();
        (definitional.opaque, graph)
    });
    let mut report = CrossValReport {
        total: n,
        ..CrossValReport::default()
    };
    for (i, (definitional, graph)) in per_seed.into_iter().enumerate() {
        if definitional == graph {
            report.agree += 1;
        } else {
            report.disagreeing_seeds.push(base_seed + i as u64);
        }
        if definitional {
            report.opaque += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::is_well_formed;

    #[test]
    fn generated_histories_are_well_formed() {
        let config = GenConfig::default();
        for seed in 0..200 {
            let h = random_history(&config, seed);
            assert!(is_well_formed(&h), "seed {seed}: {h}");
            assert!(!h.txs().is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig::default();
        assert_eq!(random_history(&config, 7), random_history(&config, 7));
    }

    #[test]
    fn writes_are_globally_unique() {
        use std::collections::HashSet;
        use tm_model::{Event, OpName};
        let config = GenConfig {
            txs: 6,
            max_ops: 6,
            ..GenConfig::default()
        };
        for seed in 0..50 {
            let h = random_history(&config, seed);
            let mut seen = HashSet::new();
            for e in h.events() {
                if let Event::Inv {
                    obj,
                    op: OpName::Write,
                    args,
                    ..
                } = e
                {
                    assert!(
                        seen.insert((obj.clone(), args[0].clone())),
                        "duplicate write in seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn noise_produces_both_verdicts() {
        // Sanity: among a few hundred histories, some are opaque and some
        // are not (otherwise the cross-validation would be vacuous).
        use tm_model::SpecRegistry;
        use tm_opacity::opacity::is_opaque;
        let specs = SpecRegistry::registers();
        let config = GenConfig::default();
        let mut yes = 0;
        let mut no = 0;
        for seed in 0..300 {
            let h = random_history(&config, seed);
            if is_opaque(&h, &specs).unwrap().opaque {
                yes += 1;
            } else {
                no += 1;
            }
        }
        assert!(yes > 10, "too few opaque histories: {yes}");
        assert!(no > 10, "too few non-opaque histories: {no}");
    }

    #[test]
    fn cross_validation_agrees_and_is_job_count_invariant() {
        let config = GenConfig::default();
        let sequential = cross_validate(&config, 0, 100, 1);
        assert_eq!(sequential.total, 100);
        assert_eq!(
            sequential.agree, 100,
            "Theorem 2 disagreement on seeds {:?}",
            sequential.disagreeing_seeds
        );
        assert!(sequential.opaque > 0 && sequential.opaque < 100);
        for jobs in [2, 4] {
            assert_eq!(cross_validate(&config, 0, 100, jobs), sequential);
        }
    }

    #[test]
    fn commit_pending_fraction_appears() {
        let config = GenConfig {
            commit_pending: 0.9,
            ..GenConfig::default()
        };
        let mut pending = 0;
        for seed in 0..50 {
            pending += random_history(&config, seed).commit_pending_txs().len();
        }
        assert!(
            pending > 50,
            "expected many commit-pending txs, got {pending}"
        );
    }
}
