//! Seeded input generators. The seed decides values, names, schedules and
//! orders; the *shape* of each workload (session counts, transactions per
//! session, knot sizes, batch proportions) is fixed, so runs with different
//! seeds do the same amount of work and their timings are comparable.
//!
//! The daemon and the checker only ever see what these functions produce,
//! rendered as `tm-serve` frames or `tm-trace` JSON documents.

use tm_harness::sched::{execute, random_schedule};
use tm_harness::script::{Program, TxScript};
use tm_model::{History, HistoryBuilder};
use tm_stm::{StmConfig, TmRegistry};

/// SplitMix64: small, seedable, and the same on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0f0b_e4c4_a11e)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Strictly increasing values with seeded gaps, so every write in a
/// history is distinct and a read names exactly one writer.
struct Values {
    rng: Rng,
    last: i64,
}

impl Values {
    fn new(seed: u64) -> Self {
        Values {
            rng: Rng::new(seed),
            last: 0,
        }
    }

    fn next(&mut self) -> i64 {
        self.last += 1 + self.rng.below(1000) as i64;
        self.last
    }
}

/// Client traffic for a serve workload: groups of sessions. The sessions
/// of one group are open at the same time and their events are interleaved
/// one event per session per round; groups follow one another.
pub struct Traffic {
    pub groups: Vec<Vec<History>>,
}

/// `serve_fleet` / `serve_journal`: sessions open at once in each group.
const FLEET_SESSIONS: usize = 64;
/// Groups of [`FLEET_SESSIONS`] per pass (more histories per pass, so the
/// per-seed average cost varies less between seeds).
const FLEET_GROUPS: usize = 8;
/// Transactions per fleet session (one per scripted thread).
const FLEET_TXS: usize = 8;
/// Operations per fleet transaction, and the registers they touch.
const FLEET_OPS: usize = 3;
const FLEET_REGS: usize = 4;

/// Histories recorded from the suite's opaque, non-blocking TMs, each run
/// under a seeded `tm_harness::sched` schedule. Sessions take the TMs in
/// rotation, so every seed uses the same mix. Every prefix of every
/// history is opaque, because the TMs are.
pub fn fleet(seed: u64) -> Traffic {
    let registry = TmRegistry::suite();
    let tms: Vec<_> = registry
        .specs()
        .iter()
        .filter(|s| s.properties.opaque_by_design && !s.blocking)
        .collect();
    let mut rng = Rng::new(seed);
    let mut groups = Vec::with_capacity(FLEET_GROUPS);
    for g in 0..FLEET_GROUPS {
        let mut group = Vec::with_capacity(FLEET_SESSIONS);
        for s in 0..FLEET_SESSIONS {
            let tm = tms[(g * FLEET_SESSIONS + s) % tms.len()];
            let stm = tm.build(&StmConfig::new(FLEET_REGS));
            let mut values = Values::new(rng.next_u64());
            let threads = (0..FLEET_TXS)
                .map(|_| {
                    let mut tx = TxScript::new();
                    for _ in 0..FLEET_OPS {
                        let reg = rng.below(FLEET_REGS as u64) as usize;
                        tx = if rng.below(2) == 0 {
                            tx.read(reg)
                        } else {
                            tx.write(reg, values.next())
                        };
                    }
                    tx
                })
                .collect();
            let program = Program::new(threads);
            let schedule = random_schedule(&program, rng.next_u64());
            execute(stm.as_ref(), &program, &schedule);
            group.push(stm.recorder().history());
        }
        groups.push(group);
    }
    Traffic { groups }
}

/// `serve_knots`: sessions streaming at once.
const KNOT_SESSIONS: usize = 4;
/// Groups of [`KNOT_SESSIONS`] per pass.
const KNOT_GROUPS: usize = 2;
/// The knots of one session as `(writers, needle)`: the reader of a knot
/// observes writer `needle`. Every session streams all of them, in a
/// seeded order; 59 transactions, under the 64-transaction session limit.
const KNOT_PLAN: [(u32, u32); 9] = [
    (4, 0),
    (4, 3),
    (5, 1),
    (5, 4),
    (6, 0),
    (6, 2),
    (6, 5),
    (7, 3),
    (7, 6),
];

/// Contention knots that follow one another in real time (the shape of
/// `tm_bench::monitor_workload`): per knot, `writers` concurrent blind
/// writers on a fresh register, then — once the needle writer is
/// commit-pending — a reader observing the needle's value, then every
/// commit. Every prefix is opaque; the monitor must find each knot's
/// needle, and its memo grows over the session.
pub fn knots(seed: u64) -> Traffic {
    let mut rng = Rng::new(seed);
    let groups = (0..KNOT_GROUPS)
        .map(|_| {
            (0..KNOT_SESSIONS)
                .map(|_| {
                    let mut plan = KNOT_PLAN;
                    rng.shuffle(&mut plan);
                    let mut values = Values::new(rng.next_u64());
                    let mut b = HistoryBuilder::new();
                    let mut next = 1u32;
                    for (r, &(writers, needle)) in plan.iter().enumerate() {
                        let obj = format!("k{r}");
                        let base = next;
                        let reader = base + writers;
                        next = reader + 1;
                        let vals: Vec<i64> = (0..writers).map(|_| values.next()).collect();
                        for i in 0..writers {
                            b = b.write(base + i, &obj, vals[i as usize]);
                        }
                        b = b.try_commit(base + needle);
                        b = b.read(reader, &obj, vals[needle as usize]);
                        b = b.commit(base + needle);
                        for i in (0..writers).filter(|&i| i != needle) {
                            b = b.try_commit(base + i).commit(base + i);
                        }
                        b = b.try_commit(reader).commit(reader);
                    }
                    b.build()
                })
                .collect()
        })
        .collect();
    Traffic { groups }
}

/// One `check_batch` history: its shape and the history.
pub struct BatchItem {
    pub shape: Shape,
    pub history: History,
}

/// A `check_batch` history shape: `knots` knots of `writers` writers each,
/// either all mutually concurrent or chained in real time.
#[derive(Clone, Copy, PartialEq)]
pub struct Shape {
    pub chained: bool,
    pub knots: u32,
    pub writers: u32,
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.chained {
            "chained"
        } else {
            "concurrent"
        };
        write!(f, "{kind} {}x{}", self.knots, self.writers)
    }
}

/// The batch: shapes and how many histories of each. Check costs differ
/// by shape (about 0.4, 0.9, 4 and 7 ms on a 2-vCPU VM), and the counts
/// put each reported percentile in the middle of one shape's share of the
/// checks, not on a boundary between shapes where a slow stretch of the
/// host would move it: p50 among the 29 concurrent 3×2 histories (ranks
/// 24–82 %), p90 among the chained 5×3 (82–98 %), p99 on the concurrent
/// 2×4 (98–100 %), whose memo holds thousands of entries.
pub const BATCH: [(Shape, usize); 4] = [
    (
        Shape {
            chained: true,
            knots: 3,
            writers: 3,
        },
        12,
    ),
    (
        Shape {
            chained: false,
            knots: 3,
            writers: 2,
        },
        29,
    ),
    (
        Shape {
            chained: true,
            knots: 5,
            writers: 3,
        },
        8,
    ),
    (
        Shape {
            chained: false,
            knots: 2,
            writers: 4,
        },
        1,
    ),
];

/// A batch of exhaustive knot histories, each closed by a committed read
/// of a value nobody wrote, so none is opaque and every check explores the
/// whole serialization space. Two kinds of shape, in the fixed proportions
/// of [`BATCH`]:
///
/// * concurrent — knots that are all mutually concurrent, each on its own
///   register: wide root fan-out, and a memo that grows with the knots;
/// * chained — knots chained in real time behind one-transaction gates:
///   root fan-out 1.
///
/// The seed picks each knot's needle writer, the values, and the order of
/// the batch.
pub fn batch(seed: u64) -> Vec<BatchItem> {
    let mut rng = Rng::new(seed);
    let mut items = Vec::new();
    for (shape, count) in BATCH {
        for _ in 0..count {
            let mut values = Values::new(rng.next_u64());
            let build = if shape.chained {
                chained_knots
            } else {
                concurrent_knots
            };
            let history = build(&mut rng, &mut values, shape.knots, shape.writers);
            items.push(BatchItem { shape, history });
        }
    }
    rng.shuffle(&mut items);
    items
}

/// `knots` mutually concurrent knots (the shape of
/// `tm_bench::search_knot_history`): every operation completes before any
/// transaction does.
fn concurrent_knots(rng: &mut Rng, values: &mut Values, knots: u32, writers: u32) -> History {
    let mut b = HistoryBuilder::new();
    for r in 0..knots {
        let obj = format!("k{r}");
        let base = r * (writers + 1) + 1;
        let vals: Vec<i64> = (0..writers).map(|_| values.next()).collect();
        for i in 0..writers {
            b = b.write(base + i, &obj, vals[i as usize]);
        }
        let needle = rng.below(writers as u64) as usize;
        b = b.read(base + writers, &obj, vals[needle]);
    }
    let poison = knots * (writers + 1) + 1;
    b = b.read(poison, "k0", -values.next());
    for t in 1..poison {
        b = b.try_commit(t).commit(t);
    }
    b.try_commit(poison).commit(poison).build()
}

/// `knots` knots chained in real time behind gate transactions (the shape
/// of `tm_bench::rt_chain_knot_history`).
fn chained_knots(rng: &mut Rng, values: &mut Values, knots: u32, writers: u32) -> History {
    let mut b = HistoryBuilder::new();
    let mut next = 1u32;
    for r in 0..knots {
        let gate = next;
        b = b
            .write(gate, &format!("g{r}"), values.next())
            .try_commit(gate)
            .commit(gate);
        let obj = format!("k{r}");
        let base = gate + 1;
        next = base + writers + 1;
        let vals: Vec<i64> = (0..writers).map(|_| values.next()).collect();
        for i in 0..writers {
            b = b.write(base + i, &obj, vals[i as usize]);
        }
        let needle = rng.below(writers as u64) as usize;
        b = b.read(base + writers, &obj, vals[needle]);
        for t in base..next {
            b = b.try_commit(t).commit(t);
        }
    }
    let poison = next;
    b.read(poison, "k0", -values.next())
        .try_commit(poison)
        .commit(poison)
        .build()
}
