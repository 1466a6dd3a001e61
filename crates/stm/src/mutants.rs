//! Deliberately broken TM protocols — mutation testing with the opacity
//! checker as the oracle.
//!
//! The paper's core motivation is that "without such formalization, it is
//! impossible to check the correctness of these implementations". This
//! module closes the loop experimentally: it plants realistic protocol bugs
//! (each one a mutation a TM implementor could plausibly ship) into TL2
//! itself, and the test-suite demonstrates that the
//! Definition-1 checker over recorded histories *finds every one of them* —
//! while the faithful baseline stays clean. During development of this
//! repository the same harness caught two unplanned bugs (see DESIGN.md);
//! the mutants make that capability a reproducible experiment.
//!
//! There is no second copy of the protocol: a [`MutantStm`] is
//! [`crate::Tl2Stm`]'s design carrying its [`Mutation`], and TL2's read and
//! commit ask that mutation the predicates defined here
//! (`validates_reads`, `validates_commit`, `fast_path`). TL2 itself carries [`Mutation::None`], so a
//! bug the checkers find is a bug in the code the suite ships.
//!
//! | mutation | the bug | planted in | violated contract | oracle that catches it |
//! |----------|---------|------------|-------------------|------------------------|
//! | [`Mutation::None`] | — | — | — | none (baseline stays green) |
//! | [`Mutation::SkipReadValidation`] | reads skip the version/lock check | `validates_reads` | live transactions observe inconsistent states (the §2 hazard) | `is_opaque` = false |
//! | [`Mutation::SkipCommitValidation`] | commit publishes without revalidating versions | `validates_commit` | lost updates / write cycles commit | `is_serializable` = false |
//!
//! `SkipReadValidation` keeps committed transactions serializable (commit
//! validation is intact) — precisely the gap between serializability and
//! opacity, detectable *only* by an opacity checker. `SkipCommitValidation`
//! is coarser and already breaks the database-classical criterion.
//!
//! Two further mutants are *concurrency* bugs: they are invisible to any
//! single-threaded test (every sequential execution is flawless) and exist
//! to give the step-level race analysis (`tm-harness::dpor` / `::race`)
//! something real to convict:
//!
//! | mutation | the bug | planted in | who catches it |
//! |----------|---------|------------|----------------|
//! | [`Mutation::DroppedResidue`] | a pass-on-failure clock drops the adopter's thread residue, so a CAS loser shares its stamp with the winner | the clock TL2 is built over | `race::check` (duplicate commit timestamps) |
//! | [`Mutation::UnlicensedFastPath`] | TL2's "clock advanced exactly once" fast path ported to a pass-on-failure clock by comparing tick *counts*, which only GV1's `fetch_add` licenses | `fast_path` | `dpor::explore` (a non-serializable write skew on 2 transactions, at preemption bound 2) |
//!
//! Both build TL2 over a private GV4-style pass-on-failure clock, the one
//! place in the crate where a version clock other than GV1 exists; the
//! validation mutants keep GV1.

use crate::api::StmProperties;
use crate::base::Meter;
use crate::clock::{GlobalClock, VersionClock};
use crate::config::StmConfig;
use crate::tl2::{Tl2, Tl2Tx};
use crate::trace_cells::CellId;
use crate::txn::{Design, Tm};
use std::sync::atomic::AtomicU64;
use tm_model::TxId;

/// The protocol bug planted into [`MutantStm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// TL2 as shipped (the sanity baseline).
    None,
    /// Reads return the current value without the version/lock check:
    /// live transactions can observe inconsistent snapshots. Commit
    /// validation still rejects them, so committed transactions stay
    /// serializable — the history is broken in exactly the way only
    /// opacity detects.
    SkipReadValidation,
    /// Commit acquires its write locks but publishes without any version
    /// validation (neither the write-set version check nor read-set
    /// revalidation): concurrent read-modify-writes lose updates, which is
    /// visible already to the serializability checker (and to semantic
    /// invariants under real threads).
    SkipCommitValidation,
    /// The pass-on-failure (GV4-style) clock stamps `count << 8` on *both*
    /// the CAS-win and the adopt-on-failure path, dropping the thread
    /// residue that keeps adopters distinct from winners: two committers racing on
    /// one clock advance share a commit timestamp. Every sequential
    /// execution is perfect — only the step-level race checker (duplicate
    /// stamps across threads) convicts it.
    DroppedResidue,
    /// The protocol keeps the (correct) pass-on-failure clock but ports
    /// TL2's read-validation-skipping fast path to it by comparing tick
    /// *counts*: "the clock advanced exactly once since my `rv`, so a
    /// single committer interleaved — skip validation". Under GV1 the
    /// check `wv == rv + 1` proves *zero* interleaved commits; under a
    /// pass-on-failure clock one tick can carry the winner's commit and any
    /// number of adopters', each of which may be skipping the very lock
    /// checks it owes the others. Two transactions with crossing read/write
    /// sets that commit in one tick — the CAS winner and its adopter —
    /// commit a write skew; the explorer finds it at preemption bound 2.
    /// Every sequential execution — and every op-granular interleaving —
    /// is flawless; only the step-level explorer convicts it.
    UnlicensedFastPath,
}

impl Mutation {
    /// All mutations, for sweeping tests.
    pub fn all() -> [Mutation; 5] {
        [
            Mutation::None,
            Mutation::SkipReadValidation,
            Mutation::SkipCommitValidation,
            Mutation::DroppedResidue,
            Mutation::UnlicensedFastPath,
        ]
    }

    /// A short name for tables ("mutant-none", …).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "mutant-none",
            Mutation::SkipReadValidation => "mutant-skip-read-validation",
            Mutation::SkipCommitValidation => "mutant-skip-commit-validation",
            Mutation::DroppedResidue => "mutant-dropped-residue",
            Mutation::UnlicensedFastPath => "mutant-unlicensed-fast-path",
        }
    }

    /// Does a read check its lock word (THE MUTATION POINT of
    /// [`Mutation::SkipReadValidation`])? A transaction whose reads went
    /// unchecked has its read set validated at a read-only commit instead:
    /// that keeps this mutant's *committed* transactions serializable
    /// while its live reads are broken.
    pub(crate) fn validates_reads(self) -> bool {
        self != Mutation::SkipReadValidation
    }

    /// Does commit check versions, at lock time and over the read set (THE
    /// MUTATION POINT of [`Mutation::SkipCommitValidation`])? Locks are
    /// taken either way, so publication stays atomic.
    pub(crate) fn validates_commit(self) -> bool {
        self != Mutation::SkipCommitValidation
    }

    /// May a commit that read version `rv` and ticked `wv` skip read-set
    /// validation? TL2's fast path: `wv == rv + 1` proves no interleaved
    /// committer — but only on GV1, whose `fetch_add` is the sole way time
    /// advances.
    ///
    /// THE MUTATION POINT of [`Mutation::UnlicensedFastPath`]: it "ports"
    /// the fast path to the pass-on-failure clock by comparing tick
    /// *counts* — "the clock advanced exactly once, so at most one
    /// committer interleaved". One pass-on-failure tick can carry the
    /// winner's commit and its adopters', and a fellow committer of the
    /// same tick taking this same shortcut skips the lock check it owed
    /// us: a CAS winner and its adopter with crossing read/write sets
    /// commit a write skew. [`Mutation::DroppedResidue`]'s stamps satisfy
    /// `wv == rv + 1` by accident (`(c << 8 | 0xff) + 1 == (c + 1) << 8`),
    /// so its fast path is off.
    pub(crate) fn fast_path(self, rv: u64, wv: u64) -> bool {
        let bits = PassOnFailureClock::HOME_BITS;
        match self {
            Mutation::UnlicensedFastPath => wv >> bits == (rv >> bits) + 1,
            Mutation::DroppedResidue => false,
            _ => wv == rv + 1,
        }
    }
}

/// A GV4-style pass-on-failure clock (TinySTM's `GV4`), the home of both
/// concurrency mutants.
///
/// A committer attempts **one** CAS to advance the counter; on failure it
/// does not retry but adopts the winner's advance as its own commit time.
/// Each timestamp is `count << 8 | residue`. With `residue` on, the residue
/// is the ticking thread's id, so adopters of one advance still get
/// distinct stamps (unique for up to 256 thread ids) — the faithful clock
/// [`Mutation::UnlicensedFastPath`] runs on. With it off (THE MUTATION
/// POINT of [`Mutation::DroppedResidue`]) the residue is always 0 and a
/// CAS loser shares the winner's stamp. `sample` returns
/// `count << 8 | 0xff`, which dominates every stamp issued at or below
/// `count`.
#[derive(Debug)]
struct PassOnFailureClock {
    now: AtomicU64,
    residue: bool,
}

impl PassOnFailureClock {
    /// Low bits carrying the ticking thread's residue.
    const HOME_BITS: u32 = 8;
    /// Mask of the residue bits.
    const HOME_MASK: u64 = (1 << Self::HOME_BITS) - 1;

    fn new(residue: bool) -> Self {
        PassOnFailureClock {
            now: AtomicU64::new(0),
            residue,
        }
    }

    fn stamp(&self, count: u64, m: &Meter) -> u64 {
        let residue = if self.residue {
            m.thread() as u64 & Self::HOME_MASK
        } else {
            0
        };
        (count << Self::HOME_BITS) | residue
    }
}

impl GlobalClock for PassOnFailureClock {
    fn sample(&self, m: &mut Meter) -> u64 {
        (m.load_u64(CellId::Clock(0), &self.now) << Self::HOME_BITS) | Self::HOME_MASK
    }

    fn tick(&self, m: &mut Meter) -> u64 {
        let cur = m.load_u64(CellId::Clock(0), &self.now);
        let count = if m.cas_u64(CellId::Clock(0), &self.now, cur, cur + 1) {
            cur + 1
        } else {
            // Pass on failure: adopt the winner's advance instead of
            // re-contending for the line.
            m.load_u64(CellId::Clock(0), &self.now)
        };
        let ts = self.stamp(count, m);
        m.note_stamp(ts);
        ts
    }

    fn reserve(&self, m: &mut Meter) -> u64 {
        let count = m.load_u64(CellId::Clock(0), &self.now) + 1;
        let ts = self.stamp(count, m);
        m.note_stamp(ts);
        ts
    }

    fn publish(&self, ts: u64, m: &mut Meter) {
        m.fetch_max_u64(CellId::Clock(0), &self.now, ts >> Self::HOME_BITS);
    }

    fn peek(&self) -> u64 {
        (crate::base::peek_u64(&self.now) << Self::HOME_BITS) | Self::HOME_MASK
    }
}

/// TL2 with a planted [`Mutation`].
pub type MutantStm = Tm<Mutant>;

/// TL2's base objects with a planted bug, on the clock that bug lives in.
#[derive(Debug)]
pub struct Mutant(Tl2);

impl MutantStm {
    /// A mutant TM over `k` registers with the given planted bug.
    pub fn new(k: usize, mutation: Mutation) -> Self {
        Self::with_config(&StmConfig::new(k), mutation)
    }

    /// A mutant TM built from an explicit configuration. The validation
    /// mutants keep the plain GV1 counter; the two concurrency mutants
    /// carry the (broken or faithful) pass-on-failure clock their bug
    /// lives in.
    pub fn with_config(cfg: &StmConfig, mutation: Mutation) -> Self {
        Tm::build(cfg, mutation)
    }
}

impl Design for Mutant {
    /// The faithful baseline's name; [`Design::name`] names the mutation.
    const NAME: &'static str = "mutant-none";
    /// The faithful baseline's facts, TL2's; [`Design::properties`] gives
    /// the mutation's.
    const PROPERTIES: StmProperties = Tl2::PROPERTIES;
    type Args = Mutation;
    type Tx<'a> = Tl2Tx<'a>;

    fn build(cfg: &StmConfig, mutation: Mutation) -> Self {
        let clock: Box<dyn GlobalClock> = match mutation {
            Mutation::DroppedResidue => Box::new(PassOnFailureClock::new(false)),
            Mutation::UnlicensedFastPath => Box::new(PassOnFailureClock::new(true)),
            _ => Box::new(VersionClock::new()),
        };
        Mutant(Tl2::planted(cfg, clock, mutation))
    }

    fn k(&self) -> usize {
        self.0.k()
    }

    fn begin(&self, id: TxId) -> Tl2Tx<'_> {
        self.0.begin(id)
    }

    fn name(&self) -> &'static str {
        self.0.mutation.name()
    }

    fn properties(&self) -> StmProperties {
        let mutation = self.0.mutation;
        StmProperties {
            // The two concurrency mutants *claim* correctness — every
            // sequential execution honours it; the step-level race analysis
            // exists to falsify the claim.
            opaque_by_design: mutation.validates_reads() && mutation.validates_commit(),
            serializable_by_design: mutation.validates_commit(),
            ..Self::PROPERTIES
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Aborted, Stm};
    use crate::base::OpKind;

    #[test]
    fn baseline_mutant_behaves_like_tl2() {
        let stm = MutantStm::new(2, Mutation::None);
        run_tx(&stm, 0, |tx| {
            tx.write(0, 1)?;
            tx.write(1, 2)
        });
        let ((a, b), _) = run_tx(&stm, 0, |tx| Ok((tx.read(0)?, tx.read(1)?)));
        assert_eq!((a, b), (1, 2));
        assert!(stm.properties().opaque_by_design);
    }

    #[test]
    fn skip_read_validation_returns_inconsistent_snapshot() {
        let stm = MutantStm::new(2, Mutation::SkipReadValidation);
        run_tx(&stm, 0, |tx| {
            tx.write(0, 1)?;
            tx.write(1, 1)
        });
        let mut t1 = stm.begin(0);
        assert_eq!(t1.read(0).unwrap(), 1);
        run_tx(&stm, 1, |tx| {
            tx.write(0, 2)?;
            tx.write(1, 2)
        });
        // A faithful TL2 aborts here; the mutant serves the fracture.
        assert_eq!(
            t1.read(1).unwrap(),
            2,
            "the mutant must expose the fracture"
        );
        // Commit validation is intact: the poisoned transaction cannot
        // commit (committed transactions stay serializable).
        assert_eq!(t1.commit(), Err(Aborted));
    }

    #[test]
    fn skip_commit_validation_loses_updates_deterministically() {
        let stm = MutantStm::new(1, Mutation::SkipCommitValidation);
        let mut t1 = stm.begin(0);
        let v1 = t1.read(0).unwrap();
        let mut t2 = stm.begin(1);
        let v2 = t2.read(0).unwrap();
        t1.write(0, v1 + 1).unwrap();
        t2.write(0, v2 + 1).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // a faithful protocol aborts this one
        let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
        assert_eq!(v, 1, "one increment must be lost — that is the bug");
    }

    #[test]
    fn faithful_baseline_refuses_the_lost_update() {
        let stm = MutantStm::new(1, Mutation::None);
        let mut t1 = stm.begin(0);
        let v1 = t1.read(0).unwrap();
        let mut t2 = stm.begin(1);
        let v2 = t2.read(0).unwrap();
        t1.write(0, v1 + 1).unwrap();
        t2.write(0, v2 + 1).unwrap();
        t1.commit().unwrap();
        assert_eq!(t2.commit(), Err(Aborted));
    }

    #[test]
    fn mutation_names_are_distinct() {
        let names: Vec<&str> = Mutation::all().iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn concurrency_mutants_are_sequentially_flawless() {
        // The whole point of the seeded concurrency bugs: no
        // single-threaded execution can tell them from a faithful TL2.
        for m in [Mutation::DroppedResidue, Mutation::UnlicensedFastPath] {
            let stm = MutantStm::new(2, m);
            run_tx(&stm, 0, |tx| {
                tx.write(0, 1)?;
                tx.write(1, 2)
            });
            let ((a, b), _) = run_tx(&stm, 0, |tx| Ok((tx.read(0)?, tx.read(1)?)));
            assert_eq!((a, b), (1, 2), "{}", m.name());
            // The classic lost-update race is still refused sequentially…
            let mut t1 = stm.begin(0);
            let v1 = t1.read(0).unwrap();
            let mut t2 = stm.begin(1);
            let v2 = t2.read(0).unwrap();
            t1.write(0, v1 + 10).unwrap();
            t2.write(0, v2 + 20).unwrap();
            t1.commit().unwrap();
            assert_eq!(t2.commit(), Err(Aborted), "{}", m.name());
            assert!(stm.properties().opaque_by_design, "the mutant's lie");
        }
    }

    #[test]
    fn broken_deferred_clock_duplicates_stamps_only_under_a_race() {
        // Sequentially the broken clock is indistinguishable: each tick's
        // CAS wins, stamps strictly increase.
        let clock = PassOnFailureClock::new(false);
        let (mut m0, mut m5) = (Meter::with_probe(0, None), Meter::with_probe(5, None));
        m0.begin_op(OpKind::Commit);
        m5.begin_op(OpKind::Commit);
        let a = clock.tick(&mut m0);
        let b = clock.tick(&mut m5);
        assert!(b > a);
        // The faithful clock keeps adopter ≠ winner even on a lost CAS;
        // the broken stamp is residue-free, so a lost CAS collides.
        assert_eq!(clock.stamp(1, &m5), 1 << 8);
        let faithful = PassOnFailureClock::new(true);
        assert_eq!(faithful.tick(&mut m5), 1 << 8 | 5);
        assert_eq!(faithful.peek() & PassOnFailureClock::HOME_MASK, 0xff);
        m0.end_op();
        m5.end_op();
    }

    #[test]
    fn recorded_histories_stay_well_formed_for_every_mutant() {
        for m in Mutation::all() {
            let stm = MutantStm::new(2, m);
            run_tx(&stm, 0, |tx| tx.write(0, 1));
            let mut t = stm.begin(0);
            let _ = t.read(0);
            t.abort();
            let h = stm.recorder().history();
            assert!(tm_model::is_well_formed(&h), "{}: {h}", m.name());
        }
    }
}
