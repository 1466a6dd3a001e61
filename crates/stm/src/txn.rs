//! The TM shell and the transaction lifecycle every TM in this crate runs
//! on.
//!
//! A TM module states only its [`Design`]: its name, its place in the
//! Theorem-3 design space, its shared base objects, and the per-transaction
//! [`Protocol`] over them. [`Tm`] wraps any design in the parts every TM
//! shares: the history [`Recorder`], the step probe, the constructors and
//! the one `impl Stm`.
//!
//! The paper models a TM run as a history of `inv`/`ret`/`tryC`/`C`/
//! `tryA`/`A` events (Section 4) and prices it in steps per operation
//! (Section 6.1). [`Txn`] maps the [`Tx`] interface onto both once, for
//! every TM: it records the events, meters each operation between
//! [`Meter::begin_op`] and [`Meter::end_op`], and owns the transaction id
//! and the finished flag.
//!
//! The order is fixed, because the recorded histories, the step counts and
//! the race explorer's park points all depend on it:
//!
//! * `inv` or `tryC` is recorded before the operation's first metered
//!   access;
//! * on a forced abort (an `Err` from the protocol), [`Protocol::aborted`]
//!   runs inside the operation, before its meter closes, and then `A` is
//!   recorded;
//! * `ret` or `C` is recorded after the operation's last access;
//! * a voluntary abort or a drop records `tryA`, runs
//!   [`Protocol::aborted`], then records `A`.
//!
//! While [`Tx::record_ops`] is off, reads and writes record no `inv`/`ret`:
//! the typed-object layer records one object-level pair in their place.
//!
//! A closed-nested child (ASTM's scope API in [`crate::astm`]) changes only
//! the ids: while it is open, operations are recorded under the child's id,
//! and a transaction that finishes with the child still open ends the child
//! first. On a forced abort the child's `A` answers its pending invocation
//! and the parent then requests its own abort (`tryA`); on a commit, a
//! voluntary abort or a drop the child records `tryA` then `A`.

use std::sync::Arc;

use crate::api::{Stm, StmProperties, Tx, TxResult};
use crate::base::{Meter, OpKind, StepReport};
use crate::config::StmConfig;
use crate::recorder::Recorder;
use crate::trace_cells::StepProbe;
use tm_model::TxId;

/// One TM's design: the facts that place it in the design space, its
/// shared base objects, and the protocol a transaction runs over them.
pub trait Design: Send + Sync + Sized {
    /// The TM's stable name ("tl2", "dstm", …).
    const NAME: &'static str;
    /// The TM's position in the design space.
    const PROPERTIES: StmProperties;
    /// Do this TM's transactions block all others for their whole lifetime
    /// (the global lock)? Such transactions cannot be interleaved on one
    /// OS thread.
    const BLOCKING: bool = false;
    /// What a constructor takes besides the configuration: `()` for every
    /// suite TM, the planted bug for [`crate::MutantStm`].
    type Args;
    /// A live transaction's protocol state.
    type Tx<'a>: Protocol + 'a
    where
        Self: 'a;

    /// Builds the base objects over `cfg`'s registers, all 0.
    fn build(cfg: &StmConfig, args: Self::Args) -> Self;

    /// The number of registers.
    fn k(&self) -> usize;

    /// The protocol state of the transaction with id `id`.
    fn begin(&self, id: TxId) -> Self::Tx<'_>;

    /// This instance's name: [`Design::NAME`], unless the design is a
    /// family whose members differ (the mutants).
    fn name(&self) -> &'static str {
        Self::NAME
    }

    /// This instance's design-space position: [`Design::PROPERTIES`],
    /// unless the design is a family whose members differ.
    fn properties(&self) -> StmProperties {
        Self::PROPERTIES
    }
}

/// A TM: a [`Design`] with the history recorder and step probe that every
/// TM shares. Each TM module names its own, e.g.
/// [`crate::Tl2Stm`] `= Tm<Tl2>`.
#[derive(Debug)]
pub struct Tm<D> {
    pub(crate) design: D,
    recorder: Recorder,
    probe: Option<Arc<dyn StepProbe>>,
}

impl<D: Design> Tm<D> {
    /// Builds the TM `cfg` describes.
    pub(crate) fn build(cfg: &StmConfig, args: D::Args) -> Self {
        Tm {
            design: D::build(cfg, args),
            recorder: cfg.build_recorder(),
            probe: cfg.step_probe(),
        }
    }

    /// Begins a transaction on behalf of `thread`. The id is drawn before
    /// the protocol state exists, so a design can name the state after it.
    pub(crate) fn begin_txn(&self, thread: usize) -> Txn<'_, D::Tx<'_>> {
        let meter = Meter::with_probe(thread, self.probe.clone());
        Txn::begin(&self.recorder, meter, |id| self.design.begin(id))
    }
}

impl<D: Design<Args = ()>> Tm<D> {
    /// The TM over `k` registers, all 0, in the default configuration.
    pub fn new(k: usize) -> Self {
        Self::with_config(&StmConfig::new(k))
    }

    /// The TM built from an explicit configuration.
    pub fn with_config(cfg: &StmConfig) -> Self {
        Self::build(cfg, ())
    }
}

impl<D: Design> Stm for Tm<D> {
    fn name(&self) -> &'static str {
        self.design.name()
    }

    fn k(&self) -> usize {
        self.design.k()
    }

    fn begin(&self, thread: usize) -> Box<dyn Tx + '_> {
        Box::new(self.begin_txn(thread))
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn properties(&self) -> StmProperties {
        self.design.properties()
    }

    fn blocking(&self) -> bool {
        D::BLOCKING
    }
}

/// One TM's base-object protocol for one transaction. Every base-object
/// access goes through the [`Meter`]; an `Err` is a forced abort.
pub trait Protocol {
    /// Reads register `obj`.
    fn read(&mut self, m: &mut Meter, obj: usize) -> TxResult<i64>;

    /// Writes `v` to register `obj`.
    fn write(&mut self, m: &mut Meter, obj: usize, v: i64) -> TxResult<()>;

    /// Commit processing, between `tryC` and `C`.
    fn commit(&mut self, m: &mut Meter) -> TxResult<()>;

    /// The TM's cleanup once the transaction is aborted: inside the
    /// operation that failed, or between `tryA` and `A`.
    fn aborted(&mut self, _m: &mut Meter) {}
}

/// A live transaction of any TM: the lifecycle around protocol state `P`.
pub struct Txn<'a, P: Protocol> {
    pub(crate) recorder: &'a Recorder,
    pub(crate) id: TxId,
    /// The open closed-nested child, if any.
    pub(crate) child: Option<TxId>,
    meter: Meter,
    finished: bool,
    /// Reads and writes record no `inv`/`ret` (see [`Tx::record_ops`]).
    quiet: bool,
    pub(crate) proto: P,
}

impl<'a, P: Protocol> Txn<'a, P> {
    /// Begins a transaction: allocates its id, then builds the protocol
    /// state for that id.
    pub(crate) fn begin(
        recorder: &'a Recorder,
        meter: Meter,
        proto: impl FnOnce(TxId) -> P,
    ) -> Self {
        let id = recorder.fresh_tx();
        Txn {
            recorder,
            id,
            child: None,
            meter,
            finished: false,
            quiet: false,
            proto: proto(id),
        }
    }

    /// The id operations are recorded under.
    fn op_id(&self) -> TxId {
        self.child.unwrap_or(self.id)
    }

    /// Runs one metered operation; a forced abort finishes the transaction.
    fn op<T>(
        &mut self,
        kind: OpKind,
        body: impl FnOnce(&mut P, &mut Meter) -> TxResult<T>,
    ) -> TxResult<T> {
        self.meter.begin_op(kind);
        let res = body(&mut self.proto, &mut self.meter);
        if res.is_ok() {
            self.meter.end_op();
            return res;
        }
        self.proto.aborted(&mut self.meter);
        self.meter.end_op();
        self.finished = true;
        if let Some(child) = self.child.take() {
            self.recorder.abort(child);
            self.recorder.try_abort(self.id);
        }
        self.recorder.abort(self.id);
        res
    }

    /// Aborts the open closed-nested child, if any: `tryA` then `A` under
    /// its id.
    pub(crate) fn abort_child(&mut self) {
        if let Some(child) = self.child.take() {
            self.recorder.try_abort(child);
            self.recorder.abort(child);
        }
    }
}

impl<P: Protocol> Tx for Txn<'_, P> {
    fn read(&mut self, obj: usize) -> TxResult<i64> {
        let id = self.op_id();
        if !self.quiet {
            self.recorder.inv_read(id, obj);
        }
        let v = self.op(OpKind::Read, |p, m| p.read(m, obj))?;
        if !self.quiet {
            self.recorder.ret_read(id, obj, v);
        }
        Ok(v)
    }

    fn write(&mut self, obj: usize, v: i64) -> TxResult<()> {
        let id = self.op_id();
        if !self.quiet {
            self.recorder.inv_write(id, obj, v);
        }
        self.op(OpKind::Write, |p, m| p.write(m, obj, v))?;
        if !self.quiet {
            self.recorder.ret_write(id, obj);
        }
        Ok(())
    }

    fn commit(mut self: Box<Self>) -> TxResult<()> {
        self.abort_child();
        self.recorder.try_commit(self.id);
        self.op(OpKind::Commit, P::commit)?;
        self.finished = true;
        self.recorder.commit(self.id);
        Ok(())
    }

    /// Dropping an unfinished transaction aborts it voluntarily.
    fn abort(self: Box<Self>) {}

    fn steps(&self) -> StepReport {
        self.meter.report()
    }

    fn id(&self) -> u32 {
        self.id.0
    }

    fn record_ops(&mut self, on: bool) {
        self.quiet = !on;
    }
}

impl<P: Protocol> Drop for Txn<'_, P> {
    fn drop(&mut self) {
        if !self.finished {
            self.abort_child();
            self.recorder.try_abort(self.id);
            self.proto.aborted(&mut self.meter);
            self.recorder.abort(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use super::*;
    use crate::api::Aborted;
    use crate::{MutantStm, Mutation, Stm, StmConfig, TmRegistry};
    use tm_model::{is_well_formed, Event};

    /// A protocol that takes one step per call and notes how many events
    /// the recorder held at that moment. Its reads always fail.
    struct Noting<'a> {
        recorder: &'a Recorder,
        notes: Rc<RefCell<Vec<(&'static str, usize)>>>,
    }

    impl Noting<'_> {
        fn note(&self, m: &mut Meter, what: &'static str) {
            m.step();
            self.notes.borrow_mut().push((what, self.recorder.len()));
        }
    }

    impl Protocol for Noting<'_> {
        fn read(&mut self, m: &mut Meter, _obj: usize) -> TxResult<i64> {
            self.note(m, "read");
            Err(Aborted)
        }

        fn write(&mut self, m: &mut Meter, _obj: usize, _v: i64) -> TxResult<()> {
            self.note(m, "write");
            Ok(())
        }

        fn commit(&mut self, m: &mut Meter) -> TxResult<()> {
            self.note(m, "commit");
            Ok(())
        }

        fn aborted(&mut self, m: &mut Meter) {
            self.note(m, "aborted");
        }
    }

    #[test]
    fn events_fall_where_the_ordering_rule_puts_them() {
        let recorder = Recorder::new(1);
        let notes = Rc::new(RefCell::new(Vec::new()));
        let begin = || {
            Box::new(Txn::begin(&recorder, Meter::new(), |_| Noting {
                recorder: &recorder,
                notes: Rc::clone(&notes),
            }))
        };
        // `inv` before the operation's steps, `ret` after them; `tryC`
        // before commit processing, `C` after it.
        let mut tx = begin();
        tx.write(0, 1).unwrap();
        tx.commit().unwrap();
        // A forced abort: the cleanup runs inside the failed operation
        // (its step counts there), after `inv` and before `A`.
        let mut tx = begin();
        assert_eq!(tx.read(0), Err(Aborted));
        assert_eq!(
            tx.steps().per_op,
            vec![(OpKind::Read, 2)],
            "the cleanup is metered inside the read"
        );
        drop(tx);
        // A drop (and `abort`, which drops): `tryA`, cleanup, `A`.
        let mut tx = begin();
        tx.write(0, 2).unwrap();
        drop(tx);
        let h = recorder.history();
        assert_eq!(h.len(), 10, "{h}");
        assert!(is_well_formed(&h), "{h}");
        // Each protocol call, with the number of events recorded before it.
        assert_eq!(
            *notes.borrow(),
            [
                ("write", 1),   // after inv
                ("commit", 3),  // after inv, ret, tryC
                ("read", 5),    // after C, inv
                ("aborted", 5), // still before A
                ("write", 7),   // after A, inv
                ("aborted", 9), // after ret, tryA; before A
            ]
        );
    }

    /// Every suite TM and every mutant, each over one register.
    fn every_tm() -> Vec<Arc<dyn Stm>> {
        let cfg = StmConfig::new(1);
        let suite = TmRegistry::suite();
        let mut tms: Vec<Arc<dyn Stm>> = suite
            .specs()
            .iter()
            .map(|spec| Arc::from(spec.build(&cfg)))
            .collect();
        for m in Mutation::all() {
            tms.push(Arc::new(MutantStm::with_config(&cfg, m)));
        }
        tms
    }

    #[test]
    fn drop_and_voluntary_abort_record_try_abort_then_abort_on_every_tm() {
        for stm in every_tm() {
            for dropped in [true, false] {
                let name = format!(
                    "{} ({})",
                    stm.name(),
                    if dropped { "drop" } else { "abort" }
                );
                let mut tx = stm.begin(0);
                let id = TxId(tx.id());
                tx.write(0, 5).unwrap();
                if dropped {
                    drop(tx);
                } else {
                    tx.abort();
                }
                let h = stm.recorder().history();
                assert_eq!(
                    h.events()[h.len() - 2..],
                    [Event::TryAbort(id), Event::Abort(id)],
                    "{name}: {h}"
                );
                assert!(is_well_formed(&h), "{name}: {h}");
                // A later transaction, on another thread so that a lock the
                // aborted one leaked (glock's) shows as a timeout, not a hang.
                let (done, outcome) = mpsc::channel();
                let later = Arc::clone(&stm);
                let worker = std::thread::spawn(move || {
                    let mut tx = later.begin(1);
                    let read = tx.read(0);
                    let _ = done.send((read, tx.commit()));
                });
                assert_eq!(
                    outcome.recv_timeout(Duration::from_secs(2)),
                    Ok((Ok(0), Ok(()))),
                    "{name}"
                );
                worker.join().expect("the later transaction does not panic");
            }
        }
    }
}
