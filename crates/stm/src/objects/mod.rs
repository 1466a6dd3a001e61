//! Typed transactional objects: the full object universe on top of any TM.
//!
//! The paper treats the sequential specification as an *input parameter* of
//! opacity — yet every TM in this crate natively speaks only `read`/`write`
//! over `k` integer registers (Section 6's model). This module lifts that
//! register universe to the rich objects of `tm_model::objects` (counters,
//! FIFO queues, stacks, sets, CAS registers, key-value maps, priority
//! queues, append logs) **without touching a single TM implementation**:
//!
//! * an [`ObjEncoding`] maps one typed object onto a fixed block of base
//!   registers and executes each object operation as a read-modify-write
//!   sequence of register operations *through the transaction* — so every
//!   conflict-detection, versioning, and validation mechanism of the
//!   underlying TM applies unchanged;
//! * a [`TypedSpace`] lays several typed objects out over one register
//!   universe and knows, for each, the [`tm_model::SeqSpec`] the recorded
//!   history must be judged against ([`TypedSpace::registry`]);
//! * a [`TypedStm`] pairs a space with any [`Stm`] and hands out
//!   [`TypedTx`] transaction handles whose operations are recorded at the
//!   *object level* (one `inv`/`ret` pair per object operation, carrying
//!   the object's `ObjId`, operation name, arguments, and return value — see
//!   [`crate::recorder`]), which is what lets the `tm-opacity` checkers and
//!   the `tm-harness` conformance kit judge the history against the object
//!   specifications instead of the register encoding.
//!
//! # Why this is the interesting direction
//!
//! Register probes exercise only the weakest slice of the theory. Richer
//! semantics both *reduce* conflicts (Section 3.4's commutative counter:
//! two increments need not conflict semantically, even though their
//! read-modify-write encodings do) and *surface anomalies that registers
//! cannot express*: snapshot isolation's write skew is invisible to any
//! single-register probe but convicts SI-STM immediately on a two-element
//! set probe, and a torn `get`/`get` pair on a counter catches
//! commit-time-only validation red-handed. The conformance kit in
//! `tm-harness` packages exactly those probes.
//!
//! # Correctness inheritance
//!
//! Each object operation is a deterministic function of the registers it
//! reads, and the encodings are exact implementations of their sequential
//! specifications over the decoded register state. Hence any serialization
//! witnessing register-level opacity replays every object operation
//! according to its spec — an opaque TM stays opaque at the object level.
//! The converse direction is where the probes bite: a TM that lets a
//! transaction observe a register state no serial execution produces (SI's
//! skewed snapshots, commit-time validation's torn reads) produces an
//! object-level history that the object's specification rejects.
//!
//! ```
//! use tm_stm::objects::{encodings::{CounterEnc, SetEnc}, TypedSpace, TypedStm, run_typed_tx};
//! use tm_stm::Tl2Stm;
//!
//! let space = TypedSpace::builder()
//!     .with("hits", CounterEnc)
//!     .with("seen", SetEnc { domain: 8 })
//!     .build();
//! let tm = TypedStm::new(space, |k| Box::new(Tl2Stm::new(k)));
//! let (newly, _) = run_typed_tx(&tm, 0, |tx| {
//!     tx.inc(tx.handle("hits"))?;
//!     tx.insert(tx.handle("seen"), 3)
//! });
//! assert!(newly);
//! let h = tm.history();
//! let specs = tm.registry();
//! assert!(tm_opacity::opacity::is_opaque(&h, &specs).unwrap().opaque);
//! ```

pub mod encodings;

use std::fmt;
use std::sync::Arc;

use crate::api::{retry, Livelock, RunStats, Stm, Tx, TxResult, MAX_ATTEMPTS};
use crate::recorder::Recorder;
use tm_model::{History, ObjId, OpName, SeqSpec, SpecRegistry, TxId, Value};

/// A view of one typed object's register block inside a live transaction.
///
/// Encodings address registers `0..len` relative to the object's base
/// offset; all accesses go through the underlying [`Tx`], so the TM's
/// conflict detection applies to them like to any other transactional
/// operation.
pub struct RegBlock<'a, 'b> {
    tx: &'a mut (dyn Tx + 'b),
    base: usize,
    len: usize,
}

impl RegBlock<'_, '_> {
    /// Reads slot `i` of the block (aborting the transaction on conflict).
    ///
    /// # Panics
    /// Panics if `i` is outside the object's footprint.
    pub fn read(&mut self, i: usize) -> TxResult<i64> {
        assert!(
            i < self.len,
            "slot {i} outside object footprint {}",
            self.len
        );
        self.tx.read(self.base + i)
    }

    /// Writes `v` to slot `i` of the block.
    ///
    /// # Panics
    /// Panics if `i` is outside the object's footprint.
    pub fn write(&mut self, i: usize, v: i64) -> TxResult<()> {
        assert!(
            i < self.len,
            "slot {i} outside object footprint {}",
            self.len
        );
        self.tx.write(self.base + i, v)
    }

    /// The number of registers in this block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the block is empty (no object needs zero registers, but the
    /// accessor pair is conventional).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// How one typed object maps onto base registers.
///
/// Implementations must satisfy two contracts:
///
/// 1. **Spec fidelity** — starting from all-zero registers (every register's
///    initial value), the decoded object state is the spec's initial state,
///    and `apply` transforms register state and computes the return value
///    exactly as [`SeqSpec::step`] prescribes for the decoded states.
/// 2. **Transactional purity** — all shared state lives in the registers;
///    `apply` keeps no hidden state across calls, so the TM's abort/retry
///    machinery composes with it freely.
pub trait ObjEncoding: Send + Sync + fmt::Debug {
    /// The sequential specification the recorded object history is judged
    /// against.
    fn spec(&self) -> Arc<dyn SeqSpec>;

    /// The number of base registers the object occupies.
    fn footprint(&self) -> usize;

    /// Executes `op(args)` as register reads/writes through `regs`.
    ///
    /// Returns the operation's return value, or `Err(Aborted)` when the
    /// underlying TM aborted the transaction on a register access.
    ///
    /// # Panics
    /// Panics if `op`/`args` are outside the object's interface or outside
    /// the encoding's configured capacity/domain — both are programming
    /// errors of the workload, not runtime conditions.
    fn apply(&self, regs: &mut RegBlock<'_, '_>, op: &OpName, args: &[Value]) -> TxResult<Value>;
}

/// A handle to one typed object of a [`TypedSpace`].
///
/// Handles are plain indices — cheap to copy and valid for any
/// [`TypedTx`]/[`TypedStm`] built over the same space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TObj(usize);

/// One typed object as laid out in a space.
#[derive(Debug)]
struct TypedEntry {
    id: ObjId,
    encoding: Arc<dyn ObjEncoding>,
    base: usize,
}

/// A set of typed objects laid out over one register universe.
#[derive(Debug)]
pub struct TypedSpace {
    entries: Vec<TypedEntry>,
    k: usize,
}

/// Builder for [`TypedSpace`] (objects are laid out in insertion order).
#[derive(Debug, Default)]
pub struct TypedSpaceBuilder {
    objs: Vec<(ObjId, Arc<dyn ObjEncoding>)>,
}

impl TypedSpaceBuilder {
    /// Adds a typed object named `name` with the given encoding.
    ///
    /// # Panics
    /// Panics if `name` is already taken.
    pub fn with(mut self, name: &str, encoding: impl ObjEncoding + 'static) -> Self {
        assert!(
            self.objs.iter().all(|(id, _)| id.name() != name),
            "duplicate typed object '{name}'"
        );
        self.objs.push((ObjId::new(name), Arc::new(encoding)));
        self
    }

    /// Finalizes the layout: assigns each object a contiguous register
    /// block, in insertion order.
    pub fn build(self) -> TypedSpace {
        let mut entries = Vec::with_capacity(self.objs.len());
        let mut base = 0;
        for (id, encoding) in self.objs {
            let fp = encoding.footprint();
            entries.push(TypedEntry { id, encoding, base });
            base += fp;
        }
        TypedSpace { entries, k: base }
    }
}

impl TypedSpace {
    /// Starts building a space.
    pub fn builder() -> TypedSpaceBuilder {
        TypedSpaceBuilder::default()
    }

    /// The number of base registers the whole space occupies — the `k` to
    /// construct the underlying TM with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of typed objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the space has no objects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The handle for the object named `name`.
    ///
    /// # Panics
    /// Panics if no such object exists.
    pub fn handle(&self, name: &str) -> TObj {
        TObj(
            self.entries
                .iter()
                .position(|e| e.id.name() == name)
                .unwrap_or_else(|| panic!("no typed object named '{name}'")),
        )
    }

    /// The model-level object identifier behind a handle.
    pub fn id_of(&self, obj: TObj) -> &ObjId {
        &self.entries[obj.0].id
    }

    /// The object-level specification registry: exactly the specs the
    /// recorded history must be checked against (no register default — a
    /// typed history should contain typed events only).
    pub fn registry(&self) -> SpecRegistry {
        let mut reg = SpecRegistry::new();
        for e in &self.entries {
            reg.insert(e.id.clone(), e.encoding.spec());
        }
        reg
    }
}

/// Any [`Stm`] lifted to a [`TypedSpace`] of rich objects.
///
/// The TM is constructed with exactly the number of registers the space
/// needs; all access goes through [`TypedTx`] handles, so the recorded
/// history is purely object-level.
pub struct TypedStm {
    stm: Box<dyn Stm>,
    space: TypedSpace,
}

impl fmt::Debug for TypedStm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedStm")
            .field("stm", &self.stm.name())
            .field("space", &self.space)
            .finish()
    }
}

impl TypedStm {
    /// Lifts the TM built by `make` (called with the space's register
    /// count) to the typed space.
    pub fn new(space: TypedSpace, make: impl FnOnce(usize) -> Box<dyn Stm>) -> Self {
        let stm = make(space.k().max(1));
        assert!(
            stm.k() >= space.k(),
            "TM has k={} but the space needs {}",
            stm.k(),
            space.k()
        );
        TypedStm { stm, space }
    }

    /// The underlying TM.
    pub fn stm(&self) -> &dyn Stm {
        self.stm.as_ref()
    }

    /// The TM's self-reported name.
    pub fn name(&self) -> &'static str {
        self.stm.name()
    }

    /// True if the underlying TM blocks (the global lock): its transactions
    /// cannot be interleaved on one OS thread.
    pub fn blocking(&self) -> bool {
        self.stm.blocking()
    }

    /// The typed-object layout.
    pub fn space(&self) -> &TypedSpace {
        &self.space
    }

    /// The handle for the object named `name` (see [`TypedSpace::handle`]).
    pub fn handle(&self, name: &str) -> TObj {
        self.space.handle(name)
    }

    /// The object-level spec registry for checking [`TypedStm::history`].
    pub fn registry(&self) -> SpecRegistry {
        self.space.registry()
    }

    /// A snapshot of the recorded (object-level) history.
    pub fn history(&self) -> History {
        self.stm.recorder().history()
    }

    /// Starts a typed transaction on behalf of `thread`.
    pub fn begin(&self, thread: usize) -> TypedTx<'_> {
        TypedTx {
            tx: self.stm.begin(thread),
            space: &self.space,
            recorder: self.stm.recorder(),
        }
    }
}

/// A live typed transaction: object operations recorded at object level,
/// executed as register read-modify-writes through the underlying TM.
pub struct TypedTx<'a> {
    tx: Box<dyn Tx + 'a>,
    space: &'a TypedSpace,
    recorder: &'a Recorder,
}

impl TypedTx<'_> {
    /// The model-level transaction identifier.
    pub fn id(&self) -> u32 {
        self.tx.id()
    }

    /// The handle for the object named `name` (convenience mirror of
    /// [`TypedSpace::handle`], usable inside transaction bodies).
    pub fn handle(&self, name: &str) -> TObj {
        self.space.handle(name)
    }

    /// Invokes `op(args)` on `obj`: records the object-level invocation,
    /// runs the encoding's register program through the TM (register events
    /// suppressed), and records the object-level response — or leaves the
    /// invocation pending for the TM's abort event when the transaction
    /// dies mid-operation.
    pub fn invoke(&mut self, obj: TObj, op: &OpName, args: &[Value]) -> TxResult<Value> {
        let entry = &self.space.entries[obj.0];
        let t = TxId(self.tx.id());
        self.recorder
            .inv_object(t, entry.id.clone(), op.clone(), args.to_vec());
        self.tx.record_ops(false);
        let mut regs = RegBlock {
            tx: self.tx.as_mut(),
            base: entry.base,
            len: entry.encoding.footprint(),
        };
        let res = entry.encoding.apply(&mut regs, op, args);
        self.tx.record_ops(true);
        let ret = res?;
        self.recorder
            .ret_object(t, entry.id.clone(), op.clone(), ret.clone());
        Ok(ret)
    }

    /// Requests commit.
    pub fn commit(self) -> TxResult<()> {
        self.tx.commit()
    }

    /// Voluntarily aborts.
    pub fn abort(self) {
        self.tx.abort()
    }

    // ---- typed sugar over `invoke` ------------------------------------

    /// `inc()` on a counter.
    pub fn inc(&mut self, obj: TObj) -> TxResult<()> {
        self.invoke(obj, &OpName::Inc, &[]).map(|_| ())
    }

    /// `dec()` on a counter.
    pub fn dec(&mut self, obj: TObj) -> TxResult<()> {
        self.invoke(obj, &OpName::Dec, &[]).map(|_| ())
    }

    /// `get()` on a counter.
    pub fn get(&mut self, obj: TObj) -> TxResult<i64> {
        Ok(self
            .invoke(obj, &OpName::Get, &[])?
            .as_int()
            .expect("get returns Int"))
    }

    /// `enq(v)` on a FIFO queue.
    pub fn enq(&mut self, obj: TObj, v: i64) -> TxResult<()> {
        self.invoke(obj, &OpName::Enq, &[Value::int(v)]).map(|_| ())
    }

    /// `deq()` on a FIFO queue (`None` when empty).
    pub fn deq(&mut self, obj: TObj) -> TxResult<Option<i64>> {
        Ok(self.invoke(obj, &OpName::Deq, &[])?.as_int())
    }

    /// `push(v)` on a stack.
    pub fn push(&mut self, obj: TObj, v: i64) -> TxResult<()> {
        self.invoke(obj, &OpName::Push, &[Value::int(v)])
            .map(|_| ())
    }

    /// `pop()` on a stack (`None` when empty).
    pub fn pop(&mut self, obj: TObj) -> TxResult<Option<i64>> {
        Ok(self.invoke(obj, &OpName::Pop, &[])?.as_int())
    }

    /// `insert(v)` on a set (true iff newly added).
    pub fn insert(&mut self, obj: TObj, v: i64) -> TxResult<bool> {
        Ok(self
            .invoke(obj, &OpName::Insert, &[Value::int(v)])?
            .as_bool()
            .expect("insert returns Bool"))
    }

    /// `remove(v)` on a set (true iff present).
    pub fn remove(&mut self, obj: TObj, v: i64) -> TxResult<bool> {
        Ok(self
            .invoke(obj, &OpName::Remove, &[Value::int(v)])?
            .as_bool()
            .expect("remove returns Bool"))
    }

    /// `contains(v)` on a set.
    pub fn contains(&mut self, obj: TObj, v: i64) -> TxResult<bool> {
        Ok(self
            .invoke(obj, &OpName::Contains, &[Value::int(v)])?
            .as_bool()
            .expect("contains returns Bool"))
    }

    /// `read()` on a register or CAS register.
    pub fn read_reg(&mut self, obj: TObj) -> TxResult<i64> {
        Ok(self
            .invoke(obj, &OpName::Read, &[])?
            .as_int()
            .expect("read returns Int"))
    }

    /// `write(v)` on a register or CAS register.
    pub fn write_reg(&mut self, obj: TObj, v: i64) -> TxResult<()> {
        self.invoke(obj, &OpName::Write, &[Value::int(v)])
            .map(|_| ())
    }

    /// `cas(expected, new)` on a CAS register.
    pub fn cas(&mut self, obj: TObj, expected: i64, new: i64) -> TxResult<bool> {
        Ok(self
            .invoke(obj, &OpName::Cas, &[Value::int(expected), Value::int(new)])?
            .as_bool()
            .expect("cas returns Bool"))
    }

    /// `put(k, v)` on a key-value map (returns the previous binding).
    pub fn put(&mut self, obj: TObj, k: i64, v: i64) -> TxResult<Option<i64>> {
        Ok(self
            .invoke(obj, &OpName::Insert, &[Value::int(k), Value::int(v)])?
            .as_int())
    }

    /// `get(k)` on a key-value map.
    pub fn map_get(&mut self, obj: TObj, k: i64) -> TxResult<Option<i64>> {
        Ok(self.invoke(obj, &OpName::Get, &[Value::int(k)])?.as_int())
    }

    /// `remove(k)` on a key-value map (returns the removed binding).
    pub fn map_remove(&mut self, obj: TObj, k: i64) -> TxResult<Option<i64>> {
        Ok(self
            .invoke(obj, &OpName::Remove, &[Value::int(k)])?
            .as_int())
    }

    /// `insert(v)` on a priority queue.
    pub fn pq_insert(&mut self, obj: TObj, v: i64) -> TxResult<()> {
        self.invoke(obj, &OpName::Insert, &[Value::int(v)])
            .map(|_| ())
    }

    /// `extract_min()` on a priority queue (`None` when empty).
    pub fn extract_min(&mut self, obj: TObj) -> TxResult<Option<i64>> {
        Ok(self
            .invoke(obj, &tm_model::objects::pqueue::extract_min(), &[])?
            .as_int())
    }

    /// `peek_min()` on a priority queue (`None` when empty).
    pub fn peek_min(&mut self, obj: TObj) -> TxResult<Option<i64>> {
        Ok(self
            .invoke(obj, &tm_model::objects::pqueue::peek_min(), &[])?
            .as_int())
    }

    /// `append(v)` on an append log.
    pub fn append(&mut self, obj: TObj, v: i64) -> TxResult<()> {
        self.invoke(obj, &OpName::Append, &[Value::int(v)])
            .map(|_| ())
    }

    /// `read()` on an append log (the full contents).
    pub fn log_read(&mut self, obj: TObj) -> TxResult<Vec<i64>> {
        Ok(self
            .invoke(obj, &OpName::Read, &[])?
            .as_list()
            .expect("log read returns List")
            .iter()
            .filter_map(Value::as_int)
            .collect())
    }
}

/// Runs `body` as a typed transaction, retrying on abort up to
/// [`crate::api::MAX_ATTEMPTS`] times through the same loop as
/// [`crate::api::try_run_tx`], whose typed twin this is.
pub fn try_run_typed_tx<R>(
    stm: &TypedStm,
    thread: usize,
    mut body: impl FnMut(&mut TypedTx<'_>) -> TxResult<R>,
) -> Result<(R, RunStats), Livelock> {
    retry(MAX_ATTEMPTS, || {
        let mut tx = stm.begin(thread);
        let result = body(&mut tx)?;
        tx.commit().map(|()| result)
    })
}

/// [`try_run_typed_tx`], panicking on [`Livelock`]. The typed twin of
/// [`crate::api::run_tx`].
pub fn run_typed_tx<R>(
    stm: &TypedStm,
    thread: usize,
    body: impl FnMut(&mut TypedTx<'_>) -> TxResult<R>,
) -> (R, RunStats) {
    try_run_typed_tx(stm, thread, body).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::encodings::*;
    use super::*;
    use crate::api::Aborted;
    use tm_model::is_well_formed;
    use tm_opacity::opacity::is_opaque;

    fn playground() -> TypedSpace {
        TypedSpace::builder()
            .with("c", CounterEnc)
            .with("q", QueueEnc { cap: 8 })
            .with("s", SetEnc { domain: 4 })
            .build()
    }

    #[test]
    fn layout_assigns_disjoint_blocks() {
        let space = playground();
        assert_eq!(space.len(), 3);
        // counter(1) + queue(2 + 8) + set(4)
        assert_eq!(space.k(), 1 + 10 + 4);
        assert_eq!(space.id_of(space.handle("q")).name(), "q");
        assert!(!space.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate typed object")]
    fn duplicate_names_rejected() {
        let _ = TypedSpace::builder()
            .with("x", CounterEnc)
            .with("x", CounterEnc);
    }

    #[test]
    #[should_panic(expected = "no typed object named")]
    fn unknown_handle_panics() {
        playground().handle("nope");
    }

    #[test]
    fn registry_binds_each_object_to_its_spec() {
        let space = playground();
        let reg = space.registry();
        assert_eq!(reg.spec_for(&ObjId::new("c")).unwrap().name(), "counter");
        assert_eq!(reg.spec_for(&ObjId::new("q")).unwrap().name(), "fifo-queue");
        assert_eq!(reg.spec_for(&ObjId::new("s")).unwrap().name(), "int-set");
        // No register default: unknown objects have no spec.
        assert!(reg.spec_for(&ObjId::new("r0")).is_none());
    }

    #[test]
    fn every_tm_serves_typed_objects_with_object_level_histories() {
        let reg = crate::TmRegistry::suite();
        for make in reg.names().into_iter().map(|n| reg.factory(n).unwrap()) {
            let tm = TypedStm::new(playground(), make);
            let c = tm.handle("c");
            let q = tm.handle("q");
            let s = tm.handle("s");
            let ((), _) = run_typed_tx(&tm, 0, |tx| {
                tx.inc(c)?;
                tx.inc(c)?;
                tx.enq(q, 7)?;
                tx.insert(s, 2).map(|_| ())
            });
            let (observed, _) = run_typed_tx(&tm, 0, |tx| {
                let count = tx.get(c)?;
                let head = tx.deq(q)?;
                let present = tx.contains(s, 2)?;
                Ok((count, head, present))
            });
            assert_eq!(observed, (2, Some(7), true), "{}", tm.name());
            let h = tm.history();
            assert!(is_well_formed(&h), "{}: {h}", tm.name());
            // Every operation event names a typed object, never a register.
            assert!(
                h.events().iter().all(|e| e
                    .obj()
                    .map_or(true, |o| ["c", "q", "s"].contains(&o.name()))),
                "{}: register-level events leaked into the typed history: {h}",
                tm.name()
            );
            let report = is_opaque(&h, &tm.registry()).unwrap();
            assert!(report.opaque, "{}: {h}", tm.name());
        }
    }

    #[test]
    fn aborted_object_op_leaves_a_well_formed_history() {
        // Force a TL2 conflict mid-object-op: the object-level invocation
        // stays pending and the TM's abort answers it.
        let space = TypedSpace::builder().with("c", CounterEnc).build();
        let tm = TypedStm::new(space, |k| Box::new(crate::Tl2Stm::new(k)));
        let c = tm.handle("c");
        let mut t1 = tm.begin(0);
        assert_eq!(t1.get(c), Ok(0));
        // A concurrent committed inc makes t1's next read stale under TL2.
        run_typed_tx(&tm, 1, |tx| tx.inc(c));
        assert_eq!(t1.get(c), Err(Aborted));
        drop(t1);
        let h = tm.history();
        assert!(is_well_formed(&h), "{h}");
        assert!(is_opaque(&h, &tm.registry()).unwrap().opaque, "{h}");
    }

    #[test]
    fn typed_handles_compose_with_all_sugar() {
        let space = TypedSpace::builder()
            .with("r", RegisterEnc)
            .with("cas", CasEnc)
            .with("m", MapEnc { keys: 4 })
            .with("pq", PQueueEnc { domain: 5 })
            .with("log", LogEnc { cap: 4 })
            .with("st", StackEnc { cap: 4 })
            .build();
        let tm = TypedStm::new(space, |k| Box::new(crate::DstmStm::new(k)));
        let (out, _) = run_typed_tx(&tm, 0, |tx| {
            let r = tx.handle("r");
            let cas = tx.handle("cas");
            let m = tx.handle("m");
            let pq = tx.handle("pq");
            let log = tx.handle("log");
            let st = tx.handle("st");
            tx.write_reg(r, 9)?;
            let rv = tx.read_reg(r)?;
            let ok = tx.cas(cas, 0, 5)?;
            let failed = tx.cas(cas, 0, 6)?;
            let old = tx.put(m, 1, 10)?;
            let newer = tx.put(m, 1, 20)?;
            let got = tx.map_get(m, 1)?;
            let gone = tx.map_remove(m, 1)?;
            tx.pq_insert(pq, 4)?;
            tx.pq_insert(pq, 2)?;
            let peek = tx.peek_min(pq)?;
            let min = tx.extract_min(pq)?;
            tx.append(log, 1)?;
            tx.append(log, 2)?;
            let contents = tx.log_read(log)?;
            tx.push(st, 8)?;
            let top = tx.pop(st)?;
            let empty = tx.pop(st)?;
            Ok((
                rv, ok, failed, old, newer, got, gone, peek, min, contents, top, empty,
            ))
        });
        assert_eq!(
            out,
            (
                9,
                true,
                false,
                None,
                Some(10),
                Some(20),
                Some(20),
                Some(2),
                Some(2),
                vec![1, 2],
                Some(8),
                None
            )
        );
        let h = tm.history();
        assert!(is_well_formed(&h), "{h}");
        assert!(is_opaque(&h, &tm.registry()).unwrap().opaque, "{h}");
    }
}
