//! The object state of the serialization search: slot-indexed, interned,
//! canonical, and undone in place.
//!
//! A [`CheckSession`](crate::CheckSession) gives every object a dense **slot**
//! the first time an operation on it completes ([`SlotTable::slot_of`]),
//! and never reuses a slot. The slot resolves, once, everything a placement
//! needs to know about the object: its sequential specification, its
//! initial value, and a `DefaultHasher` that has already absorbed the
//! object's id. Each completed operation records its slot beside the
//! operation ([`OpSlot`]), so the DFS never looks an object up by name.
//!
//! Object values are **interned** in the session's [`ValueTable`]: every
//! `(slot, value)` a replay produces gets a dense `u32` id, and id 0 stands
//! for every slot's initial value. The table keeps each id's entry hash,
//! computed once per distinct value.
//!
//! [`SlotStates`] is the canonical state: the `(slot, id, entry hash)`
//! entries of the objects that are *not* in their initial state, sorted by
//! slot. An object in its initial state has no entry, and ids are
//! injective per slot, so two states are equal exactly when their
//! `(slot, id)` lists are. The entry hash of `(obj, value)` must stay the
//! `DefaultHasher` digest of `obj` then `value`: the memo picks shards by
//! the XOR of the live entries' hashes (below), so a bounded memo's
//! evictions (and with them its node counts, pinned by
//! `tests/knot_workloads.rs`'s `exploration_counters_are_pinned`) follow
//! these bits.
//!
//! [`SlotStates::replay`] validates a transaction's operations and applies
//! them in place, logging each displaced entry in an [`Undo`] log;
//! [`SlotStates::rollback_to`] restores them. An operation that leaves its
//! object's value unchanged (every register read) changes nothing and logs
//! nothing. Each [`OpSlot`] also caches the last transition replayed
//! through its operation, `input id → output id` (or illegal): a replay
//! whose current id is the cached input skips both `SeqSpec::accepts` and
//! the table lookup. That is sound because `accepts` is a function of the
//! state, the operation, its arguments and its response, and an id always
//! names the same value until [`ValueTable::renumber`], which the session
//! follows by forgetting every cached transition. On a miss, the cached
//! output is tried before the table: an operation that overwrites its
//! object (every write) reaches the same value from every input.
//!
//! The memo keys a dead end on part of the state only: [`SlotStates::live`]
//! lends it a [`LiveView`] of the entries whose slots the frontier's
//! unplaced transactions use, with the XOR of their hashes as its
//! fingerprint, filtered on the fly so that neither a probe nor an insert
//! copies the state.
//!
//! ## Why slot keys stay sound across a growing history
//!
//! Memo entries outlive the check that recorded them, while new objects
//! keep getting slots. An entry recorded before object `o` had a slot was
//! recorded when no placed operation had touched `o`, so `o` was in its
//! initial state — which the canonical form represents as *no entry*. A
//! later state holding `o` at its initial value has no entry for it
//! either, so the old entry compares equal to exactly the states it
//! describes. Because slots are never reused inside a core, an entry's
//! slot numbers always name the objects they named when it was recorded,
//! and because the session renumbers ids only together with every memo
//! entry, checkpoint state and undo record that holds them, its ids always
//! name the values they named. The fingerprint only picks the shard and
//! pre-filters; equality of the `(slot, id)` lists decides a hit.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use tm_model::{ObjId, OpExec, SeqSpec, SpecRegistry, Value};

/// No id: an empty transition cache, a dropped id in a renumbering.
pub(crate) const NIL: u32 = u32::MAX;

/// A cached transition's output for an operation its input rejects.
const ILLEGAL: u32 = u32::MAX;

/// One object of a core, resolved when its first operation completes.
pub(crate) struct Slot<'a> {
    obj: ObjId,
    /// The object's specification and initial value; `None` when the
    /// registry has no specification for it (replaying an operation on it
    /// is then a `NoSpec` error, raised lazily by the DFS).
    spec: Option<(&'a dyn SeqSpec, Value)>,
    /// A hasher that has absorbed `obj`: cloning it and writing a value
    /// gives the entry hash without rehashing the name.
    hasher: DefaultHasher,
}

impl<'a> Slot<'a> {
    fn new(obj: ObjId, specs: &'a SpecRegistry) -> Self {
        let mut hasher = DefaultHasher::new();
        obj.hash(&mut hasher);
        Slot {
            spec: specs.spec_for(&obj).map(|s| (&**s, s.initial())),
            obj,
            hasher,
        }
    }

    /// The object this slot stands for.
    pub(crate) fn obj(&self) -> &ObjId {
        &self.obj
    }

    /// The hash of the entry `(obj, value)` folded into the fingerprint.
    fn entry_hash(&self, value: &Value) -> u64 {
        let mut h = self.hasher.clone();
        value.hash(&mut h);
        h.finish()
    }
}

/// The slots of one core: dense, assigned in first-completion order, never
/// reused.
#[derive(Default)]
pub(crate) struct SlotTable<'a> {
    slots: Vec<Slot<'a>>,
    index: HashMap<ObjId, u32>,
}

impl<'a> SlotTable<'a> {
    /// The slot of `obj`, assigning the next free one on first sight;
    /// `None` once all 2^32 slots are taken.
    pub(crate) fn slot_of(&mut self, obj: &ObjId, specs: &'a SpecRegistry) -> Option<u32> {
        if let Some(&s) = self.index.get(obj) {
            return Some(s);
        }
        let s = u32::try_from(self.slots.len()).ok()?;
        self.slots.push(Slot::new(obj.clone(), specs));
        self.index.insert(obj.clone(), s);
        Some(s)
    }

    /// The slots, indexed by slot number.
    pub(crate) fn slots(&self) -> &[Slot<'a>] {
        &self.slots
    }
}

/// A completed operation's slot, and the last transition replayed through
/// the operation: from id `from` (`NIL` when none is cached) to id `to`,
/// or `ILLEGAL`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpSlot {
    slot: u32,
    from: u32,
    to: u32,
}

impl OpSlot {
    /// The slot of an operation no replay has seen yet.
    pub(crate) fn new(slot: u32) -> Self {
        OpSlot {
            slot,
            from: NIL,
            to: NIL,
        }
    }

    /// The operation's object slot.
    pub(crate) fn slot(&self) -> u32 {
        self.slot
    }

    /// Drops the cached transition (its ids are about to be renumbered).
    pub(crate) fn forget(&mut self) {
        (self.from, self.to) = (NIL, NIL);
    }
}

/// One interned value.
struct Interned {
    slot: u32,
    /// The entry hash of `(slot's object, value)`.
    hash: u64,
    /// The next older id with the same `(slot, hash)` key, or NIL.
    next: u32,
    value: Value,
}

/// The object values of one session, each numbered once per slot.
///
/// Id 0 is every slot's initial value (so "no entry ⟺ initial" holds in
/// [`SlotStates`]); ids from 1 on are assigned in first-production order.
/// One flat table serves every slot. Its index maps `(slot, entry hash)`
/// to the newest id with that key, hashed with the map's own `RandomState`
/// because the values come from clients, and a link chains the older ids
/// whose hashes collide; equality of the values decides.
#[derive(Default)]
pub(crate) struct ValueTable {
    /// Id `k` ≥ 1 at position `k - 1`.
    ids: Vec<Interned>,
    index: HashMap<(u32, u64), u32>,
}

impl ValueTable {
    /// The number of ids in use, id 0 included: ids are below it.
    pub(crate) fn len(&self) -> usize {
        self.ids.len() + 1
    }

    /// What `id` stands for; `None` for id 0, the initial value.
    fn get(&self, id: u32) -> Option<&Interned> {
        self.ids.get((id as usize).wrapping_sub(1))
    }

    /// The entry hash of a non-initial id.
    fn hash(&self, id: u32) -> u64 {
        self.ids[id as usize - 1].hash
    }

    /// The id of `value`, not the initial value, in slot `s`; a new id on
    /// first sight. `Err` once the id space is spent.
    fn intern(&mut self, s: u32, slot: &Slot<'_>, value: Value) -> Result<u32, ReplayError> {
        let hash = slot.entry_hash(&value);
        let head = self.index.entry((s, hash)).or_insert(NIL);
        let mut at = *head;
        while let Some(v) = self.ids.get((at as usize).wrapping_sub(1)) {
            if v.value == value {
                return Ok(at);
            }
            at = v.next;
        }
        let fresh = u32::try_from(self.ids.len() + 1)
            .ok()
            .filter(|&id| id != NIL)
            .ok_or(ReplayError::OutOfIds)?;
        let next = std::mem::replace(head, fresh);
        self.ids.push(Interned {
            slot: s,
            hash,
            next,
            value,
        });
        Ok(fresh)
    }

    /// Where operation `op` takes slot `s` from id `current`: an id, or
    /// `ILLEGAL` when the specification rejects the response. `last` is the
    /// operation's previous output (an id of slot `s`, or none), tried
    /// before the table: an operation that overwrites its object (every
    /// write) reaches the same value from every input.
    fn transition(
        &mut self,
        s: u32,
        slot: &Slot<'_>,
        current: u32,
        op: &OpExec,
        last: u32,
    ) -> Result<u32, ReplayError> {
        let Some((spec, initial)) = &slot.spec else {
            return Err(ReplayError::NoSpec(s));
        };
        let value = self.get(current).map_or(initial, |v| &v.value);
        let Some(next) = spec.accepts(value, &op.op, &op.args, &op.val) else {
            return Ok(ILLEGAL);
        };
        if &next == value {
            Ok(current)
        } else if &next == initial {
            Ok(0)
        } else if self.get(last).is_some_and(|v| v.value == next) {
            Ok(last)
        } else {
            self.intern(s, slot, next)
        }
    }

    /// Keeps the ids `marks` holds anything but `NIL` for, and id 0,
    /// numbering them densely in their old order, and drops the rest.
    /// Afterwards `marks` maps each old id to its new one (`NIL` for a
    /// dropped id). Hashes do not change, so neither do fingerprints.
    pub(crate) fn renumber(&mut self, marks: &mut [u32]) {
        debug_assert_eq!(marks.len(), self.len(), "one mark per id");
        marks[0] = 0;
        let mut kept = 0;
        for (old, mark) in marks[1..].iter_mut().enumerate() {
            if *mark != NIL {
                self.ids.swap(kept, old);
                kept += 1;
                *mark = kept as u32;
            }
        }
        self.ids.truncate(kept);
        self.index.clear();
        for (k, v) in self.ids.iter_mut().enumerate() {
            let id = k as u32 + 1;
            v.next = self.index.insert((v.slot, v.hash), id).unwrap_or(NIL);
        }
    }
}

/// One non-initial object state.
#[derive(Clone, Copy, Debug)]
struct Entry {
    slot: u32,
    id: u32,
    /// The id's entry hash, cached.
    hash: u64,
}

/// The canonical state of every object, keyed by slot: the non-initial
/// entries sorted by slot.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotStates {
    entries: Vec<Entry>,
}

/// One change undone by [`SlotStates::rollback_to`].
enum Change {
    /// An entry was inserted at this position.
    Inserted(u32),
    /// The entry at this position was this one before.
    Replaced(u32, Entry),
    /// This entry was removed from this position (its object went back to
    /// its initial state).
    Removed(u32, Entry),
}

/// The undo log of in-place replays.
#[derive(Default)]
pub(crate) struct Undo {
    changes: Vec<Change>,
}

impl Undo {
    /// A position in the log to roll back to later.
    pub(crate) fn mark(&self) -> usize {
        self.changes.len()
    }

    /// Makes room for `changes` logged changes in all.
    pub(crate) fn reserve(&mut self, changes: usize) {
        self.changes
            .reserve(changes.saturating_sub(self.changes.len()));
    }

    /// Sets `marks[id]` to 0 for every id the log would restore.
    pub(crate) fn mark_ids(&self, marks: &mut [u32]) {
        for change in &self.changes {
            if let Change::Replaced(_, e) | Change::Removed(_, e) = change {
                marks[e.id as usize] = 0;
            }
        }
    }

    /// Rewrites every id the log would restore through `remap`.
    pub(crate) fn renumber(&mut self, remap: &[u32]) {
        for change in &mut self.changes {
            if let Change::Replaced(_, e) | Change::Removed(_, e) = change {
                e.id = remap[e.id as usize];
            }
        }
    }
}

/// Why a replay failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReplayError {
    /// The object of this slot has no sequential specification.
    NoSpec(u32),
    /// A response is not allowed by the object's specification.
    Illegal,
    /// The value table has numbered 2^32 - 1 values.
    OutOfIds,
}

impl SlotStates {
    /// Makes room for `slots` entries in all.
    pub(crate) fn reserve(&mut self, slots: usize) {
        self.entries
            .reserve(slots.saturating_sub(self.entries.len()));
    }

    fn position(&self, slot: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&slot, |e| e.slot)
    }

    /// Validates the operations `ops` (whose slots and transition caches
    /// are `op_slots`) in order and applies them in place, interning new
    /// values in `values` and logging every change in `undo`.
    ///
    /// On error the partial effects are rolled back, so `self` is as it
    /// was. On success the effects stay applied; the caller keeps them (a
    /// committed placement) or rolls back to its own mark.
    pub(crate) fn replay(
        &mut self,
        ops: &[OpExec],
        op_slots: &mut [OpSlot],
        slots: &[Slot<'_>],
        values: &mut ValueTable,
        undo: &mut Undo,
    ) -> Result<(), ReplayError> {
        debug_assert_eq!(ops.len(), op_slots.len(), "one slot per operation");
        let mark = undo.mark();
        for (op, os) in ops.iter().zip(op_slots) {
            let s = os.slot;
            let pos = self.position(s);
            let current = pos.map_or(0, |i| self.entries[i].id);
            let next = if os.from == current {
                os.to
            } else {
                match values.transition(s, &slots[s as usize], current, op, os.to) {
                    Ok(next) => {
                        (os.from, os.to) = (current, next);
                        next
                    }
                    Err(e) => {
                        self.rollback_to(undo, mark);
                        return Err(e);
                    }
                }
            };
            if next == ILLEGAL {
                self.rollback_to(undo, mark);
                return Err(ReplayError::Illegal);
            }
            if next == current {
                continue;
            }
            match pos {
                Ok(i) if next == 0 => {
                    let entry = self.entries.remove(i);
                    undo.changes.push(Change::Removed(i as u32, entry));
                }
                Ok(i) => {
                    let hash = values.hash(next);
                    let e = &mut self.entries[i];
                    let old = std::mem::replace(
                        e,
                        Entry {
                            id: next,
                            hash,
                            ..*e
                        },
                    );
                    undo.changes.push(Change::Replaced(i as u32, old));
                }
                Err(i) => {
                    let hash = values.hash(next);
                    self.entries.insert(
                        i,
                        Entry {
                            slot: s,
                            id: next,
                            hash,
                        },
                    );
                    undo.changes.push(Change::Inserted(i as u32));
                }
            }
        }
        // A trailing pending invocation imposes no constraint: Seq(ob) is
        // prefix-closed.
        Ok(())
    }

    /// Undoes every change logged after `mark`, restoring the entries
    /// exactly.
    pub(crate) fn rollback_to(&mut self, undo: &mut Undo, mark: usize) {
        while undo.changes.len() > mark {
            let Some(change) = undo.changes.pop() else {
                break;
            };
            match change {
                Change::Inserted(pos) => {
                    self.entries.remove(pos as usize);
                }
                Change::Replaced(pos, old) => self.entries[pos as usize] = old,
                Change::Removed(pos, entry) => self.entries.insert(pos as usize, entry),
            }
        }
    }

    /// Sets `marks[id]` to 0 for every id of the state.
    pub(crate) fn mark_ids(&self, marks: &mut [u32]) {
        self.entries.iter().for_each(|e| marks[e.id as usize] = 0);
    }

    /// Rewrites every id of the state through `remap`.
    pub(crate) fn renumber(&mut self, remap: &[u32]) {
        self.entries
            .iter_mut()
            .for_each(|e| e.id = remap[e.id as usize]);
    }

    /// The entries whose slot some transaction of `open` uses, by the
    /// per-slot masks `users` (a slot past its end has no users): the part
    /// of the state the memo keys a dead end on. Lent, not copied.
    pub(crate) fn live<'a>(&'a self, users: &'a [u64], open: u64) -> LiveView<'a> {
        let mut view = LiveView {
            entries: &self.entries,
            users,
            open,
            fingerprint: 0,
            len: 0,
        };
        for e in &self.entries {
            if view.keeps(e) {
                view.fingerprint ^= e.hash;
                view.len += 1;
            }
        }
        view
    }

    /// A state with the given `(slot, id, hash)` entries, whatever the
    /// hashes are — for tests that need control over fingerprints.
    #[cfg(test)]
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (u32, u32, u64)>) -> Self {
        let mut entries: Vec<Entry> = entries
            .into_iter()
            .map(|(slot, id, hash)| Entry { slot, id, hash })
            .collect();
        entries.sort_by_key(|e| e.slot);
        SlotStates { entries }
    }
}

/// The live entries of a [`SlotStates`] ([`SlotStates::live`]) and the XOR
/// of their hashes.
#[derive(Clone, Copy)]
pub(crate) struct LiveView<'a> {
    entries: &'a [Entry],
    users: &'a [u64],
    open: u64,
    fingerprint: u64,
    len: usize,
}

impl LiveView<'_> {
    fn keeps(&self, e: &Entry) -> bool {
        self.users
            .get(e.slot as usize)
            .is_some_and(|&u| u & self.open != 0)
    }

    /// The XOR of the kept entries' hashes.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The number of kept entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The kept `(slot, id)` entries, sorted by slot: what the memo stores
    /// and compares.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let kept = self.entries.iter().filter(|e| self.keeps(e));
        kept.map(|e| (e.slot, e.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tm_model::builder::{paper, HistoryBuilder};
    use tm_model::legal::replay_tx;
    use tm_model::objects::{Counter, FifoQueue, Register};
    use tm_model::{History, ObjStates, OpName, TxId, TxStatus, TxView};

    /// The state as tm-model's reference representation.
    fn to_obj_states(st: &SlotStates, table: &SlotTable<'_>, values: &ValueTable) -> ObjStates {
        let mut out = ObjStates::new();
        for e in &st.entries {
            let value = values.get(e.id).unwrap().value.clone();
            out.set(table.slots[e.slot as usize].obj.clone(), value);
        }
        out
    }

    /// The fingerprint of a reference state, folded from scratch: one
    /// `DefaultHasher` digest of `(obj, value)` per entry.
    fn reference_fingerprint(st: &ObjStates) -> u64 {
        st.iter().fold(0, |acc, (obj, v)| {
            let mut h = DefaultHasher::new();
            obj.hash(&mut h);
            v.hash(&mut h);
            acc ^ h.finish()
        })
    }

    /// The `(slot, id)` entries: two states are equal exactly when these are.
    fn entries(st: &SlotStates) -> Vec<(u32, u32)> {
        st.entries.iter().map(|e| (e.slot, e.id)).collect()
    }

    /// The XOR of every entry's hash: the live view with every slot in use.
    fn fingerprint(st: &SlotStates) -> u64 {
        let users = vec![1; st.entries.last().map_or(0, |e| e.slot as usize + 1)];
        st.live(&users, 1).fingerprint()
    }

    /// The slots of every operation of `view`, assigned in `table`.
    fn op_slots<'a>(
        view: &TxView,
        table: &mut SlotTable<'a>,
        specs: &'a SpecRegistry,
    ) -> Vec<OpSlot> {
        view.ops
            .iter()
            .map(|op| OpSlot::new(table.slot_of(&op.obj, specs).unwrap()))
            .collect()
    }

    /// A slot table, a value table, a state and an undo log.
    #[derive(Default)]
    struct Replayer<'a> {
        table: SlotTable<'a>,
        values: ValueTable,
        states: SlotStates,
        undo: Undo,
    }

    impl Replayer<'_> {
        fn replay(&mut self, view: &TxView, slots: &mut [OpSlot]) -> Result<(), ReplayError> {
            let slot_list = self.table.slots();
            self.states.replay(
                &view.ops,
                slots,
                slot_list,
                &mut self.values,
                &mut self.undo,
            )
        }

        fn reference(&self) -> ObjStates {
            to_obj_states(&self.states, &self.table, &self.values)
        }
    }

    #[test]
    fn slot_replay_agrees_with_replay_tx() {
        // In-place slot replay must produce exactly the canonical form of
        // the cloning reference replay, with the reference fingerprint,
        // and rollback must restore the original state.
        let specs = SpecRegistry::registers();
        for h in [paper::h1(), paper::h2(), paper::h5()] {
            let mut r = Replayer::default();
            let mut reference = ObjStates::new();
            for t in h.txs() {
                let view = h.tx_view(t);
                let mut slots = op_slots(&view, &mut r.table, &specs);
                let cloning = replay_tx(&view, &reference, &specs);
                let before = r.states.clone();
                let mark = r.undo.mark();
                match (cloning, r.replay(&view, &mut slots)) {
                    (Ok(after), Ok(())) => {
                        let after = after.canonical(&specs);
                        assert_eq!(r.reference(), after, "{h} {t}");
                        assert_eq!(fingerprint(&r.states), reference_fingerprint(&after));
                        if view.status.is_committed() {
                            reference = after;
                        } else {
                            r.states.rollback_to(&mut r.undo, mark);
                            assert_eq!(entries(&r.states), entries(&before), "{h} {t}");
                        }
                    }
                    (Err(_), Err(ReplayError::Illegal)) => {
                        assert_eq!(
                            entries(&r.states),
                            entries(&before),
                            "failed replay must not mutate"
                        );
                    }
                    (a, b) => panic!("divergent replay for {t} in {h}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn slot_replay_rolls_back_partial_effects_on_error() {
        let specs = SpecRegistry::registers();
        // write x=1 succeeds, then read y=9 fails: x must be restored.
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(1, "y", 9)
            .commit_ok(1)
            .build();
        let view = h.tx_view(TxId(1));
        let mut r = Replayer::default();
        let mut slots = op_slots(&view, &mut r.table, &specs);
        assert_eq!(r.replay(&view, &mut slots), Err(ReplayError::Illegal));
        assert!(r.states.entries.is_empty());
        assert_eq!(fingerprint(&r.states), 0);
        assert_eq!(r.undo.mark(), 0);
        // The rejection is cached too: the same input is rejected again.
        assert_eq!(r.replay(&view, &mut slots), Err(ReplayError::Illegal));
        assert!(r.states.entries.is_empty());
    }

    #[test]
    fn missing_spec_is_reported_with_its_slot_and_rolled_back() {
        let specs = SpecRegistry::new().with("c", Arc::new(Counter));
        let h = HistoryBuilder::new()
            .inc(1, "c")
            .write(1, "x", 1)
            .commit_ok(1)
            .build();
        let view = h.tx_view(TxId(1));
        let mut r = Replayer::default();
        let mut slots = op_slots(&view, &mut r.table, &specs);
        for _ in 0..2 {
            // Raised on every replay, never cached.
            assert_eq!(
                r.replay(&view, &mut slots),
                Err(ReplayError::NoSpec(slots[1].slot()))
            );
            assert!(r.states.entries.is_empty());
        }
        assert_eq!(r.table.slots()[slots[1].slot() as usize].obj().name(), "x");
    }

    #[test]
    fn unchanged_values_log_nothing_and_rollback_is_exact() {
        let specs = SpecRegistry::registers();
        let h = HistoryBuilder::new()
            .write(1, "x", 7)
            .commit_ok(1)
            .read(2, "x", 7)
            .write(2, "y", 0)
            .write(2, "x", 8)
            .write(2, "z", 3)
            .commit_ok(2)
            .write(3, "x", 0)
            .commit_ok(3)
            .build();
        let mut r = Replayer::default();
        fn replay_tx_in<'a>(r: &mut Replayer<'a>, h: &History, t: u32, specs: &'a SpecRegistry) {
            let view = h.tx_view(TxId(t));
            let mut slots = op_slots(&view, &mut r.table, specs);
            r.replay(&view, &mut slots).unwrap();
        }
        replay_tx_in(&mut r, &h, 1, &specs);
        let after_t1 = r.states.clone();
        let mark = r.undo.mark();
        replay_tx_in(&mut r, &h, 2, &specs);
        // The read of x=7 and the write of y's initial 0 change nothing:
        // only x (replaced) and z (inserted) are logged.
        assert_eq!(r.undo.mark() - mark, 2);
        let mid = r.undo.mark();
        replay_tx_in(&mut r, &h, 3, &specs);
        // Writing x's initial value removes its entry.
        assert_eq!(r.states.entries.len(), 1);
        assert_eq!(r.undo.mark() - mid, 1);
        r.states.rollback_to(&mut r.undo, mark);
        assert_eq!(entries(&r.states), entries(&after_t1));
        assert_eq!(fingerprint(&r.states), fingerprint(&after_t1));
        assert_eq!(r.undo.mark(), mark, "entries before the mark survive");
        // x=7, x=8 and z=3 are interned, besides id 0; y's 0 is initial.
        assert_eq!(r.values.len(), 4);
    }

    #[test]
    fn partial_rollback_to_mark() {
        let specs = SpecRegistry::registers();
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .write(2, "x", 2)
            .write(2, "y", 2)
            .commit_ok(2)
            .build();
        let mut r = Replayer::default();
        for t in [1, 2] {
            let view = h.tx_view(TxId(t));
            let mut slots = op_slots(&view, &mut r.table, &specs);
            if t == 2 {
                let mid = r.states.clone();
                let mark = r.undo.mark();
                r.replay(&view, &mut slots).unwrap();
                r.states.rollback_to(&mut r.undo, mark);
                assert_eq!(entries(&r.states), entries(&mid));
                assert_eq!(r.undo.mark(), 1, "entries before the mark survive");
            } else {
                r.replay(&view, &mut slots).unwrap();
            }
        }
    }

    #[test]
    fn fingerprint_is_order_independent_and_bit_identical_to_the_reference() {
        // The same state reached through different write orders (and so
        // different slot numberings) has the same fingerprint, and the
        // fingerprint is the reference fold over (obj, value) entries.
        let specs = SpecRegistry::registers();
        let a = HistoryBuilder::new()
            .write(1, "x", 1)
            .write(1, "y", 2)
            .commit_ok(1)
            .build();
        let b = HistoryBuilder::new()
            .write(1, "y", 2)
            .write(1, "x", 1)
            .commit_ok(1)
            .build();
        let run = |h: &History| {
            let view = h.tx_view(TxId(1));
            let mut r = Replayer::default();
            let mut slots = op_slots(&view, &mut r.table, &specs);
            r.replay(&view, &mut slots).unwrap();
            (fingerprint(&r.states), r.reference())
        };
        let (fa, ra) = run(&a);
        let (fb, rb) = run(&b);
        assert_eq!(fa, fb);
        assert_eq!(ra, rb);
        assert_eq!(fa, reference_fingerprint(&ra));
        assert_ne!(fa, 0);
    }

    /// A register that counts the transitions it is asked to decide.
    #[derive(Debug, Default)]
    struct CountingRegister {
        calls: AtomicUsize,
    }

    impl SeqSpec for CountingRegister {
        fn initial(&self) -> Value {
            Register::new(0).initial()
        }

        fn step(&self, state: &Value, op: &OpName, args: &[Value]) -> Option<(Value, Value)> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Register::new(0).step(state, op, args)
        }
    }

    #[test]
    fn the_transition_cache_skips_the_specification_on_its_input_only() {
        let spec = Arc::new(CountingRegister::default());
        let specs = SpecRegistry::new().with_default(spec.clone());
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 1)
            .write(2, "x", 2)
            .commit_ok(2)
            .build();
        let mut r = Replayer::default();
        let t1 = h.tx_view(TxId(1));
        let t2 = h.tx_view(TxId(2));
        let mut s1 = op_slots(&t1, &mut r.table, &specs);
        let mut s2 = op_slots(&t2, &mut r.table, &specs);
        let calls = || spec.calls.load(Ordering::Relaxed);
        // From the initial state T2's read of 1 is illegal: one call, cached.
        assert_eq!(r.replay(&t2, &mut s2), Err(ReplayError::Illegal));
        assert_eq!(calls(), 1);
        assert_eq!(r.replay(&t2, &mut s2), Err(ReplayError::Illegal));
        assert_eq!(calls(), 1, "a cached rejection asks nothing");
        r.replay(&t1, &mut s1).unwrap();
        assert_eq!(calls(), 2);
        // A new input (x = 1) misses the read's cache; the write is new.
        let mark = r.undo.mark();
        r.replay(&t2, &mut s2).unwrap();
        assert_eq!(calls(), 4);
        let after = r.states.clone();
        r.states.rollback_to(&mut r.undo, mark);
        r.replay(&t2, &mut s2).unwrap();
        assert_eq!(calls(), 4, "both operations hit their caches");
        assert_eq!(entries(&r.states), entries(&after));
        // Forgotten caches ask again, and land on the same ids.
        s2.iter_mut().for_each(OpSlot::forget);
        r.states.rollback_to(&mut r.undo, mark);
        r.replay(&t2, &mut s2).unwrap();
        assert_eq!(calls(), 6);
        assert_eq!(entries(&r.states), entries(&after));
        assert_eq!(r.values.len(), 3, "x = 1 and x = 2, besides id 0");
    }

    #[test]
    fn renumbering_keeps_the_marked_ids_in_order_and_their_lookups() {
        let specs = SpecRegistry::registers();
        let mut r = Replayer::default();
        let mut b = HistoryBuilder::new();
        for v in 1..=5 {
            b = b.write(v as u32, "x", v).commit_ok(v as u32);
        }
        let h = b.build();
        let views: Vec<TxView> = h.txs().into_iter().map(|t| h.tx_view(t)).collect();
        let mut slots: Vec<Vec<OpSlot>> = views
            .iter()
            .map(|v| op_slots(v, &mut r.table, &specs))
            .collect();
        for (v, s) in views.iter().zip(&mut slots) {
            r.replay(v, s).unwrap();
        }
        // The state is x = 5, id 5.
        assert_eq!(r.values.len(), 6);
        let mut marks = vec![NIL; r.values.len()];
        r.states.mark_ids(&mut marks);
        marks[2] = 0; // x = 2, held elsewhere
        r.values.renumber(&mut marks);
        assert_eq!(marks, [0, NIL, 1, NIL, NIL, 2]);
        r.states.renumber(&marks);
        assert_eq!(entries(&r.states), [(0, 2)]);
        assert_eq!(r.values.len(), 3);
        let reference = r.reference();
        assert_eq!(fingerprint(&r.states), reference_fingerprint(&reference));
        // Re-interning a kept value finds it; a dropped one gets a new id.
        slots.iter_mut().flatten().for_each(OpSlot::forget);
        let mut states = SlotStates::default();
        let mut undo = Undo::default();
        let slot_list = r.table.slots();
        states
            .replay(
                &views[1].ops,
                &mut slots[1],
                slot_list,
                &mut r.values,
                &mut undo,
            )
            .unwrap();
        assert_eq!(entries(&states), [(0, 1)]);
        states
            .replay(
                &views[0].ops,
                &mut slots[0],
                slot_list,
                &mut r.values,
                &mut undo,
            )
            .unwrap();
        assert_eq!(entries(&states), [(0, 3)]);
        assert_eq!(r.values.len(), 4);
    }

    /// The objects of the differential property: two registers, a counter,
    /// and a FIFO queue (whose states are `List` values).
    fn mixed_specs() -> SpecRegistry {
        SpecRegistry::registers()
            .with("c", Arc::new(Counter))
            .with("q", Arc::new(FifoQueue))
    }

    /// Decodes one generated operation: `kind` picks the object and
    /// operation, `v` the value written, enqueued, or observed.
    fn decode_op(tx: TxId, kind: u8, v: i64) -> tm_model::OpExec {
        let (obj, op, args, val) = match kind {
            0 => ("x", OpName::Write, vec![Value::int(v)], Value::Ok),
            1 => ("x", OpName::Read, vec![], Value::int(v)),
            2 => ("y", OpName::Write, vec![Value::int(v)], Value::Ok),
            3 => ("y", OpName::Read, vec![], Value::int(v)),
            4 => ("c", OpName::Inc, vec![], Value::Ok),
            5 => ("c", OpName::Get, vec![], Value::int(v)),
            6 => ("q", OpName::Enq, vec![Value::int(v)], Value::Ok),
            7 if v == 0 => ("q", OpName::Deq, vec![], Value::Unit),
            _ => ("q", OpName::Deq, vec![], Value::int(v)),
        };
        tm_model::OpExec {
            tx,
            obj: ObjId::new(obj),
            op,
            args,
            val,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random place / rollback / renumber sequences through the
        /// interned replay and through `replay_tx` + `ObjStates::canonical`:
        /// the same legality outcome at every placement, states equal
        /// exactly when the reference states are, and a fingerprint equal to
        /// the reference fold recomputed from scratch. Every placement is
        /// replayed twice from the same state (the transition caches hit),
        /// and transactions are re-placed from other states (they miss). A
        /// renumbering keeps the ids of the visited states and the undo log,
        /// and forgets every cached transition.
        #[test]
        fn slot_replay_matches_the_reference_under_place_and_rollback(
            txs in collection::vec(collection::vec((0u8..9, 0i64..3), 1..5), 2..7),
            actions in collection::vec((0usize..16, 0u8..5), 1..48),
        ) {
            let specs = mixed_specs();
            let views: Vec<TxView> = txs
                .iter()
                .enumerate()
                .map(|(i, ops)| {
                    let tx = TxId(i as u32 + 1);
                    TxView {
                        tx,
                        ops: ops.iter().map(|&(k, v)| decode_op(tx, k, v)).collect(),
                        pending: None,
                        status: TxStatus::Committed,
                    }
                })
                .collect();
            // Slots in order of first appearance across the transactions,
            // which is generally not the objects' name order.
            let mut r = Replayer::default();
            let mut view_slots: Vec<Vec<OpSlot>> =
                views.iter().map(|v| op_slots(v, &mut r.table, &specs)).collect();
            // The committed placements still applied, with their marks and
            // the reference state below each.
            let mut frames: Vec<(usize, ObjStates)> = Vec::new();
            let mut reference = ObjStates::new();
            let mut visited: Vec<(SlotStates, ObjStates)> = vec![(r.states.clone(), reference.clone())];
            for &(pick, op) in &actions {
                if op == 0 && !frames.is_empty() {
                    // Backtrack the latest committed placement.
                    let (mark, below) = frames.pop().expect("non-empty");
                    r.states.rollback_to(&mut r.undo, mark);
                    reference = below;
                } else if op == 4 {
                    let mut marks = vec![NIL; r.values.len()];
                    r.states.mark_ids(&mut marks);
                    r.undo.mark_ids(&mut marks);
                    visited.iter().for_each(|(st, _)| st.mark_ids(&mut marks));
                    r.values.renumber(&mut marks);
                    r.states.renumber(&marks);
                    r.undo.renumber(&marks);
                    visited.iter_mut().for_each(|(st, _)| st.renumber(&marks));
                    view_slots.iter_mut().flatten().for_each(OpSlot::forget);
                } else {
                    let i = pick % views.len();
                    let mark = r.undo.mark();
                    let expected = replay_tx(&views[i], &reference, &specs);
                    let got = r.replay(&views[i], &mut view_slots[i]);
                    prop_assert_eq!(expected.is_ok(), got.is_ok(), "tx {} legality", i);
                    // Again from the same state, through the warm caches.
                    let first = r.states.clone();
                    r.states.rollback_to(&mut r.undo, mark);
                    let again = r.replay(&views[i], &mut view_slots[i]);
                    prop_assert_eq!(got, again);
                    prop_assert_eq!(entries(&r.states), entries(&first));
                    match expected {
                        Ok(_) if op == 1 => {
                            // Validated, placed aborted: effects discarded.
                            r.states.rollback_to(&mut r.undo, mark);
                        }
                        Ok(after) => {
                            frames.push((mark, reference));
                            reference = after.canonical(&specs);
                        }
                        Err(_) => prop_assert_eq!(r.undo.mark(), mark),
                    }
                }
                prop_assert_eq!(&r.reference(), &reference);
                prop_assert_eq!(fingerprint(&r.states), reference_fingerprint(&reference));
                visited.push((r.states.clone(), reference.clone()));
            }
            for (a, ra) in &visited {
                for (b, rb) in &visited {
                    prop_assert_eq!(entries(a) == entries(b), ra == rb);
                }
            }
        }
    }
}
