//! The object state of the serialization search: slot-indexed, canonical,
//! and undone in place.
//!
//! A [`CheckSession`](crate::CheckSession) gives every object a dense **slot**
//! the first time an operation on it completes ([`SlotTable::slot_of`]),
//! and never reuses a slot. The slot resolves, once, everything a placement
//! needs to know about the object: its sequential specification, its
//! initial value, and a `DefaultHasher` that has already absorbed the
//! object's id. Each completed operation records its slot beside the
//! operation, so the DFS never looks an object up by name.
//!
//! [`SlotStates`] is the canonical state: the entries of the objects that
//! are *not* in their initial state, sorted by slot, each with its cached
//! entry hash, plus the XOR of those hashes (the fingerprint). An object in
//! its initial state has no entry, so two states are equal exactly when
//! their entry lists are. The entry hash of `(obj, value)` must stay the
//! `DefaultHasher` digest of `obj` then `value`: the memo picks shards by
//! the fingerprint, so a bounded memo's evictions (and with them its node
//! counts, pinned by `tm-bench`'s `exploration_counters_are_pinned`) follow
//! these bits.
//!
//! [`SlotStates::replay`] validates a transaction's operations and applies
//! them in place, logging each displaced entry (its hash included) in an
//! [`Undo`] log; [`SlotStates::rollback_to`] restores them. A placement and
//! its rollback therefore hash one value per changed object, and an
//! operation that leaves its object's value unchanged (every register
//! read) changes nothing and logs nothing.
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
//! slot numbers always name the objects they named when it was recorded.
//! The fingerprint only picks the shard and pre-filters; equality of the
//! entry lists decides a hit.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use tm_model::{ObjId, OpExec, SeqSpec, SpecRegistry, Value};

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

/// One non-initial object state.
#[derive(Clone, Debug)]
struct Entry {
    slot: u32,
    value: Value,
    /// `entry_hash(value)` of the slot, cached.
    hash: u64,
}

/// The canonical state of every object, keyed by slot: the non-initial
/// entries sorted by slot, and the XOR of their hashes.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotStates {
    entries: Vec<Entry>,
    fingerprint: u64,
}

impl PartialEq for SlotStates {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.slot == b.slot && a.value == b.value)
    }
}

impl Eq for SlotStates {}

impl Hash for SlotStates {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The fingerprint is a function of the entries, so this is
        // consistent with `Eq`, and O(1).
        state.write_u64(self.fingerprint);
    }
}

/// One change undone by [`SlotStates::rollback_to`].
enum Change {
    /// An entry was inserted at this position.
    Inserted(usize),
    /// The entry at `pos` held `value` (hashing to `hash`) before.
    Replaced { pos: usize, value: Value, hash: u64 },
    /// This entry was removed from `pos` (its object went back to its
    /// initial state).
    Removed { pos: usize, entry: Entry },
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
}

/// Why a replay failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReplayError {
    /// The object of this slot has no sequential specification.
    NoSpec(u32),
    /// A response is not allowed by the object's specification.
    Illegal,
}

impl SlotStates {
    /// The fingerprint: the XOR of the entries' hashes. Equal states have
    /// equal fingerprints; the converse holds up to collisions.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn position(&self, slot: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&slot, |e| e.slot)
    }

    /// Validates the operations `ops` (whose slots are `op_slots`) in
    /// order and applies them in place, logging every change in `undo`.
    ///
    /// On error the partial effects are rolled back, so `self` is as it
    /// was. On success the effects stay applied; the caller keeps them (a
    /// committed placement) or rolls back to its own mark.
    pub(crate) fn replay(
        &mut self,
        ops: &[OpExec],
        op_slots: &[u32],
        slots: &[Slot<'_>],
        undo: &mut Undo,
    ) -> Result<(), ReplayError> {
        debug_assert_eq!(ops.len(), op_slots.len(), "one slot per operation");
        let mark = undo.mark();
        for (op, &s) in ops.iter().zip(op_slots) {
            let slot = &slots[s as usize];
            let Some((spec, initial)) = &slot.spec else {
                self.rollback_to(undo, mark);
                return Err(ReplayError::NoSpec(s));
            };
            let pos = self.position(s);
            let current = match pos {
                Ok(i) => &self.entries[i].value,
                Err(_) => initial,
            };
            let Some(next) = spec.accepts(current, &op.op, &op.args, &op.val) else {
                self.rollback_to(undo, mark);
                return Err(ReplayError::Illegal);
            };
            if &next == current {
                continue;
            }
            match pos {
                Ok(i) if &next == initial => {
                    let entry = self.entries.remove(i);
                    self.fingerprint ^= entry.hash;
                    undo.changes.push(Change::Removed { pos: i, entry });
                }
                Ok(i) => {
                    let hash = slot.entry_hash(&next);
                    let e = &mut self.entries[i];
                    self.fingerprint ^= e.hash ^ hash;
                    let value = std::mem::replace(&mut e.value, next);
                    let hash = std::mem::replace(&mut e.hash, hash);
                    undo.changes.push(Change::Replaced {
                        pos: i,
                        value,
                        hash,
                    });
                }
                Err(i) => {
                    let hash = slot.entry_hash(&next);
                    self.fingerprint ^= hash;
                    self.entries.insert(
                        i,
                        Entry {
                            slot: s,
                            value: next,
                            hash,
                        },
                    );
                    undo.changes.push(Change::Inserted(i));
                }
            }
        }
        // A trailing pending invocation imposes no constraint: Seq(ob) is
        // prefix-closed.
        Ok(())
    }

    /// Undoes every change logged after `mark`, restoring the entries and
    /// the fingerprint exactly.
    pub(crate) fn rollback_to(&mut self, undo: &mut Undo, mark: usize) {
        while undo.changes.len() > mark {
            let Some(change) = undo.changes.pop() else {
                break;
            };
            match change {
                Change::Inserted(pos) => {
                    let entry = self.entries.remove(pos);
                    self.fingerprint ^= entry.hash;
                }
                Change::Replaced { pos, value, hash } => {
                    let e = &mut self.entries[pos];
                    self.fingerprint ^= e.hash ^ hash;
                    e.value = value;
                    e.hash = hash;
                }
                Change::Removed { pos, entry } => {
                    self.fingerprint ^= entry.hash;
                    self.entries.insert(pos, entry);
                }
            }
        }
    }

    /// A state with the given `(slot, value, hash)` entries and the XOR of
    /// the given hashes as its fingerprint, whatever the hashes are — for
    /// tests that need control over fingerprints.
    #[cfg(test)]
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (u32, Value, u64)>) -> Self {
        let mut entries: Vec<Entry> = entries
            .into_iter()
            .map(|(slot, value, hash)| Entry { slot, value, hash })
            .collect();
        entries.sort_by_key(|e| e.slot);
        let fingerprint = entries.iter().fold(0, |acc, e| acc ^ e.hash);
        SlotStates {
            entries,
            fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use tm_model::builder::{paper, HistoryBuilder};
    use tm_model::legal::replay_tx;
    use tm_model::objects::{Counter, FifoQueue};
    use tm_model::{History, ObjStates, OpName, TxId, TxStatus, TxView};

    /// The state as tm-model's reference representation.
    fn to_obj_states(st: &SlotStates, table: &SlotTable<'_>) -> ObjStates {
        let mut out = ObjStates::new();
        for e in &st.entries {
            out.set(table.slots[e.slot as usize].obj.clone(), e.value.clone());
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

    /// The slots of every operation of `view`, assigned in `table`.
    fn op_slots<'a>(view: &TxView, table: &mut SlotTable<'a>, specs: &'a SpecRegistry) -> Vec<u32> {
        view.ops
            .iter()
            .map(|op| table.slot_of(&op.obj, specs).unwrap())
            .collect()
    }

    #[test]
    fn slot_replay_agrees_with_replay_tx() {
        // In-place slot replay must produce exactly the canonical form of
        // the cloning reference replay, with the reference fingerprint,
        // and rollback must restore the original state.
        let specs = SpecRegistry::registers();
        for h in [paper::h1(), paper::h2(), paper::h5()] {
            let mut table = SlotTable::default();
            let mut states = SlotStates::default();
            let mut reference = ObjStates::new();
            let mut undo = Undo::default();
            for t in h.txs() {
                let view = h.tx_view(t);
                let slots = op_slots(&view, &mut table, &specs);
                let cloning = replay_tx(&view, &reference, &specs);
                let before = states.clone();
                let mark = undo.mark();
                let in_place = states.replay(&view.ops, &slots, table.slots(), &mut undo);
                match (cloning, in_place) {
                    (Ok(after), Ok(())) => {
                        let after = after.canonical(&specs);
                        assert_eq!(to_obj_states(&states, &table), after, "{h} {t}");
                        assert_eq!(states.fingerprint(), reference_fingerprint(&after));
                        if view.status.is_committed() {
                            reference = after;
                        } else {
                            states.rollback_to(&mut undo, mark);
                            assert_eq!(states, before, "{h} {t}");
                        }
                    }
                    (Err(_), Err(ReplayError::Illegal)) => {
                        assert_eq!(states, before, "failed replay must not mutate");
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
        let mut table = SlotTable::default();
        let slots = op_slots(&view, &mut table, &specs);
        let mut states = SlotStates::default();
        let mut undo = Undo::default();
        assert_eq!(
            states.replay(&view.ops, &slots, table.slots(), &mut undo),
            Err(ReplayError::Illegal)
        );
        assert_eq!(states, SlotStates::default());
        assert_eq!(states.fingerprint(), 0);
        assert_eq!(undo.mark(), 0);
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
        let mut table = SlotTable::default();
        let slots = op_slots(&view, &mut table, &specs);
        let mut states = SlotStates::default();
        let mut undo = Undo::default();
        assert_eq!(
            states.replay(&view.ops, &slots, table.slots(), &mut undo),
            Err(ReplayError::NoSpec(slots[1]))
        );
        assert_eq!(table.slots()[slots[1] as usize].obj().name(), "x");
        assert_eq!(states, SlotStates::default());
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
        let mut table = SlotTable::default();
        let mut states = SlotStates::default();
        let mut undo = Undo::default();
        let mut replay = |t: u32, states: &mut SlotStates, undo: &mut Undo| {
            let view = h.tx_view(TxId(t));
            let slots = op_slots(&view, &mut table, &specs);
            states
                .replay(&view.ops, &slots, table.slots(), undo)
                .unwrap();
        };
        replay(1, &mut states, &mut undo);
        let after_t1 = states.clone();
        let mark = undo.mark();
        replay(2, &mut states, &mut undo);
        // The read of x=7 and the write of y's initial 0 change nothing:
        // only x (replaced) and z (inserted) are logged.
        assert_eq!(undo.mark() - mark, 2);
        let mid = undo.mark();
        replay(3, &mut states, &mut undo);
        // Writing x's initial value removes its entry.
        assert_eq!(states.entries.len(), 1);
        assert_eq!(undo.mark() - mid, 1);
        states.rollback_to(&mut undo, mark);
        assert_eq!(states, after_t1);
        assert_eq!(states.fingerprint(), after_t1.fingerprint());
        assert_eq!(undo.mark(), mark, "entries before the mark survive");
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
        let mut table = SlotTable::default();
        let mut states = SlotStates::default();
        let mut undo = Undo::default();
        for t in [1, 2] {
            let view = h.tx_view(TxId(t));
            let slots = op_slots(&view, &mut table, &specs);
            if t == 2 {
                let mid = states.clone();
                let mark = undo.mark();
                states
                    .replay(&view.ops, &slots, table.slots(), &mut undo)
                    .unwrap();
                states.rollback_to(&mut undo, mark);
                assert_eq!(states, mid);
                assert_eq!(undo.mark(), 1, "entries before the mark survive");
            } else {
                states
                    .replay(&view.ops, &slots, table.slots(), &mut undo)
                    .unwrap();
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
            let mut table = SlotTable::default();
            let slots = op_slots(&view, &mut table, &specs);
            let mut states = SlotStates::default();
            states
                .replay(&view.ops, &slots, table.slots(), &mut Undo::default())
                .unwrap();
            let reference = to_obj_states(&states, &table);
            (states.fingerprint(), reference)
        };
        let (fa, ra) = run(&a);
        let (fb, rb) = run(&b);
        assert_eq!(fa, fb);
        assert_eq!(ra, rb);
        assert_eq!(fa, reference_fingerprint(&ra));
        assert_ne!(fa, 0);
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

        /// Random place/rollback sequences through the slot replay and
        /// through `replay_tx` + `ObjStates::canonical`: the same legality
        /// outcome at every placement, states equal exactly when the
        /// reference states are, and a fingerprint equal to the reference
        /// fold recomputed from scratch.
        #[test]
        fn slot_replay_matches_the_reference_under_place_and_rollback(
            txs in collection::vec(collection::vec((0u8..9, 0i64..3), 1..5), 2..7),
            actions in collection::vec((0usize..16, 0u8..4), 1..48),
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
            let mut table = SlotTable::default();
            let view_slots: Vec<Vec<u32>> =
                views.iter().map(|v| op_slots(v, &mut table, &specs)).collect();
            let mut states = SlotStates::default();
            let mut undo = Undo::default();
            // The committed placements still applied, with their marks and
            // the reference state below each.
            let mut frames: Vec<(usize, ObjStates)> = Vec::new();
            let mut reference = ObjStates::new();
            let mut visited: Vec<(SlotStates, ObjStates)> = vec![(states.clone(), reference.clone())];
            for &(pick, op) in &actions {
                if op == 0 && !frames.is_empty() {
                    // Backtrack the latest committed placement.
                    let (mark, below) = frames.pop().expect("non-empty");
                    states.rollback_to(&mut undo, mark);
                    reference = below;
                } else {
                    let i = pick % views.len();
                    let mark = undo.mark();
                    let expected = replay_tx(&views[i], &reference, &specs);
                    let got = states.replay(&views[i].ops, &view_slots[i], table.slots(), &mut undo);
                    prop_assert_eq!(expected.is_ok(), got.is_ok(), "tx {} legality", i);
                    match expected {
                        Ok(_) if op == 1 => {
                            // Validated, placed aborted: effects discarded.
                            states.rollback_to(&mut undo, mark);
                        }
                        Ok(after) => {
                            frames.push((mark, reference));
                            reference = after.canonical(&specs);
                        }
                        Err(_) => prop_assert_eq!(undo.mark(), mark),
                    }
                }
                prop_assert_eq!(&to_obj_states(&states, &table), &reference);
                prop_assert_eq!(states.fingerprint(), reference_fingerprint(&reference));
                visited.push((states.clone(), reference.clone()));
            }
            for (a, ra) in &visited {
                for (b, rb) in &visited {
                    prop_assert_eq!(a == b, ra == rb);
                }
            }
        }
    }
}
