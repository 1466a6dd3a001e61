//! The dead-end memo table of the serialization search: a
//! fingerprint-sharded, optionally capacity-bounded map from
//! `(placed-set mask, canonical object states)` to "this frontier is a
//! dead end".
//!
//! ## Why an entry is sound
//!
//! A memo entry records a *path-independent* fact: from the frontier
//! `(placed, states)` the remaining selected transactions cannot all be
//! placed legally. The serialization prefix through which the search
//! reached the frontier is irrelevant, because the legality of every
//! further placement depends only on the committed effects accumulated in
//! `states` and on the set of transactions still unplaced (the complement
//! of `placed`).
//!
//! The one obligation the *writer* carries is completeness: an entry may be
//! inserted only after the subtree below the frontier was explored
//! **exhaustively**. The search enforces this by never inserting once its
//! exploration is truncated by the node cap — see `truncated` in
//! [`crate::search`].
//!
//! ## Why eviction is sound
//!
//! Entries are pure pruning: dropping one can only force the search to
//! re-explore (and re-discover) a dead end, never to change a verdict.
//! A bounded table is therefore free to evict anything at any time. The
//! *invalidation* rules are the opposite direction — an entry that became
//! unsound after new events must go — and they are preserved verbatim:
//! [`ShardedMemo::retain_placing`] and [`ShardedMemo::clear`] are the
//! sharded forms of the resumable core's `retain`/`clear` on its old flat
//! map.
//!
//! ## The eviction policy: cost-segmented LRU
//!
//! Plain recency is the *worst* signal for a DFS memo: backtracking
//! re-probes entries in LIFO order, so by the time the search unwinds to
//! an early alternative, the entries it needs — flushed by the thousands
//! of deep inserts in between — are exactly the ones gone, and every
//! re-entry re-explores a whole subtree (measured: a quarter-capacity
//! plain-LRU table blew a phased knot search up by >100×, and pure
//! depth-priority eviction fails the same way by starving the active
//! frontier). The durable value of a dead end is what it would cost to
//! *recompute*: the number of nodes the search expanded below that
//! frontier before concluding it is dead — a quantity the DFS knows
//! exactly at insert time. Keeping expensive entries bounds the regret of
//! eviction greedily: losing an entry can only ever cost its (small)
//! recompute price per future probe, so a bounded table sheds precisely
//! the dead ends that are cheap to rediscover.
//!
//! Each shard therefore keeps its entries in **cost segments** — one LRU
//! queue per log₂(subtree nodes) bucket. Eviction always takes the
//! least-recently-touched entry of the *cheapest populated segment*: the
//! expensive spine entries that prevent multiplicative re-exploration on
//! backtrack survive any cap, while the flood of cost-1 leaf dead ends
//! (the bulk of the table) churns through the low buckets under recency.
//! Queues are lazy — a touch enqueues a fresh record and stale records
//! are skipped on pop and compacted when they outnumber live entries.
//!
//! ## Keys, fingerprints, and shards
//!
//! The states of a key are the search's slot-indexed canonical state
//! ([`SlotStates`], see `crate::state`). Its XOR fingerprint — one
//! `DefaultHasher` digest of `(object, value)` per non-initial object,
//! cached per entry and updated in place by the replay — is mixed with the
//! placed-set mask to pick the shard. The fingerprint's bits are part of
//! the table's behaviour: the shard choice follows them, and with it which
//! entries a bounded table evicts (eviction is per shard, each shard
//! capped separately), so a different hash — or a different shard count —
//! would change node counts under a capacity bound.
//!
//! A check is single-threaded, so the shards do not buy concurrency; they
//! partition eviction, and that earns their keep. On the phased
//! contention-knot check `tests/knot_workloads.rs` pins, a table capped at a quarter of
//! its unbounded peak (75 entries, 2 shards) spends 483 nodes against 460
//! unbounded; the same cap on a single shard spent 1 145 (+149 %). At half
//! the peak the shard count moved nothing material.
//!
//! Within a shard the fingerprint is only a pre-filter. The maps hash it
//! with their own `RandomState` (the values behind it come from clients),
//! and a hit is decided by equality of the entry lists, so two distinct
//! states with colliding fingerprints stay two entries. Probes never clone
//! the live state (`Arc<SlotStates>: Borrow<SlotStates>` does the lookup).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crate::state::SlotStates;

/// Default shard count (a power of two; also the upper bound when the
/// configured capacity is smaller).
const DEFAULT_SHARDS: usize = 16;

/// One queued reference to a shard entry. Queues are lazy: a recency touch
/// leaves the previous record stale; stale records are skipped (and
/// dropped) when popped, and compacted wholesale when they outnumber live
/// entries.
struct QueueRef {
    mask: u64,
    states: Arc<SlotStates>,
    stamp: u64,
}

/// Live metadata of one memoized dead end.
struct EntryMeta {
    /// Monotone per-shard clock value of the entry's latest queue record;
    /// a queue record is current iff its stamp matches.
    stamp: u64,
    /// Cost segment: log₂ of the subtree nodes it took to establish this
    /// dead end (recency touches re-enqueue into the same segment).
    bucket: u32,
}

/// The two-level entry index of one shard.
type MaskIndex = HashMap<u64, HashMap<Arc<SlotStates>, EntryMeta>>;

/// One shard: its entries and their eviction queues.
#[derive(Default)]
struct MemoShard {
    /// `placed-set mask → states → metadata`. The inner key is an `Arc` so
    /// the segment queues can reference entries without cloning snapshots.
    by_mask: MaskIndex,
    /// Live entries in this shard (sum of inner map sizes).
    len: usize,
    /// Stale records across all segment queues (for compaction).
    stale: usize,
    /// Per-shard LRU clock.
    clock: u64,
    /// Cost segments: log₂(recompute nodes) → LRU queue (least-recent
    /// first). Eviction pops from the first (cheapest) populated segment.
    segments: BTreeMap<u32, VecDeque<QueueRef>>,
}

/// Is `q` the current queue record of a live entry?
fn queue_ref_live(by_mask: &MaskIndex, q: &QueueRef) -> bool {
    by_mask
        .get(&q.mask)
        .and_then(|m| m.get(q.states.as_ref()))
        .is_some_and(|meta| meta.stamp == q.stamp)
}

impl MemoShard {
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Enqueues the current record of an entry into its cost segment.
    fn enqueue(&mut self, bucket: u32, mask: u64, states: Arc<SlotStates>, stamp: u64) {
        self.segments
            .entry(bucket)
            .or_default()
            .push_back(QueueRef {
                mask,
                states,
                stamp,
            });
    }

    /// Drops stale queue records once they outnumber live entries.
    fn maybe_compact(&mut self) {
        if self.stale > self.len + 32 {
            let by_mask = std::mem::take(&mut self.by_mask);
            for q in self.segments.values_mut() {
                q.retain(|r| queue_ref_live(&by_mask, r));
            }
            self.segments.retain(|_, q| !q.is_empty());
            self.by_mask = by_mask;
            self.stale = 0;
        }
    }

    /// Removes the entry referenced by `q`, returning whether it was live.
    fn remove(&mut self, q: &QueueRef) -> bool {
        if let Some(inner) = self.by_mask.get_mut(&q.mask) {
            if inner.remove(q.states.as_ref()).is_some() {
                self.len -= 1;
                if inner.is_empty() {
                    self.by_mask.remove(&q.mask);
                }
                return true;
            }
        }
        false
    }

    /// Evicts the least-recently-touched entry of the cheapest populated
    /// segment. Returns `true` if something was evicted.
    fn evict_one(&mut self) -> bool {
        loop {
            let Some((&bucket, _)) = self.segments.first_key_value() else {
                return false;
            };
            loop {
                let popped = self.segments.get_mut(&bucket).and_then(|q| q.pop_front());
                let Some(q) = popped else {
                    self.segments.remove(&bucket);
                    break; // this segment is spent; try the next-cheapest
                };
                if queue_ref_live(&self.by_mask, &q) {
                    if self.segments.get(&bucket).is_some_and(|q| q.is_empty()) {
                        self.segments.remove(&bucket);
                    }
                    self.remove(&q);
                    return true;
                }
                self.stale -= 1;
            }
        }
    }
}

/// The fingerprint-sharded dead-end table of one search session.
pub(crate) struct ShardedMemo {
    shards: Vec<MemoShard>,
    /// Per-shard entry cap; `0` = unbounded (no segment bookkeeping at
    /// all).
    per_shard_cap: usize,
    /// Entries evicted by the capacity bound since creation (monotone).
    evictions: usize,
}

impl ShardedMemo {
    /// A memo bounded to at most `capacity` resident entries in total
    /// (`None` = unbounded). The shard count is a power of two no larger
    /// than the capacity, so the per-shard caps never let the total exceed
    /// the configured bound.
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        let (nshards, per_shard_cap) = match capacity {
            None => (DEFAULT_SHARDS, None),
            Some(cap) => {
                let cap = cap.max(1);
                // Power-of-two shard count, keeping every shard at ≥ 32
                // entries: skew between shards wastes a fixed number of
                // slots per shard, so tiny per-shard caps would evict live
                // working-set entries while other shards sit below cap.
                let nshards = DEFAULT_SHARDS
                    .min(1usize << (usize::BITS - 1 - (cap / 32).max(1).leading_zeros()));
                (nshards, Some(cap / nshards))
            }
        };
        ShardedMemo {
            shards: (0..nshards).map(|_| MemoShard::default()).collect(),
            per_shard_cap: per_shard_cap.unwrap_or(0),
            evictions: 0,
        }
    }

    /// The per-shard cap currently in force (`None` = unbounded).
    fn per_shard_cap(&self) -> Option<usize> {
        match self.per_shard_cap {
            0 => None,
            cap => Some(cap),
        }
    }

    /// Retunes the capacity bound of a live table (`None` = unbounded).
    ///
    /// The shard count is fixed at construction, so unlike
    /// [`ShardedMemo::new`] the per-shard cap here is simply
    /// `capacity / shards` floored to 1 — the enforced bound therefore
    /// never drops below one entry per shard. A table meant for dynamic
    /// governance should be *constructed* bounded so its shard count
    /// matches its size class (the governor's per-session floor sits well
    /// above any shard count anyway).
    ///
    /// Sound in both directions because entries are pure pruning (see the
    /// module docs): shrinking evicts down to the new bound through the
    /// normal cost-segmented-LRU policy; growing simply stops evicting.
    /// The one structural transition is unbounded → bounded: entries
    /// inserted while unbounded carry no queue records, so the eviction
    /// queues cannot reach them — the table is cleared instead (a pure
    /// re-discovery cost, never a verdict change).
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        let new_per_shard = capacity.map(|c| (c.max(1) / self.shards.len()).max(1));
        let old = std::mem::replace(&mut self.per_shard_cap, new_per_shard.unwrap_or(0));
        let Some(cap) = new_per_shard else {
            // Now unbounded: existing queue records go stale harmlessly
            // (probes stop touching them, inserts stop enqueueing).
            return;
        };
        if old == 0 {
            // Unbounded → bounded: resident entries have no queue records.
            self.clear();
            return;
        }
        // Bounded → bounded: evict each shard down to the new cap.
        for sh in &mut self.shards {
            while sh.len > cap {
                if sh.evict_one() {
                    self.evictions += 1;
                } else {
                    break; // unreachable with len > 0; defensive
                }
            }
            sh.maybe_compact();
        }
    }

    fn shard_for(&mut self, mask: u64, states: &SlotStates) -> &mut MemoShard {
        // Mix the placed-set mask into the states fingerprint so frontiers
        // sharing a state (common: many masks, few reachable states) still
        // spread across shards.
        let key = states.fingerprint() ^ mask.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let n = self.shards.len();
        &mut self.shards[(key as usize) & (n - 1)]
    }

    /// Is `(mask, states)` a recorded dead end? Under a capacity bound a
    /// hit refreshes the entry's recency within its cost segment — an
    /// entry that keeps pruning stays at the warm end of its segment.
    pub(crate) fn probe(&mut self, mask: u64, states: &SlotStates) -> bool {
        let bounded = self.per_shard_cap().is_some();
        let sh = self.shard_for(mask, states);
        let Some(arc) = sh
            .by_mask
            .get(&mask)
            .and_then(|m| m.get_key_value(states))
            .map(|(k, _)| Arc::clone(k))
        else {
            return false;
        };
        if !bounded {
            return true;
        }
        let stamp = sh.next_stamp();
        let Some(meta) = sh.by_mask.get_mut(&mask).and_then(|m| m.get_mut(states)) else {
            return true; // found above; nothing between can remove it
        };
        meta.stamp = stamp;
        let bucket = meta.bucket;
        sh.stale += 1; // the previous queue record just went stale
        sh.enqueue(bucket, mask, arc, stamp);
        sh.maybe_compact();
        true
    }

    /// Records `(mask, states)` as a dead end established by exploring
    /// `cost` DFS nodes (idempotent — a duplicate insert is ignored).
    /// Evicts per the cost-segmented-LRU policy when the shard is at
    /// capacity.
    pub(crate) fn insert(&mut self, mask: u64, states: &SlotStates, cost: usize) {
        let cap = self.per_shard_cap();
        let sh = self.shard_for(mask, states);
        if sh
            .by_mask
            .get(&mask)
            .is_some_and(|m| m.contains_key(states))
        {
            return;
        }
        let bucket = usize::BITS - cost.max(1).leading_zeros(); // ⌊log₂⌋ + 1
        let arc = Arc::new(states.clone());
        let stamp = sh.next_stamp();
        sh.by_mask
            .entry(mask)
            .or_default()
            .insert(Arc::clone(&arc), EntryMeta { stamp, bucket });
        sh.len += 1;
        if let Some(cap) = cap {
            sh.enqueue(bucket, mask, arc, stamp);
            let mut evicted = 0;
            while sh.len > cap {
                if sh.evict_one() {
                    evicted += 1;
                } else {
                    break; // unreachable with len > 0; defensive
                }
            }
            sh.maybe_compact();
            self.evictions += evicted;
        }
    }

    /// Drops every entry whose placed-set does **not** contain `bit` — the
    /// resumable core's invalidation rule for a new operation or a `tryC`
    /// widening of the transaction owning `bit` (entries that already
    /// placed the transaction only claim things about the others, so they
    /// stay).
    pub(crate) fn retain_placing(&mut self, bit: u64) {
        for sh in &mut self.shards {
            let mut removed = 0usize;
            sh.by_mask.retain(|&mask, inner| {
                if mask & bit != 0 {
                    true
                } else {
                    removed += inner.len();
                    false
                }
            });
            sh.len -= removed;
            // Invalidation is rare; scrub the queues eagerly so they track
            // the live set exactly afterwards.
            let by_mask = std::mem::take(&mut sh.by_mask);
            for q in sh.segments.values_mut() {
                q.retain(|r| queue_ref_live(&by_mask, r));
            }
            sh.segments.retain(|_, q| !q.is_empty());
            sh.by_mask = by_mask;
            sh.stale = 0;
        }
    }

    /// Drops every entry (the committed-only re-selection rule).
    pub(crate) fn clear(&mut self) {
        for sh in &mut self.shards {
            sh.by_mask.clear();
            sh.len = 0;
            sh.stale = 0;
            sh.segments.clear();
        }
    }

    /// Resident entries across all shards.
    pub(crate) fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }

    /// Total entries evicted by the capacity bound since creation
    /// (monotone; invalidation drops are not evictions).
    pub(crate) fn evictions(&self) -> usize {
        self.evictions
    }

    /// The total capacity actually enforced (shard count × per-shard cap);
    /// `None` when unbounded. At most the configured capacity.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.per_shard_cap().map(|c| c * self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};
    use tm_model::{ObjId, Value};

    /// The state with object `x` (slot 0) at `n`, with its real entry hash.
    fn state(n: i64) -> SlotStates {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        ObjId::new("x").hash(&mut h);
        Value::Int(n).hash(&mut h);
        SlotStates::from_entries([(0, Value::Int(n), h.finish())])
    }

    /// A mask with `d` low bits set (depth `d`).
    fn deep_mask(d: u32) -> u64 {
        if d >= 64 {
            u64::MAX
        } else {
            (1u64 << d) - 1
        }
    }

    #[test]
    fn probe_miss_then_insert_then_hit() {
        let mut memo = ShardedMemo::new(None);
        let s = state(1);
        assert!(!memo.probe(0b11, &s));
        memo.insert(0b11, &s, 1);
        assert!(memo.probe(0b11, &s));
        assert!(!memo.probe(0b01, &s), "mask is part of the key");
        assert_eq!(memo.resident(), 1);
        assert_eq!(memo.evictions(), 0);
        assert_eq!(memo.capacity(), None);
    }

    #[test]
    fn capacity_bounds_resident_entries() {
        let mut memo = ShardedMemo::new(Some(8));
        for i in 0..100 {
            memo.insert(1 << (i % 60), &state(i), 1);
        }
        assert!(
            memo.resident() <= 8,
            "resident {} exceeds cap",
            memo.resident()
        );
        assert!(memo.evictions() >= 92);
        assert_eq!(memo.capacity(), Some(8));
    }

    #[test]
    fn tiny_capacity_still_works() {
        let mut memo = ShardedMemo::new(Some(1));
        memo.insert(1, &state(1), 1);
        memo.insert(2, &state(2), 1);
        assert_eq!(memo.resident(), 1);
        assert_eq!(memo.evictions(), 1);
    }

    #[test]
    fn expensive_entries_survive_cheap_floods() {
        // The point of cost segmentation: a dead end that took thousands
        // of nodes to establish is never displaced by a flood of cost-1
        // leaf dead ends — the failure mode that makes plain LRU (and
        // depth-priority eviction) catastrophic for DFS backtracking.
        let mut memo = ShardedMemo::new(Some(64));
        let expensive = state(-7);
        memo.insert(0b1, &expensive, 10_000);
        for i in 0..400 {
            memo.insert(deep_mask(40), &state(i), 1);
        }
        assert!(
            memo.probe(0b1, &expensive),
            "expensive entry evicted by a cheap flood"
        );
        assert!(memo.resident() <= 64);
        assert!(memo.evictions() > 0);
    }

    #[test]
    fn within_a_segment_eviction_is_lru() {
        // Recently probed entries outlive unprobed ones of the SAME cost
        // bucket: the hot entry is touched between every equal-cost cold
        // insert, keeping it at the warm end of its segment's queue.
        let mut memo = ShardedMemo::new(Some(64));
        let hot = state(-1);
        memo.insert(deep_mask(10), &hot, 8);
        for i in 0..400 {
            memo.insert(deep_mask(9) | 1 << (10 + i % 50), &state(i), 8);
            assert!(
                memo.probe(deep_mask(10), &hot),
                "hot same-cost entry evicted after {i} inserts"
            );
        }
        assert!(memo.resident() <= 64);
    }

    #[test]
    fn retain_placing_drops_exactly_the_unplacing_masks() {
        let mut memo = ShardedMemo::new(Some(32));
        for i in 0..16 {
            memo.insert(i, &state(i as i64), 1);
        }
        memo.retain_placing(0b100);
        for i in 0..16u64 {
            assert_eq!(
                memo.probe(i, &state(i as i64)),
                i & 0b100 != 0,
                "mask {i:#b}"
            );
        }
        // Queues were scrubbed: inserting past capacity still works.
        for i in 100..200 {
            memo.insert(0b100, &state(i), 1);
        }
        assert!(memo.resident() <= 32);
    }

    #[test]
    fn clear_empties_everything() {
        let mut memo = ShardedMemo::new(Some(16));
        for i in 0..10 {
            memo.insert(i, &state(i as i64), 1);
        }
        memo.clear();
        assert_eq!(memo.resident(), 0);
        for i in 0..10 {
            assert!(!memo.probe(i, &state(i as i64)));
        }
    }

    #[test]
    fn eviction_counter_is_monotone_and_capacity_rounds_down() {
        // Small capacities collapse to one shard (per-shard caps below ~32
        // would let inter-shard skew evict live working-set entries).
        let mut memo = ShardedMemo::new(Some(20));
        assert_eq!(memo.capacity(), Some(20));
        // Larger capacities shard, rounding the total down to a multiple
        // of the shard count — never above the configured bound.
        for (configured, enforced) in [(64, 64), (100, 100), (1000, 992), (2050, 2048)] {
            let m = ShardedMemo::new(Some(configured));
            assert_eq!(m.capacity(), Some(enforced), "configured {configured}");
            assert!(enforced <= configured);
        }
        let mut last = 0;
        for i in 0..50 {
            memo.insert(1 << (i % 50), &state(i), 1);
            let now = memo.evictions();
            assert!(now >= last);
            last = now;
        }
        assert!(memo.resident() <= 20);
    }

    #[test]
    fn set_capacity_shrink_evicts_down_and_growth_stops_evicting() {
        let mut memo = ShardedMemo::new(Some(64));
        for i in 0..60 {
            memo.insert(1 << (i % 60), &state(i), (i as usize) % 9 + 1);
        }
        let before = memo.resident();
        assert!(before > 16, "resident {before}");
        memo.set_capacity(Some(16));
        assert!(memo.resident() <= 16, "resident {}", memo.resident());
        assert_eq!(memo.capacity(), Some(16));
        assert!(memo.evictions() >= before - 16);
        // Growing back: the survivors stay, new inserts stop evicting.
        memo.set_capacity(Some(1000));
        let survivors = memo.resident();
        for i in 100..140 {
            memo.insert(1 << (i % 60), &state(i), 1);
        }
        assert!(memo.resident() >= survivors);
        assert!(memo.resident() <= 1000);
    }

    #[test]
    fn set_capacity_from_unbounded_clears_then_bounds() {
        // Unbounded inserts carry no queue records, so the eviction queues
        // cannot reach them: the transition clears (sound — entries are
        // pure pruning) and the bound holds for everything inserted after.
        let mut memo = ShardedMemo::new(None);
        for i in 0..50 {
            memo.insert(1 << (i % 50), &state(i), 1);
        }
        assert_eq!(memo.resident(), 50);
        memo.set_capacity(Some(8));
        assert_eq!(memo.resident(), 0);
        // The unbounded table was built with the full shard count, so the
        // enforced bound floors at one entry per shard.
        let enforced = memo.capacity().unwrap();
        assert!(enforced >= 8);
        for i in 0..100 {
            memo.insert(1 << (i % 50), &state(i), 1);
        }
        assert!(memo.resident() <= enforced, "resident {}", memo.resident());
        // Bounded → unbounded → bounded again also re-clears.
        memo.set_capacity(None);
        assert_eq!(memo.capacity(), None);
        for i in 200..260 {
            memo.insert(1 << (i % 50), &state(i), 1);
        }
        let unbounded_resident = memo.resident();
        memo.set_capacity(Some(4));
        assert_eq!(memo.resident(), 0);
        assert!(unbounded_resident > 8);
    }

    #[test]
    fn colliding_fingerprints_stay_distinct_entries() {
        // The fingerprint picks the shard and pre-filters; equality of the
        // entry lists decides a hit. Two distinct states forced to the same
        // fingerprint are two dead ends, not one.
        let mut memo = ShardedMemo::new(None);
        let a = SlotStates::from_entries([(0, Value::Int(1), 0xfeed)]);
        let b = SlotStates::from_entries([(0, Value::Int(2), 0xfeed)]);
        let c = SlotStates::from_entries([(0, Value::Int(1), 0x0f0f), (3, Value::Int(5), 0xf1e2)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());
        memo.insert(0b1, &a, 1);
        assert!(memo.probe(0b1, &a));
        assert!(!memo.probe(0b1, &b), "a colliding state is not a hit");
        assert!(!memo.probe(0b1, &c), "a colliding state is not a hit");
        memo.insert(0b1, &b, 1);
        memo.insert(0b1, &c, 1);
        assert_eq!(memo.resident(), 3);
        assert!(memo.probe(0b1, &a) && memo.probe(0b1, &b) && memo.probe(0b1, &c));
    }
}
