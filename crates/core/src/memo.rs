//! The dead-end memo table of the serialization search: one flat,
//! optionally capacity-bounded table per session from
//! `(placed-set mask, canonical states of the live objects)` to "this
//! frontier is a dead end".
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
//! It depends, moreover, only on the objects those unplaced transactions
//! have completed operations on, the *live* objects: no later placement
//! reads or writes any other. So the key holds only the live part of
//! `states` (a [`LiveView`], lent by the search without a copy), and a
//! dead end recorded with one value of a dead object also prunes every
//! sibling frontier that differs from it in dead objects only. An entry's
//! live set must not grow while it stays in the table; the search's
//! invalidation rules guarantee that (`crate::search`, "Keys on live
//! objects").
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
//! unsound after new events must go — and they apply to every entry
//! whatever its shard or segment: [`ShardedMemo::retain_placing`] and
//! [`ShardedMemo::clear`] are the resumable core's `retain`/`clear`.
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
//! ## Layout, fingerprints, and shards
//!
//! The table is flat: a `Vec` of records (mask, fingerprint, arena range,
//! shard, stamp, cost bucket, collision link), a chunked arena of the
//! 8-byte `(slot, value id)` pairs of each entry's live objects (see
//! `crate::state`: the values themselves are interned once per session),
//! and one index from `(mask, fingerprint)` to the newest record with that
//! key, whose link chains the older ones. An
//! insert appends to the arena's last chunk (a new chunk when the pairs do
//! not fit, never a reallocation) and pushes a record; a probe is one index
//! lookup and a chain walk comparing pairs in place. Evicted and
//! invalidated records stay as tombstones until they outnumber live ones;
//! one pass then compacts records and arena. When the session renumbers
//! its value ids, [`ShardedMemo::mark_ids`] reports the ids the live
//! records hold and [`ShardedMemo::renumber`] rewrites them; a tombstone's
//! pairs are never compared again, so they are left as they are.
//!
//! The fingerprint (the XOR of one `DefaultHasher` digest of
//! `(object, value)` per non-initial live object) mixed with the mask
//! picks a record's shard. A shard is only a number on the record that
//! partitions eviction: each has its own cap, clock and cost segments. So
//! the fingerprint's bits — and the shard count — decide what a bounded
//! table evicts, and with it node counts. On the phased contention-knot
//! check `tests/knot_workloads.rs` pins, a table capped at a quarter of its
//! unbounded peak (75 entries, 2 shards) spends 483 nodes against 460
//! unbounded; the same cap on a single shard spent 1 145
//! (+149 %). At half the peak the shard count moved nothing material.
//! That workload runs on one register, which its final read keeps live at
//! every frontier, so keying on live objects left both figures as they
//! were; on the chained knots it cut the unbounded 5 × 3 check from 3 147
//! nodes to 339.
//!
//! The fingerprint is only a pre-filter. The index hashes it with its own
//! `RandomState` (the values behind it come from clients), and a hit is
//! decided by equality of the pairs, so two distinct states with colliding
//! fingerprints stay two entries.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::state::LiveView;

/// Default shard count (a power of two; also the upper bound when the
/// configured capacity is smaller).
const DEFAULT_SHARDS: usize = 16;

/// The end of a collision chain.
const NIL: u32 = u32::MAX;

/// The largest arena chunk, in pairs (16 KiB). Chunks double from 16 up to
/// it, and pairs that do not fit in the last chunk's spare capacity open a
/// new one, so the arena never reallocates and wastes less than one chunk.
const MAX_CHUNK: usize = 2048;

/// The chunks of the doubling series, from 16 pairs up to [`MAX_CHUNK`]:
/// the chunk list is made with room for them all.
const DOUBLING_CHUNKS: usize = (MAX_CHUNK / 16).trailing_zeros() as usize + 1;

/// One memoized dead end, or (`live` false) its tombstone.
struct Record {
    mask: u64,
    fingerprint: u64,
    /// Per-shard clock value of the record's current queue reference.
    stamp: u64,
    /// The `(slot, id)` pairs: `len` from `start` in arena chunk `chunk`.
    chunk: u32,
    start: u32,
    len: u32,
    /// The next older record with the same `(mask, fingerprint)`, or NIL.
    next: u32,
    shard: u8,
    /// Cost segment: log₂ of the subtree nodes it took to establish this
    /// dead end (recency touches re-enqueue into the same segment).
    bucket: u8,
    live: bool,
}

/// A queued `(record id, stamp)`, current iff the record is live with
/// that stamp. Queues are lazy: a recency touch or a tombstone leaves the
/// previous reference stale, skipped when popped and dropped by compaction.
type QueueRef = (u32, u64);

/// The records' pairs, in chunks that never move.
#[derive(Default)]
struct Arena {
    chunks: Vec<Vec<(u32, u32)>>,
}

impl Arena {
    /// The pairs of record `r`.
    fn pairs(&self, r: &Record) -> &[(u32, u32)] {
        &self.chunks[r.chunk as usize][r.start as usize..][..r.len as usize]
    }

    /// The live record of exactly the entries of `key` in the collision
    /// chain from `id`, or NIL.
    fn find(&self, records: &[Record], mut id: u32, key: LiveView<'_>) -> u32 {
        while let Some(r) = records.get(id as usize) {
            if r.live
                && r.len as usize == key.len()
                && self.pairs(r).iter().copied().eq(key.entries())
            {
                break;
            }
            id = r.next;
        }
        id
    }

    /// Appends `key`'s pairs, returning their `(chunk, start)`.
    fn push(&mut self, key: LiveView<'_>) -> (u32, u32) {
        let n = key.len();
        let room = self.chunks.last().map(|c| c.capacity() - c.len());
        if room.map_or(true, |room| room < n) {
            let cap = self.chunks.last().map_or(0, Vec::capacity);
            if self.chunks.is_empty() {
                self.chunks.reserve(DOUBLING_CHUNKS);
            }
            let chunk = Vec::with_capacity((2 * cap).clamp(16, MAX_CHUNK).max(n));
            self.chunks.push(chunk);
        }
        let last = self.chunks.len() - 1;
        let start = self.chunks[last].len();
        self.chunks[last].extend(key.entries());
        (last as u32, start as u32)
    }
}

/// The eviction state of one shard.
#[derive(Default)]
struct Shard {
    /// Live records in this shard.
    len: usize,
    /// Per-shard LRU clock.
    clock: u64,
    /// Cost segments: bucket → LRU queue (least-recent first). Eviction
    /// pops from the first (cheapest) populated segment.
    segments: BTreeMap<u8, VecDeque<QueueRef>>,
}

/// The dead-end table of one search session.
#[derive(Default)]
pub(crate) struct ShardedMemo {
    records: Vec<Record>,
    arena: Arena,
    /// `(mask, fingerprint)` → the newest record with that key.
    index: HashMap<(u64, u64), u32>,
    shards: Vec<Shard>,
    /// Live records; the rest of `records` are tombstones.
    live: usize,
    /// Stale queue references made since the last compaction.
    stale: usize,
    /// Per-shard entry cap; `usize::MAX` = unbounded (no queue bookkeeping).
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
            None => (DEFAULT_SHARDS, usize::MAX),
            Some(cap) => {
                let cap = cap.max(1);
                // Power-of-two shard count, keeping every shard at ≥ 32
                // entries: skew between shards wastes a fixed number of
                // slots per shard, so tiny per-shard caps would evict live
                // working-set entries while other shards sit below cap.
                let nshards = DEFAULT_SHARDS
                    .min(1usize << (usize::BITS - 1 - (cap / 32).max(1).leading_zeros()));
                (nshards, cap / nshards)
            }
        };
        ShardedMemo {
            shards: (0..nshards).map(|_| Shard::default()).collect(),
            per_shard_cap,
            ..ShardedMemo::default()
        }
    }

    /// Retunes the capacity bound of a live table (`None` = unbounded).
    ///
    /// The shard count is fixed at construction, so the per-shard cap is
    /// `capacity / shards` floored to 1: the enforced bound never drops
    /// below one entry per shard. Sound in both directions because entries
    /// are pure pruning: shrinking evicts down to the new bound by the
    /// normal policy; growing stops evicting; bounded → unbounded leaves
    /// the queue references to go stale. Entries inserted while unbounded
    /// have no queue references, so unbounded → bounded clears the table
    /// (a re-discovery cost, never a verdict change).
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        let cap = capacity.map_or(usize::MAX, |c| (c.max(1) / self.shards.len()).max(1));
        let old = std::mem::replace(&mut self.per_shard_cap, cap);
        if old == usize::MAX && cap != usize::MAX {
            self.clear();
        }
        (0..self.shards.len()).for_each(|s| self.evict_down(s));
    }

    /// Is `(mask, states)` a recorded dead end? One index lookup, then a
    /// walk of the collision chain. Under a capacity bound a hit refreshes
    /// the entry's recency within its cost segment — an entry that keeps
    /// pruning stays at the warm end of its segment.
    pub(crate) fn probe(&mut self, mask: u64, key: LiveView<'_>) -> bool {
        let head = *self.index.get(&(mask, key.fingerprint())).unwrap_or(&NIL);
        let id = self.arena.find(&self.records, head, key);
        if id != NIL && self.per_shard_cap != usize::MAX {
            self.stale += 1; // the previous queue reference
            self.touch(id);
            self.maybe_compact();
        }
        id != NIL
    }

    /// Stamps record `id` as just touched and enqueues it in its segment.
    fn touch(&mut self, id: u32) {
        let r = &mut self.records[id as usize];
        let sh = &mut self.shards[r.shard as usize];
        sh.clock += 1;
        r.stamp = sh.clock;
        let queue = sh.segments.entry(r.bucket).or_default();
        queue.push_back((id, r.stamp));
    }

    /// Records `(mask, states)` as a dead end established by exploring
    /// `cost` DFS nodes (idempotent — a duplicate insert is ignored).
    /// Evicts per the cost-segmented-LRU policy when the shard is at
    /// capacity.
    pub(crate) fn insert(&mut self, mask: u64, key: LiveView<'_>, cost: usize) {
        let fingerprint = key.fingerprint();
        let head = self.index.entry((mask, fingerprint)).or_insert(NIL);
        if self.arena.find(&self.records, *head, key) != NIL {
            return;
        }
        let id = self.records.len() as u32;
        let next = std::mem::replace(head, id);
        // Mix the placed-set mask into the states fingerprint so frontiers
        // sharing a state (common: many masks, few reachable states) still
        // spread across shards.
        let spread = fingerprint ^ mask.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let shard = (spread as usize) & (self.shards.len() - 1);
        let (chunk, start) = self.arena.push(key);
        self.records.push(Record {
            mask,
            fingerprint,
            stamp: 0,
            chunk,
            start,
            len: key.len() as u32,
            next,
            shard: shard as u8,
            bucket: (usize::BITS - cost.max(1).leading_zeros()) as u8, // ⌊log₂⌋ + 1
            live: true,
        });
        self.shards[shard].len += 1;
        self.live += 1;
        if self.per_shard_cap != usize::MAX {
            self.touch(id);
            self.evict_down(shard);
        }
    }

    /// Evicts the least-recently-touched live records of the cheapest
    /// populated segments of shard `s` until it is down to the cap. A
    /// victim becomes a tombstone, left in its collision chain.
    fn evict_down(&mut self, s: usize) {
        let sh = &mut self.shards[s];
        while sh.len > self.per_shard_cap {
            let Some(mut cheapest) = sh.segments.first_entry() else {
                break; // unreachable with len > 0; defensive
            };
            let popped = cheapest.get_mut().pop_front();
            if cheapest.get().is_empty() {
                cheapest.remove();
            }
            let r = popped.map(|(id, stamp)| (&mut self.records[id as usize], stamp));
            if let Some((r, _)) = r.filter(|(r, stamp)| r.live && r.stamp == *stamp) {
                r.live = false;
                sh.len -= 1;
                self.live -= 1;
                self.evictions += 1;
            }
        }
        self.maybe_compact();
    }

    /// Compacts once tombstones and stale queue references outnumber live
    /// records. Live records keep their order, so their pairs move down in
    /// place (a record's new place is never after its old one); the index
    /// and the chains are rebuilt, and the queues keep their current
    /// references under the new ids.
    fn maybe_compact(&mut self) {
        if self.records.len() - self.live + self.stale <= self.live + 32 {
            return;
        }
        let mut remap = vec![NIL; self.records.len()];
        let (mut kept, mut chunk, mut end) = (0, 0, 0);
        let chunks = &mut self.arena.chunks;
        for (old, r) in self.records.iter_mut().enumerate().filter(|(_, r)| r.live) {
            remap[old] = kept;
            kept += 1;
            // Pairs that do not fit behind the last ones moved live in a
            // later chunk, so everything before them is settled.
            while chunks[chunk].len() - end < r.len as usize {
                chunks[chunk].truncate(end);
                (chunk, end) = (chunk + 1, 0);
            }
            for i in 0..r.len as usize {
                chunks[chunk][end + i] = chunks[r.chunk as usize][r.start as usize + i];
            }
            (r.chunk, r.start) = (chunk as u32, end as u32);
            end += r.len as usize;
        }
        if let Some(last) = chunks.get_mut(chunk) {
            last.truncate(end);
        }
        chunks.truncate(chunk + 1);
        self.records.retain(|r| r.live);
        let index = &mut self.index;
        index.clear();
        for (id, r) in self.records.iter_mut().enumerate() {
            let key = (r.mask, r.fingerprint);
            r.next = index.insert(key, id as u32).unwrap_or(NIL);
        }
        for sh in &mut self.shards {
            sh.segments.retain(|_, q| {
                q.retain_mut(|(id, stamp)| {
                    *id = remap[*id as usize];
                    *id != NIL && self.records[*id as usize].stamp == *stamp
                });
                !q.is_empty()
            });
        }
        self.stale = 0;
    }

    /// Drops every entry whose placed-set does **not** contain `bit` — the
    /// resumable core's invalidation rule for a new operation or a `tryC`
    /// widening of the transaction owning `bit` (entries that already
    /// placed the transaction only claim things about the others, so they
    /// stay). The index is filtered in place; the dropped records become
    /// tombstones.
    pub(crate) fn retain_placing(&mut self, bit: u64) {
        let (records, shards, live) = (&mut self.records, &mut self.shards, &mut self.live);
        self.index.retain(|&(mask, _), &mut head| {
            let mut at = head;
            while mask & bit == 0 && at != NIL {
                let r = &mut records[at as usize];
                if std::mem::replace(&mut r.live, false) {
                    shards[r.shard as usize].len -= 1;
                    *live -= 1;
                }
                at = r.next;
            }
            mask & bit != 0
        });
        self.maybe_compact();
    }

    /// Drops every entry (the committed-only re-selection rule).
    pub(crate) fn clear(&mut self) {
        self.records.clear();
        self.arena.chunks.clear();
        self.index.clear();
        (self.live, self.stale) = (0, 0);
        self.shards.iter_mut().for_each(|sh| *sh = Shard::default());
    }

    /// Sets `marks[id]` to 0 for every value id a live record holds.
    pub(crate) fn mark_ids(&self, marks: &mut [u32]) {
        for r in self.records.iter().filter(|r| r.live) {
            let pairs = self.arena.pairs(r);
            pairs.iter().for_each(|&(_, id)| marks[id as usize] = 0);
        }
    }

    /// Rewrites every value id a live record holds through `remap`. The
    /// ids keep their hashes, so fingerprints, the index and the shards
    /// stay as they are.
    pub(crate) fn renumber(&mut self, remap: &[u32]) {
        for r in self.records.iter().filter(|r| r.live) {
            let chunk = &mut self.arena.chunks[r.chunk as usize];
            for (_, id) in &mut chunk[r.start as usize..][..r.len as usize] {
                *id = remap[*id as usize];
            }
        }
    }

    /// Resident entries across all shards.
    pub(crate) fn resident(&self) -> usize {
        self.live
    }

    /// Total entries evicted by the capacity bound since creation
    /// (monotone; invalidation drops are not evictions).
    pub(crate) fn evictions(&self) -> usize {
        self.evictions
    }

    /// The total capacity actually enforced (shard count × per-shard cap);
    /// `None` when unbounded. At most the configured capacity when set at
    /// construction; [`ShardedMemo::set_capacity`] floors it at one entry
    /// per shard.
    pub(crate) fn capacity(&self) -> Option<usize> {
        (self.per_shard_cap != usize::MAX).then(|| self.per_shard_cap * self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SlotStates;
    use proptest::prelude::*;
    use std::hash::{Hash, Hasher};
    use tm_model::{ObjId, Value};

    /// The state with object `x` (slot 0) at `n` (`n` > -100), with its
    /// real entry hash and the id `n + 100`.
    fn state(n: i64) -> SlotStates {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        ObjId::new("x").hash(&mut h);
        Value::Int(n).hash(&mut h);
        SlotStates::from_entries([(0, (n + 100) as u32, h.finish())])
    }

    /// Every test slot used by every transaction.
    const ALL_USED: &[u64] = &[u64::MAX; 4];

    /// The whole of `states` as a key.
    fn all(states: &SlotStates) -> LiveView<'_> {
        states.live(ALL_USED, 1)
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
        assert!(!memo.probe(0b11, all(&s)));
        memo.insert(0b11, all(&s), 1);
        assert!(memo.probe(0b11, all(&s)));
        assert!(!memo.probe(0b01, all(&s)), "mask is part of the key");
        assert_eq!(memo.resident(), 1);
        assert_eq!(memo.evictions(), 0);
        assert_eq!(memo.capacity(), None);
    }

    #[test]
    fn a_key_holds_only_the_slots_an_open_transaction_uses() {
        // Slot 0 is used by bit 0 only, slot 1 by bit 1 only. With bit 1
        // open, states that differ only in slot 0 share one key.
        let users = [0b01, 0b10];
        let a = SlotStates::from_entries([(0, 1, 0xa), (1, 5, 0xb)]);
        let b = SlotStates::from_entries([(0, 2, 0xc), (1, 5, 0xb)]);
        let c = SlotStates::from_entries([(1, 5, 0xb)]);
        let d = SlotStates::from_entries([(0, 1, 0xa), (1, 6, 0xd)]);
        let mut memo = ShardedMemo::new(None);
        memo.insert(0b01, a.live(&users, 0b10), 1);
        assert_eq!(a.live(&users, 0b10).fingerprint(), 0xb);
        assert!(memo.probe(0b01, b.live(&users, 0b10)));
        assert!(memo.probe(0b01, c.live(&users, 0b10)));
        assert!(
            !memo.probe(0b01, d.live(&users, 0b10)),
            "a live slot differs"
        );
        // With bit 0 open too, slot 0 is part of the key again.
        memo.insert(0, a.live(&users, 0b11), 1);
        assert!(memo.probe(0, a.live(&users, 0b11)));
        assert!(!memo.probe(0, b.live(&users, 0b11)), "a live slot differs");
        // A slot past the users table has no users.
        assert_eq!(c.live(&users[..1], 0b11).len(), 0);
    }

    #[test]
    fn capacity_bounds_resident_entries() {
        let mut memo = ShardedMemo::new(Some(8));
        for i in 0..100 {
            memo.insert(1 << (i % 60), all(&state(i)), 1);
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
        memo.insert(1, all(&state(1)), 1);
        memo.insert(2, all(&state(2)), 1);
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
        memo.insert(0b1, all(&expensive), 10_000);
        for i in 0..400 {
            memo.insert(deep_mask(40), all(&state(i)), 1);
        }
        assert!(
            memo.probe(0b1, all(&expensive)),
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
        memo.insert(deep_mask(10), all(&hot), 8);
        for i in 0..400 {
            memo.insert(deep_mask(9) | 1 << (10 + i % 50), all(&state(i)), 8);
            assert!(
                memo.probe(deep_mask(10), all(&hot)),
                "hot same-cost entry evicted after {i} inserts"
            );
        }
        assert!(memo.resident() <= 64);
    }

    #[test]
    fn retain_placing_drops_exactly_the_unplacing_masks() {
        let mut memo = ShardedMemo::new(Some(32));
        for i in 0..16 {
            memo.insert(i, all(&state(i as i64)), 1);
        }
        memo.retain_placing(0b100);
        for i in 0..16u64 {
            assert_eq!(
                memo.probe(i, all(&state(i as i64))),
                i & 0b100 != 0,
                "mask {i:#b}"
            );
        }
        // Invalidated records left stale queue references behind; eviction
        // skips them, so inserting past capacity still works.
        for i in 100..200 {
            memo.insert(0b100, all(&state(i)), 1);
        }
        assert!(memo.resident() <= 32);
    }

    #[test]
    fn clear_empties_everything() {
        let mut memo = ShardedMemo::new(Some(16));
        for i in 0..10 {
            memo.insert(i, all(&state(i as i64)), 1);
        }
        memo.clear();
        assert_eq!(memo.resident(), 0);
        for i in 0..10 {
            assert!(!memo.probe(i, all(&state(i as i64))));
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
            memo.insert(1 << (i % 50), all(&state(i)), 1);
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
            memo.insert(1 << (i % 60), all(&state(i)), (i as usize) % 9 + 1);
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
            memo.insert(1 << (i % 60), all(&state(i)), 1);
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
            memo.insert(1 << (i % 50), all(&state(i)), 1);
        }
        assert_eq!(memo.resident(), 50);
        memo.set_capacity(Some(8));
        assert_eq!(memo.resident(), 0);
        // The unbounded table was built with the full shard count, so the
        // enforced bound floors at one entry per shard.
        let enforced = memo.capacity().unwrap();
        assert!(enforced >= 8);
        for i in 0..100 {
            memo.insert(1 << (i % 50), all(&state(i)), 1);
        }
        assert!(memo.resident() <= enforced, "resident {}", memo.resident());
        // Bounded → unbounded → bounded again also re-clears.
        memo.set_capacity(None);
        assert_eq!(memo.capacity(), None);
        for i in 200..260 {
            memo.insert(1 << (i % 50), all(&state(i)), 1);
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
        let a = SlotStates::from_entries([(0, 1, 0xfeed)]);
        let b = SlotStates::from_entries([(0, 2, 0xfeed)]);
        let c = SlotStates::from_entries([(0, 1, 0x0f0f), (3, 5, 0xf1e2)]);
        assert_eq!(all(&a).fingerprint(), all(&b).fingerprint());
        assert_eq!(all(&a).fingerprint(), all(&c).fingerprint());
        memo.insert(0b1, all(&a), 1);
        assert!(memo.probe(0b1, all(&a)));
        assert!(!memo.probe(0b1, all(&b)), "a colliding state is not a hit");
        assert!(!memo.probe(0b1, all(&c)), "a colliding state is not a hit");
        memo.insert(0b1, all(&b), 1);
        memo.insert(0b1, all(&c), 1);
        assert_eq!(memo.resident(), 3);
        assert!(memo.probe(0b1, all(&a)) && memo.probe(0b1, all(&b)) && memo.probe(0b1, all(&c)));
    }

    /// State `i` of the proptest pool (`i` < 65): one or two entries of
    /// ids below 8, or none, with hand-forced fingerprints drawn from two
    /// hashes, so that most masks hold chains of colliding states. An id's
    /// hash is fixed by its parity.
    fn pooled(i: u8) -> SlotStates {
        let (a, b) = (u32::from(i % 8), u32::from(i / 8));
        match i {
            64 => from_pairs(&[]),
            _ if b == 0 => from_pairs(&[(0, a)]),
            _ => from_pairs(&[(0, a), (1, b)]),
        }
    }

    /// The state of these `(slot, id)` pairs, each id hashing by parity.
    fn from_pairs(pairs: &[(u32, u32)]) -> SlotStates {
        SlotStates::from_entries(pairs.iter().map(|&(slot, id)| (slot, id, 1u64 << (id % 2))))
    }

    /// The key of the reference model.
    fn model_key(mask: u64, states: &SlotStates) -> (u64, Vec<(u32, u32)>) {
        (mask, all(states).entries().collect())
    }

    /// A renumbering of the pool's ids that keeps each id's hash: ids move
    /// by two, within their parity.
    const ROTATE: [u32; 8] = [2, 3, 4, 5, 6, 7, 0, 1];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert / probe / `retain_placing` / `clear` /
        /// `set_capacity` / `renumber` sequences against a set of
        /// `(mask, (slot, id) pairs)`.
        /// While the table has been unbounded since it was last emptied,
        /// a probe hits exactly the model's members and the resident count
        /// is the model's size; otherwise every hit is a live member, the
        /// resident count stays within the enforced capacity, an insert
        /// evicts at most the one entry it displaces (and none while a
        /// one-shard table has room), and the eviction count never
        /// decreases. While exact, `mark_ids` marks exactly the ids of the
        /// model's members. In the end, probing every member hits exactly
        /// the resident entries.
        #[test]
        fn memo_agrees_with_a_reference_set(
            initial in 0usize..5,
            ops in collection::vec((0u8..64, 0u64..8, 0u8..65, 1usize..300), 1..400),
        ) {
            let capacity = |c: usize| [None, Some(1), Some(3), Some(8), Some(40)][c % 5];
            let mut memo = ShardedMemo::new(capacity(initial));
            let mut model = std::collections::HashSet::new();
            let mut exact = memo.capacity().is_none();
            let mut evictions = 0;
            for &(op, mask, i, cost) in &ops {
                let states = pooled(i);
                match op {
                    0..=29 => {
                        let (before, evicted) = (memo.resident(), memo.evictions());
                        let room = memo.shards.len() == 1
                            && memo.capacity().is_some_and(|cap| before < cap);
                        memo.insert(mask, all(&states), cost);
                        prop_assert!(memo.resident() >= before, "an insert evicted two");
                        prop_assert!(!room || memo.evictions() == evicted, "evicted with room");
                        model.insert(model_key(mask, &states));
                    }
                    30..=57 => {
                        let hit = memo.probe(mask, all(&states));
                        let member = model.contains(&model_key(mask, &states));
                        if exact {
                            prop_assert_eq!(hit, member);
                        } else {
                            prop_assert!(member || !hit, "hit on a non-member");
                        }
                    }
                    58..=60 => {
                        let bit = 1 << (mask % 3);
                        memo.retain_placing(bit);
                        model.retain(|(m, _)| m & bit != 0);
                    }
                    61 => {
                        memo.renumber(&ROTATE);
                        model = model
                            .into_iter()
                            .map(|(m, pairs)| {
                                (m, pairs.into_iter().map(|(s, id)| (s, ROTATE[id as usize])).collect())
                            })
                            .collect();
                    }
                    62 => {
                        memo.clear();
                        model.clear();
                        exact = memo.capacity().is_none();
                    }
                    _ => {
                        let was_unbounded = memo.capacity().is_none();
                        memo.set_capacity(capacity(cost));
                        if was_unbounded && memo.capacity().is_some() {
                            prop_assert_eq!(memo.resident(), 0);
                            model.clear();
                        }
                        exact &= memo.capacity().is_none();
                    }
                }
                if exact {
                    prop_assert_eq!(memo.resident(), model.len());
                    let mut marks = [NIL; 8];
                    memo.mark_ids(&mut marks);
                    let mut expected = [NIL; 8];
                    for (_, pairs) in &model {
                        pairs.iter().for_each(|&(_, id)| expected[id as usize] = 0);
                    }
                    prop_assert_eq!(marks, expected);
                }
                prop_assert!(memo.resident() <= model.len());
                if let Some(cap) = memo.capacity() {
                    prop_assert!(memo.resident() <= cap, "{} > {}", memo.resident(), cap);
                }
                prop_assert!(memo.evictions() >= evictions);
                evictions = memo.evictions();
            }
            let resident = memo.resident();
            let members: Vec<(u64, SlotStates)> = model
                .iter()
                .map(|(mask, pairs)| (*mask, from_pairs(pairs)))
                .collect();
            let hits = members.iter().filter(|(mask, states)| memo.probe(*mask, all(states))).count();
            prop_assert_eq!(hits, resident);
        }
    }
}
