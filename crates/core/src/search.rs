//! The serialization-search engine shared by all history-level checkers.
//!
//! Definition 1 (and its weakenings in Section 3) all have the same shape:
//! *does there exist a sequential history `S`, equivalent to (a completion
//! of / the committed projection of) `H`, that preserves (optionally) the
//! real-time order of `H` and in which every transaction is legal?*
//!
//! The engine performs a depth-first search over placements of transactions
//! into the sequential order `S`, one at a time:
//!
//! * a transaction may be placed only when all its real-time predecessors
//!   (if real-time order is enforced) are already placed;
//! * placing a transaction requires its operations to replay legally against
//!   the object states produced by the *committed* transactions placed so
//!   far (this is exactly "legal in S": an aborted transaction is validated
//!   against the committed prefix but does not contribute effects);
//! * a commit-pending transaction may be placed either as committed or as
//!   aborted — which folds the choice of a member of `Complete(H)` into the
//!   search;
//! * dead ends are memoized on `(set of placed transactions, canonical
//!   object states)`, which prunes the factorial search to the number of
//!   distinct reachable states.
//!
//! ## The resumable core
//!
//! The engine is a **[`SearchCore`]**: a persistent structure fed one event
//! at a time ([`SearchCore::extend`]) and queried for a verdict on the
//! history seen so far ([`SearchCore::check`]). Three things survive across
//! checks and make the online monitor asymptotically cheaper than
//! re-checking every prefix from scratch:
//!
//! 1. **Per-transaction metadata** (views, statuses, real-time predecessor
//!    masks) is maintained incrementally, so a check never re-scans the
//!    history;
//! 2. **The memo table of dead ends** is kept between checks and only
//!    selectively invalidated. Appending events can only *tighten* the
//!    search (ops accumulate, statuses narrow) except in two cases, which
//!    drop exactly the entries they can unsound: a completed operation or a
//!    `tryC` of transaction `t` drops the entries in which `t` was still
//!    unplaced (its new op / widened placement set could rescue those dead
//!    ends);
//! 3. **The previous witness** biases the DFS candidate order, so when the
//!    new events merely extend the old serialization — the common case — the
//!    check walks straight down the witness in `O(|H|)` replay work with no
//!    backtracking.
//!
//! Object states live in a core-private, slot-indexed representation
//! (`crate::state`). [`SearchCore::extend`] gives every object a dense slot
//! the first time one of its operations completes, resolving its
//! sequential specification, initial value, and name hash once, and
//! records each completed operation's slot beside the operation. The DFS
//! then mutates one canonical state **in place** — a slot-sorted list of
//! the non-initial `(slot, value, entry hash)` entries plus their XOR
//! fingerprint — and undoes placements from a log that keeps each
//! displaced entry's hash, so a placement and its rollback hash one value
//! per changed object and look nothing up by name. The only clone left is
//! the one that stores a dead end into the memo table, and [`SearchStats`]
//! reports both counts. Slots are never reused inside a core, so a memo
//! entry recorded before an object appeared (the object was then at its
//! initial state, which has no entry) still compares correctly against
//! every later state; equality of the entry lists, not the fingerprint,
//! decides a memo hit.
//!
//! ## The parallel, memory-bounded core
//!
//! Two knobs lift the engine from "one thread, unbounded table" to a core
//! that exploits the machine and respects a memory budget:
//!
//! * **[`SearchConfig::search_jobs`]** drives a check with a work-stealing
//!   pool of scoped threads (`crate::steal`). The pool is seeded with the
//!   root placements — every first-level `(transaction, placement)`
//!   candidate is an independent subtree — and, because root fan-out can
//!   be as low as 1 (realtime-chained histories), workers also **split
//!   dynamically**: a worker whose DFS holds untried sibling branches
//!   within the [`SearchConfig::split_depth`] window donates the coldest
//!   of them the moment another worker goes hungry. A donated task carries
//!   the `(bit, placement)` path to its branch — a reconstruction recipe
//!   the thief replays in place, not a state clone — and the thief can
//!   recursively split its own shallow frames, so deep chained searches
//!   keep every worker busy. Workers share the dead-end memo through a
//!   fingerprint-sharded concurrent table (`crate::memo`), a found witness
//!   raises a cancellation flag that stops the remaining workers, and the
//!   node cap is a *shared* budget while the `truncated` marker stays
//!   **per worker** — a worker whose exploration was cut short (by the cap
//!   or by cancellation) never inserts into the shared table, so one
//!   truncated subtree cannot poison the others; a frame that *donated* a
//!   branch likewise withholds its own (now non-exhaustive) dead end,
//!   while the donated branch is explored exhaustively by its thief before
//!   the pool can terminate. The *verdict* is identical to the sequential
//!   search (dead ends are path-independent facts and every subtree is
//!   explored exhaustively, by someone, unless the search is already
//!   decided); the witness may be a different valid serialization.
//!   Per-worker statistics (nodes, memo hits, steals, splits, donations,
//!   cancellations) are merged in worker-index order, so the aggregation
//!   itself is deterministic even though the per-worker split is
//!   scheduling-dependent.
//! * **[`SearchConfig::memo_capacity`]** bounds the resident dead-end
//!   entries with per-shard segmented-LRU eviction. Evicting a dead end is
//!   always sound — the entry is pure pruning, so the search can only
//!   re-pay the exploration that rediscovers it — and composes with the
//!   invalidation rules above, which remove entries regardless of segment.
//!   [`SearchStats::evictions`] reports the per-check eviction count.
//!   Eviction priority is *recompute cost* (see `crate::memo`): the
//!   entries that survive a tight budget are the ones whose loss would be
//!   expensive, so bounded tables degrade gracefully instead of thrashing.
//!
//! Opacity checking over arbitrary histories is NP-hard (it embeds
//! view-serializability), so the worst case is necessarily exponential; the
//! memoized search is nonetheless fast for the history sizes produced by
//! tests, the random-history cross-validation, and recorded STM executions.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::memo::ShardedMemo;
use crate::state::{ReplayError, Slot, SlotStates, SlotTable, Undo};
use crate::steal::StealQueues;
use tm_model::wellformed::WfError;
use tm_model::{Event, History, SpecRegistry, TxId, TxStatus, TxView};

/// How a transaction was placed in a serialization witness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Placed as a committed transaction (its effects fold into the state).
    Committed,
    /// Placed as an aborted transaction (validated, effects discarded).
    Aborted,
}

/// A successful serialization: the order in which transactions form the
/// equivalent sequential history `S`, with the decided status of each.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Witness {
    /// Transactions in serialization order with their placement decisions.
    pub order: Vec<(TxId, Placement)>,
}

impl Witness {
    /// The serialization order without placement decisions.
    pub fn tx_order(&self) -> Vec<TxId> {
        self.order.iter().map(|(t, _)| *t).collect()
    }

    /// The decision for `t`, if `t` was placed.
    pub fn placement_of(&self, t: TxId) -> Option<Placement> {
        self.order.iter().find(|(x, _)| *x == t).map(|(_, p)| *p)
    }
}

/// Hard errors that make a search impossible (as opposed to "not opaque").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The input history is not well-formed.
    NotWellFormed(tm_model::WfError),
    /// More transactions than the bitmask-based search supports.
    TooManyTransactions {
        /// Number of transactions found in the history.
        found: usize,
        /// Maximum supported by the engine.
        max: usize,
    },
    /// An operation targets an object with no sequential specification.
    NoSpec(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotWellFormed(e) => write!(f, "history not well-formed: {e}"),
            CheckError::TooManyTransactions { found, max } => {
                write!(f, "{found} transactions exceed engine limit of {max}")
            }
            CheckError::NoSpec(obj) => write!(f, "no sequential specification for {obj}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// What the search engine should look for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchMode {
    /// Include non-committed transactions (live/aborted/commit-pending) in
    /// `S` and require their legality. `true` for opacity; `false` for
    /// serializability-style criteria, which erase them.
    pub include_noncommitted: bool,
    /// Require `S` to preserve the real-time order `≺_H`.
    pub respect_real_time: bool,
}

impl SearchMode {
    /// The mode of Definition 1 (opacity).
    pub const OPACITY: SearchMode = SearchMode {
        include_noncommitted: true,
        respect_real_time: true,
    };
    /// Final-state serializability / global atomicity: committed only, any
    /// order.
    pub const SERIALIZABILITY: SearchMode = SearchMode {
        include_noncommitted: false,
        respect_real_time: false,
    };
    /// Strict serializability: committed only, real-time preserved.
    pub const STRICT_SERIALIZABILITY: SearchMode = SearchMode {
        include_noncommitted: false,
        respect_real_time: true,
    };
}

/// Statistics from a search, for the ablation benchmarks (E13).
///
/// Under a parallel check ([`SearchConfig::search_jobs`] > 1) the counters
/// are the sum of the per-worker counters, merged in worker-index order
/// (deterministic aggregation; the per-worker split itself depends on
/// scheduling).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// DFS nodes expanded.
    pub nodes: usize,
    /// Dead ends pruned by the memo table.
    pub memo_hits: usize,
    /// Placements rejected by legality replay.
    pub illegal_placements: usize,
    /// Object-state snapshots actually cloned (memo-table inserts — the
    /// only clones left in the engine).
    pub state_clones: usize,
    /// Object-state clones *avoided* by the in-place apply/undo replay: one
    /// per placement expansion and one per memo probe, each of which the
    /// pre-resumable engine paid with a full snapshot clone.
    pub clones_saved: usize,
    /// Tasks (root subtrees or donated branches) a worker took from
    /// another worker's deque.
    pub steals: usize,
    /// Donation events: times a worker split its DFS frontier because
    /// another worker was hungry (each event donates ≥ 1 task).
    pub splits: usize,
    /// Branches donated to the pool as stealable tasks by frontier splits.
    pub donated_tasks: usize,
    /// Tasks never explored because a witness was already found.
    pub cancelled_tasks: usize,
    /// Memo entries evicted by the capacity bound during this check.
    pub evictions: usize,
    /// Worker threads the check actually ran with (the *resolved* pool
    /// size — 1 for the sequential engine, and the effective count when
    /// `search_jobs = 0` asked for "auto"). Merged by maximum, not sum:
    /// it is a property of the pool, not a per-worker tally.
    pub workers: usize,
}

/// Number of monotone counter cells in [`SearchStats::counter_cells`].
const STAT_CELLS: usize = 10;

impl SearchStats {
    /// The monotone counters as one flat cell array (everything except
    /// [`SearchStats::workers`], which is not additive), in declaration
    /// order — the shape consumed by [`tm_obs::merge_counters`].
    fn counter_cells(&self) -> [u64; STAT_CELLS] {
        [
            self.nodes as u64,
            self.memo_hits as u64,
            self.illegal_placements as u64,
            self.state_clones as u64,
            self.clones_saved as u64,
            self.steals as u64,
            self.splits as u64,
            self.donated_tasks as u64,
            self.cancelled_tasks as u64,
            self.evictions as u64,
        ]
    }

    fn set_counter_cells(&mut self, cells: [u64; STAT_CELLS]) {
        self.nodes = cells[0] as usize;
        self.memo_hits = cells[1] as usize;
        self.illegal_placements = cells[2] as usize;
        self.state_clones = cells[3] as usize;
        self.clones_saved = cells[4] as usize;
        self.steals = cells[5] as usize;
        self.splits = cells[6] as usize;
        self.donated_tasks = cells[7] as usize;
        self.cancelled_tasks = cells[8] as usize;
        self.evictions = cells[9] as usize;
    }

    /// Accumulates `other` into `self` (used for lifetime totals and for
    /// the deterministic per-worker merge of parallel checks). The
    /// counters delegate to [`tm_obs::merge_counters`] — the workspace's
    /// one telemetry-merge implementation; `workers` merges by maximum.
    pub fn absorb(&mut self, other: &SearchStats) {
        let mut cells = self.counter_cells();
        tm_obs::merge_counters(&mut cells, &other.counter_cells());
        self.set_counter_cells(cells);
        self.workers = self.workers.max(other.workers);
    }
}

/// The outcome of a serialization search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// A witness if the history satisfies the criterion.
    pub witness: Option<Witness>,
    /// Search statistics.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// True if a witness was found.
    pub fn holds(&self) -> bool {
        self.witness.is_some()
    }
}

/// Engine configuration knobs (ablations are measured in `tm-bench`).
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Enable the `(mask, state)` memo table (on by default).
    pub memoize: bool,
    /// Hard cap on DFS nodes per check; `None` for unlimited. When hit, the
    /// search conservatively reports "no witness found" via
    /// [`SearchOutcome::witness`] `= None`. Under a parallel check the cap
    /// is a budget shared by all workers.
    pub node_limit: Option<usize>,
    /// Worker threads for the work-stealing parallel DFS. `1` — the
    /// default — runs the sequential in-place engine with no thread spawns
    /// at all; `0` means "auto": one worker per hardware thread reported
    /// by `std::thread::available_parallelism()`.
    pub search_jobs: usize,
    /// Bound on resident dead-end memo entries, enforced with per-shard
    /// segmented-LRU eviction; `None` — the default — keeps every entry.
    /// Rounded down to a multiple of the shard count, so the resident
    /// total never exceeds the configured value.
    pub memo_capacity: Option<usize>,
    /// Depth window (relative to a task's root) in which a parallel worker
    /// materializes its untried sibling candidates so it can donate them
    /// to hungry workers. `0` disables splitting (root-only parallelism);
    /// frames deeper than the window run the allocation-free inline loop.
    /// Default `8`. Ignored by the sequential engine.
    pub split_depth: usize,
    /// Minimum number of untried candidates a splittable frame must hold
    /// to donate one (≥ 1, default `1`). Raising it keeps more local work
    /// per split at the cost of slower work distribution.
    pub split_granularity: usize,
    /// Observability handle (disabled by default — every instrumented
    /// path is then a no-op branch). When enabled, each check folds its
    /// merged [`SearchStats`] into the sink's counters, records the
    /// feed→verdict latency histogram, and emits worker-lifecycle spans.
    pub obs: tm_obs::ObsHandle,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            memoize: true,
            node_limit: None,
            search_jobs: 1,
            memo_capacity: None,
            split_depth: 8,
            split_granularity: 1,
            obs: tm_obs::ObsHandle::disabled(),
        }
    }
}

const MAX_TXS: usize = 64;

/// Mirror of the per-transaction well-formedness automaton of
/// `tm_model::wellformed`, maintained incrementally so that
/// [`SearchCore::extend`] rejects exactly the events `check_well_formed`
/// would reject, with the same [`WfError`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum TxWf {
    Idle,
    OpPending(Event),
    CommitPending,
    AbortPending,
    Done,
}

/// Per-transaction state of the resumable core.
struct TxCell {
    id: TxId,
    view: TxView,
    /// The slot of each operation in `view.ops`.
    op_slots: Vec<u32>,
    wf: TxWf,
    issued_try_abort: bool,
    /// Bit index in the placement masks, assigned when the transaction
    /// becomes *selected* under the search mode (immediately for opacity;
    /// at its commit event for committed-only criteria).
    bit: Option<u32>,
    /// Real-time predecessors (bits of selected transactions completed
    /// before this transaction's first event), frozen at creation: appending
    /// events never adds real-time edges between existing transactions.
    pred_mask: u64,
}

/// The read-only context one DFS (worker) borrows from the core during a
/// check: transaction metadata, candidate order, the shared memo, and the
/// cross-worker coordination cells.
struct DfsShared<'a> {
    slots: &'a [Slot<'a>],
    txs: &'a [TxCell],
    by_bit: &'a [usize],
    order: &'a [u32],
    selected_mask: u64,
    memoize: bool,
    node_limit: Option<usize>,
    memo: &'a ShardedMemo,
    /// Nodes expanded by *all* workers this check (the shared node budget).
    nodes_spent: &'a AtomicUsize,
    /// Raised when some worker found a witness: everyone else unwinds.
    cancel: &'a AtomicBool,
    /// The task pool, present only under a parallel check: lets a worker
    /// donate untried sibling branches to hungry workers. `None` on the
    /// sequential path, which therefore never materializes frontiers.
    queues: Option<&'a StealQueues<SearchTask>>,
    /// [`SearchConfig::split_depth`] (relative donation window).
    split_depth: usize,
    /// [`SearchConfig::split_granularity`].
    split_granularity: usize,
    /// [`SearchConfig::obs`]: a disabled handle outside `--metrics-out`/
    /// `--trace-out`/`--progress` runs. The hot loop touches it only once
    /// every 1024 nodes (the live-progress counter), so the disabled cost
    /// is one masked branch per kilonode.
    obs: tm_obs::ObsHandle,
}

/// One splittable DFS frame of a parallel worker: the untried sibling
/// candidates are materialized so the coldest (back) ones can be donated.
struct SplitFrame {
    /// Absolute frontier depth (`placed.count_ones()`) at frame entry ==
    /// the length of the worker's placement path above this frame.
    depth: usize,
    /// True once any candidate of this frame was donated away: the donor
    /// no longer explores this subtree exhaustively, so neither this frame
    /// nor any ancestor frame of this task may cache a dead end.
    donated: bool,
    /// Untried `(bit, placement)` candidates in witness-biased order. The
    /// owner pops from the front; donations pop from the back.
    pending: VecDeque<(u32, Placement)>,
}

/// The per-worker mutable scratch of one DFS.
struct Explorer {
    states: SlotStates,
    undo: Undo,
    stack: Vec<(TxId, Placement)>,
    stats: SearchStats,
    /// Set once this worker's current exploration became partial (node cap
    /// or cancellation). From that moment every unwinding frame's subtree is
    /// only partially explored, so its "dead end" is unreliable and must NOT
    /// enter the shared memo table (a truncated false would otherwise poison
    /// later checks and other workers).
    truncated: bool,
    /// This worker's index in the pool (its own deque for donations).
    worker: usize,
    /// The current task's root depth (its path length): the donation window
    /// `split_depth` is measured relative to it, so a thief that rehydrates
    /// a deep branch can itself split its shallow-relative frames.
    base_depth: usize,
    /// The `(bit, placement)` path from the *empty* frontier through every
    /// splittable frame — the reconstruction recipe a donated task carries.
    /// Not maintained below the donation window (nothing there is donated).
    path: Vec<(u32, Placement)>,
    /// The stack of currently-open splittable frames, shallowest first.
    frames: Vec<SplitFrame>,
}

impl Explorer {
    fn new(worker: usize) -> Self {
        Explorer {
            states: SlotStates::default(),
            undo: Undo::default(),
            stack: Vec::new(),
            stats: SearchStats::default(),
            truncated: false,
            worker,
            base_depth: 0,
            path: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Resets the per-subtree scratch (statistics persist across tasks).
    fn reset(&mut self) {
        self.states = SlotStates::default();
        self.undo.clear();
        self.stack.clear();
        self.truncated = false;
        self.base_depth = 0;
        self.path.clear();
        self.frames.clear();
    }
}

/// One stealable unit of a parallel check: the `(bit, placement)` path from
/// the empty frontier to an unexplored branch. Root tasks carry a length-1
/// path; donated tasks carry the donor's prefix plus the donated candidate.
/// The path is a *reconstruction recipe*: the thief replays it against a
/// fresh state with the same [`place`] replay the search uses, so no
/// object-state snapshot ever crosses threads.
struct SearchTask {
    path: Box<[(u32, Placement)]>,
}

/// The placement decisions allowed for a transaction by its status in
/// `H` (and the search mode).
fn allowed_placements(status: TxStatus) -> &'static [Placement] {
    match status {
        TxStatus::Committed => &[Placement::Committed],
        // A commit-pending transaction may appear committed or aborted
        // (the dual semantics of Section 5.2).
        TxStatus::CommitPending => &[Placement::Committed, Placement::Aborted],
        // Aborted, abort-pending, and live transactions can only be
        // aborted in a completion.
        _ => &[Placement::Aborted],
    }
}

/// Replays candidate `ci` in place against the explorer's state — the one
/// replay every DFS path (sequential, split, task rehydration) uses.
/// `Ok(true)`: legal, effects applied; `Ok(false)`: illegal (counted, state
/// untouched); `Err`: an object without a specification.
fn place(sh: &DfsShared<'_>, w: &mut Explorer, ci: usize) -> Result<bool, CheckError> {
    let tx = &sh.txs[ci];
    match w
        .states
        .replay(&tx.view.ops, &tx.op_slots, sh.slots, &mut w.undo)
    {
        Ok(()) => Ok(true),
        Err(ReplayError::Illegal) => {
            w.stats.illegal_placements += 1;
            Ok(false)
        }
        Err(ReplayError::NoSpec(slot)) => Err(CheckError::NoSpec(
            sh.slots[slot as usize].obj().name().to_string(),
        )),
    }
}

/// The recursive search below the frontier `placed`, shared verbatim by the
/// sequential engine (one `Explorer`, `cancel` never raised) and by every
/// parallel worker. Parallel frames within the donation window dispatch to
/// [`dfs_split`]; everything else runs the allocation-free inline loop.
fn dfs(sh: &DfsShared<'_>, w: &mut Explorer, placed: u64) -> Result<bool, CheckError> {
    if placed == sh.selected_mask {
        return Ok(true);
    }
    if sh.cancel.load(Ordering::Relaxed) {
        // Another worker already found a witness: unwind without caching
        // (this subtree was not exhaustively explored).
        w.truncated = true;
        return Ok(false);
    }
    if let Some(limit) = sh.node_limit {
        if sh.nodes_spent.load(Ordering::Relaxed) >= limit {
            w.truncated = true;
            return Ok(false);
        }
    }
    sh.nodes_spent.fetch_add(1, Ordering::Relaxed);
    let nodes_at_entry = w.stats.nodes;
    w.stats.nodes += 1;
    if w.stats.nodes & 0x3FF == 0 {
        // Live-progress feed (`tmcheck check --progress`): amortized to one
        // registry touch per 1024 nodes so enabled observability stays off
        // the hot path; the exact totals are folded per check.
        sh.obs.counter_add("search.nodes_live", 0x400);
    }
    if sh.memoize {
        w.stats.clones_saved += 1; // memo probe without a key clone
        if sh.memo.probe(placed, &w.states) {
            w.stats.memo_hits += 1;
            return Ok(false);
        }
    }
    if sh.queues.is_some() {
        let depth = placed.count_ones() as usize;
        if sh.split_depth > 0 && depth - w.base_depth < sh.split_depth {
            return dfs_split(sh, w, placed, depth, nodes_at_entry);
        }
        // Deep (non-splittable) frames still feed hungry workers — from the
        // shallow frames already materialized above — one poll per node.
        maybe_donate(sh, w);
    }
    for k in 0..sh.order.len() {
        let b = sh.order[k];
        let bit = 1u64 << b;
        let ci = sh.by_bit[b as usize];
        if placed & bit != 0 || sh.txs[ci].pred_mask & !placed != 0 {
            continue;
        }
        let mark = w.undo.mark();
        // Replay the candidate against the committed-prefix state.
        if !place(sh, w, ci)? {
            continue;
        }
        let id = sh.txs[ci].id;
        let status = sh.txs[ci].view.status;
        for &placement in allowed_placements(status) {
            if placement == Placement::Aborted {
                // Validated above; effects are discarded.
                w.states.rollback_to(&mut w.undo, mark);
            }
            w.stats.clones_saved += 1; // placement without a clone
            w.stack.push((id, placement));
            if dfs(sh, w, placed | bit)? {
                return Ok(true);
            }
            w.stack.pop();
        }
        w.states.rollback_to(&mut w.undo, mark);
    }
    // Frames that finished exploring before the node limit (or a
    // cancellation) fired are genuine dead ends; frames unwinding after it
    // are not — caching them would let a truncated "no" poison every later
    // check and every other worker.
    if sh.memoize && !w.truncated {
        w.stats.state_clones += 1;
        // The entry's eviction priority is what it cost to establish: the
        // nodes this worker expanded below (and including) this frontier.
        sh.memo
            .insert(placed, &w.states, w.stats.nodes - nodes_at_entry);
    }
    Ok(false)
}

/// One frame within the donation window: materializes the untried sibling
/// candidates into a [`SplitFrame`] so [`maybe_donate`] can hand the
/// coldest ones to hungry workers, then explores the rest front-first in
/// the usual witness-biased order.
fn dfs_split(
    sh: &DfsShared<'_>,
    w: &mut Explorer,
    placed: u64,
    depth: usize,
    nodes_at_entry: usize,
) -> Result<bool, CheckError> {
    let mut pending: VecDeque<(u32, Placement)> = VecDeque::new();
    for &b in sh.order {
        let bit = 1u64 << b;
        let ci = sh.by_bit[b as usize];
        if placed & bit != 0 || sh.txs[ci].pred_mask & !placed != 0 {
            continue;
        }
        // Legality replay stays lazy: an illegal candidate donated to a
        // thief is rejected by the thief's own replay.
        for &placement in allowed_placements(sh.txs[ci].view.status) {
            pending.push_back((b, placement));
        }
    }
    w.frames.push(SplitFrame {
        depth,
        donated: false,
        pending,
    });
    let fi = w.frames.len() - 1;
    let mut outcome: Result<bool, CheckError> = Ok(false);
    loop {
        maybe_donate(sh, w);
        let Some((b, placement)) = w.frames[fi].pending.pop_front() else {
            break;
        };
        let bit = 1u64 << b;
        let ci = sh.by_bit[b as usize];
        let mark = w.undo.mark();
        match place(sh, w, ci) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
        if placement == Placement::Aborted {
            // Validated above; effects are discarded.
            w.states.rollback_to(&mut w.undo, mark);
        }
        w.stats.clones_saved += 1;
        w.stack.push((sh.txs[ci].id, placement));
        w.path.push((b, placement));
        match dfs(sh, w, placed | bit) {
            Ok(true) => {
                // Keep the stack: it is the witness being published.
                outcome = Ok(true);
                break;
            }
            Ok(false) => {
                w.stack.pop();
                w.path.pop();
                w.states.rollback_to(&mut w.undo, mark);
            }
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    let frame = w.frames.pop().expect("frame pushed above");
    if frame.donated {
        // The donated branches now belong to other workers: this subtree —
        // and transitively every ancestor of it in this task — is no longer
        // exhaustively explored *by this worker*, so none of them may cache
        // a dead end. (Donation does not set `truncated`: globally the
        // donated branches are still explored before the pool terminates.)
        if let Some(parent) = w.frames.last_mut() {
            parent.donated = true;
        }
    }
    if matches!(outcome, Ok(false)) && sh.memoize && !w.truncated && !frame.donated {
        w.stats.state_clones += 1;
        sh.memo
            .insert(placed, &w.states, w.stats.nodes - nodes_at_entry);
    }
    outcome
}

/// Donates the coldest untried branches of this worker's shallowest
/// eligible frames to the pool, one task per hungry worker. Called once
/// per expanded node while parallel; the fast path is a single relaxed
/// load of the hungry counter.
fn maybe_donate(sh: &DfsShared<'_>, w: &mut Explorer) {
    let Some(queues) = sh.queues else { return };
    let mut hungry = queues.hungry();
    if hungry == 0 || sh.cancel.load(Ordering::Relaxed) {
        return;
    }
    let mut donated = 0usize;
    for fi in 0..w.frames.len() {
        // Shallowest frames first: their back candidates root the largest
        // unexplored subtrees (the steal-from-back discipline, one level
        // up: donate the coldest work, keep the hot front).
        while hungry > 0 && w.frames[fi].pending.len() >= sh.split_granularity.max(1) {
            let (b, placement) = w.frames[fi].pending.pop_back().expect("len checked");
            let depth = w.frames[fi].depth;
            let mut path = Vec::with_capacity(depth + 1);
            path.extend_from_slice(&w.path[..depth]);
            path.push((b, placement));
            queues.donate(
                w.worker,
                SearchTask {
                    path: path.into_boxed_slice(),
                },
            );
            w.frames[fi].donated = true;
            donated += 1;
            hungry -= 1;
        }
        if hungry == 0 {
            break;
        }
    }
    if donated > 0 {
        w.stats.splits += 1;
        w.stats.donated_tasks += donated;
    }
}

/// Rehydrates a task's placement path against a fresh state — replaying
/// each `(bit, placement)` with the same [`place`] replay the search uses —
/// then explores the subtree below it.
fn run_task(sh: &DfsShared<'_>, w: &mut Explorer, task: &SearchTask) -> Result<bool, CheckError> {
    w.reset();
    let mut placed = 0u64;
    for &(b, placement) in task.path.iter() {
        let ci = sh.by_bit[b as usize];
        let mark = w.undo.mark();
        if !place(sh, w, ci)? {
            // Only the path's final (donated, never-tried) element can be
            // illegal: the prefix was replayed by the donor.
            return Ok(false);
        }
        if placement == Placement::Aborted {
            w.states.rollback_to(&mut w.undo, mark);
        }
        w.stats.clones_saved += 1;
        w.stack.push((sh.txs[ci].id, placement));
        w.path.push((b, placement));
        placed |= 1u64 << b;
    }
    w.base_depth = task.path.len();
    dfs(sh, w, placed)
}

/// What one parallel worker hands back to the merge step.
struct WorkerReport {
    stats: SearchStats,
    /// True if any of this worker's subtrees was cut short (node budget or
    /// cancellation) — the root frame must then not be cached either.
    truncated: bool,
}

/// The loop of one parallel worker: pop (or steal) tasks — root subtrees
/// and donated branches alike — until the pool terminates, publishing the
/// first witness found and draining the remainder as cancelled. Every
/// popped task is acknowledged with `task_done` *after* its exploration
/// (and hence after any donations it made), which is what lets the pool's
/// inflight count prove termination.
fn worker_loop(
    wi: usize,
    sh: &DfsShared<'_>,
    queues: &StealQueues<SearchTask>,
    witness_slot: &Mutex<Option<Vec<(TxId, Placement)>>>,
) -> Result<WorkerReport, CheckError> {
    let mut w = Explorer::new(wi);
    let mut truncated = false;
    loop {
        // The wait span covers stealing attempts and condvar parking — the
        // "worker starved" signal in a trace (inert when obs is disabled).
        let popped = {
            let _wait = sh.obs.span("task.wait", "search");
            queues.pop(wi)
        };
        let Some((task, stolen)) = popped else { break };
        if stolen {
            w.stats.steals += 1;
        }
        if sh.cancel.load(Ordering::Relaxed) {
            w.stats.cancelled_tasks += 1;
            queues.task_done();
            continue; // drain, so every unexplored subtree is counted once
        }
        let result = {
            let _exec = sh.obs.span("task.execute", "search");
            run_task(sh, &mut w, &task)
        };
        queues.task_done();
        match result {
            Ok(true) => {
                let mut slot = witness_slot.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(w.stack.clone());
                }
                drop(slot);
                sh.cancel.store(true, Ordering::Relaxed);
            }
            Ok(false) => {}
            Err(e) => {
                // A hard error decides the whole check; stop the others.
                // (Any tasks still queued are drained by the surviving
                // workers, so the pool's inflight count still reaches 0.)
                sh.cancel.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        truncated |= w.truncated;
    }
    Ok(WorkerReport {
        stats: w.stats,
        truncated,
    })
}

/// The resumable serialization-search engine.
///
/// Feed events with [`SearchCore::extend`]; ask for a verdict on everything
/// fed so far with [`SearchCore::check`]. Between checks the core keeps its
/// transaction metadata, its memo table of dead ends (selectively
/// invalidated — see the module docs for the soundness argument), and the
/// last witness (which biases the next check's DFS order towards extending
/// it). One-shot callers go through [`Search`] / [`search`]; stateful
/// callers (the online monitor, the `CheckSession` convenience) keep the
/// core alive across a growing history.
pub struct SearchCore<'a> {
    specs: &'a SpecRegistry,
    /// The objects seen so far, each resolved against `specs` once.
    slots: SlotTable<'a>,
    mode: SearchMode,
    config: SearchConfig,
    txs: Vec<TxCell>,
    index: HashMap<TxId, usize>,
    /// Cell index per assigned bit.
    by_bit: Vec<usize>,
    events_seen: usize,
    selected_mask: u64,
    /// Bits of selected transactions that are completed (used to freeze
    /// `pred_mask` for transactions created later).
    completed_selected_mask: u64,
    /// Dead ends: placed-set mask × canonical object states from which the
    /// remaining transactions cannot be completed. Sharded so parallel
    /// workers share it; bounded per [`SearchConfig::memo_capacity`].
    memo: ShardedMemo,
    last_witness: Option<Witness>,
    stats: SearchStats,
    lifetime: SearchStats,
    checks: usize,
    /// DFS scratch: candidate bit order, biased by the last witness.
    order: Vec<u32>,
}

impl<'a> SearchCore<'a> {
    /// A core over an initially empty history.
    pub fn new(specs: &'a SpecRegistry, mode: SearchMode, config: SearchConfig) -> Self {
        SearchCore {
            specs,
            slots: SlotTable::default(),
            mode,
            config,
            txs: Vec::new(),
            index: HashMap::new(),
            by_bit: Vec::new(),
            events_seen: 0,
            selected_mask: 0,
            completed_selected_mask: 0,
            memo: ShardedMemo::new(config.memo_capacity),
            last_witness: None,
            stats: SearchStats::default(),
            lifetime: SearchStats::default(),
            checks: 0,
            order: Vec::new(),
        }
    }

    /// Number of events consumed so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Statistics of the most recent [`SearchCore::check`].
    pub fn last_stats(&self) -> SearchStats {
        self.stats
    }

    /// Statistics accumulated over every check since creation.
    pub fn lifetime_stats(&self) -> SearchStats {
        self.lifetime
    }

    /// Number of checks run since creation.
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// Dead-end entries currently resident in the memo table.
    pub fn memo_resident(&self) -> usize {
        self.memo.resident()
    }

    /// Memo entries evicted by the capacity bound since creation (monotone).
    pub fn memo_evictions(&self) -> usize {
        self.memo.evictions()
    }

    /// The memo capacity actually enforced (the configured
    /// [`SearchConfig::memo_capacity`] rounded down to a multiple of the
    /// shard count); `None` when unbounded.
    pub fn memo_capacity(&self) -> Option<usize> {
        self.memo.capacity()
    }

    /// Retunes the memo capacity of a live core (`None` = unbounded) —
    /// the hook a memory governor (the `tm-serve` session table) uses to
    /// apportion a global memo budget across many sessions. Sound in both
    /// directions: memo entries are pure pruning, so shrinking (which
    /// evicts down to the new bound) and the unbounded → bounded clear can
    /// only cost re-exploration, never change a verdict.
    pub fn set_memo_capacity(&mut self, capacity: Option<usize>) {
        self.config.memo_capacity = capacity;
        self.memo.set_capacity(capacity);
    }

    /// Consumes one event, updating transaction metadata incrementally and
    /// invalidating exactly the memo entries the event can unsound.
    ///
    /// Fails — leaving the core unchanged, so the event is *not* consumed —
    /// if the event violates well-formedness or overflows the engine's
    /// transaction limit.
    pub fn extend(&mut self, e: &Event) -> Result<(), CheckError> {
        let tx = e.tx();
        let index = self.events_seen;
        let ci = match self.index.get(&tx) {
            Some(&ci) => ci,
            None => {
                // First event of a new transaction. Validate before creating
                // the cell so a failed extend leaves the core untouched.
                match e {
                    Event::Inv { .. } | Event::TryCommit(_) | Event::TryAbort(_) => {}
                    _ => {
                        return Err(CheckError::NotWellFormed(WfError::UnmatchedResponse {
                            tx,
                            index,
                        }))
                    }
                }
                let selected_now = self.mode.include_noncommitted;
                if selected_now && self.by_bit.len() >= MAX_TXS {
                    return Err(CheckError::TooManyTransactions {
                        found: self.by_bit.len() + 1,
                        max: MAX_TXS,
                    });
                }
                let ci = self.txs.len();
                let pred_mask = if self.mode.respect_real_time {
                    self.completed_selected_mask
                } else {
                    0
                };
                self.txs.push(TxCell {
                    id: tx,
                    view: TxView {
                        tx,
                        ops: Vec::new(),
                        pending: None,
                        status: TxStatus::Live,
                    },
                    op_slots: Vec::new(),
                    wf: TxWf::Idle,
                    issued_try_abort: false,
                    bit: None,
                    pred_mask,
                });
                self.index.insert(tx, ci);
                if selected_now {
                    self.assign_bit(ci);
                }
                ci
            }
        };

        // Well-formedness transition (mirrors tm_model::wellformed exactly).
        let next_wf = match (&self.txs[ci].wf, e) {
            (TxWf::Done, _) => {
                return Err(CheckError::NotWellFormed(WfError::EventAfterCompletion {
                    tx,
                    index,
                }))
            }
            (TxWf::Idle, Event::Inv { .. }) => TxWf::OpPending(e.clone()),
            (TxWf::Idle, Event::TryCommit(_)) => TxWf::CommitPending,
            (TxWf::Idle, Event::TryAbort(_)) => TxWf::AbortPending,
            (TxWf::Idle, _) => {
                return Err(CheckError::NotWellFormed(WfError::UnmatchedResponse {
                    tx,
                    index,
                }))
            }
            (TxWf::OpPending(inv), Event::Ret { .. }) => {
                if e.matches_invocation(inv) {
                    TxWf::Idle
                } else {
                    return Err(CheckError::NotWellFormed(WfError::UnmatchedResponse {
                        tx,
                        index,
                    }));
                }
            }
            (TxWf::OpPending(_), Event::Abort(_)) => TxWf::Done,
            (TxWf::OpPending(_), Event::Commit(_)) => {
                return Err(CheckError::NotWellFormed(WfError::CommitAnswersOperation {
                    tx,
                    index,
                }))
            }
            (TxWf::OpPending(_), _) => {
                return Err(CheckError::NotWellFormed(WfError::InvocationWhilePending {
                    tx,
                    index,
                }))
            }
            (TxWf::CommitPending, Event::Commit(_)) | (TxWf::CommitPending, Event::Abort(_)) => {
                TxWf::Done
            }
            (TxWf::CommitPending, _) => {
                return Err(CheckError::NotWellFormed(WfError::BadEventAfterTryCommit {
                    tx,
                    index,
                }))
            }
            (TxWf::AbortPending, Event::Abort(_)) => TxWf::Done,
            (TxWf::AbortPending, _) => {
                return Err(CheckError::NotWellFormed(WfError::BadEventAfterTryAbort {
                    tx,
                    index,
                }))
            }
        };
        // Last fallible step, checked BEFORE committing any mutation so a
        // failed extend leaves the core exactly as it was: in committed-only
        // modes a Commit event selects the transaction, which needs a bit.
        if matches!(e, Event::Commit(_))
            && !self.mode.include_noncommitted
            && self.txs[ci].bit.is_none()
            && self.by_bit.len() >= MAX_TXS
        {
            return Err(CheckError::TooManyTransactions {
                found: self.by_bit.len() + 1,
                max: MAX_TXS,
            });
        }
        self.txs[ci].wf = next_wf;

        // Apply the event to the view/status and invalidate memo entries.
        match e {
            Event::Inv { obj, op, args, .. } => {
                // A pending invocation imposes no legality constraint: no
                // memo entry can become unsound.
                self.txs[ci].view.pending = Some((obj.clone(), op.clone(), args.clone()));
            }
            Event::Ret { val, .. } => {
                let (obj, op, args) = self.txs[ci]
                    .view
                    .pending
                    .take()
                    .expect("WF automaton guarantees a pending invocation");
                let slot = self.slots.slot_of(&obj, self.specs);
                self.txs[ci].op_slots.push(slot);
                self.txs[ci].view.ops.push(tm_model::OpExec {
                    tx,
                    obj,
                    op,
                    args,
                    val: val.clone(),
                });
                // The new operation could rescue dead ends in which this
                // transaction was still unplaced (its committed placement
                // now changes the state differently). Entries that already
                // placed it remain sound: they only claim things about the
                // *other* transactions.
                self.drop_entries_not_placing(ci);
            }
            Event::TryCommit(_) => {
                self.txs[ci].view.status = TxStatus::CommitPending;
                // Widening: {Aborted} → {Committed, Aborted}. Same rule as a
                // new operation.
                self.drop_entries_not_placing(ci);
            }
            Event::TryAbort(_) => {
                self.txs[ci].issued_try_abort = true;
                self.txs[ci].view.status = TxStatus::AbortPending;
            }
            Event::Commit(_) => {
                self.txs[ci].view.status = TxStatus::Committed;
                if !self.mode.include_noncommitted {
                    // The transaction just became selected (the bit capacity
                    // was verified before any mutation above): every old
                    // entry's "remaining" set grew by it, so all bets are
                    // off.
                    self.assign_bit(ci);
                    self.memo.clear();
                }
                if let Some(b) = self.txs[ci].bit {
                    self.completed_selected_mask |= 1 << b;
                }
            }
            Event::Abort(_) => {
                // An abort answering a pending operation leaves the
                // operation without effect (tm_model::History::tx_view drops
                // the pending invocation); no completed op is added, so no
                // entry can become unsound.
                self.txs[ci].view.pending = None;
                self.txs[ci].view.status = if self.txs[ci].issued_try_abort {
                    TxStatus::Aborted
                } else {
                    TxStatus::ForcefullyAborted
                };
                if let Some(b) = self.txs[ci].bit {
                    self.completed_selected_mask |= 1 << b;
                }
            }
        }
        self.events_seen += 1;
        Ok(())
    }

    fn assign_bit(&mut self, ci: usize) {
        let b = self.by_bit.len() as u32;
        self.txs[ci].bit = Some(b);
        self.by_bit.push(ci);
        self.selected_mask |= 1 << b;
    }

    /// Drops memo entries whose placed-set does *not* contain transaction
    /// `ci` — those are the entries a change to `ci`'s ops or placement set
    /// could rescue.
    fn drop_entries_not_placing(&mut self, ci: usize) {
        if let Some(b) = self.txs[ci].bit {
            self.memo.retain_placing(1u64 << b);
        }
    }

    /// Decides the criterion for the history fed so far.
    ///
    /// The DFS candidate order is biased towards the previous check's
    /// witness, so a check whose new events merely extend the old
    /// serialization runs in linear replay time with no backtracking. With
    /// [`SearchConfig::search_jobs`] > 1 the root placements are explored
    /// by a work-stealing pool of scoped threads sharing the memo table;
    /// the verdict is identical to the sequential search, the witness may
    /// be a different valid serialization.
    pub fn check(&mut self) -> Result<SearchOutcome, CheckError> {
        self.checks += 1;
        // Candidate order: last witness first (it remains real-time
        // compatible — appending events never orders two existing
        // transactions), then any transactions it does not cover, in
        // first-selection order.
        self.order.clear();
        let mut seen = 0u64;
        if let Some(w) = &self.last_witness {
            for (t, _) in &w.order {
                if let Some(&ci) = self.index.get(t) {
                    if let Some(b) = self.txs[ci].bit {
                        if seen & (1 << b) == 0 {
                            seen |= 1 << b;
                            self.order.push(b);
                        }
                    }
                }
            }
        }
        for b in 0..self.by_bit.len() as u32 {
            if seen & (1 << b) == 0 {
                self.order.push(b);
            }
        }
        let evictions_before = self.memo.evictions();
        // `search_jobs == 0` means "auto": one worker per hardware thread.
        let jobs = match self.config.search_jobs {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let obs = self.config.obs;
        let _check_span = obs.span("check", "search");
        let started = obs.enabled().then(std::time::Instant::now);
        let (witness_order, mut stats) = if jobs == 1 {
            self.run_sequential()?
        } else {
            self.run_parallel(jobs)?
        };
        stats.evictions = self.memo.evictions() - evictions_before;
        // The resolved pool size (run_parallel records the effective worker
        // count; every other path — sequential, trivial, fully memoized —
        // ran on this one thread).
        stats.workers = stats.workers.max(1);
        if let Some(t0) = started {
            // The feed→verdict latency: everything between the check request
            // and the verdict for the events fed so far.
            obs.observe("check.verdict_ns", t0.elapsed().as_nanos() as u64);
            self.fold_stats(&stats);
        }
        self.stats = stats;
        self.lifetime.absorb(&stats);
        match witness_order {
            Some(order) => {
                let witness = Witness { order };
                self.last_witness = Some(witness.clone());
                Ok(SearchOutcome {
                    witness: Some(witness),
                    stats,
                })
            }
            None => Ok(SearchOutcome {
                witness: None,
                stats,
            }),
        }
    }

    /// Folds one check's deterministically merged [`SearchStats`] into the
    /// observability sink — per check, never per node, so enabled metrics
    /// stay off the DFS hot path. Counter totals are therefore identical
    /// for any sharding of the same work (the jobs=1 vs jobs=N agreement
    /// pinned in `tm-cli`'s tests).
    fn fold_stats(&self, stats: &SearchStats) {
        let obs = self.config.obs;
        obs.counter_add("search.checks", 1);
        obs.counter_add("search.nodes", stats.nodes as u64);
        obs.counter_add("search.illegal_placements", stats.illegal_placements as u64);
        obs.counter_add("search.clones_saved", stats.clones_saved as u64);
        obs.counter_add("search.steals", stats.steals as u64);
        obs.counter_add("search.splits", stats.splits as u64);
        obs.counter_add("search.donated_tasks", stats.donated_tasks as u64);
        obs.counter_add("search.cancelled_tasks", stats.cancelled_tasks as u64);
        // The memo lifecycle: with memoization on, every expanded node is
        // exactly one probe, and every state clone is one insert.
        if self.config.memoize {
            obs.counter_add("memo.probes", stats.nodes as u64);
        }
        obs.counter_add("memo.hits", stats.memo_hits as u64);
        obs.counter_add("memo.inserts", stats.state_clones as u64);
        obs.counter_add("memo.evictions", stats.evictions as u64);
        obs.gauge_set("memo.resident", self.memo.resident() as u64);
        obs.gauge_set("search.workers", stats.workers as u64);
    }

    /// The single-threaded check: one explorer, no spawns.
    #[allow(clippy::type_complexity)]
    fn run_sequential(
        &mut self,
    ) -> Result<(Option<Vec<(TxId, Placement)>>, SearchStats), CheckError> {
        let nodes_spent = AtomicUsize::new(0);
        let cancel = AtomicBool::new(false);
        let sh = DfsShared {
            slots: self.slots.slots(),
            txs: &self.txs,
            by_bit: &self.by_bit,
            order: &self.order,
            selected_mask: self.selected_mask,
            memoize: self.config.memoize,
            node_limit: self.config.node_limit,
            memo: &self.memo,
            nodes_spent: &nodes_spent,
            cancel: &cancel,
            queues: None,
            split_depth: 0,
            split_granularity: 1,
            obs: self.config.obs,
        };
        let mut w = Explorer::new(0);
        let found = dfs(&sh, &mut w, 0)?;
        Ok((found.then_some(w.stack), w.stats))
    }

    /// The work-stealing check: seed at root placements, split subtrees
    /// dynamically while workers are hungry, share the memo, cancel on the
    /// first witness.
    #[allow(clippy::type_complexity)]
    fn run_parallel(
        &mut self,
        jobs: usize,
    ) -> Result<(Option<Vec<(TxId, Placement)>>, SearchStats), CheckError> {
        let mut stats = SearchStats::default();
        if self.selected_mask == 0 {
            return Ok((Some(Vec::new()), stats));
        }
        // The root frame (the sequential dfs(0) prologue): count it, probe
        // the memo so a cached root dead end short-circuits the check.
        stats.nodes += 1;
        let initial = SlotStates::default();
        if self.config.memoize {
            stats.clones_saved += 1;
            if self.memo.probe(0, &initial) {
                stats.memo_hits += 1;
                return Ok((None, stats));
            }
        }
        // Root tasks in the witness-biased candidate order.
        let mut tasks = Vec::new();
        for &b in self.order.iter() {
            let ci = self.by_bit[b as usize];
            if self.txs[ci].pred_mask != 0 {
                continue; // has unplaced real-time predecessors at the root
            }
            for &placement in allowed_placements(self.txs[ci].view.status) {
                tasks.push(SearchTask {
                    path: Box::new([(b, placement)]),
                });
            }
        }
        // With splitting enabled, workers beyond the root fan-out are
        // useful — they start hungry and receive donated branches — so the
        // pool size is capped by the number of selected transactions (a
        // parallelism ceiling) rather than by the root task count.
        let splitting = self.config.split_depth > 0;
        let ceiling = if splitting {
            tasks.len().max(self.by_bit.len())
        } else {
            tasks.len()
        };
        let workers = jobs.min(ceiling).max(1);
        stats.workers = workers;
        let queues = StealQueues::new(tasks, workers);
        let nodes_spent = AtomicUsize::new(stats.nodes);
        let cancel = AtomicBool::new(false);
        let sh = DfsShared {
            slots: self.slots.slots(),
            txs: &self.txs,
            by_bit: &self.by_bit,
            order: &self.order,
            selected_mask: self.selected_mask,
            memoize: self.config.memoize,
            node_limit: self.config.node_limit,
            memo: &self.memo,
            nodes_spent: &nodes_spent,
            cancel: &cancel,
            queues: if splitting { Some(&queues) } else { None },
            split_depth: self.config.split_depth,
            split_granularity: self.config.split_granularity.max(1),
            obs: self.config.obs,
        };
        let witness_slot: Mutex<Option<Vec<(TxId, Placement)>>> = Mutex::new(None);
        let reports: Vec<Result<WorkerReport, CheckError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wi| {
                    let sh = &sh;
                    let queues = &queues;
                    let witness_slot = &witness_slot;
                    scope.spawn(move || worker_loop(wi, sh, queues, witness_slot))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("search worker panicked"))
                .collect()
        });
        // Deterministic aggregation: merge per-worker stats (and surface
        // the first error) in worker-index order.
        let mut truncated = false;
        let mut first_error = None;
        for report in reports {
            match report {
                Ok(r) => {
                    stats.absorb(&r.stats);
                    truncated |= r.truncated;
                }
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let witness = witness_slot.into_inner().unwrap_or_else(|e| e.into_inner());
        if witness.is_none() && self.config.memoize && !truncated {
            // Every subtree — root-seeded or donated — was explored
            // exhaustively by some worker (the pool only terminates once
            // nothing is queued or executing): the empty frontier is a
            // genuine dead end (mirrors the sequential dfs(0) epilogue),
            // whose recompute cost is the whole check.
            stats.state_clones += 1;
            self.memo.insert(0, &initial, stats.nodes);
        }
        Ok((witness, stats))
    }
}

/// A stateful checking session over a growing history: the façade through
/// which both the batch checkers (`is_opaque*`, the Section-3 criteria) and
/// the online monitor drive the resumable [`SearchCore`].
///
/// Feed events with [`CheckSession::extend`] (or let
/// [`CheckSession::check_history`] consume the suffix of a monotonically
/// growing history) and decide with [`CheckSession::check`]. The underlying
/// core keeps its memo table and witness between checks, so checking every
/// prefix of a history costs far less than independent batch checks.
pub struct CheckSession<'a> {
    core: SearchCore<'a>,
}

impl<'a> CheckSession<'a> {
    /// A session over an initially empty history.
    pub fn new(specs: &'a SpecRegistry, mode: SearchMode, config: SearchConfig) -> Self {
        CheckSession {
            core: SearchCore::new(specs, mode, config),
        }
    }

    /// Consumes one event. See [`SearchCore::extend`].
    pub fn extend(&mut self, e: &Event) -> Result<(), CheckError> {
        self.core.extend(e)
    }

    /// Decides the criterion for the events consumed so far.
    pub fn check(&mut self) -> Result<SearchOutcome, CheckError> {
        self.core.check()
    }

    /// Consumes the not-yet-seen suffix of `h` and checks.
    ///
    /// `h` must be an extension of the history fed so far (the session
    /// trusts the already-consumed prefix and only reads `h`'s tail) — which
    /// is exactly the monitor's situation, and trivially true for one-shot
    /// batch checks on a fresh session.
    pub fn check_history(&mut self, h: &History) -> Result<SearchOutcome, CheckError> {
        let seen = self.core.events_seen();
        for e in &h.events()[seen.min(h.len())..] {
            self.core.extend(e)?;
        }
        self.core.check()
    }

    /// Number of events consumed so far.
    pub fn events_seen(&self) -> usize {
        self.core.events_seen()
    }

    /// Statistics of the most recent check.
    pub fn last_stats(&self) -> SearchStats {
        self.core.last_stats()
    }

    /// Statistics accumulated over every check in this session.
    pub fn lifetime_stats(&self) -> SearchStats {
        self.core.lifetime_stats()
    }

    /// Number of checks run in this session.
    pub fn checks(&self) -> usize {
        self.core.checks()
    }

    /// Dead-end entries currently resident in the memo table.
    pub fn memo_resident(&self) -> usize {
        self.core.memo_resident()
    }

    /// Memo entries evicted by the capacity bound in this session
    /// (monotone).
    pub fn memo_evictions(&self) -> usize {
        self.core.memo_evictions()
    }

    /// The memo capacity actually enforced; `None` when unbounded.
    pub fn memo_capacity(&self) -> Option<usize> {
        self.core.memo_capacity()
    }

    /// Retunes the memo capacity mid-session. See
    /// [`SearchCore::set_memo_capacity`].
    pub fn set_memo_capacity(&mut self, capacity: Option<usize>) {
        self.core.set_memo_capacity(capacity)
    }
}

/// The one-shot façade over [`SearchCore`] (kept for the original API).
pub struct Search<'a> {
    core: SearchCore<'a>,
}

impl<'a> Search<'a> {
    /// Prepares a search over `h` under `mode`.
    pub fn new(
        h: &History,
        specs: &'a SpecRegistry,
        mode: SearchMode,
        config: SearchConfig,
    ) -> Result<Self, CheckError> {
        let mut core = SearchCore::new(specs, mode, config);
        for e in h.events() {
            core.extend(e)?;
        }
        Ok(Search { core })
    }

    /// Runs the search to completion.
    pub fn run(mut self) -> Result<SearchOutcome, CheckError> {
        self.core.check()
    }
}

/// One-shot convenience: search `h` under `mode` with default configuration.
pub fn search(
    h: &History,
    specs: &SpecRegistry,
    mode: SearchMode,
) -> Result<SearchOutcome, CheckError> {
    Search::new(h, specs, mode, SearchConfig::default())?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::builder::{paper, HistoryBuilder};

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    #[test]
    fn empty_history_holds_everywhere() {
        let h = History::new();
        for mode in [
            SearchMode::OPACITY,
            SearchMode::SERIALIZABILITY,
            SearchMode::STRICT_SERIALIZABILITY,
        ] {
            assert!(search(&h, &regs(), mode).unwrap().holds());
        }
    }

    #[test]
    fn h1_serializable_but_not_opaque() {
        let h = paper::h1();
        assert!(search(&h, &regs(), SearchMode::SERIALIZABILITY)
            .unwrap()
            .holds());
        assert!(search(&h, &regs(), SearchMode::STRICT_SERIALIZABILITY)
            .unwrap()
            .holds());
        assert!(!search(&h, &regs(), SearchMode::OPACITY).unwrap().holds());
    }

    #[test]
    fn witness_reports_order_and_placements() {
        let h = paper::h5();
        let out = search(&h, &regs(), SearchMode::OPACITY).unwrap();
        let w = out.witness.expect("H5 is opaque");
        // The paper's witness is S = T2 · T1 · T3.
        assert_eq!(w.tx_order(), vec![TxId(2), TxId(1), TxId(3)]);
        assert_eq!(w.placement_of(TxId(2)), Some(Placement::Committed));
        assert_eq!(w.placement_of(TxId(1)), Some(Placement::Aborted));
        assert_eq!(w.placement_of(TxId(3)), Some(Placement::Committed));
    }

    #[test]
    fn ill_formed_history_is_an_error() {
        let h = HistoryBuilder::new().commit(1).build();
        assert!(matches!(
            search(&h, &regs(), SearchMode::OPACITY),
            Err(CheckError::NotWellFormed(_))
        ));
    }

    #[test]
    fn missing_spec_is_an_error() {
        let h = HistoryBuilder::new().read(1, "x", 0).commit_ok(1).build();
        let empty = SpecRegistry::new();
        assert!(matches!(
            search(&h, &empty, SearchMode::OPACITY),
            Err(CheckError::NoSpec(_))
        ));
    }

    #[test]
    fn memoization_prunes() {
        // Many concurrent committed writers: huge permutation space, small
        // state space; the memo table must keep node counts reasonable.
        let mut b = HistoryBuilder::new();
        for t in 1..=8u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=8u32 {
            b = b.commit_ok(t);
        }
        let h = b.build();
        let on = Search::new(&h, &regs(), SearchMode::OPACITY, SearchConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(on.holds());
        let off = Search::new(
            &h,
            &regs(),
            SearchMode::OPACITY,
            SearchConfig {
                memoize: false,
                node_limit: Some(2_000_000),
                ..SearchConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(off.holds());
        assert!(on.stats.nodes <= off.stats.nodes);
    }

    #[test]
    fn node_limit_stops_search() {
        let mut b = HistoryBuilder::new();
        for t in 1..=10u32 {
            b = b.write(t, "x", t as i64);
        }
        // No commits: all live, all must be aborted; trivially opaque, but
        // with a node limit of 1 the search gives up.
        let h = b.build();
        let out = Search::new(
            &h,
            &regs(),
            SearchMode::OPACITY,
            SearchConfig {
                memoize: true,
                node_limit: Some(1),
                ..SearchConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(!out.holds());
        assert_eq!(out.stats.nodes, 1);
    }

    #[test]
    fn real_time_constrains_opacity_mode() {
        // T1 commits writing x=1 strictly before T2 starts; T2 reads the
        // initial 0: legal without real time, illegal with it.
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 0)
            .commit_ok(2)
            .build();
        assert!(!search(&h, &regs(), SearchMode::OPACITY).unwrap().holds());
        assert!(!search(&h, &regs(), SearchMode::STRICT_SERIALIZABILITY)
            .unwrap()
            .holds());
        assert!(search(&h, &regs(), SearchMode::SERIALIZABILITY)
            .unwrap()
            .holds());
    }

    #[test]
    fn commit_pending_dual_semantics() {
        // H4: T3 must see T2 committed, T1 must see it aborted — the search
        // must pick Committed for T2 and order T1 before it.
        let h = paper::h4();
        let out = search(&h, &regs(), SearchMode::OPACITY).unwrap();
        let w = out.witness.expect("H4 is opaque (Section 5.2)");
        assert_eq!(w.placement_of(TxId(2)), Some(Placement::Committed));
        let order = w.tx_order();
        let pos = |t: u32| order.iter().position(|&x| x == TxId(t)).unwrap();
        assert!(pos(1) < pos(2), "T1 must precede T2 in S: {order:?}");
        assert!(pos(2) < pos(3), "T2 must precede T3 in S: {order:?}");
    }

    // ---- resumable-core behavior ---------------------------------------

    /// Checks every prefix of `h` through one session and independently
    /// from scratch; verdicts must agree at every prefix.
    fn assert_session_matches_batch(h: &History) {
        let specs = regs();
        let mut session = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        for (i, e) in h.events().iter().enumerate() {
            session.extend(e).unwrap();
            let live = session.check().unwrap().holds();
            let fresh = search(&h.prefix(i + 1), &specs, SearchMode::OPACITY)
                .unwrap()
                .holds();
            assert_eq!(live, fresh, "prefix {} of {h}", i + 1);
        }
    }

    #[test]
    fn session_verdicts_match_batch_on_paper_histories() {
        for h in [paper::h1(), paper::h3(), paper::h4(), paper::h5()] {
            assert_session_matches_batch(&h);
        }
    }

    #[test]
    fn try_commit_widening_invalidates_stale_dead_ends() {
        // With T1 live, T2's committed read of T1's write is a dead end; the
        // tryC of T1 widens its placements to {Committed, Aborted} and the
        // same session must now find the witness. A memo table kept blindly
        // across the widening would wrongly report "not opaque" forever.
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let prefix = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(2, "x", 1)
            .build();
        for e in prefix.events() {
            s.extend(e).unwrap();
        }
        assert!(!s.check().unwrap().holds(), "dirty read while T1 is live");
        s.extend(&Event::TryCommit(TxId(1))).unwrap();
        assert!(
            s.check().unwrap().holds(),
            "commit-pending T1 may now be placed committed"
        );
    }

    #[test]
    fn new_op_invalidates_stale_dead_ends() {
        // T2 commits a read of y=7 before anyone wrote 7: not opaque. Then
        // live T1 (which started before T2 completed) finishes a write of
        // y=7: the full history becomes opaque (T1 placed committed before
        // T2). The session must not let the old dead end veto the rescue.
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let prefix = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(2, "y", 7)
            .try_commit(2)
            .commit(2)
            .build();
        for e in prefix.events() {
            s.extend(e).unwrap();
        }
        assert!(!s.check().unwrap().holds());
        let rescue = HistoryBuilder::new().write(1, "y", 7).build();
        for e in rescue.events() {
            s.extend(e).unwrap();
        }
        s.extend(&Event::TryCommit(TxId(1))).unwrap();
        assert!(s.check().unwrap().holds(), "T1(C) · T2(C) is a witness");
        // Cross-check against a from-scratch search on the full history.
        let mut full = prefix.clone();
        for e in rescue.events() {
            full.push(e.clone());
        }
        full.push(Event::TryCommit(TxId(1)));
        assert!(search(&full, &specs, SearchMode::OPACITY).unwrap().holds());
    }

    #[test]
    fn witness_bias_makes_extension_checks_linear() {
        // A long legal chain: after the first check, every further check
        // walks straight down the previous witness — nodes per check stay
        // at (#txs placed + 1), with no backtracking.
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let mut b = HistoryBuilder::new();
        for t in 1..=12u32 {
            b = b
                .read(t, "x", (t - 1) as i64)
                .write(t, "x", t as i64)
                .commit_ok(t);
        }
        let h = b.build();
        for e in h.events() {
            s.extend(e).unwrap();
        }
        let out = s.check().unwrap();
        assert!(out.holds());
        let first_nodes = out.stats.nodes;
        // Extend by one more transaction and re-check: the incremental cost
        // must be two extra nodes (the new placement + the new root), not a
        // re-exploration.
        let ext = HistoryBuilder::new()
            .read(13, "x", 12)
            .write(13, "x", 13)
            .commit_ok(13)
            .build();
        for e in ext.events() {
            s.extend(e).unwrap();
        }
        let out2 = s.check().unwrap();
        assert!(out2.holds());
        assert!(
            out2.stats.nodes <= first_nodes + 2,
            "extension check expanded {} nodes (first: {first_nodes})",
            out2.stats.nodes
        );
        assert_eq!(out2.stats.illegal_placements, 0);
    }

    #[test]
    fn in_place_replay_reports_saved_clones() {
        let h = paper::h5();
        let out = search(&h, &regs(), SearchMode::OPACITY).unwrap();
        assert!(out.holds());
        assert!(
            out.stats.clones_saved > out.stats.state_clones,
            "the engine should avoid more clones than it performs: {:?}",
            out.stats
        );
    }

    #[test]
    fn failed_extend_leaves_the_core_usable() {
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        s.extend(&Event::TryCommit(TxId(1))).unwrap();
        // A second tryC is ill-formed and must be rejected without consuming.
        assert!(matches!(
            s.extend(&Event::TryCommit(TxId(1))),
            Err(CheckError::NotWellFormed(_))
        ));
        assert_eq!(s.events_seen(), 1);
        // The valid continuation still works.
        s.extend(&Event::Commit(TxId(1))).unwrap();
        assert!(s.check().unwrap().holds());
    }

    #[test]
    fn truncated_checks_do_not_poison_the_memo() {
        // With a node limit, a check can give up ("no witness found") on a
        // history that IS opaque. Those truncated explorations must not be
        // cached as dead ends: a later check of the same session with more
        // budget headroom — or simply re-running after the limit reset —
        // must still be able to find the witness.
        let specs = regs();
        let config = SearchConfig {
            memoize: true,
            node_limit: Some(3),
            ..SearchConfig::default()
        };
        // H5 needs more than 3 nodes; per-check the limit resets, so the
        // second identical check must not be vetoed by entries recorded
        // while the first was truncated.
        let h = paper::h5();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
        for e in h.events() {
            s.extend(e).unwrap();
        }
        let first = s.check().unwrap();
        let second = s.check().unwrap();
        let reference = Search::new(&h, &specs, SearchMode::OPACITY, config)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            second.holds(),
            reference.holds(),
            "a repeated limited check must match a fresh limited check \
             (first: {:?})",
            first.holds()
        );
        // Cross-validate against batch semantics on every prefix of a
        // random-ish opaque chain: session verdicts under a limit must
        // equal fresh limited checks (the pre-refactor monitor contract).
        let mut b = HistoryBuilder::new();
        for t in 1..=6u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=6u32 {
            b = b.commit_ok(t);
        }
        let h = b.build();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
        for (i, e) in h.events().iter().enumerate() {
            s.extend(e).unwrap();
            let live = s.check().unwrap().holds();
            let fresh = Search::new(&h.prefix(i + 1), &specs, SearchMode::OPACITY, config)
                .unwrap()
                .run()
                .unwrap()
                .holds();
            // The session may only be BETTER than fresh (its witness bias
            // finds serializations the truncated fresh search misses),
            // never worse: a stale truncated "no" must never veto a "yes".
            assert!(
                live || !fresh,
                "prefix {}: session says no but fresh limited check says yes",
                i + 1
            );
        }
    }

    #[test]
    fn failed_commit_extend_is_atomic_in_committed_only_mode() {
        // Drive a committed-only session past the bit limit: the 65th
        // commit must fail with TooManyTransactions and leave the event
        // unconsumed — retrying yields the SAME error, not a WF error from
        // a half-applied transition.
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::SERIALIZABILITY, SearchConfig::default());
        for t in 1..=65u32 {
            let h = HistoryBuilder::new().write(t, "x", t as i64).build();
            for e in h.events() {
                s.extend(e).unwrap();
            }
            s.extend(&Event::TryCommit(TxId(t))).unwrap();
            if t <= 64 {
                s.extend(&Event::Commit(TxId(t))).unwrap();
            }
        }
        let seen = s.events_seen();
        for _ in 0..2 {
            assert!(matches!(
                s.extend(&Event::Commit(TxId(65))),
                Err(CheckError::TooManyTransactions { .. })
            ));
            assert_eq!(s.events_seen(), seen, "failed extend must not consume");
        }
        // The session remains usable: the 64 committed writers serialize.
        assert!(s.check().unwrap().holds());
    }

    #[test]
    fn session_tracks_lifetime_stats() {
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let h = paper::h5();
        let mut total = 0;
        for e in h.events() {
            s.extend(e).unwrap();
            if e.is_response() {
                total += s.check().unwrap().stats.nodes;
            }
        }
        assert_eq!(s.lifetime_stats().nodes, total);
        assert!(s.checks() > 0);
    }

    // ---- parallel root-split search ------------------------------------

    /// A search config with `jobs` parallel workers.
    fn par(jobs: usize) -> SearchConfig {
        SearchConfig {
            search_jobs: jobs,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn parallel_verdicts_match_sequential_on_paper_histories() {
        let specs = regs();
        for h in [
            paper::h1(),
            paper::h2(),
            paper::h3(),
            paper::h4(),
            paper::h5(),
        ] {
            let seq = search(&h, &specs, SearchMode::OPACITY).unwrap();
            for jobs in [2, 4, 8] {
                let out = Search::new(&h, &specs, SearchMode::OPACITY, par(jobs))
                    .unwrap()
                    .run()
                    .unwrap();
                assert_eq!(out.holds(), seq.holds(), "{h} under jobs={jobs}");
                // The witness may differ but must re-validate: check it
                // through the sequential engine's own machinery.
                if let Some(w) = &out.witness {
                    let s = crate::opacity::witness_history(&h, w);
                    assert!(
                        tm_model::all_txs_legal(&s, &specs).is_ok(),
                        "jobs={jobs} witness does not re-validate for {h}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_empty_and_trivial_histories() {
        let specs = regs();
        let h = History::new();
        let out = Search::new(&h, &specs, SearchMode::OPACITY, par(4))
            .unwrap()
            .run()
            .unwrap();
        assert!(out.holds());
        let h = HistoryBuilder::new().write(1, "x", 1).commit_ok(1).build();
        let out = Search::new(&h, &specs, SearchMode::OPACITY, par(4))
            .unwrap()
            .run()
            .unwrap();
        assert!(out.holds());
    }

    #[test]
    fn parallel_session_stays_resumable() {
        // The shared memo and witness survive across checks of a parallel
        // session exactly as in the sequential one: verdicts at every
        // prefix match fresh sequential checks.
        let specs = regs();
        for h in [paper::h1(), paper::h4(), paper::h5()] {
            let mut s = CheckSession::new(&specs, SearchMode::OPACITY, par(3));
            for (i, e) in h.events().iter().enumerate() {
                s.extend(e).unwrap();
                let live = s.check().unwrap().holds();
                let fresh = search(&h.prefix(i + 1), &specs, SearchMode::OPACITY)
                    .unwrap()
                    .holds();
                assert_eq!(live, fresh, "prefix {} of {h}", i + 1);
            }
        }
    }

    #[test]
    fn parallel_truncation_never_inserts_into_the_shared_memo() {
        // The regression pinned here: with the node budget exhausted from
        // the first expansion, every worker's frames unwind truncated and
        // the shared table must stay EMPTY — a single cached entry would be
        // a partial exploration masquerading as a dead end.
        let specs = regs();
        let mut b = HistoryBuilder::new();
        for t in 1..=6u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=6u32 {
            b = b.commit_ok(t);
        }
        let h = b.build();
        let config = SearchConfig {
            node_limit: Some(1),
            search_jobs: 4,
            ..SearchConfig::default()
        };
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
        for e in h.events() {
            s.extend(e).unwrap();
        }
        assert!(!s.check().unwrap().holds(), "budget 1 cannot finish");
        assert_eq!(
            s.memo_resident(),
            0,
            "truncated workers must not populate the shared memo"
        );
        // And the truncation is not sticky knowledge: a session with the
        // budget lifted finds the witness (h IS opaque).
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, par(4));
        for e in h.events() {
            s.extend(e).unwrap();
        }
        assert!(s.check().unwrap().holds());
    }

    #[test]
    fn parallel_stats_account_for_cancellations() {
        // An opaque history with many root candidates: once some worker
        // finds the witness, the drained root tasks are reported as
        // cancelled (nodes + cancellations give the full task accounting).
        let specs = regs();
        let mut b = HistoryBuilder::new();
        for t in 1..=8u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=8u32 {
            b = b.commit_ok(t);
        }
        let h = b.build();
        let out = Search::new(&h, &specs, SearchMode::OPACITY, par(2))
            .unwrap()
            .run()
            .unwrap();
        assert!(out.holds());
        // The task universe is the 8 root tasks plus whatever branches
        // were donated before the witness landed; at least the successful
        // task was not drained, so the cancellation counter stays strictly
        // below that total (how many are actually drained is scheduling).
        assert!(
            out.stats.cancelled_tasks < 8 + out.stats.donated_tasks,
            "{:?}",
            out.stats
        );
    }

    // ---- bounded memo --------------------------------------------------

    #[test]
    fn memo_capacity_bounds_resident_entries_without_changing_verdicts() {
        let specs = regs();
        // A non-opaque workload big enough to overflow a tiny table: the
        // exhaustive search records many dead ends.
        let mut b = HistoryBuilder::new();
        for t in 1..=6u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=6u32 {
            b = b.commit_ok(t);
        }
        b = b.read(7, "x", -1).try_commit(7).commit(7); // impossible read
        let h = b.build();
        let unbounded = Search::new(&h, &specs, SearchMode::OPACITY, SearchConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(!unbounded.holds());
        for cap in [1usize, 8, 32] {
            let config = SearchConfig {
                memo_capacity: Some(cap),
                ..SearchConfig::default()
            };
            let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
            for e in h.events() {
                s.extend(e).unwrap();
            }
            let out = s.check().unwrap();
            assert_eq!(out.holds(), unbounded.holds(), "cap={cap}");
            assert!(
                s.memo_resident() <= cap,
                "cap={cap}: resident {}",
                s.memo_resident()
            );
            if cap == 1 {
                assert!(out.stats.evictions > 0, "cap=1 must evict");
            }
            assert_eq!(s.memo_evictions(), s.lifetime_stats().evictions);
        }
    }

    #[test]
    fn eviction_composes_with_invalidation() {
        // Run the widening scenario (stale dead ends must be dropped) under
        // a tiny capacity: correctness must not depend on which entries the
        // LRU happened to keep.
        let specs = regs();
        let config = SearchConfig {
            memo_capacity: Some(2),
            ..SearchConfig::default()
        };
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
        let prefix = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(2, "x", 1)
            .build();
        for e in prefix.events() {
            s.extend(e).unwrap();
        }
        assert!(!s.check().unwrap().holds());
        s.extend(&Event::TryCommit(TxId(1))).unwrap();
        assert!(s.check().unwrap().holds());
    }

    #[test]
    fn parallel_and_bounded_compose() {
        let specs = regs();
        let mut b = HistoryBuilder::new();
        for t in 1..=7u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=7u32 {
            b = b.commit_ok(t);
        }
        b = b.read(8, "x", -1).try_commit(8).commit(8);
        let h = b.build();
        let config = SearchConfig {
            search_jobs: 4,
            memo_capacity: Some(16),
            ..SearchConfig::default()
        };
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
        for e in h.events() {
            s.extend(e).unwrap();
        }
        assert!(!s.check().unwrap().holds());
        assert!(s.memo_resident() <= 16);
    }
}
