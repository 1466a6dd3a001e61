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
//!   states of the live objects)`, which prunes the factorial search to the
//!   number of distinct reachable states. An object is *live* at a
//!   frontier when some unplaced transaction has a completed operation on
//!   it; the others can no longer decide anything (see "Keys on live
//!   objects" below).
//!
//! ## The resumable session
//!
//! The engine is one type, **[`CheckSession`]**: a persistent structure fed
//! one event at a time ([`CheckSession::extend`]) and queried for a verdict
//! on the history seen so far ([`CheckSession::check`]);
//! [`CheckSession::check_history`] does both for the unseen suffix of a
//! growing history, and [`search`] is the default-config one-shot. Four
//! things survive across checks and make the online monitor asymptotically
//! cheaper than re-checking every prefix from scratch:
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
//! 3. **The previous witness is a checkpoint.** A successful check leaves
//!    its DFS path — the placements, the object states they produced, and
//!    their undo log — in the session. The next check rolls the path back
//!    only to the first placement whose transaction changed since (a
//!    completed operation or a `tryC`, or a commit/abort that forbids the
//!    recorded placement) and searches only the suffix below it, so when
//!    the new events merely extend the old serialization — the common case
//!    — a check costs `O(changed suffix)` placements, not `O(|H|)`. This is
//!    sound because the legality of a serialization prefix depends only on
//!    that prefix, and appending events never adds a real-time edge between
//!    two existing transactions: the retained prefix stays a legal,
//!    real-time-compatible prefix, so every completion of it is a witness.
//!    If the suffix has no completion, the check falls back to the full
//!    walk from the root (pruned by the dead ends the suffix search just
//!    recorded), which keeps the search complete;
//!    [`SearchStats::fallbacks`] counts those walks.
//! 4. **Independent components.** Two selected transactions are connected
//!    when a completed operation of each touches the same object or one
//!    real-time-precedes the other; [`CheckSession::components`] counts the
//!    classes. `extend` keeps them as one mask per transaction, merged when
//!    a transaction is selected (with its real-time predecessors and the
//!    objects it touched) and when it completes an operation (with the
//!    object's first toucher); appending events never removes an access
//!    or an edge, so components only merge. The DFS completes one
//!    component before it places anything from another: at a *boundary* —
//!    a frame whose current component is fully placed, which includes
//!    every search root — it starts the component of the first unplaced
//!    candidate and skips every candidate outside it until it is complete.
//!    This loses no witness: a completion can always be reordered stably
//!    to place one component's remaining members first, since only they
//!    touch its objects and no real-time edge crosses components. And once
//!    a component is complete, whether the rest can be completed does not
//!    depend on which of its completions was chosen, so a boundary that
//!    fails (or is a memo dead end) condemns every choice made since the
//!    search root: the search unwinds to the root at once, recording no
//!    further dead ends. Opacity is then decided at the cost of the *sum*
//!    of the components' searches, not their product. From a resumed
//!    prefix that failure is relative to the prefix, so the full-walk
//!    fallback still runs; from the root it is the verdict. A history with
//!    one component is explored exactly as without the rule.
//!
//! Object states live in a session-private, slot-indexed, interned
//! representation (`crate::state`). [`CheckSession::extend`] gives every
//! object a dense slot the first time one of its operations completes,
//! resolving its sequential specification, initial value, and name hash
//! once, and records each completed operation's slot beside the operation.
//! The session numbers every object value a replay produces with a dense
//! id (id 0 is the initial value) and keeps the value's entry hash beside
//! it. The DFS then mutates one canonical state **in place** — a
//! slot-sorted list of the non-initial `(slot, id, entry hash)` entries
//! plus their XOR fingerprint — and undoes placements from a log of the
//! displaced entries, so a placement and its rollback copy integers, not
//! values, and look nothing up by name. Each completed operation caches
//! its last transition, `input id → output id` (or illegal), so a replay
//! from a state it has seen asks the specification nothing. The only copy
//! of a state left is a memo insert, which appends the 8-byte
//! `(slot, id)` pairs of its live objects to the memo's arena
//! (`crate::memo`); a probe is one keyed lookup that compares them in
//! place. [`SearchStats`] counts the inserts and the clones avoided. Slots
//! are never reused inside a session, so a memo entry recorded before an
//! object appeared (the object was then at its initial state, which has no
//! entry) still compares correctly against every later state; equality of
//! the `(slot, id)` lists, not the fingerprint, decides a memo hit.
//!
//! ## Keys on live objects
//!
//! The session keeps, per slot, the mask of the selected transactions that
//! completed an operation on it (filled where a completed operation of a
//! selected transaction is recorded, and when a transaction is selected).
//! At frontier `placed` the memo sees only the state's entries whose slot
//! some transaction of `selected & !placed` uses: the state lends it that
//! filtered view with its own fingerprint, so neither a probe nor an
//! insert copies the state. The DFS state, the undo log and the
//! checkpoint stay whole.
//!
//! In one check this is sound because the unplaced transactions replay
//! operations on live objects only, so two states that agree on them have
//! the same completions. Across checks an entry must not see its live set
//! grow while it stays in the memo, and it does not: a new operation of an
//! unplaced transaction drops every entry that left it unplaced (point 2
//! above), a new transaction has no operation before its first response,
//! which drops every older entry the same way, and in the committed-only
//! modes selecting a transaction clears the memo. On the real-time-chained
//! knots a finished knot leaves one of its writers' values behind that
//! only the final read of `k0` can still need, so without this the memo
//! told `writers ^ knots` states apart.
//!
//! After a check, a session whose value table holds more than twice the
//! ids still referenced (plus a slack) renumbers it: it keeps only the ids
//! that live memo records, the checkpoint's state and its undo log hold,
//! rewrites them there, and forgets every cached transition. Objects whose
//! values are collections reach states that no history event names, so
//! without this a long session's table would outgrow `--memo-budget`.
//!
//! ## The memory-bounded memo
//!
//! A check runs on the calling thread; parallelism lives above it, across
//! sessions and across independent checks (DESIGN.md, "Why a check is
//! single-threaded"). **[`SearchConfig::memo_capacity`]** bounds the
//! resident dead-end entries with per-shard segmented-LRU eviction.
//! Evicting a dead end is always sound — the entry is pure pruning, so the
//! search can only re-pay the exploration that rediscovers it — and
//! composes with the invalidation rules above, which remove entries
//! regardless of segment. [`SearchStats::evictions`] reports the per-check
//! eviction count. Eviction priority is *recompute cost* (see
//! `crate::memo`): the entries that survive a tight budget are the ones
//! whose loss would be expensive, so bounded tables degrade gracefully
//! instead of thrashing. An entry is inserted only once its subtree was
//! explored exhaustively: after the node cap fires, every unwinding frame
//! withholds its (partial) dead end.
//!
//! Opacity checking over arbitrary histories is NP-hard (it embeds
//! view-serializability), so the worst case is necessarily exponential; the
//! memoized search is nonetheless fast for the history sizes produced by
//! tests, the random-history cross-validation, and recorded STM executions.

use std::collections::HashMap;

use crate::memo::ShardedMemo;
use crate::state::{OpSlot, ReplayError, Slot, SlotStates, SlotTable, Undo, ValueTable, NIL};
use tm_model::wellformed::{WfError, WfState};
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
    /// The search produced more distinct object values than a session can
    /// number.
    TooManyValues {
        /// Maximum supported by the engine.
        max: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotWellFormed(e) => write!(f, "history not well-formed: {e}"),
            CheckError::TooManyTransactions { found, max } => {
                write!(f, "{found} transactions exceed engine limit of {max}")
            }
            CheckError::NoSpec(obj) => write!(f, "no sequential specification for {obj}"),
            CheckError::TooManyValues { max } => {
                write!(f, "more than {max} distinct object values")
            }
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

/// Statistics from a search: the exploration counters that tests pin and
/// `--metrics-out` reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// DFS nodes expanded.
    pub nodes: usize,
    /// Dead ends pruned by the memo table.
    pub memo_hits: usize,
    /// Placements rejected by legality replay.
    pub illegal_placements: usize,
    /// Memo-table inserts: each copies the `(slot, id)` pairs of the
    /// state's live objects into the memo's arena, the only copy of a state
    /// the engine makes (no allocation of its own unless the arena opens a
    /// chunk).
    pub state_clones: usize,
    /// Object-state clones *avoided*: one per placement expansion (the
    /// in-place apply/undo replay) and one per memo probe (one keyed lookup
    /// comparing the live state in place), each of which the pre-resumable
    /// engine paid with a full snapshot clone.
    pub clones_saved: usize,
    /// Memo entries evicted by the capacity bound during this check.
    pub evictions: usize,
    /// Full walks from the root run because the search below the resumed
    /// checkpoint found no witness (0 or 1 per check).
    pub fallbacks: usize,
    /// Threads a check ran on: always 1 (a check is single-threaded).
    /// Merged by maximum, not sum.
    pub workers: usize,
}

/// Number of monotone counter cells in [`SearchStats::counter_cells`].
const STAT_CELLS: usize = 7;

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
            self.evictions as u64,
            self.fallbacks as u64,
        ]
    }

    fn set_counter_cells(&mut self, cells: [u64; STAT_CELLS]) {
        self.nodes = cells[0] as usize;
        self.memo_hits = cells[1] as usize;
        self.illegal_placements = cells[2] as usize;
        self.state_clones = cells[3] as usize;
        self.clones_saved = cells[4] as usize;
        self.evictions = cells[5] as usize;
        self.fallbacks = cells[6] as usize;
    }

    /// Accumulates `other` into `self` (used for lifetime totals). The
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

/// Engine configuration knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchConfig {
    /// Hard cap on DFS nodes per check; `None` for unlimited. When hit, the
    /// search conservatively reports "no witness found" via
    /// [`SearchOutcome::witness`] `= None`.
    pub node_limit: Option<usize>,
    /// Bound on resident dead-end memo entries, enforced with per-shard
    /// segmented-LRU eviction; `None` — the default — keeps every entry.
    /// Rounded down to a multiple of the shard count, so the resident
    /// total never exceeds the configured value.
    pub memo_capacity: Option<usize>,
    /// Observability handle (disabled by default — every instrumented
    /// path is then a no-op branch). When enabled, each check folds its
    /// [`SearchStats`] into the sink's counters and records the
    /// feed→verdict latency histogram.
    pub obs: tm_obs::ObsHandle,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            node_limit: None,
            memo_capacity: None,
            obs: tm_obs::ObsHandle::disabled(),
        }
    }
}

const MAX_TXS: usize = 64;

/// The ids a session's value table may hold beyond twice the ids still
/// referenced before a check renumbers it, and the fewest ids it must gain
/// between two scans for references.
const RECLAIM_SLACK: usize = 256;

/// Per-transaction state of the resumable session.
struct TxCell {
    id: TxId,
    view: TxView,
    /// The slot of each operation in `view.ops`, with the operation's last
    /// transition.
    op_slots: Vec<OpSlot>,
    wf: WfState,
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

/// One placement on the DFS path.
#[derive(Clone, Copy, Debug)]
struct Step {
    id: TxId,
    bit: u32,
    placement: Placement,
    /// The undo mark taken before the transaction was replayed: rolling
    /// back to it undoes this step and every later one.
    mark: usize,
}

/// The DFS path and the object states its committed placements produced.
///
/// Every step was a legal, real-time-compatible placement when it was
/// pushed, and a failed replay leaves the states untouched, so the path is
/// a serialization prefix at every point of the search. After a successful
/// check it is the witness, and the session keeps it as the checkpoint the
/// next check resumes from.
#[derive(Default)]
struct Checkpoint {
    states: SlotStates,
    undo: Undo,
    stack: Vec<Step>,
}

impl Checkpoint {
    /// Sets `marks[id]` to 0 for every value id the path holds.
    fn mark_ids(&self, marks: &mut [u32]) {
        self.states.mark_ids(marks);
        self.undo.mark_ids(marks);
    }

    /// Rewrites every value id the path holds through `remap`.
    fn renumber(&mut self, remap: &[u32]) {
        self.states.renumber(remap);
        self.undo.renumber(remap);
    }

    /// Makes room for a path of `txs` placements over `slots` objects, so
    /// that the search does not grow the path step by step.
    fn reserve(&mut self, txs: usize, slots: usize) {
        self.stack.reserve(txs.saturating_sub(self.stack.len()));
        self.undo.reserve(txs);
        self.states.reserve(slots);
    }

    /// Undoes every step from position `len` on.
    fn truncate(&mut self, len: usize) {
        if let Some(step) = self.stack.get(len) {
            self.states.rollback_to(&mut self.undo, step.mark);
            self.stack.truncate(len);
        }
    }
}

/// One check's depth-first search: the transaction metadata and candidate
/// order it borrows from the session, the session's memo table, and the
/// session's checkpoint, which it extends in place and hands back.
struct Dfs<'s> {
    slots: &'s [Slot<'s>],
    /// The session's values: a replay interns the ones it produces.
    values: &'s mut ValueTable,
    /// Mutable for the transition caches of their operations.
    txs: &'s mut [TxCell],
    by_bit: &'s [usize],
    /// [`CheckSession`]'s component mask per bit.
    comp: &'s [u64],
    /// [`CheckSession`]'s users mask per slot.
    users: &'s [u64],
    order: &'s [u32],
    selected_mask: u64,
    node_limit: Option<usize>,
    memo: &'s mut ShardedMemo,
    /// [`SearchConfig::obs`]: a disabled handle outside `--metrics-out`/
    /// `--trace-out`/`--progress` runs. The hot loop touches it only once
    /// every 1024 nodes (the live-progress counter), so the disabled cost
    /// is one masked branch per kilonode.
    obs: tm_obs::ObsHandle,
    path: Checkpoint,
    stats: SearchStats,
    /// Set once the exploration became partial (node cap). From that moment
    /// every unwinding frame's subtree is only partially explored, so its
    /// "dead end" is unreliable and must NOT enter the memo table (a
    /// truncated false would otherwise poison later checks).
    truncated: bool,
    /// Set once a frame at a component boundary failed (or was a memo hit)
    /// in an exploration that was not truncated: every choice made since
    /// the search root is condemned (module docs, point 4), so every frame
    /// unwinds at once without trying alternatives or recording a memo
    /// entry.
    abandon: bool,
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

impl Dfs<'_> {
    /// Replays candidate `ci` in place against the current state.
    /// `Ok(true)`: legal, effects applied; `Ok(false)`: illegal (counted,
    /// state untouched); `Err`: an object without a specification, or a
    /// value the session has no id left for.
    fn place(&mut self, ci: usize) -> Result<bool, CheckError> {
        let tx = &mut self.txs[ci];
        let path = &mut self.path;
        match path.states.replay(
            &tx.view.ops,
            &mut tx.op_slots,
            self.slots,
            self.values,
            &mut path.undo,
        ) {
            Ok(()) => Ok(true),
            Err(ReplayError::Illegal) => {
                self.stats.illegal_placements += 1;
                Ok(false)
            }
            Err(ReplayError::NoSpec(slot)) => Err(CheckError::NoSpec(
                self.slots[slot as usize].obj().name().to_string(),
            )),
            Err(ReplayError::OutOfIds) => Err(CheckError::TooManyValues { max: NIL as usize }),
        }
    }

    /// The recursive search below the frontier `placed`, completing the
    /// component `comp` before any other. The frame is a *boundary* when
    /// `comp` is fully placed (the search root always is, with `comp = 0`);
    /// it then starts the component of the first unplaced candidate.
    fn dfs(&mut self, placed: u64, mut comp: u64) -> Result<bool, CheckError> {
        if placed == self.selected_mask {
            return Ok(true);
        }
        if let Some(limit) = self.node_limit {
            if self.stats.nodes >= limit {
                self.truncated = true;
                return Ok(false);
            }
        }
        let nodes_at_entry = self.stats.nodes;
        self.stats.nodes += 1;
        if self.stats.nodes & 0x3FF == 0 {
            // Live-progress feed (`tmcheck check --progress`): amortized to
            // one registry touch per 1024 nodes so enabled observability
            // stays off the hot path; the exact totals are folded per check.
            self.obs.counter_add("search.nodes_live", 0x400);
        }
        let boundary = placed & comp == comp;
        // Only the unplaced transactions' objects can decide the rest.
        let unplaced = self.selected_mask & !placed;
        self.stats.clones_saved += 1; // memo probe without a key clone
        if self
            .memo
            .probe(placed, self.path.states.live(self.users, unplaced))
        {
            self.stats.memo_hits += 1;
            // A dead end at a boundary condemns the whole search.
            self.abandon |= boundary && !self.truncated;
            return Ok(false);
        }
        if boundary {
            comp = self
                .order
                .iter()
                .find(|&&b| placed & 1 << b == 0)
                .map_or(0, |&b| self.comp[b as usize]);
        }
        // Only the unplaced members of the current component are candidates.
        let open = comp & !placed;
        for k in 0..self.order.len() {
            let b = self.order[k];
            let bit = 1u64 << b;
            let ci = self.by_bit[b as usize];
            if open & bit == 0 || self.txs[ci].pred_mask & !placed != 0 {
                continue;
            }
            let mark = self.path.undo.mark();
            // Replay the candidate against the committed-prefix state.
            if !self.place(ci)? {
                continue;
            }
            let id = self.txs[ci].id;
            let status = self.txs[ci].view.status;
            for &placement in allowed_placements(status) {
                if placement == Placement::Aborted {
                    // Validated above; effects are discarded.
                    self.path.states.rollback_to(&mut self.path.undo, mark);
                }
                self.stats.clones_saved += 1; // placement without a clone
                self.path.stack.push(Step {
                    id,
                    bit: b,
                    placement,
                    mark,
                });
                if self.dfs(placed | bit, comp)? {
                    return Ok(true);
                }
                self.path.stack.pop();
                if self.abandon {
                    break;
                }
            }
            self.path.states.rollback_to(&mut self.path.undo, mark);
            if self.abandon {
                return Ok(false);
            }
        }
        // Frames that finished exploring before the node limit fired are
        // genuine dead ends; frames unwinding after it are not — caching
        // them would let a truncated "no" poison every later check.
        if !self.truncated {
            self.stats.state_clones += 1;
            // The entry's eviction priority is what it cost to establish:
            // the nodes expanded below (and including) this frontier.
            let key = self.path.states.live(self.users, unplaced);
            self.memo
                .insert(placed, key, self.stats.nodes - nodes_at_entry);
        }
        // The components placed since the search root are complete and the
        // rest cannot be completed: no other choice below the root helps.
        self.abandon |= boundary && !self.truncated;
        Ok(false)
    }
}

/// The resumable serialization-search engine, and the one type through
/// which the batch checkers (`is_opaque*`, the Section-3 criteria), the
/// online monitor, and `tm-serve` sessions drive the search.
///
/// Feed events with [`CheckSession::extend`] (or let
/// [`CheckSession::check_history`] consume the suffix of a monotonically
/// growing history) and decide with [`CheckSession::check`]. Between checks
/// the session keeps its transaction metadata, its memo table of dead ends
/// (selectively invalidated — see the module docs for the soundness
/// argument), and the last witness as a checkpoint (the next check resumes
/// below its longest unchanged prefix), so checking every prefix of a
/// history costs far less than independent batch checks.
pub struct CheckSession<'a> {
    specs: &'a SpecRegistry,
    /// The objects seen so far, each resolved against `specs` once.
    slots: SlotTable<'a>,
    /// The object values the searches produced, numbered. It outlives the
    /// checkpoint (an error drops the path), because memo records hold ids.
    values: ValueTable,
    /// The ids referenced at the last reclamation scan, and the table's
    /// size after it (see [`CheckSession::reclaim`]).
    reclaim: (usize, usize),
    mode: SearchMode,
    config: SearchConfig,
    txs: Vec<TxCell>,
    index: HashMap<TxId, usize>,
    /// Cell index per assigned bit.
    by_bit: Vec<usize>,
    /// The component of each assigned bit: the mask of the selected
    /// transactions connected to it by shared objects and real-time edges
    /// (module docs, point 4). Components only ever merge.
    comp: Vec<u64>,
    /// Per object slot, the bits of the selected transactions that
    /// completed an operation on it: the memo keys a frontier on the slots
    /// its unplaced transactions use.
    users: Vec<u64>,
    events_seen: usize,
    selected_mask: u64,
    /// Bits of selected transactions that are completed (used to freeze
    /// `pred_mask` for transactions created later).
    completed_selected_mask: u64,
    /// Dead ends: placed-set mask × canonical object states from which the
    /// remaining transactions cannot be completed; bounded per
    /// [`SearchConfig::memo_capacity`].
    memo: ShardedMemo,
    /// The DFS path of the last check: the witness after a success.
    checkpoint: Checkpoint,
    /// Bits whose transaction completed an operation or issued `tryC`
    /// since the last check: their checkpoint steps must be re-placed.
    changed: u64,
    /// Bits whose transaction committed or aborted since the last check:
    /// their steps must be re-placed only if the new status forbids the
    /// recorded placement.
    settled: u64,
    stats: SearchStats,
    lifetime: SearchStats,
    checks: usize,
    /// DFS scratch: candidate bit order, the checkpoint path first.
    order: Vec<u32>,
}

impl<'a> CheckSession<'a> {
    /// A session over an initially empty history.
    pub fn new(specs: &'a SpecRegistry, mode: SearchMode, config: SearchConfig) -> Self {
        CheckSession {
            specs,
            slots: SlotTable::default(),
            values: ValueTable::default(),
            reclaim: (0, 0),
            mode,
            config,
            txs: Vec::new(),
            index: HashMap::new(),
            by_bit: Vec::new(),
            comp: Vec::new(),
            users: Vec::new(),
            events_seen: 0,
            selected_mask: 0,
            completed_selected_mask: 0,
            memo: ShardedMemo::new(config.memo_capacity),
            checkpoint: Checkpoint::default(),
            changed: 0,
            settled: 0,
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

    /// Statistics of the most recent [`CheckSession::check`].
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

    /// Number of independent components among the selected transactions:
    /// classes connected by operations on a shared object or by real-time
    /// order. A check completes one component before it starts the next.
    pub fn components(&self) -> usize {
        self.comp
            .iter()
            .enumerate()
            .filter(|&(b, &m)| m.trailing_zeros() as usize == b)
            .count()
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

    /// Retunes the memo capacity of a live session (`None` = unbounded) —
    /// the hook a memory governor (the `tm-serve` session table) uses to
    /// apportion a global memo budget across many sessions. Sound in both
    /// directions: memo entries are pure pruning, so shrinking (which
    /// evicts down to the new bound) and the unbounded → bounded clear can
    /// only cost re-exploration, never change a verdict.
    pub fn set_memo_capacity(&mut self, capacity: Option<usize>) {
        self.config.memo_capacity = capacity;
        self.memo.set_capacity(capacity);
        // The memo may hold fewer ids now: scan after the next check.
        self.reclaim = (0, 0);
    }

    /// Consumes one event, updating transaction metadata incrementally and
    /// invalidating exactly the memo entries the event can unsound.
    ///
    /// Fails — leaving the session unchanged, so the event is *not* consumed —
    /// if the event violates well-formedness or overflows the engine's
    /// transaction limit.
    pub fn extend(&mut self, e: &Event) -> Result<(), CheckError> {
        let tx = e.tx();
        let index = self.events_seen;
        let ci = match self.index.get(&tx) {
            Some(&ci) => ci,
            None => {
                // First event of a new transaction. Validate before creating
                // the cell so a failed extend leaves the session untouched.
                WfState::Idle
                    .step(e, index, None)
                    .map_err(CheckError::NotWellFormed)?;
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
                    wf: WfState::Idle,
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

        // The well-formedness automaton of `tm_model::wellformed`, one
        // event at a time: the pending invocation is the transaction view's.
        let cell = &self.txs[ci];
        let pending = cell.view.pending.as_ref().map(|(obj, op, _)| (obj, op));
        let next_wf = cell
            .wf
            .step(e, index, pending)
            .map_err(CheckError::NotWellFormed)?;
        // Last fallible step, checked BEFORE committing any mutation so a
        // failed extend leaves the session exactly as it was: in committed-only
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

        // Apply the event to the view/status and invalidate memo entries.
        match e {
            Event::Inv { obj, op, args, .. } => {
                // A pending invocation imposes no legality constraint: no
                // memo entry can become unsound.
                self.txs[ci].view.pending = Some((obj.clone(), op.clone(), args.clone()));
            }
            Event::Ret { obj, val, .. } => {
                // An object the slot table has no room for (2^32 of them)
                // cannot be given a specification slot.
                let Some(slot) = self.slots.slot_of(obj, self.specs) else {
                    return Err(CheckError::NoSpec(obj.name().to_string()));
                };
                // The WF automaton matched the response to this pending
                // invocation (same object and operation).
                let Some((obj, op, args)) = self.txs[ci].view.pending.take() else {
                    return Err(CheckError::NotWellFormed(WfError::UnmatchedResponse {
                        tx,
                        index,
                    }));
                };
                self.txs[ci].op_slots.push(OpSlot::new(slot));
                self.txs[ci].view.ops.push(tm_model::OpExec {
                    tx,
                    obj,
                    op,
                    args,
                    val: val.clone(),
                });
                if let Some(b) = self.txs[ci].bit {
                    self.touch(b, slot);
                }
                // The new operation could rescue dead ends in which this
                // transaction was still unplaced (its committed placement
                // now changes the state differently). Entries that already
                // placed it remain sound: they only claim things about the
                // *other* transactions.
                self.widened(ci);
            }
            Event::TryCommit(_) => {
                self.txs[ci].view.status = TxStatus::CommitPending;
                // Widening: {Aborted} → {Committed, Aborted}. Same rule as a
                // new operation.
                self.widened(ci);
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
                self.settled(ci);
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
                self.settled(ci);
            }
        }
        self.txs[ci].wf = next_wf;
        self.events_seen += 1;
        Ok(())
    }

    /// Selects transaction `ci`: gives it the next bit and joins its
    /// component with its real-time predecessors' and with the users of
    /// the objects its completed operations touched.
    fn assign_bit(&mut self, ci: usize) {
        let b = self.by_bit.len() as u32;
        self.txs[ci].bit = Some(b);
        self.by_bit.push(ci);
        self.selected_mask |= 1 << b;
        self.comp.push(1 << b);
        self.join(b, self.txs[ci].pred_mask);
        for k in 0..self.txs[ci].op_slots.len() {
            self.touch(b, self.txs[ci].op_slots[k].slot());
        }
    }

    /// Bit `b` completed an operation on `slot`: becomes one of its users
    /// and joins their component.
    fn touch(&mut self, b: u32, slot: u32) {
        let slot = slot as usize;
        if self.users.len() <= slot {
            self.users.resize(slot + 1, 0);
        }
        self.users[slot] |= 1 << b;
        self.join(b, self.users[slot]);
    }

    /// Merges the component of bit `b` with the components of the bits in
    /// `with`: every member of the union gets the union's mask.
    fn join(&mut self, b: u32, with: u64) {
        let mut union = self.comp[b as usize];
        let mut rest = with & !union;
        while rest != 0 {
            union |= self.comp[rest.trailing_zeros() as usize];
            rest = with & !union;
        }
        if union != self.comp[b as usize] {
            let mut members = union;
            while members != 0 {
                self.comp[members.trailing_zeros() as usize] = union;
                members &= members - 1;
            }
        }
    }

    /// Transaction `ci` completed an operation or widened its placement
    /// set: drops the memo entries whose placed-set does *not* contain it
    /// (those are the entries the change could rescue) and marks its
    /// checkpoint step for re-placement.
    fn widened(&mut self, ci: usize) {
        if let Some(b) = self.txs[ci].bit {
            self.memo.retain_placing(1u64 << b);
            self.changed |= 1u64 << b;
        }
    }

    /// Transaction `ci` committed or aborted: it is complete, and its
    /// checkpoint step must be re-checked against the narrowed status.
    fn settled(&mut self, ci: usize) {
        if let Some(b) = self.txs[ci].bit {
            self.completed_selected_mask |= 1u64 << b;
            self.settled |= 1u64 << b;
        }
    }

    /// Consumes the not-yet-seen suffix of `h` and checks.
    ///
    /// `h` must be an extension of the history fed so far (the session
    /// trusts the already-consumed prefix and only reads `h`'s tail) — which
    /// is exactly the monitor's situation, and trivially true for one-shot
    /// batch checks on a fresh session.
    pub fn check_history(&mut self, h: &History) -> Result<SearchOutcome, CheckError> {
        for e in &h.events()[self.events_seen.min(h.len())..] {
            self.extend(e)?;
        }
        self.check()
    }

    /// Decides the criterion for the history fed so far.
    ///
    /// The search resumes from the checkpoint: the last check's path is
    /// rolled back to its first step whose transaction changed since, and
    /// only the suffix below that prefix is searched. A check whose new
    /// events merely extend the old serialization therefore places only the
    /// changed and new transactions. If the suffix has no completion, the
    /// full walk from the root decides.
    pub fn check(&mut self) -> Result<SearchOutcome, CheckError> {
        self.checks += 1;
        let (changed, settled) = (
            std::mem::take(&mut self.changed),
            std::mem::take(&mut self.settled),
        );
        // The checkpoint stays valid up to its first step that must be
        // re-placed: its transaction completed an operation or issued
        // `tryC`, or committed or aborted against the recorded placement.
        let stack = &self.checkpoint.stack;
        let valid = stack
            .iter()
            .position(|s| {
                let bit = 1u64 << s.bit;
                let forbidden = || {
                    let status = self.txs[self.by_bit[s.bit as usize]].view.status;
                    !allowed_placements(status).contains(&s.placement)
                };
                changed & bit != 0 || (settled & bit != 0 && forbidden())
            })
            .unwrap_or(stack.len());
        // Candidate order: the checkpoint path (still real-time compatible
        // — appending events never orders two existing transactions), then
        // every other transaction in first-selection order.
        self.order.clear();
        self.order.reserve(self.by_bit.len());
        let mut seen = 0u64;
        for s in stack {
            seen |= 1 << s.bit;
            self.order.push(s.bit);
        }
        for b in 0..self.by_bit.len() as u32 {
            if seen & (1 << b) == 0 {
                self.order.push(b);
            }
        }
        let prefix_mask = self.order[..valid].iter().fold(0u64, |m, &b| m | 1 << b);
        self.checkpoint.truncate(valid);
        self.checkpoint
            .reserve(self.by_bit.len(), self.slots.slots().len());
        let evictions_before = self.memo.evictions();
        let obs = self.config.obs;
        let _check_span = obs.span("check", "search");
        let started = obs.enabled().then(std::time::Instant::now);
        let mut dfs = Dfs {
            slots: self.slots.slots(),
            values: &mut self.values,
            txs: &mut self.txs,
            by_bit: &self.by_bit,
            comp: &self.comp,
            users: &self.users,
            order: &self.order[valid..],
            selected_mask: self.selected_mask,
            node_limit: self.config.node_limit,
            memo: &mut self.memo,
            obs,
            path: std::mem::take(&mut self.checkpoint),
            stats: SearchStats::default(),
            truncated: false,
            abandon: false,
        };
        let mut found = dfs.dfs(prefix_mask, 0)?;
        if !found && valid > 0 && !dfs.truncated {
            // The retained prefix has no completion (an abandoned search
            // proves only that much): decide from the root.
            dfs.stats.fallbacks += 1;
            dfs.abandon = false;
            dfs.path.truncate(0);
            dfs.order = &self.order;
            found = dfs.dfs(0, 0)?;
        }
        let Dfs {
            path, mut stats, ..
        } = dfs;
        // An error above drops the path: the next check starts from the
        // root, as a fresh session would.
        self.checkpoint = path;
        self.reclaim();
        stats.evictions = self.memo.evictions() - evictions_before;
        stats.workers = 1;
        if let Some(t0) = started {
            // The feed→verdict latency: everything between the check request
            // and the verdict for the events fed so far.
            obs.observe("check.verdict_ns", t0.elapsed().as_nanos() as u64);
            self.fold_stats(&stats);
        }
        self.stats = stats;
        self.lifetime.absorb(&stats);
        let witness = found.then(|| Witness {
            order: self
                .checkpoint
                .stack
                .iter()
                .map(|s| (s.id, s.placement))
                .collect(),
        });
        Ok(SearchOutcome { witness, stats })
    }

    /// Renumbers the value table once it holds more than twice the ids
    /// still referenced, plus [`RECLAIM_SLACK`]: only the ids that live
    /// memo records and the checkpoint hold are kept, and every cached
    /// transition is forgotten. Ids keep their order and their hashes, so
    /// fingerprints, shards and every later search are unchanged.
    ///
    /// Counting the references walks the memo, so it runs only once the
    /// table has outgrown twice the count of the last scan (plus the slack)
    /// and gained at least the slack since. After every check the table
    /// therefore holds at most twice the ids referenced at the last scan
    /// plus twice the slack.
    fn reclaim(&mut self) {
        let (referenced, scanned) = self.reclaim;
        let len = self.values.len();
        if len <= referenced.saturating_mul(2).saturating_add(RECLAIM_SLACK)
            || len < scanned.saturating_add(RECLAIM_SLACK)
        {
            return;
        }
        let mut marks = self.referenced_ids();
        let referenced = marks.iter().filter(|&&m| m != NIL).count();
        if len > 2 * referenced + RECLAIM_SLACK {
            self.values.renumber(&mut marks);
            self.memo.renumber(&marks);
            self.checkpoint.renumber(&marks);
            for tx in &mut self.txs {
                tx.op_slots.iter_mut().for_each(OpSlot::forget);
            }
        }
        self.reclaim = (referenced, self.values.len());
    }

    /// One mark per value id: 0 for the ids that live memo records and the
    /// checkpoint hold, `NIL` for the rest.
    fn referenced_ids(&self) -> Vec<u32> {
        let mut marks = vec![NIL; self.values.len()];
        self.memo.mark_ids(&mut marks);
        self.checkpoint.mark_ids(&mut marks);
        marks
    }

    /// Folds one check's [`SearchStats`] into the observability sink — per
    /// check, never per node, so enabled metrics stay off the DFS hot path.
    fn fold_stats(&self, stats: &SearchStats) {
        let obs = self.config.obs;
        obs.counter_add("search.checks", 1);
        obs.counter_add("search.nodes", stats.nodes as u64);
        obs.counter_add("search.illegal_placements", stats.illegal_placements as u64);
        obs.counter_add("search.clones_saved", stats.clones_saved as u64);
        // The memo lifecycle: every expanded node is exactly one probe, and
        // every state clone is one insert.
        obs.counter_add("memo.probes", stats.nodes as u64);
        obs.counter_add("memo.hits", stats.memo_hits as u64);
        obs.counter_add("memo.inserts", stats.state_clones as u64);
        obs.counter_add("memo.evictions", stats.evictions as u64);
        obs.counter_add("search.fallbacks", stats.fallbacks as u64);
        obs.gauge_set("memo.resident", self.memo.resident() as u64);
        obs.gauge_set("search.workers", stats.workers as u64);
        obs.gauge_set("search.components", self.components() as u64);
    }
}

/// One-shot convenience: search `h` under `mode` with default configuration
/// (callers with a configuration use
/// `CheckSession::new(specs, mode, config).check_history(h)`).
pub fn search(
    h: &History,
    specs: &SpecRegistry,
    mode: SearchMode,
) -> Result<SearchOutcome, CheckError> {
    CheckSession::new(specs, mode, SearchConfig::default()).check_history(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_model::builder::{paper, HistoryBuilder};
    use tm_model::objects::FifoQueue;
    use tm_model::{OpName, Value};

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
        // Eight concurrent committed blind writers and a committed reader of
        // a value nobody wrote: the refutation must exhaust 8! writer orders,
        // but their states are only (placed set, last writer), so the memo
        // cuts the search to 8 · 2^7 + 1 dead-end frontiers. The exploration
        // is pinned exactly: `(nodes, memo_hits, state_clones)`.
        let mut b = HistoryBuilder::new();
        for t in 1..=8u32 {
            b = b.write(t, "x", t as i64);
        }
        b = b.read(9, "x", 99);
        for t in 1..=9u32 {
            b = b.commit_ok(t);
        }
        let h = b.build();
        let out = CheckSession::new(&regs(), SearchMode::OPACITY, SearchConfig::default())
            .check_history(&h)
            .unwrap();
        assert!(!out.holds());
        assert_eq!(
            (out.stats.nodes, out.stats.memo_hits, out.stats.state_clones),
            (3593, 2568, 1025)
        );
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
        let out = CheckSession::new(
            &regs(),
            SearchMode::OPACITY,
            SearchConfig {
                node_limit: Some(1),
                ..SearchConfig::default()
            },
        )
        .check_history(&h)
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
    fn extension_check_cost_is_independent_of_history_length() {
        // The check after appending one more link to a chain resumes below
        // the whole previous witness: it places only the new transaction,
        // whether the chain is 12 or 48 transactions long.
        let specs = regs();
        let extension_nodes = |n: u32| {
            let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
            let mut b = HistoryBuilder::new();
            for t in 1..=n + 1 {
                b = b
                    .read(t, "x", (t - 1) as i64)
                    .write(t, "x", t as i64)
                    .commit_ok(t);
            }
            let h = b.build();
            let (chain, link) = h.events().split_at(h.len() - 6);
            for e in chain {
                s.extend(e).unwrap();
            }
            assert!(s.check().unwrap().holds());
            for e in link {
                s.extend(e).unwrap();
            }
            let out = s.check().unwrap();
            assert!(out.holds());
            assert_eq!(out.witness.unwrap().order.len(), n as usize + 1);
            assert_eq!(out.stats.illegal_placements, 0);
            assert_eq!(out.stats.fallbacks, 0);
            out.stats.nodes
        };
        assert_eq!(extension_nodes(12), 1);
        assert_eq!(extension_nodes(48), 1);
    }

    #[test]
    fn a_prefix_without_completion_falls_back_to_the_full_walk() {
        // T3's read of y is pending while T2 writes y=7 and commits, so the
        // checkpoint after C2 is T1 · T2 · T3(aborted). Then T3's read
        // returns 5: T3 must move before T2, which the retained prefix
        // T1 · T2 cannot accommodate. The suffix search fails, and the
        // walk from the root finds T1 · T3 · T2 — exactly one fallback.
        let specs = regs();
        let obs = tm_obs::ObsHandle::install();
        let config = SearchConfig {
            obs,
            ..SearchConfig::default()
        };
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
        let h = HistoryBuilder::new()
            .write(1, "y", 5)
            .commit_ok(1)
            .inv_write(2, "y", 7)
            .inv_read(3, "y")
            .ret_write(2, "y")
            .try_commit(2)
            .commit(2)
            .ret_read(3, "y", 5)
            .build();
        let mut last = None;
        for e in h.events() {
            s.extend(e).unwrap();
            if e.is_response() {
                let out = s.check().unwrap();
                assert!(out.holds(), "every response prefix is opaque");
                last = Some(out);
            }
        }
        let last = last.unwrap();
        assert_eq!(last.stats.fallbacks, 1);
        assert_eq!(s.lifetime_stats().fallbacks, 1);
        assert_eq!(
            last.witness.unwrap().tx_order(),
            vec![TxId(1), TxId(3), TxId(2)]
        );
        let snapshot = obs.snapshot().unwrap();
        assert_eq!(snapshot.counter("search.fallbacks"), Some(1));
        assert!(search(&h, &specs, SearchMode::OPACITY).unwrap().holds());
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
        let reference = CheckSession::new(&specs, SearchMode::OPACITY, config)
            .check_history(&h)
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
            let fresh = CheckSession::new(&specs, SearchMode::OPACITY, config)
                .check_history(&h.prefix(i + 1))
                .unwrap()
                .holds();
            // The session may only be BETTER than fresh (resuming from its
            // checkpoint finds serializations the truncated fresh search
            // misses), never worse: a stale truncated "no" must never veto
            // a "yes".
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

    #[test]
    fn truncation_never_inserts_into_the_memo() {
        // The regression pinned here: with the node budget exhausted at the
        // first expansion, every frame unwinds truncated and the table must
        // stay EMPTY — a single cached entry would be a partial exploration
        // masquerading as a dead end.
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
            ..SearchConfig::default()
        };
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, config);
        assert!(
            !s.check_history(&h).unwrap().holds(),
            "budget 1 cannot finish"
        );
        assert_eq!(
            s.memo_resident(),
            0,
            "a truncated check must not populate the memo"
        );
        // And the truncation is not sticky knowledge: a session with the
        // budget lifted finds the witness (h IS opaque).
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        assert!(s.check_history(&h).unwrap().holds());
    }

    // ---- independent components ----------------------------------------

    #[test]
    fn finishing_one_component_before_the_next_keeps_a_dstm_history_opaque() {
        // Components {T1, T3} (r0) and {T2} (r1), with no real-time edge:
        // T3 reads r0 before T1's write and aborts with a read of r1
        // pending, T2 reads r1 = 0 then writes it. A search that switched
        // to the component of each frame's first unplaced transaction,
        // instead of finishing the one it started, refuted this history.
        let h = HistoryBuilder::new()
            .write(1, "r0", 5)
            .read(2, "r1", 0)
            .read(3, "r0", 0)
            .try_commit(1)
            .commit(1)
            .inv_read(3, "r1")
            .abort(3)
            .write(2, "r1", 9)
            .try_commit(2)
            .commit(2)
            .build();
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        assert!(s.check_history(&h).unwrap().holds());
        assert_eq!(s.components(), 2);
    }

    #[test]
    fn a_real_time_edge_joins_components() {
        // T1 (x) and T2 (y) share no object, but T2 completes before T3
        // (x) begins, so all three are one component. Split along objects
        // alone, the component {T1, T3} could never place T3, whose
        // predecessor T2 lies outside it, and the search would give up on
        // an opaque history.
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .try_commit(1)
            .write(2, "y", 1)
            .try_commit(2)
            .commit(2)
            .read(3, "x", 1)
            .try_commit(3)
            .commit(3)
            .commit(1)
            .build();
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let out = s.check_history(&h).unwrap();
        assert!(out.holds());
        assert_eq!(s.components(), 1);
        assert_eq!(
            out.witness.unwrap().tx_order(),
            vec![TxId(1), TxId(2), TxId(3)]
        );
    }

    #[test]
    fn components_only_merge_as_events_arrive() {
        // Counts after each event: T1 (x) and T2 (y) start apart; T3
        // begins after T1 completed, so it joins T1 at once (a real-time
        // edge) and the count stays 2; T2's completed write of x then
        // joins T1's component.
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .write(2, "y", 2)
            .try_commit(1)
            .commit(1)
            .read(3, "z", 0)
            .write(2, "x", 3)
            .build();
        let mut counts = Vec::new();
        for e in h.events() {
            s.extend(e).unwrap();
            counts.push(s.components());
        }
        assert_eq!(counts, [1, 1, 2, 2, 2, 2, 2, 2, 2, 1]);
    }

    // ---- live-object keys ------------------------------------------------

    /// Knot 0 of two real-time-chained knots: gate 1 commits `g0`, then
    /// writers 2 and 3 of `k0` = 20 and 30 and reader 4 of `k0` = 20 run
    /// concurrently and commit. The first order the search tries, 2 · 4 · 3,
    /// leaves `k0` at 30; only 3 · 2 · 4 leaves it at 20.
    fn first_knot() -> HistoryBuilder {
        HistoryBuilder::new()
            .write(1, "g0", 1)
            .commit_ok(1)
            .write(2, "k0", 20)
            .write(3, "k0", 30)
            .read(4, "k0", 20)
            .commit_ok(2)
            .commit_ok(3)
            .commit_ok(4)
    }

    /// Checks the first `batch` events of `h` at once, which must leave
    /// dead ends in the memo, then checks after every further event, and
    /// asserts that the session agrees with a fresh session on every
    /// prefix.
    fn assert_streamed_like_fresh(h: &History, batch: usize) {
        let specs = regs();
        let mut s = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        for (i, e) in h.events().iter().enumerate() {
            s.extend(e).unwrap();
            if i + 1 < batch {
                continue;
            }
            let live = s.check().unwrap().holds();
            if i + 1 == batch {
                assert!(s.memo_resident() > 0, "no dead end after the batch");
            }
            let fresh = search(&h.prefix(i + 1), &specs, SearchMode::OPACITY)
                .unwrap()
                .holds();
            assert_eq!(live, fresh, "prefix {} of {h}", i + 1);
        }
    }

    #[test]
    fn a_new_transaction_reading_a_dead_object_is_checked_like_a_fresh_session() {
        // One check of both knots records the dead ends of knot 1 (gate 5,
        // writers 6 and 7 of `k1`, reader 8), where no unplaced transaction
        // uses `k0`, so they are keyed without it. Then transaction 9
        // begins and reads `k0`: 20 is left only by the second order of
        // knot 0, 30 by the first, and 40 by none.
        let knots = first_knot()
            .write(5, "g1", 1)
            .commit_ok(5)
            .write(6, "k1", 60)
            .write(7, "k1", 70)
            .read(8, "k1", 60)
            .commit_ok(6)
            .commit_ok(7)
            .commit_ok(8);
        let at = knots.clone().build().len();
        for (late, opaque) in [(20, true), (30, true), (40, false)] {
            let h = knots.clone().read(9, "k0", late).commit_ok(9).build();
            assert_streamed_like_fresh(&h, at);
            assert_eq!(
                search(&h, &regs(), SearchMode::OPACITY).unwrap().holds(),
                opaque
            );
        }
    }

    #[test]
    fn a_new_operation_on_a_dead_object_is_checked_like_a_fresh_session() {
        // Transaction 9 begins inside knot 1 and reads `z`, so one check of
        // both knots records dead ends of knot 1's interior that leave it
        // unplaced and are keyed without `k0`. Then it reads `k0` (20 is
        // left only by the second order of knot 0, 40 by none) and writes
        // `k1`.
        let knots = first_knot()
            .write(5, "g1", 1)
            .commit_ok(5)
            .write(6, "k1", 60)
            .write(7, "k1", 70)
            .read(9, "z", 0)
            .read(8, "k1", 60)
            .commit_ok(6)
            .commit_ok(7)
            .commit_ok(8);
        let at = knots.clone().build().len();
        for (late, opaque) in [(20, true), (40, false)] {
            let h = knots
                .clone()
                .read(9, "k0", late)
                .write(9, "k1", 90)
                .commit_ok(9)
                .build();
            assert_streamed_like_fresh(&h, at);
            assert_eq!(
                search(&h, &regs(), SearchMode::OPACITY).unwrap().holds(),
                opaque
            );
        }
    }

    #[test]
    fn a_dead_end_sibling_differing_in_a_live_object_is_not_a_hit() {
        // Writers 1 and 2 of `x` are concurrent, and reader 3 of `x` = 1
        // follows both. The first order, 1 · 2, leaves `x` at 2 and is a
        // dead end at the frontier {1, 2}; the sibling 2 · 1 reaches the
        // same frontier with `x` at 1. Only unplaced reader 3 uses `x`
        // there: a key that left `x` out would take the sibling for the
        // dead end and refute the history. In the committed-only mode the
        // writers' uses of `x` are recorded when they commit.
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .write(2, "x", 2)
            .commit_ok(1)
            .commit_ok(2)
            .read(3, "x", 1)
            .commit_ok(3)
            .build();
        for mode in [SearchMode::OPACITY, SearchMode::STRICT_SERIALIZABILITY] {
            let out = search(&h, &regs(), mode).unwrap();
            assert_eq!(out.stats.memo_hits, 0, "{mode:?}");
            let w = out.witness.expect("2 · 1 · 3 is a witness");
            assert_eq!(w.tx_order(), vec![TxId(2), TxId(1), TxId(3)], "{mode:?}");
        }
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
        let unbounded = CheckSession::new(&specs, SearchMode::OPACITY, SearchConfig::default())
            .check_history(&h)
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

    // ---- value-id reclamation -------------------------------------------

    #[test]
    fn reclamation_renumbers_values_without_changing_any_check() {
        // Rounds of five concurrent enqueuers of fresh values, each round
        // closed by a dequeuer that pops them in the reverse of the order
        // the search tries first: every round explores the orders of its
        // enqueuers, reaching queue states that no event names and that no
        // dead end keeps under a small memo. Fed event by event, with a
        // node limit that cuts the later checks short, the session that
        // reclaims must check exactly like one that never does.
        let mut b = HistoryBuilder::new();
        for r in 0..10u32 {
            let first = 6 * r + 1;
            let enqueuers = first..first + 5;
            for t in enqueuers.clone() {
                b = b.op(t, "q", OpName::Enq, vec![Value::int(t.into())], Value::Ok);
            }
            for t in enqueuers.clone() {
                b = b.commit_ok(t);
            }
            for t in enqueuers.rev() {
                b = b.op(first + 5, "q", OpName::Deq, vec![], Value::int(t.into()));
            }
            b = b.commit_ok(first + 5);
        }
        let h = b.build();
        let specs = SpecRegistry::new().with_default(Arc::new(FifoQueue));
        let config = SearchConfig {
            node_limit: Some(300),
            memo_capacity: Some(64),
            ..SearchConfig::default()
        };
        let mut reclaiming = CheckSession::new(&specs, SearchMode::OPACITY, config);
        let mut keeping = CheckSession::new(&specs, SearchMode::OPACITY, config);
        keeping.reclaim = (usize::MAX, usize::MAX);
        let (mut peak, mut renumbered, mut last_len, mut cut) = (0, 0, 0, 0);
        for e in h.events() {
            reclaiming.extend(e).unwrap();
            keeping.extend(e).unwrap();
            if !e.is_response() {
                continue;
            }
            let got = reclaiming.check().unwrap();
            let expected = keeping.check().unwrap();
            assert_eq!(got.witness, expected.witness);
            assert_eq!(got.stats, expected.stats);
            let referenced = reclaiming
                .referenced_ids()
                .iter()
                .filter(|&&m| m != NIL)
                .count();
            peak = peak.max(referenced);
            let len = reclaiming.values.len();
            assert!(
                len <= 2 * peak + 2 * RECLAIM_SLACK,
                "{len} ids, at most {peak} referenced"
            );
            renumbered += usize::from(len < last_len);
            last_len = len;
            cut += usize::from(got.stats.nodes == 300);
        }
        assert!(renumbered >= 2, "renumbered {renumbered} times");
        assert!(cut > 0, "the node limit never bound");
        assert!(
            keeping.values.len() > 2 * peak + 2 * RECLAIM_SLACK,
            "the workload outgrows the bound without reclamation: {} ids",
            keeping.values.len()
        );
        assert_eq!(reclaiming.lifetime_stats(), keeping.lifetime_stats());
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
}
