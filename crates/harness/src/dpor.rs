//! Step-granular deterministic exploration of real TM executions.
//!
//! The op-level explorer in [`crate::sched`] interleaves whole transactional
//! operations, which is exactly the granularity at which the seeded
//! *concurrency* mutants of `tm_stm::mutants` are invisible: an op-granular
//! schedule can never split a clock tick between its load and its CAS. This
//! module closes that blind spot. The paper's own step model (Section 6.1)
//! defines a step as a single access on a single base shared object; the
//! instrumented [`tm_stm::base::Meter`] announces every such access through a
//! [`StepProbe`], and the cooperative stepper here turns each announcement
//! into a yield-point.
//!
//! # How a run works
//!
//! Every logical thread of a [`Program`] becomes one OS thread. Before each
//! *blocking* base-object access (one performed while holding no
//! record-section mutex) the probe parks the worker; a driver grants exactly
//! one parked step at a time, so the whole execution is serialized at step
//! granularity and is deterministic in the granted schedule. Two extra rules
//! make this sound for the real protocols:
//!
//! * every worker parks once at [`Step::Start`] *before* `stm.begin`, so
//!   transaction-id assignment and the begin-time clock sample are themselves
//!   scheduled steps;
//! * a pending [`AccessKind::Acquire`] on a cell some other thread holds is
//!   *disabled* — the driver never grants it, so the underlying mutex
//!   acquisition can never block for real. Releases are free (non-parking)
//!   and re-enable the waiters within the holder's own granted step.
//!
//! Accesses inside record sections (`Meter::begin_atomic`) are logged but
//! never park: a worker must not sleep while holding an unmodeled mutex.
//! They execute within the granted step that opened the section, which is
//! why the dependence relation below treats record-section steps
//! conservatively.
//!
//! # Partial-order reduction
//!
//! The explorer runs a sleep-set DFS over granted schedules: after a branch
//! `t` is fully explored at a node, `t` goes to sleep for the remaining
//! branches and wakes only when a step *dependent* on `t`'s pending step is
//! executed. Two steps are dependent when they may not commute:
//!
//! * two accesses conflict iff they may touch the same base object and at
//!   least one writes (`Write`, `Rmw`, `Acquire`, `Release`);
//! * a record-section step may also read and write transaction *status*
//!   words (settle / wound-or-die / clean run inside the section), so
//!   `Record(_)` and `Status(_)` cells are conservatively aliased;
//! * `Start` carries the transaction-id draw and the begin-time clock
//!   sample, so two `Start`s conflict (id order decides wound-or-die
//!   seniority) and `Start` conflicts with any clock write.
//!
//! Sleep sets never lose a Mazurkiewicz trace, so with an unlimited budget
//! the explored outcome set equals the naive enumeration's — a property the
//! test suite checks for every non-blocking TM. A bounded-preemption mode
//! (`preemption_bound`) additionally prunes schedules with more than K
//! context switches away from an enabled thread; that mode is an explicit
//! under-approximation, in the spirit of bounded model checking.
//!
//! # Judging a run
//!
//! Each complete run is judged by [`convictions`]: the vector-clock race
//! checker ([`crate::race`]) reads its step trace, and the opacity checker
//! ([`tm_opacity::opacity::is_opaque`]) reads its recorded history. That
//! history ends with the explorer's read-back transaction, so the final
//! registers are judged too. A non-opaque history convicts the run whether
//! the torn view reached a committed transaction or only an aborted one
//! (the paper's §2 hazard).
//!
//! One known limit: sleep sets keep the outcome set but not every recorded
//! history, because recorder appends are not modeled steps. Two runs that
//! differ only in where another thread's events fall between commuting
//! steps count as one trace, so the reduced explorer may judge only one of
//! them. On `nonopaque`'s reader-vs-writer probe it finds 2 of the 3
//! non-opaque histories that naive enumeration finds.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::race::{self, RaceViolation};
use crate::script::{Program, ScriptOp};
use tm_model::{History, SpecRegistry};
use tm_opacity::opacity::is_opaque;
use tm_stm::trace_cells::{AccessKind, CellId, StepProbe, TraceEvent};
use tm_stm::{Stm, StmConfig};

/// A shared, probe-wired TM instance for the stepper to drive.
pub type SharedStm = Arc<dyn Stm>;

/// Builds a fresh TM wired to the explorer's gate, the probe it is passed.
pub type StmFactory<'a> = &'a (dyn Fn(Arc<dyn StepProbe>) -> SharedStm + Sync);

/// Wires `probe` into a fresh [`StmConfig`] for `k` registers — the shape
/// every factory closure wants.
pub fn probed_config(k: usize, probe: Arc<dyn StepProbe>) -> StmConfig {
    StmConfig::new(k).probe(probe)
}

// ---------------------------------------------------------------------------
// Steps and dependence
// ---------------------------------------------------------------------------

/// One schedulable yield-point of a worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The pre-`begin` park: covers the transaction-id draw and the
    /// begin-time clock sample (`GlobalClock::peek`), neither of which is a
    /// metered access of its own.
    Start,
    /// A blocking base-object access announced by the meter.
    Access(CellId, AccessKind),
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Start => write!(f, "start"),
            Step::Access(c, k) => write!(f, "{k:?}({c})"),
        }
    }
}

/// May these two cells name overlapping storage, as far as one granted step
/// is concerned? Record-section steps execute settle / clean / wound-or-die
/// logic that reads and writes transaction status words without parking, so
/// a `Record` step's true footprint includes `Status` cells.
fn cells_may_alias(a: CellId, b: CellId) -> bool {
    a == b
        || matches!(
            (a, b),
            (CellId::Record(_), CellId::Status(_)) | (CellId::Status(_), CellId::Record(_))
        )
}

/// The dependence relation of the partial-order reduction: `true` when the
/// two steps may not commute and both orders must be explored.
pub fn dependent(a: Step, b: Step) -> bool {
    match (a, b) {
        // Starts draw transaction ids from a shared counter; id order is
        // observable only through tpl's wound-wait seniority.
        (Step::Start, Step::Start) => true,
        // Start samples the global clock (peek), so it conflicts with any
        // clock mutation.
        (Step::Start, Step::Access(c, k)) | (Step::Access(c, k), Step::Start) => {
            matches!(c, CellId::Clock(_)) && k.writes()
        }
        (Step::Access(c1, k1), Step::Access(c2, k2)) => {
            cells_may_alias(c1, c2) && (k1.writes() || k2.writes())
        }
    }
}

// ---------------------------------------------------------------------------
// The step gate: probe-side parking, driver-side granting
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum SlotState {
    /// The worker is executing (or starting up) and will park or finish.
    Running,
    /// The worker is parked at this step, waiting for a grant.
    Parked(Step),
    /// The driver granted the step; the worker has not resumed yet.
    Granted,
    /// The worker has finished and recorded its outcome.
    Finished,
}

#[derive(Debug)]
struct GateInner {
    slots: Vec<SlotState>,
    outcomes: Vec<Option<StepTxOutcome>>,
    trace: Vec<TraceEvent>,
    /// Lock-shaped cells currently held (commit locks). `Acquire` steps on
    /// these are disabled.
    held: BTreeSet<CellId>,
    /// Once set, parks return immediately: the run is being torn down (or
    /// has completed and is being inspected) and must free-run to the end.
    poisoned: bool,
}

/// The rendezvous between worker probes and the scheduling driver.
#[derive(Debug)]
pub struct StepGate {
    inner: Mutex<GateInner>,
    cv: Condvar,
}

impl StepGate {
    fn new(n: usize) -> Self {
        StepGate {
            inner: Mutex::new(GateInner {
                slots: vec![SlotState::Running; n],
                outcomes: vec![None; n],
                trace: Vec::new(),
                held: BTreeSet::new(),
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Locks the gate, shrugging off poisoning: a panicking worker must not
    /// take the whole exploration down with it.
    fn lock(&self) -> MutexGuard<'_, GateInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks `thread` at `step` until the driver grants it. Returns `false`
    /// when the gate is poisoned and the worker should free-run.
    fn park(&self, thread: usize, step: Step) -> bool {
        let mut g = self.lock();
        if g.poisoned {
            return false;
        }
        g.slots[thread] = SlotState::Parked(step);
        self.cv.notify_all();
        loop {
            if g.poisoned {
                g.slots[thread] = SlotState::Running;
                self.cv.notify_all();
                return false;
            }
            if g.slots[thread] == SlotState::Granted {
                g.slots[thread] = SlotState::Running;
                return true;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self, thread: usize, outcome: StepTxOutcome) {
        let mut g = self.lock();
        g.outcomes[thread] = Some(outcome);
        g.slots[thread] = SlotState::Finished;
        self.cv.notify_all();
    }

    fn poison(&self) {
        let mut g = self.lock();
        g.poisoned = true;
        self.cv.notify_all();
    }
}

impl StepProbe for StepGate {
    fn on_access(&self, thread: usize, cell: CellId, kind: AccessKind, blocking: bool) {
        if !blocking {
            // Record-section accesses and releases execute inside the
            // current granted step; log them in true order, no park.
            let mut g = self.lock();
            if kind == AccessKind::Release {
                g.held.remove(&cell);
            }
            if !g.poisoned {
                g.trace
                    .push(TraceEvent::Access(tm_stm::trace_cells::AccessEvent {
                        thread,
                        cell,
                        kind,
                    }));
            }
            return;
        }
        let granted = self.park(thread, Step::Access(cell, kind));
        let mut g = self.lock();
        if kind == AccessKind::Acquire {
            g.held.insert(cell);
        }
        if granted {
            g.trace
                .push(TraceEvent::Access(tm_stm::trace_cells::AccessEvent {
                    thread,
                    cell,
                    kind,
                }));
        }
    }

    fn on_stamp(&self, thread: usize, ts: u64) {
        let mut g = self.lock();
        if !g.poisoned {
            g.trace.push(TraceEvent::Stamp { thread, ts });
        }
    }
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// The externally observable result of one scripted transaction under the
/// stepper. `Ord` so outcome *vectors* can live in sets and serve as
/// equivalence-class keys.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct StepTxOutcome {
    /// Did the final commit succeed?
    pub committed: bool,
    /// Values returned by the script's reads, in order, up to the abort.
    pub reads: Vec<i64>,
}

// ---------------------------------------------------------------------------
// A live run: spawned workers plus the driver handle
// ---------------------------------------------------------------------------

/// One stepped execution in flight.
pub struct LiveRun {
    gate: Arc<StepGate>,
    stm: SharedStm,
    handles: Vec<JoinHandle<()>>,
    /// The schedule granted so far.
    pub schedule: Vec<usize>,
}

impl LiveRun {
    /// Spawns workers for every thread of `program` on a fresh TM from
    /// `factory`. All workers immediately park at [`Step::Start`].
    ///
    /// # Panics
    /// Panics if the factory built a TM with recording off: the judge
    /// reads the recorded history.
    pub fn spawn(factory: StmFactory<'_>, program: &Program) -> LiveRun {
        let n = program.threads.len();
        let gate = Arc::new(StepGate::new(n));
        let stm = factory(gate.clone());
        assert!(
            stm.recorder().enabled(),
            "{}: the explorer judges recorded histories; build the TM with recording on",
            stm.name()
        );
        let mut handles = Vec::with_capacity(n);
        for (t, script) in program.threads.iter().enumerate() {
            let gate = gate.clone();
            let stm = stm.clone();
            let ops = script.ops.clone();
            handles.push(std::thread::spawn(move || {
                let body = AssertUnwindSafe(|| {
                    gate.park(t, Step::Start);
                    let mut reads = Vec::new();
                    let mut tx = Some(stm.begin(t));
                    let mut aborted = false;
                    for op in &ops {
                        let tx_ref = tx.as_mut().expect("tx live while script runs");
                        let failed = match *op {
                            ScriptOp::Read(o) => match tx_ref.read(o) {
                                Ok(v) => {
                                    reads.push(v);
                                    false
                                }
                                Err(_) => true,
                            },
                            ScriptOp::Write(o, v) => tx_ref.write(o, v).is_err(),
                        };
                        if failed {
                            aborted = true;
                            break;
                        }
                    }
                    let committed = if aborted {
                        drop(tx.take());
                        false
                    } else {
                        tx.take().expect("tx live at commit").commit().is_ok()
                    };
                    StepTxOutcome { committed, reads }
                });
                gate.finish(t, catch_unwind(body).unwrap_or_default());
            }));
        }
        LiveRun {
            gate,
            stm,
            handles,
            schedule: Vec::new(),
        }
    }

    /// Blocks until every worker is parked or finished, then returns each
    /// live thread's pending step (`None` for finished threads).
    pub fn pending(&self) -> Vec<Option<Step>> {
        let mut g = self.gate.lock();
        loop {
            if g.slots
                .iter()
                .all(|s| matches!(s, SlotState::Parked(_) | SlotState::Finished))
            {
                return g
                    .slots
                    .iter()
                    .map(|s| match s {
                        SlotState::Parked(step) => Some(*step),
                        _ => None,
                    })
                    .collect();
            }
            g = self.gate.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The lock-shaped cells currently held.
    pub fn held(&self) -> BTreeSet<CellId> {
        self.gate.lock().held.clone()
    }

    /// Is `step` grantable right now? Only an `Acquire` on a held cell is
    /// ever disabled.
    pub fn enabled(&self, step: Step, held: &BTreeSet<CellId>) -> bool {
        match step {
            Step::Access(cell, AccessKind::Acquire) => !held.contains(&cell),
            _ => true,
        }
    }

    /// Grants one step to `thread` and blocks until it parks again or
    /// finishes. Waits for the worker to park first (right after `spawn`
    /// it may still be starting up). Returns the step that was executed.
    pub fn advance(&mut self, thread: usize) -> Step {
        let mut g = self.gate.lock();
        let step = loop {
            match g.slots[thread] {
                SlotState::Parked(step) => break step,
                SlotState::Finished => panic!("advance({thread}): already finished"),
                _ => g = self.gate.cv.wait(g).unwrap_or_else(|e| e.into_inner()),
            }
        };
        g.slots[thread] = SlotState::Granted;
        self.gate.cv.notify_all();
        loop {
            if matches!(g.slots[thread], SlotState::Parked(_) | SlotState::Finished) {
                break;
            }
            g = self.gate.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
        self.schedule.push(thread);
        step
    }

    /// Tears the run down: poisons the gate so every parked worker
    /// free-runs to completion, joins them, and returns the per-thread
    /// outcomes, the step trace, the final register state and the
    /// recorded history.
    pub fn finish(mut self, k: usize) -> RunResult {
        self.gate.poison();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let (outcomes, trace) = {
            let mut g = self.gate.lock();
            let outcomes = g
                .outcomes
                .iter_mut()
                .map(|o| o.take().unwrap_or_default())
                .collect();
            (outcomes, std::mem::take(&mut g.trace))
        };
        // Safe to run unmetered now: the gate is poisoned, so the read-back
        // transaction's accesses cannot park.
        let final_state = read_back(self.stm.as_ref(), k);
        RunResult {
            schedule: std::mem::take(&mut self.schedule),
            outcomes,
            trace,
            final_state,
            history: self.stm.recorder().history(),
        }
    }
}

impl Drop for LiveRun {
    fn drop(&mut self) {
        self.gate.poison();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Everything a completed stepped execution left behind.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The granted schedule (one thread index per step).
    pub schedule: Vec<usize>,
    /// Per-thread outcomes.
    pub outcomes: Vec<StepTxOutcome>,
    /// The base-object access trace, in execution order.
    pub trace: Vec<TraceEvent>,
    /// Register values after all transactions finished.
    pub final_state: Vec<i64>,
    /// The TM's recorded history, ending with the read-back transaction
    /// that produced `final_state`.
    pub history: History,
}

/// Reads registers `0..k` through a throwaway transaction.
fn read_back(stm: &dyn Stm, k: usize) -> Vec<i64> {
    let mut tx = stm.begin(0);
    let state = (0..k).map(|o| tx.read(o).unwrap_or(i64::MIN)).collect();
    drop(tx);
    state
}

// ---------------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------------

/// Budget and mode knobs for [`explore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DporConfig {
    /// Stop after this many complete interleavings (sets `truncated`).
    pub max_interleavings: usize,
    /// With `Some(k)`, prune schedules that switch away from an enabled
    /// thread more than `k` times. `None` explores everything.
    pub preemption_bound: Option<usize>,
    /// Sleep-set reduction on (the default) or off (naive enumeration, for
    /// the equivalence tests).
    pub sleep_sets: bool,
    /// Run the vector-clock race checker on every complete trace.
    pub check_races: bool,
    /// Stop the search as soon as the first violation is found — the
    /// conviction mode, where one replayable witness is the goal.
    pub stop_on_violation: bool,
}

impl Default for DporConfig {
    fn default() -> Self {
        DporConfig {
            max_interleavings: 20_000,
            preemption_bound: None,
            sleep_sets: true,
            check_races: true,
            stop_on_violation: false,
        }
    }
}

/// Why a schedule was convicted.
#[derive(Clone, Debug)]
pub enum ConvictionKind {
    /// The access trace violated a vector-clock invariant.
    Race(RaceViolation),
    /// The recorded history, read-back transaction included, is not
    /// opaque.
    NonOpaqueHistory,
}

impl std::fmt::Display for ConvictionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvictionKind::Race(v) => write!(f, "{v}"),
            ConvictionKind::NonOpaqueHistory => write!(f, "recorded history is not opaque"),
        }
    }
}

/// A convicted schedule: replayable evidence of a violation.
#[derive(Clone, Debug)]
pub struct Conviction {
    /// The granted schedule that produced the violation.
    pub schedule: Vec<usize>,
    /// What went wrong.
    pub kind: ConvictionKind,
}

/// What [`explore`] found.
#[derive(Clone, Debug, Default)]
pub struct ExploreResult {
    /// Complete interleavings executed.
    pub interleavings: usize,
    /// True when `max_interleavings` cut the search short.
    pub truncated: bool,
    /// Every distinct per-thread outcome vector observed.
    pub outcomes: BTreeSet<Vec<StepTxOutcome>>,
    /// Convicted schedules, in discovery order.
    pub violations: Vec<Conviction>,
}

/// A deferred DFS branch.
struct Branch {
    prefix: Vec<usize>,
    sleep: Vec<(usize, Step)>,
    preemptions: usize,
}

/// Explores the step-level interleavings of `program` on TMs built by
/// `factory`, checking each complete trace as configured.
pub fn explore(factory: StmFactory<'_>, program: &Program, cfg: &DporConfig) -> ExploreResult {
    let k = program.required_k().max(1);
    let n = program.threads.len();
    let mut res = ExploreResult::default();
    let mut stack = vec![Branch {
        prefix: Vec::new(),
        sleep: Vec::new(),
        preemptions: 0,
    }];

    while let Some(branch) = stack.pop() {
        if res.interleavings >= cfg.max_interleavings {
            res.truncated = true;
            break;
        }
        if cfg.stop_on_violation && !res.violations.is_empty() {
            break;
        }
        let mut run = LiveRun::spawn(factory, program);
        for &t in &branch.prefix {
            run.advance(t);
        }
        let mut sleep = branch.sleep;
        let mut preemptions = branch.preemptions;
        loop {
            let pending = run.pending();
            if pending.iter().all(Option::is_none) {
                // Terminal: a complete interleaving.
                res.interleavings += 1;
                let result = run.finish(k);
                for kind in convictions(program, &result, cfg.check_races) {
                    res.violations.push(Conviction {
                        schedule: result.schedule.clone(),
                        kind,
                    });
                }
                res.outcomes.insert(result.outcomes);
                break;
            }
            let held = run.held();
            let last = run.schedule.last().copied();
            let last_runnable =
                last.is_some_and(|l| pending[l].is_some_and(|s| run.enabled(s, &held)));
            // Candidates in a fixed order: the last-granted thread first
            // (continuing it is free), then ascending thread index.
            let mut order: Vec<usize> = (0..n).collect();
            if let Some(l) = last {
                order.retain(|&t| t != l);
                order.insert(0, l);
            }
            let mut candidates: Vec<(usize, Step, usize)> = Vec::new();
            for t in order {
                let Some(step) = pending[t] else { continue };
                if !run.enabled(step, &held) {
                    continue;
                }
                let cost = preemptions + usize::from(last.is_some_and(|l| l != t) && last_runnable);
                if cfg.preemption_bound.is_some_and(|bound| cost > bound) {
                    continue;
                }
                if cfg.sleep_sets && sleep.iter().any(|&(s, _)| s == t) {
                    continue;
                }
                candidates.push((t, step, cost));
            }
            let Some(&(t, step, cost)) = candidates.first() else {
                // Sleep-blocked (a redundant interleaving) or pruned by the
                // preemption bound: abandon this branch.
                break;
            };
            // Defer the siblings. Sibling i sleeps on everything currently
            // asleep plus every earlier candidate, filtered down to the
            // steps independent of its own.
            let mut sibling_sleep = sleep.clone();
            sibling_sleep.push((t, step));
            for w in candidates.windows(2) {
                let (s, s_step, s_cost) = w[1];
                let mut prefix = run.schedule.clone();
                prefix.push(s);
                stack.push(Branch {
                    prefix,
                    sleep: sibling_sleep
                        .iter()
                        .copied()
                        .filter(|&(_, other)| !dependent(other, s_step))
                        .collect(),
                    preemptions: s_cost,
                });
                sibling_sleep.push((s, s_step));
            }
            // Continue inline with the first candidate.
            sleep.retain(|&(_, other)| !dependent(other, step));
            preemptions = cost;
            run.advance(t);
        }
    }
    res
}

/// Judges one completed run: the race checker's violations (when
/// `check_races`) and, if its recorded history is not opaque,
/// [`ConvictionKind::NonOpaqueHistory`]. Empty means acquitted.
pub fn convictions(program: &Program, run: &RunResult, check_races: bool) -> Vec<ConvictionKind> {
    let mut found: Vec<ConvictionKind> = Vec::new();
    if check_races {
        found.extend(
            race::check(&run.trace, program.threads.len())
                .into_iter()
                .map(ConvictionKind::Race),
        );
    }
    if !matches!(is_opaque(&run.history, &SpecRegistry::registers()), Ok(r) if r.opaque) {
        found.push(ConvictionKind::NonOpaqueHistory);
    }
    found
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Replays `schedule` step for step on a fresh TM, completing round-robin
/// once the schedule is exhausted. Entries naming finished or disabled
/// threads are skipped, so minimized (shrunken) schedules stay replayable.
pub fn replay_schedule(
    factory: StmFactory<'_>,
    program: &Program,
    schedule: &[usize],
) -> RunResult {
    let k = program.required_k().max(1);
    let n = program.threads.len();
    let mut run = LiveRun::spawn(factory, program);
    for &t in schedule {
        if t >= n {
            continue;
        }
        let pending = run.pending();
        let held = run.held();
        match pending[t] {
            Some(step) if run.enabled(step, &held) => {
                run.advance(t);
            }
            _ => {}
        }
    }
    // Round-robin completion.
    loop {
        let pending = run.pending();
        if pending.iter().all(Option::is_none) {
            break;
        }
        let held = run.held();
        let next = (0..n).find(|&t| pending[t].is_some_and(|s| run.enabled(s, &held)));
        match next {
            Some(t) => {
                run.advance(t);
            }
            None => break, // all live threads disabled: cannot happen, but don't spin
        }
    }
    run.finish(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::TxScript;
    use tm_stm::Tl2Stm;

    fn tl2_factory() -> impl Fn(Arc<dyn StepProbe>) -> SharedStm + Sync {
        |probe| Arc::new(Tl2Stm::with_config(&probed_config(2, probe))) as SharedStm
    }

    fn writer_vs_writer() -> Program {
        Program::new(vec![
            TxScript::new().write(0, 1),
            TxScript::new().write(1, 2),
        ])
    }

    #[test]
    fn dependence_is_symmetric_and_start_conflicts_with_clock_writes() {
        let cases = [
            Step::Start,
            Step::Access(CellId::Lock(0), AccessKind::Read),
            Step::Access(CellId::Lock(0), AccessKind::Rmw),
            Step::Access(CellId::Clock(0), AccessKind::Rmw),
            Step::Access(CellId::Record(1), AccessKind::Rmw),
            Step::Access(CellId::Status(0), AccessKind::Read),
            Step::Access(CellId::CommitLock, AccessKind::Acquire),
        ];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(dependent(a, b), dependent(b, a), "{a} vs {b}");
            }
        }
        assert!(dependent(Step::Start, Step::Start));
        assert!(dependent(
            Step::Start,
            Step::Access(CellId::Clock(0), AccessKind::Rmw)
        ));
        assert!(!dependent(
            Step::Start,
            Step::Access(CellId::Lock(0), AccessKind::Rmw)
        ));
        // Two reads of the same cell commute; read/write does not.
        assert!(!dependent(
            Step::Access(CellId::Lock(3), AccessKind::Read),
            Step::Access(CellId::Lock(3), AccessKind::Read)
        ));
        assert!(dependent(
            Step::Access(CellId::Lock(3), AccessKind::Read),
            Step::Access(CellId::Lock(3), AccessKind::Write)
        ));
        // A record section may wound: it aliases status words.
        assert!(dependent(
            Step::Access(CellId::Record(1), AccessKind::Rmw),
            Step::Access(CellId::Status(0), AccessKind::Read)
        ));
    }

    #[test]
    fn single_run_is_deterministic_and_serial_commits() {
        let factory = tl2_factory();
        let p = writer_vs_writer();
        let r1 = replay_schedule(&factory, &p, &[]);
        let r2 = replay_schedule(&factory, &p, &[]);
        assert_eq!(r1.outcomes, r2.outcomes);
        assert_eq!(r1.schedule, r2.schedule, "round-robin replay is stable");
        assert!(r1.outcomes.iter().all(|o| o.committed));
        assert_eq!(r1.final_state, vec![1, 2]);
        assert!(!r1.trace.is_empty(), "the probe must have seen steps");
    }

    #[test]
    fn explore_covers_disjoint_writers_cleanly() {
        let factory = tl2_factory();
        let cfg = DporConfig::default();
        let res = explore(&factory, &writer_vs_writer(), &cfg);
        assert!(!res.truncated);
        assert!(res.interleavings >= 1);
        assert!(
            res.violations.is_empty(),
            "TL2 on disjoint writers must be clean: {:?}",
            res.violations
        );
        // Both writers always commit, reads are empty.
        assert_eq!(res.outcomes.len(), 1);
    }

    #[test]
    fn sleep_sets_explore_fewer_interleavings_with_the_same_outcomes() {
        let factory = tl2_factory();
        let p = Program::new(vec![
            TxScript::new().read(0).write(1, 5),
            TxScript::new().write(0, 7),
        ]);
        let naive = explore(
            &factory,
            &p,
            &DporConfig {
                sleep_sets: false,
                check_races: false,
                ..DporConfig::default()
            },
        );
        let reduced = explore(
            &factory,
            &p,
            &DporConfig {
                check_races: false,
                ..DporConfig::default()
            },
        );
        assert!(!naive.truncated && !reduced.truncated);
        assert_eq!(naive.outcomes, reduced.outcomes);
        assert!(
            reduced.interleavings < naive.interleavings,
            "POR must prune: {} !< {}",
            reduced.interleavings,
            naive.interleavings
        );
    }

    #[test]
    fn preemption_bound_zero_still_completes() {
        let factory = tl2_factory();
        let p = Program::new(vec![
            TxScript::new().read(0).write(0, 1),
            TxScript::new().read(0).write(0, 2),
        ]);
        let res = explore(
            &factory,
            &p,
            &DporConfig {
                preemption_bound: Some(0),
                ..DporConfig::default()
            },
        );
        assert!(res.interleavings >= 1, "serial schedules fit any bound");
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    #[test]
    fn convictions_acquit_serial_truth_and_judge_the_recorded_history() {
        let factory = tl2_factory();
        let p = writer_vs_writer();
        let r = replay_schedule(&factory, &p, &[]);
        // Two writers and the read-back transaction, which saw both writes.
        assert_eq!(r.history.txs().len(), 3, "{}", r.history);
        assert!(convictions(&p, &r, true).is_empty());
        // A factory that turns recording off would blind the judge: the
        // explorer refuses it before any worker starts.
        let quiet = |probe| {
            Arc::new(Tl2Stm::with_config(
                &probed_config(2, probe).recording(false),
            )) as SharedStm
        };
        let refused = catch_unwind(AssertUnwindSafe(|| replay_schedule(&quiet, &p, &[])));
        assert!(refused.is_err(), "a non-recording TM must be refused");
        // The same run with a non-opaque history (the paper's H1) is
        // convicted of exactly that.
        let torn = RunResult {
            history: tm_model::builder::paper::h1(),
            ..r
        };
        let found = convictions(&p, &torn, true);
        assert!(
            matches!(found[..], [ConvictionKind::NonOpaqueHistory]),
            "{found:?}"
        );
    }
}
