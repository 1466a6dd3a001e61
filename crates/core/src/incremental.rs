//! An online opacity monitor.
//!
//! Section 5.2 notes that the set of opaque histories is *not* prefix-closed
//! as a set, but that "a history of a TM is generated progressively and at
//! each time the history of all events issued so far must be opaque". The
//! monitor enforces exactly that: it is fed the TM's events one at a time
//! and checks opacity of every prefix, reporting the first prefix that
//! violates it.
//!
//! Optimization (with a correctness argument): appending an *invocation*
//! event — an operation invocation, a `tryC`, or a `tryA` — can never make
//! an opaque history non-opaque:
//!
//! * an operation invocation only adds a pending invocation, which imposes
//!   no legality constraint (specifications are prefix-closed, sequences may
//!   end in a pending invocation);
//! * `tryA` moves a live transaction to abort-pending; both statuses admit
//!   exactly the aborted placement;
//! * `tryC` moves a live transaction to commit-pending, which *enlarges* its
//!   set of allowed placements (aborted → aborted-or-committed) and changes
//!   nothing else.
//!
//! Hence the monitor runs the checker only on response events (`Ret`, `C`,
//! `A`) — each of which genuinely can break opacity (`A` included: a
//! commit-pending transaction whose write was already read by a committed
//! reader becomes unserializable when the TM aborts it).
//!
//! The monitor does not re-run the checker from scratch: it drives one
//! resumable [`CheckSession`], which keeps the search's transaction
//! metadata, dead-end memo table, and last witness across events. Each
//! check resumes from that witness: it keeps the witness prefix up to the
//! first transaction the new events changed and searches only the suffix
//! below it, so a check whose events merely extend the previous witness
//! places only the changed and new transactions, however long the history
//! already is. `crate::search` gives the soundness argument and the
//! full-walk fallback that keeps the check complete. Long monitored
//! histories are therefore far cheaper than batch re-checks (`tm-bench`
//! pins the monitor's and the batch re-checks' node counts side by side).
//!
//! The memo table would otherwise grow with the history: on a streaming
//! workload most of its entries describe frontiers of long-resolved
//! contention that no future check revisits. Configuring
//! [`SearchConfig::memo_capacity`] bounds the resident entries with
//! segmented-LRU eviction — sound because a dead-end entry is pure pruning
//! (see `crate::memo`) — and on the standard contention-knot workload a
//! table bounded to a quarter of its unbounded peak re-explores only a few
//! percent more nodes (`tm-bench` pins the resident, eviction and node
//! counts at caps of a half, a quarter and an eighth of the peak).

use crate::search::{CheckError, CheckSession, SearchConfig, SearchMode, SearchStats};
use tm_model::{Event, History, SpecRegistry};

/// The monitor's view of the execution so far.
pub struct OpacityMonitor<'a> {
    specs: &'a SpecRegistry,
    config: SearchConfig,
    session: CheckSession<'a>,
    history: History,
    checks_run: usize,
    checks_skipped: usize,
    violated_at: Option<usize>,
    /// A hard error (ill-formed feed, engine limit) is latched: every later
    /// verdict repeats it, mirroring the pre-refactor behavior in which each
    /// full re-check rediscovered the ill-formedness.
    poisoned: Option<CheckError>,
    last_stats: SearchStats,
}

/// The verdict after feeding one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// The prefix is opaque (verified by a fresh check).
    OpaqueChecked,
    /// The prefix is opaque (guaranteed by the invocation-event argument,
    /// no check was run).
    OpaqueBySkip,
    /// The prefix is not opaque; the violation first appeared at the given
    /// event index.
    Violated {
        /// Index of the first event whose prefix is non-opaque.
        at: usize,
    },
}

impl<'a> OpacityMonitor<'a> {
    /// A monitor over an initially empty history.
    pub fn new(specs: &'a SpecRegistry) -> Self {
        let config = SearchConfig::default();
        OpacityMonitor {
            specs,
            config,
            session: CheckSession::new(specs, SearchMode::OPACITY, config),
            history: History::new(),
            checks_run: 0,
            checks_skipped: 0,
            violated_at: None,
            poisoned: None,
            last_stats: SearchStats::default(),
        }
    }

    /// Overrides the search configuration (call before feeding events).
    ///
    /// If events were already fed, they are replayed into a fresh session;
    /// a replay failure (possible only if the monitor was already poisoned
    /// by an ill-formed feed) re-latches the error rather than leaving the
    /// session silently out of sync with the recorded history.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self.session = CheckSession::new(self.specs, SearchMode::OPACITY, config);
        self.poisoned = None;
        for e in self.history.events() {
            if let Err(err) = self.session.extend(e) {
                self.poisoned = Some(err);
                break;
            }
        }
        self
    }

    /// Rebuilds a monitor from a previously accepted event prefix — the
    /// crash-recovery path (`tm-serve --resume` replays each session's
    /// journal through this). Every event is re-fed **silently**: verdicts
    /// for these events were already delivered before the crash, so the
    /// caller wants only the resulting monitor state. Sticky violations
    /// and poisoning re-latch at the same indices they first appeared at,
    /// and the check/skip counters end up exactly where an uninterrupted
    /// monitor's would — verdicts are a pure function of the event stream,
    /// so reconstructing the stream reconstructs the monitor.
    pub fn recover(specs: &'a SpecRegistry, config: SearchConfig, events: &[Event]) -> Self {
        let mut monitor = OpacityMonitor::new(specs).with_config(config);
        for e in events {
            // Outcomes latch internally (violated_at / poisoned); a
            // poisoned monitor keeps recording history without checking,
            // matching what the live feed path did before the crash.
            let _ = monitor.feed(e.clone());
        }
        monitor
    }

    /// Feeds one event and reports the verdict for the new prefix.
    ///
    /// Once a violation is detected it is sticky: all later verdicts repeat
    /// the first violation index. A hard error (ill-formed event, engine
    /// limit) is likewise sticky.
    pub fn feed(&mut self, e: Event) -> Result<MonitorVerdict, CheckError> {
        // Covers extend + (skipped or run) check: the per-event cost of
        // online monitoring in a trace. Inert while obs is disabled.
        let _span = self.config.obs.span("monitor.feed", "monitor");
        let is_invocation = e.is_invocation();
        self.history.push(e.clone());
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        if let Some(at) = self.violated_at {
            return Ok(MonitorVerdict::Violated { at });
        }
        if let Err(err) = self.session.extend(&e) {
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        if is_invocation {
            self.checks_skipped += 1;
            return Ok(MonitorVerdict::OpaqueBySkip);
        }
        self.checks_run += 1;
        let outcome = match self.session.check() {
            Ok(outcome) => outcome,
            Err(err) => {
                self.poisoned = Some(err.clone());
                return Err(err);
            }
        };
        self.last_stats = outcome.stats;
        if outcome.holds() {
            Ok(MonitorVerdict::OpaqueChecked)
        } else {
            let at = self.history.len() - 1;
            self.violated_at = Some(at);
            Ok(MonitorVerdict::Violated { at })
        }
    }

    /// Feeds a whole history; returns the first violation index, if any.
    pub fn feed_all(&mut self, h: &History) -> Result<Option<usize>, CheckError> {
        for e in h.events() {
            if let MonitorVerdict::Violated { at } = self.feed(e.clone())? {
                return Ok(Some(at));
            }
        }
        Ok(None)
    }

    /// The history accumulated so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// `(checks run, checks skipped by the invocation argument)`.
    pub fn check_counts(&self) -> (usize, usize) {
        (self.checks_run, self.checks_skipped)
    }

    /// The sticky first violation index, if any prefix was non-opaque.
    pub fn violated_at(&self) -> Option<usize> {
        self.violated_at
    }

    /// Whether a hard error (ill-formed feed, engine limit) is latched.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Statistics of the most recent search.
    pub fn last_stats(&self) -> SearchStats {
        self.last_stats
    }

    /// Statistics accumulated over every check this monitor ran — the
    /// incremental path's *total* cost, comparable against the sum of batch
    /// re-checks over all prefixes.
    pub fn lifetime_stats(&self) -> SearchStats {
        self.session.lifetime_stats()
    }

    /// Dead-end memo entries currently resident in the session's memo
    /// table. Unbounded by default; capped (with segmented-LRU eviction)
    /// when the monitor was configured with
    /// [`SearchConfig::memo_capacity`].
    pub fn memo_resident(&self) -> usize {
        self.session.memo_resident()
    }

    /// Memo entries evicted by the capacity bound over the monitor's
    /// lifetime (monotone).
    pub fn memo_evictions(&self) -> usize {
        self.session.memo_evictions()
    }

    /// Retunes the memo capacity of the live session (`None` = unbounded)
    /// without replaying history — the hook through which a memory
    /// governor (the `tm-serve` session table) apportions a global memo
    /// budget across many monitors. Sound at any point in the stream:
    /// memo entries are pure pruning, so no retune can change a verdict
    /// (property-tested in `tm-serve`).
    pub fn set_memo_capacity(&mut self, capacity: Option<usize>) {
        self.config.memo_capacity = capacity;
        self.session.set_memo_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opacity::is_opaque;
    use tm_model::builder::{paper, HistoryBuilder};
    use tm_model::TxId;

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    #[test]
    fn opaque_history_passes_event_by_event() {
        let specs = regs();
        let mut m = OpacityMonitor::new(&specs);
        assert_eq!(m.feed_all(&paper::h5()).unwrap(), None);
        let (run, skipped) = m.check_counts();
        assert!(run > 0 && skipped > 0);
        assert_eq!(run + skipped, paper::h5().len());
    }

    #[test]
    fn h1_violation_detected_at_the_fatal_read() {
        // H1 becomes non-opaque exactly when T2's read of y returns 2.
        let h = paper::h1();
        let specs = regs();
        let mut m = OpacityMonitor::new(&specs);
        let at = m.feed_all(&h).unwrap().expect("H1 is not opaque");
        // The violating event is ret2(y,read)→2. Find its index.
        let expected = h
            .events()
            .iter()
            .position(|e| matches!(e, Event::Ret { tx: TxId(2), obj, .. } if obj.name() == "y"))
            .unwrap();
        assert_eq!(at, expected);
    }

    #[test]
    fn violation_is_sticky() {
        let specs = regs();
        let mut m = OpacityMonitor::new(&specs);
        let h = paper::h1();
        let first = m.feed_all(&h).unwrap().unwrap();
        // Feeding more events keeps reporting the original index.
        let v = m.feed(Event::TryCommit(TxId(9))).unwrap();
        assert_eq!(v, MonitorVerdict::Violated { at: first });
    }

    #[test]
    fn abort_event_can_violate_opacity() {
        // T1 commit-pending; committed T2 read T1's write; aborting T1 now
        // violates opacity. The monitor must catch this on the A event.
        let prefix = HistoryBuilder::new()
            .write(1, "x", 1)
            .try_commit(1)
            .read(2, "x", 1)
            .try_commit(2)
            .commit(2)
            .build();
        let specs = regs();
        let mut m = OpacityMonitor::new(&specs);
        assert_eq!(m.feed_all(&prefix).unwrap(), None);
        let v = m.feed(Event::Abort(TxId(1))).unwrap();
        assert!(matches!(v, MonitorVerdict::Violated { .. }));
        // Sanity: the full history is indeed non-opaque.
        assert!(!is_opaque(m.history(), &regs()).unwrap().opaque);
    }

    #[test]
    fn commit_event_resolves_pending_favourably() {
        let prefix = HistoryBuilder::new()
            .write(1, "x", 1)
            .try_commit(1)
            .read(2, "x", 1)
            .try_commit(2)
            .commit(2)
            .build();
        let specs = regs();
        let mut m = OpacityMonitor::new(&specs);
        assert_eq!(m.feed_all(&prefix).unwrap(), None);
        assert_eq!(
            m.feed(Event::Commit(TxId(1))).unwrap(),
            MonitorVerdict::OpaqueChecked
        );
    }

    #[test]
    fn skip_argument_matches_full_checks() {
        // Cross-validate the invocation-skip optimization: for every prefix
        // of H4/H5, the monitor's verdict must match a from-scratch check.
        for h in [paper::h4(), paper::h5(), paper::h1()] {
            let specs = regs();
            let mut m = OpacityMonitor::new(&specs);
            let mut violated = false;
            for (i, e) in h.events().iter().enumerate() {
                let v = m.feed(e.clone()).unwrap();
                let fresh = is_opaque(&h.prefix(i + 1), &regs()).unwrap().opaque;
                if violated {
                    continue; // sticky mode; fresh may disagree only after first violation
                }
                match v {
                    MonitorVerdict::Violated { .. } => {
                        assert!(!fresh, "monitor violated but prefix opaque at {i} of {h}");
                        violated = true;
                    }
                    _ => assert!(fresh, "monitor ok but prefix non-opaque at {i} of {h}"),
                }
            }
        }
    }

    #[test]
    fn recover_rebuilds_the_exact_monitor_state_at_every_prefix() {
        // The crash-recovery contract tm-serve leans on: rebuilding from
        // the first k events leaves a monitor that (a) reports the same
        // latched state an uninterrupted monitor had after k events, and
        // (b) produces byte-identical verdicts for everything after k.
        for h in [paper::h5(), paper::h1()] {
            let specs = regs();
            let events = h.events();
            for k in 0..=events.len() {
                let mut live = OpacityMonitor::new(&specs);
                for e in &events[..k] {
                    let _ = live.feed(e.clone());
                }
                let mut resumed =
                    OpacityMonitor::recover(&specs, SearchConfig::default(), &events[..k]);
                assert_eq!(resumed.violated_at(), live.violated_at(), "{h} at {k}");
                assert_eq!(resumed.is_poisoned(), live.is_poisoned());
                assert_eq!(resumed.check_counts(), live.check_counts());
                for (i, e) in events[k..].iter().enumerate() {
                    let a = live.feed(e.clone());
                    let b = resumed.feed(e.clone());
                    assert_eq!(a.is_ok(), b.is_ok(), "{h} split {k} event {i}");
                    if let (Ok(a), Ok(b)) = (a, b) {
                        assert_eq!(a, b, "{h} split {k} event {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn recover_relatches_poisoning_at_the_same_point() {
        // An ill-formed stream (ret with no matching inv) poisons; the
        // recovered monitor must be poisoned too, with matching counters.
        let specs = regs();
        let bad = Event::Ret {
            tx: TxId(1),
            obj: tm_model::ObjId::register(0),
            op: tm_model::OpName::Read,
            val: tm_model::Value::Int(0),
        };
        let mut live = OpacityMonitor::new(&specs);
        assert!(live.feed(bad.clone()).is_err());
        let resumed = OpacityMonitor::recover(&specs, SearchConfig::default(), &[bad]);
        assert!(resumed.is_poisoned());
        assert_eq!(resumed.check_counts(), live.check_counts());
    }

    #[test]
    fn memo_retunes_mid_stream_never_change_verdicts() {
        // The memory-governance contract tm-serve leans on: a monitor whose
        // memo capacity is retuned (shrunk, cleared-by-rebounding, grown)
        // after every event produces verdicts identical to an untouched one.
        for h in [paper::h1(), paper::h4(), paper::h5()] {
            let specs = regs();
            let mut plain = OpacityMonitor::new(&specs);
            let mut tuned = OpacityMonitor::new(&specs);
            let caps = [Some(512), Some(8), None, Some(1), Some(64)];
            for (i, e) in h.events().iter().enumerate() {
                tuned.set_memo_capacity(caps[i % caps.len()]);
                assert_eq!(
                    tuned.feed(e.clone()).unwrap(),
                    plain.feed(e.clone()).unwrap(),
                    "verdicts diverged at event {i} of {h}"
                );
            }
        }
    }

    #[test]
    fn ill_formed_feed_is_a_sticky_error() {
        let specs = regs();
        let mut m = OpacityMonitor::new(&specs);
        m.feed(Event::TryCommit(TxId(1))).unwrap();
        // A second tryC of the same transaction is ill-formed.
        assert!(m.feed(Event::TryCommit(TxId(1))).is_err());
        // ... and so is everything after it, even otherwise valid events.
        assert!(m.feed(Event::Commit(TxId(1))).is_err());
    }

    #[test]
    fn monitor_accumulates_lifetime_stats() {
        let specs = regs();
        let mut m = OpacityMonitor::new(&specs);
        assert_eq!(m.feed_all(&paper::h5()).unwrap(), None);
        let total = m.lifetime_stats();
        assert!(total.nodes >= m.last_stats().nodes);
        assert!(total.clones_saved > 0);
    }
}
