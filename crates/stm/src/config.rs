//! Configured TM construction — the [`StmConfig`] builder.
//!
//! Every TM in this crate used to be buildable only through a hardwired
//! `new(k)`; the interesting axes of the design space (contention manager,
//! initial state, recording, retry behaviour) were either fixed or
//! reachable through ad-hoc constructors. The builder collects them in one
//! value that every constructor consumes:
//!
//! ```
//! use tm_stm::{ContentionManager, RetryPolicy, StmConfig, Tl2Stm, Stm, run_tx};
//!
//! let cfg = StmConfig::new(4)
//!     .contention_manager(ContentionManager::Greedy)
//!     .initial_value(0, 100)
//!     .recording(false)
//!     .retry(RetryPolicy::bounded(10_000));
//! let stm = Tl2Stm::with_config(&cfg);
//! let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
//! assert_eq!(v, 100);
//! assert!(stm.recorder().is_empty()); // recording off: no events allocated
//! ```
//!
//! `new(k)` survives on every TM as a thin wrapper over
//! `with_config(&StmConfig::new(k))`, and the default configuration is
//! bit-for-bit the old behaviour: aggressive contention manager, all-zero
//! registers, recording on, 1 000 000-attempt retry cap.

use crate::clock::{GlobalClock, VersionClock};
use crate::cm::ContentionManager;
use crate::recorder::Recorder;
use crate::trace_cells::StepProbe;
use std::sync::Arc;

/// Exponential backoff between transaction retries (spin-loop hints,
/// doubling from `base_spins` up to `max_spins`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// Spins after the first abort.
    pub base_spins: u32,
    /// Spin ceiling (the doubling stops here).
    pub max_spins: u32,
}

impl Backoff {
    /// Spins for attempt number `attempt` (0-based), then returns.
    pub fn wait(&self, attempt: u64) {
        let shift = attempt.min(16) as u32;
        let spins = self
            .base_spins
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX))
            .min(self.max_spins.max(self.base_spins));
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }
}

/// How [`crate::run_tx`] / [`crate::try_run_tx`] respond to repeated aborts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum transaction attempts before giving up with
    /// [`crate::Livelock`] (≥ 1).
    pub max_attempts: u64,
    /// Optional backoff between attempts (none = immediate retry, the
    /// historical behaviour).
    pub backoff: Option<Backoff>,
}

impl RetryPolicy {
    /// The historical default: one million attempts, no backoff.
    pub const DEFAULT_MAX_ATTEMPTS: u64 = 1_000_000;

    /// A policy with a custom attempt cap and no backoff.
    pub fn bounded(max_attempts: u64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: None,
        }
    }

    /// Adds exponential backoff between attempts.
    pub fn with_backoff(mut self, base_spins: u32, max_spins: u32) -> Self {
        self.backoff = Some(Backoff {
            base_spins,
            max_spins,
        });
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::bounded(Self::DEFAULT_MAX_ATTEMPTS)
    }
}

/// A complete description of how to build a TM instance.
///
/// Fields not consulted by a particular TM are ignored: the contention
/// manager matters only to the conflict-resolving TMs (`dstm`, `visible`).
#[derive(Clone, Debug)]
pub struct StmConfig {
    k: usize,
    cm: ContentionManager,
    /// Initial register values; indices past the end are 0.
    initial: Vec<i64>,
    recording: bool,
    retry: RetryPolicy,
    probe: Option<Arc<dyn StepProbe>>,
    obs: tm_obs::ObsHandle,
}

impl StmConfig {
    /// The default configuration over `k` registers: aggressive
    /// contention manager, all registers 0, recording on,
    /// default retry policy — exactly what `new(k)` always built.
    pub fn new(k: usize) -> Self {
        StmConfig {
            k,
            cm: ContentionManager::Aggressive,
            initial: Vec::new(),
            recording: true,
            retry: RetryPolicy::default(),
            probe: None,
            obs: tm_obs::ObsHandle::disabled(),
        }
    }

    /// Selects the contention manager (conflict-resolving TMs only).
    pub fn contention_manager(mut self, cm: ContentionManager) -> Self {
        self.cm = cm;
        self
    }

    /// Sets the initial value of register `obj` (default 0).
    ///
    /// # Panics
    /// Panics if `obj ≥ k`.
    pub fn initial_value(mut self, obj: usize, v: i64) -> Self {
        assert!(
            obj < self.k,
            "initial_value({obj}) out of range for k={}",
            self.k
        );
        if self.initial.len() <= obj {
            self.initial.resize(obj + 1, 0);
        }
        self.initial[obj] = v;
        self
    }

    /// Sets all initial register values at once (shorter vectors are padded
    /// with 0; longer ones must not exceed `k`).
    ///
    /// # Panics
    /// Panics if `values.len() > k`.
    pub fn initial_values(mut self, values: Vec<i64>) -> Self {
        assert!(
            values.len() <= self.k,
            "{} initial values for k={}",
            values.len(),
            self.k
        );
        self.initial = values;
        self
    }

    /// Enables or disables history recording (default on). A TM built with
    /// recording off never allocates events — the hot path pays nothing.
    pub fn recording(mut self, on: bool) -> Self {
        self.recording = on;
        self
    }

    /// Sets the retry policy [`crate::run_tx`]/[`crate::try_run_tx`] apply
    /// to transactions of this TM.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attaches a [`StepProbe`] that every transaction's [`crate::Meter`]
    /// reports its base-object accesses to (default none). This is how the
    /// `tm-harness` race checker and DPOR explorer observe — and, for the
    /// cooperative stepper, *control* — the step-level schedule.
    pub fn probe(mut self, probe: Arc<dyn StepProbe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Attaches an observability handle (default disabled). An enabled
    /// handle makes [`StmConfig::build_recorder`] count
    /// `stm.commits`/`stm.aborts` and [`StmConfig::build_clock`] wrap the
    /// clock in a [`crate::obs::ObsClock`] counting
    /// `stm.clock.samples`/`stm.clock.ticks`. A disabled handle changes
    /// nothing: the built TM is bit-for-bit the uninstrumented one.
    pub fn obs(mut self, obs: tm_obs::ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    // ---- getters (consumed by the TM constructors) -------------------------

    /// The number of registers.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The selected contention manager.
    pub fn cm(&self) -> ContentionManager {
        self.cm
    }

    /// The initial value of register `obj`.
    pub fn initial(&self, obj: usize) -> i64 {
        self.initial.get(obj).copied().unwrap_or(0)
    }

    /// Is history recording enabled?
    pub fn recording_enabled(&self) -> bool {
        self.recording
    }

    /// The retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The attached step probe, if any (cloned into every transaction's
    /// meter by the TM constructors).
    pub fn step_probe(&self) -> Option<Arc<dyn StepProbe>> {
        self.probe.clone()
    }

    /// The attached observability handle.
    pub fn obs_handle(&self) -> tm_obs::ObsHandle {
        self.obs
    }

    /// Builds a fresh GV1 [`VersionClock`] for a timestamp-based TM. With
    /// an enabled observability handle the clock is wrapped in a
    /// [`crate::obs::ObsClock`] decorator; otherwise the bare clock is
    /// returned — the disabled path has no wrapper at all.
    pub fn build_clock(&self) -> Box<dyn GlobalClock> {
        let clock = Box::new(VersionClock::new());
        if self.obs.enabled() {
            Box::new(crate::obs::ObsClock::new(clock, self.obs))
        } else {
            clock
        }
    }

    /// Builds the recorder this configuration names (recording toggle
    /// applied, so a recording-off TM skips event construction entirely;
    /// observability handle attached, so commit/abort chokepoints count).
    pub fn build_recorder(&self) -> Recorder {
        let mut r = Recorder::new(self.k);
        if !self.recording {
            r.set_enabled(false);
        }
        r.set_obs(self.obs);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_historical_constructor() {
        let cfg = StmConfig::new(3);
        assert_eq!(cfg.k(), 3);
        assert_eq!(cfg.cm(), ContentionManager::Aggressive);
        assert_eq!(cfg.initial(0), 0);
        assert_eq!(cfg.initial(2), 0);
        assert!(cfg.recording_enabled());
        assert_eq!(
            cfg.retry_policy().max_attempts,
            RetryPolicy::DEFAULT_MAX_ATTEMPTS
        );
        assert!(cfg.retry_policy().backoff.is_none());
    }

    #[test]
    fn builder_round_trips_every_axis() {
        let cfg = StmConfig::new(4)
            .contention_manager(ContentionManager::Karma)
            .initial_value(1, -7)
            .initial_value(3, 9)
            .recording(false)
            .retry(RetryPolicy::bounded(5).with_backoff(4, 64));
        assert_eq!(cfg.cm(), ContentionManager::Karma);
        assert_eq!(
            (
                cfg.initial(0),
                cfg.initial(1),
                cfg.initial(2),
                cfg.initial(3)
            ),
            (0, -7, 0, 9)
        );
        assert!(!cfg.recording_enabled());
        assert_eq!(cfg.retry_policy().max_attempts, 5);
        assert_eq!(
            cfg.retry_policy().backoff,
            Some(Backoff {
                base_spins: 4,
                max_spins: 64
            })
        );
        assert!(!cfg.build_recorder().enabled());
    }

    #[test]
    fn initial_values_bulk_setter() {
        let cfg = StmConfig::new(3).initial_values(vec![1, 2]);
        assert_eq!((cfg.initial(0), cfg.initial(1), cfg.initial(2)), (1, 2, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn initial_value_out_of_range_panics() {
        let _ = StmConfig::new(2).initial_value(2, 1);
    }

    #[test]
    fn retry_cap_floor_is_one() {
        assert_eq!(RetryPolicy::bounded(0).max_attempts, 1);
    }

    #[test]
    fn backoff_wait_terminates_even_at_extreme_attempts() {
        let b = Backoff {
            base_spins: 1,
            max_spins: 8,
        };
        b.wait(0);
        b.wait(63);
        b.wait(u64::MAX);
    }
}
