//! Observability adapters for the STM layer.
//!
//! Two decorators connect the existing instrumentation seams to the
//! `tm-obs` registry, both constructed **only when an enabled handle is
//! attached** — a TM built from a default [`crate::StmConfig`] contains
//! neither, so the disabled path is not "a cheap branch" but the complete
//! absence of the adapter:
//!
//! * [`ObsClock`] wraps any [`GlobalClock`] and counts
//!   `stm.clock.samples` / `stm.clock.ticks` (reservations count as
//!   ticks — they issue commit timestamps). Installed by
//!   [`crate::StmConfig::build_clock`].
//! * [`ObsStepProbe`] is a [`StepProbe`] that tallies the meter's
//!   step stream into lock-free [`Counter`]s and publishes the totals as
//!   `stm.steps` / `stm.stamps` on demand — the per-step path never
//!   touches the registry mutex. Attach it like any other probe via
//!   [`crate::StmConfig::probe`].
//!
//! This module deliberately contains no atomic orderings: all atomics live
//! behind [`Counter`], whose relaxed monotone semantics are exactly right
//! for telemetry (and nothing else — synchronization mirrors like the
//! recorder's `suppressed_len` must stay on raw atomics).

use crate::base::Meter;
use crate::clock::GlobalClock;
use crate::trace_cells::{AccessKind, CellId, StepProbe};
use tm_obs::{Counter, ObsHandle};

/// A [`GlobalClock`] decorator that counts samples and ticks on an
/// observability handle while delegating every operation unchanged.
///
/// Metering is untouched: the inner clock charges the [`Meter`] exactly as
/// before, so step counts (Theorem 3's cost model) are identical with and
/// without observability.
#[derive(Debug)]
pub struct ObsClock {
    inner: Box<dyn GlobalClock>,
    obs: ObsHandle,
}

impl ObsClock {
    /// Wraps `inner`, counting on `obs`.
    pub fn new(inner: Box<dyn GlobalClock>, obs: ObsHandle) -> Self {
        ObsClock { inner, obs }
    }
}

impl GlobalClock for ObsClock {
    fn sample(&self, m: &mut Meter) -> u64 {
        self.obs.counter_add("stm.clock.samples", 1);
        self.inner.sample(m)
    }

    fn tick(&self, m: &mut Meter) -> u64 {
        self.obs.counter_add("stm.clock.ticks", 1);
        self.inner.tick(m)
    }

    fn reserve(&self, m: &mut Meter) -> u64 {
        self.obs.counter_add("stm.clock.ticks", 1);
        self.inner.reserve(m)
    }

    fn publish(&self, ts: u64, m: &mut Meter) {
        self.inner.publish(ts, m)
    }

    fn peek(&self) -> u64 {
        self.inner.peek()
    }
}

/// A passive [`StepProbe`] that tallies the step stream into relaxed
/// counters, off the registry mutex.
///
/// The meter calls [`StepProbe::on_access`] once per base-object
/// instruction — the hottest path in the whole STM layer — so this probe
/// does one relaxed `fetch_add` per event and nothing else. Call
/// [`ObsStepProbe::publish`] once, after the workload, to fold the totals
/// into the registry as `stm.steps` and `stm.stamps`.
#[derive(Debug)]
pub struct ObsStepProbe {
    obs: ObsHandle,
    steps: Counter,
    stamps: Counter,
}

impl ObsStepProbe {
    /// A fresh probe publishing to `obs`.
    pub fn new(obs: ObsHandle) -> Self {
        ObsStepProbe {
            obs,
            steps: Counter::new(),
            stamps: Counter::new(),
        }
    }

    /// Steps tallied so far.
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Commit timestamps tallied so far.
    pub fn stamps(&self) -> u64 {
        self.stamps.get()
    }

    /// Folds the tallies into the registry (`stm.steps`, `stm.stamps`).
    /// Call once, after the workload — a second call would add the totals
    /// again.
    pub fn publish(&self) {
        self.obs.counter_add("stm.steps", self.steps.get());
        self.obs.counter_add("stm.stamps", self.stamps.get());
    }
}

impl StepProbe for ObsStepProbe {
    fn on_access(&self, _thread: usize, _cell: CellId, _kind: AccessKind, _blocking: bool) {
        self.steps.add(1);
    }

    fn on_stamp(&self, _thread: usize, _ts: u64) {
        self.stamps.add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::clock::VersionClock;
    use crate::config::StmConfig;
    use crate::tl2::Tl2Stm;
    use std::sync::Arc;

    fn installed() -> ObsHandle {
        ObsHandle::install()
    }

    fn count(obs: ObsHandle, name: &str) -> u64 {
        obs.snapshot().unwrap().counter(name).unwrap_or(0)
    }

    #[test]
    fn obs_clock_counts_without_changing_timestamps() {
        let obs = installed();
        let bare: Box<dyn GlobalClock> = Box::new(VersionClock::new());
        let wrapped = ObsClock::new(Box::new(VersionClock::new()), obs);
        let mut m1 = Meter::new();
        let mut m2 = Meter::new();
        m1.begin_op(crate::base::OpKind::Commit);
        m2.begin_op(crate::base::OpKind::Commit);
        for _ in 0..4 {
            assert_eq!(bare.tick(&mut m1), wrapped.tick(&mut m2));
            assert_eq!(bare.sample(&mut m1), wrapped.sample(&mut m2));
        }
        let r = wrapped.reserve(&mut m2);
        wrapped.publish(r, &mut m2);
        assert!(wrapped.peek() >= bare.peek());
        m1.end_op();
        m2.end_op();
        // 4 ticks + 1 reserve, and 4 samples.
        assert_eq!(count(obs, "stm.clock.ticks"), 5);
        assert_eq!(count(obs, "stm.clock.samples"), 4);
    }

    #[test]
    fn configured_tm_counts_commits_aborts_and_clock_traffic() {
        let obs = installed();
        let stm = Tl2Stm::with_config(&StmConfig::new(2).obs(obs));
        let (_, stats) = run_tx(&stm, 0, |tx| {
            tx.write(0, 5)?;
            tx.read(0)
        });
        assert_eq!(stats.commits, 1);
        assert_eq!(count(obs, "stm.commits"), 1);
        assert_eq!(count(obs, "stm.aborts"), 0);
        // Begin-time snapshots go through the unmetered (and uncounted)
        // `peek`, so only the commit-time tick is guaranteed here.
        assert!(count(obs, "stm.clock.ticks") >= 1, "commit tick");
    }

    #[test]
    fn default_config_builds_unwrapped_clock_and_silent_recorder() {
        let cfg = StmConfig::new(1);
        assert!(!cfg.obs_handle().enabled());
        // The debug representation proves no ObsClock wrapper is present.
        let clock = cfg.build_clock();
        assert!(!format!("{clock:?}").contains("ObsClock"));
        let stm = Tl2Stm::with_config(&cfg);
        let (_, _) = run_tx(&stm, 0, |tx| tx.write(0, 1));
        assert_eq!(stm.recorder().history().committed_txs().len(), 1);
    }

    #[test]
    fn step_probe_tallies_and_publishes_once() {
        let obs = installed();
        let probe = Arc::new(ObsStepProbe::new(obs));
        let cfg = StmConfig::new(2).obs(obs).probe(probe.clone());
        let stm = Tl2Stm::with_config(&cfg);
        let (_, _) = run_tx(&stm, 0, |tx| {
            tx.write(0, 3)?;
            tx.read(1)
        });
        assert!(probe.steps() > 0, "metered accesses must reach the probe");
        assert!(probe.stamps() >= 1, "the commit tick stamps");
        probe.publish();
        assert_eq!(count(obs, "stm.steps"), probe.steps());
        assert_eq!(count(obs, "stm.stamps"), probe.stamps());
    }
}
