//! Configured TM construction — the [`StmConfig`] builder.
//!
//! Every TM is built from one [`StmConfig`]: the number of registers `k`
//! (all start at 0), whether to record the history, and the optional step
//! probe and observability handle that instrument the built TM.
//!
//! ```
//! use tm_stm::{StmConfig, Tl2Stm, Stm, run_tx};
//!
//! let stm = Tl2Stm::with_config(&StmConfig::new(4).recording(false));
//! let (v, _) = run_tx(&stm, 0, |tx| {
//!     tx.write(0, 100)?;
//!     tx.read(0)
//! });
//! assert_eq!(v, 100);
//! assert!(stm.recorder().is_empty()); // recording off: no events allocated
//! ```
//!
//! Every TM's `new(k)` is `with_config(&StmConfig::new(k))`.

use crate::clock::{GlobalClock, VersionClock};
use crate::recorder::Recorder;
use crate::trace_cells::StepProbe;
use std::sync::Arc;

/// A complete description of how to build a TM instance.
#[derive(Clone, Debug)]
pub struct StmConfig {
    k: usize,
    recording: bool,
    probe: Option<Arc<dyn StepProbe>>,
    obs: tm_obs::ObsHandle,
}

impl StmConfig {
    /// The default configuration over `k` registers: recording on, no
    /// probe, observability disabled — exactly what `new(k)` builds.
    pub fn new(k: usize) -> Self {
        StmConfig {
            k,
            recording: true,
            probe: None,
            obs: tm_obs::ObsHandle::disabled(),
        }
    }

    /// Enables or disables history recording (default on), for the TM's
    /// whole life. A TM built with recording off never allocates events —
    /// the hot path pays nothing.
    pub fn recording(mut self, on: bool) -> Self {
        self.recording = on;
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
    /// handle makes the built TM's recorder count
    /// `stm.commits`/`stm.aborts` and wraps a timestamp-based TM's clock in
    /// a [`crate::obs::ObsClock`] counting
    /// `stm.clock.samples`/`stm.clock.ticks`. A disabled handle changes
    /// nothing: the built TM is bit-for-bit the uninstrumented one.
    pub fn obs(mut self, obs: tm_obs::ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    // ---- read by the TM constructors ----------------------------------------

    /// The number of registers.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The attached step probe, if any (cloned into every transaction's
    /// meter).
    pub(crate) fn step_probe(&self) -> Option<Arc<dyn StepProbe>> {
        self.probe.clone()
    }

    /// Builds a fresh GV1 [`VersionClock`] for a timestamp-based TM. With
    /// an enabled observability handle the clock is wrapped in a
    /// [`crate::obs::ObsClock`] decorator; otherwise the bare clock is
    /// returned — the disabled path has no wrapper at all.
    pub(crate) fn build_clock(&self) -> Box<dyn GlobalClock> {
        let clock = Box::new(VersionClock::new());
        if self.obs.enabled() {
            Box::new(crate::obs::ObsClock::new(clock, self.obs))
        } else {
            clock
        }
    }

    /// Builds the recorder this configuration names: keeping events only
    /// with recording on, so a recording-off TM skips event construction
    /// entirely, and counting commits and aborts on the observability
    /// handle.
    pub(crate) fn build_recorder(&self) -> Recorder {
        Recorder::new(self.k, self.recording, self.obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_historical_constructor() {
        let cfg = StmConfig::new(3);
        assert_eq!(cfg.k(), 3);
        assert!(cfg.step_probe().is_none());
        assert!(!cfg.obs.enabled());
        assert!(cfg.build_recorder().enabled());
    }

    #[test]
    fn builder_round_trips_every_axis() {
        let cfg = StmConfig::new(4)
            .recording(false)
            .probe(crate::trace_cells::AccessLog::shared())
            .obs(tm_obs::ObsHandle::install());
        assert_eq!(cfg.k(), 4);
        assert!(cfg.step_probe().is_some());
        assert!(cfg.obs.enabled());
        assert!(!cfg.build_recorder().enabled());
    }
}
