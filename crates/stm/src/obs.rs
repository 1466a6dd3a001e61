//! Observability for the STM layer's clock.
//!
//! [`ObsClock`] wraps any [`GlobalClock`] and counts `stm.clock.samples` /
//! `stm.clock.ticks` on the `tm-obs` registry (reservations count as
//! ticks — they issue commit timestamps). A timestamp-based TM gets one
//! **only when an enabled handle is attached** to its
//! [`crate::StmConfig`]: a TM built from the default configuration has no
//! wrapper, so the disabled path is not "a cheap branch" but the complete
//! absence of the adapter. (The recorder counts `stm.commits` /
//! `stm.aborts` on the same handle.)

use crate::base::Meter;
use crate::clock::GlobalClock;
use tm_obs::ObsHandle;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::clock::VersionClock;
    use crate::config::StmConfig;
    use crate::tl2::Tl2Stm;

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
        // The debug representation proves no ObsClock wrapper is present.
        let clock = cfg.build_clock();
        assert!(!format!("{clock:?}").contains("ObsClock"));
        let stm = Tl2Stm::with_config(&cfg);
        let (_, _) = run_tx(&stm, 0, |tx| tx.write(0, 1));
        assert_eq!(stm.recorder().history().committed_txs().len(), 1);
    }
}
