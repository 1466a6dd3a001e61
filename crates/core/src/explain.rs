//! Human-readable explanations of opacity violations.
//!
//! A bare "not opaque" verdict is unhelpful when debugging a TM. This
//! module localizes violations the way a TM designer would want them
//! localized:
//!
//! * **which event broke it** — since a TM must keep *every prefix* of its
//!   history opaque, the violation is pinned to the first event whose
//!   prefix is non-opaque, found by feeding the history to one online
//!   monitor (whose checks resume from the last witness) instead of
//!   checking every prefix from scratch;
//! * **why the search got stuck there** — for the fatal prefix, the longest
//!   placeable serialization prefix is reported together with, for every
//!   remaining real-time-eligible transaction, the legality error that
//!   blocks its placement.

use crate::incremental::OpacityMonitor;
use crate::opacity::is_opaque;
use crate::search::CheckError;
use tm_model::legal::{replay_tx, LegalityError};
use tm_model::{History, ObjStates, RealTimeOrder, SpecRegistry, TxId};

/// Why a specific transaction cannot be placed next in any serialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StuckTransaction {
    /// The transaction that cannot be placed.
    pub tx: TxId,
    /// The legality error blocking it against the committed-prefix state of
    /// the reported placeable prefix (if its placement fails on legality
    /// grounds; `None` when the transaction itself is placeable but every
    /// continuation dead-ends).
    pub error: Option<LegalityError>,
}

/// A localized opacity violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationExplanation {
    /// Index of the first event whose prefix is non-opaque.
    pub at_event: usize,
    /// The offending event, rendered.
    pub event: String,
    /// One maximal placeable serialization prefix of the fatal history
    /// prefix (greedy; the true obstruction may involve backtracking, but a
    /// greedy prefix is what a designer inspects first).
    pub placeable_prefix: Vec<TxId>,
    /// The transactions eligible by real time but blocked, with reasons.
    pub stuck: Vec<StuckTransaction>,
}

impl std::fmt::Display for ViolationExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "opacity violated at event #{} ({}); placeable prefix: {:?}",
            self.at_event, self.event, self.placeable_prefix
        )?;
        for s in &self.stuck {
            match &s.error {
                Some(e) => writeln!(f, "  {} blocked: {e}", s.tx)?,
                None => writeln!(f, "  {} placeable but all continuations dead-end", s.tx)?,
            }
        }
        Ok(())
    }
}

/// Explains why `h` is not opaque; returns `Ok(None)` if it is opaque.
pub fn explain_violation(
    h: &History,
    specs: &SpecRegistry,
) -> Result<Option<ViolationExplanation>, CheckError> {
    if is_opaque(h, specs)?.opaque {
        return Ok(None);
    }
    // The first non-opaque prefix. The monitor checks only after responses,
    // which is exact: appending an invocation never makes an opaque history
    // non-opaque (see `crate::incremental`).
    let at = OpacityMonitor::new(specs)
        .feed_all(h)?
        .map_or(h.len(), |i| i + 1);
    Ok(Some(explain_prefix(h, at, specs)))
}

/// Explains the violation of the first `at` events of `h`, the shortest
/// non-opaque prefix.
fn explain_prefix(h: &History, at: usize, specs: &SpecRegistry) -> ViolationExplanation {
    let fatal = h.prefix(at);
    let event = fatal
        .events()
        .last()
        .map(|e| e.to_string())
        .unwrap_or_default();

    // Greedy placeable prefix on the fatal history: place any transaction
    // whose replay succeeds (folding committed effects), repeatedly.
    let rt = RealTimeOrder::of(&fatal);
    let mut placed: Vec<TxId> = Vec::new();
    let mut states = ObjStates::new();
    let txs = fatal.txs();
    loop {
        let mut progressed = false;
        for &t in &txs {
            if placed.contains(&t) {
                continue;
            }
            if rt.predecessors(t).iter().any(|p| !placed.contains(p)) {
                continue;
            }
            let view = fatal.tx_view(t);
            if let Ok(after) = replay_tx(&view, &states, specs) {
                if fatal.status(t).is_committed() {
                    states = after.canonical(specs);
                }
                placed.push(t);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let mut stuck = Vec::new();
    for &t in &txs {
        if placed.contains(&t) {
            continue;
        }
        if rt.predecessors(t).iter().any(|p| !placed.contains(p)) {
            continue; // not yet eligible; its predecessor is the problem
        }
        let error = replay_tx(&fatal.tx_view(t), &states, specs).err();
        stuck.push(StuckTransaction { tx: t, error });
    }
    // Greedy placement can also "succeed" on every transaction while the
    // real search fails (wrong commit choices); report the placed set as
    // stuck-free in that case — the prefix index is still exact.
    ViolationExplanation {
        at_event: at - 1,
        event,
        placeable_prefix: placed,
        stuck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tm_harness::randhist::{random_history, GenConfig};
    use tm_model::builder::paper;
    use tm_model::Event;

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    /// The reference: finds the first non-opaque prefix by checking every
    /// prefix from scratch.
    fn explain_by_prefix_scan(
        h: &History,
        specs: &SpecRegistry,
    ) -> Result<Option<ViolationExplanation>, CheckError> {
        if is_opaque(h, specs)?.opaque {
            return Ok(None);
        }
        let mut at = h.len();
        for n in 1..=h.len() {
            if !is_opaque(&h.prefix(n), specs)?.opaque {
                at = n;
                break;
            }
        }
        Ok(Some(explain_prefix(h, at, specs)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The monitor-located explanation is the prefix scan's, field for
        /// field.
        #[test]
        fn monitor_explanation_matches_the_prefix_scan(seed in 0u64..100_000) {
            let config = GenConfig {
                txs: 5,
                noise: 0.35,
                commit_pending: 0.25,
                ..GenConfig::default()
            };
            let h = random_history(&config, seed);
            let specs = regs();
            prop_assert_eq!(
                explain_violation(&h, &specs).unwrap(),
                explain_by_prefix_scan(&h, &specs).unwrap(),
                "{}",
                h
            );
        }
    }

    #[test]
    fn opaque_history_has_no_explanation() {
        assert!(explain_violation(&paper::h5(), &regs()).unwrap().is_none());
    }

    #[test]
    fn h1_explanation_points_at_the_fatal_read() {
        let h = paper::h1();
        let ex = explain_violation(&h, &regs())
            .unwrap()
            .expect("H1 not opaque");
        // The first non-opaque prefix ends at ret2(y,read)→2.
        let expected = h
            .events()
            .iter()
            .position(|e| matches!(e, Event::Ret { tx: TxId(2), obj, .. } if obj.name() == "y"))
            .unwrap();
        assert_eq!(ex.at_event, expected);
        assert!(ex.event.contains("ret2(y,read)"));
        // T1 and T3 place fine; T2 is the stuck one.
        assert!(ex.placeable_prefix.contains(&TxId(1)));
        assert!(ex.stuck.iter().any(|s| s.tx == TxId(2)));
        let rendered = ex.to_string();
        assert!(rendered.contains("T2"), "{rendered}");
    }

    #[test]
    fn garbage_read_explained_at_its_response() {
        let h = tm_model::HistoryBuilder::new()
            .read(1, "x", 42)
            .commit_ok(1)
            .build();
        let ex = explain_violation(&h, &regs()).unwrap().unwrap();
        assert_eq!(ex.at_event, 1); // the ret event
        assert!(ex
            .stuck
            .iter()
            .any(|s| s.tx == TxId(1) && s.error.is_some()));
    }
}
