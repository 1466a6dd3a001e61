//! The real-time-chained knots as a served session sees them, shared by
//! the serve test binaries that include it with `#[path]` beside
//! `crates/core/tests/common/knots.rs` (declared as the module `knots`).

use tm_model::{Event, OpName, TxId};

use crate::knots::rt_chain_knot_history;

/// `rt_chain_knot_history(knots, writers)` with every knot's observed
/// writer made commit-pending before the knot's read returns. As built,
/// the history reads a live writer's value, so a monitor latches a
/// violation at the first knot and checks nothing after it. Moved this
/// way, every proper prefix is opaque and the served session checks each
/// knot, ending with the exhaustive refutation of the impossible final
/// read.
pub fn served_knot_history(knots: u32, writers: u32) -> Vec<Event> {
    let h = rt_chain_knot_history(knots, writers);
    let mut events: Vec<Event> = Vec::new();
    let mut early: Vec<TxId> = Vec::new();
    for e in h.events() {
        match e {
            Event::TryCommit(tx) if early.contains(tx) => continue,
            Event::Ret {
                tx,
                obj,
                op: OpName::Read,
                val,
            } => {
                let writer = h.events().iter().find_map(|w| match w {
                    Event::Inv {
                        tx: w_tx,
                        obj: w_obj,
                        op: OpName::Write,
                        args,
                    } if w_tx != tx && w_obj == obj && args.first() == Some(val) => Some(*w_tx),
                    _ => None,
                });
                if let Some(writer) = writer {
                    events.push(Event::TryCommit(writer));
                    early.push(writer);
                }
            }
            _ => {}
        }
        events.push(e.clone());
    }
    events
}
