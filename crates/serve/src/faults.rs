//! Deterministic fault injection: the [`FaultPlan`] and the
//! [`FaultDriver`] that applies it to a running daemon.
//!
//! A fault plan is a schedule keyed by **input frame index** (1-based: the
//! N-th non-blank line a transport hands the daemon; blank lines are not
//! frames, on stdin, replay and socket alike). Keying on frame
//! indices rather than wall time makes every injected failure replayable:
//! the same plan over the same frame stream produces the same torn bytes,
//! the same dropped lines, the same budget spikes — so the chaos suite can
//! pin exact properties ("unaffected sessions are byte-identical to the
//! fault-free run") instead of sampling flaky timing windows. This is the
//! model-checking stance of the source paper turned on the daemon itself:
//! enumerate failure interleavings deterministically, then prove the
//! verdict stream survives them.
//!
//! ## Fault taxonomy
//!
//! | kind    | spec syntax       | effect at frame `F`                              |
//! |---------|-------------------|--------------------------------------------------|
//! | torn    | `torn@F:K`        | the line is truncated to `K` bytes (short read)  |
//! | drop    | `drop@F:N`        | `N` lines starting at `F` are lost (dead conn)   |
//! | stall   | `stall@F:T`       | `T` scheduler turns pass before `F` (slow-loris) |
//! | werr    | `werr@F:N`        | the next `N` response writes fail transiently    |
//! | memo    | `memo@F:BxD`      | memo budget pinned to `B` bytes for `D` frames   |
//! | node    | `node@F:NxD`      | node budget pinned to `N` for `D` frames         |
//! | crash   | `crash@F`         | the daemon dies before `F` (journal flushed)     |
//!
//! Plans are written in one spec grammar, given inline (`--fault-plan
//! "torn@12:5,drop@30:3"`) or in a file (`--fault-plan plan.txt`), and may
//! include seeded generation (`gen@SEED:HORIZONxCOUNT[:kind+kind+...]`) —
//! the chaos property suite's entry point, built on the same splitmix64 mix
//! the harness RNG family uses so plans are stable across platforms.

use std::collections::BTreeMap;

use crate::table::{Routed, SessionTable};

/// One injected failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Truncate the input line to `keep` bytes (a short read / torn frame).
    Torn {
        /// Bytes of the line that survive (clamped to a char boundary).
        keep: usize,
    },
    /// Lose `frames` consecutive input lines, this one included — the
    /// in-flight tail of a dropped connection.
    Drop {
        /// Lines lost, `>= 1`.
        frames: usize,
    },
    /// A stalled (slow-loris) client: `turns` scheduler turns elapse
    /// before this line arrives, so every other session keeps draining.
    Stall {
        /// Scheduler turns to run before the line is applied.
        turns: u64,
    },
    /// Arm `writes` transient response-write failures: the next `writes`
    /// server frames are lost on the wire instead of delivered.
    WriteErr {
        /// Writes that fail, `>= 1`.
        writes: u32,
    },
    /// Pin the global memo budget to `bytes` for the next `frames` input
    /// lines, then restore the configured budget (a memory-pressure spike).
    MemoSpike {
        /// The spiked budget in bytes.
        bytes: u64,
        /// Lines the spike lasts.
        frames: usize,
    },
    /// Pin the per-turn node budget to `nodes` for the next `frames` input
    /// lines, then restore (a CPU-starvation spike).
    NodeSpike {
        /// The spiked per-turn budget.
        nodes: u64,
        /// Lines the spike lasts.
        frames: usize,
    },
    /// Kill the daemon before this line: the journal is flushed and the
    /// process exits with code 3, leaving recovery to `--resume`.
    Crash,
}

/// The fault kinds [`FaultPlan::generate`] may draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// [`Fault::Torn`].
    Torn,
    /// [`Fault::Drop`].
    Drop,
    /// [`Fault::Stall`].
    Stall,
    /// [`Fault::WriteErr`].
    WriteErr,
    /// [`Fault::MemoSpike`].
    MemoSpike,
    /// [`Fault::NodeSpike`].
    NodeSpike,
    /// [`Fault::Crash`] (placed at most once per generated plan).
    Crash,
}

impl FaultKind {
    /// Parses a kind name as spelled in the spec grammar.
    pub fn parse(s: &str) -> Result<FaultKind, String> {
        match s {
            "torn" => Ok(FaultKind::Torn),
            "drop" => Ok(FaultKind::Drop),
            "stall" => Ok(FaultKind::Stall),
            "werr" => Ok(FaultKind::WriteErr),
            "memo" => Ok(FaultKind::MemoSpike),
            "node" => Ok(FaultKind::NodeSpike),
            "crash" => Ok(FaultKind::Crash),
            other => Err(format!("unknown fault kind `{other}`")),
        }
    }
}

/// The fault kinds whose injected failures leave *other* sessions'
/// verdict streams untouched — the default draw set for the generated
/// chaos property (write errors lose arbitrary in-flight responses and
/// crashes end the run, so both are exercised by targeted suites instead).
pub const VERDICT_PRESERVING_KINDS: &[FaultKind] = &[
    FaultKind::Torn,
    FaultKind::Drop,
    FaultKind::Stall,
    FaultKind::MemoSpike,
    FaultKind::NodeSpike,
];

/// A deterministic schedule of injected faults, keyed by input frame index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults by 1-based frame index; several faults may share a frame and
    /// apply in insertion order.
    by_frame: BTreeMap<usize, Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; the driver's fast path).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.by_frame.is_empty()
    }

    /// Total scheduled faults.
    pub fn len(&self) -> usize {
        self.by_frame.values().map(Vec::len).sum()
    }

    /// Adds one fault at the given 1-based frame index.
    pub fn schedule(&mut self, frame: usize, fault: Fault) -> &mut Self {
        self.by_frame.entry(frame.max(1)).or_default().push(fault);
        self
    }

    /// The faults scheduled at `frame`, in insertion order.
    pub fn faults_at(&self, frame: usize) -> &[Fault] {
        self.by_frame.get(&frame).map_or(&[], Vec::as_slice)
    }

    /// Iterates `(frame, fault)` pairs in frame order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Fault)> {
        self.by_frame
            .iter()
            .flat_map(|(f, faults)| faults.iter().map(move |fault| (*f, fault)))
    }

    /// Parses the compact spec grammar: comma-separated `kind@frame[:args]`
    /// entries (see the module docs for the per-kind argument shapes), plus
    /// `gen@SEED:HORIZONxCOUNT[:kind+kind+...]` which expands to a seeded
    /// generated plan over frames `1..=HORIZON`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry `{entry}`: expected `kind@frame[:args]`"))?;
            if kind == "gen" {
                plan.expand_gen(entry, rest)?;
                continue;
            }
            let (frame, args) = match rest.split_once(':') {
                Some((f, a)) => (f, Some(a)),
                None => (rest, None),
            };
            let frame: usize = frame
                .parse()
                .map_err(|_| format!("fault entry `{entry}`: bad frame index `{frame}`"))?;
            if frame == 0 {
                return Err(format!("fault entry `{entry}`: frame indices are 1-based"));
            }
            let arg_err = || format!("fault entry `{entry}`: bad arguments");
            let one =
                |a: Option<&str>| a.ok_or_else(arg_err)?.parse::<u64>().map_err(|_| arg_err());
            let two = |a: Option<&str>| -> Result<(u64, u64), String> {
                let (x, y) = a.ok_or_else(arg_err)?.split_once('x').ok_or_else(arg_err)?;
                Ok((
                    x.parse().map_err(|_| arg_err())?,
                    y.parse().map_err(|_| arg_err())?,
                ))
            };
            let fault = match kind {
                "torn" => Fault::Torn {
                    keep: one(args)? as usize,
                },
                "drop" => Fault::Drop {
                    frames: (one(args)? as usize).max(1),
                },
                "stall" => Fault::Stall { turns: one(args)? },
                "werr" => Fault::WriteErr {
                    writes: (one(args)? as u32).max(1),
                },
                "memo" => {
                    let (bytes, frames) = two(args)?;
                    Fault::MemoSpike {
                        bytes,
                        frames: (frames as usize).max(1),
                    }
                }
                "node" => {
                    let (nodes, frames) = two(args)?;
                    Fault::NodeSpike {
                        nodes,
                        frames: (frames as usize).max(1),
                    }
                }
                "crash" => {
                    if args.is_some() {
                        return Err(format!("fault entry `{entry}`: crash takes no arguments"));
                    }
                    Fault::Crash
                }
                other => return Err(format!("fault entry `{entry}`: unknown kind `{other}`")),
            };
            plan.schedule(frame, fault);
        }
        Ok(plan)
    }

    /// Expands one `gen@SEED:HORIZONxCOUNT[:kinds]` spec entry in place.
    fn expand_gen(&mut self, entry: &str, rest: &str) -> Result<(), String> {
        let err =
            || format!("fault entry `{entry}`: expected `gen@SEED:HORIZONxCOUNT[:kind+kind+...]`");
        let mut parts = rest.splitn(3, ':');
        let seed: u64 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let (h, c) = parts
            .next()
            .ok_or_else(err)?
            .split_once('x')
            .ok_or_else(err)?;
        let horizon: usize = h.parse().map_err(|_| err())?;
        let count: usize = c.parse().map_err(|_| err())?;
        let kinds: Vec<FaultKind> = match parts.next() {
            Some(list) => list
                .split('+')
                .map(FaultKind::parse)
                .collect::<Result<_, _>>()?,
            None => VERDICT_PRESERVING_KINDS.to_vec(),
        };
        if kinds.is_empty() {
            return Err(err());
        }
        let generated = FaultPlan::generate(seed, horizon, count, &kinds);
        for (frame, fault) in generated.iter() {
            self.schedule(frame, *fault);
        }
        Ok(())
    }

    /// Generates a seeded plan of `count` faults over frames
    /// `1..=horizon`, drawing kinds uniformly from `kinds`. Deterministic
    /// in `(seed, horizon, count, kinds)` and platform-independent
    /// (splitmix64), so generated chaos cases are exactly reproducible
    /// from their seed. At most one [`Fault::Crash`] is placed per plan.
    pub fn generate(seed: u64, horizon: usize, count: usize, kinds: &[FaultKind]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if kinds.is_empty() || horizon == 0 {
            return plan;
        }
        // Distinguish same-seed plans with different shapes.
        let mut state = seed ^ (horizon as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut crashed = false;
        for _ in 0..count {
            let frame = 1 + (splitmix64(&mut state) as usize) % horizon;
            let kind = kinds[(splitmix64(&mut state) as usize) % kinds.len()];
            let r = splitmix64(&mut state);
            let fault = match kind {
                FaultKind::Torn => Fault::Torn {
                    keep: (r % 24) as usize,
                },
                FaultKind::Drop => Fault::Drop {
                    frames: 1 + (r % 3) as usize,
                },
                FaultKind::Stall => Fault::Stall { turns: 1 + r % 8 },
                FaultKind::WriteErr => Fault::WriteErr {
                    writes: 1 + (r % 3) as u32,
                },
                FaultKind::MemoSpike => Fault::MemoSpike {
                    bytes: crate::table::EST_ENTRY_BYTES * (16 + r % 256),
                    frames: 1 + (r % 32) as usize,
                },
                FaultKind::NodeSpike => Fault::NodeSpike {
                    nodes: 1 + r % 1000,
                    frames: 1 + (r % 32) as usize,
                },
                FaultKind::Crash => {
                    if crashed {
                        continue;
                    }
                    crashed = true;
                    Fault::Crash
                }
            };
            plan.schedule(frame, fault);
        }
        plan
    }
}

/// One splitmix64 step — the same platform-independent mix the harness RNG
/// family builds on (`tm-serve` deliberately carries no `rand` dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the driver decided about one input line. The daemon loops use the
/// borrowed form (`LineFate<&str>`), which delivers the input line itself
/// or, under a torn-frame fault, a prefix of it — never a copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineFate<L = String> {
    /// Deliver this (possibly truncated) line to the frame parser.
    Deliver(L),
    /// The line was lost to a drop fault; skip it.
    Skip,
    /// A crash fault fired: the journal has been flushed, the daemon must
    /// exit with code 3 without draining.
    Crash,
}

/// Applies a [`FaultPlan`] to a daemon's input stream, one line at a time.
///
/// The driver owns the plan's runtime state: the frame counter, in-flight
/// drop spans, armed transient write failures, and pending budget-spike
/// restores.
pub struct FaultDriver {
    plan: FaultPlan,
    /// 1-based index of the most recently begun input line.
    frame: usize,
    /// Lines still to swallow from an in-flight [`Fault::Drop`].
    drop_left: usize,
    /// Armed transient write failures ([`Fault::WriteErr`]).
    write_fails_left: u32,
    /// Budget restores due at a future frame index.
    restores: Vec<(usize, Restore)>,
}

/// A budget value to put back when a spike expires.
#[derive(Clone, Copy, Debug)]
enum Restore {
    Memo(Option<u64>),
    Node(u64),
}

impl FaultDriver {
    /// A driver over the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultDriver {
            plan,
            frame: 0,
            drop_left: 0,
            write_fails_left: 0,
            restores: Vec::new(),
        }
    }

    /// Advances to the next input line and applies every fault scheduled
    /// there. Returns any frames produced by stall-driven scheduler turns
    /// plus the line's fate.
    pub fn on_line(&mut self, table: &mut SessionTable, line: &str) -> (Vec<Routed>, LineFate) {
        let mut out = Vec::new();
        let fate = match self.admit(table, line, &mut out) {
            LineFate::Deliver(l) => LineFate::Deliver(l.to_string()),
            LineFate::Skip => LineFate::Skip,
            LineFate::Crash => LineFate::Crash,
        };
        (out, fate)
    }

    /// [`FaultDriver::on_line`] without the copies: the delivered line is
    /// `line` or a prefix of it, and stall turns append to `out`.
    pub(crate) fn admit<'l>(
        &mut self,
        table: &mut SessionTable,
        line: &'l str,
        out: &mut Vec<Routed>,
    ) -> LineFate<&'l str> {
        self.frame += 1;
        let f = self.frame;
        // Expired spikes restore before this line's faults apply, so
        // back-to-back spikes compose predictably.
        let mut i = 0;
        while i < self.restores.len() {
            if self.restores[i].0 <= f {
                match self.restores.swap_remove(i).1 {
                    Restore::Memo(bytes) => table.set_memo_budget(bytes),
                    Restore::Node(nodes) => table.set_node_budget(nodes),
                }
            } else {
                i += 1;
            }
        }
        if self.drop_left > 0 {
            self.drop_left -= 1;
            return LineFate::Skip;
        }
        let mut delivered = line;
        let mut fate_skip = false;
        for fault in self.plan.faults_at(f).to_vec() {
            match fault {
                Fault::Stall { turns } => {
                    for _ in 0..turns {
                        table.pump_into(out);
                    }
                }
                Fault::Torn { keep } => {
                    let mut keep = keep.min(delivered.len());
                    while !delivered.is_char_boundary(keep) {
                        keep -= 1;
                    }
                    delivered = &delivered[..keep];
                }
                Fault::Drop { frames } => {
                    self.drop_left = frames - 1;
                    fate_skip = true;
                }
                Fault::WriteErr { writes } => {
                    self.write_fails_left += writes;
                }
                Fault::MemoSpike { bytes, frames } => {
                    self.restores
                        .push((f + frames, Restore::Memo(table.memo_budget())));
                    table.set_memo_budget(Some(bytes));
                }
                Fault::NodeSpike { nodes, frames } => {
                    self.restores
                        .push((f + frames, Restore::Node(table.node_budget())));
                    table.set_node_budget(nodes);
                }
                Fault::Crash => {
                    table.journal_flush();
                    return LineFate::Crash;
                }
            }
        }
        if fate_skip {
            LineFate::Skip
        } else {
            LineFate::Deliver(delivered)
        }
    }

    /// Consumes one armed transient write failure, if any — the emit path
    /// asks before every response write and drops the frame when `true`.
    pub fn take_write_failure(&mut self) -> bool {
        if self.write_fails_left > 0 {
            self.write_fails_left -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_parses_every_kind() {
        let plan = FaultPlan::parse(
            "torn@12:5, drop@30:3, stall@40:5, werr@50:2, memo@60:8192x10, node@70:100x5, crash@80",
        )
        .unwrap();
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.faults_at(12), &[Fault::Torn { keep: 5 }]);
        assert_eq!(plan.faults_at(30), &[Fault::Drop { frames: 3 }]);
        assert_eq!(plan.faults_at(40), &[Fault::Stall { turns: 5 }]);
        assert_eq!(plan.faults_at(50), &[Fault::WriteErr { writes: 2 }]);
        assert_eq!(
            plan.faults_at(60),
            &[Fault::MemoSpike {
                bytes: 8192,
                frames: 10
            }]
        );
        assert_eq!(
            plan.faults_at(70),
            &[Fault::NodeSpike {
                nodes: 100,
                frames: 5
            }]
        );
        assert_eq!(plan.faults_at(80), &[Fault::Crash]);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (bad, needle) in [
            ("torn", "expected `kind@frame"),
            ("torn@x:5", "bad frame index"),
            ("torn@0:5", "1-based"),
            ("warble@3:1", "unknown kind `warble`"),
            ("memo@3:77", "bad arguments"),
            ("crash@3:1", "crash takes no arguments"),
            ("gen@1:abc", "expected `gen@SEED"),
            ("gen@1:10x3:torn+zap", "unknown fault kind `zap`"),
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            assert!(e.contains(needle), "{bad}: {e}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_bounded_to_the_horizon() {
        let a = FaultPlan::generate(42, 100, 16, VERDICT_PRESERVING_KINDS);
        let b = FaultPlan::generate(42, 100, 16, VERDICT_PRESERVING_KINDS);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|(f, _)| (1..=100).contains(&f)));
        let c = FaultPlan::generate(43, 100, 16, VERDICT_PRESERVING_KINDS);
        assert_ne!(a, c, "different seeds draw different plans");
        // The gen@ spec entry expands to exactly the library generation.
        let spec = FaultPlan::parse("gen@42:100x16:torn+drop+stall+memo+node").unwrap();
        assert_eq!(spec, a);
    }

    #[test]
    fn generated_crashes_appear_at_most_once() {
        for seed in 0..32 {
            let plan = FaultPlan::generate(seed, 50, 20, &[FaultKind::Crash, FaultKind::Stall]);
            let crashes = plan
                .iter()
                .filter(|(_, f)| matches!(f, Fault::Crash))
                .count();
            assert!(crashes <= 1, "seed {seed} placed {crashes} crashes");
        }
    }
}
