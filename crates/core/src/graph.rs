//! The graph characterization of opacity (Section 5.4).
//!
//! For histories over read/write registers — with the paper's two
//! conventions: unique writes, and an initializing committed transaction
//! `T0` that writes to every register — opacity is equivalent to the
//! existence of a total order `≪` and a set `V` of commit-pending
//! transactions such that the *opacity graph* `OPG(nonlocal(H), ≪, V)` is
//! well-formed and acyclic (Theorem 2).
//!
//! This module implements every ingredient: local operations and
//! `nonlocal(H)`, local consistency and consistency, the labelled graph
//! `OPG(H, ≪, V)`, well-formedness, acyclicity, and DOT export for
//! visualizing dependencies and opacity violations.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::search::CheckError;
use tm_model::{Event, History, ObjId, OpExec, OpName, RealTimeOrder, SpecRegistry, TxId, Value};

/// Node labels of the opacity graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeLabel {
    /// `Lvis`: the transaction is committed or in `V` — its writes are
    /// visible.
    Vis,
    /// `Lloc`: the transaction's writes must remain local.
    Loc,
}

/// Edge labels of the opacity graph (the four rules of Section 5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeLabel {
    /// Rule 1, `Lrt`: real-time order `Ti ≺_H Tk`.
    Rt,
    /// Rule 2, `Lrf`: `Tk` reads from `Ti`.
    Rf,
    /// Rule 3, `Lrw`: `Ti ≪ Tk` and `Ti` reads a register written by `Tk`.
    Rw,
    /// Rule 4, `Lww`: visible `Ti` writes a register that some `Tm` after it
    /// (`Ti ≪ Tm`) reads from `Tk`.
    Ww,
}

/// The opacity graph `OPG(H, ≪, V)`: a directed, labelled graph over the
/// transactions of `H`.
#[derive(Clone, Debug)]
pub struct OpacityGraph {
    /// Vertices with their labels, in `H.txs()` order.
    pub nodes: Vec<(TxId, NodeLabel)>,
    /// Labelled edges; an edge may carry several labels.
    pub edges: BTreeMap<(TxId, TxId), BTreeSet<EdgeLabel>>,
}

impl OpacityGraph {
    /// True if the graph is well-formed: no `Lloc` vertex has an outgoing
    /// `Lrf` edge (a non-visible transaction must not be read from).
    pub fn is_well_formed(&self) -> bool {
        let loc: HashSet<TxId> = self
            .nodes
            .iter()
            .filter(|(_, l)| *l == NodeLabel::Loc)
            .map(|(t, _)| *t)
            .collect();
        !self
            .edges
            .iter()
            .any(|((from, _), labels)| loc.contains(from) && labels.contains(&EdgeLabel::Rf))
    }

    /// True if the graph is acyclic (self-loops count as cycles).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over the vertex set.
        let mut indeg: HashMap<TxId, usize> = self.nodes.iter().map(|(t, _)| (*t, 0)).collect();
        for &(from, to) in self.edges.keys() {
            if from == to {
                return false;
            }
            if indeg.contains_key(&from) {
                if let Some(d) = indeg.get_mut(&to) {
                    *d += 1;
                }
            }
        }
        let mut queue: Vec<TxId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(t, _)| *t)
            .collect();
        let mut removed = 0usize;
        while let Some(t) = queue.pop() {
            removed += 1;
            for &(from, to) in self.edges.keys() {
                if from == t {
                    if let Some(d) = indeg.get_mut(&to) {
                        *d -= 1;
                        if *d == 0 {
                            queue.push(to);
                        }
                    }
                }
            }
        }
        removed == self.nodes.len()
    }

    /// A topological order of the vertices, if the graph is acyclic.
    pub fn topological_order(&self) -> Option<Vec<TxId>> {
        let mut indeg: HashMap<TxId, usize> = self.nodes.iter().map(|(t, _)| (*t, 0)).collect();
        for &(from, to) in self.edges.keys() {
            if from == to {
                return None;
            }
            if indeg.contains_key(&from) {
                if let Some(d) = indeg.get_mut(&to) {
                    *d += 1;
                }
            }
        }
        let mut queue: std::collections::BinaryHeap<std::cmp::Reverse<TxId>> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(t, _)| std::cmp::Reverse(*t))
            .collect();
        let mut out = Vec::with_capacity(self.nodes.len());
        while let Some(std::cmp::Reverse(t)) = queue.pop() {
            out.push(t);
            for &(from, to) in self.edges.keys() {
                if from == t {
                    if let Some(d) = indeg.get_mut(&to) {
                        *d -= 1;
                        if *d == 0 {
                            queue.push(std::cmp::Reverse(to));
                        }
                    }
                }
            }
        }
        (out.len() == self.nodes.len()).then_some(out)
    }

    /// Renders the graph in Graphviz DOT format, labelling nodes `Lvis`/
    /// `Lloc` and edges with their rule labels.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph OPG {\n  rankdir=LR;\n");
        for (t, l) in &self.nodes {
            let (shape, label) = match l {
                NodeLabel::Vis => ("ellipse", "Lvis"),
                NodeLabel::Loc => ("box", "Lloc"),
            };
            s.push_str(&format!("  \"{t}\" [shape={shape}, xlabel=\"{label}\"];\n"));
        }
        for ((from, to), labels) in &self.edges {
            let names: Vec<&str> = labels
                .iter()
                .map(|l| match l {
                    EdgeLabel::Rt => "rt",
                    EdgeLabel::Rf => "rf",
                    EdgeLabel::Rw => "rw",
                    EdgeLabel::Ww => "ww",
                })
                .collect();
            s.push_str(&format!(
                "  \"{from}\" -> \"{to}\" [label=\"{}\"];\n",
                names.join(",")
            ));
        }
        s.push_str("}\n");
        s
    }
}

/// Errors from the graph machinery (which is register-specific).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The history contains an operation that is not a register read/write.
    NonRegisterOperation(String),
    /// Two writes of the same value to the same register (the unique-writes
    /// convention is violated).
    DuplicateWrite {
        /// The register written twice with the same value.
        obj: ObjId,
        /// The duplicated value.
        value: Value,
    },
    /// The definitional search that serializes the history failed (the
    /// engine's transaction limit, for instance).
    Search(CheckError),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NonRegisterOperation(op) => {
                write!(
                    f,
                    "graph characterization requires register histories; found {op}"
                )
            }
            GraphError::DuplicateWrite { obj, value } => {
                write!(f, "unique-writes violated: {value} written to {obj} twice")
            }
            GraphError::Search(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Verifies the Section 5.4 preconditions: registers only, unique writes.
pub fn check_graph_preconditions(h: &History) -> Result<(), GraphError> {
    let mut written: HashSet<(ObjId, Value)> = HashSet::new();
    for e in h.events() {
        if let Event::Inv { obj, op, args, .. } = e {
            match op {
                OpName::Read => {}
                OpName::Write => {
                    let v = args.first().cloned().unwrap_or(Value::Unit);
                    if !written.insert((obj.clone(), v.clone())) {
                        return Err(GraphError::DuplicateWrite {
                            obj: obj.clone(),
                            value: v,
                        });
                    }
                }
                other => return Err(GraphError::NonRegisterOperation(other.to_string())),
            }
        }
    }
    Ok(())
}

/// The transaction id used for the synthetic initializing transaction.
pub const INIT_TX: TxId = TxId(0);

/// Prepends the paper's initializing committed transaction `T0`, writing the
/// registry-defined initial value to every register of `h`.
///
/// The caller must ensure no other transaction writes an initial value
/// (unique writes); [`check_graph_preconditions`] will detect violations.
pub fn with_initial_tx(h: &History, specs: &SpecRegistry) -> History {
    let mut events = Vec::new();
    for obj in h.objects() {
        let init = specs.initial_of(&obj).unwrap_or(Value::int(0));
        events.push(Event::Inv {
            tx: INIT_TX,
            obj: obj.clone(),
            op: OpName::Write,
            args: vec![init.clone()],
        });
        events.push(Event::Ret {
            tx: INIT_TX,
            obj,
            op: OpName::Write,
            val: Value::Ok,
        });
    }
    events.push(Event::TryCommit(INIT_TX));
    events.push(Event::Commit(INIT_TX));
    events.extend(h.events().iter().cloned());
    History::from_events(events)
}

/// Returns, per transaction, its operation executions with a `local` flag.
///
/// A read is local if preceded (in `H|Ti`) by a write of `Ti` to the same
/// register; a write is local if followed (in `H|Ti`) by another write of
/// `Ti` to the same register.
pub fn classify_local_ops(h: &History) -> Vec<(OpExec, bool)> {
    // Work per transaction over its op sequence.
    let mut flags: HashMap<(TxId, usize), bool> = HashMap::new();
    for t in h.txs() {
        let view = h.tx_view(t);
        for (i, op) in view.ops.iter().enumerate() {
            let local = match op.op {
                OpName::Read => view.ops[..i]
                    .iter()
                    .any(|w| w.op == OpName::Write && w.obj == op.obj),
                OpName::Write => view.ops[i + 1..]
                    .iter()
                    .any(|w| w.op == OpName::Write && w.obj == op.obj),
                _ => false,
            };
            flags.insert((t, i), local);
        }
    }
    // Re-emit in history (invocation) order.
    let mut counters: HashMap<TxId, usize> = HashMap::new();
    h.all_ops()
        .into_iter()
        .map(|op| {
            let c = counters.entry(op.tx).or_insert(0);
            let local = flags.get(&(op.tx, *c)).copied().unwrap_or(false);
            *c += 1;
            (op, local)
        })
        .collect()
}

/// `nonlocal(H)`: the longest subsequence of `H` without local operation
/// executions (both events of each local execution are removed).
pub fn nonlocal(h: &History) -> History {
    // Identify local op indices per transaction.
    let mut local_idx: HashSet<(TxId, usize)> = HashSet::new();
    for t in h.txs() {
        let view = h.tx_view(t);
        for (i, op) in view.ops.iter().enumerate() {
            let local = match op.op {
                OpName::Read => view.ops[..i]
                    .iter()
                    .any(|w| w.op == OpName::Write && w.obj == op.obj),
                OpName::Write => view.ops[i + 1..]
                    .iter()
                    .any(|w| w.op == OpName::Write && w.obj == op.obj),
                _ => false,
            };
            if local {
                local_idx.insert((t, i));
            }
        }
    }
    // Walk events, tracking per-tx completed-op counters, and drop the
    // inv/ret pairs of local executions.
    let mut out = Vec::new();
    let mut op_counter: HashMap<TxId, usize> = HashMap::new();
    let mut drop_pending_ret: HashSet<TxId> = HashSet::new();
    for e in h.events() {
        match e {
            Event::Inv { tx, .. } => {
                let c = *op_counter.get(tx).unwrap_or(&0);
                if local_idx.contains(&(*tx, c)) {
                    drop_pending_ret.insert(*tx);
                } else {
                    out.push(e.clone());
                }
            }
            Event::Ret { tx, .. } => {
                let c = op_counter.entry(*tx).or_insert(0);
                *c += 1;
                if !drop_pending_ret.remove(tx) {
                    out.push(e.clone());
                }
            }
            _ => out.push(e.clone()),
        }
    }
    History::from_events(out)
}

/// Local consistency: every local read returns the latest preceding write of
/// its own transaction to that register.
pub fn is_locally_consistent(h: &History) -> bool {
    for t in h.txs() {
        let view = h.tx_view(t);
        for (i, op) in view.ops.iter().enumerate() {
            if op.op != OpName::Read {
                continue;
            }
            let latest_own_write = view.ops[..i]
                .iter()
                .rev()
                .find(|w| w.op == OpName::Write && w.obj == op.obj);
            if let Some(w) = latest_own_write {
                if w.args.first() != Some(&op.val) {
                    return false;
                }
            }
        }
    }
    true
}

/// Consistency (Section 5.4): local consistency, plus every non-local read
/// returns a value written by some transaction in `nonlocal(H)`.
pub fn is_consistent(h: &History) -> bool {
    if !is_locally_consistent(h) {
        return false;
    }
    let nl = nonlocal(h);
    let written: HashSet<(ObjId, Value)> = nl
        .all_ops()
        .iter()
        .filter(|o| o.op == OpName::Write)
        .filter_map(|o| o.args.first().map(|v| (o.obj.clone(), v.clone())))
        .collect();
    nl.all_ops()
        .iter()
        .filter(|o| o.op == OpName::Read)
        .all(|o| written.contains(&(o.obj.clone(), o.val.clone())))
}

/// Builds `OPG(nonlocal(H), ≪, V)` for a register history `h`.
///
/// `order` is the total order `≪` (every transaction of `h` must appear);
/// `visible` is the set `V` of commit-pending transactions treated as
/// visible.
///
/// The access relations (reads, writes, reads-from) are taken from
/// `nonlocal(h)` as Theorem 2 prescribes; the real-time edges (rule 1) are
/// taken from the **original** `h`. Removing local operations can only
/// *shrink* a transaction's event span, which can manufacture happen-before
/// pairs that do not exist in the real execution — a genuinely opaque
/// history (whose serialization legitimately orders such transactions the
/// other way) would then appear cyclic. The paper's proof concerns the
/// execution's actual real-time order, so that is what rule 1 uses here.
pub fn build_opg(h: &History, order: &[TxId], visible: &HashSet<TxId>) -> OpacityGraph {
    let txs = h.txs();
    let pos: HashMap<TxId, usize> = order.iter().enumerate().map(|(i, t)| (*t, i)).collect();
    let before = |a: TxId, b: TxId| match (pos.get(&a), pos.get(&b)) {
        (Some(x), Some(y)) => x < y,
        _ => false,
    };

    let nodes: Vec<(TxId, NodeLabel)> = txs
        .iter()
        .map(|&t| {
            let vis = h.status(t).is_committed() || visible.contains(&t);
            (t, if vis { NodeLabel::Vis } else { NodeLabel::Loc })
        })
        .collect();

    // Access relations on nonlocal(h).
    let nl = nonlocal(h);
    let ops = nl.all_ops();
    let reads: Vec<&OpExec> = ops.iter().filter(|o| o.op == OpName::Read).collect();
    // "Ti writes to r" is invocation-level: include pending write invocations.
    let mut writes: Vec<(TxId, ObjId, Value)> = Vec::new();
    for e in nl.events() {
        if let Event::Inv {
            tx,
            obj,
            op: OpName::Write,
            args,
        } = e
        {
            if let Some(v) = args.first() {
                writes.push((*tx, obj.clone(), v.clone()));
            }
        }
    }
    // reads-from: unique writes make the writer of each read value unique.
    let writer_of = |obj: &ObjId, v: &Value| -> Option<TxId> {
        writes
            .iter()
            .find(|(_, o, w)| o == obj && w == v)
            .map(|(t, _, _)| *t)
    };
    let mut reads_from: Vec<(TxId, TxId, ObjId)> = Vec::new(); // (reader, writer, r)
    for r in &reads {
        if let Some(w) = writer_of(&r.obj, &r.val) {
            if w != r.tx {
                reads_from.push((r.tx, w, r.obj.clone()));
            }
        }
    }

    let mut edges: BTreeMap<(TxId, TxId), BTreeSet<EdgeLabel>> = BTreeMap::new();
    let mut add = |from: TxId, to: TxId, l: EdgeLabel| {
        edges.entry((from, to)).or_default().insert(l);
    };

    // Rule 1: real-time edges.
    let rt = RealTimeOrder::of(h);
    for &a in &txs {
        for &b in &txs {
            if rt.precedes(a, b) {
                add(a, b, EdgeLabel::Rt);
            }
        }
    }

    // Rule 2: reads-from edges (writer -> reader).
    for (reader, writer, _) in &reads_from {
        add(*writer, *reader, EdgeLabel::Rf);
    }

    // Rule 3: read-write (anti-dependency) edges under ≪.
    for r in &reads {
        for (wt, wobj, _) in &writes {
            if *wt != r.tx && wobj == &r.obj && before(r.tx, *wt) {
                add(r.tx, *wt, EdgeLabel::Rw);
            }
        }
    }

    // Rule 4: write-write edges under ≪: visible Ti writes r, and some Tm
    // with Ti ≪ Tm reads r from Tk (Tk ≠ Ti) — then Ti must precede Tk.
    let visible_tx = |t: TxId| h.status(t).is_committed() || visible.contains(&t);
    for &(ti, ref robj, _) in writes.iter() {
        if !visible_tx(ti) {
            continue;
        }
        for (tm, tk, robj2) in &reads_from {
            if robj2 == robj && before(ti, *tm) && *tk != ti {
                add(ti, *tk, EdgeLabel::Ww);
            }
        }
    }

    OpacityGraph { nodes, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::builder::{paper, HistoryBuilder};

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    #[test]
    fn preconditions_detect_violations() {
        let ok = paper::h1();
        assert!(check_graph_preconditions(&ok).is_ok());
        let dup = HistoryBuilder::new()
            .write(1, "x", 5)
            .write(2, "x", 5)
            .build();
        assert!(matches!(
            check_graph_preconditions(&dup),
            Err(GraphError::DuplicateWrite { .. })
        ));
        let nonreg = HistoryBuilder::new().inc(1, "c").build();
        assert!(matches!(
            check_graph_preconditions(&nonreg),
            Err(GraphError::NonRegisterOperation(_))
        ));
    }

    #[test]
    fn local_classification() {
        // T1: write x 1; read x 1 (local); write x 2 (makes first write
        // local); read y 0 (nonlocal).
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(1, "x", 1)
            .write(1, "x", 2)
            .read(1, "y", 0)
            .build();
        let flags = classify_local_ops(&h);
        let locality: Vec<bool> = flags.iter().map(|(_, l)| *l).collect();
        assert_eq!(locality, vec![true, true, false, false]);
        let nl = nonlocal(&h);
        assert_eq!(nl.all_ops().len(), 2);
        assert_eq!(nl.all_ops()[0].to_string(), "write1(x,2)");
    }

    #[test]
    fn local_consistency() {
        let good = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(1, "x", 1)
            .build();
        assert!(is_locally_consistent(&good));
        let bad = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(1, "x", 9)
            .build();
        assert!(!is_locally_consistent(&bad));
    }

    #[test]
    fn consistency_requires_written_values() {
        let h = with_initial_tx(&paper::h1(), &regs());
        assert!(is_consistent(&h));
        // Reading a value nobody wrote is inconsistent.
        let bad = HistoryBuilder::new().read(1, "x", 42).build();
        let bad = with_initial_tx(&bad, &regs());
        assert!(!is_consistent(&bad));
    }

    #[test]
    fn h5_opg_with_paper_witness_is_acyclic() {
        // Witness: S = T2 · T1 · T3, V = ∅ (no commit-pending tx in H5).
        let h = with_initial_tx(&paper::h5(), &regs());
        let order = vec![INIT_TX, TxId(2), TxId(1), TxId(3)];
        let g = build_opg(&h, &order, &HashSet::new());
        assert!(g.is_well_formed());
        assert!(g.is_acyclic(), "{}", g.to_dot());
        // rf edges: T2 -> T1 (x), T2 -> T1 (y)?? T1 reads x=1 from T2 and
        // y=2 from T2; T3 reads x=1 from T2.
        assert!(g
            .edges
            .get(&(TxId(2), TxId(1)))
            .unwrap()
            .contains(&EdgeLabel::Rf));
        assert!(g
            .edges
            .get(&(TxId(2), TxId(3)))
            .unwrap()
            .contains(&EdgeLabel::Rf));
    }

    #[test]
    fn h1_opg_cyclic_under_all_orders() {
        // H1 is not opaque: for every total order, the OPG has a cycle.
        let h = with_initial_tx(&paper::h1(), &regs());
        assert!(is_consistent(&h));
        let txs = h.txs();
        let mut perm = txs.clone();
        let mut found_acyclic = false;
        permutohedron_heap(&mut perm, &mut |order: &[TxId]| {
            let g = build_opg(&h, order, &HashSet::new());
            if g.is_well_formed() && g.is_acyclic() {
                found_acyclic = true;
            }
        });
        assert!(!found_acyclic, "H1 must have no acyclic OPG");
    }

    /// Minimal Heap's-algorithm permutation visitor for tests.
    fn permutohedron_heap<T: Clone, F: FnMut(&[T])>(items: &mut Vec<T>, f: &mut F) {
        fn heap<T: Clone, F: FnMut(&[T])>(k: usize, items: &mut Vec<T>, f: &mut F) {
            if k == 1 {
                f(items);
                return;
            }
            for i in 0..k {
                heap(k - 1, items, f);
                if k % 2 == 0 {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        let n = items.len();
        heap(n, items, f);
    }

    #[test]
    fn dirty_read_needs_visible_writer() {
        // T2 reads commit-pending T1's write: OPG is well-formed only when
        // T1 ∈ V.
        let h = with_initial_tx(&paper::h3(), &regs());
        let order = vec![INIT_TX, TxId(1), TxId(2)];
        let without_v = build_opg(&h, &order, &HashSet::new());
        assert!(!without_v.is_well_formed());
        let mut v = HashSet::new();
        v.insert(TxId(1));
        let with_v = build_opg(&h, &order, &v);
        assert!(with_v.is_well_formed());
        assert!(with_v.is_acyclic());
    }

    #[test]
    fn rw_edge_follows_order() {
        // T1 reads x=0 (initial), T2 writes x=1. With T1 ≪ T2: rw edge
        // T1 -> T2; with T2 ≪ T1 the rf-from-T0 + ww machinery must create
        // a cycle (T1 cannot read 0 after T2's write is visible).
        let h = HistoryBuilder::new()
            .read(1, "x", 0)
            .commit_ok(1)
            .write(2, "x", 1)
            .commit_ok(2)
            .build();
        let h = with_initial_tx(&h, &regs());
        let good = build_opg(&h, &[INIT_TX, TxId(1), TxId(2)], &HashSet::new());
        assert!(good.is_acyclic());
        assert!(good
            .edges
            .get(&(TxId(1), TxId(2)))
            .unwrap()
            .contains(&EdgeLabel::Rw));
        let bad = build_opg(&h, &[INIT_TX, TxId(2), TxId(1)], &HashSet::new());
        assert!(!bad.is_acyclic(), "{}", bad.to_dot());
    }

    #[test]
    fn topological_order_is_a_valid_order() {
        let h = with_initial_tx(&paper::h5(), &regs());
        let order = vec![INIT_TX, TxId(2), TxId(1), TxId(3)];
        let g = build_opg(&h, &order, &HashSet::new());
        let topo = g.topological_order().unwrap();
        assert_eq!(topo.len(), 4);
        // T2 must come before T1 and T3 (rf edges).
        let pos = |t: TxId| topo.iter().position(|&x| x == t).unwrap();
        assert!(pos(TxId(2)) < pos(TxId(1)));
        assert!(pos(TxId(2)) < pos(TxId(3)));
    }

    #[test]
    fn dot_export_mentions_labels() {
        let h = with_initial_tx(&paper::h3(), &regs());
        let mut v = HashSet::new();
        v.insert(TxId(1));
        let g = build_opg(&h, &[INIT_TX, TxId(1), TxId(2)], &v);
        let dot = g.to_dot();
        assert!(dot.contains("digraph OPG"));
        assert!(dot.contains("rf"));
        assert!(dot.contains("Lvis"));
    }
}
