//! Test-side decomposition of a history into independent components,
//! written without the search engine's incremental bookkeeping so the
//! differential tests can compare against it.

use std::collections::HashMap;

use tm_model::{Event, History, ObjId, RealTimeOrder, TxId};

/// The components of `h` under opacity, in order of their first
/// transaction: a union-find over the transactions, joined by a completed
/// operation of each on the same object and by real-time precedence.
pub fn components(h: &History) -> Vec<Vec<TxId>> {
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let txs = h.txs();
    let index: HashMap<TxId, usize> = txs.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut parent: Vec<usize> = (0..txs.len()).collect();
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (root(parent, a), root(parent, b));
        parent[ra] = rb;
    }
    let mut toucher: HashMap<ObjId, usize> = HashMap::new();
    for e in h.events() {
        if let Event::Ret { tx, obj, .. } = e {
            let t = index[tx];
            let first = *toucher.entry(obj.clone()).or_insert(t);
            union(&mut parent, first, t);
        }
    }
    for (a, b) in RealTimeOrder::of(h).pairs() {
        union(&mut parent, index[&a], index[&b]);
    }
    let mut classes: Vec<(usize, Vec<TxId>)> = Vec::new();
    for (i, &t) in txs.iter().enumerate() {
        let r = root(&mut parent, i);
        match classes.iter_mut().find(|(cr, _)| *cr == r) {
            Some((_, members)) => members.push(t),
            None => classes.push((r, vec![t])),
        }
    }
    classes.into_iter().map(|(_, members)| members).collect()
}

/// `H|K`: the events of the transactions in `part`, in `h`'s order.
pub fn projection(h: &History, part: &[TxId]) -> History {
    let mut out = History::new();
    for e in h.events().iter().filter(|e| part.contains(&e.tx())) {
        out.push(e.clone());
    }
    out
}
