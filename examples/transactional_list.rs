//! A transactional sorted linked-list set — the dynamic data structure that
//! motivated DSTM — built on the register STMs of this repository.
//!
//! Layout over the TM's registers: keys `0..N` map to nodes; register `i`
//! holds the `next` pointer of node `i` (node `k + 1` represents key `k`,
//! node `0` is the head sentinel). `-1` marks end-of-list, `-2` a detached
//! node. Every operation is one transaction traversing the list through
//! transactional reads, so a concurrent writer anywhere along the path
//! forces (on an opaque TM) a consistent outcome.
//!
//! The demo hammers the set from several threads on every opaque TM in the
//! suite and validates the *global* invariant
//! `final size == successful inserts − successful removes`, plus structural
//! soundness (sorted, duplicate-free). A small recorded run is fed to the
//! opacity checker.
//!
//! ```sh
//! cargo run --release --example transactional_list
//! ```

use opacity_tm::model::SpecRegistry;
use opacity_tm::opacity::opacity::is_opaque;
use opacity_tm::stm::{run_tx, Aborted, Stm, Tx};

const NIL: i64 = -1;
const DETACHED: i64 = -2;

/// Number of distinct keys; the TM needs `KEYS + 1` registers.
const KEYS: usize = 16;

fn node_of(key: usize) -> usize {
    key + 1
}

fn key_of(node: i64) -> usize {
    node as usize - 1
}

/// Finds the insertion point for `key`: returns `(prev_node, cur_node)`.
fn locate(tx: &mut dyn Tx, key: usize) -> Result<(usize, i64), Aborted> {
    let mut prev = 0usize; // head sentinel
    let mut cur = tx.read(0)?;
    while cur != NIL && key_of(cur) < key {
        prev = cur as usize;
        cur = tx.read(cur as usize)?;
    }
    Ok((prev, cur))
}

fn insert(tx: &mut dyn Tx, key: usize) -> Result<bool, Aborted> {
    let (prev, cur) = locate(tx, key)?;
    if cur != NIL && key_of(cur) == key {
        return Ok(false); // already present
    }
    tx.write(node_of(key), cur)?;
    tx.write(prev, node_of(key) as i64)?;
    Ok(true)
}

fn remove(tx: &mut dyn Tx, key: usize) -> Result<bool, Aborted> {
    let (prev, cur) = locate(tx, key)?;
    if cur == NIL || key_of(cur) != key {
        return Ok(false);
    }
    let succ = tx.read(cur as usize)?;
    tx.write(prev, succ)?;
    tx.write(cur as usize, DETACHED)?;
    Ok(true)
}

fn contains(tx: &mut dyn Tx, key: usize) -> Result<bool, Aborted> {
    let (_, cur) = locate(tx, key)?;
    Ok(cur != NIL && key_of(cur) == key)
}

/// Reads the whole list (sorted key sequence) in one transaction.
fn snapshot(tx: &mut dyn Tx) -> Result<Vec<usize>, Aborted> {
    let mut out = Vec::new();
    let mut cur = tx.read(0)?;
    while cur != NIL {
        out.push(key_of(cur));
        cur = tx.read(cur as usize)?;
    }
    Ok(out)
}

fn init_list(stm: &dyn Stm) {
    run_tx(stm, 0, |tx| {
        tx.write(0, NIL)?;
        for k in 0..KEYS {
            tx.write(node_of(k), DETACHED)?;
        }
        Ok(())
    });
}

fn main() {
    let specs = SpecRegistry::registers();

    println!("== concurrency torture: 3 threads × 120 ops per TM ==");
    let suite = opacity_tm::stm::TmRegistry::suite();
    let quiet = opacity_tm::stm::StmConfig::new(KEYS + 1).recording(false);
    for spec in suite
        .specs()
        .iter()
        .filter(|s| s.properties.opaque_by_design)
    {
        let stm = spec.build(&quiet);
        let stm = stm.as_ref();
        init_list(stm);
        let net = std::sync::atomic::AtomicI64::new(0);
        std::thread::scope(|scope| {
            for t in 0..3 {
                let net = &net;
                scope.spawn(move || {
                    let mut local = 0i64;
                    for i in 0..120 {
                        let key = (i * 7 + t * 5) % KEYS;
                        if i % 3 == 0 {
                            let (removed, _) = run_tx(stm, t, |tx| remove(tx, key));
                            if removed {
                                local -= 1;
                            }
                        } else {
                            let (inserted, _) = run_tx(stm, t, |tx| insert(tx, key));
                            if inserted {
                                local += 1;
                            }
                        }
                    }
                    net.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        let (final_list, _) = run_tx(stm, 0, |tx| snapshot(tx));
        // Structural invariants.
        assert!(
            final_list.windows(2).all(|w| w[0] < w[1]),
            "sorted, duplicate-free"
        );
        // Global counting invariant (serializability of committed txs).
        let net = net.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(
            final_list.len() as i64,
            net,
            "{}: size must equal net successful inserts",
            stm.name()
        );
        println!(
            "  {:<8} final set (|S| = {:>2} = net inserts): {:?}",
            stm.name(),
            final_list.len(),
            final_list
        );
    }

    println!("\n== recorded mini-run on TL2, checked for opacity ==");
    let stm = opacity_tm::stm::Tl2Stm::new(KEYS + 1);
    init_list(&stm); // recorded too, so every read value has a writer
    run_tx(&stm, 0, |tx| insert(tx, 3));
    run_tx(&stm, 0, |tx| insert(tx, 1));
    run_tx(&stm, 1, |tx| contains(tx, 3));
    run_tx(&stm, 1, |tx| remove(tx, 3));
    let (list, _) = run_tx(&stm, 0, |tx| snapshot(tx));
    println!("  final list: {list:?}");
    assert_eq!(list, vec![1]);
    let h = stm.recorder().history();
    let report = is_opaque(&h, &specs).expect("well-formed recorded history");
    println!(
        "  recorded history ({} events) opaque? {}",
        h.len(),
        report.opaque
    );
    assert!(report.opaque);
    println!("\nAll invariants held on every opaque TM.");
}
