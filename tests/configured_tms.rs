//! End-to-end exercise of the configurable TM construction API through the
//! facade crate: `StmConfig`-built TMs, the `TmRegistry`'s fallible name
//! lookup, and recorded histories judged by the real opacity checker.

use opacity_tm::model::SpecRegistry;
use opacity_tm::opacity::opacity::is_opaque;
use opacity_tm::stm::{
    run_tx, try_run_tx, Aborted, ContentionManager, Livelock, RetryPolicy, Stm, StmConfig, Tl2Stm,
    TmRegistry,
};

/// Recorded histories of registry-built clocked TMs stay opaque, checked
/// by the actual Definition-1 decision procedure.
#[test]
fn recorded_histories_of_registry_tms_are_opaque() {
    let specs = SpecRegistry::registers();
    let reg = TmRegistry::suite();
    for name in ["tl2", "mvstm"] {
        let stm = reg.build(name, 3).expect("suite TM");
        run_tx(stm.as_ref(), 0, |tx| {
            tx.write(0, 1)?;
            tx.write(1, 2)
        });
        run_tx(stm.as_ref(), 1, |tx| {
            let a = tx.read(0)?;
            tx.write(2, a + 10)
        });
        let ((a, b), _) = run_tx(stm.as_ref(), 0, |tx| Ok((tx.read(1)?, tx.read(2)?)));
        assert_eq!((a, b), (2, 11), "{name}");
        let h = stm.recorder().history();
        assert!(opacity_tm::model::is_well_formed(&h), "{name}: {h}");
        let report = is_opaque(&h, &specs).expect("registers");
        assert!(report.opaque, "{name}: recorded history must stay opaque");
    }
}

/// The full configuration surface drives one TM end to end: initial
/// values, a non-default contention manager, recording off, and
/// a typed `Livelock` from the bounded retry policy.
#[test]
fn full_config_surface_through_the_facade() {
    let cfg = StmConfig::new(2)
        .contention_manager(ContentionManager::Greedy)
        .initial_values(vec![40, 2])
        .recording(false)
        .retry(RetryPolicy::bounded(5).with_backoff(2, 16));
    let stm = Tl2Stm::with_config(&cfg);
    let (sum, _) = run_tx(&stm, 0, |tx| Ok(tx.read(0)? + tx.read(1)?));
    assert_eq!(sum, 42, "initial values must be visible");
    assert!(stm.recorder().is_empty(), "recording off allocates nothing");

    // A body that never succeeds exhausts the 5-attempt cap as a typed
    // error instead of a panic.
    let out = try_run_tx(&stm, 0, |_tx| -> Result<(), Aborted> { Err(Aborted) });
    assert_eq!(out.unwrap_err(), Livelock { attempts: 5 });
}

/// Registry lookups are fallible end-to-end: a typo yields the menu of
/// valid names, not a panic, through the facade.
#[test]
fn registry_lookup_failures_list_the_suite() {
    let reg = TmRegistry::suite();
    let err = reg.build("tl2x", 2).err().expect("typo is an error");
    let msg = err.to_string();
    for name in reg.names() {
        assert!(msg.contains(name), "menu missing {name}: {msg}");
    }
}
