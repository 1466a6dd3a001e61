//! End-to-end exercise of the configurable TM construction API through the
//! facade crate: `StmConfig`-built TMs, the `TmRegistry`'s fallible name
//! lookup, and recorded histories judged by the real opacity checker.

use opacity_tm::model::SpecRegistry;
use opacity_tm::opacity::opacity::is_opaque;
use opacity_tm::stm::{retry, run_tx, Aborted, Livelock, Stm, StmConfig, Tl2Stm, TmRegistry};

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

/// The configuration surface drives one TM end to end: registers start
/// at 0, recording off allocates nothing, and a body that never commits
/// exhausts the capped retry loop as a typed `Livelock`.
#[test]
fn full_config_surface_through_the_facade() {
    let stm = Tl2Stm::with_config(&StmConfig::new(2).recording(false));
    let (sum, _) = run_tx(&stm, 0, |tx| {
        tx.write(1, 42)?;
        Ok(tx.read(0)? + tx.read(1)?)
    });
    assert_eq!(sum, 42, "registers start at 0");
    assert!(stm.recorder().is_empty(), "recording off allocates nothing");

    let mut attempts = 0;
    let out = retry(5, || -> Result<(), Aborted> {
        attempts += 1;
        let mut tx = stm.begin(0);
        tx.write(0, attempts)?;
        Err(Aborted)
    });
    assert_eq!(out.unwrap_err(), Livelock { attempts: 5 });
    assert_eq!(attempts, 5);
    let (v, _) = run_tx(&stm, 0, |tx| tx.read(0));
    assert_eq!(v, 0, "no abandoned attempt committed");
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
