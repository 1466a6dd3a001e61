//! The Theorem-3 experiment driver (experiments E8/E9).
//!
//! Theorem 3: every progressive, single-version TM with invisible reads that
//! ensures opacity needs Ω(k) steps per operation in the worst case, where
//! `k = |Obj|`. The bound is tight (DSTM is Θ(k)) and evaporates if any
//! hypothesis is dropped (TL2, visible reads, multi-version) or if opacity
//! is weakened (the non-opaque TM).
//!
//! Two deterministic scenarios, both driven by the interleaving explorer so
//! the numbers are exact step counts:
//!
//! * **solo scan** — one transaction reads all `k` registers with no
//!   interference. DSTM's i-th read validates i previous reads: max-per-read
//!   grows linearly in `k` while every other TM stays flat. This isolates
//!   the *validation burden* opacity imposes.
//! * **paper scenario** — the proof sketch of Section 6.2: `T1` reads the
//!   first half of the registers; `T2` writes Θ(k) registers (including one
//!   `T1` read) and commits; `T1` then reads one more register. The final
//!   read must detect the conflict (or return consistent data), and with
//!   invisible reads + single version + progressiveness that detection
//!   costs Ω(k) — measured here as the step count of `T1`'s last read.

use crate::sched::{execute, ExecOutcome};
use crate::script::{Program, TxScript};
use tm_stm::{OpKind, Stm, StmConfig, TmRegistry};

/// Measurements for one TM at one value of `k`.
#[derive(Clone, Debug)]
pub struct ComplexityRow {
    /// TM name.
    pub stm: &'static str,
    /// Number of shared objects.
    pub k: usize,
    /// Maximum steps across `T1`'s read operations.
    pub max_read_steps: u64,
    /// Mean steps across `T1`'s read operations.
    pub mean_read_steps: f64,
    /// Total steps `T1` spent in read operations.
    pub total_read_steps: u64,
    /// Steps of `T1`'s final read (the conflict-detecting one in the paper
    /// scenario).
    pub last_read_steps: u64,
    /// Whether `T1` committed.
    pub t1_committed: bool,
}

fn summarize(stm_name: &'static str, k: usize, out: &ExecOutcome) -> ComplexityRow {
    let t1 = &out.txs[0];
    let reads: Vec<u64> = t1
        .steps
        .per_op
        .iter()
        .filter(|(kind, _)| *kind == OpKind::Read)
        .map(|(_, s)| *s)
        .collect();
    let total: u64 = reads.iter().sum();
    ComplexityRow {
        stm: stm_name,
        k,
        max_read_steps: reads.iter().copied().max().unwrap_or(0),
        mean_read_steps: if reads.is_empty() {
            0.0
        } else {
            total as f64 / reads.len() as f64
        },
        total_read_steps: total,
        last_read_steps: reads.last().copied().unwrap_or(0),
        t1_committed: t1.committed,
    }
}

/// Scenario 1 (solo scan): a single transaction reads all `k` registers and
/// commits, alone.
pub fn solo_scan(stm: &dyn Stm, k: usize) -> ComplexityRow {
    let program = Program::new(vec![TxScript::reader(0..k)]);
    let schedule: Vec<usize> = vec![0; k + 1];
    let name = stm.name();
    let out = execute(stm, &program, &schedule);
    summarize(name, k, &out)
}

/// Scenario 2 (paper scenario, Section 6.2's proof sketch): `T1` reads
/// registers `0..k/2`; `T2` writes registers `k/2..k` — *disjoint* from
/// `T1`'s read set — and commits; `T1` then invokes one more read, of
/// register `k-1` (modified by `T2`, not yet read by `T1`).
///
/// Being single-version, the TM can only return `T2`'s value for that read,
/// so `T1`'s process must determine whether *any* object it read earlier
/// was updated by `T2`: if none was (the case here), progressiveness forces
/// the TM to let `T1` proceed and eventually commit. With invisible reads
/// `T2` could not have told `T1` anything, so `T1` scans its whole read set
/// — the step count of the final read is the paper's Ω(k) quantity, paid
/// even though the execution is conflict-free on the read set.
pub fn paper_scenario(stm: &dyn Stm, k: usize) -> ComplexityRow {
    assert!(k >= 4, "scenario needs at least four registers");
    let half = k / 2;
    let program = Program::new(vec![
        TxScript::reader((0..half).chain([k - 1])),
        TxScript::writer(half..k, 7),
    ]);
    // T1 performs its first `half` reads; T2 runs fully (k/2 writes +
    // commit); T1 performs its final read, then tries to commit.
    let mut schedule: Vec<usize> = vec![0; half];
    schedule.extend(std::iter::repeat(1).take(k - half + 1)); // writes + commit
    schedule.push(0); // the Ω(k)-validation read
    schedule.push(0); // T1 commit attempt
    let name = stm.name();
    let out = execute(stm, &program, &schedule);
    summarize(name, k, &out)
}

/// Scenario 3 (read-set fraction ablation): like [`paper_scenario`] but
/// `T1`'s read set before the final read has size `m` (not `k/2`): `T1`
/// reads registers `0..m`; `T2` writes `m..k` and commits; `T1` reads
/// register `k-1`.
///
/// Theorem 3 is stated in `k = |Obj|` because an adversary can always force
/// read sets of size Θ(k); mechanistically the cost of the final read is
/// one validation step per read-set *entry*. Sweeping `m` at fixed `k`
/// shows the DSTM/ASTM cost tracking `m` exactly, with `k` otherwise
/// irrelevant — the ablation behind the bound.
pub fn fraction_scenario(stm: &dyn Stm, k: usize, m: usize) -> ComplexityRow {
    assert!(m >= 1 && m < k, "need 1 <= m < k");
    let program = Program::new(vec![
        TxScript::reader((0..m).chain([k - 1])),
        TxScript::writer(m..k, 7),
    ]);
    let mut schedule: Vec<usize> = vec![0; m];
    schedule.extend(std::iter::repeat(1).take(k - m + 1));
    schedule.push(0); // the validating read
    schedule.push(0); // T1 commit
    let name = stm.name();
    let out = execute(stm, &program, &schedule);
    summarize(name, k, &out)
}

/// Runs a scenario over every TM in the suite for each `k` in `ks`.
///
/// `multi_threaded` scenarios skip blocking TMs (the global lock), which
/// cannot be interleaved on one OS thread.
pub fn sweep(
    ks: &[usize],
    multi_threaded: bool,
    scenario: impl Fn(&dyn Stm, usize) -> ComplexityRow,
) -> Vec<ComplexityRow> {
    let suite = TmRegistry::suite();
    let mut rows = Vec::new();
    for &k in ks {
        // Recording off: the experiment measures steps, not histories.
        let cfg = StmConfig::new(k).recording(false);
        for spec in suite.specs() {
            if !(multi_threaded && spec.blocking) {
                rows.push(scenario(spec.build(&cfg).as_ref(), k));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_stm::{AstmStm, DstmStm, MvStm, NonOpaqueStm, Tl2Stm, VisibleStm};

    #[test]
    fn solo_scan_separates_dstm_from_tl2() {
        let k = 64;
        let dstm = DstmStm::new(k);
        let tl2 = Tl2Stm::new(k);
        let d = solo_scan(&dstm, k);
        let t = solo_scan(&tl2, k);
        assert!(
            d.max_read_steps >= k as u64,
            "DSTM max read must be Ω(k): {d:?}"
        );
        assert_eq!(t.max_read_steps, 3, "TL2 reads are O(1): {t:?}");
        // Per-transaction totals: Θ(k²) vs Θ(k).
        assert!(d.total_read_steps as usize >= k * k / 2, "{d:?}");
        assert!(t.total_read_steps as usize <= 3 * k, "{t:?}");
    }

    #[test]
    fn paper_scenario_shows_the_lower_bound() {
        let k = 64;
        // DSTM: the final read scans the whole (clean) read set => Ω(k) —
        // and, being progressive, T1 then commits.
        let dstm = DstmStm::new(k);
        let d = paper_scenario(&dstm, k);
        assert!(
            d.last_read_steps >= (k / 2) as u64,
            "DSTM validation must cost Ω(k): {d:?}"
        );
        assert!(
            d.t1_committed,
            "no read-set conflict: progressive TM commits T1"
        );

        // ASTM (lazy acquire) sits at the same design point: same Ω(k).
        let astm = AstmStm::new(k);
        let a = paper_scenario(&astm, k);
        assert!(
            a.last_read_steps >= (k / 2) as u64,
            "ASTM validation must cost Ω(k): {a:?}"
        );
        assert!(a.t1_committed, "astm: {a:?}");

        // TL2 pays O(1) — but forcefully aborts T1 although the conflicting
        // writer already committed (it is not progressive, Section 6.2).
        let tl2 = Tl2Stm::new(k);
        let t = paper_scenario(&tl2, k);
        assert!(t.last_read_steps <= 3, "TL2: {t:?}");
        assert!(
            !t.t1_committed,
            "TL2's rv check aborts T1 without a live conflict"
        );

        // Visible reads: O(1), commits.
        let vis = VisibleStm::new(k);
        let v = paper_scenario(&vis, k);
        assert!(v.last_read_steps <= 6, "visible: {v:?}");
        assert!(v.t1_committed, "visible: {v:?}");

        // Multi-version: O(log versions), reads the old snapshot, commits.
        let mv = MvStm::new(k);
        let m = paper_scenario(&mv, k);
        assert!(m.last_read_steps <= 6, "mvstm: {m:?}");
        assert!(
            m.t1_committed,
            "read-only snapshot transactions never abort"
        );

        // Non-opaque: O(1) with all three Theorem-3 hypotheses — possible
        // only because it gave up opacity.
        let non = NonOpaqueStm::new(k);
        let n = paper_scenario(&non, k);
        assert!(n.last_read_steps <= 3, "nonopaque: {n:?}");
        assert!(n.t1_committed, "nonopaque: {n:?}");
    }

    #[test]
    fn dstm_scaling_is_linear_in_k() {
        // The final read's cost is affine in k: steps ≈ c + k/2 (one
        // validation step per read-set entry, read set = k/2). Check the
        // slope over a 4x range of k.
        let m16 = paper_scenario(&DstmStm::new(16), 16).last_read_steps as f64;
        let m64 = paper_scenario(&DstmStm::new(64), 64).last_read_steps as f64;
        let slope = (m64 - m16) / (64.0 - 16.0);
        assert!(
            (0.4..0.7).contains(&slope),
            "expected slope ~0.5 steps per object, got {slope} ({m16} -> {m64})"
        );
        // And TL2's cost does not grow at all.
        let t16 = paper_scenario(&Tl2Stm::new(16), 16).last_read_steps;
        let t64 = paper_scenario(&Tl2Stm::new(64), 64).last_read_steps;
        assert_eq!(t16, t64);
    }

    #[test]
    fn validation_cost_tracks_read_set_size_not_k() {
        // Fixed k = 256; sweep the read-set size m. DSTM's final read must
        // grow linearly in m while TL2 stays flat — and DSTM at (k=256,
        // m=16) must cost the same as at (k=64, m=16): k itself is inert.
        let k = 256;
        let d16 = fraction_scenario(&DstmStm::new(k), k, 16).last_read_steps;
        let d64 = fraction_scenario(&DstmStm::new(k), k, 64).last_read_steps;
        let d128 = fraction_scenario(&DstmStm::new(k), k, 128).last_read_steps;
        assert!(d16 < d64 && d64 < d128, "{d16} {d64} {d128}");
        let slope = (d128 - d16) as f64 / (128.0 - 16.0);
        assert!(
            (0.8..1.2).contains(&slope),
            "one step per read-set entry: {slope}"
        );
        let d16_smallk = fraction_scenario(&DstmStm::new(64), 64, 16).last_read_steps;
        assert_eq!(d16, d16_smallk, "k itself must be inert");
        let t16 = fraction_scenario(&Tl2Stm::new(k), k, 16).last_read_steps;
        let t128 = fraction_scenario(&Tl2Stm::new(k), k, 128).last_read_steps;
        assert_eq!(t16, t128, "TL2 stays flat in m");
    }

    #[test]
    fn sweep_covers_all_stms() {
        let rows = sweep(&[4, 8], false, solo_scan);
        assert_eq!(rows.len(), 18);
        assert!(rows.iter().any(|r| r.stm == "dstm" && r.k == 8));
        assert!(rows.iter().any(|r| r.stm == "sistm" && r.k == 8));
        assert!(rows.iter().any(|r| r.stm == "tpl" && r.k == 8));
        // Multi-threaded sweeps skip the blocking global-lock TM.
        let rows = sweep(&[4], true, paper_scenario);
        assert_eq!(rows.len(), 8);
        assert!(!rows.iter().any(|r| r.stm == "glock"));
    }
}
