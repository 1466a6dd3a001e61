//! The common STM interface.
//!
//! Every TM implementation in this crate operates on a fixed universe of `k`
//! integer registers (`Obj = {r0, …, r(k-1)}`, the paper's model of
//! Section 6), records its transactional events into a [`crate::recorder`]
//! history, and meters its *steps* — accesses to base shared objects — per
//! operation, which is exactly the quantity bounded by Theorem 3.

use crate::base::StepReport;
use crate::recorder::Recorder;

/// The error returned when a transaction is (or must be) aborted.
///
/// Mirrors the model: the TM answered some invocation with `A_i`. The caller
/// should retry with a fresh transaction (a retry is a *new* transaction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted")
    }
}

impl std::error::Error for Aborted {}

/// Result type of transactional operations.
pub type TxResult<T> = Result<T, Aborted>;

/// The typed error [`try_run_tx`] returns when a transaction exhausts its
/// attempt cap without committing — the retry loop's way of surfacing
/// livelock instead of spinning forever (or panicking, as [`run_tx`] does
/// for test ergonomics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Livelock {
    /// Attempts made (the cap).
    pub attempts: u64,
}

impl std::fmt::Display for Livelock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transaction did not commit after {} attempts (livelock?)",
            self.attempts
        )
    }
}

impl std::error::Error for Livelock {}

/// Static properties of a TM implementation — the three hypotheses of
/// Theorem 3 plus the intended correctness level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StmProperties {
    /// Forcefully aborts a transaction only upon a conflict with a
    /// concurrent transaction live at the time of the conflict.
    pub progressive: bool,
    /// Stores only the latest committed state of each object.
    pub single_version: bool,
    /// Read-only operations modify no base shared object.
    pub invisible_reads: bool,
    /// The implementation is designed to ensure opacity. `false` for the
    /// commit-time-validation TM (the Section 6 counterexample) and the
    /// snapshot-isolation TM (the SI-STM trade-off named in Section 1).
    pub opaque_by_design: bool,
    /// Committed transactions are guaranteed serializable. `false` only for
    /// the snapshot-isolation TM, whose write-skew anomaly commits outcomes
    /// no sequential execution allows. (The commit-time-validation TM keeps
    /// committed transactions serializable — it fails opacity only on the
    /// states observed by *live* transactions.)
    pub serializable_by_design: bool,
}

/// A live transaction handle.
///
/// Handles are single-threaded (each transaction is executed by one process,
/// Section 6.1); the containing [`Stm`] is shared across threads.
pub trait Tx {
    /// Reads register `obj`, or aborts the transaction.
    fn read(&mut self, obj: usize) -> TxResult<i64>;

    /// Writes `v` to register `obj`, or aborts the transaction.
    fn write(&mut self, obj: usize, v: i64) -> TxResult<()>;

    /// Requests commit (`tryC` … `C`/`A`).
    fn commit(self: Box<Self>) -> TxResult<()>;

    /// Voluntarily aborts (`tryA` … `A`).
    fn abort(self: Box<Self>);

    /// The per-operation step report accumulated so far.
    fn steps(&self) -> StepReport;

    /// The model-level transaction identifier.
    fn id(&self) -> u32;

    /// Resumes (`true`, the default) or stops (`false`) recording this
    /// transaction's `inv`/`ret` events for reads and writes. The
    /// typed-object layer stops them around one object operation, whose
    /// own `inv`/`ret` pair stands for the reads and writes beneath it.
    fn record_ops(&mut self, on: bool);
}

/// A software transactional memory over `k` integer registers.
pub trait Stm: Send + Sync {
    /// A short name ("tl2", "dstm", …) used in benchmark tables.
    fn name(&self) -> &'static str;

    /// The number of shared objects `k = |Obj|`.
    fn k(&self) -> usize;

    /// Starts a new transaction on behalf of `thread`.
    fn begin(&self, thread: usize) -> Box<dyn Tx + '_>;

    /// The history recorder (shared by all transactions of this TM).
    fn recorder(&self) -> &Recorder;

    /// The design-space position of this implementation.
    fn properties(&self) -> StmProperties;

    /// True if transactions of this TM *block* other transactions for their
    /// whole lifetime (the global-lock TM). Blocking TMs cannot be driven
    /// through interleaved schedules on a single OS thread.
    fn blocking(&self) -> bool;
}

/// Statistics from [`run_tx`] retry loops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Commits (always 1 on success).
    pub commits: u64,
    /// Aborted attempts before the successful one.
    pub aborts: u64,
}

/// The attempt cap of [`run_tx`], [`try_run_tx`] and their typed twins in
/// [`crate::objects`].
pub const MAX_ATTEMPTS: u64 = 1_000_000;

/// The retry loop behind [`try_run_tx`] and its typed twin: calls
/// `attempt` (one fresh transaction — begin, body, commit) until it
/// commits, at most `max_attempts` times. Each retry is a new transaction
/// with a fresh identifier, as the model requires. Returns [`Livelock`]
/// once the cap is exhausted.
pub fn retry<R>(
    max_attempts: u64,
    mut attempt: impl FnMut() -> TxResult<R>,
) -> Result<(R, RunStats), Livelock> {
    let mut stats = RunStats::default();
    for _ in 0..max_attempts {
        match attempt() {
            Ok(result) => {
                stats.commits += 1;
                return Ok((result, stats));
            }
            Err(Aborted) => stats.aborts += 1,
        }
    }
    Err(Livelock {
        attempts: max_attempts,
    })
}

/// Runs `body` as a transaction, retrying on abort up to [`MAX_ATTEMPTS`]
/// times. `body` returning `Err(Aborted)` signals that an operation
/// aborted the transaction mid-flight.
pub fn try_run_tx<R>(
    stm: &dyn Stm,
    thread: usize,
    mut body: impl FnMut(&mut dyn Tx) -> TxResult<R>,
) -> Result<(R, RunStats), Livelock> {
    retry(MAX_ATTEMPTS, || {
        let mut tx = stm.begin(thread);
        let result = body(tx.as_mut())?;
        tx.commit().map(|()| result)
    })
}

/// [`try_run_tx`], panicking on [`Livelock`] to surface it loudly in tests
/// and benchmarks.
pub fn run_tx<R>(
    stm: &dyn Stm,
    thread: usize,
    body: impl FnMut(&mut dyn Tx) -> TxResult<R>,
) -> (R, RunStats) {
    try_run_tx(stm, thread, body).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aborted_displays() {
        assert_eq!(Aborted.to_string(), "transaction aborted");
    }

    #[test]
    fn try_run_tx_reports_livelock_instead_of_panicking() {
        let stm = crate::tl2::Tl2Stm::new(1);
        let mut begun = 0;
        let out: Result<((), RunStats), Livelock> = retry(3, || {
            begun += 1;
            let _tx = stm.begin(0);
            Err(Aborted)
        });
        assert_eq!(out, Err(Livelock { attempts: 3 }));
        assert_eq!(begun, 3);
        assert_eq!(
            Livelock { attempts: 3 }.to_string(),
            "transaction did not commit after 3 attempts (livelock?)"
        );
    }

    #[test]
    fn try_run_tx_succeeds_and_counts_aborts() {
        let stm = crate::tl2::Tl2Stm::new(1);
        let mut failures = 2;
        let (v, stats) = try_run_tx(&stm, 0, |tx| {
            if failures > 0 {
                failures -= 1;
                return Err(Aborted);
            }
            tx.write(0, 5)?;
            tx.read(0)
        })
        .expect("commits within the cap");
        assert_eq!(v, 5);
        assert_eq!(
            stats,
            RunStats {
                commits: 1,
                aborts: 2
            }
        );
    }

    #[test]
    fn properties_struct_is_plain_data() {
        let p = StmProperties {
            progressive: true,
            single_version: true,
            invisible_reads: true,
            opaque_by_design: true,
            serializable_by_design: true,
        };
        assert_eq!(p, p);
    }
}
