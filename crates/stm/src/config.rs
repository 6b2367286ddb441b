//! Runtime configuration: backend selection, waiting policy and tuning knobs.

use std::fmt;
use std::time::Duration;

/// Which conflict-detection protocol the runtime uses.
///
/// Both backends acquire write locks eagerly (so writes are *visible*, as
/// Shrink requires), buffer written values, and install them at commit under
/// a TL2-style global clock. They differ in how conflicts are handled, which
/// is what produces the paper's contrasting throughput curves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// SwissTM-like: readers may read *through* a write lock until the owner
    /// starts committing; write/write conflicts go through a two-phase
    /// contention manager (timid below a work threshold, greedy above, with
    /// remote kill of the lighter transaction).
    #[default]
    Swiss,
    /// TinySTM-like (version 0.9.5 semantics): encounter-time locking with
    /// bounded busy-waiting on locked stripes and suicide on write/write
    /// conflicts. Degrades steeply when overloaded — the behaviour Figures
    /// 8, 10 and 11 of the paper rely on.
    Tiny,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::Swiss => f.write_str("swiss"),
            BackendKind::Tiny => f.write_str("tiny"),
        }
    }
}

/// What a thread does while it waits (for a committing stripe, a kill to
/// take effect, or between retries).
///
/// The paper evaluates SwissTM under both policies: Figure 5 uses
/// *preemptive* waiting, the appendix's Figure 9 uses *busy* waiting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum WaitPolicy {
    /// Yield the processor while waiting (`std::thread::yield_now`), so
    /// waiting threads release their core in overloaded systems.
    #[default]
    Preemptive,
    /// Spin without yielding. Threads that wait do not release the
    /// processor, which wastes whole scheduling quanta once the system is
    /// overloaded.
    Busy,
    /// Spin briefly, yield briefly, then *sleep* in escalating naps (and cap
    /// the busy portion of retry backoff). Goes beyond the paper's two
    /// policies: where `Preemptive` still keeps every waiter runnable —
    /// re-entering the scheduler's queue just to poll again — `Parked`
    /// waiters leave the run queue entirely, which is what lets serialized
    /// overloaded workloads stop burning the cores the lock holder needs.
    ///
    /// Since the epoch-futex work (DESIGN.md §8.5) the nap units of a
    /// bounded conflict wait park on the stripe owner's *attempt epoch*
    /// rather than sleeping blind: the waiter is woken the moment the owner
    /// commits or aborts, instead of oversleeping a fixed nap.
    Parked,
}

impl fmt::Display for WaitPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitPolicy::Preemptive => f.write_str("preemptive"),
            WaitPolicy::Busy => f.write_str("busy"),
            WaitPolicy::Parked => f.write_str("parked"),
        }
    }
}

/// What a transaction is declared to be: a full read-write transaction, or
/// a lock-free read-only one.
///
/// Read-only transactions (started via
/// [`TmRuntime::read_only`](crate::TmRuntime::read_only)) snapshot the
/// global clock once, read versioned cells through the seqlock fast path
/// and revalidate per read. They acquire no orecs, take no commit ticket,
/// register on no waitlist, and are invisible to the schedulers: hooks see
/// the kind in [`SchedCtx`](crate::sched::SchedCtx) and skip conflict
/// bookkeeping for [`TxnKind::ReadOnly`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum TxnKind {
    /// A normal transaction: may write, acquires orec stripes eagerly and
    /// commits under the global clock.
    #[default]
    ReadWrite,
    /// A declared read-only transaction: never locks, never aborts a
    /// writer, restarts itself on snapshot invalidation.
    ReadOnly,
}

impl TxnKind {
    /// `true` for [`TxnKind::ReadOnly`].
    pub fn is_read_only(self) -> bool {
        matches!(self, TxnKind::ReadOnly)
    }
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnKind::ReadWrite => f.write_str("read-write"),
            TxnKind::ReadOnly => f.write_str("read-only"),
        }
    }
}

/// How write/write conflicts are resolved — the *contention manager*.
///
/// The paper contrasts schedulers with classic CMs (Polite, Karma, Greedy)
/// that "play their role only after conflicts have been detected"; this
/// enum makes those policies selectable so the contrast can be measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CmPolicy {
    /// Use the backend's native policy: two-phase for
    /// [`BackendKind::Swiss`], suicide-after-spin for [`BackendKind::Tiny`].
    #[default]
    BackendDefault,
    /// SwissTM's two-phase manager: abort self while young (below the timid
    /// threshold), then compare work done and remotely kill the lighter
    /// transaction.
    TwoPhase,
    /// Abort self immediately after a bounded busy-wait (TinySTM style).
    Suicide,
    /// Polite (Scherer & Scott): exponentially backed-off re-attempts of
    /// the acquisition, aborting self only after the patience runs out.
    Polite,
    /// Karma-flavoured: work done (accesses) is priority; the lighter
    /// transaction loses, remotely killed if it holds the lock.
    Karma,
}

impl fmt::Display for CmPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmPolicy::BackendDefault => "backend-default",
            CmPolicy::TwoPhase => "two-phase",
            CmPolicy::Suicide => "suicide",
            CmPolicy::Polite => "polite",
            CmPolicy::Karma => "karma",
        };
        f.write_str(s)
    }
}

/// Tuning knobs of a [`TmRuntime`](crate::TmRuntime).
///
/// Construct via [`TmRuntime::builder`](crate::TmRuntime::builder); the
/// defaults reproduce the paper's setup.
#[derive(Clone, Debug)]
pub struct TmConfig {
    /// Conflict-detection protocol.
    pub backend: BackendKind,
    /// Waiting behaviour.
    pub wait_policy: WaitPolicy,
    /// Stripes in the ownership-record table (rounded to a power of two).
    pub orec_table_size: usize,
    /// Write/write conflict resolution policy.
    pub cm_policy: CmPolicy,
    /// Longest one parked [`Tx::retry`](crate::Tx::retry) round sleeps
    /// before revalidating its read snapshot. The wake normally comes from
    /// a committer writing a watched stripe (DESIGN.md §9); the deadline is
    /// the safety net against waits nothing will ever satisfy (an empty
    /// read set, a wait-bucket alias race) and what bounds
    /// [`run_budgeted`](crate::TmRuntime::run_budgeted) on a permanently
    /// blocked transaction.
    ///
    /// # Round semantics, thread-parked vs. async
    ///
    /// This is the authoritative description of how `retry_wait` interacts
    /// with the two blocking modes and with
    /// [`run_with_deadline`](crate::TmRuntime::run_with_deadline):
    ///
    /// * **Thread-parked round** ([`TmRuntime::run`](crate::TmRuntime::run)
    ///   and friends): each retry round parks the OS thread for at most
    ///   `retry_wait`, then re-runs the body regardless — a bounded
    ///   sleep-revalidate loop. Under `run_with_deadline` every round's
    ///   bound is *clamped per round* to `min(now + retry_wait, deadline)`,
    ///   so a 30 s `retry_wait` never overshoots a 50 ms deadline; once the
    ///   deadline passes, a round that timed out with nothing new returns
    ///   [`TmError::RetryTimeout`](crate::TmError::RetryTimeout).
    /// * **Async round**
    ///   ([`atomically_async`](crate::future::atomically_async)): a
    ///   suspended [`TxFuture`](crate::future::TxFuture) consumes no thread,
    ///   so there is nothing to time out — `retry_wait` is **not consulted**.
    ///   The future re-polls only when a commit bumps a watched stripe (or
    ///   when its executor polls it spuriously, which just revalidates and
    ///   re-suspends). The safety-net role `retry_wait` plays for threads is
    ///   unnecessary there: bucket aliasing can only cause spurious wakes,
    ///   never missed ones, and a retry with an *empty* read set — the one
    ///   wait no commit can ever satisfy — pends forever, which is the
    ///   documented contract for that body bug. Callers who want a bounded
    ///   async wait should race the future against their executor's timer.
    pub retry_wait: Duration,
}

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig {
            backend: BackendKind::Swiss,
            wait_policy: WaitPolicy::Preemptive,
            orec_table_size: 1 << 16,
            cm_policy: CmPolicy::BackendDefault,
            retry_wait: Duration::from_millis(10),
        }
    }
}

impl TmConfig {
    /// The conflict policy actually in force, with backend defaults
    /// resolved.
    pub fn effective_cm(&self) -> CmPolicy {
        match self.cm_policy {
            CmPolicy::BackendDefault => match self.backend {
                BackendKind::Swiss => CmPolicy::TwoPhase,
                BackendKind::Tiny => CmPolicy::Suicide,
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TmConfig::default();
        assert_eq!(c.backend, BackendKind::Swiss);
        assert_eq!(c.wait_policy, WaitPolicy::Preemptive);
        assert!(c.orec_table_size.is_power_of_two());
        assert!(c.retry_wait > Duration::ZERO);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(BackendKind::Swiss.to_string(), "swiss");
        assert_eq!(BackendKind::Tiny.to_string(), "tiny");
        assert_eq!(WaitPolicy::Preemptive.to_string(), "preemptive");
        assert_eq!(WaitPolicy::Busy.to_string(), "busy");
        assert_eq!(WaitPolicy::Parked.to_string(), "parked");
        assert_eq!(CmPolicy::Karma.to_string(), "karma");
        assert_eq!(CmPolicy::default().to_string(), "backend-default");
        assert_eq!(TxnKind::ReadWrite.to_string(), "read-write");
        assert_eq!(TxnKind::ReadOnly.to_string(), "read-only");
    }

    #[test]
    fn txn_kind_defaults_to_read_write() {
        assert_eq!(TxnKind::default(), TxnKind::ReadWrite);
        assert!(!TxnKind::ReadWrite.is_read_only());
        assert!(TxnKind::ReadOnly.is_read_only());
    }

    #[test]
    fn backend_defaults_resolve_to_native_policies() {
        let mut c = TmConfig::default();
        assert_eq!(c.effective_cm(), CmPolicy::TwoPhase);
        c.backend = BackendKind::Tiny;
        assert_eq!(c.effective_cm(), CmPolicy::Suicide);
        c.cm_policy = CmPolicy::Polite;
        assert_eq!(c.effective_cm(), CmPolicy::Polite);
    }
}
