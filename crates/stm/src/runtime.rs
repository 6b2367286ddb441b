//! The transactional-memory runtime: configuration, thread registration and
//! the retry loop.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backoff::{pause, retry_backoff};
use crate::clock::GlobalClock;
use crate::config::{BackendKind, CmPolicy, TmConfig, TxnKind, WaitPolicy};
use crate::error::{AbortReason, TmError, TxResult};
use crate::faults::FaultSite;
use crate::orec::OrecTable;
use crate::sched::{NoopScheduler, SchedCtx, TxScheduler};
use crate::stats::{ThreadStats, TmStats};
use crate::thread::{ThreadCtx, ThreadId, ThreadRegistry};
use crate::txn::{ReadTx, Tx};
use crate::visible::VisibleWrites;
use crate::waitlist::{RetryStats, StripeWaitlist};

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

/// A thread's registration with one runtime. Dropping it — which happens in
/// the thread-local destructor when the OS thread exits — retires the
/// context: the thread's attempt epoch is marked departed and advanced one
/// final time, so a scheduler parked on it wakes instead of stalling its
/// full wait bound against a counter that will never move again.
struct Registration(Arc<ThreadCtx>);

impl Drop for Registration {
    fn drop(&mut self) {
        self.0.retire();
    }
}

thread_local! {
    /// Per-OS-thread map from runtime id to this thread's context in that
    /// runtime. A thread registers lazily on its first transaction.
    static THREAD_CTXS: RefCell<HashMap<u64, Registration>> = RefCell::new(HashMap::new());
}

pub(crate) struct RuntimeInner {
    pub(crate) id: u64,
    pub(crate) config: TmConfig,
    pub(crate) clock: GlobalClock,
    pub(crate) orecs: OrecTable,
    pub(crate) scheduler: Arc<dyn TxScheduler>,
    pub(crate) registry: ThreadRegistry,
    /// Per-stripe commit wait buckets: where `Tx::retry` parks and what the
    /// commit path wakes (DESIGN.md §9).
    pub(crate) retry_waits: StripeWaitlist,
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        // The last handle is gone: remove the process-global registry entry
        // so `registry::lookup` stops resolving this id. (The entry holds a
        // Weak, so lookups already failed to upgrade; this reclaims the
        // slot.)
        crate::registry::deregister_runtime(self.id);
    }
}

impl RuntimeInner {
    /// The scheduler hook context of `thread`'s current `kind` attempt.
    #[inline]
    pub(crate) fn sched_ctx(&self, thread: ThreadId, kind: TxnKind) -> SchedCtx<'_> {
        SchedCtx {
            thread,
            visible: &self.orecs,
            epochs: &self.registry,
            kind,
        }
    }
}

/// How one read-write attempt ended (see [`attempt_once`]). Every variant
/// but `Committed` left the attempt rolled back.
pub(crate) enum AttemptOutcome<T> {
    /// The attempt committed with the body's value.
    Committed(T),
    /// The body blocked in [`Tx::retry`]: the deduplicated
    /// `(stripe, observed version)` pairs of the attempt's read set — what
    /// a commit must touch to make re-running worthwhile.
    Blocked(Vec<(usize, u64)>),
    /// A conflict (or a user restart) aborted the attempt; `on_abort` ran.
    Aborted,
    /// The body touched a `TVar` bound to another runtime. Not retryable:
    /// no completion hook ran and no abort was booked.
    Foreign(TmError),
}

/// RAII bracket around one transaction attempt.
///
/// Armed before the scheduler's `before_start` hook and disarmed by
/// [`complete`](AttemptGuard::complete) after a normal completion hook ran.
/// If the attempt is abandoned instead — the body panicked and unwinding is
/// in progress, or a non-retryable error (foreign `TVar`) returned early —
/// the drop handler restores the invariants a completion hook would have:
/// it tells the scheduler to reset per-thread state (releasing any
/// serialization taken in `before_start`) and advances the attempt epoch so
/// threads serialized behind this one wake instead of stalling their full
/// wait bound.
///
/// Declared *before* the `Tx` in [`attempt_once`], so during an unwind the
/// `Tx` drops first (rollback: stripe locks released, versions restored)
/// and this guard second — the scheduler reset never observes the attempt's
/// stripes still locked.
struct AttemptGuard<'a> {
    inner: &'a RuntimeInner,
    ctx: &'a ThreadCtx,
    kind: TxnKind,
    armed: bool,
}

impl<'a> AttemptGuard<'a> {
    fn new(inner: &'a RuntimeInner, ctx: &'a ThreadCtx, kind: TxnKind) -> Self {
        AttemptGuard {
            inner,
            ctx,
            kind,
            armed: true,
        }
    }

    /// Normal completion: a completion hook ran; advance the attempt epoch
    /// (read-write attempts only — read-only transactions never advance
    /// epochs, in either completion mode) and disarm.
    fn complete(mut self) {
        self.armed = false;
        if self.kind == TxnKind::ReadWrite {
            // Bump-and-wake *after* the hook: a victim released here
            // observes the enemy's scheduler bookkeeping settled.
            self.ctx.finish_attempt();
        }
    }
}

impl Drop for AttemptGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.inner
            .scheduler
            .on_reset(&self.inner.sched_ctx(self.ctx.id(), self.kind));
        if self.kind == TxnKind::ReadWrite {
            self.ctx.finish_attempt();
        }
    }
}

/// Runs one read-write attempt of `body` inside the scheduler bracket: the
/// one place where prevention (`before_start` may serialize the attempt)
/// and cure (`on_abort`, then the caller's backoff) meet.
///
/// In order: arm the [`AttemptGuard`], `before_start`, begin, run the body,
/// try to commit; then roll back and collect the access sets, book the
/// per-thread counter, fire exactly one completion hook (`on_commit`,
/// `on_retry_wait` or `on_abort`) with its failpoint, and close the
/// bracket. A foreign `TVar` access fires no completion hook: the attempt
/// rolls back and the guard's `on_reset` closes the bracket. Every caller
/// — [`TmRuntime::run`] and its siblings, the cross-runtime select and
/// [`TxFuture`](crate::future::TxFuture) — keeps only its own policy for
/// what happens between attempts.
pub(crate) fn attempt_once<T>(
    inner: &RuntimeInner,
    ctx: &ThreadCtx,
    mut body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> AttemptOutcome<T> {
    // Guard first, `tx` second: on an unwind the transaction rolls back
    // (stripes released) before the guard resets the scheduler and
    // advances the attempt epoch.
    let guard = AttemptGuard::new(inner, ctx, TxnKind::ReadWrite);
    let sched = inner.sched_ctx(ctx.id(), TxnKind::ReadWrite);
    inner.scheduler.before_start(&sched);
    // Hazard probe with serialization possibly held: a panic here must
    // release it through the guard's on_reset.
    let _ = crate::failpoint!(FaultSite::SchedBeforeStart);
    let mut tx = Tx::begin(inner, ctx);
    let abort = match body(&mut tx).and_then(|value| tx.try_commit().map(|()| value)) {
        Ok(value) => {
            let (reads, writes) = tx.take_logs();
            drop(tx);
            ctx.commits.fetch_add(1, Ordering::Relaxed);
            inner.scheduler.on_commit(&sched, &reads, &writes);
            let _ = crate::failpoint!(FaultSite::SchedOnCommit);
            guard.complete();
            return AttemptOutcome::Committed(value);
        }
        Err(abort) => abort,
    };
    tx.rollback();
    if abort.reason() == AbortReason::ForeignTVar {
        let info = tx.foreign_access().expect("foreign abort carries details");
        drop(tx);
        // Not retryable, and not a conflict either: no abort is booked and
        // no completion hook fires — the guard's on_reset closes the
        // scheduler bracket as it drops.
        return AttemptOutcome::Foreign(TmError::ForeignTVar {
            var: info.var,
            owner: info.owner,
            runtime: inner.id,
        });
    }
    let wait_plan = (abort.reason() == AbortReason::Retry).then(|| tx.retry_wait_plan());
    let (reads, writes) = tx.take_logs();
    drop(tx);
    let outcome = match wait_plan {
        Some(wait_plan) => {
            // Deliberate blocking, not a conflict.
            ctx.retry_waits.fetch_add(1, Ordering::Relaxed);
            inner.scheduler.on_retry_wait(&sched, &reads, &writes);
            let _ = crate::failpoint!(FaultSite::SchedOnRetryWait);
            AttemptOutcome::Blocked(wait_plan)
        }
        None => {
            ctx.aborts.fetch_add(1, Ordering::Relaxed);
            inner.scheduler.on_abort(&sched, &abort, &reads, &writes);
            let _ = crate::failpoint!(FaultSite::SchedOnAbort);
            AttemptOutcome::Aborted
        }
    };
    guard.complete();
    outcome
}

/// Builder for [`TmRuntime`].
///
/// # Examples
///
/// ```
/// use shrink_stm::{TmRuntime, BackendKind, WaitPolicy};
///
/// let rt = TmRuntime::builder()
///     .backend(BackendKind::Tiny)
///     .wait_policy(WaitPolicy::Busy)
///     .orec_table_size(1 << 12)
///     .build();
/// assert_eq!(rt.config().backend, BackendKind::Tiny);
/// ```
#[derive(Debug)]
pub struct TmBuilder {
    config: TmConfig,
    scheduler: Arc<dyn TxScheduler>,
}

impl TmBuilder {
    fn new() -> Self {
        TmBuilder {
            config: TmConfig::default(),
            scheduler: Arc::new(NoopScheduler),
        }
    }

    /// Selects the conflict-detection backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Selects the waiting policy.
    #[must_use]
    pub fn wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.config.wait_policy = policy;
        self
    }

    /// Sets the number of ownership-record stripes.
    #[must_use]
    pub fn orec_table_size(mut self, size: usize) -> Self {
        self.config.orec_table_size = size;
        self
    }

    /// Selects the write/write contention-management policy.
    #[must_use]
    pub fn cm_policy(mut self, policy: CmPolicy) -> Self {
        self.config.cm_policy = policy;
        self
    }

    /// Sets the bounded deadline of one parked [`Tx::retry`] round (the
    /// safety net against waits no commit will ever satisfy).
    ///
    /// Applies to thread-parked rounds only; a suspended
    /// [`TxFuture`](crate::future::TxFuture) is purely wake-driven and does
    /// not consult it. See [`TmConfig::retry_wait`] for the full round
    /// semantics, including how
    /// [`run_with_deadline`](TmRuntime::run_with_deadline) clamps each
    /// round to `min(now + retry_wait, deadline)`.
    #[must_use]
    pub fn retry_wait(mut self, deadline: Duration) -> Self {
        self.config.retry_wait = deadline;
        self
    }

    /// Installs a transaction scheduler (defaults to [`NoopScheduler`]).
    #[must_use]
    pub fn scheduler(mut self, scheduler: impl TxScheduler + 'static) -> Self {
        self.scheduler = Arc::new(scheduler);
        self
    }

    /// Installs an already-shared scheduler, letting the caller keep a typed
    /// handle to it (e.g. to read Shrink's prediction-accuracy counters).
    #[must_use]
    pub fn scheduler_arc(mut self, scheduler: Arc<dyn TxScheduler>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Builds the runtime.
    pub fn build(self) -> TmRuntime {
        let orecs = OrecTable::new(self.config.orec_table_size);
        let retry_waits = StripeWaitlist::new(orecs.len());
        let inner = Arc::new(RuntimeInner {
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
            orecs,
            retry_waits,
            clock: GlobalClock::new(),
            registry: ThreadRegistry::new(),
            scheduler: self.scheduler,
            config: self.config,
        });
        // Publish the runtime in the process-global registry so
        // `registry::lookup` and cross-runtime selects can reach it by id.
        crate::registry::register_runtime(&inner);
        TmRuntime { inner }
    }
}

/// A software transactional memory runtime with a pluggable scheduler.
///
/// Cloning is cheap and shares the underlying memory; the usual pattern is
/// one runtime cloned into every worker thread.
///
/// # Examples
///
/// ```
/// use shrink_stm::{TmRuntime, TVar};
///
/// let rt = TmRuntime::new();
/// let counter = TVar::new(0u64);
///
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let rt = rt.clone();
///         let counter = counter.clone();
///         std::thread::spawn(move || {
///             for _ in 0..100 {
///                 rt.run(|tx| tx.modify(&counter, |v| v + 1));
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(counter.snapshot(), 400);
/// ```
#[derive(Clone)]
pub struct TmRuntime {
    pub(crate) inner: Arc<RuntimeInner>,
}

impl TmRuntime {
    /// Creates a runtime with default configuration (Swiss backend,
    /// preemptive waiting, no scheduler).
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts building a customized runtime.
    pub fn builder() -> TmBuilder {
        TmBuilder::new()
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &TmConfig {
        &self.inner.config
    }

    /// This runtime's process-unique id — the value `TVar`s are stamped
    /// with on first transactional access and that
    /// [`TmError::ForeignTVar`] reports for both sides of a cross-runtime
    /// misuse.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The installed scheduler's short name.
    pub fn scheduler_name(&self) -> &str {
        self.inner.scheduler.name()
    }

    /// The visible-writes oracle (the ownership-record table).
    pub fn visible_writes(&self) -> &dyn VisibleWrites {
        &self.inner.orecs
    }

    /// Registers the calling thread (if needed) and returns its context.
    pub(crate) fn current_ctx(&self) -> Arc<ThreadCtx> {
        THREAD_CTXS.with(|map| {
            let mut map = map.borrow_mut();
            if let Some(reg) = map.get(&self.inner.id) {
                return Arc::clone(&reg.0);
            }
            let ctx = self.inner.registry.register();
            self.inner.scheduler.on_thread_register(ctx.id());
            map.insert(self.inner.id, Registration(Arc::clone(&ctx)));
            ctx
        })
    }

    /// Runs `body` as a transaction, retrying until it commits, and returns
    /// its result.
    ///
    /// The body may run many times; it must be idempotent apart from its
    /// transactional effects. Values captured by mutable reference should be
    /// written only on the path that returns `Ok`.
    ///
    /// # Panics
    ///
    /// Propagates panics from `body`, and panics with the
    /// [`TmError::ForeignTVar`] message when the body accesses a `TVar`
    /// bound to a different runtime (use [`run_budgeted`] or
    /// [`run_with_deadline`] to handle that case as a value).
    ///
    /// A panic unwinding out of `run` leaves the runtime fully reusable — a
    /// tested guarantee, not best-effort: the attempt's drop guards release
    /// stripe locks and restore their versions, release any scheduler
    /// serialization taken in `before_start`, reset the scheduler's
    /// per-thread attempt state, and advance the attempt epoch with a final
    /// wake so threads serialized behind the panicking one proceed. The
    /// transaction itself did not commit (its buffered writes are
    /// discarded), and subsequent transactions on any thread — including
    /// the panicking one — run normally.
    ///
    /// [`run_budgeted`]: TmRuntime::run_budgeted
    /// [`run_with_deadline`]: TmRuntime::run_with_deadline
    pub fn run<T>(&self, body: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
        match self.run_attempts(u64::MAX, None, body) {
            Ok(v) => v,
            Err(err @ TmError::ForeignTVar { .. }) => panic!("{err}"),
            Err(_) => unreachable!("unbounded retries cannot be exhausted"),
        }
    }

    /// Runs `body` as a transaction but gives up after `max_attempts`
    /// attempts.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::RetryLimitExceeded`] if no attempt committed, or
    /// [`TmError::ForeignTVar`] if the body accessed a `TVar` bound to a
    /// different runtime.
    pub fn run_budgeted<T>(
        &self,
        max_attempts: u64,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Result<T, TmError> {
        self.run_attempts(max_attempts, None, body)
    }

    /// Runs `body` as a transaction, retrying until it commits or until
    /// `deadline` passes while the transaction is blocked in [`Tx::retry`]
    /// — the time-bounded sibling of [`run_budgeted`](TmRuntime::run_budgeted)
    /// for bodies that *park* rather than conflict: a consumer waiting on a
    /// queue that may stay empty forever, a predicate no writer ever makes
    /// true.
    ///
    /// The deadline bounds **blocking**, not total execution: an attempt
    /// that is actively running is never interrupted, and a wake that
    /// arrives just before the deadline still gets its re-run. Once the
    /// deadline has passed, a blocked transaction stops parking and the
    /// call returns.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::RetryTimeout`] when the deadline passed with the
    /// transaction still blocked, or [`TmError::ForeignTVar`] for
    /// cross-runtime access.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::{Duration, Instant};
    /// use shrink_stm::{TmError, TmRuntime, TVar};
    ///
    /// let rt = TmRuntime::new();
    /// let inbox: TVar<Option<u32>> = TVar::new(None);
    /// let got = rt.run_with_deadline(Instant::now() + Duration::from_millis(50), |tx| {
    ///     match tx.read(&inbox)? {
    ///         Some(v) => Ok(v),
    ///         None => tx.retry(), // nobody ever fills the inbox
    ///     }
    /// });
    /// assert!(matches!(got, Err(TmError::RetryTimeout { .. })));
    /// ```
    pub fn run_with_deadline<T>(
        &self,
        deadline: Instant,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Result<T, TmError> {
        self.run_attempts(u64::MAX, Some(deadline), body)
    }

    /// Runs `body` as a **lock-free read-only transaction**, restarting it
    /// on snapshot invalidation until it observes a consistent snapshot,
    /// and returns its result.
    ///
    /// The body receives a [`ReadTx`]: a reader that snapshots the global
    /// clock once, pins one reclamation epoch for the attempt, reads
    /// versioned cells by acquire load under that pin (by clone with
    /// [`ReadTx::read`], by reference with [`ReadTx::read_ref`]) and
    /// revalidates per read. Compared to
    /// [`run`](TmRuntime::run) with a non-writing body, `read_only` skips
    /// everything writer-facing:
    ///
    /// * **zero orec writes** — it never locks a stripe, so it can never
    ///   conflict with, delay, kill or be killed by a writer;
    /// * **zero commit ticket** — the global clock is read, never ticked;
    /// * **zero waitlist registration** — there is no retry/blocking
    ///   support; a read-only body that cannot proceed should return its
    ///   "not ready" answer and let the caller decide;
    /// * **invisible to the scheduler** — the single
    ///   `before_start`/`on_commit` hook pair fires with
    ///   [`TxnKind::ReadOnly`], which Shrink/ATS/Serializer treat as "skip
    ///   conflict bookkeeping", and internal restarts fire no hooks at all.
    ///
    /// Restarts are accounted as `ro_revalidations` (never as aborts) in
    /// [`stats`](TmRuntime::stats); completions as `ro_commits`.
    ///
    /// The body may run many times; it must be idempotent apart from its
    /// reads. Like [`run`](TmRuntime::run), `read_only` retries without
    /// bound: a body that can never observe a consistent snapshot (an
    /// unconditional [`ReadTx::restart`], or a very long scan under a
    /// saturating writer stream) livelocks here.
    ///
    /// # Panics
    ///
    /// Propagates panics from `body`, and panics with the
    /// [`TmError::ForeignTVar`] message when the body reads a `TVar` bound
    /// to a different runtime.
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar};
    ///
    /// let rt = TmRuntime::new();
    /// let a = TVar::new(3u64);
    /// let b = TVar::new(4u64);
    /// let sum = rt.read_only(|tx| Ok(tx.read(&a)? + tx.read(&b)?));
    /// assert_eq!(sum, 7);
    /// let stats = rt.stats();
    /// assert_eq!(stats.ro_commits, 1);
    /// assert_eq!(stats.commits, 0, "read-only is not a commit");
    /// ```
    pub fn read_only<T>(&self, mut body: impl FnMut(&mut ReadTx<'_>) -> TxResult<T>) -> T {
        let ctx = self.current_ctx();
        let inner = &*self.inner;
        // One bracket per read-only transaction, kind-tagged: internal
        // snapshot restarts are invisible to the scheduler. The guard turns
        // every abnormal exit (body panic, foreign access) into an
        // `on_reset`, so the bracket opened by `before_start` below is
        // always closed.
        let guard = AttemptGuard::new(inner, &ctx, TxnKind::ReadOnly);
        let sched = inner.sched_ctx(ctx.id(), TxnKind::ReadOnly);
        inner.scheduler.before_start(&sched);
        let mut restarts: u32 = 0;
        loop {
            let mut tx = ReadTx::begin(inner, ctx.id());
            let outcome = body(&mut tx);
            let (reads, revalidations) = tx.counters();
            ctx.ro_reads.fetch_add(reads, Ordering::Relaxed);
            ctx.ro_revalidations
                .fetch_add(revalidations, Ordering::Relaxed);
            match outcome {
                Ok(value) => {
                    ctx.ro_commits.fetch_add(1, Ordering::Relaxed);
                    inner.scheduler.on_commit(&sched, &[], &[]);
                    guard.complete();
                    return value;
                }
                Err(abort) if abort.reason() == AbortReason::ForeignTVar => {
                    let info = tx.foreign_access().expect("foreign abort carries details");
                    // Not retryable: a fresh snapshot cannot change which
                    // runtime owns the variable. The guard fires on_reset
                    // as the panic unwinds.
                    panic!(
                        "{}",
                        TmError::ForeignTVar {
                            var: info.var,
                            owner: info.owner,
                            runtime: inner.id,
                        }
                    );
                }
                Err(_) => {
                    // A concurrent writer invalidated the snapshot (or the
                    // body asked to restart). Not an abort — no lock was
                    // held, no writer was harmed. Grant the writer a short
                    // pause, then re-run on a fresh snapshot. The attempt
                    // ends first, so its epoch pin is not held across the
                    // pause.
                    drop(tx);
                    ctx.ro_revalidations.fetch_add(1, Ordering::Relaxed);
                    restarts = restarts.saturating_add(1);
                    pause(inner.config.wait_policy, restarts);
                }
            }
        }
    }

    /// The thread-parking attempt loop behind [`run`](TmRuntime::run),
    /// [`run_budgeted`](TmRuntime::run_budgeted) and
    /// [`run_with_deadline`](TmRuntime::run_with_deadline): the attempt
    /// budget, the blocking deadline, the retry park and the abort backoff
    /// around [`attempt_once`].
    fn run_attempts<T>(
        &self,
        max_attempts: u64,
        deadline: Option<Instant>,
        mut body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Result<T, TmError> {
        let ctx = self.current_ctx();
        let inner = &*self.inner;
        // Sampled only for deadline-bounded runs, to report `waited`.
        let started = deadline.map(|_| Instant::now());
        let mut consecutive_aborts: u32 = 0;
        let mut attempts: u64 = 0;
        loop {
            attempts += 1;
            match attempt_once(inner, &ctx, &mut body) {
                AttemptOutcome::Committed(value) => return Ok(value),
                AttemptOutcome::Foreign(err) => return Err(err),
                _ if attempts >= max_attempts => {
                    return Err(TmError::RetryLimitExceeded { attempts });
                }
                AttemptOutcome::Blocked(wait_plan) => {
                    // Deliberate blocking, not a conflict: park until a
                    // commit overwrites something the attempt read.
                    let round = Instant::now() + inner.config.retry_wait;
                    // A deadline-bounded run never parks past its deadline;
                    // once the deadline passed the wait degenerates to one
                    // registration-and-revalidate pass.
                    let bound = deadline.map_or(round, |d| round.min(d));
                    let outcome =
                        inner
                            .retry_waits
                            .wait(&inner.orecs, &wait_plan, &ctx.retry_parker, bound);
                    if let Some(d) = deadline {
                        // A real wake (or a changed read set) earns one more
                        // attempt even at the deadline; only an expired wait
                        // with nothing new gives up.
                        if outcome == crate::waitlist::RetryWaitOutcome::TimedOut
                            && Instant::now() >= d
                        {
                            return Err(TmError::RetryTimeout {
                                waited: started.expect("deadline implies start").elapsed(),
                            });
                        }
                    }
                    // Waking (or revalidating after the bounded deadline)
                    // is progress, not an abort storm: no backoff.
                    consecutive_aborts = 0;
                }
                AttemptOutcome::Aborted => {
                    consecutive_aborts += 1;
                    retry_backoff(
                        inner.config.wait_policy,
                        consecutive_aborts,
                        ctx.id().as_u16() as u64,
                    );
                }
            }
        }
    }

    /// Takes a statistics snapshot over all registered threads.
    pub fn stats(&self) -> TmStats {
        let per_thread = self
            .inner
            .registry
            .snapshot()
            .iter()
            .map(|ctx| ThreadStats {
                thread: ctx.id(),
                commits: ctx.commit_count(),
                aborts: ctx.abort_count(),
                retry_waits: ctx.retry_wait_count(),
                ro_commits: ctx.ro_commit_count(),
                ro_reads: ctx.ro_read_count(),
                ro_revalidations: ctx.ro_revalidation_count(),
                orec_acquires: ctx.orec_acquire_count(),
            })
            .collect();
        TmStats::from_threads(per_thread)
    }

    /// Wait-op counters of the [`Tx::retry`] wake path: how blocked
    /// transactions waited (parked, woken, timed out) and what the commit
    /// side paid (wakes issued, wasted wakes). The parked path has no
    /// yield-poll counterpart at all — these counters are the proof.
    pub fn retry_stats(&self) -> RetryStats {
        self.inner.retry_waits.stats()
    }

    /// Number of parkers currently registered on the retry waitlist —
    /// thread and task parkers combined, counted once per watched bucket.
    ///
    /// Transient non-zero values are normal while transactions block; the
    /// count returns to zero once every blocked transaction has been woken,
    /// timed out, or (for futures) dropped. Tests use it to prove that a
    /// cancelled [`TxFuture`](crate::future::TxFuture) leaked no slot.
    pub fn retry_waiters(&self) -> u64 {
        self.inner.retry_waits.registered()
    }
}

impl Default for TmRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// Drains deferred epoch garbage at a quiescent point.
///
/// Boxed `TVar` values replaced at commit are not freed immediately — their
/// destruction is deferred until every reader pinned at the time of
/// replacement has moved on (see DESIGN.md §7). Reclamation normally runs
/// piggybacked on the read path; call this from a thread that holds no
/// transaction when you need the backlog drained *now* — after joining
/// worker threads, between benchmark phases, or in tests asserting exact
/// drop counts. The epoch collector is process-global, not per-runtime.
///
/// Each call seals the calling thread's deferral bag and attempts a bounded
/// number of epoch advances; when no thread is pinned, everything retired
/// before the call has been dropped by the time it returns.
pub fn quiesce() {
    // Two epoch advances make any previously sealed bag eligible; a few
    // extra rounds cover bags sealed concurrently by exiting threads.
    for _ in 0..4 {
        crossbeam::epoch::flush();
    }
}

impl fmt::Debug for TmRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TmRuntime")
            .field("id", &self.inner.id)
            .field("backend", &self.inner.config.backend)
            .field("wait_policy", &self.inner.config.wait_policy)
            .field("scheduler", &self.inner.scheduler.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;

    #[test]
    fn single_threaded_counter() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        for _ in 0..100 {
            rt.run(|tx| tx.modify(&v, |x| x + 1));
        }
        assert_eq!(v.snapshot(), 100);
        let stats = rt.stats();
        assert_eq!(stats.commits, 100);
        assert_eq!(stats.aborts, 0);
    }

    #[test]
    fn read_own_write() {
        let rt = TmRuntime::new();
        let v = TVar::new(1u64);
        let seen = rt.run(|tx| {
            tx.write(&v, 7)?;
            tx.read(&v)
        });
        assert_eq!(seen, 7);
        assert_eq!(v.snapshot(), 7);
    }

    #[test]
    fn writes_are_buffered_until_commit() {
        let rt = TmRuntime::new();
        let v = TVar::new(1u64);
        rt.run(|tx| {
            tx.write(&v, 99)?;
            // Not yet installed: snapshot still sees the old value.
            assert_eq!(v.snapshot(), 1);
            Ok(())
        });
        assert_eq!(v.snapshot(), 99);
    }

    #[test]
    fn user_restart_retries() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u32);
        let mut first = true;
        rt.run(|tx| {
            if first {
                first = false;
                return tx.restart();
            }
            tx.write(&v, 5)
        });
        assert_eq!(v.snapshot(), 5);
        assert_eq!(rt.stats().aborts, 1);
    }

    #[test]
    fn budgeted_run_gives_up() {
        let rt = TmRuntime::new();
        let result: Result<(), _> = rt.run_budgeted(3, |tx| tx.restart());
        assert_eq!(result, Err(TmError::RetryLimitExceeded { attempts: 3 }));
    }

    #[test]
    fn retry_blocks_until_a_commit_changes_the_read_set() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let consumer = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                rt.run(|tx| {
                    let x = tx.read(&v)?;
                    if x == 0 {
                        return tx.retry();
                    }
                    Ok(x)
                })
            })
        };
        // Deterministic handshake: wait until the consumer is provably
        // parked (a stats-visible retry round), then publish.
        while rt.retry_stats().parked_waits == 0 {
            std::thread::yield_now();
        }
        rt.run(|tx| tx.write(&v, 7));
        assert_eq!(consumer.join().unwrap(), 7);
        let stats = rt.stats();
        assert!(stats.retry_waits >= 1, "the wait rounds are accounted");
        assert_eq!(
            stats.aborts, 0,
            "a deliberate retry must not count as a conflict abort"
        );
        let wait_stats = rt.retry_stats();
        assert!(wait_stats.parked_waits >= 1);
        assert!(
            wait_stats.woken >= 1,
            "the producer's commit must wake the parked consumer: {wait_stats:?}"
        );
    }

    #[test]
    fn budgeted_run_bounds_a_permanently_blocked_retry() {
        let rt = TmRuntime::builder()
            .retry_wait(std::time::Duration::from_millis(1))
            .build();
        let v = TVar::new(0u64);
        let result: Result<(), _> = rt.run_budgeted(3, |tx| {
            let _ = tx.read(&v)?;
            tx.retry()
        });
        assert_eq!(result, Err(TmError::RetryLimitExceeded { attempts: 3 }));
    }

    #[test]
    fn run_or_else_takes_the_fallback_when_first_retries() {
        let rt = TmRuntime::new();
        let a: TVar<Option<u32>> = TVar::new(None);
        let b: TVar<Option<u32>> = TVar::new(Some(5));
        let got = rt.run(|tx| {
            tx.or_else(
                |tx| match tx.read(&a)? {
                    Some(v) => Ok(v),
                    None => tx.retry(),
                },
                |tx| match tx.read(&b)? {
                    Some(v) => Ok(v),
                    None => tx.retry(),
                },
            )
        });
        assert_eq!(got, 5);
        assert_eq!(rt.stats().retry_waits, 0, "or_else caught the retry");
    }

    #[test]
    fn retry_releases_branch_locks_before_parking() {
        // A transaction that wrote (acquiring a stripe) and then retried
        // must not park while holding the stripe: another thread writing
        // the same variable is exactly what will wake it.
        let rt = TmRuntime::builder()
            .retry_wait(std::time::Duration::from_secs(30))
            .build();
        let gate = TVar::new(false);
        let target = TVar::new(0u64);
        let blocked = {
            let rt = rt.clone();
            let gate = gate.clone();
            let target = target.clone();
            std::thread::spawn(move || {
                rt.run(|tx| {
                    tx.write(&target, 99)?;
                    if !tx.read(&gate)? {
                        return tx.retry();
                    }
                    Ok(())
                })
            })
        };
        while rt.retry_stats().parked_waits == 0 {
            std::thread::yield_now();
        }
        // The stripe must be free: this write succeeds without conflict and
        // (also writing `gate`'s stripe set) wakes the parked thread.
        rt.run(|tx| {
            tx.write(&target, 1)?;
            tx.write(&gate, true)
        });
        blocked.join().unwrap();
        assert_eq!(target.snapshot(), 99, "retried write re-ran and won");
    }

    #[test]
    fn multithreaded_transfer_conserves_money_swiss() {
        transfer_conserves_money(BackendKind::Swiss, WaitPolicy::Preemptive);
    }

    #[test]
    fn multithreaded_transfer_conserves_money_tiny() {
        transfer_conserves_money(BackendKind::Tiny, WaitPolicy::Preemptive);
    }

    fn transfer_conserves_money(backend: BackendKind, wait: WaitPolicy) {
        const ACCOUNTS: usize = 8;
        const THREADS: usize = 4;
        const TRANSFERS: usize = 500;
        let rt = TmRuntime::builder()
            .backend(backend)
            .wait_policy(wait)
            .build();
        let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(1000)).collect();
        let accounts = Arc::new(accounts);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let rt = rt.clone();
                let accounts = Arc::clone(&accounts);
                std::thread::spawn(move || {
                    let mut s = t as u64 + 1;
                    for _ in 0..TRANSFERS {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let from = (s >> 33) as usize % ACCOUNTS;
                        let to = (s >> 17) as usize % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        rt.run(|tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], a - 1)?;
                            tx.write(&accounts[to], b + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = accounts.iter().map(|a| a.snapshot()).sum();
        assert_eq!(total, ACCOUNTS as i64 * 1000, "money must be conserved");
    }

    #[test]
    fn read_only_observes_committed_state_without_orec_writes() {
        let rt = TmRuntime::new();
        let vars: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
        let sum = rt.read_only(|tx| {
            let mut total = 0;
            for v in &vars {
                total += tx.read(v)?;
            }
            Ok(total)
        });
        assert_eq!(sum, 28);
        let stats = rt.stats();
        assert_eq!(stats.ro_commits, 1);
        assert_eq!(stats.ro_reads, 8);
        assert_eq!(stats.commits, 0, "no commit ticket was taken");
        assert_eq!(stats.aborts, 0);
        assert_eq!(stats.orec_acquires, 0, "lock-free: zero orec writes");
        assert_eq!(
            rt.retry_stats().parked_waits,
            0,
            "zero waitlist registration"
        );
    }

    #[test]
    fn read_only_interleaves_with_writers_on_one_thread() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        for round in 1..=10u64 {
            rt.run(|tx| tx.write(&v, round));
            let seen = rt.read_only(|tx| tx.read(&v));
            assert_eq!(seen, round);
        }
        let stats = rt.stats();
        assert_eq!(stats.commits, 10);
        assert_eq!(stats.ro_commits, 10);
    }

    #[test]
    fn read_only_restart_is_a_revalidation_not_an_abort() {
        let rt = TmRuntime::new();
        let v = TVar::new(7u64);
        let mut first = true;
        let got = rt.read_only(|tx| {
            if first {
                first = false;
                return tx.restart();
            }
            tx.read(&v)
        });
        assert_eq!(got, 7);
        let stats = rt.stats();
        assert_eq!(stats.ro_commits, 1);
        assert!(stats.ro_revalidations >= 1, "the restart is accounted");
        assert_eq!(stats.aborts, 0, "restarts never masquerade as conflicts");
    }

    #[test]
    fn read_only_reads_through_a_held_write_lock() {
        // A writer that holds the stripe but has not begun committing must
        // not delay a read-only reader: buffered writes leave the committed
        // value in the cell. Exercised on both backends — the read-only
        // path reads through non-committing locks regardless of backend.
        for backend in [BackendKind::Swiss, BackendKind::Tiny] {
            let rt = TmRuntime::builder().backend(backend).build();
            let v = TVar::new(1u64);
            rt.run(|tx| {
                tx.write(&v, 2)?;
                // Stripe is locked by this thread right now; the read-only
                // snapshot still sees the committed value instantly.
                let seen = rt.read_only(|ro| ro.read(&v));
                assert_eq!(seen, 1, "buffered write must not leak ({backend})");
                Ok(())
            });
            assert_eq!(v.snapshot(), 2);
            assert_eq!(rt.stats().ro_commits, 1);
        }
    }

    #[test]
    fn stats_count_both_threads() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let t = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || rt.run(|tx| tx.modify(&v, |x| x + 1)))
        };
        t.join().unwrap();
        rt.run(|tx| tx.modify(&v, |x| x + 1));
        let stats = rt.stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.per_thread.len(), 2);
    }

    #[test]
    fn panicking_body_releases_locks() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|tx| {
                tx.write(&v, 1)?;
                panic!("boom");
                #[allow(unreachable_code)]
                Ok(())
            })
        }));
        assert!(result.is_err());
        // The stripe must be free again: another transaction can write it.
        rt.run(|tx| tx.write(&v, 2));
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn exited_threads_are_retired_from_the_epoch_oracle() {
        use crate::epoch::{AttemptEpochs, EpochWaitOutcome};
        use crate::thread::ThreadId;

        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        // Main thread registers first → id 1; the worker gets id 2.
        rt.run(|tx| tx.modify(&v, |x| x + 1));
        let worker = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || rt.run(|tx| tx.modify(&v, |x| x + 1)))
        };
        worker.join().unwrap();
        let worker_id = ThreadId::from_u16(2);
        // The joined worker's registration guard has retired it: the oracle
        // reports it absent and refuses to wait on it.
        assert_eq!(rt.inner.registry.epoch_of(worker_id), None);
        let outcome = rt.inner.registry.wait_epoch_change(
            worker_id,
            0,
            std::time::Instant::now() + std::time::Duration::from_secs(5),
        );
        assert_eq!(outcome, EpochWaitOutcome::Absent, "must not stall");
        // The live main thread still has an epoch (one finished attempt).
        assert_eq!(rt.inner.registry.epoch_of(ThreadId::from_u16(1)), Some(1));
    }

    #[test]
    fn foreign_tvar_access_is_a_typed_error() {
        let rt1 = TmRuntime::new();
        let rt2 = TmRuntime::new();
        let v = TVar::new(0u64);
        // First transactional access binds the TVar to rt1.
        rt1.run(|tx| tx.write(&v, 1));
        assert_eq!(v.owner_runtime(), Some(rt1.id()));
        // Reads and writes through another runtime are refused, not
        // silently mis-synchronized.
        let read: Result<u64, _> = rt2.run_budgeted(8, |tx| tx.read(&v));
        match read {
            Err(TmError::ForeignTVar {
                var,
                owner,
                runtime,
            }) => {
                assert_eq!(var, v.id());
                assert_eq!(owner, rt1.id());
                assert_eq!(runtime, rt2.id());
            }
            other => panic!("expected ForeignTVar, got {other:?}"),
        }
        let write: Result<(), _> = rt2.run_budgeted(8, |tx| tx.write(&v, 9));
        assert!(matches!(write, Err(TmError::ForeignTVar { .. })));
        let ro = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt2.read_only(|tx| tx.read(&v))
        }));
        let message = ro.expect_err("a foreign read-only access panics");
        let message = message
            .downcast_ref::<String>()
            .expect("the panic carries the rendered error");
        let expected = TmError::ForeignTVar {
            var: v.id(),
            owner: rt1.id(),
            runtime: rt2.id(),
        };
        assert_eq!(*message, expected.to_string());
        // The owning runtime is unaffected and keeps working.
        rt1.run(|tx| tx.modify(&v, |x| x + 1));
        assert_eq!(v.snapshot(), 2);
        assert_eq!(rt2.stats().commits, 0, "rt2 never committed");
        // Non-transactional snapshots stay runtime-free.
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn foreign_tvar_does_not_burn_the_retry_budget() {
        // A foreign access is non-retryable: it must return on the first
        // attempt, not spin the budget down.
        let rt1 = TmRuntime::new();
        let rt2 = TmRuntime::new();
        let v = TVar::new(0u64);
        rt1.run(|tx| tx.write(&v, 1));
        let _: Result<u64, _> = rt2.run_budgeted(1_000_000, |tx| tx.read(&v));
        assert_eq!(rt2.stats().aborts, 0, "foreign access is not an abort");
    }

    #[test]
    fn run_with_deadline_times_out_a_blocked_retry() {
        let rt = TmRuntime::builder()
            .retry_wait(std::time::Duration::from_secs(30))
            .build();
        let v = TVar::new(0u64);
        let start = std::time::Instant::now();
        let deadline = start + std::time::Duration::from_millis(50);
        let got: Result<u64, _> = rt.run_with_deadline(deadline, |tx| {
            let x = tx.read(&v)?;
            if x == 0 {
                return tx.retry();
            }
            Ok(x)
        });
        match got {
            Err(TmError::RetryTimeout { waited }) => {
                assert!(waited >= std::time::Duration::from_millis(50));
            }
            other => panic!("expected RetryTimeout, got {other:?}"),
        }
        // The deadline clamps the 30s retry_wait round: we did not sleep
        // anywhere near the configured round length.
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn run_with_deadline_returns_a_value_that_arrives_in_time() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let producer = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                while rt.retry_stats().parked_waits == 0 {
                    std::thread::yield_now();
                }
                rt.run(|tx| tx.write(&v, 7));
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let got = rt.run_with_deadline(deadline, |tx| {
            let x = tx.read(&v)?;
            if x == 0 {
                return tx.retry();
            }
            Ok(x)
        });
        producer.join().unwrap();
        assert_eq!(got, Ok(7));
    }

    #[test]
    fn runtime_is_reusable_after_a_panicking_body() {
        // The tested guarantee that replaced the old "fatal for the
        // runtime" caveat: after a panic unwinds out of `run`, the same
        // runtime keeps committing on the same thread, the epoch advanced
        // (nobody stalls serialized behind the dead attempt), and stats
        // keep flowing.
        use crate::epoch::AttemptEpochs;
        use crate::thread::ThreadId;

        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        rt.run(|tx| tx.modify(&v, |x| x + 1));
        let epoch_before = rt.inner.registry.epoch_of(ThreadId::from_u16(1));
        for _ in 0..3 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run(|tx| {
                    tx.write(&v, 99)?;
                    panic!("boom");
                    #[allow(unreachable_code)]
                    Ok(())
                })
            }));
            assert!(result.is_err());
        }
        let epoch_after = rt.inner.registry.epoch_of(ThreadId::from_u16(1));
        assert!(
            epoch_after > epoch_before,
            "abandoned attempts must advance the epoch: {epoch_before:?} -> {epoch_after:?}"
        );
        rt.run(|tx| tx.modify(&v, |x| x + 1));
        assert_eq!(v.snapshot(), 2, "panicked writes rolled back");
        assert_eq!(rt.stats().commits, 2);
    }
}
