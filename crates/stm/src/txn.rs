//! The transaction engine: read/write protocol, validation, commit and
//! rollback for both backends.
//!
//! Common skeleton (TL2/TinySTM family):
//!
//! * transactions snapshot the global clock at start (`start_ts`);
//! * reads validate the guarding orec's version against `start_ts`,
//!   *extending* the snapshot (revalidating the whole read log against the
//!   current clock) when they encounter newer data;
//! * writes acquire the orec eagerly — making the write **visible** to every
//!   other thread, as Shrink requires — and buffer the value in a write log;
//! * commit stamps a fresh clock value, validates the read log once more and
//!   installs buffered values.
//!
//! An attempt pins one reclamation epoch at its first boxed read and holds
//! it to the end, so a value load (`ValueCell::load_in`) is an acquire load
//! that *borrows* a boxed value or copies an inline one (DESIGN.md §7). The
//! per-read cost on top of it is exactly the orec snapshot/validate pair
//! below — the overhead budget the paper's ~13 % Shrink figure rides on.
//! Each transaction kind has one read protocol (`read_loaded`):
//! [`TxRead::read_ref`] returns its borrow and [`TxRead::read`] clones it.
//!
//! Backend differences (see [`BackendKind`]):
//!
//! * **Swiss** — readers read *through* a write lock until the owner begins
//!   committing (write/read conflicts are resolved lazily, at commit), and
//!   write/write conflicts go through a two-phase contention manager: timid
//!   (self-abort) while the transaction is small, greedy (kill the lighter
//!   transaction) afterwards.
//! * **Tiny** — readers and writers busy-wait on locked stripes with a
//!   bounded spin budget and abort when it is exhausted (encounter-time
//!   locking with suicide resolution).

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::backoff::{parked_nap_due, pause, PARK_NAP};
use crate::cell::{AttemptPin, Loaded};
use crate::config::{BackendKind, CmPolicy, TxnKind, WaitPolicy};
use crate::error::{Abort, AbortReason, TxResult};
use crate::faults::FaultSite;
use crate::orec::OrecSnapshot;
use crate::runtime::RuntimeInner;
use crate::sched::SchedCtx;
use crate::thread::{ThreadCtx, ThreadId};
use crate::tvar::{TVar, TVarInner, TxValue};
use crate::varid::VarId;

/// Pause units a reader grants a committing writer before restarting.
const READ_SPIN_BUDGET: u32 = 512;
/// Pause units a Tiny-backend transaction waits on a locked stripe before
/// aborting itself (TinySTM's busy-wait window).
const LOCK_SPIN_BUDGET: u32 = 2048;
/// Accesses below which a Swiss transaction loses write/write conflicts
/// without a fight (the "timid" first phase of the two-phase CM).
const CM_TIMID_THRESHOLD: u64 = 32;
/// Pause units a Swiss transaction waits for a killed victim to release
/// its locks before giving up and aborting itself.
const KILL_WAIT_BUDGET: u32 = 4096;
/// Backed-off re-attempts Polite makes before aborting.
const POLITE_RETRIES: u32 = 6;

/// One validated read: which stripe, and the version it had when read.
#[derive(Clone, Copy, Debug)]
struct ReadEntry {
    orec: usize,
    version: u64,
}

/// An attempt log appended through `&self`, so a read can record itself
/// while values borrowed by earlier reads are still alive. `Log` is
/// `!Sync`, so only the owning thread reaches the vector, and no method
/// keeps a reference into it past its own body — that is what makes each
/// access below exclusive. Entries are `Copy`, so dropping them cannot run
/// code that reaches back into the log. (A `Cell` take-and-put costs a
/// measurable few nanoseconds per read on the hot path; this does not.)
struct Log<T: Copy>(UnsafeCell<Vec<T>>);

impl<T: Copy> Log<T> {
    fn new() -> Self {
        Log(UnsafeCell::new(Vec::new()))
    }

    #[inline]
    fn push(&self, item: T) {
        // SAFETY: exclusive for this statement (see the type docs); `push`
        // cannot re-enter this log.
        unsafe { (*self.0.get()).push(item) }
    }

    /// Runs `f` over the entries. The vector is moved out while `f` runs,
    /// so even an `f` that pushed to this log could not alias it (its
    /// entries would be dropped).
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        // SAFETY: exclusive for this statement (see the type docs).
        let items = std::mem::take(unsafe { &mut *self.0.get() });
        let out = f(&items);
        // SAFETY: exclusive for this statement; `f` has returned.
        unsafe { *self.0.get() = items };
        out
    }

    fn len(&self) -> usize {
        // SAFETY: a shared read for this statement (see the type docs).
        unsafe { (*self.0.get()).len() }
    }

    fn take(&mut self) -> Vec<T> {
        std::mem::take(self.0.get_mut())
    }
}

/// A buffered write that can be installed at commit.
trait PendingWrite: Send {
    fn install(&self);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// A boxed clone of this entry, for checkpoint undo records: an
    /// [`or_else`](Tx::or_else) branch that overwrites a pre-branch entry
    /// must be able to restore the old buffered value on rollback.
    fn snapshot_entry(&self) -> Box<dyn PendingWrite>;
}

struct TypedWrite<T> {
    target: Arc<TVarInner<T>>,
    value: T,
}

impl<T: TxValue> PendingWrite for TypedWrite<T> {
    fn install(&self) {
        self.target.cell.store(self.value.clone());
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn snapshot_entry(&self) -> Box<dyn PendingWrite> {
        Box::new(TypedWrite {
            target: Arc::clone(&self.target),
            value: self.value.clone(),
        })
    }
}

/// A rollback point inside one transaction attempt, pushed by
/// [`Tx::or_else`] around its first branch (DESIGN.md §9).
///
/// Rolling back to a checkpoint undoes everything the branch *wrote* —
/// write-log entries are truncated, overwritten pre-branch entries are
/// restored from `overwrites`, and stripes first acquired inside the branch
/// are released — while the branch's *reads* are deliberately kept: they
/// were real reads of the snapshot, keeping them validates the alternative
/// branch against the same consistency, and a [`Tx::retry`] that escapes
/// both branches must park on the union of both read sets.
struct Checkpoint {
    write_log_len: usize,
    write_vars_len: usize,
    owned_len: usize,
    /// Pre-branch values of write-log entries the branch overwrote in
    /// place, saved lazily at first overwrite: `(write_log index, entry as
    /// it was when this checkpoint was live)`.
    overwrites: Vec<(usize, Box<dyn PendingWrite>)>,
}

/// Details of a rejected cross-runtime access, recorded by the owner check
/// so the retry loop can build the full
/// [`TmError::ForeignTVar`](crate::error::TmError) (the [`Abort`] itself
/// only carries the reason).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ForeignAccess {
    pub(crate) var: VarId,
    pub(crate) owner: u64,
}

/// An in-flight transaction attempt.
///
/// Handed to the body closure by [`TmRuntime::run`](crate::TmRuntime::run);
/// all transactional operations return [`TxResult`] so the body can
/// propagate aborts with `?`. An attempt holds its thread's epoch pin
/// until it drops, so it stays on the thread that began it (`!Send`).
pub struct Tx<'rt> {
    rt: &'rt RuntimeInner,
    ctx: &'rt ThreadCtx,
    me: ThreadId,
    start_ts: Cell<u64>,
    read_log: Log<ReadEntry>,
    /// Every dynamic read, in order (may contain duplicates).
    read_vars: Log<VarId>,
    write_log: Vec<Box<dyn PendingWrite>>,
    /// Distinct written variables, in first-write order.
    write_vars: Vec<VarId>,
    write_index: HashMap<VarId, usize>,
    owned_orecs: HashSet<usize>,
    owned_order: Vec<usize>,
    /// Active [`or_else`](Tx::or_else) rollback points, innermost last.
    checkpoints: Vec<Checkpoint>,
    /// Set when the body touched a `TVar` bound to another runtime.
    foreign: Cell<Option<ForeignAccess>>,
    finished: bool,
    /// The attempt's epoch pin, held from the first boxed read to drop: it
    /// keeps every value [`read_ref`](Tx::read_ref) borrowed alive even
    /// after a concurrent commit retires it.
    pin: AttemptPin,
}

impl<'rt> Tx<'rt> {
    pub(crate) fn begin(rt: &'rt RuntimeInner, ctx: &'rt ThreadCtx) -> Self {
        ctx.reset_accesses();
        // Drop any kill request aimed at a previous attempt.
        let _ = ctx.take_kill_request();
        Tx {
            rt,
            ctx,
            me: ctx.id(),
            start_ts: Cell::new(rt.clock.now()),
            read_log: Log::new(),
            read_vars: Log::new(),
            write_log: Vec::new(),
            write_vars: Vec::new(),
            write_index: HashMap::new(),
            owned_orecs: HashSet::new(),
            owned_order: Vec::new(),
            checkpoints: Vec::new(),
            foreign: Cell::new(None),
            finished: false,
            pin: AttemptPin::default(),
        }
    }

    /// The id of the thread running this transaction.
    pub fn thread(&self) -> ThreadId {
        self.me
    }

    /// Number of dynamic reads so far.
    pub fn read_count(&self) -> usize {
        self.read_vars.len()
    }

    /// Number of distinct variables written so far.
    pub fn write_count(&self) -> usize {
        self.write_vars.len()
    }

    /// The snapshot timestamp the attempt currently validates against.
    pub fn start_timestamp(&self) -> u64 {
        self.start_ts.get()
    }

    /// Requests an abort-and-retry of this attempt.
    ///
    /// # Errors
    ///
    /// Always returns `Err` with [`AbortReason::UserRestart`]; intended to be
    /// propagated with `?` or returned directly from the body.
    pub fn restart<T>(&self) -> TxResult<T> {
        Err(Abort::new(AbortReason::UserRestart))
    }

    /// Blocks this transaction until its read set changes.
    ///
    /// The Haskell-STM `retry` operator: the body declares that the current
    /// snapshot does not let it proceed (a queue is empty, a predicate is
    /// false). Inside [`Tx::or_else`] the nearest enclosing `or_else`
    /// catches it and runs the alternative branch; otherwise the runtime
    /// rolls the attempt back, releases every stripe lock, and **parks**
    /// the thread on the per-stripe commit event counts of everything the
    /// attempt read — it sleeps in the kernel until a committer overwrites
    /// one of those stripes (or a bounded deadline revalidates), never
    /// yield-polling (DESIGN.md §9).
    ///
    /// A `retry` with an *empty* read set can never be woken by a commit;
    /// it blocks in bounded [`retry_wait`](crate::TmConfig::retry_wait)
    /// rounds instead of forever, but is almost certainly a bug in the
    /// body.
    ///
    /// # Errors
    ///
    /// Always returns `Err` with [`AbortReason::Retry`]; intended to be
    /// propagated with `?` or returned directly from the body.
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar, TxResult};
    ///
    /// let rt = TmRuntime::new();
    /// let ready = TVar::new(false);
    /// let flag = ready.clone();
    /// let setter = {
    ///     let rt = rt.clone();
    ///     std::thread::spawn(move || {
    ///         std::thread::sleep(std::time::Duration::from_millis(5));
    ///         rt.run(|tx| tx.write(&flag, true));
    ///     })
    /// };
    /// // Blocks (parked) until the setter's commit flips the flag.
    /// rt.run(|tx| {
    ///     if !tx.read(&ready)? {
    ///         return tx.retry();
    ///     }
    ///     Ok(())
    /// });
    /// setter.join().unwrap();
    /// ```
    pub fn retry<T>(&self) -> TxResult<T> {
        Err(Abort::retry())
    }

    /// Runs `first`; if it ends in [`Tx::retry`], rolls back *only its
    /// writes* and runs `second` instead.
    ///
    /// The Haskell-STM `orElse` combinator, and the reason `retry` composes:
    /// alternatives nest arbitrarily (`or_else` inside either branch works)
    /// and the whole composition is still one atomic transaction. Semantics:
    ///
    /// * Writes made by a retried `first` never become visible — buffered
    ///   entries are dropped, overwritten pre-branch entries restored, and
    ///   stripes first locked inside the branch released.
    /// * Reads made by `first` stay in the read set: the transaction
    ///   validates against them, and if `second` also retries, the thread
    ///   parks on the **union** of both branches' read sets (either branch
    ///   becoming runnable wakes it).
    /// * Any non-`retry` abort (conflict, validation, kill) propagates and
    ///   restarts the whole transaction, exactly as outside `or_else`.
    ///
    /// # Errors
    ///
    /// Propagates `second`'s result when `first` retries, and any
    /// non-`retry` abort of either branch.
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar, TxResult};
    ///
    /// let rt = TmRuntime::new();
    /// let primary: TVar<Option<u32>> = TVar::new(None);
    /// let fallback: TVar<Option<u32>> = TVar::new(Some(9));
    /// let take = |v: &TVar<Option<u32>>| {
    ///     let v = v.clone();
    ///     move |tx: &mut shrink_stm::Tx<'_>| match tx.read(&v)? {
    ///         Some(x) => {
    ///             tx.write(&v, None)?;
    ///             Ok(x)
    ///         }
    ///         None => tx.retry(),
    ///     }
    /// };
    /// let got = rt.run(|tx| tx.or_else(take(&primary), take(&fallback)));
    /// assert_eq!(got, 9);
    /// ```
    pub fn or_else<T>(
        &mut self,
        first: impl FnOnce(&mut Tx<'rt>) -> TxResult<T>,
        second: impl FnOnce(&mut Tx<'rt>) -> TxResult<T>,
    ) -> TxResult<T> {
        self.checkpoints.push(Checkpoint {
            write_log_len: self.write_log.len(),
            write_vars_len: self.write_vars.len(),
            owned_len: self.owned_order.len(),
            overwrites: Vec::new(),
        });
        match first(self) {
            Err(abort) if abort.reason() == AbortReason::Retry => {
                let cp = self.checkpoints.pop().expect("checkpoint pushed above");
                self.rollback_to(cp);
                second(self)
            }
            other => {
                let cp = self.checkpoints.pop().expect("checkpoint pushed above");
                self.merge_checkpoint(cp);
                other
            }
        }
    }

    /// Restores the attempt to `cp`: truncate the write log, restore
    /// overwritten pre-branch entries, release branch-acquired stripes.
    /// Reads are kept (see [`Checkpoint`]).
    fn rollback_to(&mut self, cp: Checkpoint) {
        debug_assert_eq!(self.write_log.len(), self.write_vars.len());
        for var in self.write_vars.drain(cp.write_vars_len..) {
            self.write_index.remove(&var);
        }
        self.write_log.truncate(cp.write_log_len);
        for (i, saved) in cp.overwrites {
            self.write_log[i] = saved;
        }
        // Stripes first locked inside the branch guard only branch-local
        // first-writes (a pre-branch write would have acquired its stripe
        // at that earlier write), so they are safe to hand back.
        for idx in self.owned_order.drain(cp.owned_len..) {
            self.rt.orecs.at(idx).unlock_abort(self.me);
            self.owned_orecs.remove(&idx);
        }
    }

    /// Folds a completed checkpoint's undo records into the enclosing one:
    /// an entry the inner branch overwrote may predate the *outer*
    /// checkpoint too, and the outer rollback must restore the oldest
    /// saved value (the entry was untouched between the two pushes, so the
    /// inner record is exact for both).
    fn merge_checkpoint(&mut self, cp: Checkpoint) {
        if let Some(outer) = self.checkpoints.last_mut() {
            for (i, saved) in cp.overwrites {
                if i < outer.write_log_len && !outer.overwrites.iter().any(|(j, _)| *j == i) {
                    outer.overwrites.push((i, saved));
                }
            }
        }
    }

    fn sched_ctx(&self) -> SchedCtx<'_> {
        self.rt.sched_ctx(self.me, TxnKind::ReadWrite)
    }

    /// Builds a conflict abort against `owner`, stamping the owner's
    /// attempt epoch **only if the conflict is still live** (the owner
    /// still holds stripe `idx` after the sample). A live sample identifies
    /// the conflicting attempt exactly — the epoch only advances when that
    /// attempt ends — so a scheduler waiting on it serializes behind the
    /// right transaction. If the owner already released the stripe, its
    /// conflicting attempt is over and there is nothing to wait for: no
    /// epoch is attached and schedule-after policies skip the wait.
    fn conflict(&self, reason: AbortReason, var: VarId, idx: usize, owner: ThreadId) -> Abort {
        let abort = Abort::on_conflict(reason, var, owner);
        let Some(enemy) = self.rt.registry.get(owner) else {
            return abort;
        };
        let epoch = enemy.attempt_epoch();
        let snap = self.rt.orecs.at(idx).snapshot();
        if snap.locked_by_other(self.me) && snap.owner() == owner {
            abort.with_enemy_epoch(epoch)
        } else {
            abort
        }
    }

    /// One bounded-wait pause against a stripe held by `owner`. Under
    /// [`WaitPolicy::Parked`], the pause units that would blind-nap park on
    /// the owner's attempt epoch instead (same nap-length deadline): the
    /// owner finishing is exactly the event that frees the stripe, so the
    /// waiter wakes the moment progress is possible instead of oversleeping.
    fn contended_pause(&self, iteration: u32, owner: ThreadId) {
        let policy = self.rt.config.wait_policy;
        if policy == WaitPolicy::Parked && parked_nap_due(iteration) {
            if let Some(enemy) = self.rt.registry.get(owner) {
                if let Some(observed) = enemy.attempt_epoch_if_live() {
                    let _ = enemy.wait_attempt_change(observed, Instant::now() + PARK_NAP);
                    return;
                }
            }
        }
        pause(policy, iteration);
    }

    #[inline]
    fn check_kill(&self) -> TxResult<()> {
        if self.ctx.kill_pending() {
            let _ = self.ctx.take_kill_request();
            Err(Abort::new(AbortReason::Killed))
        } else {
            Ok(())
        }
    }

    /// Binds `tvar` to this runtime on first transactional use, or rejects
    /// the access when it is already bound to a different runtime (orec
    /// striping and retry waitlists are per-runtime; see
    /// [`TmError::ForeignTVar`](crate::error::TmError)).
    #[inline]
    fn check_owner<T>(&self, inner: &TVarInner<T>) -> TxResult<()> {
        match inner.bind_owner(self.rt.id) {
            Ok(()) => Ok(()),
            Err(owner) => {
                self.foreign.set(Some(ForeignAccess {
                    var: inner.id,
                    owner,
                }));
                Err(Abort::new(AbortReason::ForeignTVar))
            }
        }
    }

    /// The rejected cross-runtime access, when the last abort was
    /// [`AbortReason::ForeignTVar`].
    pub(crate) fn foreign_access(&self) -> Option<ForeignAccess> {
        self.foreign.get()
    }

    /// Transactionally reads `tvar`: a clone of what
    /// [`read_ref`](Tx::read_ref) would borrow (values stored inline are
    /// copied out of their seqlock instead).
    ///
    /// # Errors
    ///
    /// Aborts (for the retry loop to handle) on validation failure, lock
    /// wait timeout, or a contention-manager kill.
    pub fn read<T: TxValue>(&self, tvar: &TVar<T>) -> TxResult<T> {
        self.read_loaded(tvar).map(Loaded::into_owned)
    }

    /// Transactionally reads `tvar` by reference: the committed value, or
    /// this attempt's buffered write to it, borrowed for as long as the
    /// transaction is borrowed. The attempt's epoch pin keeps the value
    /// alive even if a concurrent commit replaces it; nothing is cloned and
    /// no reference count moves. A later [`write`](Tx::write) needs
    /// `&mut self`, so it ends every such borrow first.
    ///
    /// Only for types stored boxed (see [`TVar::uses_inline_storage`]);
    /// small dropless types are rejected at compile time, read them with
    /// [`read`](Tx::read):
    ///
    /// ```compile_fail
    /// use shrink_stm::{TmRuntime, TVar};
    ///
    /// let rt = TmRuntime::new();
    /// let v = TVar::new(1u64);
    /// rt.run(|tx| tx.read_ref(&v).copied());
    /// ```
    ///
    /// # Errors
    ///
    /// As [`read`](Tx::read).
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar};
    ///
    /// let rt = TmRuntime::new();
    /// let names = TVar::new(vec![String::from("ada"), String::from("bob")]);
    /// let longest = rt.run(|tx| {
    ///     let names = tx.read_ref(&names)?;
    ///     Ok(names.iter().map(String::len).max())
    /// });
    /// assert_eq!(longest, Some(3));
    /// ```
    pub fn read_ref<'a, T: TxValue>(&'a self, tvar: &'a TVar<T>) -> TxResult<&'a T> {
        self.read_loaded(tvar).map(Loaded::into_ref)
    }

    /// The read protocol: read-own-write, else a validated load of the
    /// committed value under the attempt's pin.
    fn read_loaded<'a, T: TxValue>(&'a self, tvar: &'a TVar<T>) -> TxResult<Loaded<'a, T>> {
        self.check_kill()?;
        self.check_owner(&tvar.inner)?;
        self.ctx.bump_accesses();
        let var = tvar.inner.id;

        // Read-own-write. The entry for `var` was created by `write::<T>`
        // on this very variable, so the downcast always matches.
        let buffered = self.write_index.get(&var).and_then(|&i| {
            self.write_log
                .get(i)?
                .as_any()
                .downcast_ref::<TypedWrite<T>>()
        });
        if let Some(w) = buffered {
            self.read_vars.push(var);
            self.rt.scheduler.on_read(&self.sched_ctx(), var);
            return Ok(Loaded::Borrowed(&w.value));
        }

        let idx = self.rt.orecs.index_of(var);
        let mut spins: u32 = 0;
        loop {
            self.check_kill()?;
            let orec = self.rt.orecs.at(idx);
            let s1 = orec.snapshot();

            if s1.locked_by(self.me) {
                // Stripe aliasing: I own the stripe through a write to some
                // other variable. Buffered writes install only at commit, so
                // the cell still holds the committed value, guarded by the
                // preserved pre-lock version.
                // No commit can reach a stripe this attempt holds, so unlike
                // the paths below the pair stays current across an extension.
                let value = tvar.inner.cell.load_in(&self.pin);
                if s1.version() > self.start_ts.get() {
                    self.extend()?;
                }
                self.record_read(idx, s1.version(), var);
                return Ok(value);
            }

            if s1.locked_by_other(self.me) {
                match self.rt.config.backend {
                    BackendKind::Swiss => {
                        if s1.committing() {
                            // Owner is installing values; wait briefly.
                            if spins >= READ_SPIN_BUDGET {
                                return Err(self.conflict(
                                    AbortReason::LockTimeout,
                                    var,
                                    idx,
                                    s1.owner(),
                                ));
                            }
                            self.contended_pause(spins, s1.owner());
                            spins += 1;
                            continue;
                        }
                        // Owner still executing: its writes are buffered, so
                        // the committed value is still in the cell.
                        let value = tvar.inner.cell.load_in(&self.pin);
                        let s2 = orec.snapshot();
                        if s2 != s1 {
                            spins += 1;
                            continue;
                        }
                        if s1.version() > self.start_ts.get() {
                            // Re-read after extending, as below.
                            self.extend()?;
                            spins += 1;
                            continue;
                        }
                        self.record_read(idx, s1.version(), var);
                        return Ok(value);
                    }
                    BackendKind::Tiny => {
                        // Encounter-time locking: busy-wait for the writer.
                        if spins >= LOCK_SPIN_BUDGET {
                            return Err(self.conflict(
                                AbortReason::LockTimeout,
                                var,
                                idx,
                                s1.owner(),
                            ));
                        }
                        self.contended_pause(spins, s1.owner());
                        spins += 1;
                        continue;
                    }
                }
            }

            // Unlocked: load, then confirm the orec did not move under us.
            let value = tvar.inner.cell.load_in(&self.pin);
            let s2 = orec.snapshot();
            if s2 != s1 {
                spins += 1;
                continue;
            }
            if s1.version() > self.start_ts.get() {
                // The extension proves the read log valid at a newer
                // timestamp, but `value`/`s1` were sampled before it read
                // the clock: a commit to this stripe in between would put a
                // stale entry under the new timestamp, and commit skips
                // revalidation when `commit_ts == start_ts + 1` — a lost
                // update if this attempt then writes the variable. Re-read
                // under the advanced timestamp instead (the same restart
                // `ReadTx` does, DESIGN.md §10.1).
                self.extend()?;
                spins += 1;
                continue;
            }
            self.record_read(idx, s1.version(), var);
            return Ok(value);
        }
    }

    #[inline]
    fn record_read(&self, orec: usize, version: u64, var: VarId) {
        self.read_log.push(ReadEntry { orec, version });
        self.read_vars.push(var);
        self.rt.scheduler.on_read(&self.sched_ctx(), var);
    }

    /// Transactionally writes `value` into `tvar`.
    ///
    /// The write lock is acquired immediately (visible writes); the value is
    /// buffered and installed at commit.
    ///
    /// # Errors
    ///
    /// Aborts on write/write conflict resolution against this transaction,
    /// lock wait timeout, or a contention-manager kill.
    pub fn write<T: TxValue>(&mut self, tvar: &TVar<T>, value: T) -> TxResult<()> {
        self.check_kill()?;
        self.check_owner(&tvar.inner)?;
        self.ctx.bump_accesses();
        let var = tvar.inner.id;

        if let Some(&i) = self.write_index.get(&var) {
            // Inside an or_else branch, overwriting an entry that predates
            // the branch must be undoable: save the pre-branch value once.
            if let Some(cp) = self.checkpoints.last_mut() {
                if i < cp.write_log_len && !cp.overwrites.iter().any(|(j, _)| *j == i) {
                    let saved = self.write_log[i].snapshot_entry();
                    cp.overwrites.push((i, saved));
                }
            }
            let w = self.write_log[i]
                .as_any_mut()
                .downcast_mut::<TypedWrite<T>>()
                .expect("write log entry type mismatch");
            w.value = value;
            return Ok(());
        }

        let idx = self.rt.orecs.index_of(var);
        if !self.owned_orecs.contains(&idx) {
            self.acquire_stripe(idx, var)?;
        }
        self.write_log.push(Box::new(TypedWrite {
            target: Arc::clone(&tvar.inner),
            value,
        }));
        self.write_index.insert(var, self.write_log.len() - 1);
        self.write_vars.push(var);
        self.rt.scheduler.on_write(&self.sched_ctx(), var);
        Ok(())
    }

    /// Reads, applies `f`, and writes back — the common read-modify-write.
    ///
    /// # Errors
    ///
    /// Propagates aborts from the underlying read and write.
    pub fn modify<T: TxValue>(&mut self, tvar: &TVar<T>, f: impl FnOnce(T) -> T) -> TxResult<()> {
        let current = self.read(tvar)?;
        self.write(tvar, f(current))
    }

    fn acquire_stripe(&mut self, idx: usize, var: VarId) -> TxResult<()> {
        if crate::failpoint!(FaultSite::OrecAcquire) {
            return Err(Abort::new(AbortReason::FaultInjected));
        }
        let mut spins: u32 = 0;
        let mut polite_attempts: u32 = 0;
        let mut requested_kill = false;
        let cm = self.rt.config.effective_cm();
        loop {
            self.check_kill()?;
            let orec = self.rt.orecs.at(idx);
            let s1 = orec.snapshot();

            if s1.locked_by_other(self.me) {
                let owner = s1.owner();
                let lose = |tx: &Self| tx.conflict(AbortReason::WriteConflict, var, idx, owner);
                match cm {
                    CmPolicy::BackendDefault => unreachable!("resolved by effective_cm"),
                    CmPolicy::Suicide => {
                        // Bounded busy-wait, then abort self.
                        if spins >= LOCK_SPIN_BUDGET {
                            return Err(lose(self));
                        }
                        self.contended_pause(spins, owner);
                        spins += 1;
                        continue;
                    }
                    CmPolicy::Polite => {
                        // Exponentially growing patience, then abort self.
                        if polite_attempts >= POLITE_RETRIES {
                            return Err(lose(self));
                        }
                        let patience = 16u32 << polite_attempts.min(10);
                        for i in 0..patience {
                            self.contended_pause(i, owner);
                        }
                        polite_attempts += 1;
                        continue;
                    }
                    CmPolicy::TwoPhase | CmPolicy::Karma => {
                        let my_work = self.ctx.accesses();
                        if cm == CmPolicy::TwoPhase && my_work <= CM_TIMID_THRESHOLD {
                            // Timid phase: young transactions lose quietly.
                            return Err(lose(self));
                        }
                        let victim = self.rt.registry.get(owner);
                        match victim {
                            Some(v) if v.accesses() < my_work => {
                                // Priority phase: I did more work; kill the
                                // owner and wait (bounded) for it to release.
                                if !requested_kill {
                                    v.request_kill();
                                    requested_kill = true;
                                }
                                if spins >= KILL_WAIT_BUDGET {
                                    return Err(lose(self));
                                }
                                self.contended_pause(spins, owner);
                                spins += 1;
                                continue;
                            }
                            _ => {
                                // Owner has priority (or vanished): I lose.
                                return Err(lose(self));
                            }
                        }
                    }
                }
            }

            if s1.locked() {
                // Owned by me but not in owned_orecs — impossible by
                // construction; treat as a racing snapshot and retry.
                spins += 1;
                continue;
            }

            if s1.version() > self.start_ts.get() {
                self.extend()?;
            }
            if orec.try_lock(s1, self.me) {
                self.ctx
                    .orec_acquires
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.owned_orecs.insert(idx);
                self.owned_order.push(idx);
                return Ok(());
            }
            spins += 1;
        }
    }

    /// Revalidates the read log and, on success, moves the snapshot forward
    /// to the current clock (TinySTM-style timestamp extension).
    fn extend(&self) -> TxResult<()> {
        let candidate = self.rt.clock.now();
        if self.read_log_valid() {
            self.start_ts.set(candidate);
            Ok(())
        } else {
            Err(Abort::new(AbortReason::ReadValidation))
        }
    }

    fn entry_valid(&self, entry: &ReadEntry, snap: OrecSnapshot) -> bool {
        if snap.locked_by(self.me) {
            snap.version() == entry.version
        } else if snap.locked_by_other(self.me) {
            // Swiss resolves read/write conflicts lazily: a lock whose owner
            // has not committed (version unchanged, not installing) does not
            // invalidate the read. Tiny is conservative.
            self.rt.config.backend == BackendKind::Swiss
                && !snap.committing()
                && snap.version() == entry.version
        } else {
            snap.version() == entry.version
        }
    }

    fn read_log_valid(&self) -> bool {
        self.read_log.with(|log| {
            log.iter()
                .all(|e| self.entry_valid(e, self.rt.orecs.at(e.orec).snapshot()))
        })
    }

    /// Attempts to commit. On success the buffered writes are installed and
    /// all locks released; on failure the caller must invoke
    /// [`rollback`](Tx::rollback).
    pub(crate) fn try_commit(&mut self) -> Result<(), Abort> {
        self.check_kill()?;
        if self.write_log.is_empty() {
            // Read-only: the incremental validation performed at each read
            // already guarantees a consistent snapshot.
            self.finished = true;
            return Ok(());
        }
        for &idx in &self.owned_order {
            self.rt.orecs.at(idx).begin_commit(self.me);
        }
        let commit_ts = self.rt.clock.tick();
        if commit_ts > self.start_ts.get() + 1 && !self.read_log_valid() {
            return Err(Abort::new(AbortReason::CommitValidation));
        }
        // Mid-commit hazard window: commit locks are held and validation
        // passed, but nothing is published yet — a panic or spurious abort
        // here rolls back cleanly (`unlock_abort` restores the pre-lock
        // versions). The install loop below is deliberately *not* a
        // failpoint: interrupting it would publish a torn write set.
        if crate::failpoint!(FaultSite::CommitInstall) {
            return Err(Abort::new(AbortReason::FaultInjected));
        }
        for w in &self.write_log {
            w.install();
        }
        for &idx in &self.owned_order {
            self.rt.orecs.at(idx).unlock_commit(self.me, commit_ts);
        }
        // The commit is durable once the version stamps above are released;
        // mark finished *before* waking waiters so a panic injected inside
        // the notify path cannot make the drop-rollback revert freshly
        // committed stripes.
        self.finished = true;
        // Wake transactions parked in `Tx::retry` on any stripe this commit
        // wrote — after the version stamps above, so a woken waiter always
        // observes the stripe moved (DESIGN.md §9).
        self.rt.retry_waits.notify_commit(&self.owned_order);
        Ok(())
    }

    /// Releases every held lock after a failed attempt.
    pub(crate) fn rollback(&mut self) {
        if self.finished {
            return;
        }
        // Delay-only site (this path runs during unwinds): widens the
        // window in which other threads observe the stripes still locked.
        let _ = crate::failpoint!(FaultSite::OrecRelease);
        for &idx in &self.owned_order {
            self.rt.orecs.at(idx).unlock_abort(self.me);
        }
        let _ = self.ctx.take_kill_request();
        self.finished = true;
    }

    /// Extracts the access logs for the scheduler hooks.
    pub(crate) fn take_logs(&mut self) -> (Vec<VarId>, Vec<VarId>) {
        (self.read_vars.take(), std::mem::take(&mut self.write_vars))
    }

    /// The `(stripe, observed version)` pairs a retrying attempt must park
    /// on: its validated read log, deduplicated by stripe. Taken after
    /// [`rollback`](Tx::rollback) — released stripes carry their pre-lock
    /// versions again, so the observed versions below are live.
    pub(crate) fn retry_wait_plan(&self) -> Vec<(usize, u64)> {
        let mut plan: Vec<(usize, u64)> = self
            .read_log
            .with(|log| log.iter().map(|e| (e.orec, e.version)).collect());
        plan.sort_unstable();
        // A consistent read log holds one version per stripe (a version
        // moving mid-attempt forces extend-or-abort), so stripe dedup is
        // lossless.
        plan.dedup_by_key(|&mut (orec, _)| orec);
        plan
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        // Panic safety: a body that unwinds must not leave stripes locked.
        self.rollback();
    }
}

impl fmt::Debug for Tx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tx")
            .field("thread", &self.me)
            .field("start_ts", &self.start_ts.get())
            .field("reads", &self.read_vars.len())
            .field("writes", &self.write_vars.len())
            .finish()
    }
}

/// The read capability shared by [`Tx`] and [`ReadTx`].
///
/// Code that only *reads* transactional state can be written once against
/// this trait and run both inside a full read-write transaction
/// ([`TmRuntime::run`](crate::TmRuntime::run)) and inside the lock-free
/// read-only mode ([`TmRuntime::read_only`](crate::TmRuntime::read_only)).
/// The workload crates use it to route their lookup/traversal operations
/// through either path.
///
/// The trait has generic methods, so it is not object-safe; take it as a
/// generic parameter (`fn lookup(tx: &mut impl TxRead, ...)`). A
/// `&mut Tx<'_>` reborrows into such a parameter unchanged, so existing
/// call sites keep compiling.
///
/// Both methods read through `&self`, so a traversal can hold borrowed
/// values from [`read_ref`](TxRead::read_ref) while it reads further.
///
/// # Examples
///
/// ```
/// use shrink_stm::{TmRuntime, TVar, TxRead, TxResult};
///
/// fn sum(tx: &mut impl TxRead, vars: &[TVar<u64>]) -> TxResult<u64> {
///     let mut total = 0;
///     for v in vars {
///         total += tx.read(v)?;
///     }
///     Ok(total)
/// }
///
/// let rt = TmRuntime::new();
/// let vars: Vec<TVar<u64>> = (1..=3).map(TVar::new).collect();
/// assert_eq!(rt.run(|tx| sum(tx, &vars)), 6); // read-write path
/// assert_eq!(rt.read_only(|tx| sum(tx, &vars)), 6); // lock-free path
/// ```
///
/// Following links by reference: each hop borrows the node in place, so
/// the walk clones nothing and moves no reference count.
///
/// ```
/// use shrink_stm::{TmRuntime, TVar, TxRead, TxResult};
///
/// #[derive(Clone)]
/// struct Link {
///     item: u64,
///     next: Option<TVar<Link>>,
/// }
///
/// fn total(tx: &impl TxRead, head: &TVar<Link>) -> TxResult<u64> {
///     let mut sum = 0;
///     let mut cur = Some(head);
///     while let Some(var) = cur {
///         let link = tx.read_ref(var)?;
///         sum += link.item;
///         cur = link.next.as_ref();
///     }
///     Ok(sum)
/// }
///
/// let rt = TmRuntime::new();
/// let tail = TVar::new(Link { item: 2, next: None });
/// let head = TVar::new(Link { item: 1, next: Some(tail) });
/// assert_eq!(rt.read_only(|tx| total(tx, &head)), 3);
/// ```
pub trait TxRead {
    /// Transactionally reads `tvar`: a clone of what
    /// [`read_ref`](TxRead::read_ref) would borrow, or a copy out of the
    /// inline seqlock for small dropless types.
    ///
    /// # Errors
    ///
    /// Aborts (for the owning retry loop to handle) when the read cannot be
    /// added to a consistent snapshot.
    fn read<T: TxValue>(&self, tvar: &TVar<T>) -> TxResult<T>;

    /// Transactionally reads `tvar` by reference, borrowed for as long as
    /// the transaction is. The attempt's epoch pin keeps the value alive;
    /// no clone, no reference-count change. Types stored inline are
    /// rejected at compile time (see [`Tx::read_ref`]).
    ///
    /// # Errors
    ///
    /// As [`read`](TxRead::read).
    fn read_ref<'a, T: TxValue>(&'a self, tvar: &'a TVar<T>) -> TxResult<&'a T>;

    /// What this transaction declared itself to be.
    fn kind(&self) -> TxnKind;

    /// The id of the thread running this transaction.
    fn thread(&self) -> ThreadId;

    /// The snapshot timestamp the attempt currently validates against.
    fn start_timestamp(&self) -> u64;

    /// Requests an abort-and-restart of this attempt.
    ///
    /// # Errors
    ///
    /// Always returns `Err` with [`AbortReason::UserRestart`].
    fn restart<T>(&self) -> TxResult<T> {
        Err(Abort::new(AbortReason::UserRestart))
    }
}

impl TxRead for Tx<'_> {
    fn read<T: TxValue>(&self, tvar: &TVar<T>) -> TxResult<T> {
        Tx::read(self, tvar)
    }

    fn read_ref<'a, T: TxValue>(&'a self, tvar: &'a TVar<T>) -> TxResult<&'a T> {
        Tx::read_ref(self, tvar)
    }

    fn kind(&self) -> TxnKind {
        TxnKind::ReadWrite
    }

    fn thread(&self) -> ThreadId {
        Tx::thread(self)
    }

    fn start_timestamp(&self) -> u64 {
        Tx::start_timestamp(self)
    }
}

/// A lock-free read-only transaction attempt, handed to the body closure by
/// [`TmRuntime::read_only`](crate::TmRuntime::read_only).
///
/// The protocol is the read half of TL2, with everything writer-facing
/// removed:
///
/// * the global clock is sampled **once** at begin (`start_ts`);
/// * every read snapshots the guarding orec, loads the value through the
///   lock-free `ValueCell::load_in` path under
///   the attempt's epoch pin, and re-snapshots to confirm the stripe did
///   not move;
/// * a version newer than `start_ts` triggers a timestamp extension
///   (revalidate the whole read log against the current clock); a
///   successful extension **re-reads the stripe** under the advanced
///   timestamp (the pre-extension value may predate a commit the
///   extension slid past); a failed extension restarts the body with a
///   fresh snapshot.
///
/// What a `ReadTx` **never** does: acquire an orec (no write lock, no CAS
/// on shared state), take a commit ticket (`GlobalClock::tick`), register
/// on a retry waitlist, or request a kill. Writers cannot observe it, so it
/// can never abort one — and no writer can *force* it to block; invalidated
/// snapshots restart quietly inside `read_only`, invisible to the
/// schedulers. The mode is **lock-free, not wait-free**: every retry path
/// inside a single read is bounded by `READ_SPIN_BUDGET`, but each restart
/// is caused by a writer *committing*, so the system makes progress while
/// an individual reader can in principle starve under a saturating writer
/// stream.
///
/// Unlike the read-write path, reads go *through* non-committing write
/// locks on **both** backends (not just Swiss): buffered writes install
/// only during the `committing` window, so a locked-but-not-committing
/// stripe still guards the committed value under its pre-lock version. The
/// only state a reader must wait out is `committing` itself, and that wait
/// — like the snapshot-moved and extension retry paths — is bounded by
/// `READ_SPIN_BUDGET` before the reader restarts.
pub struct ReadTx<'rt> {
    rt: &'rt RuntimeInner,
    me: ThreadId,
    start_ts: Cell<u64>,
    read_log: Log<ReadEntry>,
    /// Reads performed by this attempt (flushed to `ThreadCtx::ro_reads`).
    reads: Cell<u64>,
    /// Timestamp extensions performed by this attempt (flushed to
    /// `ThreadCtx::ro_revalidations`; restarts are counted by the driver).
    revalidations: Cell<u64>,
    /// Set when the body touched a `TVar` bound to another runtime.
    foreign: Cell<Option<ForeignAccess>>,
    /// The attempt's epoch pin (see [`Tx`]).
    pin: AttemptPin,
}

impl<'rt> ReadTx<'rt> {
    pub(crate) fn begin(rt: &'rt RuntimeInner, me: ThreadId) -> Self {
        ReadTx {
            rt,
            me,
            start_ts: Cell::new(rt.clock.now()),
            read_log: Log::new(),
            reads: Cell::new(0),
            revalidations: Cell::new(0),
            foreign: Cell::new(None),
            pin: AttemptPin::default(),
        }
    }

    /// The rejected cross-runtime access, when the last abort was
    /// [`AbortReason::ForeignTVar`].
    pub(crate) fn foreign_access(&self) -> Option<ForeignAccess> {
        self.foreign.get()
    }

    /// The id of the thread running this transaction.
    pub fn thread(&self) -> ThreadId {
        self.me
    }

    /// The snapshot timestamp the attempt currently validates against.
    pub fn start_timestamp(&self) -> u64 {
        self.start_ts.get()
    }

    /// Number of reads performed by this attempt.
    pub fn read_count(&self) -> usize {
        self.read_log.len()
    }

    /// Requests a restart of this attempt with a fresh snapshot.
    ///
    /// # Errors
    ///
    /// Always returns `Err` with [`AbortReason::UserRestart`].
    pub fn restart<T>(&self) -> TxResult<T> {
        Err(Abort::new(AbortReason::UserRestart))
    }

    /// Reads `tvar` as part of the lock-free snapshot: a clone of what
    /// [`read_ref`](ReadTx::read_ref) would borrow (values stored inline
    /// are copied out of their seqlock instead).
    ///
    /// # Errors
    ///
    /// Aborts with [`AbortReason::ReadValidation`] when the value cannot be
    /// added to a consistent snapshot (a concurrent writer moved part of
    /// the read set, or a committing installer outlasted the spin budget).
    /// [`TmRuntime::read_only`](crate::TmRuntime::read_only) catches this
    /// and restarts the body; it never surfaces to user code.
    pub fn read<T: TxValue>(&self, tvar: &TVar<T>) -> TxResult<T> {
        self.read_loaded(tvar).map(Loaded::into_owned)
    }

    /// Reads `tvar` by reference as part of the lock-free snapshot: the
    /// value stays borrowed, alive under the attempt's epoch pin, for as
    /// long as the transaction is borrowed. Nothing is cloned and no
    /// shared cache line is written. Types stored inline are rejected at
    /// compile time, as for [`Tx::read_ref`].
    ///
    /// # Errors
    ///
    /// As [`read`](ReadTx::read).
    pub fn read_ref<'a, T: TxValue>(&'a self, tvar: &'a TVar<T>) -> TxResult<&'a T> {
        self.read_loaded(tvar).map(Loaded::into_ref)
    }

    /// The snapshot read protocol (DESIGN.md §10.1).
    fn read_loaded<'a, T: TxValue>(&'a self, tvar: &'a TVar<T>) -> TxResult<Loaded<'a, T>> {
        // A foreign read would validate against the wrong runtime's orec
        // table — a torn multi-variable snapshot, not just a lost wakeup —
        // so the owner stamp is enforced on this path too.
        if let Err(owner) = tvar.inner.bind_owner(self.rt.id) {
            self.foreign.set(Some(ForeignAccess {
                var: tvar.inner.id,
                owner,
            }));
            return Err(Abort::new(AbortReason::ForeignTVar));
        }
        self.reads.set(self.reads.get() + 1);
        let idx = self.rt.orecs.index_of(tvar.inner.id);
        let mut spins: u32 = 0;
        loop {
            let orec = self.rt.orecs.at(idx);
            let s1 = orec.snapshot();
            if s1.committing() {
                // The owner is installing values right now — the only
                // window where the cell may hold uncommitted data. Grant it
                // a bounded wait, then restart rather than lock or kill.
                if spins >= READ_SPIN_BUDGET {
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
                pause(self.rt.config.wait_policy, spins);
                spins += 1;
                continue;
            }
            // Unlocked, or locked but not yet committing: the committed
            // value is still in the cell, guarded by the pre-lock version.
            let value = tvar.inner.cell.load_in(&self.pin);
            let s2 = orec.snapshot();
            if s2 != s1 {
                if spins >= READ_SPIN_BUDGET {
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
                spins += 1;
                continue;
            }
            if s1.version() > self.start_ts.get() {
                self.extend()?;
                // The extension proved the read log consistent at the new
                // timestamp, but `value`/`s1` were sampled *before* extend
                // read the clock — a writer may have committed to this very
                // stripe in between, which the extension cannot see (the
                // entry is not in the read log yet). Re-snapshot and
                // re-load under the advanced timestamp (TinySTM's
                // goto-restart) instead of admitting a possibly stale pair.
                if spins >= READ_SPIN_BUDGET {
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
                spins += 1;
                continue;
            }
            self.read_log.push(ReadEntry {
                orec: idx,
                version: s1.version(),
            });
            return Ok(value);
        }
    }

    /// Revalidates the read log and, on success, moves the snapshot forward
    /// to the current clock — the same timestamp extension as the
    /// read-write path, minus any own-lock cases (a `ReadTx` holds none).
    fn extend(&self) -> TxResult<()> {
        self.revalidations.set(self.revalidations.get() + 1);
        let candidate = self.rt.clock.now();
        let valid = self.read_log.with(|log| {
            log.iter().all(|e| {
                let snap = self.rt.orecs.at(e.orec).snapshot();
                !snap.committing() && snap.version() == e.version
            })
        });
        if valid {
            self.start_ts.set(candidate);
            Ok(())
        } else {
            Err(Abort::new(AbortReason::ReadValidation))
        }
    }

    /// The per-attempt counters, for the driver to flush into `ThreadCtx`.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.reads.get(), self.revalidations.get())
    }
}

impl TxRead for ReadTx<'_> {
    fn read<T: TxValue>(&self, tvar: &TVar<T>) -> TxResult<T> {
        ReadTx::read(self, tvar)
    }

    fn read_ref<'a, T: TxValue>(&'a self, tvar: &'a TVar<T>) -> TxResult<&'a T> {
        ReadTx::read_ref(self, tvar)
    }

    fn kind(&self) -> TxnKind {
        TxnKind::ReadOnly
    }

    fn thread(&self) -> ThreadId {
        ReadTx::thread(self)
    }

    fn start_timestamp(&self) -> u64 {
        ReadTx::start_timestamp(self)
    }
}

impl fmt::Debug for ReadTx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadTx")
            .field("thread", &self.me)
            .field("start_ts", &self.start_ts.get())
            .field("reads", &self.read_log.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    use super::*;
    use crate::runtime::{quiesce, TmRuntime};

    /// Walks `parent → child` by reference and reports whether both
    /// handles' reference counts still read `expected` while borrowed.
    fn walk_keeps_counts(
        tx: &impl TxRead,
        parent: &TVar<Option<TVar<String>>>,
        expected: (usize, usize),
    ) -> TxResult<bool> {
        let link = tx.read_ref(parent)?.as_ref().expect("linked");
        let leaf = tx.read_ref(link)?;
        let counts = (
            Arc::strong_count(&parent.inner),
            Arc::strong_count(&link.inner),
        );
        Ok(leaf == "leaf" && counts == expected)
    }

    #[test]
    fn read_ref_moves_no_reference_count() {
        let rt = TmRuntime::new();
        let child = TVar::new(String::from("leaf"));
        let parent = TVar::new(Some(child.clone()));
        let counts = (
            Arc::strong_count(&parent.inner),
            Arc::strong_count(&child.inner),
        );
        assert!(rt.read_only(|tx| walk_keeps_counts(tx, &parent, counts)));
        assert!(rt.run(|tx| walk_keeps_counts(tx, &parent, counts)));

        // The owned read, by contrast, clones the embedded child handle.
        let while_cloned = rt.read_only(|tx| {
            let owned = tx.read(&parent)?;
            Ok(owned.map(|c| Arc::strong_count(&c.inner)))
        });
        assert_eq!(while_cloned, Some(counts.1 + 1));
    }

    /// A value that records its own drop. A clone gets a fresh flag, so an
    /// instance's flag flips only when that very instance is destroyed.
    struct Canary {
        id: u64,
        dropped: Arc<AtomicBool>,
    }

    impl Canary {
        fn new(id: u64) -> Self {
            Canary {
                id,
                dropped: Arc::new(AtomicBool::new(false)),
            }
        }
    }

    impl Clone for Canary {
        fn clone(&self) -> Self {
            Canary::new(self.id)
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    /// Borrows the canary, has another thread commit a replacement, drives
    /// reclamation hard, and checks the borrowed instance is still alive.
    fn hold_across_replacement(
        tx: &impl TxRead,
        rt: &TmRuntime,
        var: &TVar<Canary>,
    ) -> TxResult<(u64, Arc<AtomicBool>)> {
        let held = tx.read_ref(var)?;
        std::thread::scope(|s| {
            s.spawn(|| rt.run(|w| w.write(var, Canary::new(held.id + 1))));
        });
        for _ in 0..16 {
            quiesce();
        }
        assert!(
            !held.dropped.load(Ordering::SeqCst),
            "a borrowed value was reclaimed inside its attempt"
        );
        Ok((held.id, Arc::clone(&held.dropped)))
    }

    /// Reclamation waits for every pinned thread to move on, sibling
    /// tests' attempts included: flush until the flag flips or time is up.
    fn reclaimed(dropped: &AtomicBool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !dropped.load(Ordering::SeqCst) && Instant::now() < deadline {
            quiesce();
            std::thread::yield_now();
        }
        dropped.load(Ordering::SeqCst)
    }

    #[test]
    fn borrowed_value_outlives_its_replacement_until_the_attempt_ends() {
        let rt = TmRuntime::new();
        let var = TVar::new(Canary::new(1));

        let (id, dropped) = rt.read_only(|tx| hold_across_replacement(tx, &rt, &var));
        assert_eq!(id, 1);
        assert!(
            reclaimed(&dropped),
            "read_only: not reclaimed after the attempt"
        );

        let (id, dropped) = rt.run(|tx| hold_across_replacement(tx, &rt, &var));
        assert_eq!(id, 2);
        assert!(reclaimed(&dropped), "run: not reclaimed after the attempt");
    }

    #[test]
    fn read_ref_sees_buffered_writes_and_or_else_rollback() {
        let rt = TmRuntime::new();
        let v = TVar::new(String::from("committed"));
        let got = rt.run(|tx| {
            assert_eq!(tx.read_ref(&v)?, "committed");
            tx.write(&v, String::from("first"))?;
            assert_eq!(tx.read_ref(&v)?, "first");
            tx.or_else(
                |tx| {
                    tx.write(&v, String::from("branch"))?;
                    assert_eq!(tx.read_ref(&v)?, "branch");
                    tx.retry()
                },
                |tx| Ok(tx.read_ref(&v)?.clone()),
            )
        });
        assert_eq!(got, "first", "the retried branch's write must be undone");
        assert_eq!(v.snapshot(), "first");
    }
}
