//! The scheduler wrapper: times every hook of the workload's scheduler from
//! outside, through the public `TxScheduler` trait, and forwards each call
//! unchanged.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shrink_core::{SchedulerKind, Shrink};
use shrink_stm::{Abort, SchedCtx, ThreadId, TxScheduler, VarId};

use crate::trace::{self, Outcome};

/// One commit in this many has its access set sampled for the key-share
/// report.
const KEY_SAMPLE_EVERY: u64 = 16;

pub struct Traced {
    inner: Arc<dyn TxScheduler>,
    /// Kept typed so serialization can be attributed to the attempt that
    /// paid for it.
    shrink: Option<Arc<Shrink>>,
    commits_seen: AtomicU64,
    keys: Mutex<HashMap<u64, u64>>,
}

impl fmt::Debug for Traced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Traced")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl Traced {
    fn with(inner: Arc<dyn TxScheduler>, shrink: Option<Arc<Shrink>>) -> Self {
        Traced {
            inner,
            shrink,
            commits_seen: AtomicU64::new(0),
            keys: Mutex::new(HashMap::new()),
        }
    }

    pub fn new(kind: &SchedulerKind) -> Self {
        Self::with(kind.build(), None)
    }

    pub fn shrink(shrink: Arc<Shrink>) -> Self {
        Self::with(shrink.clone(), Some(shrink))
    }

    /// Access counts of the sampled commits, by variable.
    pub fn key_counts(&self) -> HashMap<u64, u64> {
        self.keys.lock().expect("key sampler poisoned").clone()
    }

    fn serialized_total(&self) -> u64 {
        self.shrink
            .as_ref()
            .map_or(0, |s| s.prediction_stats().serialized)
    }
}

impl TxScheduler for Traced {
    fn on_thread_register(&self, thread: ThreadId) {
        self.inner.on_thread_register(thread);
    }

    fn before_start(&self, ctx: &SchedCtx<'_>) {
        let ro = ctx.kind.is_read_only();
        // Shrink never serializes a read-only transaction, so only
        // read-write admissions pay for the stats read.
        let track = !ro && self.shrink.is_some();
        let before = if track { self.serialized_total() } else { 0 };
        let t_in = trace::now();
        self.inner.before_start(ctx);
        let t_out = trace::now();
        let serialized = track && self.serialized_total() > before;
        trace::before_start(ro, t_in, t_out, serialized);
    }

    fn on_read(&self, ctx: &SchedCtx<'_>, var: VarId) {
        trace::access();
        self.inner.on_read(ctx, var);
    }

    fn on_write(&self, ctx: &SchedCtx<'_>, var: VarId) {
        trace::access();
        self.inner.on_write(ctx, var);
    }

    fn on_commit(&self, ctx: &SchedCtx<'_>, reads: &[VarId], writes: &[VarId]) {
        let t_in = trace::now();
        self.inner.on_commit(ctx, reads, writes);
        let t_out = trace::now();
        let outcome = if ctx.kind.is_read_only() {
            Outcome::CommitRo
        } else {
            Outcome::Commit
        };
        trace::complete(outcome, reads.len(), writes.len(), t_in, t_out);
        if !ctx.kind.is_read_only()
            && self
                .commits_seen
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(KEY_SAMPLE_EVERY)
        {
            let mut keys = self.keys.lock().expect("key sampler poisoned");
            for v in reads.iter().chain(writes) {
                *keys.entry(v.as_u64()).or_insert(0) += 1;
            }
        }
    }

    fn on_abort(&self, ctx: &SchedCtx<'_>, abort: &Abort, reads: &[VarId], writes: &[VarId]) {
        let t_in = trace::now();
        self.inner.on_abort(ctx, abort, reads, writes);
        let t_out = trace::now();
        let outcome = Outcome::Abort(abort.reason());
        trace::complete(outcome, reads.len(), writes.len(), t_in, t_out);
    }

    fn on_retry_wait(&self, ctx: &SchedCtx<'_>, reads: &[VarId], writes: &[VarId]) {
        let t_in = trace::now();
        self.inner.on_retry_wait(ctx, reads, writes);
        let t_out = trace::now();
        trace::complete(Outcome::Retry, reads.len(), writes.len(), t_in, t_out);
    }

    fn on_reset(&self, ctx: &SchedCtx<'_>) {
        self.inner.on_reset(ctx);
        trace::reset(trace::now());
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrink_stm::{TVar, TmRuntime};
    use std::time::{Duration, Instant};

    #[derive(Clone, Copy, Debug)]
    enum Hook {
        BeforeStart,
        Read,
        Write,
        Commit,
        Abort,
        RetryWait,
        Reset,
    }

    /// Counts what reaches the wrapped scheduler.
    #[derive(Debug, Default)]
    struct Counting([AtomicU64; 7]);

    impl Counting {
        fn hit(&self, h: Hook) {
            self.0[h as usize].fetch_add(1, Ordering::Relaxed);
        }

        fn count(&self, h: Hook) -> u64 {
            self.0[h as usize].load(Ordering::Relaxed)
        }
    }

    impl TxScheduler for Counting {
        fn before_start(&self, _: &SchedCtx<'_>) {
            self.hit(Hook::BeforeStart);
        }
        fn on_read(&self, _: &SchedCtx<'_>, _: VarId) {
            self.hit(Hook::Read);
        }
        fn on_write(&self, _: &SchedCtx<'_>, _: VarId) {
            self.hit(Hook::Write);
        }
        fn on_commit(&self, _: &SchedCtx<'_>, _: &[VarId], _: &[VarId]) {
            self.hit(Hook::Commit);
        }
        fn on_abort(&self, _: &SchedCtx<'_>, _: &Abort, _: &[VarId], _: &[VarId]) {
            self.hit(Hook::Abort);
        }
        fn on_retry_wait(&self, _: &SchedCtx<'_>, _: &[VarId], _: &[VarId]) {
            self.hit(Hook::RetryWait);
        }
        fn on_reset(&self, _: &SchedCtx<'_>) {
            self.hit(Hook::Reset);
        }
        fn name(&self) -> &str {
            "counting"
        }
    }

    #[test]
    fn wrapper_forwards_every_hook_and_the_name() {
        assert_eq!(Traced::new(&SchedulerKind::Pool).name(), "pool");
        assert_eq!(
            Traced::shrink(Arc::new(Shrink::new(Default::default()))).name(),
            "shrink"
        );

        let inner = Arc::new(Counting::default());
        let w = Arc::new(Traced::with(inner.clone(), None));
        assert_eq!(w.name(), "counting");
        let rt = TmRuntime::builder().scheduler_arc(w.clone()).build();
        let v = TVar::new(0u64);
        for _ in 0..10 {
            rt.run(|tx| tx.modify(&v, |x| x + 1));
        }
        for _ in 0..5 {
            rt.read_only(|tx| tx.read(&v));
        }
        let mut tries = 0;
        rt.run(|tx| {
            tries += 1;
            if tries <= 2 {
                return tx.restart();
            }
            tx.write(&v, 0)
        });
        let waited = rt.run_with_deadline(Instant::now() + Duration::from_millis(20), |tx| {
            if tx.read(&v)? == 0 {
                return tx.retry();
            }
            Ok(())
        });
        assert!(waited.is_err(), "nothing ever satisfies the predicate");

        let s = rt.stats();
        assert_eq!((s.commits, s.aborts, s.ro_commits), (11, 2, 5));
        assert!(s.retry_waits >= 1);
        assert_eq!(
            inner.count(Hook::BeforeStart),
            s.commits + s.aborts + s.retry_waits + s.ro_commits
        );
        assert_eq!(inner.count(Hook::Commit), s.commits + s.ro_commits);
        assert_eq!(inner.count(Hook::Abort), s.aborts);
        assert_eq!(inner.count(Hook::RetryWait), s.retry_waits);

        // A panicking body abandons its attempt through on_reset.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|tx| -> shrink_stm::TxResult<()> {
                tx.read(&v)?;
                panic!("body fails")
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(inner.count(Hook::Reset), 1);

        for h in [
            Hook::BeforeStart,
            Hook::Read,
            Hook::Write,
            Hook::Commit,
            Hook::Abort,
            Hook::RetryWait,
            Hook::Reset,
        ] {
            assert!(
                inner.count(h) > 0,
                "{h:?} never reached the wrapped scheduler"
            );
        }
    }
}
