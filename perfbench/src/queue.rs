//! `queue-async`: producer and consumer tasks over one small `TxQueue`,
//! driven through `atomically_async` on a 2-worker executor.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

use futures::executor::ThreadPool;
use shrink_core::SchedulerKind;
use shrink_stm::future::atomically_async;
use shrink_stm::{BackendKind, TmRuntime, TxScheduler, WaitPolicy};
use shrink_workloads::TxQueue;

use crate::harness::{
    key_counts, sample_windows, timed, Mode, PhaseOut, Snap, IN_FLIGHT, PROGRESS, WINDOW_S,
};
use crate::hist::Hist;
use crate::sched::Traced;
use crate::trace::{self, Agg, Kind, OpState};

pub const WORKERS: usize = 2;
const PRODUCERS: usize = 16;
const CONSUMERS: usize = 256;
const CAPACITY: usize = 8;
/// Pushed once per consumer after the timed phase to end it.
const POISON: u64 = u64::MAX;

/// Drives one operation future: counts its polls, carries its trace state
/// across polls (an async operation hops threads between them), and turns
/// a panic inside `poll` into a failed operation.
struct Op<F> {
    inner: F,
    traced: bool,
    started: bool,
    id: u64,
    root: Kind,
    st: Option<OpState>,
}

impl<F: Future + Unpin> Future for Op<F> {
    type Output = (Result<F::Output, ()>, OpState);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if this.traced {
            let st = this.st.take().expect("op state");
            if this.started {
                trace::resume(st);
            } else {
                trace::begin(st, this.id, this.root, trace::now());
                this.started = true;
            }
            trace::poll();
        }
        let r = catch_unwind(AssertUnwindSafe(|| Pin::new(&mut this.inner).poll(cx)));
        let done = |traced: bool| {
            if traced {
                trace::end(trace::now())
            } else {
                OpState::default()
            }
        };
        match r {
            Ok(Poll::Pending) => {
                if this.traced {
                    this.st = trace::suspend();
                }
                Poll::Pending
            }
            Ok(Poll::Ready(v)) => Poll::Ready((Ok(v), done(this.traced))),
            Err(_) => Poll::Ready((Err(()), done(this.traced))),
        }
    }
}

/// Shared state of one phase's tasks.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    produced: AtomicU64,
    produced_sum: AtomicU64,
    consumed: AtomicU64,
    consumed_sum: AtomicU64,
    failed: AtomicU64,
    finished_producers: AtomicU64,
    finished_consumers: AtomicU64,
    /// Current sampling window.
    cur: AtomicUsize,
    /// Untraced: delivery (pop) latency per window. Traced: the span
    /// aggregate.
    lat: Mutex<Vec<Hist>>,
    agg: Mutex<Agg>,
}

pub struct Queue {
    rt: TmRuntime,
    wrapper: Option<Arc<Traced>>,
    pool: ThreadPool,
    queue: Arc<TxQueue<u64>>,
    /// Counts and value sums of everything produced and consumed so far.
    totals: [u64; 4],
}

impl Queue {
    pub fn setup(traced: bool) -> Self {
        let kind = SchedulerKind::Noop;
        let wrapper = traced.then(|| Arc::new(Traced::new(&kind)));
        let sched: Arc<dyn TxScheduler> = match &wrapper {
            Some(w) => w.clone(),
            None => kind.build(),
        };
        let rt = TmRuntime::builder()
            .backend(BackendKind::Swiss)
            .wait_policy(WaitPolicy::Preemptive)
            .scheduler_arc(sched)
            .build();
        let pool = ThreadPool::builder()
            .pool_size(WORKERS)
            .name_prefix("queue-worker-")
            .create()
            .expect("executor workers");
        Queue {
            rt,
            wrapper,
            pool,
            queue: Arc::new(TxQueue::new(CAPACITY)),
            totals: [0; 4],
        }
    }

    pub fn run<M: Mode>(&mut self, seconds: f64, seed: u64) -> PhaseOut {
        let sh = Arc::new(Shared {
            lat: Mutex::new(vec![
                Hist::default();
                (seconds / WINDOW_S).ceil() as usize + 1
            ]),
            ..Shared::default()
        });
        let before = Snap::take(std::slice::from_ref(&self.rt), None);
        IN_FLIGHT.store((PRODUCERS + CONSUMERS) as u64, Ordering::Relaxed);
        for p in 0..PRODUCERS {
            let (rt, q, sh) = (self.rt.clone(), self.queue.clone(), sh.clone());
            let seed = seed ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.pool.spawn_ok(produce::<M>(rt, q, sh, p, seed));
        }
        for c in 0..CONSUMERS {
            let (rt, q, sh) = (self.rt.clone(), self.queue.clone(), sh.clone());
            self.pool.spawn_ok(consume::<M>(rt, q, sh, PRODUCERS + c));
        }
        let (windows, ctxt) = sample_windows(
            seconds,
            &sh.cur,
            || false,
            || sh.consumed.load(Ordering::Relaxed),
        );
        let ctxt_ops = sh.consumed.load(Ordering::Relaxed);
        sh.stop.store(true, Ordering::Relaxed);
        let snap = Snap::take(std::slice::from_ref(&self.rt), None).since(&before);
        wait_until(|| sh.finished_producers.load(Ordering::Acquire) == PRODUCERS as u64);
        // One poison pill per consumer ends the consumers once the queue
        // has drained.
        for _ in 0..CONSUMERS {
            self.rt.run(|tx| self.queue.push(tx, POISON));
        }
        wait_until(|| sh.finished_consumers.load(Ordering::Acquire) == CONSUMERS as u64);
        IN_FLIGHT.store(0, Ordering::Relaxed);

        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let pops = load(&sh.consumed) + CONSUMERS as u64;
        let failed = load(&sh.failed);
        for (t, v) in self.totals.iter_mut().zip([
            &sh.produced,
            &sh.produced_sum,
            &sh.consumed,
            &sh.consumed_sum,
        ]) {
            *t = t.wrapping_add(load(v));
        }
        let lat = std::mem::take(&mut *sh.lat.lock().expect("latency lock"));
        let agg = std::mem::take(&mut *sh.agg.lock().expect("trace lock"));
        PhaseOut {
            attempted: load(&sh.produced) + pops + failed,
            failed,
            windows,
            lat,
            ctxt,
            ctxt_ops,
            agg,
            snap,
            extra: Vec::new(),
            keys: key_counts(self.wrapper.as_slice()),
        }
    }

    /// Everything produced was consumed, by count and by value sum, and the
    /// queue is empty.
    pub fn check(&self) -> Result<(), String> {
        let [produced, produced_sum, consumed, consumed_sum] = self.totals;
        if produced != consumed || produced_sum != consumed_sum {
            return Err(format!(
                "queue lost or invented items: produced {produced} (sum {produced_sum}), \
                 consumed {consumed} (sum {consumed_sum})"
            ));
        }
        let left = self.rt.run(|tx| self.queue.len(tx));
        if left != 0 {
            return Err(format!("{left} items left in the queue"));
        }
        Ok(())
    }
}

fn wait_until(done: impl Fn() -> bool) {
    while !done() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs one transaction as an operation and folds its trace.
async fn op<M: Mode, T, F>(
    fut: F,
    sh: &Shared,
    id: u64,
    root: Kind,
    st: &mut Option<OpState>,
) -> Result<T, ()>
where
    F: Future<Output = T> + Unpin,
{
    let t0 = trace::now();
    let (r, done) = Op {
        inner: fut,
        traced: M::ON,
        started: false,
        id,
        root,
        st: Some(st.take().unwrap_or_default()),
    }
    .await;
    if M::ON {
        sh.agg.lock().expect("trace lock").fold(&done);
    } else if root == Kind::Op && r.is_ok() {
        let mut lat = sh.lat.lock().expect("latency lock");
        let w = sh.cur.load(Ordering::Relaxed).min(lat.len() - 1);
        lat[w].record(trace::now() - t0);
    }
    *st = Some(done);
    if r.is_err() {
        sh.failed.fetch_add(1, Ordering::Relaxed);
    }
    r
}

async fn produce<M: Mode>(
    rt: TmRuntime,
    q: Arc<TxQueue<u64>>,
    sh: Arc<Shared>,
    task: usize,
    seed: u64,
) {
    let mut s = seed | 1;
    let mut st = None;
    let mut n = 0u64;
    while !sh.stop.load(Ordering::Relaxed) {
        // xorshift: a deterministic value stream per producer, below the
        // poison value.
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let v = s >> 1;
        let id = ((task as u64) << 48) | n;
        n += 1;
        let q2 = q.clone();
        let fut = atomically_async(&rt, timed::<M, _>(move |tx| q2.push(tx, v)));
        if op::<M, _, _>(fut, &sh, id, Kind::OpPush, &mut st)
            .await
            .is_ok()
        {
            sh.produced.fetch_add(1, Ordering::Relaxed);
            sh.produced_sum.fetch_add(v, Ordering::Relaxed);
        }
    }
    sh.finished_producers.fetch_add(1, Ordering::Release);
}

async fn consume<M: Mode>(rt: TmRuntime, q: Arc<TxQueue<u64>>, sh: Arc<Shared>, task: usize) {
    let mut st = None;
    let mut n = 0u64;
    loop {
        let id = ((task as u64) << 48) | n;
        n += 1;
        let q2 = q.clone();
        let fut = atomically_async(&rt, timed::<M, _>(move |tx| q2.pop(tx)));
        match op::<M, _, _>(fut, &sh, id, Kind::Op, &mut st).await {
            Ok(POISON) => break,
            Ok(v) => {
                sh.consumed.fetch_add(1, Ordering::Relaxed);
                sh.consumed_sum.fetch_add(v, Ordering::Relaxed);
                if n.is_multiple_of(16) {
                    PROGRESS.fetch_add(16, Ordering::Relaxed);
                }
            }
            Err(()) => {}
        }
    }
    sh.finished_consumers.fetch_add(1, Ordering::Release);
}
