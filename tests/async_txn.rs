//! Async transactions (`atomically_async`, DESIGN.md §12): the poll/retry
//! state machine driven *by hand* with a counting waker, so every edge is
//! deterministic:
//!
//! * **suspension** — a blocked `Tx::retry` registers exactly one parker
//!   and returns `Pending` without waking anyone;
//! * **wake delivery** — the committing writer delivers exactly one wake,
//!   and the next poll resumes and completes;
//! * **cancellation** — dropping a suspended future deregisters its parker
//!   (waiter count back to zero), leaves no stray wake for a later commit,
//!   and reports the abandonment to the scheduler through `on_reset`;
//! * **wake/drop race** — dropping after the wake fired but before the
//!   re-poll still cleans up;
//! * **selective cancellation** — cancelled and surviving futures on the
//!   same bucket don't disturb each other.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use shrink::prelude::*;

mod common;
use common::RecordingScheduler;

/// A waker that only counts. `Wake::wake` and `wake_by_ref` both land here,
/// so the count is exactly the number of wake deliveries the waitlist made.
#[derive(Debug, Default)]
struct CountingWaker {
    wakes: AtomicU64,
}

impl CountingWaker {
    fn count(&self) -> u64 {
        self.wakes.load(Ordering::SeqCst)
    }
}

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }
}

/// A future suspended on `gate == 0`, returning the gate value it resumed
/// to. Single TVar → single stripe → exactly one waitlist bucket, so the
/// runtime's registered-waiter count is exact.
fn gate_future(rt: &TmRuntime, gate: &TVar<u64>) -> impl std::future::Future<Output = u64> + Unpin {
    let gate = gate.clone();
    atomically_async(rt, move |tx| {
        let v = tx.read(&gate)?;
        if v == 0 {
            return tx.retry();
        }
        Ok(v)
    })
}

#[test]
fn suspended_future_registers_one_parker_and_resumes_on_commit() {
    let rt = TmRuntime::new();
    let gate = TVar::new(0u64);
    let waker_a = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&waker_a));
    let mut cx = Context::from_waker(&waker);

    let mut fut = gate_future(&rt, &gate);
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    assert_eq!(rt.retry_waiters(), 1, "one registered parker");
    assert_eq!(waker_a.count(), 0, "suspension itself wakes nobody");

    // A spurious poll keeps waiting without consuming the registration.
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    assert_eq!(rt.retry_waiters(), 1);

    rt.run(|tx| tx.write(&gate, 7));
    assert_eq!(waker_a.count(), 1, "the commit delivers exactly one wake");
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Ready(7)));
    assert_eq!(rt.retry_waiters(), 0, "resume deregisters the parker");

    let stats = rt.retry_stats();
    assert_eq!(stats.async_parks, 1);
    assert_eq!(stats.async_woken, 1);
    assert_eq!(stats.tasks_woken, 1);
    assert_eq!(stats.parked_waits, 0, "no thread ever parked");
}

#[test]
fn dropping_a_suspended_future_deregisters_and_never_wakes() {
    let recorder = Arc::new(RecordingScheduler::default());
    let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
    let gate = TVar::new(0u64);
    let waker_a = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&waker_a));
    let mut cx = Context::from_waker(&waker);

    let mut fut = gate_future(&rt, &gate);
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    assert_eq!(rt.retry_waiters(), 1);
    assert_eq!(recorder.retry_waits.load(Ordering::SeqCst), 1);
    assert_eq!(recorder.resets.load(Ordering::SeqCst), 0);

    drop(fut);
    assert_eq!(
        rt.retry_waiters(),
        0,
        "cancellation removes the parker from every bucket"
    );
    assert_eq!(
        recorder.resets.load(Ordering::SeqCst),
        1,
        "the scheduler hears about the abandonment"
    );

    // A later commit to the watched stripe finds an empty bucket: no wake
    // round is issued at all and the dead task's waker never fires.
    let before = rt.retry_stats();
    rt.run(|tx| tx.write(&gate, 1));
    let after = rt.retry_stats();
    assert_eq!(
        after.wakes_issued, before.wakes_issued,
        "no stray wake round"
    );
    assert_eq!(after.tasks_woken, before.tasks_woken);
    assert_eq!(waker_a.count(), 0, "no wake reaches the dropped future");
}

#[test]
fn dropping_after_the_wake_but_before_the_repoll_still_cleans_up() {
    let rt = TmRuntime::new();
    let gate = TVar::new(0u64);
    let waker_a = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&waker_a));
    let mut cx = Context::from_waker(&waker);

    let mut fut = gate_future(&rt, &gate);
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    rt.run(|tx| tx.write(&gate, 1));
    assert_eq!(waker_a.count(), 1, "wake delivered");

    // The wake only hands the task back to its executor; the parker stays
    // registered until the re-poll. Dropping in that window must still
    // deregister it.
    assert_eq!(rt.retry_waiters(), 1);
    drop(fut);
    assert_eq!(rt.retry_waiters(), 0);
}

#[test]
fn cancelled_and_surviving_futures_on_one_bucket_do_not_disturb_each_other() {
    let recorder = Arc::new(RecordingScheduler::default());
    let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
    let gate = TVar::new(0u64);

    let mut futures = Vec::new();
    let mut counters = Vec::new();
    for _ in 0..4 {
        let counter = Arc::new(CountingWaker::default());
        let waker = Waker::from(Arc::clone(&counter));
        let mut fut = gate_future(&rt, &gate);
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
        futures.push(fut);
        counters.push(counter);
    }
    assert_eq!(rt.retry_waiters(), 4);

    // Cancel the last two of the four.
    drop(futures.pop().expect("four futures"));
    drop(futures.pop().expect("three futures"));
    assert_eq!(rt.retry_waiters(), 2);
    assert_eq!(recorder.resets.load(Ordering::SeqCst), 2);

    rt.run(|tx| tx.write(&gate, 9));
    assert_eq!(
        counters[2].count() + counters[3].count(),
        0,
        "cancelled futures stay silent"
    );
    assert_eq!(counters[0].count(), 1);
    assert_eq!(counters[1].count(), 1);

    for mut fut in futures {
        let waker = Waker::from(Arc::new(CountingWaker::default()));
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Ready(9)));
    }
    assert_eq!(rt.retry_waiters(), 0);
}

#[test]
fn block_on_completes_an_unblocked_future_without_suspending() {
    let rt = TmRuntime::new();
    let v = TVar::new(10u64);
    let got = futures::executor::block_on(atomically_async(&rt, |tx| {
        tx.modify(&v, |x| x * 2)?;
        tx.read(&v)
    }));
    assert_eq!(got, 20);
    assert_eq!(v.snapshot(), 20);
    assert_eq!(rt.retry_stats().async_parks, 0);
}
