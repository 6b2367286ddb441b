//! The scheduler hook contract: every attempt is bracketed by
//! `before_start` and exactly one of `on_commit`/`on_abort`/`on_retry_wait`
//! (or `on_reset` when the attempt is abandoned) on every read-write entry
//! point, and the access sets handed to the completion hooks match what
//! the transaction did.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use futures::executor::block_on;
use shrink::prelude::*;
use shrink::stm::registry::{retry_select, SelectArm};
use shrink::stm::TmError;

mod common;
use common::RecordingScheduler;

/// The three read-write entry points. Each must bracket attempts the
/// same way; only what they do between attempts differs.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// `TmRuntime::run`: parks the thread on a retry.
    Run,
    /// A one-arm `retry_select`: parks across the arms' runtimes.
    Select,
    /// `atomically_async` on `block_on`: suspends the task.
    Async,
}

impl Entry {
    const ALL: [Entry; 3] = [Entry::Run, Entry::Select, Entry::Async];

    fn run<T>(self, rt: &TmRuntime, body: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
        match self {
            Entry::Run => rt.run(body),
            Entry::Select => retry_select(&mut [SelectArm::new(rt, body)]).1,
            Entry::Async => block_on(atomically_async(rt, body)),
        }
    }
}

#[test]
fn hooks_bracket_every_attempt() {
    for entry in Entry::ALL {
        let recorder = Arc::new(RecordingScheduler::default());
        let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
        let v = TVar::new(0u64);

        // One clean commit.
        entry.run(&rt, |tx| tx.modify(&v, |x| x + 1));
        // One user restart (one abort + one commit).
        let mut first = true;
        entry.run(&rt, |tx| {
            if first {
                first = false;
                return tx.restart();
            }
            tx.read(&v).map(|_| ())
        });

        assert_eq!(recorder.starts.load(Ordering::SeqCst), 3, "{entry:?}");
        assert_eq!(recorder.commits.load(Ordering::SeqCst), 2, "{entry:?}");
        assert_eq!(recorder.aborts.load(Ordering::SeqCst), 1, "{entry:?}");
        assert_eq!(recorder.resets.load(Ordering::SeqCst), 0, "{entry:?}");
        assert_eq!(recorder.in_flight.load(Ordering::SeqCst), 0, "{entry:?}");
        // Runtime statistics agree with the hooks.
        let stats = rt.stats();
        assert_eq!(stats.commits, 2, "{entry:?}");
        assert_eq!(stats.aborts, 1, "{entry:?}");
    }
}

#[test]
fn foreign_tvar_access_closes_the_bracket_with_one_reset() {
    for entry in Entry::ALL {
        let owner = TmRuntime::new();
        let recorder = Arc::new(RecordingScheduler::default());
        let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
        let v = TVar::new(0u64);
        owner.run(|tx| tx.write(&v, 1));

        let got = catch_unwind(AssertUnwindSafe(|| entry.run(&rt, |tx| tx.read(&v))));
        let message = got.expect_err("a foreign access panics");
        let message = message
            .downcast_ref::<String>()
            .expect("the panic carries the rendered error");
        let expected = TmError::ForeignTVar {
            var: v.id(),
            owner: owner.id(),
            runtime: rt.id(),
        };
        assert_eq!(*message, expected.to_string(), "{entry:?}");

        // Not a conflict and not a completion: the guard's on_reset is the
        // only hook that closes the bracket.
        assert_eq!(recorder.starts.load(Ordering::SeqCst), 1, "{entry:?}");
        assert_eq!(recorder.resets.load(Ordering::SeqCst), 1, "{entry:?}");
        assert_eq!(recorder.commits.load(Ordering::SeqCst), 0, "{entry:?}");
        assert_eq!(recorder.aborts.load(Ordering::SeqCst), 0, "{entry:?}");
        assert_eq!(recorder.retry_waits.load(Ordering::SeqCst), 0, "{entry:?}");
        assert_eq!(recorder.in_flight.load(Ordering::SeqCst), 0, "{entry:?}");
        assert_eq!(rt.stats().aborts, 0, "{entry:?}: no abort is booked");
    }
}

#[test]
fn completion_hooks_see_the_access_sets() {
    let recorder = Arc::new(RecordingScheduler::default());
    let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
    let a = TVar::new(1u64);
    let b = TVar::new(2u64);
    rt.run(|tx| {
        let x = tx.read(&a)?;
        tx.write(&b, x + 1)
    });
    let (reads, writes) = recorder.last_commit_sets.lock().clone();
    assert_eq!(reads, vec![a.id()], "read set must list the read variable");
    assert_eq!(
        writes,
        vec![b.id()],
        "write set must list the written variable"
    );
}

#[test]
fn hook_counts_match_under_concurrency() {
    let recorder = Arc::new(RecordingScheduler::default());
    let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
    let v = TVar::new(0u64);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                for _ in 0..250 {
                    rt.run(|tx| tx.modify(&v, |x| x + 1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(v.snapshot(), 1000);
    let starts = recorder.starts.load(Ordering::SeqCst);
    let commits = recorder.commits.load(Ordering::SeqCst);
    let aborts = recorder.aborts.load(Ordering::SeqCst);
    assert_eq!(commits, 1000);
    assert_eq!(
        starts,
        commits + aborts,
        "every start completes exactly once"
    );
    assert_eq!(recorder.in_flight.load(Ordering::SeqCst), 0);
}

#[test]
fn retry_attempts_complete_through_on_retry_wait() {
    let recorder = Arc::new(RecordingScheduler::default());
    let rt = TmRuntime::builder()
        .retry_wait(std::time::Duration::from_millis(1))
        .scheduler_arc(recorder.clone())
        .build();
    let gate = TVar::new(0u64);
    let scratch = TVar::new(0u64);
    // Two bounded retry rounds, then give up: each round must fire
    // on_retry_wait (with the attempt's access sets), never on_abort.
    let result = rt.run_budgeted(2, |tx| {
        tx.write(&scratch, 7)?;
        if tx.read(&gate)? == 0 {
            return tx.retry();
        }
        Ok(())
    });
    assert!(result.is_err(), "the gate never opens");
    assert_eq!(recorder.retry_waits.load(Ordering::SeqCst), 2);
    assert_eq!(recorder.aborts.load(Ordering::SeqCst), 0);
    assert_eq!(recorder.starts.load(Ordering::SeqCst), 2);
    assert_eq!(recorder.in_flight.load(Ordering::SeqCst), 0);
    let (reads, writes) = recorder.last_retry_sets.lock().clone();
    assert_eq!(reads, vec![gate.id()], "retry hook sees the read set");
    assert_eq!(writes, vec![scratch.id()], "retry hook sees the write set");
    // Runtime statistics keep deliberate waits apart from aborts.
    let stats = rt.stats();
    assert_eq!(stats.retry_waits, 2);
    assert_eq!(stats.aborts, 0);
}
