//! Helpers shared by the integration test binaries.

// Every test binary compiles this module but uses only part of it.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use shrink::prelude::*;
use shrink::stm::{SchedCtx, VarId};

/// Counts reader threads that completed their first observation, so the
/// threads that mutate what they observe can hold off until every reader
/// is running. Without it, a release build's writers can finish before a
/// reader thread is first scheduled on a 2-core host, and the run checks
/// nothing.
#[derive(Default)]
pub struct ReadersUp(AtomicUsize);

impl ReadersUp {
    /// Called by a reader after each observation; counts the first one.
    pub fn observed_once(&self, observations: u64) {
        if observations == 1 {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Blocks until `readers` readers have each observed once.
    pub fn wait_for(&self, readers: usize) {
        while self.0.load(Ordering::SeqCst) < readers {
            std::thread::yield_now();
        }
    }
}

/// A scheduler double that counts the bracket hooks, for checking the
/// contract: each attempt opens with `before_start` and closes with
/// exactly one of `on_commit`/`on_abort`/`on_retry_wait`, or with
/// `on_reset` when it is abandoned.
#[derive(Debug, Default)]
pub struct RecordingScheduler {
    pub starts: AtomicU64,
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    pub retry_waits: AtomicU64,
    pub resets: AtomicU64,
    /// Brackets open right now: +1 on start, −1 on completion or on a
    /// reset that closes one. Must never go negative.
    pub in_flight: AtomicU64,
    pub last_commit_sets: Mutex<(Vec<VarId>, Vec<VarId>)>,
    pub last_retry_sets: Mutex<(Vec<VarId>, Vec<VarId>)>,
}

impl RecordingScheduler {
    fn close_bracket(&self, hook: &str) {
        let prev = self.in_flight.fetch_sub(1, Ordering::SeqCst);
        assert!(prev > 0, "{hook} without matching before_start");
    }
}

impl TxScheduler for RecordingScheduler {
    fn before_start(&self, _ctx: &SchedCtx<'_>) {
        self.starts.fetch_add(1, Ordering::SeqCst);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    fn on_commit(&self, _ctx: &SchedCtx<'_>, reads: &[VarId], writes: &[VarId]) {
        self.commits.fetch_add(1, Ordering::SeqCst);
        self.close_bracket("on_commit");
        *self.last_commit_sets.lock() = (reads.to_vec(), writes.to_vec());
    }

    fn on_abort(&self, _ctx: &SchedCtx<'_>, abort: &Abort, _reads: &[VarId], _writes: &[VarId]) {
        assert!(
            !abort.reason().is_retry(),
            "retry attempts must complete through on_retry_wait, not on_abort"
        );
        self.aborts.fetch_add(1, Ordering::SeqCst);
        self.close_bracket("on_abort");
    }

    fn on_retry_wait(&self, _ctx: &SchedCtx<'_>, reads: &[VarId], writes: &[VarId]) {
        self.retry_waits.fetch_add(1, Ordering::SeqCst);
        self.close_bracket("on_retry_wait");
        *self.last_retry_sets.lock() = (reads.to_vec(), writes.to_vec());
    }

    fn on_reset(&self, _ctx: &SchedCtx<'_>) {
        self.resets.fetch_add(1, Ordering::SeqCst);
        // A reset may fire with no bracket open (a cancelled suspended
        // future); it closes one only when an attempt was abandoned.
        let _ = self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
    }

    fn name(&self) -> &str {
        "recording"
    }
}
