//! Helpers shared by the integration test binaries.

use std::sync::atomic::{AtomicUsize, Ordering};

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
