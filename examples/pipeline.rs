//! A blocking three-stage pipeline built from `retry`/`or_else`.
//!
//! Stage 1 generates numbers, stage 2 (a pool of workers) squares them,
//! stage 3 sums the results — connected by bounded [`TxQueue`]s. Nobody
//! polls: a stage whose input queue is empty (or output queue is full)
//! blocks inside `Tx::retry`, parked on the queue's stripes, and is woken
//! by the neighbouring stage's commit. Shutdown is a transactional
//! poison-pill per worker, pushed through the same queues.
//!
//! Run with: `cargo run --release --example pipeline`

use std::sync::Arc;

use shrink::prelude::*;

const ITEMS: u64 = 5_000;
const WORKERS: usize = 3;
/// Poison pill: tells a squaring worker to shut down.
const STOP: u64 = u64::MAX;

fn main() {
    let rt = TmRuntime::new();
    let raw: Arc<TxQueue<u64>> = Arc::new(TxQueue::new(16));
    let squared: Arc<TxQueue<u64>> = Arc::new(TxQueue::new(16));

    // Stage 2: a pool of squaring workers. `pop` blocks while `raw` is
    // empty; `push` blocks while `squared` is full. Each pop+push is ONE
    // transaction: an item is never in both queues, never in neither.
    let squarers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let rt = rt.clone();
            let raw = Arc::clone(&raw);
            let squared = Arc::clone(&squared);
            std::thread::spawn(move || loop {
                let done = rt.run(|tx| {
                    let n = raw.pop(tx)?;
                    if n == STOP {
                        return Ok(true);
                    }
                    squared.push(tx, n * n)?;
                    Ok(false)
                });
                if done {
                    return;
                }
            })
        })
        .collect();

    // Stage 3: the folding sink, blocking on its input queue.
    let sink = {
        let rt = rt.clone();
        let squared = Arc::clone(&squared);
        std::thread::spawn(move || {
            let mut sum: u64 = 0;
            for _ in 0..ITEMS {
                sum += rt.run(|tx| squared.pop(tx));
            }
            sum
        })
    };

    // Stage 1: the generator, blocking while the pipe is full — natural
    // backpressure, no rate control code at all.
    for n in 1..=ITEMS {
        rt.run(|tx| raw.push(tx, n));
    }
    // Poison the worker pool (one pill each) through the same queue.
    for _ in 0..WORKERS {
        rt.run(|tx| raw.push(tx, STOP));
    }

    let sum = sink.join().expect("sink panicked");
    for s in squarers {
        s.join().expect("squarer panicked");
    }

    let expected: u64 = (1..=ITEMS).map(|n| n * n).sum();
    let stats = rt.stats();
    let waits = rt.retry_stats();
    println!("sum of squares 1..={ITEMS}: {sum} (expected {expected})");
    println!(
        "transactions: {stats} + {} parked retry rounds",
        stats.retry_waits
    );
    println!(
        "retry wake path: {} parked, {} woken by commits, {} timed out, {} wasted wakes",
        waits.parked_waits, waits.woken, waits.timed_out, waits.wasted_wakes
    );
    assert_eq!(
        sum, expected,
        "pipeline must deliver every item exactly once"
    );
}
