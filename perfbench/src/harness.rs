//! What every workload shares: the tracing switch, closure timers, the
//! closed-loop runner, counter snapshots, panic capture and the watchdog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use shrink_core::Shrink;
use shrink_stm::{select_stats, ReadTx, TmRuntime, Tx, TxResult};

use crate::hist::Hist;
use crate::probes;
use crate::sched::Traced;
use crate::trace::{self, Agg, Kind, OpState};

/// Whether the run records spans. A type parameter, so the untraced build
/// of every loop carries no tracing code at all.
pub trait Mode: Copy + Send + Sync + 'static {
    const ON: bool;
}

#[derive(Clone, Copy, Debug)]
pub struct Off;
#[derive(Clone, Copy, Debug)]
pub struct On;

impl Mode for Off {
    const ON: bool = false;
}
impl Mode for On {
    const ON: bool = true;
}

/// Wraps a transaction closure the benchmark hands to `run` or
/// `atomically_async` so that each invocation becomes a `body` span.
pub fn timed<M: Mode, T>(
    mut f: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> impl FnMut(&mut Tx<'_>) -> TxResult<T> {
    move |tx| body_span::<M, _>(|| f(tx))
}

/// [`timed`] for the closures handed to `read_only`.
pub fn timed_ro<M: Mode, T>(
    mut f: impl FnMut(&mut ReadTx<'_>) -> TxResult<T>,
) -> impl FnMut(&mut ReadTx<'_>) -> TxResult<T> {
    move |tx| body_span::<M, _>(|| f(tx))
}

fn body_span<M: Mode, R>(f: impl FnOnce() -> R) -> R {
    if M::ON {
        let t0 = trace::now();
        let r = f();
        trace::body(t0, trace::now());
        r
    } else {
        f()
    }
}

/// Operations completed, process-wide; the watchdog's progress signal.
pub static PROGRESS: AtomicU64 = AtomicU64::new(0);
/// Load threads or tasks of the running phase: the operations a stalled
/// run abandons in flight.
pub static IN_FLIGHT: AtomicU64 = AtomicU64::new(0);
/// Distinct panic messages with their counts.
static PANICS: Mutex<Vec<(String, usize)>> = Mutex::new(Vec::new());

/// Installs a panic hook that counts panics by message and prints each
/// distinct one once: a defect that fires thousands of times must neither
/// flood the output nor grow the process.
pub fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let msg = match info.payload().downcast_ref::<&str>() {
            Some(s) => (*s).to_string(),
            None => info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into()),
        };
        let at = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_default();
        let key = format!("{msg} ({at})");
        let mut panics = PANICS.lock().unwrap_or_else(|p| p.into_inner());
        match panics.iter_mut().find(|(m, _)| *m == key) {
            Some((_, n)) => *n += 1,
            None => {
                eprintln!("panic at {at}: {msg}");
                panics.push((key, 1));
            }
        }
    }));
}

/// Panic messages seen so far, with counts, most frequent first.
pub fn panic_summary() -> Vec<(String, usize)> {
    let mut counts = PANICS.lock().unwrap_or_else(|p| p.into_inner()).clone();
    counts.sort_by_key(|c| std::cmp::Reverse(c.1));
    counts
}

/// Ends the process with a failure report if no operation completes for
/// `stall` seconds. A stalled run cannot be joined (its threads are stuck
/// inside the runtime), so the watchdog prints the result itself and exits
/// non-zero; the OS reclaims the stuck threads.
pub fn spawn_watchdog(stall: Duration) {
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(move || {
            let mut last = PROGRESS.load(Ordering::Relaxed);
            let mut since = trace::now();
            loop {
                std::thread::sleep(Duration::from_millis(200));
                let p = PROGRESS.load(Ordering::Relaxed);
                let t = trace::now();
                if p != last {
                    last = p;
                    since = t;
                } else if t - since > stall.as_nanos() as u64 {
                    let stuck = IN_FLIGHT.load(Ordering::Relaxed);
                    eprintln!(
                        "watchdog: no operation completed for {:.1} s; {stuck} operations \
                         abandoned in flight",
                        stall.as_secs_f64()
                    );
                    for (m, n) in panic_summary() {
                        eprintln!("  {n} x panic: {m}");
                    }
                    println!(
                        "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                        (p + stuck).max(1),
                        stuck.max(1)
                    );
                    std::process::exit(3);
                }
            }
        })
        .expect("spawn watchdog");
}

/// Counters the runtime, the select registry and Shrink keep themselves.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snap {
    pub commits: u64,
    pub aborts: u64,
    pub retry_waits: u64,
    pub ro_commits: u64,
    pub ro_reads: u64,
    pub ro_revalidations: u64,
    pub orec_acquires: u64,
    pub wakes_issued: u64,
    pub wasted_wakes: u64,
    pub tasks_woken: u64,
    pub threads_woken: u64,
    pub select_rounds: u64,
    pub select_parked: u64,
    pub select_timed_out: u64,
    pub serialized: u64,
    pub prediction_checks: u64,
}

impl Snap {
    pub fn take(rts: &[TmRuntime], shrink: Option<&Shrink>) -> Snap {
        let mut s = Snap::default();
        for rt in rts {
            let t = rt.stats();
            let r = rt.retry_stats();
            s.commits += t.commits;
            s.aborts += t.aborts;
            s.retry_waits += t.retry_waits;
            s.ro_commits += t.ro_commits;
            s.ro_reads += t.ro_reads;
            s.ro_revalidations += t.ro_revalidations;
            s.orec_acquires += t.orec_acquires;
            s.wakes_issued += r.wakes_issued;
            s.wasted_wakes += r.wasted_wakes;
            s.tasks_woken += r.tasks_woken;
            s.threads_woken += r.threads_woken;
        }
        let sel = select_stats();
        s.select_rounds = sel.rounds;
        s.select_parked = sel.parked;
        s.select_timed_out = sel.timed_out;
        if let Some(p) = shrink.map(Shrink::prediction_stats) {
            s.serialized = p.serialized;
            s.prediction_checks = p.prediction_checks;
        }
        s
    }

    pub fn add(&mut self, o: &Snap) {
        let me = [
            &mut self.commits,
            &mut self.aborts,
            &mut self.retry_waits,
            &mut self.ro_commits,
            &mut self.ro_reads,
            &mut self.ro_revalidations,
            &mut self.orec_acquires,
            &mut self.wakes_issued,
            &mut self.wasted_wakes,
            &mut self.tasks_woken,
            &mut self.threads_woken,
            &mut self.select_rounds,
            &mut self.select_parked,
            &mut self.select_timed_out,
            &mut self.serialized,
            &mut self.prediction_checks,
        ];
        let other = [
            o.commits,
            o.aborts,
            o.retry_waits,
            o.ro_commits,
            o.ro_reads,
            o.ro_revalidations,
            o.orec_acquires,
            o.wakes_issued,
            o.wasted_wakes,
            o.tasks_woken,
            o.threads_woken,
            o.select_rounds,
            o.select_parked,
            o.select_timed_out,
            o.serialized,
            o.prediction_checks,
        ];
        for (a, b) in me.into_iter().zip(other) {
            *a += b;
        }
    }

    pub fn since(&self, e: &Snap) -> Snap {
        Snap {
            commits: self.commits.saturating_sub(e.commits),
            aborts: self.aborts.saturating_sub(e.aborts),
            retry_waits: self.retry_waits.saturating_sub(e.retry_waits),
            ro_commits: self.ro_commits.saturating_sub(e.ro_commits),
            ro_reads: self.ro_reads.saturating_sub(e.ro_reads),
            ro_revalidations: self.ro_revalidations.saturating_sub(e.ro_revalidations),
            orec_acquires: self.orec_acquires.saturating_sub(e.orec_acquires),
            wakes_issued: self.wakes_issued.saturating_sub(e.wakes_issued),
            wasted_wakes: self.wasted_wakes.saturating_sub(e.wasted_wakes),
            tasks_woken: self.tasks_woken.saturating_sub(e.tasks_woken),
            threads_woken: self.threads_woken.saturating_sub(e.threads_woken),
            select_rounds: self.select_rounds.saturating_sub(e.select_rounds),
            select_parked: self.select_parked.saturating_sub(e.select_parked),
            select_timed_out: self.select_timed_out.saturating_sub(e.select_timed_out),
            serialized: self.serialized.saturating_sub(e.serialized),
            prediction_checks: self.prediction_checks.saturating_sub(e.prediction_checks),
        }
    }
}

/// One sampling window of a measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub ops: u64,
    pub secs: f64,
    pub cpu_s: f64,
    /// CPU time the hypervisor withheld from the whole machine.
    pub steal_s: f64,
}

/// Length of a sampling window. Throughput, CPU per operation and latency
/// percentiles are computed per window and reported as the median over the
/// windows of a phase, so a transient stall of the shared host moves one
/// window, not the result.
pub const WINDOW_S: f64 = 0.5;

/// A window in which the hypervisor withheld more than this share of the
/// machine's CPU time measures the host, not the program, and is left out
/// of throughput and CPU medians (unless every window is). No change to the
/// program can cause steal time, so the filter cannot hide a regression.
const MAX_STEAL_SHARE: f64 = 0.05;

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct PhaseOut {
    /// Operations issued, failed or not.
    pub attempted: u64,
    pub failed: u64,
    /// Completed operations and CPU time per sampling window.
    pub windows: Vec<Window>,
    /// Per-operation latency per window (untraced runs).
    pub lat: Vec<Hist>,
    /// Context switches over the phase, and the operations they cover.
    pub ctxt: u64,
    pub ctxt_ops: u64,
    /// Traced runs: the merged span aggregate and the counter delta over
    /// the same operations.
    pub agg: Agg,
    pub snap: Snap,
    /// Workload-specific figures: `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Access counts by variable from the scheduler wrappers.
    pub keys: Vec<u64>,
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Windows with fewer latency samples do not get a percentile of their own.
const MIN_WINDOW_SAMPLES: u64 = 200;

impl PhaseOut {
    pub fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.ops).sum()
    }

    /// The windows the throughput and CPU medians are taken over.
    pub fn clean_windows(&self) -> Vec<Window> {
        let capacity = probes::nproc() as f64;
        let clean: Vec<Window> = self
            .windows
            .iter()
            .filter(|w| w.steal_s <= MAX_STEAL_SHARE * capacity * w.secs)
            .copied()
            .collect();
        if clean.is_empty() {
            self.windows.clone()
        } else {
            clean
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        let windows = self.clean_windows();
        median(windows.iter().map(|w| w.ops as f64 / w.secs).collect())
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        let windows = self.clean_windows();
        median(
            windows
                .iter()
                .filter(|w| w.ops > 0)
                .map(|w| w.cpu_s * 1e6 / w.ops as f64)
                .collect(),
        )
    }

    /// Median over windows of the per-window latency quantile, in µs.
    pub fn lat_us(&self, q: f64) -> f64 {
        median(
            self.lat
                .iter()
                .filter(|h| h.count() >= MIN_WINDOW_SAMPLES)
                .map(|h| h.quantile(q) / 1e3)
                .collect(),
        )
    }

    /// Appends a later phase of the same run: its windows, latencies,
    /// counts, trace and counter delta `snap`.
    pub fn absorb(&mut self, later: PhaseOut, snap: &Snap) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.windows.extend(later.windows);
        // An epoch's trailing window is empty; kept, each one would add a
        // histogram's memory to the peak-memory metric.
        self.lat.extend(later.lat.into_iter().filter(|h| h.count() > 0));
        self.ctxt += later.ctxt;
        self.ctxt_ops += later.ctxt_ops;
        self.agg.merge(&later.agg);
        self.snap.add(snap);
    }

    pub fn lat_samples(&self) -> u64 {
        self.lat.iter().map(Hist::count).sum()
    }
}

/// A counter owned by one load thread, alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Padded(pub AtomicU64);

/// Samples `progress` and the process CPU time at every window boundary
/// until `seconds` have passed or `finished` holds, publishing the index of
/// the current window in `cur`. Returns the windows and the context
/// switches over the whole span.
pub fn sample_windows(
    seconds: f64,
    cur: &AtomicUsize,
    finished: impl Fn() -> bool,
    progress: impl Fn() -> u64,
) -> (Vec<Window>, u64) {
    let t0 = trace::now();
    let cx0 = probes::context_switches();
    let (mut t_last, mut p_last) = (t0, progress());
    let (mut c_last, mut s_last) = (probes::cpu_seconds(), probes::steal_seconds());
    let mut windows = Vec::new();
    for k in 1.. {
        let target = t0 + (k as f64 * WINDOW_S * 1e9) as u64;
        loop {
            let now = trace::now();
            if now >= target || finished() {
                break;
            }
            std::thread::sleep(Duration::from_nanos((target - now).min(2_000_000)));
        }
        let (t, p) = (trace::now(), progress());
        let (c, st) = (probes::cpu_seconds(), probes::steal_seconds());
        let w = Window {
            ops: p - p_last,
            secs: (t - t_last) as f64 / 1e9,
            cpu_s: c - c_last,
            steal_s: st - s_last,
        };
        // A short tail window says more about the drain than the load.
        if w.secs >= WINDOW_S / 2.0 {
            windows.push(w);
        }
        (t_last, p_last, c_last, s_last) = (t, p, c, st);
        if finished() || (t - t0) as f64 / 1e9 >= seconds - 1e-3 {
            break;
        }
        cur.store(k, Ordering::Relaxed);
    }
    (windows, probes::context_switches().saturating_sub(cx0))
}

/// Sorted access counts of every variable the wrappers sampled.
pub fn key_counts(wrappers: &[Arc<Traced>]) -> Vec<u64> {
    let mut all = std::collections::HashMap::new();
    for w in wrappers {
        for (k, n) in w.key_counts() {
            *all.entry(k).or_insert(0u64) += n;
        }
    }
    let mut v: Vec<u64> = all.into_values().collect();
    v.sort_unstable_by(|a, b| b.cmp(a));
    v
}

/// Per-thread input stream: the same seed gives the same operations.
pub fn thread_rng(seed: u64, thread: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `op` in a closed loop on `threads` threads for `seconds`. Each call
/// of `op` is one operation; a panic inside it is caught and counted as a
/// failed operation. Returns the phase with latencies (untraced) or the
/// span aggregate (traced); the caller fills in `snap`.
pub fn closed_loop<M: Mode>(
    threads: usize,
    seconds: f64,
    seed: u64,
    op: impl Fn(usize, &mut StdRng) + Sync,
) -> PhaseOut {
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    let cur = AtomicUsize::new(0);
    let done: Vec<Padded> = (0..threads).map(|_| Padded::default()).collect();
    let n_windows = (seconds / WINDOW_S).ceil() as usize + 1;
    let mut out = PhaseOut::default();
    IN_FLIGHT.store(threads as u64, Ordering::Relaxed);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (stop, start, op, cur, done) = (&stop, &start, &op, &cur, &done[t]);
                s.spawn(move || {
                    let mut rng = thread_rng(seed, t);
                    let mut lat = vec![Hist::default(); if M::ON { 0 } else { n_windows }];
                    let mut agg = Agg::default();
                    let mut st = Some(OpState::default());
                    let (mut ops, mut failed) = (0u64, 0u64);
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let a = trace::now();
                        if M::ON {
                            let id = ((t as u64) << 48) | ops;
                            trace::begin(st.take().expect("op state"), id, Kind::Op, a);
                        }
                        let ok = catch_unwind(AssertUnwindSafe(|| op(t, &mut rng))).is_ok();
                        let b = trace::now();
                        if M::ON {
                            let finished = trace::end(b);
                            agg.fold(&finished);
                            st = Some(finished);
                        } else {
                            let w = cur.load(Ordering::Relaxed).min(n_windows - 1);
                            lat[w].record(b - a);
                        }
                        ops += 1;
                        failed += u64::from(!ok);
                        done.0.store(ops - failed, Ordering::Relaxed);
                        if ops % 16 == 0 {
                            PROGRESS.fetch_add(16, Ordering::Relaxed);
                        }
                    }
                    (ops, failed, lat, agg)
                })
            })
            .collect();
        start.wait();
        let progress = || {
            done.iter()
                .map(|d| d.0.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let (windows, ctxt) = sample_windows(seconds, &cur, || false, progress);
        stop.store(true, Ordering::Relaxed);
        out.windows = windows;
        out.ctxt = ctxt;
        out.ctxt_ops = progress();
        out.lat = vec![Hist::default(); if M::ON { 0 } else { n_windows }];
        for h in handles {
            let (ops, failed, lat, agg) = h.join().expect("load thread");
            out.attempted += ops;
            out.failed += failed;
            for (a, b) in out.lat.iter_mut().zip(&lat) {
                a.merge(b);
            }
            out.agg.merge(&agg);
        }
    });
    IN_FLIGHT.store(0, Ordering::Relaxed);
    out
}
