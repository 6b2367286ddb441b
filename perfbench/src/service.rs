//! `service-open`: the sharded store served in an open loop over a fixed
//! ladder of offered rates, by the benchmark's own load generator.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shrink_core::SchedulerKind;
use shrink_stm::{BackendKind, TmRuntime, TxScheduler, WaitPolicy};
use shrink_workloads::service::{
    build_schedule, BookingOutcome, Request, RequestKind, RequestMix, ShardedStore, TrafficConfig,
};

use crate::harness::{
    key_counts, sample_windows, Mode, Padded, PhaseOut, Snap, Window, IN_FLIGHT, PROGRESS,
};
use crate::hist::Hist;
use crate::sched::Traced;
use crate::trace::{self, Agg, Kind, OpState};

pub const WORKERS: usize = 2;
const SHARDS: usize = 4;
const ACCOUNTS_PER_SHARD: usize = 256;
const INITIAL_BALANCE: i64 = 1_000;
/// Two workers hold at most two units of a shard at once, so bookings
/// never run out of capacity and never decline on this workload.
const BOOKING_CAPACITY: i64 = 3;
/// Spin iterations inside each store transaction. Small, so the traced run
/// attributes the service time to the STM rather than to simulated work.
const TX_WORK: u32 = 64;
const BOOKING_DEADLINE: Duration = Duration::from_millis(30);

/// Offered rates of the ladder, requests per second. Fixed absolute values:
/// a slower build sees the same offered load and shows it as latency.
pub const LADDER: [f64; 6] = [
    50_000.0,
    100_000.0,
    200_000.0,
    400_000.0,
    800_000.0,
    1_600_000.0,
];
/// The rung whose latency is the end-to-end `op_p50_us` / `op_p99_us`: the
/// lowest, which spends the longest time and so has the most samples.
pub const REFERENCE: usize = 0;
/// Requests per rung, per second of the run: every rung gets the same
/// number of samples (and the same input size in memory), so low rates run
/// long and high rates short.
const RUNG_REQUESTS_PER_S: f64 = 20_000.0;
/// Requests of the flat-out rung per second of the run. All are due at
/// once, so its completion rate is the service's capacity (`ops_per_s`)
/// and its CPU per request is `cpu_us_per_op`, with no generator spinning
/// mixed in. It cycles over one rung-sized schedule.
const FLAT_OUT_REQUESTS_PER_S: f64 = 300_000.0;
/// `op_p99_us` limit of `max_rps_at_slo`, microseconds.
pub const SLO_P99_US: f64 = 500.0;
/// Latency windows of a rung, by due time. Shorter than the throughput
/// windows: a stall of the shared host holds up every request due during
/// it, so with long windows nearly every window's p99 would carry one; with
/// short ones the median window is clean.
const LAT_WINDOW_S: f64 = 0.1;
/// A worker sleeps until this long before a request is due, then spins:
/// `thread::sleep` overshoots by tens of microseconds.
const SPIN_NS: u64 = 200_000;

fn traffic(rate: f64, requests: usize, seed: u64) -> TrafficConfig {
    TrafficConfig {
        clients: 2_000,
        workers: WORKERS,
        requests,
        offered_rps: rate,
        zipf_s: 0.99,
        burstiness: 0.5,
        burst_period: Duration::from_millis(10),
        mix: RequestMix::DEFAULT,
        booking_deadline: BOOKING_DEADLINE,
        seed,
    }
}

pub struct Service {
    store: ShardedStore,
    rts: Vec<TmRuntime>,
    wrappers: Vec<Arc<Traced>>,
    seconds: f64,
    seed: u64,
    bookings_scheduled: u64,
    bookings_done: u64,
}

impl Service {
    pub fn setup(traced: bool, seconds: f64, seed: u64) -> Self {
        let kind = SchedulerKind::Noop;
        let mut wrappers = Vec::new();
        let mut store = ShardedStore::new(
            SHARDS,
            ACCOUNTS_PER_SHARD,
            INITIAL_BALANCE,
            BOOKING_CAPACITY,
            |_| {
                let sched: Arc<dyn TxScheduler> = if traced {
                    let w = Arc::new(Traced::new(&kind));
                    wrappers.push(w.clone());
                    w
                } else {
                    kind.build()
                };
                TmRuntime::builder()
                    .backend(BackendKind::Swiss)
                    .wait_policy(WaitPolicy::Preemptive)
                    .scheduler_arc(sched)
                    .build()
            },
        );
        store.set_tx_work(TX_WORK);
        let rts = (0..SHARDS).map(|s| store.runtime(s).clone()).collect();
        Service {
            store,
            rts,
            wrappers,
            seconds,
            seed,
            bookings_scheduled: 0,
            bookings_done: 0,
        }
    }

    /// The arrivals of rung `r` (the flat-out rung after the ladder), a
    /// pure function of the seed. Built just before the rung is served, so
    /// neither set-up time nor peak memory carries the whole ladder's input.
    fn schedule(&self, r: usize) -> Vec<Request> {
        let rate = LADDER.get(r).copied().unwrap_or(1e12);
        let n = (RUNG_REQUESTS_PER_S * self.seconds).max(1.0) as usize;
        build_schedule(
            self.store.n_keys(),
            SHARDS,
            &traffic(rate, n, self.seed + r as u64),
        )
    }

    /// Serves the ladder, or only the reference and flat-out rungs when
    /// `ladder` is false. End-to-end latency comes from the reference rung,
    /// throughput and CPU from the flat-out rung, the span aggregate and the
    /// counter delta from the reference rung.
    pub fn run<M: Mode>(&mut self, ladder: bool) -> PhaseOut {
        let mut out = PhaseOut::default();
        let mut max_ok = 0.0f64;
        let mut gen_lag = Hist::default();
        let mut cross = 0u64;
        let mut served = 0u64;
        let rungs: Vec<usize> = if ladder {
            (0..=LADDER.len()).collect()
        } else {
            vec![REFERENCE, LADDER.len()]
        };
        for r in rungs {
            let schedule = &self.schedule(r);
            // Every flat-out request is due at once, so claiming them in
            // chunks changes no order and keeps the shared cursor off the
            // measured path.
            let (total, chunk) = if r == LADDER.len() {
                (
                    (FLAT_OUT_REQUESTS_PER_S * self.seconds).max(1.0) as usize,
                    64,
                )
            } else {
                (schedule.len(), 1)
            };
            let before = Snap::take(&self.rts, None);
            let rung = serve::<M>(schedule, total, chunk, WORKERS, |req| self.execute(req));
            let snap = Snap::take(&self.rts, None).since(&before);
            let served_reqs = || (0..total).map(|i| &schedule[i % schedule.len()]);
            self.bookings_scheduled += served_reqs()
                .filter(|q| q.kind == RequestKind::Booking)
                .count() as u64;
            self.bookings_done += rung.confirmed + rung.declined;
            out.attempted += rung.served;
            out.failed += rung.failed + rung.declined;
            served += rung.served;
            cross += served_reqs()
                .filter(|q| {
                    matches!(q.kind, RequestKind::Transfer | RequestKind::Booking)
                        && q.a % SHARDS != q.b % SHARDS
                })
                .count() as u64;
            if r == LADDER.len() {
                out.windows = rung.windows;
                out.ctxt = rung.ctxt;
                out.ctxt_ops = rung.served;
                continue;
            }
            gen_lag.merge(&rung.gen_lag);
            let mut lat = Hist::default();
            rung.lat.iter().for_each(|h| lat.merge(h));
            let p99_us = lat.quantile(0.99) / 1e3;
            let backlog = rung.drain_ns as f64 / 1e3 > SLO_P99_US;
            if p99_us < SLO_P99_US && !backlog && rung.failed + rung.declined == 0 {
                max_ok = max_ok.max(LADDER[r]);
            }
            if r == REFERENCE {
                out.lat = rung.lat;
                out.agg = rung.agg;
                out.snap = snap;
            }
        }
        if ladder {
            out.extra.push(("max_rps_at_slo", max_ok, "1/s"));
        }
        out.extra
            .push(("gen_lag_p99_us", gen_lag.quantile(0.99) / 1e3, "us"));
        out.extra
            .push(("gen_lag_samples", gen_lag.count() as f64, "count"));
        out.extra.push((
            "traffic.cross_shard_share",
            cross as f64 / served.max(1) as f64,
            "share",
        ));
        out.keys = key_counts(&self.wrappers);
        out
    }

    fn execute(&self, req: &Request) -> Option<BookingOutcome> {
        match req.kind {
            RequestKind::Read => {
                std::hint::black_box(self.store.read_key(req.a));
                None
            }
            RequestKind::Update => {
                self.store.update_key(req.a);
                None
            }
            RequestKind::Transfer => {
                self.store.transfer(req.a, req.b, 1);
                None
            }
            RequestKind::Booking => Some(self.store.book(
                req.a,
                req.b,
                Instant::now() + BOOKING_DEADLINE,
            )),
        }
    }

    /// Conservation on a distributed snapshot, the booking invariant, no
    /// transfer left in flight, and every scheduled booking answered. Every
    /// violation is reported, not only the first.
    pub fn check(&self) -> Result<(), String> {
        let mut errors = Vec::new();
        let total = self.store.audit_conservation();
        if total != self.store.expected_total() {
            errors.push(format!(
                "conservation broken: {total} != {}",
                self.store.expected_total()
            ));
        }
        if catch_unwind(AssertUnwindSafe(|| self.store.audit_bookings())).is_err() {
            errors.push("booking capacity invariant broken".to_string());
        }
        let pending = self.store.pending_transfers();
        if pending != 0 {
            errors.push(format!("{pending} transfers left in flight"));
        }
        if self.bookings_done != self.bookings_scheduled {
            errors.push(format!(
                "{} bookings scheduled, {} confirmed or declined",
                self.bookings_scheduled, self.bookings_done
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

/// What serving one schedule observed.
#[derive(Default)]
pub struct RungOut {
    /// Scheduled arrival → completion (untraced runs), per window of due
    /// times.
    pub lat: Vec<Hist>,
    /// Scheduled arrival → dispatch, every request.
    pub queue: Hist,
    /// Scheduled arrival → dispatch, for requests a worker was already
    /// waiting for: the generator's own timing error.
    pub gen_lag: Hist,
    pub served: u64,
    pub failed: u64,
    pub confirmed: u64,
    pub declined: u64,
    /// Last completion minus last due time: a growing backlog shows here.
    /// (Workers keep their last completion time here until the merge.)
    pub drain_ns: u64,
    /// Completions and CPU time per sampling window, and context switches.
    pub windows: Vec<Window>,
    pub ctxt: u64,
    pub agg: Agg,
}

/// Serves `total` requests of `schedule` (cycling over it) open-loop on
/// `workers` threads. Workers claim requests in arrival order, `chunk` at a
/// time; one that is early sleeps until `SPIN_NS` before the due time and
/// spins the rest, one that is late dispatches at once and the delay stays
/// in the request's latency.
pub fn serve<M: Mode>(
    schedule: &[Request],
    total: usize,
    chunk: usize,
    workers: usize,
    exec: impl Fn(&Request) -> Option<BookingOutcome> + Sync,
) -> RungOut {
    let cursor = AtomicUsize::new(0);
    let (cur, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let served: Vec<Padded> = (0..workers).map(|_| Padded::default()).collect();
    // A short lead so the first requests are not born late.
    let start = trace::now() + 1_000_000;
    IN_FLIGHT.store(workers as u64, Ordering::Relaxed);
    let mut out = RungOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (cursor, exec, finished, served) = (&cursor, &exec, &finished, &served[w]);
                s.spawn(move || {
                    let mut o = RungOut::default();
                    let mut st = Some(OpState::default());
                    let (mut i, mut claimed) = (0, 0);
                    loop {
                        if i == claimed {
                            i = cursor.fetch_add(chunk, Ordering::Relaxed);
                            claimed = (i + chunk).min(total);
                        }
                        if i >= total {
                            break;
                        }
                        let req = &schedule[i % schedule.len()];
                        let due = start + req.arrival.as_nanos() as u64;
                        let mut now = trace::now();
                        let waited = now < due;
                        if due > now + SPIN_NS {
                            std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
                        }
                        while now < due {
                            std::hint::spin_loop();
                            now = trace::now();
                        }
                        let dispatch = now;
                        let store_kind = match req.kind {
                            RequestKind::Read => Kind::StoreRead,
                            RequestKind::Update => Kind::StoreUpdate,
                            RequestKind::Transfer => Kind::StoreTransfer,
                            RequestKind::Booking => Kind::StoreBooking,
                        };
                        let mut call = 0;
                        if M::ON {
                            let id = ((w as u64) << 48) | i as u64;
                            trace::begin(st.take().expect("op state"), id, Kind::Op, due);
                            trace::span(Kind::Queue, due, dispatch);
                            call = trace::open(store_kind, dispatch);
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| exec(req)));
                        let done = trace::now();
                        if M::ON {
                            trace::close(call, done);
                            let st_done = trace::end(done);
                            o.agg.fold(&st_done);
                            st = Some(st_done);
                        } else {
                            let win = ((due - start) as f64 / (LAT_WINDOW_S * 1e9)) as usize;
                            if o.lat.len() <= win {
                                o.lat.resize(win + 1, Hist::default());
                            }
                            o.lat[win].record(done - due);
                        }
                        o.queue.record(dispatch - due);
                        if waited {
                            o.gen_lag.record(dispatch - due);
                        }
                        o.served += 1;
                        served.0.store(o.served, Ordering::Relaxed);
                        match r {
                            Ok(Some(BookingOutcome::Confirmed)) => o.confirmed += 1,
                            Ok(Some(BookingOutcome::Declined)) => o.declined += 1,
                            Ok(None) => {}
                            Err(_) => o.failed += 1,
                        }
                        if i % 16 == 0 {
                            PROGRESS.fetch_add(16, Ordering::Relaxed);
                        }
                        o.drain_ns = o.drain_ns.max(done);
                        i += 1;
                    }
                    finished.fetch_add(1, Ordering::Release);
                    o
                })
            })
            .collect();
        let progress = || {
            served
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let done = || finished.load(Ordering::Acquire) == workers;
        (out.windows, out.ctxt) = sample_windows(f64::INFINITY, &cur, done, progress);
        for h in handles {
            let o = h.join().expect("open-loop worker");
            if out.lat.len() < o.lat.len() {
                out.lat.resize(o.lat.len(), Hist::default());
            }
            for (a, b) in out.lat.iter_mut().zip(&o.lat) {
                a.merge(b);
            }
            out.queue.merge(&o.queue);
            out.gen_lag.merge(&o.gen_lag);
            out.agg.merge(&o.agg);
            out.served += o.served;
            out.failed += o.failed;
            out.confirmed += o.confirmed;
            out.declined += o.declined;
            out.drain_ns = out.drain_ns.max(o.drain_ns);
        }
    });
    IN_FLIGHT.store(0, Ordering::Relaxed);
    let last_due = start + schedule[(total - 1) % schedule.len()].arrival.as_nanos() as u64;
    out.drain_ns = out.drain_ns.saturating_sub(last_due);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_schedule_dispatches_on_time() {
        // 2000 requests 500 µs apart: every worker waits for every request,
        // so each dispatch measures the generator's own lag.
        let schedule: Vec<Request> = (0..2_000u64)
            .map(|i| Request {
                arrival: Duration::from_micros(500 * i),
                client: 0,
                kind: RequestKind::Read,
                a: 0,
                b: 0,
            })
            .collect();
        let out = serve::<crate::harness::Off>(&schedule, schedule.len(), 1, 2, |_| None);
        assert_eq!(out.served, 2_000);
        // Tests running alongside can delay a worker past a due time; most
        // requests still find their worker waiting.
        assert!(
            out.gen_lag.count() >= 1_000,
            "{} waited",
            out.gen_lag.count()
        );
        let p50 = out.gen_lag.quantile(0.5);
        // Spinning the last stretch keeps the lag far below the tens of
        // microseconds a sleep overshoots by.
        assert!(p50 < 5_000.0, "median dispatch lag {p50} ns");
    }
}
