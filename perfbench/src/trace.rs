//! Span recording for the traced run.
//!
//! Every operation the benchmark issues opens a root span; the scheduler
//! wrapper and the closure timers add the spans of its attempts:
//!
//! ```text
//! op ─┬─ queue            (service: due → dispatch)
//!     ├─ store.<kind>     (service: the store call; attempts nest in it)
//!     ├─ attempt | ro.txn (before_start entry → completion hook exit)
//!     │    ├─ admit       (before_start)
//!     │    ├─ exec.<outcome> (before_start exit → completion hook entry)
//!     │    │    ├─ body   (the benchmark's own closure, when it owns one)
//!     │    │    └─ commit | rollback (closure return → hook entry)
//!     │    └─ hook        (on_commit / on_abort / on_retry_wait)
//!     ├─ backoff          (abort hook exit → next before_start)
//!     └─ park             (retry-wait hook exit → next before_start)
//! ```
//!
//! The operation in flight lives in a thread-local while its thread runs
//! it (an async operation carries it between polls). When it ends, the
//! self time of every span — its duration minus the part of it that its
//! children cover — is folded into the thread's [`Agg`] of histograms and
//! counters, and one operation in [`SAMPLE_EVERY`] keeps its raw spans.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use shrink_stm::AbortReason;

use crate::hist::Hist;

static BASE: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now() -> u64 {
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Median cost the timer adds to a measured interval: the gap between two
/// back-to-back [`now`] calls.
pub fn timer_floor_ns() -> f64 {
    let mut gaps: Vec<u64> = (0..10_001)
        .map(|_| {
            let a = now();
            now() - a
        })
        .collect();
    gaps.sort_unstable();
    gaps[gaps.len() / 2] as f64
}

macro_rules! kinds {
    ($($v:ident = $n:literal,)*) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Kind { $($v,)* }
        impl Kind {
            pub const ALL: &'static [Kind] = &[$(Kind::$v,)*];
            pub fn name(self) -> &'static str {
                match self { $(Kind::$v => $n,)* }
            }
        }
    };
}

kinds! {
    Op = "op",
    OpPush = "op.push",
    Queue = "queue",
    StoreRead = "store.read",
    StoreUpdate = "store.update",
    StoreTransfer = "store.transfer",
    StoreBooking = "store.booking",
    Attempt = "attempt",
    RoTxn = "ro.txn",
    Admit = "admit",
    AdmitRo = "admit.ro",
    ExecCommit = "exec.commit",
    ExecAbort = "exec.abort",
    ExecRetry = "exec.retry",
    ExecRo = "exec.ro",
    ExecReset = "exec.reset",
    Body = "body",
    Commit = "commit",
    Rollback = "rollback",
    Hook = "hook",
    Backoff = "backoff",
    Park = "park",
}

macro_rules! counters {
    ($($v:ident,)*) => {
        #[derive(Clone, Copy, Debug)]
        pub enum Ctr { $($v,)* }
        const N_CTR: usize = [$(Ctr::$v,)*].len();
    };
}

counters! {
    RwAttempts,
    Commits,
    Aborts,
    RetryWaits,
    RoTxns,
    RoBodyCalls,
    RoOwnedTxns,
    Reads,
    Writes,
    AccessHooks,
    Serialized,
    WastedNs,
    AbortReadValidation,
    AbortCommitValidation,
    AbortWriteConflict,
    AbortLockTimeout,
    AbortKilled,
    AbortOther,
    OpsReadOnly,
    OpsAborted,
    OpsParked,
    OpsSerialized,
    Polls,
}

/// One timed interval of an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    /// Index of the parent span within the operation; `NO_PARENT` for the
    /// root.
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// How an attempt ended, as the completion hook reports it.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    Commit,
    CommitRo,
    Abort(AbortReason),
    Retry,
}

#[derive(Clone, Copy, Debug)]
struct OpenAttempt {
    attempt: u32,
    exec: u32,
    ro: bool,
    last_body_end: Option<u64>,
}

/// The operation in flight: its spans and counters.
#[derive(Debug, Default)]
pub struct OpState {
    id: u64,
    spans: Vec<Span>,
    container: u32,
    attempt: Option<OpenAttempt>,
    gap: Option<(u64, Kind)>,
    ctr: [u64; N_CTR],
}

impl OpState {
    fn push(&mut self, kind: Kind, parent: u32, start: u64, end: u64) -> u32 {
        self.spans.push(Span {
            kind,
            parent,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    fn add(&mut self, c: Ctr, n: u64) {
        self.ctr[c as usize] += n;
    }

    fn close_attempt(&mut self, exec_kind: Kind, t: u64) -> Option<OpenAttempt> {
        let a = self.attempt.take()?;
        self.spans[a.exec as usize].kind = exec_kind;
        self.spans[a.exec as usize].end = t;
        self.spans[a.attempt as usize].end = t;
        Some(a)
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<OpState>> = const { RefCell::new(None) };
}

fn with_active(f: impl FnOnce(&mut OpState)) {
    ACTIVE.with(|a| {
        if let Ok(mut a) = a.try_borrow_mut() {
            if let Some(st) = a.as_mut() {
                f(st);
            }
        }
    });
}

/// Starts operation `id` on this thread, reusing `st`'s buffers. The root
/// span has kind `root`.
pub fn begin(mut st: OpState, id: u64, root: Kind, t: u64) {
    st.id = id;
    st.spans.clear();
    st.attempt = None;
    st.gap = None;
    st.ctr = [0; N_CTR];
    st.container = st.push(root, NO_PARENT, t, 0);
    ACTIVE.with(|a| *a.borrow_mut() = Some(st));
}

/// Ends this thread's operation at `t` and hands its state back.
pub fn end(t: u64) -> OpState {
    let mut st = suspend().expect("end without begin");
    st.close_attempt(Kind::ExecReset, t);
    st.spans[0].end = t;
    st
}

/// Takes the operation off this thread (an async operation between polls).
pub fn suspend() -> Option<OpState> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Puts a suspended operation back on this thread.
pub fn resume(st: OpState) {
    ACTIVE.with(|a| *a.borrow_mut() = Some(st));
}

/// Opens a container span (a service store call): attempts started until
/// [`close`] nest in it.
pub fn open(kind: Kind, t: u64) -> u32 {
    let mut idx = NO_PARENT;
    with_active(|st| {
        idx = st.push(kind, st.container, t, 0);
        st.container = idx;
    });
    idx
}

pub fn close(idx: u32, t: u64) {
    with_active(|st| {
        if let Some(s) = st.spans.get_mut(idx as usize) {
            s.end = t;
            st.container = s.parent;
            // A wait that ended the call (a declined booking) is not
            // followed by an attempt of this container.
            st.gap = None;
        }
    });
}

/// Records a closed span under the current container.
pub fn span(kind: Kind, start: u64, end: u64) {
    with_active(|st| {
        st.push(kind, st.container, start, end);
    });
}

pub fn before_start(ro: bool, t_in: u64, t_out: u64, serialized: bool) {
    with_active(|st| {
        st.close_attempt(Kind::ExecReset, t_in);
        if let Some((g, kind)) = st.gap.take() {
            st.push(kind, st.container, g, t_in);
            if kind == Kind::Backoff {
                st.add(Ctr::WastedNs, t_in.saturating_sub(g));
            }
        }
        let (akind, admit) = if ro {
            (Kind::RoTxn, Kind::AdmitRo)
        } else {
            (Kind::Attempt, Kind::Admit)
        };
        let attempt = st.push(akind, st.container, t_in, 0);
        st.push(admit, attempt, t_in, t_out);
        let exec = st.push(Kind::ExecReset, attempt, t_out, 0);
        st.attempt = Some(OpenAttempt {
            attempt,
            exec,
            ro,
            last_body_end: None,
        });
        st.add(if ro { Ctr::RoTxns } else { Ctr::RwAttempts }, 1);
        st.add(Ctr::Serialized, u64::from(serialized));
    });
}

/// A read or write hook fired.
pub fn access() {
    with_active(|st| st.add(Ctr::AccessHooks, 1));
}

/// The benchmark's own transaction closure ran from `t_in` to `t_out`.
pub fn body(t_in: u64, t_out: u64) {
    with_active(|st| {
        let Some(a) = st.attempt.as_mut() else {
            return;
        };
        a.last_body_end = Some(t_out);
        let (exec, ro) = (a.exec, a.ro);
        st.push(Kind::Body, exec, t_in, t_out);
        if ro {
            st.add(Ctr::RoBodyCalls, 1);
        }
    });
}

pub fn complete(outcome: Outcome, reads: usize, writes: usize, t_in: u64, t_out: u64) {
    with_active(|st| {
        let exec_kind = match outcome {
            Outcome::Commit => Kind::ExecCommit,
            Outcome::CommitRo => Kind::ExecRo,
            Outcome::Abort(_) => Kind::ExecAbort,
            Outcome::Retry => Kind::ExecRetry,
        };
        let Some(a) = st.close_attempt(exec_kind, t_in) else {
            return;
        };
        st.spans[a.attempt as usize].end = t_out;
        if let Some(b) = a.last_body_end {
            match outcome {
                Outcome::Commit => {
                    st.push(Kind::Commit, a.exec, b, t_in);
                }
                Outcome::Abort(_) | Outcome::Retry => {
                    st.push(Kind::Rollback, a.exec, b, t_in);
                }
                Outcome::CommitRo => st.add(Ctr::RoOwnedTxns, 1),
            }
        }
        st.push(Kind::Hook, a.attempt, t_in, t_out);
        match outcome {
            Outcome::Commit => {
                st.add(Ctr::Commits, 1);
                st.add(Ctr::Reads, reads as u64);
                st.add(Ctr::Writes, writes as u64);
            }
            Outcome::CommitRo => {}
            Outcome::Abort(reason) => {
                st.add(Ctr::Aborts, 1);
                st.add(
                    match reason {
                        AbortReason::ReadValidation => Ctr::AbortReadValidation,
                        AbortReason::CommitValidation => Ctr::AbortCommitValidation,
                        AbortReason::WriteConflict => Ctr::AbortWriteConflict,
                        AbortReason::LockTimeout => Ctr::AbortLockTimeout,
                        AbortReason::Killed => Ctr::AbortKilled,
                        _ => Ctr::AbortOther,
                    },
                    1,
                );
                let exec_start = st.spans[a.exec as usize].start;
                st.add(Ctr::WastedNs, t_out.saturating_sub(exec_start));
                st.gap = Some((t_out, Kind::Backoff));
            }
            Outcome::Retry => {
                st.add(Ctr::RetryWaits, 1);
                st.gap = Some((t_out, Kind::Park));
            }
        }
    });
}

/// The attempt was abandoned (panic or cancellation).
pub fn reset(t: u64) {
    with_active(|st| {
        st.close_attempt(Kind::ExecReset, t);
    });
}

/// One poll of an async operation.
pub fn poll() {
    with_active(|st| st.add(Ctr::Polls, 1));
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span. `scratch` is reused across calls.
pub fn self_times(spans: &[Span], scratch: &mut Vec<(u32, u64, u64)>, out: &mut Vec<u64>) {
    scratch.clear();
    scratch.extend(
        spans
            .iter()
            .filter(|s| s.parent != NO_PARENT)
            .map(|s| (s.parent, s.start, s.end)),
    );
    scratch.sort_unstable();
    out.clear();
    out.extend(spans.iter().map(|s| s.end.saturating_sub(s.start)));
    let mut i = 0;
    while i < scratch.len() {
        let parent = scratch[i].0;
        let p = spans[parent as usize];
        let mut covered = 0;
        let mut reach = p.start;
        while i < scratch.len() && scratch[i].0 == parent {
            let (_, s, e) = scratch[i];
            let (s, e) = (s.max(reach), e.min(p.end));
            if e > s {
                covered += e - s;
                reach = e;
            }
            i += 1;
        }
        out[parent as usize] = out[parent as usize].saturating_sub(covered);
    }
}

/// Every `SAMPLE_EVERY`-th operation of a thread keeps its raw spans.
pub const SAMPLE_EVERY: u64 = 1024;
/// At most this many raw spans are kept per thread.
const SAMPLE_CAP: usize = 4096;

/// Per-thread aggregate of finished operations.
pub struct Agg {
    dur: Vec<Hist>,
    pub self_ns: Vec<u128>,
    ctr: [u64; N_CTR],
    pub samples: Vec<(u64, Span)>,
    scratch: Vec<(u32, u64, u64)>,
    selfs: Vec<u64>,
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            dur: vec![Hist::default(); Kind::ALL.len()],
            self_ns: vec![0; Kind::ALL.len()],
            ctr: [0; N_CTR],
            samples: Vec::new(),
            scratch: Vec::new(),
            selfs: Vec::new(),
        }
    }
}

impl Agg {
    pub fn get(&self, c: Ctr) -> u64 {
        self.ctr[c as usize]
    }

    pub fn hist(&self, k: Kind) -> &Hist {
        &self.dur[k as usize]
    }

    pub fn self_total(&self, k: Kind) -> u128 {
        self.self_ns[k as usize]
    }

    /// Folds a finished operation in.
    pub fn fold(&mut self, st: &OpState) {
        self_times(&st.spans, &mut self.scratch, &mut self.selfs);
        for (s, &own) in st.spans.iter().zip(&self.selfs) {
            self.dur[s.kind as usize].record(s.end.saturating_sub(s.start));
            self.self_ns[s.kind as usize] += u128::from(own);
        }
        for (a, b) in self.ctr.iter_mut().zip(&st.ctr) {
            *a += b;
        }
        let c = |k: Ctr| st.ctr[k as usize];
        let flags = [
            (
                Ctr::OpsReadOnly,
                c(Ctr::RoTxns) > 0 && c(Ctr::RwAttempts) == 0,
            ),
            (Ctr::OpsAborted, c(Ctr::Aborts) > 0),
            (Ctr::OpsParked, c(Ctr::RetryWaits) > 0),
            (Ctr::OpsSerialized, c(Ctr::Serialized) > 0),
        ];
        for (k, on) in flags {
            self.ctr[k as usize] += u64::from(on);
        }
        if st.id.is_multiple_of(SAMPLE_EVERY) && self.samples.len() + st.spans.len() <= SAMPLE_CAP {
            self.samples.extend(st.spans.iter().map(|s| (st.id, *s)));
        }
    }

    pub fn merge(&mut self, other: &Agg) {
        for (a, b) in self.dur.iter_mut().zip(&other.dur) {
            a.merge(b);
        }
        for (a, b) in self.self_ns.iter_mut().zip(&other.self_ns) {
            *a += b;
        }
        for (a, b) in self.ctr.iter_mut().zip(&other.ctr) {
            *a += b;
        }
        self.samples.extend_from_slice(&other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(kind: Kind, parent: u32, start: u64, end: u64) -> Span {
        Span {
            kind,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0,100): attempt [10,60) with admit [10,20), exec [20,55)
        // holding two overlapping bodies [25,40) and [35,50); backoff
        // [60,70); a second attempt [70,95) overrunning into nothing.
        let spans = vec![
            sp(Kind::Op, NO_PARENT, 0, 100),
            sp(Kind::Attempt, 0, 10, 60),
            sp(Kind::Admit, 1, 10, 20),
            sp(Kind::ExecAbort, 1, 20, 55),
            sp(Kind::Body, 3, 25, 40),
            sp(Kind::Body, 3, 35, 50),
            sp(Kind::Backoff, 0, 60, 70),
            sp(Kind::Attempt, 0, 70, 95),
            // A child overrunning its parent only counts inside it.
            sp(Kind::Hook, 7, 90, 120),
        ];
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        self_times(&spans, &mut scratch, &mut out);
        assert_eq!(out, vec![15, 5, 10, 10, 15, 15, 10, 20, 30]);
    }

    #[test]
    fn attempt_spans_follow_the_hook_sequence() {
        begin(OpState::default(), 7, Kind::Op, 0);
        before_start(false, 10, 12, true);
        body(13, 20);
        complete(Outcome::Abort(AbortReason::WriteConflict), 3, 1, 22, 23);
        before_start(false, 30, 31, false);
        body(32, 40);
        complete(Outcome::Commit, 4, 2, 41, 42);
        let st = end(50);
        let kinds: Vec<Kind> = st.spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::Op,
                Kind::Attempt,
                Kind::Admit,
                Kind::ExecAbort,
                Kind::Body,
                Kind::Rollback,
                Kind::Hook,
                Kind::Backoff,
                Kind::Attempt,
                Kind::Admit,
                Kind::ExecCommit,
                Kind::Body,
                Kind::Commit,
                Kind::Hook,
            ]
        );
        assert_eq!(st.spans[7], sp(Kind::Backoff, 0, 23, 30));
        let mut agg = Agg::default();
        agg.fold(&st);
        assert_eq!(agg.get(Ctr::Aborts), 1);
        assert_eq!(agg.get(Ctr::AbortWriteConflict), 1);
        assert_eq!(agg.get(Ctr::Commits), 1);
        assert_eq!(agg.get(Ctr::OpsAborted), 1);
        assert_eq!(agg.get(Ctr::OpsSerialized), 1);
        // Wasted: the aborted attempt after admission (12..23) plus backoff.
        assert_eq!(agg.get(Ctr::WastedNs), 11 + 7);
        assert_eq!(agg.hist(Kind::Commit).sum_ns(), 1);
        assert_eq!(agg.self_total(Kind::Op), 10 + 8);
    }
}
