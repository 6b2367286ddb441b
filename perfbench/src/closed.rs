//! The two closed-loop workloads: `sb7-write` and `rbtree-read`.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use rand::Rng;
use shrink_core::{Shrink, ShrinkConfig};
use shrink_stm::{BackendKind, TmRuntime, TxScheduler, WaitPolicy};
use shrink_workloads::stmbench7::{Sb7Config, Sb7Mix, Sb7Workload};
use shrink_workloads::{TxRbTree, TxWorkload};

use crate::harness::{self, key_counts, timed, timed_ro, Mode, PhaseOut, Snap, WINDOW_S};
use crate::sched::Traced;

pub const THREADS: usize = 2;

/// Swiss backend, preemptive waiting, Shrink: the paper's configuration.
/// The traced run puts the wrapper in front of the same scheduler.
fn shrink_runtime(traced: bool) -> (TmRuntime, Arc<Shrink>, Option<Arc<Traced>>) {
    let shrink = Arc::new(Shrink::new(ShrinkConfig::default()));
    let wrapper = traced.then(|| Arc::new(Traced::shrink(shrink.clone())));
    let sched: Arc<dyn TxScheduler> = match &wrapper {
        Some(w) => w.clone(),
        None => shrink.clone(),
    };
    let rt = TmRuntime::builder()
        .backend(BackendKind::Swiss)
        .wait_policy(WaitPolicy::Preemptive)
        .scheduler_arc(sched)
        .build();
    (rt, shrink, wrapper)
}

/// One STMBench7 default graph with the write-dominated mix, on its own
/// runtime.
struct Graph {
    rt: TmRuntime,
    shrink: Arc<Shrink>,
    wrapper: Option<Arc<Traced>>,
    work: Sb7Workload,
}

impl Graph {
    fn build(traced: bool) -> Self {
        let (rt, shrink, wrapper) = shrink_runtime(traced);
        let work = Sb7Workload::new(&rt, Sb7Config::default(), Sb7Mix::WriteDominated);
        Graph {
            rt,
            shrink,
            wrapper,
            work,
        }
    }
}

pub struct Sb7 {
    traced: bool,
    graph: Graph,
    /// The wrappers of every epoch's runtime, for the key-share report.
    wrappers: Vec<Arc<Traced>>,
    audits: Vec<String>,
}

impl Sb7 {
    pub fn setup(traced: bool) -> Self {
        Sb7 {
            traced,
            graph: Graph::build(traced),
            wrappers: Vec::new(),
            audits: Vec::new(),
        }
    }

    /// Runs the phase as a series of `WINDOW_S` epochs, each on a freshly
    /// built graph. The write mix only ever adds to this port's physical
    /// part registry, so one long run slows down as it goes (from about
    /// 150k to 80k operations per second over ten seconds on two cores);
    /// fresh epochs keep every window measuring the same state. Each
    /// epoch's graph is audited before the next is built.
    ///
    /// STMBench7's operations run their own transaction closures, so this
    /// workload has no `body` spans: execution and commit share `exec`.
    pub fn run<M: Mode>(&mut self, seconds: f64, seed: u64) -> PhaseOut {
        let epochs = (seconds / WINDOW_S).round().max(1.0) as u64;
        let mut out = PhaseOut::default();
        for e in 0..epochs {
            if e > 0 {
                self.graph = Graph::build(self.traced);
            }
            let g = &self.graph;
            let before = Snap::take(std::slice::from_ref(&g.rt), Some(&g.shrink));
            let epoch = harness::closed_loop::<M>(THREADS, WINDOW_S, seed + e, |t, rng| {
                g.work.step(&g.rt, t, rng);
            });
            let snap = Snap::take(std::slice::from_ref(&g.rt), Some(&g.shrink)).since(&before);
            out.absorb(epoch, &snap);
            if let Err(err) = g.work.verify(&g.rt) {
                self.audits.push(format!("epoch {e}: {err}"));
            }
            self.wrappers.extend(g.wrapper.clone());
        }
        out.keys = key_counts(&self.wrappers);
        out
    }

    pub fn check(&self) -> Result<(), String> {
        match self.audits.first() {
            Some(first) => Err(format!(
                "{} audits failed; first: {first}",
                self.audits.len()
            )),
            None => Ok(()),
        }
    }
}

/// Key range of the red-black tree; half the keys are present.
const RB_KEYS: u64 = 16_384;
/// Percent of operations that insert or remove.
const RB_UPDATE_PCT: u32 = 20;

/// The paper's Fig. 7 low-contention red-black tree.
pub struct RbTree {
    rt: TmRuntime,
    shrink: Arc<Shrink>,
    wrapper: Option<Arc<Traced>>,
    tree: TxRbTree,
    /// Keys the tree must hold: the half fill plus every effective insert
    /// minus every effective remove the benchmark performed.
    expected_len: AtomicI64,
}

impl RbTree {
    pub fn setup(traced: bool) -> Self {
        let (rt, shrink, wrapper) = shrink_runtime(traced);
        let tree = TxRbTree::new();
        for key in (0..RB_KEYS).step_by(2) {
            rt.run(|tx| tree.insert(tx, key, key));
        }
        RbTree {
            rt,
            shrink,
            wrapper,
            tree,
            expected_len: AtomicI64::new((RB_KEYS / 2) as i64),
        }
    }

    pub fn run<M: Mode>(&self, seconds: f64, seed: u64) -> PhaseOut {
        let before = Snap::take(std::slice::from_ref(&self.rt), Some(&self.shrink));
        let (rt, tree) = (&self.rt, &self.tree);
        let mut out = harness::closed_loop::<M>(THREADS, seconds, seed, |_, rng| {
            let key = rng.random_range(0..RB_KEYS);
            let roll = rng.random_range(0..100u32);
            let delta = if roll >= RB_UPDATE_PCT {
                rt.read_only(timed_ro::<M, _>(|tx| tree.get(tx, key)));
                0
            } else if roll % 2 == 0 {
                let old = rt.run(timed::<M, _>(|tx| tree.insert(tx, key, key)));
                i64::from(old.is_none())
            } else {
                let old = rt.run(timed::<M, _>(|tx| tree.remove(tx, key)));
                -i64::from(old.is_some())
            };
            if delta != 0 {
                self.expected_len.fetch_add(delta, Ordering::Relaxed);
            }
        });
        out.snap = Snap::take(std::slice::from_ref(&self.rt), Some(&self.shrink)).since(&before);
        out.keys = key_counts(self.wrapper.as_slice());
        out
    }

    pub fn check(&self) -> Result<(), String> {
        let len = self
            .rt
            .read_only(|tx| self.tree.check_invariants(tx))
            .map_err(|e| format!("red-black invariant violated: {e}"))?;
        let want = self.expected_len.load(Ordering::Relaxed);
        if len as i64 != want {
            return Err(format!("tree holds {len} keys, operations imply {want}"));
        }
        Ok(())
    }
}
