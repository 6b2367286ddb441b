//! # shrink — preventing conflicts in transactional memories
//!
//! Umbrella crate for the reproduction of *"Preventing versus Curing:
//! Avoiding Conflicts in Transactional Memories"* (PODC 2009). Re-exports
//! the four member crates:
//!
//! * [`stm`] — the STM runtime with visible writes and pluggable schedulers;
//! * [`sched`] — the Shrink scheduler and its baselines (ATS, Pool,
//!   Serializer);
//! * [`theory`] — the Section-2 scheduling theory simulator;
//! * [`workloads`] — STMBench7, STAMP and red-black-tree benchmark ports.
//!
//! ```
//! use shrink::prelude::*;
//! use std::sync::Arc;
//!
//! let scheduler = Arc::new(Shrink::new(ShrinkConfig::default()));
//! let rt = TmRuntime::builder().scheduler_arc(scheduler.clone()).build();
//! let v = TVar::new(0u64);
//! rt.run(|tx| tx.modify(&v, |x| x + 1));
//! assert_eq!(v.snapshot(), 1);
//! ```

pub use shrink_core as sched;
pub use shrink_stm as stm;
pub use shrink_theory as theory;
pub use shrink_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use shrink_core::{Ats, AtsConfig, Pool, SchedulerKind, Serializer, Shrink, ShrinkConfig};
    pub use shrink_stm::{
        atomically_async, Abort, AbortReason, BackendKind, RetryStats, TArray, TVar, TmRuntime,
        TmStats, Tx, TxFuture, TxRead, TxResult, TxScheduler, TxnKind, WaitPolicy,
    };
    pub use shrink_workloads::{
        QueueMode, QueueWorkload, RbTreeWorkload, TxQueue, TxRbTree, TxWorkload,
    };
}
