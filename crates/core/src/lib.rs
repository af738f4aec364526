//! DMVCC — deterministic multi-version concurrency control for smart
//! contract execution (the paper's core contribution).
//!
//! The crate provides:
//!
//! - [`AccessSequence`]: the per-state-item version buffer with write
//!   versioning and commutative merges (Definition 4, Algorithm 3), and
//!   [`ShardedSequences`], the block's one multi-version store: every
//!   threaded engine reads and publishes through it, and an entry holds
//!   what its transaction published ([`Version`]), not what was predicted.
//! - [`execute_block_serial`]: the reference serial executor, which doubles
//!   as the trace oracle the `dmvcc-sim` crate schedules in virtual time
//!   (gas) — the quantities behind the paper's figures.
//! - [`ParallelExecutor`]: a real multi-threaded executor implementing
//!   Algorithms 1–4 over [`ShardedSequences`] (per-shard locks, a reverse
//!   waiter index that re-admits transactions suspended on a pending
//!   version, and one ready queue of [`BlockDag`] rank lanes), validated
//!   against the serial state root.
//! - [`StmExecutor`]: a Block-STM-style optimistic scheduler over the same
//!   store (optimistic execution, value-based validation in serial order)
//!   that needs no access predictions at all, plus
//!   [`HybridExecutor`], which routes well-predicted transactions through
//!   the sharded predictive engine and strips the predictions of
//!   speculative/unanalyzable ones so they run optimistically inside the
//!   same block execution.
//! - [`BlockExecutor`]: the object-safe trait all three engines implement,
//!   and [`ExecutorKind`], whose `build` is the one place a kind becomes an
//!   engine. [`BlockPipeline`] is generic over the trait and overlaps
//!   block N+1's refinement with block N's execution for any engine that
//!   consumes predictions.
//! - [`SchedHook`]: the observation/perturbation surface the threaded
//!   executors expose at every scheduling decision point, used by the
//!   `dmvcc-dst` crate for deterministic schedule fuzzing and fault
//!   injection (no-op and branch-predicted-away in production).
//!
//! # Examples
//!
//! ```
//! use dmvcc_primitives::{Address, U256};
//! use dmvcc_state::Snapshot;
//! use dmvcc_vm::{CodeRegistry, Transaction};
//! use dmvcc_analysis::Analyzer;
//! use dmvcc_core::{execute_block_serial, refine_csags, ParallelConfig, ParallelExecutor};
//!
//! let analyzer = Analyzer::new(CodeRegistry::default());
//! let a = Address::from_u64(1);
//! let snapshot = Snapshot::from_entries([
//!     (dmvcc_state::StateKey::balance(a), U256::from(100u64)),
//! ]);
//! let block: Vec<Transaction> = (0..4)
//!     .map(|i| Transaction::transfer(a, Address::from_u64(2 + i), U256::ONE))
//!     .collect();
//! let env = Default::default();
//! let trace = execute_block_serial(&block, &snapshot, &analyzer, &env);
//! let csags = refine_csags(&analyzer, &block, &snapshot, &env, 1);
//! let config = ParallelConfig { threads: 4, ..Default::default() };
//! let outcome = ParallelExecutor::new(analyzer, config)
//!     .execute_block_with_csags(&block, &snapshot, &env, &csags);
//! assert_eq!(outcome.final_writes, trace.final_writes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod arena;
mod executor;
mod hook;
mod oracle;
mod parallel;
mod parallel_stm;
mod pipeline;
mod rank;
mod sharded;

pub use access::{
    AccessEntry, AccessOp, AccessSequence, ReadResolution, Version, VersionWriteEffect,
};
pub use executor::{BlockExecutor, ExecutorKind};
pub use hook::{NoopHook, SchedHook};
pub use oracle::{execute_block_serial, BlockTrace, ReadRecord, TxTrace};
pub use parallel::{ExecutorStats, ParallelConfig, ParallelExecutor, ParallelOutcome};
pub use parallel_stm::{HybridExecutor, StmExecutor};
pub use pipeline::{refine_csags, BlockPipeline, PipelineStats};
pub use rank::{BlockDag, TxRank, NUM_LANES};
pub use sharded::{Shard, ShardedSequences};
