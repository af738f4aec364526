//! The pipelined block front-end.
//!
//! Two Amdahl bottlenecks sit in front of the workers: refining a block's
//! C-SAGs is serial in `execute_block`, and it happens *after* the
//! previous block committed, so analysis and execution never overlap.
//! This module removes both:
//!
//! - [`refine_csags`] fans the per-transaction refinements across a
//!   thread pool. Refinement of one transaction never looks at another's
//!   C-SAG, and the analyzer's hide/tier decisions are pure per-key
//!   hashes, so the result is byte-identical to the serial loop regardless
//!   of completion order. Each worker keeps a digest memo for the block,
//!   which changes what is hashed, not what is predicted.
//! - [`BlockPipeline`] overlaps stages across blocks: while block N
//!   executes, block N+1's C-SAGs are refined against the snapshot that
//!   *preceded* block N (the latest committed state at the time the stage
//!   starts). Predictions are therefore one block stale; any key block N
//!   actually changed shows up as a misprediction and lands in the
//!   executor's existing abort path — the same machinery the DST layer
//!   exercises with its stale-snapshot seeds, so pipelining buys
//!   overlap without new correctness surface. The pipeline is generic over
//!   [`BlockExecutor`]; an engine that consumes no predictions has no
//!   refinement stage to run, and its blocks simply execute back to back.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dmvcc_analysis::{Analyzer, CSag};
use dmvcc_state::Snapshot;
use dmvcc_vm::{BlockEnv, DigestCounts, KeccakMemo, Transaction};

use crate::executor::BlockExecutor;
use crate::parallel::ParallelOutcome;

/// Below this block size the per-thread spawn cost outweighs the win;
/// refine serially.
const PARALLEL_REFINE_MIN: usize = 8;

/// Refines one C-SAG per transaction, fanning the refinements across up
/// to `threads` OS threads. Falls back to the plain serial loop for one
/// thread or tiny blocks. The output is index-aligned with `txs` and
/// identical to a loop of `analyzer.csag` calls.
pub fn refine_csags(
    analyzer: &Analyzer,
    txs: &[Transaction],
    snapshot: &Snapshot,
    block_env: &BlockEnv,
    threads: usize,
) -> Vec<CSag> {
    refine_counted(analyzer, txs, snapshot, block_env, threads).0
}

/// [`refine_csags`], also returning what the refine workers' digest memos
/// were asked for and computed, summed. Each worker keeps one
/// [`KeccakMemo`] for the block: a mapping slot two of its transactions
/// derive is hashed once.
pub(crate) fn refine_counted(
    analyzer: &Analyzer,
    txs: &[Transaction],
    snapshot: &Snapshot,
    block_env: &BlockEnv,
    threads: usize,
) -> (Vec<CSag>, DigestCounts) {
    let threads = threads.min(txs.len());
    if threads <= 1 || txs.len() < PARALLEL_REFINE_MIN {
        let mut memo = KeccakMemo::default();
        let csags = txs
            .iter()
            .map(|tx| analyzer.csag_with_memo(tx, snapshot, block_env, &mut memo))
            .collect();
        return (csags, memo.counts());
    }
    // Claim indices from a shared counter: cheap dynamic load balancing
    // (speculative fallbacks are far more expensive than symbolic
    // bindings, so static chunking would straggle).
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<CSag>> = vec![None; txs.len()];
    let mut counts = DigestCounts::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut mine: Vec<(usize, CSag)> = Vec::new();
                let mut memo = KeccakMemo::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= txs.len() {
                        return (mine, memo.counts());
                    }
                    let csag = analyzer.csag_with_memo(&txs[i], snapshot, block_env, &mut memo);
                    mine.push((i, csag));
                }
            }));
        }
        for handle in handles {
            let (mine, worker) = handle.join().expect("refine worker panicked");
            for (i, csag) in mine {
                slots[i] = Some(csag);
            }
            counts += worker;
        }
    });
    let csags = slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect();
    (csags, counts)
}

/// Wall-clock accounting of a pipelined run, for the refine-vs-execute
/// overlap the stats surface.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Blocks executed.
    pub blocks: u64,
    /// Total nanoseconds spent refining C-SAGs (all blocks).
    pub refine_nanos: u64,
    /// Total nanoseconds spent inside the executor.
    pub execute_nanos: u64,
    /// Refinement nanoseconds that ran concurrently with execution —
    /// `min(refine of block N+1, execute of block N)` summed over the
    /// chain. With pipelining off this is zero; fully hidden refinement
    /// drives it toward `refine_nanos` minus the unavoidable first block.
    pub overlapped_refine_nanos: u64,
}

impl PipelineStats {
    /// Fraction of refinement wall-time hidden behind execution.
    pub fn overlap_fraction(&self) -> f64 {
        if self.refine_nanos == 0 {
            0.0
        } else {
            self.overlapped_refine_nanos as f64 / self.refine_nanos as f64
        }
    }
}

/// Executes a chain of blocks with the analysis front-end pipelined one
/// block ahead of execution.
///
/// Block N+1's C-SAGs are refined on a separate thread against the
/// snapshot committed *before* block N, concurrently with block N's
/// execution; the executor absorbs the resulting stale predictions
/// through its abort path. Final writes are applied between blocks, so
/// the committed chain state is identical to executing the blocks
/// back-to-back.
///
/// An executor whose [`BlockExecutor::consumes_predictions`] is `false`
/// gets no refinement stage at all (`refine_nanos` stays zero).
#[derive(Debug)]
pub struct BlockPipeline<E> {
    executor: E,
    /// Threads granted to the refinement stage (the executor's workers
    /// keep their own budget).
    refine_threads: usize,
}

impl<E: BlockExecutor> BlockPipeline<E> {
    /// Wraps an executor; refinement uses the same thread budget as
    /// execution.
    pub fn new(executor: E) -> Self {
        let refine_threads = executor.config().threads;
        BlockPipeline {
            executor,
            refine_threads,
        }
    }

    /// The wrapped executor.
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// Runs `blocks` in order against `snapshot`, pipelining refinement.
    /// Returns one outcome per block plus the final snapshot and the
    /// overlap accounting. `env_of` maps a block index to its
    /// [`BlockEnv`].
    ///
    /// `on_block(i, outcome)` fires after block `i`'s writes are applied
    /// to the pipeline snapshot and **before** block `i+1` executes —
    /// the seam where a chain driver launches asynchronous state
    /// commitment (`StateDb::commit_async`), so block `i`'s root hashing
    /// overlaps block `i+1`'s refinement and execution. Keep the hook
    /// cheap: it runs on the pipeline's critical path, and anything slow
    /// belongs on the background side of the handle it launches.
    pub fn run_blocks_with(
        &self,
        blocks: &[Vec<Transaction>],
        snapshot: &Snapshot,
        env_of: impl Fn(usize) -> BlockEnv,
        mut on_block: impl FnMut(usize, &ParallelOutcome),
    ) -> (Vec<ParallelOutcome>, Snapshot, PipelineStats) {
        let mut outcomes = Vec::with_capacity(blocks.len());
        let mut stats = PipelineStats {
            blocks: blocks.len() as u64,
            ..PipelineStats::default()
        };
        let mut snapshot = snapshot.clone();
        if blocks.is_empty() {
            return (outcomes, snapshot, stats);
        }

        let analyzer = self.executor.analyzer();
        let refines = self.executor.consumes_predictions();
        // Block 0 has nothing to overlap with: refine it up front.
        let mut csags = refines.then(|| {
            let first_start = Instant::now();
            let csags = refine_csags(
                analyzer,
                &blocks[0],
                &snapshot,
                &env_of(0),
                self.refine_threads,
            );
            stats.refine_nanos += first_start.elapsed().as_nanos() as u64;
            csags
        });

        for i in 0..blocks.len() {
            let env = env_of(i);
            // The refinement stage for block i+1 deliberately reads the
            // snapshot from *before* block i commits — that staleness is
            // the price of overlap, absorbed by the abort path.
            let stale_snapshot = &snapshot;
            let (outcome, next_csags, exec_nanos, refine_nanos) = std::thread::scope(|scope| {
                let ahead = blocks.get(i + 1).filter(|_| refines).map(|next_txs| {
                    let next_env = env_of(i + 1);
                    scope.spawn(move || {
                        let start = Instant::now();
                        let csags = refine_csags(
                            analyzer,
                            next_txs,
                            stale_snapshot,
                            &next_env,
                            self.refine_threads,
                        );
                        (csags, start.elapsed().as_nanos() as u64)
                    })
                });
                let start = Instant::now();
                let outcome = match &csags {
                    Some(csags) => self
                        .executor
                        .execute_block_with_csags(&blocks[i], &snapshot, &env, csags),
                    None => self.executor.execute_block(&blocks[i], &snapshot, &env),
                };
                let exec_nanos = start.elapsed().as_nanos() as u64;
                let (next_csags, refine_nanos) = match ahead {
                    Some(handle) => {
                        let (csags, nanos) = handle.join().expect("refine stage panicked");
                        (Some(csags), nanos)
                    }
                    None => (None, 0),
                };
                (outcome, next_csags, exec_nanos, refine_nanos)
            });
            stats.execute_nanos += exec_nanos;
            stats.refine_nanos += refine_nanos;
            stats.overlapped_refine_nanos += refine_nanos.min(exec_nanos);
            snapshot = snapshot.apply(&outcome.final_writes);
            on_block(i, &outcome);
            outcomes.push(outcome);
            csags = next_csags;
        }
        (outcomes, snapshot, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorKind;
    use crate::oracle::execute_block_serial;
    use crate::parallel::{ParallelConfig, ParallelExecutor};
    use dmvcc_primitives::{Address, U256};
    use dmvcc_vm::{calldata, contracts, CodeRegistry, TxEnv};

    const TOKEN: u64 = 850;

    fn registry() -> CodeRegistry {
        CodeRegistry::builder()
            .deploy(Address::from_u64(TOKEN), contracts::token())
            .build()
    }

    fn mint(caller: u64, to: u64, amount: u64) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(TOKEN),
            calldata(
                contracts::token_fn::MINT,
                &[Address::from_u64(to).to_u256(), U256::from(amount)],
            ),
        ))
    }

    fn transfer(caller: u64, to: u64, amount: u64) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(TOKEN),
            calldata(
                contracts::token_fn::TRANSFER,
                &[Address::from_u64(to).to_u256(), U256::from(amount)],
            ),
        ))
    }

    fn chain_blocks() -> Vec<Vec<Transaction>> {
        // Block 1 funds the accounts block 2 spends from, and block 2
        // rewrites balances block 3 reads: every block's predictions go
        // stale for the pipelined refinement of the next one.
        vec![
            (0..12).map(|i| mint(900 + i, 1 + i % 4, 50)).collect(),
            (0..12)
                .map(|i| transfer(1 + i % 4, 1 + (i + 1) % 4, 3))
                .collect(),
            (0..12)
                .map(|i| {
                    if i % 2 == 0 {
                        transfer(1 + i % 4, 5 + i % 3, 2)
                    } else {
                        mint(950 + i, 1 + i % 4, 9)
                    }
                })
                .collect(),
        ]
    }

    #[test]
    fn parallel_refinement_matches_serial_loop() {
        let analyzer = Analyzer::new(registry());
        let txs: Vec<Transaction> = (0..24).map(|i| mint(900 + i, 1 + i % 6, 10)).collect();
        let snapshot = Snapshot::empty();
        let env = BlockEnv::default();
        let serial: Vec<CSag> = txs
            .iter()
            .map(|tx| analyzer.csag(tx, &snapshot, &env))
            .collect();
        for threads in [1, 2, 4, 8] {
            let fanned = refine_csags(&analyzer, &txs, &snapshot, &env, threads);
            assert_eq!(fanned.len(), serial.len());
            for (a, b) in fanned.iter().zip(&serial) {
                assert_eq!(a.reads, b.reads);
                assert_eq!(a.writes, b.writes);
                assert_eq!(a.adds, b.adds);
                assert_eq!(a.tier, b.tier);
                assert_eq!(a.predicted_gas, b.predicted_gas);
            }
        }
    }

    #[test]
    fn pipelined_chain_matches_sequential_execution() {
        let blocks = chain_blocks();
        let analyzer = Analyzer::new(registry());
        let env_of = |i: usize| BlockEnv::new(1 + i as u64, 1_700_000_000 + i as u64 * 12);

        // Reference: serial oracle, block by block.
        let mut expected = Snapshot::empty();
        for (i, txs) in blocks.iter().enumerate() {
            let trace = execute_block_serial(txs, &expected, &analyzer, &env_of(i));
            expected = expected.apply(&trace.final_writes);
        }

        let executor = ParallelExecutor::new(
            analyzer.clone(),
            ParallelConfig {
                threads: 4,
                ..ParallelConfig::default()
            },
        );
        let pipeline = BlockPipeline::new(executor);
        let (outcomes, final_snapshot, stats) =
            pipeline.run_blocks_with(&blocks, &Snapshot::empty(), env_of, |_, _| {});
        assert_eq!(outcomes.len(), blocks.len());
        assert_eq!(stats.blocks, blocks.len() as u64);
        assert!(stats.refine_nanos > 0);
        assert!(stats.execute_nanos > 0);
        assert_eq!(entries(&final_snapshot), entries(&expected));
    }

    #[test]
    fn every_engine_pipelines_to_the_serial_oracle_block_by_block() {
        let blocks = chain_blocks();
        let analyzer = Analyzer::new(registry());
        let env_of = |i: usize| BlockEnv::new(1 + i as u64, 1_700_000_000 + i as u64 * 12);
        for kind in ExecutorKind::ALL {
            let config = ParallelConfig {
                threads: 4,
                ..ParallelConfig::default()
            };
            let pipeline = BlockPipeline::new(kind.build(analyzer.clone(), config, None));
            let mut snapshot = Snapshot::empty();
            let (outcomes, final_snapshot, stats) =
                pipeline.run_blocks_with(&blocks, &snapshot.clone(), env_of, |i, outcome| {
                    let trace = execute_block_serial(&blocks[i], &snapshot, &analyzer, &env_of(i));
                    assert_eq!(
                        outcome.final_writes,
                        trace.final_writes,
                        "{} diverged at block {i}",
                        kind.label()
                    );
                    let gas_used: Vec<u64> = trace.txs.iter().map(|t| t.gas_used).collect();
                    assert_eq!(outcome.gas_used, gas_used, "{} block {i}", kind.label());
                    snapshot = snapshot.apply(&trace.final_writes);
                });
            assert_eq!(outcomes.len(), blocks.len());
            assert_eq!(entries(&final_snapshot), entries(&snapshot));
            assert!(stats.execute_nanos > 0);
            // Only the engine that consumes no predictions skips the
            // refine stage.
            assert_eq!(
                stats.refine_nanos == 0,
                kind == ExecutorKind::Stm,
                "{}",
                kind.label()
            );
        }
    }

    /// A snapshot's materialized contents in a comparable form.
    fn entries(snapshot: &Snapshot) -> std::collections::BTreeMap<dmvcc_state::StateKey, U256> {
        snapshot.iter().collect()
    }

    #[test]
    fn empty_chain_is_a_no_op() {
        let pipeline = BlockPipeline::new(ParallelExecutor::new(
            Analyzer::new(registry()),
            ParallelConfig::default(),
        ));
        let (outcomes, snapshot, stats) =
            pipeline.run_blocks_with(&[], &Snapshot::empty(), |_| BlockEnv::default(), |_, _| {});
        assert!(outcomes.is_empty());
        assert_eq!(stats, PipelineStats::default());
        assert!(snapshot.is_empty());
    }

    #[test]
    fn overlap_fraction_bounded() {
        let blocks = chain_blocks();
        let pipeline = BlockPipeline::new(ParallelExecutor::new(
            Analyzer::new(registry()),
            ParallelConfig {
                threads: 2,
                ..ParallelConfig::default()
            },
        ));
        let env_of = |i: usize| BlockEnv::new(1 + i as u64, 1_700_000_000);
        let (_, _, stats) =
            pipeline.run_blocks_with(&blocks, &Snapshot::empty(), env_of, |_, _| {});
        let fraction = stats.overlap_fraction();
        assert!((0.0..=1.0).contains(&fraction), "fraction {fraction}");
        assert!(stats.overlapped_refine_nanos <= stats.refine_nanos);
        assert!(stats.overlapped_refine_nanos <= stats.execute_nanos);
    }
}
