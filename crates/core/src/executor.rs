//! The one executor surface: [`BlockExecutor`] and [`ExecutorKind`].
//!
//! The three threaded engines ([`ParallelExecutor`], [`StmExecutor`],
//! [`HybridExecutor`]) are distinct types with the same block-level
//! contract: given a block and the snapshot before it, return a
//! [`ParallelOutcome`] whose write set, statuses and per-transaction gas
//! equal the serial oracle's. [`BlockExecutor`] is that contract as an
//! object-safe trait, and [`ExecutorKind::build`] is the only place a kind
//! is turned into an engine — the chain, the DST driver, the benches and
//! [`crate::BlockPipeline`] all hold a `dyn BlockExecutor` (or are generic
//! over one) and never match on the kind.

use std::sync::Arc;

use dmvcc_analysis::{Analyzer, CSag};
use dmvcc_state::Snapshot;
use dmvcc_vm::{BlockEnv, Transaction};

use crate::hook::SchedHook;
use crate::parallel::{ParallelConfig, ParallelExecutor, ParallelOutcome};
use crate::parallel_stm::{HybridExecutor, StmExecutor};

/// A threaded block executor: any engine that turns a block plus its
/// pre-state into the serial-equivalent [`ParallelOutcome`].
pub trait BlockExecutor: Send + Sync {
    /// Executes a block, refining C-SAGs first if the engine uses them
    /// (`stats.refine_nanos` reports that time).
    fn execute_block(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
    ) -> ParallelOutcome;

    /// Executes a block with precomputed C-SAGs, one per transaction.
    /// Correctness never depends on the predictions: stale or wrong ones
    /// cost aborts, not results.
    fn execute_block_with_csags(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
        csags: &[CSag],
    ) -> ParallelOutcome;

    /// The analyzer (contract registry) the engine executes against.
    fn analyzer(&self) -> &Analyzer;

    /// The engine's configuration.
    fn config(&self) -> &ParallelConfig;

    /// `true` if the engine schedules from C-SAG predictions. An engine
    /// that does not (the optimistic one) gains nothing from refinement, so
    /// [`crate::BlockPipeline`] skips that stage for it.
    fn consumes_predictions(&self) -> bool;
}

/// Implements [`BlockExecutor`] for an engine by forwarding to its inherent
/// methods of the same names.
macro_rules! forward_block_executor {
    ($engine:ty, consumes_predictions: $consumes:expr) => {
        impl BlockExecutor for $engine {
            fn execute_block(
                &self,
                txs: &[Transaction],
                snapshot: &Snapshot,
                block_env: &BlockEnv,
            ) -> ParallelOutcome {
                <$engine>::execute_block(self, txs, snapshot, block_env)
            }

            fn execute_block_with_csags(
                &self,
                txs: &[Transaction],
                snapshot: &Snapshot,
                block_env: &BlockEnv,
                csags: &[CSag],
            ) -> ParallelOutcome {
                <$engine>::execute_block_with_csags(self, txs, snapshot, block_env, csags)
            }

            fn analyzer(&self) -> &Analyzer {
                <$engine>::analyzer(self)
            }

            fn config(&self) -> &ParallelConfig {
                <$engine>::config(self)
            }

            fn consumes_predictions(&self) -> bool {
                $consumes
            }
        }
    };
}

forward_block_executor!(ParallelExecutor, consumes_predictions: true);
forward_block_executor!(StmExecutor, consumes_predictions: false);
forward_block_executor!(HybridExecutor, consumes_predictions: true);

impl<E: BlockExecutor + ?Sized> BlockExecutor for Box<E> {
    fn execute_block(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
    ) -> ParallelOutcome {
        (**self).execute_block(txs, snapshot, block_env)
    }

    fn execute_block_with_csags(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
        csags: &[CSag],
    ) -> ParallelOutcome {
        (**self).execute_block_with_csags(txs, snapshot, block_env, csags)
    }

    fn analyzer(&self) -> &Analyzer {
        (**self).analyzer()
    }

    fn config(&self) -> &ParallelConfig {
        (**self).config()
    }

    fn consumes_predictions(&self) -> bool {
        (**self).consumes_predictions()
    }
}

/// Which threaded engine executes blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// The predictive sharded DMVCC executor (the default).
    #[default]
    Sharded,
    /// The Block-STM-style optimistic executor (no predictions consumed).
    Stm,
    /// The hybrid dispatcher: predictive for well-analyzed transactions,
    /// optimistic for speculative/unanalyzable ones.
    Hybrid,
}

impl ExecutorKind {
    /// Every engine, default first.
    pub const ALL: [ExecutorKind; 3] = [
        ExecutorKind::Sharded,
        ExecutorKind::Stm,
        ExecutorKind::Hybrid,
    ];

    /// Parses the CLI spelling of an executor kind.
    pub fn parse(name: &str) -> Option<ExecutorKind> {
        ExecutorKind::ALL
            .into_iter()
            .find(|kind| kind.label() == name)
    }

    /// The CLI spelling (inverse of [`Self::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            ExecutorKind::Sharded => "sharded",
            ExecutorKind::Stm => "stm",
            ExecutorKind::Hybrid => "hybrid",
        }
    }

    /// Builds the engine of this kind, installing `hook` if one is given
    /// (DST only; production passes `None`).
    pub fn build(
        self,
        analyzer: Analyzer,
        config: ParallelConfig,
        hook: Option<Arc<dyn SchedHook>>,
    ) -> Box<dyn BlockExecutor> {
        fn hooked<E: BlockExecutor + 'static>(
            engine: E,
            hook: Option<Arc<dyn SchedHook>>,
            with_hook: fn(E, Arc<dyn SchedHook>) -> E,
        ) -> Box<dyn BlockExecutor> {
            Box::new(match hook {
                Some(hook) => with_hook(engine, hook),
                None => engine,
            })
        }
        match self {
            ExecutorKind::Sharded => hooked(
                ParallelExecutor::new(analyzer, config),
                hook,
                ParallelExecutor::with_hook,
            ),
            ExecutorKind::Stm => hooked(
                StmExecutor::new(analyzer, config),
                hook,
                StmExecutor::with_hook,
            ),
            ExecutorKind::Hybrid => hooked(
                HybridExecutor::new(analyzer, config),
                hook,
                HybridExecutor::with_hook,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::execute_block_serial;
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::StateKey;
    use dmvcc_vm::{CodeRegistry, ExecStatus};

    #[test]
    fn any_thread_count_matches_the_serial_oracle() {
        // A dependent chain 1 → 2 → 3 → 4: zero workers must still execute
        // it, and more workers than transactions must not change it.
        let txs: Vec<Transaction> = (1..=3)
            .map(|i| {
                Transaction::transfer(Address::from_u64(i), Address::from_u64(i + 1), U256::ONE)
            })
            .collect();
        let snapshot =
            Snapshot::from_entries([(StateKey::balance(Address::from_u64(1)), U256::from(10u64))]);
        let analyzer = Analyzer::new(CodeRegistry::default());
        let env = BlockEnv::default();
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let statuses: Vec<ExecStatus> = trace.txs.iter().map(|t| t.status.clone()).collect();
        let gas_used: Vec<u64> = trace.txs.iter().map(|t| t.gas_used).collect();
        for kind in ExecutorKind::ALL {
            for threads in [0, 1, txs.len() + 5] {
                let config = ParallelConfig {
                    threads,
                    ..ParallelConfig::default()
                };
                let outcome = kind
                    .build(analyzer.clone(), config, None)
                    .execute_block(&txs, &snapshot, &env);
                let label = format!("{} at threads={threads}", kind.label());
                assert_eq!(outcome.final_writes, trace.final_writes, "{label}");
                assert_eq!(outcome.statuses, statuses, "{label}");
                assert_eq!(outcome.gas_used, gas_used, "{label}");
            }
        }
    }

    #[test]
    fn only_the_optimistic_engine_ignores_predictions() {
        for kind in ExecutorKind::ALL {
            let engine = kind.build(
                Analyzer::new(CodeRegistry::default()),
                ParallelConfig::default(),
                None,
            );
            assert_eq!(
                engine.consumes_predictions(),
                kind != ExecutorKind::Stm,
                "{}",
                kind.label()
            );
        }
    }
}
