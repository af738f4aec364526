//! The chain: one block path, and the two drivers that run it.
//!
//! Every block is produced by a threaded engine and sealed in one place.
//! [`produce_block`] is the path: execute the transactions on a
//! [`BlockExecutor`], commit the engine's write set to the [`StateDb`],
//! and hand the statuses, the gas each execution actually charged and the
//! new state root to [`seal_block`], the only constructor of a non-genesis
//! header. The serial oracle (`execute_block_serial`) produces no block;
//! it is the reference a sealed block is compared against. Its statuses,
//! gas and state root go through the same `seal_block`, and the two headers
//! must be equal — one comparison that covers the state root, the receipts
//! root and the gas (paper §III-A: a block any node can reproduce bit for
//! bit).
//!
//! Two drivers sit on that path:
//!
//! - [`run_testnet`] is the blockchain-environment evaluation (RQ3,
//!   Fig. 8). The paper tunes mining to one block every 12 s (or 1 s),
//!   raises the gas limit so a block packs up to 10 000 transactions, and
//!   measures *throughput speedup*. Transactions arrive through a
//!   [`TxPool`] (some without a SAG), and the blocks come from
//!   [`produce_block`] with the pool's C-SAGs. The report keeps each
//!   block's oracle trace and C-SAGs; what a block costs under a scheduler
//!   and a mining interval is computed from them in virtual time by the
//!   `dmvcc-sim` crate, and does not change the chain.
//! - [`run_pipelined_chain`] is the wall-clock front-end: block N executes
//!   while block N+1's C-SAGs are refined and block N−1's state root is
//!   hashed, and each block is sealed as its root resolves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod pool;

pub use block::{
    block_env, build_receipts, receipts_root, seal_block, transactions_root, verify_chain, Block,
    BlockHeader, Receipt,
};
pub use pool::{PoolStats, TxPool};

use dmvcc_analysis::{Analyzer, CSag};
pub use dmvcc_core::ExecutorKind;
use dmvcc_core::{
    execute_block_serial, BlockExecutor, BlockPipeline, BlockTrace, ParallelConfig, PipelineStats,
};
use dmvcc_primitives::{H256, U256};
use dmvcc_state::{
    LsmBackend, LsmOptions, MemBackend, RootHandle, StateBackend, StateDb, StateKey,
};
use dmvcc_vm::{BlockEnv, Transaction};
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;

/// Which persistent state backend the chain's [`StateDb`] commits to.
///
/// Orthogonal to [`ExecutorKind`]: the backend
/// only changes where committed versions live (RAM vs the log-structured
/// store), never execution results — every configuration must land on the
/// same roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory versioned map (the default): the store
    /// [`StateDb::with_genesis`] and `Snapshot::from_entries` build too.
    #[default]
    Mem,
    /// Log-structured on-disk store (append-only segments + compaction).
    Lsm,
}

impl BackendKind {
    /// Parses the CLI spelling of a backend kind.
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name {
            "mem" => Some(BackendKind::Mem),
            "lsm" => Some(BackendKind::Lsm),
            _ => None,
        }
    }

    /// The CLI spelling (inverse of [`Self::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Mem => "mem",
            BackendKind::Lsm => "lsm",
        }
    }

    /// Builds a [`StateDb`] over this backend, seeded with `entries`: the
    /// in-memory store, which answers latest reads from its own slots, or
    /// the LSM store, which answers them from its own flat-state cache.
    pub fn build_db(&self, entries: Vec<(StateKey, U256)>) -> StateDb {
        let backend: Arc<dyn StateBackend> = match self {
            BackendKind::Mem => Arc::new(MemBackend::new()),
            BackendKind::Lsm => Arc::new(LsmBackend::new(LsmOptions::default())),
        };
        StateDb::with_backend(backend, entries)
    }
}

/// What every chain driver reads: the shape of the chain and what executes
/// and stores it.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Transactions per block (paper: 180 for stock mining, 10 000 with the
    /// raised gas limit).
    pub block_size: usize,
    /// Number of blocks to produce.
    pub blocks: usize,
    /// Worker threads of the threaded engine and of root hashing, which
    /// take at most 8.
    pub threads: usize,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Which threaded engine produces the blocks (predictive sharded,
    /// optimistic STM, or hybrid).
    pub executor: ExecutorKind,
    /// Which persistent state backend the chain commits to.
    pub backend: BackendKind,
}

impl ChainConfig {
    /// Real worker threads granted to the engine and to root hashing.
    fn real_threads(&self) -> usize {
        self.threads.clamp(1, 8)
    }

    fn build_executor(&self, analyzer: Analyzer) -> Box<dyn BlockExecutor> {
        let config = ParallelConfig {
            threads: self.real_threads(),
            ..ParallelConfig::default()
        };
        self.executor.build(analyzer, config, None)
    }
}

/// [`run_testnet`]'s configuration: the chain plus what only the testnet
/// has — a transaction pool.
#[derive(Debug, Clone)]
pub struct TestnetConfig {
    /// The chain to run.
    pub chain: ChainConfig,
    /// Fraction of transactions that reach the pool *without* a SAG
    /// (late propagation; the paper's pool-desync scenario). With
    /// `rebuild_missing_sags` a miss is rebuilt at packing against the same
    /// snapshot and environment as at arrival, and the pool is FIFO, so the
    /// C-SAGs and the chain are identical to a run without misses.
    pub pool_miss_rate: f64,
    /// Whether missing SAGs are rebuilt on the fly (paper's first option)
    /// or executed with empty predictions "as what OCC does" (second).
    pub rebuild_missing_sags: bool,
}

impl TestnetConfig {
    /// The chain of the paper's execution-bound configuration: 10 000-tx
    /// blocks on the realistic workload (the paper mines them at 1 s), on
    /// one engine thread per core.
    pub fn execution_bound(seed: u64) -> Self {
        TestnetConfig {
            chain: ChainConfig {
                block_size: 10_000,
                blocks: 4,
                threads: ParallelConfig::default().threads,
                workload: WorkloadConfig::ethereum_mix(seed),
                executor: ExecutorKind::Sharded,
                backend: BackendKind::Mem,
            },
            pool_miss_rate: 0.0,
            rebuild_missing_sags: true,
        }
    }
}

/// Produces the block after `parent`: executes `txs` on `executor` against
/// `db`'s latest state — with `csags` as the predictions if given, else
/// the engine refines its own — commits the engine's write set and seals
/// the result with the statuses and gas the engine reported. `env` must be
/// [`block_env`] of the new height.
pub fn produce_block(
    executor: &dyn BlockExecutor,
    db: &mut StateDb,
    parent: &BlockHeader,
    txs: Vec<Transaction>,
    csags: Option<&[CSag]>,
    env: &BlockEnv,
) -> Block {
    let outcome = match csags {
        Some(csags) => executor.execute_block_with_csags(&txs, db.latest(), env, csags),
        None => executor.execute_block(&txs, db.latest(), env),
    };
    let state_root = db.commit(&outcome.final_writes);
    let results = outcome.statuses.into_iter().zip(outcome.gas_used);
    seal_block(parent, env, txs, results, state_root)
}

/// The serial reference chain. The oracle executes each block on its own
/// state and seals what it saw through the same [`seal_block`] as the
/// engines' blocks, so "this block is what serial execution produces" is
/// one header comparison.
struct Oracle {
    analyzer: Analyzer,
    db: StateDb,
    head: BlockHeader,
}

impl Oracle {
    fn new(analyzer: Analyzer, genesis: Vec<(StateKey, U256)>) -> Self {
        let db = StateDb::with_genesis(genesis);
        let head = BlockHeader::genesis(db.current_root());
        Oracle { analyzer, db, head }
    }

    /// Executes `txs` serially as the next block. Returns the trace and
    /// the header a sealed block of these transactions must carry.
    fn next_block(&mut self, txs: &[Transaction], env: &BlockEnv) -> (BlockTrace, &BlockHeader) {
        let trace = execute_block_serial(txs, self.db.latest(), &self.analyzer, env);
        let state_root = self.db.commit(&trace.final_writes);
        let results = trace.txs.iter().map(|t| (t.status.clone(), t.gas_used));
        self.head = seal_block(&self.head, env, txs.to_vec(), results, state_root).header;
        (trace, &self.head)
    }
}

/// The first block (by number) that is not what the oracle sealed or that
/// [`verify_chain`] rejects.
fn first_divergence(
    differs_from_oracle: Option<u64>,
    genesis: &BlockHeader,
    chain: &[Block],
) -> Option<u64> {
    let unverified = verify_chain(genesis, chain).map(|index| chain[index].header.number);
    differs_from_oracle.into_iter().chain(unverified).min()
}

/// Outcome of a testnet run.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// Blocks mined.
    pub blocks: usize,
    /// Transactions committed (all packed transactions commit; reverted
    /// ones are committed as no-ops, as on Ethereum).
    pub committed_txs: u64,
    /// Number of the first block whose sealed header differs from the one
    /// the serial oracle seals, or that fails [`verify_chain`].
    pub diverged_at: Option<u64>,
    /// Per block, the serial oracle's trace: what a scheduler's virtual
    /// time is charged over.
    pub traces: Vec<BlockTrace>,
    /// Per block, the C-SAGs the block was produced with.
    pub csags: Vec<Vec<CSag>>,
    /// Final state root.
    pub final_root: H256,
    /// The mined chain.
    pub chain: Vec<Block>,
    /// SAG cache behaviour of the pool.
    pub pool_stats: PoolStats,
}

impl ChainReport {
    /// `true` if every sealed header equals the serial oracle's — state
    /// root, receipts root and gas — and the chain verifies end to end.
    pub fn roots_consistent(&self) -> bool {
        self.diverged_at.is_none()
    }
}

/// Runs the micro testnet (RQ3, Fig. 8).
///
/// Per block: transactions arrive in the pool (a `pool_miss_rate` share
/// without a SAG), the packer takes a block and resolves its C-SAGs, and
/// [`produce_block`] executes, commits and seals it on the configured
/// engine with those C-SAGs. The serial oracle runs the same transactions
/// for two purposes only: the header it seals is what the produced block's
/// header must equal, and its trace, kept in the report beside the C-SAGs,
/// is what a virtual-time scheduler is charged over.
pub fn run_testnet(config: &TestnetConfig) -> ChainReport {
    use rand::{Rng, SeedableRng};
    let chain_config = &config.chain;
    let mut generator = WorkloadGenerator::new(chain_config.workload.clone());
    let analyzer = Analyzer::new(generator.registry().clone());
    let genesis_entries = generator.genesis_entries();
    let mut db = chain_config.backend.build_db(genesis_entries.clone());
    let executor = chain_config.build_executor(analyzer.clone());
    let mut oracle = Oracle::new(analyzer.clone(), genesis_entries);

    let mut pool = TxPool::new();
    let mut desync_rng = rand::rngs::StdRng::seed_from_u64(chain_config.workload.seed ^ 0xdead);
    let genesis = BlockHeader::genesis(db.current_root());
    let mut chain: Vec<Block> = Vec::with_capacity(chain_config.blocks);
    let mut traces = Vec::with_capacity(chain_config.blocks);
    let mut block_csags = Vec::with_capacity(chain_config.blocks);
    let mut differs_from_oracle = None;

    for height in 1..=chain_config.blocks as u64 {
        let env = block_env(height);
        let snapshot = db.latest().clone();

        // Arrival: the SAG analyzer processes transactions as they reach
        // the pool (paper §III-A), against the then-latest snapshot. A
        // fraction arrives without analysis (late propagation).
        for tx in generator.block(chain_config.block_size) {
            if config.pool_miss_rate > 0.0 && desync_rng.gen_bool(config.pool_miss_rate) {
                pool.submit_raw(tx);
            } else {
                let sag = analyzer.csag(&tx, &snapshot, &env);
                pool.submit(tx, sag);
            }
        }

        // Packing + SAG resolution; cache misses are rebuilt on the fly or
        // run with empty predictions, as the paper allows.
        let txs = pool.take(chain_config.block_size);
        let csags: Vec<CSag> = txs
            .iter()
            .zip(pool.resolve_sags(&txs))
            .map(|(tx, cached)| match cached {
                Some(sag) => sag,
                None if config.rebuild_missing_sags => analyzer.csag(tx, &snapshot, &env),
                None => CSag::default(),
            })
            .collect();

        let (trace, expected) = oracle.next_block(&txs, &env);
        let parent = chain.last().map_or(&genesis, |block| &block.header);
        let block = produce_block(&*executor, &mut db, parent, txs, Some(&csags), &env);
        if block.header != *expected {
            differs_from_oracle.get_or_insert(height);
        }
        chain.push(block);
        traces.push(trace);
        block_csags.push(csags);
    }

    ChainReport {
        blocks: chain_config.blocks,
        committed_txs: chain.iter().map(|block| block.txs.len() as u64).sum(),
        diverged_at: first_divergence(differs_from_oracle, &genesis, &chain),
        traces,
        csags: block_csags,
        final_root: db.current_root(),
        chain,
        pool_stats: pool.stats(),
    }
}

/// Outcome of a pipelined real-executor chain run — wall-clock, not
/// virtual time, so the refine/execute overlap is directly visible.
#[derive(Debug, Clone)]
pub struct PipelinedChainReport {
    /// Blocks executed.
    pub blocks: usize,
    /// Transactions committed.
    pub committed_txs: u64,
    /// The pipeline's refine, execute and overlapped-refine wall time.
    pub pipeline: PipelineStats,
    /// Wall-clock seconds spent hashing state roots (background commit
    /// threads; all blocks).
    pub commit_seconds: f64,
    /// Root-hashing seconds hidden behind execution of subsequent blocks —
    /// commit work that never stalled the chain.
    pub commit_hidden_seconds: f64,
    /// Executor aborts over all blocks (stale pipelined predictions show
    /// up here, absorbed by the abort path).
    pub aborts: u64,
    /// Number of the first block whose sealed header differs from the one
    /// the serial oracle seals, or that fails [`verify_chain`].
    pub diverged_at: Option<u64>,
    /// Final state root after committing every block.
    pub final_root: H256,
    /// CLI label of the state backend the chain committed to.
    pub backend: &'static str,
    /// The sealed chain.
    pub chain: Vec<Block>,
}

impl PipelinedChainReport {
    /// `true` if every sealed header equals the serial oracle's — state
    /// root (the asynchronously hashed one), receipts root and gas — and
    /// the chain verifies end to end.
    pub fn roots_consistent(&self) -> bool {
        self.diverged_at.is_none()
    }

    /// Fraction of root-hashing wall-time hidden off the critical path.
    pub fn commit_hidden_fraction(&self) -> f64 {
        if self.commit_seconds == 0.0 {
            0.0
        } else {
            self.commit_hidden_seconds / self.commit_seconds
        }
    }
}

/// Runs the chain with the pipelined block front-end: block N executes on
/// the real threaded executor while block N+1's C-SAGs are refined
/// against the snapshot from *before* block N — exactly the staleness the
/// transaction pool already produces, so mispredictions land in the
/// executor's existing abort path. The optimistic engine consumes no
/// predictions, so for it the refinement stage is absent and only root
/// hashing overlaps the next block.
///
/// Unlike [`run_testnet`] this path bypasses the pool and keeps no traces
/// for virtual time: it measures the real front-end, wall-clock. Each block is
/// sealed as its asynchronously hashed root resolves, and the sealed chain
/// is then replayed on the serial oracle header by header.
pub fn run_pipelined_chain(config: &ChainConfig) -> PipelinedChainReport {
    let mut generator = WorkloadGenerator::new(config.workload.clone());
    let analyzer = Analyzer::new(generator.registry().clone());
    let genesis_entries = generator.genesis_entries();
    let mut db = config.backend.build_db(genesis_entries.clone());
    db.set_hash_threads(config.real_threads());
    // The generator emits transactions independent of execution state, so
    // the whole chain's blocks can be drawn up front — the pipeline needs
    // block N+1's transactions while block N runs.
    let blocks: Vec<Vec<Transaction>> = (0..config.blocks)
        .map(|_| generator.block(config.block_size))
        .collect();
    let env_of = |i: usize| block_env(1 + i as u64);

    let genesis = BlockHeader::genesis(db.current_root());
    let genesis_snapshot = db.latest().clone();
    // Block N's root hashing is launched off-thread the moment its writes
    // are known, so it overlaps block N+1's refinement and execution; the
    // handles resolve later and any residual wait is the un-hidden stall.
    let mut handles: Vec<RootHandle> = Vec::with_capacity(config.blocks);
    let pipeline = BlockPipeline::new(config.build_executor(analyzer.clone()));
    let (outcomes, _, stats) =
        pipeline.run_blocks_with(&blocks, &genesis_snapshot, env_of, |_, outcome| {
            handles.push(db.commit_async(&outcome.final_writes));
        });

    // Resolve every block's root and seal the block over it. The residual
    // wait here is commit work the pipeline failed to hide; hash time
    // minus that stall is hidden.
    let mut commit_nanos = 0u64;
    let mut stalled_nanos = 0u64;
    let mut aborts = 0u64;
    let mut chain: Vec<Block> = Vec::with_capacity(config.blocks);
    for (i, ((txs, outcome), handle)) in blocks.into_iter().zip(outcomes).zip(&handles).enumerate()
    {
        let started = std::time::Instant::now();
        let state_root = handle.wait();
        stalled_nanos += started.elapsed().as_nanos() as u64;
        commit_nanos += handle.hash_nanos();
        aborts += outcome.aborts;
        let parent = chain.last().map_or(&genesis, |block| &block.header);
        let results = outcome.statuses.into_iter().zip(outcome.gas_used);
        chain.push(seal_block(parent, &env_of(i), txs, results, state_root));
    }
    let hidden_nanos = commit_nanos.saturating_sub(stalled_nanos);

    let mut oracle = Oracle::new(analyzer, genesis_entries);
    let differs_from_oracle = chain.iter().find_map(|block| {
        let number = block.header.number;
        let (_, expected) = oracle.next_block(&block.txs, &block_env(number));
        (block.header != *expected).then_some(number)
    });

    PipelinedChainReport {
        blocks: config.blocks,
        committed_txs: chain.iter().map(|block| block.txs.len() as u64).sum(),
        pipeline: stats,
        commit_seconds: commit_nanos as f64 / 1e9,
        commit_hidden_seconds: hidden_nanos as f64 / 1e9,
        aborts,
        diverged_at: first_divergence(differs_from_oracle, &genesis, &chain),
        final_root: db.current_root(),
        backend: db.backend_name(),
        chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `mix` over few enough accounts and contracts to set up in
    /// milliseconds.
    fn tiny_workload(mix: WorkloadConfig) -> WorkloadConfig {
        WorkloadConfig {
            accounts: 100,
            token_contracts: 6,
            amm_contracts: 3,
            nft_contracts: 2,
            counter_contracts: 1,
            ballot_contracts: 1,
            fig1_contracts: 1,
            ..mix
        }
    }

    fn tiny_config() -> TestnetConfig {
        TestnetConfig {
            chain: ChainConfig {
                block_size: 40,
                blocks: 3,
                threads: 4,
                workload: tiny_workload(WorkloadConfig::ethereum_mix(11)),
                executor: ExecutorKind::Sharded,
                backend: BackendKind::Mem,
            },
            pool_miss_rate: 0.0,
            rebuild_missing_sags: true,
        }
    }

    #[test]
    fn serial_testnet_runs_and_roots_agree() {
        let report = run_testnet(&tiny_config());
        assert_eq!(report.blocks, 3);
        assert_eq!(report.committed_txs, 120);
        assert!(report.roots_consistent());
        assert_eq!(report.chain.len(), 3);
        assert_eq!(report.traces.len(), 3);
        assert_eq!(report.csags.len(), 3);
    }

    #[test]
    fn pool_misses_do_not_break_consistency() {
        let mut config = tiny_config();
        config.pool_miss_rate = 0.5;
        config.rebuild_missing_sags = false; // OCC fallback for misses
        let report = run_testnet(&config);
        assert!(report.roots_consistent());
        assert!(report.pool_stats.sag_misses > 0);
        assert!(report.pool_stats.sag_hits > 0);
        // Same chain as the fully-analyzed run.
        let clean = run_testnet(&tiny_config());
        assert_eq!(report.final_root, clean.final_root);
        // Rebuilt misses see the arrival's snapshot and environment: the
        // C-SAGs, and so the chain, are the clean run's exactly.
        config.rebuild_missing_sags = true;
        let report = run_testnet(&config);
        assert!(report.pool_stats.sag_misses > 0);
        assert_eq!(report.chain, clean.chain);
        assert_eq!(report.csags, clean.csags);
    }

    #[test]
    fn headers_form_a_verified_chain() {
        let report = run_testnet(&tiny_config());
        assert!(report.roots_consistent());
        for pair in report.chain.windows(2) {
            assert_eq!(pair[1].header.parent_hash, pair[0].header.hash());
        }
        assert_eq!(
            report.chain.last().unwrap().header.state_root,
            report.final_root
        );
        for block in &report.chain {
            assert_eq!(block.receipts.len(), block.txs.len());
            assert_eq!(
                transactions_root(&block.txs),
                block.header.transactions_root
            );
        }
    }

    #[test]
    fn pipelined_chain_matches_serial_oracle() {
        let report = run_pipelined_chain(&tiny_config().chain);
        assert!(report.roots_consistent());
        assert_eq!(report.blocks, 3);
        assert_eq!(report.committed_txs, 120);
        let pipeline = &report.pipeline;
        assert!(pipeline.refine_nanos > 0);
        assert!(pipeline.execute_nanos > 0);
        assert!(pipeline.overlapped_refine_nanos <= pipeline.refine_nanos);
        assert!((0.0..=1.0).contains(&pipeline.overlap_fraction()));
    }

    #[test]
    fn pipelined_chain_root_matches_testnet() {
        // Same workload seed → same transactions → the pipelined
        // real-executor chain must land on the virtual testnet's root.
        let testnet = run_testnet(&tiny_config());
        let pipelined = run_pipelined_chain(&tiny_config().chain);
        assert_eq!(pipelined.final_root, testnet.final_root);
    }

    /// One chain per engine: `run` must stay consistent with the serial
    /// oracle and land every engine on the same root.
    fn every_engine_lands_on_one_root(run: impl Fn(&TestnetConfig) -> (bool, H256)) {
        let roots: Vec<H256> = ExecutorKind::ALL
            .iter()
            .map(|&kind| {
                let mut config = tiny_config();
                config.chain.executor = kind;
                let (consistent, root) = run(&config);
                assert!(consistent, "{} diverged", kind.label());
                root
            })
            .collect();
        assert!(roots.windows(2).all(|w| w[0] == w[1]), "{roots:?}");
    }

    #[test]
    fn stm_and_hybrid_crosschecks_stay_consistent() {
        // Every block each engine produces must be the block the serial
        // oracle seals.
        every_engine_lands_on_one_root(|config| {
            let report = run_testnet(config);
            (report.roots_consistent(), report.final_root)
        });
    }

    #[test]
    fn stm_and_hybrid_pipelined_chains_match_serial_oracle() {
        every_engine_lands_on_one_root(|config| {
            let report = run_pipelined_chain(&config.chain);
            // Only engines that consume predictions refine at all.
            let pipeline = &report.pipeline;
            assert_eq!(
                pipeline.refine_nanos == 0,
                config.chain.executor == ExecutorKind::Stm
            );
            assert!(pipeline.overlapped_refine_nanos <= pipeline.refine_nanos);
            (report.roots_consistent(), report.final_root)
        });
    }

    /// Receipts carry the gas execution charged, not the gas analysis
    /// predicted: on blocks where some C-SAG's `predicted_gas` is wrong,
    /// every engine over every backend, fed fresh, stale or no
    /// predictions, seals the headers the serial oracle seals.
    #[test]
    fn mispredicted_gas_never_reaches_a_sealed_header() {
        let base = ChainConfig {
            block_size: 120,
            blocks: 2,
            workload: tiny_workload(WorkloadConfig::high_contention(260)),
            ..tiny_config().chain
        };

        let mut generator = WorkloadGenerator::new(base.workload.clone());
        let analyzer = Analyzer::new(generator.registry().clone());
        let mut oracle = Oracle::new(analyzer.clone(), generator.genesis_entries());
        let mut mispredicted = 0;
        for height in 1..=base.blocks as u64 {
            let txs = generator.block(base.block_size);
            let env = block_env(height);
            let predicted: Vec<u64> = txs
                .iter()
                .map(|tx| analyzer.csag(tx, oracle.db.latest(), &env).predicted_gas)
                .collect();
            let (trace, _) = oracle.next_block(&txs, &env);
            let charged = trace.txs.iter().map(|t| t.gas_used);
            mispredicted += predicted
                .iter()
                .zip(charged)
                .filter(|(p, c)| *p != c)
                .count();
        }
        assert!(
            mispredicted > 0,
            "no predicted gas is wrong: pick another seed"
        );

        for executor in ExecutorKind::ALL {
            for backend in [BackendKind::Mem, BackendKind::Lsm] {
                let chain = ChainConfig {
                    executor,
                    backend,
                    ..base.clone()
                };
                let label = format!("{} over {}", executor.label(), backend.label());
                let pipelined = run_pipelined_chain(&chain);
                assert_eq!(pipelined.diverged_at, None, "pipelined, {label}");
                let testnet = run_testnet(&TestnetConfig {
                    chain,
                    pool_miss_rate: 0.5,
                    rebuild_missing_sags: false,
                });
                assert_eq!(testnet.diverged_at, None, "testnet, {label}");
                assert!(testnet.pool_stats.sag_misses > 0);
                assert_eq!(testnet.chain, pipelined.chain, "{label}");
            }
        }
    }

    #[test]
    fn pipelined_commit_accounting_is_sane() {
        let report = run_pipelined_chain(&tiny_config().chain);
        assert!(report.roots_consistent());
        assert!(report.commit_seconds > 0.0);
        assert!(report.commit_hidden_seconds <= report.commit_seconds + 1e-12);
        assert!((0.0..=1.0).contains(&report.commit_hidden_fraction()));
        assert_eq!(report.backend, "mem");
    }

    #[test]
    fn lsm_backend_chains_match_mem_backend() {
        // The backend only changes where committed versions live: both the
        // virtual testnet and the pipelined chain must land on identical
        // roots over the log-structured store.
        let mem_testnet = run_testnet(&tiny_config());
        let mut config = tiny_config();
        config.chain.backend = BackendKind::Lsm;
        let lsm_testnet = run_testnet(&config);
        assert!(lsm_testnet.roots_consistent());
        assert_eq!(lsm_testnet.final_root, mem_testnet.final_root);
        let lsm_pipelined = run_pipelined_chain(&config.chain);
        assert!(lsm_pipelined.roots_consistent());
        assert_eq!(lsm_pipelined.final_root, mem_testnet.final_root);
        assert_eq!(lsm_pipelined.backend, "lsm");
    }

    #[test]
    fn backend_kind_parse_roundtrip() {
        for kind in [BackendKind::Mem, BackendKind::Lsm] {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(BackendKind::parse("rocksdb"), None);
        assert_eq!(BackendKind::default(), BackendKind::Mem);
    }

    #[test]
    fn executor_kind_parse_roundtrip() {
        for kind in ExecutorKind::ALL {
            assert_eq!(ExecutorKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ExecutorKind::parse("optimistic"), None);
        assert_eq!(ExecutorKind::default(), ExecutorKind::Sharded);
    }
}
