//! Micro-testnet simulation for the blockchain-environment evaluation (RQ3).
//!
//! The paper builds a 20-validator testnet, tunes mining to one block every
//! 12 s (or 1 s), raises the gas limit so a block packs up to 10 000
//! transactions, and measures *throughput speedup*: with small blocks
//! mining dominates and parallel execution barely matters; with large
//! blocks and fast mining, execution becomes the bottleneck and the
//! scheduler's makespan directly bounds throughput (§V-C RQ3).
//!
//! This module reproduces that pipeline as a discrete-event simulation:
//! a packer drains the transaction pool, every validator executes the
//! block with the configured scheduler, the block cycle is
//! `max(mining_interval, execution_time)`, and state roots across
//! validators (and against the serial reference) must match. Virtual
//! execution time (gas) converts to seconds via
//! [`ChainConfig::gas_per_second`], calibrated so a typical transaction
//! costs a few milliseconds — matching the paper's observed
//! "sub-milliseconds to tens of milliseconds".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod pool;

pub use block::{
    build_receipts, receipts_root, transactions_root, verify_chain, BlockHeader, Receipt,
};
pub use pool::{PoolStats, TxPool};

use dmvcc_analysis::{Analyzer, CSag};
use dmvcc_baselines::{simulate_dag, simulate_occ};
pub use dmvcc_core::ExecutorKind;
use dmvcc_core::{
    execute_block_serial, simulate_dmvcc, BlockPipeline, DmvccConfig, ParallelConfig, SimReport,
};
use dmvcc_primitives::H256;
use dmvcc_state::{LsmBackend, LsmOptions, MemBackend, RootHandle, StateBackend, StateDb};
use dmvcc_vm::{BlockEnv, Transaction};
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;

/// Which scheduler a validator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Ordinary serial execution (the baseline EVM).
    Serial,
    /// DAG-based parallel execution.
    Dag,
    /// OCC-based parallel execution.
    Occ,
    /// DMVCC.
    Dmvcc,
}

impl SchedulerKind {
    /// All four schedulers, in the order the paper plots them.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Serial,
        SchedulerKind::Dag,
        SchedulerKind::Occ,
        SchedulerKind::Dmvcc,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Serial => "Serial",
            SchedulerKind::Dag => "DAG",
            SchedulerKind::Occ => "OCC",
            SchedulerKind::Dmvcc => "DMVCC",
        }
    }
}

/// Which persistent state backend the chain's [`StateDb`] commits to.
///
/// Orthogonal to both [`SchedulerKind`] and [`ExecutorKind`]: the backend
/// only changes where committed versions live (RAM vs the log-structured
/// store), never execution results — every configuration must land on the
/// same roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory versioned map (the default).
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

    /// Builds a [`StateDb`] over this backend, seeded with `entries`.
    pub fn build_db(
        &self,
        entries: Vec<(dmvcc_state::StateKey, dmvcc_primitives::U256)>,
    ) -> StateDb {
        let backend: Arc<dyn StateBackend> = match self {
            BackendKind::Mem => Arc::new(MemBackend::new()),
            BackendKind::Lsm => Arc::new(LsmBackend::new(LsmOptions::default())),
        };
        StateDb::with_backend(backend, entries)
    }
}

/// One mined block: header plus body.
#[derive(Debug, Clone)]
pub struct Block {
    /// The sealed header (binds parent hash, state/tx/receipt roots).
    pub header: BlockHeader,
    /// Packed transactions.
    pub txs: Vec<Transaction>,
    /// Execution receipts, one per transaction.
    pub receipts: Vec<Receipt>,
}

/// Testnet configuration.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Validators that re-execute every block (roots must agree).
    pub validators: usize,
    /// Transactions per block (paper: 180 for stock mining, 10 000 with the
    /// raised gas limit).
    pub block_size: usize,
    /// Mining interval in seconds (paper: 12 s, and 1 s for the
    /// execution-bound configuration).
    pub mining_interval_secs: f64,
    /// Worker threads per validator.
    pub threads: usize,
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// Number of blocks to mine.
    pub blocks: usize,
    /// Virtual-gas-to-wall-clock conversion. The default (4 M gas/s) makes
    /// a typical contract call cost 5–10 ms, the paper's observed range.
    pub gas_per_second: u64,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Re-execute every k-th block on the real threaded DMVCC executor and
    /// compare write sets against serial (0 disables; keep small — the
    /// threaded executor is the slow, faithful path).
    pub crosscheck_every: usize,
    /// Fraction of transactions that reach the pool *without* a SAG
    /// (late propagation; the paper's pool-desync scenario).
    pub pool_miss_rate: f64,
    /// Whether missing SAGs are rebuilt on the fly (paper's first option)
    /// or executed with empty predictions "as what OCC does" (second).
    pub rebuild_missing_sags: bool,
    /// Which real threaded engine backs the cross-checks and the pipelined
    /// front-end (predictive sharded, optimistic STM, or hybrid).
    pub executor: ExecutorKind,
    /// Which persistent state backend the chain commits to.
    pub backend: BackendKind,
}

impl ChainConfig {
    /// The paper's execution-bound configuration: 10 000-tx blocks, 1 s
    /// mining, on the realistic workload.
    pub fn execution_bound(scheduler: SchedulerKind, threads: usize, seed: u64) -> Self {
        ChainConfig {
            validators: 20,
            block_size: 10_000,
            mining_interval_secs: 1.0,
            threads,
            scheduler,
            blocks: 4,
            gas_per_second: 4_000_000,
            workload: WorkloadConfig::ethereum_mix(seed),
            crosscheck_every: 0,
            pool_miss_rate: 0.0,
            rebuild_missing_sags: true,
            executor: ExecutorKind::Sharded,
            backend: BackendKind::Mem,
        }
    }
}

/// Outcome of a testnet run.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// Blocks mined.
    pub blocks: usize,
    /// Transactions committed (all packed transactions commit; reverted
    /// ones are committed as no-ops, as on Ethereum).
    pub committed_txs: u64,
    /// Total wall-clock seconds of the simulated chain.
    pub total_seconds: f64,
    /// Seconds spent executing (the scheduler's share of each cycle).
    pub execution_seconds: f64,
    /// Throughput in transactions per second.
    pub tps: f64,
    /// `true` if every validator produced identical roots on every block
    /// (and the threaded cross-checks agreed with serial).
    pub roots_consistent: bool,
    /// Scheduler aborts accumulated over all blocks.
    pub aborts: u64,
    /// Final state root.
    pub final_root: H256,
    /// The mined chain.
    pub chain: Vec<Block>,
    /// SAG cache behaviour of the pool.
    pub pool_stats: PoolStats,
}

/// Executes one block under `scheduler`, returning its virtual-time report.
pub fn schedule_block(
    scheduler: SchedulerKind,
    trace: &dmvcc_core::BlockTrace,
    csags: &[CSag],
    threads: usize,
) -> SimReport {
    match scheduler {
        SchedulerKind::Serial => dmvcc_baselines::serial_report(trace),
        SchedulerKind::Dag => simulate_dag(trace, threads),
        SchedulerKind::Occ => simulate_occ(trace, threads),
        SchedulerKind::Dmvcc => simulate_dmvcc(trace, csags, &DmvccConfig::new(threads)),
    }
}

/// Runs the micro testnet.
///
/// Every validator executes every block; the state roots must agree (the
/// paper's RQ1 oracle applied per block). In this simulation validators
/// share the deterministic scheduler implementations, so disagreement
/// indicates a protocol bug — additionally, `crosscheck_every` blocks are
/// re-executed on the *real threaded* DMVCC executor and compared against
/// the serial write set.
pub fn run_testnet(config: &ChainConfig) -> ChainReport {
    use rand::{Rng, SeedableRng};
    let mut generator = WorkloadGenerator::new(config.workload.clone());
    let analyzer = Analyzer::new(generator.registry().clone());
    let mut db = config.backend.build_db(generator.genesis_entries());
    // Replica DBs for the other validators (cheap: StateDb is persistent;
    // clones share the backend Arc and re-commits are idempotent).
    let mut replicas: Vec<StateDb> = (1..config.validators.max(1)).map(|_| db.clone()).collect();

    let threaded = config.executor.build(
        analyzer.clone(),
        ParallelConfig {
            threads: config.threads.clamp(1, 8),
            ..ParallelConfig::default()
        },
        None,
    );

    let mut pool = TxPool::new();
    let mut desync_rng = rand::rngs::StdRng::seed_from_u64(config.workload.seed ^ 0xdead);
    let mut chain: Vec<Block> = Vec::with_capacity(config.blocks);
    let mut parent = BlockHeader::genesis(db.current_root());
    let genesis_header = parent.clone();
    let mut total_seconds = 0.0;
    let mut execution_seconds = 0.0;
    let mut committed = 0u64;
    let mut aborts = 0u64;
    let mut consistent = true;

    for height in 1..=config.blocks as u64 {
        let block_env = BlockEnv::new(height, 1_700_000_000 + height * 12);
        let snapshot = db.latest().clone();

        // Arrival: the SAG analyzer processes transactions as they reach
        // the pool (paper §III-A), against the then-latest snapshot. A
        // fraction arrives without analysis (late propagation).
        for tx in generator.block(config.block_size) {
            if config.pool_miss_rate > 0.0 && desync_rng.gen_bool(config.pool_miss_rate) {
                pool.submit_raw(tx);
            } else {
                let sag = analyzer.csag(&tx, &snapshot, &block_env);
                pool.submit(tx, sag);
            }
        }

        // Packing + SAG resolution; cache misses are rebuilt on the fly or
        // run with empty predictions, as the paper allows.
        let txs = pool.take(config.block_size);
        let csags: Vec<CSag> = txs
            .iter()
            .zip(pool.resolve_sags(&txs))
            .map(|(tx, cached)| match cached {
                Some(sag) => sag,
                None if config.rebuild_missing_sags => analyzer.csag(tx, &snapshot, &block_env),
                None => CSag::default(),
            })
            .collect();

        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &block_env);
        let report = schedule_block(config.scheduler, &trace, &csags, config.threads);
        aborts += report.aborts;

        // Optional cross-check on the real threaded executor.
        if config.crosscheck_every > 0 && (height as usize).is_multiple_of(config.crosscheck_every)
        {
            let outcome = threaded.execute_block_with_csags(&txs, &snapshot, &block_env, &csags);
            if outcome.final_writes != trace.final_writes {
                consistent = false;
            }
        }

        // Commit on every validator and compare roots.
        let root = db.commit(&trace.final_writes);
        for replica in &mut replicas {
            if replica.commit(&trace.final_writes) != root {
                consistent = false;
            }
        }

        // Seal the header.
        let receipts = build_receipts(
            &trace
                .txs
                .iter()
                .map(|t| (t.status.clone(), t.gas_used))
                .collect::<Vec<_>>(),
        );
        let header = BlockHeader {
            number: height,
            parent_hash: parent.hash(),
            state_root: root,
            transactions_root: transactions_root(&txs),
            receipts_root: receipts_root(&receipts),
            timestamp: block_env.timestamp,
            gas_used: trace.total_gas,
        };
        parent = header.clone();

        let exec_secs = report.makespan as f64 / config.gas_per_second as f64;
        execution_seconds += exec_secs;
        total_seconds += config.mining_interval_secs.max(exec_secs);
        committed += txs.len() as u64;
        chain.push(Block {
            header,
            txs,
            receipts,
        });
    }

    // The sealed chain must verify end to end.
    let headers: Vec<BlockHeader> = chain.iter().map(|b| b.header.clone()).collect();
    let bodies: Vec<(Vec<Transaction>, Vec<Receipt>)> = chain
        .iter()
        .map(|b| (b.txs.clone(), b.receipts.clone()))
        .collect();
    if verify_chain(&genesis_header, &headers, &bodies).is_some() {
        consistent = false;
    }

    ChainReport {
        blocks: config.blocks,
        committed_txs: committed,
        total_seconds,
        execution_seconds,
        tps: committed as f64 / total_seconds.max(f64::EPSILON),
        roots_consistent: consistent,
        aborts,
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
    /// Wall-clock seconds spent refining C-SAGs (all blocks).
    pub refine_seconds: f64,
    /// Wall-clock seconds spent inside the threaded executor.
    pub execute_seconds: f64,
    /// Refinement seconds hidden behind execution of the previous block
    /// (zero without pipelining; the whole point of the front-end).
    pub overlap_seconds: f64,
    /// Wall-clock seconds spent hashing state roots (background commit
    /// threads; all blocks).
    pub commit_seconds: f64,
    /// Root-hashing seconds hidden behind execution of subsequent blocks —
    /// commit work that never stalled the chain.
    pub commit_hidden_seconds: f64,
    /// Executor aborts over all blocks (stale pipelined predictions show
    /// up here, absorbed by the abort path).
    pub aborts: u64,
    /// `true` if every block's write set matched the serial oracle *and*
    /// every per-block async root matched the sync-commit oracle root.
    pub roots_consistent: bool,
    /// Final state root after committing every block.
    pub final_root: H256,
    /// CLI label of the state backend the chain committed to.
    pub backend: &'static str,
}

impl PipelinedChainReport {
    /// Fraction of refinement wall-time hidden behind execution.
    pub fn overlap_fraction(&self) -> f64 {
        if self.refine_seconds == 0.0 {
            0.0
        } else {
            self.overlap_seconds / self.refine_seconds
        }
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
/// Unlike [`run_testnet`] this path bypasses the pool and the virtual-time
/// schedulers: it measures the real front-end, wall-clock, and checks
/// every block's write set against the serial oracle.
pub fn run_pipelined_chain(config: &ChainConfig) -> PipelinedChainReport {
    let mut generator = WorkloadGenerator::new(config.workload.clone());
    let analyzer = Analyzer::new(generator.registry().clone());
    let genesis_entries = generator.genesis_entries();
    let mut db = config.backend.build_db(genesis_entries.clone());
    db.set_hash_threads(config.threads.clamp(1, 8));
    // The generator emits transactions independent of execution state, so
    // the whole chain's blocks can be drawn up front — the pipeline needs
    // block N+1's transactions while block N runs.
    let blocks: Vec<Vec<Transaction>> = (0..config.blocks)
        .map(|_| generator.block(config.block_size))
        .collect();
    let env_of = |i: usize| BlockEnv::new(1 + i as u64, 1_700_000_000 + (1 + i as u64) * 12);

    let parallel_config = ParallelConfig {
        threads: config.threads.clamp(1, 8),
        ..ParallelConfig::default()
    };
    let genesis = db.latest().clone();
    // Block N's root hashing is launched off-thread the moment its writes
    // are known, so it overlaps block N+1's refinement and execution; the
    // handles resolve later and any residual wait is the un-hidden stall.
    let mut handles: Vec<RootHandle> = Vec::with_capacity(config.blocks);
    let pipeline = BlockPipeline::new(config.executor.build(
        analyzer.clone(),
        parallel_config,
        None,
    ));
    let (outcomes, _, stats) = pipeline.run_blocks_with(&blocks, &genesis, env_of, |_, outcome| {
        handles.push(db.commit_async(&outcome.final_writes));
    });

    // Resolve every block's root. The residual wait here is commit work
    // the pipeline failed to hide; hash time minus that stall is hidden.
    let mut commit_nanos = 0u64;
    let mut stalled_nanos = 0u64;
    for handle in &handles {
        let started = std::time::Instant::now();
        handle.wait();
        stalled_nanos += started.elapsed().as_nanos() as u64;
        commit_nanos += handle.hash_nanos();
    }
    let hidden_nanos = commit_nanos.saturating_sub(stalled_nanos);

    // Serial oracle: write sets must match block by block, and the async
    // per-block roots must match a synchronously-committed StateDb.
    let mut oracle_db = StateDb::with_genesis(genesis_entries);
    let mut consistent = true;
    let mut committed = 0u64;
    let mut aborts = 0u64;
    for (i, (txs, outcome)) in blocks.iter().zip(&outcomes).enumerate() {
        let oracle_snapshot = oracle_db.latest().clone();
        let trace = execute_block_serial(txs, &oracle_snapshot, &analyzer, &env_of(i));
        if outcome.final_writes != trace.final_writes {
            consistent = false;
        }
        let oracle_root = oracle_db.commit(&trace.final_writes);
        if db.root_at(1 + i as u64) != Some(oracle_root) {
            consistent = false;
        }
        committed += txs.len() as u64;
        aborts += outcome.aborts;
    }

    PipelinedChainReport {
        blocks: config.blocks,
        committed_txs: committed,
        refine_seconds: stats.refine_nanos as f64 / 1e9,
        execute_seconds: stats.execute_nanos as f64 / 1e9,
        overlap_seconds: stats.overlapped_refine_nanos as f64 / 1e9,
        commit_seconds: commit_nanos as f64 / 1e9,
        commit_hidden_seconds: hidden_nanos as f64 / 1e9,
        aborts,
        roots_consistent: consistent,
        final_root: db.current_root(),
        backend: db.backend_name().unwrap_or("none"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(scheduler: SchedulerKind) -> ChainConfig {
        ChainConfig {
            validators: 3,
            block_size: 40,
            mining_interval_secs: 0.5,
            threads: 4,
            scheduler,
            blocks: 3,
            gas_per_second: 4_000_000,
            workload: WorkloadConfig {
                accounts: 100,
                token_contracts: 6,
                amm_contracts: 3,
                nft_contracts: 2,
                counter_contracts: 1,
                ballot_contracts: 1,
                fig1_contracts: 1,
                ..WorkloadConfig::ethereum_mix(11)
            },
            crosscheck_every: 1,
            pool_miss_rate: 0.0,
            rebuild_missing_sags: true,
            executor: ExecutorKind::Sharded,
            backend: BackendKind::Mem,
        }
    }

    #[test]
    fn serial_testnet_runs_and_roots_agree() {
        let report = run_testnet(&tiny_config(SchedulerKind::Serial));
        assert_eq!(report.blocks, 3);
        assert_eq!(report.committed_txs, 120);
        assert!(report.roots_consistent);
        assert!(report.tps > 0.0);
        assert_eq!(report.chain.len(), 3);
    }

    #[test]
    fn pool_misses_do_not_break_consistency() {
        let mut config = tiny_config(SchedulerKind::Dmvcc);
        config.pool_miss_rate = 0.5;
        config.rebuild_missing_sags = false; // OCC fallback for misses
        let report = run_testnet(&config);
        assert!(report.roots_consistent);
        assert!(report.pool_stats.sag_misses > 0);
        assert!(report.pool_stats.sag_hits > 0);
        // Same chain as the fully-analyzed run.
        let clean = run_testnet(&tiny_config(SchedulerKind::Dmvcc));
        assert_eq!(report.final_root, clean.final_root);
    }

    #[test]
    fn headers_form_a_verified_chain() {
        let report = run_testnet(&tiny_config(SchedulerKind::Serial));
        assert!(report.roots_consistent);
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
    fn all_schedulers_produce_identical_chains() {
        let roots: Vec<H256> = SchedulerKind::ALL
            .iter()
            .map(|&s| run_testnet(&tiny_config(s)).final_root)
            .collect();
        assert!(roots.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn dmvcc_not_slower_than_serial() {
        let serial = run_testnet(&tiny_config(SchedulerKind::Serial));
        let dmvcc = run_testnet(&tiny_config(SchedulerKind::Dmvcc));
        assert!(dmvcc.execution_seconds <= serial.execution_seconds + 1e-9);
        assert!(dmvcc.tps >= serial.tps - 1e-9);
        assert!(dmvcc.roots_consistent);
    }

    #[test]
    fn mining_floor_bounds_cycle_time() {
        let mut config = tiny_config(SchedulerKind::Dmvcc);
        config.mining_interval_secs = 10.0;
        let report = run_testnet(&config);
        // Tiny blocks execute far faster than 10 s: mining dominates.
        assert!((report.total_seconds - 30.0).abs() < 1e-6);
    }

    #[test]
    fn scheduler_labels() {
        assert_eq!(SchedulerKind::Dmvcc.label(), "DMVCC");
        assert_eq!(SchedulerKind::ALL.len(), 4);
    }

    #[test]
    fn pipelined_chain_matches_serial_oracle() {
        let report = run_pipelined_chain(&tiny_config(SchedulerKind::Dmvcc));
        assert!(report.roots_consistent);
        assert_eq!(report.blocks, 3);
        assert_eq!(report.committed_txs, 120);
        assert!(report.refine_seconds > 0.0);
        assert!(report.execute_seconds > 0.0);
        assert!(report.overlap_seconds <= report.refine_seconds + 1e-12);
        assert!((0.0..=1.0).contains(&report.overlap_fraction()));
    }

    #[test]
    fn pipelined_chain_root_matches_testnet() {
        // Same workload seed → same transactions → the pipelined
        // real-executor chain must land on the virtual testnet's root.
        let testnet = run_testnet(&tiny_config(SchedulerKind::Serial));
        let pipelined = run_pipelined_chain(&tiny_config(SchedulerKind::Dmvcc));
        assert_eq!(pipelined.final_root, testnet.final_root);
    }

    /// One chain per engine: `run` must stay consistent with the serial
    /// oracle and land every engine on the same root.
    fn every_engine_lands_on_one_root(run: impl Fn(&ChainConfig) -> (bool, H256)) {
        let roots: Vec<H256> = ExecutorKind::ALL
            .iter()
            .map(|&kind| {
                let mut config = tiny_config(SchedulerKind::Dmvcc);
                config.executor = kind;
                let (consistent, root) = run(&config);
                assert!(consistent, "{} diverged", kind.label());
                root
            })
            .collect();
        assert!(roots.windows(2).all(|w| w[0] == w[1]), "{roots:?}");
    }

    #[test]
    fn stm_and_hybrid_crosschecks_stay_consistent() {
        // Every block cross-checked on each engine must match the serial
        // write set.
        every_engine_lands_on_one_root(|config| {
            let report = run_testnet(config);
            (report.roots_consistent, report.final_root)
        });
    }

    #[test]
    fn stm_and_hybrid_pipelined_chains_match_serial_oracle() {
        every_engine_lands_on_one_root(|config| {
            let report = run_pipelined_chain(config);
            // Only engines that consume predictions refine at all.
            assert_eq!(
                report.refine_seconds == 0.0,
                config.executor == ExecutorKind::Stm
            );
            assert!(report.overlap_seconds <= report.refine_seconds + 1e-12);
            (report.roots_consistent, report.final_root)
        });
    }

    #[test]
    fn pipelined_commit_accounting_is_sane() {
        let report = run_pipelined_chain(&tiny_config(SchedulerKind::Dmvcc));
        assert!(report.roots_consistent);
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
        let mem_testnet = run_testnet(&tiny_config(SchedulerKind::Dmvcc));
        let mut config = tiny_config(SchedulerKind::Dmvcc);
        config.backend = BackendKind::Lsm;
        let lsm_testnet = run_testnet(&config);
        assert!(lsm_testnet.roots_consistent);
        assert_eq!(lsm_testnet.final_root, mem_testnet.final_root);
        let lsm_pipelined = run_pipelined_chain(&config);
        assert!(lsm_pipelined.roots_consistent);
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
