//! The one place that names product symbols.
//!
//! Everything else in this benchmark sees the product through the aliases
//! and functions below, so a product refactor (one executor trait, one
//! multi-version store, a new default engine) is absorbed here and the
//! measurement code, the metric catalogue and the numbers' meaning stay
//! put. Only public functions are called; the end-to-end passes take
//! `ExecutorKind::default()`, `SchedulerPolicy::default()` (through
//! `ParallelConfig::default()`) and `BackendKind::build_db`, so the numbers
//! follow whatever the product's defaults become.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use dmvcc_analysis::{Analyzer, CSag, RefinementTier};
use dmvcc_chain::{
    build_receipts, receipts_root, transactions_root, BackendKind, BlockHeader, ExecutorKind,
    TxPool,
};
use dmvcc_core::{
    execute_block_serial, refine_csags, BlockDag, BlockPipeline, BlockTrace, HybridExecutor,
    ParallelConfig, ParallelExecutor, ParallelOutcome, StmExecutor,
};
use dmvcc_primitives::{keccak256, H256, U256};
use dmvcc_state::{
    LsmBackend, LsmOptions, MemBackend, RootHandle, Snapshot, StateBackend, StateDb, StateKey,
    WriteSet,
};
use dmvcc_vm::{
    execute, BlockEnv, ExecParams, ExecStatus, Host, HostError, MapHost, Transaction, TxKind,
    INTRINSIC_GAS,
};
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

/// One block's transactions.
pub type Block = Vec<Transaction>;
/// One C-SAG per transaction of a block.
pub type Csags = Vec<CSag>;
/// What an engine returns for a block.
pub type Outcome = ParallelOutcome;
/// The serial oracle's record of a block.
pub type SerialTrace = BlockTrace;
/// A block's final writes.
pub type Writes = WriteSet;
/// Per-transaction terminal statuses.
pub type Statuses = Vec<ExecStatus>;
/// A state root or header hash.
pub type Hash = H256;
/// A committed state view.
pub type Snap = Snapshot;
/// The chain's state database.
pub type Db = StateDb;
/// Genesis allocation.
pub type Genesis = Vec<(StateKey, U256)>;

/// The three threaded engines, by their CLI spelling.
pub const ENGINES: [&str; 3] = ["sharded", "stm", "hybrid"];

/// The refinement tiers the per-tier metrics are bucketed by, in the order
/// of [`TierCounts`]. `Exact` (plain transfers) and `Optimistic` have no
/// refinement cost worth a metric.
pub const TIERS: [&str; 5] = [
    "symbolic",
    "loop_summarized",
    "interprocedural",
    "bounded_dynamic",
    "speculative",
];

fn tier_index(tier: RefinementTier) -> Option<usize> {
    match tier {
        RefinementTier::Symbolic => Some(0),
        RefinementTier::LoopSummarized => Some(1),
        RefinementTier::Interprocedural => Some(2),
        RefinementTier::BoundedDynamic => Some(3),
        RefinementTier::Speculative => Some(4),
        RefinementTier::Exact | RefinementTier::Optimistic => None,
    }
}

/// A benchmark workload: a generator profile, a block size and a backend.
pub struct Spec {
    /// The name later issues cite.
    pub name: &'static str,
    /// Transactions per block at full size.
    pub block_txs: usize,
    /// Rounds of the end-to-end run at full size. A round is
    /// `round_blocks` sequential blocks (the first of them untimed), then as
    /// many pipelined ones; the counts are sized so that the rounds together
    /// last the benchmark's `run_seconds` on the reference host (README.md).
    pub rounds: usize,
    /// See `rounds`.
    pub round_blocks: usize,
    backend: BackendKind,
    config: fn(u64) -> WorkloadConfig,
}

fn cold_state(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 400_000,
        token_contracts: 2,
        amm_contracts: 1,
        nft_contracts: 1,
        batch_pay_contracts: 0,
        airdrop_contracts: 0,
        batch_transfer_contracts: 0,
        router_contracts: 0,
        router2_contracts: 0,
        flash_contracts: 0,
        oracle_contracts: 0,
        transfer_ratio: 0.7,
        contract_zipf: 0.0,
        account_zipf: 0.0,
        ..WorkloadConfig::ethereum_mix(seed)
    }
}

/// The four workloads (README.md gives the reason for each). `BENCHMARK.json`
/// lists the first of them, as many as the driver's run allowance has room
/// for; the order here decides which.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "realistic",
        block_txs: 10_000,
        rounds: 10,
        round_blocks: 8,
        backend: BackendKind::Mem,
        config: WorkloadConfig::ethereum_mix,
    },
    Spec {
        name: "hot",
        block_txs: 10_000,
        rounds: 15,
        round_blocks: 8,
        backend: BackendKind::Mem,
        config: WorkloadConfig::high_contention,
    },
    Spec {
        name: "loops",
        block_txs: 4_000,
        rounds: 8,
        round_blocks: 6,
        backend: BackendKind::Mem,
        config: WorkloadConfig::loop_heavy,
    },
    Spec {
        name: "cold-state",
        block_txs: 5_000,
        rounds: 10,
        round_blocks: 6,
        backend: BackendKind::Lsm,
        config: cold_state,
    },
];

/// Smoke sizes: small enough for a debug-build test run.
const SMOKE_BLOCK_TXS: usize = 200;
const SMOKE_ACCOUNTS: usize = 100;
const SMOKE_COLD_ACCOUNTS: usize = 2_000;

impl Spec {
    /// Transactions per block.
    pub fn block_size(&self, smoke: bool) -> usize {
        if smoke {
            SMOKE_BLOCK_TXS
        } else {
            self.block_txs
        }
    }

    fn is_lsm(&self) -> bool {
        self.backend == BackendKind::Lsm
    }

    fn workload_config(&self, seed: u64, smoke: bool) -> WorkloadConfig {
        let mut config = (self.config)(seed);
        if smoke {
            config.accounts = if self.is_lsm() {
                SMOKE_COLD_ACCOUNTS
            } else {
                SMOKE_ACCOUNTS
            };
        }
        config
    }

    /// A fresh, empty backend of this workload's kind.
    fn fresh_backend(&self, smoke: bool) -> Arc<dyn StateBackend> {
        if !self.is_lsm() {
            Arc::new(MemBackend::new())
        } else if smoke {
            Arc::new(LsmBackend::new(LsmOptions::tiny()))
        } else {
            Arc::new(LsmBackend::new(LsmOptions::default()))
        }
    }

    fn build_db(&self, smoke: bool, genesis: Genesis) -> Db {
        if smoke && self.is_lsm() {
            StateDb::with_backend(self.fresh_backend(true), genesis)
        } else {
            self.backend.build_db(genesis)
        }
    }
}

/// What set-up measured about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStats {
    /// Non-zero genesis entries.
    pub genesis_keys: u64,
    /// Seconds inside `BackendKind::build_db`.
    pub db_build_s: f64,
    /// Milliseconds of the first `Analyzer::psag` over every contract.
    pub psag_cold_ms: f64,
    /// Code-hash summary-memo hits of that pass.
    pub summary_hits: u64,
    /// Code-hash summary-memo misses of that pass.
    pub summary_misses: u64,
    /// Seconds inside `WorkloadGenerator::block`, all blocks.
    pub block_gen_s: f64,
    /// Transactions generated.
    pub txs: u64,
}

/// A set-up chain: generator, analyzer, state database, blocks drawn ahead.
pub struct World {
    generator: WorkloadGenerator,
    /// The analyzer, P-SAGs warm.
    pub analyzer: Analyzer,
    /// The chain's one state database.
    pub db: Db,
    /// A replica of `db` taken at genesis, for verification: `StateDb` is
    /// persistent, so the clone shares the genesis trie and the backend
    /// and costs nothing until it is committed to.
    genesis_db: Db,
    /// Every block the run will execute, in chain order.
    pub blocks: Vec<Block>,
    /// Set-up's own timings and counts.
    pub setup: SetupStats,
    /// Executor and hash threads.
    pub threads: usize,
}

/// Generator → genesis → one `StateDb` → cold P-SAG pass → blocks.
pub fn set_up(spec: &Spec, seed: u64, smoke: bool, blocks: usize, threads: usize) -> World {
    let mut setup = SetupStats::default();
    let mut generator = WorkloadGenerator::new(spec.workload_config(seed, smoke));
    let genesis = generator.genesis_entries();
    setup.genesis_keys = genesis.iter().filter(|(_, v)| !v.is_zero()).count() as u64;

    let started = Instant::now();
    let mut db = spec.build_db(smoke, genesis);
    db.set_hash_threads(threads);
    setup.db_build_s = started.elapsed().as_secs_f64();
    let genesis_db = db.clone();

    let analyzer = Analyzer::new(generator.registry().clone());
    let started = Instant::now();
    for (address, _) in generator.contracts() {
        black_box(analyzer.psag(address));
    }
    setup.psag_cold_ms = started.elapsed().as_secs_f64() * 1e3;
    setup.summary_hits = analyzer.registry().summaries().hits();
    setup.summary_misses = analyzer.registry().summaries().misses();

    let size = spec.block_size(smoke);
    let started = Instant::now();
    let blocks: Vec<Block> = (0..blocks).map(|_| generator.block(size)).collect();
    setup.block_gen_s = started.elapsed().as_secs_f64();
    setup.txs = (blocks.len() * size) as u64;

    World {
        generator,
        analyzer,
        db,
        genesis_db,
        blocks,
        setup,
        threads,
    }
}

/// The environment of the block at `height` (the chain crate's convention).
pub fn env_of(height: u64) -> BlockEnv {
    BlockEnv::new(height, 1_700_000_000 + height * 12)
}

/// One of the three threaded engines behind one call.
pub enum Engine {
    /// The predictive sharded executor.
    Sharded(ParallelExecutor),
    /// The Block-STM-style optimistic executor.
    Stm(StmExecutor),
    /// The hybrid dispatcher.
    Hybrid(HybridExecutor),
}

impl Engine {
    /// The engine the product runs by default.
    pub fn default_label() -> &'static str {
        ExecutorKind::default().label()
    }

    /// Builds the engine spelled `label` with `threads` workers and
    /// otherwise default configuration.
    pub fn new(label: &str, analyzer: &Analyzer, threads: usize) -> Engine {
        let config = ParallelConfig {
            threads,
            ..ParallelConfig::default()
        };
        let analyzer = analyzer.clone();
        match ExecutorKind::parse(label).expect("engine label") {
            ExecutorKind::Sharded => Engine::Sharded(ParallelExecutor::new(analyzer, config)),
            ExecutorKind::Stm => Engine::Stm(StmExecutor::new(analyzer, config)),
            ExecutorKind::Hybrid => Engine::Hybrid(HybridExecutor::new(analyzer, config)),
        }
    }

    /// Index of the engine spelled `label` in [`ENGINES`].
    pub fn index_of(label: &str) -> usize {
        ENGINES
            .iter()
            .position(|engine| *engine == label)
            .expect("one of the three engines")
    }

    /// `execute_block`: the engine refines for itself, if it refines.
    fn execute_unrefined(&self, txs: &Block, snapshot: &Snap, env: &BlockEnv) -> Outcome {
        match self {
            Engine::Sharded(e) => e.execute_block(txs, snapshot, env),
            Engine::Stm(e) => e.execute_block(txs, snapshot, env),
            Engine::Hybrid(e) => e.execute_block(txs, snapshot, env),
        }
    }

    /// `execute_block_with_csags`.
    pub fn execute(&self, txs: &Block, snapshot: &Snap, height: u64, csags: &Csags) -> Outcome {
        let env = env_of(height);
        match self {
            Engine::Sharded(e) => e.execute_block_with_csags(txs, snapshot, &env, csags),
            Engine::Stm(e) => e.execute_block_with_csags(txs, snapshot, &env, csags),
            Engine::Hybrid(e) => e.execute_block_with_csags(txs, snapshot, &env, csags),
        }
    }
}

/// `refine_csags` against `snapshot`.
pub fn refine(
    analyzer: &Analyzer,
    txs: &Block,
    snapshot: &Snap,
    height: u64,
    threads: usize,
) -> Csags {
    refine_csags(analyzer, txs, snapshot, &env_of(height), threads)
}

/// `execute_block_serial`.
pub fn execute_serial(
    analyzer: &Analyzer,
    txs: &Block,
    snapshot: &Snap,
    height: u64,
) -> SerialTrace {
    execute_block_serial(txs, snapshot, analyzer, &env_of(height))
}

/// The gas each receipt carries. `ParallelOutcome` reports no per-tx gas,
/// so the sealed receipts take the C-SAG's predicted gas (README.md).
pub fn receipt_gas(csags: &Csags) -> Vec<u64> {
    csags.iter().map(|c| c.predicted_gas).collect()
}

/// Seals a block: receipts, transactions root, receipts root, header hash.
/// Returns the header's hash, the next block's `parent_hash`.
pub fn seal_outcome(
    parent_hash: Hash,
    height: u64,
    txs: &Block,
    outcome: &Outcome,
    gas: &[u64],
    state_root: Hash,
) -> Hash {
    seal(parent_hash, height, txs, &outcome.statuses, gas, state_root)
}

fn seal(
    parent_hash: Hash,
    height: u64,
    txs: &Block,
    statuses: &[ExecStatus],
    gas: &[u64],
    state_root: Hash,
) -> Hash {
    let pairs: Vec<(ExecStatus, u64)> = statuses.iter().cloned().zip(gas.iter().copied()).collect();
    let receipts = build_receipts(&pairs);
    BlockHeader {
        number: height,
        parent_hash,
        state_root,
        transactions_root: transactions_root(txs),
        receipts_root: receipts_root(&receipts),
        timestamp: env_of(height).timestamp,
        gas_used: receipts.last().map_or(0, |r| r.cumulative_gas),
    }
    .hash()
}

/// The hash of the genesis header over `state_root`.
pub fn genesis_hash(state_root: Hash) -> Hash {
    BlockHeader::genesis(state_root).hash()
}

/// What the pipelined pass measured.
#[derive(Debug, Clone, Copy)]
pub struct PipelinedTotals {
    /// First block handed over → last root resolved.
    pub wall_ns: u64,
    /// `PipelineStats::refine_nanos`.
    pub refine_ns: u64,
    /// `PipelineStats::overlapped_refine_nanos`.
    pub refine_hidden_ns: u64,
    /// Sum of `RootHandle::hash_nanos`.
    pub hash_ns: u64,
    /// Time the driver waited on unresolved roots.
    pub stall_ns: u64,
}

/// The pipelined pass, composed as `run_pipelined_chain` composes it:
/// `BlockPipeline::run_blocks_with` launching `StateDb::commit_async` from
/// the per-block hook when the engine is the sharded one, a block-at-a-time
/// loop (`execute_block`, refining inline) otherwise. `progress()` fires
/// once per block, for the watchdog.
pub fn run_pipelined(
    engine: &Engine,
    db: &mut Db,
    blocks: &[Block],
    first_height: u64,
    mut progress: impl FnMut(),
) -> (PipelinedTotals, Vec<Executed>) {
    let started = Instant::now();
    let genesis = db.latest().clone();
    let env = |i: usize| env_of(first_height + i as u64);
    let mut handles: Vec<RootHandle> = Vec::with_capacity(blocks.len());
    let (outcomes, refine_ns, refine_hidden_ns) = match engine {
        Engine::Sharded(executor) => {
            let pipeline = BlockPipeline::new(executor.clone());
            let (outcomes, _, stats) =
                pipeline.run_blocks_with(blocks, &genesis, env, |_, outcome| {
                    handles.push(db.commit_async(&outcome.final_writes));
                    progress();
                });
            (outcomes, stats.refine_nanos, stats.overlapped_refine_nanos)
        }
        Engine::Stm(_) | Engine::Hybrid(_) => {
            let mut snapshot = genesis;
            let mut outcomes = Vec::with_capacity(blocks.len());
            let mut refine_ns = 0;
            for (i, txs) in blocks.iter().enumerate() {
                let outcome = engine.execute_unrefined(txs, &snapshot, &env(i));
                refine_ns += outcome.stats.refine_nanos;
                snapshot = snapshot.apply(&outcome.final_writes);
                handles.push(db.commit_async(&outcome.final_writes));
                progress();
                outcomes.push(outcome);
            }
            (outcomes, refine_ns, 0)
        }
    };
    let mut roots = Vec::with_capacity(handles.len());
    let mut stall_ns = 0;
    let mut hash_ns = 0;
    for handle in &handles {
        let waiting = Instant::now();
        roots.push(handle.wait());
        stall_ns += waiting.elapsed().as_nanos() as u64;
        hash_ns += handle.hash_nanos();
    }
    let totals = PipelinedTotals {
        wall_ns: started.elapsed().as_nanos() as u64,
        refine_ns,
        refine_hidden_ns,
        hash_ns,
        stall_ns,
    };
    let executed = outcomes
        .into_iter()
        .zip(roots)
        .map(|(outcome, root)| Executed::new(outcome, root, None))
        .collect();
    (totals, executed)
}

/// `StateDb::commit` of a block's final writes.
pub fn commit(db: &mut Db, outcome: &Outcome) -> Hash {
    db.commit(&outcome.final_writes)
}

/// Number of keys in a block's final writes.
pub fn write_count(outcome: &Outcome) -> u64 {
    outcome.final_writes.len() as u64
}

/// What the run recorded about one executed block, for verification.
pub struct Executed {
    /// The engine's final writes.
    pub writes: Writes,
    /// The engine's per-tx statuses.
    pub statuses: Statuses,
    /// The root the chain's `StateDb` produced.
    pub root: Hash,
    /// Receipt gas and header hash, for blocks that were sealed.
    pub sealed: Option<(Vec<u64>, Hash)>,
}

impl Executed {
    /// Keeps what verification needs of `outcome`.
    pub fn new(outcome: Outcome, root: Hash, sealed: Option<(Vec<u64>, Hash)>) -> Executed {
        Executed {
            writes: outcome.final_writes,
            statuses: outcome.statuses,
            root,
            sealed,
        }
    }
}

impl World {
    /// The genesis allocation again (the generator derives it from its
    /// configuration alone, so this is the list set-up committed).
    pub fn genesis(&self) -> Genesis {
        self.generator.genesis_entries()
    }

    /// Checks every executed block (heights `1..`) against the oracle:
    /// `execute_block_serial` on the oracle's own pre-block snapshot must
    /// give the same write set and statuses, the genesis replica committed
    /// synchronously with the *serial* write sets must give the same root,
    /// and a header re-sealed from the oracle's values must hash the same.
    /// Returns one verdict per block: `None` when right, else what differed.
    ///
    /// The root oracle is a replica and not a fresh
    /// `StateDb::with_genesis`: rebuilding a 1.2 M-key genesis trie costs
    /// more than the run's time allowance has (README.md). Its re-commits
    /// are no-ops in the shared backend (batches at or below the tip are),
    /// so it checks the trie and both root paths, not the backend.
    ///
    /// Serial execution and oracle commits run on two threads, which only
    /// shortens the run: nothing here is timed.
    pub fn verify(&self, executed: &[Executed]) -> Vec<Option<&'static str>> {
        let blocks = &self.blocks;
        let mut verdicts: Vec<Option<&'static str>> = vec![None; executed.len()];
        let (to_committer, serial_writes) = mpsc::channel::<(Writes, Statuses)>();
        let mut snapshot = Snapshot::from_entries(self.genesis());
        let mut oracle = self.genesis_db.clone();
        let root_verdicts = std::thread::scope(|scope| {
            let committer = scope.spawn(move || {
                let mut parent = genesis_hash(oracle.current_root());
                let mut verdicts = Vec::with_capacity(executed.len());
                for (i, (writes, statuses)) in serial_writes.iter().enumerate() {
                    let root = oracle.commit(&writes);
                    let height = 1 + i as u64;
                    let mut verdict = (root != executed[i].root).then_some("state root");
                    // Pipelined blocks are not sealed: the header chain
                    // steps over them, here as in the run.
                    if let Some((gas, hash)) = &executed[i].sealed {
                        parent = seal(parent, height, &blocks[i], &statuses, gas, root);
                        if parent != *hash && verdict.is_none() {
                            verdict = Some("header hash");
                        }
                    }
                    verdicts.push(verdict);
                }
                verdicts
            });
            for (i, (txs, block)) in blocks.iter().zip(executed).enumerate() {
                let trace = execute_serial(&self.analyzer, txs, &snapshot, 1 + i as u64);
                let statuses: Statuses = trace.txs.iter().map(|t| t.status.clone()).collect();
                if trace.final_writes != block.writes {
                    verdicts[i] = Some("write set");
                } else if statuses != block.statuses {
                    verdicts[i] = Some("statuses");
                }
                snapshot = snapshot.apply(&trace.final_writes);
                if to_committer.send((trace.final_writes, statuses)).is_err() {
                    break;
                }
            }
            drop(to_committer);
            committer.join().expect("oracle committer panicked")
        });
        for (verdict, root_verdict) in verdicts.iter_mut().zip(root_verdicts) {
            *verdict = verdict.or(root_verdict);
        }
        verdicts
    }
}

// ---------------------------------------------------------------------
// Probes: one public function timed alone. Each returns nanoseconds and
// the counts the per-layer metrics are built from.
// ---------------------------------------------------------------------

/// Per-tier `(transactions, nanoseconds)`, index-aligned with [`TIERS`].
pub type TierCounts = [(u64, u64); 5];

/// `Analyzer::csag` per transaction on this thread, bucketed by the tier
/// of the C-SAG it produced.
pub fn refine_by_tier(
    analyzer: &Analyzer,
    txs: &Block,
    snapshot: &Snap,
    height: u64,
) -> TierCounts {
    let env = env_of(height);
    let mut tiers = TierCounts::default();
    for tx in txs {
        let started = Instant::now();
        let csag = analyzer.csag(tx, snapshot, &env);
        let nanos = started.elapsed().as_nanos() as u64;
        if let Some(i) = tier_index(csag.tier) {
            tiers[i].0 += 1;
            tiers[i].1 += nanos;
        }
        black_box(csag);
    }
    tiers
}

/// Keys predicted over the block: reads + writes + adds.
pub fn predicted_keys(csags: &Csags) -> u64 {
    csags
        .iter()
        .map(|c| (c.reads.len() + c.writes.len() + c.adds.len()) as u64)
        .sum()
}

/// `(wrong, predicted)`: keys the serial trace touched that
/// `CSag::touched()` lacks plus predicted keys never touched, and the
/// number of distinct keys predicted.
pub fn misprediction(csags: &Csags, trace: &SerialTrace) -> (u64, u64) {
    let mut wrong = 0;
    let mut predicted_total = 0;
    for (csag, tx) in csags.iter().zip(&trace.txs) {
        let predicted = csag.touched();
        let actual: BTreeSet<StateKey> = tx
            .reads
            .iter()
            .map(|r| r.key)
            .chain(tx.write_offsets.keys().copied())
            .collect();
        wrong += actual.symmetric_difference(&predicted).count() as u64;
        predicted_total += predicted.len() as u64;
    }
    (wrong, predicted_total)
}

/// `BlockDag::build`: nanoseconds, and the DAG's `speedup_bound`.
pub fn rank(csags: &Csags) -> (u64, f64) {
    let started = Instant::now();
    let dag = BlockDag::build(csags);
    let nanos = started.elapsed().as_nanos() as u64;
    (nanos, dag.speedup_bound())
}

/// The counters of one engine run the per-layer metrics use.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    /// Execution attempts.
    pub attempts: u64,
    /// Re-executions.
    pub aborts: u64,
    /// Worker sleeps.
    pub parks: u64,
    /// Waiters signalled individually.
    pub targeted_wakeups: u64,
    /// Ready entries stolen from another worker.
    pub steals: u64,
    /// Shard mutex acquisitions.
    pub shard_locks: u64,
    /// Versions made visible.
    pub publishes: u64,
    /// Shard-lock grabs serving a publish batch.
    pub publish_batches: u64,
    /// Dequeues that ran below a busy higher lane.
    pub rank_inversions: u64,
    /// Bytes served from recycled arenas.
    pub recycled_bytes: u64,
    /// Commit-turn validations (STM).
    pub validations: u64,
    /// Validations that failed (STM).
    pub validation_failures: u64,
    /// Transactions sent down the optimistic path.
    pub optimistic_txs: u64,
}

impl EngineCounts {
    /// Adds the counters of `outcome`.
    pub fn add(&mut self, outcome: &Outcome) {
        let s = &outcome.stats;
        self.attempts += s.attempts;
        self.aborts += outcome.aborts;
        self.parks += s.parks;
        self.targeted_wakeups += s.targeted_wakeups;
        self.steals += s.steals;
        self.shard_locks += s.shard_lock_acquisitions;
        self.publishes += s.publishes;
        self.publish_batches += s.publish_batches;
        self.rank_inversions += s.rank_inversions;
        self.recycled_bytes += s.alloc_bytes_saved;
        self.validations += s.validations;
        self.validation_failures += s.validation_failures;
        self.optimistic_txs += s.optimistic_txs;
    }
}

/// `true` if the engine's block equals the serial oracle's.
pub fn matches_serial(outcome: &Outcome, trace: &SerialTrace) -> bool {
    outcome.final_writes == trace.final_writes
        && outcome
            .statuses
            .iter()
            .zip(&trace.txs)
            .all(|(status, tx)| *status == tx.status)
}

/// Gas and failures of a serial block: `(total_gas, unsuccessful txs)`.
pub fn serial_totals(trace: &SerialTrace) -> (u64, u64) {
    let failed = trace.txs.iter().filter(|t| !t.status.is_success()).count() as u64;
    (trace.total_gas, failed)
}

/// A `MapHost` that can undo one transaction: the interpreter writes
/// straight to its host, and an unsuccessful transaction's writes must not
/// survive it.
struct JournalHost {
    map: MapHost,
    undo: Vec<(StateKey, U256)>,
}

impl Host for JournalHost {
    fn sload(&mut self, key: StateKey) -> Result<U256, HostError> {
        self.map.sload(key)
    }

    fn sstore(&mut self, key: StateKey, value: U256) -> Result<(), HostError> {
        self.undo.push((key, self.map.get(&key)));
        self.map.sstore(key, value)
    }
}

impl JournalHost {
    fn finish(&mut self, success: bool) {
        if success {
            self.undo.clear();
        } else {
            while let Some((key, value)) = self.undo.pop() {
                self.map.sstore(key, value).expect("map host never aborts");
            }
        }
    }
}

/// The interpreter alone: `dmvcc_vm::execute` per contract call over a
/// `MapHost` that evolves serially, block after block.
pub struct VmChain {
    host: JournalHost,
}

/// One block through [`VmChain`].
#[derive(Debug, Clone, Copy, Default)]
pub struct VmBlock {
    /// Nanoseconds inside `dmvcc_vm::execute`.
    pub nanos: u64,
    /// Gas those calls used.
    pub call_gas: u64,
    /// Gas of the whole block (calls plus the intrinsic gas of transfers
    /// and of calls to unknown contracts): must equal the oracle's.
    pub block_gas: u64,
}

impl VmChain {
    /// Starts from the genesis allocation.
    pub fn new(genesis: Genesis) -> VmChain {
        VmChain {
            host: JournalHost {
                map: MapHost::from_entries(genesis),
                undo: Vec::new(),
            },
        }
    }

    /// Fast-forwards over a block that is not probed.
    pub fn apply(&mut self, block: &Executed) {
        for (key, value) in &block.writes {
            self.host
                .map
                .sstore(*key, *value)
                .expect("map host never aborts");
        }
    }

    /// Interprets every contract call of `txs`; transfers only move their
    /// balances, untimed.
    pub fn run_block(&mut self, analyzer: &Analyzer, txs: &Block, height: u64) -> VmBlock {
        let env = env_of(height);
        let registry = analyzer.registry();
        let mut block = VmBlock::default();
        for tx in txs {
            let code = match tx.kind {
                TxKind::Call => registry.code(&tx.to()),
                TxKind::Transfer => {
                    let from = StateKey::balance(tx.sender());
                    let balance = self.host.map.get(&from);
                    if balance >= tx.env.value {
                        let to = StateKey::balance(tx.to());
                        let map = &mut self.host.map;
                        map.sstore(from, balance - tx.env.value).expect("map host");
                        map.sadd(to, tx.env.value).expect("map host");
                    }
                    None
                }
            };
            let Some(code) = code else {
                block.block_gas += INTRINSIC_GAS;
                continue;
            };
            let params = ExecParams {
                code: &code,
                tx: &tx.env,
                block: &env,
                release_points: None,
                registry: Some(registry),
            };
            let started = Instant::now();
            let outcome = execute(&params, &mut self.host);
            block.nanos += started.elapsed().as_nanos() as u64;
            self.host.finish(outcome.status.is_success());
            block.call_gas += outcome.gas_used;
            block.block_gas += outcome.gas_used;
        }
        block
    }
}

/// `Snapshot::apply`: nanoseconds.
pub fn snapshot_apply(snapshot: &Snap, outcome: &Outcome) -> u64 {
    let started = Instant::now();
    black_box(snapshot.apply(&outcome.final_writes));
    started.elapsed().as_nanos() as u64
}

/// `TxPool::submit` + `take` + `resolve_sags` for one block: nanoseconds.
pub fn pool_round_trip(txs: &Block, csags: &Csags) -> u64 {
    let arrivals: Vec<(Transaction, CSag)> =
        txs.iter().cloned().zip(csags.iter().cloned()).collect();
    let started = Instant::now();
    let mut pool = TxPool::new();
    for (tx, sag) in arrivals {
        pool.submit(tx, sag);
    }
    let packed = pool.take(txs.len());
    black_box(pool.resolve_sags(&packed));
    started.elapsed().as_nanos() as u64
}

/// The chain's write sets replayed through `StateBackend::apply_batch` on
/// a fresh backend of the workload's kind: nanoseconds.
pub fn backend_replay(spec: &Spec, smoke: bool, blocks: &[Executed]) -> u64 {
    let backend = spec.fresh_backend(smoke);
    let started = Instant::now();
    for (i, block) in blocks.iter().enumerate() {
        backend.apply_batch(1 + i as u64, &block.writes);
    }
    started.elapsed().as_nanos() as u64
}

/// `reads` seeded random genesis keys through `StateDb::get`: nanoseconds.
pub fn random_reads(db: &Db, genesis: &Genesis, seed: u64, reads: usize) -> u64 {
    let mut state = seed | 1;
    let keys: Vec<StateKey> = (0..reads)
        .map(|_| genesis[(xorshift(&mut state) % genesis.len() as u64) as usize].0)
        .collect();
    let started = Instant::now();
    for key in &keys {
        black_box(db.get(key));
    }
    started.elapsed().as_nanos() as u64
}

/// `keccak256` over 64 bytes, `calls` times: nanoseconds per call.
pub fn keccak_ns_per_64b(calls: u32) -> f64 {
    let mut input = [0x5au8; 64];
    let started = Instant::now();
    for _ in 0..calls {
        let digest = keccak256(black_box(&input));
        input[..32].copy_from_slice(digest.as_bytes());
    }
    started.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// The storage counters the per-layer metrics read as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageCounts {
    /// Flat-cache hits.
    pub flat_hits: u64,
    /// Flat-cache misses.
    pub flat_misses: u64,
    /// Flat-cache evictions.
    pub flat_evictions: u64,
    /// Key writes applied to the backend.
    pub writes: u64,
    /// Reads that searched an on-disk segment.
    pub segment_reads: u64,
    /// Bytes appended to segment files.
    pub segment_bytes: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compactions.
    pub compactions: u64,
}

impl StorageCounts {
    /// What was counted since `before` was read.
    pub fn since(self, before: StorageCounts) -> StorageCounts {
        StorageCounts {
            flat_hits: self.flat_hits - before.flat_hits,
            flat_misses: self.flat_misses - before.flat_misses,
            flat_evictions: self.flat_evictions - before.flat_evictions,
            writes: self.writes - before.writes,
            segment_reads: self.segment_reads - before.segment_reads,
            segment_bytes: self.segment_bytes - before.segment_bytes,
            flushes: self.flushes - before.flushes,
            compactions: self.compactions - before.compactions,
        }
    }
}

/// Reads the state database's counters.
pub fn storage_counts(db: &Db) -> StorageCounts {
    let flat = db.flat_stats().unwrap_or_default();
    let backend = db.backend_stats().unwrap_or_default();
    StorageCounts {
        flat_hits: flat.hits,
        flat_misses: flat.misses,
        flat_evictions: flat.evictions,
        writes: backend.writes,
        segment_reads: backend.segment_reads,
        segment_bytes: backend.segment_bytes_written,
        flushes: backend.flushes,
        compactions: backend.compactions,
    }
}

/// Bytes of user data in one key write: a 52-byte key and a 32-byte value.
pub const USER_BYTES_PER_WRITE: u64 = 84;

/// A xorshift64 step: the bench's own seeded choices, nothing the product
/// sees.
pub fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}
