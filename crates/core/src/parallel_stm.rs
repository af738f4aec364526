//! The optimistic (Block-STM-style) threaded executor and the hybrid
//! predictive/optimistic dispatcher.
//!
//! Where [`crate::ParallelExecutor`] *predicts* state accesses (C-SAGs)
//! and blocks readers on exactly the versions they depend on, this module
//! assumes nothing: every transaction executes optimistically against the
//! block's **multi-version store**, records the values it read, and is
//! validated at its commit turn against the serial order (the design of
//! Aptos Block-STM, adapted to this codebase's [`KeyId`] interning and
//! commutative-add semantics):
//!
//! - **One multi-version store**: the engine reads and publishes through
//!   the same [`ShardedSequences`] the predictive engine uses — per-key
//!   version lists in id-addressed shards, each entry holding what its
//!   transaction *published* (a full write, a commutative ω̄ delta that
//!   merges instead of serializing, or nothing yet). Nothing is predicted
//!   here, so an entry exists only once its transaction publishes; the
//!   versions of a transaction that failed validation are `reset` to
//!   pending, which blocks readers above them for the length of the
//!   re-execution (Block-STM's ESTIMATE marker). Only the scheduler below
//!   differs from the predictive engine.
//! - **Optimistic execution**: workers claim transactions in block order
//!   from an atomic cursor and run them immediately — no readiness probe,
//!   no predicted read sets. Reads resolve to the highest version below
//!   the reader (write plus the deltas above it, or the snapshot plus all
//!   deltas) and are recorded as `(key, value)` pairs.
//! - **Lazy validation-ordered commit**: a single commit cursor walks the
//!   serial order under the commit lock. Each transaction's recorded
//!   reads are re-resolved; if every value is unchanged the execution is
//!   equivalent to a serial one and commits as-is. Otherwise its versions
//!   are re-pended and it re-executes *at its commit turn* — every
//!   lower transaction is final, so the re-execution is deterministic and
//!   exactly serial. Each transaction therefore executes at most twice.
//!
//! Validation compares **values**, not version identities: a read that
//! observed the right value through the wrong interleaving commits
//! without re-execution (the classic OCC argument — a deterministic VM
//! re-run with identical reads follows the identical path).
//!
//! Lock order: commit lock → transaction slot → store shard; the interner
//! tail mutex is a leaf. Readers blocked on a re-pended version
//! spin-then-park on the progress event; its owner is the commit-lock
//! holder, which is actively re-executing, so the wait is bounded.
//!
//! [`HybridExecutor`] composes the two engines the way the paper's
//! pool-desync discussion suggests: transactions whose C-SAGs bound
//! symbolically (or loop-summarized) keep their predicted access
//! sequences and flow through the sharded predictive executor, while
//! speculative-fallback and unanalyzable transactions have their
//! predictions stripped to [`CSag::optimistic`] — inside the *same*
//! sharded execution they run exactly as empty-prediction OCC
//! transactions (buffered writes, publish at finalize, dynamic insertion
//! with stale-read aborts as validation), sharing the block's snapshot,
//! interner, arenas and [`ExecutorStats`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dmvcc_primitives::workers::on_workers;
use dmvcc_primitives::U256;
use dmvcc_state::{KeyId, Snapshot, StateKey, WriteSet};
use dmvcc_vm::{
    BlockEnv, DigestCounts, ExecStatus, Host, HostError, KeccakMemo, Transaction, TxKind,
};

use dmvcc_analysis::{Analyzer, CSag, RefinementTier};

use crate::access::{ReadResolution, VersionOp, VersionWriteEffect};
use crate::arena::WriteBuffer;
use crate::hook::SchedHook;
use crate::parallel::{
    run_tx, Event, ExecutorStats, ParallelConfig, ParallelExecutor, ParallelOutcome,
};
use crate::sharded::ShardedSequences;

/// Backstop for a reader parked on a re-pended version or an idle worker
/// parked on the commit tail; both are signaled on every commit, so the
/// timeout only bounds the cost of a missed wakeup.
const STM_PARK: Duration = Duration::from_millis(1);

/// Spins (with `yield_now`) before a blocked reader parks on the progress
/// event — the windows are short (the holder is mid-re-execution).
const ESTIMATE_SPINS: u32 = 16;

/// Per-transaction result slot. `status` turning `Some` is the signal (to
/// the commit cursor, under the slot lock) that the optimistic execution
/// finished and its versions are published.
#[derive(Debug, Default)]
struct TxSlot {
    /// Executions so far (1 after the optimistic pass, 2 after a
    /// commit-turn re-execution).
    execs: u32,
    /// Terminal status of the latest execution.
    status: Option<ExecStatus>,
    /// Gas the latest execution charged.
    gas_used: u64,
    /// External reads `(id, observed value)` of the latest execution, in
    /// order — the validation set.
    reads: Vec<(KeyId, U256)>,
    /// Ids with a live version in the store.
    published: Vec<KeyId>,
}

/// Everything the workers share for one block.
struct StmShared<'a> {
    txs: &'a [Transaction],
    snapshot: &'a Snapshot,
    block_env: &'a BlockEnv,
    analyzer: &'a Analyzer,
    /// The block's multi-version store; its interner maps keys to ids.
    sequences: ShardedSequences,
    slots: Vec<Mutex<TxSlot>>,
    /// Next transaction to execute optimistically.
    next_execute: AtomicUsize,
    /// The commit cursor: next transaction to validate+commit, in serial
    /// order. Guarded by a mutex so exactly one worker drains the tail.
    commit_next: Mutex<usize>,
    /// Transactions committed so far (the termination condition).
    committed: AtomicUsize,
    /// Signaled on every execution finish and every commit.
    progress: Event,
    hook: Option<&'a Arc<dyn SchedHook>>,
    attempts: AtomicU64,
    publishes: AtomicU64,
    parks: AtomicU64,
    validations: AtomicU64,
    validation_failures: AtomicU64,
    aborts: AtomicU64,
}

impl StmShared<'_> {
    /// Resolves the external (non-own) component of a read, waiting out
    /// re-pended versions. Such a version's owner is the commit-lock holder
    /// mid-re-execution, which never waits on this reader — so the spin
    /// is deadlock-free and short.
    fn resolve_external(&self, id: KeyId, key: &StateKey, reader: usize) -> U256 {
        let mut spins = 0u32;
        loop {
            let seen = self.progress.epoch();
            let resolution =
                self.sequences
                    .shard_for(id)
                    .resolve_read(id, reader, key, self.snapshot);
            if let ReadResolution::Ready(value) = resolution {
                if let Some(hook) = self.hook {
                    hook.on_stm_read(reader, key, spins > 0);
                }
                return value;
            }
            spins += 1;
            if spins <= ESTIMATE_SPINS {
                std::thread::yield_now();
            } else {
                if let Some(hook) = self.hook {
                    hook.on_park(Some(reader));
                }
                self.parks.fetch_add(1, Ordering::Relaxed);
                self.progress.wait_while(seen, STM_PARK);
                if let Some(hook) = self.hook {
                    hook.on_wake(Some(reader));
                }
            }
        }
    }

    /// Re-resolves `tx`'s recorded reads at its commit turn. Every lower
    /// transaction is committed, so the resolution is final — equality
    /// means the optimistic execution already observed the serial values.
    fn validate(&self, tx: usize, reads: &[(KeyId, U256)]) -> bool {
        reads.iter().all(|&(id, expected)| {
            let key = self.sequences.interner().resolve(id);
            self.resolve_external(id, &key, tx) == expected
        })
    }
}

/// Host for one optimistic execution: buffers own writes and ω̄ deltas
/// (merged on read exactly like the serial oracle's host) and records the
/// external component of every read for commit-turn validation. It never
/// aborts: a blocked read waits.
struct StmHost<'a, 'b> {
    shared: &'b StmShared<'a>,
    tx: usize,
    buffer: WriteBuffer,
    reads: Vec<(KeyId, U256)>,
    /// The executing worker's digests.
    memo: &'b mut KeccakMemo,
}

impl Host for StmHost<'_, '_> {
    fn sload(&mut self, key: StateKey) -> Result<U256, HostError> {
        let id = self.shared.sequences.intern(key);
        let own_delta = match self.buffer.read(id) {
            Ok(value) => return Ok(value),
            Err(delta) => delta,
        };
        let external = self.shared.resolve_external(id, &key, self.tx);
        self.reads.push((id, external));
        Ok(external.wrapping_add(own_delta))
    }

    fn sstore(&mut self, key: StateKey, value: U256) -> Result<(), HostError> {
        self.buffer.store(self.shared.sequences.intern(key), value);
        Ok(())
    }

    fn sadd(&mut self, key: StateKey, delta: U256) -> Result<(), HostError> {
        self.buffer.add(self.shared.sequences.intern(key), delta);
        Ok(())
    }

    fn keccak(&mut self, data: &[u8]) -> U256 {
        self.memo.keccak(data)
    }
}

/// The result of one optimistic execution.
struct TxRun {
    status: ExecStatus,
    gas_used: u64,
    /// The validation read set: every external `(key, value)` observed.
    reads: Vec<(KeyId, U256)>,
    /// The versions to publish (empty unless the execution succeeded).
    entries: Vec<(KeyId, VersionOp)>,
}

/// Executes `tx` once against the current multi-version state, with the
/// executing worker's digest memo.
fn execute_tx(shared: &StmShared<'_>, tx_index: usize, memo: &mut KeccakMemo) -> TxRun {
    let mut host = StmHost {
        shared,
        tx: tx_index,
        buffer: WriteBuffer::default(),
        reads: Vec::new(),
        memo,
    };
    // The optimistic engine never publishes early, so release-point
    // callbacks have nothing to gate.
    let (status, gas_used) = run_tx(
        &mut host,
        &shared.txs[tx_index],
        shared.analyzer.registry(),
        shared.block_env,
        None,
    );
    let entries = if status.is_success() {
        host.buffer.entries().collect()
    } else {
        Vec::new()
    };
    TxRun {
        status,
        gas_used,
        reads: host.reads,
        entries,
    }
}

/// Applies `ops` to `tx`'s versions, one lock hold per involved shard. What
/// the store reports back (readers to abort or admit) is the predictive
/// scheduler's business: this engine validates by value at the commit turn
/// and parks on the progress event instead.
fn apply_versions(shared: &StmShared<'_>, tx: usize, ops: &mut [(KeyId, VersionOp)]) {
    let mut ignored = VersionWriteEffect::default();
    shared
        .sequences
        .apply_batch(tx, ops, || true, &mut ignored, |_, _| {});
}

/// Publishes an execution's versions under the slot lock: writes the new
/// entries and drops versions the new incarnation no longer produces.
fn publish(shared: &StmShared<'_>, tx: usize, mut ops: Vec<(KeyId, VersionOp)>, slot: &mut TxSlot) {
    let new_ids: Vec<KeyId> = ops.iter().map(|&(id, _)| id).collect();
    let stale = slot.published.iter().filter(|id| !new_ids.contains(id));
    ops.extend(stale.map(|&id| (id, VersionOp::Drop)));
    apply_versions(shared, tx, &mut ops);
    shared
        .publishes
        .fetch_add(new_ids.len() as u64, Ordering::Relaxed);
    if let Some(hook) = shared.hook {
        for &(id, op) in &ops {
            if let VersionOp::Publish(_, delta) = op {
                hook.on_publish(tx, &shared.sequences.interner().resolve(id), delta);
            }
        }
    }
    slot.published = new_ids;
}

/// Drains the commit tail if the commit lock is free: validate the next
/// transaction in serial order, re-execute it in place on failure, commit,
/// advance. Runs until the cursor hits an unexecuted transaction.
fn try_commit(shared: &StmShared<'_>, memo: &mut KeccakMemo) {
    let n = shared.txs.len();
    let Some(mut next) = shared.commit_next.try_lock() else {
        return;
    };
    while *next < n {
        let t = *next;
        let mut slot = shared.slots[t].lock();
        if slot.status.is_none() {
            return; // Not yet executed; a later pass resumes here.
        }
        let ok = shared.validate(t, &slot.reads);
        shared.validations.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = shared.hook {
            hook.on_validate(t, slot.execs, ok);
        }
        if !ok {
            shared.validation_failures.fetch_add(1, Ordering::Relaxed);
            shared.aborts.fetch_add(1, Ordering::Relaxed);
            if let Some(hook) = shared.hook {
                hook.on_abort(t, t);
            }
            // Doom the stale versions, then re-execute at the commit
            // turn: everything below is final, so this run is serial.
            let doomed = slot.published.iter().map(|&id| (id, VersionOp::Reset));
            apply_versions(shared, t, &mut doomed.collect::<Vec<_>>());
            let run = execute_tx(shared, t, memo);
            shared.attempts.fetch_add(1, Ordering::Relaxed);
            slot.execs += 1;
            slot.status = Some(run.status);
            slot.gas_used = run.gas_used;
            slot.reads = run.reads;
            publish(shared, t, run.entries, &mut slot);
        }
        if let Some(hook) = shared.hook {
            hook.on_commit(t);
        }
        drop(slot);
        shared.committed.fetch_add(1, Ordering::Release);
        *next = t + 1;
        shared.progress.signal();
    }
}

/// One worker: alternate between draining the commit tail and claiming
/// the next transaction for optimistic execution; park when both are dry.
/// Returns what the worker's digest memo was asked for and computed.
fn worker(shared: &StmShared<'_>) -> DigestCounts {
    let n = shared.txs.len();
    let mut memo = KeccakMemo::default();
    loop {
        try_commit(shared, &mut memo);
        if shared.committed.load(Ordering::Acquire) >= n {
            return memo.counts();
        }
        let t = shared.next_execute.fetch_add(1, Ordering::Relaxed);
        if t < n {
            if let Some(hook) = shared.hook {
                hook.on_dequeue(t, 1);
            }
            let run = execute_tx(shared, t, &mut memo);
            shared.attempts.fetch_add(1, Ordering::Relaxed);
            let mut slot = shared.slots[t].lock();
            publish(shared, t, run.entries, &mut slot);
            slot.execs = 1;
            slot.gas_used = run.gas_used;
            slot.reads = run.reads;
            // Publish-before-status: the commit cursor only looks at a
            // slot whose status is set, under the same lock.
            slot.status = Some(run.status);
            drop(slot);
            shared.progress.signal();
            continue;
        }
        // Nothing left to execute: wait for the commit tail to advance.
        let seen = shared.progress.epoch();
        if shared.committed.load(Ordering::Acquire) >= n {
            return memo.counts();
        }
        if let Some(hook) = shared.hook {
            hook.on_park(None);
        }
        shared.parks.fetch_add(1, Ordering::Relaxed);
        shared.progress.wait_while(seen, STM_PARK);
        if let Some(hook) = shared.hook {
            hook.on_wake(None);
        }
    }
}

/// The Block-STM-style optimistic threaded executor.
///
/// API-compatible with [`ParallelExecutor`]: `execute_block` /
/// `execute_block_with_csags` return a [`ParallelOutcome`] whose write
/// set equals the serial oracle's for any interleaving. Unlike the
/// predictive executor it needs no C-SAGs — `execute_block` skips
/// refinement entirely, and `execute_block_with_csags` uses the supplied
/// predictions only to pre-intern keys (a performance hint; correctness
/// never depends on them, so fault-perturbed predictions are harmless by
/// construction).
pub struct StmExecutor {
    analyzer: Analyzer,
    config: ParallelConfig,
    hook: Option<Arc<dyn SchedHook>>,
}

impl StmExecutor {
    /// Creates an optimistic executor. Of [`ParallelConfig`] only
    /// `threads` applies: the engine's convergence bound (two executions
    /// per transaction) makes `max_attempts` moot.
    pub fn new(analyzer: Analyzer, config: ParallelConfig) -> Self {
        StmExecutor {
            analyzer,
            config,
            hook: None,
        }
    }

    /// Installs a scheduler hook (DST observation/perturbation surface).
    pub fn with_hook(mut self, hook: Arc<dyn SchedHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// The analyzer in use (the STM engine only needs its code registry).
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// Executes a block optimistically. No refinement happens — the whole
    /// point of this engine is running unanalyzable blocks — so only the
    /// transfers' trivially-known balance keys are pre-interned.
    pub fn execute_block(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
    ) -> ParallelOutcome {
        let start = Instant::now();
        let mut sequences = self.sequences();
        let (interner, _) = sequences.bind();
        for tx in txs {
            if tx.kind == TxKind::Transfer {
                interner.preintern(StateKey::balance(tx.sender()));
                interner.preintern(StateKey::balance(tx.to()));
            }
        }
        self.run(txs, snapshot, block_env, sequences, start)
    }

    /// Executes a block optimistically, pre-interning the predicted keys
    /// of `csags` so most runtime lookups hit the interner's lock-free
    /// frozen tier. The predictions are *only* an interning hint.
    pub fn execute_block_with_csags(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
        csags: &[CSag],
    ) -> ParallelOutcome {
        assert_eq!(txs.len(), csags.len(), "one C-SAG per transaction");
        let start = Instant::now();
        let mut sequences = self.sequences();
        let (interner, _) = sequences.bind();
        for sag in csags {
            for key in sag.reads.iter().chain(sag.written()) {
                interner.preintern(*key);
            }
        }
        self.run(txs, snapshot, block_env, sequences, start)
    }

    /// A block's empty store (no storage recycling in this engine).
    fn sequences(&self) -> ShardedSequences {
        ShardedSequences::for_block(None, self.hook.clone()).0
    }

    /// Runs the block over `sequences`, whose interner the caller filled.
    /// `start` is when it began to: what lies between that and the workers'
    /// start, and the flush and merge after their end, is
    /// [`ExecutorStats::serial_nanos`].
    fn run(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
        sequences: ShardedSequences,
        start: Instant,
    ) -> ParallelOutcome {
        if txs.is_empty() {
            return ParallelOutcome {
                final_writes: WriteSet::new(),
                statuses: Vec::new(),
                gas_used: Vec::new(),
                aborts: 0,
                stats: ExecutorStats::default(),
            };
        }
        let shared = StmShared {
            txs,
            snapshot,
            block_env,
            analyzer: &self.analyzer,
            sequences,
            slots: (0..txs.len())
                .map(|_| Mutex::new(TxSlot::default()))
                .collect(),
            next_execute: AtomicUsize::new(0),
            commit_next: Mutex::new(0),
            committed: AtomicUsize::new(0),
            progress: Event::default(),
            hook: self.hook.as_ref(),
            attempts: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            validations: AtomicU64::new(0),
            validation_failures: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        };
        let threads = self.config.threads.clamp(1, txs.len());
        let bound = Instant::now();
        let mut execute_digests = DigestCounts::default();
        for digests in on_workers(threads, || worker(&shared)) {
            execute_digests += digests;
        }
        let joined = Instant::now();
        debug_assert_eq!(shared.committed.load(Ordering::Acquire), txs.len());

        let final_writes = shared.sequences.final_writes(snapshot, threads);
        let (statuses, gas_used) = shared
            .slots
            .iter()
            .map(|slot| {
                let slot = slot.lock();
                let status = slot.status.clone().expect("every transaction committed");
                (status, slot.gas_used)
            })
            .unzip();
        let stats = ExecutorStats {
            attempts: shared.attempts.load(Ordering::Relaxed),
            publishes: shared.publishes.load(Ordering::Relaxed),
            parks: shared.parks.load(Ordering::Relaxed),
            validations: shared.validations.load(Ordering::Relaxed),
            validation_failures: shared.validation_failures.load(Ordering::Relaxed),
            optimistic_txs: txs.len() as u64,
            serial_nanos: ((bound - start) + joined.elapsed()).as_nanos() as u64,
            execute_digests,
            ..ExecutorStats::default()
        };
        ParallelOutcome {
            final_writes,
            statuses,
            gas_used,
            aborts: shared.aborts.load(Ordering::Relaxed),
            stats,
        }
    }
}

/// The hybrid predictive/optimistic dispatcher.
///
/// Routing rule: transactions whose C-SAGs refined to
/// [`RefinementTier::Symbolic`], [`RefinementTier::LoopSummarized`] or
/// [`RefinementTier::Exact`] keep their predicted access sequences;
/// [`RefinementTier::Speculative`] fallbacks and
/// [`RefinementTier::Optimistic`] (unanalyzable) transactions have their
/// predictions stripped to [`CSag::optimistic`]. The whole block then
/// runs on the *one* sharded predictive executor — stripped transactions
/// execute exactly as empty-prediction OCC transactions there (buffered
/// writes published at finalize; dynamic insertion plus stale-read abort
/// cascades play the role of optimistic validation), so both populations
/// share the block's snapshot, interner, arenas and [`ExecutorStats`].
pub struct HybridExecutor {
    inner: ParallelExecutor,
}

impl HybridExecutor {
    /// Creates a hybrid dispatcher over a sharded predictive executor.
    pub fn new(analyzer: Analyzer, config: ParallelConfig) -> Self {
        HybridExecutor {
            inner: ParallelExecutor::new(analyzer, config),
        }
    }

    /// Installs a scheduler hook on the underlying sharded executor.
    pub fn with_hook(mut self, hook: Arc<dyn SchedHook>) -> Self {
        self.inner = self.inner.with_hook(hook);
        self
    }

    /// The analyzer in use.
    pub fn analyzer(&self) -> &Analyzer {
        self.inner.analyzer()
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ParallelConfig {
        self.inner.config()
    }

    /// Applies the routing rule in place: predictions of
    /// speculative-fallback and unanalyzable transactions are replaced with
    /// [`CSag::optimistic`]; the well-analyzed tiers are left untouched (no
    /// clone — routing must not tax the analyzable path). Returns how many
    /// transactions were sent optimistic.
    pub fn route_csags(csags: &mut [CSag]) -> u64 {
        let mut optimistic = 0u64;
        for sag in csags.iter_mut() {
            if matches!(
                sag.tier,
                RefinementTier::Speculative | RefinementTier::Optimistic
            ) {
                optimistic += 1;
                *sag = CSag::optimistic();
            }
        }
        optimistic
    }

    /// Refines the block's C-SAGs, routes them in place, and executes.
    pub fn execute_block(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
    ) -> ParallelOutcome {
        let (mut csags, refine_nanos, refine_digests) =
            self.inner.refine_timed(txs, snapshot, block_env);
        let optimistic = Self::route_csags(&mut csags);
        let mut outcome = self
            .inner
            .execute_block_with_csags(txs, snapshot, block_env, &csags);
        outcome.stats.refine_nanos = refine_nanos;
        outcome.stats.refine_digests = refine_digests;
        outcome.stats.optimistic_txs = optimistic;
        outcome
    }

    /// Routes pre-refined C-SAGs and executes the block on the sharded
    /// predictive executor. The input slice is borrowed, so routing clones
    /// it only when at least one transaction actually needs stripping.
    pub fn execute_block_with_csags(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
        csags: &[CSag],
    ) -> ParallelOutcome {
        let needs_routing = csags.iter().any(|sag| {
            matches!(
                sag.tier,
                RefinementTier::Speculative | RefinementTier::Optimistic
            )
        });
        let (mut outcome, optimistic) = if needs_routing {
            let mut routed = csags.to_vec();
            let optimistic = Self::route_csags(&mut routed);
            let outcome = self
                .inner
                .execute_block_with_csags(txs, snapshot, block_env, &routed);
            (outcome, optimistic)
        } else {
            let outcome = self
                .inner
                .execute_block_with_csags(txs, snapshot, block_env, csags);
            (outcome, 0)
        };
        outcome.stats.optimistic_txs = optimistic;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::execute_block_serial;
    use dmvcc_primitives::Address;
    use dmvcc_vm::CodeRegistry;

    fn transfer(from: u64, to: u64, value: u64) -> Transaction {
        Transaction::transfer(
            Address::from_u64(from),
            Address::from_u64(to),
            U256::from(value),
        )
    }

    fn genesis(accounts: u64, balance: u64) -> Snapshot {
        Snapshot::from_entries(
            (1..=accounts).map(|i| (StateKey::balance(Address::from_u64(i)), U256::from(balance))),
        )
    }

    fn check_against_serial(txs: &[Transaction], snapshot: &Snapshot, threads: usize) {
        let analyzer = Analyzer::new(CodeRegistry::default());
        let env = BlockEnv::default();
        let trace = execute_block_serial(txs, snapshot, &analyzer, &env);
        let config = ParallelConfig {
            threads,
            ..ParallelConfig::default()
        };
        let stm = StmExecutor::new(analyzer.clone(), config);
        let outcome = stm.execute_block(txs, snapshot, &env);
        assert_eq!(outcome.final_writes, trace.final_writes);
        let statuses: Vec<ExecStatus> = trace.txs.iter().map(|t| t.status.clone()).collect();
        assert_eq!(outcome.statuses, statuses);
        assert_eq!(outcome.stats.validations, txs.len() as u64);
        assert_eq!(outcome.stats.optimistic_txs, txs.len() as u64);
        assert_eq!(
            outcome.stats.attempts,
            txs.len() as u64 + outcome.stats.validation_failures
        );

        let hybrid = HybridExecutor::new(analyzer, config);
        let houtcome = hybrid.execute_block(txs, snapshot, &env);
        assert_eq!(houtcome.final_writes, trace.final_writes);
        assert_eq!(houtcome.statuses, statuses);
    }

    #[test]
    fn dependent_transfer_chain_matches_serial() {
        // 1 → 2 → 3 → … : every transfer depends on the previous credit.
        let txs: Vec<Transaction> = (1..=12).map(|i| transfer(i, i + 1, 80 + i)).collect();
        let snapshot = genesis(13, 100);
        for threads in [1, 4] {
            check_against_serial(&txs, &snapshot, threads);
        }
    }

    #[test]
    fn airdrop_style_credits_merge_as_deltas() {
        // Many senders credit one hot account: ω̄ deltas must merge, and
        // every validation must pass (nobody reads the hot balance).
        let txs: Vec<Transaction> = (1..=16).map(|i| transfer(i, 99, 5)).collect();
        let snapshot = genesis(99, 50);
        let analyzer = Analyzer::new(CodeRegistry::default());
        let env = BlockEnv::default();
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let stm = StmExecutor::new(
            analyzer,
            ParallelConfig {
                threads: 4,
                ..ParallelConfig::default()
            },
        );
        let outcome = stm.execute_block(&txs, &snapshot, &env);
        assert_eq!(outcome.final_writes, trace.final_writes);
        // Credits commute: no sender reads another's balance, so the
        // optimistic pass is conflict-free.
        assert_eq!(outcome.stats.validation_failures, 0);
        assert_eq!(outcome.aborts, 0);
    }

    #[test]
    fn insufficient_balance_reverts_match_serial() {
        // Reverting transfers publish nothing; their statuses still match.
        let txs = vec![
            transfer(1, 2, 100), // drains 1
            transfer(1, 3, 1),   // now underfunded → reverted
            transfer(2, 3, 150), // funded only by tx0's credit
        ];
        let snapshot = genesis(3, 100);
        for threads in [1, 2, 4] {
            check_against_serial(&txs, &snapshot, threads);
        }
    }

    #[test]
    fn unknown_contract_calls_succeed_without_state() {
        let mut txs = vec![transfer(1, 2, 10)];
        txs.push(Transaction::call(dmvcc_vm::TxEnv::call(
            Address::from_u64(1),
            Address::from_u64(7777),
            vec![1, 2, 3],
        )));
        let snapshot = genesis(2, 100);
        check_against_serial(&txs, &snapshot, 2);
    }

    #[test]
    fn hybrid_routes_unanalyzable_and_speculative_txs() {
        let txs = vec![
            transfer(1, 2, 10),
            transfer(2, 3, 10).unanalyzable(),
            transfer(3, 4, 10),
        ];
        let snapshot = genesis(4, 100);
        let analyzer = Analyzer::new(CodeRegistry::default());
        let env = BlockEnv::default();
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let hybrid = HybridExecutor::new(
            analyzer,
            ParallelConfig {
                threads: 2,
                ..ParallelConfig::default()
            },
        );
        let outcome = hybrid.execute_block(&txs, &snapshot, &env);
        assert_eq!(outcome.final_writes, trace.final_writes);
        assert_eq!(outcome.stats.optimistic_txs, 1);

        // The routing helper itself: speculative and optimistic tiers are
        // stripped, the others pass through untouched.
        let mut speculative = CSag::for_transfer(Address::from_u64(1), Address::from_u64(2));
        speculative.tier = RefinementTier::Speculative;
        let exact = CSag::for_transfer(Address::from_u64(3), Address::from_u64(4));
        let mut routed = vec![speculative, CSag::optimistic(), exact.clone()];
        let optimistic = HybridExecutor::route_csags(&mut routed);
        assert_eq!(optimistic, 2);
        assert!(routed[0].reads.is_empty() && routed[0].writes.is_empty());
        assert_eq!(routed[0].tier, RefinementTier::Optimistic);
        assert_eq!(routed[2].reads, exact.reads);
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let analyzer = Analyzer::new(CodeRegistry::default());
        let stm = StmExecutor::new(analyzer, ParallelConfig::default());
        let outcome = stm.execute_block(&[], &Snapshot::default(), &BlockEnv::default());
        assert!(outcome.final_writes.is_empty());
        assert!(outcome.statuses.is_empty());
        assert_eq!(outcome.stats, ExecutorStats::default());
    }
}
