//! The sharded multi-threaded DMVCC executor.
//!
//! Where `dmvcc_sim::simulate_dmvcc` evaluates the schedule in virtual
//! time, this module actually runs the protocol concurrently: worker threads pop
//! ready transactions (Algorithm 1), execute them on shared access
//! sequences, publish writes at release points (Algorithm 2) via write
//! versioning (Algorithm 3), and abort and re-execute stale readers with
//! cascades (Algorithm 4).
//!
//! The synchronization is decomposed along the state it actually protects:
//!
//! - **Sharded sequences** ([`crate::sharded::ShardedSequences`]): access sequences
//!   live in id-addressed shards, each behind its own lock, so
//!   transactions over disjoint keys never contend.
//! - **Suspension**: a read that meets a pending version never waits. It
//!   becomes a *counted read* of its key, under the shard lock that saw it
//!   blocked, and aborts its own attempt: the transaction then waits for
//!   the key exactly as for a predicted read. No worker ever sleeps inside
//!   an attempt.
//! - **Counted readiness**: a transaction's counted reads — the predicted
//!   ones and the suspended ones — are never re-resolved to admit it. Its
//!   state counts how many of them are blocked, and every change to a key
//!   reports exactly the counted readers it turned (see "Wakes and
//!   admission" below).
//! - **Rank-lane ready queue**: the dispatch order is computed up front
//!   from the batch — [`crate::BlockDag`] ranks bucket every transaction
//!   into one of [`crate::rank::NUM_LANES`] FIFO lanes — and workers pop the
//!   highest-priority non-empty lane. There is one queue, shared by all
//!   workers; nothing is discovered by arrival order or stealing.
//! - **Per-transaction cores**: behind a transaction's own small mutex
//!   sits only what a *different* thread needs to abort or report it —
//!   phase, attempt count, status and gas, and the ids it touched that its
//!   C-SAG did not predict — with the abort generation as an atomic for
//!   cheap staleness checks. The predicted ids are in the block's read-only
//!   metadata, where the host also finds a key's id without hashing it.
//! - **Per-worker scratch**: what one thread alone reads and writes — an
//!   attempt's write buffer, published set and op batches, the worker's
//!   share of the counters — is a value the worker loop owns, clears per
//!   attempt and returns at the join. An exactly predicted attempt takes
//!   its core lock twice: at dequeue and to finish.
//!
//! What only the calling thread can do is kept small, because a second
//! worker cannot shorten it. A block has three stages, and `threads`
//! workers are the calling thread and `threads - 1` spawned ones in each
//! ([`dmvcc_primitives::workers::on_workers`]):
//!
//! 1. **Bind** (calling thread, before any worker exists): one walk over
//!    the C-SAGs (`BlockMeta::bind`) interns the predicted keys, lays
//!    every transaction's metadata out in four block-level arrays,
//!    registers the predicted accesses in the store through exclusive
//!    access (no lock), sweeps the ranks over the same ids and queues the
//!    first ready set. All of it lands in recycled buffers.
//! 2. **Execute** (workers): the protocol above, until every worker has
//!    returned.
//! 3. **Flush** (workers, then the calling thread): the store is flushed
//!    shard by shard ([`ShardedSequences::flush`]), and the calling thread
//!    merges the sorted runs into the outcome's write set.
//!
//! [`ExecutorStats::serial_nanos`] is the wall time of stages 1 and 3's
//! merge.
//!
//! The join. A worker returns when it sees `finished == n` at the top of
//! its loop, with no attempt, cascade or staged effect of its own in
//! flight. A straggler still holding such an abort — an effect staged
//! under a shard lock, a suspension, an injected abort — may un-finish a
//! transaction after others have returned; it then runs the block to its
//! end by itself, and returns only once it too sees `finished == n`. So
//! when the workers' call returns, `finished == n` holds and nothing is
//! left that could start an attempt or an abort: the store is quiescent,
//! and the flush needs no barrier of its own.
//!
//! Lock discipline: a thread holds at most one shard lock and at most one
//! transaction core lock at a time, and never acquires one kind while
//! holding the other (effects are staged and applied after unlocking).
//!
//! Wakes and admission. A transaction waits for its counted reads: the
//! reads its C-SAG predicted, and each read of the block that met a
//! pending version.
//!
//! - Bind sets each transaction's `blocked_reads` to the number of its
//!   predicted reads that an earlier transaction's predicted write or add
//!   blocks — what `resolve_read` answers on the fresh store.
//! - A suspension flags the transaction's entry for the key as a counted
//!   read (inserting a ρ entry if there is none) under the shard-lock hold
//!   that saw the read blocked ([`crate::AccessSequence::read`]). A newly
//!   counted read adds exactly one to `blocked_reads` after the unlock,
//!   before the attempt's abort returns the transaction to `Waiting` — even
//!   if the attempt went stale after the unlock, because the count must
//!   match the flags. A read that was already counted adds nothing: a
//!   predicted read admitted early on a transiently low count. An abort's
//!   `Reset` or `Rollback` keeps the flag (a rollback of a ρ entry only
//!   clears its consumed read), so a counted read lasts for the rest of the
//!   block: a later attempt that no longer reads the key still waits for
//!   it, which changes scheduling but not results. The STM engine never
//!   reads through [`crate::sharded::Shard::read`], so it counts nothing.
//! - A change to a key lists the counted readers it turned from blocked
//!   to ready (`allowed`) and from ready to blocked (`blocked`), each turn
//!   exactly once, in the change that made it. After the shard unlock the
//!   worker adds one per re-blocked reader, then takes one off per woken
//!   reader ([`Shared::wake`]), atomically and without the core lock.
//!   Turns of one key are made in shard-lock
//!   order but applied in any, so the count is signed: it may pass below
//!   zero on its way to its true value, never stay off it.
//! - A decrement that leaves the count at or below zero checks admission,
//!   and so does the end of an abort's resets (the victim's return to
//!   `Waiting`). Either admits under the same core-lock hold if the
//!   transaction has attempts left, and otherwise calls `try_admit`, which
//!   holds it until every earlier transaction has finished. An increment
//!   never admits.
//!
//! Why no wake is lost. Take a `Waiting` transaction whose counted reads
//! are all ready, with every turn reported so far applied — a suspension's
//! flag is a turn to blocked, and its increment the application — so its
//! count is 0. Its last check — the last decrement, or its last return to
//! `Waiting`, whichever came later (a decrement precedes its core lock and
//! the return reads the count under that lock, so the later of the two
//! sees the earlier) — saw the count at 0 less the increments applied
//! since, so at or below zero, and saw it `Waiting`: the check admitted
//! it, unless spent attempts sent it to `try_admit`. A count that is
//! transiently low — a turn not yet applied — only admits early, and that
//! attempt suspends on the blocked read like any mispredicted one.
//!
//! Liveness: a worker is either running an attempt, which never sleeps, or
//! in the idle loop, whose self-heal sweep over the waiting transactions and
//! timed park are the backstop. By the argument above the sweep only ever
//! finds a transaction that has spent its attempts: nothing signals the
//! end of its hold.
//!
//! Correctness oracle: for any interleaving, the committed write set equals
//! the serial execution's (Theorem 1) — integration tests compare Merkle
//! roots over randomized workloads.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dmvcc_primitives::workers::on_workers;
use dmvcc_primitives::U256;
use dmvcc_state::{KeyId, Snapshot, SortedVec, StateKey, WriteSet};
use dmvcc_vm::{
    execute, BlockEnv, CodeRegistry, DigestCounts, ExecParams, ExecStatus, Host, HostError,
    KeccakMemo, Transaction, TxKind, INTRINSIC_GAS,
};

use dmvcc_analysis::{Analyzer, CSag};

use crate::access::{AccessOp, ReadResolution, VersionOp, VersionWriteEffect};
use crate::arena::WriteBuffer;
use crate::hook::SchedHook;
use crate::rank::{BlockDag, NUM_LANES};
use crate::sharded::{ShardStorage, ShardedSequences};

/// Backstop for an idle worker with nothing to run.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Configuration of the threaded executor.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Number of workers, the calling thread one of them (clamped per
    /// block to `1..=transactions`).
    pub threads: usize,
    /// Speculative attempts per transaction. A transaction that has spent
    /// them — an abort storm: most of the block mispredicted on a hot key
    /// — is next admitted only once every earlier transaction has
    /// finished, and nothing is left to abort that run.
    pub max_attempts: u32,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        // One worker per logical CPU. `available_parallelism` can fail
        // (exotic platforms, restricted sandboxes); fall back to 4, the
        // paper's smallest evaluated thread count, rather than guessing
        // higher on a machine we know nothing about.
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        ParallelConfig {
            threads,
            max_attempts: 64,
        }
    }
}

/// Counters describing how a parallel execution actually behaved, surfaced
/// through [`ParallelOutcome::stats`]. All counters are per-block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Execution attempts across all transactions (≥ block size; the
    /// excess is re-execution work caused by aborts).
    pub attempts: u64,
    /// Versions made visible in the access sequences.
    pub publishes: u64,
    /// Suspensions: reads that met a pending version and became counted
    /// reads of their key (a read counted already is not counted again).
    /// The field keeps its name only because the frozen e2e benchmark
    /// adapter reads it.
    pub targeted_wakeups: u64,
    /// Always 0: the single rank-lane ready queue has nothing to steal
    /// from. The field survives only because the frozen e2e benchmark
    /// adapter reads it.
    pub steals: u64,
    /// Times a worker went to sleep. On the sharded engine only an idle
    /// worker does (a blocked read suspends its transaction instead); on
    /// the optimistic engine also a read waiting out a re-pended version.
    pub parks: u64,
    /// Valid dequeues that ran a transaction while a strictly
    /// higher-priority lane still held entries — how far the actual
    /// dispatch order strayed from rank order (a push racing a pop; near
    /// zero).
    pub rank_inversions: u64,
    /// Wall-clock nanoseconds spent refining the block's C-SAGs
    /// (`execute_block` only; zero when precomputed C-SAGs are supplied).
    pub refine_nanos: u64,
    /// Heap bytes served from the block arena's recycled pools (shard
    /// storage, per-tx scheduling state) instead of the allocator. Zero for
    /// the first block an executor runs; the steady state recycles nearly
    /// everything.
    pub alloc_bytes_saved: u64,
    /// Wall-clock nanoseconds `execute_block_with_csags` spent on the
    /// calling thread alone — binding the block before the first worker
    /// starts, merging the flushed runs into the outcome after the flush's
    /// workers return — i.e. the part of the execute stage a second thread
    /// cannot shorten. (The optimistic engine also counts its flush here.)
    pub serial_nanos: u64,
    /// Shard mutex acquisitions by the workers across the block — the
    /// contention surface batched publishing shrinks. Binding the block
    /// takes no lock (exclusive access), so predictions are not counted.
    pub shard_lock_acquisitions: u64,
    /// Shard-lock grabs that served a publish/drop batch (each batch covers
    /// every batched key mapping to that shard; `publishes /
    /// publish_batches` is the per-lock amortization).
    pub publish_batches: u64,
    /// Read-set validations performed at commit turns (optimistic/STM
    /// executor only; one per committed transaction).
    pub validations: u64,
    /// Validations that found a stale read and forced a commit-turn
    /// re-execution (optimistic/STM executor only).
    pub validation_failures: u64,
    /// Transactions executed on the optimistic path: every transaction for
    /// the STM executor, the routed (speculative-fallback or unanalyzable)
    /// subset for the hybrid dispatcher, zero for the purely predictive
    /// executors.
    pub optimistic_txs: u64,
    /// Keccak digests the refine workers asked their memos for, and how
    /// many of them were computed (`execute_block` only, like
    /// `refine_nanos`).
    pub refine_digests: DigestCounts,
    /// Keccak digests the execute workers' `SHA3`s asked their memos for,
    /// and how many of them were computed.
    pub execute_digests: DigestCounts,
    /// Admission checks the workers' publish and drop batches triggered,
    /// each one lock of a transaction's core: one per woken reader whose
    /// count of blocked reads the wake released (an abort cascade's own are
    /// not counted). Exact at one worker; at more, the order in which
    /// turns of one key are applied could move it, though it has read the
    /// same at one and two workers on both benchmark mixes.
    pub admission_checks: u64,
    /// Sequence entries the changes to the block's access sequences
    /// visited beyond the changed entries — the walks for woken and stale
    /// readers and the growth of the settled prefix, abort resets included.
    /// Exact at one worker; at more it moves from run to run (about 0.1 %
    /// on the benchmark mixes at two), because the order in which
    /// concurrent publications land decides how far a change walks.
    pub entries_visited: u64,
}

/// Result of a parallel block execution.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// The block's final writes (flush of every access sequence).
    pub final_writes: WriteSet,
    /// Final status per transaction.
    pub statuses: Vec<ExecStatus>,
    /// Gas each transaction's final execution charged, index-aligned with
    /// `statuses` — what the serial oracle charges, not what analysis
    /// predicted.
    pub gas_used: Vec<u64>,
    /// Non-deterministic aborts (re-executions) that occurred.
    pub aborts: u64,
    /// Scheduler behavior counters for this block.
    pub stats: ExecutorStats,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// Not yet ready: some predicted read is unavailable.
    #[default]
    Waiting,
    /// In the ready queue.
    Ready,
    /// A worker is executing it.
    Running,
    /// Terminal (until a cascade aborts it again).
    Finished,
}

/// An edge-triggered event: an epoch counter under a mutex plus a condvar.
/// Waiters sample the epoch *before* checking the condition they sleep on;
/// `signal` bumps the epoch, so a signal between sampling and sleeping
/// turns the sleep into a no-op instead of a lost wakeup.
#[derive(Debug, Default)]
pub(crate) struct Event {
    epoch: Mutex<u64>,
    cond: Condvar,
}

impl Event {
    pub(crate) fn epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    pub(crate) fn signal(&self) {
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        self.cond.notify_all();
    }

    /// Sleeps until the epoch moves past `seen` or the timeout elapses.
    pub(crate) fn wait_while(&self, seen: u64, timeout: Duration) {
        let mut epoch = self.epoch.lock();
        if *epoch == seen {
            self.cond.wait_for(&mut epoch, timeout);
        }
    }
}

/// The lock-protected scheduling state of one transaction.
#[derive(Debug, Default)]
struct TxCore {
    phase: Phase,
    attempts: u32,
    status: Option<ExecStatus>,
    /// Gas charged by the execution that set `status`.
    gas_used: u64,
    /// Ids this tx has entries for that [`BlockMeta`] does not list for it:
    /// keys an attempt read or published without the C-SAG predicting them.
    /// An abort resets these next to the predicted ones; the set only grows
    /// while the block runs.
    unpredicted: SortedVec<KeyId>,
}

/// One transaction's immutable execution metadata: its slice of each of
/// [`BlockMeta`]'s arrays. Built once per block, so attempts after an abort
/// re-run with zero rebuild cost.
#[derive(Debug, Clone, Copy)]
struct TxMeta<'a> {
    /// Predicted reads as (id, key) pairs, sorted by key — the readiness
    /// probe.
    reads: &'a [(KeyId, StateKey)],
    /// Predicted writes ∪ adds as (id, publish pc) — a buffered write of the
    /// key may be published once execution is past the pc, [`CSag::NEVER`]
    /// meaning only at the end — sorted by id: the host looks the pc up and
    /// the abort cascade membership (predicted and dynamically discovered
    /// writes roll back differently) by binary search.
    predicted_wa: &'a [(KeyId, usize)],
    /// Release points as (pc, gas bound), sorted by pc, one per pc.
    release_bounds: &'a [(usize, u64)],
    /// pcs where the VM fires `on_release_point`, sorted: release points
    /// plus one-past each key's publish pc, so publication happens as early
    /// as Algorithm 2 allows.
    release_set: &'a [usize],
}

impl TxMeta<'_> {
    /// The pc past which a write of `id` may be published, if predicted.
    fn publish_pc(&self, id: KeyId) -> Option<usize> {
        let at = self.predicted_wa.binary_search_by_key(&id, |&(k, _)| k);
        at.ok().map(|at| self.predicted_wa[at].1)
    }

    /// `key`'s id, and whether the C-SAG predicts the key, from the
    /// transaction's own slices: a predicted read — most accesses — costs a
    /// binary search over a handful of pairs and no hash. Only a key that
    /// is not one goes to the block's interner, which assigns an id if no
    /// transaction predicted the key at all.
    fn locate(&self, sequences: &ShardedSequences, key: &StateKey) -> (KeyId, bool) {
        if let Ok(at) = self.reads.binary_search_by(|(_, k)| k.cmp(key)) {
            return (self.reads[at].0, true);
        }
        let id = sequences.intern(*key);
        (id, self.publish_pc(id).is_some())
    }

    /// What an abort does to the transaction's entries: every predicted id
    /// and every id of `unpredicted` (the core's set) once, in id order.
    /// Predicted writes re-pend (the new attempt re-announces them);
    /// everything else rolls back — a dynamically discovered write becomes
    /// `Dropped`, because the new attempt may never write the key again and
    /// a pending entry nothing fulfills wedges every later reader.
    fn resets(&self, unpredicted: &[KeyId]) -> Vec<(KeyId, VersionOp)> {
        let repended = self.predicted_wa.iter().map(|&(id, _)| id);
        let reads = self.reads.iter().map(|&(id, _)| id);
        let rolled_back = reads
            .chain(unpredicted.iter().copied())
            .filter(|&id| self.publish_pc(id).is_none());
        let mut resets: Vec<_> = repended
            .map(|id| (id, VersionOp::Reset))
            .chain(rolled_back.map(|id| (id, VersionOp::Rollback)))
            .collect();
        resets.sort_unstable_by_key(|&(id, _)| id);
        resets
    }
}

/// Everything the engine derives from a block's C-SAGs, as four block-level
/// arrays plus one row of offsets per transaction — no per-transaction heap
/// block exists. Filled by [`BlockMeta::bind`], recycled across blocks.
#[derive(Debug, Default)]
struct BlockMeta {
    reads: Vec<(KeyId, StateKey)>,
    predicted_wa: Vec<(KeyId, usize)>,
    release_bounds: Vec<(usize, u64)>,
    release_set: Vec<usize>,
    /// Row `i`: where transaction `i`'s slice of each array above ends (it
    /// starts where row `i - 1` ends).
    ends: Vec<[usize; 4]>,
    /// Scratch of the walk: one bit per key id, set once some transaction
    /// seen so far predicts a write or an add to the key.
    written: Vec<u64>,
}

/// Sorts `vec[from..]` and drops its duplicates.
fn sort_dedup_tail(vec: &mut Vec<usize>, from: usize) {
    vec[from..].sort_unstable();
    let mut kept = from;
    for i in from..vec.len() {
        if kept == from || vec[kept - 1] != vec[i] {
            vec[kept] = vec[i];
            kept += 1;
        }
    }
    vec.truncate(kept);
}

impl BlockMeta {
    /// The arrays' current lengths, in [`BlockMeta::ends`]' order.
    fn lens(&self) -> [usize; 4] {
        [
            self.reads.len(),
            self.predicted_wa.len(),
            self.release_bounds.len(),
            self.release_set.len(),
        ]
    }

    /// Transaction `tx`'s view of the arrays.
    fn tx(&self, tx: usize) -> TxMeta<'_> {
        let from = if tx == 0 { [0; 4] } else { self.ends[tx - 1] };
        let to = self.ends[tx];
        TxMeta {
            reads: &self.reads[from[0]..to[0]],
            predicted_wa: &self.predicted_wa[from[1]..to[1]],
            release_bounds: &self.release_bounds[from[2]..to[2]],
            release_set: &self.release_set[from[3]..to[3]],
        }
    }

    /// Empties the arrays for a new block and sizes them from the C-SAGs'
    /// vector lengths, so the walk never reallocates. Returns the heap bytes
    /// the recycled buffers already held.
    fn reset(&mut self, csags: &[CSag]) -> u64 {
        fn recycle<T>(vec: &mut Vec<T>, needed: usize) -> u64 {
            let held = vec.capacity() * std::mem::size_of::<T>();
            vec.clear();
            vec.reserve(needed);
            held as u64
        }
        let mut sizes = [0usize; 3];
        for csag in csags {
            sizes[0] += csag.reads.len();
            sizes[1] += csag.writes.len() + csag.adds.len();
            sizes[2] += csag.release_points.len();
        }
        // Key occurrences: an upper bound on the ids the walk can assign.
        let occurrences = sizes[0] + sizes[1];
        let bytes = recycle(&mut self.reads, sizes[0])
            + recycle(&mut self.predicted_wa, sizes[1])
            + recycle(&mut self.release_bounds, sizes[2])
            + recycle(&mut self.release_set, sizes[1] + sizes[2])
            + recycle(&mut self.ends, csags.len())
            + recycle(&mut self.written, occurrences.div_ceil(64));
        self.written.resize(occurrences.div_ceil(64), 0);
        bytes
    }

    /// The one walk over the block's C-SAGs, on the calling thread before
    /// any worker exists. Per transaction, in block order, it
    ///
    /// - interns the predicted keys, hashing each occurrence at most once:
    ///   a write or add key that is one of the transaction's own reads (the
    ///   read-modify-write majority) takes that id from the handful of pairs
    ///   just pushed;
    /// - appends the transaction's slices to the four arrays (the record's
    ///   vectors are sorted with one entry per key or pc and no key is both
    ///   written and added, so only the ids need sorting);
    /// - registers its predicted accesses in `sequences` (exclusive access:
    ///   no shard lock exists to take yet);
    /// - counts its *blocked reads*: the read keys with a predicted ω/θ/ω̄
    ///   entry of an earlier transaction — one bit per key — which is what
    ///   `resolve_read` answers while every entry is still pending; with
    ///   none it is [`Phase::Ready`]. (With `max_attempts == 0` every
    ///   transaction has "spent" its attempts and waits for all earlier
    ///   ones: only the first is ready.)
    ///
    /// The ranks are then swept backwards over the same ids.
    fn bind(
        &mut self,
        csags: &[CSag],
        sequences: &mut ShardedSequences,
        states: &mut [TxState],
        max_attempts: u32,
    ) -> BlockDag {
        let (interner, mut predict) = sequences.bind();
        for (i, (csag, state)) in csags.iter().zip(states).enumerate() {
            let from = self.lens();
            let mut blocked_reads = 0;
            for key in &csag.reads {
                let id = interner.preintern(*key);
                self.reads.push((id, *key));
                predict(id, i, AccessOp::Read);
                blocked_reads += (self.written[id.index() / 64] >> (id.index() % 64) & 1) as i32;
            }
            // The record's reads are in key order, so the pairs are sorted.
            let own_reads = &self.reads[from[0]..];
            let mut id_of = |key: &StateKey| match own_reads.binary_search_by(|(_, k)| k.cmp(key)) {
                Ok(at) => own_reads[at].0,
                Err(_) => interner.preintern(*key),
            };
            for (keys, op) in [(&csag.writes, AccessOp::Write), (&csag.adds, AccessOp::Add)] {
                for (key, pc) in keys {
                    let id = id_of(key);
                    self.predicted_wa.push((id, *pc));
                    predict(id, i, op);
                }
            }
            let predicted_wa = &mut self.predicted_wa[from[1]..];
            // Own writes do not block own reads: the bits go in only now.
            for (id, _) in predicted_wa.iter() {
                self.written[id.index() / 64] |= 1 << (id.index() % 64);
            }
            predicted_wa.sort_unstable_by_key(|&(id, _)| id);
            debug_assert!(predicted_wa.windows(2).all(|pair| pair[0].0 != pair[1].0));
            let release_points = csag.release_points.iter();
            self.release_bounds
                .extend(release_points.map(|rp| (rp.pc, rp.gas_bound)));
            let release_pcs = self.release_bounds[from[2]..].iter().map(|&(pc, _)| pc);
            let publishable = predicted_wa.iter().filter(|&&(_, pc)| pc != CSag::NEVER);
            self.release_set
                .extend(release_pcs.chain(publishable.map(|&(_, pc)| pc + 1)));
            sort_dedup_tail(&mut self.release_set, from[3]);
            let to = self.lens();
            self.ends.push(to);

            *state.blocked_reads.get_mut() = blocked_reads;
            if blocked_reads == 0 && (max_attempts > 0 || i == 0) {
                state.core.get_mut().phase = Phase::Ready;
            }
        }
        let keys = interner.frozen_len();
        drop(predict);
        BlockDag::sweep(
            keys,
            csags.len(),
            |tx| csags[tx].predicted_gas,
            |tx| self.tx(tx).reads.iter().map(|&(id, _)| id),
            |tx| self.tx(tx).predicted_wa.iter().map(|&(id, _)| id),
        )
    }
}

/// One transaction's full concurrent state: the core behind its own small
/// mutex, and beside it as atomics the abort generation (checked far more
/// often than the core is mutated) and the count of blocked reads (changed
/// far more often than it releases the transaction).
#[derive(Debug, Default)]
struct TxState {
    generation: AtomicU32,
    /// Counted reads that are blocked, as the turns applied so far count
    /// them (see the module docs): signed, because turns of one key may be
    /// applied out of order.
    blocked_reads: AtomicI32,
    core: Mutex<TxCore>,
}

/// What one worker owns while it runs a block: the buffers of the attempt
/// it is executing — cleared from one attempt to the next, so an attempt
/// allocates only when it outgrows every earlier one — the digests its
/// attempts have computed, and the worker's share of the block's counters.
/// No other thread reads or writes any of it; the counters are summed when
/// the workers join.
#[derive(Debug, Default)]
struct Scratch {
    /// Buffered full writes and commutative deltas of the attempt.
    buffer: WriteBuffer,
    /// Ids whose versions the attempt has made visible in the sequences.
    published: SortedVec<KeyId>,
    /// The publish or drop batch being built and applied.
    batch: Vec<(KeyId, VersionOp)>,
    /// What each shard's run of the batch did, read after the unlock.
    effect: VersionWriteEffect,
    /// Every `SHA3` of the worker's attempts asks here first: a mapping
    /// slot of a popular account, or of a transaction re-run after an
    /// abort, is hashed once a block.
    memo: KeccakMemo,
    /// `publishes`, `publish_batches`, `targeted_wakeups` (suspensions),
    /// `admission_checks`, `parks` and `rank_inversions`, as this worker
    /// counted them, and on its way out its memo's `execute_digests`.
    stats: ExecutorStats,
}

/// A queued admission: `(tx, generation)`, in the lane of the
/// transaction's rank.
type ReadyEntry = (usize, u32);

struct Shared<'a> {
    sequences: ShardedSequences,
    states: Vec<TxState>,
    /// Critical-path ranks of the block: a transaction's rank picks its
    /// ready-queue lane.
    dag: BlockDag,
    /// The ready queue: rank-bucketed FIFO lanes, drained lane 0 first.
    lanes: Vec<Mutex<VecDeque<ReadyEntry>>>,
    /// Entries currently queued per lane, so the rank-inversion probe
    /// ("is a higher lane non-empty?") takes no lane lock.
    lane_counts: Vec<AtomicUsize>,
    /// Transactions currently in phase `Finished` whose finalization
    /// completed (incremented/decremented strictly under the tx's core
    /// lock, so `finished == n` means every transaction is final *at that
    /// instant*; the module docs' "The join" says what makes it stay so).
    finished: AtomicUsize,
    /// Workers currently parked with nothing to run.
    idle: AtomicUsize,
    /// Entries currently sitting in the ready queue (stale ones included).
    ready_count: AtomicUsize,
    aborts: AtomicU64,
    /// Parked idle workers wait here; signaled when work is admitted or
    /// the block completes.
    idle_event: Event,
    snapshot: &'a Snapshot,
    /// Interned per-transaction metadata (reads, publishable pcs, release
    /// bounds), built once per block.
    meta: BlockMeta,
    txs: &'a [Transaction],
    /// Workers running this block, the calling thread one of them (the
    /// configured count clamped to `1..=txs.len()`).
    threads: usize,
    /// [`ParallelConfig::max_attempts`].
    max_attempts: u32,
    /// Optional scheduling hook (`None` in production; see
    /// [`crate::SchedHook`]).
    hook: Option<Arc<dyn SchedHook>>,
    /// Transactions the idle sweep admitted that had attempts left: wakes
    /// the exact admission path lost.
    #[cfg(test)]
    lost_wakes: AtomicUsize,
}

impl Shared<'_> {
    /// The installed hook, if any — every call site branches on this
    /// `Option`, so the disabled path has no dynamic dispatch.
    #[inline]
    fn hook(&self) -> Option<&dyn SchedHook> {
        self.hook.as_deref()
    }

    fn generation_of(&self, tx: usize) -> u32 {
        self.states[tx].generation.load(Ordering::SeqCst)
    }

    /// Whether some counted read of `tx` is blocked.
    fn counted_blocked(&self, tx: usize) -> bool {
        self.states[tx].blocked_reads.load(Ordering::SeqCst) > 0
    }

    /// Enqueues a ready transaction into its rank lane and wakes a parked
    /// worker if any. Re-admissions after an abort re-enter at their rank,
    /// not at the back.
    fn push_ready(&self, tx: usize, generation: u32) {
        let lane = self.dag.lane_of(tx);
        self.ready_count.fetch_add(1, Ordering::SeqCst);
        self.lane_counts[lane].fetch_add(1, Ordering::SeqCst);
        self.lanes[lane].lock().push_back((tx, generation));
        if self.idle.load(Ordering::SeqCst) > 0 {
            self.idle_event.signal();
        }
    }

    /// Pops the next ready entry, scanning the rank lanes highest-priority
    /// first (lane 0 holds the heaviest downstream chains).
    fn pop_ready(&self) -> Option<ReadyEntry> {
        self.lanes.iter().find_map(|lane| lane.lock().pop_front())
    }

    /// Bookkeeping for `tx`'s popped entry: lane occupancy down. Returns
    /// whether this was a rank inversion — the entry actually runs while a
    /// strictly higher-priority lane still has queued work.
    fn note_dequeue(&self, tx: usize, runs: bool) -> bool {
        let lane = self.dag.lane_of(tx);
        self.lane_counts[lane].fetch_sub(1, Ordering::SeqCst);
        let higher = &self.lane_counts[..lane];
        runs && higher.iter().any(|count| count.load(Ordering::SeqCst) > 0)
    }

    /// Under `tx`'s core lock: queues nothing, but marks a `Waiting`
    /// transaction `Ready` and returns its generation if admitting it needs
    /// no check beyond the lock — no counted read blocked, attempts left.
    fn admit_locked(&self, tx: usize, core: &mut TxCore) -> Option<u32> {
        let spent = core.attempts >= self.max_attempts;
        if core.phase != Phase::Waiting || self.counted_blocked(tx) || spent {
            return None;
        }
        core.phase = Phase::Ready;
        // Generation read under the core lock: an abort (which holds this
        // lock to bump it) cannot interleave, so the queue entry is
        // coherent.
        Some(self.generation_of(tx))
    }

    /// An exact wake: one of `tx`'s counted reads turned ready. The count
    /// goes down without a lock; only a decrement that releases the
    /// transaction checks admission — under the core lock, which queues it
    /// under the same hold or, if it has spent its attempts, hands it to
    /// [`Self::try_admit`]. Returns whether it checked. (The decrement
    /// comes before the lock, and the return to `Waiting` reads the count
    /// under it: one of the two sees the other.)
    fn wake(&self, tx: usize) -> bool {
        if self.states[tx].blocked_reads.fetch_sub(1, Ordering::SeqCst) > 1 {
            return false;
        }
        let queued = {
            let mut core = self.states[tx].core.lock();
            if core.phase != Phase::Waiting {
                return true;
            }
            self.admit_locked(tx, &mut core)
        };
        match queued {
            Some(generation) => self.push_ready(tx, generation),
            None => {
                self.try_admit(tx);
            }
        }
        true
    }

    /// One of `tx`'s counted reads turned blocked, or a read became counted
    /// while blocked.
    fn reblock(&self, tx: usize) {
        self.states[tx].blocked_reads.fetch_add(1, Ordering::SeqCst);
    }

    /// Admits `tx` to the ready queue if it is waiting and none of its
    /// counted reads is blocked, holding back a transaction that has spent
    /// its `max_attempts` until every earlier transaction has finished.
    /// Aborts only ever come from an earlier transaction's version
    /// changing, so that run is final: an abort storm costs re-executions,
    /// never the block's completion. Nothing signals the hold's end; the
    /// workers' self-heal sweep (which runs whenever a worker finds the
    /// ready queue empty) re-tries it.
    fn try_admit(&self, tx: usize) -> bool {
        let spent = {
            let core = self.states[tx].core.lock();
            if core.phase != Phase::Waiting || self.counted_blocked(tx) {
                return false;
            }
            core.attempts >= self.max_attempts
        };
        // Checked in index order, so each `Finished` seen is final: every
        // transaction that could still abort it was seen finished first.
        if spent && !(0..tx).all(|i| self.states[i].core.lock().phase == Phase::Finished) {
            return false;
        }
        let generation = {
            let mut core = self.states[tx].core.lock();
            if core.phase != Phase::Waiting || self.counted_blocked(tx) {
                return false;
            }
            core.phase = Phase::Ready;
            self.generation_of(tx)
        };
        self.push_ready(tx, generation);
        true
    }

    /// The idle worker's self-heal sweep: [`Self::try_admit`] over every
    /// transaction. Returns whether it admitted any.
    fn sweep(&self) -> bool {
        let mut admitted = false;
        for tx in 0..self.txs.len() {
            #[cfg(test)]
            let owned_by_wakes = self.states[tx].core.lock().attempts < self.max_attempts;
            let now = self.try_admit(tx);
            #[cfg(test)]
            if now && owned_by_wakes {
                self.lost_wakes.fetch_add(1, Ordering::SeqCst);
            }
            admitted |= now;
        }
        admitted
    }

    /// Aborts `root` (Algorithm 4) and cascades to readers of its
    /// versions. Per victim: bump the generation and demote to `Waiting`
    /// under the core lock *first* (any in-flight attempt now fails its
    /// next staleness check), then reset the victim's entries shard by
    /// shard, feeding newly-stale readers back into the worklist.
    fn abort_cascade(&self, root: usize) {
        let mut worklist = vec![root];
        let mut seen = HashSet::new();
        let mut wakes: Vec<usize> = Vec::new();
        let mut effect = VersionWriteEffect::default();
        while let Some(victim) = worklist.pop() {
            if !seen.insert(victim) {
                continue;
            }
            if let Some(hook) = self.hook() {
                hook.on_abort(root, victim);
            }
            let (mut resets, aborted_generation): (Vec<(KeyId, VersionOp)>, u32) = {
                let mut core = self.states[victim].core.lock();
                if core.phase == Phase::Finished {
                    self.finished.fetch_sub(1, Ordering::SeqCst);
                }
                let generation = self.states[victim].generation.load(Ordering::SeqCst);
                let next = generation.wrapping_add(1);
                self.states[victim].generation.store(next, Ordering::SeqCst);
                // Park the victim in a *non-admissible* phase while its
                // entries are reset below: `try_admit` only admits
                // `Waiting` transactions, so no new attempt can start (and
                // publish) until this cascade's resets are done. Demoting
                // straight to `Waiting` here loses writes: a concurrent
                // admission (idle self-heal, an `allowed` effect) can run
                // the new attempt to completion between our generation
                // bump and a straggling reset, which then silently
                // re-pends the new attempt's published version — nothing
                // ever restores it (found by DST schedule fuzzing).
                core.phase = Phase::Running;
                core.status = None;
                (self.meta.tx(victim).resets(&core.unpredicted), next)
            };
            self.aborts.fetch_add(1, Ordering::Relaxed);
            // The batch stops early if a newer cascade owns the victim by
            // now. Its reset list is a superset of ours (the predicted ids
            // are fixed, the unpredicted set only grows), so it covers the
            // rest — and resetting here could clobber a version published
            // by the attempt it re-admits.
            self.sequences.apply_batch(
                victim,
                &mut resets,
                || self.generation_of(victim) == aborted_generation,
                &mut effect,
                |_, effect| {
                    // Counted now, before anything the cascade admits.
                    for &reader in &effect.blocked {
                        self.reblock(reader);
                    }
                    let stale = effect.aborted.iter().copied();
                    worklist.extend(stale.filter(|&r| r != victim && !seen.contains(&r)));
                    wakes.extend(&effect.allowed);
                },
            );
            // Resets done: make the victim admissible again, and admit it
            // under the same hold if nothing else is owed — unless a newer
            // cascade superseded us, in which case its own flip re-opens
            // admission after *its* resets.
            let queued = {
                let mut core = self.states[victim].core.lock();
                let ours = self.generation_of(victim) == aborted_generation;
                if ours && core.phase == Phase::Running {
                    core.phase = Phase::Waiting;
                    self.admit_locked(victim, &mut core)
                } else {
                    None
                }
            };
            if let Some(generation) = queued {
                self.push_ready(victim, generation);
            }
        }
        // Re-admit everything the cascade touched or unblocked.
        for victim in seen {
            self.try_admit(victim);
        }
        for reader in wakes {
            self.wake(reader);
        }
    }

    /// Applies what one shard's run of a publish or drop batch did: counts
    /// the readers it re-blocked, aborts the stale ones and wakes the ones
    /// it unblocked. Must be called with no shard lock held. Returns the
    /// admission checks it made: wakes that released their transaction.
    fn apply_effect(&self, effect: &VersionWriteEffect) -> u64 {
        for &reader in &effect.blocked {
            self.reblock(reader);
        }
        for &reader in &effect.aborted {
            self.abort_cascade(reader);
        }
        let mut checks = 0;
        for &reader in &effect.allowed {
            checks += u64::from(self.wake(reader));
        }
        checks
    }

    /// Marks `tx` finished with `status` after charging `gas_used`. The
    /// counter increment happens under the core lock so `finished` never
    /// exceeds the number of transactions whose phase is `Finished`.
    fn finish(&self, tx: usize, generation: u32, status: ExecStatus, gas_used: u64) {
        // Commit decision point — observed before the core lock so a
        // stalling hook delays this commit, never other transactions.
        if let Some(hook) = self.hook() {
            hook.on_commit(tx);
        }
        let mut core = self.states[tx].core.lock();
        if self.generation_of(tx) != generation {
            return; // aborted concurrently; the new attempt supersedes us
        }
        core.phase = Phase::Finished;
        core.status = Some(status);
        core.gas_used = gas_used;
        let done = self.finished.fetch_add(1, Ordering::SeqCst) + 1;
        if done == self.txs.len() {
            self.idle_event.signal();
        }
    }
}

/// Host bridging one VM execution onto the sharded sequences.
struct ThreadHost<'a, 'b> {
    shared: &'a Shared<'b>,
    tx: usize,
    generation: u32,
    /// `true` once a release point passed with sufficient gas.
    released: bool,
    /// Interned metadata: release bounds, publishable pcs, predictions.
    meta: TxMeta<'a>,
    /// The worker's scratch, its buffers emptied for this attempt.
    own: &'a mut Scratch,
}

impl ThreadHost<'_, '_> {
    fn stale(&self) -> bool {
        self.shared.generation_of(self.tx) != self.generation
    }

    /// `key`'s id, for any access. An id the C-SAG predicts is in the
    /// record every abort resets since before the first worker started. One
    /// it does not predict goes into the core's set here — where the attempt
    /// first learns it, so *before* any sequence mutation under it: a
    /// concurrent abort either sees the id or invalidates us first.
    fn id_of(&self, key: &StateKey) -> Result<KeyId, HostError> {
        let (id, predicted) = self.meta.locate(&self.shared.sequences, key);
        if !predicted {
            let mut core = self.shared.states[self.tx].core.lock();
            if self.stale() {
                return Err(HostError::Aborted);
            }
            core.unpredicted.insert(id);
        }
        Ok(id)
    }

    /// Publishes the scratch's batch of buffered keys (write versioning,
    /// Algorithm 3). Errors mean the generation went stale; the caller
    /// unwinds and the abort's resets cover whatever was already written.
    fn publish_batch(&mut self) -> Result<(), HostError> {
        if self.own.batch.is_empty() {
            return Ok(());
        }
        let shared = self.shared;
        // Publish decision points — observed before any lock so a stalling
        // hook models a delayed publish without blocking other workers.
        if let Some(hook) = shared.hook() {
            for &(id, op) in self.own.batch.iter() {
                if let VersionOp::Publish(_, delta) = op {
                    let key = shared.sequences.interner().resolve(id);
                    hook.on_publish(self.tx, &key, delta);
                }
            }
        }
        let Scratch {
            batch, published, ..
        } = &mut *self.own;
        for &(id, _) in batch.iter() {
            published.insert(id);
        }
        self.apply_batch()
    }

    /// Applies the scratch's batch of publishes, or of drops (misprediction
    /// or deterministic abort), to this tx's versions — each involved shard
    /// lock taken once, admissions and effects (which may take core locks and
    /// other shard locks) applied after the unlock, so the flat lock
    /// discipline holds. The staleness re-check under each shard lock
    /// matters for drops as much as for publishes: after an abort cascade
    /// a new attempt of this tx may already have re-published these keys,
    /// and dropping now would erase a version nothing would ever restore
    /// (found by DST schedule fuzzing).
    fn apply_batch(&mut self) -> Result<(), HostError> {
        let (shared, tx, generation) = (self.shared, self.tx, self.generation);
        let Scratch {
            batch,
            effect,
            stats,
            ..
        } = &mut *self.own;
        let live = shared.sequences.apply_batch(
            tx,
            batch,
            || shared.generation_of(tx) == generation,
            effect,
            |group, effect| {
                let published = group
                    .iter()
                    .filter(|(_, op)| matches!(op, VersionOp::Publish(..)));
                stats.publish_batches += 1;
                stats.publishes += published.count() as u64;
                stats.admission_checks += shared.apply_effect(effect);
            },
        );
        live.then_some(()).ok_or(HostError::Aborted)
    }
}

impl Host for ThreadHost<'_, '_> {
    fn sload(&mut self, key: StateKey) -> Result<U256, HostError> {
        let id = self.id_of(&key)?;
        // Own writes win (read-your-writes inside the attempt).
        let own_delta = match self.own.buffer.read(id) {
            Ok(value) => return Ok(value),
            Err(delta) => delta,
        };
        let newly_counted = {
            let mut shard = self.shared.sequences.shard_for(id);
            if self.stale() {
                return Err(HostError::Aborted);
            }
            match shard.read(id, self.tx, &key, self.shared.snapshot) {
                (ReadResolution::Ready(value), _) => return Ok(value.wrapping_add(own_delta)),
                // A pending version: suspend. The read is now a counted
                // read of the key, flagged under the lock that saw it
                // blocked, so the change that unblocks it lists it in
                // `allowed` like a predicted read.
                (ReadResolution::Blocked { .. }, newly_counted) => newly_counted,
            }
        };
        if newly_counted {
            // Even if the attempt went stale since the unlock: the count
            // must match the flags.
            self.shared.reblock(self.tx);
            self.own.stats.targeted_wakeups += 1;
        }
        if self.stale() {
            return Err(HostError::Aborted);
        }
        // The worker goes back to the queue; the exact wake of the read
        // re-admits the transaction.
        self.shared.abort_cascade(self.tx);
        Err(HostError::Aborted)
    }

    fn sstore(&mut self, key: StateKey, value: U256) -> Result<(), HostError> {
        self.own.buffer.store(self.id_of(&key)?, value);
        Ok(())
    }

    fn sadd(&mut self, key: StateKey, delta: U256) -> Result<(), HostError> {
        self.own.buffer.add(self.id_of(&key)?, delta);
        Ok(())
    }

    fn keccak(&mut self, data: &[u8]) -> U256 {
        self.own.memo.keccak(data)
    }

    fn on_release_point(&mut self, pc: usize, gas_left: u64) {
        if let Ok(i) = self
            .meta
            .release_bounds
            .binary_search_by_key(&pc, |&(p, _)| p)
        {
            let bound = self.meta.release_bounds[i].1;
            let passed = match self.shared.hook() {
                Some(hook) => hook.release_gate(self.tx, pc, gas_left, bound),
                None => gas_left >= bound,
            };
            if passed {
                self.released = true;
            }
        }
        if !self.released {
            return;
        }
        // Publish buffered keys whose last predicted write is behind us
        // (Algorithm 2: "no write of I in successor nodes"), batched so
        // each involved shard lock is taken once.
        let (meta, own) = (self.meta, &mut *self.own);
        let behind = |id| meta.publish_pc(id).is_some_and(|last| last < pc);
        own.batch.clear();
        own.batch
            .extend(own.buffer.entries().filter(|&(id, _)| behind(id)));
        if self.publish_batch().is_ok() {
            let Scratch { buffer, batch, .. } = &mut *self.own;
            for &(id, _) in batch.iter() {
                buffer.remove(id);
            }
        }
        // Stale generation: keep the buffers; the VM unwinds at the next
        // access and the abort's resets cover whatever was published.
    }
}

/// The multi-threaded DMVCC block executor (sharded locks, suspended
/// reads, rank-lane dispatch — see the module docs).
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::{Snapshot, StateKey};
/// use dmvcc_vm::{CodeRegistry, Transaction};
/// use dmvcc_analysis::Analyzer;
/// use dmvcc_core::{ParallelConfig, ParallelExecutor};
///
/// let analyzer = Analyzer::new(CodeRegistry::default());
/// let executor = ParallelExecutor::new(analyzer, ParallelConfig::default());
/// let a = Address::from_u64(1);
/// let snapshot = Snapshot::from_entries([(StateKey::balance(a), U256::from(10u64))]);
/// let block = vec![Transaction::transfer(a, Address::from_u64(2), U256::ONE)];
/// let outcome = executor.execute_block(&block, &snapshot, &Default::default());
/// assert_eq!(outcome.final_writes.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    analyzer: Analyzer,
    config: ParallelConfig,
    hook: Option<Arc<dyn SchedHook>>,
    /// The executor-level block arena: buffers of the last finished block,
    /// recycled into the next one (shared across clones on purpose — a
    /// pipeline's executor clones all feed one pool).
    pool: Arc<Mutex<BlockPool>>,
}

/// Recyclable per-block allocations (see the `arena` module docs): the
/// shard storage, the per-transaction scheduling states, the flat metadata
/// arrays and the ready-queue lanes of a finished block, reset in place and
/// reused by the next call.
#[derive(Debug, Default)]
struct BlockPool {
    storage: Option<ShardStorage>,
    states: Vec<TxState>,
    meta: BlockMeta,
    lanes: Vec<Mutex<VecDeque<ReadyEntry>>>,
}

/// Resets a recycled [`TxState`] for a fresh block, returning the heap
/// bytes whose allocation the reuse avoided.
fn recycle_state(state: &mut TxState) -> u64 {
    state.generation = AtomicU32::new(0);
    let core = state.core.get_mut();
    core.phase = Phase::Waiting;
    core.attempts = 0;
    core.status = None;
    core.gas_used = 0;
    core.unpredicted.clear();
    *state.blocked_reads.get_mut() = 0;
    core.unpredicted.retained_bytes() + std::mem::size_of::<TxState>() as u64
}

impl ParallelExecutor {
    /// Creates an executor over the given analyzer (contract registry).
    pub fn new(analyzer: Analyzer, config: ParallelConfig) -> Self {
        ParallelExecutor {
            analyzer,
            config,
            hook: None,
            pool: Arc::new(Mutex::new(BlockPool::default())),
        }
    }

    /// Installs a [`SchedHook`] consulted at every scheduling decision
    /// point (DST only; executors without a hook skip all hook branches).
    pub fn with_hook(mut self, hook: Arc<dyn SchedHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// The analyzer in use.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// Executes a block in parallel, returning the final write set (equal
    /// to the serial one, per Theorem 1) plus abort statistics.
    pub fn execute_block(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
    ) -> ParallelOutcome {
        let (csags, refine_nanos, refine_digests) = self.refine_timed(txs, snapshot, block_env);
        let mut outcome = self.execute_block_with_csags(txs, snapshot, block_env, &csags);
        outcome.stats.refine_nanos = refine_nanos;
        outcome.stats.refine_digests = refine_digests;
        outcome
    }

    /// Refines the block's C-SAGs on this executor's threads, returning
    /// them with the wall-clock nanoseconds the phase took
    /// ([`ExecutorStats::refine_nanos`]) and the workers' digest counts
    /// ([`ExecutorStats::refine_digests`]).
    pub(crate) fn refine_timed(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
    ) -> (Vec<CSag>, u64, DigestCounts) {
        let start = std::time::Instant::now();
        let (csags, digests) = crate::pipeline::refine_counted(
            &self.analyzer,
            txs,
            snapshot,
            block_env,
            self.config.threads,
        );
        (csags, start.elapsed().as_nanos() as u64, digests)
    }

    /// Executes a block with precomputed C-SAGs.
    ///
    /// # Panics
    ///
    /// Panics if `csags.len() != txs.len()`.
    pub fn execute_block_with_csags(
        &self,
        txs: &[Transaction],
        snapshot: &Snapshot,
        block_env: &BlockEnv,
        csags: &[CSag],
    ) -> ParallelOutcome {
        assert_eq!(csags.len(), txs.len(), "one C-SAG per transaction");
        let n = txs.len();
        if n == 0 {
            return ParallelOutcome {
                final_writes: WriteSet::new(),
                statuses: Vec::new(),
                gas_used: Vec::new(),
                aborts: 0,
                stats: ExecutorStats::default(),
            };
        }

        let start = Instant::now();
        let (shared, bytes_saved) = self.bind_block(txs, snapshot, csags);
        let bound = Instant::now();

        // Each worker counts for itself; the counters meet at the join.
        let mut stats = ExecutorStats::default();
        for counted in on_workers(shared.threads, || self.worker(&shared, block_env)) {
            stats.publishes += counted.publishes;
            stats.publish_batches += counted.publish_batches;
            stats.targeted_wakeups += counted.targeted_wakeups;
            stats.parks += counted.parks;
            stats.rank_inversions += counted.rank_inversions;
            stats.admission_checks += counted.admission_checks;
            stats.execute_digests += counted.execute_digests;
        }
        // Every worker has returned: nothing can change the store any more.
        shared.sequences.flush(snapshot, shared.threads);
        let joined = Instant::now();
        let final_writes = shared.sequences.flushed();
        stats.alloc_bytes_saved = bytes_saved;
        stats.shard_lock_acquisitions = shared.sequences.lock_acquisitions();
        stats.entries_visited = shared.sequences.entries_visited();
        let Shared {
            sequences,
            mut states,
            meta,
            lanes,
            aborts,
            ..
        } = shared;
        let mut statuses = Vec::with_capacity(n);
        let mut gas_used = Vec::with_capacity(n);
        for state in &mut states {
            let core = state.core.get_mut();
            stats.attempts += core.attempts as u64;
            statuses.push(core.status.clone().unwrap_or(ExecStatus::Interrupted));
            gas_used.push(core.gas_used);
        }
        // Return the block's buffers to the arena for the next call.
        *self.pool.lock() = BlockPool {
            storage: Some(sequences.into_storage()),
            states,
            meta,
            lanes,
        };
        stats.serial_nanos = ((bound - start) + joined.elapsed()).as_nanos() as u64;
        ParallelOutcome {
            final_writes,
            statuses,
            gas_used,
            aborts: aborts.into_inner(),
            stats,
        }
    }

    /// Everything that happens before the first worker starts, on the
    /// calling thread: recycle the previous block's buffers, bind the
    /// block in one walk over its C-SAGs ([`BlockMeta::bind`] — ids,
    /// metadata, predicted sequences, ranks), and put the first ready set
    /// in the lanes. Also returns the heap bytes served from the arena.
    fn bind_block<'a>(
        &self,
        txs: &'a [Transaction],
        snapshot: &'a Snapshot,
        csags: &[CSag],
    ) -> (Shared<'a>, u64) {
        let n = txs.len();
        // Block arena: reclaim the previous block's buffers from the pool.
        let BlockPool {
            storage,
            mut states,
            mut meta,
            mut lanes,
        } = std::mem::take(&mut *self.pool.lock());
        let mut bytes_saved = meta.reset(csags);
        let (mut sequences, storage_bytes) =
            ShardedSequences::for_block(storage, self.hook.clone());
        bytes_saved += storage_bytes;
        states.truncate(n);
        for state in &mut states {
            bytes_saved += recycle_state(state);
        }
        states.resize_with(n, TxState::default);
        let dag = meta.bind(csags, &mut sequences, &mut states, self.config.max_attempts);

        // Initial admission (Algorithm 1 line 1): the transactions the walk
        // found ready, in block order, each into its rank's lane. Nothing
        // is running yet, so the queue is filled in place. (A finished
        // block leaves its stale entries in the recycled lanes.)
        lanes.resize_with(NUM_LANES, Mutex::default);
        lanes.iter_mut().for_each(|lane| lane.get_mut().clear());
        let mut lane_counts = [0usize; NUM_LANES];
        for (tx, state) in states.iter_mut().enumerate() {
            if state.core.get_mut().phase == Phase::Ready {
                let lane = dag.lane_of(tx);
                lanes[lane].get_mut().push_back((tx, 0));
                lane_counts[lane] += 1;
            }
        }
        let shared = Shared {
            sequences,
            states,
            dag,
            lanes,
            lane_counts: lane_counts.into_iter().map(AtomicUsize::new).collect(),
            finished: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            ready_count: AtomicUsize::new(lane_counts.iter().sum()),
            aborts: AtomicU64::new(0),
            idle_event: Event::default(),
            snapshot,
            meta,
            txs,
            // More workers than transactions could only park; zero would
            // run nothing at all.
            threads: self.config.threads.clamp(1, n),
            max_attempts: self.config.max_attempts,
            hook: self.hook.clone(),
            #[cfg(test)]
            lost_wakes: AtomicUsize::new(0),
        };
        (shared, bytes_saved)
    }

    /// One worker: runs ready transactions until it sees the block
    /// finished at the top of its loop, with nothing of its own in flight.
    /// Returns what it counted.
    fn worker(&self, shared: &Shared<'_>, block_env: &BlockEnv) -> ExecutorStats {
        let n = shared.txs.len();
        let mut own = Scratch::default();
        loop {
            if shared.finished.load(Ordering::SeqCst) == n {
                own.stats.execute_digests = own.memo.counts();
                return own.stats;
            }
            if let Some((tx, generation)) = shared.pop_ready() {
                shared.ready_count.fetch_sub(1, Ordering::SeqCst);
                let run: Option<u32> = {
                    let mut core = shared.states[tx].core.lock();
                    if shared.generation_of(tx) != generation || core.phase != Phase::Ready {
                        None // stale queue entry
                    } else {
                        core.phase = Phase::Running;
                        core.attempts += 1;
                        Some(core.attempts)
                    }
                };
                own.stats.rank_inversions += u64::from(shared.note_dequeue(tx, run.is_some()));
                if let Some(attempt) = run {
                    if let Some(hook) = shared.hook() {
                        hook.on_dequeue(tx, attempt);
                        // Fault injection: abort storms on demand. The
                        // cascade demotes the transaction back to Waiting
                        // and re-admits it, exactly like a real abort that
                        // lands between dequeue and first read.
                        if hook.inject_abort(tx, attempt) {
                            shared.abort_cascade(tx);
                            continue;
                        }
                    }
                    self.run_attempt(shared, block_env, tx, generation, &mut own);
                }
                continue;
            }
            // Self-heal: re-check all waiting transactions before idling
            // (the backstop of the module docs' liveness note).
            if shared.sweep() {
                continue;
            }
            let seen = shared.idle_event.epoch();
            // Re-check for work after sampling the epoch: a push between
            // the failed pop above and here would otherwise be sleepable.
            if shared.ready_count.load(Ordering::SeqCst) > 0
                || shared.finished.load(Ordering::SeqCst) == n
            {
                continue;
            }
            shared.idle.fetch_add(1, Ordering::SeqCst);
            own.stats.parks += 1;
            if let Some(hook) = shared.hook() {
                hook.on_park(None);
            }
            shared.idle_event.wait_while(seen, IDLE_PARK);
            shared.idle.fetch_sub(1, Ordering::SeqCst);
            if let Some(hook) = shared.hook() {
                hook.on_wake(None);
            }
        }
    }

    fn run_attempt(
        &self,
        shared: &Shared<'_>,
        block_env: &BlockEnv,
        tx: usize,
        generation: u32,
        own: &mut Scratch,
    ) {
        let transaction = &shared.txs[tx];
        let meta = shared.meta.tx(tx);

        // Whatever the worker's last attempt left behind (one that went
        // stale unwinds without tidying up) goes now.
        own.buffer.clear();
        own.published.clear();
        let mut host = ThreadHost {
            shared,
            tx,
            generation,
            released: false,
            meta,
            own,
        };
        // Entry release point: the transaction cannot abort at all.
        if let Some(&(0, bound)) = meta.release_bounds.first() {
            let gas_left = transaction.env.gas_limit.saturating_sub(INTRINSIC_GAS);
            let passed = match shared.hook() {
                Some(hook) => hook.release_gate(tx, 0, gas_left, bound),
                None => gas_left >= bound,
            };
            if passed {
                host.released = true;
            }
        }

        let (status, gas_used) = run_tx(
            &mut host,
            transaction,
            self.analyzer.registry(),
            block_env,
            Some(meta.release_set),
        );

        if host.stale() {
            // Aborted while running: nothing to finalize; the abort
            // already rolled back any published versions.
            return;
        }
        match status {
            ExecStatus::Success => finalize_success(&mut host, gas_used),
            ExecStatus::Interrupted => {
                // The host returned Aborted (stale generation or a
                // suspension); abort_cascade already handled the bookkeeping.
            }
            deterministic => finalize_deterministic_abort(&mut host, deterministic, gas_used),
        }
    }
}

/// Runs one transaction against `host` — the one place outside the serial
/// oracle where a [`TxKind`] becomes an execution. Returns the status and
/// the gas charged, which is the oracle's figure: [`INTRINSIC_GAS`] for a
/// transfer or an unknown callee, the interpreter's for a call. A host
/// abort ([`HostError::Aborted`]) surfaces as [`ExecStatus::Interrupted`].
pub(crate) fn run_tx<H: Host>(
    host: &mut H,
    tx: &Transaction,
    registry: &CodeRegistry,
    block_env: &BlockEnv,
    release_points: Option<&[usize]>,
) -> (ExecStatus, u64) {
    match tx.kind {
        TxKind::Transfer => (
            run_transfer(host, tx).unwrap_or(ExecStatus::Interrupted),
            INTRINSIC_GAS,
        ),
        TxKind::Call => match registry.deployed(&tx.to()) {
            Some(deployed) => {
                let params = ExecParams {
                    code: deployed.code(),
                    tx: &tx.env,
                    block: block_env,
                    release_points,
                    registry: Some(registry),
                };
                let outcome = execute(&params, host);
                (outcome.status, outcome.gas_used)
            }
            // Unknown contract: nothing to execute, trivial success.
            None => (ExecStatus::Success, INTRINSIC_GAS),
        },
    }
}

/// A pure Ether transfer, mirroring the serial oracle's semantics: revert
/// on insufficient balance, else debit (full write) and credit (ω̄ delta).
fn run_transfer<H: Host>(host: &mut H, tx: &Transaction) -> Result<ExecStatus, HostError> {
    let from = StateKey::balance(tx.sender());
    let balance = host.sload(from)?;
    if balance < tx.env.value {
        return Ok(ExecStatus::Reverted);
    }
    host.sstore(from, balance - tx.env.value)?;
    host.sadd(StateKey::balance(tx.to()), tx.env.value)?;
    Ok(ExecStatus::Success)
}

/// Publishes remaining writes, drops unfulfilled predictions, marks done.
fn finalize_success(host: &mut ThreadHost<'_, '_>, gas_used: u64) {
    let own = &mut *host.own;
    own.batch.clear();
    own.batch.extend(own.buffer.entries());
    if host.publish_batch().is_err() {
        return;
    }
    // Predicted writes that never materialized: drop so readers pass
    // through (mispredicted branch).
    let Scratch {
        batch, published, ..
    } = &mut *host.own;
    let predicted = host.meta.predicted_wa.iter();
    let unfulfilled = predicted.filter(|(id, _)| !published.contains(id));
    batch.clear();
    batch.extend(unfulfilled.map(|&(id, _)| (id, VersionOp::Drop)));
    if host.apply_batch().is_err() {
        return;
    }
    let shared = host.shared;
    shared.finish(host.tx, host.generation, ExecStatus::Success, gas_used);
}

/// Rolls back a deterministic abort (revert / out-of-gas / code fault):
/// buffered writes are discarded; versions already published early are
/// dropped, cascading aborts to their readers (paper §IV-F case 2).
fn finalize_deterministic_abort(host: &mut ThreadHost<'_, '_>, status: ExecStatus, gas_used: u64) {
    let shared = host.shared;
    let tx = host.tx;
    let Scratch {
        batch, published, ..
    } = &mut *host.own;
    // Mutation testing: `skip_rollback` (always false in production) leaks
    // the keys the hook names — they stay `Done` in their sequences and
    // reach the final write set even though the transaction failed.
    let mut leaked: Vec<KeyId> = Vec::new();
    if let Some(hook) = shared.hook() {
        for &id in published.iter() {
            let key = shared.sequences.interner().resolve(id);
            if hook.skip_rollback(tx, &key) {
                leaked.push(id);
            }
        }
    }
    // Unfulfilled predictions are dropped too: that unblocks their readers.
    let predicted = host.meta.predicted_wa.iter().map(|&(id, _)| id);
    let dropped = published.iter().copied().chain(predicted);
    batch.clear();
    batch.extend(
        dropped
            .filter(|id| !leaked.contains(id))
            .map(|id| (id, VersionOp::Drop)),
    );
    if host.apply_batch().is_err() {
        return;
    }
    shared.finish(tx, host.generation, status, gas_used);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::SHARDS;
    use dmvcc_primitives::Address;
    use dmvcc_vm::{calldata, contracts, CodeRegistry, TxEnv};

    const TOKEN: u64 = 800;
    const COUNTER: u64 = 801;

    fn registry() -> CodeRegistry {
        CodeRegistry::builder()
            .deploy(Address::from_u64(TOKEN), contracts::token())
            .deploy(Address::from_u64(COUNTER), contracts::counter())
            .build()
    }

    fn executor(threads: usize) -> ParallelExecutor {
        ParallelExecutor::new(
            Analyzer::new(registry()),
            ParallelConfig {
                threads,
                ..ParallelConfig::default()
            },
        )
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

    fn serial_writes(txs: &[Transaction], snapshot: &Snapshot) -> WriteSet {
        let analyzer = Analyzer::new(registry());
        crate::oracle::execute_block_serial(txs, snapshot, &analyzer, &BlockEnv::default())
            .final_writes
    }

    fn check_equivalence(txs: Vec<Transaction>, snapshot: Snapshot, threads: usize) {
        let expected = serial_writes(&txs, &snapshot);
        let outcome = executor(threads).execute_block(&txs, &snapshot, &BlockEnv::default());
        assert_eq!(
            outcome.final_writes, expected,
            "parallel result diverged from serial"
        );
    }

    #[test]
    fn empty_block() {
        let outcome = executor(2).execute_block(&[], &Snapshot::empty(), &BlockEnv::default());
        assert!(outcome.final_writes.is_empty());
        assert_eq!(outcome.aborts, 0);
    }

    #[test]
    fn spent_attempts_serialize_the_transaction_instead_of_failing_it() {
        // An abort storm by construction: every transaction reads and
        // writes one counter, none is predicted to, and one speculative
        // attempt is all each gets. The rest of the block must still run —
        // each transaction once more, after everything before it.
        let txs: Vec<Transaction> = (0..48)
            .map(|i| {
                Transaction::call(TxEnv::call(
                    Address::from_u64(900 + i),
                    Address::from_u64(COUNTER),
                    calldata(contracts::counter_fn::INCREMENT_CHECKED, &[]),
                ))
            })
            .collect();
        let analyzer = Analyzer::new(registry());
        let config = ParallelConfig {
            threads: 4,
            max_attempts: 1,
        };
        let env = BlockEnv::default();
        let snapshot = Snapshot::empty();
        let outcome = ParallelExecutor::new(analyzer, config).execute_block_with_csags(
            &txs,
            &snapshot,
            &env,
            &vec![CSag::default(); txs.len()],
        );
        assert_eq!(outcome.final_writes, serial_writes(&txs, &snapshot));
        assert_eq!(outcome.statuses, vec![ExecStatus::Success; txs.len()]);
        assert!(outcome.stats.attempts <= 2 * txs.len() as u64);
    }

    /// A block built to suspend: tx 0 writes the counter, and the `n - 1`
    /// readers' predictions omit the key and outweigh the writer, so the
    /// rank lanes dispatch every reader first and each meets the writer's
    /// pending version.
    fn suspension_block(n: usize) -> (Vec<Transaction>, Vec<CSag>) {
        let call = |caller: u64, selector| {
            let to = Address::from_u64(COUNTER);
            let env = TxEnv::call(Address::from_u64(caller), to, calldata(selector, &[]));
            Transaction::call(env)
        };
        let mut txs = vec![call(900, contracts::counter_fn::INCREMENT_CHECKED)];
        txs.extend((1..n).map(|i| call(900 + i as u64, contracts::counter_fn::GET)));
        let (snapshot, env) = (Snapshot::empty(), BlockEnv::default());
        let analyzer = Analyzer::new(registry());
        let mut csags = crate::pipeline::refine_csags(&analyzer, &txs[..1], &snapshot, &env, 1);
        assert_eq!(csags[0].writes.len(), 1);
        let reader = CSag {
            predicted_gas: 10 * csags[0].predicted_gas,
            ..CSag::from_accesses([])
        };
        csags.resize(n, reader);
        let dag = BlockDag::build(&csags);
        assert!((1..n).all(|reader| dag.lane_of(reader) < dag.lane_of(0)));
        (txs, csags)
    }

    #[test]
    fn a_read_of_a_pending_version_suspends_its_transaction() {
        // On one worker a read that waited in place would wait for ever.
        #[derive(Debug, Default)]
        struct ParkWatch(std::sync::atomic::AtomicBool);
        impl SchedHook for ParkWatch {
            fn on_park(&self, tx: Option<usize>) {
                if tx.is_some() {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
        }
        let n = 6;
        let (txs, csags) = suspension_block(n);
        let (snapshot, env) = (Snapshot::empty(), BlockEnv::default());
        let analyzer = Analyzer::new(registry());
        let trace = crate::oracle::execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let statuses: Vec<ExecStatus> = trace.txs.iter().map(|t| t.status.clone()).collect();
        for threads in [1, 2, 4] {
            let watch = Arc::new(ParkWatch::default());
            let exec = executor(threads).with_hook(watch.clone());
            let outcome = exec.execute_block_with_csags(&txs, &snapshot, &env, &csags);
            assert_eq!(outcome.final_writes, trace.final_writes);
            assert_eq!(outcome.statuses, statuses);
            assert!(!watch.0.load(Ordering::SeqCst), "a read parked its worker");
            assert!(outcome.stats.attempts <= 2 * n as u64);
            // Each reader's read of the key becomes counted at most once,
            // and on one worker every reader meets the pending version.
            let suspensions = outcome.stats.targeted_wakeups;
            assert!(suspensions < n as u64, "{suspensions} suspensions");
            if threads == 1 {
                assert_eq!(suspensions, n as u64 - 1);
            }
        }
    }

    #[test]
    fn spent_from_the_start_runs_the_block_in_order() {
        // `max_attempts: 0`: no transaction has a speculative attempt to
        // spend, so the binding pass may put only the first in the queue and
        // each of the others runs once, after everything before it.
        let txs = vec![
            mint(900, 1, 100),
            transfer(1, 2, 30),
            mint(901, 3, 5),
            transfer(2, 3, 10),
            transfer(1, 4, 200), // reverts
            transfer(3, 4, 15),
        ];
        let snapshot = Snapshot::empty();
        let config = ParallelConfig {
            threads: 2,
            max_attempts: 0,
        };
        let exec = ParallelExecutor::new(Analyzer::new(registry()), config);
        let outcome = exec.execute_block(&txs, &snapshot, &BlockEnv::default());
        assert_eq!(outcome.final_writes, serial_writes(&txs, &snapshot));
        assert_eq!(outcome.statuses[4], ExecStatus::Reverted);
        assert_eq!(outcome.stats.attempts, txs.len() as u64);
        assert_eq!(outcome.aborts, 0);
    }

    #[test]
    fn the_flush_after_the_join_covers_every_shard() {
        // Once the workers have returned, the flush's own workers — one to
        // four of them — have to cover the whole store between them: more
        // keys here than shards.
        let txs: Vec<_> = (0..40)
            .map(|i| match i % 4 {
                0 => mint(900 + i, 1 + i, 50),
                _ => transfer(i - i % 4 + 1, 100 + i, 3),
            })
            .collect();
        let expected = serial_writes(&txs, &Snapshot::empty());
        assert!(expected.len() > SHARDS);
        for threads in [1, 2, 4] {
            let outcome =
                executor(threads).execute_block(&txs, &Snapshot::empty(), &BlockEnv::default());
            assert_eq!(outcome.final_writes, expected, "{threads} workers");
            assert!(outcome.stats.serial_nanos > 0);
        }
    }

    #[test]
    fn independent_mints_match_serial() {
        let txs: Vec<_> = (0..16).map(|i| mint(900 + i, 10 + i, 5)).collect();
        check_equivalence(txs, Snapshot::empty(), 4);
    }

    #[test]
    fn dependent_chain_matches_serial() {
        let txs = vec![
            mint(900, 1, 100),
            transfer(1, 2, 30),
            transfer(2, 3, 10),
            transfer(3, 4, 5),
        ];
        check_equivalence(txs, Snapshot::empty(), 4);
    }

    #[test]
    fn reverting_transfer_matches_serial() {
        // tx1 tries to over-spend and reverts; the rest proceed.
        let txs = vec![mint(900, 1, 10), transfer(1, 2, 50), transfer(1, 3, 5)];
        check_equivalence(txs, Snapshot::empty(), 3);
    }

    #[test]
    fn ether_transfers_match_serial() {
        let a = Address::from_u64(1);
        let snapshot = Snapshot::from_entries([(StateKey::balance(a), U256::from(100u64))]);
        let txs: Vec<_> = (0..10)
            .map(|i| Transaction::transfer(a, Address::from_u64(10 + i), U256::from(3u64)))
            .collect();
        check_equivalence(txs, snapshot, 4);
    }

    #[test]
    fn hot_counter_contention_matches_serial() {
        let txs: Vec<_> = (0..20)
            .map(|i| {
                Transaction::call(TxEnv::call(
                    Address::from_u64(900 + i),
                    Address::from_u64(COUNTER),
                    calldata(
                        if i % 2 == 0 {
                            contracts::counter_fn::INCREMENT
                        } else {
                            contracts::counter_fn::INCREMENT_CHECKED
                        },
                        &[],
                    ),
                ))
            })
            .collect();
        check_equivalence(txs, Snapshot::empty(), 4);
    }

    #[test]
    fn single_thread_works() {
        let txs = vec![mint(900, 1, 100), transfer(1, 2, 30)];
        check_equivalence(txs, Snapshot::empty(), 1);
    }

    #[test]
    fn hidden_analysis_still_serializable() {
        // With analysis hidden entirely, execution degrades to OCC-style
        // but must stay deterministically serializable.
        let analyzer = Analyzer::with_config(
            registry(),
            dmvcc_analysis::AnalysisConfig {
                hide_fraction: 1.0,
                seed: 11,
                ..Default::default()
            },
        );
        let txs = vec![
            mint(900, 1, 100),
            transfer(1, 2, 30),
            transfer(2, 3, 10),
            mint(901, 2, 7),
        ];
        let expected = serial_writes(&txs, &Snapshot::empty());
        let exec = ParallelExecutor::new(
            analyzer,
            ParallelConfig {
                threads: 4,
                ..ParallelConfig::default()
            },
        );
        let outcome = exec.execute_block(&txs, &Snapshot::empty(), &BlockEnv::default());
        assert_eq!(outcome.final_writes, expected);
    }

    #[test]
    fn statuses_reported() {
        let txs = vec![mint(900, 1, 10), transfer(1, 2, 50)];
        let outcome = executor(2).execute_block(&txs, &Snapshot::empty(), &BlockEnv::default());
        assert_eq!(outcome.statuses[0], ExecStatus::Success);
        assert_eq!(outcome.statuses[1], ExecStatus::Reverted);
    }

    #[test]
    fn arena_reset_reexecutes_identically() {
        // Arena-reset safety: one executor re-running the same block must
        // produce identical final writes — the second run executes entirely
        // on recycled shard storage and tx states, so any state leaking
        // across the block boundary (stale versions, counted-read flags,
        // cached snapshot values) would corrupt the result.
        let txs = vec![
            mint(900, 1, 100),
            transfer(1, 2, 30),
            transfer(2, 3, 10),
            mint(901, 2, 7),
        ];
        let expected = serial_writes(&txs, &Snapshot::empty());
        let exec = executor(4);
        let first = exec.execute_block(&txs, &Snapshot::empty(), &BlockEnv::default());
        let second = exec.execute_block(&txs, &Snapshot::empty(), &BlockEnv::default());
        assert_eq!(first.final_writes, expected);
        assert_eq!(second.final_writes, expected);
        assert_eq!(first.statuses, second.statuses);
        // The first block starts cold; the second must report recycled
        // bytes (shard storage at minimum).
        assert_eq!(first.stats.alloc_bytes_saved, 0);
        assert!(second.stats.alloc_bytes_saved > 0);
        // Lock accounting is wired through.
        assert!(second.stats.shard_lock_acquisitions > 0);
        assert!(second.stats.publish_batches > 0);
    }

    #[test]
    fn repeated_runs_are_deterministic_in_result() {
        let txs = vec![
            mint(900, 1, 100),
            transfer(1, 2, 30),
            mint(901, 2, 5),
            transfer(2, 3, 20),
        ];
        let first = executor(4)
            .execute_block(&txs, &Snapshot::empty(), &BlockEnv::default())
            .final_writes;
        for _ in 0..5 {
            let again = executor(4)
                .execute_block(&txs, &Snapshot::empty(), &BlockEnv::default())
                .final_writes;
            assert_eq!(again, first);
        }
    }

    #[test]
    fn default_config_uses_available_parallelism() {
        let config = ParallelConfig::default();
        let expected = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        assert_eq!(config.threads, expected);
        assert!(config.threads >= 1);
    }

    /// What the per-worker and per-shard counters must add up to under any
    /// interleaving, recomputed from the outcome.
    fn check_counters(outcome: &ParallelOutcome) {
        let stats = &outcome.stats;
        // At least one attempt per transaction, plus one re-execution per
        // abort.
        assert!(stats.attempts >= outcome.statuses.len() as u64);
        // Every final write was published at least once, every batch
        // carried at least one op and took one shard lock.
        assert!(stats.publishes >= outcome.final_writes.len() as u64);
        assert!(stats.publish_batches > 0);
        assert!(stats.shard_lock_acquisitions >= stats.publish_batches);
    }

    #[test]
    fn stats_track_attempts_and_publishes() {
        let txs = vec![mint(900, 1, 100), transfer(1, 2, 30)];
        let outcome = executor(2).execute_block(&txs, &Snapshot::empty(), &BlockEnv::default());
        assert!(outcome.stats.publishes > 0);
        check_counters(&outcome);
    }

    #[test]
    fn counters_of_all_workers_and_shards_reach_the_outcome() {
        // Funded Ether transfers between distinct accounts: no conflicts, so
        // every count is known — each transaction runs once, reads one
        // balance from the store (one shard lock) and publishes two keys in
        // one batch or two, each under one more lock.
        let n = 200u64;
        let account = |i: u64| Address::from_u64(i + 1);
        let funded = (0..n).map(|i| (StateKey::balance(account(2 * i)), U256::from(9u64)));
        let snapshot = Snapshot::from_entries(funded);
        let txs: Vec<_> = (0..n)
            .map(|i| Transaction::transfer(account(2 * i), account(2 * i + 1), U256::from(3u64)))
            .collect();
        for threads in [1, 3] {
            let outcome = executor(threads).execute_block(&txs, &snapshot, &BlockEnv::default());
            let stats = outcome.stats;
            assert_eq!(outcome.final_writes.len() as u64, 2 * n);
            assert_eq!((stats.attempts, outcome.aborts), (n, 0));
            assert_eq!(stats.publishes, 2 * n);
            assert!((n..=2 * n).contains(&stats.publish_batches));
            assert_eq!(stats.shard_lock_acquisitions, n + stats.publish_batches);
            check_counters(&outcome);
        }
    }

    /// Binds and runs a block like `execute_block_with_csags`, but hands
    /// back what the workers shared instead of the outcome.
    fn run_bound<'a>(
        exec: &ParallelExecutor,
        txs: &'a [Transaction],
        snapshot: &'a Snapshot,
        csags: &[CSag],
    ) -> Shared<'a> {
        let (shared, _) = exec.bind_block(txs, snapshot, csags);
        let env = BlockEnv::default();
        on_workers(shared.threads, || exec.worker(&shared, &env));
        shared
    }

    #[test]
    fn exact_wakes_leave_the_idle_sweep_nothing_to_admit() {
        // A high-contention block: token transfers among eight funded
        // holders, mints to them, and hot counter increments, checked and
        // commutative. Every admission after the bind of a transaction with
        // attempts left must come from a wake or a cascade's own
        // re-admission — never from the idle sweep behind the 1 ms park.
        let token_balance = |holder: u64| {
            let holder = Address::from_u64(holder).to_u256();
            StateKey::storage(Address::from_u64(TOKEN), contracts::map_slot(holder, 1))
        };
        let snapshot =
            Snapshot::from_entries((1..=8).map(|h| (token_balance(h), U256::from(1u64 << 40))));
        let counter = |caller: u64, selector| {
            let env = TxEnv::call(
                Address::from_u64(caller),
                Address::from_u64(COUNTER),
                calldata(selector, &[]),
            );
            Transaction::call(env)
        };
        let txs: Vec<Transaction> = (0..2_000u64)
            .map(|i| match i % 5 {
                0 => mint(900 + i, 1 + i % 8, 10),
                1 | 2 => transfer(1 + i % 8, 1 + (3 * i + 1) % 8, 1),
                3 => counter(900 + i, contracts::counter_fn::INCREMENT),
                _ => counter(900 + i, contracts::counter_fn::INCREMENT_CHECKED),
            })
            .collect();
        let env = BlockEnv::default();
        let analyzer = Analyzer::new(registry());
        let trace = crate::oracle::execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let csags = crate::pipeline::refine_csags(&analyzer, &txs, &snapshot, &env, 1);
        let (bound, _) = executor(1).bind_block(&txs, &snapshot, &csags);
        let waiting = bound
            .states
            .iter()
            .filter(|state| state.core.lock().phase == Phase::Waiting);
        assert!(
            waiting.count() > 1_000,
            "most of the block waits at the bind"
        );
        for threads in [1, 2] {
            let shared = run_bound(&executor(threads), &txs, &snapshot, &csags);
            assert_eq!(
                shared.sequences.final_writes(&snapshot, threads),
                trace.final_writes
            );
            assert_eq!(
                shared.lost_wakes.load(Ordering::SeqCst),
                0,
                "{threads} workers"
            );
        }
        // Nor does the sweep re-admit a suspended transaction: the wake of
        // its counted read does.
        let (txs, csags) = suspension_block(6);
        let snapshot = Snapshot::empty();
        let trace = crate::oracle::execute_block_serial(&txs, &snapshot, &analyzer, &env);
        for threads in [1, 2, 4] {
            let shared = run_bound(&executor(threads), &txs, &snapshot, &csags);
            assert_eq!(
                shared.sequences.final_writes(&snapshot, threads),
                trace.final_writes
            );
            let lost = shared.lost_wakes.load(Ordering::SeqCst);
            assert_eq!(lost, 0, "suspension block, {threads} workers");
        }
    }

    #[test]
    fn the_core_records_exactly_what_was_not_predicted() {
        // Every sender is funded in the snapshot for whatever order the
        // block runs in, so refinement predicts each transaction's keys
        // exactly and every attempt, aborted or not, touches the same ones.
        let token_balance = |holder: u64| {
            let holder = Address::from_u64(holder).to_u256();
            StateKey::storage(Address::from_u64(TOKEN), contracts::map_slot(holder, 1))
        };
        let ether_balance = |holder: u64| StateKey::balance(Address::from_u64(holder));
        let funded = (1..7).map(token_balance).chain((20..26).map(ether_balance));
        let snapshot = Snapshot::from_entries(funded.map(|key| (key, U256::from(100u64))));
        let ether = |i: u64| {
            let (from, to) = (
                Address::from_u64(20 + i),
                Address::from_u64(20 + (i + 1) % 6),
            );
            Transaction::transfer(from, to, U256::from(1 + i))
        };
        let mut txs: Vec<_> = (0..6).map(|i| mint(900 + i, 1 + i, 100)).collect();
        txs.extend((0..6).map(|i| transfer(1 + i, 1 + (i + 1) % 6, 7 + i)));
        txs.extend((0..6).map(ether));
        let env = BlockEnv::default();
        let analyzer = Analyzer::new(registry());
        let trace = crate::oracle::execute_block_serial(&txs, &snapshot, &analyzer, &env);
        assert!(trace.txs.iter().all(|t| t.status == ExecStatus::Success));
        for threads in [1, 4] {
            let exec = executor(threads);
            // Exact predictions: the record an abort resets was complete
            // before the first worker started.
            let exact = crate::pipeline::refine_csags(&analyzer, &txs, &snapshot, &env, 1);
            let shared = run_bound(&exec, &txs, &snapshot, &exact);
            assert_eq!(
                shared.sequences.final_writes(&snapshot, threads),
                trace.final_writes
            );
            for state in &shared.states {
                assert!(state.core.lock().unpredicted.is_empty());
            }
            // No predictions: every key the transaction read or wrote.
            let blind = vec![CSag::optimistic(); txs.len()];
            let shared = run_bound(&exec, &txs, &snapshot, &blind);
            assert_eq!(
                shared.sequences.final_writes(&snapshot, threads),
                trace.final_writes
            );
            let interner = shared.sequences.interner();
            for (state, traced) in shared.states.iter().zip(&trace.txs) {
                let read = traced.reads.iter().map(|read| &read.key);
                let written = traced.writes.keys().chain(traced.adds.keys());
                let id = |key| interner.lookup(key).expect("touched, so interned");
                let expected: SortedVec<KeyId> = read.chain(written).map(id).collect();
                assert!(!expected.is_empty());
                assert_eq!(&state.core.lock().unpredicted[..], &expected[..]);
            }
        }
    }

    #[test]
    fn mixed_block_matches_serial_writes_and_statuses() {
        let txs: Vec<_> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    mint(900 + i, 1 + i % 4, 50)
                } else {
                    transfer(1 + (i + 1) % 4, 1 + i % 4, 3)
                }
            })
            .collect();
        let trace = crate::oracle::execute_block_serial(
            &txs,
            &Snapshot::empty(),
            &Analyzer::new(registry()),
            &BlockEnv::default(),
        );
        let outcome = executor(4).execute_block(&txs, &Snapshot::empty(), &BlockEnv::default());
        assert_eq!(outcome.final_writes, trace.final_writes);
        let statuses: Vec<ExecStatus> = trace.txs.iter().map(|t| t.status.clone()).collect();
        assert_eq!(outcome.statuses, statuses);
        check_counters(&outcome);
    }

    #[test]
    fn stats_expose_critical_path_and_refine_time() {
        let txs = vec![mint(900, 1, 100), transfer(1, 2, 30), transfer(2, 3, 10)];
        let exec = executor(2);
        let outcome = exec.execute_block(&txs, &Snapshot::empty(), &BlockEnv::default());
        // `execute_block` refines C-SAGs itself and must time that phase.
        assert!(outcome.stats.refine_nanos > 0);
        // The critical path is a property of the C-SAGs, read off the DAG:
        // a dependent chain spans more than one tx but less than the whole
        // block's gas, so the bound sits in [1.0, n].
        let csags = crate::pipeline::refine_csags(
            exec.analyzer(),
            &txs,
            &Snapshot::empty(),
            &BlockEnv::default(),
            1,
        );
        let dag = BlockDag::build(&csags);
        assert!(dag.critical_path_gas > 0);
        assert!(dag.total_gas >= dag.critical_path_gas);
        assert!((1.0..=txs.len() as f64).contains(&dag.speedup_bound()));
    }

    #[test]
    fn each_stage_hashes_every_distinct_preimage_once() {
        // Token transfers among eight funded holders, each exactly
        // predicted: every transfer derives its sender's and its
        // recipient's balance slot, so the eight slots recur block-wide.
        let holders = 1..=8u64;
        let txs: Vec<Transaction> = (0..64)
            .map(|i| transfer(1 + i % 8, 1 + (3 * i + 1) % 8, 1))
            .collect();
        let token = Address::from_u64(TOKEN);
        let snapshot = Snapshot::from_entries(holders.clone().map(|holder| {
            let slot = contracts::map_slot(Address::from_u64(holder).to_u256(), 1);
            (StateKey::storage(token, slot), U256::from(1_000u64))
        }));
        let distinct = holders.count() as u64;
        let config = ParallelConfig {
            threads: 1,
            ..ParallelConfig::default()
        };
        for kind in crate::ExecutorKind::ALL {
            let engine = kind.build(Analyzer::new(registry()), config, None);
            let outcome = engine.execute_block(&txs, &snapshot, &BlockEnv::default());
            assert_eq!(outcome.final_writes, serial_writes(&txs, &snapshot));
            assert_eq!(outcome.stats.attempts, txs.len() as u64);
            let (refine, execute) = (outcome.stats.refine_digests, outcome.stats.execute_digests);
            // Refinement binds each slot once per access (read and write
            // of the sender's, add of the recipient's) — if the engine
            // refines at all; execution's `SHA3` once per slot.
            let refined = match engine.consumes_predictions() {
                true => (3 * 64, distinct),
                false => (0, 0),
            };
            assert_eq!((refine.asked, refine.computed), refined, "{}", kind.label());
            assert_eq!(
                (execute.asked, execute.computed),
                (2 * 64, distinct),
                "{}",
                kind.label()
            );
        }
    }

    mod binding {
        //! The binding pass against what it replaced: a `try_admit` sweep,
        //! `BlockDag::build`, and a per-transaction rebuild of the metadata.

        use super::*;
        use crate::access::AccessSequence;
        use dmvcc_analysis::{AccessKind, ReleasePoint};
        use proptest::prelude::*;

        fn key(k: u8) -> StateKey {
            StateKey::storage(Address::from_u64(1 + k as u64 % 3), U256::from(k as u64))
        }

        /// One transaction's C-SAG from raw draws: a run of (key, kind, pc)
        /// accesses in which keys repeat under any mix of kinds, or nothing
        /// at all, and release pcs that repeat. What the draws used to
        /// contain and no longer can — a key in both `writes` and `adds`, a
        /// publish pc for a key in neither — the record rules out: its
        /// constructor folds an add into a full write of the same key, and
        /// a pc exists only beside the write or add it belongs to.
        type Draw = (Vec<(u8, u8, usize)>, Vec<usize>, u64);

        fn csag((accesses, releases, gas): Draw) -> CSag {
            let kinds = [AccessKind::Read, AccessKind::Write, AccessKind::Add];
            let accesses = accesses.into_iter().map(|(k, kind, pc)| {
                // One pc in a few is "inside a nested frame".
                let pc = if pc % 5 == 0 { CSag::NEVER } else { pc };
                (key(k), kinds[kind as usize], pc)
            });
            let point = |pc| ReleasePoint {
                pc,
                gas_bound: pc as u64 * 7,
            };
            CSag {
                release_points: releases.into_iter().map(point).collect(),
                predicted_gas: gas,
                ..CSag::from_accesses(accesses)
            }
        }

        fn draws() -> impl Strategy<Value = Vec<Draw>> {
            let accesses = prop::collection::vec((0u8..10, 0u8..3, 0usize..40), 0..10);
            let releases = prop::collection::vec(0usize..6, 0..4);
            let gas = 0u64..200_000;
            prop::collection::vec((accesses, releases, gas), 1..14)
        }

        fn bound<'a>(
            exec: &ParallelExecutor,
            txs: &'a [Transaction],
            snapshot: &'a Snapshot,
            csags: &'a [CSag],
        ) -> Shared<'a> {
            exec.bind_block(txs, snapshot, csags).0
        }

        /// The queue's entries as `(tx, generation, lane)`, lane by lane,
        /// front to back.
        fn queued(shared: &Shared<'_>) -> Vec<(usize, u32, usize)> {
            let mut queue = Vec::new();
            for (at, lane) in shared.lanes.iter().enumerate() {
                let entries = lane.lock();
                queue.extend(entries.iter().map(|&(tx, generation)| (tx, generation, at)));
            }
            queue
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 128,
                .. ProptestConfig::default()
            })]

            #[test]
            fn one_pass_equals_the_walks_it_replaced(draws in draws()) {
                let csags: Vec<CSag> = draws.into_iter().map(csag).collect();
                let n = csags.len();
                let txs = vec![mint(900, 1, 1); n];
                let snapshot = Snapshot::empty();
                let exec = executor(2);
                // Run the block first (the predictions are noise to these
                // mints; the result is still the serial one) and bind it
                // again into what that run left in the arena — with a stale
                // entry in every lane, as an abort storm leaves them.
                let env = BlockEnv::default();
                let outcome = exec.execute_block_with_csags(&txs, &snapshot, &env, &csags);
                prop_assert_eq!(outcome.final_writes, serial_writes(&txs, &snapshot));
                for lane in exec.pool.lock().lanes.iter_mut() {
                    lane.get_mut().push_back((n + 7, 3));
                }
                let shared = bound(&exec, &txs, &snapshot, &csags);
                let interner = shared.sequences.interner();

                // Each transaction's count of blocked reads is what
                // `resolve_read` answers on the freshly predicted store; the
                // first ready set, those with none, is queued in block
                // order, each entry in its rank's lane — and a sweep finds
                // nothing to add.
                let blocked = |tx: usize| {
                    let reads = shared.meta.tx(tx).reads.iter();
                    let blocked = reads.filter(|&&(id, ref key)| {
                        let mut shard = shared.sequences.shard_for(id);
                        let resolution = shard.resolve_read(id, tx, key, &snapshot);
                        matches!(resolution, ReadResolution::Blocked { .. })
                    });
                    blocked.count() as i32
                };
                let ready: Vec<usize> = (0..n).filter(|&tx| blocked(tx) == 0).collect();
                let queue = queued(&shared);
                let mut queued_txs: Vec<usize> = queue.iter().map(|entry| entry.0).collect();
                for lane in shared.lanes.iter() {
                    let lane = lane.lock();
                    prop_assert!(lane.iter().is_sorted_by(|a, b| a.0 < b.0));
                }
                queued_txs.sort_unstable();
                prop_assert_eq!(&queued_txs, &ready);
                for &(tx, generation, lane) in &queue {
                    prop_assert_eq!((generation, lane), (0, shared.dag.lane_of(tx)));
                }
                let counts = shared.lane_counts.iter();
                let counts: Vec<usize> = counts.map(|c| c.load(Ordering::SeqCst)).collect();
                let lens: Vec<usize> = shared.lanes.iter().map(|lane| lane.lock().len()).collect();
                prop_assert_eq!(counts, lens);
                prop_assert_eq!(shared.ready_count.load(Ordering::SeqCst), ready.len());
                for tx in 0..n {
                    let phase = shared.states[tx].core.lock().phase;
                    let blocked_reads = shared.states[tx].blocked_reads.load(Ordering::SeqCst);
                    let expected = if ready.contains(&tx) { Phase::Ready } else { Phase::Waiting };
                    prop_assert_eq!(phase, expected);
                    prop_assert_eq!(blocked_reads, blocked(tx));
                    prop_assert!(!shared.try_admit(tx));
                }

                // Ranks and lanes swept over the pass's ids are the public
                // wrapper's.
                let dag = BlockDag::build(&csags);
                prop_assert_eq!(&shared.dag.ranks, &dag.ranks);
                prop_assert_eq!(shared.dag.critical_path_gas, dag.critical_path_gas);
                prop_assert_eq!(shared.dag.total_gas, dag.total_gas);

                // Every view is the per-transaction rebuild, and the store
                // holds what predicting access by access would have put.
                let id = |key: &StateKey| interner.lookup(key).expect("interned by the pass");
                let mut sequences: std::collections::BTreeMap<StateKey, AccessSequence> =
                    Default::default();
                for (tx, csag) in csags.iter().enumerate() {
                    let meta = shared.meta.tx(tx);
                    let reads: Vec<_> = csag.reads.iter().map(|key| (id(key), *key)).collect();
                    prop_assert_eq!(meta.reads, &reads[..]);
                    let written = csag.writes.iter().chain(&csag.adds);
                    let mut predicted_wa: Vec<_> = written.map(|(key, pc)| (id(key), *pc)).collect();
                    predicted_wa.sort_unstable();
                    prop_assert_eq!(meta.predicted_wa, &predicted_wa[..]);
                    let points = csag.release_points.iter();
                    let release_bounds: Vec<_> = points.map(|rp| (rp.pc, rp.gas_bound)).collect();
                    prop_assert_eq!(meta.release_bounds, &release_bounds[..]);
                    let release_pcs = release_bounds.iter().map(|&(pc, _)| pc);
                    let publishable = predicted_wa.iter().filter(|&&(_, pc)| pc != CSag::NEVER);
                    let mut release_set: Vec<_> =
                        release_pcs.chain(publishable.map(|&(_, pc)| pc + 1)).collect();
                    release_set.sort_unstable();
                    release_set.dedup();
                    prop_assert_eq!(meta.release_set, &release_set[..]);
                    // An abort right after the bind resets every predicted
                    // id once, in id order — predicted writes re-pend, the
                    // rest rolls back — and nothing else: the core's set is
                    // empty, although the run before this bind filled it
                    // (no draw predicts the mints' keys).
                    let mut touched: Vec<_> = reads.iter().map(|&(id, _)| id).collect();
                    touched.extend(predicted_wa.iter().map(|&(id, _)| id));
                    touched.sort_unstable();
                    touched.dedup();
                    let reset = |&id: &KeyId| match predicted_wa.iter().any(|&(k, _)| k == id) {
                        true => (id, VersionOp::Reset),
                        false => (id, VersionOp::Rollback),
                    };
                    let resets: Vec<_> = touched.iter().map(reset).collect();
                    prop_assert_eq!(meta.resets(&[]), resets);
                    prop_assert!(shared.states[tx].core.lock().unpredicted.is_empty());
                    // The host finds in the transaction's own slices the id
                    // the interner holds, and "predicted" for exactly the
                    // keys of the C-SAG.
                    let own = csag.touched();
                    for key in csags.iter().flat_map(CSag::touched) {
                        let (found, predicted) = meta.locate(&shared.sequences, &key);
                        prop_assert_eq!(found, id(&key));
                        prop_assert_eq!(predicted, own.contains(&key));
                    }

                    let reads = csag.reads.iter().map(|key| (key, AccessOp::Read));
                    let writes = csag.writes.iter().map(|(key, _)| (key, AccessOp::Write));
                    let adds = csag.adds.iter().map(|(key, _)| (key, AccessOp::Add));
                    for (key, op) in reads.chain(writes).chain(adds) {
                        sequences.entry(*key).or_default().predict(tx, op);
                    }
                }
                let tuple = |seq: &AccessSequence| -> Vec<_> { seq.entries().collect() };
                for (key, expected) in &sequences {
                    let mut shard = shared.sequences.shard_for(id(key));
                    prop_assert_eq!(tuple(shard.sequence_mut(id(key))), tuple(expected));
                }
                prop_assert_eq!(interner.len(), {
                    let all = csags.iter().flat_map(CSag::touched);
                    all.collect::<std::collections::BTreeSet<_>>().len()
                });
            }

            #[test]
            fn no_attempts_to_spend_queues_only_the_first(draws in draws()) {
                let csags: Vec<CSag> = draws.into_iter().map(csag).collect();
                let txs = vec![mint(900, 1, 1); csags.len()];
                let snapshot = Snapshot::empty();
                let config = ParallelConfig { threads: 2, max_attempts: 0 };
                let exec = ParallelExecutor::new(Analyzer::new(registry()), config);
                let shared = bound(&exec, &txs, &snapshot, &csags);
                prop_assert_eq!(queued(&shared), vec![(0, 0, shared.dag.lane_of(0))]);
                for tx in 0..csags.len() {
                    prop_assert!(!shared.try_admit(tx));
                }
            }
        }
    }
}
