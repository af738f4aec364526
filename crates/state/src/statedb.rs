//! The `StateDB`: snapshots, the MPT commitment, and async root handles.
//!
//! Mirrors the paper's architecture (§II-A, §V-A): after a block executes,
//! the validator flushes the final write of every access sequence into the
//! MPT, producing a new snapshot `S^l` whose root hash is the RQ1
//! correctness oracle — parallel and serial execution must yield identical
//! roots for every block.
//!
//! Two things changed since the first version of this module:
//!
//! - **Pluggable persistence.** Every database stands on a
//!   [`StateBackend`]: [`StateDb::with_genesis`] on a fresh
//!   [`MemBackend`], which answers latest reads from its own slots, and
//!   [`StateDb::with_backend`] on the one it is handed, such as the LSM
//!   store, which reads through a flat-state cache of its own, so that hot
//!   SLOADs are one hash probe either way. Each commit lands the
//!   block's batch in the backend and rebases `latest` onto it, so
//!   snapshot RAM stays O(recent writes) rather than O(total state). The
//!   backend keeps an old height only while a snapshot pins it; a replica,
//!   which finds the chain landed already, layers its commits over its own
//!   snapshot ([`StateDb`] says when).
//! - **Off-critical-path roots.** [`StateDb::commit_async`] applies the
//!   block's structural trie updates (in place wherever this trie is a
//!   node's only holder, a path copy where the previous root is still
//!   hashing) and returns a [`RootHandle`] immediately; the
//!   hashing — encoding the dirty nodes level by level into the hashing
//!   thread's one buffer and running Keccak over four at a time — happens
//!   on a background thread, overlapping the next block's execution. The
//!   handle stalls
//!   only a caller that demands the root before it resolves, and records
//!   how long hashing took so callers can report how much of it they hid.
//!
//! There is one root path: [`StateDb::commit`] and the background thread
//! of [`StateDb::commit_async`] both call [`Mpt::root_parallel`] with
//! [`StateDb::set_hash_threads`] workers, which hashes on the caller alone
//! for one thread or fewer than two dirty top-level subtrees. And one way
//! a block's writes are applied before that: the trie keys hashed on the
//! same number of workers (four to a call, as the keys of genesis are), the
//! backend batch landing beside the trie's in-place inserts — in `commit`,
//! beside the root hash too — and `latest` advanced once both are back.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dmvcc_primitives::rlp::put_uint_be;
use dmvcc_primitives::{keccak256_x4, H256, U256};

use crate::backend::{BackendStats, MemBackend, StateBackend};
use crate::flat::FlatStats;
use crate::mpt::Mpt;
use crate::snapshot::{Snapshot, WriteSet};
use crate::workers::{beside, default_hash_threads, on_workers, workers_for, Shares};
use crate::StateKey;

/// Number of recent per-block roots [`StateDb`] retains.
///
/// Headers older than this are sealed and gossiped long ago; keeping the
/// window bounded stops root history from growing by 32 bytes per block
/// forever.
const ROOT_WINDOW: usize = 1024;

/// A handle to a state root that may still be computing on a background
/// thread.
///
/// Cloneable and shareable; every clone resolves to the same root.
/// [`RootHandle::wait`] blocks until the root is ready (the "header
/// demanded before the root resolved" stall), [`RootHandle::try_root`]
/// never blocks, and [`RootHandle::hash_nanos`] reports how long the
/// hashing actually took once resolved — the latency a pipelined caller
/// had the opportunity to hide. If the hashing thread dies before it has a
/// root, all three panic with a message naming the block, and so do
/// [`StateDb::root_at`] and [`StateDb::current_root`]; none parks for ever.
#[derive(Debug, Clone)]
pub struct RootHandle {
    slot: Arc<RootSlot>,
}

#[derive(Debug)]
struct RootSlot {
    state: Mutex<RootState>,
    ready: Condvar,
}

#[derive(Debug, Clone, Copy)]
enum RootState {
    Pending,
    /// `(root, hash_nanos)`.
    Resolved(H256, u64),
    /// The thread hashing the block at this height unwound before it had a
    /// root.
    Failed(u64),
}

impl RootState {
    /// `(root, hash_nanos)` once resolved, `None` while pending.
    ///
    /// # Panics
    ///
    /// Panics if the hashing thread died. Call it with the slot unlocked, so
    /// that every waiter gets this message and none a poisoned lock.
    fn settled(self) -> Option<(H256, u64)> {
        match self {
            RootState::Pending => None,
            RootState::Resolved(root, hash_nanos) => Some((root, hash_nanos)),
            RootState::Failed(height) => panic!(
                "the state root of block {height} was never computed: \
                 its hashing thread panicked"
            ),
        }
    }
}

/// The hashing thread's end of a pending [`RootHandle`]. Dropped without
/// [`RootPromise::fulfill`] — the thread is unwinding — it marks the slot
/// failed, so that waiters panic instead of parking for ever.
struct RootPromise {
    slot: Arc<RootSlot>,
    height: u64,
}

impl RootPromise {
    fn fulfill(self, root: H256, hash_nanos: u64) {
        self.settle(RootState::Resolved(root, hash_nanos));
    }

    fn settle(&self, outcome: RootState) {
        // A poisoned slot fails its waiters already, and `drop` must not
        // panic.
        let Ok(mut state) = self.slot.state.lock() else {
            return;
        };
        if matches!(*state, RootState::Pending) {
            *state = outcome;
            self.slot.ready.notify_all();
        }
    }
}

impl Drop for RootPromise {
    fn drop(&mut self) {
        self.settle(RootState::Failed(self.height));
    }
}

impl RootHandle {
    fn new(state: RootState) -> Self {
        RootHandle {
            slot: Arc::new(RootSlot {
                state: Mutex::new(state),
                ready: Condvar::new(),
            }),
        }
    }

    /// A handle that is already resolved (synchronous commits).
    pub fn ready(root: H256) -> Self {
        Self::new(RootState::Resolved(root, 0))
    }

    /// An unresolved handle for the root of block `height`, and the promise
    /// that resolves it.
    fn pending(height: u64) -> (Self, RootPromise) {
        let handle = Self::new(RootState::Pending);
        let slot = Arc::clone(&handle.slot);
        (handle, RootPromise { slot, height })
    }

    /// The root if already resolved; never blocks.
    ///
    /// # Panics
    ///
    /// Panics, like every other read of the handle, if the background hash
    /// died before it had a root.
    pub fn try_root(&self) -> Option<H256> {
        let state = *self.slot.state.lock().expect("root slot poisoned");
        state.settled().map(|(root, _)| root)
    }

    /// Blocks until the slot is no longer pending.
    fn resolved(&self) -> (H256, u64) {
        let state = self.slot.state.lock().expect("root slot poisoned");
        let state = *self
            .slot
            .ready
            .wait_while(state, |state| matches!(state, RootState::Pending))
            .expect("root slot poisoned");
        state.settled().expect("no longer pending")
    }

    /// Blocks until the background hash completes and returns the root.
    pub fn wait(&self) -> H256 {
        self.resolved().0
    }

    /// Nanoseconds the background hashing took. Blocks like
    /// [`RootHandle::wait`] if not yet resolved; `0` for handles created
    /// already-resolved.
    pub fn hash_nanos(&self) -> u64 {
        self.resolved().1
    }
}

/// Bounded per-block root history: a sliding window of the most recent
/// [`ROOT_WINDOW`] roots (some possibly still resolving).
#[derive(Debug, Clone)]
struct RootHistory {
    /// Height of `entries[0]`.
    base: u64,
    entries: VecDeque<RootHandle>,
}

impl RootHistory {
    fn new(genesis: H256) -> Self {
        let mut entries = VecDeque::new();
        entries.push_back(RootHandle::ready(genesis));
        RootHistory { base: 0, entries }
    }

    fn push(&mut self, handle: RootHandle) {
        self.entries.push_back(handle);
        while self.entries.len() > ROOT_WINDOW {
            self.entries.pop_front();
            self.base += 1;
        }
    }

    fn at(&self, height: u64) -> Option<&RootHandle> {
        let index = height.checked_sub(self.base)?;
        self.entries.get(index as usize)
    }

    fn newest(&self) -> &RootHandle {
        self.entries.back().expect("roots never empty")
    }
}

/// The versioned state store of a single validator.
///
/// Holds the latest [`Snapshot`], the trie over all state items, a
/// bounded window of per-block root hashes, and the [`StateBackend`] the
/// snapshots read through. A *flat* trie layout is used — the key is
/// `keccak256(address ++ slot)` — rather than Ethereum's two-level
/// account/storage trie; root equality between two executions remains an
/// equally strong oracle (documented in `DESIGN.md`).
///
/// A clone shares the backend and forks the trie. A commit lands its batch
/// in the backend only when `latest` is the backend's tip, unlayered — this
/// database wrote the backend's chain so far — and rebases `latest` onto
/// it. Any other commit — a replica re-committing the chain, or a clone
/// that went its own way — layers the writes over its own `latest`
/// ([`Snapshot::apply`]), whose pin keeps the height it reads the backend
/// at readable. So each database reads its own chain, and the backend keeps
/// only the heights that live snapshots pin ([`StateBackend::pin`]).
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::{StateDb, StateKey, WriteSet};
///
/// let mut db = StateDb::new();
/// let mut writes = WriteSet::new();
/// writes.insert(StateKey::balance(Address::from_u64(1)), U256::from(10u64));
/// let root = db.commit(&writes);
/// assert_eq!(db.height(), 1);
/// assert_eq!(db.root_at(1), Some(root));
/// ```
///
/// Asynchronous commitment overlaps hashing with whatever the caller does
/// next:
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::{StateDb, StateKey, WriteSet};
///
/// let mut db = StateDb::new();
/// let mut writes = WriteSet::new();
/// writes.insert(StateKey::balance(Address::from_u64(1)), U256::from(10u64));
/// let handle = db.commit_async(&writes);
/// // ... execute the next block here while the root hashes ...
/// let root = handle.wait();
/// assert_eq!(db.root_at(1), Some(root));
/// ```
#[derive(Debug, Clone)]
pub struct StateDb {
    latest: Snapshot,
    trie: Mpt,
    roots: RootHistory,
    /// The store every snapshot reads through; shared by clones.
    backend: Arc<dyn StateBackend>,
    /// Worker threads for background/parallel subtree hashing.
    hash_threads: usize,
}

impl Default for StateDb {
    fn default() -> Self {
        Self::new()
    }
}

impl StateDb {
    /// Creates an empty StateDB (empty genesis) over a fresh
    /// [`MemBackend`].
    pub fn new() -> Self {
        StateDb::with_genesis([])
    }

    /// Creates a StateDB pre-loaded with a genesis allocation (zero values
    /// dropped; of equal keys the last wins) over a fresh [`MemBackend`].
    pub fn with_genesis<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (StateKey, U256)>,
    {
        StateDb::with_backend(Arc::new(MemBackend::new()), entries)
    }

    /// Creates a StateDB over a persistent backend, seeding `entries` as
    /// the height-0 genesis batch.
    ///
    /// The backend is used as it is handed, and `latest` reads fall
    /// through the (empty) overlays to it.
    /// The trie is built from the same entries the backend is handed, so
    /// the genesis root is the same over every backend.
    pub fn with_backend<I>(backend: Arc<dyn StateBackend>, entries: I) -> Self
    where
        I: IntoIterator<Item = (StateKey, U256)>,
    {
        StateDb::genesis(entries, backend, default_hash_threads())
    }

    /// The database at genesis: `entries` become one run — zeros dropped,
    /// of equal keys the last winning — which the caller loads into
    /// `backend` as the height-0 batch ([`StateBackend::load_genesis`]),
    /// while a thread beside it builds the trie from the same run on
    /// `threads` workers ([`Mpt::from_keys`]) and hashes its root.
    fn genesis<I>(entries: I, backend: Arc<dyn StateBackend>, threads: usize) -> Self
    where
        I: IntoIterator<Item = (StateKey, U256)>,
    {
        let run: Vec<(StateKey, U256)> = entries
            .into_iter()
            .filter(|(_, value)| !value.is_zero())
            .collect();
        let load = || {
            backend.load_genesis(&run);
            Snapshot::from_backend(Arc::clone(&backend), 0)
        };
        let build = || {
            let trie = genesis_trie(&run, threads);
            let root = trie.root_parallel(threads);
            (trie, root)
        };
        // The load stays on the caller: what it allocates and frees (an
        // LSM backend's batch and memtable) stays in the caller's allocator
        // arena, which later allocations reuse. Made on a thread beside, it
        // lay unused once freed: `cold-state`'s peak RSS rose by a quarter.
        let ((trie, root), latest) = beside(workers_for(threads, run.len()), build, load);
        StateDb {
            latest,
            trie,
            roots: RootHistory::new(root),
            backend,
            hash_threads: threads,
        }
    }

    /// The latest committed snapshot `S^l`.
    pub fn latest(&self) -> &Snapshot {
        &self.latest
    }

    /// Current block height `l` (number of committed blocks).
    pub fn height(&self) -> u64 {
        self.latest.height()
    }

    /// Short label of the backend (`"mem"`, `"lsm"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The backend's I/O counters. Always `Some`: every database has a
    /// backend.
    pub fn backend_stats(&self) -> Option<BackendStats> {
        Some(self.backend.stats())
    }

    /// Flat-state cache counters, if the backend is read through one
    /// ([`StateBackend::flat_stats`]).
    pub fn flat_stats(&self) -> Option<FlatStats> {
        self.backend.flat_stats()
    }

    /// Sets how many worker threads root hashing may use, in
    /// [`StateDb::commit`] and in the background of
    /// [`StateDb::commit_async`] alike (clamped to at least 1).
    pub fn set_hash_threads(&mut self, threads: usize) {
        self.hash_threads = threads.max(1);
    }

    /// Root hash after block `height` (`0` = genesis root).
    ///
    /// Returns `None` for heights never committed *and* for heights that
    /// fell out of the bounded history window. Blocks if the root at
    /// `height` is still resolving — this is the only place a demanded
    /// header stalls on background hashing.
    pub fn root_at(&self, height: u64) -> Option<H256> {
        self.roots.at(height).map(RootHandle::wait)
    }

    /// The current state root (blocks if still resolving).
    pub fn current_root(&self) -> H256 {
        self.roots.newest().wait()
    }

    /// Convenience read from the latest snapshot.
    pub fn get(&self, key: &StateKey) -> U256 {
        self.latest.get(key)
    }

    /// Applies a block's writes: the trie keys are hashed on the hashing
    /// workers, then the trie takes its structural inserts and removes on
    /// the caller — which goes on to run `then` over the updated trie —
    /// while a thread beside it lands the batch in the backend (a flat
    /// cache's fills included) or, if `latest` is not the backend's tip,
    /// layers it over `latest`. `latest` advances once both are done.
    /// Returns the new height and what `then` returned.
    fn apply_writes<R>(&mut self, writes: &WriteSet, then: impl FnOnce(&Mpt) -> R) -> (u64, R) {
        let threads = self.hash_threads;
        let height = self.latest.height() + 1;
        let trie_keys = trie_keys(&writes.keys().collect::<Vec<_>>(), threads);
        let (backend, trie, latest) = (&self.backend, &mut self.trie, &self.latest);
        let advance = || {
            if !latest.is_unlayered_at(backend.tip()) {
                // The backend's tip is another database's chain, and the
                // heights below it only pins keep readable: this one reads
                // its own.
                return latest.apply(writes);
            }
            backend.apply_batch(height, writes);
            // Rebase onto the backend: keeps in-memory layer RAM at O(1)
            // per block instead of accumulating every write.
            Snapshot::from_backend(Arc::clone(backend), height)
        };
        let (next, out) = beside(threads, advance, || {
            for (trie_key, value) in trie_keys.iter().zip(writes.values()) {
                if value.is_zero() {
                    trie.remove(trie_key.as_bytes());
                } else {
                    trie.insert(trie_key.as_bytes(), trie_value(*value));
                }
            }
            then(trie)
        });
        self.latest = next;
        (height, out)
    }

    /// Commits a block's final writes synchronously: updates the trie,
    /// produces the next snapshot and records its root hash, which is
    /// returned. The dirty subtrees are hashed on
    /// [`StateDb::set_hash_threads`] workers, as in
    /// [`StateDb::commit_async`], while the backend batch lands beside them.
    pub fn commit(&mut self, writes: &WriteSet) -> H256 {
        let threads = self.hash_threads;
        let (_, root) = self.apply_writes(writes, |trie| trie.root_parallel(threads));
        self.roots.push(RootHandle::ready(root));
        root
    }

    /// Commits a block's final writes with root hashing off the critical
    /// path.
    ///
    /// The structural trie update, snapshot advance and backend batch all
    /// happen before the call returns — the returned [`RootHandle`]
    /// resolves to the root once a background thread finishes the Keccak
    /// work (parallel subtree hashing across
    /// [`StateDb::set_hash_threads`] workers).
    /// Equivalent to [`StateDb::commit`] root-for-root: both force the
    /// same shared node caches.
    ///
    /// Back-to-back async commits are safe: the trie is cloned (O(1),
    /// `Arc`-shared) per commit, an update never alters a node another
    /// holder can reach (it copies the node first, see [`Mpt`]), and two
    /// threads that hash the same dirty node set the same reference in its
    /// `OnceLock`, whichever comes first. The
    /// background thread drops its clone as soon as it has the root, so a
    /// block committed after that finds the trie unshared and updates it
    /// in place; one committed sooner copies the paths it touches.
    pub fn commit_async(&mut self, writes: &WriteSet) -> RootHandle {
        let (height, trie) = self.apply_writes(writes, Mpt::clone);
        let (handle, promise) = RootHandle::pending(height);
        self.roots.push(handle.clone());
        let threads = self.hash_threads;
        std::thread::spawn(move || {
            let started = Instant::now();
            let root = trie.root_parallel(threads);
            drop(trie);
            promise.fulfill(root, started.elapsed().as_nanos() as u64);
        });
        handle
    }
}

/// Trie keys a hashing worker takes at a time.
const KEYS_PER_SHARE: usize = 256;

/// Where the state trie keeps each of `keys`, `keccak256(address ‖ slot)`, in
/// their order: hashed on up to `threads` workers, which take
/// [`KEYS_PER_SHARE`] keys at a time and hash them four to a call. Genesis
/// and every block's writes come through here.
fn trie_keys(keys: &[&StateKey], threads: usize) -> Vec<H256> {
    let mut trie_keys = vec![H256::ZERO; keys.len()];
    let shares = Shares::new(
        keys.chunks(KEYS_PER_SHARE)
            .zip(trie_keys.chunks_mut(KEYS_PER_SHARE)),
    );
    on_workers(workers_for(threads, keys.len()), || {
        while let Some((keys, trie_keys)) = shares.next() {
            for (keys, trie_keys) in keys.chunks(4).zip(trie_keys.chunks_mut(4)) {
                let mut preimages = [[0u8; 52]; 4];
                for (preimage, key) in preimages.iter_mut().zip(keys) {
                    *preimage = key.to_bytes();
                }
                let hashed = keccak256_x4(preimages.each_ref().map(|bytes| &bytes[..]));
                trie_keys.copy_from_slice(&hashed[..trie_keys.len()]);
            }
        }
    });
    trie_keys
}

/// The state trie of a genesis allocation (no zero values among `entries`;
/// of equal keys the last wins), built on up to `threads` workers.
fn genesis_trie(entries: &[(StateKey, U256)], threads: usize) -> Mpt {
    let keys: Vec<&StateKey> = entries.iter().map(|(key, _)| key).collect();
    Mpt::from_keys(&trie_keys(&keys, threads), threads, |i, out| {
        put_trie_value(out, entries[i].1);
    })
}

/// The value the state trie stores for a non-zero slot: `rlp(value)`.
fn trie_value(value: U256) -> Vec<u8> {
    let mut out = Vec::with_capacity(33);
    put_trie_value(&mut out, value);
    out
}

/// Appends [`trie_value`] to `out`.
fn put_trie_value(out: &mut Vec<u8>, value: U256) {
    put_uint_be(out, &value.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::{keccak256, Address};

    fn key(i: u64) -> StateKey {
        StateKey::storage(Address::from_u64(9), U256::from(i))
    }

    fn writes(pairs: &[(u64, u64)]) -> WriteSet {
        pairs
            .iter()
            .map(|&(k, v)| (key(k), U256::from(v)))
            .collect()
    }

    #[test]
    fn genesis_root_is_empty_trie() {
        let db = StateDb::new();
        assert_eq!(db.current_root(), crate::mpt::empty_root());
        assert_eq!(db.height(), 0);
    }

    #[test]
    fn commit_advances_height_and_tracks_roots() {
        let mut db = StateDb::new();
        let r1 = db.commit(&writes(&[(1, 10)]));
        let r2 = db.commit(&writes(&[(2, 20)]));
        assert_eq!(db.height(), 2);
        assert_eq!(db.root_at(1), Some(r1));
        assert_eq!(db.root_at(2), Some(r2));
        assert_ne!(r1, r2);
        assert_eq!(db.get(&key(1)), U256::from(10u64));
        assert_eq!(db.get(&key(2)), U256::from(20u64));
    }

    #[test]
    fn same_writes_same_root() {
        let mut a = StateDb::new();
        let mut b = StateDb::new();
        let w = writes(&[(1, 10), (2, 20), (3, 30)]);
        assert_eq!(a.commit(&w), b.commit(&w));
    }

    #[test]
    fn write_then_delete_restores_root() {
        let mut db = StateDb::new();
        let r1 = db.commit(&writes(&[(1, 10)]));
        db.commit(&writes(&[(2, 5)]));
        let r3 = db.commit(&writes(&[(2, 0)]));
        assert_eq!(r1, r3);
    }

    #[test]
    fn genesis_allocation_equals_incremental_build() {
        let entries = vec![(key(1), U256::from(10u64)), (key(2), U256::from(20u64))];
        let preloaded = StateDb::with_genesis(entries.clone());
        let mut incremental = StateDb::new();
        incremental.commit(&entries.into_iter().collect());
        assert_eq!(preloaded.current_root(), incremental.current_root());
        assert_eq!(preloaded.get(&key(2)), U256::from(20u64));
    }

    #[test]
    fn order_of_commits_affects_only_history_not_final_root() {
        let mut a = StateDb::new();
        a.commit(&writes(&[(1, 10)]));
        a.commit(&writes(&[(2, 20)]));
        let mut b = StateDb::new();
        b.commit(&writes(&[(2, 20)]));
        b.commit(&writes(&[(1, 10)]));
        assert_eq!(a.current_root(), b.current_root());
        assert_ne!(a.root_at(1), b.root_at(1));
    }

    #[test]
    fn root_history_window_prunes_old_heights() {
        let mut db = StateDb::new();
        let mut roots = vec![db.current_root()];
        let last = ROOT_WINDOW as u64 + 3;
        for i in 1..=last {
            roots.push(db.commit(&writes(&[(i % 8, i)])));
        }
        assert_eq!(db.height(), last);
        // Heights 0..=3 fell out of the window; the newest ROOT_WINDOW
        // are all still there.
        for height in 0..=3u64 {
            assert_eq!(db.root_at(height), None, "height {height}");
        }
        for height in [4, last / 2, last] {
            assert_eq!(db.root_at(height), Some(roots[height as usize]));
        }
        assert_eq!(db.current_root(), roots[last as usize]);
    }

    #[test]
    fn async_commit_matches_sync_commit_roots() {
        // One root path behind both commits: every thread count, either
        // way, resolves to the root the serial hash of the same trie gives.
        let mut oracle = Mpt::new();
        let mut dbs: Vec<StateDb> = [1usize, 4, 1, 4]
            .iter()
            .map(|&threads| {
                let mut db = StateDb::new();
                db.set_hash_threads(threads);
                db
            })
            .collect();
        for block in 1..=12u64 {
            // Enough keys that several top-level subtrees are dirty.
            let mut w = writes(&[(block, block * 7), (block % 5, block), (40 + block % 3, 1)]);
            w.extend(writes(
                &(0..24).map(|i| (100 + i, block + i)).collect::<Vec<_>>(),
            ));
            for (key, value) in &w {
                oracle.insert(keccak256(&key.to_bytes()).as_bytes(), trie_value(*value));
            }
            let expected = oracle.root();
            let (sync_dbs, async_dbs) = dbs.split_at_mut(2);
            for db in sync_dbs {
                assert_eq!(db.commit(&w), expected, "sync, block {block}");
            }
            for db in async_dbs {
                let handle = db.commit_async(&w);
                assert_eq!(handle.wait(), expected, "async, block {block}");
                assert_eq!(db.root_at(block), Some(expected));
            }
        }
    }

    /// The root of a trie built afresh from `model`: what a database that
    /// holds exactly these values must report, whatever it copied or
    /// changed in place on the way.
    fn rebuilt_root(model: &WriteSet) -> H256 {
        let mut trie = Mpt::new();
        for (key, value) in model.iter().filter(|(_, value)| !value.is_zero()) {
            trie.insert(keccak256(&key.to_bytes()).as_bytes(), trie_value(*value));
        }
        trie.root()
    }

    /// `count` writes a block, over keys that blocks share and clear.
    fn wide_writes(block: u64, count: u64) -> WriteSet {
        writes(
            &(0..count)
                .map(|i| (i * (1 + block % 3), (block + i) % 5 * (block + i)))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn a_replica_and_its_original_diverge_without_seeing_each_other() {
        let mut model = wide_writes(0, 300);
        let mut original = StateDb::with_genesis(model.clone());
        let mut replica = original.clone();
        let mut replica_model = model.clone();
        for block in 1..=6u64 {
            // The original first on odd blocks, the replica first on even:
            // whichever writes a shared path first copies it, the other
            // then holds the old nodes alone and changes them in place.
            let (w, replica_w) = (wide_writes(block, 120), wide_writes(block + 50, 90));
            model.extend(w.clone());
            replica_model.extend(replica_w.clone());
            if block % 2 == 1 {
                original.commit(&w);
                replica.commit(&replica_w);
            } else {
                replica.commit(&replica_w);
                original.commit(&w);
            }
            let (root, replica_root) = (original.current_root(), replica.current_root());
            assert_eq!(root, rebuilt_root(&model), "original, block {block}");
            assert_eq!(
                replica_root,
                rebuilt_root(&replica_model),
                "replica, block {block}"
            );
            assert_ne!(root, replica_root);
        }
    }

    #[test]
    fn sync_commit_while_the_previous_root_is_unresolved_matches_the_oracle() {
        // By hand first, so that the interleaving is certain: the hashing
        // thread's clone of the trie exists and has hashed nothing yet.
        let mut model = wide_writes(0, 300);
        let mut db = StateDb::with_genesis(model.clone());
        db.set_hash_threads(2);
        let first = wide_writes(1, 200);
        model.extend(first.clone());
        db.apply_writes(&first, |_| ());
        let still_hashing = db.trie.clone();
        let first_root = rebuilt_root(&model);
        let second = wide_writes(2, 200);
        model.extend(second.clone());
        assert_eq!(db.commit(&second), rebuilt_root(&model));
        assert_eq!(still_hashing.root_parallel(2), first_root);
        drop(still_hashing);
        // Then the real thing, as fast as the calls return: each sync
        // commit meets a background thread that is hashing, or done, or
        // dropping the version it hashed.
        for block in 3..=10u64 {
            let (w_async, w_sync) = (wide_writes(block, 250), wide_writes(block + 20, 250));
            model.extend(w_async.clone());
            let async_root = rebuilt_root(&model);
            model.extend(w_sync.clone());
            let handle = db.commit_async(&w_async);
            assert_eq!(db.commit(&w_sync), rebuilt_root(&model), "block {block}");
            assert_eq!(handle.wait(), async_root, "block {block}");
        }
    }

    /// A database over a fresh in-memory backend, hashing on `threads`.
    fn mem_db(genesis: &WriteSet, threads: usize) -> StateDb {
        let backend = Arc::new(crate::MemBackend::new()) as Arc<dyn StateBackend>;
        let mut db = StateDb::with_backend(backend, genesis.clone());
        db.set_hash_threads(threads);
        db
    }

    /// Everything the backend holds, height by height.
    fn backend_contents(db: &StateDb) -> Vec<Vec<(StateKey, U256)>> {
        (0..=db.height())
            .map(|height| {
                let mut live = db.backend.iter_as_of(height);
                live.sort_unstable();
                live
            })
            .collect()
    }

    #[test]
    fn every_hash_thread_count_commits_the_same_roots_backend_and_flat_stats() {
        // Blocks wide enough that four threads each hash a share of the
        // trie keys (`workers_for`); the same chain through `commit` and
        // `commit_async`. A snapshot of each height pins it, so that every
        // height's contents stay readable.
        let mut model = wide_writes(0, 300);
        let mut sync_dbs: Vec<StateDb> = [1, 2, 4].map(|t| mem_db(&model, t)).into();
        let mut async_dbs: Vec<StateDb> = [1, 2, 4].map(|t| mem_db(&model, t)).into();
        let mut pins: Vec<Snapshot> = sync_dbs
            .iter()
            .chain(&async_dbs)
            .map(|db| db.latest().clone())
            .collect();
        let mut handles: Vec<Vec<RootHandle>> = vec![Vec::new(); 3];
        let mut expected = Vec::new();
        for block in 1..=6u64 {
            let w = wide_writes(block, 2_048);
            model.extend(w.clone());
            expected.push(rebuilt_root(&model));
            for db in &mut sync_dbs {
                assert_eq!(db.commit(&w), expected[block as usize - 1], "block {block}");
            }
            // Not waited for: the next commit may find this root pending.
            for (db, handles) in async_dbs.iter_mut().zip(&mut handles) {
                handles.push(db.commit_async(&w));
            }
            pins.extend(
                sync_dbs
                    .iter()
                    .chain(&async_dbs)
                    .map(|db| db.latest().clone()),
            );
        }
        for handles in &handles {
            let roots: Vec<H256> = handles.iter().map(RootHandle::wait).collect();
            assert_eq!(roots, expected);
        }
        let contents = backend_contents(&sync_dbs[0]);
        let stats = sync_dbs[0].flat_stats();
        assert_eq!(contents.len(), 7);
        for db in sync_dbs.iter().chain(&async_dbs) {
            assert_eq!(backend_contents(db), contents);
            assert_eq!(db.flat_stats(), stats);
            assert_eq!(db.latest().height(), 6);
        }
    }

    #[test]
    fn an_async_commit_while_the_previous_root_is_pending_matches_the_oracle() {
        // The interleaving by hand, so that it is certain: what the
        // previous block's hashing thread holds — a clone of the trie with
        // nothing hashed yet — is held here across the next `commit_async`.
        for threads in [1usize, 2, 4] {
            let mut model = wide_writes(0, 300);
            let mut db = mem_db(&model, threads);
            let first = wide_writes(1, 900);
            model.extend(first.clone());
            let first_root = rebuilt_root(&model);
            let (height, pending) = db.apply_writes(&first, Mpt::clone);
            assert_eq!(height, 1);
            assert!(!pending.root_cached());
            let second = wide_writes(2, 900);
            model.extend(second.clone());
            let handle = db.commit_async(&second);
            assert_eq!(handle.wait(), rebuilt_root(&model), "{threads} threads");
            assert_eq!(pending.root_parallel(threads), first_root);
            assert_eq!(db.get(&key(7)), model[&key(7)]);
        }
    }

    /// An in-memory backend that refuses the batch of one height.
    #[derive(Debug)]
    struct RefusesHeight(crate::MemBackend, u64);

    impl StateBackend for RefusesHeight {
        fn name(&self) -> &'static str {
            "refuses"
        }
        fn get(&self, key: &StateKey, as_of: u64) -> Option<U256> {
            self.0.get(key, as_of)
        }
        fn apply_batch(&self, height: u64, writes: &WriteSet) {
            assert!(height != self.1, "the backend refuses block {height}");
            self.0.apply_batch(height, writes);
        }
        fn tip(&self) -> u64 {
            self.0.tip()
        }
        fn iter_as_of(&self, as_of: u64) -> Vec<(StateKey, U256)> {
            self.0.iter_as_of(as_of)
        }
        fn stats(&self) -> BackendStats {
            self.0.stats()
        }
    }

    #[test]
    fn a_backend_that_panics_beside_the_trie_update_fails_the_commit_and_leaves_latest() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for threads in [1usize, 2] {
            let backend = Arc::new(RefusesHeight(crate::MemBackend::new(), 2));
            let mut db = StateDb::with_backend(backend, wide_writes(0, 50));
            db.set_hash_threads(threads);
            let first = wide_writes(1, 600);
            db.commit(&first);
            let before = db.latest().clone();
            let panic = catch_unwind(AssertUnwindSafe(|| db.commit(&wide_writes(2, 600))))
                .expect_err("the batch of block 2 is refused");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("refuses block 2"), "{message}");
            // `latest` is the snapshot of block 1 still, and no root was
            // recorded for a block that did not commit.
            assert_eq!(db.height(), 1);
            assert_eq!(db.root_at(2), None);
            for (key, value) in &first {
                assert_eq!(db.get(key), *value);
                assert_eq!(before.get(key), *value);
            }
        }
    }

    #[test]
    fn clearing_an_absent_key_leaves_a_hashed_trie_hashed() {
        let mut db = StateDb::new();
        let root = db.commit(&wide_writes(1, 100));
        assert!(db.trie.root_cached());
        // Zero writes to keys the trie never held: `Mpt::remove` looks
        // before it clears any cached reference.
        db.apply_writes(&writes(&[(5_000, 0), (5_001, 0)]), |_| ());
        assert!(db.trie.root_cached());
        assert_eq!(db.trie.root(), root);
    }

    #[test]
    #[should_panic(expected = "state root of block 7 was never computed")]
    fn a_hashing_thread_that_dies_fails_its_waiters() {
        let (handle, promise) = RootHandle::pending(7);
        assert_eq!(handle.try_root(), None);
        // What unwinding out of the spawned closure does.
        drop(promise);
        handle.wait();
    }

    #[test]
    fn back_to_back_async_commits_resolve_independently() {
        let mut db = StateDb::new();
        let h1 = db.commit_async(&writes(&[(1, 10)]));
        let h2 = db.commit_async(&writes(&[(2, 20)]));
        let h3 = db.commit_async(&writes(&[(1, 0)]));
        let (r1, r2, r3) = (h1.wait(), h2.wait(), h3.wait());
        assert_ne!(r1, r2);
        assert_ne!(r2, r3);
        let mut oracle = StateDb::new();
        oracle.commit(&writes(&[(1, 10)]));
        oracle.commit(&writes(&[(2, 20)]));
        assert_eq!(oracle.commit(&writes(&[(1, 0)])), r3);
        assert_eq!(db.root_at(1), Some(r1));
        assert_eq!(db.root_at(2), Some(r2));
        assert_eq!(db.root_at(3), Some(r3));
    }

    #[test]
    fn try_root_resolves_eventually() {
        let mut db = StateDb::new();
        let handle = db.commit_async(&writes(&[(1, 10)]));
        let root = handle.wait();
        assert_eq!(handle.try_root(), Some(root));
        assert_eq!(RootHandle::ready(root).try_root(), Some(root));
    }

    #[test]
    fn backend_db_matches_plain_db() {
        use crate::{LsmBackend, LsmOptions};
        let genesis = vec![(key(1), U256::from(5u64)), (key(2), U256::from(6u64))];
        let mut model: WriteSet = genesis.iter().copied().collect();
        let mut mem = StateDb::with_genesis(genesis.clone());
        let mut lsm = StateDb::with_backend(Arc::new(LsmBackend::new(LsmOptions::tiny())), genesis);
        assert_eq!(mem.current_root(), rebuilt_root(&model));
        assert_eq!(lsm.current_root(), rebuilt_root(&model));
        assert_eq!(mem.backend_name(), "mem");
        assert_eq!(lsm.backend_name(), "lsm");
        for block in 1..=20u64 {
            let w = writes(&[(block % 7, block), (block % 3, block * 2), (50 + block, 1)]);
            model.extend(w.clone());
            let r = rebuilt_root(&model);
            assert_eq!(mem.commit(&w), r, "mem block {block}");
            assert_eq!(lsm.commit(&w), r, "lsm block {block}");
            for i in 0..8u64 {
                let want = model.get(&key(i)).copied().unwrap_or(U256::ZERO);
                assert_eq!(mem.get(&key(i)), want, "mem key {i}");
                assert_eq!(lsm.get(&key(i)), want, "lsm key {i}");
            }
        }
        assert_eq!(mem.backend_stats().expect("always some").batches, 21);
        assert!(lsm.backend_stats().expect("always some").writes > 0);
        // The LSM store reads through its own flat cache; the in-memory
        // store has none.
        assert!(lsm.flat_stats().expect("stats").fills > 0);
        assert_eq!(mem.flat_stats(), None);
    }

    mod genesis {
        use super::*;
        use crate::{LsmBackend, LsmOptions, MemBackend};
        use proptest::prelude::*;

        /// Values from zero to ones whose `rlp` is 33 bytes long.
        fn value(drawn: u8) -> U256 {
            match drawn % 5 {
                0 => U256::ZERO,
                1 => U256::from(u64::from(drawn)),
                2 => U256::from(0x80u64),
                3 => U256::from(u64::MAX - u64::from(drawn)),
                _ => U256::MAX,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            /// A genesis built on any number of hashing workers is the
            /// trie the allocation's inserts give — zeros dropped, of equal
            /// keys the last — with the same value under every key, and its
            /// first commit gives the inserted trie's root; over either
            /// backend, too.
            #[test]
            fn a_genesis_is_the_inserted_trie_on_every_worker_count_and_backend(
                drawn in prop::collection::vec((0u64..150, any::<u8>()), 0..300),
                block in prop::collection::vec((0u64..200, any::<u8>()), 1..30),
            ) {
                let entries: Vec<(StateKey, U256)> =
                    drawn.iter().map(|&(k, v)| (key(k), value(v))).collect();
                let mut model: WriteSet =
                    entries.iter().copied().filter(|(_, v)| !v.is_zero()).collect();
                let mut inserted = Mpt::new();
                for (key, value) in &model {
                    inserted.insert(keccak256(&key.to_bytes()).as_bytes(), trie_value(*value));
                }
                let genesis = inserted.root();
                let allocated = model.clone();
                let w: WriteSet = block.iter().map(|&(k, v)| (key(k), value(v))).collect();
                model.extend(w.clone());
                let committed = rebuilt_root(&model);
                let trie_keys: Vec<H256> = (0..150).map(|k| keccak256(&key(k).to_bytes())).collect();
                for threads in [1usize, 2, 3, 8] {
                    let mut db = StateDb::genesis(entries.clone(), Arc::new(MemBackend::new()), threads);
                    prop_assert_eq!(db.current_root(), genesis);
                    for trie_key in &trie_keys {
                        prop_assert_eq!(
                            db.trie.get_ref(trie_key.as_bytes()),
                            inserted.get_ref(trie_key.as_bytes())
                        );
                    }
                    prop_assert_eq!(db.commit(&w), committed);
                }
                let backends: [Arc<dyn StateBackend>; 2] =
                    [Arc::new(MemBackend::new()), Arc::new(LsmBackend::new(LsmOptions::tiny()))];
                prop_assert_eq!(StateDb::with_genesis(entries.clone()).current_root(), genesis);
                for backend in backends {
                    let mut db = StateDb::with_backend(backend, entries.clone());
                    prop_assert_eq!(db.current_root(), genesis);
                    for k in 0..150 {
                        let allocated = allocated.get(&key(k)).copied().unwrap_or(U256::ZERO);
                        prop_assert_eq!(db.get(&key(k)), allocated);
                    }
                    prop_assert_eq!(db.commit(&w), committed);
                }
            }
        }
    }

    #[test]
    fn backend_clones_share_storage_idempotently() {
        use crate::MemBackend;
        let genesis = vec![(key(1), U256::from(5u64))];
        let mut db = StateDb::with_backend(
            Arc::new(MemBackend::new()) as Arc<dyn StateBackend>,
            genesis,
        );
        // A clone shares the backend Arc and re-commits identical batches
        // after the original has landed them: it layers them over its own
        // snapshot, and reads and roots agree.
        let mut clone = db.clone();
        for block in 1..=5u64 {
            let w = writes(&[(block, block * 10)]);
            let r1 = db.commit(&w);
            let r2 = clone.commit(&w);
            assert_eq!(r1, r2, "block {block}");
        }
        assert_eq!(db.get(&key(3)), U256::from(30u64));
        assert_eq!(clone.get(&key(3)), U256::from(30u64));
    }
}
