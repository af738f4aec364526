//! Sharded access sequences: the block's one multi-version store, with
//! per-key locking. Every threaded engine reads and publishes through it;
//! the engines differ in the scheduler on top.
//!
//! One lock over every [`AccessSequence`] would serialize transactions
//! that touch disjoint state items. This module spreads the sequences over
//! [`SHARDS`] shards, each a `parking_lot::Mutex` over a dense slot array:
//! transactions touching different shards proceed fully in parallel, and
//! contention only appears for keys that genuinely collide.
//!
//! Shards are addressed by interned [`KeyId`]s, not hashed [`StateKey`]s:
//! the block's [`KeyInterner`] assigns dense u32 ids at C-SAG bind time,
//! the shard is `id & (SHARDS-1)` and the slot within the shard is
//! `id >> log2(SHARDS)` — a direct vector index, no 52-byte hash per
//! probe. Shard storage — the slots, the interner's tables, the flush
//! buffers — is recycled across blocks ([`ShardedSequences::for_block`]):
//! everything is cleared in place, keeping every buffer's capacity, and the
//! bytes served from recycled memory are reported as
//! `ExecutorStats::alloc_bytes_saved`.
//!
//! A read that meets a pending version becomes a counted read of its key
//! under the lock hold that saw it blocked ([`Shard::read`]), so the
//! sequence itself says who waits on what: a batch of changes reports the
//! readers it turned into the caller's [`VersionWriteEffect`], which a
//! worker keeps from one batch to the next, so a publication allocates
//! nothing.
//!
//! A block's life in the store has three phases. It is *bound* by one
//! thread with exclusive access ([`ShardedSequences::bind`]: predicted
//! entries go in through `Mutex::get_mut`, so no lock is taken, counted or
//! shown to the hook). It is then shared, and every access goes through
//! [`ShardedSequences::shard_for`], which counts the acquisition in the shard
//! it just locked — the workers share no counter, only the sum read at the
//! end ([`ShardedSequences::lock_acquisitions`]). Once the engine's workers
//! have returned nothing can change it any more, and it is *flushed*
//! ([`ShardedSequences::flush`]): shards are independent, so workers take
//! them one at a time, each into the shard's own recycled buffer;
//! [`ShardedSequences::flushed`] merges the runs, and
//! [`ShardedSequences::final_writes`] is the two in sequence.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use dmvcc_primitives::workers::{on_workers, Shares};
use dmvcc_primitives::U256;
use dmvcc_state::{KeyId, KeyInterner, Snapshot, StateKey, WriteSet};

use crate::access::{AccessOp, AccessSequence, ReadResolution, VersionOp, VersionWriteEffect};
use crate::hook::SchedHook;

/// Shard count. Sixteen shards keep the collision probability low for
/// realistic working sets (a few hundred hot keys) while the array of
/// mutexes still fits comfortably in cache. A power of two, so the shard
/// index is a mask and the slot index a shift.
pub(crate) const SHARDS: usize = 16;
const MASK: usize = SHARDS - 1;
const BITS: u32 = SHARDS.trailing_zeros();
const _: () = assert!(SHARDS.is_power_of_two());

/// Per-key state within a shard: the access sequence and a one-value
/// snapshot cache (the block snapshot is immutable, so the first
/// overlay-chain probe answers every later snapshot-base read).
#[derive(Debug, Default)]
struct SeqSlot {
    seq: AccessSequence,
    snap: Option<U256>,
}

impl SeqSlot {
    /// Clears for block reuse, returning the heap bytes kept alive.
    fn reset(&mut self) -> u64 {
        let bytes = self.seq.retained_bytes();
        self.seq.clear();
        self.snap = None;
        bytes
    }
}

/// One shard: the slots of the key ids that map here.
#[derive(Debug, Default)]
pub struct Shard {
    slots: Vec<SeqSlot>,
    /// The shard's run of the commit flush, sorted by key
    /// ([`ShardedSequences::flush`]).
    flushed: Vec<(StateKey, U256)>,
    /// Times [`ShardedSequences::shard_for`] locked this shard — written
    /// under the lock it counts, so counting shares no cache line that the
    /// lock does not already move.
    locks: u64,
    /// Sequence entries the changes of [`ShardedSequences::apply_batch`]
    /// visited here beyond the changed ones, counted the same way.
    visited: u64,
}

impl Shard {
    #[inline]
    fn slot_mut(&mut self, id: KeyId) -> &mut SeqSlot {
        let index = id.index() >> BITS;
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, SeqSlot::default);
        }
        &mut self.slots[index]
    }

    /// The sequence for `id`, creating its slot on first use.
    pub fn sequence_mut(&mut self, id: KeyId) -> &mut AccessSequence {
        &mut self.slot_mut(id).seq
    }

    /// [`AccessSequence::resolve_read`] with the slot's cached snapshot
    /// value as the base (probing the snapshot's overlay chain at most once
    /// per key per block). Does **not** mark the read — [`Self::read`]
    /// resolves and marks in one search.
    pub fn resolve_read(
        &mut self,
        id: KeyId,
        tx: usize,
        key: &StateKey,
        snapshot: &Snapshot,
    ) -> ReadResolution {
        let slot = self.slot_mut(id);
        let snap = &mut slot.snap;
        slot.seq
            .resolve_read(tx, || *snap.get_or_insert_with(|| snapshot.get(key)))
    }

    /// [`Self::resolve_read`], marking a read that resolves as performed
    /// and counting one that blocks — [`AccessSequence::read`], one search
    /// for all of it. The `bool` is `true` for a read counted only now.
    pub fn read(
        &mut self,
        id: KeyId,
        tx: usize,
        key: &StateKey,
        snapshot: &Snapshot,
    ) -> (ReadResolution, bool) {
        let slot = self.slot_mut(id);
        let snap = &mut slot.snap;
        slot.seq
            .read(tx, || *snap.get_or_insert_with(|| snapshot.get(key)))
    }
}

/// Recycled shard storage: the mutexes, slot arrays and flush buffers of a
/// finished block and its interner's tables, handed back to the executor's
/// block arena ([`ShardedSequences::into_storage`]) and reused by the next
/// [`ShardedSequences::for_block`] with every buffer's capacity intact.
#[derive(Debug)]
pub struct ShardStorage {
    shards: Vec<Mutex<Shard>>,
    interner: KeyInterner,
}

/// All access sequences of one block, spread over id-addressed shards.
#[derive(Debug)]
pub struct ShardedSequences {
    shards: Vec<Mutex<Shard>>,
    interner: KeyInterner,
    /// Optional scheduling hook, consulted inside the shard critical
    /// section (`None` in production — one predicted-not-taken branch).
    hook: Option<Arc<dyn SchedHook>>,
}

impl ShardedSequences {
    /// Creates an empty set with `SHARDS` shards and a fresh interner.
    pub fn new() -> Self {
        ShardedSequences::for_block(None, None).0
    }

    /// Builds the empty sequence set for one block, its interner included:
    /// `recycled` is the previous block's storage, reused in place. Returns
    /// the set and the heap bytes served from recycled buffers instead of
    /// the allocator.
    pub fn for_block(
        recycled: Option<ShardStorage>,
        hook: Option<Arc<dyn SchedHook>>,
    ) -> (Self, u64) {
        let mut bytes_saved = 0u64;
        let storage = match recycled {
            Some(mut storage) => {
                bytes_saved += storage.interner.reset();
                for shard in &mut storage.shards {
                    let shard = shard.get_mut();
                    shard.locks = 0;
                    shard.visited = 0;
                    bytes_saved += (shard.slots.capacity() * std::mem::size_of::<SeqSlot>()
                        + shard.flushed.capacity() * std::mem::size_of::<(StateKey, U256)>())
                        as u64;
                    for slot in &mut shard.slots {
                        bytes_saved += slot.reset();
                    }
                    shard.flushed.clear();
                }
                storage
            }
            None => ShardStorage {
                shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
                interner: KeyInterner::new(),
            },
        };
        (
            ShardedSequences {
                shards: storage.shards,
                interner: storage.interner,
                hook,
            },
            bytes_saved,
        )
    }

    /// Tears the set down into recyclable storage for the next block.
    pub fn into_storage(self) -> ShardStorage {
        ShardStorage {
            shards: self.shards,
            interner: self.interner,
        }
    }

    /// The block's key interner.
    pub fn interner(&self) -> &KeyInterner {
        &self.interner
    }

    /// Interns `key`, assigning a dense id if it was not predicted.
    #[inline]
    pub fn intern(&self, key: StateKey) -> KeyId {
        self.interner.intern(key)
    }

    /// The shard index owning `id` — a mask, not a hash.
    #[inline]
    pub fn shard_index_of(&self, id: KeyId) -> usize {
        id.index() & MASK
    }

    /// Locks and returns the shard owning `id`. Callers must not acquire
    /// a second shard lock while holding the guard.
    pub fn shard_for(&self, id: KeyId) -> MutexGuard<'_, Shard> {
        let index = self.shard_index_of(id);
        let mut guard = self.shards[index].lock();
        guard.locks += 1;
        if let Some(hook) = &self.hook {
            hook.on_shard_lock(index);
        }
        guard
    }

    /// Applies `ops` to `tx`'s entries, taking each involved shard lock
    /// **once**: the ops are sorted by shard (stably — same-shard keys keep
    /// their order, so the outcome is deterministic given a deterministic
    /// schedule) and each shard's run is applied under a single lock hold.
    /// `live` is re-checked under every shard lock — an abort that got in
    /// between must not have its resets overwritten — and a `false` stops
    /// the batch, which then returns `false`. `after` runs strictly after
    /// each shard unlock with the run and what it did (`effect`, emptied
    /// before each run and owned by the caller, so a batch allocates only
    /// when it outgrows every earlier one), so it may take other locks.
    pub(crate) fn apply_batch(
        &self,
        tx: usize,
        ops: &mut [(KeyId, VersionOp)],
        live: impl Fn() -> bool,
        effect: &mut VersionWriteEffect,
        mut after: impl FnMut(&[(KeyId, VersionOp)], &VersionWriteEffect),
    ) -> bool {
        ops.sort_by_key(|&(id, _)| self.shard_index_of(id));
        for group in ops.chunk_by(|a, b| self.shard_index_of(a.0) == self.shard_index_of(b.0)) {
            effect.clear();
            {
                let mut shard = self.shard_for(group[0].0);
                if !live() {
                    return false;
                }
                for &(id, op) in group {
                    let visited = shard.sequence_mut(id).apply(tx, op, effect);
                    shard.visited += visited as u64;
                }
            }
            after(group, effect);
        }
        true
    }

    /// Total [`Self::shard_for`] acquisitions so far, summed over the
    /// shards (`ExecutorStats::shard_lock_acquisitions`).
    pub fn lock_acquisitions(&self) -> u64 {
        self.shards.iter().map(|shard| shard.lock().locks).sum()
    }

    /// Sequence entries the changes applied so far visited beyond the
    /// changed ones, summed over the shards (`ExecutorStats::entries_visited`).
    pub fn entries_visited(&self) -> u64 {
        self.shards.iter().map(|shard| shard.lock().visited).sum()
    }

    /// Bind-time access for the one thread that builds the block, before
    /// the set is shared: the interner's frozen tier, and a function that
    /// registers a predicted access `(id, tx, op)` (the preprocessing of
    /// §IV-A). Exclusive access is the synchronization — no shard lock is
    /// taken, so none is counted and the hook sees none.
    pub fn bind(&mut self) -> (&mut KeyInterner, impl FnMut(KeyId, usize, AccessOp) + '_) {
        let (interner, shards) = (&mut self.interner, &mut self.shards);
        let predict = move |id: KeyId, tx, op| {
            let shard = shards[id.index() & MASK].get_mut();
            shard.sequence_mut(id).predict(tx, op);
        };
        (interner, predict)
    }

    /// The commit-phase flush (paper Algorithm 1 line 20): every shard's
    /// final writes into the shard's own buffer, sorted by key, on up to
    /// `threads` workers ([`on_workers`]), one shard a share. Read the
    /// result with [`Self::flushed`].
    ///
    /// The store must be quiescent: every transaction final, no attempt
    /// able to touch it again — what the return of the workers' own
    /// [`on_workers`] call guarantees.
    pub fn flush(&self, snapshot: &Snapshot, threads: usize) {
        let shares = Shares::new(0..SHARDS);
        on_workers(threads.min(SHARDS), || {
            while let Some(shard) = shares.next() {
                self.flush_shard(shard, snapshot);
            }
        });
    }

    /// The flush of one shard: the final write of each of its sequences,
    /// merged with trailing deltas.
    ///
    /// Writes whose value equals the snapshot value are omitted — they are
    /// no-ops for both the snapshot map and the trie, and omitting them
    /// keeps this flush byte-identical with the serial executor's. The
    /// snapshot value is the slot's cached one whenever a read of the block
    /// resolved to the base, and is looked up at most once otherwise.
    fn flush_shard(&self, shard_index: usize, snapshot: &Snapshot) {
        let mut shard = self.shards[shard_index].lock();
        let Shard { slots, flushed, .. } = &mut *shard;
        flushed.clear();
        for (slot_index, slot) in slots.iter().enumerate() {
            if slot.seq.is_empty() {
                continue;
            }
            let id = KeyId::from_index((slot_index << BITS) | shard_index);
            let key = self.interner.resolve(id);
            let mut snap = slot.snap;
            let mut base = || *snap.get_or_insert_with(|| snapshot.get(&key));
            if let Some(value) = slot.seq.final_value(&mut base) {
                if value != base() {
                    flushed.push((key, value));
                }
            }
        }
        flushed.sort_unstable_by_key(|&(key, _)| key);
    }

    /// What [`Self::flush`] left in the shards, as one sorted
    /// [`WriteSet`]: the runs are sorted, so the map's bulk build merges
    /// them.
    pub fn flushed(&self) -> WriteSet {
        let runs: Vec<_> = self.shards.iter().map(|shard| shard.lock()).collect();
        let mut writes = Vec::with_capacity(runs.iter().map(|run| run.flushed.len()).sum());
        for run in &runs {
            writes.extend_from_slice(&run.flushed);
        }
        writes.into_iter().collect()
    }

    /// [`Self::flush`] on up to `threads` workers, then [`Self::flushed`].
    pub fn final_writes(&self, snapshot: &Snapshot, threads: usize) -> WriteSet {
        self.flush(snapshot, threads);
        self.flushed()
    }
}

impl Default for ShardedSequences {
    fn default() -> Self {
        ShardedSequences::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::{Address, U256};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key(i: u64) -> StateKey {
        StateKey::storage(Address::from_u64(1 + i % 3), U256::from(i))
    }

    /// `n` keys interned so that key `k` gets id `k * SHARDS / 4`: four
    /// shards in use, and keys `k` and `k + 4` a full `SHARDS` apart, so
    /// they share a shard lock (different slots).
    fn colliding_keys(sharded: &ShardedSequences, n: usize) -> Vec<StateKey> {
        let stride = SHARDS / 4;
        let keys: Vec<StateKey> = (0..(n * stride) as u64).map(key).collect();
        for &k in &keys {
            sharded.intern(k);
        }
        keys.into_iter().step_by(stride).collect()
    }

    #[test]
    fn ids_partition_without_collisions() {
        // The id→(shard, slot) mapping is bijective: distinct ids never
        // share a slot, and the same id always routes identically.
        let sharded = ShardedSequences::new();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..4 * SHARDS as u64 {
            let id = sharded.intern(key(i));
            let shard = sharded.shard_index_of(id);
            let slot = id.index() / SHARDS;
            assert!(seen.insert((shard, slot)), "collision at id {id:?}");
            assert_eq!(sharded.shard_index_of(sharded.intern(key(i))), shard);
        }
    }

    #[test]
    fn recycled_storage_reuses_buffers_and_resets_state() {
        let mut sharded = ShardedSequences::new();
        let id = {
            let (interner, mut predict) = sharded.bind();
            let id = interner.preintern(key(1));
            predict(id, 0, AccessOp::Write);
            id
        };
        sharded
            .shard_for(id)
            .sequence_mut(id)
            .version_write(0, U256::from(9u64), false);
        let storage = sharded.into_storage();
        // Rebuild for a "next block": buffers reused, all sequence state
        // gone.
        let (next, bytes) = ShardedSequences::for_block(Some(storage), None);
        assert!(bytes > 0, "recycling should report reused bytes");
        assert_eq!(next.lock_acquisitions(), 0, "a block counts its own locks");
        let id = next.intern(key(1));
        assert!(next.shard_for(id).sequence_mut(id).is_empty());
        assert!(next.final_writes(&Snapshot::empty(), 1).is_empty());
    }

    #[test]
    fn snapshot_cache_serves_repeated_reads() {
        let sharded = ShardedSequences::new();
        let snapshot = Snapshot::from_entries([(key(5), U256::from(77u64))]);
        let id = sharded.intern(key(5));
        for tx in 0..3 {
            let got = sharded
                .shard_for(id)
                .resolve_read(id, tx, &key(5), &snapshot);
            assert_eq!(got, ReadResolution::Ready(U256::from(77u64)));
        }
        // `intern` takes no shard lock; each `shard_for` hold counts once.
        assert_eq!(sharded.lock_acquisitions(), 3);
    }

    /// One random operation against both representations.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Predict(u8),
        MarkRead,
        VersionWrite(u64, bool),
        DropVersion,
        Reset,
    }

    fn apply(op: Op, tx: usize, seq: &mut AccessSequence) {
        match op {
            Op::Predict(o) => {
                let op = match o % 4 {
                    0 => AccessOp::Read,
                    1 => AccessOp::Write,
                    2 => AccessOp::ReadWrite,
                    _ => AccessOp::Add,
                };
                seq.predict(tx, op);
            }
            Op::MarkRead => seq.mark_read(tx),
            Op::VersionWrite(v, delta) => {
                seq.version_write(tx, U256::from(v), delta);
            }
            Op::DropVersion => {
                seq.drop_version(tx);
            }
            Op::Reset => {
                seq.reset(tx);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 64,
            .. ProptestConfig::default()
        })]

        /// Sharding is a pure partitioning of the key space: replaying any
        /// operation stream against [`ShardedSequences`] and a flat
        /// per-key map of sequences yields identical final write sets and
        /// identical per-key read resolutions, with keys that share shards.
        #[test]
        fn sharded_equals_unsharded(
            ops in prop::collection::vec(
                (0u64..12, 0usize..8, 0u8..5, 0u8..4, 0u64..100, any::<bool>()),
                1..80,
            ),
        ) {
            let sharded = ShardedSequences::new();
            let keys = colliding_keys(&sharded, 12);
            let snapshot = Snapshot::from_entries(
                keys.iter().zip(1000u64..).map(|(&k, v)| (k, U256::from(v))),
            );
            let mut flat: BTreeMap<StateKey, AccessSequence> = BTreeMap::new();
            for (k, tx, opcode, predict_op, value, delta) in ops {
                let op = match opcode {
                    0 => Op::Predict(predict_op),
                    1 => Op::MarkRead,
                    2 => Op::VersionWrite(value, delta),
                    3 => Op::DropVersion,
                    _ => Op::Reset,
                };
                let state_key = keys[k as usize];
                let id = sharded.intern(state_key);
                apply(op, tx, flat.entry(state_key).or_default());
                apply(op, tx, sharded.shard_for(id).sequence_mut(id));
            }
            let flat_writes: WriteSet = flat
                .iter()
                .filter_map(|(key, seq)| Some((*key, seq.final_value(|| snapshot.get(key))?)))
                .filter(|(key, value)| *value != snapshot.get(key))
                .collect();
            // The flush shard by shard, in any order, is the same set. No
            // read has resolved yet, so every base comes from the snapshot.
            let per_shard = |sharded: &ShardedSequences| {
                for shard in (0..SHARDS).rev() {
                    sharded.flush_shard(shard, &snapshot);
                    let run = &sharded.shards[shard].lock().flushed;
                    assert!(run.is_sorted_by(|a, b| a.0 < b.0));
                }
                sharded.flushed()
            };
            prop_assert_eq!(sharded.final_writes(&snapshot, 2), flat_writes.clone());
            prop_assert_eq!(per_shard(&sharded), flat_writes.clone());
            // An untouched key has no flat sequence; an empty one resolves
            // the same way (to the snapshot).
            let untouched = AccessSequence::new();
            for &state_key in &keys {
                let id = sharded.intern(state_key);
                for tx in 0..8 {
                    let expected = flat
                        .get(&state_key)
                        .unwrap_or(&untouched)
                        .resolve_read(tx, || snapshot.get(&state_key));
                    let got = sharded
                        .shard_for(id)
                        .resolve_read(id, tx, &state_key, &snapshot);
                    prop_assert_eq!(got, expected);
                }
            }
            // The reads above left their base in every slot's cache: the
            // flush now takes it from there and must not change.
            prop_assert_eq!(sharded.final_writes(&snapshot, 2), flat_writes.clone());
            prop_assert_eq!(per_shard(&sharded), flat_writes);
        }
    }
}
