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
//! Each slot also carries the *reverse waiter index* for its key: the
//! transactions suspended because a read of the key met a pending version.
//! Any change to a version of the key drains them under the same lock hold
//! that makes the change, which is what lets the executor re-admit exactly
//! the transactions the change may have unblocked.
//!
//! A block's life in the store has three phases. It is *bound* by one
//! thread with exclusive access ([`ShardedSequences::bind`]: predicted
//! entries go in through `Mutex::get_mut`, so no lock is taken, counted or
//! shown to the hook). It is then shared, and every access goes through
//! [`ShardedSequences::shard_for`], which counts the acquisition in the shard
//! it just locked — the workers share no counter, only the sum read at the
//! end ([`ShardedSequences::lock_acquisitions`]). Once nothing can change it
//! any more it is *flushed* one shard at a time
//! ([`ShardedSequences::flush_shard`], each shard into its own recycled
//! buffer) — shards are independent, so the engine's workers flush them in
//! parallel, [`ShardedSequences::flushed`] merges the runs, and
//! [`ShardedSequences::final_writes`] is the two in sequence.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use dmvcc_primitives::U256;
use dmvcc_state::{KeyId, KeyInterner, Snapshot, StateKey, WriteSet};

use crate::access::{AccessOp, AccessSequence, ReadResolution, VersionWriteEffect};
use crate::hook::SchedHook;

/// Shard count. Sixteen shards keep the collision probability low for
/// realistic working sets (a few hundred hot keys) while the array of
/// mutexes still fits comfortably in cache. A power of two, so the shard
/// index is a mask and the slot index a shift.
pub(crate) const SHARDS: usize = 16;
const MASK: usize = SHARDS - 1;
const BITS: u32 = SHARDS.trailing_zeros();
const _: () = assert!(SHARDS.is_power_of_two());

/// Per-key state within a shard: the access sequence, the suspended readers,
/// and a one-value snapshot cache (the block snapshot is immutable, so the
/// first overlay-chain probe answers every later snapshot-base read).
#[derive(Debug, Default)]
struct SeqSlot {
    seq: AccessSequence,
    waiters: Vec<usize>,
    snap: Option<U256>,
}

impl SeqSlot {
    /// Clears for block reuse, returning the heap bytes kept alive.
    fn reset(&mut self) -> u64 {
        let bytes = self.seq.retained_bytes()
            + (self.waiters.capacity() * std::mem::size_of::<usize>()) as u64;
        self.seq.clear();
        self.waiters.clear();
        self.snap = None;
        bytes
    }
}

/// One shard: the slots of the key ids that map here.
#[derive(Debug, Default)]
pub struct Shard {
    slots: Vec<SeqSlot>,
    /// The shard's run of the commit flush, sorted by key
    /// ([`ShardedSequences::flush_shard`]).
    flushed: Vec<(StateKey, U256)>,
    /// Times [`ShardedSequences::shard_for`] locked this shard — written
    /// under the lock it counts, so counting shares no cache line that the
    /// lock does not already move.
    locks: u64,
}

impl Shard {
    #[inline]
    fn slot_index(&self, id: KeyId) -> usize {
        id.index() >> BITS
    }

    #[inline]
    fn slot_mut(&mut self, id: KeyId) -> &mut SeqSlot {
        let index = self.slot_index(id);
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, SeqSlot::default);
        }
        &mut self.slots[index]
    }

    /// The sequence for `id`, creating its slot on first use.
    pub fn sequence_mut(&mut self, id: KeyId) -> &mut AccessSequence {
        &mut self.slot_mut(id).seq
    }

    /// The sequence for `id`, if its slot exists. A missing slot means no
    /// access was recorded or predicted — reads resolve to the snapshot.
    pub fn sequence(&self, id: KeyId) -> Option<&AccessSequence> {
        self.slots.get(self.slot_index(id)).map(|slot| &slot.seq)
    }

    /// [`AccessSequence::resolve_read`] with the slot's cached snapshot
    /// value as the base (probing the snapshot's overlay chain at most once
    /// per key per block). Does **not** mark the read — call
    /// [`Self::mark_read`] once the value is consumed.
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

    /// Marks `tx`'s read on `id` as performed.
    pub fn mark_read(&mut self, id: KeyId, tx: usize) {
        self.slot_mut(id).seq.mark_read(tx);
    }

    /// Records that `tx` is suspended until a version of `id` changes. The
    /// registration must happen under the same lock hold as the resolve
    /// that came back blocked, so a concurrent change either drains the
    /// waiter or is visible to the next resolve.
    pub fn register_waiter(&mut self, id: KeyId, tx: usize) {
        let list = &mut self.slot_mut(id).waiters;
        if !list.contains(&tx) {
            list.push(tx);
        }
    }

    /// Removes and returns the transactions suspended on `id`, if any.
    pub fn drain_waiters(&mut self, id: KeyId) -> Vec<usize> {
        let index = self.slot_index(id);
        match self.slots.get_mut(index) {
            Some(slot) => std::mem::take(&mut slot.waiters),
            None => Vec::new(),
        }
    }
}

/// One change to a transaction's version of a key, batched through
/// [`ShardedSequences::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VersionOp {
    /// [`AccessSequence::version_write`]; the flag marks an ω̄ delta.
    Publish(U256, bool),
    /// [`AccessSequence::drop_version`].
    Drop,
    /// [`AccessSequence::reset`].
    Reset,
    /// [`AccessSequence::rollback_unpredicted`].
    Rollback,
}

/// What one key's change did: the sequence's effect, and the transactions
/// that were suspended on the key (drained under the same lock hold).
pub(crate) type Staged = (VersionWriteEffect, Vec<usize>);

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
    /// schedule) and each shard's run is applied, and its keys' waiters
    /// drained, under a single lock hold. `live` is re-checked under every
    /// shard lock — an abort that got in between must not have its resets
    /// overwritten — and a `false` stops the batch, which then returns
    /// `false`. `after` runs strictly after each shard unlock with the run
    /// and what it did, so it may take other locks.
    pub(crate) fn apply_batch(
        &self,
        tx: usize,
        ops: &mut [(KeyId, VersionOp)],
        live: impl Fn() -> bool,
        mut after: impl FnMut(&[(KeyId, VersionOp)], &mut Vec<Staged>),
    ) -> bool {
        ops.sort_by_key(|&(id, _)| self.shard_index_of(id));
        let mut staged: Vec<Staged> = Vec::with_capacity(ops.len());
        for group in ops.chunk_by(|a, b| self.shard_index_of(a.0) == self.shard_index_of(b.0)) {
            {
                let mut shard = self.shard_for(group[0].0);
                if !live() {
                    return false;
                }
                for &(id, op) in group {
                    let seq = shard.sequence_mut(id);
                    let effect = match op {
                        VersionOp::Publish(value, delta) => seq.version_write(tx, value, delta),
                        VersionOp::Drop => seq.drop_version(tx),
                        VersionOp::Reset => seq.reset(tx),
                        VersionOp::Rollback => seq.rollback_unpredicted(tx),
                    };
                    staged.push((effect, shard.drain_waiters(id)));
                }
            }
            after(group, &mut staged);
        }
        true
    }

    /// Total [`Self::shard_for`] acquisitions so far, summed over the
    /// shards (`ExecutorStats::shard_lock_acquisitions`).
    pub fn lock_acquisitions(&self) -> u64 {
        self.shards.iter().map(|shard| shard.lock().locks).sum()
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

    /// The commit-phase flush of one shard (paper Algorithm 1 line 20):
    /// the final write of each of its sequences, merged with trailing
    /// deltas, into the shard's own buffer, sorted by key.
    ///
    /// Writes whose value equals the snapshot value are omitted — they are
    /// no-ops for both the snapshot map and the trie, and omitting them
    /// keeps this flush byte-identical with the serial executor's. The
    /// snapshot value is the slot's cached one whenever a read of the block
    /// resolved to the base, and is looked up at most once otherwise.
    ///
    /// The shard must be quiescent: every transaction final, no attempt
    /// able to touch it again.
    pub fn flush_shard(&self, shard_index: usize, snapshot: &Snapshot) {
        let mut shard = self.shards[shard_index].lock();
        let Shard { slots, flushed, .. } = &mut *shard;
        flushed.clear();
        for (slot_index, slot) in slots.iter().enumerate() {
            if slot.seq.entries().is_empty() {
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

    /// What [`Self::flush_shard`] left in the shards, as one sorted
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

    /// The commit-phase flush of every shard, as one sorted [`WriteSet`].
    pub fn final_writes(&self, snapshot: &Snapshot) -> WriteSet {
        for shard_index in 0..SHARDS {
            self.flush_shard(shard_index, snapshot);
        }
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
    fn waiters_register_dedup_and_drain() {
        let sharded = ShardedSequences::new();
        let k = sharded.intern(key(1));
        {
            let mut shard = sharded.shard_for(k);
            shard.register_waiter(k, 3);
            shard.register_waiter(k, 5);
            shard.register_waiter(k, 3);
        }
        {
            let mut shard = sharded.shard_for(k);
            assert_eq!(shard.drain_waiters(k), vec![3, 5]);
            assert!(shard.drain_waiters(k).is_empty());
        }
        // `intern` takes no shard lock; the two blocks above took one each.
        assert_eq!(sharded.lock_acquisitions(), 2);
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
        assert!(next
            .shard_for(id)
            .sequence(id)
            .is_none_or(|seq| seq.entries().is_empty()));
        assert!(next.final_writes(&Snapshot::empty()).is_empty());
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
            prop_assert_eq!(sharded.final_writes(&snapshot), flat_writes.clone());
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
            prop_assert_eq!(sharded.final_writes(&snapshot), flat_writes.clone());
            prop_assert_eq!(per_shard(&sharded), flat_writes);
        }
    }
}
