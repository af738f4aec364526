//! The flat-state cache of the LSM store: O(1) hot SLOADs over segment
//! files.
//!
//! LSM segment searches are fine for cold reads but far too slow for the
//! SLOAD inner loop. [`crate::LsmBackend`] therefore keeps a [`FlatCache`]:
//! a sharded hash map holding each key's **latest** version as a
//! `(height, value)` pair, so a warm read is one FxHash probe, taken before
//! the store's own lock (the shard comes from the same hash the shard's map
//! uses). The in-memory [`crate::MemBackend`] serves latest-state reads from
//! its own slots and keeps no such cache.
//!
//! # Invalidation
//!
//! A cache entry `(h, v)` asserts "`v` is the newest version of this key,
//! and it was written at (or read as latest at) height `h`". A read at
//! `as_of ≥ h` is served from the entry; a read at `as_of < h` is
//! historical and goes to the store, and fills nothing. The assertion holds
//! because the store fills the cache only under its `inner` lock:
//!
//! - `apply_batch` refreshes the entry of every written key (the genesis
//!   batch's too) under the write lock, before it publishes the new tip. A
//!   reader that sees the new tip finds the entries refreshed; a reader
//!   still at the old tip finds them newer than its `as_of` and reads the
//!   store, which waits for the batch to land.
//! - A read at the tip that misses reads the store and fills the entry
//!   under the read lock, so no batch lands between the read and the fill.
//!
//! The lock order is always the store's `inner` lock, then one cache shard;
//! a hit takes the shard alone. Since no fill races a batch, the height
//! guard — an entry is never replaced by an older version — settles no
//! race any more. It stays as the cache's own invariant, which costs
//! nothing: a fill probes the entry anyway.
//!
//! Zero values are cached like any other: a tombstone hit answers "this
//! key was cleared" without a segment search.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use dmvcc_primitives::U256;

use crate::backend::{shard_of, SHARDS};
use crate::interner::FxBuildHasher;
use crate::snapshot::WriteSet;
use crate::StateKey;

/// Counters specific to the flat cache (the store's I/O counters live in
/// [`crate::BackendStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlatStats {
    /// Reads answered from the cache.
    pub hits: u64,
    /// Reads that fell through to the store.
    pub misses: u64,
    /// Entries refreshed by write batches or miss-fills.
    pub fills: u64,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Current number of cached entries.
    pub entries: u64,
}

type Shard = HashMap<StateKey, (u64, U256), FxBuildHasher>;

/// Total cache capacity (entries across all shards).
const CAPACITY: usize = 1 << 20;

/// The latest version of recently read or written keys, sharded like
/// [`crate::MemBackend`]. A shard that is full when a new key arrives is
/// cleared wholesale: crude, O(1) amortized, and always safe, since the
/// cache is a pure accelerator.
#[derive(Debug)]
pub(crate) struct FlatCache {
    shards: Vec<RwLock<Shard>>,
    /// Entries per shard before the shard is evicted wholesale.
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    evictions: AtomicU64,
}

impl Default for FlatCache {
    fn default() -> Self {
        FlatCache::with_capacity(CAPACITY)
    }
}

impl FlatCache {
    /// An empty cache with room for ~`capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        FlatCache {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            capacity_per_shard: (capacity / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cached value of `key` for a read at `as_of`, counted as a hit;
    /// `None`, counted as a miss, when the read must go to the store.
    pub(crate) fn get(&self, key: &StateKey, as_of: u64) -> Option<U256> {
        let shard = self.shards[shard_of(key)]
            .read()
            .expect("flat lock poisoned");
        match shard.get(key) {
            Some(&(height, value)) if as_of >= height => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches `value` as `key`'s newest version at `height`: what a read at
    /// the tip found.
    pub(crate) fn fill(&self, key: &StateKey, height: u64, value: U256) {
        let mut shard = self.shards[shard_of(key)]
            .write()
            .expect("flat lock poisoned");
        self.insert(&mut shard, *key, height, value);
    }

    /// Refreshes the entry of every key `writes` holds, at `height`: each
    /// shard is locked once, and takes its keys in key order.
    pub(crate) fn fill_batch(&self, height: u64, writes: &WriteSet) {
        let mut by_shard: Vec<(usize, &StateKey, &U256)> = writes
            .iter()
            .map(|(key, value)| (shard_of(key), key, value))
            .collect();
        by_shard.sort_by_key(|&(at, ..)| at);
        for run in by_shard.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.shards[run[0].0].write().expect("flat lock poisoned");
            for &(_, key, value) in run {
                self.insert(&mut shard, *key, height, *value);
            }
        }
    }

    /// Installs `(height, value)` unless a newer entry is present.
    fn insert(&self, shard: &mut Shard, key: StateKey, height: u64, value: U256) {
        if let Some(entry) = shard.get_mut(&key) {
            if entry.0 <= height {
                *entry = (height, value);
                self.fills.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if shard.len() >= self.capacity_per_shard {
            self.evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        shard.insert(key, (height, value));
        self.fills.fetch_add(1, Ordering::Relaxed);
    }

    /// The cache's counters.
    pub(crate) fn stats(&self) -> FlatStats {
        FlatStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("flat lock poisoned").len() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LsmBackend, LsmOptions, StateBackend};
    use dmvcc_primitives::Address;
    use std::collections::BTreeMap;

    fn key(i: u64) -> StateKey {
        StateKey::storage(Address::from_u64(3), U256::from(i))
    }

    fn batch(pairs: &[(u64, u64)]) -> WriteSet {
        pairs
            .iter()
            .map(|&(k, v)| (key(k), U256::from(v)))
            .collect()
    }

    /// An LSM store at tiny thresholds whose cache has room for
    /// `capacity` entries.
    fn lsm_with_capacity(capacity: usize) -> LsmBackend {
        let mut lsm = LsmBackend::new(LsmOptions::tiny());
        lsm.cache = FlatCache::with_capacity(capacity);
        lsm
    }

    fn lsm() -> LsmBackend {
        LsmBackend::new(LsmOptions::tiny())
    }

    fn flat_stats(lsm: &LsmBackend) -> FlatStats {
        lsm.flat_stats().expect("the LSM store keeps a cache")
    }

    /// Every cached entry, in key order.
    fn cached(cache: &FlatCache) -> Vec<(StateKey, (u64, U256))> {
        let mut entries: Vec<_> = cache
            .shards
            .iter()
            .flat_map(|shard| {
                let shard = shard.read().expect("flat lock poisoned");
                shard.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
            })
            .collect();
        entries.sort_unstable_by_key(|(key, _)| *key);
        entries
    }

    #[test]
    fn writes_prime_the_cache() {
        let lsm = lsm();
        lsm.apply_batch(1, &batch(&[(1, 10)]));
        assert_eq!(lsm.get(&key(1), 1), Some(U256::from(10u64)));
        let stats = flat_stats(&lsm);
        assert_eq!((stats.hits, stats.misses, stats.fills), (1, 0, 1));
        // A hit counts in the cache alone: the store served nothing.
        assert_eq!(lsm.stats().reads, 0);
    }

    #[test]
    fn historical_reads_bypass_the_cache() {
        let lsm = lsm();
        lsm.apply_batch(1, &batch(&[(1, 10)]));
        lsm.apply_batch(2, &batch(&[(1, 20)]));
        // as_of below the entry height must not be served the new value.
        assert_eq!(lsm.get(&key(1), 1), Some(U256::from(10u64)));
        assert_eq!(lsm.get(&key(1), 2), Some(U256::from(20u64)));
        let stats = flat_stats(&lsm);
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(lsm.stats().reads, 1);
    }

    #[test]
    fn miss_fill_then_hit() {
        let lsm = lsm();
        lsm.apply_batch(1, &batch(&[(1, 10)]));
        lsm.flush();
        // A store reopened from its segments starts with a cold cache.
        let reopened =
            LsmBackend::open(lsm.dir().to_path_buf(), LsmOptions::tiny()).expect("whole segments");
        assert_eq!(reopened.get(&key(1), 1), Some(U256::from(10u64))); // miss
        assert_eq!(reopened.get(&key(1), 1), Some(U256::from(10u64))); // hit
        let stats = flat_stats(&reopened);
        assert_eq!((stats.misses, stats.hits, stats.fills), (1, 1, 1));
        assert_eq!(reopened.stats().segment_reads, 1);
    }

    #[test]
    fn tombstones_are_cached() {
        let lsm = lsm();
        lsm.apply_batch(1, &batch(&[(1, 10)]));
        lsm.apply_batch(2, &batch(&[(1, 0)]));
        assert_eq!(lsm.get(&key(1), 2), Some(U256::ZERO));
        assert_eq!(flat_stats(&lsm).hits, 1);
    }

    /// Refreshes `genesis` into one cache as a batch at height 0 (the path
    /// the store's genesis load takes) and into a twin by per-key fills in
    /// key order, after `before` landed in both at height 1, and checks
    /// that both leave the same entries and counters.
    fn assert_batch_is_per_key_fills(capacity: usize, before: &WriteSet, genesis: &WriteSet) {
        let [batched, filled] = [(); 2].map(|()| FlatCache::with_capacity(capacity));
        for cache in [&batched, &filled] {
            cache.fill_batch(1, before);
        }
        batched.fill_batch(0, genesis);
        for (key, value) in genesis {
            filled.fill(key, 0, *value);
        }
        assert_eq!(batched.stats(), filled.stats(), "capacity {capacity}");
        assert_eq!(cached(&batched), cached(&filled), "capacity {capacity}");
    }

    #[test]
    fn a_genesis_past_the_capacity_leaves_what_per_key_fills_leave() {
        // 1 024 entries over 800 keys, so that equal keys come up (of
        // which the last wins), into a cache of 256 — 16 a shard — and
        // into caches of other sizes, down to one entry a shard.
        let genesis: Vec<(StateKey, U256)> = (0..1_024u64)
            .map(|i| (key(i * 7 % 800), U256::from(i + 1)))
            .collect();
        let run: WriteSet = genesis.iter().copied().collect();
        assert_eq!(run.len(), 800);
        for capacity in [256, SHARDS, 16 * 49, 16 * 50, 4_096] {
            assert_batch_is_per_key_fills(capacity, &WriteSet::new(), &run);
        }
        // Entries newer than the genesis stay.
        assert_batch_is_per_key_fills(256, &batch(&[(7, 1), (900, 2)]), &run);
        assert_batch_is_per_key_fills(256, &WriteSet::new(), &WriteSet::new());

        // The store's genesis load takes that path, and every key reads its
        // allocation whether or not the cache kept it.
        let lsm = lsm_with_capacity(256);
        lsm.load_genesis(&genesis);
        let stats = flat_stats(&lsm);
        assert_eq!(stats.fills, 800);
        assert!(stats.evictions > 0 && stats.entries <= 256, "{stats:?}");
        for (key, value) in &run {
            assert_eq!(lsm.get(key, 0), Some(*value));
        }
    }

    #[test]
    fn eviction_keeps_reads_correct() {
        let lsm = lsm_with_capacity(SHARDS); // 1 entry/shard
        let writes: WriteSet = (0..200).map(|i| (key(i), U256::from(i + 1))).collect();
        lsm.apply_batch(1, &writes);
        assert!(flat_stats(&lsm).evictions > 0);
        for i in 0..200 {
            assert_eq!(lsm.get(&key(i), 1), Some(U256::from(i + 1)), "key {i}");
        }
    }

    #[test]
    fn a_replica_recommit_and_a_historical_read_leave_the_cache_as_it_was() {
        let lsm = lsm();
        lsm.apply_batch(1, &batch(&[(1, 10), (2, 20)]));
        lsm.apply_batch(2, &batch(&[(1, 11)]));
        assert_eq!(lsm.get(&key(2), 2), Some(U256::from(20u64)));
        let (entries, stats) = (cached(&lsm.cache), flat_stats(&lsm));
        // A replica's commits at and below the tip: the store skips them,
        // and so does the cache.
        lsm.apply_batch(2, &batch(&[(1, 99), (3, 30)]));
        lsm.apply_batch(1, &batch(&[(2, 99)]));
        assert_eq!(cached(&lsm.cache), entries);
        assert_eq!(flat_stats(&lsm), stats);
        // A read below an entry's height goes to the store, counted as the
        // miss it is, and fills nothing.
        assert_eq!(lsm.get(&key(1), 1), Some(U256::from(10u64)));
        assert_eq!(cached(&lsm.cache), entries);
        let misses = stats.misses + 1;
        assert_eq!(flat_stats(&lsm), FlatStats { misses, ..stats });
    }

    #[test]
    fn agrees_with_uncached_backend_everywhere() {
        // The store against a model of every version, through flushes,
        // compactions and (in a small cache) evictions.
        for lsm in [lsm(), lsm_with_capacity(2 * SHARDS)] {
            let mut model: BTreeMap<StateKey, Vec<(u64, U256)>> = BTreeMap::new();
            let read = |model: &BTreeMap<StateKey, Vec<(u64, U256)>>, k, as_of| {
                let versions = model.get(&k)?;
                let newer = versions.partition_point(|&(h, _)| h <= as_of);
                newer.checked_sub(1).map(|at| versions[at].1)
            };
            let mut seed = 0xdeadbeefu64;
            let mut next = || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            for height in 1..=40u64 {
                let mut writes = WriteSet::new();
                for _ in 0..(next() % 5 + 1) {
                    writes.insert(
                        key(next() % 25),
                        if next() % 4 == 0 {
                            U256::ZERO
                        } else {
                            U256::from(next() % 100)
                        },
                    );
                }
                for (k, v) in &writes {
                    model.entry(*k).or_default().push((height, *v));
                }
                lsm.apply_batch(height, &writes);
                // Interleave reads at varying heights while writing.
                for i in 0..25 {
                    let as_of = next() % (height + 1);
                    assert_eq!(lsm.get(&key(i), as_of), read(&model, key(i), as_of));
                }
            }
            assert!(lsm.stats().compactions > 0);
            assert!(flat_stats(&lsm).hits > 0);
        }
    }
}
