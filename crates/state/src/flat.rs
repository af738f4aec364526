//! The flat-state cache: O(1) hot SLOADs over a slow [`StateBackend`].
//!
//! LSM segment searches are fine for cold reads but far too slow for the
//! SLOAD inner loop. [`FlatCached`] wraps a backend with a sharded hash map
//! holding each key's **latest** version as a `(height, value)` pair, so a
//! warm read is one FxHash probe: the shard is taken from the same hash the
//! shard's map uses. It is the read path of the LSM store
//! (`BackendKind::Lsm` in `dmvcc-chain` builds it); the in-memory
//! [`crate::MemBackend`] serves latest-state reads from its own slots and is
//! not wrapped, since a cache over it would be a second copy of the same
//! values.
//!
//! # Invalidation
//!
//! A cache entry `(h, v)` asserts "`v` is the newest version of this key,
//! and it was written at (or observed as latest at) height `h`". That
//! assertion stays true because every write is routed through
//! [`FlatCached::apply_batch`] — the genesis allocation through
//! [`FlatCached::load_genesis`] — which refreshes the entry for each
//! written key before any reader can observe the new tip. A read at
//! `as_of ≥ h` can therefore be served from the cache; a read at
//! `as_of < h` is historical and falls through to the backend (and is not
//! cached — only latest-state reads fill the cache). Entry updates are
//! height-guarded (`insert only if newer`), so a racing miss-fill can
//! never clobber a fresher write.
//!
//! Zero values are cached like any other: a tombstone hit answers "this
//! key was cleared" without consulting the backend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use dmvcc_primitives::U256;

use crate::backend::{shard_of, shards_of, BackendStats, HeightPin, StateBackend, SHARDS};
use crate::interner::FxBuildHasher;
use crate::snapshot::WriteSet;
use crate::StateKey;

use std::collections::HashMap;

/// Counters specific to the flat cache (backend I/O counters live in
/// [`BackendStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlatStats {
    /// Reads answered from the cache.
    pub hits: u64,
    /// Reads that fell through to the backend.
    pub misses: u64,
    /// Entries refreshed by write batches or miss-fills.
    pub fills: u64,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Current number of cached entries.
    pub entries: u64,
}

type Shard = RwLock<HashMap<StateKey, (u64, U256), FxBuildHasher>>;

/// A [`StateBackend`] wrapper adding the flat-state read path.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::{FlatCached, MemBackend, StateBackend, StateKey};
///
/// let flat = FlatCached::new(Arc::new(MemBackend::new()));
/// let key = StateKey::balance(Address::from_u64(1));
/// flat.apply_batch(1, &[(key, U256::from(5u64))].into_iter().collect());
/// assert_eq!(flat.get(&key, 1), Some(U256::from(5u64))); // cache hit
/// assert_eq!(flat.flat_stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct FlatCached {
    inner: Arc<dyn StateBackend>,
    shards: Vec<Shard>,
    /// Entries per shard before the shard is evicted wholesale.
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    evictions: AtomicU64,
}

/// Default total cache capacity (entries across all shards).
pub const DEFAULT_FLAT_CAPACITY: usize = 1 << 20;

impl FlatCached {
    /// Wraps `inner` with the default cache capacity.
    pub fn new(inner: Arc<dyn StateBackend>) -> Self {
        FlatCached::with_capacity(inner, DEFAULT_FLAT_CAPACITY)
    }

    /// Wraps `inner` with room for ~`capacity` cached entries.
    pub fn with_capacity(inner: Arc<dyn StateBackend>, capacity: usize) -> Self {
        let capacity_per_shard = (capacity / SHARDS).max(1);
        FlatCached {
            inner,
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn StateBackend> {
        &self.inner
    }

    /// Cache-local counters.
    pub fn flat_stats(&self) -> FlatStats {
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

    fn shard(&self, key: &StateKey) -> &Shard {
        &self.shards[shard_of(key)]
    }

    /// Installs `(height, value)` unless a fresher entry is present.
    fn fill(&self, key: &StateKey, height: u64, value: U256) {
        let mut shard = self.shard(key).write().expect("flat lock poisoned");
        match shard.get(key) {
            Some(&(h, _)) if h > height => return, // racing fill lost to a newer write
            _ => {}
        }
        if shard.len() >= self.capacity_per_shard && !shard.contains_key(key) {
            // Wholesale shard eviction: crude, O(1) amortized, and always
            // safe (the cache is a pure accelerator).
            self.evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        shard.insert(*key, (height, value));
        self.fills.fetch_add(1, Ordering::Relaxed);
    }
}

impl StateBackend for FlatCached {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: &StateKey, as_of: u64) -> Option<U256> {
        if let Some(&(height, value)) = self.shard(key).read().expect("flat lock poisoned").get(key)
        {
            if as_of >= height {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let tip = self.inner.tip();
        let value = self.inner.get(key, as_of);
        if as_of >= tip {
            // Latest-state read: what we fetched is the key's newest
            // version, so it may seed the cache (height-guarded against
            // races with concurrent batches).
            if let Some(value) = value {
                self.fill(key, tip, value);
            }
        }
        value
    }

    fn apply_batch(&self, height: u64, writes: &WriteSet) {
        let pre_tip = self.inner.tip();
        self.inner.apply_batch(height, writes);
        if height > pre_tip || height == 0 {
            for (key, value) in writes {
                self.fill(key, height, *value);
            }
        }
    }

    /// The backend takes the run through its own `load_genesis`. An empty
    /// cache is then filled as per-key fills of the batch would leave it —
    /// per shard, the keys in order, the shard cleared whenever it is full —
    /// with every shard locked once and room reserved for its keys; a shard
    /// holding more keys than it has room for keeps those after its last
    /// clear. A cache that holds entries already takes the per-key fills.
    fn load_genesis(&self, entries: &[(StateKey, U256)]) {
        self.inner.load_genesis(entries);
        let mut shards: Vec<_> = self
            .shards
            .iter()
            .map(|shard| shard.write().expect("flat lock poisoned"))
            .collect();
        if shards.iter().any(|shard| !shard.is_empty()) {
            drop(shards);
            for (key, value) in &entries.iter().copied().collect::<WriteSet>() {
                self.fill(key, 0, *value);
            }
            return;
        }
        let (shard_at, counts) = shards_of(entries);
        for (shard, count) in shards.iter_mut().zip(counts) {
            shard.reserve(count);
        }
        for (&(key, value), &at) in entries.iter().zip(&shard_at) {
            shards[usize::from(at)].insert(key, (0, value));
        }
        let capacity = self.capacity_per_shard;
        for shard in &mut shards {
            let distinct = shard.len();
            self.fills.fetch_add(distinct as u64, Ordering::Relaxed);
            if distinct > capacity {
                // Per-key fills in key order clear the shard whenever a
                // key finds it full: the keys after the last clear stay.
                let evicted = (distinct - 1) / capacity * capacity;
                let mut keys: Vec<StateKey> = shard.keys().copied().collect();
                let (_, &mut first_kept, _) = keys.select_nth_unstable(evicted);
                shard.retain(|key, _| *key >= first_kept);
                self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
            }
        }
    }

    fn tip(&self) -> u64 {
        self.inner.tip()
    }

    /// The wrapped backend's pin: the cache holds only newest versions,
    /// which no compaction drops.
    fn pin(&self, as_of: u64) -> Option<HeightPin> {
        self.inner.pin(as_of)
    }

    fn iter_as_of(&self, as_of: u64) -> Vec<(StateKey, U256)> {
        self.inner.iter_as_of(as_of)
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn flat_stats(&self) -> Option<FlatStats> {
        Some(FlatCached::flat_stats(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBackend;
    use dmvcc_primitives::Address;

    fn key(i: u64) -> StateKey {
        StateKey::storage(Address::from_u64(3), U256::from(i))
    }

    fn batch(pairs: &[(u64, u64)]) -> WriteSet {
        pairs
            .iter()
            .map(|&(k, v)| (key(k), U256::from(v)))
            .collect()
    }

    fn flat() -> FlatCached {
        FlatCached::new(Arc::new(MemBackend::new()))
    }

    #[test]
    fn writes_prime_the_cache() {
        let flat = flat();
        flat.apply_batch(1, &batch(&[(1, 10)]));
        assert_eq!(flat.get(&key(1), 1), Some(U256::from(10u64)));
        let stats = flat.flat_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn historical_reads_bypass_the_cache() {
        let flat = flat();
        flat.apply_batch(1, &batch(&[(1, 10)]));
        flat.apply_batch(2, &batch(&[(1, 20)]));
        // as_of below the entry height must not be served the new value.
        assert_eq!(flat.get(&key(1), 1), Some(U256::from(10u64)));
        assert_eq!(flat.get(&key(1), 2), Some(U256::from(20u64)));
        assert_eq!(flat.flat_stats().misses, 1);
    }

    #[test]
    fn miss_fill_then_hit() {
        let backend = Arc::new(MemBackend::new());
        backend.apply_batch(1, &batch(&[(1, 10)]));
        // Wrap AFTER the write so the cache starts cold.
        let flat = FlatCached::new(backend);
        assert_eq!(flat.get(&key(1), 1), Some(U256::from(10u64))); // miss
        assert_eq!(flat.get(&key(1), 1), Some(U256::from(10u64))); // hit
        let stats = flat.flat_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn tombstones_are_cached() {
        let flat = flat();
        flat.apply_batch(1, &batch(&[(1, 10)]));
        flat.apply_batch(2, &batch(&[(1, 0)]));
        assert_eq!(flat.get(&key(1), 2), Some(U256::ZERO));
        assert_eq!(flat.flat_stats().hits, 1);
    }

    /// Every cached entry, in key order.
    fn cached(flat: &FlatCached) -> Vec<(StateKey, (u64, U256))> {
        let mut entries: Vec<_> = flat
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

    /// Loads `genesis` into one cache by `load_genesis` and into a twin by
    /// the per-key fills of `apply_batch(0, …)` — per shard, key order, the
    /// shard cleared when full; no batch for an empty genesis — after
    /// `before` landed in both at height 1, and checks that both leave the
    /// same cache and backend.
    fn assert_load_is_per_key_fills(
        capacity: usize,
        before: &WriteSet,
        genesis: &[(StateKey, U256)],
    ) {
        let [loaded, filled] =
            [(); 2].map(|()| FlatCached::with_capacity(Arc::new(MemBackend::new()), capacity));
        for flat in [&loaded, &filled] {
            if !before.is_empty() {
                flat.apply_batch(1, before);
            }
        }
        loaded.load_genesis(genesis);
        if !genesis.is_empty() {
            filled.apply_batch(0, &genesis.iter().copied().collect());
        }
        assert_eq!(
            loaded.flat_stats(),
            filled.flat_stats(),
            "capacity {capacity}"
        );
        assert_eq!(cached(&loaded), cached(&filled), "capacity {capacity}");
        for as_of in [0, 1] {
            let mut contents = [&loaded, &filled].map(|flat| flat.iter_as_of(as_of));
            contents.iter_mut().for_each(|live| live.sort_unstable());
            assert_eq!(contents[0], contents[1]);
        }
        assert_eq!(loaded.stats(), filled.stats());
    }

    #[test]
    fn a_genesis_past_the_capacity_leaves_what_per_key_fills_leave() {
        // 1 024 entries over 800 keys, so that equal keys come up (of
        // which the last wins), into a cache of 256 — 16 a shard — and
        // into caches of other sizes, down to one entry a shard.
        let genesis: Vec<(StateKey, U256)> = (0..1_024u64)
            .map(|i| (key(i * 7 % 800), U256::from(i + 1)))
            .collect();
        let distinct = genesis
            .iter()
            .map(|(key, _)| key)
            .collect::<std::collections::BTreeSet<_>>();
        assert_eq!(distinct.len(), 800);
        for capacity in [256, SHARDS, 16 * 49, 16 * 50, 4_096] {
            assert_load_is_per_key_fills(capacity, &WriteSet::new(), &genesis);
        }
        let filled = FlatCached::with_capacity(Arc::new(MemBackend::new()), 256);
        filled.load_genesis(&genesis);
        let stats = filled.flat_stats();
        assert_eq!(stats.fills, 800);
        assert!(stats.evictions > 0 && stats.entries <= 256, "{stats:?}");
        // A cache that holds entries already takes the per-key fills.
        assert_load_is_per_key_fills(256, &batch(&[(7, 1), (900, 2)]), &genesis);
        assert_load_is_per_key_fills(256, &WriteSet::new(), &[]);
    }

    #[test]
    fn eviction_keeps_reads_correct() {
        let backend = Arc::new(MemBackend::new());
        let flat = FlatCached::with_capacity(backend, SHARDS); // 1 entry/shard
        let writes: WriteSet = (0..200).map(|i| (key(i), U256::from(i + 1))).collect();
        flat.apply_batch(1, &writes);
        assert!(flat.flat_stats().evictions > 0);
        for i in 0..200 {
            assert_eq!(flat.get(&key(i), 1), Some(U256::from(i + 1)), "key {i}");
        }
    }

    #[test]
    fn agrees_with_uncached_backend_everywhere() {
        let plain = MemBackend::new();
        let flat = flat();
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
            plain.apply_batch(height, &writes);
            flat.apply_batch(height, &writes);
            // Interleave reads at varying heights while writing.
            for i in 0..25 {
                let as_of = next() % (height + 1);
                assert_eq!(flat.get(&key(i), as_of), plain.get(&key(i), as_of));
            }
        }
    }
}
