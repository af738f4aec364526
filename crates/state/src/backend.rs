//! The pluggable persistent state backend.
//!
//! Production state does not fit in a validator's RAM: millions of
//! accounts need a storage layer underneath the in-memory snapshots. A
//! [`StateBackend`] is that layer — a *multi-versioned* key-value store
//! keyed by [`StateKey`], where every write batch carries the block height
//! that produced it and every read names the height it wants to observe
//! (`as_of`). Versioning is what lets the copy-on-write [`Snapshot`]s
//! share one backend safely: a snapshot taken before block `N` keeps
//! reading the pre-`N` values even after block `N`'s batch lands, which
//! is exactly the staleness contract the pipelined front-end (refinement
//! one block ahead) and the executors' abort paths already rely on.
//!
//! Two implementations ship:
//!
//! - [`MemBackend`] — the existing in-memory map, now version-aware. The
//!   default; zero I/O, the baseline every other backend is measured
//!   against.
//! - [`crate::LsmBackend`] — an in-repo log-structured store (append-only
//!   segment files, sparse in-memory index, merge compaction) for state
//!   that outlives the process and outgrows RAM.
//!
//! The hot-read path on top of either is [`crate::FlatCached`], the
//! flat-state cache: repeat SLOADs of a warm key are one sharded hash
//! probe, never a trie walk or a segment search.
//!
//! [`Snapshot`]: crate::Snapshot

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use dmvcc_primitives::U256;

use crate::interner::FxKeyMap;
use crate::snapshot::WriteSet;
use crate::StateKey;

/// Read/write counters a backend keeps about itself (cheap, monotonic;
/// surfaced by the `state_backend` bench and `dmvcc chain`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Point reads served (any source).
    pub reads: u64,
    /// Reads served without touching a disk segment (memtable or map).
    pub memory_reads: u64,
    /// Reads that searched at least one on-disk segment.
    pub segment_reads: u64,
    /// Write batches applied.
    pub batches: u64,
    /// Individual key writes applied.
    pub writes: u64,
    /// Memtable flushes to segment files (LSM only).
    pub flushes: u64,
    /// Segment compactions run (LSM only).
    pub compactions: u64,
    /// Bytes appended to segment files (LSM only).
    pub segment_bytes_written: u64,
}

/// A multi-versioned persistent map from [`StateKey`] to [`U256`].
///
/// # Contract
///
/// - Batches must be applied in strictly increasing `height` order;
///   re-applying a batch at a height at or below [`StateBackend::tip`] is
///   a **no-op** (a `StateDb` clone sharing the backend re-commits the
///   same block).
/// - A zero value is a tombstone: the key reads as deleted at and after
///   that height (EVM storage-clearing), while older `as_of` heights keep
///   the previous value.
/// - `get(key, as_of)` returns the value of the newest version at or
///   below `as_of`, or `None` if the key has no version there. Callers
///   that want EVM semantics map both `None` and `Some(ZERO)` to zero.
/// - Implementations are internally synchronized (`&self` everywhere):
///   one writer (the committing validator) and many concurrent readers
///   (executor workers holding snapshots) is the expected load.
pub trait StateBackend: Send + Sync + std::fmt::Debug {
    /// A short label (`"mem"`, `"lsm"`) for reports and CLI output.
    fn name(&self) -> &'static str;

    /// The newest version of `key` at or below height `as_of`.
    fn get(&self, key: &StateKey, as_of: u64) -> Option<U256>;

    /// Applies one block's final writes at `height` (no-op if `height <=
    /// tip()`; see the trait contract).
    fn apply_batch(&self, height: u64, writes: &WriteSet);

    /// Applies a genesis allocation as the height-0 batch: `entries` are
    /// non-zero and, of equal keys, the last wins. This default collects
    /// them into a [`WriteSet`] and calls [`StateBackend::apply_batch`]
    /// (not at all for an empty allocation); a backend that can take the
    /// run as it is overrides it and leaves the same contents and counters.
    fn load_genesis(&self, entries: &[(StateKey, U256)]) {
        let batch: WriteSet = entries.iter().copied().collect();
        if !batch.is_empty() {
            self.apply_batch(0, &batch);
        }
    }

    /// The highest height whose batch has been applied (`0` = genesis
    /// only).
    fn tip(&self) -> u64;

    /// Materializes every key live (nonzero) at height `as_of`, in
    /// unspecified order. A cold full-scan path: a snapshot's full listing
    /// and test oracles, never block execution or genesis.
    fn iter_as_of(&self, as_of: u64) -> Vec<(StateKey, U256)>;

    /// Current counters.
    fn stats(&self) -> BackendStats;
}

/// Ascending version list for one key; the `u64` is the commit height.
type Versions = Vec<(u64, U256)>;

/// Returns the newest version at or below `as_of` from an ascending list.
pub(crate) fn version_at(versions: &Versions, as_of: u64) -> Option<U256> {
    match versions.partition_point(|&(h, _)| h <= as_of) {
        0 => None,
        n => Some(versions[n - 1].1),
    }
}

/// The in-memory backend: a versioned hash map behind an `RwLock`, hashed
/// like the flat cache above it and the interner ([`FxKeyMap`]).
///
/// Everything lives in RAM (the pre-backend status quo, made
/// version-aware); it is the correctness baseline the LSM store is
/// differentially tested against, and the latency baseline the
/// `state_backend` bench compares cold reads against.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::{MemBackend, StateBackend, StateKey};
///
/// let backend = MemBackend::new();
/// let key = StateKey::balance(Address::from_u64(1));
/// backend.apply_batch(1, &[(key, U256::from(9u64))].into_iter().collect());
/// assert_eq!(backend.get(&key, 1), Some(U256::from(9u64)));
/// assert_eq!(backend.get(&key, 0), None); // before the write
/// ```
#[derive(Debug, Default)]
pub struct MemBackend {
    map: RwLock<FxKeyMap<Versions>>,
    tip: AtomicU64,
    reads: AtomicU64,
    batches: AtomicU64,
    writes: AtomicU64,
}

impl MemBackend {
    /// Creates an empty backend at tip 0.
    pub fn new() -> Self {
        MemBackend::default()
    }
}

impl StateBackend for MemBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn get(&self, key: &StateKey, as_of: u64) -> Option<U256> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let map = self.map.read().expect("backend lock poisoned");
        map.get(key)
            .and_then(|versions| version_at(versions, as_of))
    }

    fn apply_batch(&self, height: u64, writes: &WriteSet) {
        if height <= self.tip.load(Ordering::Acquire) && height != 0 {
            return; // replica re-commit
        }
        let mut map = self.map.write().expect("backend lock poisoned");
        for (key, value) in writes {
            let versions = map.entry(*key).or_default();
            match versions.last_mut() {
                Some((h, v)) if *h == height => *v = *value,
                _ => versions.push((height, *value)),
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.writes
            .fetch_add(writes.len() as u64, Ordering::Relaxed);
        self.tip.fetch_max(height, Ordering::AcqRel);
    }

    /// Into an empty backend, the run goes straight into the map, with room
    /// reserved for it: no [`WriteSet`] is built.
    fn load_genesis(&self, entries: &[(StateKey, U256)]) {
        let mut map = self.map.write().expect("backend lock poisoned");
        if !map.is_empty() {
            drop(map);
            self.apply_batch(0, &entries.iter().copied().collect());
            return;
        }
        map.reserve(entries.len());
        for &(key, value) in entries {
            map.insert(key, vec![(0, value)]);
        }
        if !map.is_empty() {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.writes.fetch_add(map.len() as u64, Ordering::Relaxed);
        }
    }

    fn tip(&self) -> u64 {
        self.tip.load(Ordering::Acquire)
    }

    fn iter_as_of(&self, as_of: u64) -> Vec<(StateKey, U256)> {
        let map = self.map.read().expect("backend lock poisoned");
        map.iter()
            .filter_map(|(key, versions)| match version_at(versions, as_of) {
                Some(value) if !value.is_zero() => Some((*key, value)),
                _ => None,
            })
            .collect()
    }

    fn stats(&self) -> BackendStats {
        let reads = self.reads.load(Ordering::Relaxed);
        BackendStats {
            reads,
            memory_reads: reads,
            batches: self.batches.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            ..BackendStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;

    fn key(i: u64) -> StateKey {
        StateKey::storage(Address::from_u64(7), U256::from(i))
    }

    fn batch(pairs: &[(u64, u64)]) -> WriteSet {
        pairs
            .iter()
            .map(|&(k, v)| (key(k), U256::from(v)))
            .collect()
    }

    #[test]
    fn versions_resolve_as_of() {
        let backend = MemBackend::new();
        backend.apply_batch(1, &batch(&[(1, 10)]));
        backend.apply_batch(2, &batch(&[(1, 20), (2, 5)]));
        assert_eq!(backend.get(&key(1), 0), None);
        assert_eq!(backend.get(&key(1), 1), Some(U256::from(10u64)));
        assert_eq!(backend.get(&key(1), 2), Some(U256::from(20u64)));
        assert_eq!(backend.get(&key(1), 9), Some(U256::from(20u64)));
        assert_eq!(backend.get(&key(2), 1), None);
        assert_eq!(backend.tip(), 2);
    }

    #[test]
    fn zero_is_a_tombstone_with_history() {
        let backend = MemBackend::new();
        backend.apply_batch(1, &batch(&[(1, 10)]));
        backend.apply_batch(2, &batch(&[(1, 0)]));
        assert_eq!(backend.get(&key(1), 1), Some(U256::from(10u64)));
        assert_eq!(backend.get(&key(1), 2), Some(U256::ZERO));
        assert!(backend.iter_as_of(2).is_empty());
        assert_eq!(backend.iter_as_of(1).len(), 1);
    }

    #[test]
    fn replica_recommit_is_a_no_op() {
        let backend = MemBackend::new();
        backend.apply_batch(1, &batch(&[(1, 10)]));
        backend.apply_batch(1, &batch(&[(1, 99)]));
        assert_eq!(backend.get(&key(1), 1), Some(U256::from(10u64)));
        assert_eq!(backend.stats().batches, 1);
    }

    /// A genesis load is the height-0 batch it stands for: the same
    /// versions and counters, into an empty backend or not.
    #[test]
    fn genesis_entries_visible_at_height_zero() {
        let v = |value: u64| U256::from(value);
        let genesis = [
            (key(3), v(7)),
            (key(4), v(1)),
            (key(3), v(8)),
            (key(9), v(2)),
        ];
        for (entries, before) in [
            (&genesis[..], &[][..]),
            (&[], &[]),
            // Into a backend that holds something already.
            (&genesis[..], &[(1, v(5)), (4, v(6))][..]),
        ] {
            let (loaded, batched) = (MemBackend::new(), MemBackend::new());
            for backend in [&loaded, &batched] {
                if !before.is_empty() {
                    backend.apply_batch(0, &before.iter().map(|&(k, v)| (key(k), v)).collect());
                }
            }
            loaded.load_genesis(entries);
            // What the trait's default does: the run as one `WriteSet`.
            if !entries.is_empty() {
                batched.apply_batch(0, &entries.iter().copied().collect());
            }
            for as_of in [0, 1] {
                let mut contents = [&loaded, &batched].map(|backend| backend.iter_as_of(as_of));
                contents.iter_mut().for_each(|live| live.sort_unstable());
                assert_eq!(contents[0], contents[1]);
            }
            assert_eq!(loaded.stats(), batched.stats());
            assert_eq!(loaded.tip(), 0);
        }
        let loaded = MemBackend::new();
        loaded.load_genesis(&genesis);
        assert_eq!(loaded.get(&key(3), 0), Some(v(8)));
        assert_eq!(loaded.get(&key(5), 0), None);
        assert_eq!(loaded.iter_as_of(0).len(), 3);
        assert_eq!(loaded.stats().writes, 3);
    }
}
