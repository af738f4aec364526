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
//! - [`MemBackend`] — the in-memory store and the default: zero I/O, the
//!   baseline every other backend is measured against. It answers a
//!   latest-state read itself, from the one sharded slot that holds each
//!   key's newest version; nothing is cached over it. It keeps an older
//!   version only while a live snapshot pins a height that reads it
//!   ([`StateBackend::pin`]).
//! - [`crate::LsmBackend`] — an in-repo log-structured store (append-only
//!   segment files, sparse in-memory index, merge compaction) for state
//!   that outlives the process and outgrows RAM. It reads through a
//!   flat-state cache of its own: repeat SLOADs of a warm key are one
//!   sharded hash probe, never a segment search.
//!
//! [`Snapshot`]: crate::Snapshot

use std::collections::BTreeMap;
use std::hash::BuildHasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use dmvcc_primitives::U256;

use crate::flat::FlatStats;
use crate::interner::{FxBuildHasher, FxKeyMap};
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
    /// Compactions run: the LSM store's segment merges, the in-memory
    /// store's history-log compactions (one a shard).
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
///   a **no-op**, so that a late batch never rewrites a height a reader
///   sees (a `StateDb` clone sharing the backend sends none: it layers
///   its commits over its own snapshot).
/// - A zero value is a tombstone: the key reads as deleted at and after
///   that height (EVM storage-clearing), while older `as_of` heights keep
///   the previous value.
/// - `get(key, as_of)` returns the value of the newest version at or
///   below `as_of`, or `None` if the key has no version there. Callers
///   that want EVM semantics map both `None` and `Some(ZERO)` to zero.
/// - The tip is always readable. A height below it is readable exactly
///   while a [`HeightPin`] of it lives ([`StateBackend::pin`]; every
///   [`Snapshot`](crate::Snapshot) holds one): a backend may reclaim the
///   versions that only unpinned heights read. A backend whose `pin`
///   returns `None` keeps every version, so that every height stays
///   readable.
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

    /// Pins height `as_of` for a reader: while the pin lives, reads at
    /// `as_of` see what they see now. `as_of` is the tip or a height a live
    /// pin holds already; a height below the tip that no pin holds may have
    /// lost versions. `None` — the default — is a backend that keeps every
    /// version and so needs no pins.
    fn pin(&self, as_of: u64) -> Option<HeightPin> {
        let _ = as_of;
        None
    }

    /// Materializes every key live (nonzero) at height `as_of`, in
    /// unspecified order. A cold full-scan path: a snapshot's full listing
    /// and test oracles, never block execution or genesis.
    fn iter_as_of(&self, as_of: u64) -> Vec<(StateKey, U256)>;

    /// Current counters.
    fn stats(&self) -> BackendStats;

    /// The counters of the flat-state cache this backend reads through, if
    /// it keeps one (the LSM store does); `None` by default.
    fn flat_stats(&self) -> Option<FlatStats> {
        None
    }
}

/// Shards of [`MemBackend`] and of the LSM store's flat cache; a power of
/// two.
pub(crate) const SHARDS: usize = 16;
const _: () = assert!(SHARDS.is_power_of_two());

/// The shard of `key`: four bits of the FxHash its shard's map computes for
/// it. The map takes a bucket from the hash's low bits and a tag from its top
/// seven, so the shard takes bits between the two, and the keys of one shard
/// still spread over every bucket and tag.
pub(crate) fn shard_of(key: &StateKey) -> usize {
    (FxBuildHasher::default().hash_one(key) >> 48) as usize & (SHARDS - 1)
}

/// The shard of each entry's key, in order, and how many entries each
/// shard takes: a genesis load reserves room in every shard before it
/// fills them.
pub(crate) fn shards_of(entries: &[(StateKey, U256)]) -> (Vec<u8>, [usize; SHARDS]) {
    let shard_at: Vec<u8> = entries.iter().map(|(key, _)| shard_of(key) as u8).collect();
    let mut counts = [0usize; SHARDS];
    for &at in &shard_at {
        counts[usize::from(at)] += 1;
    }
    (shard_at, counts)
}

/// A reader's hold on one height of a [`MemBackend`]: while it lives, the
/// backend keeps every version a read at that height sees
/// ([`StateBackend::pin`]). Dropping it releases the height.
#[derive(Debug)]
pub struct HeightPin {
    pins: Arc<Pins>,
    height: u64,
}

impl Drop for HeightPin {
    fn drop(&mut self) {
        // A poisoned registry panicked in `pin` or here: `drop` must not.
        let Ok(mut heights) = self.pins.0.lock() else {
            return;
        };
        if let Some(count) = heights.get_mut(&self.height) {
            *count -= 1;
            if *count == 0 {
                heights.remove(&self.height);
            }
        }
    }
}

/// The heights live readers pin, each with its number of pins.
#[derive(Debug, Default)]
struct Pins(Mutex<BTreeMap<u64, usize>>);

/// No older version: the end of a key's history.
const NO_OLDER: u32 = u32::MAX;

/// A shard compacts its history log once the log holds more than this many
/// times what its last compaction kept.
const COMPACT_FACTOR: usize = 2;

/// A shard also waits until its log holds more than [`COMPACT_FACTOR`]
/// versions per this many of its keys: a compaction walks every key, so
/// enough versions must have come in to pay for the walk.
const KEYS_PER_COMPACTED_VERSION: usize = 16;

/// One version of a key: the value written at `height`, and the index in
/// its shard's history of the key's next older version ([`NO_OLDER`] if it
/// has none).
#[derive(Debug, Clone, Copy)]
struct Version {
    value: U256,
    height: u64,
    older: u32,
}

/// One shard of [`MemBackend`]: a slot per key with its newest version, and
/// the versions that newer ones replaced.
#[derive(Debug, Default)]
struct Shard {
    latest: FxKeyMap<Version>,
    /// Each key's versions are linked newest first through
    /// [`Version::older`], starting at its slot in `latest`. Appended to,
    /// and compacted in place.
    history: Vec<Version>,
    /// The versions the last compaction kept.
    kept: usize,
}

impl Shard {
    /// The value of the newest version at or below `as_of`, walking back
    /// from `newest`.
    fn value_at<'a>(&'a self, mut newest: &'a Version, as_of: u64) -> Option<U256> {
        while newest.height > as_of {
            newest = self.history.get(newest.older as usize)?;
        }
        Some(newest.value)
    }

    /// Writes `value` at `height`: over the newest version if that is of the
    /// same height, else as the new newest, the old one moved to the history.
    fn write(&mut self, key: StateKey, height: u64, value: U256) {
        let newest = self.latest.entry(key).or_insert(Version {
            value,
            height,
            older: NO_OLDER,
        });
        if newest.height != height {
            let older = self.history.len();
            assert!(older < NO_OLDER as usize, "a shard's history is full");
            self.history.push(*newest);
            newest.height = height;
            newest.older = older as u32;
        }
        newest.value = value;
    }

    /// Whether the history log has grown enough since the last compaction
    /// to be compacted again.
    fn outgrown(&self) -> bool {
        let floor = self.latest.len() / KEYS_PER_COMPACTED_VERSION;
        self.history.len() > COMPACT_FACTOR * self.kept.max(floor)
    }

    /// Drops, in place, every replaced version that no height of `pinned`
    /// (ascending) reads: a version written at `h` and replaced at `r` is
    /// read at the heights `h..r`. The chains are relinked past the dropped
    /// versions and the kept ones moved down, in order; nothing is
    /// allocated but the index remap.
    fn compact(&mut self, pinned: &[u64]) {
        const DROPPED: u32 = u32::MAX;
        let read_at_a_pin = |version: &Version, replaced: u64| {
            let first = pinned.partition_point(|&pin| pin < version.height);
            pinned.get(first).is_some_and(|&pin| pin < replaced)
        };
        // Mark what is kept, walking each key's chain from its newest version.
        let mut remap = vec![DROPPED; self.history.len()];
        for newest in self.latest.values() {
            let (mut replaced, mut older) = (newest.height, newest.older);
            while older != NO_OLDER {
                let version = &self.history[older as usize];
                if read_at_a_pin(version, replaced) {
                    remap[older as usize] = 0;
                }
                (replaced, older) = (version.height, version.older);
            }
        }
        // Number the kept versions in log order.
        let mut kept = 0u32;
        for slot in remap.iter_mut().filter(|slot| **slot != DROPPED) {
            *slot = kept;
            kept += 1;
        }
        // Each link goes to the newest kept version at or below its target,
        // by its new index. Only the links of kept versions are rewritten, and
        // the walk reads only those of dropped ones.
        let relink = |history: &[Version], mut at: u32| {
            while at != NO_OLDER && remap[at as usize] == DROPPED {
                at = history[at as usize].older;
            }
            if at == NO_OLDER {
                NO_OLDER
            } else {
                remap[at as usize]
            }
        };
        for (at, &to) in remap.iter().enumerate() {
            if to != DROPPED {
                self.history[at].older = relink(&self.history, self.history[at].older);
            }
        }
        for newest in self.latest.values_mut() {
            newest.older = relink(&self.history, newest.older);
        }
        for (from, &to) in remap.iter().enumerate() {
            if to != DROPPED {
                self.history[to as usize] = self.history[from];
            }
        }
        self.history.truncate(kept as usize);
        self.kept = kept as usize;
    }
}

/// The in-memory backend: 16 shards, chosen by the key's FxHash,
/// each a map from key to a slot that holds the key's newest version, and
/// a history log of the versions newer ones replaced. No key has a heap
/// allocation of its own.
///
/// A latest-state read is one shard read lock and one probe; an older
/// height walks the key's versions back through the log. A batch takes
/// each shard's write lock once; a reader pinned below the batch's height
/// skips the versions it writes, so no snapshot sees part of a batch, and
/// the tip moves once every shard has its writes.
///
/// Only the tip and the heights live snapshots pin are readable
/// ([`StateBackend::pin`]). Under the write lock a batch already holds, a
/// shard whose log has outgrown what its last compaction kept compacts it in
/// place, keeping only the versions a pinned height, or the tip the batch
/// lands on, reads: classic multi-version garbage collection, since the
/// executors read only the last committed state. Everything lives
/// in RAM; it is the correctness baseline the LSM store is differentially
/// tested against, and the latency baseline the `state_backend` bench
/// compares cold reads against.
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
    shards: [RwLock<Shard>; SHARDS],
    pins: Arc<Pins>,
    tip: AtomicU64,
    reads: AtomicU64,
    batches: AtomicU64,
    writes: AtomicU64,
    compactions: AtomicU64,
}

impl MemBackend {
    /// Creates an empty backend at tip 0.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// The replaced versions the shards' history logs hold: what a census of
    /// the versions kept for pinned heights counts.
    pub fn replaced_versions(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().expect("backend lock poisoned").history.len())
            .sum()
    }
}

impl StateBackend for MemBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn get(&self, key: &StateKey, as_of: u64) -> Option<U256> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let shard = self.shards[shard_of(key)]
            .read()
            .expect("backend lock poisoned");
        shard
            .latest
            .get(key)
            .and_then(|newest| shard.value_at(newest, as_of))
    }

    fn apply_batch(&self, height: u64, writes: &WriteSet) {
        let tip = self.tip.load(Ordering::Acquire);
        if height <= tip && height != 0 {
            return; // replica re-commit
        }
        // What a compaction keeps: the versions the pinned heights read, and
        // those of the tip, which a reader may pin while the batch lands.
        let pinned: Vec<u64> = {
            let heights = self.pins.0.lock().expect("pin registry poisoned");
            let below = heights.range(..tip).map(|(&height, _)| height);
            below.chain([tip]).collect()
        };
        let mut by_shard: Vec<(usize, &StateKey, &U256)> = writes
            .iter()
            .map(|(key, value)| (shard_of(key), key, value))
            .collect();
        by_shard.sort_unstable_by_key(|&(at, ..)| at);
        for run in by_shard.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.shards[run[0].0]
                .write()
                .expect("backend lock poisoned");
            for &(_, key, value) in run {
                shard.write(*key, height, *value);
            }
            if shard.outgrown() {
                shard.compact(&pinned);
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.writes
            .fetch_add(writes.len() as u64, Ordering::Relaxed);
        self.tip.fetch_max(height, Ordering::AcqRel);
    }

    /// Into an empty backend, the run goes straight into the shards, each
    /// locked once with room reserved for its keys: no [`WriteSet`] is built.
    fn load_genesis(&self, entries: &[(StateKey, U256)]) {
        let mut shards: Vec<_> = self
            .shards
            .iter()
            .map(|shard| shard.write().expect("backend lock poisoned"))
            .collect();
        if shards.iter().any(|shard| !shard.latest.is_empty()) {
            drop(shards);
            self.apply_batch(0, &entries.iter().copied().collect());
            return;
        }
        let (shard_at, counts) = shards_of(entries);
        for (shard, count) in shards.iter_mut().zip(counts) {
            shard.latest.reserve(count);
        }
        for (&(key, value), &at) in entries.iter().zip(&shard_at) {
            shards[usize::from(at)].write(key, 0, value);
        }
        let keys: usize = shards.iter().map(|shard| shard.latest.len()).sum();
        if keys > 0 {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.writes.fetch_add(keys as u64, Ordering::Relaxed);
        }
    }

    fn tip(&self) -> u64 {
        self.tip.load(Ordering::Acquire)
    }

    fn pin(&self, as_of: u64) -> Option<HeightPin> {
        let mut heights = self.pins.0.lock().expect("pin registry poisoned");
        debug_assert!(
            as_of == self.tip() || heights.contains_key(&as_of),
            "height {as_of} is neither the tip {} nor pinned: its versions may be reclaimed",
            self.tip()
        );
        *heights.entry(as_of).or_default() += 1;
        Some(HeightPin {
            pins: Arc::clone(&self.pins),
            height: as_of,
        })
    }

    fn iter_as_of(&self, as_of: u64) -> Vec<(StateKey, U256)> {
        let mut live = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("backend lock poisoned");
            live.extend(shard.latest.iter().filter_map(|(key, newest)| {
                match shard.value_at(newest, as_of) {
                    Some(value) if !value.is_zero() => Some((*key, value)),
                    _ => None,
                }
            }));
        }
        live
    }

    fn stats(&self) -> BackendStats {
        let reads = self.reads.load(Ordering::Relaxed);
        BackendStats {
            reads,
            memory_reads: reads,
            batches: self.batches.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
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

    /// A compaction keeps exactly the replaced versions some pinned height
    /// reads, relinked so that every pinned height reads what it read
    /// before; what no pin reads is gone.
    #[test]
    fn a_compaction_keeps_exactly_what_the_pins_read() {
        let write_all = |shard: &mut Shard| {
            // Key `k` is written at every multiple of `k + 1`, a zero at
            // every fourth.
            for height in 0..=40u64 {
                for k in (0..6).filter(|k| height % (k + 1) == 0) {
                    let value = if height % (4 * (k + 1)) == 0 {
                        0
                    } else {
                        height * 10 + k
                    };
                    shard.write(key(k), height, U256::from(value));
                }
            }
        };
        let reads = |shard: &Shard, as_of: u64| -> Vec<Option<U256>> {
            (0..6)
                .map(|k| {
                    let newest = shard.latest.get(&key(k))?;
                    shard.value_at(newest, as_of)
                })
                .collect()
        };
        for pinned in [&[40][..], &[0, 40], &[3, 17, 18, 40], &[1, 2, 5, 39]] {
            let mut shard = Shard::default();
            write_all(&mut shard);
            // A pinned height reads a replaced version of `k` where that
            // is not the newest: the last multiple of `k + 1` at or below it.
            let read: std::collections::BTreeSet<(u64, u64)> = pinned
                .iter()
                .flat_map(|&pin| (0..6).map(move |k| (k, pin / (k + 1) * (k + 1))))
                .filter(|&(k, height)| height != 40 / (k + 1) * (k + 1))
                .collect();
            let before: Vec<_> = pinned.iter().map(|&pin| reads(&shard, pin)).collect();
            shard.compact(pinned);
            assert_eq!(shard.history.len(), read.len(), "pinned {pinned:?}");
            assert_eq!(shard.kept, read.len());
            let after: Vec<_> = pinned.iter().map(|&pin| reads(&shard, pin)).collect();
            assert_eq!(after, before, "pinned {pinned:?}");
        }
    }

    /// A pin keeps its height readable across batches until the last pin of
    /// it drops; a height below the tip may be pinned again only while one
    /// holds it.
    #[test]
    fn a_pin_holds_its_height_until_the_last_one_drops() {
        let backend = MemBackend::new();
        backend.apply_batch(1, &batch(&[(1, 10), (2, 20)]));
        let first = backend.pin(1);
        for height in 2..40 {
            backend.apply_batch(height, &batch(&[(1, height), (2, height)]));
        }
        assert!(backend.stats().compactions > 0);
        let second = backend.pin(1);
        drop(first);
        backend.apply_batch(40, &batch(&[(1, 40)]));
        assert_eq!(backend.get(&key(1), 1), Some(U256::from(10u64)));
        assert_eq!(backend.get(&key(2), 1), Some(U256::from(20u64)));
        assert!(backend.replaced_versions() < 2 * 38);
        drop(second);
        assert!(backend.pins.0.lock().expect("registry").is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "neither the tip 1 nor pinned")]
    fn pinning_an_unpinned_height_below_the_tip_fails_in_a_debug_build() {
        let backend = MemBackend::new();
        backend.apply_batch(1, &batch(&[(1, 10)]));
        let _ = backend.pin(0);
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
