//! Immutable state snapshots with copy-on-write block application.
//!
//! The paper (§II-A) defines `S^l` as the blockchain state after executing
//! all transactions up to block `l`; executors always read "the latest
//! snapshot `S^{l-1}`" when a state item has no earlier write in the block.
//! A [`Snapshot`] is therefore immutable and cheap to share across the many
//! concurrent EVM instances of a block execution.
//!
//! [`Snapshot::apply`] is copy-on-write: instead of cloning the full state
//! map per block (O(state) work and memory for a block that wrote a handful
//! of keys), the new snapshot layers the block's writes as an overlay over
//! the `Arc`-shared parent state. Reads scan overlays newest → oldest and
//! fall through to the base; a zero value in an overlay is a tombstone
//! (EVM storage-clearing), indistinguishable from absence as required.
//! After [`MAX_OVERLAYS`] layers the chain is flattened into a fresh base
//! so read cost stays O(1) amortized rather than growing with chain length.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dmvcc_primitives::U256;

use crate::backend::StateBackend;
use crate::StateKey;

/// The set of final writes a block execution produces, keyed
/// deterministically so that applying it is order-independent.
pub type WriteSet = BTreeMap<StateKey, U256>;

/// Overlay depth at which [`Snapshot::apply`] flattens the layer chain back
/// into a single base map. Small enough that a read never scans more than a
/// handful of maps, large enough that flattening cost is amortized over
/// many cheap block applications.
const MAX_OVERLAYS: usize = 8;

/// An immutable point-in-time view of all state items.
///
/// Missing keys read as zero, mirroring EVM storage semantics. Cloning is
/// O(overlays) `Arc` bumps; [`Snapshot::apply`] is O(block writes), not
/// O(total state).
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::{Snapshot, StateKey};
///
/// let key = StateKey::balance(Address::from_u64(1));
/// let genesis = Snapshot::from_entries([(key, U256::from(100u64))]);
/// assert_eq!(genesis.get(&key), U256::from(100u64));
/// assert_eq!(genesis.get(&StateKey::balance(Address::from_u64(2))), U256::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The flattened bottom layer. Never contains zero values unless a
    /// cold backend sits beneath, in which case zeros are tombstones
    /// shadowing backend versions.
    base: Arc<HashMap<StateKey, U256>>,
    /// Write layers, oldest → newest. Zero values are tombstones.
    overlays: Vec<Arc<HashMap<StateKey, U256>>>,
    height: u64,
    /// Persistent backend beneath the in-memory layers, pinned to the
    /// version the snapshot was taken at.
    cold: Option<ColdBase>,
}

/// A [`StateBackend`] read through at a fixed height.
///
/// Pinning `as_of` is what keeps snapshots immutable over a *shared*
/// mutable backend: newer batches land in the backend, but this snapshot
/// keeps resolving every fallthrough read at its own height.
#[derive(Debug, Clone)]
struct ColdBase {
    backend: Arc<dyn StateBackend>,
    as_of: u64,
}

impl Snapshot {
    /// Creates the empty snapshot at height zero (pre-genesis).
    pub fn empty() -> Self {
        Snapshot::default()
    }

    /// Builds a snapshot from initial entries (genesis allocation).
    ///
    /// Zero values are dropped: they are indistinguishable from absence.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (StateKey, U256)>,
    {
        let map: HashMap<StateKey, U256> =
            entries.into_iter().filter(|(_, v)| !v.is_zero()).collect();
        Snapshot {
            base: Arc::new(map),
            overlays: Vec::new(),
            height: 0,
            cold: None,
        }
    }

    /// Builds a snapshot whose bottom layer is a persistent backend read
    /// at height `as_of`.
    ///
    /// The in-memory layers start empty: reads fall through to
    /// `backend.get(key, as_of)`, and [`Snapshot::apply`] layers block
    /// writes above the backend exactly as it does above an in-memory
    /// base. The snapshot stays immutable even as newer batches land in
    /// the shared backend, because `as_of` is pinned.
    pub fn from_backend(backend: Arc<dyn StateBackend>, as_of: u64) -> Self {
        Snapshot {
            base: Arc::new(HashMap::new()),
            overlays: Vec::new(),
            height: as_of,
            cold: Some(ColdBase { backend, as_of }),
        }
    }

    /// Reads a state item; absent keys are zero.
    pub fn get(&self, key: &StateKey) -> U256 {
        for overlay in self.overlays.iter().rev() {
            if let Some(&value) = overlay.get(key) {
                return value; // a stored zero is a tombstone — reads as zero
            }
        }
        if let Some(&value) = self.base.get(key) {
            return value; // with a cold base, a stored zero is a tombstone
        }
        match &self.cold {
            Some(cold) => cold.backend.get(key, cold.as_of).unwrap_or(U256::ZERO),
            None => U256::ZERO,
        }
    }

    /// Returns `true` if the key holds a nonzero value.
    pub fn contains(&self, key: &StateKey) -> bool {
        !self.get(key).is_zero()
    }

    /// Number of nonzero state items.
    ///
    /// Walks the full layer chain (cold path; hot reads use [`get`]).
    ///
    /// [`get`]: Snapshot::get
    pub fn len(&self) -> usize {
        self.merged().len()
    }

    /// Returns `true` if no state item is nonzero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block height this snapshot reflects (`0` = genesis).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Number of copy-on-write layers above the base (0 when flat).
    pub fn overlay_depth(&self) -> usize {
        self.overlays.len()
    }

    /// Produces the next snapshot by applying a block's final writes.
    ///
    /// Copy-on-write: the parent's layers are shared via `Arc`, and the
    /// writes become a new top overlay (zeros recorded as tombstones,
    /// matching EVM storage-clearing semantics and the trie commitment in
    /// [`crate::StateDb`]). Once the chain reaches `MAX_OVERLAYS` layers
    /// it is flattened into a fresh base.
    pub fn apply(&self, writes: &WriteSet) -> Snapshot {
        let mut next = Snapshot {
            base: Arc::clone(&self.base),
            overlays: self.overlays.clone(),
            height: self.height + 1,
            cold: self.cold.clone(),
        };
        let layer: HashMap<StateKey, U256> = writes.iter().map(|(k, v)| (*k, *v)).collect();
        next.overlays.push(Arc::new(layer));
        if next.overlays.len() > MAX_OVERLAYS {
            // Flatten only the in-memory layers; the cold backend (if
            // any) stays beneath, untouched, so flattening never
            // materializes the full persistent state into RAM.
            next.base = Arc::new(next.flattened_layers());
            next.overlays.clear();
        }
        next
    }

    /// Base plus overlays merged into one map, *excluding* the cold
    /// backend. Without a cold base, zeros are dropped (absence and zero
    /// are identical); with one, zeros are kept as tombstones so deleted
    /// keys do not resurface from the backend.
    fn flattened_layers(&self) -> HashMap<StateKey, U256> {
        let keep_zeros = self.cold.is_some();
        let mut map = (*self.base).clone();
        for overlay in &self.overlays {
            for (key, value) in overlay.iter() {
                if value.is_zero() && !keep_zeros {
                    map.remove(key);
                } else {
                    map.insert(*key, *value);
                }
            }
        }
        map
    }

    /// The fully-merged view: cold backend, base and overlays, tombstones
    /// resolved. Materializes everything — cold path only.
    fn merged(&self) -> HashMap<StateKey, U256> {
        let mut map: HashMap<StateKey, U256> = match &self.cold {
            Some(cold) => cold.backend.iter_as_of(cold.as_of).into_iter().collect(),
            None => return self.flattened_layers(),
        };
        for (key, value) in self.flattened_layers() {
            if value.is_zero() {
                map.remove(&key);
            } else {
                map.insert(key, value);
            }
        }
        map
    }

    /// Iterates over all nonzero entries (unspecified order).
    ///
    /// Materializes the merged view — a cold path used for genesis
    /// commitment, not block execution.
    pub fn iter(&self) -> impl Iterator<Item = (StateKey, U256)> {
        self.merged().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;

    fn key(i: u64) -> StateKey {
        StateKey::storage(Address::from_u64(1), U256::from(i))
    }

    #[test]
    fn empty_reads_zero() {
        let snapshot = Snapshot::empty();
        assert_eq!(snapshot.get(&key(1)), U256::ZERO);
        assert!(snapshot.is_empty());
        assert_eq!(snapshot.height(), 0);
    }

    #[test]
    fn from_entries_drops_zeros() {
        let snapshot = Snapshot::from_entries([(key(1), U256::from(5u64)), (key(2), U256::ZERO)]);
        assert_eq!(snapshot.len(), 1);
        assert!(snapshot.contains(&key(1)));
        assert!(!snapshot.contains(&key(2)));
    }

    #[test]
    fn apply_advances_height_and_values() {
        let s0 = Snapshot::from_entries([(key(1), U256::from(5u64))]);
        let mut writes = WriteSet::new();
        writes.insert(key(1), U256::from(9u64));
        writes.insert(key(2), U256::from(7u64));
        let s1 = s0.apply(&writes);
        assert_eq!(s1.height(), 1);
        assert_eq!(s1.get(&key(1)), U256::from(9u64));
        assert_eq!(s1.get(&key(2)), U256::from(7u64));
        // Original unchanged (snapshots are immutable).
        assert_eq!(s0.get(&key(1)), U256::from(5u64));
        assert_eq!(s0.get(&key(2)), U256::ZERO);
    }

    #[test]
    fn apply_zero_deletes() {
        let s0 = Snapshot::from_entries([(key(1), U256::from(5u64))]);
        let mut writes = WriteSet::new();
        writes.insert(key(1), U256::ZERO);
        let s1 = s0.apply(&writes);
        assert!(!s1.contains(&key(1)));
        assert_eq!(s1.get(&key(1)), U256::ZERO);
        assert_eq!(s1.len(), 0);
    }

    #[test]
    fn clone_shares_structure() {
        let s0 = Snapshot::from_entries([(key(1), U256::from(5u64))]);
        let s1 = s0.clone();
        assert_eq!(s1.get(&key(1)), U256::from(5u64));
    }

    #[test]
    fn apply_is_copy_on_write() {
        let s0 = Snapshot::from_entries([(key(1), U256::from(5u64))]);
        let mut writes = WriteSet::new();
        writes.insert(key(2), U256::from(7u64));
        let s1 = s0.apply(&writes);
        // The parent's base map is shared, not copied.
        assert!(Arc::ptr_eq(&s0.base, &s1.base));
        assert_eq!(s1.overlay_depth(), 1);
        assert_eq!(s1.get(&key(1)), U256::from(5u64));
    }

    #[test]
    fn cold_base_reads_fall_through_at_pinned_height() {
        use crate::MemBackend;
        let backend = Arc::new(MemBackend::new());
        let mut w = WriteSet::new();
        w.insert(key(1), U256::from(10u64));
        backend.apply_batch(1, &w);
        let snapshot = Snapshot::from_backend(backend.clone(), 1);
        assert_eq!(snapshot.height(), 1);
        assert_eq!(snapshot.get(&key(1)), U256::from(10u64));
        assert_eq!(snapshot.get(&key(2)), U256::ZERO);
        // A newer batch in the shared backend must stay invisible.
        let mut w2 = WriteSet::new();
        w2.insert(key(1), U256::from(99u64));
        backend.apply_batch(2, &w2);
        assert_eq!(snapshot.get(&key(1)), U256::from(10u64));
        // But overlays applied on top win as usual.
        let mut w3 = WriteSet::new();
        w3.insert(key(1), U256::from(50u64));
        let next = snapshot.apply(&w3);
        assert_eq!(next.get(&key(1)), U256::from(50u64));
        assert_eq!(snapshot.get(&key(1)), U256::from(10u64));
    }

    #[test]
    fn cold_base_tombstones_survive_flattening() {
        use crate::MemBackend;
        let backend = Arc::new(MemBackend::new());
        let mut genesis = WriteSet::new();
        genesis.insert(key(1), U256::from(10u64));
        genesis.insert(key(2), U256::from(20u64));
        backend.apply_batch(1, &genesis);
        let mut snapshot = Snapshot::from_backend(backend, 1);
        // Delete key 1, then push enough layers to force a flatten.
        let mut del = WriteSet::new();
        del.insert(key(1), U256::ZERO);
        snapshot = snapshot.apply(&del);
        for i in 0..(MAX_OVERLAYS as u64 + 2) {
            let mut w = WriteSet::new();
            w.insert(key(100 + i), U256::from(i + 1));
            snapshot = snapshot.apply(&w);
        }
        assert!(snapshot.overlay_depth() < MAX_OVERLAYS);
        // The deletion must not resurface from the backend.
        assert_eq!(snapshot.get(&key(1)), U256::ZERO);
        assert!(!snapshot.contains(&key(1)));
        assert_eq!(snapshot.get(&key(2)), U256::from(20u64));
        let live: Vec<_> = snapshot.iter().collect();
        assert!(live.iter().all(|(k, _)| *k != key(1)));
        assert!(live
            .iter()
            .any(|(k, v)| *k == key(2) && *v == U256::from(20u64)));
    }

    #[test]
    fn cow_flattens_after_n_layers() {
        let mut snapshot = Snapshot::from_entries([(key(0), U256::from(1u64))]);
        // Apply more blocks than MAX_OVERLAYS; depth must stay bounded and
        // every value — including ones only present in flattened-away
        // layers and deleted keys — must stay correct.
        for i in 1..=(MAX_OVERLAYS as u64 * 3) {
            let mut writes = WriteSet::new();
            writes.insert(key(i), U256::from(i));
            if i % 4 == 0 {
                writes.insert(key(i - 1), U256::ZERO); // delete previous
            }
            snapshot = snapshot.apply(&writes);
            assert!(
                snapshot.overlay_depth() <= MAX_OVERLAYS,
                "depth {} exceeded cap after block {}",
                snapshot.overlay_depth(),
                i
            );
        }
        assert!(snapshot.overlay_depth() < MAX_OVERLAYS * 3);
        for i in 1..=(MAX_OVERLAYS as u64 * 3) {
            let expected = if (i + 1) % 4 == 0 && i < MAX_OVERLAYS as u64 * 3 {
                U256::ZERO
            } else {
                U256::from(i)
            };
            assert_eq!(snapshot.get(&key(i)), expected, "key {i}");
        }
        assert_eq!(snapshot.height(), MAX_OVERLAYS as u64 * 3);
    }
}
