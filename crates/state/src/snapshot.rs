//! Immutable state snapshots with copy-on-write block application.
//!
//! The paper (§II-A) defines `S^l` as the blockchain state after executing
//! all transactions up to block `l`; executors always read "the latest
//! snapshot `S^{l-1}`" when a state item has no earlier write in the block.
//! A [`Snapshot`] is therefore immutable and cheap to share across the many
//! concurrent EVM instances of a block execution.
//!
//! A snapshot is a [`StateBackend`] read at a pinned height, `as_of`, plus
//! the write layers of the blocks applied on top of it since. The pin is a
//! [`HeightPin`] the snapshot's clones and its [`Snapshot::apply`]
//! descendants share: the backend keeps what a read at `as_of` sees until
//! the last of them drops.
//!
//! [`Snapshot::apply`] is copy-on-write: instead of cloning the full state
//! per block (O(state) work and memory for a block that wrote a handful of
//! keys), the new snapshot layers the block's writes as an overlay over the
//! `Arc`-shared parent layers. Reads scan overlays newest → oldest and fall
//! through to the backend; a zero value in an overlay is a tombstone
//! (EVM storage-clearing), indistinguishable from absence as required.
//! Past [`MAX_OVERLAYS`] layers the overlays collapse into one, zeros kept
//! as tombstones over the backend, so read cost stays bounded rather than
//! growing with chain length.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dmvcc_primitives::U256;

use crate::backend::{HeightPin, MemBackend, StateBackend};
use crate::StateKey;

/// The set of final writes a block execution produces, keyed
/// deterministically so that applying it is order-independent.
pub type WriteSet = BTreeMap<StateKey, U256>;

/// Overlay depth past which [`Snapshot::apply`] collapses the overlays into
/// one layer. Small enough that a read never scans more than a handful of
/// maps, large enough that collapsing is amortized over many cheap block
/// applications.
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
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The store beneath the overlays, read at height `as_of`. Pinning
    /// `as_of` is what keeps a snapshot immutable over a *shared* backend:
    /// newer batches land in it, but this snapshot keeps resolving every
    /// fallthrough read at its own height.
    backend: Arc<dyn StateBackend>,
    as_of: u64,
    /// What keeps `as_of` readable while this snapshot, a clone or a
    /// descendant lives (`None` over a backend that keeps every version).
    pin: Option<Arc<HeightPin>>,
    /// Write layers of the blocks applied above `as_of`, oldest → newest.
    /// Zero values are tombstones.
    overlays: Vec<Arc<HashMap<StateKey, U256>>>,
    height: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::empty()
    }
}

impl Snapshot {
    /// Creates the empty snapshot at height zero (pre-genesis).
    pub fn empty() -> Self {
        Snapshot::from_entries([])
    }

    /// Builds a snapshot from initial entries (genesis allocation): a fresh
    /// [`MemBackend`] that holds them as its height-0 batch.
    ///
    /// Zero values are dropped: they are indistinguishable from absence. Of
    /// equal keys the last wins.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (StateKey, U256)>,
    {
        let run: Vec<(StateKey, U256)> =
            entries.into_iter().filter(|(_, v)| !v.is_zero()).collect();
        let backend = MemBackend::new();
        backend.load_genesis(&run);
        Snapshot::from_backend(Arc::new(backend), 0)
    }

    /// Builds a snapshot that reads `backend` at height `as_of`.
    ///
    /// The overlays start empty: reads fall through to
    /// `backend.get(key, as_of)`, and [`Snapshot::apply`] layers block
    /// writes above it. The snapshot pins `as_of` ([`StateBackend::pin`]),
    /// so it stays immutable even as newer batches land in the shared
    /// backend and reclaim what no pin reads. `as_of` must be the backend's
    /// tip or a height a live snapshot pins already: below the tip, an
    /// unpinned height may have lost versions (a debug build panics).
    pub fn from_backend(backend: Arc<dyn StateBackend>, as_of: u64) -> Self {
        Snapshot {
            pin: backend.pin(as_of).map(Arc::new),
            backend,
            as_of,
            overlays: Vec::new(),
            height: as_of,
        }
    }

    /// Reads a state item; absent keys are zero.
    pub fn get(&self, key: &StateKey) -> U256 {
        for overlay in self.overlays.iter().rev() {
            if let Some(&value) = overlay.get(key) {
                return value; // a stored zero is a tombstone — reads as zero
            }
        }
        self.backend.get(key, self.as_of).unwrap_or(U256::ZERO)
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

    /// Number of copy-on-write layers above the backend.
    pub fn overlay_depth(&self) -> usize {
        self.overlays.len()
    }

    /// Whether this snapshot is its backend read at `height`, with nothing
    /// layered over it.
    pub(crate) fn is_unlayered_at(&self, height: u64) -> bool {
        self.overlays.is_empty() && self.as_of == height
    }

    /// Produces the next snapshot by applying a block's final writes.
    ///
    /// Copy-on-write: the parent's layers are shared via `Arc`, and the
    /// writes become a new top overlay (zeros recorded as tombstones,
    /// matching EVM storage-clearing semantics and the trie commitment in
    /// [`crate::StateDb`]). Past `MAX_OVERLAYS` layers the overlays
    /// collapse into one; the backend stays beneath, untouched, so this
    /// never materializes the backend's state in RAM.
    pub fn apply(&self, writes: &WriteSet) -> Snapshot {
        let mut overlays = self.overlays.clone();
        overlays.push(Arc::new(writes.iter().map(|(k, v)| (*k, *v)).collect()));
        if overlays.len() > MAX_OVERLAYS {
            // Zeros stay: they shadow the backend's versions of the keys.
            let mut collapsed = (*overlays[0]).clone();
            for overlay in &overlays[1..] {
                collapsed.extend(overlay.iter().map(|(k, v)| (*k, *v)));
            }
            overlays = vec![Arc::new(collapsed)];
        }
        Snapshot {
            backend: Arc::clone(&self.backend),
            as_of: self.as_of,
            pin: self.pin.clone(),
            overlays,
            height: self.height + 1,
        }
    }

    /// The fully-merged view: the backend at `as_of` and the overlays,
    /// tombstones resolved. Materializes everything — cold path only.
    fn merged(&self) -> HashMap<StateKey, U256> {
        let mut map: HashMap<StateKey, U256> =
            self.backend.iter_as_of(self.as_of).into_iter().collect();
        for overlay in &self.overlays {
            for (key, value) in overlay.iter() {
                if value.is_zero() {
                    map.remove(key);
                } else {
                    map.insert(*key, *value);
                }
            }
        }
        map
    }

    /// Iterates over all nonzero entries (unspecified order).
    ///
    /// Materializes the merged view — a cold path for listings and test
    /// oracles, not block execution.
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
        let s2 = s1.apply(&WriteSet::new());
        // The backend and the parent's layers are shared, not copied.
        assert!(Arc::ptr_eq(&s0.backend, &s1.backend));
        assert!(Arc::ptr_eq(&s1.overlays[0], &s2.overlays[0]));
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
