//! Block-arena memory recycling for the hot execution path.
//!
//! Without recycling the sharded executor pays the allocator on every
//! block: fresh shard tables, fresh per-transaction scheduling state, and
//! fresh sets for touched/published key tracking. The per-transaction sets
//! and buffers are keyed by dense [`dmvcc_state::KeyId`] and are one sorted
//! vector each (a transaction touches a handful of keys; binary search on a
//! dense vector beats hashing, tree nodes, and a bitset as wide as the
//! block's key space):
//!
//! - [`dmvcc_state::SortedVec`] of ids, the touched/published sets;
//! - [`SmallMap`], the id→value write/add buffers of a running transaction.
//!
//! The executor-level pools (shard storage, per-tx states, the bound
//! block's flat arrays) live next to their types in `sharded.rs` /
//! `parallel.rs`; together with this module they form the "block arena":
//! allocations made for block *N* are reset wholesale and serve block
//! *N+1*. The bytes served from recycled memory are reported as
//! `ExecutorStats::alloc_bytes_saved`.

use dmvcc_primitives::U256;
use dmvcc_state::KeyId;

use crate::sharded::VersionOp;

/// A sorted `KeyId → U256` map backed by a single vector.
///
/// The per-attempt write/add buffers of a running transaction hold a
/// handful of entries; binary search over a dense vector is faster than a
/// `BTreeMap` and `clear` keeps capacity across attempts.
#[derive(Debug, Default, Clone)]
pub struct SmallMap {
    entries: Vec<(KeyId, U256)>,
}

impl SmallMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        SmallMap::default()
    }

    fn position(&self, id: KeyId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |(k, _)| *k)
    }

    /// The value for `id`, if present.
    pub fn get(&self, id: KeyId) -> Option<U256> {
        self.position(id).ok().map(|i| self.entries[i].1)
    }

    /// Mutable access to the value for `id`, if present.
    pub fn get_mut(&mut self, id: KeyId) -> Option<&mut U256> {
        self.position(id).ok().map(|i| &mut self.entries[i].1)
    }

    /// Sets `id` to `value`, replacing any existing entry.
    pub fn insert(&mut self, id: KeyId, value: U256) {
        match self.position(id) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (id, value)),
        }
    }

    /// Adds `delta` onto the entry for `id` (missing entries start at zero).
    pub fn add(&mut self, id: KeyId, delta: U256) {
        match self.position(id) {
            Ok(i) => self.entries[i].1 = self.entries[i].1.wrapping_add(delta),
            Err(i) => self.entries.insert(i, (id, delta)),
        }
    }

    /// Removes the entry for `id`, returning its value.
    pub fn remove(&mut self, id: KeyId) -> Option<U256> {
        self.position(id).ok().map(|i| self.entries.remove(i).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the map, keeping capacity for the next attempt.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyId, U256)> + '_ {
        self.entries.iter().copied()
    }
}

/// The write side of one execution attempt, shared by every engine's host:
/// buffered full writes and ω̄ deltas keyed by interned id, with the serial
/// oracle's merge rules (a full write absorbs the attempt's earlier deltas,
/// a delta after a full write extends it), so no key is ever in both maps.
#[derive(Debug, Default)]
pub(crate) struct WriteBuffer {
    writes: SmallMap,
    adds: SmallMap,
}

impl WriteBuffer {
    /// Read-your-writes: `Ok(value)` if the attempt fully wrote `id`,
    /// otherwise `Err(delta)` — the attempt's own delta (zero if none), to
    /// be layered onto the value the store resolves.
    pub(crate) fn read(&self, id: KeyId) -> Result<U256, U256> {
        match self.writes.get(id) {
            Some(value) => Ok(value),
            None => Err(self.adds.get(id).unwrap_or(U256::ZERO)),
        }
    }

    pub(crate) fn store(&mut self, id: KeyId, value: U256) {
        self.adds.remove(id);
        self.writes.insert(id, value);
    }

    pub(crate) fn add(&mut self, id: KeyId, delta: U256) {
        match self.writes.get_mut(id) {
            Some(value) => *value = value.wrapping_add(delta),
            None => self.adds.add(id, delta),
        }
    }

    /// Forgets `id` (its buffered value was published early).
    pub(crate) fn remove(&mut self, id: KeyId) {
        self.writes.remove(id);
        self.adds.remove(id);
    }

    pub(crate) fn clear(&mut self) {
        self.writes.clear();
        self.adds.clear();
    }

    /// Everything buffered, as publish ops: full writes, then deltas, each
    /// in ascending id order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (KeyId, VersionOp)> + '_ {
        let writes = self.writes.iter();
        let adds = self.adds.iter();
        writes
            .map(|(id, v)| (id, VersionOp::Publish(v, false)))
            .chain(adds.map(|(id, v)| (id, VersionOp::Publish(v, true))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_map_insert_add_remove() {
        let mut map = SmallMap::new();
        map.insert(KeyId::from_index(5), U256::from(50u64));
        map.insert(KeyId::from_index(1), U256::from(10u64));
        map.add(KeyId::from_index(5), U256::from(2u64));
        map.add(KeyId::from_index(9), U256::from(9u64));
        assert_eq!(map.get(KeyId::from_index(5)), Some(U256::from(52u64)));
        assert_eq!(map.get(KeyId::from_index(9)), Some(U256::from(9u64)));
        let ids: Vec<usize> = map.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![1, 5, 9]);
        assert_eq!(map.remove(KeyId::from_index(1)), Some(U256::from(10u64)));
        assert_eq!(map.len(), 2);
        map.clear();
        assert!(map.is_empty());
    }
}
