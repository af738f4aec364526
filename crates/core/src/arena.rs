//! Block-arena memory recycling for the hot execution path.
//!
//! Without recycling the sharded executor pays the allocator on every
//! block: fresh shard tables, fresh per-transaction scheduling state, and
//! fresh `HashSet`s for touched/published key tracking. This module
//! provides the allocation-light replacements for the per-transaction
//! sets and buffers:
//!
//! - [`IdSet`], a growable bitset over dense [`dmvcc_state::KeyId`]s that
//!   replaces the `HashSet<StateKey>` touched/published sets (insert and
//!   contains are a shift and a mask, clear keeps capacity);
//! - [`SmallMap`], a sorted id→value vector replacing the `BTreeMap`
//!   write/add buffers of a running transaction (blocks touch a handful of
//!   keys per tx; binary search on a dense vector beats tree nodes).
//!
//! The executor-level pools (shard storage, per-tx states) live next to
//! their types in `sharded.rs` / `parallel.rs`; together with this module
//! they form the "block arena": allocations made for block *N* are reset
//! wholesale and serve block *N+1*. The bytes served from recycled memory
//! are reported as `ExecutorStats::alloc_bytes_saved`.

use dmvcc_primitives::U256;
use dmvcc_state::KeyId;

use crate::sharded::VersionOp;

/// A growable bitset over dense [`KeyId`]s.
///
/// Replaces `HashSet<StateKey>` for per-transaction touched/published
/// tracking: O(1) insert/contains without hashing, and `clear` retains the
/// word buffer so re-executions and recycled blocks allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Inserts `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: KeyId) -> bool {
        let index = id.index();
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (index % 64);
        if self.words[word] & bit != 0 {
            return false;
        }
        self.words[word] |= bit;
        self.len += 1;
        true
    }

    /// `true` if `id` is in the set.
    pub fn contains(&self, id: KeyId) -> bool {
        let index = id.index();
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no id has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set, keeping the word buffer for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Heap bytes retained by the word buffer (arena accounting).
    pub fn retained_bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()) as u64
    }

    /// Iterates the contained ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = KeyId> + '_ {
        self.words.iter().enumerate().flat_map(|(word_idx, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(KeyId::from_index(word_idx * 64 + bit))
            })
        })
    }
}

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
    fn id_set_insert_contains_iter() {
        let mut set = IdSet::new();
        assert!(set.insert(KeyId::from_index(3)));
        assert!(set.insert(KeyId::from_index(200)));
        assert!(!set.insert(KeyId::from_index(3)));
        assert_eq!(set.len(), 2);
        assert!(set.contains(KeyId::from_index(3)));
        assert!(!set.contains(KeyId::from_index(4)));
        assert!(!set.contains(KeyId::from_index(10_000)));
        let ids: Vec<usize> = set.iter().map(|id| id.index()).collect();
        assert_eq!(ids, vec![3, 200]);
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(KeyId::from_index(3)));
    }

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
