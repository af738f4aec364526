//! A sorted, duplicate-free vector: the set or map for a handful of entries.
//!
//! A transaction touches a handful of keys out of the tens of thousands a
//! block holds, so the collections that describe one transaction — its
//! predicted key sets, its touched/published ids — are a few entries each.
//! One sorted vector beats a tree or a hash table at that size: membership
//! is a binary search, iteration is the slice, a clone is one allocation and
//! `clear` keeps the buffer.

use std::ops::Deref;

use crate::{KeyId, StateKey};

/// An entry a [`SortedVec`] orders by its key: the entry itself for a set,
/// the first half of a pair for a map.
pub trait Keyed {
    /// What the entries are ordered and looked up by.
    type Key: Ord;

    /// This entry's key.
    fn key(&self) -> &Self::Key;
}

impl Keyed for KeyId {
    type Key = KeyId;

    fn key(&self) -> &KeyId {
        self
    }
}

impl Keyed for StateKey {
    type Key = StateKey;

    fn key(&self) -> &StateKey {
        self
    }
}

impl<K: Ord, V> Keyed for (K, V) {
    type Key = K;

    fn key(&self) -> &K {
        &self.0
    }
}

/// A vector kept sorted by [`Keyed::key`] with one entry per key. It
/// dereferences to the sorted slice; every way to put an entry in keeps the
/// order, and an entry whose key is already present replaces the old one.
///
/// # Examples
///
/// ```
/// use dmvcc_state::SortedVec;
///
/// let mut pcs: SortedVec<(u8, usize)> = [(7, 1), (3, 2), (7, 9)].into_iter().collect();
/// assert_eq!(*pcs, [(3, 2), (7, 9)]);
/// pcs.insert((5, 0));
/// assert_eq!(pcs.get(&5), Some(&(5, 0)));
/// assert_eq!(pcs.remove(&3), Some((3, 2)));
/// assert!(!pcs.contains(&3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedVec<T> {
    items: Vec<T>,
}

impl<T> Default for SortedVec<T> {
    fn default() -> Self {
        SortedVec { items: Vec::new() }
    }
}

impl<T> SortedVec<T> {
    /// Empties the vector, keeping the buffer for reuse.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Heap bytes retained by the buffer (arena accounting).
    pub fn retained_bytes(&self) -> u64 {
        (self.items.capacity() * std::mem::size_of::<T>()) as u64
    }
}

impl<T: Keyed> SortedVec<T> {
    fn position(&self, key: &T::Key) -> Result<usize, usize> {
        self.items.binary_search_by(|item| item.key().cmp(key))
    }

    /// Inserts `item`, returning the entry of the same key it replaced.
    pub fn insert(&mut self, item: T) -> Option<T> {
        match self.position(item.key()) {
            Ok(at) => Some(std::mem::replace(&mut self.items[at], item)),
            Err(at) => {
                self.items.insert(at, item);
                None
            }
        }
    }

    /// Removes and returns the entry for `key`.
    pub fn remove(&mut self, key: &T::Key) -> Option<T> {
        self.position(key).ok().map(|at| self.items.remove(at))
    }

    /// The entry for `key`.
    pub fn get(&self, key: &T::Key) -> Option<&T> {
        self.position(key).ok().map(|at| &self.items[at])
    }

    /// `true` if there is an entry for `key`.
    pub fn contains(&self, key: &T::Key) -> bool {
        self.position(key).is_ok()
    }

    /// Replaces the contents with `items` (any order; of entries with one
    /// key the last wins), reusing the buffer.
    pub fn assign(&mut self, items: impl IntoIterator<Item = T>) {
        self.items.clear();
        self.items.extend(items);
        self.normalize();
    }

    /// Sorts (stably, so equal keys keep their order) and keeps the last
    /// entry of each key.
    fn normalize(&mut self) {
        self.items.sort_by(|a, b| a.key().cmp(b.key()));
        self.items.dedup_by(|later, kept| {
            let same = later.key() == kept.key();
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
    }
}

impl<T> Deref for SortedVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T: Keyed> From<Vec<T>> for SortedVec<T> {
    /// Takes over `items` and its allocation (any order; of entries with
    /// one key the last wins).
    fn from(items: Vec<T>) -> Self {
        let mut sorted = SortedVec { items };
        sorted.normalize();
        sorted
    }
}

impl<T: Keyed> FromIterator<T> for SortedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        SortedVec::from(items.into_iter().collect::<Vec<T>>())
    }
}

impl<'a, T> IntoIterator for &'a SortedVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_insert_contains_assign_clear() {
        let id = KeyId::from_index;
        let mut set = SortedVec::default();
        assert_eq!(set.insert(id(200)), None);
        set.insert(id(3));
        assert_eq!(set.insert(id(200)), Some(id(200)));
        assert_eq!(*set, [id(3), id(200)]);
        assert!(set.contains(&id(3)));
        assert!(!set.contains(&id(4)));
        assert!(!set.contains(&id(10_000)));
        // Two ids cost two ids, wherever they sit in the key space.
        assert!(set.retained_bytes() < 64);
        set.assign([id(9), id(1), id(9), id(5)]);
        assert_eq!(*set, [id(1), id(5), id(9)]);
        let held = set.retained_bytes();
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(&id(1)));
        assert_eq!(set.retained_bytes(), held);
    }

    proptest! {
        /// Whatever goes in, by whichever door, the vector is what a
        /// `BTreeMap` fed the same entries in the same order holds.
        #[test]
        fn equals_a_btree_map_fed_the_same_entries(
            bulk in prop::collection::vec((0u8..12, 0usize..100), 0..24),
            singles in prop::collection::vec((0u8..12, 0usize..100), 0..8),
            removed in prop::collection::vec(0u8..12, 0..4),
        ) {
            let mut model: std::collections::BTreeMap<u8, usize> = bulk.iter().copied().collect();
            let mut sorted: SortedVec<(u8, usize)> = bulk.into_iter().collect();
            for (key, value) in singles {
                prop_assert_eq!(sorted.insert((key, value)).map(|old| old.1), model.insert(key, value));
            }
            for key in removed {
                prop_assert_eq!(sorted.remove(&key).map(|old| old.1), model.remove(&key));
                prop_assert!(!sorted.contains(&key));
            }
            prop_assert_eq!(sorted.to_vec(), model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
            for (key, value) in &model {
                prop_assert_eq!(sorted.get(key), Some(&(*key, *value)));
            }
        }
    }
}
