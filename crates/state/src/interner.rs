//! Block-scoped key interning: `StateKey` → dense [`KeyId`].
//!
//! A `StateKey` is 52 bytes (20-byte address + 256-bit slot); hashing one
//! with the default SipHash costs more than the shard probe it guards, and
//! every hot-path structure keyed by `StateKey` (shard maps, waiter
//! indexes, DAG suffix maps) pays that tax per access. The interner maps
//! each key touched by a block to a dense `u32` id **once** at C-SAG bind
//! time; everything downstream indexes plain vectors by id.
//!
//! Two tiers:
//!
//! - a **frozen** table built single-threaded while predictions are bound
//!   ([`KeyInterner::preintern`]) — lock-free lookups during execution;
//! - a mutex-protected **dynamic tail** for keys discovered at runtime
//!   (mispredicted accesses), rare by construction.
//!
//! Ids are dense (`0..len`), unique per key and stable for one block; a new
//! block starts from a fresh interner or from [`KeyInterner::reset`], which
//! forgets every key and keeps the tables.
//!
//! # Examples
//!
//! ```
//! use dmvcc_primitives::Address;
//! use dmvcc_state::{KeyInterner, StateKey};
//!
//! let mut interner = KeyInterner::new();
//! let a = interner.preintern(StateKey::balance(Address::from_u64(1)));
//! let b = interner.preintern(StateKey::balance(Address::from_u64(2)));
//! assert_ne!(a, b);
//! assert_eq!(interner.resolve(a), StateKey::balance(Address::from_u64(1)));
//! // Shared phase: interning an unseen key goes to the dynamic tail.
//! let c = interner.intern(StateKey::balance(Address::from_u64(3)));
//! assert_eq!(c.index(), 2);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use crate::StateKey;

/// Dense per-block identifier for a [`StateKey`].
///
/// Ids index plain vectors: shard = `id & (shards - 1)`, slot within the
/// shard = `id >> log2(shards)`. The mapping is bijective, so two distinct
/// keys never share a (shard, slot) pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct KeyId(u32);

impl KeyId {
    /// Builds an id from a raw index (test/bench helper; real ids come from
    /// the interner).
    pub fn from_index(index: usize) -> Self {
        KeyId(index as u32)
    }

    /// The dense index this id denotes.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fast non-cryptographic hasher (FxHash-style multiply-xor) for interner
/// probes.
///
/// SipHash's keyed security is pointless here: keys come from bounded
/// workloads, tables are block-scoped, and a pathological collision costs a
/// slow probe, not a DoS. The multiply-rotate mix is ~5x cheaper on the
/// 52-byte `StateKey`.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into std collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hash map keyed by `StateKey` using the fast interner hash.
pub type FxKeyMap<V> = HashMap<StateKey, V, FxBuildHasher>;

#[derive(Debug, Default)]
struct DynamicTail {
    map: FxKeyMap<u32>,
    keys: Vec<StateKey>,
}

/// Two-tier `StateKey → KeyId` interner (see module docs).
#[derive(Debug)]
pub struct KeyInterner {
    frozen: FxKeyMap<u32>,
    frozen_keys: Vec<StateKey>,
    tail: Mutex<DynamicTail>,
}

impl KeyInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        KeyInterner {
            frozen: FxKeyMap::default(),
            frozen_keys: Vec::new(),
            tail: Mutex::new(DynamicTail::default()),
        }
    }

    /// Interns `key` into the frozen tier. Requires exclusive access — call
    /// while binding predictions, before the interner is shared.
    pub fn preintern(&mut self, key: StateKey) -> KeyId {
        if let Some(&id) = self.frozen.get(&key) {
            return KeyId(id);
        }
        let id = self.frozen_keys.len() as u32;
        self.frozen.insert(key, id);
        self.frozen_keys.push(key);
        KeyId(id)
    }

    /// Empties both tiers for a new block, keeping the tables' capacity.
    /// Returns the heap bytes kept (arena accounting).
    pub fn reset(&mut self) -> u64 {
        // A poisoned tail is emptied like any other.
        let tail = self.tail.get_mut().unwrap_or_else(|e| e.into_inner());
        let entries = self.frozen.capacity() + tail.map.capacity();
        let keys = self.frozen_keys.capacity() + tail.keys.capacity();
        self.frozen.clear();
        self.frozen_keys.clear();
        tail.map.clear();
        tail.keys.clear();
        (entries * std::mem::size_of::<(StateKey, u32)>() + keys * std::mem::size_of::<StateKey>())
            as u64
    }

    /// Number of keys in the frozen tier.
    pub fn frozen_len(&self) -> usize {
        self.frozen_keys.len()
    }

    /// Total interned keys (frozen + dynamic tail).
    pub fn len(&self) -> usize {
        self.frozen_keys.len() + self.tail.lock().unwrap().keys.len()
    }

    /// `true` if no key has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the id for `key`, assigning a fresh dense id from the
    /// dynamic tail if the key was not predicted. Lock-free for frozen keys.
    pub fn intern(&self, key: StateKey) -> KeyId {
        if let Some(&id) = self.frozen.get(&key) {
            return KeyId(id);
        }
        let mut tail = self.tail.lock().unwrap();
        if let Some(&id) = tail.map.get(&key) {
            return KeyId(id);
        }
        let id = (self.frozen_keys.len() + tail.keys.len()) as u32;
        tail.map.insert(key, id);
        tail.keys.push(key);
        KeyId(id)
    }

    /// Returns the id for `key` if it has already been interned.
    pub fn lookup(&self, key: &StateKey) -> Option<KeyId> {
        if let Some(&id) = self.frozen.get(key) {
            return Some(KeyId(id));
        }
        self.tail.lock().unwrap().map.get(key).copied().map(KeyId)
    }

    /// Maps an id back to its key. Lock-free for frozen ids.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: KeyId) -> StateKey {
        let index = id.index();
        if index < self.frozen_keys.len() {
            self.frozen_keys[index]
        } else {
            self.tail.lock().unwrap().keys[index - self.frozen_keys.len()]
        }
    }
}

impl Default for KeyInterner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::{Address, U256};
    use proptest::prelude::*;

    fn key(addr: u64, slot: u64) -> StateKey {
        StateKey::storage(Address::from_u64(addr), U256::from(slot))
    }

    #[test]
    fn roundtrip_frozen_and_dynamic() {
        let mut interner = KeyInterner::new();
        let a = interner.preintern(key(1, 0));
        let b = interner.preintern(key(2, 7));
        assert_eq!(interner.frozen_len(), 2);
        let c = interner.intern(key(3, 9));
        assert_eq!(interner.len(), 3);
        assert_eq!(interner.resolve(a), key(1, 0));
        assert_eq!(interner.resolve(b), key(2, 7));
        assert_eq!(interner.resolve(c), key(3, 9));
        assert_eq!(interner.lookup(&key(2, 7)), Some(b));
        assert_eq!(interner.lookup(&key(9, 9)), None);
    }

    #[test]
    fn intern_is_idempotent_across_tiers() {
        let mut interner = KeyInterner::new();
        let a = interner.preintern(key(1, 0));
        assert_eq!(interner.intern(key(1, 0)), a);
        let d = interner.intern(key(5, 5));
        assert_eq!(interner.intern(key(5, 5)), d);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn reset_forgets_every_key_and_restarts_ids() {
        let mut interner = KeyInterner::new();
        interner.preintern(key(1, 0));
        interner.preintern(key(2, 0));
        interner.intern(key(3, 0));
        assert!(interner.reset() > 0);
        assert!(interner.is_empty());
        assert_eq!(interner.lookup(&key(1, 0)), None);
        assert_eq!(interner.lookup(&key(3, 0)), None);
        assert_eq!(interner.preintern(key(2, 0)).index(), 0);
        assert_eq!(interner.intern(key(3, 0)).index(), 1);
    }

    #[test]
    fn fresh_interner_resets_ids() {
        let mut first = KeyInterner::new();
        first.preintern(key(1, 0));
        let id = first.preintern(key(2, 0));
        assert_eq!(id.index(), 1);
        // A new block builds a new interner: ids restart from zero and may
        // bind to different keys.
        let mut second = KeyInterner::new();
        let fresh = second.preintern(key(2, 0));
        assert_eq!(fresh.index(), 0);
    }

    proptest! {
        /// Dense, collision-free ids: interning any set of keys (with
        /// duplicates, split arbitrarily between bind-time and runtime)
        /// yields ids 0..n for the n distinct keys, no two distinct keys
        /// share an id, and ids are stable within the block.
        #[test]
        fn ids_are_dense_unique_and_stable(
            spec in prop::collection::vec(((0u64..16), (0u64..8), any::<bool>()), 0..64)
        ) {
            let mut interner = KeyInterner::new();
            for (addr, slot, frozen) in &spec {
                if *frozen {
                    interner.preintern(key(*addr, *slot));
                }
            }
            let mut assigned: Vec<(StateKey, KeyId)> = Vec::new();
            for (addr, slot, _) in &spec {
                let k = key(*addr, *slot);
                let id = interner.intern(k);
                assigned.push((k, id));
            }
            let distinct: std::collections::BTreeSet<_> =
                assigned.iter().map(|(k, _)| *k).collect();
            // Dense: ids cover exactly 0..distinct.len().
            let ids: std::collections::BTreeSet<_> =
                assigned.iter().map(|(_, id)| id.index()).collect();
            prop_assert_eq!(interner.len(), distinct.len());
            prop_assert_eq!(ids.len(), distinct.len());
            if let Some(max) = ids.iter().max() {
                prop_assert_eq!(max + 1, distinct.len());
            }
            // Unique + stable: same key always the same id, different keys
            // different ids, and resolve() inverts intern().
            for (k, id) in &assigned {
                prop_assert_eq!(interner.intern(*k), *id);
                prop_assert_eq!(interner.lookup(k), Some(*id));
                prop_assert_eq!(interner.resolve(*id), *k);
                for (other, other_id) in &assigned {
                    if other != k {
                        prop_assert_ne!(other_id, id);
                    }
                }
            }
        }
    }
}
