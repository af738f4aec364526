//! State model for the DMVCC reproduction: state keys, immutable snapshots,
//! the StateDB and a Merkle Patricia Trie used as the correctness oracle.
//!
//! The paper treats each 256-bit storage slot as an independent state item
//! (Definition 1, §V-A); this crate provides that key space ([`StateKey`]),
//! the per-block snapshots `S^l` ([`Snapshot`], [`StateDb`]) and the root
//! commitment that lets RQ1 compare parallel vs serial execution ([`Mpt`]).
//!
//! # Examples
//!
//! ```
//! use dmvcc_primitives::{Address, U256};
//! use dmvcc_state::{StateDb, StateKey, WriteSet};
//!
//! let mut db = StateDb::with_genesis([
//!     (StateKey::balance(Address::from_u64(1)), U256::from(100u64)),
//! ]);
//! let mut writes = WriteSet::new();
//! writes.insert(StateKey::balance(Address::from_u64(2)), U256::from(40u64));
//! writes.insert(StateKey::balance(Address::from_u64(1)), U256::from(60u64));
//! let root = db.commit(&writes);
//! assert_eq!(db.current_root(), root);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod flat;
mod interner;
mod key;
mod lsm;
mod mpt;
mod snapshot;
mod sorted;
mod statedb;
mod workers;

pub use backend::{BackendStats, HeightPin, MemBackend, StateBackend};
pub use flat::FlatStats;
pub use interner::{FxBuildHasher, FxHasher, FxKeyMap, KeyId, KeyInterner};
pub use key::{StateKey, BALANCE_SLOT, NONCE_SLOT};
pub use lsm::{LsmBackend, LsmOptions};
pub use mpt::{empty_root, index_root, index_root_hashed, Mpt};
pub use snapshot::{Snapshot, WriteSet};
pub use sorted::{Keyed, SortedVec};
pub use statedb::{RootHandle, StateDb};
pub use workers::default_hash_threads;
