//! Cross-layer equivalence proptests: every read surface of the state
//! stack — the flat cache, the trie-backed [`StateDb`] snapshots, and the
//! raw backends — must agree under random insert/remove/commit
//! interleavings, and the async root pipeline must land on exactly the
//! sync roots. The three backends a database can stand on — the bare
//! sharded in-memory store, the same behind the flat cache, and the LSM
//! store — answer every read at every height alike and commit the roots of
//! a trie rebuilt from a model of the state.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use dmvcc_primitives::rlp::put_uint_be;
use dmvcc_primitives::{keccak256, Address, H256, U256};
use dmvcc_state::{
    FlatCached, LsmBackend, LsmOptions, MemBackend, Mpt, StateBackend, StateDb, StateKey, WriteSet,
};

fn key(addr: u64, slot: u64) -> StateKey {
    StateKey::storage(Address::from_u64(1 + addr), U256::from(slot))
}

/// One random history: blocks of (addr, slot, value) writes; value 0 is a
/// delete (tombstone).
fn blocks_strategy() -> impl Strategy<Value = Vec<Vec<(u64, u64, u64)>>> {
    prop::collection::vec(
        prop::collection::vec(((0u64..12), (0u64..4), (0u64..5)), 1..12),
        1..8,
    )
}

fn write_set(block: &[(u64, u64, u64)]) -> WriteSet {
    block
        .iter()
        .map(|&(addr, slot, value)| (key(addr, slot), U256::from(value)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A `with_genesis` StateDb (over its in-memory backend), an
    /// LsmBackend-backed StateDb (tiny thresholds: flushes + compactions
    /// inside the case), and a flat model map all agree — on every key's
    /// value — after every block of a random history, and the two commit
    /// the same roots.
    #[test]
    fn mem_lsm_and_model_agree(blocks in blocks_strategy()) {
        let genesis = vec![(key(0, 0), U256::from(77u64))];
        let mut mem = StateDb::with_genesis(genesis.clone());
        let mut lsm = StateDb::with_backend(
            Arc::new(LsmBackend::new(LsmOptions::tiny())),
            genesis.clone(),
        );
        let mut model: BTreeMap<StateKey, U256> = genesis.into_iter().collect();

        prop_assert_eq!(mem.current_root(), lsm.current_root());

        for block in &blocks {
            let writes = write_set(block);
            prop_assert_eq!(lsm.commit(&writes), mem.commit(&writes));
            for (k, v) in &writes {
                if v.is_zero() {
                    model.remove(k);
                } else {
                    model.insert(*k, *v);
                }
            }
            // Every key the history ever touched reads identically on both
            // snapshot surfaces and matches the model.
            for addr in 0..12 {
                for slot in 0..4 {
                    let k = key(addr, slot);
                    let want = model.get(&k).copied().unwrap_or(U256::ZERO);
                    prop_assert_eq!(mem.latest().get(&k), want);
                    prop_assert_eq!(lsm.latest().get(&k), want);
                }
            }
        }
    }

    /// The flat cache is transparent: a FlatCached wrapper over a backend
    /// returns exactly the uncached backend's answer for any (key, as_of)
    /// — including historical heights, which bypass the cache — across a
    /// random batch history.
    #[test]
    fn flat_cache_is_transparent(blocks in blocks_strategy(), probes in prop::collection::vec(((0u64..12), (0u64..4), (0u64..10)), 1..32)) {
        let plain_backend = Arc::new(MemBackend::new());
        let cached_backend: Arc<dyn StateBackend> = Arc::new(MemBackend::new());
        let flat = FlatCached::new(cached_backend);
        for (i, block) in blocks.iter().enumerate() {
            let height = 1 + i as u64;
            let writes = write_set(block);
            plain_backend.apply_batch(height, &writes);
            flat.apply_batch(height, &writes);
        }
        let tip = plain_backend.tip();
        for (addr, slot, as_of) in probes {
            let k = key(addr, slot);
            let as_of = as_of.min(tip + 1);
            // Probe twice: the first read may fill the cache, the second
            // must hit it — both must equal the uncached backend.
            prop_assert_eq!(flat.get(&k, as_of), plain_backend.get(&k, as_of));
            prop_assert_eq!(flat.get(&k, as_of), plain_backend.get(&k, as_of));
        }
    }

    /// Async commits resolve to exactly the sync-commit roots, block by
    /// block, and `root_at` serves every in-window height identically on
    /// both databases.
    #[test]
    fn async_roots_equal_sync_roots(blocks in blocks_strategy()) {
        let genesis = vec![(key(0, 0), U256::from(77u64))];
        let mut sync_db = StateDb::with_genesis(genesis.clone());
        let mut async_db = StateDb::with_genesis(genesis);
        async_db.set_hash_threads(2);
        let mut handles = Vec::new();
        for block in &blocks {
            let writes = write_set(block);
            sync_db.commit(&writes);
            handles.push(async_db.commit_async(&writes));
        }
        for (i, handle) in handles.iter().enumerate() {
            let height = 1 + i as u64;
            let expected = sync_db.root_at(height);
            prop_assert_eq!(Some(handle.wait()), expected);
            prop_assert_eq!(async_db.root_at(height), expected);
        }
        prop_assert_eq!(async_db.current_root(), sync_db.current_root());
    }

    /// The three backends agree on every key at every height — before the
    /// first write, at each block, past the tip — through zeros, keys a
    /// block writes again and replica re-commits below the tip (ignored),
    /// and on what they count and list.
    #[test]
    fn every_backend_answers_every_height_alike(
        genesis in prop::collection::vec(((0u64..12), (0u64..4), (1u64..5)), 0..24),
        blocks in prop::collection::vec(
            (block_strategy(), prop::collection::vec(((0u64..3), block_strategy()), 0..2)),
            1..10,
        ),
    ) {
        let genesis: Vec<(StateKey, U256)> = genesis
            .iter()
            .map(|&(addr, slot, value)| (key(addr, slot), U256::from(value)))
            .collect();
        let backends = backends();
        for backend in &backends {
            backend.load_genesis(&genesis);
        }
        // The model: every key's value as of each height, zeros included.
        let mut states: Vec<WriteSet> = vec![genesis.iter().copied().collect()];
        for (i, (block, recommits)) in blocks.iter().enumerate() {
            let height = 1 + i as u64;
            let writes = write_set(block);
            for backend in &backends {
                backend.apply_batch(height, &writes);
            }
            for (back, other) in recommits {
                // A replica's commit of some other batch at or below the tip.
                let at = height.saturating_sub(*back).max(1);
                for backend in &backends {
                    backend.apply_batch(at, &write_set(other));
                }
            }
            let mut state = states[i].clone();
            state.extend(writes);
            states.push(state);
            for as_of in 0..=height + 1 {
                let state = &states[as_of.min(height) as usize];
                for k in pool() {
                    let want = state.get(&k).copied();
                    for backend in &backends {
                        prop_assert_eq!(backend.get(&k, as_of), want, "{} as of {}", backend.name(), as_of);
                    }
                }
                let mut live: Vec<(StateKey, U256)> =
                    state.iter().map(|(k, v)| (*k, *v)).filter(|(_, v)| !v.is_zero()).collect();
                live.sort_unstable();
                for backend in &backends {
                    let mut listed = backend.iter_as_of(as_of);
                    listed.sort_unstable();
                    prop_assert_eq!(&listed, &live, "{} as of {}", backend.name(), as_of);
                }
            }
            for backend in &backends {
                prop_assert_eq!(backend.tip(), height);
                let (stats, first) = (backend.stats(), backends[0].stats());
                prop_assert_eq!((stats.batches, stats.writes), (first.batches, first.writes));
            }
        }
    }

    /// A database over each backend commits the roots of a trie rebuilt
    /// from the model on one to three hashing threads, and a clone taken at
    /// a height keeps reading the model as of that height while the
    /// original commits on — and, as a replica, re-commits the next block
    /// to the same root.
    #[test]
    fn every_backend_commits_the_model_roots_and_keeps_old_heights(
        genesis in prop::collection::vec(((0u64..12), (0u64..4), (0u64..5)), 0..24),
        blocks in prop::collection::vec(block_strategy(), 1..8),
        clone_at in 0usize..8,
    ) {
        let genesis: Vec<(StateKey, U256)> = genesis
            .iter()
            .map(|&(addr, slot, value)| (key(addr, slot), U256::from(value)))
            .collect();
        let writes: Vec<WriteSet> = blocks.iter().map(|block| write_set(block)).collect();
        // Genesis drops zero values; of equal keys the last wins.
        let mut model: WriteSet = genesis.iter().copied().filter(|(_, v)| !v.is_zero()).collect();
        let read = |model: &WriteSet| {
            pool().map(|k| model.get(&k).copied().unwrap_or(U256::ZERO)).collect::<Vec<_>>()
        };
        let mut roots = vec![rebuilt_root(&model)];
        let mut states = vec![read(&model)];
        for w in &writes {
            model.extend(w.clone());
            roots.push(rebuilt_root(&model));
            states.push(read(&model));
        }
        let clone_at = clone_at.min(writes.len() - 1);
        for threads in [1usize, 2, 3] {
            for backend in backends() {
                let name = backend.name();
                let mut db = StateDb::with_backend(backend, genesis.clone());
                db.set_hash_threads(threads);
                prop_assert_eq!(db.current_root(), roots[0]);
                let mut replica = None;
                for (i, w) in writes.iter().enumerate() {
                    if i == clone_at {
                        replica = Some(db.clone());
                    }
                    prop_assert_eq!(db.commit(w), roots[i + 1], "{} on {} threads", name, threads);
                }
                let mut replica = replica.expect("cloned before the last block");
                let reads = |db: &StateDb| pool().map(|k| db.get(&k)).collect::<Vec<_>>();
                prop_assert_eq!(replica.height(), clone_at as u64);
                prop_assert_eq!(reads(&replica), states[clone_at].clone(), "{}", name);
                prop_assert_eq!(replica.commit(&writes[clone_at]), roots[clone_at + 1]);
                prop_assert_eq!(reads(&replica), states[clone_at + 1].clone(), "{}", name);
                prop_assert_eq!(reads(&db), states[writes.len()].clone(), "{}", name);
            }
        }
    }
}

/// One block's writes: (addr, slot, value) over the key pool, value 0 a
/// tombstone.
fn block_strategy() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec(((0u64..12), (0u64..4), (0u64..5)), 1..12)
}

/// The root of a trie built afresh from `model`: `keccak256(key)` to
/// `rlp(value)` for every nonzero value, as the state trie lays them out.
fn rebuilt_root(model: &WriteSet) -> H256 {
    let mut trie = Mpt::new();
    for (key, value) in model.iter().filter(|(_, value)| !value.is_zero()) {
        let mut rlp = Vec::with_capacity(33);
        put_uint_be(&mut rlp, &value.to_be_bytes());
        trie.insert(keccak256(&key.to_bytes()).as_bytes(), rlp);
    }
    trie.root()
}

/// Every key the strategies draw.
fn pool() -> impl Iterator<Item = StateKey> {
    (0..12).flat_map(|addr| (0..4).map(move |slot| key(addr, slot)))
}

/// A bare sharded in-memory store, one behind the flat cache, and an LSM
/// store at tiny thresholds (flushes and compactions inside a case).
fn backends() -> [Arc<dyn StateBackend>; 3] {
    [
        Arc::new(MemBackend::new()),
        Arc::new(FlatCached::new(Arc::new(MemBackend::new()))),
        Arc::new(LsmBackend::new(LsmOptions::tiny())),
    ]
}
