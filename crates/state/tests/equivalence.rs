//! Cross-layer equivalence proptests: every read surface of the state
//! stack — the LSM store's flat cache, the trie-backed [`StateDb`]
//! snapshots, and the raw backends — must agree under random
//! insert/remove/commit interleavings, and the async root pipeline must
//! land on exactly the sync roots. The two backends a database can stand
//! on — the sharded in-memory store and the LSM store — answer every read
//! at every height alike and commit the roots of a trie rebuilt from a
//! model of the state. The in-memory store keeps an old height readable
//! exactly while a snapshot pins it: what every pinned height reads is
//! checked while the rest is reclaimed.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use dmvcc_primitives::rlp::put_uint_be;
use dmvcc_primitives::{keccak256, Address, H256, U256};
use dmvcc_state::{
    LsmBackend, LsmOptions, MemBackend, Mpt, Snapshot, StateBackend, StateDb, StateKey, WriteSet,
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

    /// The LSM store's flat cache is transparent: the store answers every
    /// key at every height — the tip, past it and every historical height,
    /// which bypass the cache — as the in-memory store does, across a
    /// random batch history that crosses flushes and compactions. Every
    /// key is probed twice, so that a read that fills the cache is followed
    /// by one that hits it.
    #[test]
    fn flat_cache_is_transparent(blocks in blocks_strategy()) {
        let lsm = LsmBackend::new(LsmOptions::tiny());
        let mem = MemBackend::new();
        // The in-memory store keeps a height readable while it is pinned.
        let mut pins = vec![mem.pin(0)];
        for (i, block) in blocks.iter().enumerate() {
            let height = 1 + i as u64;
            let writes = write_set(block);
            lsm.apply_batch(height, &writes);
            mem.apply_batch(height, &writes);
            pins.push(mem.pin(height));
        }
        let tip = mem.tip();
        for as_of in (0..=tip + 1).rev() {
            for k in pool() {
                let want = mem.get(&k, as_of);
                prop_assert_eq!(lsm.get(&k, as_of), want, "as of {}", as_of);
                prop_assert_eq!(lsm.get(&k, as_of), want, "as of {}", as_of);
            }
        }
        let flat = lsm.flat_stats().expect("the LSM store keeps a cache");
        prop_assert!(flat.hits > 0, "{:?}", flat);
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
    /// and on what they count and list. A snapshot of every height pins it,
    /// so that the in-memory store keeps what each height reads.
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
        let mut pins = Vec::new();
        for backend in &backends {
            backend.load_genesis(&genesis);
            pins.push(Snapshot::from_backend(Arc::clone(backend), 0));
        }
        // The model: every key's value as of each height, zeros included.
        let mut states: Vec<WriteSet> = vec![genesis.iter().copied().collect()];
        for (i, (block, recommits)) in blocks.iter().enumerate() {
            let height = 1 + i as u64;
            let writes = write_set(block);
            for backend in &backends {
                backend.apply_batch(height, &writes);
                pins.push(Snapshot::from_backend(Arc::clone(backend), height));
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
                let live = live(state);
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Reclamation in the in-memory store: snapshots are taken at the tip
    /// and dropped at random,
    /// replicas cloned at the tip re-commit the chain behind it, falling
    /// further behind, and stale batches below the tip are ignored. After every
    /// block each live snapshot reads the model as of its height — key by
    /// key, zeros and absences told apart, and in its listing — and each
    /// replica reads the model as of its own height, while the store
    /// compacts what nothing pins. Then, with every snapshot, replica and
    /// the database gone, batches that rewrite the whole pool bring the
    /// history down to no more than twice a batch's writes — the versions
    /// the previous tip reads, doubled — and keep it there.
    #[test]
    fn pinned_heights_read_the_model_while_the_rest_is_reclaimed(
        genesis in prop::collection::vec(((0u64..12), (0u64..4), (1u64..5)), 0..24),
        steps in prop::collection::vec((block_strategy(), any::<u8>()), 8..24),
    ) {
        let genesis: Vec<(StateKey, U256)> = genesis
            .iter()
            .map(|&(addr, slot, value)| (key(addr, slot), U256::from(value)))
            .collect();
        // The model: every key's value as of each height, zeros included.
        let mut states: Vec<WriteSet> = vec![genesis.iter().copied().collect()];
        for (block, _) in &steps {
            let mut state = states.last().expect("genesis").clone();
            state.extend(write_set(block));
            states.push(state);
        }
        let mem = Arc::new(MemBackend::new());
        let backend: Arc<dyn StateBackend> = mem.clone();
        let mut db = StateDb::with_backend(Arc::clone(&backend), genesis.clone());
        db.set_hash_threads(1);
        let mut pins: Vec<Snapshot> = Vec::new();
        let mut replicas: Vec<StateDb> = Vec::new();
        for (i, (block, action)) in steps.iter().enumerate() {
            let height = 1 + i as u64;
            db.commit(&write_set(block));
            // On every other block, so that the replicas fall behind.
            if action % 2 == 0 {
                for replica in &mut replicas {
                    let next = replica.height() as usize;
                    replica.commit(&write_set(&steps[next].0));
                }
            }
            if action % 3 == 0 {
                pins.push(Snapshot::from_backend(Arc::clone(&backend), height));
            }
            if action % 4 == 0 && replicas.len() < 3 {
                replicas.push(db.clone());
            }
            if (action / 4) % 3 == 0 && !pins.is_empty() {
                pins.remove(usize::from(*action) % pins.len());
            }
            if (action / 16) % 4 == 0 && !replicas.is_empty() {
                replicas.remove(usize::from(*action) % replicas.len());
            }
            if action % 5 == 0 {
                // A stale batch below the tip: ignored.
                let stale = write_set(&steps[usize::from(*action) % steps.len()].0);
                backend.apply_batch(height.div_ceil(2), &stale);
            }
            prop_assert_eq!(backend.tip(), height);
            for pin in &pins {
                let (as_of, state) = (pin.height(), &states[pin.height() as usize]);
                for k in pool() {
                    prop_assert_eq!(backend.get(&k, as_of), state.get(&k).copied(), "as of {}", as_of);
                    prop_assert_eq!(pin.get(&k), state.get(&k).copied().unwrap_or_default());
                }
                let mut listed = backend.iter_as_of(as_of);
                listed.sort_unstable();
                prop_assert_eq!(listed, live(state), "as of {}", as_of);
            }
            for db in replicas.iter().chain([&db]) {
                let state = &states[db.height() as usize];
                for k in pool() {
                    prop_assert_eq!(db.get(&k), state.get(&k).copied().unwrap_or_default());
                }
            }
        }
        prop_assert!(backend.stats().compactions >= 1, "no compaction in {} blocks", steps.len());

        // Nothing pins a height any more. A shard compacts once its log
        // doubles what it held here, so within twice that many
        // rewrites every shard has, and from then on holds no more
        // than what its previous tip reads, doubled.
        drop((pins, replicas, db));
        let held = mem.replaced_versions();
        let settled = 2 * held as u64 + 2;
        let rewrite: WriteSet = pool().map(|k| (k, U256::from(7u64))).collect();
        for round in 1..=settled + 4 {
            backend.apply_batch(backend.tip() + 1, &rewrite);
            if round > settled {
                prop_assert!(
                    mem.replaced_versions() <= 2 * pool().count(),
                    "{} versions held after {} rewrites, {} before them",
                    mem.replaced_versions(), round, held
                );
            }
        }
        prop_assert!(pool().all(|k| backend.get(&k, backend.tip()) == Some(U256::from(7u64))));
    }
}

/// The nonzero entries of `state`, sorted: what a listing at its height
/// holds.
fn live(state: &WriteSet) -> Vec<(StateKey, U256)> {
    state
        .iter()
        .map(|(k, v)| (*k, *v))
        .filter(|(_, v)| !v.is_zero())
        .collect()
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

/// A sharded in-memory store and an LSM store at tiny thresholds (flushes
/// and compactions inside a case).
fn backends() -> [Arc<dyn StateBackend>; 2] {
    [
        Arc::new(MemBackend::new()),
        Arc::new(LsmBackend::new(LsmOptions::tiny())),
    ]
}
