//! Property tests for the Merkle Patricia Trie: model equivalence against
//! a BTreeMap, canonical-form convergence (incremental ≡ rebuilt), history
//! independence of the root, clones that keep their version while the trie
//! they came from is updated in place, branches that fill to sixteen
//! children and collapse again, two hashers meeting on the dirty nodes they
//! share, and `index_root` against the trie it stands in for.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dmvcc_primitives::rlp::encode_uint;
use dmvcc_primitives::{keccak256, Address, H256, U256};
use dmvcc_state::{empty_root, index_root, Mpt, StateDb, StateKey, WriteSet};

/// The root `index_root` must reproduce: an `Mpt` filled by
/// `insert(rlp(i), value(i))`.
fn built_root(count: usize, value: impl Fn(usize) -> Vec<u8>) -> H256 {
    let mut trie = Mpt::new();
    for i in 0..count {
        trie.insert(&encode_uint(i as u64), value(i));
    }
    trie.root()
}

#[test]
fn index_root_equals_the_built_trie_on_boundary_counts() {
    // Counts around every change of the key's RLP form (one byte, 0x81 xx,
    // 0x82 xx xx, 0x83 ..) and of the top branch's fill; value lengths on
    // both sides of the 32-byte inline-node rule.
    let counts = [
        0usize, 1, 2, 16, 17, 127, 128, 129, 255, 256, 257, 5_000, 65_537,
    ];
    for count in counts {
        for len in [1usize, 12, 31, 32, 33, 60] {
            if count > 5_000 && len != 33 {
                continue; // one pass over the three-byte keys is enough
            }
            let value = |i: usize| {
                let mut bytes = vec![0x80 | (i % 97) as u8; len];
                bytes[0] = (i % 251) as u8 + 1;
                bytes
            };
            let computed = index_root(count, |i, out| out.extend_from_slice(&value(i)));
            assert_eq!(
                computed,
                built_root(count, value),
                "count {count}, len {len}"
            );
        }
    }
}

/// Keys longer than a node's inline path and values longer than its inline
/// value: 52-byte unhashed keys as `state_backend` uses, a 48-byte key, and
/// a pair of siblings that share 103 nibbles.
fn long_pairs() -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..200u32)
        .map(|i| {
            let mut key = vec![(i % 5) as u8; 20];
            key.extend_from_slice(keccak256(&i.to_be_bytes()).as_bytes());
            (key, vec![(i % 251) as u8 + 1; 1 + (i as usize * 7) % 90])
        })
        .collect();
    pairs.push((vec![7u8; 48], b"long".to_vec()));
    for j in 1..8u8 {
        pairs.push((vec![0x10 * j + 8; 52], vec![j; 41]));
    }
    let mut sibling = vec![9u8; 52];
    pairs.push((sibling.clone(), vec![0xaa; 40]));
    sibling[51] = 1;
    pairs.push((sibling, vec![0xbb; 33]));
    pairs
}

#[test]
fn long_keys_and_values_round_trip_and_hash_as_before() {
    // Known answers from the commit before nodes held paths and values
    // inline (every path and value was a `Vec` then).
    let pairs = long_pairs();
    let mut trie = Mpt::new();
    trie.insert(&pairs[0].0, pairs[0].1.clone());
    assert_eq!(
        trie.root().to_string(),
        "0xb516f0b133afbaf1f59624b0c4bd879b35affbd32982a7deda164901a78c6224"
    );
    for (key, value) in &pairs {
        trie.insert(key, value.clone());
    }
    assert_eq!(
        trie.root().to_string(),
        "0xd531e1b64769c2b3145098c683b7e80b5d23420099f3546aa7893f05fd46a29e"
    );
    for (key, value) in &pairs {
        assert_eq!(trie.get_ref(key), Some(value.as_slice()));
    }
    for (key, _) in pairs.iter().step_by(3) {
        assert!(trie.remove(key));
        assert_eq!(trie.get_ref(key), None);
    }
    assert_eq!(
        trie.root().to_string(),
        "0xf9dc826c32381663b91a9a5647fe6b8527f9824979b0b2610d0f56842108d4de"
    );
    // The removals merged long extensions and leaves back into canonical
    // form: a fresh build of what is left has the same root.
    let mut rebuilt = Mpt::new();
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i % 3 != 0 {
            assert_eq!(trie.get_ref(key), Some(value.as_slice()));
            rebuilt.insert(key, value.clone());
        }
    }
    assert_eq!(trie.root(), rebuilt.root());
}

/// The root of a database built fresh from `model` and hashed on one thread.
fn fresh_state_root(model: &WriteSet) -> H256 {
    let mut db = StateDb::new();
    db.set_hash_threads(1);
    db.commit(model)
}

#[test]
fn two_hashers_that_meet_on_shared_dirty_nodes_agree_with_a_fresh_trie() {
    let key = |i: u64| StateKey::storage(Address::from_u64(1 + i % 3), U256::from(i));
    let writes = |block: u64, count: u64| -> WriteSet {
        (0..count)
            .map(|i| (key(i * (1 + block % 4)), U256::from(block * 1_000 + i)))
            .collect()
    };
    for threads in [1usize, 2, 4] {
        let mut model = writes(0, 3_000);
        let mut db = StateDb::with_genesis(model.clone());
        db.set_hash_threads(threads);
        for block in 1..=5u64 {
            // Block N's dirty nodes go to a background hasher; the replica
            // shares them, writes block N + 1 over them — copying the ones
            // it touches — and hashes the rest itself, at the same time.
            // Whichever `set` of a shared node's reference comes second
            // finds the same reference there.
            let (w, replica_w) = (writes(block, 1_500), writes(block + 7, 1_200));
            model.extend(w.clone());
            let mut replica_model = model.clone();
            replica_model.extend(replica_w.clone());
            let handle = db.commit_async(&w);
            let mut replica = db.clone();
            let replica_root = replica.commit(&replica_w);
            assert_eq!(
                replica_root,
                fresh_state_root(&replica_model),
                "replica, block {block}, {threads} threads"
            );
            assert_eq!(
                handle.wait(),
                fresh_state_root(&model),
                "original, block {block}, {threads} threads"
            );
        }
    }

    // The same meeting on the trie itself, where a barrier can start both
    // hashers at once: a dirty trie, a clone of it, and more writes to one.
    for threads in [1usize, 2, 4] {
        let entry = |i: u32| (keccak256(&i.to_be_bytes()).0, vec![1 + (i % 250) as u8; 33]);
        let mut trie = Mpt::new();
        let mut model = BTreeMap::new();
        for (key, value) in (0..4_000).map(entry) {
            trie.insert(&key, value.clone());
            model.insert(key.to_vec(), value);
        }
        let earlier = trie.clone();
        let earlier_root = rebuilt_root(&model);
        for (key, value) in (3_900..4_300).map(entry) {
            trie.insert(&key, vec![value[0]; 7]);
            model.insert(key.to_vec(), vec![value[0]; 7]);
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let beside = scope.spawn(|| {
                start.wait();
                earlier.root_parallel(threads)
            });
            start.wait();
            assert_eq!(trie.root_parallel(threads), rebuilt_root(&model));
            assert_eq!(beside.join().expect("the other hasher"), earlier_root);
        });
    }
}

#[test]
fn inline_nodes_extensions_and_branch_values_hash_level_by_level_as_a_fresh_trie() {
    // Short keys under short values: most nodes are shorter than 32 bytes
    // and embedded in their parents, `a` ⊂ `ab` ⊂ `abc` puts a value in a
    // branch on three levels (nibble depths 2, 4 and 6), and the nibbles
    // that `abc…`, `abcd…` and `x…` share hang extensions at depths 1, 3, 5
    // and 7.
    let pairs: Vec<(&[u8], &[u8])> = vec![
        (b"a", b"1"),
        (b"ab", b"22"),
        (b"abc", b"333"),
        (b"abcd\x01", b"four"),
        (
            b"abcd\x02",
            b"a value that is longer than thirty-two bytes, hashed",
        ),
        (b"ac", b"5"),
        (b"x\x00\x00\x01", b"6"),
        (b"x\x00\x00\x02", b"7"),
        (b"xy", b"another value that is longer than thirty-two bytes"),
        (b"b", b"8"),
    ];
    for threads in [1usize, 2, 4] {
        let mut trie = Mpt::new();
        let mut model = Model::new();
        // Hashed after every insert — one dirty path over clean siblings,
        // some of them inline — then after overwrites and removals in bulk.
        for (key, value) in &pairs {
            trie.insert(key, value.to_vec());
            model.insert(key.to_vec(), value.to_vec());
            assert_eq!(trie.root_parallel(threads), rebuilt_root(&model));
        }
        for (key, _) in pairs.iter().step_by(2) {
            trie.insert(key, b"rewritten".to_vec());
            model.insert(key.to_vec(), b"rewritten".to_vec());
        }
        assert_eq!(trie.root_parallel(threads), rebuilt_root(&model));
        for (key, _) in pairs.iter().skip(1).step_by(3) {
            assert!(trie.remove(key));
            model.remove(*key);
        }
        assert_eq!(trie.root_parallel(threads), rebuilt_root(&model));
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::collection::vec(0u8..=3, 0..6); // narrow alphabet → collisions
    let value = prop::collection::vec(any::<u8>(), 1..20);
    prop_oneof![
        3 => (key.clone(), value).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => key.prop_map(Op::Remove),
    ]
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// The root of a trie built afresh from `model`.
fn rebuilt_root(model: &Model) -> H256 {
    let mut trie = Mpt::new();
    for (k, v) in model {
        trie.insert(k, v.clone());
    }
    trie.root()
}

/// An update, a root (which fills the reference caches an update must
/// clear), or a clone taken or dropped (which decides whether the next
/// update copies a node or changes it where it stands).
#[derive(Debug, Clone)]
enum VersionOp {
    Update(Op),
    Root,
    Fork,
    DropFork(usize),
}

fn version_op_strategy() -> impl Strategy<Value = VersionOp> {
    prop_oneof![
        6 => op_strategy().prop_map(VersionOp::Update),
        2 => Just(VersionOp::Root),
        1 => Just(VersionOp::Fork),
        1 => any::<usize>().prop_map(VersionOp::DropFork),
    ]
}

/// Four families of sixteen 32-byte keys: family `f` is a digest with its
/// nibble `WIDE_DEPTHS[f]` set to each of the sixteen values, so that the
/// family fills a branch at that depth — the root's, and deeper ones at even
/// and odd depths.
const WIDE_DEPTHS: [usize; 4] = [0, 1, 4, 7];

fn wide_key(family: usize, nibble: u8) -> Vec<u8> {
    let mut key = keccak256(&[family as u8]).0;
    let (byte, shift) = (WIDE_DEPTHS[family] / 2, 4 * (1 - WIDE_DEPTHS[family] % 2));
    key[byte] = key[byte] & !(0x0f << shift) | nibble << shift;
    key.to_vec()
}

/// A key of the wide pool, or a short key from a small alphabet: short keys
/// are prefixes of each other, so that some end at a branch and hold its
/// value.
fn wide_key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        3 => (0usize..4, 0u8..16).prop_map(|(family, nibble)| wide_key(family, nibble)),
        1 => prop::collection::vec(prop::sample::select(vec![0x00u8, 0x01, 0x10, 0xab]), 0..4),
    ]
}

/// The updates of [`wide_fanout_shapes_hash_and_read_as_a_fresh_trie`]:
/// single keys, and whole families filled (a branch of sixteen) or drained
/// down to one key (a full branch collapsing into its last child), between
/// roots and forks taken and dropped.
#[derive(Debug, Clone)]
enum WideOp {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Fill(usize, u8),
    Drain(usize, u8),
    Root { parallel: bool },
    Fork,
    DropFork(usize),
}

fn wide_op_strategy() -> impl Strategy<Value = WideOp> {
    let value = prop::collection::vec(any::<u8>(), 1..40);
    prop_oneof![
        4 => (wide_key_strategy(), value).prop_map(|(k, v)| WideOp::Insert(k, v)),
        3 => wide_key_strategy().prop_map(WideOp::Remove),
        1 => (0usize..4, 1u8..40).prop_map(|(family, len)| WideOp::Fill(family, len)),
        1 => (0usize..4, 0u8..16).prop_map(|(family, keep)| WideOp::Drain(family, keep)),
        2 => any::<bool>().prop_map(|parallel| WideOp::Root { parallel }),
        1 => Just(WideOp::Fork),
        1 => any::<usize>().prop_map(WideOp::DropFork),
    ]
}

proptest! {
    #[test]
    fn wide_fanout_shapes_hash_and_read_as_a_fresh_trie(
        ops in prop::collection::vec(wide_op_strategy(), 0..120),
    ) {
        let mut trie = Mpt::new();
        let mut model = Model::new();
        let mut forks: Vec<(Mpt, H256, Model)> = Vec::new();
        for op in &ops {
            match op {
                WideOp::Insert(k, v) => {
                    trie.insert(k, v.clone());
                    model.insert(k.clone(), v.clone());
                }
                WideOp::Remove(k) => {
                    prop_assert_eq!(trie.remove(k), model.remove(k).is_some());
                }
                WideOp::Fill(family, len) => {
                    for nibble in 0..16 {
                        let value = vec![nibble ^ len; usize::from(*len)];
                        trie.insert(&wide_key(*family, nibble), value.clone());
                        model.insert(wide_key(*family, nibble), value);
                    }
                }
                WideOp::Drain(family, keep) => {
                    for nibble in (0..16).filter(|nibble| nibble != keep) {
                        let key = wide_key(*family, nibble);
                        prop_assert_eq!(trie.remove(&key), model.remove(&key).is_some());
                    }
                }
                WideOp::Root { parallel } => {
                    let root = if *parallel { trie.root_parallel(2) } else { trie.root() };
                    prop_assert_eq!(root, rebuilt_root(&model));
                }
                WideOp::Fork => forks.push((trie.clone(), rebuilt_root(&model), model.clone())),
                WideOp::DropFork(i) if !forks.is_empty() => {
                    forks.swap_remove(i % forks.len());
                }
                WideOp::DropFork(_) => {}
            }
        }
        prop_assert_eq!(trie.root_parallel(2), rebuilt_root(&model));
        prop_assert_eq!(trie.root(), rebuilt_root(&model));
        for (k, v) in &model {
            prop_assert_eq!(trie.get_ref(k), Some(v.as_slice()));
        }
        for family in 0..4 {
            for nibble in 0..16 {
                let key = wide_key(family, nibble);
                prop_assert_eq!(trie.get_ref(&key), model.get(&key).map(Vec::as_slice));
            }
        }
        for (fork, root, entries) in &forks {
            prop_assert_eq!(fork.root(), *root);
            for (k, v) in entries {
                prop_assert_eq!(fork.get_ref(k), Some(v.as_slice()));
            }
        }
        // The 32-byte keys built bottom up are the same trie as inserted.
        let wide: Vec<(H256, &Vec<u8>)> = model
            .iter()
            .filter_map(|(k, v)| Some((H256(k.as_slice().try_into().ok()?), v)))
            .collect();
        let keys: Vec<H256> = wide.iter().map(|(k, _)| *k).collect();
        let built = Mpt::from_keys(&keys, 2, |i, out| out.extend_from_slice(wide[i].1));
        let inserted: Model = wide.iter().map(|(k, v)| (k.0.to_vec(), (*v).clone())).collect();
        prop_assert_eq!(built.root(), rebuilt_root(&inserted));
    }

    #[test]
    fn clones_keep_their_version_and_no_cache_goes_stale(
        ops in prop::collection::vec(version_op_strategy(), 0..160),
    ) {
        let mut trie = Mpt::new();
        let mut model = Model::new();
        let mut forks: Vec<(Mpt, H256, Model)> = Vec::new();
        for op in &ops {
            match op {
                VersionOp::Update(Op::Insert(k, v)) => {
                    trie.insert(k, v.clone());
                    model.insert(k.clone(), v.clone());
                }
                VersionOp::Update(Op::Remove(k)) => {
                    prop_assert_eq!(trie.remove(k), model.remove(k).is_some());
                }
                VersionOp::Root => prop_assert_eq!(trie.root(), rebuilt_root(&model)),
                // The root a fork must report comes from its model, not
                // from hashing it now: a fork taken between two `Root`s
                // carries its dirty nodes along and hashes them at the end.
                VersionOp::Fork => {
                    forks.push((trie.clone(), rebuilt_root(&model), model.clone()));
                }
                VersionOp::DropFork(i) if !forks.is_empty() => {
                    forks.swap_remove(i % forks.len());
                }
                VersionOp::DropFork(_) => {}
            }
        }
        prop_assert_eq!(trie.root(), rebuilt_root(&model));
        for (fork, root, entries) in &forks {
            prop_assert_eq!(fork.root(), *root);
            for (k, v) in entries {
                prop_assert_eq!(fork.get_ref(k), Some(v.as_slice()));
            }
        }
    }

    #[test]
    fn index_root_equals_the_built_trie(
        count in 0usize..700,
        lens in prop::collection::vec(1usize..70, 1..8),
        seed in any::<u8>(),
    ) {
        let value = |i: usize| vec![seed ^ (i % 256) as u8; lens[i % lens.len()]];
        let computed = index_root(count, |i, out| out.extend_from_slice(&value(i)));
        prop_assert_eq!(computed, built_root(count, value));
    }

    #[test]
    fn matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut trie = Mpt::new();
        let mut model = Model::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    trie.insert(k, v.clone());
                    model.insert(k.clone(), v.clone());
                }
                Op::Remove(k) => {
                    let trie_removed = trie.remove(k);
                    let model_removed = model.remove(k).is_some();
                    prop_assert_eq!(trie_removed, model_removed);
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(trie.get(k), Some(v.clone()));
        }
        // Canonical form: incremental updates reach the same root as a
        // fresh build from the final contents.
        prop_assert_eq!(trie.root(), rebuilt_root(&model));
        if model.is_empty() {
            prop_assert_eq!(trie.root(), empty_root());
        }
    }

    #[test]
    fn root_is_history_independent(
        pairs in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..8),
            prop::collection::vec(any::<u8>(), 1..8),
            1..40,
        ),
        seed in any::<u64>(),
    ) {
        let ordered: Vec<_> = pairs.iter().collect();
        let mut forward = Mpt::new();
        for (k, v) in &ordered {
            forward.insert(k, (*v).clone());
        }
        // A deterministic pseudo-shuffle of the insertion order.
        let mut shuffled = ordered.clone();
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut backward = Mpt::new();
        for (k, v) in shuffled {
            backward.insert(k, v.clone());
        }
        prop_assert_eq!(forward.root(), backward.root());
    }

    #[test]
    fn insert_then_remove_is_identity(
        base in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..6),
            prop::collection::vec(any::<u8>(), 1..6),
            0..20,
        ),
        extra_key in prop::collection::vec(any::<u8>(), 1..6),
        extra_value in prop::collection::vec(any::<u8>(), 1..6),
    ) {
        prop_assume!(!base.contains_key(&extra_key));
        let mut trie = Mpt::new();
        for (k, v) in &base {
            trie.insert(k, v.clone());
        }
        let before = trie.root();
        trie.insert(&extra_key, extra_value);
        prop_assert_ne!(trie.root(), before);
        prop_assert!(trie.remove(&extra_key));
        prop_assert_eq!(trie.root(), before);
    }
}
