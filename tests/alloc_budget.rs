//! Allocation budgets of the commitment path — sealing a block and hashing
//! the state trie allocate a constant number of buffers per call, and a
//! trie node is one allocation, whether a key's insert made it or a genesis
//! build — and of the execute stage: the interpreter
//! allocates per frame only what the frame's work needs, the thread that
//! calls the sharded engine allocates (next to) nothing per transaction, and
//! a C-SAG is four vectors. And a memory budget: the live heap bytes a key
//! costs the in-memory database, its backend and its trie apiece.
//!
//! The counts come from a counting wrapper around the system allocator,
//! installed for this test binary only (the library crates forbid unsafe
//! code and install no allocator). It counts allocations per thread, so the
//! tests of this file can run in parallel, and allocations and live bytes
//! once more for the whole process, for the tests whose work is spread over
//! threads they do not start themselves; those run alone, in a process of
//! their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use dmvcc_analysis::{AccessKind, Analyzer, CSag};
use dmvcc_chain::{build_receipts, receipts_root, transactions_root, BackendKind, Receipt};
use dmvcc_core::{refine_csags, ParallelConfig, ParallelExecutor};
use dmvcc_primitives::{keccak256, Address, U256};
use dmvcc_state::{
    default_hash_threads, MemBackend, Mpt, Snapshot, StateBackend, StateKey, WriteSet,
};
use dmvcc_vm::{
    calldata, contracts, execute, BlockEnv, CodeRegistry, ExecParams, ExecStatus, MapHost,
    Transaction, TxEnv,
};

thread_local! {
    /// Allocations and reallocations made by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and reallocations made by every thread of the process.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed, by every thread of the process.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count_one(bytes: usize) {
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn count_free(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics and a
// thread-local `Cell`, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: `ptr` and `layout` come from the caller, who got `ptr`
        // from this allocator, that is from `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        count_free(layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Bytes that every thread of the process allocated and did not free while
/// `work` ran.
fn live_bytes<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let result = work();
    (LIVE_BYTES.load(Ordering::Relaxed) - before, result)
}

/// Whether the test `name` runs alone in this process. If it does not, this
/// runs it alone — this binary again, asked for exactly that test — checks
/// that it passed, and returns `false`: the process-wide counters see the
/// work of every test running beside the one that reads them.
fn alone(name: &str) -> bool {
    if std::env::args().any(|arg| arg == "--exact") {
        return true;
    }
    let alone = std::process::Command::new(std::env::current_exe().expect("this binary"))
        .args(["--exact", name, "--test-threads", "1"])
        .output()
        .expect("run the test alone");
    assert!(
        alone.status.success(),
        "{}{}",
        String::from_utf8_lossy(&alone.stdout),
        String::from_utf8_lossy(&alone.stderr)
    );
    false
}

fn block(size: u64) -> (Vec<Transaction>, Vec<Receipt>) {
    let txs = (0..size)
        .map(|i| {
            if i % 3 == 0 {
                Transaction::transfer(
                    Address::from_u64(i),
                    Address::from_u64(i + 1),
                    U256::from(i),
                )
            } else {
                let input = vec![i as u8; 4 + (i % 3) as usize * 32];
                Transaction::call(TxEnv::call(
                    Address::from_u64(i),
                    Address::from_u64(9_000),
                    input,
                ))
            }
        })
        .collect();
    let receipts = build_receipts(&vec![(ExecStatus::Success, 27_000); size as usize]);
    (txs, receipts)
}

#[test]
fn sealing_allocates_per_call_not_per_transaction() {
    // The two roots are hashed on worker threads, whose allocations this
    // thread's counter never sees. The process's counter does, so the
    // counting is done in a process where this test runs alone.
    if !alone("sealing_allocates_per_call_not_per_transaction") {
        return;
    }
    let seal = |size| {
        let (txs, receipts) = block(size);
        let before = PROCESS_ALLOCATIONS.load(Ordering::Relaxed);
        black_box((transactions_root(&txs), receipts_root(&receipts)));
        PROCESS_ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let (small, large) = (seal(1_000), seal(4_000));
    // A call's own buffers, and per worker a spawn and a handful of buffers
    // that grow to the size of one 256-item run whatever the list's length.
    // Four times the items may bring more workers in on a host that has
    // them, and nothing else.
    let per_worker = 48;
    let workers = default_hash_threads() as u64;
    assert!(
        small <= 2 * (24 + workers * per_worker)
            && large <= small + 8 + 2 * (workers - 1) * per_worker,
        "{small} allocations for 1 000 items, {large} for 4 000, on up to {workers} threads"
    );
}

fn state_key(i: u32) -> [u8; 32] {
    keccak256(&i.to_be_bytes()).0
}

#[test]
fn hashing_the_trie_allocates_per_call_not_per_node() {
    let mut trie = Mpt::new();
    for i in 0..50_000u32 {
        trie.insert(
            &state_key(i),
            vec![1 + (i % 200) as u8; 1 + (i % 33) as usize],
        );
    }
    let (genesis, _) = allocations(|| trie.root());
    let mut dirty_round = |byte: u8| {
        for i in (0..50_000u32).step_by(25) {
            trie.insert(&state_key(i), vec![byte; 33]);
        }
        assert!(!trie.root_cached());
        allocations(|| trie.root())
    };
    let (dirty, _) = dirty_round(0xee);
    let (dirty_again, root) = dirty_round(0xef);
    let (cached, again) = allocations(|| trie.root());
    assert_eq!(root, again);
    // A call's buffers — the dirty nodes level by level, a level's
    // encodings and where each lies — start at a few hundred entries and
    // double to the widest level the call meets: a bound in levels and
    // doublings, whatever the number of nodes, the same for the same shape,
    // and nothing at all when there is nothing to hash.
    assert!(
        genesis <= 40 && dirty <= genesis && dirty_again == dirty && cached <= 2,
        "root() allocated {genesis} times over 50 000 dirty keys, {dirty} and {dirty_again} \
         over 2 000, {cached} with everything cached"
    );
}

#[test]
fn a_trie_node_is_one_allocation() {
    // 32-byte keys that differ in the first nibble, in the second, or only
    // in the last.
    let key = |first: u8, last: u8| {
        let mut key = [0x11u8; 32];
        key[0] = first;
        key[31] = last;
        key
    };
    let mut trie = Mpt::new();
    let mut insert = |key: [u8; 32], len: usize| {
        let value = vec![0xab; len]; // the caller's, made before counting
        allocations(|| trie.insert(&key, value)).0
    };
    // The first key: one leaf.
    assert_eq!(insert(key(0x11, 0), 33), 1);
    // A key that parts from it at the first nibble: a branch and two leaves
    // (the old leaf is rebuilt with a shorter path).
    assert_eq!(insert(key(0x21, 0), 1), 3);
    // Replacing a value: nothing, the leaf is changed where it stands.
    assert_eq!(insert(key(0x21, 0), 33), 0);
    // A key that shares all but its last byte with the first: an extension
    // over the shared 61 nibbles, a branch, two leaves — under the top
    // branch, which stays.
    assert_eq!(insert(key(0x11, 0x20), 20), 4);
    // A key under an empty slot of the top branch: its leaf, and the branch
    // rebuilt one child wider.
    assert_eq!(insert(key(0x31, 0), 33), 2);
    // With a clone alive, removing one of the top branch's three keys
    // rebuilds it one child narrower, without copying it first, and
    // allocates nothing else.
    let version = trie.clone();
    assert_eq!(allocations(|| trie.remove(&key(0x31, 0))), (1, true));
    assert_eq!(trie.get_ref(&key(0x31, 0)), None);
    assert_eq!(version.get_ref(&key(0x31, 0)), Some([0xab; 33].as_slice()));
    assert_eq!(trie.get_ref(&key(0x11, 0x20)), Some([0xab; 20].as_slice()));

    // At scale: replacing a value in a 50 000-key trie that nothing else
    // holds allocates nothing.
    let mut trie = Mpt::new();
    for i in 0..50_000u32 {
        trie.insert(&state_key(i), vec![7; 33]);
    }
    let replace_2000 = |trie: &mut Mpt, byte: u8| {
        let values: Vec<Vec<u8>> = (0..2_000).map(|_| vec![byte; 33]).collect();
        let insert_all = || {
            for (i, value) in values.into_iter().enumerate() {
                trie.insert(&state_key(i as u32 * 25), value);
            }
        };
        allocations(insert_all).0
    };
    assert_eq!(replace_2000(&mut trie, 8), 0);
    // Reading walks the key in its own bytes and borrows the value.
    let found = || {
        let keys = (0..50_000u32).step_by(25).map(state_key);
        keys.filter(|key| trie.get_ref(key).is_some()).count()
    };
    assert_eq!(allocations(found), (0, 2_000));
    // With a clone alive, removing an absent key still copies nothing, and
    // a round of replacements copies each node on a touched path once —
    // every leaf, and the branches above them, which the keys share — and
    // allocates nothing else. The copies are the trie's alone, so a second
    // round over the same keys is free again.
    let version = trie.clone();
    assert_eq!(allocations(|| trie.remove(&key(0x11, 0x11))), (0, false));
    let replaced = replace_2000(&mut trie, 9);
    assert!(
        (2_000..3 * 2_000).contains(&replaced),
        "{replaced} allocations for 2 000 values replaced beside a clone"
    );
    assert_eq!(replace_2000(&mut trie, 10), 0);
    assert_eq!(version.get_ref(&state_key(25)), Some([8u8; 33].as_slice()));
    assert_eq!(trie.get_ref(&state_key(25)), Some([10u8; 33].as_slice()));
}

/// How many nodes the trie over `keys` — sorted, distinct, as nibbles — has
/// from the node that holds them all, `depth` nibbles down: a leaf for one
/// key, an extension over a prefix they share, else a branch.
fn trie_nodes(keys: &[Vec<u8>], depth: usize) -> u64 {
    let [first, .., last] = keys else {
        return 1;
    };
    let common = first[depth..]
        .iter()
        .zip(&last[depth..])
        .take_while(|(a, b)| a == b)
        .count();
    if common > 0 {
        return 1 + trie_nodes(keys, depth + common);
    }
    1 + keys
        .chunk_by(|a, b| a[depth] == b[depth])
        .map(|under| trie_nodes(under, depth + 1))
        .sum::<u64>()
}

#[test]
fn a_genesis_trie_is_one_allocation_a_node() {
    for (count, distinct) in [(5_000u32, 4_000u32), (50_000, 45_000)] {
        // Every tenth key or so comes twice; the last of them wins.
        let keys: Vec<_> = (0..count)
            .map(|i| keccak256(&(i % distinct).to_be_bytes()))
            .collect();
        let mut nibbles: Vec<Vec<u8>> = keys
            .iter()
            .map(|key| key.0.iter().flat_map(|&b| [b >> 4, b & 0x0f]).collect())
            .collect();
        nibbles.sort_unstable();
        nibbles.dedup();
        let nodes = trie_nodes(&nibbles, 0);
        let value = |i: usize, out: &mut Vec<u8>| out.extend_from_slice(&[1 + (i % 200) as u8; 33]);
        let (allocated, trie) = allocations(|| Mpt::from_keys(&keys, 1, value));
        // Per call: the keys grouped by first nibble, the value buffer and
        // the worker scope.
        assert_eq!(
            allocated,
            nodes + 3,
            "{allocated} allocations for a trie of {nodes} nodes over {distinct} keys"
        );
        assert_eq!(trie.get_ref(keys[0].as_bytes()), Some([1u8; 33].as_slice()));
    }
}

#[test]
fn interpreting_a_transfer_allocates_for_its_work_only() {
    let (token, sender, recipient) = (
        Address::from_u64(800),
        Address::from_u64(1),
        Address::from_u64(2),
    );
    let registry = CodeRegistry::builder()
        .deploy(token, contracts::token())
        .build();
    let balance = StateKey::storage(token, contracts::map_slot(sender.to_u256(), 1));
    let mut host = MapHost::from_entries([(balance, U256::from(100u64))]);
    let input = calldata(
        contracts::token_fn::TRANSFER,
        &[recipient.to_u256(), U256::from(30u64)],
    );
    let tx = TxEnv::call(sender, token, input);
    let block = BlockEnv::default();
    // What the engines pass: the registry's own bytes, and the registry.
    let params = ExecParams {
        code: registry.deployed(&token).expect("deployed").code(),
        tx: &tx,
        block: &block,
        release_points: None,
        registry: Some(&registry),
    };
    let (count, outcome) = allocations(|| execute(&params, &mut host));
    assert!(outcome.status.is_success(), "{:?}", outcome.status);
    assert_eq!(host.get(&balance), U256::from(70u64));
    // The stack, the memory's growth, the event's topics and data, the
    // host's map nodes. `SHA3` hashes the memory in place: a copy of each
    // of the two preimages made it 13. The jump-destination set rebuilt for
    // the frame (two tables for the token's handful of destinations) and
    // the environment cloned with its calldata made it 16.
    assert!(count <= 11, "{count} allocations for one token transfer");
}

#[test]
fn the_calling_thread_of_the_sharded_engine_allocates_per_block() {
    // Ether transfers between distinct accounts: two writes each, no
    // conflicts, so every block does the same work per transaction.
    let block = |size: u64| -> Vec<Transaction> {
        let transfer = |i| {
            let (from, to) = (Address::from_u64(2 * i + 1), Address::from_u64(2 * i + 2));
            Transaction::transfer(from, to, U256::from(3u64))
        };
        (0..size).map(transfer).collect()
    };
    let funded = (0..4_000).map(|i| {
        let key = StateKey::balance(Address::from_u64(2 * i + 1));
        (key, U256::from(1_000u64))
    });
    let snapshot = Snapshot::from_entries(funded);
    let env = BlockEnv::default();
    let config = ParallelConfig {
        threads: 2,
        ..ParallelConfig::default()
    };
    let executor = ParallelExecutor::new(Analyzer::new(CodeRegistry::default()), config);
    // The counter is per thread, so around `execute_block_with_csags` it
    // sees exactly what the calling thread does: binding the block before
    // the workers start, running one of the two workers, flushing a share
    // of the store and assembling the outcome after the workers return.
    let calling_thread = |size: u64| {
        let txs = block(size);
        let csags = refine_csags(executor.analyzer(), &txs, &snapshot, &env, 1);
        let run = || executor.execute_block_with_csags(&txs, &snapshot, &env, &csags);
        let (count, outcome) = allocations(run);
        assert_eq!(outcome.final_writes.len(), 2 * size as usize);
        assert_eq!(outcome.stats.attempts, size);
        count
    };
    // Warm the executor's arena with the larger block first.
    calling_thread(4_000);
    let (large, small) = (calling_thread(4_000), calling_thread(1_000));
    let per_tx = (large as f64 - small as f64) / 3_000.0;
    // What remains is the write set's B-tree nodes (2 writes a transaction,
    // 11 to a leaf); building the metadata, the predicted sequences and the
    // ready queue took more than 4 allocations a transaction.
    assert!(
        per_tx < 0.5,
        "{per_tx:.2} allocations per transaction on the calling thread \
         ({large} for 4 000 transfers, {small} for 1 000)"
    );
}

#[test]
fn refining_allocates_for_the_walk_and_four_vectors() {
    let (token, sender, recipient) = (
        Address::from_u64(800),
        Address::from_u64(1),
        Address::from_u64(2),
    );
    let registry = CodeRegistry::builder()
        .deploy(token, contracts::token())
        .build();
    let analyzer = Analyzer::new(registry);
    let balance = StateKey::storage(token, contracts::map_slot(sender.to_u256(), 1));
    let snapshot = Snapshot::from_entries([(balance, U256::from(100u64))]);
    let input = calldata(
        contracts::token_fn::TRANSFER,
        &[recipient.to_u256(), U256::from(30u64)],
    );
    let call = Transaction::call(TxEnv::call(sender, token, input));
    let ether = Transaction::transfer(sender, recipient, U256::from(3u64));
    let env = BlockEnv::default();
    // The token's summary is built and memoized by the first refinement.
    analyzer.csag(&call, &snapshot, &env);

    let (refined, sag) = allocations(|| analyzer.csag(&call, &snapshot, &env));
    assert_eq!(sag.reads.len() + sag.writes.len() + sag.adds.len(), 3);
    // The symbolic walk's overlay, deltas, bindings, accesses, release
    // observations and return words, then the record: reads, writes, adds,
    // release points. Each bound mapping slot is hashed from a stack
    // buffer: a vector per slot (three) made it 12. Three tree sets, the
    // trace, the last-write map and the snapshot-dependency map made it 15.
    assert!(
        refined <= 9,
        "{refined} allocations to refine a token transfer"
    );
    let (refined, transfer) = allocations(|| analyzer.csag(&ether, &snapshot, &env));
    // Four one-entry vectors; 7 as sets, trace and map.
    assert!(
        refined <= 4,
        "{refined} allocations to refine an Ether transfer"
    );

    // A clone is the four vectors, however many keys they hold (7 blocks for
    // the token transfer's three keys, 6 for the Ether transfer's two).
    let wide = CSag {
        release_points: sag.release_points.clone(),
        ..CSag::from_accesses((0..600u64).map(|i| {
            let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Add][i as usize % 3];
            (
                StateKey::storage(token, U256::from(i / 2)),
                kind,
                i as usize,
            )
        }))
    };
    assert!(wide.reads.len() + wide.writes.len() + wide.adds.len() > 400);
    for record in [&sag, &transfer, &wide] {
        let (cloned, copy) = allocations(|| record.clone());
        assert_eq!(&copy, record);
        assert!(cloned <= 4, "{cloned} allocations to clone a C-SAG");
    }
}

/// The in-memory database's genesis in the memory budget: 16 000 keys, a
/// thousand a shard, so that its maps are half full, as the 262 k keys of
/// the `ethereum_mix` genesis leave them.
const BUDGET_KEYS: u64 = 16_000;

/// The budget's blocks: 1 000 writes each, three in four to keys the
/// genesis holds and one in four to a new key; every eighth write a zero.
fn budget_blocks() -> Vec<WriteSet> {
    (1..=16u64)
        .map(|block| {
            (0..1_000u64)
                .map(|i| {
                    let key = if i % 4 == 3 {
                        BUDGET_KEYS + (block - 1) * 250 + i / 4
                    } else {
                        (block * 7_919 + i * 13) % BUDGET_KEYS
                    };
                    let value = if i % 8 == 5 { 0 } else { block * i + 1 };
                    (budget_key(key), U256::from(value))
                })
                .collect()
        })
        .collect()
}

fn budget_key(i: u64) -> StateKey {
    StateKey::storage(Address::from_u64(i % 1_000), U256::from(i))
}

#[test]
fn the_memory_database_keeps_each_key_within_its_byte_budget() {
    // The trie is built and hashed on worker threads, so the bytes are the
    // process's, counted where this test runs alone.
    if !alone("the_memory_database_keeps_each_key_within_its_byte_budget") {
        return;
    }
    let genesis: Vec<(StateKey, U256)> = (0..BUDGET_KEYS)
        .map(|i| (budget_key(i), U256::from(i + 1)))
        .collect();
    let blocks = budget_blocks();
    let keys_after = BUDGET_KEYS + 16 * 250;

    // The backend alone, as `BackendKind::Mem.build_db` loads it and as its
    // commits land their batches in it.
    let (backend_genesis, backend) = live_bytes(|| {
        let backend = MemBackend::new();
        backend.load_genesis(&genesis);
        backend
    });
    let (backend_blocks, ()) = live_bytes(|| {
        for (height, writes) in (1..).zip(&blocks) {
            backend.apply_batch(height, writes);
        }
    });
    // The whole database; less the backend, that is the trie and the few
    // bytes a block of root history and snapshot holds.
    let (db_genesis, mut db) = live_bytes(|| BackendKind::Mem.build_db(genesis.clone()));
    let (db_blocks, ()) = live_bytes(|| {
        for writes in &blocks {
            db.commit(writes);
        }
    });
    let per_key = |bytes: u64, keys: u64| bytes as f64 / keys as f64;
    let backend_at = [
        per_key(backend_genesis, BUDGET_KEYS),
        per_key(backend_genesis + backend_blocks, keys_after),
    ];
    let trie_at = [
        per_key(db_genesis - backend_genesis, BUDGET_KEYS),
        per_key(
            db_genesis + db_blocks - backend_genesis - backend_blocks,
            keys_after,
        ),
    ];
    // Measured (bytes a key, at genesis / after the blocks): the backend
    // 215.1 / 181.9 — a slot and its map's share of empty ones; then also
    // the replaced versions each shard's log holds for the tip, its other
    // versions reclaimed (211.4 when the logs kept every version) — and
    // the trie 184.0 / 168.3: a 128-byte leaf a key, and branches of 64
    // bytes and 24 a child. The counts are exact, the same on every host
    // and thread count; the slack is 5 %. A cache over the backend (some
    // 170 bytes a key), an allocation per key, a log that keeps what no
    // pin reads or every trie node grown by 8 bytes breaks it.
    let budget = |measured: f64| measured * 1.05;
    for (at, (backend, trie)) in ["genesis", "the blocks"]
        .iter()
        .zip(backend_at.into_iter().zip(trie_at))
    {
        println!("after {at}: backend {backend:.1} bytes a key, trie {trie:.1}");
    }
    assert!(
        backend_at[0] <= budget(215.1) && backend_at[1] <= budget(181.9),
        "the backend holds {backend_at:?} bytes a key"
    );
    assert!(
        trie_at[0] <= budget(184.0) && trie_at[1] <= budget(168.3),
        "the trie holds {trie_at:?} bytes a key"
    );
    assert_eq!(
        db.get(&budget_key(3)),
        backend.get(&budget_key(3), 16).unwrap_or_default()
    );

    // No flat cache copies the in-memory backend; the LSM store reads
    // through its own.
    assert_eq!(db.flat_stats(), None);
    let lsm = BackendKind::Lsm.build_db(genesis[..100].to_vec());
    assert!(lsm.flat_stats().is_some());
}
