//! Allocation budgets of the commitment path: sealing a block and hashing
//! the state trie allocate a constant number of buffers per call, and a
//! trie node is one allocation.
//!
//! The counts come from a counting wrapper around the system allocator,
//! installed for this test binary only (the library crates forbid unsafe
//! code and install no allocator). It counts per thread, so the tests of
//! this file can run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dmvcc_chain::{build_receipts, receipts_root, transactions_root, Receipt};
use dmvcc_primitives::{keccak256, Address, U256};
use dmvcc_state::Mpt;
use dmvcc_vm::{ExecStatus, Transaction, TxEnv};

thread_local! {
    /// Allocations and reallocations made by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from the caller, who got `ptr`
        // from this allocator, that is from `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
    let seal = |size| {
        let (txs, receipts) = block(size);
        allocations(|| (transactions_root(&txs), receipts_root(&receipts))).0
    };
    let (small, large) = (seal(1_000), seal(4_000));
    // Four times the items: the two value buffers double a few more times,
    // and that is all.
    assert!(
        small <= 48 && large <= small + 8,
        "{small} allocations for 1 000 items, {large} for 4 000"
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
    for i in (0..50_000u32).step_by(25) {
        trie.insert(&state_key(i), vec![0xee; 33]);
    }
    assert!(!trie.root_cached());
    let (dirty, root) = allocations(|| trie.root());
    let (cached, again) = allocations(|| trie.root());
    assert_eq!(root, again);
    // One scratch buffer a call, however many nodes the call hashes.
    assert!(
        genesis <= 2 && dirty <= 2 && cached <= 2,
        "root() allocated {genesis} times over 50 000 dirty keys, {dirty} over 2 000, \
         {cached} with everything cached"
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
    // Replacing a value: the branch above and the leaf.
    assert_eq!(insert(key(0x21, 0), 33), 2);
    // A key that shares all but its last byte with the first: the top
    // branch, an extension over the shared 61 nibbles, a branch, two leaves.
    assert_eq!(insert(key(0x11, 0x20), 20), 5);

    // At scale: replacing a value in a 50 000-key trie rebuilds the four or
    // five nodes above it and the leaf, and allocates nothing else.
    let mut trie = Mpt::new();
    for i in 0..50_000u32 {
        trie.insert(&state_key(i), vec![7; 33]);
    }
    let values: Vec<Vec<u8>> = (0..2_000).map(|_| vec![8; 33]).collect();
    let (replaced, ()) = allocations(|| {
        for (i, value) in values.into_iter().enumerate() {
            trie.insert(&state_key(i as u32 * 25), value);
        }
    });
    assert!(
        (4 * 2_000..=7 * 2_000).contains(&replaced),
        "{replaced} allocations for 2 000 replaced values"
    );
}
