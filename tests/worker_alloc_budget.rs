//! The allocation budget of the sharded engine's workers: what one attempt
//! needs — write buffers, the published-id set, publish and drop batches —
//! belongs to the worker that runs it and is reused from one attempt to the
//! next, so a transaction costs the allocator what its interpreter frame
//! costs and little else.
//!
//! The workers are threads the engine spawns, so the counter here is
//! process-wide (`alloc_budget.rs` counts per thread and sees only the
//! calling one) — which is why this binary holds exactly one test: a second
//! one running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dmvcc_analysis::Analyzer;
use dmvcc_core::{refine_csags, ParallelConfig, ParallelExecutor};
use dmvcc_primitives::{Address, U256};
use dmvcc_state::{Snapshot, StateKey};
use dmvcc_vm::{calldata, contracts, BlockEnv, CodeRegistry, Transaction, TxEnv};

/// Allocations and reallocations made by any thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a static atomic that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from the caller, who got `ptr`
        // from this allocator, that is from `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TOKEN: u64 = 800;
const SIZES: (u64, u64) = (4_000, 1_000);

/// Transaction `i` of a conflict-free block moves funds from account
/// `2i + 1` to account `2i + 2`.
fn parties(i: u64) -> (Address, Address) {
    (Address::from_u64(2 * i + 1), Address::from_u64(2 * i + 2))
}

fn ether_transfer(i: u64) -> Transaction {
    let (from, to) = parties(i);
    Transaction::transfer(from, to, U256::from(3u64))
}

fn token_transfer(i: u64) -> Transaction {
    let (from, to) = parties(i);
    let input = calldata(
        contracts::token_fn::TRANSFER,
        &[to.to_u256(), U256::from(3u64)],
    );
    Transaction::call(TxEnv::call(from, Address::from_u64(TOKEN), input))
}

/// Allocations per transaction of a conflict-free block of `make`'s
/// transactions on a warmed executor with `threads` workers: the difference
/// between a large and a small block, so what a block costs whatever its
/// size — the workers' threads and scratch, the outcome's vectors — cancels.
fn per_transaction(make: fn(u64) -> Transaction, threads: usize) -> f64 {
    let registry = CodeRegistry::builder()
        .deploy(Address::from_u64(TOKEN), contracts::token())
        .build();
    let funded = (0..SIZES.0).flat_map(|i| {
        let sender = parties(i).0;
        let token = Address::from_u64(TOKEN);
        let held = StateKey::storage(token, contracts::map_slot(sender.to_u256(), 1));
        [StateKey::balance(sender), held]
    });
    let snapshot = Snapshot::from_entries(funded.map(|key| (key, U256::from(1_000u64))));
    let env = BlockEnv::default();
    let config = ParallelConfig {
        threads,
        ..ParallelConfig::default()
    };
    let executor = ParallelExecutor::new(Analyzer::new(registry), config);
    let run = |size: u64| {
        let txs: Vec<Transaction> = (0..size).map(make).collect();
        let csags = refine_csags(executor.analyzer(), &txs, &snapshot, &env, 1);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcome = executor.execute_block_with_csags(&txs, &snapshot, &env, &csags);
        let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
        // Conflict-free and exactly predicted: one attempt each, two writes.
        assert_eq!(outcome.stats.attempts, size);
        assert_eq!(outcome.final_writes.len() as u64, 2 * size);
        count
    };
    // Warm the executor's arena with the larger block first.
    run(SIZES.0);
    let (large, small) = (run(SIZES.0), run(SIZES.1));
    (large as f64 - small as f64) / (SIZES.0 - SIZES.1) as f64
}

#[test]
fn an_attempt_reuses_its_workers_buffers() {
    for threads in [1, 2] {
        // The write set's B-tree nodes on the calling thread, and nothing
        // per publish: a batch reports into the worker's reusable effects.
        // A staging vector per publish batch made it 1.18, and two write
        // buffers and a batch built afresh for every attempt 4.18.
        let ether = per_transaction(ether_transfer, threads);
        assert!(
            ether <= 0.5,
            "{ether:.2} allocations per Ether transfer at {threads} thread(s)"
        );
        // The interpreter's frame (11, `alloc_budget.rs`); 13.18 with a
        // staging vector per publish batch, 18.18 with per-attempt
        // buffers.
        let token = per_transaction(token_transfer, threads);
        assert!(
            token <= 12.0,
            "{token:.2} allocations per token transfer at {threads} thread(s)"
        );
    }
}
