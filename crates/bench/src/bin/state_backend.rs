//! State-backend benchmark: the off-critical-path commitment stack at
//! million-account scale.
//!
//! Four measurements, written to `bench-results/state_backend.json`:
//!
//! 1. **Backend reads** — cold (first touch) vs warm (repeat) point reads
//!    over a uniformly random working set, each through the backend's own
//!    read path: the in-memory store's slots, and the log-structured
//!    store's flat-state cache. The LSM store is reopened from its flushed
//!    segments before it is read, so its cold pass misses the cache and
//!    searches the segments, and its warm passes hit the cache.
//! 2. **Commit latency** — `apply_batch` of a block-sized write set into
//!    each backend.
//! 3. **Root hashing** — serial vs parallel dirty-subtree recomputation of
//!    the account trie after a block-sized batch of dirty writes.
//! 4. **Commit overlap** — a pipelined chain run per backend, reporting
//!    what fraction of root hashing the pipeline hid off the critical
//!    path.
//!
//! Scale knobs: `DMVCC_STATE_ACCOUNTS` (default 1_000_000),
//! `DMVCC_STATE_READS` (default 200_000), `DMVCC_STATE_WRITES` (block
//! write-set size, default 4_096), `DMVCC_STATE_BLOCKS` (overlap-chain
//! length, default 6).

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

use dmvcc_bench::env_usize;
use dmvcc_chain::{run_pipelined_chain, BackendKind, ChainConfig, ExecutorKind};
use dmvcc_primitives::{Address, U256};
use dmvcc_state::{LsmBackend, LsmOptions, MemBackend, Mpt, StateBackend, StateKey, WriteSet};
use dmvcc_workload::WorkloadConfig;

/// Read/commit measurements for one backend.
#[derive(Debug, Serialize)]
struct BackendPoint {
    backend: &'static str,
    accounts: usize,
    seed_seconds: f64,
    cold_read_ns: f64,
    warm_read_ns: f64,
    cold_over_warm: f64,
    commit_ms: f64,
    segment_reads: u64,
    flushes: u64,
    compactions: u64,
}

/// Serial vs parallel dirty-subtree root recomputation.
#[derive(Debug, Serialize)]
struct RootPoint {
    accounts: usize,
    dirty_writes: usize,
    threads: usize,
    host_parallelism: usize,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
}

/// Commit-overlap fraction of a pipelined chain run.
#[derive(Debug, Serialize)]
struct OverlapPoint {
    backend: &'static str,
    blocks: usize,
    block_size: usize,
    commit_seconds: f64,
    commit_hidden_seconds: f64,
    commit_hidden_fraction: f64,
    roots_consistent: bool,
}

#[derive(Debug, Serialize)]
struct StateBackendReport {
    accounts: usize,
    reads: usize,
    block_writes: usize,
    /// ns/op of a fixed pure-CPU loop measured in this same process.
    /// Shared-runner slowdowns hit it and the read passes alike, so the
    /// CI regression gate compares `warm_read_ns / calib_ns` — the
    /// machine-wide factor divides out.
    calib_ns: f64,
    backends: Vec<BackendPoint>,
    root: RootPoint,
    overlap: Vec<OverlapPoint>,
}

/// Deterministic multiplicative congruential generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn account_key(i: u64) -> StateKey {
    StateKey::balance(Address::from_u64(1 + i))
}

/// ns/op of a fixed arithmetic loop. A per-run speed reference:
/// noisy-neighbor or slower-CPU effects scale it and the read
/// measurements together, so ratios against it are comparable across
/// runs and hosts. Same floor estimator as the warm-read passes —
/// per-slice minima across passes — so both sides of the ratio sit at
/// their noise-free floors.
fn calibrate() -> f64 {
    const OPS_PER_SLICE: usize = 250_000;
    const SLICES: usize = 16;
    const PASSES: usize = 5;
    let mut slice_min = [f64::INFINITY; SLICES];
    for pass in 0..PASSES {
        for (s, min) in slice_min.iter_mut().enumerate() {
            let mut lcg = Lcg(0xca11b ^ (pass * SLICES + s) as u64);
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..OPS_PER_SLICE {
                acc = acc.wrapping_add(lcg.next());
            }
            black_box(acc);
            *min = min.min(start.elapsed().as_nanos() as f64);
        }
    }
    slice_min.iter().sum::<f64>() / (SLICES * OPS_PER_SLICE) as f64
}

/// Seeds `accounts` balance entries into `backend` in chunked batches at
/// height 0, returning the wall-clock seconds spent.
fn seed_accounts(backend: &dyn StateBackend, accounts: usize) -> f64 {
    const CHUNK: usize = 65_536;
    let start = Instant::now();
    let mut i = 0u64;
    while (i as usize) < accounts {
        let end = (i as usize + CHUNK).min(accounts) as u64;
        let batch: WriteSet = (i..end)
            .map(|a| (account_key(a), U256::from(1_000_000u64 + a)))
            .collect();
        backend.apply_batch(0, &batch);
        i = end;
    }
    start.elapsed().as_secs_f64()
}

/// Cold/warm reads plus one block-sized commit against one backend that
/// holds the seeded accounts (`seed_seconds` is what seeding them took).
fn bench_backend(
    label: &'static str,
    backend: &dyn StateBackend,
    seed_seconds: f64,
    accounts: usize,
    reads: usize,
    block_writes: usize,
) -> BackendPoint {
    let order: Vec<u64> = {
        let mut lcg = Lcg(0xc01d ^ accounts as u64);
        (0..reads).map(|_| lcg.next() % accounts as u64).collect()
    };

    // Cold pass: the first touch of every key in the working set.
    let start = Instant::now();
    for &a in &order {
        black_box(backend.get(&account_key(a), 0));
    }
    let cold_read_ns = start.elapsed().as_nanos() as f64 / reads as f64;

    // Warm passes: the same working set again, now in the LSM store's
    // flat cache and in the CPU caches. The CI gate holds this number
    // within 5% of a checked-in baseline, so it must estimate the
    // noise-free floor, not one sample: split the read order into
    // chunks, time every chunk on each of several passes, and keep each
    // chunk's minimum. Scheduler-noise bursts rarely hit the same chunk
    // on every pass, so the summed minima converge far tighter than a
    // whole-pass minimum.
    const WARM_PASSES: usize = 7;
    const WARM_CHUNKS: usize = 16;
    let chunk_len = reads.div_ceil(WARM_CHUNKS);
    let mut chunk_min = [f64::INFINITY; WARM_CHUNKS];
    for _ in 0..WARM_PASSES {
        for (c, chunk) in order.chunks(chunk_len).enumerate() {
            let start = Instant::now();
            for &a in chunk {
                black_box(backend.get(&account_key(a), 0));
            }
            let ns = start.elapsed().as_nanos() as f64;
            chunk_min[c] = chunk_min[c].min(ns);
        }
    }
    let warm_read_ns = chunk_min.iter().filter(|m| m.is_finite()).sum::<f64>() / reads as f64;

    // One block-sized commit.
    let mut lcg = Lcg(0xb10c ^ accounts as u64);
    let batch: WriteSet = (0..block_writes)
        .map(|_| {
            let a = lcg.next() % accounts as u64;
            (account_key(a), U256::from(lcg.next()))
        })
        .collect();
    let start = Instant::now();
    backend.apply_batch(1, &batch);
    let commit_ms = start.elapsed().as_secs_f64() * 1e3;

    let stats = backend.stats();
    BackendPoint {
        backend: label,
        accounts,
        seed_seconds,
        cold_read_ns,
        warm_read_ns,
        cold_over_warm: cold_read_ns / warm_read_ns.max(f64::EPSILON),
        commit_ms,
        segment_reads: stats.segment_reads,
        flushes: stats.flushes,
        compactions: stats.compactions,
    }
}

/// Serial vs parallel dirty-subtree root recomputation.
///
/// Cloned tries share `Arc`'d nodes (and their hash caches), so whichever
/// variant hashes first would leave nothing dirty for the second. Instead
/// each timed measurement applies a fresh same-sized batch of dirty writes
/// — the incremental per-block scenario — and the two variants alternate
/// over several rounds to cancel drift.
fn bench_root(accounts: usize, dirty_writes: usize, threads: usize) -> RootPoint {
    const ROUNDS: usize = 3;
    let mut trie = Mpt::new();
    for a in 0..accounts as u64 {
        let key = account_key(a);
        trie.insert(&key.to_bytes(), (1_000_000u64 + a).to_be_bytes().to_vec());
    }
    // Hash everything once so each round dirties only its own batch.
    trie.root();

    let mut lcg = Lcg(0xd1f7 ^ accounts as u64);
    let mut dirty = |trie: &mut Mpt| {
        for _ in 0..dirty_writes {
            let a = lcg.next() % accounts as u64;
            let key = account_key(a);
            trie.insert(&key.to_bytes(), lcg.next().to_be_bytes().to_vec());
        }
    };
    let mut time_root = |trie: &mut Mpt, threads: usize| {
        dirty(trie);
        let start = Instant::now();
        black_box(trie.root_parallel(threads));
        start.elapsed().as_secs_f64() * 1e3
    };

    // Warmup round (touches every code path, warms the allocator).
    time_root(&mut trie, 1);
    let mut serial_ms = f64::INFINITY;
    let mut parallel_ms = f64::INFINITY;
    for _ in 0..ROUNDS {
        serial_ms = serial_ms.min(time_root(&mut trie, 1));
        parallel_ms = parallel_ms.min(time_root(&mut trie, threads));
    }

    // Correctness spot-check: apply one more batch to two clones
    // *independently* (so they share no dirty nodes) and compare the
    // serial root of one against the parallel root of the other.
    let mut check_lcg = Lcg(0x0ddc ^ accounts as u64);
    let batch: Vec<(StateKey, u64)> = (0..dirty_writes)
        .map(|_| {
            (
                account_key(check_lcg.next() % accounts as u64),
                check_lcg.next(),
            )
        })
        .collect();
    let mut serial_copy = trie.clone();
    let mut parallel_copy = trie.clone();
    for (key, value) in &batch {
        serial_copy.insert(&key.to_bytes(), value.to_be_bytes().to_vec());
        parallel_copy.insert(&key.to_bytes(), value.to_be_bytes().to_vec());
    }
    assert_eq!(
        parallel_copy.root_parallel(threads),
        serial_copy.root_parallel(1),
        "parallel root diverged"
    );

    RootPoint {
        accounts,
        dirty_writes,
        threads,
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms.max(f64::EPSILON),
    }
}

/// Pipelined chain run per backend: how much root hashing stayed off the
/// critical path.
fn bench_overlap(backend: BackendKind, blocks: usize, block_size: usize) -> OverlapPoint {
    let config = ChainConfig {
        block_size,
        blocks,
        threads: 4,
        workload: WorkloadConfig::ethereum_mix(7),
        executor: ExecutorKind::Sharded,
        backend,
    };
    let report = run_pipelined_chain(&config);
    OverlapPoint {
        backend: backend.label(),
        blocks,
        block_size,
        commit_seconds: report.commit_seconds,
        commit_hidden_seconds: report.commit_hidden_seconds,
        commit_hidden_fraction: report.commit_hidden_fraction(),
        roots_consistent: report.roots_consistent(),
    }
}

fn main() {
    let accounts = env_usize("DMVCC_STATE_ACCOUNTS", 1_000_000);
    let reads = env_usize("DMVCC_STATE_READS", 200_000);
    let block_writes = env_usize("DMVCC_STATE_WRITES", 4_096);
    let blocks = env_usize("DMVCC_STATE_BLOCKS", 6);

    let calib_ns = calibrate();
    println!("calibration: {calib_ns:.3} ns/op (pure-CPU reference loop)");

    let backends = vec![
        {
            let mem = MemBackend::new();
            let seed_seconds = seed_accounts(&mem, accounts);
            bench_backend("mem", &mem, seed_seconds, accounts, reads, block_writes)
        },
        {
            // Seeding leaves every account in the store's cache; a store
            // reopened from the flushed segments starts with it cold.
            let seeded = LsmBackend::new(LsmOptions::default());
            let seed_seconds = seed_accounts(&seeded, accounts);
            seeded.flush();
            let lsm = LsmBackend::open(seeded.dir().to_path_buf(), LsmOptions::default())
                .expect("lsm: reopen the seeded segments");
            let mut point = bench_backend("lsm", &lsm, seed_seconds, accounts, reads, block_writes);
            point.flushes += seeded.stats().flushes;
            point.compactions += seeded.stats().compactions;
            point
        },
    ];

    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10} {:>10} {:>9} {:>8} {:>12}",
        "backend",
        "accounts",
        "cold ns/rd",
        "warm ns/rd",
        "cold/warm",
        "commit ms",
        "seg rds",
        "flushes",
        "compactions"
    );
    for p in &backends {
        println!(
            "{:<8} {:>10} {:>12.1} {:>12.1} {:>9.1}x {:>10.2} {:>9} {:>8} {:>12}",
            p.backend,
            p.accounts,
            p.cold_read_ns,
            p.warm_read_ns,
            p.cold_over_warm,
            p.commit_ms,
            p.segment_reads,
            p.flushes,
            p.compactions
        );
    }

    let root = bench_root(accounts, block_writes, 8);
    println!(
        "root: {} accounts, {} dirty → serial {:.1} ms, parallel({}) {:.1} ms ({:.2}x, host cores {})",
        root.accounts,
        root.dirty_writes,
        root.serial_ms,
        root.threads,
        root.parallel_ms,
        root.speedup,
        root.host_parallelism
    );

    let overlap = vec![
        bench_overlap(BackendKind::Mem, blocks, 400),
        bench_overlap(BackendKind::Lsm, blocks, 400),
    ];
    for o in &overlap {
        println!(
            "overlap[{}]: {:.3}s hashing, {:.3}s hidden ({:.0}%), consistent={}",
            o.backend,
            o.commit_seconds,
            o.commit_hidden_seconds,
            o.commit_hidden_fraction * 100.0,
            o.roots_consistent
        );
        assert!(o.roots_consistent, "pipelined chain diverged");
    }

    let report = StateBackendReport {
        accounts,
        reads,
        block_writes,
        calib_ns,
        backends,
        root,
        overlap,
    };
    dmvcc_bench::write_json("state_backend", &report);
}
