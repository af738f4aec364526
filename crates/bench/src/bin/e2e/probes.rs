//! The traced run: per-layer metrics, never taken from the end-to-end run.
//!
//! Three phases on one chain after warm-up:
//!
//! 1. **Probes.** On each of the first timed blocks, every public function
//!    of the catalogue is timed alone on identical inputs — the block's
//!    transactions, its pre-block snapshot, its C-SAGs and its write set —
//!    in lockstep with the chain, so each probe sees the caches in the
//!    state the real pass would.
//! 2. **Spans.** The sequential pass again with the span recorder, on
//!    alternate blocks: traced blocks give the stage shares, the untraced
//!    ones between them are what the tracing overhead is measured against.
//! 3. **Pipelined.** A short pipelined pass for the hidden-work shares.

use std::time::Instant;

use crate::adapter::{self, Engine, EngineCounts, Spec, TierCounts, VmChain, ENGINES, TIERS};
use crate::metrics::{self, median, ratio, Sheet};
use crate::run::{self, Chain, Options, Plan};
use crate::trace::{BLOCK, STAGES};

/// Sizes of the probes that loop on their own: full, smoke.
const RANDOM_READS: [usize; 2] = [100_000, 2_000];
const KECCAK_CALLS: [u32; 2] = [200_000, 2_000];
const CALIBRATION_ITERATIONS: [u64; 2] = [run::CALIBRATION_ITERATIONS, 1_000_000];

/// Sums over the probed blocks.
#[derive(Default)]
struct Sums {
    txs: u64,
    refine_ns: u64,
    refine_1t_ns: u64,
    tiers: TierCounts,
    predicted_keys: u64,
    wrong_keys: u64,
    distinct_predicted_keys: u64,
    rank_ns: u64,
    speedup_bounds: Vec<f64>,
    serial_ns: u64,
    /// Per engine: nanoseconds at `threads` and at one thread.
    exec_ns: [[u64; 2]; 3],
    /// Per engine, at `threads`.
    counts: [EngineCounts; 3],
    vm_ns: u64,
    vm_call_gas: u64,
    gas: u64,
    unsuccessful_txs: u64,
    apply_ns: u64,
    writes: u64,
    commit_ns: u64,
    pool_ns: u64,
    wrong_blocks: usize,
}

fn timed<T>(nanos: &mut u64, work: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = work();
    *nanos += started.elapsed().as_nanos() as u64;
    value
}

/// Every probe on the block at `index`, then the block's commit and seal so
/// the chain moves on.
fn probe_block(
    chain: &mut Chain,
    engines: &[[Engine; 2]; 3],
    vm: &mut VmChain,
    sums: &mut Sums,
    index: usize,
) {
    let height = Chain::height_of(index);
    let world = &mut chain.world;
    let txs = &world.blocks[index];
    let analyzer = &world.analyzer;
    let snapshot = world.db.latest().clone();
    sums.txs += txs.len() as u64;

    let csags = timed(&mut sums.refine_ns, || {
        adapter::refine(analyzer, txs, &snapshot, height, world.threads)
    });
    timed(&mut sums.refine_1t_ns, || {
        std::hint::black_box(adapter::refine(analyzer, txs, &snapshot, height, 1));
    });
    for (sum, block) in sums
        .tiers
        .iter_mut()
        .zip(adapter::refine_by_tier(analyzer, txs, &snapshot, height))
    {
        sum.0 += block.0;
        sum.1 += block.1;
    }
    sums.predicted_keys += adapter::predicted_keys(&csags);

    let (rank_ns, bound) = adapter::rank(&csags);
    sums.rank_ns += rank_ns;
    sums.speedup_bounds.push(bound);

    // The first execution of a block pays its cold state reads and leaves
    // the flat cache warm. That one is the untimed reference, so that every
    // timed execution below, the serial one included, runs equally warm;
    // what cold reads cost a block shows in the spans of phase 2.
    let trace = adapter::execute_serial(analyzer, txs, &snapshot, height);
    timed(&mut sums.serial_ns, || {
        std::hint::black_box(adapter::execute_serial(analyzer, txs, &snapshot, height));
    });
    let (wrong, distinct) = adapter::misprediction(&csags, &trace);
    sums.wrong_keys += wrong;
    sums.distinct_predicted_keys += distinct;
    let (gas, unsuccessful) = adapter::serial_totals(&trace);
    sums.gas += gas;
    sums.unsuccessful_txs += unsuccessful;

    let default_engine = Engine::index_of(Engine::default_label());
    let mut right = true;
    let mut committed = None;
    for (e, pair) in engines.iter().enumerate() {
        for (k, engine) in pair.iter().enumerate() {
            let outcome = timed(&mut sums.exec_ns[e][k], || {
                engine.execute(txs, &snapshot, height, &csags)
            });
            right &= adapter::matches_serial(&outcome, &trace);
            if k == 0 {
                sums.counts[e].add(&outcome);
                if e == default_engine {
                    committed = Some(outcome);
                }
            }
        }
    }
    let outcome = committed.expect("the default engine ran");

    let vm_block = vm.run_block(analyzer, txs, height);
    sums.vm_ns += vm_block.nanos;
    sums.vm_call_gas += vm_block.call_gas;
    right &= vm_block.block_gas == gas;

    sums.apply_ns += adapter::snapshot_apply(&snapshot, &outcome);
    sums.writes += adapter::write_count(&outcome);
    sums.pool_ns += adapter::pool_round_trip(txs, &csags);

    let root = timed(&mut sums.commit_ns, || {
        adapter::commit(&mut world.db, &outcome)
    });
    let receipt_gas = adapter::receipt_gas(&csags);
    let hash = adapter::seal_outcome(chain.parent_hash, height, txs, &outcome, &receipt_gas, root);
    chain.parent_hash = hash;
    chain.executed.push(adapter::Executed::new(
        outcome,
        root,
        Some((receipt_gas, hash)),
    ));
    if !right {
        sums.wrong_blocks += 1;
    }
}

/// The traced run after warm-up. Returns the per-layer sheet and how many
/// probed blocks an engine or the interpreter got wrong. `heartbeat` fires
/// once per block, for the watchdog.
pub fn traced_run(
    spec: &Spec,
    options: &Options,
    plan: &Plan,
    chain: &mut Chain,
    mut heartbeat: impl FnMut(),
) -> (Sheet, usize) {
    let mut sheet = Sheet::new(metrics::per_layer());
    let threads = chain.world.threads;
    let block_txs = spec.block_size(options.smoke) as u64;

    // Phase 1: probes.
    let engines: [[Engine; 2]; 3] = ENGINES.map(|label| {
        [
            Engine::new(label, &chain.world.analyzer, threads),
            Engine::new(label, &chain.world.analyzer, 1),
        ]
    });
    let mut vm = VmChain::new(chain.world.genesis());
    for block in &chain.executed {
        vm.apply(block);
    }
    let mut sums = Sums::default();
    let first_probed = plan.warmup;
    for index in first_probed..first_probed + plan.probe {
        probe_block(chain, &engines, &mut vm, &mut sums, index);
        heartbeat();
    }
    drop(vm);
    drop(engines);

    // Phase 2: spans, on alternate blocks.
    let first_traced = first_probed + plan.probe;
    let storage_before = adapter::storage_counts(&chain.world.db);
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    for i in 0..plan.sequential {
        chain.recorder.enabled = i % 2 == 0;
        let wall_ms = chain.run_block(first_traced + i) as f64 / 1e6;
        if chain.recorder.enabled {
            traced_ms.push(wall_ms);
        } else {
            untraced_ms.push(wall_ms);
        }
        heartbeat();
    }
    chain.recorder.enabled = false;
    let storage = adapter::storage_counts(&chain.world.db).since(storage_before);

    // Phase 3: a short pipelined pass.
    let pipelined = chain.run_pipelined(first_traced + plan.sequential, plan.pipelined, || {
        heartbeat();
    });

    // The probes that need no block in hand.
    let smoke = options.smoke;
    let probed = &chain.executed[first_probed..first_traced];
    let replay_ns = adapter::backend_replay(spec, smoke, probed);
    let size = usize::from(smoke);
    let reads = RANDOM_READS[size];
    let read_ns =
        adapter::random_reads(&chain.world.db, &chain.world.genesis(), options.seed, reads);

    let txs = sums.txs as f64;
    let ktx = txs / 1e3;
    let blocks = plan.probe as u64;
    let per_tx_us = |nanos: u64| ratio(nanos as f64 / 1e3, txs);

    let setup = &chain.world.setup;
    sheet.put(
        "workload.gen_us_per_tx",
        ratio(setup.block_gen_s * 1e6, setup.txs as f64),
        setup.txs,
    );
    sheet.put("workload.genesis_keys", setup.genesis_keys as f64, 1);
    sheet.put("workload.db_build_s", setup.db_build_s, 1);
    sheet.put("analysis.psag_cold_ms", setup.psag_cold_ms, 1);
    let lookups = setup.summary_hits + setup.summary_misses;
    sheet.put(
        "analysis.summary_cache_hit_share",
        ratio(setup.summary_hits as f64, lookups as f64),
        lookups,
    );

    sheet.put(
        "analysis.refine_us_per_tx",
        per_tx_us(sums.refine_ns),
        sums.txs,
    );
    sheet.put(
        "analysis.refine_us_per_tx_1t",
        per_tx_us(sums.refine_1t_ns),
        sums.txs,
    );
    for (tier, (count, nanos)) in TIERS.iter().zip(sums.tiers) {
        sheet.put(
            &format!("analysis.refine_us_per_tx.{tier}"),
            ratio(nanos as f64 / 1e3, count as f64),
            count,
        );
        sheet.put(
            &format!("analysis.tier_share.{tier}"),
            ratio(count as f64, txs),
            sums.txs,
        );
    }
    sheet.put(
        "analysis.keys_per_tx",
        ratio(sums.predicted_keys as f64, txs),
        sums.txs,
    );
    sheet.put(
        "analysis.mispredicted_key_share",
        ratio(sums.wrong_keys as f64, sums.distinct_predicted_keys as f64),
        sums.distinct_predicted_keys,
    );

    sheet.put("core.rank_us_per_tx", per_tx_us(sums.rank_ns), sums.txs);
    let bounds = &sums.speedup_bounds;
    sheet.put(
        "core.speedup_bound",
        ratio(bounds.iter().sum::<f64>(), bounds.len() as f64),
        blocks,
    );
    sheet.put("core.serial_us_per_tx", per_tx_us(sums.serial_ns), sums.txs);
    for (e, engine) in ENGINES.iter().enumerate() {
        let counts = &sums.counts[e];
        sheet.put(
            &format!("core.exec_us_per_tx.{engine}"),
            per_tx_us(sums.exec_ns[e][0]),
            sums.txs,
        );
        sheet.put(
            &format!("core.exec_us_per_tx_1t.{engine}"),
            per_tx_us(sums.exec_ns[e][1]),
            sums.txs,
        );
        sheet.put(
            &format!("core.overhead_ratio_1t.{engine}"),
            ratio(sums.exec_ns[e][1] as f64, sums.vm_ns as f64),
            sums.txs,
        );
        sheet.put(
            &format!("core.abort_share.{engine}"),
            ratio(counts.aborts as f64, counts.attempts as f64),
            counts.attempts,
        );
    }
    let counts = &sums.counts[Engine::index_of(Engine::default_label())];
    sheet.put(
        "core.parks_per_ktx",
        ratio(counts.parks as f64, ktx),
        sums.txs,
    );
    sheet.put(
        "core.targeted_wakeups_per_ktx",
        ratio(counts.targeted_wakeups as f64, ktx),
        sums.txs,
    );
    sheet.put(
        "core.steals_per_ktx",
        ratio(counts.steals as f64, ktx),
        sums.txs,
    );
    sheet.put(
        "core.shard_locks_per_tx",
        ratio(counts.shard_locks as f64, txs),
        sums.txs,
    );
    sheet.put(
        "core.publishes_per_tx",
        ratio(counts.publishes as f64, txs),
        sums.txs,
    );
    sheet.put(
        "core.publishes_per_batch",
        ratio(counts.publishes as f64, counts.publish_batches as f64),
        counts.publish_batches,
    );
    sheet.put(
        "core.rank_inversions_per_ktx",
        ratio(counts.rank_inversions as f64, ktx),
        sums.txs,
    );
    sheet.put(
        "core.arena_recycled_mb_per_block",
        ratio(counts.recycled_bytes as f64 / 1e6, blocks as f64),
        blocks,
    );
    let stm = &sums.counts[Engine::index_of("stm")];
    sheet.put(
        "core.stm.validation_failure_share",
        ratio(stm.validation_failures as f64, stm.validations as f64),
        stm.validations,
    );
    sheet.put(
        "core.hybrid.optimistic_share",
        ratio(
            sums.counts[Engine::index_of("hybrid")].optimistic_txs as f64,
            txs,
        ),
        sums.txs,
    );
    sheet.put(
        "core.pipeline.refine_hidden_share",
        ratio(
            pipelined.refine_hidden_ns as f64,
            pipelined.refine_ns as f64,
        ),
        plan.pipelined as u64,
    );

    sheet.put("vm.interp_us_per_tx", per_tx_us(sums.vm_ns), sums.txs);
    sheet.put(
        "vm.mgas_per_s",
        ratio(sums.vm_call_gas as f64 / 1e6, sums.vm_ns as f64 / 1e9),
        sums.txs,
    );
    sheet.put("vm.gas_per_tx", ratio(sums.gas as f64, txs), sums.txs);
    sheet.put(
        "vm.revert_share",
        ratio(sums.unsuccessful_txs as f64, txs),
        sums.txs,
    );

    let writes = sums.writes as f64;
    sheet.put(
        "state.snapshot_apply_us_per_write",
        ratio(sums.apply_ns as f64 / 1e3, writes),
        sums.writes,
    );
    sheet.put(
        "state.commit_ms_per_block",
        ratio(sums.commit_ns as f64 / 1e6, blocks as f64),
        blocks,
    );
    sheet.put(
        "state.commit_us_per_write",
        ratio(sums.commit_ns as f64 / 1e3, writes),
        sums.writes,
    );
    sheet.put(
        "state.root_hash_ms_per_block",
        ratio(pipelined.hash_ns as f64 / 1e6, plan.pipelined as f64),
        plan.pipelined as u64,
    );
    let hidden_ns = pipelined.hash_ns.saturating_sub(pipelined.stall_ns);
    sheet.put(
        "state.commit_hidden_share",
        ratio(hidden_ns as f64, pipelined.hash_ns as f64),
        plan.pipelined as u64,
    );
    sheet.put(
        "state.backend_apply_us_per_write",
        ratio(replay_ns as f64 / 1e3, writes),
        sums.writes,
    );
    sheet.put(
        "state.read_ns_per_get",
        ratio(read_ns as f64, reads as f64),
        reads as u64,
    );
    sheet.put("state.writes_per_tx", ratio(writes, txs), sums.txs);

    // Storage counters over the sequential pass of phase 2.
    let pass_blocks = plan.sequential as f64;
    let pass_ktx = pass_blocks * block_txs as f64 / 1e3;
    let flat_reads = storage.flat_hits + storage.flat_misses;
    sheet.put(
        "state.flat_hit_share",
        ratio(storage.flat_hits as f64, flat_reads as f64),
        flat_reads,
    );
    sheet.put(
        "state.flat_evictions_per_block",
        ratio(storage.flat_evictions as f64, pass_blocks),
        plan.sequential as u64,
    );
    sheet.put(
        "state.lsm.segment_reads_per_ktx",
        ratio(storage.segment_reads as f64, pass_ktx),
        plan.sequential as u64,
    );
    let user_bytes = storage.writes * adapter::USER_BYTES_PER_WRITE;
    sheet.put(
        "state.lsm.write_amp",
        ratio(storage.segment_bytes as f64, user_bytes as f64),
        plan.sequential as u64,
    );
    sheet.put(
        "state.lsm.flushes",
        storage.flushes as f64,
        plan.sequential as u64,
    );
    sheet.put(
        "state.lsm.compactions",
        storage.compactions as f64,
        plan.sequential as u64,
    );

    // Spans.
    let recorder = &chain.recorder;
    let block_ns = recorder.total_ns(BLOCK) as f64;
    let traced_blocks = traced_ms.len() as u64;
    for stage in STAGES {
        sheet.put(
            &format!("trace.share.{stage}"),
            ratio(recorder.total_ns(stage) as f64, block_ns),
            traced_blocks,
        );
    }
    sheet.put(
        "chain.seal_us_per_tx",
        ratio(
            recorder.total_ns(STAGES[3]) as f64 / 1e3,
            (traced_blocks * block_txs) as f64,
        ),
        traced_blocks * block_txs,
    );
    sheet.put("chain.pool_us_per_tx", per_tx_us(sums.pool_ns), sums.txs);
    sheet.put(
        "trace.unattributed_share",
        ratio(recorder.unattributed_ns() as f64, block_ns),
        traced_blocks,
    );
    let overhead = if untraced_ms.is_empty() {
        0.0
    } else {
        median(&traced_ms) / median(&untraced_ms) - 1.0
    };
    sheet.put("trace.overhead_share", overhead, traced_blocks);

    let calls = KECCAK_CALLS[size];
    sheet.put(
        "primitives.keccak256_ns_per_64b",
        adapter::keccak_ns_per_64b(calls),
        u64::from(calls),
    );
    let iterations = CALIBRATION_ITERATIONS[size];
    sheet.put(
        "host.calib_ns_per_iter",
        run::calibrate(iterations),
        iterations,
    );

    if let Some(dir) = &options.out_dir {
        let path = dir.join(format!("trace-{}.json", spec.name));
        if let Err(error) = recorder.write_chrome_trace(&path) {
            eprintln!("e2e: cannot write {}: {error}", path.display());
        }
    }
    (sheet, sums.wrong_blocks)
}
