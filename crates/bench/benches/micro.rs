//! Criterion micro-benchmarks for the building blocks of the reproduction:
//! hashing, 256-bit arithmetic, the genesis load, trie commits, state
//! reads and backend batches, VM execution, SAG analysis,
//! access-sequence operations, whole-block scheduling and the threaded
//! engines' per-transaction overhead.
//!
//! These are engineering benchmarks (no paper counterpart); the paper
//! figures are regenerated by the `fig7a`/`fig7b`/`fig8a`/`fig8b`/`rq1`/
//! `rq2`/`ablation` binaries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use dmvcc_analysis::{Analyzer, PSag};
use dmvcc_chain::{build_receipts, receipts_root, transactions_root, BackendKind};
use dmvcc_core::{execute_block_serial, refine_csags, AccessOp, AccessSequence, BlockDag};
use dmvcc_primitives::{keccak256, keccak256_x4, keccak_backend, Address, U256};
use dmvcc_sim::{simulate_dag, simulate_dmvcc, simulate_occ};
use dmvcc_state::{
    LsmBackend, LsmOptions, MemBackend, Mpt, Snapshot, StateBackend, StateDb, StateKey, WriteSet,
};
use dmvcc_vm::{calldata, contracts, execute, BlockEnv, CodeRegistry, ExecParams, MapHost, TxEnv};
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    let data = vec![0xabu8; 128];
    group.bench_function("keccak256_128B", |b| b.iter(|| keccak256(black_box(&data))));
    let x = U256::from_limbs([0x1234567890abcdef; 4]);
    let y = U256::from_limbs([0xfedcba0987654321, 1, 2, 3]);
    group.bench_function("u256_mul", |b| {
        b.iter(|| black_box(x).wrapping_mul(black_box(y)))
    });
    group.bench_function("u256_div_rem", |b| {
        b.iter(|| black_box(x).div_rem(black_box(y)))
    });
    group.finish();

    // The batch call, a call and a permutation (`/elem`: the permutations
    // four separate `keccak256` calls would run): a trie key, a full rate
    // block, a full branch node, and lanes that finish at different blocks;
    // then those four separate calls, for the 136-byte inputs.
    println!("keccak256_x4 backend: {}", keccak_backend());
    let mut group = c.benchmark_group("keccak256_x4");
    let data = vec![0xabu8; 532];
    for (name, lens) in [
        ("4x52B", [52usize; 4]),
        ("4x136B", [136; 4]),
        ("4x532B", [532; 4]),
        ("52_136_300_532B", [52, 136, 300, 532]),
    ] {
        let lanes = lens.map(|len| &data[..len]);
        let permutations: usize = lens.iter().map(|len| len / 136 + 1).sum();
        group.throughput(Throughput::Elements(permutations as u64));
        group.bench_function(name, |b| b.iter(|| keccak256_x4(black_box(lanes))));
    }
    group.throughput(Throughput::Elements(8));
    group.bench_function("four_keccak256_calls_136B", |b| {
        b.iter(|| black_box([&data[..136]; 4]).map(keccak256))
    });
    group.finish();
}

fn bench_mpt(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpt");
    group.bench_function("insert_100_and_root", |b| {
        b.iter_batched(
            Mpt::new,
            |mut trie| {
                for i in 0u32..100 {
                    trie.insert(&keccak256(&i.to_be_bytes()).0, vec![1, 2, 3]);
                }
                trie.root()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The state every chain starts from, at the e2e benchmark's scale: the
/// `ethereum_mix` genesis (262 k keys) loaded into the in-memory backend
/// and its trie, and the trie's root hashed — what the e2e run reports as
/// `workload.db_build_s`.
fn bench_genesis(c: &mut Criterion) {
    let genesis = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(7)).genesis_entries();
    let mut group = c.benchmark_group("genesis");
    group.sample_size(10);
    group.bench_function("262k_mem", |b| {
        // Each database is dropped in the next sample's set-up, untimed.
        let built = std::cell::RefCell::new(None);
        b.iter_batched(
            || {
                built.take();
                genesis.clone()
            },
            |genesis| built.replace(Some(BackendKind::Mem.build_db(genesis))),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The two serial stages around execution, at the e2e benchmark's scale:
/// sealing a 10 000-transaction block and committing its ~6 000 writes into
/// the `ethereum_mix` genesis trie (262 k keys), and as many keys new to it.
fn bench_commit_and_seal(c: &mut Criterion) {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(7));
    let genesis = generator.genesis_entries();
    let txs = generator.block(10_000);
    let receipts = build_receipts(&vec![(dmvcc_vm::ExecStatus::Success, 27_000); txs.len()]);
    let mut group = c.benchmark_group("seal_roots");
    group.sample_size(20);
    group.bench_function("10k", |b| {
        b.iter(|| (transactions_root(black_box(&txs)), receipts_root(&receipts)))
    });
    group.finish();

    let writes: WriteSet = genesis
        .iter()
        .filter(|(_, value)| !value.is_zero())
        .step_by(genesis.len() / 6_000)
        .take(6_000)
        .map(|(key, value)| (*key, value.wrapping_add(U256::ONE)))
        .collect();
    // As many keys the genesis does not hold: each commit adds a leaf a key,
    // most of them to a branch that gains a child.
    let new_keys: WriteSet = (0..6_000u64)
        .map(|i| {
            let key = StateKey::storage(Address::from_u64(0xfeed_0000 + i % 600), U256::from(i));
            (key, U256::from(i + 1))
        })
        .collect();
    assert!(genesis.iter().all(|(key, _)| !new_keys.contains_key(key)));
    let mut group = c.benchmark_group("commit");
    group.sample_size(20);
    // Each sample commits into a database of its own, built untimed: clones
    // share one backend, which skips a batch at or below its tip, so every
    // sample after the first on clones of one database would land no
    // batch. The clone kept beside it keeps the genesis version alive, so
    // the sample copies the paths it touches afresh, as a block's first
    // touch of a shared subtree does: the copy path's number.
    let mut kept: Option<StateDb> = None;
    let mut fresh = || {
        let db = StateDb::with_genesis(genesis.iter().copied());
        kept = Some(db.clone()); // drops the previous sample's, untimed
        db
    };
    group.bench_function("6k_into_262k", |b| {
        b.iter_batched(
            &mut fresh,
            |mut db| db.commit(black_box(&writes)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("6k_new_keys_into_262k", |b| {
        // Beside the genesis version, as `6k_into_262k`: the branch-growth
        // path, where a branch that gains a child is rebuilt one wider.
        b.iter_batched(
            &mut fresh,
            |mut db| db.commit(black_box(&new_keys)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("6k_in_place_262k", |b| {
        // A database of its own a sample, built untimed with no clone beside
        // it and no warm-up commit: the commit changes the genesis trie in
        // place, on nodes as `Mpt::from_keys` laid them out. Each database
        // is dropped in the next sample's set-up, untimed.
        let built = std::cell::RefCell::new(None);
        b.iter_batched(
            || {
                built.take();
                StateDb::with_genesis(genesis.iter().copied())
            },
            |mut db| {
                let root = db.commit(black_box(&writes));
                built.replace(Some(db));
                root
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("6k_steady_262k", |b| {
        // One database, block after block: the warm-up commit copies the
        // paths away from the genesis version kept beside it, and every
        // commit after it finds them the trie's alone and changes them in
        // place.
        let mut db = fresh();
        db.commit(&writes);
        b.iter(|| db.commit(black_box(&writes)))
    });
    group.finish();
}

/// The state's two halves of a block at the e2e benchmark's scale, over the
/// `ethereum_mix` genesis (262 k keys): latest-state reads of 100 000
/// scattered keys through what `BackendKind::Mem.build_db` builds (the
/// e2e run's `state.read_ns_per_get`), the same reads from an LSM store
/// loaded with the same run (its read path: every read a hit in its flat
/// cache), and one 6 000-write batch into the loaded in-memory backend.
fn bench_state(c: &mut Criterion) {
    let genesis = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(7)).genesis_entries();
    let mut seed = 7u64;
    let keys: Vec<StateKey> = (0..100_000)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            genesis[(seed % genesis.len() as u64) as usize].0
        })
        .collect();
    let run: Vec<(StateKey, U256)> = genesis
        .iter()
        .copied()
        .filter(|(_, value)| !value.is_zero())
        .collect();
    let writes: WriteSet = run
        .iter()
        .step_by(run.len() / 6_000)
        .take(6_000)
        .map(|(key, value)| (*key, value.wrapping_add(U256::ONE)))
        .collect();
    let db = BackendKind::Mem.build_db(genesis);
    let lsm = LsmBackend::new(LsmOptions::default());
    lsm.load_genesis(&run);
    let mut group = c.benchmark_group("state");
    group.sample_size(20);
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("latest_get_262k_mem", |b| {
        b.iter(|| {
            keys.iter()
                .map(|key| db.get(black_box(key)))
                .fold(U256::ZERO, U256::wrapping_add)
        })
    });
    group.bench_function("flat_get_262k", |b| {
        b.iter(|| {
            keys.iter()
                .filter_map(|key| lsm.get(black_box(key), 0))
                .fold(U256::ZERO, U256::wrapping_add)
        })
    });
    group.throughput(Throughput::Elements(writes.len() as u64));
    group.bench_function("backend_batch_6k_mem", |b| {
        // Each backend is dropped in the next sample's set-up, untimed.
        let loaded = std::cell::RefCell::new(None);
        b.iter_batched(
            || {
                loaded.take();
                let backend = MemBackend::new();
                backend.load_genesis(&run);
                backend
            },
            |backend| {
                backend.apply_batch(1, black_box(&writes));
                loaded.replace(Some(backend))
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_vm(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm");
    let code = contracts::token();
    let tx = TxEnv::call(
        Address::from_u64(1),
        Address::from_u64(99),
        calldata(
            contracts::token_fn::MINT,
            &[Address::from_u64(2).to_u256(), U256::from(5u64)],
        ),
    );
    let block = BlockEnv::default();
    group.bench_function("token_mint_call", |b| {
        b.iter_batched(
            MapHost::new,
            |mut host| execute(&ExecParams::new(&code, &tx, &block), &mut host),
            BatchSize::SmallInput,
        )
    });
    // What the engines pass: the registry's own bytes and the registry,
    // so the frame borrows the deployment's jump table.
    let token = Address::from_u64(99);
    let registry = CodeRegistry::builder()
        .deploy(token, contracts::token())
        .build();
    let deployed = registry.code(&token).expect("deployed");
    let sender = Address::from_u64(1);
    let balance = StateKey::storage(token, contracts::map_slot(sender.to_u256(), 1));
    let transfer = TxEnv::call(
        sender,
        token,
        calldata(
            contracts::token_fn::TRANSFER,
            &[Address::from_u64(2).to_u256(), U256::from(5u64)],
        ),
    );
    group.bench_function("token_transfer_call", |b| {
        b.iter_batched(
            || MapHost::from_entries([(balance, U256::from(100u64))]),
            |mut host| {
                let params = ExecParams::new(&deployed, &transfer, &block).with_registry(&registry);
                execute(&params, &mut host)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    let code = contracts::token();
    group.bench_function("psag_build_token", |b| {
        b.iter(|| PSag::build(black_box(&code)))
    });

    let registry = CodeRegistry::builder()
        .deploy(Address::from_u64(99), contracts::token())
        .build();
    let analyzer = Analyzer::new(registry);
    let tx = dmvcc_vm::Transaction::call(TxEnv::call(
        Address::from_u64(1),
        Address::from_u64(99),
        calldata(
            contracts::token_fn::MINT,
            &[Address::from_u64(2).to_u256(), U256::from(5u64)],
        ),
    ));
    let snapshot = Snapshot::empty();
    group.bench_function("csag_token_mint", |b| {
        b.iter(|| analyzer.csag(black_box(&tx), &snapshot, &BlockEnv::default()))
    });
    // No code runs and no template binds: this is the cost of the record.
    let transfer =
        dmvcc_vm::Transaction::transfer(Address::from_u64(1), Address::from_u64(2), U256::ONE);
    group.bench_function("csag_ether_transfer", |b| {
        b.iter(|| analyzer.csag(black_box(&transfer), &snapshot, &BlockEnv::default()))
    });
    group.finish();
}

fn bench_access_sequence(c: &mut Criterion) {
    let mut group = c.benchmark_group("access_sequence");
    let key = StateKey::storage(Address::from_u64(1), U256::ZERO);
    let snapshot = Snapshot::empty();
    group.bench_function("predict_write_read_100", |b| {
        b.iter_batched(
            AccessSequence::new,
            |mut seq| {
                for i in 0..100 {
                    seq.predict(
                        i,
                        if i % 2 == 0 {
                            AccessOp::Write
                        } else {
                            AccessOp::Read
                        },
                    );
                }
                for i in (0..100).step_by(2) {
                    seq.version_write(i, U256::from(i as u64), false);
                }
                seq.resolve_read(99, || snapshot.get(&key))
            },
            BatchSize::SmallInput,
        )
    });
    // A hot counter's shape: 1 000 predicted adds published in block
    // order, then the trailing reader they block. Each publication's walk
    // for woken and stale readers is what this measures — to the next
    // pending add, or (a walk to the next full barrier) past every pending
    // add still above it, which is quadratic in the chain.
    group.bench_function("add_chain_1k", |b| {
        b.iter_batched(
            || {
                let mut seq = AccessSequence::new();
                for tx in 0..1_000 {
                    seq.predict(tx, AccessOp::Add);
                }
                seq.predict(1_000, AccessOp::Read);
                seq
            },
            |mut seq| {
                for tx in 0..1_000 {
                    black_box(seq.version_write(tx, U256::ONE, true));
                }
                seq.resolve_read(1_000, || snapshot.get(&key))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedulers");
    group.sample_size(10);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 200,
        token_contracts: 10,
        amm_contracts: 5,
        nft_contracts: 2,
        counter_contracts: 1,
        ballot_contracts: 1,
        fig1_contracts: 1,
        ..WorkloadConfig::ethereum_mix(5)
    });
    let analyzer = Analyzer::new(generator.registry().clone());
    let snapshot = Snapshot::from_entries(generator.genesis_entries());
    let env = BlockEnv::default();
    let txs = generator.block(200);
    let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
    let csags = refine_csags(&analyzer, &txs, &snapshot, &env, 1);

    group.bench_function("serial_oracle_200tx", |b| {
        b.iter(|| execute_block_serial(black_box(&txs), &snapshot, &analyzer, &env))
    });
    group.bench_function("dmvcc_schedule_200tx_8t", |b| {
        b.iter(|| simulate_dmvcc(black_box(&trace), &csags, 8))
    });
    group.bench_function("dag_schedule_200tx_8t", |b| {
        b.iter(|| simulate_dag(black_box(&trace), 8))
    });
    group.bench_function("occ_schedule_200tx_8t", |b| {
        b.iter(|| simulate_occ(black_box(&trace), 8))
    });

    // The consuming end of the C-SAGs at the e2e benchmark's scale: the
    // public walk over every record of a refined 10 000-transaction block.
    let mut generator = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(7));
    let analyzer = Analyzer::new(generator.registry().clone());
    let snapshot = Snapshot::from_entries(generator.genesis_entries());
    let csags = refine_csags(&analyzer, &generator.block(10_000), &snapshot, &env, 2);
    group.bench_function("rank_10k", |b| {
        b.iter(|| BlockDag::build(black_box(&csags)))
    });
    group.finish();
}

fn bench_parallel_executor(c: &mut Criterion) {
    use dmvcc_core::{ExecutorKind, ParallelConfig, ParallelExecutor};
    let mut group = c.benchmark_group("parallel_executor");
    group.sample_size(10);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 100,
        token_contracts: 6,
        amm_contracts: 3,
        nft_contracts: 2,
        counter_contracts: 1,
        ballot_contracts: 1,
        fig1_contracts: 1,
        router_contracts: 2,
        ..WorkloadConfig::ethereum_mix(9)
    });
    let analyzer = Analyzer::new(generator.registry().clone());
    let snapshot = Snapshot::from_entries(generator.genesis_entries());
    let env = BlockEnv::default();
    let txs = generator.block(100);
    let executor = ParallelExecutor::new(
        analyzer,
        ParallelConfig {
            threads: 4,
            ..ParallelConfig::default()
        },
    );
    group.bench_function("threaded_block_100tx_4t", |b| {
        b.iter(|| executor.execute_block(black_box(&txs), &snapshot, &env))
    });
    group.finish();

    // The two schedulers over the same store, with nothing for either to
    // schedule around: 4 000 funded Ether transfers between distinct
    // accounts, C-SAGs precomputed, one worker. Time ÷ 4 000 is an engine's
    // whole per-transaction overhead — binding, dispatch, one read, two
    // published writes, the flush.
    let account = |i: u64| Address::from_u64(i + 1);
    let funded = (0..4_000).map(|i| (StateKey::balance(account(2 * i)), U256::from(9u64)));
    let snapshot = Snapshot::from_entries(funded);
    let txs: Vec<_> = (0..4_000)
        .map(|i| dmvcc_vm::Transaction::transfer(account(2 * i), account(2 * i + 1), U256::ONE))
        .collect();
    let analyzer = Analyzer::new(CodeRegistry::default());
    let csags = refine_csags(&analyzer, &txs, &snapshot, &env, 1);
    let config = ParallelConfig {
        threads: 1,
        ..ParallelConfig::default()
    };
    let mut group = c.benchmark_group("executors");
    group.sample_size(20);
    for (kind, name) in [
        (ExecutorKind::Sharded, "sharded_1t_ether_4k"),
        (ExecutorKind::Stm, "stm_1t_ether_4k"),
    ] {
        let engine = kind.build(analyzer.clone(), config, None);
        group.bench_function(name, |b| {
            b.iter(|| engine.execute_block_with_csags(black_box(&txs), &snapshot, &env, &csags))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_mpt,
    bench_genesis,
    bench_commit_and_seal,
    bench_state,
    bench_vm,
    bench_analysis,
    bench_access_sequence,
    bench_schedulers,
    bench_parallel_executor
);
criterion_main!(benches);
