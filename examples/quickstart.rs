//! Quickstart: deploy a token, build a block of transactions, execute it
//! serially and with DMVCC, and verify both produce the same state root.
//!
//! Run with: `cargo run --release -p dmvcc-examples --bin quickstart`

use dmvcc_analysis::Analyzer;
use dmvcc_core::{execute_block_serial, refine_csags, ParallelConfig, ParallelExecutor};
use dmvcc_primitives::{Address, U256};
use dmvcc_sim::simulate_dmvcc;
use dmvcc_state::StateDb;
use dmvcc_vm::{calldata, contracts, BlockEnv, CodeRegistry, Transaction, TxEnv};

fn main() {
    // 1. Deploy an ERC20-style token.
    let token = Address::from_u64(1000);
    let registry = CodeRegistry::builder()
        .deploy(token, contracts::token())
        .build();
    let analyzer = Analyzer::new(registry);

    // 2. Build a block: a mint followed by a payment chain and a batch of
    //    independent airdrops.
    let user = |i: u64| Address::from_u64(i);
    let mint = |to: Address, amount: u64| {
        Transaction::call(TxEnv::call(
            user(999),
            token,
            calldata(
                contracts::token_fn::MINT,
                &[to.to_u256(), U256::from(amount)],
            ),
        ))
    };
    let transfer = |from: Address, to: Address, amount: u64| {
        Transaction::call(TxEnv::call(
            from,
            token,
            calldata(
                contracts::token_fn::TRANSFER,
                &[to.to_u256(), U256::from(amount)],
            ),
        ))
    };
    let mut block = vec![
        mint(user(1), 1_000),
        transfer(user(1), user(2), 300),
        transfer(user(2), user(3), 100),
    ];
    for i in 10..30 {
        block.push(mint(user(i), 50)); // independent airdrops
    }

    // 3. Serial reference execution.
    let mut serial_db = StateDb::new();
    let snapshot = serial_db.latest().clone();
    let env = BlockEnv::new(1, 1_700_000_000);
    let trace = execute_block_serial(&block, &snapshot, &analyzer, &env);
    let serial_root = serial_db.commit(&trace.final_writes);
    println!("serial execution: {} gas total", trace.total_gas);

    // 4. DMVCC in virtual time: the paper's speedup metric.
    let csags = refine_csags(&analyzer, &block, &snapshot, &env, 1);
    for threads in [1, 2, 4, 8] {
        let report = simulate_dmvcc(&trace, &csags, threads);
        println!(
            "DMVCC on {threads} thread(s): makespan {} gas, speedup {:.2}x, {} aborts",
            report.makespan,
            report.speedup(),
            report.aborts
        );
    }

    // 5. DMVCC for real: multi-threaded execution, committed to a second
    //    StateDB — the Merkle roots must match (deterministic
    //    serializability, the paper's Theorem 1 / RQ1).
    let executor = ParallelExecutor::new(analyzer, ParallelConfig::default());
    let outcome = executor.execute_block(&block, &snapshot, &env);
    let mut parallel_db = StateDb::new();
    let parallel_root = parallel_db.commit(&outcome.final_writes);
    println!("serial root:   {serial_root}");
    println!("parallel root: {parallel_root}");
    assert_eq!(serial_root, parallel_root, "roots must match");
    println!("roots match — deterministic serializability holds");
}
