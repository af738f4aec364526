//! Token airdrop scenario: one distributor credits thousands of accounts
//! of a single popular token — the workload class the paper highlights
//! where *commutative writes* and *write versioning* shine: every credit
//! updates the shared `totalSupply`, so DAG-style scheduling serializes
//! the entire airdrop while DMVCC executes it embarrassingly parallel.
//!
//! Run with: `cargo run --release -p dmvcc-examples --bin token_airdrop`

use dmvcc_analysis::Analyzer;
use dmvcc_core::{execute_block_serial, refine_csags};
use dmvcc_primitives::{Address, U256};
use dmvcc_sim::{simulate_dag, simulate_dmvcc, simulate_occ};
use dmvcc_state::Snapshot;
use dmvcc_vm::{calldata, contracts, BlockEnv, CodeRegistry, Transaction, TxEnv};

fn main() {
    let token = Address::from_u64(5000);
    let registry = CodeRegistry::builder()
        .deploy(token, contracts::token())
        .build();
    let analyzer = Analyzer::new(registry);

    // A block that is one big airdrop: 500 mints to distinct accounts.
    let block: Vec<Transaction> = (0..500)
        .map(|i| {
            Transaction::call(TxEnv::call(
                Address::from_u64(9_999),
                token,
                calldata(
                    contracts::token_fn::MINT,
                    &[Address::from_u64(10 + i).to_u256(), U256::from(25u64)],
                ),
            ))
        })
        .collect();

    let snapshot = Snapshot::empty();
    let env = BlockEnv::new(1, 1_700_000_000);
    let trace = execute_block_serial(&block, &snapshot, &analyzer, &env);
    let csags = refine_csags(&analyzer, &block, &snapshot, &env, 1);

    println!(
        "airdrop block: {} mints, {} gas serial\n",
        block.len(),
        trace.total_gas
    );
    println!("{:>8}{:>12}{:>12}{:>12}", "threads", "DAG", "OCC", "DMVCC");
    for threads in [1, 2, 4, 8, 16, 32] {
        let dag = simulate_dag(&trace, threads);
        let occ = simulate_occ(&trace, threads);
        let dmvcc = simulate_dmvcc(&trace, &csags, threads);
        println!(
            "{threads:>8}{:>11.2}x{:>11.2}x{:>11.2}x",
            dag.speedup(),
            occ.speedup(),
            dmvcc.speedup()
        );
    }
    println!(
        "\nEvery mint bumps the shared totalSupply slot: write-write conflicts\n\
         serialize the DAG baseline and retry-storm OCC, while DMVCC's\n\
         commutative writes make the whole airdrop conflict-free."
    );
}
