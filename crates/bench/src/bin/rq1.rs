//! RQ1: deterministic serializability in practice — the Merkle roots of
//! parallel execution must equal serial execution's on every block.
//!
//! The paper verified 121 210 blocks (22.5 M transactions); this binary
//! verifies `DMVCC_BLOCKS` blocks on BOTH execution paths:
//!
//! 1. the virtual-time DMVCC scheduler commits the reference write set by
//!    construction (checked against an independently-committed serial
//!    StateDB), and
//! 2. the *real multi-threaded executor* re-executes every block
//!    concurrently and its flushed write set is committed to a third
//!    StateDB — all three root chains must be identical.

#![forbid(unsafe_code)]

use dmvcc_analysis::Analyzer;
use dmvcc_bench::env_usize;
use dmvcc_chain::block_env;
use dmvcc_core::{execute_block_serial, ParallelConfig, ParallelExecutor};
use dmvcc_state::StateDb;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Rq1Report {
    blocks: usize,
    transactions: u64,
    matching_roots: usize,
    mismatching_roots: usize,
    parallel_aborts: u64,
}

fn main() {
    let blocks = env_usize("DMVCC_BLOCKS", 10);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 200);
    let mut report = Rq1Report {
        blocks,
        transactions: 0,
        matching_roots: 0,
        mismatching_roots: 0,
        parallel_aborts: 0,
    };

    for (name, workload) in [
        ("realistic", WorkloadConfig::ethereum_mix(7)),
        ("high-contention", WorkloadConfig::high_contention(7)),
    ] {
        let mut generator = WorkloadGenerator::new(workload);
        let analyzer = Analyzer::new(generator.registry().clone());
        let executor = ParallelExecutor::new(
            analyzer.clone(),
            ParallelConfig {
                threads: 4,
                ..ParallelConfig::default()
            },
        );
        let mut serial_db = StateDb::with_genesis(generator.genesis_entries());
        let mut parallel_db = serial_db.clone();

        for height in 1..=blocks as u64 {
            let txs = generator.block(block_size);
            let env = block_env(height);
            let snapshot = serial_db.latest().clone();
            let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
            let outcome = executor.execute_block(&txs, &snapshot, &env);
            let serial_root = serial_db.commit(&trace.final_writes);
            let parallel_root = parallel_db.commit(&outcome.final_writes);
            report.transactions += txs.len() as u64;
            report.parallel_aborts += outcome.aborts;
            if serial_root == parallel_root {
                report.matching_roots += 1;
            } else {
                report.mismatching_roots += 1;
                eprintln!("ROOT MISMATCH at {name} block {height}");
            }
        }
        println!(
            "{name}: {blocks} blocks x {block_size} txs verified, roots all equal: {}",
            report.mismatching_roots == 0
        );
    }

    println!(
        "\nRQ1: {} blocks, {} transactions, {} matching roots, {} mismatches ({} parallel re-executions)",
        report.matching_roots + report.mismatching_roots,
        report.transactions,
        report.matching_roots,
        report.mismatching_roots,
        report.parallel_aborts,
    );
    println!("paper: 121,210 blocks / 22,557,724 txs, all roots matched");
    dmvcc_bench::write_json("rq1", &report);
    assert_eq!(report.mismatching_roots, 0, "RQ1 failed");
}
