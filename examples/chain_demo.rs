//! Micro-testnet demo: mines a short chain on the threaded DMVCC engine,
//! prints each sealed header, verifies the chain end to end and compares
//! throughput across schedulers — the RQ3 pipeline at example scale.
//!
//! Run with: `cargo run --release -p dmvcc-examples --bin chain_demo`

use dmvcc_chain::{run_testnet, verify_chain, ChainConfig, TestnetConfig};
use dmvcc_sim::{charge, SchedulerKind};
use dmvcc_workload::WorkloadConfig;

fn main() {
    let report = run_testnet(&TestnetConfig {
        chain: ChainConfig {
            block_size: 250,
            blocks: 5,
            threads: 8,
            workload: WorkloadConfig::high_contention(2024),
            executor: dmvcc_chain::ExecutorKind::Sharded,
            backend: dmvcc_chain::BackendKind::Mem,
        },
        pool_miss_rate: 0.1,
        rebuild_missing_sags: true,
    });
    println!("== mined chain (DMVCC, 8 threads, 10% pool desync) ==");
    for block in &report.chain {
        let header = &block.header;
        println!(
            "#{:<3} hash {}…  parent {}…  {} txs, {} gas",
            header.number,
            &header.hash().to_string()[..14],
            &header.parent_hash.to_string()[..14],
            block.txs.len(),
            header.gas_used,
        );
    }
    // The genesis header itself is not published, so its binding is
    // checked inside run_testnet; everything after block 1 re-verifies
    // here from the published chain alone.
    let (first, rest) = report.chain.split_first().expect("five blocks");
    assert_eq!(verify_chain(&first.header, rest), None);
    println!(
        "\npool SAG cache: {} hits / {} misses (missing SAGs rebuilt on the fly)",
        report.pool_stats.sag_hits, report.pool_stats.sag_misses
    );
    println!(
        "every header equals the serial oracle's: {}",
        report.roots_consistent()
    );

    println!("\n== throughput by scheduler (same chain, same workload) ==");
    for scheduler in SchedulerKind::ALL {
        let charged = charge(&report, scheduler, 8, 1.0);
        println!(
            "{:>8}: {:>7.0} TPS ({:.2}s execution, {} aborts)",
            scheduler.label(),
            charged.tps,
            charged.execution_seconds,
            charged.aborts
        );
    }
}
