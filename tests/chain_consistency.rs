//! Chain-level integration: throughput ordering is sane when one chain is
//! charged to different schedulers; the threaded engine's blocks equal the
//! serial oracle's across consecutive blocks.

use dmvcc_chain::{run_testnet, ChainConfig, TestnetConfig};
use dmvcc_sim::{charge, SchedulerKind};
use dmvcc_workload::WorkloadConfig;

fn config(seed: u64) -> TestnetConfig {
    TestnetConfig {
        chain: ChainConfig {
            block_size: 60,
            blocks: 4,
            threads: 4,
            workload: WorkloadConfig {
                accounts: 80,
                token_contracts: 5,
                amm_contracts: 3,
                nft_contracts: 2,
                counter_contracts: 1,
                ballot_contracts: 1,
                fig1_contracts: 1,
                ..WorkloadConfig::high_contention(seed)
            },
            executor: dmvcc_chain::ExecutorKind::Sharded,
            backend: dmvcc_chain::BackendKind::Mem,
        },
        pool_miss_rate: 0.0,
        rebuild_missing_sags: true,
    }
}

#[test]
fn dmvcc_throughput_at_least_serial() {
    let report = run_testnet(&config(5));
    assert!(report.roots_consistent());
    let serial = charge(&report, SchedulerKind::Serial, 4, 0.2);
    let dmvcc = charge(&report, SchedulerKind::Dmvcc, 4, 0.2);
    assert!(dmvcc.tps >= serial.tps - 1e-9);
    assert!(dmvcc.execution_seconds <= serial.execution_seconds + 1e-9);
}

#[test]
fn chain_state_evolves_across_blocks() {
    let report = run_testnet(&config(9));
    // Roots must change block to block (the workload always writes).
    for pair in report.chain.windows(2) {
        assert_ne!(pair[0].header.state_root, pair[1].header.state_root);
    }
    assert_eq!(
        report.final_root,
        report.chain.last().unwrap().header.state_root
    );
}

#[test]
fn different_seeds_different_chains() {
    let a = run_testnet(&config(1));
    let b = run_testnet(&config(2));
    assert_ne!(a.final_root, b.final_root);
}
