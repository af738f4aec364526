//! Chain-level integration: every scheduler drives the micro testnet to
//! the same chain of state roots; throughput ordering is sane; the
//! threaded engine's blocks equal the serial oracle's across consecutive
//! blocks.

use dmvcc_chain::{run_testnet, ChainConfig, SchedulerKind, TestnetConfig};
use dmvcc_workload::WorkloadConfig;

fn config(scheduler: SchedulerKind, seed: u64) -> TestnetConfig {
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
        scheduler,
        mining_interval_secs: 0.2,
        pool_miss_rate: 0.0,
        rebuild_missing_sags: true,
    }
}

#[test]
fn all_schedulers_agree_on_every_block_root() {
    let reports: Vec<_> = SchedulerKind::ALL
        .iter()
        .map(|&s| run_testnet(&config(s, 3)))
        .collect();
    for report in &reports {
        assert!(report.roots_consistent(), "roots diverged for a scheduler");
        assert_eq!(report.blocks, 4);
    }
    for pair in reports.windows(2) {
        for (a, b) in pair[0].chain.iter().zip(pair[1].chain.iter()) {
            assert_eq!(
                a.header.state_root, b.header.state_root,
                "chain diverged at {}",
                a.header.number
            );
        }
    }
}

#[test]
fn dmvcc_throughput_at_least_serial() {
    let serial = run_testnet(&config(SchedulerKind::Serial, 5));
    let dmvcc = run_testnet(&config(SchedulerKind::Dmvcc, 5));
    assert!(dmvcc.tps >= serial.tps - 1e-9);
    assert!(dmvcc.execution_seconds <= serial.execution_seconds + 1e-9);
}

#[test]
fn chain_state_evolves_across_blocks() {
    let report = run_testnet(&config(SchedulerKind::Dmvcc, 9));
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
    let a = run_testnet(&config(SchedulerKind::Serial, 1));
    let b = run_testnet(&config(SchedulerKind::Serial, 2));
    assert_ne!(a.final_root, b.final_root);
}
