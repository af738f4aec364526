//! Fig. 8(a): blockchain throughput speedup over the serial chain,
//! low-contention workload, execution-bound testnet (10 000-tx blocks,
//! 1 s mining — the paper's raised-gas-limit configuration).
//!
//! Paper reference @32 threads: ~19.79x for DMVCC, DAG and OCC similar.

#![forbid(unsafe_code)]

use dmvcc_bench::{env_usize, write_json, THREAD_SWEEP};
use dmvcc_chain::{run_testnet, ChainConfig, SchedulerKind, TestnetConfig};
use dmvcc_workload::WorkloadConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ThroughputPoint {
    scheduler: String,
    threads: usize,
    tps: f64,
    throughput_speedup: f64,
    aborts: u64,
}

fn run(workload: fn(u64) -> WorkloadConfig, name: &str, paper_note: &str) {
    let blocks = env_usize("DMVCC_BLOCKS", 2);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 5_000);
    let make = |scheduler, threads| {
        let bound = TestnetConfig::execution_bound(scheduler, threads, 42);
        TestnetConfig {
            chain: ChainConfig {
                blocks,
                block_size,
                workload: workload(42),
                ..bound.chain
            },
            ..bound
        }
    };
    let serial = run_testnet(&make(SchedulerKind::Serial, 1));
    assert!(
        serial.roots_consistent(),
        "a sealed header differs from the serial oracle's"
    );
    println!("\n== {name} ({blocks} x {block_size}-tx blocks, 1 s mining) ==");
    println!(
        "serial: {:.0} TPS ({:.1}s execution)",
        serial.tps, serial.execution_seconds
    );
    println!("{:>8}{:>16}{:>16}{:>16}", "threads", "DAG", "OCC", "DMVCC");
    let mut points = Vec::new();
    for threads in THREAD_SWEEP {
        print!("{threads:>8}");
        for scheduler in [SchedulerKind::Dag, SchedulerKind::Occ, SchedulerKind::Dmvcc] {
            let report = run_testnet(&make(scheduler, threads));
            assert!(
                report.roots_consistent(),
                "a sealed header differs from the serial oracle's"
            );
            assert_eq!(report.final_root, serial.final_root, "chain diverged");
            let speedup = report.tps / serial.tps;
            print!("{speedup:>14.2}x ");
            points.push(ThroughputPoint {
                scheduler: scheduler.label().to_string(),
                threads,
                tps: report.tps,
                throughput_speedup: speedup,
                aborts: report.aborts,
            });
        }
        println!();
    }
    println!("{paper_note}");
    write_json(name, &points);
}

fn main() {
    run(
        WorkloadConfig::ethereum_mix,
        "fig8a",
        "paper @32 threads: ~19.79x, all approaches similar (execution-bound)",
    );
}
