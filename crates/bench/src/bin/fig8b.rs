//! Fig. 8(b): blockchain throughput speedup under high contention.
//!
//! Paper reference: DAG/OCC only finish ~60 % of what DMVCC completes per
//! mining cycle; DMVCC executes 10 000 transactions within a 12 s cycle on
//! 8 threads.

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

fn main() {
    let blocks = env_usize("DMVCC_BLOCKS", 2);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 5_000);
    let make = |scheduler, threads| {
        let bound = TestnetConfig::execution_bound(scheduler, threads, 42);
        TestnetConfig {
            chain: ChainConfig {
                blocks,
                block_size,
                workload: WorkloadConfig::high_contention(42),
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
    println!(
        "\n== fig8b — throughput speedup, high contention ({blocks} x {block_size}-tx blocks) =="
    );
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
    println!(
        "paper: DAG/OCC complete ~60% of DMVCC's transactions per cycle under high contention"
    );
    write_json("fig8b", &points);
}
