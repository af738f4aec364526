//! Contention sweep (ours): how the schedulers degrade as hot-access
//! probability rises from 0 to 90 % — locates the crossover region between
//! "everything parallelizes" and "conflict chains dominate" that separates
//! Fig. 7(a) from Fig. 7(b) in the paper.

#![forbid(unsafe_code)]

use dmvcc_bench::{env_usize, prepare_blocks, write_json};
use dmvcc_sim::{simulate_dag, simulate_dmvcc, simulate_occ, SimReport};
use dmvcc_workload::WorkloadConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct SweepPoint {
    hot_access_probability: f64,
    dag_speedup: f64,
    occ_speedup: f64,
    dmvcc_speedup: f64,
    dmvcc_utilization: f64,
    dag_utilization: f64,
}

fn main() {
    let blocks = env_usize("DMVCC_BLOCKS", 2);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 1_000);
    let threads = 32;
    let mut points = Vec::new();
    println!(
        "{:>6}{:>10}{:>10}{:>10}{:>14}{:>12}",
        "hot%", "DAG", "OCC", "DMVCC", "DMVCC util", "DAG util"
    );
    for step in 0..=9 {
        let probability = step as f64 * 0.1;
        let workload = WorkloadConfig {
            hot_contract_fraction: 0.01,
            hot_access_probability: probability,
            hot_accounts: 16,
            hot_account_probability: probability,
            ..WorkloadConfig::ethereum_mix(42)
        };
        let prepared = prepare_blocks(&workload, blocks, block_size);
        let mut dag = SimReport::zero(threads);
        let mut occ = SimReport::zero(threads);
        let mut dmvcc = SimReport::zero(threads);
        for block in &prepared {
            dag.accumulate(&simulate_dag(&block.trace, threads));
            occ.accumulate(&simulate_occ(&block.trace, threads));
            dmvcc.accumulate(&simulate_dmvcc(&block.trace, &block.csags, threads));
        }
        println!(
            "{:>5.0}%{:>9.2}x{:>9.2}x{:>9.2}x{:>13.0}%{:>11.0}%",
            probability * 100.0,
            dag.speedup(),
            occ.speedup(),
            dmvcc.speedup(),
            dmvcc.utilization() * 100.0,
            dag.utilization() * 100.0,
        );
        points.push(SweepPoint {
            hot_access_probability: probability,
            dag_speedup: dag.speedup(),
            occ_speedup: occ.speedup(),
            dmvcc_speedup: dmvcc.speedup(),
            dmvcc_utilization: dmvcc.utilization(),
            dag_utilization: dag.utilization(),
        });
    }
    write_json("sweep", &points);
}
