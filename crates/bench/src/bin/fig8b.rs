//! Fig. 8(b): blockchain throughput speedup under high contention.
//!
//! Paper reference: DAG/OCC only finish ~60 % of what DMVCC completes per
//! mining cycle; DMVCC executes 10 000 transactions within a 12 s cycle on
//! 8 threads.

#![forbid(unsafe_code)]

use dmvcc_bench::testnet_figure;
use dmvcc_workload::WorkloadConfig;

fn main() {
    testnet_figure(
        "fig8b",
        WorkloadConfig::high_contention,
        |blocks, size| {
            format!("fig8b — throughput speedup, high contention ({blocks} x {size}-tx blocks)")
        },
        "paper: DAG/OCC complete ~60% of DMVCC's transactions per cycle under high contention",
    );
}
