//! Fig. 8(a): blockchain throughput speedup over the serial chain,
//! low-contention workload, execution-bound testnet (10 000-tx blocks,
//! 1 s mining — the paper's raised-gas-limit configuration).
//!
//! Paper reference @32 threads: ~19.79x for DMVCC, DAG and OCC similar.

#![forbid(unsafe_code)]

use dmvcc_bench::testnet_figure;
use dmvcc_workload::WorkloadConfig;

fn main() {
    testnet_figure(
        "fig8a",
        WorkloadConfig::ethereum_mix,
        |blocks, size| format!("fig8a ({blocks} x {size}-tx blocks, 1 s mining)"),
        "paper @32 threads: ~19.79x, all approaches similar (execution-bound)",
    );
}
