//! Fig. 7(a): speedup of all parallel execution approaches vs thread count
//! on the realistic (low-contention) Ethereum-mix workload.
//!
//! Paper reference @32 threads: DMVCC 21.35x, OCC 13.86x, DAG 11.04x.
//! Blocks of 1 000 transactions, repacked randomly, averaged across blocks.

#![forbid(unsafe_code)]

use dmvcc_bench::{
    env_usize, prepare_blocks, print_speedup_table, speedup_series, write_json, THREAD_SWEEP,
};
use dmvcc_workload::WorkloadConfig;

fn main() {
    let blocks = env_usize("DMVCC_BLOCKS", 4);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 1_000);
    let prepared = prepare_blocks(&WorkloadConfig::ethereum_mix(42), blocks, block_size);
    let points = speedup_series(&prepared, &THREAD_SWEEP);
    print_speedup_table(
        &format!("Fig. 7(a) — speedup, realistic workload ({blocks} x {block_size}-tx blocks)"),
        &points,
    );
    println!("paper @32 threads: DMVCC 21.35x | OCC 13.86x | DAG 11.04x");
    write_json("fig7a", &points);
}
