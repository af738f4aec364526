//! Fig. 7(b): speedup under the skewed high-contention workload
//! (1 % hot contracts, 50 % hot-access probability).
//!
//! Paper reference @32 threads: DMVCC 13.73x, OCC 3.48x, DAG 3.05x.

#![forbid(unsafe_code)]

use dmvcc_bench::{
    env_usize, prepare_blocks, print_speedup_table, speedup_series, write_json, THREAD_SWEEP,
};
use dmvcc_workload::WorkloadConfig;

fn main() {
    let blocks = env_usize("DMVCC_BLOCKS", 4);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 1_000);
    let prepared = prepare_blocks(&WorkloadConfig::high_contention(42), blocks, block_size);
    let points = speedup_series(&prepared, &THREAD_SWEEP);
    print_speedup_table(
        &format!(
            "Fig. 7(b) — speedup, high-contention workload ({blocks} x {block_size}-tx blocks)"
        ),
        &points,
    );
    println!("paper @32 threads: DMVCC 13.73x | OCC 3.48x | DAG 3.05x");
    write_json("fig7b", &points);
}
