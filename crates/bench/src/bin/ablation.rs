//! Ablation study (ours; motivated by the paper's §IV-C/§IV-D design
//! discussion): the contribution of each DMVCC feature — early-write
//! visibility, commutative writes, write versioning — plus the
//! contract-level DAG variant modelling coarse static analysis.

#![forbid(unsafe_code)]

use dmvcc_bench::{ablation_series, env_usize, prepare_blocks, print_speedup_table, write_json};
use dmvcc_workload::WorkloadConfig;

fn main() {
    let blocks = env_usize("DMVCC_BLOCKS", 2);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 1_000);
    for (name, workload) in [
        ("realistic", WorkloadConfig::ethereum_mix(42)),
        ("high-contention", WorkloadConfig::high_contention(42)),
    ] {
        let prepared = prepare_blocks(&workload, blocks, block_size);
        let points = ablation_series(&prepared, &[8, 32]);
        print_speedup_table(&format!("Ablation — {name} workload"), &points);
        write_json(&format!("ablation_{name}"), &points);
    }
}
