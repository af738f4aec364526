//! Quick shape sanity check (not a paper figure): speedups of all four
//! schedulers at a few thread counts on both workloads.

#![forbid(unsafe_code)]
use dmvcc_analysis::Analyzer;
use dmvcc_core::{execute_block_serial, refine_csags};
use dmvcc_sim::SchedulerKind;
use dmvcc_state::StateDb;
use dmvcc_vm::BlockEnv;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    for (name, workload) in [
        ("low-contention", WorkloadConfig::ethereum_mix(42)),
        ("high-contention", WorkloadConfig::high_contention(42)),
    ] {
        let mut generator = WorkloadGenerator::new(workload);
        let analyzer = Analyzer::new(generator.registry().clone());
        let db = StateDb::with_genesis(generator.genesis_entries());
        let snapshot = db.latest().clone();
        let env = BlockEnv::new(1, 1_700_000_000);
        let txs = generator.block(1000);
        let csags = refine_csags(&analyzer, &txs, &snapshot, &env, 1);
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        println!("== {name} ==");
        for threads in [1usize, 2, 4, 8, 16, 32] {
            print!("threads={threads:>2}");
            for s in [SchedulerKind::Dag, SchedulerKind::Occ, SchedulerKind::Dmvcc] {
                let r = s.simulate(&trace, &csags, threads);
                print!("  {}={:6.2}x (ab {})", s.label(), r.speedup(), r.aborts);
            }
            println!();
        }
    }
}
