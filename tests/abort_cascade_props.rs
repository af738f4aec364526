//! Abort-cascade property test (paper Algorithm 4): under increasingly
//! lossy C-SAG predictions the cascading re-executions must still converge
//! to the serial state, and the virtual-time simulator — fed predictions
//! without commutativity and a trace with early writes, the setting where
//! every ω̄ becomes a chained read-modify-write — must account for every
//! attempt and schedule exact predictions without an abort.
//!
//! The simulator's abort count is *not* monotone in the hidden fraction:
//! at 64 cases the generator finds inputs where a higher rung aborts less
//! than a lower one. So the abort count is only pinned where it is exact
//! (zero at the first rung).

use proptest::prelude::*;

use dmvcc_analysis::Analyzer;
use dmvcc_core::{execute_block_serial, refine_csags, ParallelConfig, ParallelExecutor};
use dmvcc_sim::{hidden_keys, simulate_dmvcc, without_commutativity};
use dmvcc_state::Snapshot;
use dmvcc_vm::BlockEnv;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

fn small(base: WorkloadConfig) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 80,
        token_contracts: 4,
        amm_contracts: 2,
        nft_contracts: 2,
        counter_contracts: 1,
        ballot_contracts: 1,
        fig1_contracts: 1,
        auction_contracts: 1,
        crowdsale_contracts: 1,
        batch_pay_contracts: 1,
        router_contracts: 1,
        ..base
    }
}

proptest! {
    #[test]
    fn cascades_converge_under_misprediction(
        seed in 0u64..10_000,
        size in 20usize..50,
    ) {
        let ladder = [0.0, 0.3, 0.6];
        for (rung, &hide) in ladder.iter().enumerate() {
            let mut generator =
                WorkloadGenerator::new(small(WorkloadConfig::high_contention(seed)));
            let analyzer = Analyzer::new(generator.registry().clone());
            let genesis = Snapshot::from_entries(generator.genesis_entries());
            let env = BlockEnv::new(1, 1_700_000_000);
            let txs = generator.block(size);
            let trace = execute_block_serial(&txs, &genesis, &analyzer, &env);
            let csags = hidden_keys(&refine_csags(&analyzer, &txs, &genesis, &env, 1), hide, 77);

            // Cascading re-executions reach the serial state (Theorem 1),
            // no matter how lossy the predictions are.
            let executor = ParallelExecutor::new(
                analyzer.clone(),
                ParallelConfig {
                    threads: 4,
                    ..ParallelConfig::default()
                },
            );
            let outcome = executor.execute_block_with_csags(&txs, &genesis, &env, &csags);
            prop_assert_eq!(
                &outcome.final_writes,
                &trace.final_writes,
                "threaded execution diverged from serial at hide={}",
                hide
            );

            // The virtual-time scheduler with commutativity off: ω̄ chains
            // like ordinary writes, so mispredictions surface as aborts.
            let report = simulate_dmvcc(&trace, &without_commutativity(&csags), 4);
            prop_assert_eq!(
                report.attempts,
                txs.len() as u64 + report.aborts,
                "attempt accounting broke at hide={}",
                hide
            );
            if rung == 0 {
                prop_assert_eq!(
                    report.aborts, 0,
                    "exact predictions must schedule without any abort"
                );
            }
        }
    }
}
