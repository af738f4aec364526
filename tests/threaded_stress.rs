//! Stress tests for the threaded engines: consecutive workload blocks,
//! both contention profiles, pool-style stale C-SAGs, and DST-driven
//! injected-misprediction variants — every engine's root chain must match
//! serial execution block for block.

use std::sync::Arc;

use dmvcc_analysis::{AnalysisConfig, Analyzer};
use dmvcc_chain::block_env;
use dmvcc_core::{
    execute_block_serial, refine_csags, ExecutorKind, ParallelConfig, ParallelExecutor,
};
use dmvcc_dst::{FaultPlan, SchedConfig, VirtualScheduler};
use dmvcc_state::{Snapshot, StateDb};
use dmvcc_vm::BlockEnv;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

fn small(base: WorkloadConfig) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 120,
        token_contracts: 6,
        amm_contracts: 3,
        nft_contracts: 2,
        counter_contracts: 1,
        ballot_contracts: 1,
        fig1_contracts: 1,
        auction_contracts: 1,
        crowdsale_contracts: 1,
        batch_pay_contracts: 1,
        router_contracts: 2,
        ..base
    }
}

/// Runs `blocks` consecutive workload blocks on every engine, with `hide`
/// of the state keys invisible to the analyzer; each engine's MPT root
/// chain must match the serial one block for block.
fn run_chain(
    workload: WorkloadConfig,
    blocks: usize,
    block_size: usize,
    hide: f64,
    threads: usize,
) {
    for kind in ExecutorKind::ALL {
        let mut generator = WorkloadGenerator::new(workload.clone());
        let analyzer = Analyzer::with_config(
            generator.registry().clone(),
            AnalysisConfig {
                hide_fraction: hide,
                seed: 3,
                ..Default::default()
            },
        );
        let executor = kind.build(
            analyzer.clone(),
            ParallelConfig {
                threads,
                ..ParallelConfig::default()
            },
            None,
        );
        let mut serial_db = StateDb::with_genesis(generator.genesis_entries());
        let mut parallel_db = serial_db.clone();
        for height in 1..=blocks as u64 {
            let txs = generator.block(block_size);
            let env = block_env(height);
            let snapshot = serial_db.latest().clone();
            let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
            let outcome = executor.execute_block(&txs, &snapshot, &env);
            let serial_root = serial_db.commit(&trace.final_writes);
            let parallel_root = parallel_db.commit(&outcome.final_writes);
            assert_eq!(
                serial_root,
                parallel_root,
                "{} root mismatch at block {height} (hide={hide})",
                kind.label()
            );
            if kind == ExecutorKind::Stm {
                // Convergence bound: each transaction runs at most twice.
                assert!(
                    outcome.stats.attempts <= 2 * txs.len() as u64,
                    "stm executed more than twice per transaction"
                );
            }
        }
    }
}

/// One high-contention block whose C-SAGs the fault plan perturbed
/// (dropped and phantom keys), on eight oversubscribed workers of every
/// engine under the stormy virtual scheduler (preemption bursts, delayed
/// publishes, injected abort storms, forced release gates): the serial
/// oracle must be matched key for key and status for status. With `all_unanalyzable` every transaction is
/// lint-flagged, so the hybrid engine degenerates to a fully optimistic
/// run (all predictions stripped).
fn check_block_under_storm(seed: u64, fault_seed: u64, all_unanalyzable: bool) {
    let mut generator = WorkloadGenerator::new(small(WorkloadConfig::high_contention(seed)));
    let analyzer = Analyzer::with_config(
        generator.registry().clone(),
        AnalysisConfig {
            hide_fraction: 0.15,
            seed,
            ..Default::default()
        },
    );
    let genesis = Snapshot::from_entries(generator.genesis_entries());
    let env = BlockEnv::new(1, 1_700_000_000);
    let mut txs = generator.block(120);
    if all_unanalyzable {
        txs = txs.into_iter().map(|tx| tx.unanalyzable()).collect();
    }
    let trace = execute_block_serial(&txs, &genesis, &analyzer, &env);
    let serial_statuses: Vec<_> = trace.txs.iter().map(|t| t.status.clone()).collect();
    let mut csags = refine_csags(&analyzer, &txs, &genesis, &env, 1);
    FaultPlan::standard(fault_seed).perturb_csags(&mut csags);

    for kind in ExecutorKind::ALL {
        let config = ParallelConfig {
            threads: 8,
            ..ParallelConfig::default()
        };
        let hook = Arc::new(VirtualScheduler::new(SchedConfig::stormy(seed)));
        let engine = kind.build(analyzer.clone(), config, Some(hook));
        let outcome = engine.execute_block_with_csags(&txs, &genesis, &env, &csags);
        let label = format!("{} under storm", kind.label());
        assert_eq!(
            outcome.final_writes, trace.final_writes,
            "{label}: diverged from serial"
        );
        assert_eq!(
            outcome.statuses, serial_statuses,
            "{label}: statuses diverged"
        );
        if all_unanalyzable && kind == ExecutorKind::Hybrid {
            assert_eq!(
                outcome.stats.optimistic_txs,
                txs.len() as u64,
                "{label}: every transaction must have routed optimistic"
            );
        }
    }
}

#[test]
fn realistic_chain_three_blocks() {
    run_chain(small(WorkloadConfig::ethereum_mix(21)), 3, 120, 0.0, 4);
}

#[test]
fn hot_chain_three_blocks() {
    run_chain(small(WorkloadConfig::high_contention(22)), 3, 120, 0.0, 4);
}

#[test]
fn hot_chain_with_lossy_analysis() {
    // A quarter of the state keys invisible to the analyzer: the abort
    // machinery must still converge to serial roots on every block.
    run_chain(small(WorkloadConfig::high_contention(23)), 3, 100, 0.25, 4);
}

#[test]
fn hot_chain_eight_threads_matches_serial_roots() {
    // Oversubscribed high-contention stress: eight workers hammer the
    // sharded sequences, the exact wakes and the abort cascades far past
    // the physical core count; the MPT root chain must still match serial
    // block for block.
    run_chain(small(WorkloadConfig::high_contention(25)), 3, 150, 0.0, 8);
}

#[test]
fn hot_chain_eight_threads_lossy_analysis() {
    // Same, with a fifth of the keys hidden from the analyzer so dynamic
    // insertions and cascading aborts are exercised under oversubscription.
    run_chain(small(WorkloadConfig::high_contention(26)), 2, 120, 0.2, 8);
}

#[test]
fn stm_hot_chain_eight_threads_matches_serial_roots() {
    // A second oversubscribed high-contention chain; the optimistic
    // engine's share of it — no predictions, pure optimism,
    // validation-ordered commit — also checks its two-executions bound.
    run_chain(small(WorkloadConfig::high_contention(28)), 3, 150, 0.0, 8);
}

#[test]
fn hybrid_all_unanalyzable_eight_threads_under_storm() {
    check_block_under_storm(29, 0xD58, true);
}

#[test]
fn stale_csags_from_previous_snapshot() {
    // The pool scenario: C-SAGs built against the PREVIOUS block's
    // snapshot (stale predictions), executed against the current one.
    let mut generator = WorkloadGenerator::new(small(WorkloadConfig::high_contention(24)));
    let analyzer = Analyzer::new(generator.registry().clone());
    let executor = ParallelExecutor::new(
        analyzer.clone(),
        ParallelConfig {
            threads: 4,
            ..ParallelConfig::default()
        },
    );
    let mut db = StateDb::with_genesis(generator.genesis_entries());
    let stale_snapshot = db.latest().clone();

    // Advance one block so the live snapshot differs from the stale one.
    let env1 = BlockEnv::new(1, 1_700_000_000);
    let warmup = generator.block(100);
    let trace1 = execute_block_serial(&warmup, &stale_snapshot, &analyzer, &env1);
    db.commit(&trace1.final_writes);

    let env2 = BlockEnv::new(2, 1_700_000_012);
    let txs = generator.block(100);
    let live_snapshot = db.latest().clone();
    // Predictions against the stale snapshot…
    let stale_csags = refine_csags(&analyzer, &txs, &stale_snapshot, &env2, 1);
    // …executed against the live one.
    let trace = execute_block_serial(&txs, &live_snapshot, &analyzer, &env2);
    let outcome = executor.execute_block_with_csags(&txs, &live_snapshot, &env2, &stale_csags);
    assert_eq!(outcome.final_writes, trace.final_writes);
}

#[test]
fn injected_mispredictions_eight_threads_match_serial() {
    check_block_under_storm(27, 0xD57, false);
}
