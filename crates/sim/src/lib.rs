//! Every scheduler in gas time.
//!
//! The paper evaluates by *simulating* transaction scheduling over up to 32
//! threads (§V-B), with gas as the unit of virtual time, and charges a
//! testnet's blocks in that time (Fig. 8). This crate is that model, kept
//! apart from the engines that produce blocks:
//!
//! - **DMVCC** ([`simulate_dmvcc`]) — the paper's scheduler (Algorithms 1–4).
//! - **Serial** ([`serial_report`]) — the reference execution's own cost.
//! - **DAG-based** ([`simulate_dag`]) — ParBlockchain-style dependency
//!   graphs with write-write conflicts and transaction-level visibility.
//! - **OCC-based** ([`simulate_occ`]) — optimistic execution against the
//!   snapshot with eager in-order validation and re-execution.
//!
//! All four read the same reference [`BlockTrace`] of
//! [`dmvcc_core::execute_block_serial`], so comparisons share one cost
//! model; [`SchedulerKind::simulate`] picks one. A design ablation is a
//! transform of those inputs, not a switch: [`without_early_writes`],
//! [`without_commutativity`], [`without_versioning`] and [`contract_level`];
//! so is an imprecise analysis, [`hidden_keys`].
//! [`charge`] prices a [`run_testnet`](dmvcc_chain::run_testnet) chain
//! under any scheduler, thread count and mining interval, so one chain
//! serves every series of Fig. 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod dag;
mod occ;
mod sim;
mod simulator;

pub use ablation::{
    contract_level, hidden_keys, without_commutativity, without_early_writes, without_versioning,
};
pub use dag::simulate_dag;
pub use occ::simulate_occ;
pub use sim::{SimReport, ThreadTimeline};
pub use simulator::simulate_dmvcc;

use dmvcc_analysis::CSag;
use dmvcc_chain::ChainReport;
use dmvcc_core::BlockTrace;

/// Virtual-gas-to-wall-clock conversion of [`charge`]: at 4 M gas/s a
/// typical contract call costs 5–10 ms, the paper's observed
/// "sub-milliseconds to tens of milliseconds".
pub const GAS_PER_SECOND: u64 = 4_000_000;

/// One of the schedulers the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Ordinary serial execution (the baseline EVM).
    Serial,
    /// DAG-based parallel execution.
    Dag,
    /// OCC-based parallel execution.
    Occ,
    /// DMVCC.
    Dmvcc,
}

impl SchedulerKind {
    /// All four schedulers, in the order the paper plots them.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Serial,
        SchedulerKind::Dag,
        SchedulerKind::Occ,
        SchedulerKind::Dmvcc,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Serial => "Serial",
            SchedulerKind::Dag => "DAG",
            SchedulerKind::Occ => "OCC",
            SchedulerKind::Dmvcc => "DMVCC",
        }
    }

    /// This scheduler's virtual-time report for one block on `threads`
    /// workers. Only DMVCC reads `csags`.
    pub fn simulate(&self, trace: &BlockTrace, csags: &[CSag], threads: usize) -> SimReport {
        match self {
            SchedulerKind::Serial => serial_report(trace),
            SchedulerKind::Dag => simulate_dag(trace, threads),
            SchedulerKind::Occ => simulate_occ(trace, threads),
            SchedulerKind::Dmvcc => simulate_dmvcc(trace, csags, threads),
        }
    }
}

/// The serial baseline as a report (speedup 1.0 by definition).
pub fn serial_report(trace: &BlockTrace) -> SimReport {
    SimReport {
        threads: 1,
        makespan: trace.total_gas,
        serial_cost: trace.total_gas,
        aborts: 0,
        attempts: trace.txs.len() as u64,
        busy_gas: trace.total_gas,
    }
}

/// What a testnet chain costs under one scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Charge {
    /// Seconds the chain takes to mine: per block, the longer of the mining
    /// interval and the block's execution.
    pub total_seconds: f64,
    /// Seconds spent executing (the scheduler's share of each cycle).
    pub execution_seconds: f64,
    /// Throughput in transactions per second.
    pub tps: f64,
    /// Scheduler aborts over all blocks.
    pub aborts: u64,
}

/// Charges `report`'s chain to `scheduler` on `threads` workers with one
/// block mined every `interval_secs`: a block's cycle is
/// `max(interval, makespan / GAS_PER_SECOND)`, where the makespan is the
/// scheduler's virtual time over the oracle's trace of that block and the
/// C-SAGs it ran with. The chain itself does not depend on the scheduler.
pub fn charge(
    report: &ChainReport,
    scheduler: SchedulerKind,
    threads: usize,
    interval_secs: f64,
) -> Charge {
    let mut charged = Charge {
        total_seconds: 0.0,
        execution_seconds: 0.0,
        tps: 0.0,
        aborts: 0,
    };
    for (trace, csags) in report.traces.iter().zip(&report.csags) {
        let block = scheduler.simulate(trace, csags, threads);
        let seconds = block.makespan as f64 / GAS_PER_SECOND as f64;
        charged.aborts += block.aborts;
        charged.execution_seconds += seconds;
        charged.total_seconds += interval_secs.max(seconds);
    }
    charged.tps = report.committed_txs as f64 / charged.total_seconds.max(f64::EPSILON);
    charged
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_analysis::Analyzer;
    use dmvcc_chain::{run_testnet, BackendKind, ChainConfig, ExecutorKind, TestnetConfig};
    use dmvcc_core::execute_block_serial;
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::{Snapshot, StateKey};
    use dmvcc_vm::{CodeRegistry, Transaction};
    use dmvcc_workload::WorkloadConfig;

    #[test]
    fn serial_report_is_identity() {
        let analyzer = Analyzer::new(CodeRegistry::default());
        let a = Address::from_u64(1);
        let snapshot = Snapshot::from_entries([(StateKey::balance(a), U256::from(10u64))]);
        let txs = vec![Transaction::transfer(a, Address::from_u64(2), U256::ONE)];
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &Default::default());
        let report = serial_report(&trace);
        assert_eq!(report.makespan, trace.total_gas);
        assert!((report.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scheduler_labels() {
        assert_eq!(SchedulerKind::Dmvcc.label(), "DMVCC");
        assert_eq!(SchedulerKind::ALL.len(), 4);
    }

    /// Three 40-tx blocks over few enough accounts and contracts to set up
    /// in milliseconds.
    fn tiny_chain() -> ChainReport {
        let report = run_testnet(&TestnetConfig {
            chain: ChainConfig {
                block_size: 40,
                blocks: 3,
                threads: 4,
                workload: WorkloadConfig {
                    accounts: 100,
                    token_contracts: 6,
                    amm_contracts: 3,
                    nft_contracts: 2,
                    counter_contracts: 1,
                    ballot_contracts: 1,
                    fig1_contracts: 1,
                    ..WorkloadConfig::ethereum_mix(11)
                },
                executor: ExecutorKind::Sharded,
                backend: BackendKind::Mem,
            },
            pool_miss_rate: 0.0,
            rebuild_missing_sags: true,
        });
        assert!(report.roots_consistent());
        report
    }

    #[test]
    fn dmvcc_not_slower_than_serial() {
        let report = tiny_chain();
        let serial = charge(&report, SchedulerKind::Serial, 4, 0.5);
        let dmvcc = charge(&report, SchedulerKind::Dmvcc, 4, 0.5);
        assert!(dmvcc.execution_seconds <= serial.execution_seconds + 1e-9);
        assert!(dmvcc.tps >= serial.tps - 1e-9);
    }

    #[test]
    fn mining_floor_bounds_cycle_time() {
        let charged = charge(&tiny_chain(), SchedulerKind::Dmvcc, 4, 10.0);
        // Tiny blocks execute far faster than 10 s: mining dominates.
        assert!((charged.total_seconds - 30.0).abs() < 1e-6);
    }
}
