//! Baseline schedulers the paper compares DMVCC against (§V-B):
//!
//! - **Serial** — the reference execution itself
//!   ([`dmvcc_core::execute_block_serial`]); [`serial_report`] wraps its
//!   cost as a [`SimReport`].
//! - **DAG-based** ([`simulate_dag`]) — ParBlockchain-style dependency
//!   graphs with write-write conflicts and transaction-level visibility.
//! - **OCC-based** ([`simulate_occ`]) — optimistic execution against the
//!   snapshot with eager in-order validation and re-execution.
//!
//! All three consume the same reference [`dmvcc_core::BlockTrace`] the
//! DMVCC simulator uses, so comparisons share one cost model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dag;
mod occ;

pub use dag::{simulate_dag, simulate_dag_coarse};
pub use occ::simulate_occ;

use dmvcc_core::{BlockTrace, SimReport};

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

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_analysis::Analyzer;
    use dmvcc_core::execute_block_serial;
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::{Snapshot, StateKey};
    use dmvcc_vm::{CodeRegistry, Transaction};

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
}
