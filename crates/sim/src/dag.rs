//! The DAG-based baseline scheduler.
//!
//! Models the approach of ParBlockchain (Amiri et al., ICDCS'19) as the
//! paper describes it (§V-B): conflicts between transactions — *including
//! write-write conflicts* — form a dependency DAG, and a transaction runs
//! only after every conflicting predecessor has fully finished (no early
//! visibility, no commutativity, no versioning). Read/write sets are taken
//! from the reference trace, i.e. the baseline is granted perfectly
//! accurate analysis ("does not tolerate incorrect analysis" — so we never
//! feed it inaccurate sets).

use std::collections::HashMap;

use dmvcc_state::StateKey;

use dmvcc_core::BlockTrace;

use crate::sim::{SimReport, ThreadTimeline};

/// Simulates the DAG-based scheduler on `threads` workers.
///
/// Over [`crate::contract_level`] of the trace it is the DAG deployment
/// whose pre-declared read/write sets come from static analysis that cannot
/// resolve mapping keys — the paper's §I criticism ("their coarse-grained
/// static analysis may miss opportunities for parallelization").
///
/// # Examples
///
/// See `dmvcc-bench`'s `fig7a` binary for end-to-end use.
pub fn simulate_dag(trace: &BlockTrace, threads: usize) -> SimReport {
    let mut timeline = ThreadTimeline::new(threads);
    // Per key: latest finish among scheduled writers / readers.
    let mut writer_finish: HashMap<StateKey, u64> = HashMap::new();
    let mut reader_finish: HashMap<StateKey, u64> = HashMap::new();
    let mut makespan = 0u64;

    for tx in &trace.txs {
        let mut ready = 0u64;
        // Reads wait for earlier writers (no early visibility: full finish).
        for read in &tx.reads {
            if let Some(&t) = writer_finish.get(&read.key) {
                ready = ready.max(t);
            }
        }
        // Writes wait for earlier writers (write-write conflicts!) and for
        // earlier readers (no versioning: a write would clobber the value
        // an in-flight reader expects).
        for key in tx.writes.keys().chain(tx.adds.keys()) {
            if let Some(&t) = writer_finish.get(key) {
                ready = ready.max(t);
            }
            if let Some(&t) = reader_finish.get(key) {
                ready = ready.max(t);
            }
        }
        let (_, finish) = timeline.schedule(ready, tx.gas_used);
        makespan = makespan.max(finish);
        for read in &tx.reads {
            let entry = reader_finish.entry(read.key).or_insert(0);
            *entry = (*entry).max(finish);
        }
        for key in tx.writes.keys().chain(tx.adds.keys()) {
            let entry = writer_finish.entry(*key).or_insert(0);
            *entry = (*entry).max(finish);
        }
    }

    SimReport {
        threads,
        makespan,
        serial_cost: trace.total_gas,
        aborts: 0,
        attempts: trace.txs.len() as u64,
        busy_gas: trace.total_gas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract_level;
    use dmvcc_analysis::Analyzer;
    use dmvcc_core::execute_block_serial;
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::Snapshot;
    use dmvcc_vm::{calldata, contracts, BlockEnv, CodeRegistry, Transaction, TxEnv};

    const TOKEN: u64 = 810;

    fn analyzer() -> Analyzer {
        Analyzer::new(
            CodeRegistry::builder()
                .deploy(Address::from_u64(TOKEN), contracts::token())
                .build(),
        )
    }

    fn mint(caller: u64, to: u64, amount: u64) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(TOKEN),
            calldata(
                contracts::token_fn::MINT,
                &[Address::from_u64(to).to_u256(), U256::from(amount)],
            ),
        ))
    }

    fn trace(txs: &[Transaction]) -> BlockTrace {
        execute_block_serial(txs, &Snapshot::empty(), &analyzer(), &BlockEnv::default())
    }

    #[test]
    fn write_write_conflicts_serialize() {
        // All mints add to the same totalSupply slot: under DAG they chain.
        let txs: Vec<_> = (0..6).map(|i| mint(900 + i, 10 + i, 5)).collect();
        let t = trace(&txs);
        let report = simulate_dag(&t, 8);
        assert_eq!(report.makespan, report.serial_cost, "ww conflicts chain");
        assert_eq!(report.aborts, 0);
    }

    #[test]
    fn disjoint_transfers_parallelize() {
        // Ether transfers between disjoint pairs share no keys.
        let snapshot = Snapshot::from_entries((0..8).map(|i| {
            (
                dmvcc_state::StateKey::balance(Address::from_u64(i)),
                U256::from(100u64),
            )
        }));
        let txs: Vec<_> = (0..4)
            .map(|i| {
                Transaction::transfer(Address::from_u64(i), Address::from_u64(100 + i), U256::ONE)
            })
            .collect();
        let t = execute_block_serial(&txs, &snapshot, &analyzer(), &BlockEnv::default());
        let report = simulate_dag(&t, 4);
        assert_eq!(report.makespan, t.txs[0].gas_used);
        assert!(report.speedup() > 3.9);
    }

    #[test]
    fn coarse_is_never_faster_than_precise() {
        let txs: Vec<_> = (0..8).map(|i| mint(900 + i, 10 + i, 5)).collect();
        let t = trace(&txs);
        for threads in [2, 4, 8] {
            let precise = simulate_dag(&t, threads);
            let coarse = simulate_dag(&contract_level(&t), threads);
            assert!(coarse.makespan >= precise.makespan);
        }
    }

    #[test]
    fn coarse_serializes_same_contract_traffic() {
        // Mints to distinct accounts share only totalSupply at key level,
        // but the whole token contract at coarse level — both serialize
        // here (totalSupply ww), so craft distinct-key traffic instead:
        // approve() writes only the caller's own allowance slot.
        let txs: Vec<_> = (0..4)
            .map(|i| {
                Transaction::call(TxEnv::call(
                    Address::from_u64(900 + i),
                    Address::from_u64(TOKEN),
                    calldata(
                        contracts::token_fn::APPROVE,
                        &[Address::from_u64(5).to_u256(), U256::from(1u64)],
                    ),
                ))
            })
            .collect();
        let t = trace(&txs);
        let precise = simulate_dag(&t, 4);
        let coarse = simulate_dag(&contract_level(&t), 4);
        // Precise: disjoint allowance slots → parallel.
        assert_eq!(precise.makespan, t.txs[0].gas_used);
        // Coarse: same contract → serial chain.
        assert_eq!(coarse.makespan, t.total_gas);
    }

    #[test]
    fn one_thread_is_serial() {
        let txs: Vec<_> = (0..4).map(|i| mint(900 + i, 10 + i, 5)).collect();
        let t = trace(&txs);
        let report = simulate_dag(&t, 1);
        assert_eq!(report.makespan, report.serial_cost);
    }
}
