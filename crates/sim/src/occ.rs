//! The OCC-based baseline scheduler.
//!
//! Models the optimistic strategy the paper compares against (§II-B, §V-B):
//! transactions execute in parallel against a snapshot "without reading
//! writes of other transactions"; afterwards, the ones that violate
//! deterministic serializability are "aborted and re-executed until there
//! is none to be aborted". [`simulate_occ`] is an *eager* validator
//! (Block-STM style): a stale transaction is re-executed as soon as the
//! invalidating writer finishes; under contention this degenerates into
//! retry chains, which is exactly the paper's criticism ("a large number of
//! transactions need to be re-executed when the contention is high").
//!
//! Commutativity is not understood: a commutative increment is an ordinary
//! read-modify-write here, so hot-account credits conflict.

use std::collections::HashMap;

use dmvcc_state::StateKey;

use dmvcc_core::BlockTrace;

use crate::sim::{SimReport, ThreadTimeline};

/// One read the validator must check: key, the writers it depends on, and
/// its gas offset inside the transaction.
struct OccRead {
    key: StateKey,
    gas_offset: u64,
}

/// Per-transaction OCC view: reads (including the read halves of
/// commutative adds) and written keys.
struct OccTx {
    reads: Vec<OccRead>,
    cost: u64,
}

/// Approximate extra gas burned by retries: mean cost times abort count
/// (retries re-run whole transactions).
fn aborts_cost(txs: &[OccTx], aborts: u64) -> u64 {
    if txs.is_empty() {
        return 0;
    }
    let mean = txs.iter().map(|t| t.cost).sum::<u64>() / txs.len() as u64;
    mean * aborts
}

fn occ_views(trace: &BlockTrace) -> (Vec<OccTx>, HashMap<StateKey, Vec<usize>>) {
    // writers[key] = transaction indices writing key, ascending.
    let mut writers: HashMap<StateKey, Vec<usize>> = HashMap::new();
    for tx in &trace.txs {
        for key in tx.writes.keys().chain(tx.adds.keys()) {
            writers.entry(*key).or_default().push(tx.index);
        }
    }
    let txs = trace
        .txs
        .iter()
        .map(|tx| {
            let mut reads: Vec<OccRead> = tx
                .reads
                .iter()
                .map(|r| OccRead {
                    key: r.key,
                    gas_offset: r.gas_offset,
                })
                .collect();
            // An add is a read-modify-write under OCC: it reads the key at
            // the instant it performs the update.
            for key in tx.adds.keys() {
                let offset = tx.write_offsets.get(key).copied().unwrap_or(tx.gas_used);
                reads.push(OccRead {
                    key: *key,
                    gas_offset: offset,
                });
            }
            OccTx {
                reads,
                cost: tx.gas_used,
            }
        })
        .collect();
    (txs, writers)
}

/// Simulates eager OCC (Block-STM style) on `threads` workers.
///
/// Every transaction starts optimistically as soon as a thread frees; a
/// transaction that read a key before a lower-indexed writer of that key
/// finished is stale and re-executes once that writer completes —
/// repeatedly, if further writers land after each retry.
pub fn simulate_occ(trace: &BlockTrace, threads: usize) -> SimReport {
    let n = trace.txs.len();
    let (txs, writers) = occ_views(trace);
    let mut timeline = ThreadTimeline::new(threads);

    // First optimistic wave, in block order.
    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    for (j, tx) in txs.iter().enumerate() {
        let (s, f) = timeline.schedule(0, tx.cost);
        start[j] = s;
        finish[j] = f;
    }

    let mut aborts = 0u64;
    let mut attempts = n as u64;
    // Stabilize in index order: all writers below j have final times when
    // j is processed.
    for j in 0..n {
        loop {
            // Earliest invalidation: a writer i < j of a key j reads, whose
            // finish falls after j's read instant.
            let mut invalidated_at: Option<u64> = None;
            for read in &txs[j].reads {
                let Some(ws) = writers.get(&read.key) else {
                    continue;
                };
                let read_instant = start[j] + read.gas_offset;
                for &i in ws.iter().take_while(|&&i| i < j) {
                    if finish[i] > read_instant {
                        // Eager abort: the stale attempt is killed and
                        // requeued the moment the invalidating writer
                        // finishes (Block-STM style), not when the victim
                        // would have finished.
                        let detect = finish[i];
                        invalidated_at = Some(invalidated_at.map_or(detect, |d| d.min(detect)));
                    }
                }
            }
            let Some(ready) = invalidated_at else { break };
            aborts += 1;
            attempts += 1;
            let (s, f) = timeline.schedule(ready, txs[j].cost);
            start[j] = s;
            finish[j] = f;
        }
    }

    let busy_gas: u64 = txs.iter().map(|t| t.cost).sum::<u64>() + aborts_cost(&txs, aborts);
    SimReport {
        threads,
        makespan: finish.iter().copied().max().unwrap_or(0),
        serial_cost: trace.total_gas,
        aborts,
        attempts,
        busy_gas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_analysis::Analyzer;
    use dmvcc_core::execute_block_serial;
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::Snapshot;
    use dmvcc_vm::{calldata, contracts, BlockEnv, CodeRegistry, Transaction, TxEnv};

    const TOKEN: u64 = 820;
    const COUNTER: u64 = 821;

    fn analyzer() -> Analyzer {
        Analyzer::new(
            CodeRegistry::builder()
                .deploy(Address::from_u64(TOKEN), contracts::token())
                .deploy(Address::from_u64(COUNTER), contracts::counter())
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

    fn increment_checked(caller: u64) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(COUNTER),
            calldata(contracts::counter_fn::INCREMENT_CHECKED, &[]),
        ))
    }

    fn trace(txs: &[Transaction]) -> BlockTrace {
        execute_block_serial(txs, &Snapshot::empty(), &analyzer(), &BlockEnv::default())
    }

    #[test]
    fn one_thread_has_no_aborts() {
        // Serial pickup order means every read sees finished writers.
        let txs: Vec<_> = (0..5).map(|i| increment_checked(900 + i)).collect();
        let t = trace(&txs);
        let report = simulate_occ(&t, 1);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.makespan, report.serial_cost);
    }

    #[test]
    fn rmw_chain_retries_under_parallelism() {
        let txs: Vec<_> = (0..5).map(|i| increment_checked(900 + i)).collect();
        let t = trace(&txs);
        let report = simulate_occ(&t, 8);
        assert!(report.aborts > 0, "hot RMW chain must retry");
        // Retries cannot beat the serial chain on this key.
        assert!(report.makespan >= t.total_gas / 2);
    }

    #[test]
    fn mints_conflict_under_occ_but_not_fatally() {
        // Mints SADD the shared totalSupply: OCC sees read-modify-writes.
        let txs: Vec<_> = (0..6).map(|i| mint(900 + i, 10 + i, 5)).collect();
        let t = trace(&txs);
        let report = simulate_occ(&t, 8);
        assert!(report.aborts > 0);
        assert!(report.makespan <= report.serial_cost);
    }

    #[test]
    fn disjoint_work_scales() {
        let snapshot = Snapshot::from_entries((0..8).map(|i| {
            (
                dmvcc_state::StateKey::balance(Address::from_u64(i)),
                U256::from(100u64),
            )
        }));
        let txs: Vec<_> = (0..8)
            .map(|i| {
                Transaction::transfer(Address::from_u64(i), Address::from_u64(100 + i), U256::ONE)
            })
            .collect();
        let t = execute_block_serial(&txs, &snapshot, &analyzer(), &BlockEnv::default());
        let report = simulate_occ(&t, 8);
        assert_eq!(report.aborts, 0);
        assert!(report.speedup() > 7.9);
    }
}
