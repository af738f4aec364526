//! The paper's design features, taken away one at a time by rewriting a
//! scheduler's inputs instead of switching the scheduler.
//!
//! Each transform returns the trace or the predictions a scheduler would
//! see if the feature did not exist; [`crate::simulate_dmvcc`] and
//! [`crate::simulate_dag`] then run unchanged:
//!
//! - no early-write visibility (§IV-C): no transaction passes a release
//!   point, so every version is published when its writer finishes;
//! - no commutative writes (§IV-D): a predicted add is the
//!   read-modify-write it stands for;
//! - no write versioning (Algorithm 3): a predicted writer also reads the
//!   key, so it waits for every earlier writer;
//! - coarse read/write sets: every key widens to its contract (or account).

use std::collections::HashMap;

use dmvcc_analysis::CSag;
use dmvcc_core::BlockTrace;
use dmvcc_primitives::U256;
use dmvcc_state::StateKey;

/// `trace` with every `release_offset` cleared: no version is visible
/// before its transaction finishes.
pub fn without_early_writes(trace: &BlockTrace) -> BlockTrace {
    let mut trace = trace.clone();
    for tx in &mut trace.txs {
        tx.release_offset = None;
    }
    trace
}

/// `csags` with every predicted add turned into a predicted read and a
/// predicted write of the key ([`CSag::predict_write`], same publish pc):
/// increments chain on the key like any read-modify-write.
pub fn without_commutativity(csags: &[CSag]) -> Vec<CSag> {
    csags
        .iter()
        .map(|csag| {
            let mut csag = csag.clone();
            for (key, pc) in std::mem::take(&mut csag.adds).iter() {
                csag.reads.insert(*key);
                csag.predict_write(*key, *pc);
            }
            csag
        })
        .collect()
}

/// `csags` with every predicted write or add key also predicted read:
/// writers of a key serialize, as they would over a single version.
pub fn without_versioning(csags: &[CSag]) -> Vec<CSag> {
    csags
        .iter()
        .map(|csag| CSag {
            reads: csag.reads.iter().chain(csag.written()).copied().collect(),
            ..csag.clone()
        })
        .collect()
}

/// `trace` at contract granularity: every key becomes
/// `StateKey::storage(key.address, 0)`, so two accesses conflict whenever
/// they touch one contract (or one account's balance). Only the schedulers'
/// cost inputs are rewritten; `final_writes` is left as executed.
pub fn contract_level(trace: &BlockTrace) -> BlockTrace {
    let widen = |key: &StateKey| StateKey::storage(key.address, U256::ZERO);
    let mut trace = trace.clone();
    for tx in &mut trace.txs {
        for read in &mut tx.reads {
            read.key = widen(&read.key);
        }
        tx.writes = tx.writes.iter().map(|(k, v)| (widen(k), *v)).collect();
        tx.adds = tx.adds.iter().map(|(k, v)| (widen(k), *v)).collect();
        let mut offsets = HashMap::new();
        for (key, &offset) in &tx.write_offsets {
            let last = offsets.entry(widen(key)).or_insert(offset);
            *last = offset.max(*last);
        }
        tx.write_offsets = offsets;
    }
    trace
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use dmvcc_analysis::AccessKind;
    use dmvcc_core::{ReadRecord, TxTrace};
    use dmvcc_primitives::Address;
    use dmvcc_vm::ExecStatus;

    fn record(key: StateKey) -> TxTrace {
        TxTrace {
            index: 0,
            status: ExecStatus::Success,
            gas_used: 100,
            reads: vec![ReadRecord {
                key,
                sources: vec![],
                gas_offset: 10,
            }],
            writes: [(key, U256::ONE)].into(),
            adds: Default::default(),
            write_offsets: [(key, 60)].into(),
            release_offset: Some(40),
        }
    }

    fn block(txs: Vec<TxTrace>) -> BlockTrace {
        BlockTrace {
            total_gas: txs.iter().map(|t| t.gas_used).sum(),
            txs,
            final_writes: Default::default(),
        }
    }

    #[test]
    fn transforms_rewrite_hand_built_records() {
        let token = Address::from_u64(7);
        let balance = StateKey::balance(token);
        let slot = StateKey::storage(token, U256::from(3u64));

        let coarse = contract_level(&block(vec![record(balance), record(slot)]));
        let keys: BTreeSet<StateKey> = coarse
            .txs
            .iter()
            .flat_map(|t| {
                t.reads
                    .iter()
                    .map(|r| r.key)
                    .chain(t.writes.keys().copied())
            })
            .collect();
        assert_eq!(keys.len(), 1, "{keys:?}");

        let other = StateKey::balance(Address::from_u64(8));
        let csag = CSag::from_accesses([
            (balance, AccessKind::Read, 1),
            (balance, AccessKind::Write, 2),
            (slot, AccessKind::Add, 3),
            (other, AccessKind::Add, 4),
        ]);
        let serialized = &without_commutativity(std::slice::from_ref(&csag))[0];
        assert!(serialized.adds.is_empty());
        let written = |c: &CSag| c.written().copied().collect::<BTreeSet<_>>();
        assert_eq!(written(serialized), written(&csag));
        assert!(serialized.reads.contains(&slot) && serialized.reads.contains(&other));

        let unversioned = &without_versioning(std::slice::from_ref(&csag))[0];
        assert!(written(&csag).iter().all(|k| unversioned.reads.contains(k)));

        let late = without_early_writes(&block(vec![record(balance), record(slot)]));
        assert!(late.txs.iter().all(|t| t.release_offset.is_none()));
    }
}
