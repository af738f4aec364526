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
//!
//! [`hidden_keys`] is the same kind of transform for the analysis itself:
//! the predictions an imprecise analyzer would make.

use std::collections::HashMap;

use dmvcc_analysis::{CSag, RefinementTier};
use dmvcc_core::BlockTrace;
use dmvcc_primitives::U256;
use dmvcc_state::{SortedVec, StateKey};

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

/// `csags` as an analyzer blind to `fraction` of the state keys would have
/// refined them: every such key leaves `reads`, `writes` and `adds`, so a
/// hidden write surfaces at run time as an unpredicted write and hits the
/// abort machinery (Algorithms 3–4). Whether a key is hidden is a hash of
/// `(seed, key)`, so it is hidden in every transaction and block alike.
/// Only the refined tiers lose keys: a [`RefinementTier::Exact`] record
/// (a transfer, a call to an unknown contract) is exact by construction.
/// A record classifies each key from that key's own accesses, so dropping
/// a key from the record equals dropping its accesses before refinement.
pub fn hidden_keys(csags: &[CSag], fraction: f64, seed: u64) -> Vec<CSag> {
    let hidden = |key: &StateKey| hides(key, fraction, seed);
    let kept = |written: &[(StateKey, usize)]| -> SortedVec<(StateKey, usize)> {
        written
            .iter()
            .filter(|(k, _)| !hidden(k))
            .copied()
            .collect()
    };
    csags
        .iter()
        .map(|csag| match csag.tier {
            RefinementTier::Exact => csag.clone(),
            _ => CSag {
                reads: csag.reads.iter().filter(|k| !hidden(k)).copied().collect(),
                writes: kept(&csag.writes),
                adds: kept(&csag.adds),
                ..csag.clone()
            },
        })
        .collect()
}

/// Whether [`hidden_keys`] hides `key`: a roll in `[0, 1)` hashed from
/// `(seed, key)`, below `fraction`.
fn hides(key: &StateKey, fraction: f64, seed: u64) -> bool {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for chunk in key.to_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state ^= u64::from_le_bytes(word);
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    let roll = (state >> 11) as f64 / (1u64 << 53) as f64;
    roll < fraction
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

    /// Five keys of each of three accounts: the balance and slots 0–3.
    fn fifteen_keys() -> Vec<StateKey> {
        (1..=3u64)
            .flat_map(|a| {
                let address = Address::from_u64(a);
                let slots = (0..4u64).map(move |s| StateKey::storage(address, U256::from(s)));
                std::iter::once(StateKey::balance(address)).chain(slots)
            })
            .collect()
    }

    /// Which keys the roll hides at two fixed seeds and fractions, as the
    /// analyzer hid them when the roll was a setting of its own: a change
    /// to the hash moves every figure built on hidden keys.
    #[test]
    fn the_hide_roll_is_pinned() {
        let keys = fifteen_keys();
        let csag = CSag {
            tier: RefinementTier::Speculative,
            ..CSag::from_accesses(keys.iter().map(|&key| (key, AccessKind::Read, 0)))
        };
        let slot = |a: u64, s: u64| StateKey::storage(Address::from_u64(a), U256::from(s));
        let balance = |a: u64| StateKey::balance(Address::from_u64(a));
        let pinned = [
            (
                0.5,
                7,
                vec![
                    slot(1, 0),
                    slot(1, 1),
                    balance(2),
                    slot(2, 0),
                    balance(3),
                    slot(3, 0),
                    slot(3, 2),
                    slot(3, 3),
                ],
            ),
            (
                0.25,
                0xA11A,
                vec![balance(1), slot(1, 0), slot(1, 1), slot(2, 0)],
            ),
        ];
        for (fraction, seed, hidden) in pinned {
            let kept = &hidden_keys(std::slice::from_ref(&csag), fraction, seed)[0];
            let expected: BTreeSet<StateKey> = keys
                .iter()
                .filter(|k| !hidden.contains(k))
                .copied()
                .collect();
            let kept: BTreeSet<StateKey> = kept.reads.iter().copied().collect();
            assert_eq!(kept, expected, "fraction {fraction}, seed {seed:#x}");
        }
    }

    #[test]
    fn hiding_every_key_empties_refined_records_and_spares_exact_ones() {
        let counter = Address::from_u64(100);
        let registry = dmvcc_vm::CodeRegistry::builder()
            .deploy(counter, dmvcc_vm::contracts::counter())
            .build();
        let increment = dmvcc_vm::Transaction::call(dmvcc_vm::TxEnv::call(
            Address::from_u64(1),
            counter,
            dmvcc_vm::calldata(dmvcc_vm::contracts::counter_fn::INCREMENT, &[]),
        ));
        let refined = dmvcc_analysis::Analyzer::new(registry).csag(
            &increment,
            &dmvcc_state::Snapshot::empty(),
            &Default::default(),
        );
        assert_eq!(refined.adds.len(), 1);
        let transfer = CSag::for_transfer(Address::from_u64(1), Address::from_u64(2));
        let csags = [refined, transfer.clone()];
        let hidden = hidden_keys(&csags, 1.0, 7);
        assert!(
            hidden[0].touched().is_empty(),
            "fraction 1 hides everything"
        );
        assert_eq!(hidden[0].release_points, csags[0].release_points);
        assert_eq!(hidden[1], transfer, "an exact record keeps its keys");
        assert_eq!(
            hidden,
            hidden_keys(&csags, 1.0, 7),
            "same seed, same record"
        );
        assert_eq!(hidden_keys(&csags, 0.0, 7), csags);
    }

    /// Dropping a hidden key from a record equals dropping its accesses
    /// before the record is built, on pseudo-random runs of accesses.
    #[test]
    fn hiding_a_key_equals_hiding_its_accesses() {
        let keys = fifteen_keys();
        let kinds = [AccessKind::Read, AccessKind::Write, AccessKind::Add];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for case in 0..256u64 {
            let run: Vec<(StateKey, AccessKind, usize)> = (0..next(24))
                .map(|_| (keys[next(keys.len())], kinds[next(3)], next(40)))
                .collect();
            let (fraction, seed) = ([0.25, 0.5, 0.75][case as usize % 3], case % 4);
            let speculative = |csag: CSag| CSag {
                tier: RefinementTier::Speculative,
                ..csag
            };
            let record = speculative(CSag::from_accesses(run.iter().copied()));
            let seen = run.iter().filter(|(key, _, _)| !hides(key, fraction, seed));
            let expected = speculative(CSag::from_accesses(seen.copied()));
            assert_eq!(
                hidden_keys(&[record], fraction, seed),
                [expected],
                "case {case}"
            );
        }
    }
}
