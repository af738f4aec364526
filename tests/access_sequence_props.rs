//! Model-based property test for access sequences: a random stream of
//! predict / write / add / read / drop operations is mirrored against a
//! simple sequential model; final values and read resolutions must agree.

use proptest::prelude::*;

use dmvcc_core::{AccessOp, AccessSequence, ReadResolution};
use dmvcc_primitives::{Address, U256};
use dmvcc_state::{Snapshot, StateKey};

fn key() -> StateKey {
    StateKey::storage(Address::from_u64(1), U256::ZERO)
}

#[derive(Debug, Clone)]
enum Op {
    /// Write by tx `t` of value `v` (predicted or not — version_write
    /// handles both).
    Write(usize, u64),
    /// Commutative add by tx `t` of delta `d`.
    Add(usize, u64),
    /// Drop tx `t`'s version.
    Drop(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..20, 1u64..100).prop_map(|(t, v)| Op::Write(t, v)),
        (0usize..20, 1u64..10).prop_map(|(t, d)| Op::Add(t, d)),
        (0usize..20).prop_map(Op::Drop),
    ]
}

/// Sequential model: per tx index, the effective operation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ModelEntry {
    Write(u64),
    Add(u64),
}

fn model_value_before(
    model: &std::collections::BTreeMap<usize, ModelEntry>,
    tx: usize,
    snapshot: u64,
) -> u64 {
    let mut base = snapshot;
    let mut delta: u64 = 0;
    for (&t, &entry) in model.iter() {
        if t >= tx {
            break;
        }
        match entry {
            ModelEntry::Write(v) => {
                base = v;
                delta = 0;
            }
            ModelEntry::Add(d) => delta = delta.wrapping_add(d),
        }
    }
    base.wrapping_add(delta)
}

proptest! {
    #[test]
    fn sequence_matches_sequential_model(
        ops in prop::collection::vec(op_strategy(), 1..60),
        snapshot_value in 0u64..1000,
        probe in 0usize..21,
    ) {
        let snapshot = Snapshot::from_entries([(key(), U256::from(snapshot_value))]);
        let mut seq = AccessSequence::new();
        let mut model: std::collections::BTreeMap<usize, ModelEntry> =
            std::collections::BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Write(t, v) => {
                    seq.version_write(t, U256::from(v), false);
                    model.insert(t, ModelEntry::Write(v));
                }
                Op::Add(t, d) => {
                    // version_write(delta) accumulates when the tx already
                    // holds an Add entry; a full write absorbs the delta.
                    seq.version_write(t, U256::from(d), true);
                    match model.get(&t).copied() {
                        Some(ModelEntry::Write(v)) => {
                            model.insert(t, ModelEntry::Write(v.wrapping_add(d)));
                        }
                        Some(ModelEntry::Add(prev)) => {
                            model.insert(t, ModelEntry::Add(prev.wrapping_add(d)));
                        }
                        None => {
                            model.insert(t, ModelEntry::Add(d));
                        }
                    }
                }
                Op::Drop(t) => {
                    seq.drop_version(t);
                    model.remove(&t);
                }
            }
        }

        // Read resolution at an arbitrary probe index matches the model.
        // (All versions are Done, so no read can block.)
        let expected = model_value_before(&model, probe, snapshot_value);
        prop_assert_eq!(
            seq.resolve_read(probe, || snapshot.get(&key())),
            ReadResolution::Ready(U256::from(expected))
        );
    }

    #[test]
    fn pending_predictions_block_and_publishing_unblocks(
        writers in prop::collection::btree_set(0usize..10, 1..5),
        reader in 10usize..12,
    ) {
        let snapshot = Snapshot::empty();
        let mut seq = AccessSequence::new();
        for &w in &writers {
            seq.predict(w, AccessOp::Write);
        }
        // Blocked on the latest pending writer below the reader.
        let latest = *writers.iter().max().unwrap();
        prop_assert_eq!(
            seq.resolve_read(reader, || snapshot.get(&key())),
            ReadResolution::Blocked { writer: latest }
        );
        // Publish all but the earliest: still blocked if the closest
        // preceding write is pending? No — the closest preceding version
        // wins; publishing the *latest* unblocks.
        seq.version_write(latest, U256::from(7u64), false);
        prop_assert_eq!(
            seq.resolve_read(reader, || snapshot.get(&key())),
            ReadResolution::Ready(U256::from(7u64))
        );
    }
}
