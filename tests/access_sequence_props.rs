//! Model-based property test for access sequences: a random stream of
//! predict / write / add / drop / reset operations is mirrored against a
//! simple sequential model; read resolutions must agree.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dmvcc_core::{AccessOp, AccessSequence, ReadResolution};
use dmvcc_primitives::{Address, U256};
use dmvcc_state::{Snapshot, StateKey};

fn key() -> StateKey {
    StateKey::storage(Address::from_u64(1), U256::ZERO)
}

#[derive(Debug, Clone)]
enum Op {
    /// A C-SAG prediction for tx `t` — what the sequence is told to
    /// expect, which the execution is free not to honour.
    Predict(usize, AccessOp),
    /// Write by tx `t` of value `v` (predicted or not — version_write
    /// handles both).
    Write(usize, u64),
    /// Commutative add by tx `t` of delta `d`.
    Add(usize, u64),
    /// Drop tx `t`'s version.
    Drop(usize),
    /// Abort tx `t`: its version returns to pending.
    Reset(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        Just(AccessOp::Read),
        Just(AccessOp::Write),
        Just(AccessOp::ReadWrite),
        Just(AccessOp::Add),
    ];
    prop_oneof![
        (0usize..20, kind).prop_map(|(t, k)| Op::Predict(t, k)),
        (0usize..20, 1u64..100).prop_map(|(t, v)| Op::Write(t, v)),
        (0usize..20, 1u64..10).prop_map(|(t, d)| Op::Add(t, d)),
        (0usize..20).prop_map(Op::Drop),
        (0usize..20).prop_map(Op::Reset),
    ]
}

/// What a transaction has published.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ModelEntry {
    Write(u64),
    Add(u64),
}

/// Sequential model of one transaction's entry. A prediction says nothing
/// about values: it only makes the entry a barrier while nothing is
/// published.
#[derive(Debug, Clone, Copy, Default)]
struct ModelTx {
    /// Predicted (or seen) to write: ω, θ or ω̄.
    writer: bool,
    /// Announced and neither published nor dropped.
    pending: bool,
    published: Option<ModelEntry>,
}

/// What a read by `tx` must resolve to: the closest full write below plus
/// the deltas between, unless a pending writer is met first.
fn model_read(model: &BTreeMap<usize, ModelTx>, tx: usize, snapshot: u64) -> ReadResolution {
    let mut delta: u64 = 0;
    for (&t, entry) in model.range(..tx).rev() {
        match entry.published {
            Some(ModelEntry::Write(v)) => {
                return ReadResolution::Ready(U256::from(v.wrapping_add(delta)));
            }
            Some(ModelEntry::Add(d)) => delta = delta.wrapping_add(d),
            None if entry.pending && entry.writer => {
                return ReadResolution::Blocked { writer: t };
            }
            None => {}
        }
    }
    ReadResolution::Ready(U256::from(snapshot.wrapping_add(delta)))
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
        let mut model: BTreeMap<usize, ModelTx> = BTreeMap::new();
        let announced = ModelTx { pending: true, ..ModelTx::default() };

        for op in &ops {
            match *op {
                Op::Predict(t, kind) => {
                    seq.predict(t, kind);
                    model.entry(t).or_insert(announced).writer |= kind != AccessOp::Read;
                }
                Op::Write(t, v) => {
                    seq.version_write(t, U256::from(v), false);
                    let entry = model.entry(t).or_default();
                    *entry = ModelTx { writer: true, pending: false, published: Some(ModelEntry::Write(v)) };
                }
                Op::Add(t, d) => {
                    // A delta folds onto what the tx itself published (a
                    // full write absorbs it, adds accumulate) and starts
                    // fresh otherwise — whatever was predicted.
                    seq.version_write(t, U256::from(d), true);
                    let entry = model.entry(t).or_default();
                    let merged = match entry.published {
                        Some(ModelEntry::Write(v)) => ModelEntry::Write(v.wrapping_add(d)),
                        Some(ModelEntry::Add(prev)) => ModelEntry::Add(prev.wrapping_add(d)),
                        None => ModelEntry::Add(d),
                    };
                    *entry = ModelTx { writer: true, pending: false, published: Some(merged) };
                }
                Op::Drop(t) => {
                    seq.drop_version(t);
                    if let Some(entry) = model.get_mut(&t) {
                        entry.pending = false;
                        entry.published = None;
                    }
                }
                Op::Reset(t) => {
                    seq.reset(t);
                    if let Some(entry) = model.get_mut(&t) {
                        entry.pending = true;
                        entry.published = None;
                    }
                }
            }
        }

        // Read resolution at an arbitrary probe index matches the model.
        prop_assert_eq!(
            seq.resolve_read(probe, || snapshot.get(&key())),
            model_read(&model, probe, snapshot_value)
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
