//! Model-based property test for access sequences: a random stream of
//! predict / write / add / drop / reset / rollback / read operations is
//! mirrored against a simple sequential model; read resolutions must
//! agree, a read that blocks must become a counted read exactly when the
//! model's entry was not one, and every change must report exactly the
//! readers it turned and the consumed reads it made stale.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dmvcc_core::{AccessOp, AccessSequence, ReadResolution, VersionWriteEffect};
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
    /// Roll back tx `t`'s unpredicted write: dropped, not pending.
    Rollback(usize),
    /// A read by tx `t`, marked if it resolves and counted if it blocks.
    Read(usize),
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
        (0usize..20).prop_map(Op::Rollback),
        (0usize..20).prop_map(Op::Read),
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
#[derive(Debug, Clone, Copy)]
struct ModelTx {
    /// The access kind the entry stands for, merged like the sequence's.
    op: AccessOp,
    /// Predicted (or seen) to write: ω, θ or ω̄.
    writer: bool,
    /// Announced and neither published nor dropped.
    pending: bool,
    published: Option<ModelEntry>,
    /// A counted read: a ρ or θ was predicted, or a read blocked.
    predicted_read: bool,
    /// The read side was performed.
    read_done: bool,
}

impl ModelTx {
    fn announced(op: AccessOp) -> Self {
        ModelTx {
            op,
            writer: op != AccessOp::Read,
            pending: true,
            published: None,
            predicted_read: matches!(op, AccessOp::Read | AccessOp::ReadWrite),
            read_done: false,
        }
    }

    /// What readers above see of the entry: a value, a delta, a blocking
    /// pending write, or nothing.
    fn shown(&self) -> (Option<ModelEntry>, bool) {
        (
            self.published,
            self.published.is_none() && self.pending && self.writer,
        )
    }

    /// A full write, or a pending ω/θ: the readers above it see its
    /// version, not the ones below.
    fn barrier(&self) -> bool {
        let full = matches!(self.op, AccessOp::Write | AccessOp::ReadWrite);
        matches!(self.published, Some(ModelEntry::Write(_)))
            || (self.published.is_none() && self.pending && full)
    }
}

fn merge(a: AccessOp, b: AccessOp) -> AccessOp {
    use AccessOp::*;
    match (a, b) {
        (Read, Read) => Read,
        (Write, Write) => Write,
        (Add, Add) => Add,
        _ => ReadWrite,
    }
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

/// The counted readers whose read resolves blocked.
fn blocked_readers(model: &BTreeMap<usize, ModelTx>) -> Vec<usize> {
    let readers = model.iter().filter(|(_, entry)| entry.predicted_read);
    let blocked = readers
        .filter(|&(&t, _)| matches!(model_read(model, t, 0), ReadResolution::Blocked { .. }));
    blocked.map(|(&t, _)| t).collect()
}

/// The consumed reads a change to `t`'s entry made stale: if what the
/// entry shows changed, every consumed read above it up to and including
/// the next barrier.
fn stale_reads(model: &BTreeMap<usize, ModelTx>, t: usize, changed: bool) -> Vec<usize> {
    let mut stale = Vec::new();
    if !changed {
        return stale;
    }
    for (&u, entry) in model.range(t + 1..) {
        if entry.read_done {
            stale.push(u);
        }
        if entry.barrier() {
            break;
        }
    }
    stale
}

/// The transaction whose entry `op` changes, for the changes that report
/// an effect.
fn op_tx(op: &Op) -> Option<usize> {
    match *op {
        Op::Write(t, _) | Op::Add(t, _) | Op::Drop(t) | Op::Reset(t) | Op::Rollback(t) => Some(t),
        Op::Predict(..) | Op::Read(_) => None,
    }
}

/// Applies `op` to the model; returns the transaction whose entry changed
/// if it was one of the changes that report an effect.
fn apply_model(model: &mut BTreeMap<usize, ModelTx>, op: &Op, snapshot: u64) -> Option<usize> {
    let published = |entry: &mut ModelTx, merged: ModelEntry, op: AccessOp| {
        entry.op = op;
        entry.writer = true;
        entry.pending = false;
        entry.published = Some(merged);
    };
    match *op {
        Op::Predict(t, kind) => {
            let entry = model.entry(t).or_insert(ModelTx::announced(kind));
            entry.op = merge(entry.op, kind);
            entry.writer |= kind != AccessOp::Read;
            entry.predicted_read |= matches!(kind, AccessOp::Read | AccessOp::ReadWrite);
            None
        }
        Op::Write(t, v) => {
            let entry = model.entry(t).or_insert(ModelTx {
                pending: false,
                ..ModelTx::announced(AccessOp::Write)
            });
            let op = merge(entry.op, AccessOp::Write);
            published(entry, ModelEntry::Write(v), op);
            Some(t)
        }
        Op::Add(t, d) => {
            // A delta folds onto what the tx itself published (a full
            // write absorbs it, adds accumulate) and starts fresh
            // otherwise — whatever was predicted.
            let entry = model.entry(t).or_insert(ModelTx {
                pending: false,
                ..ModelTx::announced(AccessOp::Add)
            });
            let merged = match entry.published {
                Some(ModelEntry::Write(v)) => ModelEntry::Write(v.wrapping_add(d)),
                Some(ModelEntry::Add(prev)) => ModelEntry::Add(prev.wrapping_add(d)),
                None => ModelEntry::Add(d),
            };
            let op = if entry.op == AccessOp::Read {
                AccessOp::Add
            } else {
                entry.op
            };
            published(entry, merged, op);
            Some(t)
        }
        Op::Drop(t) => {
            let entry = model.get_mut(&t)?;
            entry.pending = false;
            entry.published = None;
            Some(t)
        }
        Op::Reset(t) => {
            let entry = model.get_mut(&t)?;
            entry.pending = true;
            entry.published = None;
            entry.read_done = false;
            Some(t)
        }
        Op::Rollback(t) => {
            let entry = model.get_mut(&t)?;
            entry.read_done = false;
            if entry.writer {
                entry.pending = false;
                entry.published = None;
            }
            Some(t)
        }
        Op::Read(t) => {
            if matches!(model_read(model, t, snapshot), ReadResolution::Ready(_)) {
                let entry = model.entry(t).or_insert(ModelTx {
                    predicted_read: false,
                    ..ModelTx::announced(AccessOp::Read)
                });
                entry.read_done = true;
            } else {
                let entry = model.entry(t).or_insert(ModelTx::announced(AccessOp::Read));
                entry.predicted_read = true;
            }
            None
        }
    }
}

proptest! {
    /// Every read resolves as the model says, and every change reports
    /// exactly what it did: the predicted readers it turned from blocked to
    /// ready (`allowed`) and back (`blocked`), whether or not they already
    /// read — and so no reader still blocked after it — and the consumed
    /// reads it made stale (`aborted`).
    #[test]
    fn sequence_matches_sequential_model(
        ops in prop::collection::vec(op_strategy(), 1..60),
        snapshot_value in 0u64..1000,
        probe in 0usize..21,
    ) {
        let snapshot = Snapshot::from_entries([(key(), U256::from(snapshot_value))]);
        let base = || snapshot.get(&key());
        let mut seq = AccessSequence::new();
        let mut model: BTreeMap<usize, ModelTx> = BTreeMap::new();

        for op in &ops {
            let before = blocked_readers(&model);
            let shown_before = op_tx(op).and_then(|t| model.get(&t)).map(ModelTx::shown);
            // What a read resolves to, and whether it becomes a counted
            // read only now: it blocks, and its entry was not one.
            let expected_read = match *op {
                Op::Read(t) => {
                    let resolution = model_read(&model, t, snapshot_value);
                    let blocked = matches!(resolution, ReadResolution::Blocked { .. });
                    let counted = model.get(&t).is_some_and(|entry| entry.predicted_read);
                    Some((resolution, blocked && !counted))
                }
                _ => None,
            };
            let changed = apply_model(&mut model, op, snapshot_value);
            let effect = match *op {
                Op::Predict(t, kind) => {
                    seq.predict(t, kind);
                    None
                }
                Op::Write(t, v) => Some(seq.version_write(t, U256::from(v), false)),
                Op::Add(t, d) => Some(seq.version_write(t, U256::from(d), true)),
                Op::Drop(t) => Some(seq.drop_version(t)),
                Op::Reset(t) => Some(seq.reset(t)),
                Op::Rollback(t) => Some(seq.rollback_unpredicted(t)),
                Op::Read(t) => {
                    prop_assert_eq!(Some(seq.read(t, base)), expected_read, "{:?}", op);
                    None
                }
            };
            let Some(effect) = effect else { continue };
            let Some(t) = changed else {
                // A drop, reset or rollback of a transaction with no entry.
                prop_assert_eq!(effect, VersionWriteEffect::default());
                continue;
            };
            let after = blocked_readers(&model);
            let turned = |from: &[usize], to: &[usize]| -> Vec<usize> {
                from.iter().copied().filter(|r| !to.contains(r)).collect()
            };
            prop_assert_eq!(&effect.allowed, &turned(&before, &after), "allowed after {:?}", op);
            prop_assert_eq!(&effect.blocked, &turned(&after, &before), "blocked after {:?}", op);
            let shown_after = model.get(&t).map(ModelTx::shown);
            let was = shown_before.unwrap_or((None, false));
            let stale = stale_reads(&model, t, shown_after != Some(was));
            prop_assert_eq!(&effect.aborted, &stale, "aborted after {:?}", op);
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
