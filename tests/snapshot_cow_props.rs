//! Model-based property tests for [`Snapshot::apply`]'s copy-on-write
//! layering: random chains of block writes — overwrites, zero tombstones
//! (EVM storage clearing), and enough blocks that the overlays collapse
//! into one layer at least twice — must read identically to a flat
//! `HashMap` model, the overlay depth must stay bounded, and historical
//! snapshots must be immutable under later applies: over a backend of
//! their own, and over one that a [`StateDb`] keeps committing to while the
//! chain is applied.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use dmvcc_primitives::{Address, U256};
use dmvcc_state::{Snapshot, StateDb, StateKey, WriteSet};

/// Small key pool so writes collide across blocks (overwrites and
/// tombstone-then-rewrite sequences are the interesting cases).
fn pool_key(index: u8) -> StateKey {
    if index.is_multiple_of(3) {
        StateKey::balance(Address::from_u64(u64::from(index / 3)))
    } else {
        StateKey::storage(
            Address::from_u64(u64::from(index % 5)),
            U256::from(u64::from(index / 5)),
        )
    }
}

/// One block: a handful of (key index, value) writes; value 0 is a
/// tombstone.
fn block_strategy() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..24, 0u64..50), 1..8)
}

fn write_set(block: &[(u8, u64)]) -> WriteSet {
    block
        .iter()
        .map(|&(k, v)| (pool_key(k), U256::from(v)))
        .collect()
}

/// Applies `writes` to `model`: a zero removes the key.
fn apply_to_model(model: &mut HashMap<StateKey, U256>, writes: &WriteSet) {
    for (key, value) in writes {
        if value.is_zero() {
            model.remove(key);
        } else {
            model.insert(*key, *value);
        }
    }
}

/// Checks every key of the pool, and the listing's length, against `model`.
fn reads_match(snapshot: &Snapshot, model: &HashMap<StateKey, U256>) -> Result<(), TestCaseError> {
    for index in 0..24u8 {
        let key = pool_key(index);
        prop_assert_eq!(
            snapshot.get(&key),
            model.get(&key).copied().unwrap_or(U256::ZERO),
            "read mismatch on {:?} at height {}",
            key,
            snapshot.height()
        );
    }
    prop_assert_eq!(
        snapshot.len(),
        model.len(),
        "at height {}",
        snapshot.height()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A chain that starts at a database's latest snapshot, while the
    /// database commits other batches into the backend they share: the
    /// chain reads its backend at the height it started from, under
    /// overlays that collapse at least twice, and never sees the
    /// database's blocks.
    #[test]
    fn a_chain_over_a_backend_that_keeps_moving_reads_only_its_own_blocks(
        genesis in prop::collection::vec((0u8..24, 1u64..50), 4..16),
        blocks in prop::collection::vec(block_strategy(), 18..28),
        committed in prop::collection::vec(block_strategy(), 1..8),
    ) {
        let mut model: HashMap<StateKey, U256> = genesis
            .iter()
            .map(|&(k, v)| (pool_key(k), U256::from(v)))
            .collect();
        let mut db = StateDb::with_genesis(model.clone());
        let mut db_model = model.clone();
        let mut snapshot = db.latest().clone();
        let mut history: Vec<(Snapshot, HashMap<StateKey, U256>)> =
            vec![(snapshot.clone(), model.clone())];
        for (block, other) in blocks.iter().zip(committed.iter().cycle()) {
            let other = write_set(other);
            db.commit(&other);
            apply_to_model(&mut db_model, &other);
            let writes = write_set(block);
            snapshot = snapshot.apply(&writes);
            apply_to_model(&mut model, &writes);
            reads_match(&snapshot, &model)?;
            reads_match(db.latest(), &db_model)?;
            prop_assert!(snapshot.overlay_depth() <= 8);
            history.push((snapshot.clone(), model.clone()));
        }
        for (old, frozen) in &history {
            reads_match(old, frozen)?;
        }
    }

    #[test]
    fn cow_layers_match_flat_model(
        // Up to 24 blocks: comfortably past the collapse threshold (8
        // overlays), so the overlays collapse mid-history at least twice.
        blocks in prop::collection::vec(block_strategy(), 1..24),
        genesis in prop::collection::vec((0u8..24, 1u64..50), 0..8),
    ) {
        let mut model: HashMap<StateKey, U256> = genesis
            .iter()
            .map(|&(k, v)| (pool_key(k), U256::from(v)))
            .collect();
        let mut snapshot = Snapshot::from_entries(model.clone());
        // Every historical snapshot paired with the model state it froze.
        let mut history: Vec<(Snapshot, HashMap<StateKey, U256>)> =
            vec![(snapshot.clone(), model.clone())];

        for block in &blocks {
            let writes = write_set(block);
            snapshot = snapshot.apply(&writes);
            apply_to_model(&mut model, &writes);
            // Reads agree with the flat model on the whole key pool
            // (absent keys read as zero on both sides).
            reads_match(&snapshot, &model)?;
            prop_assert!(
                snapshot.overlay_depth() <= 8,
                "overlay depth {} exceeds the collapse threshold",
                snapshot.overlay_depth()
            );
            history.push((snapshot.clone(), model.clone()));
        }

        // Historical snapshots are immutable: later applies (including the
        // collapses they triggered) must not have disturbed any frozen view.
        for (old, frozen) in &history {
            reads_match(old, frozen)?;
        }
    }
}
