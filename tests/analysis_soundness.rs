//! Soundness of the C-SAG prediction: with precise analysis, a transaction
//! executed *first in a block* against the same snapshot the prediction
//! used must touch exactly the predicted key sets — the speculative
//! pre-execution and the real execution run the same interpreter over the
//! same state, so any divergence is an analysis bug.

use proptest::prelude::*;

use dmvcc_analysis::{Analyzer, CSag, RefinementTier};
use dmvcc_core::execute_block_serial;
use dmvcc_integration_tests::{
    analyzer, decode_drop_tx, decode_loop_tx, decode_router_tx, decode_tx, genesis,
};
use dmvcc_primitives::Address;
use dmvcc_state::{Snapshot, StateKey};
use dmvcc_vm::{BlockEnv, ExecStatus, Transaction, TxEnv, TxKind};

/// The keys of a record's `writes` or `adds`, in order.
fn keys(written: &[(StateKey, usize)]) -> Vec<StateKey> {
    written.iter().map(|&(key, _)| key).collect()
}

/// `fast` under `slow`'s tier tag: two refinement tiers must agree on every
/// other public field of the record — the key sets with their publish pcs,
/// the release points and their gas bounds, the verdict and the gas.
fn same_but_for_tier(fast: &CSag, slow: &CSag) -> CSag {
    CSag {
        tier: slow.tier,
        ..fast.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn csag_predicts_first_position_execution_exactly(
        (c, s, k, a, b) in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        // One draw in eight calls an address that holds no code.
        let tx = if c % 8 == 7 {
            let caller = Address::from_u64(1 + k as u64 % 12);
            let nowhere = Address::from_u64(9_000 + a as u64);
            Transaction::call(TxEnv::call(caller, nowhere, vec![s, b]))
        } else {
            decode_tx(c, s, k, a, b)
        };
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let reference = analyzer();
        let sag = reference.csag(&tx, &snapshot, &env);
        let trace = execute_block_serial(
            std::slice::from_ref(&tx),
            &snapshot,
            &reference,
            &env,
        );
        let actual = &trace.txs[0];

        // The prediction's success verdict matches reality at position 0.
        prop_assert_eq!(
            sag.predicted_success,
            actual.status.is_success(),
            "status mismatch: predicted {:?}, actual {:?}",
            sag.predicted_success,
            actual.status
        );
        prop_assert_eq!(sag.predicted_gas, actual.gas_used);

        if actual.status.is_success() {
            // Writes/adds sets match exactly.
            let actual_writes: Vec<_> = actual.writes.keys().copied().collect();
            let actual_adds: Vec<_> = actual.adds.keys().copied().collect();
            prop_assert_eq!(keys(&sag.writes), actual_writes);
            prop_assert_eq!(keys(&sag.adds), actual_adds);
            // Every actual read was predicted (the prediction may contain
            // extra reads only for transfers' fused read/write slots).
            for read in &actual.reads {
                prop_assert!(
                    sag.reads.contains(&read.key),
                    "unpredicted read of {:?}",
                    read.key
                );
            }
        }
    }

    /// The two-tier refinement (symbolic binding with speculative
    /// fallback) must be an optimization, never a semantic change: for any
    /// generated transaction its C-SAG is bit-identical to the one
    /// `Analyzer::speculate` produces — every key set, the publish
    /// pcs, release gas bounds, the success verdict, and the gas estimate.
    /// Only the `tier` tag may differ.
    #[test]
    fn two_tier_and_speculative_only_predictions_agree(
        (c, s, k, a, b) in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let tx = decode_tx(c, s, k, a, b);
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let analyzer = analyzer();
        let fast = analyzer.csag(&tx, &snapshot, &env);
        let slow = analyzer.speculate(&tx, &snapshot, &env);

        prop_assert_eq!(&same_but_for_tier(&fast, &slow), &slow);
        if tx.kind == TxKind::Call {
            prop_assert_eq!(slow.tier, RefinementTier::Speculative);
        }
    }

    /// The loop-summarization tier is held to the same standard: for
    /// loop-heavy transactions (taken loops, zero-trip loops, the over-cap
    /// revert path, snapshot-bounded counts) the two-tier C-SAG must be
    /// bit-identical to the speculative-only one on every field except the
    /// `tier` tag — and these contracts must never need the speculative
    /// fallback at all.
    #[test]
    fn loopy_two_tier_and_speculative_only_predictions_agree(
        (s, k, a, b) in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let tx = decode_loop_tx(s, k, a, b);
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let analyzer = analyzer();
        let fast = analyzer.csag(&tx, &snapshot, &env);
        let slow = analyzer.speculate(&tx, &snapshot, &env);

        prop_assert_eq!(&same_but_for_tier(&fast, &slow), &slow);
        prop_assert_ne!(fast.tier, RefinementTier::Speculative);
        prop_assert_eq!(slow.tier, RefinementTier::Speculative);
    }

    /// The interprocedural tier is held to the same standard as the loop
    /// tier: for call-heavy transactions (four-frame aggregator swaps,
    /// caller-side slippage reverts, flash mints whose repay reads the
    /// in-transaction mint, oracle fanout) the composed bind must be
    /// bit-identical to speculation on every field except the `tier`
    /// tag — and these contracts must never need the speculative
    /// fallback at all.
    #[test]
    fn interprocedural_two_tier_and_speculative_only_predictions_agree(
        (s, k, a, b) in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let tx = decode_router_tx(s, k, a, b);
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let analyzer = analyzer();
        let fast = analyzer.csag(&tx, &snapshot, &env);
        let slow = analyzer.speculate(&tx, &snapshot, &env);

        prop_assert_eq!(&same_but_for_tier(&fast, &slow), &slow);
        prop_assert_ne!(fast.tier, RefinementTier::Speculative);
        prop_assert_eq!(slow.tier, RefinementTier::Speculative);
    }

    /// Composed call binding is concrete, so the position-0 exactness
    /// contract extends to call-heavy transactions unchanged.
    #[test]
    fn interprocedural_csag_predicts_first_position_execution_exactly(
        (s, k, a, b) in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let tx = decode_router_tx(s, k, a, b);
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let reference = analyzer();
        let sag = reference.csag(&tx, &snapshot, &env);
        let trace = execute_block_serial(
            std::slice::from_ref(&tx),
            &snapshot,
            &reference,
            &env,
        );
        let actual = &trace.txs[0];
        prop_assert_eq!(sag.predicted_success, actual.status.is_success());
        prop_assert_eq!(sag.predicted_gas, actual.gas_used);
        if actual.status.is_success() {
            let actual_writes: Vec<_> = actual.writes.keys().copied().collect();
            let actual_adds: Vec<_> = actual.adds.keys().copied().collect();
            prop_assert_eq!(keys(&sag.writes), actual_writes);
            prop_assert_eq!(keys(&sag.adds), actual_adds);
            for read in &actual.reads {
                prop_assert!(
                    sag.reads.contains(&read.key),
                    "unpredicted read of {:?}",
                    read.key
                );
            }
        }
    }

    /// The full call family — DELEGATECALL context rebinding, STATICCALL
    /// write-freedom, value-transferring CALLs with their implicit
    /// balance accesses, and bounded dynamic dispatch through a registry
    /// slot — is held to the same standard: bit-identical to speculation
    /// on every field except the `tier` tag, never needing the
    /// speculative fallback, and mints land on the bounded-dynamic tier
    /// (the payout target is loaded from storage, not hard-coded).
    #[test]
    fn call_family_two_tier_and_speculative_only_predictions_agree(
        (s, k, a) in (0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let tx = decode_drop_tx(s, k, a);
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let analyzer = analyzer();
        let fast = analyzer.csag(&tx, &snapshot, &env);
        let slow = analyzer.speculate(&tx, &snapshot, &env);

        prop_assert_eq!(&same_but_for_tier(&fast, &slow), &slow);
        prop_assert_ne!(fast.tier, RefinementTier::Speculative);
        prop_assert_eq!(slow.tier, RefinementTier::Speculative);
        if s % 8 <= 4 {
            // Mints route the royalty payout through the registry-slot
            // recipient: the bind is bounded-dynamic, not plain
            // interprocedural.
            prop_assert_eq!(fast.tier, RefinementTier::BoundedDynamic);
        }
    }

    /// Bounded-dynamic and call-family binds are concrete, so the
    /// position-0 exactness contract extends to mint-rush transactions
    /// unchanged.
    #[test]
    fn call_family_csag_predicts_first_position_execution_exactly(
        (s, k, a) in (0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let tx = decode_drop_tx(s, k, a);
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let reference = analyzer();
        let sag = reference.csag(&tx, &snapshot, &env);
        let trace = execute_block_serial(
            std::slice::from_ref(&tx),
            &snapshot,
            &reference,
            &env,
        );
        let actual = &trace.txs[0];
        prop_assert_eq!(sag.predicted_success, actual.status.is_success());
        prop_assert_eq!(sag.predicted_gas, actual.gas_used);
        if actual.status.is_success() {
            let actual_writes: Vec<_> = actual.writes.keys().copied().collect();
            let actual_adds: Vec<_> = actual.adds.keys().copied().collect();
            prop_assert_eq!(keys(&sag.writes), actual_writes);
            prop_assert_eq!(keys(&sag.adds), actual_adds);
            for read in &actual.reads {
                prop_assert!(
                    sag.reads.contains(&read.key),
                    "unpredicted read of {:?}",
                    read.key
                );
            }
        }
    }

    /// Bind-time loop unrolling is concrete, so the position-0 exactness
    /// contract extends to loopy transactions unchanged: key sets, gas and
    /// the success verdict must match a real first-position execution.
    #[test]
    fn loopy_csag_predicts_first_position_execution_exactly(
        (s, k, a, b) in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let tx = decode_loop_tx(s, k, a, b);
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let reference = analyzer();
        let sag = reference.csag(&tx, &snapshot, &env);
        let trace = execute_block_serial(
            std::slice::from_ref(&tx),
            &snapshot,
            &reference,
            &env,
        );
        let actual = &trace.txs[0];
        prop_assert_eq!(sag.predicted_success, actual.status.is_success());
        prop_assert_eq!(sag.predicted_gas, actual.gas_used);
        if actual.status.is_success() {
            let actual_writes: Vec<_> = actual.writes.keys().copied().collect();
            let actual_adds: Vec<_> = actual.adds.keys().copied().collect();
            prop_assert_eq!(keys(&sag.writes), actual_writes);
            prop_assert_eq!(keys(&sag.adds), actual_adds);
            for read in &actual.reads {
                prop_assert!(
                    sag.reads.contains(&read.key),
                    "unpredicted read of {:?}",
                    read.key
                );
            }
        }
    }

    #[test]
    fn release_offsets_exist_for_successful_known_contracts(
        (c, s, k, a, b) in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let tx = decode_tx(c, s, k, a, b);
        let snapshot = Snapshot::from_entries(genesis());
        let env = BlockEnv::new(1, 1_700_000_000);
        let reference = analyzer();
        let trace = execute_block_serial(
            std::slice::from_ref(&tx),
            &snapshot,
            &reference,
            &env,
        );
        let actual = &trace.txs[0];
        match (&actual.status, tx.kind) {
            (ExecStatus::Success, TxKind::Transfer) => {
                prop_assert!(actual.release_offset.is_some());
            }
            (ExecStatus::Success, TxKind::Call) => {
                // Every successful path of the library contracts passes a
                // release point (verified statically in the analysis
                // crate); the trace must have recorded it.
                prop_assert!(
                    actual.release_offset.is_some(),
                    "no release offset for {:?}",
                    tx
                );
                let offset = actual.release_offset.unwrap();
                prop_assert!(offset <= actual.gas_used);
            }
            _ => {
                prop_assert!(actual.release_offset.is_none());
            }
        }
    }
}

/// How a workload's blocks refine: C-SAGs per tier over consecutive
/// blocks (each refined against the state the earlier ones left), and the
/// code-hash summary memo's traffic while doing so.
#[derive(Debug, Default)]
struct TierMix {
    symbolic: u64,
    loop_summarized: u64,
    interprocedural: u64,
    bounded_dynamic: u64,
    speculative: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl TierMix {
    fn of(workload: dmvcc_workload::WorkloadConfig, blocks: u64, block_size: usize) -> TierMix {
        let mut generator = dmvcc_workload::WorkloadGenerator::new(workload);
        let analyzer = Analyzer::new(generator.registry().clone());
        let mut snapshot = Snapshot::from_entries(generator.genesis_entries());
        let mut mix = TierMix::default();
        for height in 1..=blocks {
            let env = dmvcc_chain::block_env(height);
            let txs = generator.block(block_size);
            for tx in &txs {
                match analyzer.csag(tx, &snapshot, &env).tier {
                    RefinementTier::Symbolic => mix.symbolic += 1,
                    RefinementTier::LoopSummarized => mix.loop_summarized += 1,
                    RefinementTier::Interprocedural => mix.interprocedural += 1,
                    RefinementTier::BoundedDynamic => mix.bounded_dynamic += 1,
                    RefinementTier::Speculative => mix.speculative += 1,
                    // Transfers; analyzable calls never land on the
                    // withheld tier.
                    RefinementTier::Exact | RefinementTier::Optimistic => {}
                }
            }
            let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
            snapshot = snapshot.apply(&trace.final_writes);
        }
        let summaries = analyzer.registry().summaries();
        mix.memo_hits = summaries.hits();
        mix.memo_misses = summaries.misses();
        mix
    }

    /// Calls that refined through a call tier.
    fn call_bound(&self) -> u64 {
        self.interprocedural + self.bounded_dynamic
    }

    /// Calls served without speculative pre-execution.
    fn bound(&self) -> u64 {
        self.symbolic + self.loop_summarized + self.call_bound()
    }

    /// Share of refinements that fell back to speculation.
    fn speculative_share(&self) -> f64 {
        self.speculative as f64 / (self.bound() + self.speculative).max(1) as f64
    }
}

/// The symbolic binding tier has to carry its weight: on the realistic
/// workload mix, well over half of the contract calls must refine through
/// the fast path, with speculative pre-execution reserved for the genuinely
/// data-dependent tail (loops, opaque jumps). A regression here means the
/// abstract interpreter lost precision somewhere.
#[test]
fn symbolic_tier_binds_most_realistic_transactions() {
    let mix = TierMix::of(dmvcc_workload::WorkloadConfig::ethereum_mix(7), 1, 400);
    assert!(mix.bound() > 0, "workload produced no contract calls");
    assert!(mix.speculative_share() <= 0.40, "{mix:?}");
}

/// Loop summarization must carry the loop-heavy profile and
/// interprocedural summaries the call-heavy one (its cross-contract chains
/// bind from composed templates): speculative pre-execution is the
/// exception there, not the rule.
#[test]
fn loop_and_call_profiles_bind_through_their_own_tier() {
    use dmvcc_workload::WorkloadConfig;
    let loops = TierMix::of(WorkloadConfig::loop_heavy(31), 2, 120);
    assert!(loops.speculative_share() < 0.10, "{loops:?}");
    assert!(loops.loop_summarized > 0, "{loops:?}");
    let calls = TierMix::of(WorkloadConfig::call_heavy(31), 2, 120);
    assert!(calls.speculative_share() < 0.10, "{calls:?}");
    assert!(calls.interprocedural > 0, "{calls:?}");
}

/// The full call family must carry the mint rush: DELEGATECALL royalty
/// splits, STATICCALL floor reads and the bounded-dynamic payout target
/// all bind from composed summaries — at least 90 % of the call-bearing
/// transactions (those that refined through a call tier or fell back to
/// speculation). The drops deploy many copies of three bodies (drop,
/// splitter, floor oracle), so the code-hash memo must see far more hits
/// than distinct-body misses.
#[test]
fn mint_rush_binds_its_calls_and_shares_its_summaries() {
    let mints = TierMix::of(dmvcc_workload::WorkloadConfig::nft_mint_rush(31), 2, 120);
    let call_bearing = mints.call_bound() + mints.speculative;
    assert!(
        mints.call_bound() as f64 >= 0.90 * call_bearing.max(1) as f64,
        "{mints:?}"
    );
    assert!(mints.bounded_dynamic > 0, "{mints:?}");
    assert!(mints.memo_hits > mints.memo_misses, "{mints:?}");
}

/// The prediction is *allowed* to diverge at later block positions — that
/// is the whole point of the abort machinery — but never at position 0
/// against the same snapshot. This deterministic companion pins one known
/// tricky case: the Fig. 1 contract's data-dependent loop.
#[test]
fn fig1_prediction_tracks_snapshot_exactly() {
    use dmvcc_integration_tests::FIG1;
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::StateKey;
    use dmvcc_vm::{calldata, contracts, TxEnv};

    let reference = analyzer();
    let x = Address::from_u64(4).to_u256();
    let tx = Transaction::call(TxEnv::call(
        Address::from_u64(1),
        Address::from_u64(FIG1),
        calldata(contracts::fig1_fn::UPDATE_B, &[x, U256::from(2u64)]),
    ));
    let env = BlockEnv::new(1, 1_700_000_000);
    for idx in [0u64, 2, 5] {
        let mut entries = genesis();
        entries.push((
            StateKey::storage(Address::from_u64(FIG1), contracts::map_slot(x, 0)),
            U256::from(idx),
        ));
        let snapshot = Snapshot::from_entries(entries);
        let sag = reference.csag(&tx, &snapshot, &env);
        let trace = execute_block_serial(std::slice::from_ref(&tx), &snapshot, &reference, &env);
        let actual_writes: Vec<_> = trace.txs[0].writes.keys().copied().collect();
        assert_eq!(keys(&sag.writes), actual_writes, "A[x] = {idx}");
        assert_eq!(sag.predicted_gas, trace.txs[0].gas_used, "A[x] = {idx}");
    }
}
