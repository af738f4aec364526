//! The RQ1 oracle as a property: for ANY batch of transactions, every
//! threaded engine (predictive, optimistic STM, hybrid) commits exactly the
//! serial write set, and the Merkle roots agree — across thread counts and
//! analysis accuracy.

use proptest::prelude::*;

use dmvcc_analysis::{Analyzer, CSag};
use dmvcc_core::{execute_block_serial, refine_csags, ExecutorKind, ParallelConfig};
use dmvcc_integration_tests::{analyzer, decode_tx, decode_tx_opaque, genesis};
use dmvcc_sim::hidden_keys;
use dmvcc_state::{Snapshot, StateDb};
use dmvcc_vm::{BlockEnv, Transaction};

/// Every engine must commit the serial write set, statuses, per-transaction
/// gas and Merkle root (exactly as the paper validates RQ1), with `hide` of
/// the state keys hidden from its C-SAGs and the predictions of the
/// `withheld` transactions withheld, and its
/// [`dmvcc_core::ExecutorStats`] must satisfy that engine's accounting
/// invariants. A precise block (nothing hidden or withheld) is refined by
/// each engine itself.
fn check_block(txs: &[Transaction], threads: usize, hide: f64, withheld: &[bool]) {
    let snapshot = Snapshot::from_entries(genesis());
    let env = BlockEnv::new(1, 1_700_000_000);
    let trace = execute_block_serial(txs, &snapshot, &analyzer(), &env);
    let serial_statuses: Vec<_> = trace.txs.iter().map(|t| t.status.clone()).collect();
    let serial_gas: Vec<u64> = trace.txs.iter().map(|t| t.gas_used).collect();
    let serial_root = StateDb::with_genesis(genesis()).commit(&trace.final_writes);
    let n = txs.len() as u64;
    let withheld_count = withheld.iter().filter(|&&w| w).count() as u64;
    let lossy = (hide > 0.0 || withheld_count > 0).then(|| {
        let refined = refine_csags(&analyzer(), txs, &snapshot, &env, 1);
        let mut csags = hidden_keys(&refined, hide, 5);
        for (csag, _) in csags.iter_mut().zip(withheld).filter(|(_, &w)| w) {
            *csag = CSag::optimistic();
        }
        csags
    });

    for kind in ExecutorKind::ALL {
        let config = ParallelConfig {
            threads,
            ..ParallelConfig::default()
        };
        let engine = kind.build(analyzer(), config, None);
        let outcome = match &lossy {
            Some(csags) => engine.execute_block_with_csags(txs, &snapshot, &env, csags),
            None => engine.execute_block(txs, &snapshot, &env),
        };
        let label = format!("{} (threads={threads}, hide={hide})", kind.label());
        assert_eq!(
            outcome.final_writes, trace.final_writes,
            "write sets diverged: {label}"
        );
        assert_eq!(
            outcome.statuses, serial_statuses,
            "statuses diverged: {label}"
        );
        assert_eq!(outcome.gas_used, serial_gas, "gas diverged: {label}");
        assert_eq!(
            StateDb::with_genesis(genesis()).commit(&outcome.final_writes),
            serial_root,
            "Merkle roots diverged: {label}"
        );

        let stats = &outcome.stats;
        assert!(stats.attempts >= n, "every transaction executes: {label}");
        match kind {
            ExecutorKind::Sharded => assert_eq!(stats.optimistic_txs, 0, "{label}"),
            // Every transaction validates exactly once at its commit
            // turn, re-executes at most once, and counts as optimistic.
            ExecutorKind::Stm => {
                assert_eq!(stats.validations, n, "{label}");
                assert_eq!(stats.optimistic_txs, n, "{label}");
                assert_eq!(stats.attempts, n + stats.validation_failures, "{label}");
                assert!(stats.validation_failures <= n, "{label}");
            }
            // The router strips every speculative-tier transaction to
            // optimistic along with every withheld one.
            ExecutorKind::Hybrid => {
                assert!(stats.optimistic_txs >= withheld_count, "{label}");
                assert!(stats.optimistic_txs <= n, "{label}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn parallel_equals_serial_precise_analysis(
        raw in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..24),
        threads in 1usize..5,
    ) {
        let txs: Vec<Transaction> = raw
            .into_iter()
            .map(|(c, s, k, a, b)| decode_tx(c, s, k, a, b))
            .collect();
        check_block(&txs, threads, 0.0, &[]);
    }

    #[test]
    fn parallel_equals_serial_lossy_analysis(
        raw in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..16),
        hide in prop::sample::select(vec![0.25f64, 0.5, 1.0]),
    ) {
        let txs: Vec<Transaction> = raw
            .into_iter()
            .map(|(c, s, k, a, b)| decode_tx(c, s, k, a, b))
            .collect();
        check_block(&txs, 4, hide, &[]);
    }

    #[test]
    fn stm_and_hybrid_equal_serial(
        raw in prop::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
            1..24,
        ),
        threads in 1usize..5,
    ) {
        // The sixth byte withholds the predictions of ~a quarter of the
        // block, so the hybrid run always carries a mixed population.
        let (txs, withheld): (Vec<Transaction>, Vec<bool>) = raw
            .into_iter()
            .map(|(c, s, k, a, b, o)| decode_tx_opaque(c, s, k, a, b, o))
            .unzip();
        check_block(&txs, threads, 0.0, &withheld);
    }

    #[test]
    fn stm_and_hybrid_equal_serial_lossy(
        raw in prop::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
            1..16,
        ),
        hide in prop::sample::select(vec![0.25f64, 0.5, 1.0]),
    ) {
        let (txs, withheld): (Vec<Transaction>, Vec<bool>) = raw
            .into_iter()
            .map(|(c, s, k, a, b, o)| decode_tx_opaque(c, s, k, a, b, o))
            .unzip();
        check_block(&txs, 4, hide, &withheld);
    }
}

#[test]
fn long_dependent_chain_all_threads() {
    // A pathological chain: every tx reads the previous one's write.
    use dmvcc_integration_tests::COUNTER;
    use dmvcc_primitives::Address;
    use dmvcc_vm::{calldata, contracts, TxEnv};
    let txs: Vec<Transaction> = (0..30)
        .map(|i| {
            Transaction::call(TxEnv::call(
                Address::from_u64(100 + i),
                Address::from_u64(COUNTER),
                calldata(contracts::counter_fn::INCREMENT_CHECKED, &[]),
            ))
        })
        .collect();
    for threads in [1, 2, 4, 8] {
        // The chain is also the STM worst case: every optimistic execution
        // except the frontier's reads stale state and re-executes at its
        // commit turn — convergence and equivalence must still hold.
        check_block(&txs, threads, 0.0, &[]);
    }
}

#[test]
fn repeated_nft_mints_resolve_sequence_numbers() {
    // NFT mints mispredict the id under stale snapshots: the abort /
    // versioning machinery must still converge to the serial ids.
    use dmvcc_integration_tests::NFT;
    use dmvcc_primitives::Address;
    use dmvcc_vm::{calldata, contracts, TxEnv};
    let txs: Vec<Transaction> = (0..12)
        .map(|i| {
            Transaction::call(TxEnv::call(
                Address::from_u64(100 + i),
                Address::from_u64(NFT),
                calldata(contracts::nft_fn::MINT, &[]),
            ))
        })
        .collect();
    check_block(&txs, 4, 0.0, &[]);
}

#[test]
fn published_kind_differing_from_predicted_kind_matches_serial() {
    // tx1 writes slot 0 on one branch and commutatively adds to it on the
    // other; tx0 flips the flag the branch tests, so tx1's C-SAG (refined
    // against the snapshot) predicts the kind it will *not* execute. tx2
    // reads slot 0 above it. The store must serve what tx1 published, not
    // what was predicted for it.
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::StateKey;
    use dmvcc_vm::{assemble, calldata, CodeRegistry, ExecStatus, TxEnv};
    let code = assemble(
        r"
PUSH1 0 CALLDATALOAD
DUP1 PUSH 1 EQ PUSH @flag JUMPI
DUP1 PUSH 2 EQ PUSH @switch JUMPI
DUP1 PUSH 3 EQ PUSH @copy JUMPI
STOP
flag: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 1 SSTORE
  STOP
switch: JUMPDEST
  PUSH1 1 SLOAD PUSH @add JUMPI
  PUSH1 100 PUSH1 0 SSTORE
  STOP
add: JUMPDEST
  PUSH1 5 PUSH1 0 SADD
  STOP
copy: JUMPDEST
  PUSH1 0 SLOAD PUSH1 2 SSTORE
  STOP
",
    )
    .expect("switch contract must assemble");
    let contract = Address::from_u64(4242);
    let analyzer = Analyzer::new(CodeRegistry::builder().deploy(contract, code).build());
    let slot = |i: u64| StateKey::storage(contract, U256::from(i));
    let call = |sender: u64, selector: u64, args: &[U256]| {
        Transaction::call(TxEnv::call(
            Address::from_u64(sender),
            contract,
            calldata(selector, args),
        ))
    };
    let env = BlockEnv::new(1, 1_700_000_000);
    // (flag before, flag tx0 sets, slot 0 after): predicted ω executed as
    // ω̄, then the mirror.
    for (before, after, expected) in [(0u64, 1u64, 12u64), (1, 0, 100)] {
        let snapshot =
            Snapshot::from_entries([(slot(0), U256::from(7u64)), (slot(1), U256::from(before))]);
        let txs = [
            call(100, 1, &[U256::from(after)]),
            call(101, 2, &[]),
            call(102, 3, &[]),
        ];
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        assert_eq!(
            trace.final_writes.get(&slot(0)),
            Some(&U256::from(expected))
        );
        assert_eq!(
            trace.final_writes.get(&slot(2)),
            Some(&U256::from(expected))
        );
        for kind in ExecutorKind::ALL {
            for threads in [1, 2, 4] {
                let config = ParallelConfig {
                    threads,
                    ..ParallelConfig::default()
                };
                let outcome = kind
                    .build(analyzer.clone(), config, None)
                    .execute_block(&txs, &snapshot, &env);
                let label = format!(
                    "{} (threads={threads}, flag {before}→{after})",
                    kind.label()
                );
                assert_eq!(outcome.final_writes, trace.final_writes, "{label}");
                assert_eq!(outcome.statuses, vec![ExecStatus::Success; 3], "{label}");
            }
        }
    }
}
