//! Scheduler-level invariants, property-tested over random blocks:
//!
//! - any schedule's makespan lies between the critical single-transaction
//!   cost and the serial cost,
//! - one thread means serial time for every scheduler,
//! - full DMVCC dominates each of its own ablations,
//! - coarse DAG never beats precise DAG,
//! - attempts bookkeeping is consistent with aborts.

use proptest::prelude::*;

use dmvcc_core::{execute_block_serial, refine_csags, BlockTrace};
use dmvcc_integration_tests::{analyzer, decode_tx, genesis};
use dmvcc_sim::{
    contract_level, simulate_dag, simulate_dmvcc, simulate_occ, without_commutativity,
    without_early_writes, without_versioning,
};
use dmvcc_state::Snapshot;
use dmvcc_vm::{BlockEnv, Transaction};

fn prepare(raw: Vec<(u8, u8, u8, u8, u8)>) -> (BlockTrace, Vec<dmvcc_analysis::CSag>) {
    let txs: Vec<Transaction> = raw
        .into_iter()
        .map(|(c, s, k, a, b)| decode_tx(c, s, k, a, b))
        .collect();
    let snapshot = Snapshot::from_entries(genesis());
    let env = BlockEnv::new(1, 1_700_000_000);
    let reference = analyzer();
    let trace = execute_block_serial(&txs, &snapshot, &reference, &env);
    let csags = refine_csags(&reference, &txs, &snapshot, &env, 1);
    (trace, csags)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    #[test]
    fn makespan_bounds_hold_for_all_schedulers(
        raw in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..30),
        threads in 1usize..9,
    ) {
        let (trace, csags) = prepare(raw);
        let critical = trace.txs.iter().map(|t| t.gas_used).max().unwrap_or(0);
        let reports = [
            simulate_dag(&trace, threads),
            simulate_dag(&contract_level(&trace), threads),
            simulate_occ(&trace, threads),
            simulate_dmvcc(&trace, &csags, threads),
        ];
        for report in &reports {
            prop_assert!(report.makespan >= critical, "{report:?}");
            // OCC may exceed serial cost (retries); the pessimistic bound
            // is attempts * critical.
            prop_assert!(
                report.makespan <= report.attempts * critical.max(1),
                "{report:?}"
            );
            prop_assert_eq!(report.attempts, trace.txs.len() as u64 + report.aborts);
        }
        // Non-optimistic schedulers never exceed serial.
        prop_assert!(reports[0].makespan <= trace.total_gas);
        prop_assert!(reports[1].makespan <= trace.total_gas);
        prop_assert!(reports[3].makespan <= trace.total_gas);
    }

    #[test]
    fn one_thread_is_serial_for_all(
        raw in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..20),
    ) {
        let (trace, csags) = prepare(raw);
        prop_assert_eq!(simulate_dag(&trace, 1).makespan, trace.total_gas);
        prop_assert_eq!(simulate_dag(&contract_level(&trace), 1).makespan, trace.total_gas);
        prop_assert_eq!(simulate_dmvcc(&trace, &csags, 1).makespan, trace.total_gas);
        // Eager OCC on one thread picks up txs in order: serial, no aborts.
        let occ = simulate_occ(&trace, 1);
        prop_assert_eq!(occ.makespan, trace.total_gas);
        prop_assert_eq!(occ.aborts, 0);
    }

    #[test]
    fn full_dmvcc_dominates_its_ablations_modulo_anomalies(
        raw in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..30),
        threads in 2usize..9,
    ) {
        // Greedy list scheduling exhibits Graham anomalies: adding
        // constraints can occasionally *shorten* a schedule. Dominance
        // therefore holds up to a bounded anomaly factor, not pointwise.
        let (trace, csags) = prepare(raw);
        let full = simulate_dmvcc(&trace, &csags, threads);
        for (variant, report) in [
            ("-early-write", simulate_dmvcc(&without_early_writes(&trace), &csags, threads)),
            ("-commutative", simulate_dmvcc(&trace, &without_commutativity(&csags), threads)),
            ("-versioning", simulate_dmvcc(&trace, &without_versioning(&csags), threads)),
        ] {
            prop_assert!(
                (report.makespan as f64) >= full.makespan as f64 * 0.8,
                "ablation {variant} beat full DMVCC beyond anomaly bounds: {} < {}",
                report.makespan,
                full.makespan
            );
        }
    }

    #[test]
    fn simulators_are_deterministic(
        raw in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..25),
        threads in 1usize..9,
    ) {
        let (trace, csags) = prepare(raw);
        let a = simulate_dmvcc(&trace, &csags, threads);
        let b = simulate_dmvcc(&trace, &csags, threads);
        prop_assert_eq!(a, b);
        prop_assert_eq!(simulate_occ(&trace, threads), simulate_occ(&trace, threads));
        prop_assert_eq!(simulate_dag(&trace, threads), simulate_dag(&trace, threads));
    }

    #[test]
    fn coarse_dag_never_beats_precise_modulo_anomalies(
        raw in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..30),
        threads in 1usize..9,
    ) {
        let (trace, _) = prepare(raw);
        let precise = simulate_dag(&trace, threads);
        let coarse = simulate_dag(&contract_level(&trace), threads);
        // Modulo Graham anomalies of greedy list scheduling (see above).
        prop_assert!((coarse.makespan as f64) >= precise.makespan as f64 * 0.8);
        // On one thread both are exactly serial: no anomaly possible.
        if threads == 1 {
            prop_assert_eq!(coarse.makespan, precise.makespan);
        }
    }
}
