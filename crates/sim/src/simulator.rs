//! The DMVCC scheduler, evaluated in virtual time.
//!
//! Implements the paper's scheduling semantics (Algorithms 1–4) over the
//! reference traces of [`dmvcc_core::execute_block_serial`]:
//!
//! - **Queue admission** (Algorithm 1): a transaction becomes ready once
//!   every *predicted* version it reads has been published by its writer.
//! - **Write versioning** (Algorithm 3): write-write overlaps impose no
//!   ordering (ablated by [`crate::without_versioning`]).
//! - **Early-write visibility** (Algorithm 2): a version is published when
//!   the writer passes its release point (and the key's last write), not at
//!   transaction end (ablated by [`crate::without_early_writes`]).
//! - **Commutative writes** (§IV-D): ω̄ increments neither wait for nor
//!   serialize against each other (ablated by
//!   [`crate::without_commutativity`]).
//! - **Aborts** (Algorithm 4): a read that consumed a version which a
//!   mispredicted (or re-executed) writer later replaces is stale; the
//!   reader re-executes, cascading to its own readers.
//!
//! Timing uses gas as virtual time; the final state is by construction the
//! serial state (deterministic serializability — the traces *are* the
//! serial execution), which mirrors the paper's Theorem 1 guarantee. What
//! this module computes is the schedule: makespan, abort counts, speedups.

use std::collections::HashMap;

use dmvcc_state::StateKey;

use dmvcc_analysis::CSag;
use dmvcc_core::BlockTrace;

use crate::sim::{SimReport, ThreadTimeline};

/// Hard cap on re-executions per transaction (safety bound; the protocol
/// converges far earlier).
const MAX_ATTEMPTS: u32 = 16;

#[derive(Debug, Clone)]
struct ScheduledTx {
    start: u64,
    finish: u64,
    /// (gas_offset, accumulated stall before this offset) steps, sorted.
    stalls: Vec<(u64, u64)>,
    attempts: u32,
    /// `true` once re-executed (its versions moved; predicted readers of
    /// the old version are stale — cascade).
    reexecuted: bool,
}

impl ScheduledTx {
    fn stall_before(&self, offset: u64) -> u64 {
        self.stalls
            .iter()
            .take_while(|&&(at, _)| at <= offset)
            .last()
            .map(|&(_, total)| total)
            .unwrap_or(0)
    }

    /// Wall-clock instant of an intra-transaction gas offset.
    fn instant(&self, offset: u64) -> u64 {
        self.start + offset + self.stall_before(offset)
    }
}

/// Simulates DMVCC over a block's reference trace and predictions.
///
/// `csags[i]` must be the C-SAG of `trace.txs[i]`.
///
/// # Panics
///
/// Panics if `csags.len() != trace.txs.len()`.
pub fn simulate_dmvcc(trace: &BlockTrace, csags: &[CSag], threads: usize) -> SimReport {
    assert_eq!(
        csags.len(),
        trace.txs.len(),
        "one C-SAG per transaction required"
    );
    let n = trace.txs.len();
    let mut timeline = ThreadTimeline::new(threads);

    let is_pred_writer =
        |i: usize, k: &StateKey| csags[i].writes.contains(k) || csags[i].adds.contains(k);

    // Publication instant of tx i's version of key k, given its schedule.
    let publish_instant = |i: usize, k: &StateKey, sched: &ScheduledTx| -> u64 {
        let tx = &trace.txs[i];
        if !tx.writes_key(k) || !tx.status.is_success() {
            // Never materializes: predicted readers are unblocked when the
            // transaction finishes and its entries are dropped.
            return sched.finish;
        }
        match tx.publish_offset(k) {
            Some(offset) => sched.instant(offset),
            None => sched.finish,
        }
    };

    // Running max, per key, of the publication instants of all *predicted*
    // writers scheduled so far (readers must wait for base + all deltas).
    let mut dep_max: HashMap<StateKey, u64> = HashMap::new();
    let mut schedules: Vec<ScheduledTx> = Vec::with_capacity(n);

    for (j, csag) in csags.iter().enumerate() {
        let cost = trace.txs[j].gas_used;
        let mut ready = 0u64;
        for k in &csag.reads {
            if let Some(&t) = dep_max.get(k) {
                ready = ready.max(t);
            }
        }
        let (start, _) = timeline.schedule(ready, cost);

        // Mid-flight blocking: an *unpredicted* read of a key some earlier
        // transaction predicted writing finds a pending entry in the access
        // sequence and waits there (this is how missing-SAG transactions
        // stay correct without aborting).
        let mut stalls: Vec<(u64, u64)> = Vec::new();
        let mut total_stall = 0u64;
        let mut reads: Vec<_> = trace.txs[j].reads.clone();
        reads.sort_by_key(|r| r.gas_offset);
        for read in &reads {
            if csag.reads.contains(&read.key) {
                continue; // queue admission already waited
            }
            let Some(&avail) = dep_max.get(&read.key) else {
                continue;
            };
            let read_instant = start + read.gas_offset + total_stall;
            if avail > read_instant {
                total_stall += avail - read_instant;
                stalls.push((read.gas_offset, total_stall));
            }
        }
        let finish = start + cost + total_stall;
        let sched = ScheduledTx {
            start,
            finish,
            stalls,
            attempts: 1,
            reexecuted: false,
        };
        // Publish: update dep_max for every predicted write-like key.
        for k in csag.written() {
            let t = publish_instant(j, k, &sched);
            let entry = dep_max.entry(*k).or_insert(0);
            *entry = (*entry).max(t);
        }
        schedules.push(sched);
    }

    // Abort pass: detect stale reads (unpredicted writers, or re-executed
    // predicted writers) and re-execute readers, cascading upward in index
    // order.
    let mut aborts = 0u64;
    loop {
        let mut victim: Option<(usize, u64)> = None;
        'scan: for j in 0..n {
            if schedules[j].attempts >= MAX_ATTEMPTS {
                continue;
            }
            for read in &trace.txs[j].reads {
                for &i in &read.sources {
                    let waited = is_pred_writer(i, &read.key) && !schedules[i].reexecuted;
                    if waited {
                        continue;
                    }
                    let pub_t = publish_instant(i, &read.key, &schedules[i]);
                    let read_t = schedules[j].instant(read.gas_offset);
                    if read_t < pub_t {
                        victim = Some((j, pub_t));
                        break 'scan;
                    }
                }
            }
        }
        let Some((j, detection)) = victim else { break };
        aborts += 1;
        // Re-execution: ready once every true dependency is published and
        // the staleness was detected.
        let mut ready = detection;
        for read in &trace.txs[j].reads {
            for &i in &read.sources {
                ready = ready.max(publish_instant(i, &read.key, &schedules[i]));
            }
        }
        let cost = trace.txs[j].gas_used;
        let (start, finish) = timeline.schedule(ready, cost);
        let attempts = schedules[j].attempts + 1;
        schedules[j] = ScheduledTx {
            start,
            finish,
            stalls: Vec::new(),
            attempts,
            reexecuted: true,
        };
    }

    // A re-executed writer's predicted readers were handled by the cascade
    // above (reexecuted ⇒ not "waited"). Makespan = last finish.
    let makespan = schedules.iter().map(|s| s.finish).max().unwrap_or(0);
    let busy_gas: u64 = trace
        .txs
        .iter()
        .zip(&schedules)
        .map(|(t, s)| t.gas_used * s.attempts as u64)
        .sum();
    SimReport {
        threads,
        makespan,
        serial_cost: trace.total_gas,
        aborts,
        attempts: n as u64 + aborts,
        busy_gas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hidden_keys, without_commutativity, without_early_writes, without_versioning};
    use dmvcc_analysis::Analyzer;
    use dmvcc_core::{execute_block_serial, refine_csags};
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::Snapshot;
    use dmvcc_vm::{calldata, contracts, BlockEnv, CodeRegistry, Transaction, TxEnv};

    const TOKEN: u64 = 700;
    const COUNTER: u64 = 701;

    fn registry() -> CodeRegistry {
        CodeRegistry::builder()
            .deploy(Address::from_u64(TOKEN), contracts::token())
            .deploy(Address::from_u64(COUNTER), contracts::counter())
            .build()
    }

    fn analyzer() -> Analyzer {
        Analyzer::new(registry())
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

    fn transfer(caller: u64, to: u64, amount: u64) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(TOKEN),
            calldata(
                contracts::token_fn::TRANSFER,
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

    fn increment(caller: u64) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(COUNTER),
            calldata(contracts::counter_fn::INCREMENT, &[]),
        ))
    }

    fn prepare(txs: &[Transaction]) -> (BlockTrace, Vec<CSag>) {
        let a = analyzer();
        let snapshot = Snapshot::empty();
        let block_env = BlockEnv::default();
        let trace = execute_block_serial(txs, &snapshot, &a, &block_env);
        let csags = refine_csags(&a, txs, &snapshot, &block_env, 1);
        (trace, csags)
    }

    fn run(txs: &[Transaction], threads: usize) -> (SimReport, BlockTrace) {
        let (trace, csags) = prepare(txs);
        (simulate_dmvcc(&trace, &csags, threads), trace)
    }

    #[test]
    fn independent_txs_scale_linearly() {
        // 8 mints to distinct accounts on 8 threads: near-perfect speedup.
        let txs: Vec<_> = (0..8).map(|i| mint(900 + i, 10 + i, 5)).collect();
        let (report, trace) = run(&txs, 8);
        assert_eq!(report.aborts, 0);
        let max_cost = trace.txs.iter().map(|t| t.gas_used).max().unwrap();
        assert_eq!(report.makespan, max_cost);
        assert!(report.speedup() > 7.0);
    }

    #[test]
    fn serial_chain_gets_no_speedup_without_features() {
        // increment_checked chains: each reads the previous write.
        let txs: Vec<_> = (0..6).map(|i| increment_checked(900 + i)).collect();
        let (trace, csags) = prepare(&txs);
        let report = simulate_dmvcc(&without_early_writes(&trace), &csags, 8);
        // Fully serialized: makespan equals serial cost.
        assert_eq!(report.makespan, report.serial_cost);
        assert_eq!(report.aborts, 0);
    }

    #[test]
    fn early_write_shortens_rmw_chain() {
        let txs: Vec<_> = (0..6).map(|i| increment_checked(900 + i)).collect();
        let (trace, csags) = prepare(&txs);
        let slow = simulate_dmvcc(&without_early_writes(&trace), &csags, 8);
        let fast = simulate_dmvcc(&trace, &csags, 8);
        // The counter RMW writes at the very end of the body, so early
        // visibility publishes at the write offset — which is still before
        // the STOP dispatch epilogue; gains are modest but strictly
        // positive.
        assert!(
            fast.makespan <= slow.makespan,
            "early write must not slow down: {} vs {}",
            fast.makespan,
            slow.makespan
        );
    }

    #[test]
    fn commutative_increments_run_parallel() {
        let txs: Vec<_> = (0..8).map(|i| increment(900 + i)).collect();
        let (trace, csags) = prepare(&txs);
        let fast = simulate_dmvcc(&trace, &csags, 8);
        assert_eq!(fast.aborts, 0);
        assert!(fast.speedup() > 7.0, "speedup {}", fast.speedup());

        let slow = simulate_dmvcc(&trace, &without_commutativity(&csags), 8);
        assert!(
            slow.makespan > fast.makespan,
            "disabling commutativity must serialize the adds"
        );
    }

    #[test]
    fn write_versioning_removes_ww_ordering() {
        // Several transfers from distinct senders to the same recipient:
        // with commutativity ON they are adds anyway, so test pure writes:
        // distinct sender balances (no conflicts) but same-recipient SADDs
        // collapse under !write_versioning && !commutative.
        let txs: Vec<_> = (0..6).map(|i| mint(900 + i, 42, 5)).collect();
        let (trace, csags) = prepare(&txs);
        let strict = without_versioning(&without_commutativity(&csags));
        let slow = simulate_dmvcc(&trace, &strict, 8);
        let fast = simulate_dmvcc(&trace, &csags, 8);
        assert!(slow.makespan > fast.makespan);
    }

    #[test]
    fn predicted_dependency_orders_transactions() {
        // mint then transfer of the minted funds: transfer must wait.
        let txs = vec![mint(900, 1, 100), transfer(1, 2, 30)];
        let (report, trace) = run(&txs, 8);
        assert_eq!(report.aborts, 0);
        // Makespan exceeds the longest single tx: there is a real chain.
        let max_cost = trace.txs.iter().map(|t| t.gas_used).max().unwrap();
        assert!(report.makespan > max_cost);
        // But thanks to early visibility it is less than full serial.
        assert!(report.makespan < report.serial_cost);
    }

    #[test]
    fn hidden_writes_cause_aborts_and_still_terminate() {
        // Hide all analysis: every dependency becomes a stale-read abort,
        // the scheduler degrades to OCC-style re-execution.
        let a = analyzer();
        let snapshot = Snapshot::empty();
        let block_env = BlockEnv::default();
        let txs = vec![mint(900, 1, 100), transfer(1, 2, 30), transfer(2, 3, 10)];
        let trace = execute_block_serial(&txs, &snapshot, &a, &block_env);
        let csags = hidden_keys(&refine_csags(&a, &txs, &snapshot, &block_env, 1), 1.0, 3);
        let report = simulate_dmvcc(&trace, &csags, 4);
        assert!(report.aborts > 0, "hidden deps must abort");
        assert_eq!(report.attempts, 3 + report.aborts);
    }

    #[test]
    fn makespan_never_below_critical_path_or_above_serial() {
        let txs = vec![
            mint(900, 1, 100),
            transfer(1, 2, 30),
            transfer(2, 3, 10),
            mint(901, 5, 7),
            increment(902),
            increment(903),
        ];
        for threads in [1, 2, 4, 8, 32] {
            let (report, trace) = run(&txs, threads);
            let max_cost = trace.txs.iter().map(|t| t.gas_used).max().unwrap();
            assert!(report.makespan >= max_cost);
            assert!(report.makespan <= report.serial_cost);
        }
    }

    #[test]
    fn one_thread_equals_serial() {
        let txs = vec![mint(900, 1, 100), transfer(1, 2, 30), increment(901)];
        let (report, _) = run(&txs, 1);
        assert_eq!(report.makespan, report.serial_cost);
        assert!((report.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_threads_never_slower() {
        let txs: Vec<_> = (0..16)
            .map(|i| {
                if i % 3 == 0 {
                    mint(900 + i, 50 + i, 5)
                } else {
                    increment(900 + i)
                }
            })
            .collect();
        let mut last = u64::MAX;
        for threads in [1, 2, 4, 8, 16] {
            let (report, _) = run(&txs, threads);
            assert!(report.makespan <= last);
            last = report.makespan;
        }
    }

    #[test]
    #[should_panic(expected = "one C-SAG per transaction")]
    fn mismatched_inputs_panic() {
        let (_, trace) = run(&[mint(900, 1, 5)], 2);
        simulate_dmvcc(&trace, &[], 2);
    }
}
