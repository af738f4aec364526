//! The paper's worked example (§III, Fig. 4–6), reconstructed exactly.
//!
//! Six transactions over three state items on three threads:
//!
//! - `T1: ω(I1)`, `T3: ρ(I1)`, `T5: ω(I1)` — write versioning lets T1 and
//!   T5 run in parallel while T3 reads T1's version specifically;
//! - `T2: ω̄(I2)`, `T4: ω̄(I2)` — commutative increments that the baseline
//!   treats as a conflict but DMVCC runs concurrently (Fig. 6);
//! - `T6: ρ(I2)` — reads the merged value, so it waits for both deltas;
//! - early-write visibility publishes T1's version at its release point,
//!   letting T3 start before T1 finishes.
//!
//! The test builds the traces synthetically (uniform cost `G`, release
//! points at 30 % of the body, writes at 80 %) and checks the schedule
//! shapes the paper's Fig. 4(b) vs Fig. 6 comparison describes.

use std::collections::HashMap;

use dmvcc_analysis::{AccessKind, CSag, ReleasePoint};
use dmvcc_core::{BlockTrace, ReadRecord, TxTrace};
use dmvcc_primitives::{Address, U256};
use dmvcc_sim::{simulate_dmvcc, without_commutativity, without_early_writes, without_versioning};
use dmvcc_state::StateKey;
use dmvcc_vm::ExecStatus;

const G: u64 = 10_000; // uniform virtual cost per transaction
const RELEASE_AT: u64 = 3_000;
const WRITE_AT: u64 = 8_000;
const READ_AT: u64 = 2_000;

fn item(i: u64) -> StateKey {
    StateKey::storage(Address::from_u64(500), U256::from(i))
}

struct Spec {
    reads: Vec<(StateKey, Vec<usize>)>,
    writes: Vec<StateKey>,
    adds: Vec<StateKey>,
}

fn build(specs: Vec<Spec>) -> (BlockTrace, Vec<CSag>) {
    let mut txs = Vec::new();
    let mut csags = Vec::new();
    for (index, spec) in specs.into_iter().enumerate() {
        let mut write_offsets = HashMap::new();
        let mut trace_writes = std::collections::BTreeMap::new();
        let mut trace_adds = std::collections::BTreeMap::new();
        let mut accesses = Vec::new();
        for key in &spec.writes {
            write_offsets.insert(*key, WRITE_AT);
            trace_writes.insert(*key, U256::from(index as u64 + 1));
            accesses.push((*key, AccessKind::Write, 50));
        }
        for key in &spec.adds {
            write_offsets.insert(*key, WRITE_AT);
            trace_adds.insert(*key, U256::ONE);
            accesses.push((*key, AccessKind::Add, 50));
        }
        let mut reads = Vec::new();
        for (key, sources) in &spec.reads {
            reads.push(ReadRecord {
                key: *key,
                sources: sources.clone(),
                gas_offset: READ_AT,
            });
            accesses.push((*key, AccessKind::Read, 20));
        }
        let release = ReleasePoint {
            pc: 100,
            gas_bound: G - RELEASE_AT,
        };
        let csag = CSag {
            release_points: vec![release].into(),
            predicted_success: true,
            predicted_gas: G,
            ..CSag::from_accesses(accesses)
        };
        txs.push(TxTrace {
            index,
            status: ExecStatus::Success,
            gas_used: G,
            reads,
            writes: trace_writes,
            adds: trace_adds,
            write_offsets,
            release_offset: Some(RELEASE_AT),
        });
        csags.push(csag);
    }
    let total = txs.iter().map(|t| t.gas_used).sum();
    (
        BlockTrace {
            txs,
            final_writes: Default::default(),
            total_gas: total,
        },
        csags,
    )
}

/// The six transactions of Fig. 4.
fn figure4() -> (BlockTrace, Vec<CSag>) {
    build(vec![
        // T1: ω(I1)
        Spec {
            reads: vec![],
            writes: vec![item(1)],
            adds: vec![],
        },
        // T2: ω̄(I2)
        Spec {
            reads: vec![],
            writes: vec![],
            adds: vec![item(2)],
        },
        // T3: ρ(I1) — reads T1's version
        Spec {
            reads: vec![(item(1), vec![0])],
            writes: vec![],
            adds: vec![],
        },
        // T4: ω̄(I2)
        Spec {
            reads: vec![],
            writes: vec![],
            adds: vec![item(2)],
        },
        // T5: ω(I1) — second writer of I1
        Spec {
            reads: vec![],
            writes: vec![item(1)],
            adds: vec![],
        },
        // T6: ρ(I2) — reads the merged increments of T2 and T4
        Spec {
            reads: vec![(item(2), vec![1, 3])],
            writes: vec![],
            adds: vec![],
        },
    ])
}

#[test]
fn full_dmvcc_schedules_like_figure_6() {
    let (trace, csags) = figure4();
    let report = simulate_dmvcc(&trace, &csags, 3);
    assert_eq!(report.aborts, 0);
    // Wave 1: T1, T2, T4 or T5 — everything except T3, T6 is dependency-
    // free thanks to versioning + commutativity. Six uniform transactions
    // with two dependants on three threads finish in at most three waves,
    // and early visibility lets T3 start at T1's publish (8 000 < 10 000).
    assert!(
        report.makespan <= 3 * G,
        "makespan {} exceeds three waves",
        report.makespan
    );
    // Strictly better than the transaction-level schedule of Fig. 4(b).
    let base = simulate_dmvcc(
        &without_early_writes(&trace),
        &without_commutativity(&csags),
        3,
    );
    assert!(
        report.makespan < base.makespan,
        "features must improve over Fig. 4(b): {} vs {}",
        report.makespan,
        base.makespan
    );
}

#[test]
fn write_versioning_lets_both_writers_of_i1_run_concurrently() {
    let (trace, csags) = figure4();
    let with = simulate_dmvcc(&trace, &csags, 3);
    let without = simulate_dmvcc(&trace, &without_versioning(&csags), 3);
    // Without versioning T5 chains behind T1 (and T3's anti-dependency
    // ordering is moot since reads don't block writes even then — the ww
    // edge alone must show up).
    assert!(without.makespan >= with.makespan);
}

#[test]
fn commutative_writes_merge_for_the_reader() {
    let (trace, csags) = figure4();
    // T6 depends on both T2 and T4. With commutativity the two adds run in
    // wave 1; without, T4 chains behind T2 and T6 behind T4. Six threads
    // isolate the dependency effect from thread-contention anomalies.
    let with = simulate_dmvcc(&trace, &csags, 6);
    let without = simulate_dmvcc(&trace, &without_commutativity(&csags), 6);
    // With: T4 publishes at WRITE_AT (8 000), T6 finishes at 18 000.
    assert_eq!(with.makespan, WRITE_AT + G);
    // Without: T4 waits for T2's publish, T6 for T4's — two extra hops.
    assert_eq!(without.makespan, 2 * WRITE_AT + G);
}

#[test]
fn early_visibility_starts_t3_before_t1_finishes() {
    let (trace, csags) = figure4();
    // Six threads: every dependency-free transaction starts at 0, so the
    // makespan is exactly the T1→T3 (or T2/T4→T6) chain length.
    let with = simulate_dmvcc(&trace, &csags, 6);
    let without = simulate_dmvcc(&without_early_writes(&trace), &csags, 6);
    // T3 starts at T1's publish (8 000) instead of its finish (10 000).
    assert_eq!(with.makespan, WRITE_AT + G);
    assert_eq!(without.makespan, 2 * G);
    assert!(with.makespan < without.makespan);
    // And on one thread everything is serial regardless.
    let serial = simulate_dmvcc(&trace, &csags, 1);
    assert_eq!(serial.makespan, trace.total_gas);
}

#[test]
fn figure5_unpredicted_writer_aborts_stale_reader() {
    // Fig. 5: T3 read T1's version of I; T2's write was not predicted and
    // arrives later — T3 must re-execute.
    let (mut trace, mut csags) = build(vec![
        // T1: ω(I1), known.
        Spec {
            reads: vec![],
            writes: vec![item(1)],
            adds: vec![],
        },
        // T2: ω(I1), *hidden* from analysis (patched below).
        Spec {
            reads: vec![],
            writes: vec![item(1)],
            adds: vec![],
        },
        // T3: ρ(I1) — truly sourced from T2 per serial order.
        Spec {
            reads: vec![(item(1), vec![1])],
            writes: vec![],
            adds: vec![],
        },
    ]);
    // Hide T2's write from its C-SAG (analysis imprecision).
    csags[1] = CSag {
        predicted_success: true,
        predicted_gas: G,
        ..CSag::default()
    };
    // Make T2 slower so its version lands after T3's optimistic read.
    trace.txs[1].gas_used = 3 * G;
    trace.txs[1].write_offsets.insert(item(1), 3 * G - 1_000);
    trace.txs[1].release_offset = Some(RELEASE_AT);
    trace.total_gas = trace.txs.iter().map(|t| t.gas_used).sum();

    let report = simulate_dmvcc(&trace, &csags, 3);
    assert!(report.aborts >= 1, "the stale read must abort T3");
    assert_eq!(report.attempts, 3 + report.aborts);
    // T3's re-execution completes after T2 publishes.
    assert!(report.makespan > 3 * G);
}
