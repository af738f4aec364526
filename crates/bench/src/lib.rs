//! Shared harness for the paper-figure benchmark binaries.
//!
//! Each binary regenerates one table/figure of the paper's evaluation:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig7a` | Fig. 7(a): speedup vs threads, realistic workload |
//! | `fig7b` | Fig. 7(b): speedup vs threads, high contention |
//! | `fig8a` | Fig. 8(a): testnet throughput speedup, low contention |
//! | `fig8b` | Fig. 8(b): testnet throughput speedup, high contention |
//! | `rq1`   | RQ1: Merkle-root equality of parallel vs serial |
//! | `rq2`   | RQ2: abort rates, DMVCC vs OCC, + analysis-accuracy sweep |
//! | `ablation` | feature ablations (early write, commutative, versioning, DAG granularity) |
//!
//! Every binary prints a human-readable table and writes a JSON artifact
//! under `bench-results/` for `EXPERIMENTS.md`. Scale knobs come from the
//! environment so CI can run small while full runs match the paper:
//! `DMVCC_BLOCKS` (blocks per experiment), `DMVCC_BLOCK_SIZE`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;

use serde::Serialize;

use dmvcc_analysis::Analyzer;
use dmvcc_chain::{block_env, run_testnet, ChainConfig, TestnetConfig};
use dmvcc_core::{execute_block_serial, refine_csags, BlockTrace};
use dmvcc_sim::{
    charge, contract_level, simulate_dag, simulate_dmvcc, without_commutativity,
    without_early_writes, without_versioning, SchedulerKind, SimReport,
};
use dmvcc_state::Snapshot;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

/// Thread counts evaluated by the figures (the paper sweeps 1–32).
pub const THREAD_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Reads a scale knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One data point of a speedup figure.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedupPoint {
    /// Scheduler label ("DMVCC", "OCC", "DAG", ...).
    pub scheduler: String,
    /// Thread count.
    pub threads: usize,
    /// Speedup over serial execution (averaged over blocks).
    pub speedup: f64,
    /// Abort rate over all attempts.
    pub abort_rate: f64,
    /// Total aborts.
    pub aborts: u64,
}

/// A fully prepared block: the transactions' reference trace and C-SAGs.
pub struct PreparedBlock {
    /// The reference (serial) trace.
    pub trace: BlockTrace,
    /// One C-SAG per transaction.
    pub csags: Vec<dmvcc_analysis::CSag>,
}

/// Generates `blocks` prepared blocks of `block_size` transactions under
/// `workload`, committing each block's writes so later blocks run against
/// evolved state (the paper repacks the mainnet stream into consecutive
/// 1 000-tx blocks).
pub fn prepare_blocks(
    workload: &WorkloadConfig,
    blocks: usize,
    block_size: usize,
) -> Vec<PreparedBlock> {
    let mut generator = WorkloadGenerator::new(workload.clone());
    let analyzer = Analyzer::new(generator.registry().clone());
    let mut snapshot = Snapshot::from_entries(generator.genesis_entries());
    let mut out = Vec::with_capacity(blocks);
    for height in 1..=blocks as u64 {
        let txs = generator.block(block_size);
        let env = block_env(height);
        let csags = refine_csags(&analyzer, &txs, &snapshot, &env, 1);
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        snapshot = snapshot.apply(&trace.final_writes);
        out.push(PreparedBlock { trace, csags });
    }
    out
}

/// `run`'s reports over every block, accumulated into one point.
fn point(
    scheduler: &str,
    threads: usize,
    prepared: &[PreparedBlock],
    run: impl Fn(&PreparedBlock) -> SimReport,
) -> SpeedupPoint {
    let mut total = SimReport::zero(threads);
    for block in prepared {
        total.accumulate(&run(block));
    }
    SpeedupPoint {
        scheduler: scheduler.to_string(),
        threads,
        speedup: total.speedup(),
        abort_rate: total.abort_rate(),
        aborts: total.aborts,
    }
}

/// The scheduler series plotted by Fig. 7.
pub fn speedup_series(prepared: &[PreparedBlock], threads_sweep: &[usize]) -> Vec<SpeedupPoint> {
    let mut points = Vec::new();
    for &threads in threads_sweep {
        for scheduler in [SchedulerKind::Dag, SchedulerKind::Occ, SchedulerKind::Dmvcc] {
            points.push(point(scheduler.label(), threads, prepared, |p| {
                scheduler.simulate(&p.trace, &p.csags, threads)
            }));
        }
    }
    points
}

/// Ablation series: DMVCC with one feature taken out of its inputs at a
/// time, plus the DAG baseline over contract-level sets.
pub fn ablation_series(prepared: &[PreparedBlock], threads_sweep: &[usize]) -> Vec<SpeedupPoint> {
    type Variant = (&'static str, fn(&PreparedBlock, usize) -> SimReport);
    let variants: [Variant; 5] = [
        ("DMVCC", |p, t| simulate_dmvcc(&p.trace, &p.csags, t)),
        ("DMVCC -early-write", |p, t| {
            simulate_dmvcc(&without_early_writes(&p.trace), &p.csags, t)
        }),
        ("DMVCC -commutative", |p, t| {
            simulate_dmvcc(&p.trace, &without_commutativity(&p.csags), t)
        }),
        ("DMVCC -versioning", |p, t| {
            simulate_dmvcc(&p.trace, &without_versioning(&p.csags), t)
        }),
        ("DAG (contract-level)", |p, t| {
            simulate_dag(&contract_level(&p.trace), t)
        }),
    ];
    let mut points = Vec::new();
    for &threads in threads_sweep {
        for (label, run) in variants {
            points.push(point(label, threads, prepared, |p| run(p, threads)));
        }
    }
    points
}

/// One data point of a testnet throughput figure.
#[derive(Debug, Serialize)]
struct ThroughputPoint {
    scheduler: String,
    threads: usize,
    tps: f64,
    throughput_speedup: f64,
    aborts: u64,
}

/// A Fig. 8 panel: runs the execution-bound testnet once on `workload`
/// (seed 42, `DMVCC_BLOCKS` blocks of `DMVCC_BLOCK_SIZE` transactions),
/// asserts that every sealed header is the serial oracle's, and charges the
/// chain to DAG, OCC and DMVCC at every thread count of [`THREAD_SWEEP`]
/// with one block mined per second. Prints `heading(blocks, block_size)`,
/// the throughput speedups over the serial chain and `paper_note`, and
/// writes the points as `bench-results/<name>.json`.
pub fn testnet_figure(
    name: &str,
    workload: fn(u64) -> WorkloadConfig,
    heading: fn(usize, usize) -> String,
    paper_note: &str,
) {
    const MINING_INTERVAL_SECS: f64 = 1.0;
    let blocks = env_usize("DMVCC_BLOCKS", 2);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 5_000);
    let bound = TestnetConfig::execution_bound(42);
    let report = run_testnet(&TestnetConfig {
        chain: ChainConfig {
            blocks,
            block_size,
            workload: workload(42),
            ..bound.chain
        },
        ..bound
    });
    assert!(
        report.roots_consistent(),
        "a sealed header differs from the serial oracle's"
    );
    let serial = charge(&report, SchedulerKind::Serial, 1, MINING_INTERVAL_SECS);
    println!("\n== {} ==", heading(blocks, block_size));
    println!(
        "serial: {:.0} TPS ({:.1}s execution)",
        serial.tps, serial.execution_seconds
    );
    println!("{:>8}{:>16}{:>16}{:>16}", "threads", "DAG", "OCC", "DMVCC");
    let mut points = Vec::new();
    for threads in THREAD_SWEEP {
        print!("{threads:>8}");
        for scheduler in [SchedulerKind::Dag, SchedulerKind::Occ, SchedulerKind::Dmvcc] {
            let charged = charge(&report, scheduler, threads, MINING_INTERVAL_SECS);
            let speedup = charged.tps / serial.tps;
            print!("{speedup:>14.2}x ");
            points.push(ThroughputPoint {
                scheduler: scheduler.label().to_string(),
                threads,
                tps: charged.tps,
                throughput_speedup: speedup,
                aborts: charged.aborts,
            });
        }
        println!();
    }
    println!("{paper_note}");
    write_json(name, &points);
}

/// Prints a speedup table grouped by thread count.
pub fn print_speedup_table(title: &str, points: &[SpeedupPoint]) {
    println!("\n== {title} ==");
    let mut schedulers: Vec<&str> = Vec::new();
    for p in points {
        if !schedulers.contains(&p.scheduler.as_str()) {
            schedulers.push(&p.scheduler);
        }
    }
    print!("{:>8}", "threads");
    for s in &schedulers {
        print!("{s:>22}");
    }
    println!();
    let mut threads_seen: Vec<usize> = Vec::new();
    for p in points {
        if !threads_seen.contains(&p.threads) {
            threads_seen.push(p.threads);
        }
    }
    for &t in &threads_seen {
        print!("{t:>8}");
        for s in &schedulers {
            if let Some(p) = points.iter().find(|p| p.threads == t && p.scheduler == *s) {
                print!("{:>15.2}x ({:>3.0}%)", p.speedup, p.abort_rate * 100.0);
            } else {
                print!("{:>22}", "-");
            }
        }
        println!();
    }
    println!("(percentages are abort rates)");
}

/// Writes a JSON artifact under `bench-results/`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("bench-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut file) = std::fs::File::create(&path) {
        if let Ok(text) = serde_json::to_string_pretty(value) {
            let _ = file.write_all(text.as_bytes());
            println!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_experiment_end_to_end() {
        let workload = WorkloadConfig {
            accounts: 60,
            token_contracts: 4,
            amm_contracts: 2,
            nft_contracts: 1,
            counter_contracts: 1,
            ballot_contracts: 1,
            fig1_contracts: 1,
            ..WorkloadConfig::ethereum_mix(3)
        };
        let prepared = prepare_blocks(&workload, 2, 30);
        assert_eq!(prepared.len(), 2);
        let points = speedup_series(&prepared, &[1, 4]);
        assert_eq!(points.len(), 6);
        // Serial sanity: one thread ⇒ no scheduler beats 1.0 by definition.
        for p in points.iter().filter(|p| p.threads == 1) {
            assert!(p.speedup <= 1.0 + 1e-9, "{p:?}");
        }
        // Four threads must help somebody.
        assert!(points
            .iter()
            .filter(|p| p.threads == 4)
            .any(|p| p.speedup > 1.0));
    }

    #[test]
    fn ablation_variants_cover_features() {
        let workload = WorkloadConfig {
            accounts: 60,
            token_contracts: 4,
            amm_contracts: 2,
            nft_contracts: 1,
            counter_contracts: 1,
            ballot_contracts: 1,
            fig1_contracts: 1,
            ..WorkloadConfig::high_contention(3)
        };
        let prepared = prepare_blocks(&workload, 1, 40);
        let points = ablation_series(&prepared, &[8]);
        assert_eq!(points.len(), 5);
        let full = points.iter().find(|p| p.scheduler == "DMVCC").unwrap();
        for p in &points {
            assert!(
                p.speedup <= full.speedup + 1e-9,
                "{} beat full DMVCC",
                p.scheduler
            );
        }
    }

    #[test]
    fn env_knob_parsing() {
        assert_eq!(env_usize("DMVCC_NONEXISTENT_KNOB_XYZ", 7), 7);
    }
}
