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

use dmvcc_analysis::{AnalysisConfig, Analyzer};
use dmvcc_baselines::{simulate_dag, simulate_dag_coarse, simulate_occ};
use dmvcc_chain::block_env;
use dmvcc_core::{
    build_csags, execute_block_serial, simulate_dmvcc, BlockTrace, DmvccConfig, SimReport,
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
    analysis: AnalysisConfig,
) -> Vec<PreparedBlock> {
    let mut generator = WorkloadGenerator::new(workload.clone());
    let analyzer = Analyzer::with_config(generator.registry().clone(), analysis);
    let mut snapshot = Snapshot::from_entries(generator.genesis_entries());
    let mut out = Vec::with_capacity(blocks);
    for height in 1..=blocks as u64 {
        let txs = generator.block(block_size);
        let env = block_env(height);
        let csags = build_csags(&txs, &snapshot, &analyzer, &env);
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        snapshot = snapshot.apply(&trace.final_writes);
        out.push(PreparedBlock { trace, csags });
    }
    out
}

/// A boxed per-block scheduler runner.
type SchedulerRun = Box<dyn Fn(&PreparedBlock) -> SimReport>;

/// The scheduler series plotted by Fig. 7/Fig. 8.
pub fn speedup_series(prepared: &[PreparedBlock], threads_sweep: &[usize]) -> Vec<SpeedupPoint> {
    let mut points = Vec::new();
    for &threads in threads_sweep {
        let mut series: Vec<(&str, SchedulerRun)> = vec![
            (
                "DAG",
                Box::new(move |p: &PreparedBlock| simulate_dag(&p.trace, threads)),
            ),
            (
                "OCC",
                Box::new(move |p: &PreparedBlock| simulate_occ(&p.trace, threads)),
            ),
            (
                "DMVCC",
                Box::new(move |p: &PreparedBlock| {
                    simulate_dmvcc(&p.trace, &p.csags, &DmvccConfig::new(threads))
                }),
            ),
        ];
        for (label, run) in series.drain(..) {
            let mut total = SimReport::zero(threads);
            for block in prepared {
                total.accumulate(&run(block));
            }
            points.push(SpeedupPoint {
                scheduler: label.to_string(),
                threads,
                speedup: total.speedup(),
                abort_rate: total.abort_rate(),
                aborts: total.aborts,
            });
        }
    }
    points
}

/// Ablation series: DMVCC with individual features disabled, plus the
/// coarse-grained DAG.
pub fn ablation_series(prepared: &[PreparedBlock], threads_sweep: &[usize]) -> Vec<SpeedupPoint> {
    type Variant = (&'static str, fn(usize) -> DmvccConfig);
    let variants: [Variant; 4] = [
        ("DMVCC", DmvccConfig::new),
        ("DMVCC -early-write", |t| DmvccConfig {
            early_write: false,
            ..DmvccConfig::new(t)
        }),
        ("DMVCC -commutative", |t| DmvccConfig {
            commutative: false,
            ..DmvccConfig::new(t)
        }),
        ("DMVCC -versioning", |t| DmvccConfig {
            write_versioning: false,
            ..DmvccConfig::new(t)
        }),
    ];
    let mut points = Vec::new();
    for &threads in threads_sweep {
        for (label, make) in variants {
            let config = make(threads);
            let mut total = SimReport::zero(threads);
            for block in prepared {
                total.accumulate(&simulate_dmvcc(&block.trace, &block.csags, &config));
            }
            points.push(SpeedupPoint {
                scheduler: label.to_string(),
                threads,
                speedup: total.speedup(),
                abort_rate: total.abort_rate(),
                aborts: total.aborts,
            });
        }
        let mut coarse = SimReport::zero(threads);
        for block in prepared {
            coarse.accumulate(&simulate_dag_coarse(&block.trace, threads));
        }
        points.push(SpeedupPoint {
            scheduler: "DAG (contract-level)".to_string(),
            threads,
            speedup: coarse.speedup(),
            abort_rate: 0.0,
            aborts: 0,
        });
    }
    points
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
        let prepared = prepare_blocks(&workload, 2, 30, AnalysisConfig::default());
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
        let prepared = prepare_blocks(&workload, 1, 40, AnalysisConfig::default());
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
