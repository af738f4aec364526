//! RQ2 supplement: abort behaviour. The paper reports a DMVCC abort rate
//! below 2 % and "63 % fewer unnecessary aborts" than OCC. DMVCC's aborts
//! come from analysis imprecision, so this binary reports:
//!
//! 1. DMVCC vs OCC abort rates on both workloads with precise analysis,
//! 2. a sweep of injected analysis imprecision (`hide_fraction`: that
//!    share of the state keys hidden from every refined C-SAG,
//!    [`dmvcc_sim::hidden_keys`]) showing how DMVCC degrades gracefully
//!    toward OCC-like behaviour.

#![forbid(unsafe_code)]

use dmvcc_bench::{env_usize, prepare_blocks, write_json};
use dmvcc_sim::{hidden_keys, simulate_dmvcc, simulate_occ, SimReport};
use dmvcc_workload::WorkloadConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct AbortPoint {
    workload: String,
    hide_fraction: f64,
    dmvcc_abort_rate: f64,
    occ_abort_rate: f64,
    dmvcc_aborts: u64,
    occ_aborts: u64,
    reduction_vs_occ: f64,
}

fn main() {
    let blocks = env_usize("DMVCC_BLOCKS", 2);
    let block_size = env_usize("DMVCC_BLOCK_SIZE", 1_000);
    let threads = 32;
    let mut points = Vec::new();

    for (name, workload) in [
        ("realistic", WorkloadConfig::ethereum_mix(42)),
        ("high-contention", WorkloadConfig::high_contention(42)),
    ] {
        println!("\n== RQ2 — abort rates, {name} workload ==");
        println!(
            "{:>6}{:>18}{:>18}{:>14}",
            "hide", "DMVCC aborts", "OCC aborts", "reduction"
        );
        let prepared = prepare_blocks(&workload, blocks, block_size);
        for hide in [0.0, 0.01, 0.05, 0.10, 0.25] {
            let mut dmvcc = SimReport::zero(threads);
            let mut occ = SimReport::zero(threads);
            for block in &prepared {
                let csags = hidden_keys(&block.csags, hide, 1);
                dmvcc.accumulate(&simulate_dmvcc(&block.trace, &csags, threads));
                occ.accumulate(&simulate_occ(&block.trace, threads));
            }
            let reduction = if occ.aborts > 0 {
                1.0 - dmvcc.aborts as f64 / occ.aborts as f64
            } else {
                0.0
            };
            println!(
                "{:>5.0}%{:>11} ({:>4.1}%){:>11} ({:>4.1}%){:>13.0}%",
                hide * 100.0,
                dmvcc.aborts,
                dmvcc.abort_rate() * 100.0,
                occ.aborts,
                occ.abort_rate() * 100.0,
                reduction * 100.0,
            );
            points.push(AbortPoint {
                workload: name.to_string(),
                hide_fraction: hide,
                dmvcc_abort_rate: dmvcc.abort_rate(),
                occ_abort_rate: occ.abort_rate(),
                dmvcc_aborts: dmvcc.aborts,
                occ_aborts: occ.aborts,
                reduction_vs_occ: reduction,
            });
        }
    }
    println!("\npaper: DMVCC abort rate < 2%; 63% fewer unnecessary aborts than OCC");
    write_json("rq2", &points);
}
