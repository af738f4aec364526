//! The generator's output, pinned byte for byte.
//!
//! Every figure, DST seed and benchmark reads its input from
//! `WorkloadGenerator`, so a change to how the generator computes its
//! output must not change the output. This test hashes the genesis
//! allocation and the first three blocks of every profile and compares the
//! digests with the ones recorded before the generator precomputed its
//! account addresses and contract pools.

use dmvcc_primitives::keccak256;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

const BLOCKS: usize = 3;
const BLOCK_SIZE: usize = 2_000;

/// `keccak256` over every genesis entry (`key ++ value`) followed by the
/// RLP encoding of every transaction of the first [`BLOCKS`] blocks.
fn digest(config: WorkloadConfig) -> String {
    let mut generator = WorkloadGenerator::new(config);
    let mut bytes = Vec::new();
    for (key, value) in generator.genesis_entries() {
        bytes.extend_from_slice(&key.to_bytes());
        bytes.extend_from_slice(&value.to_be_bytes());
    }
    for _ in 0..BLOCKS {
        for tx in generator.block(BLOCK_SIZE) {
            tx.rlp_append(&mut bytes);
        }
    }
    keccak256(&bytes).to_string()
}

#[test]
fn every_profile_generates_the_pinned_genesis_and_blocks() {
    let pinned = [
        (
            "ethereum_mix",
            WorkloadConfig::ethereum_mix(7),
            "0x1c68df0262f86e837626545825c74d9bf9496799d4dbded148bece5a2bd8413e",
        ),
        (
            "high_contention",
            WorkloadConfig::high_contention(7),
            "0x9816348513aa7723fdefb541316e8b4fb913102b422a36936d2aea597fa4b97d",
        ),
        (
            "loop_heavy",
            WorkloadConfig::loop_heavy(7),
            "0xf6bae09ee49ee42d26f59a58970d208dd9315ec0cb4ef6d3d7f64b70f8136bde",
        ),
        (
            "call_heavy",
            WorkloadConfig::call_heavy(7),
            "0xfcfdc2de87e1bce2c7b0cdcb9ade0cd2ffef88a463cb9da7c683e48cba5cfa22",
        ),
        (
            "nft_mint_rush",
            WorkloadConfig::nft_mint_rush(7),
            "0x8ceacaae81a8ffd0860c9cde02a3c93d0afd49db9ba96f359d7f6f3c982de4d9",
        ),
    ];
    let mut wrong = Vec::new();
    for (name, config, hex) in pinned {
        let got = digest(config);
        if got != hex {
            wrong.push(format!("{name}: {got}"));
        }
    }
    assert!(wrong.is_empty(), "digests differ:\n{}", wrong.join("\n"));
}
