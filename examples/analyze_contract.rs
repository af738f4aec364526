//! SAG inspection: builds the P-SAG of the paper's Fig. 1 contract, then
//! refines it into C-SAGs for two transactions that take different
//! branches — demonstrating runtime-dependent key resolution, loop
//! unrolling and release-point gas bounds (paper §III-B).
//!
//! Run with: `cargo run --release -p dmvcc-examples --bin analyze_contract`

use dmvcc_analysis::{cfg_to_dot, static_gas_bounds, Analyzer, PSag};
use dmvcc_primitives::{Address, U256};
use dmvcc_state::{Snapshot, StateKey};
use dmvcc_vm::{calldata, contracts, disassemble, BlockEnv, CodeRegistry, Transaction, TxEnv};

fn main() {
    let code = contracts::fig1_example();
    println!("=== Fig. 1 `Example` contract, disassembly (excerpt) ===");
    for line in disassemble(&code).lines().take(18) {
        println!("{line}");
    }
    println!("  ... ({} bytes total)\n", code.len());

    // Static analysis: the P-SAG.
    let psag = PSag::build(&code);
    println!("=== P-SAG (static) ===");
    println!("state-access nodes : {}", psag.ops.len());
    println!(
        "resolved statically: {} (constant slots like B[0], B[1])",
        psag.resolved().count()
    );
    println!(
        "placeholders '–'   : {} (keys depending on tx input / state)",
        psag.unresolved().count()
    );
    println!("loop nodes         : {:?}", psag.loop_head_pcs);
    println!("release points     : {:?}", psag.release_pcs);
    let bounds = static_gas_bounds(&psag.cfg);
    let bounded = bounds.iter().filter(|b| b.is_some()).count();
    println!(
        "static gas bounds  : {}/{} blocks bounded (loop blocks are unbounded;",
        bounded,
        bounds.len()
    );
    println!("                     their release gas comes from C-SAG measurement)\n");

    // Graphviz export for visual inspection.
    let dot = cfg_to_dot(&psag.cfg, &psag.release_pcs);
    if let Err(err) = std::fs::write("fig1_sag.dot", &dot) {
        eprintln!("could not write fig1_sag.dot: {err}");
    } else {
        println!(
            "wrote fig1_sag.dot ({} bytes) — render with `dot -Tsvg`\n",
            dot.len()
        );
    }

    // Dynamic refinement: C-SAGs under two different snapshots.
    let contract = Address::from_u64(77);
    let registry = CodeRegistry::builder()
        .deploy(contract, contracts::fig1_example())
        .build();
    let analyzer = Analyzer::new(registry);
    let x = Address::from_u64(42).to_u256();
    let tx = Transaction::call(TxEnv::call(
        Address::from_u64(1),
        contract,
        calldata(contracts::fig1_fn::UPDATE_B, &[x, U256::from(4u64)]),
    ));
    let env = BlockEnv::default();

    // Branch 2: A[x] = 0 in the snapshot.
    let sag = analyzer.csag(&tx, &Snapshot::empty(), &env);
    println!("=== C-SAG with A[x] = 0 (branch 2: B[0] = 0; assert; B[1] += y) ===");
    println!(
        "reads : {} keys, writes: {} keys",
        sag.reads.len(),
        sag.writes.len()
    );
    for rp in &sag.release_points {
        println!(
            "release point @pc {} needs ≤ {} gas to finish",
            rp.pc, rp.gas_bound
        );
    }

    // Branch 1: A[x] = 3 → the loop unrolls twice.
    let a_slot = contracts::map_slot(x, 0);
    let snapshot =
        Snapshot::from_entries([(StateKey::storage(contract, a_slot), U256::from(3u64))]);
    let sag = analyzer.csag(&tx, &snapshot, &env);
    println!("\n=== C-SAG with A[x] = 3 (branch 1: loop unrolled, B[3], B[2] written) ===");
    println!(
        "reads : {} keys, writes: {} keys",
        sag.reads.len(),
        sag.writes.len()
    );
    println!(
        "the same transaction, a different key set: the prediction depends on the\n\
         snapshot value of A[x] — if another transaction of the block overwrites\n\
         it, this C-SAG is stale and the abort machinery recovers"
    );
}
