//! The `dmvcc` command-line tool.

#![forbid(unsafe_code)]

use dmvcc_analysis::{
    cfg_to_dot, lint_deployed, loop_gas_bounds, static_gas_bounds, Analyzer, CallGraph, PSag,
    Severity,
};
use dmvcc_chain::{
    block_env, run_pipelined_chain, run_testnet, BackendKind, ChainConfig, ExecutorKind,
    TestnetConfig,
};
use dmvcc_cli::{
    contract_by_name, fixture_address, fixture_registry, parse_args, ParsedArgs, CONTRACT_NAMES,
    USAGE,
};
use dmvcc_core::{execute_block_serial, refine_csags};
use dmvcc_sim::{charge, SchedulerKind};
use dmvcc_state::Snapshot;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "contracts" => cmd_contracts(),
        "analyze" => cmd_analyze(&parsed),
        "lint" => cmd_lint(&parsed),
        "run" => cmd_run(&parsed),
        "chain" => cmd_chain(&parsed),
        "profile" => cmd_profile(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    if let Err(message) = result {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn cmd_contracts() -> Result<(), String> {
    println!("{:<15}{:>8}  description", "name", "bytes");
    let descriptions = [
        (
            "token",
            "ERC20-style token (transfer/mint/approve/transferFrom)",
        ),
        (
            "counter",
            "shared counter (commutative and checked increments)",
        ),
        ("amm", "constant-product pool (swap/add-liquidity/quote)"),
        ("nft", "NFT collection with a hot mint counter"),
        ("ballot", "one-vote-per-account ballot"),
        (
            "fig1",
            "the paper's Fig. 1 example (runtime-dependent keys)",
        ),
        ("auction", "English auction with commutative refunds"),
        ("crowdsale", "ICO-style sale (commutative contributions)"),
        ("batch_pay", "one debit, three commutative credits"),
        ("airdrop", "calldata-bounded credit loop (≤32 recipients)"),
        (
            "batch_transfer",
            "snapshot-bounded transfer loop (count in slot 0)",
        ),
        ("router", "thin DEX router CALLing the fixture AMM"),
        (
            "router2",
            "aggregator router: pull token, swap on AMM, pay out",
        ),
        (
            "flash_mint",
            "flash-mint-and-repay against the fixture token",
        ),
        ("oracle", "price oracle fanning updates out to consumers"),
        ("price_consumer", "stores the last pushed oracle price"),
        (
            "royalty_splitter",
            "DELEGATECALL library: fee tab + value-CALL payout",
        ),
        (
            "nft_drop",
            "mint-rush drop: DELEGATECALL royalties, STATICCALL floor",
        ),
        (
            "floor_oracle",
            "write-free floor price read (STATICCALL target)",
        ),
    ];
    for (name, description) in descriptions {
        let code = contract_by_name(name).expect("listed contracts exist");
        println!("{name:<15}{:>8}  {description}", code.len());
    }
    Ok(())
}

fn cmd_analyze(parsed: &ParsedArgs) -> Result<(), String> {
    let name = parsed
        .positional
        .first()
        .ok_or_else(|| format!("analyze needs a contract name (one of {CONTRACT_NAMES:?})"))?;
    let code = contract_by_name(name)
        .ok_or_else(|| format!("unknown contract `{name}` (one of {CONTRACT_NAMES:?})"))?;
    // Registry-aware build: CALL sites into the fixture universe summarize
    // instead of degrading the block to opaque.
    let registry = fixture_registry();
    let sag = PSag::build_with(&code, Some(&registry));
    println!("== P-SAG of `{name}` ({} bytes of code) ==", code.len());
    println!("basic blocks        : {}", sag.cfg.blocks.len());
    println!("state-access nodes  : {}", sag.ops.len());
    println!("  resolved statically : {}", sag.resolved().count());
    println!(
        "  symbolic templates  : {}",
        sag.template_resolved().count()
    );
    println!("  placeholders '–'    : {}", sag.unresolved().count());
    println!("loop nodes          : {:?}", sag.loop_head_pcs);
    for summary in &sag.loops.loops {
        let trip = match &summary.trip {
            Some(trip) => match trip.cap {
                Some(cap) => format!("{:?}-bounded, cap {cap}", trip.source),
                None => format!("{:?}-bounded, no static cap", trip.source),
            },
            None => "unbounded".to_string(),
        };
        println!(
            "  loop @{}: {} ({} body blocks, {} key families{})",
            summary.head_pc,
            trip,
            summary.body.len(),
            summary.families.len(),
            if summary.bounded() {
                ", summarizable"
            } else {
                ""
            }
        );
    }
    println!("release points      : {:?}", sag.release_pcs);
    let static_bounds = static_gas_bounds(&sag.cfg);
    let loop_bounds = loop_gas_bounds(&sag.cfg, &sag.plan, &sag.loops);
    for pc in &sag.release_pcs {
        if let Some(block) = sag.cfg.blocks.iter().find(|b| b.start_pc == *pc) {
            match (static_bounds[block.index], loop_bounds[block.index]) {
                (Some(g), _) => println!("  release @{pc}: static gas bound {g}"),
                (None, Some(g)) => println!("  release @{pc}: loop-summarized gas bound {g}"),
                (None, None) => println!("  release @{pc}: bound deferred to C-SAG (loop ahead)"),
            }
        }
    }
    if let Some(path) = parsed.options.get("dot") {
        let dot = cfg_to_dot(&sag.cfg, &sag.release_pcs);
        std::fs::write(path, dot).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_lint(parsed: &ParsedArgs) -> Result<(), String> {
    if let Some(flag) = parsed
        .options
        .keys()
        .find(|k| !matches!(k.as_str(), "all" | "json"))
    {
        eprintln!("error: lint does not take --{flag}\n\n{USAGE}");
        std::process::exit(2);
    }
    let json = parsed.has("json");
    let names: Vec<String> = if parsed.has("all") || parsed.positional.is_empty() {
        CONTRACT_NAMES.iter().map(|s| s.to_string()).collect()
    } else {
        parsed.positional.clone()
    };
    // Lint each contract as deployed in the fixture universe so call
    // sites classify (summarizable / recursive / depth-bailout) instead
    // of degrading every CALL-bearing block to opaque.
    let registry = fixture_registry();
    let graph = CallGraph::build(&registry);
    let mut failed: Vec<String> = Vec::new();
    for name in &names {
        let address = fixture_address(name)
            .ok_or_else(|| format!("unknown contract `{name}` (one of {CONTRACT_NAMES:?})"))?;
        let lint = lint_deployed(name, address, &registry, &graph);
        if json {
            for finding in &lint.findings {
                println!("{}", finding_json(name, finding));
            }
        } else {
            println!(
                "== {name}: {} accesses, {} template-resolved ({} constant), {} release points ==",
                lint.access_ops, lint.template_resolved, lint.const_resolved, lint.release_points
            );
            if lint.findings.is_empty() {
                println!("  clean");
            }
            for finding in &lint.findings {
                let tag = match finding.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warn ",
                    Severity::Note => "note ",
                };
                println!("  [{tag}] {}: {}", finding.code, finding.message);
            }
        }
        if lint.has_errors() {
            failed.push(name.clone());
        }
    }
    if !failed.is_empty() {
        return Err(format!("lint failed for: {}", failed.join(", ")));
    }
    Ok(())
}

/// One finding as a single-line JSON object (JSON Lines output for
/// `lint --json`). The message text never contains `"` or `\`, but the
/// escape keeps the output well-formed regardless.
fn finding_json(contract: &str, finding: &dmvcc_analysis::Finding) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let severity = match finding.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Note => "note",
    };
    let pc = match finding.pc {
        Some(pc) => pc.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"contract\":\"{}\",\"severity\":\"{severity}\",\"code\":\"{}\",\"pc\":{pc},\"message\":\"{}\"}}",
        escape(contract),
        escape(finding.code),
        escape(&finding.message)
    )
}

fn workload_from(parsed: &ParsedArgs) -> Result<WorkloadConfig, String> {
    let seed = parsed.get_or("seed", 42u64)?;
    Ok(if parsed.has("hot") {
        WorkloadConfig::high_contention(seed)
    } else {
        WorkloadConfig::ethereum_mix(seed)
    })
}

/// `--scheduler`, or `default`: one scheduler, or `None` for `all`.
fn scheduler_from(parsed: &ParsedArgs, default: &str) -> Result<Option<SchedulerKind>, String> {
    let name: String = parsed.get_or("scheduler", default.to_string())?;
    Ok(Some(match name.as_str() {
        "serial" => SchedulerKind::Serial,
        "dag" => SchedulerKind::Dag,
        "occ" => SchedulerKind::Occ,
        "dmvcc" => SchedulerKind::Dmvcc,
        "all" => return Ok(None),
        other => return Err(unknown_scheduler(other)),
    }))
}

fn unknown_scheduler(name: &str) -> String {
    format!("unknown scheduler `{name}` for --scheduler\n\n{USAGE}")
}

fn cmd_run(parsed: &ParsedArgs) -> Result<(), String> {
    let blocks = parsed.get_or("blocks", 2usize)?;
    let size = parsed.get_or("size", 500usize)?;
    // Default to one simulated thread per logical CPU (what the threaded
    // executor would use), overridable with --threads.
    let threads = parsed.threads(dmvcc_core::ParallelConfig::default().threads)?;
    let schedulers = match scheduler_from(parsed, "all")? {
        Some(one) => vec![one],
        None => vec![SchedulerKind::Dag, SchedulerKind::Occ, SchedulerKind::Dmvcc],
    };

    let mut generator = WorkloadGenerator::new(workload_from(parsed)?);
    let analyzer = Analyzer::new(generator.registry().clone());
    let mut snapshot = Snapshot::from_entries(generator.genesis_entries());

    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "block", "txs", "gas", "scheduler", "speedup", "aborts"
    );
    for height in 1..=blocks as u64 {
        let txs = generator.block(size);
        let env = block_env(height);
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let csags = refine_csags(&analyzer, &txs, &snapshot, &env, 1);
        for &scheduler in &schedulers {
            let r = scheduler.simulate(&trace, &csags, threads);
            println!(
                "{height:>6} {:>10} {:>10} {:>12} {:>9.2}x {:>8}",
                txs.len(),
                trace.total_gas,
                scheduler.label().to_lowercase(),
                r.speedup(),
                r.aborts
            );
        }
        snapshot = snapshot.apply(&trace.final_writes);
    }
    Ok(())
}

fn cmd_chain(parsed: &ParsedArgs) -> Result<(), String> {
    // A chain is charged one scheduler's virtual time.
    let scheduler = scheduler_from(parsed, "dmvcc")?.ok_or_else(|| unknown_scheduler("all"))?;
    let executor_name: String = parsed.get_or("executor", "sharded".to_string())?;
    let executor = ExecutorKind::parse(&executor_name)
        .ok_or_else(|| format!("unknown executor `{executor_name}` (sharded | stm | hybrid)"))?;
    let backend_name: String = parsed.get_or("backend", "mem".to_string())?;
    let backend = BackendKind::parse(&backend_name)
        .ok_or_else(|| format!("unknown backend `{backend_name}` (mem | lsm)"))?;
    let chain = ChainConfig {
        block_size: parsed.get_or("size", 500usize)?,
        blocks: parsed.get_or("blocks", 3usize)?,
        threads: parsed.threads(8)?,
        workload: workload_from(parsed)?,
        executor,
        backend,
    };
    let diverged =
        |block: u64| format!("block {block}: the sealed header differs from the serial oracle's");
    if parsed.has("pipeline") {
        let report = run_pipelined_chain(&chain);
        println!("executor           : {}", executor.label());
        println!("backend            : {}", report.backend);
        println!("blocks             : {}", report.blocks);
        println!("transactions       : {}", report.committed_txs);
        println!("refine time        : {:.3}s", report.refine_seconds);
        println!("execute time       : {:.3}s", report.execute_seconds);
        println!(
            "refine overlapped  : {:.3}s ({:.0}% hidden)",
            report.overlap_seconds,
            report.overlap_fraction() * 100.0
        );
        println!(
            "root commit        : {:.3}s ({:.0}% off critical path)",
            report.commit_seconds,
            report.commit_hidden_fraction() * 100.0
        );
        println!("executor aborts    : {}", report.aborts);
        println!("roots consistent   : {}", report.roots_consistent());
        println!("final state root   : {}", report.final_root);
        return report
            .diverged_at
            .map_or(Ok(()), |block| Err(diverged(block)));
    }
    let interval = parsed.get_or("interval", 1.0f64)?;
    let threads = chain.threads;
    let report = run_testnet(&TestnetConfig {
        chain,
        pool_miss_rate: parsed.miss_rate()?,
        rebuild_missing_sags: true,
    });
    let charged = charge(&report, scheduler, threads, interval);
    println!("scheduler          : {}", scheduler.label());
    println!("executor           : {}", executor.label());
    println!("backend            : {}", backend.label());
    println!("blocks             : {}", report.blocks);
    println!("transactions       : {}", report.committed_txs);
    println!("execution time     : {:.2}s", charged.execution_seconds);
    println!("chain time         : {:.2}s", charged.total_seconds);
    println!("throughput         : {:.0} TPS", charged.tps);
    println!("scheduler aborts   : {}", charged.aborts);
    println!(
        "pool SAG cache     : {} hits / {} misses",
        report.pool_stats.sag_hits, report.pool_stats.sag_misses
    );
    println!("roots consistent   : {}", report.roots_consistent());
    println!("final state root   : {}", report.final_root);
    report
        .diverged_at
        .map_or(Ok(()), |block| Err(diverged(block)))
}

/// `dmvcc profile`: a flamegraph-friendly hot loop over the sharded
/// executor plus a hot-path counter breakdown.
///
/// The command prepares a few blocks once, verifies the executor against
/// the serial oracle, then spends its whole runtime re-executing the same
/// blocks — so `perf record dmvcc profile` (or any sampling profiler)
/// lands almost every sample in the executor's inner loop rather than in
/// setup. The printed counters are the raw-speed pass's bookkeeping:
/// shard-lock traffic, publish batching, and recycled-arena bytes.
fn cmd_profile(parsed: &ParsedArgs) -> Result<(), String> {
    let blocks = parsed.get_or("blocks", 3usize)?;
    let size = parsed.get_or("size", 200usize)?;
    let threads = parsed.threads(1)?;
    let repeat = parsed.get_or("repeat", 20usize)?;

    let mut generator = WorkloadGenerator::new(workload_from(parsed)?);
    let analyzer = Analyzer::new(generator.registry().clone());
    let mut snapshot = Snapshot::from_entries(generator.genesis_entries());
    struct Prepared {
        txs: Vec<dmvcc_vm::Transaction>,
        snapshot: Snapshot,
        env: dmvcc_vm::BlockEnv,
        expected: dmvcc_state::WriteSet,
    }
    let mut prepared = Vec::with_capacity(blocks);
    for height in 1..=blocks as u64 {
        let txs = generator.block(size);
        let env = block_env(height);
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let next = snapshot.apply(&trace.final_writes);
        prepared.push(Prepared {
            txs,
            snapshot,
            env,
            expected: trace.final_writes,
        });
        snapshot = next;
    }

    let config = dmvcc_core::ParallelConfig {
        threads,
        ..Default::default()
    };
    let executor = dmvcc_core::ParallelExecutor::new(analyzer, config);
    // Correctness check once, outside the profiled loop.
    for block in &prepared {
        let outcome = executor.execute_block(&block.txs, &block.snapshot, &block.env);
        if outcome.final_writes != block.expected {
            return Err("sharded executor diverged from serial".into());
        }
    }

    let mut stats = dmvcc_core::ExecutorStats::default();
    let mut aborts = 0u64;
    let mut txs = 0u64;
    // Wall time inside `execute_block`, refinement included.
    let mut block_nanos = 0u64;
    let start = std::time::Instant::now();
    for _ in 0..repeat {
        for block in &prepared {
            let entered = std::time::Instant::now();
            let outcome = executor.execute_block(&block.txs, &block.snapshot, &block.env);
            block_nanos += entered.elapsed().as_nanos() as u64;
            txs += block.txs.len() as u64;
            aborts += outcome.aborts;
            stats.refine_nanos += outcome.stats.refine_nanos;
            stats.serial_nanos += outcome.stats.serial_nanos;
            stats.attempts += outcome.stats.attempts;
            stats.publishes += outcome.stats.publishes;
            stats.publish_batches += outcome.stats.publish_batches;
            stats.shard_lock_acquisitions += outcome.stats.shard_lock_acquisitions;
            stats.alloc_bytes_saved += outcome.stats.alloc_bytes_saved;
            stats.targeted_wakeups += outcome.stats.targeted_wakeups;
            stats.parks += outcome.stats.parks;
            stats.admission_checks += outcome.stats.admission_checks;
            stats.entries_visited += outcome.stats.entries_visited;
            stats.refine_digests += outcome.stats.refine_digests;
            stats.execute_digests += outcome.stats.execute_digests;
        }
    }
    let wall = start.elapsed().as_secs_f64();

    println!("threads                : {threads}");
    println!(
        "keccak256_x4 backend   : {}",
        dmvcc_primitives::keccak_backend()
    );
    println!("profiled work          : {repeat} passes x {blocks} blocks x {size} txs");
    println!("wall time              : {wall:.3}s");
    println!("throughput             : {:.0} tx/s", txs as f64 / wall);
    println!(
        "attempts               : {} ({aborts} aborts)",
        stats.attempts
    );
    println!(
        "publishes              : {} in {} batches ({:.2} per shard lock)",
        stats.publishes,
        stats.publish_batches,
        stats.publishes as f64 / stats.publish_batches.max(1) as f64
    );
    println!("shard-lock acquisitions: {}", stats.shard_lock_acquisitions);
    println!(
        "arena bytes recycled   : {:.1} MiB",
        stats.alloc_bytes_saved as f64 / (1u64 << 20) as f64
    );
    println!("suspensions            : {}", stats.targeted_wakeups);
    println!("idle parks             : {}", stats.parks);
    let profiled_blocks = (repeat * blocks).max(1) as u64;
    // Exact counts, per block: the admission checks publications and drops
    // triggered, and the sequence entries their effects visited.
    println!(
        "admission checks       : {} per block",
        stats.admission_checks / profiled_blocks
    );
    println!(
        "entries visited        : {} per block",
        stats.entries_visited / profiled_blocks
    );
    // Keccak digests per block: what the workers' memos computed of what
    // the bind walk (refine) and `SHA3` (execute) asked them for.
    for (stage, digests) in [
        ("refine", stats.refine_digests),
        ("execute", stats.execute_digests),
    ] {
        println!(
            "digests ({stage}){:pad$}: computed {} of {} asked per block",
            "",
            digests.computed / profiled_blocks,
            digests.asked / profiled_blocks,
            pad = 13 - stage.len(),
        );
    }
    // What the calling thread does alone, before the first worker starts
    // and after the last one joins, as a share of the execute stage.
    let execute_nanos = block_nanos.saturating_sub(stats.refine_nanos);
    println!(
        "serial share           : {:.2} of execute wall",
        stats.serial_nanos as f64 / execute_nanos.max(1) as f64
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    type Command = fn(&ParsedArgs) -> Result<(), String>;

    /// The error a subcommand fails with before it does (or prints)
    /// anything.
    fn refused(command: Command, args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
        command(&parse_args(&args).expect("well-formed")).expect_err("refused")
    }

    #[test]
    fn every_subcommand_refuses_zero_threads() {
        let commands: [(Command, &str); 3] = [
            (cmd_run, "run"),
            (cmd_chain, "chain"),
            (cmd_profile, "profile"),
        ];
        for (command, name) in commands {
            let message = refused(command, &[name, "--threads", "0"]);
            assert!(message.contains("--threads"), "{name}: {message}");
            assert!(message.ends_with(USAGE), "{name}");
        }
    }

    #[test]
    fn chain_refuses_a_miss_rate_that_is_no_probability() {
        let message = refused(cmd_chain, &["chain", "--miss-rate", "2"]);
        assert!(message.contains("--miss-rate"), "{message}");
        assert!(message.ends_with(USAGE));
    }

    #[test]
    fn an_unknown_scheduler_is_refused_up_front() {
        let commands: [(Command, &str); 2] = [(cmd_run, "run"), (cmd_chain, "chain")];
        for (command, name) in commands {
            let message = refused(command, &[name, "--scheduler", "foo"]);
            assert!(
                message.contains("`foo` for --scheduler"),
                "{name}: {message}"
            );
            assert!(message.ends_with(USAGE), "{name}");
        }
        // `all` is `run`'s default and means nothing to a chain.
        let message = refused(cmd_chain, &["chain", "--scheduler", "all"]);
        assert!(message.contains("`all` for --scheduler"));
    }
}
