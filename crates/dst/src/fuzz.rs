//! The differential fuzz driver: one seed → one perturbed block → the
//! engine under test must agree with the serial oracle.
//!
//! For each seed the driver (a) generates a workload block, (b) applies the
//! seeded [`FaultPlan`] (gas squeezes, C-SAG mispredictions, optionally
//! stale-snapshot predictions), (c) runs the serial oracle, the chosen
//! threaded engine under a seeded [`VirtualScheduler`], and the
//! virtual-time simulator, and (d) reports any disagreement as a
//! [`Divergence`] that
//! carries everything needed to replay it: the seed and the case's
//! campaign — its (possibly shrunk) block size, thread count, profile,
//! refinement, mutation, engine and backend.
//!
//! Shrinking exploits a structural property of the workload generator:
//! `block(n)` draws transactions sequentially, so the block of size `s < n`
//! is a strict prefix of the block of size `n` for the same seed. A
//! divergence is therefore minimized by re-running the same seed at smaller
//! sizes, and `(seed, size)` fully identifies the repro.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmvcc_analysis::{Analyzer, CSag};
use dmvcc_core::{
    execute_block_serial, refine_csags, BlockTrace, ExecutorKind, ParallelConfig, ParallelOutcome,
};
use dmvcc_sim::{hidden_keys, simulate_dmvcc};
use dmvcc_state::{LsmBackend, LsmOptions, MemBackend, Snapshot, StateBackend, StateDb, WriteSet};
use dmvcc_vm::BlockEnv;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

use crate::faults::{FaultPlan, Mutation};
use crate::sched::{SchedConfig, VirtualScheduler};

/// Workload shape under fuzz.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The paper's mainnet category mix.
    EthereumMix,
    /// The skewed hot-contract variant (§V-B high contention).
    HighContention,
    /// Traffic dominated by summarizable credit loops (airdrop and
    /// batch-transfer contracts) — exercises bind-time loop unrolling.
    LoopHeavy,
    /// Traffic dominated by cross-contract calls (aggregator routers,
    /// flash mints, oracle fanout) — exercises interprocedural binding.
    CallHeavy,
    /// Traffic dominated by NFT drop mints (delegatecalled royalty
    /// payouts, value-transferring creator credits through a registry
    /// slot, staticcalled floor checks) — exercises the full call family.
    NftMintRush,
}

impl Profile {
    /// Every profile under its CLI spelling.
    pub const NAMES: [(&'static str, Profile); 5] = [
        ("ethereum", Profile::EthereumMix),
        ("hot", Profile::HighContention),
        ("loop", Profile::LoopHeavy),
        ("call", Profile::CallHeavy),
        ("nft", Profile::NftMintRush),
    ];

    /// Parses the CLI spelling of a profile.
    pub fn parse(name: &str) -> Option<Profile> {
        let found = Self::NAMES.iter().find(|(spelling, _)| *spelling == name);
        found.map(|&(_, profile)| profile)
    }

    /// The CLI spelling (inverse of [`Self::parse`]).
    pub fn label(self) -> &'static str {
        let found = Self::NAMES.iter().find(|(_, profile)| *profile == self);
        found.expect("every profile is named").0
    }

    /// The workload config for one fuzz case: the named contention profile
    /// scaled down so a single case runs in milliseconds (the fuzzer's
    /// throughput *is* its coverage).
    fn config(self, seed: u64) -> WorkloadConfig {
        let base = match self {
            Profile::EthereumMix => WorkloadConfig::ethereum_mix(seed),
            Profile::HighContention => WorkloadConfig::high_contention(seed),
            Profile::LoopHeavy => WorkloadConfig::loop_heavy(seed),
            Profile::CallHeavy => WorkloadConfig::call_heavy(seed),
            Profile::NftMintRush => WorkloadConfig::nft_mint_rush(seed),
        };
        let loopy = |n: usize| match self {
            Profile::LoopHeavy => n,
            _ => 1,
        };
        let cally = |n: usize| match self {
            Profile::CallHeavy => n,
            _ => 1,
        };
        let drops = match self {
            Profile::NftMintRush => 3,
            // One drop rides along in the call mix so the call family is
            // always under fuzz, even outside the dedicated profile.
            Profile::CallHeavy => 1,
            _ => 0,
        };
        WorkloadConfig {
            accounts: 80,
            token_contracts: 4,
            amm_contracts: 2,
            nft_contracts: 2,
            counter_contracts: 1,
            ballot_contracts: 1,
            fig1_contracts: 1,
            auction_contracts: 1,
            crowdsale_contracts: 1,
            batch_pay_contracts: 1,
            airdrop_contracts: loopy(3),
            batch_transfer_contracts: loopy(3),
            router_contracts: 1,
            router2_contracts: cally(3),
            flash_contracts: cally(2),
            oracle_contracts: cally(2),
            drop_contracts: drops,
            ..base
        }
    }
}

/// Which state backend the campaign replays each case's serial history
/// through, committing asynchronously. The root oracle is a
/// [`StateDb::with_genesis`] database over its own in-memory backend,
/// committed synchronously; reads are checked against the serial trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendUnderTest {
    /// No backend axis (the default, spelled `plain`): only the executors
    /// are fuzzed.
    #[default]
    None,
    /// In-memory versioned backend, as `BackendKind::Mem` builds it: no
    /// cache over it. The store is the oracle's, so this axis checks the
    /// asynchronous root path against the synchronous one.
    Mem,
    /// Log-structured on-disk store with tiny thresholds, so every case
    /// crosses segment flushes and compactions, reading through its own
    /// flat-state cache as `BackendKind::Lsm` builds it.
    Lsm,
}

impl BackendUnderTest {
    /// Parses the CLI spelling of a backend axis.
    pub fn parse(name: &str) -> Option<BackendUnderTest> {
        match name {
            "plain" => Some(BackendUnderTest::None),
            "mem" => Some(BackendUnderTest::Mem),
            "lsm" => Some(BackendUnderTest::Lsm),
            _ => None,
        }
    }

    /// The CLI spelling (inverse of [`Self::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            BackendUnderTest::None => "plain",
            BackendUnderTest::Mem => "mem",
            BackendUnderTest::Lsm => "lsm",
        }
    }
}

/// How a campaign refines its C-SAGs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Refinement {
    /// [`Analyzer::csag`]: the symbolic bind, speculation where it does
    /// not bind (spelled `two-tier`).
    #[default]
    TwoTier,
    /// [`Analyzer::speculate`]: every call pre-executed, the paper's
    /// baseline path (spelled `speculative`).
    Speculative,
}

impl Refinement {
    /// Parses the CLI spelling of a refinement.
    pub fn parse(name: &str) -> Option<Refinement> {
        match name {
            "two-tier" => Some(Refinement::TwoTier),
            "speculative" => Some(Refinement::Speculative),
            _ => None,
        }
    }

    /// The CLI spelling (inverse of [`Self::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            Refinement::TwoTier => "two-tier",
            Refinement::Speculative => "speculative",
        }
    }
}

/// Fraction of state keys hidden from every case's refined C-SAGs
/// ([`hidden_keys`]; organic mispredictions, on top of the fault plan's
/// injected ones).
const HIDE_FRACTION: f64 = 0.15;

/// Every `STALE_EVERY`-th seed builds its C-SAGs against the previous
/// block's snapshot (the mempool scenario).
const STALE_EVERY: u64 = 4;

/// One fuzz campaign's fixed parameters (the seed varies per case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Worker threads for the threaded engine and the simulator.
    pub threads: usize,
    /// Block size per case (shrinking lowers it per-repro).
    pub size: usize,
    /// Workload contention profile.
    pub profile: Profile,
    /// Runs [`SchedConfig::quiet`] and [`FaultPlan::none`] instead of
    /// [`SchedConfig::stormy`] and [`FaultPlan::standard`]: no schedule
    /// perturbation and no input faults (differential testing only).
    pub quiet: bool,
    /// Active executor mutation (see [`Mutation`]).
    pub mutation: Mutation,
    /// C-SAG refinement strategy (two-tier symbolic binding by default;
    /// `Speculative` pins the paper's baseline path).
    pub refinement: Refinement,
    /// Which engine the campaign exercises against the serial oracle. For
    /// `Stm` and `Hybrid` the predictions of a seeded quarter of the block
    /// are withheld, so the optimistic path always has work.
    pub engine: ExecutorKind,
    /// Persistent-backend cross-check: replay each case's serial history
    /// through a backend-backed [`StateDb`] with async root commits and
    /// compare per-height roots and reads (see [`BackendUnderTest`]).
    pub backend: BackendUnderTest,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            threads: 4,
            size: 60,
            profile: Profile::HighContention,
            quiet: false,
            mutation: Mutation::None,
            refinement: Refinement::TwoTier,
            engine: ExecutorKind::Sharded,
            backend: BackendUnderTest::None,
        }
    }
}

impl FuzzConfig {
    fn sched_config(&self, seed: u64) -> SchedConfig {
        let mut config = if self.quiet {
            SchedConfig::quiet(seed)
        } else {
            SchedConfig::stormy(seed)
        };
        if self.mutation == Mutation::SkipReleaseGasBound {
            // The mutation under test: every release gate passes and the
            // "unnecessary" rollback is skipped (see `Mutation`).
            config.force_release_ppm = 1_000_000;
            config.skip_rollback = true;
        }
        config
    }

    fn fault_plan(&self, seed: u64) -> FaultPlan {
        // Decorrelate the fault streams from the scheduler streams.
        let seed = seed ^ 0x5EED_5EED;
        if self.quiet {
            FaultPlan::none(seed)
        } else {
            FaultPlan::standard(seed)
        }
    }
}

/// A replayable disagreement between an executor and the serial oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The diverging seed.
    pub seed: u64,
    /// What diverged: the engine's label, `state-backend` or `simulator`.
    pub executor: &'static str,
    /// The diverging case's campaign, at the block size where the
    /// divergence (still) reproduces. Every axis that differs from
    /// [`FuzzConfig::default`] is part of the replay command.
    pub case: FuzzConfig,
    /// Sorted, deterministic description of the disagreement.
    pub details: Vec<String>,
}

impl Divergence {
    fn new(seed: u64, executor: &'static str, case: &FuzzConfig, details: Vec<String>) -> Self {
        Divergence {
            seed,
            executor,
            case: case.clone(),
            details,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let case = &self.case;
        writeln!(
            f,
            "divergence: executor={} seed={} size={} threads={}",
            self.executor, self.seed, case.size, case.threads
        )?;
        for line in &self.details {
            writeln!(f, "  {line}")?;
        }
        write!(
            f,
            "replay: cargo run -p dmvcc-dst -- replay --seed {} --size {} --threads {}",
            self.seed, case.size, case.threads
        )?;
        let default = FuzzConfig::default();
        let axes = [
            ("--profile", case.profile.label(), default.profile.label()),
            ("--mutate", case.mutation.label(), default.mutation.label()),
            (
                "--refinement",
                case.refinement.label(),
                default.refinement.label(),
            ),
            ("--executor", case.engine.label(), default.engine.label()),
            ("--backend", case.backend.label(), default.backend.label()),
        ];
        for (flag, value, _) in axes.iter().filter(|(_, value, default)| value != default) {
            write!(f, " {flag} {value}")?;
        }
        if case.quiet {
            write!(f, " --quiet")?;
        }
        Ok(())
    }
}

const MAX_DETAIL_LINES: usize = 24;

/// Sorted per-key diff of two final write sets (capped, deterministic).
fn diff_writes(serial: &WriteSet, parallel: &WriteSet) -> Vec<String> {
    let mut lines = Vec::new();
    for (key, value) in serial {
        match parallel.get(key) {
            None => lines.push(format!("missing {key}: serial={value}")),
            Some(got) if got != value => {
                lines.push(format!("value {key}: serial={value} executor={got}"));
            }
            Some(_) => {}
        }
    }
    for (key, value) in parallel {
        if !serial.contains_key(key) {
            lines.push(format!("extra {key}: executor={value}"));
        }
    }
    lines.sort();
    if lines.len() > MAX_DETAIL_LINES {
        let more = lines.len() - MAX_DETAIL_LINES;
        lines.truncate(MAX_DETAIL_LINES);
        lines.push(format!("... and {more} more"));
    }
    lines
}

/// Per-transaction status and gas diff (capped, deterministic).
fn diff_statuses(trace: &BlockTrace, outcome: &ParallelOutcome) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, t) in trace.txs.iter().enumerate() {
        if outcome.statuses[i] != t.status {
            lines.push(format!(
                "status tx {i}: serial={:?} executor={:?}",
                t.status, outcome.statuses[i]
            ));
        }
        if outcome.gas_used[i] != t.gas_used {
            lines.push(format!(
                "gas tx {i}: serial={} executor={}",
                t.gas_used, outcome.gas_used[i]
            ));
        }
    }
    if lines.len() > MAX_DETAIL_LINES {
        let more = lines.len() - MAX_DETAIL_LINES;
        lines.truncate(MAX_DETAIL_LINES);
        lines.push(format!("... and {more} more"));
    }
    lines
}

fn check_outcome(
    seed: u64,
    config: &FuzzConfig,
    trace: &BlockTrace,
    outcome: &ParallelOutcome,
) -> Option<Divergence> {
    let mut details = diff_writes(&trace.final_writes, &outcome.final_writes);
    details.extend(diff_statuses(trace, outcome));
    if details.is_empty() {
        return None;
    }
    Some(Divergence::new(
        seed,
        config.engine.label(),
        config,
        details,
    ))
}

/// Seeded withheld predictions for the STM/hybrid campaigns: roughly a
/// quarter of the block's C-SAGs become [`CSag::optimistic`],
/// deterministically in `(seed, index)` (splitmix64 finalizer,
/// decorrelated from the scheduler and fault streams).
fn withhold_predictions(csags: &mut [CSag], seed: u64) {
    for (i, csag) in csags.iter_mut().enumerate() {
        let mut x = (seed ^ 0x0B5C_0B5C_0B5C_0B5C)
            .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        if x.is_multiple_of(4) {
            *csag = CSag::optimistic();
        }
    }
}

/// Runs one fuzz case end to end; `None` means every executor agreed with
/// the serial oracle and the simulator invariants held.
pub fn run_seed(seed: u64, config: &FuzzConfig) -> Option<Divergence> {
    let mut generator = WorkloadGenerator::new(config.profile.config(seed));
    let analyzer = Analyzer::new(generator.registry().clone());
    let genesis = Snapshot::from_entries(generator.genesis_entries());

    // The mempool scenario on a seeded subset of cases: predictions are
    // built against the previous block's snapshot, execution runs on the
    // current one.
    let stale = seed.is_multiple_of(STALE_EVERY);
    let (live, prediction_snapshot, env, warmup_writes) = if stale {
        let warmup = generator.block(config.size / 2 + 1);
        let env1 = BlockEnv::new(1, 1_700_000_000);
        let warmup_trace = execute_block_serial(&warmup, &genesis, &analyzer, &env1);
        let mut db = StateDb::with_genesis(generator.genesis_entries());
        db.commit(&warmup_trace.final_writes);
        (
            db.latest().clone(),
            genesis.clone(),
            BlockEnv::new(2, 1_700_000_012),
            Some(warmup_trace.final_writes),
        )
    } else {
        (
            genesis.clone(),
            genesis,
            BlockEnv::new(1, 1_700_000_000),
            None,
        )
    };

    let mut txs = generator.block(config.size);
    let plan = config.fault_plan(seed);
    let mut trace = execute_block_serial(&txs, &live, &analyzer, &env);
    if plan.squeeze_gas(&mut txs, &trace) {
        // The squeezed block is the block under test for every executor,
        // including the oracle.
        trace = execute_block_serial(&txs, &live, &analyzer, &env);
    }
    let refined = match config.refinement {
        Refinement::TwoTier => refine_csags(&analyzer, &txs, &prediction_snapshot, &env, 1),
        Refinement::Speculative => txs
            .iter()
            .map(|tx| analyzer.speculate(tx, &prediction_snapshot, &env))
            .collect(),
    };
    let mut csags = hidden_keys(&refined, HIDE_FRACTION, seed ^ 0xA11A);
    if config.engine != ExecutorKind::Sharded {
        // The optimistic campaigns fuzz the pool-desync scenario: a seeded
        // quarter of the block carries no predictions at all.
        withhold_predictions(&mut csags, seed);
    }
    plan.perturb_csags(&mut csags);

    let parallel_config = ParallelConfig {
        threads: config.threads,
        ..ParallelConfig::default()
    };

    // Predictive engines schedule from the perturbed predictions; the
    // optimistic one takes them as an interning hint only, so the fault
    // plan's mispredictions test that its results are independent of them.
    let hook = Arc::new(VirtualScheduler::new(config.sched_config(seed)));
    let engine = config
        .engine
        .build(analyzer.clone(), parallel_config, Some(hook));
    let outcome = engine.execute_block_with_csags(&txs, &live, &env, &csags);
    if let Some(divergence) = check_outcome(seed, config, &trace, &outcome) {
        return Some(divergence);
    }

    // State-backend differential: replay the case's serial history through
    // a StateDb over the backend under test (async root commits and — for
    // the LSM — flat-state reads, segment flushes and compactions at tiny
    // thresholds), compare every per-height root against a synchronously
    // committed `with_genesis` database, and every final read against the
    // serial trace.
    if config.backend != BackendUnderTest::None {
        let entries = generator.genesis_entries();
        let backend: Arc<dyn StateBackend> = match config.backend {
            BackendUnderTest::Mem => Arc::new(MemBackend::new()),
            _ => Arc::new(LsmBackend::new(LsmOptions::tiny())),
        };
        let mut oracle = StateDb::with_genesis(entries.clone());
        let mut backed = StateDb::with_backend(backend, entries);
        let mut details = Vec::new();
        if backed.current_root() != oracle.current_root() {
            details.push(format!(
                "genesis root: oracle={} backend={}",
                oracle.current_root(),
                backed.current_root()
            ));
        }
        let history: Vec<&WriteSet> = warmup_writes
            .iter()
            .chain(std::iter::once(&trace.final_writes))
            .collect();
        for (i, writes) in history.iter().enumerate() {
            let height = 1 + i as u64;
            let expected = oracle.commit(writes);
            let got = backed.commit_async(writes).wait();
            if got != expected {
                details.push(format!(
                    "root at height {height}: oracle={expected} backend={got}"
                ));
            }
            if backed.root_at(height) != Some(expected) {
                details.push(format!("root_at({height}) disagrees with sync oracle"));
            }
        }
        for (key, value) in &trace.final_writes {
            if details.len() >= MAX_DETAIL_LINES {
                break;
            }
            let got = backed.latest().get(key);
            if got != *value {
                details.push(format!("read {key}: serial={value} backend={got}"));
            }
        }
        if !details.is_empty() {
            return Some(Divergence::new(seed, "state-backend", config, details));
        }
    }

    // The engines clamp `threads: 0` to one worker; the simulator
    // panics on it, so hold it to the same floor.
    let report = simulate_dmvcc(&trace, &csags, config.threads.max(1));
    let mut details = Vec::new();
    let n = trace.txs.len() as u64;
    if report.attempts != n + report.aborts {
        details.push(format!(
            "attempts {} != txs {} + aborts {}",
            report.attempts, n, report.aborts
        ));
    }
    let longest = trace.txs.iter().map(|t| t.gas_used).max().unwrap_or(0);
    if report.makespan < longest {
        details.push(format!(
            "makespan {} < longest transaction {longest}",
            report.makespan
        ));
    }
    if report.busy_gas < report.serial_cost {
        details.push(format!(
            "busy_gas {} < serial cost {}",
            report.busy_gas, report.serial_cost
        ));
    }
    if !details.is_empty() {
        return Some(Divergence::new(seed, "simulator", config, details));
    }
    None
}

/// Shrinks a divergence by replaying the same seed at smaller block sizes
/// (prefix blocks — see the module docs). Returns the smallest reproducer
/// found; the original if no smaller size still diverges.
pub fn shrink(seed: u64, config: &FuzzConfig, found: Divergence) -> Divergence {
    let mut best = found;
    // Binary descent: halve while the divergence survives.
    while best.case.size > 1 {
        let mut candidate = config.clone();
        candidate.size = best.case.size / 2;
        match run_seed(seed, &candidate) {
            Some(divergence) => best = divergence,
            None => break,
        }
    }
    // Linear polish: shave single transactions off the tail.
    for _ in 0..8 {
        if best.case.size <= 1 {
            break;
        }
        let mut candidate = config.clone();
        candidate.size = best.case.size - 1;
        match run_seed(seed, &candidate) {
            Some(divergence) => best = divergence,
            None => break,
        }
    }
    best
}

/// Result of a fuzz campaign.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Seeds fully executed (budget exhaustion can stop a campaign early).
    pub seeds_run: u64,
    /// The first divergence found, already shrunk; `None` if all agreed.
    pub divergence: Option<Divergence>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Runs seeds `start .. start + count`, stopping at the first divergence
/// (after shrinking it) or when the wall-clock `budget` runs out.
/// `progress` is invoked after every case with the number of seeds done.
pub fn fuzz(
    start: u64,
    count: u64,
    config: &FuzzConfig,
    budget: Option<Duration>,
    mut progress: impl FnMut(u64),
) -> FuzzOutcome {
    let started = Instant::now();
    for i in 0..count {
        if budget.is_some_and(|b| started.elapsed() >= b) {
            return FuzzOutcome {
                seeds_run: i,
                divergence: None,
                elapsed: started.elapsed(),
            };
        }
        let seed = start + i;
        if let Some(found) = run_seed(seed, config) {
            let shrunk = shrink(seed, config, found);
            return FuzzOutcome {
                seeds_run: i + 1,
                divergence: Some(shrunk),
                elapsed: started.elapsed(),
            };
        }
        progress(i + 1);
    }
    FuzzOutcome {
        seeds_run: count,
        divergence: None,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_differential_seeds_agree() {
        let config = FuzzConfig {
            quiet: true,
            size: 30,
            ..FuzzConfig::default()
        };
        for seed in 0..4 {
            assert!(
                run_seed(seed, &config).is_none(),
                "quiet seed {seed} diverged"
            );
        }
    }

    #[test]
    fn stormy_seeds_agree_without_mutation() {
        let config = FuzzConfig {
            size: 40,
            ..FuzzConfig::default()
        };
        for seed in 0..4 {
            let result = run_seed(seed, &config);
            assert!(result.is_none(), "seed {seed} diverged: {:?}", result);
        }
    }

    #[test]
    fn divergence_report_is_deterministic_text() {
        let case = FuzzConfig {
            size: 12,
            ..FuzzConfig::default()
        };
        let divergence = Divergence::new(9, "sharded", &case, vec!["missing k: serial=1".into()]);
        let text = format!("{divergence}");
        assert!(text.contains("seed=9"));
        assert!(text.contains("replay: cargo run -p dmvcc-dst -- replay --seed 9 --size 12"));
        assert!(text.ends_with("--threads 4"));
        assert!(!text.contains("--executor"));
        assert!(!text.contains("--backend"));
        assert_eq!(text, format!("{divergence}"));

        let stm = FuzzConfig {
            engine: ExecutorKind::Stm,
            ..case.clone()
        };
        let stm = Divergence::new(9, "stm", &stm, divergence.details.clone());
        assert!(format!("{stm}").ends_with("--executor stm"));

        let lsm = FuzzConfig {
            backend: BackendUnderTest::Lsm,
            ..case
        };
        let lsm = Divergence::new(9, "state-backend", &lsm, divergence.details);
        assert!(format!("{lsm}").ends_with("--backend lsm"));
    }

    #[test]
    fn backend_cross_check_seeds_agree() {
        // Seed 0 hits the stale-snapshot path (`STALE_EVERY`), so both
        // backends replay a two-block history; the LSM's tiny thresholds
        // force segment flushes and compactions inside the case.
        for backend in [BackendUnderTest::Mem, BackendUnderTest::Lsm] {
            let config = FuzzConfig {
                size: 30,
                backend,
                ..FuzzConfig::default()
            };
            for seed in 0..3 {
                let result = run_seed(seed, &config);
                assert!(
                    result.is_none(),
                    "{} backend seed {seed} diverged: {result:?}",
                    backend.label()
                );
            }
        }
    }

    #[test]
    fn backend_under_test_parse_roundtrip() {
        for backend in [
            BackendUnderTest::None,
            BackendUnderTest::Mem,
            BackendUnderTest::Lsm,
        ] {
            assert_eq!(BackendUnderTest::parse(backend.label()), Some(backend));
        }
        assert_eq!(BackendUnderTest::parse("rocksdb"), None);
    }

    #[test]
    fn stm_seeds_agree_under_storm() {
        let config = FuzzConfig {
            size: 40,
            engine: ExecutorKind::Stm,
            ..FuzzConfig::default()
        };
        for seed in 0..4 {
            let result = run_seed(seed, &config);
            assert!(result.is_none(), "stm seed {seed} diverged: {:?}", result);
        }
    }

    #[test]
    fn hybrid_seeds_agree_under_storm() {
        let config = FuzzConfig {
            size: 40,
            engine: ExecutorKind::Hybrid,
            ..FuzzConfig::default()
        };
        for seed in 0..4 {
            let result = run_seed(seed, &config);
            assert!(
                result.is_none(),
                "hybrid seed {seed} diverged: {:?}",
                result
            );
        }
    }

    #[test]
    fn unanalyzable_marking_is_deterministic_and_partial() {
        let mut a: Vec<CSag> = (1..=32)
            .map(|i| {
                CSag::for_transfer(
                    dmvcc_primitives::Address::from_u64(i),
                    dmvcc_primitives::Address::from_u64(i + 1),
                )
            })
            .collect();
        let mut b = a.clone();
        withhold_predictions(&mut a, 7);
        withhold_predictions(&mut b, 7);
        assert_eq!(a, b);
        let marked = a.iter().filter(|c| **c == CSag::optimistic()).count();
        assert!(
            marked > 0 && marked < a.len(),
            "marked {marked} of {}",
            a.len()
        );
    }

    #[test]
    fn call_heavy_seeds_agree_on_every_engine() {
        for engine in ExecutorKind::ALL {
            let config = FuzzConfig {
                size: 40,
                profile: Profile::CallHeavy,
                engine,
                ..FuzzConfig::default()
            };
            for seed in 0..3 {
                let result = run_seed(seed, &config);
                assert!(
                    result.is_none(),
                    "call-heavy {} seed {seed} diverged: {:?}",
                    engine.label(),
                    result
                );
            }
        }
    }

    #[test]
    fn nft_mint_rush_seeds_agree_on_every_engine() {
        for engine in ExecutorKind::ALL {
            let config = FuzzConfig {
                size: 40,
                profile: Profile::NftMintRush,
                engine,
                ..FuzzConfig::default()
            };
            for seed in 0..3 {
                let result = run_seed(seed, &config);
                assert!(
                    result.is_none(),
                    "nft {} seed {seed} diverged: {:?}",
                    engine.label(),
                    result
                );
            }
        }
    }
}
