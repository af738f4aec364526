//! Command-line front end for the DMVCC reproduction.
//!
//! Subcommands (see `dmvcc help`):
//!
//! - `contracts` — list the built-in contract library;
//! - `analyze <contract>` — P-SAG summary and optional DOT export;
//! - `lint [<contract>…|--all]` — prediction-quality lint with stable
//!   exit codes (0 clean, 1 findings, 2 usage);
//! - `run` — execute generated blocks under a chosen scheduler and print
//!   speedups;
//! - `chain` — run the micro testnet and print throughput;
//! - `profile` — flamegraph-friendly hot loop over the sharded executor
//!   with a hot-path counter breakdown.
//!
//! Argument parsing is hand-rolled (the project's dependency policy keeps
//! the tree to the sanctioned crates); [`parse_args`] is pure and fully
//! unit-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// A parsed command line: subcommand, positional arguments and `--key
/// value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` and `--flag` (value `"true"`) options.
    pub options: HashMap<String, String>,
}

impl ParsedArgs {
    /// Returns option `key` parsed as `T`, or `default`.
    ///
    /// # Errors
    ///
    /// Returns a message when the option is present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --{key}: `{raw}`")),
        }
    }

    /// `true` when `--key` was passed (with any value).
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// `--threads`, or `default`: a count of workers, so at least one (the
    /// schedulers have no timeline to place work on with none).
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag, with [`USAGE`], for `0` or an
    /// unparsable value.
    pub fn threads(&self, default: usize) -> Result<usize, String> {
        match self.get_or("threads", default)? {
            0 => Err(format!("--threads must be at least 1\n\n{USAGE}")),
            threads => Ok(threads),
        }
    }

    /// `--miss-rate`, or 0: the probability that a transaction reaches the
    /// pool without its SAG.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag, with [`USAGE`], for a value
    /// outside `[0, 1]` or an unparsable one.
    pub fn miss_rate(&self) -> Result<f64, String> {
        let rate = self.get_or("miss-rate", 0.0f64)?;
        if (0.0..=1.0).contains(&rate) {
            Ok(rate)
        } else {
            Err(format!(
                "--miss-rate must lie in [0, 1], got {rate}\n\n{USAGE}"
            ))
        }
    }
}

/// Parses an argument vector (without the program name).
///
/// Rules: the first bare word is the subcommand; `--key value` pairs become
/// options; a `--flag` followed by another `--…` or the end is a boolean
/// flag; remaining bare words are positionals.
///
/// # Errors
///
/// Returns a message for a leading `--option` before any subcommand.
///
/// # Examples
///
/// ```
/// let parsed = dmvcc_cli::parse_args(&[
///     "run".into(), "--threads".into(), "8".into(), "--hot".into(),
/// ]).unwrap();
/// assert_eq!(parsed.command, "run");
/// assert_eq!(parsed.get_or("threads", 1usize).unwrap(), 8);
/// assert!(parsed.has("hot"));
/// ```
pub fn parse_args(args: &[String]) -> Result<ParsedArgs, String> {
    let mut parsed = ParsedArgs::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if parsed.command.is_empty() {
                return Err(format!("option --{key} before a subcommand"));
            }
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    iter.next().expect("peeked value exists").clone()
                }
                _ => "true".to_string(),
            };
            parsed.options.insert(key.to_string(), value);
        } else if parsed.command.is_empty() {
            parsed.command = arg.clone();
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    if parsed.command.is_empty() {
        parsed.command = "help".to_string();
    }
    Ok(parsed)
}

/// The built-in contract library by name.
///
/// The call-bearing contracts (`router`, `router2`, `flash_mint`,
/// `oracle`) are parameterized over callee addresses at build time; here
/// they are bound to the fixture universe of [`fixture_registry`], so the
/// bytecode returned for them matches what that registry deploys.
pub fn contract_by_name(name: &str) -> Option<Vec<u8>> {
    use dmvcc_vm::contracts;
    Some(match name {
        "token" => contracts::token(),
        "counter" => contracts::counter(),
        "amm" => contracts::amm(),
        "nft" => contracts::nft(),
        "ballot" => contracts::ballot(),
        "fig1" => contracts::fig1_example(),
        "auction" => contracts::auction(),
        "crowdsale" => contracts::crowdsale(),
        "batch_pay" => contracts::batch_pay(),
        "airdrop" => contracts::airdrop(),
        "batch_transfer" => contracts::batch_transfer(),
        "router" => contracts::dex_router(fixture_address("amm").expect("amm fixture")),
        "router2" => contracts::dex_router2(
            fixture_address("amm").expect("amm fixture"),
            fixture_address("token").expect("token fixture"),
            fixture_token_b(),
        ),
        "flash_mint" => contracts::flash_mint(fixture_address("token").expect("token fixture")),
        "oracle" => contracts::oracle(&[
            fixture_address("price_consumer").expect("consumer fixture"),
            fixture_consumer_b(),
        ]),
        "price_consumer" => contracts::price_consumer(),
        "royalty_splitter" => contracts::royalty_splitter(),
        "nft_drop" => contracts::nft_drop(
            fixture_address("royalty_splitter").expect("splitter fixture"),
            fixture_address("floor_oracle").expect("floor fixture"),
        ),
        "floor_oracle" => contracts::floor_oracle(),
        _ => return None,
    })
}

/// Names of the built-in contracts.
pub const CONTRACT_NAMES: [&str; 19] = [
    "token",
    "counter",
    "amm",
    "nft",
    "ballot",
    "fig1",
    "auction",
    "crowdsale",
    "batch_pay",
    "airdrop",
    "batch_transfer",
    "router",
    "router2",
    "flash_mint",
    "oracle",
    "price_consumer",
    "royalty_splitter",
    "nft_drop",
    "floor_oracle",
];

/// The fixture address each named library contract deploys at in
/// [`fixture_registry`]; `None` for unknown names.
pub fn fixture_address(name: &str) -> Option<dmvcc_primitives::Address> {
    CONTRACT_NAMES
        .iter()
        .position(|&n| n == name)
        .map(|i| dmvcc_primitives::Address::from_u64(9_000 + i as u64))
}

/// A second token the fixture `router2` swaps into (same `token` code,
/// its own address — a swap must touch two distinct token contracts).
fn fixture_token_b() -> dmvcc_primitives::Address {
    dmvcc_primitives::Address::from_u64(9_100)
}

/// A second price consumer so the fixture `oracle` fans out to more than
/// one subscriber.
fn fixture_consumer_b() -> dmvcc_primitives::Address {
    dmvcc_primitives::Address::from_u64(9_101)
}

/// Deploys the whole library at its fixture addresses (plus the second
/// token and consumer the parameterized contracts are bound to), so
/// `analyze` and `lint` can resolve cross-contract `CALL` targets.
pub fn fixture_registry() -> dmvcc_vm::CodeRegistry {
    let mut builder = dmvcc_vm::CodeRegistry::builder();
    for name in CONTRACT_NAMES {
        let code = contract_by_name(name).expect("listed contracts exist");
        builder = builder.deploy(fixture_address(name).expect("listed fixture"), code);
    }
    builder
        .deploy(fixture_token_b(), dmvcc_vm::contracts::token())
        .deploy(fixture_consumer_b(), dmvcc_vm::contracts::price_consumer())
        .build()
}

/// Usage text.
pub const USAGE: &str = "\
dmvcc — deterministic multi-version concurrency control, reproduced

USAGE:
  dmvcc contracts
      List the built-in contract library.
  dmvcc analyze <contract> [--dot FILE]
      Print the P-SAG summary of a library contract; optionally write
      Graphviz DOT.
  dmvcc lint [<contract>…|--all] [--json]
      Check prediction quality of library contracts: unresolved keys,
      missing release points, unbounded blocks, unbounded or
      irreducible loops, non-commutable increments, call-site
      bailouts (unanalyzable-call-target, recursive-call,
      call-depth-bailout), and call-family findings
      (staticcall-writes, value-call-unbounded-recipient,
      dynamic-dispatch-unbounded, delegatecall-into-selfdestruct-free)
      against the fixture call graph. --json emits one finding object
      per line (contract, severity, code, pc, message). Exits nonzero
      when any contract has lint errors.
  dmvcc run [--hot] [--blocks N] [--size M] [--threads T]
            [--scheduler serial|dag|occ|dmvcc|all] [--seed S]
      Generate blocks and report scheduler speedups (virtual time).
  dmvcc chain [--hot] [--blocks N] [--size M] [--threads T] [--seed S]
              [--executor sharded|stm|hybrid] [--backend mem|lsm]
              [--scheduler serial|dag|occ|dmvcc] [--interval SECS]
              [--miss-rate P] | [--pipeline]
      Produce a chain: every block is executed by the --executor engine
      (predictive sharded, optimistic Block-STM, or the hybrid router),
      committed to the --backend store (in-memory versioned map or the
      log-structured on-disk store) and sealed with the gas execution
      charged. Without --pipeline this is the micro testnet: transactions
      arrive through a pool (--miss-rate of them without a SAG, rebuilt
      at packing against the arrival's snapshot, so the chain is the one
      a run without misses produces), and throughput is reported in
      virtual time — the --scheduler's makespan per block against a
      --interval mining floor. --pipeline runs the wall-clock front-end
      instead: C-SAG refinement one block ahead and root hashing one
      block behind, and reports how much of each was hidden. Either way
      each sealed header is compared with the one the serial oracle
      seals; the first block that differs is named and the exit status
      is nonzero.
  dmvcc profile [--hot] [--blocks N] [--size M] [--threads T]
                [--repeat R] [--seed S]
      Re-execute the same prepared blocks on the sharded executor in a
      tight loop (flamegraph-friendly: samples land in the hot path, not
      in setup) and print the hot-path counters — shard-lock
      acquisitions, publish batching, recycled-arena bytes, waiter
      hand-backs, idle parks.
  dmvcc help
      Show this message.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        let parsed = parse_args(&[]).unwrap();
        assert_eq!(parsed.command, "help");
    }

    #[test]
    fn subcommand_with_options_and_positionals() {
        let parsed = parse_args(&strs(&[
            "analyze",
            "token",
            "--dot",
            "out.dot",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!(parsed.command, "analyze");
        assert_eq!(parsed.positional, vec!["token"]);
        assert_eq!(parsed.options.get("dot").unwrap(), "out.dot");
        assert!(parsed.has("verbose"));
        assert!(!parsed.has("quiet"));
    }

    #[test]
    fn flag_before_subcommand_rejected() {
        assert!(parse_args(&strs(&["--threads", "8", "run"])).is_err());
    }

    #[test]
    fn typed_option_access() {
        let parsed = parse_args(&strs(&["run", "--threads", "8"])).unwrap();
        assert_eq!(parsed.get_or("threads", 1usize).unwrap(), 8);
        assert_eq!(parsed.get_or("blocks", 4usize).unwrap(), 4);
        let parsed = parse_args(&strs(&["run", "--threads", "lots"])).unwrap();
        assert!(parsed.get_or("threads", 1usize).is_err());
    }

    #[test]
    fn a_thread_count_is_at_least_one() {
        let threads = |args: &[&str]| parse_args(&strs(args)).unwrap().threads(3);
        assert_eq!(threads(&["run"]), Ok(3));
        assert_eq!(threads(&["chain", "--threads", "8"]), Ok(8));
        let message = threads(&["run", "--threads", "0"]).unwrap_err();
        assert!(message.starts_with("--threads must be at least 1"));
        assert!(message.ends_with(USAGE));
        assert!(threads(&["run", "--threads", "-1"]).is_err());
    }

    #[test]
    fn a_miss_rate_is_a_probability() {
        let rate = |raw: &str| {
            let parsed = parse_args(&strs(&["chain", "--miss-rate", raw])).unwrap();
            parsed.miss_rate()
        };
        assert_eq!(parse_args(&strs(&["chain"])).unwrap().miss_rate(), Ok(0.0));
        assert_eq!(rate("0"), Ok(0.0));
        assert_eq!(rate("0.25"), Ok(0.25));
        assert_eq!(rate("1"), Ok(1.0));
        for raw in ["2", "1.0001", "-0.1", "NaN", "inf"] {
            let message = rate(raw).unwrap_err();
            assert!(
                message.starts_with("--miss-rate must lie in [0, 1]"),
                "{raw}"
            );
            assert!(message.ends_with(USAGE));
        }
        assert!(rate("often").is_err());
    }

    #[test]
    fn boolean_flag_followed_by_option() {
        let parsed = parse_args(&strs(&["run", "--hot", "--threads", "4"])).unwrap();
        assert!(parsed.has("hot"));
        assert_eq!(parsed.get_or("threads", 1usize).unwrap(), 4);
    }

    #[test]
    fn all_library_contracts_resolve() {
        for name in CONTRACT_NAMES {
            assert!(contract_by_name(name).is_some(), "{name} missing");
        }
        assert!(contract_by_name("nope").is_none());
    }

    #[test]
    fn fixture_registry_deploys_every_contract() {
        let registry = fixture_registry();
        for name in CONTRACT_NAMES {
            let addr = fixture_address(name).expect("listed fixture");
            assert!(registry.code(&addr).is_some(), "{name} not deployed");
        }
        assert!(fixture_address("nope").is_none());
    }

    #[test]
    fn fixture_call_sites_all_summarizable() {
        // The registry binding is coherent: every CALL site in the fixture
        // universe resolves to deployed code and summarizes.
        let registry = fixture_registry();
        let graph = dmvcc_analysis::CallGraph::build(&registry);
        for name in [
            "router",
            "router2",
            "flash_mint",
            "oracle",
            "nft_drop",
            "royalty_splitter",
        ] {
            let verdict = &graph.verdicts[&fixture_address(name).unwrap()];
            assert!(verdict.summarizable, "{name}: {:?}", verdict.sites);
            assert!(!verdict.sites.is_empty(), "{name} has no call sites");
        }
        // The floor oracle carries the write-freedom proof the drop's
        // STATICCALL site relies on.
        assert!(graph.verdicts[&fixture_address("floor_oracle").unwrap()].write_free);
    }
}
