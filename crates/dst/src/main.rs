//! `dmvcc-dst` binary: the DST fuzz driver and seed replayer.
//!
//! ```text
//! dmvcc-dst fuzz   [--seeds N] [--start S] [--size N] [--threads N]
//!                  [--profile ethereum|hot|loop|call|nft] [--mutate skip-release-gas-bound]
//!                  [--refinement two-tier|speculative]
//!                  [--executor sharded|stm|hybrid] [--backend plain|mem|lsm]
//!                  [--budget-secs N] [--quiet]
//! dmvcc-dst replay --seed S [--size N] [--threads N]
//!                  [--profile ethereum|hot|loop|call|nft] [--mutate skip-release-gas-bound]
//!                  [--refinement two-tier|speculative]
//!                  [--executor sharded|stm|hybrid] [--backend plain|mem|lsm]
//! ```
//!
//! `fuzz` runs a seed campaign and exits non-zero on the first divergence,
//! printing a shrunk, replayable report. `replay` re-runs one `(seed,
//! size)` case and prints the identical report (byte-for-byte: every
//! scheduler and fault decision is a pure function of the seed).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use dmvcc_core::ExecutorKind;
use dmvcc_dst::{fuzz, run_seed, BackendUnderTest, FuzzConfig, Mutation, Profile, Refinement};

const USAGE: &str = "\
usage: dmvcc-dst fuzz   [--seeds N] [--start S] [--size N] [--threads N]
                        [--profile ethereum|hot|loop|call|nft] [--mutate MUTATION]
                        [--refinement two-tier|speculative]
                        [--executor sharded|stm|hybrid] [--backend plain|mem|lsm]
                        [--budget-secs N] [--quiet]
       dmvcc-dst replay --seed S [--size N] [--threads N]
                        [--profile ethereum|hot|loop|call|nft] [--mutate MUTATION]
                        [--refinement two-tier|speculative]
                        [--executor sharded|stm|hybrid] [--backend plain|mem|lsm]
mutations: none, skip-release-gas-bound";

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}\n{USAGE}");
    ExitCode::from(2)
}

struct Args {
    config: FuzzConfig,
    seeds: u64,
    start: u64,
    seed: Option<u64>,
    budget: Option<Duration>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let command = argv.next().ok_or("missing command (fuzz | replay)")?;
    let mut args = Args {
        config: FuzzConfig::default(),
        seeds: 200,
        start: 0,
        seed: None,
        budget: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start" => args.start = value("--start")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--size" => {
                args.config.size = value("--size")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--threads" => {
                args.config.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--profile" => {
                let name = value("--profile")?;
                args.config.profile =
                    Profile::parse(&name).ok_or_else(|| format!("unknown profile {name}"))?;
            }
            "--mutate" => {
                let name = value("--mutate")?;
                args.config.mutation =
                    Mutation::parse(&name).ok_or_else(|| format!("unknown mutation {name}"))?;
            }
            "--refinement" => {
                let name = value("--refinement")?;
                args.config.refinement =
                    Refinement::parse(&name).ok_or_else(|| format!("unknown refinement {name}"))?;
            }
            "--budget-secs" => {
                let secs: u64 = value("--budget-secs")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                args.budget = Some(Duration::from_secs(secs));
            }
            "--executor" => {
                let name = value("--executor")?;
                args.config.engine =
                    ExecutorKind::parse(&name).ok_or_else(|| format!("unknown executor {name}"))?;
            }
            "--backend" => {
                let name = value("--backend")?;
                args.config.backend = BackendUnderTest::parse(&name)
                    .ok_or_else(|| format!("unknown backend {name}"))?;
            }
            "--quiet" => args.config.quiet = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((command, args))
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    argv.next(); // program name
    let (command, args) = match parse(argv) {
        Ok(parsed) => parsed,
        Err(error) => return usage(&error),
    };
    match command.as_str() {
        "fuzz" => {
            println!(
                "fuzzing {} seeds from {} (size={}, threads={}, mutation={:?}, executor={}, \
                 backend={})",
                args.seeds,
                args.start,
                args.config.size,
                args.config.threads,
                args.config.mutation,
                args.config.engine.label(),
                args.config.backend.label()
            );
            let outcome = fuzz(args.start, args.seeds, &args.config, args.budget, |done| {
                if done % 50 == 0 {
                    println!("  {done} seeds clean");
                }
            });
            match outcome.divergence {
                Some(divergence) => {
                    println!("{divergence}");
                    ExitCode::FAILURE
                }
                None => {
                    if outcome.seeds_run < args.seeds {
                        println!(
                            "budget exhausted after {} of {} seeds ({:.1?}), no divergence",
                            outcome.seeds_run, args.seeds, outcome.elapsed
                        );
                    } else {
                        println!(
                            "{} seeds, no divergence ({:.1?})",
                            outcome.seeds_run, outcome.elapsed
                        );
                    }
                    ExitCode::SUCCESS
                }
            }
        }
        "replay" => {
            let Some(seed) = args.seed else {
                return usage("replay requires --seed");
            };
            match run_seed(seed, &args.config) {
                Some(divergence) => {
                    println!("{divergence}");
                    ExitCode::FAILURE
                }
                None => {
                    println!(
                        "seed {seed} (size={}, threads={}): no divergence",
                        args.config.size, args.config.threads
                    );
                    ExitCode::SUCCESS
                }
            }
        }
        other => usage(&format!("unknown command {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_dst::Divergence;

    /// Every profile spelling the parser accepts is in the usage text.
    #[test]
    fn usage_lists_every_profile() {
        let spellings = Profile::NAMES.map(|(name, _)| name).join("|");
        assert_eq!(USAGE.matches(&format!("--profile {spellings}]")).count(), 2);
    }

    /// The `replay: …` line a divergence report prints must be a command
    /// this binary accepts, and must reproduce the diverging case: every
    /// axis of its campaign, one case per axis.
    #[test]
    fn printed_replay_line_parses_back_to_the_same_case() {
        let default = FuzzConfig {
            size: 12,
            threads: 3,
            ..FuzzConfig::default()
        };
        let cases = [
            ("sharded", default.clone()),
            (
                "stm",
                FuzzConfig {
                    engine: ExecutorKind::Stm,
                    ..default.clone()
                },
            ),
            (
                "state-backend",
                FuzzConfig {
                    backend: BackendUnderTest::Lsm,
                    ..default.clone()
                },
            ),
            (
                "sharded",
                FuzzConfig {
                    profile: Profile::EthereumMix,
                    ..default.clone()
                },
            ),
            (
                "sharded",
                FuzzConfig {
                    refinement: Refinement::Speculative,
                    ..default.clone()
                },
            ),
            (
                "sharded",
                FuzzConfig {
                    mutation: Mutation::SkipReleaseGasBound,
                    ..default.clone()
                },
            ),
            (
                "simulator",
                FuzzConfig {
                    quiet: true,
                    ..default.clone()
                },
            ),
        ];
        for (executor, case) in cases {
            let divergence = Divergence {
                seed: 9,
                executor,
                case,
                details: vec!["missing k: serial=1".into()],
            };
            let report = divergence.to_string();
            let line = report.lines().last().expect("report has a replay line");
            let command = line
                .strip_prefix("replay: cargo run -p dmvcc-dst -- ")
                .unwrap_or_else(|| panic!("unexpected replay line: {line}"));
            let (command, args) =
                parse(command.split_whitespace().map(str::to_string)).expect("line parses");
            assert_eq!(command, "replay");
            assert_eq!(args.seed, Some(divergence.seed), "{line}");
            assert_eq!(args.config, divergence.case, "{line}");
        }
    }
}
