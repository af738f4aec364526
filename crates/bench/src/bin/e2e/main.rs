//! `e2e`: a block's whole journey, measured end to end and layer by layer.
//!
//! One process, closed loop, one driver thread: refine → rank → execute →
//! commit → root → backend → seal, on four workloads. The end-to-end run
//! reports what a user of the chain would see (`chain_tps`,
//! `block_latency_*`, CPU, memory, set-up); a separate traced run
//! (`--trace`) says which crate owns the time. Every output is checked
//! against the serial oracle, outside the timed windows. README.md beside
//! this file defines every metric.
//!
//! ```text
//! cargo run --release -p dmvcc-bench --bin e2e -- --all
//! cargo run --release -p dmvcc-bench --bin e2e -- --workload hot --trace
//! cargo run --release -p dmvcc-bench --bin e2e -- --all --agree
//! ```

mod adapter;
mod metrics;
mod probes;
mod run;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Content;

use adapter::{Engine, Spec, SPECS};
use run::{Options, Report};

const USAGE: &str = "usage: e2e (--all | --workload NAME) [--seed N] [--seconds N] \
[--trace [0|1]] [--smoke] [--agree]
  workloads: realistic, hot, loops, cold-state";

/// Where the traced run leaves its Chrome traces, and where the LSM
/// backend's scratch directories live while a run lasts: both inside the
/// checkout the benchmark is run from.
const OUT_DIR: &str = "bench-results/e2e";

struct Cli {
    workloads: Vec<&'static Spec>,
    options: Options,
    agree: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workloads: Vec<&'static Spec> = Vec::new();
    let mut options = Options::new(7);
    let mut agree = false;
    let mut args = args.iter().peekable();
    let number = |flag: &str, value: Option<&String>| -> Result<u64, String> {
        value
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => workloads = SPECS.iter().collect(),
            "--workload" => {
                let name = args.next().ok_or("--workload needs a name")?;
                let spec = SPECS
                    .iter()
                    .find(|s| s.name == name.as_str())
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                workloads.push(spec);
            }
            "--seed" => options.seed = number("--seed", args.next())?,
            "--seconds" => {
                options.seconds = number("--seconds", args.next())?;
                if !(1..=600).contains(&options.seconds) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
            }
            "--trace" => {
                options.trace = match args.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => options.smoke = true,
            "--agree" => agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        return Err("name a workload or pass --all".to_string());
    }
    Ok(Cli {
        workloads,
        options,
        agree,
    })
}

fn object(entries: Vec<(&str, Content)>) -> Content {
    Content::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The serde stand-in renders `Serialize` types, and its own tree is not one.
struct Json(Content);

impl serde::Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

fn render(content: Content) -> String {
    serde_json::to_string(&Json(content)).expect("the renderer is total")
}

/// The line the benchmark contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`, each metric a value and a unit.
fn contract_line(report: &Report) -> String {
    let metrics = report
        .sheet
        .metrics
        .iter()
        .map(|m| {
            (
                m.def.name.clone(),
                object(vec![
                    ("value", Content::F64(m.value)),
                    ("unit", Content::Str(m.def.unit.to_string())),
                ]),
            )
        })
        .collect();
    render(object(vec![
        ("correct", Content::Bool(report.correct)),
        ("attempted", Content::U64(report.attempted as u64)),
        ("failed", Content::U64(report.failed as u64)),
        ("metrics", Content::Object(metrics)),
    ]))
}

/// The same values with what the contract line has no room for: sample
/// counts, the owning layer and whether a count repeats exactly.
fn detail_line(report: &Report, options: &Options) -> String {
    let metrics = report
        .sheet
        .metrics
        .iter()
        .map(|m| {
            let mut entry = vec![
                ("value", Content::F64(m.value)),
                ("unit", Content::Str(m.def.unit.to_string())),
                ("samples", Content::U64(m.samples)),
                ("better", Content::Str(m.def.better.label().to_string())),
            ];
            if options.trace {
                entry.push(("layer", Content::Str(m.def.layer.to_string())));
                entry.push(("moves", Content::Str(m.def.moves.to_string())));
                entry.push(("exact", Content::Bool(m.def.exact)));
            }
            (m.def.name.clone(), object(entry))
        })
        .collect();
    render(object(vec![
        ("workload", Content::Str(report.workload.to_string())),
        ("seed", Content::U64(options.seed)),
        ("threads", Content::U64(options.threads as u64)),
        (
            "host_parallelism",
            Content::U64(run::host_parallelism() as u64),
        ),
        (
            "default_engine",
            Content::Str(Engine::default_label().to_string()),
        ),
        ("metrics", Content::Object(metrics)),
    ]))
}

fn print_report(report: &Report, options: &Options) {
    println!(
        "== {} | {} | seed {} | threads {} | host_parallelism {} | engine {} ==",
        report.workload,
        if options.trace {
            "traced, per layer"
        } else {
            "end to end"
        },
        options.seed,
        options.threads,
        run::host_parallelism(),
        Engine::default_label(),
    );
    for m in &report.sheet.metrics {
        let mut notes = format!("n={}", m.samples);
        if !m.detail.is_empty() {
            notes = format!("{} {notes}", m.detail);
        }
        if options.trace {
            notes = format!("{notes} layer={} exact={}", m.def.layer, m.def.exact);
        }
        println!(
            "  {:<44} {:>16.6} {:<8} {notes}",
            m.def.name, m.value, m.def.unit
        );
    }
    println!(
        "  {:<44} {:>16.6} {:<8} {} of {} blocks failed",
        "failed_share",
        report.failed as f64 / report.attempted as f64,
        "ratio",
        report.failed,
        report.attempted,
    );
    let phases: Vec<String> = report
        .phase_ends_s
        .iter()
        .map(|(phase, at)| format!("{phase} done at {at:.1} s"))
        .collect();
    println!("  run: {}", phases.join(", "));
    for problem in &report.problems {
        println!("  PROBLEM: {problem}");
    }
    println!("{}", detail_line(report, options));
}

/// Runs every selected workload once. Stops at a wedged run: its child
/// thread may still hold the cores.
fn run_set(cli: &Cli) -> Vec<Report> {
    let mut reports = Vec::new();
    for spec in &cli.workloads {
        let report = run::run_workload(spec, &cli.options);
        print_report(&report, &cli.options);
        let wedged = report.wedged;
        reports.push(report);
        if wedged {
            break;
        }
    }
    reports
}

/// `--agree`: the set twice, each pair of values against its bound. For a
/// traced set the pairs that must agree are the exact counts, bit for bit.
fn agree(cli: &Cli) -> bool {
    let calib_a = run::calibrate(run::CALIBRATION_ITERATIONS);
    let first = run_set(cli);
    let calib_b = run::calibrate(run::CALIBRATION_ITERATIONS);
    let second = run_set(cli);
    let drift = (calib_b - calib_a).abs() / calib_a;
    let oversubscribed = cli.options.threads > run::host_parallelism();
    let unresolved = oversubscribed || drift > 0.10;

    let mut all_agree = first.len() == cli.workloads.len() && second.len() == first.len();
    let mut workloads = Vec::new();
    println!("== agreement of two sets ==");
    for (a, b) in first.iter().zip(&second) {
        all_agree &= a.correct && b.correct;
        let mut rows = Vec::new();
        for (ma, mb) in a.sheet.metrics.iter().zip(&b.sheet.metrics) {
            let base = ma.value.abs().max(f64::MIN_POSITIVE);
            let difference = (mb.value - ma.value).abs() / base;
            let verdict = match (ma.def.bound, ma.def.exact) {
                (Some(_), _) if unresolved => "unresolved",
                (Some(bound), _) if difference <= bound => "agree",
                (Some(_), _) => "disagree",
                (None, true) if ma.value.to_bits() == mb.value.to_bits() => "agree",
                (None, true) => "disagree",
                (None, false) => "not gated",
            };
            all_agree &= verdict != "disagree";
            if verdict != "not gated" {
                println!(
                    "  {:<12} {:<36} {:>16.6} {:>16.6}  diff {:>8.4}  bound {:>5.2}  {verdict}",
                    a.workload,
                    ma.def.name,
                    ma.value,
                    mb.value,
                    difference,
                    ma.def.bound.unwrap_or(0.0)
                );
            }
            let mut row = vec![
                ("first", Content::F64(ma.value)),
                ("second", Content::F64(mb.value)),
                ("unit", Content::Str(ma.def.unit.to_string())),
                ("relative_difference", Content::F64(difference)),
                ("verdict", Content::Str(verdict.to_string())),
            ];
            if let Some(bound) = ma.def.bound {
                row.push(("bound", Content::F64(bound)));
            }
            rows.push((ma.def.name.clone(), object(row)));
        }
        rows.push((
            "failed_share".to_string(),
            object(vec![
                ("first", Content::F64(a.failed as f64 / a.attempted as f64)),
                ("second", Content::F64(b.failed as f64 / b.attempted as f64)),
                ("unit", Content::Str("ratio".to_string())),
            ]),
        ));
        workloads.push((a.workload.to_string(), Content::Object(rows)));
    }
    let summary = object(vec![
        ("seed", Content::U64(cli.options.seed)),
        ("seconds", Content::U64(cli.options.seconds)),
        ("traced", Content::Bool(cli.options.trace)),
        ("threads", Content::U64(cli.options.threads as u64)),
        (
            "host_parallelism",
            Content::U64(run::host_parallelism() as u64),
        ),
        (
            "default_engine",
            Content::Str(Engine::default_label().to_string()),
        ),
        (
            "host_calib_ns_per_iter",
            Content::Array(vec![Content::F64(calib_a), Content::F64(calib_b)]),
        ),
        ("unresolved", Content::Bool(unresolved)),
        ("agree", Content::Bool(all_agree)),
        ("workloads", Content::Object(workloads)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&Json(summary)).expect("the renderer is total")
    );
    all_agree
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(problem) => {
            eprintln!("e2e: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The LSM backend makes its scratch directory under the system's
    // temporary directory; point that inside the checkout, before any
    // thread exists.
    let out_dir = std::env::current_dir()
        .map(|dir| dir.join(OUT_DIR))
        .unwrap_or_else(|_| PathBuf::from(OUT_DIR));
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(error) = std::fs::create_dir_all(&scratch) {
        eprintln!("e2e: cannot create {}: {error}", scratch.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &scratch);
    cli.options.out_dir = Some(out_dir);

    let ok = if cli.agree {
        agree(&cli)
    } else {
        let reports = run_set(&cli);
        // The contract's line comes last. With several workloads there is
        // one per workload, in order.
        for report in &reports {
            println!("{}", contract_line(report));
        }
        reports.len() == cli.workloads.len() && reports.iter().all(|r| r.correct)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if ok {
        ExitCode::SUCCESS
    } else {
        // A wedged child thread cannot be joined; leave without it.
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
