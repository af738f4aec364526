//! Smoke-size tests of the benchmark itself, run by the workspace's
//! `cargo test`.

use std::time::Duration;

use serde::Content;

use crate::adapter::SPECS;
use crate::metrics::{self, Def};
use crate::run::{self, Options, Report, Wedge};

/// The contract this binary is checked against.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

fn smoke(trace: bool) -> Options {
    Options {
        smoke: true,
        trace,
        // More workers than a small CI host has cores is fine for
        // correctness, and two is what the reference host runs.
        threads: 2,
        ..Options::new(7)
    }
}

fn assert_clean(report: &Report) {
    assert!(
        report.correct && report.failed == 0 && !report.wedged,
        "{}: {:?}",
        report.workload,
        report.problems
    );
}

// ---- a JSON reader, since the in-repo serde_json stand-in only writes ----

struct Reader<'a> {
    text: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn skip_space(&mut self) {
        while self.at < self.text.len() && self.text[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.text[self.at], byte, "at byte {}", self.at);
        self.at += 1;
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let start = self.at;
        while self.text[self.at] != b'"' {
            assert_ne!(self.text[self.at], b'\\', "escapes are not needed here");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.text[start..self.at - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Content {
        self.skip_space();
        match self.text[self.at] {
            b'{' => {
                self.at += 1;
                let mut entries = Vec::new();
                loop {
                    self.skip_space();
                    if self.text[self.at] == b'}' {
                        self.at += 1;
                        return Content::Object(entries);
                    }
                    if !entries.is_empty() {
                        self.expect(b',');
                    }
                    let key = self.string();
                    self.expect(b':');
                    entries.push((key, self.value()));
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_space();
                    if self.text[self.at] == b']' {
                        self.at += 1;
                        return Content::Array(items);
                    }
                    if !items.is_empty() {
                        self.expect(b',');
                    }
                    items.push(self.value());
                }
            }
            b'"' => Content::Str(self.string()),
            b't' => {
                self.at += 4;
                Content::Bool(true)
            }
            b'f' => {
                self.at += 5;
                Content::Bool(false)
            }
            _ => {
                let start = self.at;
                while self.at < self.text.len()
                    && matches!(
                        self.text[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                let number = std::str::from_utf8(&self.text[start..self.at]).expect("utf-8");
                Content::F64(
                    number
                        .parse()
                        .unwrap_or_else(|_| panic!("number {number:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Content {
    let mut reader = Reader {
        text: text.as_bytes(),
        at: 0,
    };
    let value = reader.value();
    reader.skip_space();
    assert_eq!(reader.at, text.len(), "trailing text");
    value
}

fn field<'a>(object: &'a Content, key: &str) -> &'a Content {
    match object {
        Content::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn items(array: &Content) -> &[Content] {
    match array {
        Content::Array(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

fn text(value: &Content) -> &str {
    match value {
        Content::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn number(value: &Content) -> f64 {
    match value {
        Content::F64(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

/// `BENCHMARK.json`'s list under `key` must be the catalogue: same names in
/// the same order, same units, same directions, same bounds.
fn assert_listed(contract: &Content, key: &str, catalogue: &[Def]) {
    let listed = items(field(contract, key));
    let names: Vec<&str> = listed.iter().map(|m| text(field(m, "name"))).collect();
    let expected: Vec<&str> = catalogue.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, expected, "{key}");
    for (entry, def) in listed.iter().zip(catalogue) {
        assert_eq!(text(field(entry, "unit")), def.unit, "{}", def.name);
        assert_eq!(
            text(field(entry, "better")),
            def.better.label(),
            "{}",
            def.name
        );
        if let Some(bound) = def.bound {
            assert_eq!(number(field(entry, "bound")), bound, "{}", def.name);
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let contract = parse(BENCHMARK_JSON);
    assert_listed(&contract, "end_to_end", &metrics::end_to_end());
    assert_listed(&contract, "per_layer", &metrics::per_layer());
    // The driver's run allowance has room for the first workloads only
    // (README.md); the others run by hand and in these tests.
    let workloads: Vec<&str> = items(field(&contract, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let specs: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    assert_eq!(workloads, specs[..workloads.len()]);
    assert!(workloads.len() >= 2);
    assert_eq!(
        number(field(&contract, "run_seconds")),
        run::BASE_SECONDS as f64
    );
}

#[test]
fn names_and_units_fit_the_contract() {
    let allowed = |extra: &str, s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let catalogue: Vec<Def> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    for def in &catalogue {
        assert!(
            allowed("_.-", &def.name) && def.name.len() <= 64,
            "{}",
            def.name
        );
        assert!(
            allowed("_/%.-", def.unit) && def.unit.len() <= 16,
            "{}",
            def.unit
        );
        let same_name = catalogue.iter().filter(|d| d.name == def.name).count();
        assert_eq!(same_name, 1, "{} is listed twice", def.name);
    }
    assert!(metrics::per_layer().len() <= 128);
    assert!(metrics::end_to_end().iter().any(|d| d.name == "setup_s"));
}

/// The end-to-end smoke run of one workload: completes, and every metric of
/// the catalogue is there, finite and — the driver divides by them — not 0.
/// CPU time is the exception: the kernel counts it in 10 ms ticks, and a
/// smoke round can end inside one.
fn end_to_end_smoke(workload: usize) {
    let report = run::run_workload(&SPECS[workload], &smoke(false));
    assert_clean(&report);
    assert!(report.sheet.missing().is_empty());
    for metric in &report.sheet.metrics {
        let floor_ok = metric.value > 0.0 || metric.def.name == "cpu_ms_per_ktx";
        assert!(metric.value.is_finite() && floor_ok, "{}", metric.def.name);
    }
}

/// Stage spans of a Chrome trace must lie inside their block's span, and
/// their durations plus the block's self time must add up to the block.
fn assert_spans_nest(path: &std::path::Path) {
    let trace = parse(&std::fs::read_to_string(path).expect("the trace was written"));
    let events = items(field(&trace, "traceEvents"));
    let of = |event: &Content| {
        (
            text(field(event, "name")).to_string(),
            number(field(field(event, "args"), "block")),
            number(field(event, "ts")),
            number(field(event, "dur")),
        )
    };
    let blocks: Vec<_> = events.iter().map(of).filter(|e| e.0 == "block").collect();
    assert!(!blocks.is_empty());
    for (_, id, start, duration) in &blocks {
        let stages: Vec<_> = events
            .iter()
            .map(of)
            .filter(|e| e.0 != "block" && e.1 == *id)
            .collect();
        assert_eq!(stages.len(), crate::trace::STAGES.len(), "block {id}");
        let mut covered = 0.0;
        for (name, _, stage_start, stage_duration) in &stages {
            // The file keeps a thousandth of a microsecond.
            assert!(
                *stage_start >= start - 0.002
                    && stage_start + stage_duration <= start + duration + 0.002,
                "{name} of block {id} leaves its block"
            );
            covered += stage_duration;
        }
        let self_time = duration - covered;
        assert!(self_time >= -0.01, "block {id}: stages overlap");
        assert!(
            (self_time + covered - duration).abs() <= 0.01 * duration,
            "block {id}: self times do not add up"
        );
    }
}

/// The traced smoke run of one workload, twice with one seed: every
/// per-layer metric is emitted finite, the exact counts repeat bit for bit,
/// and the spans account for the whole of every traced block.
fn traced_smoke(workload: usize) {
    let spec = &SPECS[workload];
    let out_dir = std::env::temp_dir().join(format!(
        "dmvcc-e2e-test-{}-{}",
        std::process::id(),
        spec.name
    ));
    let options = Options {
        out_dir: Some(out_dir.clone()),
        ..smoke(true)
    };
    let first = run::run_workload(spec, &options);
    let second = run::run_workload(spec, &options);
    assert_clean(&first);
    assert_clean(&second);
    assert!(
        first.sheet.missing().is_empty(),
        "{:?}",
        first.sheet.missing()
    );
    for (a, b) in first.sheet.metrics.iter().zip(&second.sheet.metrics) {
        assert_eq!(a.def.name, b.def.name);
        assert!(a.value.is_finite(), "{}", a.def.name);
        if a.def.exact {
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "{} on {} must repeat exactly",
                a.def.name,
                spec.name
            );
        }
    }
    // What the spans attribute and what they do not is the whole block.
    let shares: f64 = crate::trace::STAGES
        .iter()
        .map(|stage| {
            first
                .sheet
                .get(&format!("trace.share.{stage}"))
                .expect("emitted")
        })
        .sum();
    let unattributed = first
        .sheet
        .get("trace.unattributed_share")
        .expect("emitted");
    assert!(
        (shares + unattributed - 1.0).abs() < 0.01,
        "{shares} + {unattributed}"
    );
    assert_spans_nest(&out_dir.join(format!("trace-{}.json", spec.name)));
    let _ = std::fs::remove_dir_all(&out_dir);
}

// One test per workload, so that the harness runs them side by side.
#[test]
fn realistic_smoke() {
    end_to_end_smoke(0);
    traced_smoke(0);
}

#[test]
fn hot_smoke() {
    end_to_end_smoke(1);
    traced_smoke(1);
}

#[test]
fn loops_smoke() {
    end_to_end_smoke(2);
    traced_smoke(2);
}

#[test]
fn cold_state_smoke() {
    end_to_end_smoke(3);
    traced_smoke(3);
}

#[test]
fn a_wedged_block_fails_the_run_instead_of_hanging_it() {
    let wedge = Wedge::new(2);
    let options = Options {
        deadline_floor: Duration::from_secs(3),
        wedge: Some(wedge.clone()),
        ..smoke(false)
    };
    let report = run::run_workload(&SPECS[0], &options);
    // Let the parked child finish on its own; nobody is listening any more.
    wedge.release();
    assert!(report.wedged && !report.correct);
    // Two timed blocks were produced; the other ten count as failed.
    assert_eq!(report.attempted, 12);
    assert_eq!(report.failed, 10);
    assert!(report.failed as f64 / report.attempted as f64 > 0.0);
    // What was measured before the wedge is still reported; what a finished
    // round would have given is not.
    assert!(report.sheet.get("setup_s").is_some());
    assert!(report.sheet.get("block_latency_p50_ms").is_some());
    assert!(report.sheet.get("chain_tps").is_none());
}

#[test]
fn median_is_the_middle_or_the_mean_of_the_middle_two() {
    assert_eq!(metrics::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(metrics::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}
