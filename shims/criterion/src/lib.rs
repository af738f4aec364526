//! Offline stand-in for `criterion`.
//!
//! Provides the harness surface `benches/micro.rs` uses: `Criterion`,
//! `benchmark_group` / `bench_function` / `sample_size` / `throughput` /
//! `finish`,
//! `Bencher::{iter, iter_batched}`, [`BatchSize`], and the
//! [`Throughput::Elements`], and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement is a plain monotonic-clock loop (no outlier rejection or
//! HTML reports): each benchmark is calibrated to ~2 ms per sample, runs
//! `sample_size` samples, and prints the mean, min, and max ns/iteration.
//! Under `cargo test` (no `--bench` argument) every benchmark body runs
//! exactly once as a smoke test, mirroring upstream's test mode.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup (accepted for parity; the shim always
/// runs setup once per measured batch element).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// What one iteration processes, for a per-element figure beside the
/// per-iteration one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
}

/// Top-level harness handle.
pub struct Criterion {
    bench_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut bench_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--bench" => bench_mode = true,
                "--test" => bench_mode = false,
                a if !a.starts_with('-') => filter = Some(a.to_string()),
                _ => {}
            }
        }
        Criterion { bench_mode, filter }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 50,
            elements: None,
            criterion: self,
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    elements: Option<u64>,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets what an iteration of the benchmarks that follow processes: their
    /// reports add the minimum time per element.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        let Throughput::Elements(elements) = throughput;
        self.elements = Some(elements);
        self
    }

    /// Registers and (unless filtered out) runs one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher {
            bench_mode: self.criterion.bench_mode,
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        bencher.report(&full, self.elements);
        self
    }

    /// Ends the group (upstream writes reports here; the shim prints live).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure to drive timing.
pub struct Bencher {
    bench_mode: bool,
    sample_size: usize,
    /// Mean ns/iter of each sample.
    samples_ns: Vec<f64>,
}

/// Target wall-clock duration of one timed sample.
const SAMPLE_BUDGET: Duration = Duration::from_millis(2);

impl Bencher {
    /// Times a routine.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if !self.bench_mode {
            black_box(routine());
            return;
        }
        // Calibrate iterations per sample against the per-sample budget.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= SAMPLE_BUDGET || iters >= 1 << 30 {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples_ns
                .push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }

    /// Times a routine with untimed per-iteration setup.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if !self.bench_mode {
            black_box(routine(setup()));
            return;
        }
        for _ in 0..self.sample_size {
            // One setup+run per sample keeps setup cost fully untimed.
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples_ns.push(start.elapsed().as_nanos() as f64);
        }
    }

    fn report(&self, id: &str, elements: Option<u64>) {
        if !self.bench_mode {
            println!("test {id} ... ok (smoke)");
            return;
        }
        let n = self.samples_ns.len().max(1) as f64;
        let mean = self.samples_ns.iter().sum::<f64>() / n;
        let min = self
            .samples_ns
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = self
            .samples_ns
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let per_element = elements.map_or(String::new(), |elements| {
            format!("  min {:.1} ns/elem", min / elements as f64)
        });
        println!(
            "{id:<48} time: [{min:>12.1} ns  {mean:>12.1} ns  {max:>12.1} ns]/iter{per_element}"
        );
    }
}

/// Bundles benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_each_routine_once() {
        let mut criterion = Criterion {
            bench_mode: false,
            filter: None,
        };
        let mut runs = 0;
        let mut group = criterion.benchmark_group("g");
        group.bench_function("f", |b| b.iter(|| runs += 1));
        group.finish();
        assert_eq!(runs, 1);
    }

    #[test]
    fn bench_mode_collects_samples() {
        let mut criterion = Criterion {
            bench_mode: true,
            filter: None,
        };
        let mut group = criterion.benchmark_group("g");
        group.sample_size(5).bench_function("spin", |b| {
            b.iter(|| std::hint::black_box(17u64.wrapping_mul(31)))
        });
        group.finish();
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut criterion = Criterion {
            bench_mode: false,
            filter: Some("other".to_string()),
        };
        let mut runs = 0;
        let mut group = criterion.benchmark_group("g");
        group.bench_function("f", |b| b.iter(|| runs += 1));
        group.finish();
        assert_eq!(runs, 0);
    }
}
