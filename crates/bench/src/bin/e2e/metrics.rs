//! The metric catalogue and the small statistics the reports need.
//!
//! The catalogue is the one list of what this benchmark measures: name,
//! unit, which way is better, the layer (crate) that owns the number and
//! the end-to-end metric it should move. `BENCHMARK.json` repeats the
//! names, units, directions and bounds; a test keeps the two equal, and a
//! measurement whose name is not listed here cannot be emitted.

use crate::adapter::{ENGINES, TIERS};
use crate::trace::STAGES;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A catalogued metric.
#[derive(Debug, Clone)]
pub struct Def {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end: the share of the parent's median by which it may worsen.
    pub bound: Option<f64>,
    /// Per-layer: the crate that owns the number (`bench` for the bench's
    /// own checks).
    pub layer: &'static str,
    /// Per-layer: the end-to-end metric it should move, and where.
    pub moves: &'static str,
    /// A count that must repeat exactly for a seed.
    pub exact: bool,
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub fn end_to_end() -> Vec<Def> {
    use Better::{Higher, Lower};
    [
        ("setup_s", "s", Lower, 0.25),
        ("chain_tps", "tx/s", Higher, 0.25),
        ("block_latency_p50_ms", "ms", Lower, 0.25),
        ("block_latency_tail_ms", "ms", Lower, 0.25),
        ("cpu_ms_per_ktx", "ms/ktx", Lower, 0.25),
        ("peak_rss_mb", "MB", Lower, 0.15),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Def {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        layer: "",
        moves: "",
        exact: false,
    })
    .collect()
}

const LATENCY: &str = "block_latency_*_ms and chain_tps";

/// The per-layer metrics, as `BENCHMARK.json` lists them.
pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    let mut add = |name: String, unit, better, layer, moves, exact| {
        defs.push(Def {
            name,
            unit,
            better,
            bound: None,
            layer,
            moves,
            exact,
        });
    };
    let fixed: [(&str, &'static str, Better, &'static str, &'static str, bool); 44] = [
        (
            "workload.gen_us_per_tx",
            "us",
            Lower,
            "workload",
            "setup_s, every workload",
            false,
        ),
        (
            "workload.genesis_keys",
            "count",
            Lower,
            "workload",
            "setup_s, every workload",
            true,
        ),
        (
            "workload.db_build_s",
            "s",
            Lower,
            "workload",
            "setup_s, every workload",
            false,
        ),
        (
            "analysis.psag_cold_ms",
            "ms",
            Lower,
            "analysis",
            "setup_s",
            false,
        ),
        (
            "analysis.summary_cache_hit_share",
            "ratio",
            Higher,
            "analysis",
            "setup_s",
            true,
        ),
        (
            "analysis.refine_us_per_tx",
            "us",
            Lower,
            "analysis",
            LATENCY,
            false,
        ),
        (
            "analysis.refine_us_per_tx_1t",
            "us",
            Lower,
            "analysis",
            LATENCY,
            false,
        ),
        (
            "analysis.keys_per_tx",
            "count",
            Lower,
            "analysis",
            LATENCY,
            true,
        ),
        (
            "analysis.mispredicted_key_share",
            "ratio",
            Lower,
            "analysis",
            "core.abort_share.sharded, then block_latency_tail_ms on loops",
            true,
        ),
        ("core.rank_us_per_tx", "us", Lower, "core", LATENCY, false),
        ("core.speedup_bound", "ratio", Higher, "core", LATENCY, true),
        (
            "core.serial_us_per_tx",
            "us",
            Lower,
            "core",
            "none: the one-thread reference",
            false,
        ),
        ("core.parks_per_ktx", "1/ktx", Lower, "core", LATENCY, false),
        (
            "core.targeted_wakeups_per_ktx",
            "1/ktx",
            Lower,
            "core",
            LATENCY,
            false,
        ),
        (
            "core.steals_per_ktx",
            "1/ktx",
            Lower,
            "core",
            LATENCY,
            false,
        ),
        (
            "core.shard_locks_per_tx",
            "1/tx",
            Lower,
            "core",
            LATENCY,
            false,
        ),
        (
            "core.publishes_per_tx",
            "1/tx",
            Lower,
            "core",
            LATENCY,
            false,
        ),
        (
            "core.publishes_per_batch",
            "ratio",
            Higher,
            "core",
            LATENCY,
            false,
        ),
        (
            "core.rank_inversions_per_ktx",
            "1/ktx",
            Lower,
            "core",
            LATENCY,
            false,
        ),
        (
            "core.arena_recycled_mb_per_block",
            "MB",
            Higher,
            "core",
            "cpu_ms_per_ktx",
            false,
        ),
        (
            "core.stm.validation_failure_share",
            "ratio",
            Lower,
            "core",
            "core.exec_us_per_tx.stm",
            false,
        ),
        (
            "core.hybrid.optimistic_share",
            "ratio",
            Lower,
            "core",
            "core.exec_us_per_tx.hybrid",
            false,
        ),
        (
            "core.pipeline.refine_hidden_share",
            "ratio",
            Higher,
            "core",
            "chain_tps only",
            false,
        ),
        (
            "vm.interp_us_per_tx",
            "us",
            Lower,
            "vm",
            "block_latency_* on loops",
            false,
        ),
        (
            "vm.mgas_per_s",
            "Mgas/s",
            Higher,
            "vm",
            "block_latency_* on loops",
            false,
        ),
        (
            "vm.gas_per_tx",
            "gas",
            Lower,
            "vm",
            "block_latency_* on loops",
            true,
        ),
        (
            "vm.revert_share",
            "ratio",
            Lower,
            "vm",
            "none: a workload property",
            true,
        ),
        (
            "state.snapshot_apply_us_per_write",
            "us",
            Lower,
            "state",
            "chain_tps",
            false,
        ),
        (
            "state.commit_ms_per_block",
            "ms",
            Lower,
            "state",
            "block_latency_*, most on cold-state",
            false,
        ),
        (
            "state.commit_us_per_write",
            "us",
            Lower,
            "state",
            "block_latency_*, most on cold-state",
            false,
        ),
        (
            "state.root_hash_ms_per_block",
            "ms",
            Lower,
            "state",
            "block_latency_*; cpu_ms_per_ktx when hidden",
            false,
        ),
        (
            "state.commit_hidden_share",
            "ratio",
            Higher,
            "state",
            "chain_tps only",
            false,
        ),
        (
            "state.backend_apply_us_per_write",
            "us",
            Lower,
            "state",
            "everything on cold-state",
            false,
        ),
        (
            "state.read_ns_per_get",
            "ns",
            Lower,
            "state",
            "core.exec, most on cold-state",
            false,
        ),
        (
            "state.flat_hit_share",
            "ratio",
            Higher,
            "state",
            "state.read_ns_per_get",
            false,
        ),
        (
            "state.flat_evictions_per_block",
            "count",
            Lower,
            "state",
            "state.flat_hit_share",
            false,
        ),
        (
            "state.writes_per_tx",
            "count",
            Lower,
            "state",
            "state.commit_ms_per_block",
            true,
        ),
        (
            "state.lsm.segment_reads_per_ktx",
            "1/ktx",
            Lower,
            "state",
            "block_latency_* on cold-state",
            false,
        ),
        (
            "state.lsm.write_amp",
            "ratio",
            Lower,
            "state",
            "block_latency_* on cold-state",
            false,
        ),
        (
            "state.lsm.flushes",
            "count",
            Lower,
            "state",
            "block_latency_tail_ms on cold-state",
            true,
        ),
        (
            "state.lsm.compactions",
            "count",
            Lower,
            "state",
            "block_latency_tail_ms on cold-state",
            true,
        ),
        (
            "chain.seal_us_per_tx",
            "us",
            Lower,
            "chain",
            "block_latency_*: a small constant",
            false,
        ),
        (
            "chain.pool_us_per_tx",
            "us",
            Lower,
            "chain",
            "none: off the timed path",
            false,
        ),
        (
            "primitives.keccak256_ns_per_64b",
            "ns",
            Lower,
            "primitives",
            "analysis.refine_us_per_tx, state.root_hash_ms_per_block",
            false,
        ),
    ];
    for (name, unit, better, layer, moves, exact) in fixed {
        add(name.to_string(), unit, better, layer, moves, exact);
    }
    for tier in TIERS {
        let share_better = if tier == "speculative" { Lower } else { Higher };
        add(
            format!("analysis.refine_us_per_tx.{tier}"),
            "us",
            Lower,
            "analysis",
            LATENCY,
            false,
        );
        add(
            format!("analysis.tier_share.{tier}"),
            "ratio",
            share_better,
            "analysis",
            LATENCY,
            true,
        );
    }
    for engine in ENGINES {
        let floor = "block_latency_* and chain_tps when it is the default engine";
        add(
            format!("core.exec_us_per_tx.{engine}"),
            "us",
            Lower,
            "core",
            floor,
            false,
        );
        add(
            format!("core.exec_us_per_tx_1t.{engine}"),
            "us",
            Lower,
            "core",
            floor,
            false,
        );
        add(
            format!("core.overhead_ratio_1t.{engine}"),
            "ratio",
            Lower,
            "core",
            floor,
            false,
        );
        add(
            format!("core.abort_share.{engine}"),
            "ratio",
            Lower,
            "core",
            "block_latency_tail_ms",
            false,
        );
    }
    for stage in STAGES {
        add(
            format!("trace.share.{stage}"),
            "ratio",
            Lower,
            "bench",
            "none: where a block's time goes",
            false,
        );
    }
    add(
        "trace.overhead_share".to_string(),
        "ratio",
        Lower,
        "bench",
        "none: must stay below 0.05",
        false,
    );
    add(
        "trace.unattributed_share".to_string(),
        "ratio",
        Lower,
        "bench",
        "none: must stay below 0.10",
        false,
    );
    add(
        "host.calib_ns_per_iter".to_string(),
        "ns",
        Lower,
        "bench",
        "none: recognises a slow host",
        false,
    );
    defs
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The catalogued definition.
    pub def: Def,
    /// The value as measured.
    pub value: f64,
    /// How many samples (blocks, transactions, calls) are behind it.
    pub samples: u64,
    /// Free-form detail printed beside the value (e.g. the percentile).
    pub detail: String,
}

/// Collects measurements against a catalogue.
pub struct Sheet {
    catalogue: Vec<Def>,
    /// The values emitted so far.
    pub metrics: Vec<Metric>,
}

impl Sheet {
    /// An empty sheet over `catalogue`.
    pub fn new(catalogue: Vec<Def>) -> Sheet {
        Sheet {
            catalogue,
            metrics: Vec::new(),
        }
    }

    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue or `value` is not finite:
    /// either is a bug in the bench.
    pub fn put(&mut self, name: &str, value: f64, samples: u64) {
        self.put_detailed(name, value, samples, String::new());
    }

    /// [`Sheet::put`] with a detail string.
    pub fn put_detailed(&mut self, name: &str, value: f64, samples: u64, detail: String) {
        let def = self
            .catalogue
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
            .clone();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            def,
            value,
            samples,
            detail,
        });
    }

    /// The catalogued names nothing was recorded for.
    pub fn missing(&self) -> Vec<String> {
        self.catalogue
            .iter()
            .filter(|d| !self.metrics.iter().any(|m| m.def.name == d.name))
            .map(|d| d.name.clone())
            .collect()
    }

    /// The recorded value of `name`.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
