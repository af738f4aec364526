//! One run of one workload: set-up, warm-up, the timed passes and
//! verification on a child thread, a watchdog on the calling one.
//!
//! The child reports every block it finishes. The watchdog waits for each
//! report with `recv_timeout`; a block that overruns its deadline, a worker
//! that panics or a wedge ends the run with the remaining blocks counted as
//! failed and whatever was measured so far still printed, instead of a
//! hang.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use crate::adapter::{self, Engine, Executed, Spec, World};
use crate::metrics::{self, median, ratio, Sheet};
use crate::probes;
use crate::trace::{Recorder, BLOCK, STAGES};

/// `--seconds` at which a run makes the workload's number of rounds; longer
/// runs scale the number up, shorter ones keep it.
pub const BASE_SECONDS: u64 = 30;
const WARMUP_BLOCKS: usize = 4;
/// The traced run: probed blocks, then blocks run alternately traced and
/// untraced, then a short pipelined pass.
const BASE_PROBE_BLOCKS: usize = 12;
const BASE_TRACED_BLOCKS: usize = 24;
const BASE_TRACE_PIPELINED_BLOCKS: usize = 12;
const SMOKE_ROUNDS: usize = 2;
const SMOKE_ROUND_BLOCKS: usize = 3;

/// Set-up repeats until it has run this long in total, so that a short
/// set-up is reported as a median of several (half a second of set-up read
/// 0.43 s and 0.61 s on one host within minutes) and a long one is paid for
/// once.
const SETUP_REPEAT_BUDGET_S: f64 = 3.0;
const SETUP_MAX_REPEATS: usize = 7;

/// A block may take this long, or fifty warm-up medians if that is more.
const BLOCK_DEADLINE_FLOOR: Duration = Duration::from_secs(30);
/// Set-up and verification are not block-paced; they get one allowance.
const PHASE_DEADLINE: Duration = Duration::from_secs(170);

/// What one invocation asks for.
#[derive(Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds asked for (scales the block counts).
    pub seconds: u64,
    /// Smoke sizes.
    pub smoke: bool,
    /// The traced, per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// Executor and hash threads.
    pub threads: usize,
    /// The per-block deadline's floor.
    pub deadline_floor: Duration,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub out_dir: Option<std::path::PathBuf>,
    /// Test-only: park the child before this timed block.
    #[cfg(test)]
    pub wedge: Option<std::sync::Arc<Wedge>>,
}

impl Options {
    /// Defaults for `seed`: `min(nproc, 4)` threads, full sizes.
    pub fn new(seed: u64) -> Options {
        Options {
            seed,
            seconds: BASE_SECONDS,
            smoke: false,
            trace: false,
            threads: host_parallelism().min(4),
            deadline_floor: BLOCK_DEADLINE_FLOOR,
            out_dir: None,
            #[cfg(test)]
            wedge: None,
        }
    }
}

/// A test-only hook that parks the child thread until released.
#[cfg(test)]
pub struct Wedge {
    /// The timed block (0-based) before which the child parks.
    pub at_block: usize,
    released: std::sync::Mutex<bool>,
    wake: std::sync::Condvar,
}

#[cfg(test)]
impl Wedge {
    /// A wedge before timed block `at_block`.
    pub fn new(at_block: usize) -> std::sync::Arc<Wedge> {
        std::sync::Arc::new(Wedge {
            at_block,
            released: std::sync::Mutex::new(false),
            wake: std::sync::Condvar::new(),
        })
    }

    /// Lets the parked child continue.
    pub fn release(&self) {
        *self.released.lock().expect("wedge lock") = true;
        self.wake.notify_all();
    }

    fn park(&self) {
        let mut released = self.released.lock().expect("wedge lock");
        while !*released {
            released = self.wake.wait(released).expect("wedge lock");
        }
    }
}

/// How many blocks each phase runs.
///
/// The end-to-end run alternates its two passes in rounds — `sequential`
/// blocks one at a time, then `pipelined` blocks through the pipeline, on
/// one chain — so that a busy minute on a shared host falls on both passes
/// alike and on some rounds only, and the medians over blocks and over
/// rounds leave it out. The traced run makes one round.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Discarded blocks before anything is timed.
    pub warmup: usize,
    /// Traced run only: blocks every probe runs on.
    pub probe: usize,
    /// Rounds of the two passes.
    pub rounds: usize,
    /// Blocks of a round's sequential pass (alternately traced and untraced
    /// in the traced run). In the end-to-end run the first of them is not
    /// timed: the block after a pipelined pass reads up to 30 % slow, and
    /// one such block a round would own the tail.
    pub sequential: usize,
    /// Blocks of a round's pipelined pass.
    pub pipelined: usize,
}

impl Plan {
    fn new(spec: &Spec, options: &Options) -> Plan {
        let scale = (options.seconds as f64 / BASE_SECONDS as f64).max(1.0);
        let scaled = |base: usize| (base as f64 * scale).ceil() as usize;
        match (options.smoke, options.trace) {
            (true, false) => Plan {
                warmup: 1,
                probe: 0,
                rounds: SMOKE_ROUNDS,
                sequential: SMOKE_ROUND_BLOCKS,
                pipelined: SMOKE_ROUND_BLOCKS,
            },
            (true, true) => Plan {
                warmup: 1,
                probe: 2,
                rounds: 1,
                sequential: 4,
                pipelined: 2,
            },
            (false, false) => Plan {
                warmup: WARMUP_BLOCKS,
                probe: 0,
                rounds: scaled(spec.rounds),
                sequential: spec.round_blocks,
                pipelined: spec.round_blocks,
            },
            (false, true) => Plan {
                warmup: WARMUP_BLOCKS,
                probe: scaled(BASE_PROBE_BLOCKS),
                rounds: 1,
                sequential: scaled(BASE_TRACED_BLOCKS),
                pipelined: scaled(BASE_TRACE_PIPELINED_BLOCKS),
            },
        }
    }

    fn blocks(&self) -> usize {
        self.warmup + self.attempted()
    }

    /// Blocks whose failure counts: everything after warm-up.
    pub fn attempted(&self) -> usize {
        self.probe + self.rounds * (self.sequential + self.pipelined)
    }
}

/// What the child tells the watchdog.
enum Event {
    /// Set-up finished: one wall time per repeat.
    SetUp(Vec<f64>),
    /// A warm-up block finished.
    WarmUp(u64),
    /// A block after warm-up finished; the wall time is present for the
    /// timed blocks of the sequential pass.
    Block(Option<u64>),
    /// A round of the end-to-end run finished.
    Round(RoundTotals),
    /// Every round finished: the peak resident set in megabytes.
    Passes(f64),
    /// The traced run's per-layer sheet, and blocks a probe found wrong.
    Layers(Sheet, usize),
    /// Verification finished: one verdict per block after warm-up.
    Verified(Vec<Option<&'static str>>),
}

/// What one round measured besides its sequential blocks' wall times.
#[derive(Debug, Clone, Copy)]
struct RoundTotals {
    /// Sequential pass: the second-slowest timed block's wall time in
    /// milliseconds. The slowest one belongs to the host too often: with a
    /// neighbour taking 40 % of the cores in five-second bursts, ten runs
    /// spread 20 % on the median of the slowest and 12 % on this, beside
    /// 11 % on the median block and 58 % on a percentile over all blocks.
    tail_block_ms: f64,
    /// Pipelined pass: transactions per second of wall time, first block
    /// handed over → last root resolved.
    pipelined_tps: f64,
    /// Process CPU milliseconds over both passes per thousand transactions.
    cpu_ms_per_ktx: f64,
}

/// The result of one run.
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Every attempted block was produced and matched the oracle.
    pub correct: bool,
    /// Blocks after warm-up.
    pub attempted: usize,
    /// Blocks that were wrong, late or never produced.
    pub failed: usize,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub sheet: Sheet,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
    /// The run stopped on its deadline: the child may still be running.
    pub wedged: bool,
    /// Wall seconds until set-up, the timed passes and verification ended.
    pub phase_ends_s: Vec<(&'static str, f64)>,
}

/// A set-up chain plus what a sequential block needs carried along.
pub struct Chain {
    /// The set-up world.
    pub world: World,
    /// The default engine at `threads`.
    pub engine: Engine,
    /// Hash of the last sealed header.
    pub parent_hash: adapter::Hash,
    /// Every executed block, warm-up included, for verification.
    pub executed: Vec<Executed>,
    /// Span recorder (disabled outside the traced pass).
    pub recorder: Recorder,
}

impl Chain {
    fn new(world: World) -> Chain {
        let engine = Engine::new(Engine::default_label(), &world.analyzer, world.threads);
        let parent_hash = adapter::genesis_hash(world.db.current_root());
        Chain {
            world,
            engine,
            parent_hash,
            executed: Vec::new(),
            recorder: Recorder::new(false),
        }
    }

    /// Height of the block at `index` of `world.blocks`.
    pub fn height_of(index: usize) -> u64 {
        index as u64 + 1
    }

    /// One block, stages back to back: txs in hand → root known, backend
    /// batch applied, header sealed. Returns the wall time in nanoseconds.
    pub fn run_block(&mut self, index: usize) -> u64 {
        let height = Chain::height_of(index);
        let world = &mut self.world;
        let txs = &world.blocks[index];
        let rec = &mut self.recorder;
        let started = Instant::now();
        let block = rec.begin_root(BLOCK, height);
        let snapshot = world.db.latest().clone();

        let span = rec.begin(STAGES[0], height, &block);
        let csags = adapter::refine(&world.analyzer, txs, &snapshot, height, world.threads);
        rec.end(span);

        let span = rec.begin(STAGES[1], height, &block);
        let outcome = self.engine.execute(txs, &snapshot, height, &csags);
        rec.end(span);

        let span = rec.begin(STAGES[2], height, &block);
        let root = adapter::commit(&mut world.db, &outcome);
        rec.end(span);

        let span = rec.begin(STAGES[3], height, &block);
        let gas = adapter::receipt_gas(&csags);
        let hash = adapter::seal_outcome(self.parent_hash, height, txs, &outcome, &gas, root);
        rec.end(span);

        rec.end(block);
        let wall_ns = started.elapsed().as_nanos() as u64;
        self.parent_hash = hash;
        self.executed
            .push(Executed::new(outcome, root, Some((gas, hash))));
        wall_ns
    }

    /// The pipelined pass over `count` blocks starting at `first`;
    /// `progress` fires once per block.
    pub fn run_pipelined(
        &mut self,
        first: usize,
        count: usize,
        progress: impl FnMut(),
    ) -> adapter::PipelinedTotals {
        let (totals, executed) = adapter::run_pipelined(
            &self.engine,
            &mut self.world.db,
            &self.world.blocks[first..first + count],
            Chain::height_of(first),
            progress,
        );
        self.executed.extend(executed);
        totals
    }
}

fn set_up_repeatedly(spec: &Spec, options: &Options, blocks: usize) -> (World, Vec<f64>) {
    let mut seconds = Vec::new();
    loop {
        let started = Instant::now();
        let world = adapter::set_up(spec, options.seed, options.smoke, blocks, options.threads);
        seconds.push(started.elapsed().as_secs_f64());
        let enough = seconds.iter().sum::<f64>() >= SETUP_REPEAT_BUDGET_S
            || seconds.len() >= SETUP_MAX_REPEATS;
        if options.trace || options.smoke || enough {
            return (world, seconds);
        }
        drop(world);
    }
}

/// The child thread's whole life.
fn drive(spec: &'static Spec, options: Options, plan: Plan, events: Sender<Event>) {
    // A closed channel means the watchdog gave up; keep going quietly, the
    // process is about to exit.
    let send = |event: Event| {
        let _ = events.send(event);
    };
    let (world, setup_seconds) = set_up_repeatedly(spec, &options, plan.blocks());
    send(Event::SetUp(setup_seconds));
    let mut chain = Chain::new(world);

    for index in 0..plan.warmup {
        send(Event::WarmUp(chain.run_block(index)));
    }

    let block_txs = spec.block_size(options.smoke) as u64;
    if options.trace {
        let (sheet, wrong) = probes::traced_run(spec, &options, &plan, &mut chain, || {
            send(Event::Block(None));
        });
        send(Event::Layers(sheet, wrong));
    } else {
        let mut next = plan.warmup;
        for _ in 0..plan.rounds {
            chain.run_block(next);
            send(Event::Block(None));
            let cpu_before = cpu_ms();
            let mut walls_ns = Vec::with_capacity(plan.sequential);
            for index in next + 1..next + plan.sequential {
                #[cfg(test)]
                if let Some(wedge) = &options.wedge {
                    if index - plan.warmup == wedge.at_block {
                        wedge.park();
                    }
                }
                let wall_ns = chain.run_block(index);
                walls_ns.push(wall_ns);
                send(Event::Block(Some(wall_ns)));
            }
            next += plan.sequential;
            walls_ns.sort_unstable();
            let tail_ns = walls_ns[walls_ns.len().saturating_sub(2)];
            let pipelined = chain.run_pipelined(next, plan.pipelined, || {
                send(Event::Block(None));
            });
            next += plan.pipelined;
            let pipelined_txs = (plan.pipelined as u64 * block_txs) as f64;
            let round_txs = ((plan.sequential - 1 + plan.pipelined) as u64 * block_txs) as f64;
            send(Event::Round(RoundTotals {
                tail_block_ms: tail_ns as f64 / 1e6,
                pipelined_tps: ratio(pipelined_txs, pipelined.wall_ns as f64 / 1e9),
                cpu_ms_per_ktx: ratio(cpu_ms() - cpu_before, round_txs / 1e3),
            }));
        }
        send(Event::Passes(peak_rss_mb()));
    }

    let verdicts = chain.world.verify(&chain.executed);
    send(Event::Verified(verdicts[plan.warmup..].to_vec()));
}

/// Runs one workload under the watchdog and builds its report.
pub fn run_workload(spec: &'static Spec, options: &Options) -> Report {
    let plan = Plan::new(spec, options);
    reset_peak_rss();
    let (events, inbox) = mpsc::channel();
    let child = {
        let options = options.clone();
        std::thread::Builder::new()
            .name(format!("e2e-{}", spec.name))
            .spawn(move || drive(spec, options, plan, events))
            .expect("spawn the run thread")
    };

    let mut setup_seconds: Option<Vec<f64>> = None;
    let mut warmup_ns: Vec<f64> = Vec::new();
    let mut latency_ms: Vec<f64> = Vec::new();
    let mut blocks_done = 0usize;
    let mut rounds: Vec<RoundTotals> = Vec::new();
    let mut peak_rss: Option<f64> = None;
    let mut layers: Option<Sheet> = None;
    let mut wrong_in_probes = 0usize;
    let mut verdicts: Option<Vec<Option<&'static str>>> = None;
    let mut problems = Vec::new();
    let mut wedged = false;
    let started = Instant::now();
    let mut phase_ends_s = Vec::new();

    loop {
        let pacing_blocks = setup_seconds.is_some() && blocks_done < plan.attempted();
        let deadline = if pacing_blocks {
            let warm = if warmup_ns.is_empty() {
                0.0
            } else {
                median(&warmup_ns)
            };
            options
                .deadline_floor
                .max(Duration::from_nanos((50.0 * warm) as u64))
        } else {
            PHASE_DEADLINE
        };
        match inbox.recv_timeout(deadline) {
            Ok(Event::SetUp(seconds)) => {
                setup_seconds = Some(seconds);
                phase_ends_s.push(("set-up", started.elapsed().as_secs_f64()));
            }
            Ok(Event::WarmUp(wall_ns)) => warmup_ns.push(wall_ns as f64),
            Ok(Event::Block(wall_ns)) => {
                blocks_done += 1;
                latency_ms.extend(wall_ns.map(|ns| ns as f64 / 1e6));
            }
            Ok(Event::Round(totals)) => rounds.push(totals),
            Ok(Event::Passes(megabytes)) => {
                peak_rss = Some(megabytes);
                phase_ends_s.push(("passes", started.elapsed().as_secs_f64()));
            }
            Ok(Event::Layers(sheet, wrong)) => {
                layers = Some(sheet);
                wrong_in_probes = wrong;
                phase_ends_s.push(("passes", started.elapsed().as_secs_f64()));
            }
            Ok(Event::Verified(v)) => {
                verdicts = Some(v);
                phase_ends_s.push(("verification", started.elapsed().as_secs_f64()));
                break;
            }
            Err(RecvTimeoutError::Timeout) => {
                wedged = true;
                problems.push(format!(
                    "no progress for {:.1} s after {blocks_done} of {} blocks: run abandoned",
                    deadline.as_secs_f64(),
                    plan.attempted()
                ));
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if !wedged {
        if let Err(panic) = child.join() {
            let text = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            problems.push(format!("the run thread panicked: {text}"));
        }
    }

    // Failure accounting: blocks never produced, plus produced blocks the
    // oracle (or a probe) found wrong.
    let mut failed = plan.attempted() - blocks_done + wrong_in_probes;
    match &verdicts {
        Some(verdicts) => {
            for (i, verdict) in verdicts.iter().enumerate() {
                if let Some(what) = verdict {
                    failed += 1;
                    problems.push(format!("timed block {i}: {what} differs from the oracle"));
                }
            }
        }
        None => problems.push("verification did not finish".to_string()),
    }
    let failed = failed.min(plan.attempted());

    let sheet = match layers {
        Some(sheet) => sheet,
        None if options.trace => Sheet::new(metrics::per_layer()),
        None => end_to_end_sheet(setup_seconds.as_deref(), &latency_ms, &rounds, peak_rss),
    };
    let missing = sheet.missing();
    if !missing.is_empty() {
        problems.push(format!("not measured: {}", missing.join(", ")));
    }
    Report {
        workload: spec.name,
        correct: failed == 0 && verdicts.is_some() && missing.is_empty(),
        attempted: plan.attempted(),
        failed,
        sheet,
        problems,
        wedged,
        phase_ends_s,
    }
}

/// The end-to-end metrics from whatever the run got to: medians over the
/// set-up repeats, over every sequential block and over the rounds.
fn end_to_end_sheet(
    setup_seconds: Option<&[f64]>,
    latency_ms: &[f64],
    rounds: &[RoundTotals],
    peak_rss_mb: Option<f64>,
) -> Sheet {
    let mut sheet = Sheet::new(metrics::end_to_end());
    if let Some(seconds) = setup_seconds {
        sheet.put("setup_s", median(seconds), seconds.len() as u64);
    }
    if !latency_ms.is_empty() {
        let n = latency_ms.len() as u64;
        sheet.put("block_latency_p50_ms", median(latency_ms), n);
    }
    if !rounds.is_empty() {
        let n = rounds.len() as u64;
        let over = |value: fn(&RoundTotals) -> f64| {
            median(&rounds.iter().map(value).collect::<Vec<f64>>())
        };
        let per_round = format!("median of {n} rounds");
        sheet.put_detailed(
            "block_latency_tail_ms",
            over(|r| r.tail_block_ms),
            n,
            format!("a round's second-slowest block, {per_round}"),
        );
        sheet.put_detailed("chain_tps", over(|r| r.pipelined_tps), n, per_round.clone());
        sheet.put_detailed("cpu_ms_per_ktx", over(|r| r.cpu_ms_per_ktx), n, per_round);
    }
    if let Some(megabytes) = peak_rss_mb {
        sheet.put("peak_rss_mb", megabytes, 1);
    }
    sheet
}

/// Logical CPUs the process may use.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Process user+system CPU time in milliseconds, from `/proc/self/stat`.
/// The kernel reports clock ticks; Linux has fixed `USER_HZ` at 100 for
/// every architecture this runs on.
pub fn cpu_ms() -> f64 {
    const MS_PER_TICK: f64 = 10.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields are counted from after the parenthesised command name, which
    // may itself hold spaces: utime and stime are the 12th and 13th there.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * MS_PER_TICK
}

/// Resets the kernel's peak-resident-set mark to the current resident set
/// (`/proc/self/clear_refs`, value 5), so that a run which is not the first
/// in its process does not report an earlier run's peak. Best effort: where
/// the kernel refuses, the first run of a process is still right.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer loop, nanoseconds per iteration: the same number on the
/// same host, so a different number means a different (or busier) host. The
/// best of three repeats: the first loop of a process runs on a core that
/// is still waking up.
pub fn calibrate(iterations: u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let started = Instant::now();
        for _ in 0..iterations {
            adapter::xorshift(&mut state);
        }
        std::hint::black_box(state);
        best = best.min(started.elapsed().as_nanos() as f64 / iterations as f64);
    }
    best
}

/// Iterations of [`calibrate`] at full size: about a tenth of a second.
pub const CALIBRATION_ITERATIONS: u64 = 40_000_000;
