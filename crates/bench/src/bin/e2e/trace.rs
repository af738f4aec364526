//! An in-memory span recorder and its Chrome-trace writer.
//!
//! Spans are recorded around the calls into each layer, from the bench's
//! own files: one `block` span per block (identifier = height) with one
//! child span per stage. Nothing is written until the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The per-block parent span.
pub const BLOCK: &str = "block";
/// The stage spans, in the order a block runs them.
pub const STAGES: [&str; 4] = ["analysis.refine", "core.exec", "state.commit", "chain.seal"];

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `block` or one of [`STAGES`].
    pub name: &'static str,
    /// The block's height: the identifier the spans of one block share.
    pub block: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on the one driver thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Off for the untraced blocks the overhead is measured against.
    pub enabled: bool,
}

/// An open span; pass it back to [`Recorder::end`].
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, block: u64, parent: &Open) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            block,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Opens a top-level span.
    pub fn begin_root(&mut self, name: &'static str, block: u64) -> Open {
        self.begin(name, block, &Open(None))
    }

    /// Closes a span.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now();
        }
    }

    /// A span's self time: its duration minus the part its children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        self.spans[index].duration_ns().saturating_sub(children)
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Total self time of the `block` spans: block time no stage explains.
    pub fn unattributed_ns(&self) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == BLOCK)
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// Writes the spans as Chrome-trace "complete" events
    /// (`chrome://tracing`, Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            // `ts`/`dur` are microseconds; stages nest under their block
            // because they share its thread and lie inside its interval.
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"block\":{}}}}}{comma}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.block,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
