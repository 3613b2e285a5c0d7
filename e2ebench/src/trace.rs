//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent span, op id). Spans stay in memory
//! (the first [`SPAN_CAP`] per tracer) and are written out as JSON lines at
//! exit; every span, stored or not, feeds its layer's duration totals and
//! a seeded reservoir from which the per-layer percentiles are taken. No
//! span is recorded inside the program: the boundaries are the public
//! calls the benchmark itself makes.

use crate::stats::Reservoir;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim per tracer for the span file.
const SPAN_CAP: usize = 1 << 16;
/// Durations kept per layer per tracer for percentiles.
const RESERVOIR_CAP: usize = 1 << 16;

/// The layer boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One benchmark op (the parent of the spans below).
    Op,
    /// `before_acquire` / `before_acquire_shared`.
    Admit,
    /// The bare `std::sync` lock call under the hook.
    Substrate,
    /// `after_acquire`.
    Acquired,
    /// `before_release`.
    Release,
    /// Dropping the bare `std::sync` guard.
    Unlock,
    /// One `poll` of an `asyncio` lock future.
    Poll,
    /// An `asyncio` lock-future poll that returned `WouldDeadlock`: the
    /// detection, refusal back-out and history append ran inside it.
    DetectPoll,
    /// `RuntimeBuilder::build`.
    Build,
    /// `Pack::load_or_quarantine`.
    PackLoad,
    /// `HistoryLog::replay`.
    HistoryLoad,
    /// `Zygote::fork`.
    Fork,
    /// `Process::run`.
    Run,
}

impl Layer {
    pub const COUNT: usize = 13;

    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Admit => "rt.before_acquire",
            Layer::Substrate => "substrate.lock",
            Layer::Acquired => "rt.after_acquire",
            Layer::Release => "rt.before_release",
            Layer::Unlock => "substrate.unlock",
            Layer::Poll => "asyncio.poll",
            Layer::DetectPoll => "asyncio.poll.refused",
            Layer::Build => "rt.build",
            Layer::PackLoad => "exchange.load_or_quarantine",
            Layer::HistoryLoad => "core.history.replay",
            Layer::Fork => "dalvik.fork",
            Layer::Run => "dalvik.run",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    parent: u32,
    op: u64,
}

/// An open parent span; close it with [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    layer: Layer,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    count: [u64; Layer::COUNT],
    total_ns: [u128; Layer::COUNT],
    samples: Vec<Reservoir>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize, seed: u64) -> Self {
        Tracer {
            epoch,
            thread,
            spans: Vec::with_capacity(SPAN_CAP),
            count: [0; Layer::COUNT],
            total_ns: [0; Layer::COUNT],
            samples: (0..Layer::COUNT)
                .map(|i| Reservoir::new(RESERVOIR_CAP, seed ^ (i as u64 + 1) << 32))
                .collect(),
        }
    }

    /// Nanoseconds since the run's trace epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a parent span starting at `start`.
    pub fn open(&mut self, layer: Layer, start: u64, op: u64, parent: u32) -> Open {
        let id = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer,
                start,
                end: start,
                parent,
                op,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        Open { id, layer, start }
    }

    /// Closes a parent span at `end`.
    pub fn close(&mut self, open: Open, end: u64) {
        if let Some(span) = self.spans.get_mut(open.id as usize) {
            span.end = end;
        }
        self.note(open.layer, end.saturating_sub(open.start));
    }

    /// Records a leaf span under `parent` (an [`Open::id`], or `u32::MAX`).
    #[inline]
    pub fn leaf(&mut self, layer: Layer, start: u64, end: u64, parent: u32, op: u64) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer,
                start,
                end,
                parent,
                op,
            });
        }
        self.note(layer, end.saturating_sub(start));
    }

    /// Adds a duration to a layer's totals without storing a span.
    #[inline]
    pub fn note(&mut self, layer: Layer, ns: u64) {
        let i = layer as usize;
        self.count[i] += 1;
        self.total_ns[i] += ns as u128;
        self.samples[i].push(ns);
    }

    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer as usize]
    }

    pub fn total_ns(&self, layer: Layer) -> u128 {
        self.total_ns[layer as usize]
    }

    /// Total time of the leaf spans under ops: the hook calls and the
    /// bare lock and unlock.
    pub fn section_span_ns(&self) -> u128 {
        [
            Layer::Admit,
            Layer::Substrate,
            Layer::Acquired,
            Layer::Release,
            Layer::Unlock,
        ]
        .iter()
        .map(|l| self.total_ns(*l))
        .sum()
    }

    pub fn samples(&self, layer: Layer) -> &Reservoir {
        &self.samples[layer as usize]
    }

    /// Folds another tracer's totals and samples into this one (spans are
    /// kept per tracer for the span file).
    pub fn absorb_totals(&mut self, other: &Tracer) {
        for i in 0..Layer::COUNT {
            self.count[i] += other.count[i];
            self.total_ns[i] += other.total_ns[i];
            let sample = other.samples[i].clone();
            self.samples[i].merge(&sample);
        }
    }
}

/// Writes every tracer's stored spans to `path` as JSON lines.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                format!("\"{}.{}\"", t.thread, s.parent)
            };
            writeln!(
                out,
                "{{\"id\":\"{}.{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                t.thread,
                i,
                s.layer.name(),
                s.start,
                s.end,
                parent,
                s.op
            )?;
        }
    }
    out.flush()
}
