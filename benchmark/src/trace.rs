//! Spans recorded from outside the simulator: one around each call into a
//! layer's public functions, kept in memory and written out when the run
//! ends. Spans inside the simulator are a later change.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval: a call into a layer, or the step that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, or `step` for the per-step parent.
    pub name: &'static str,
    /// Nanoseconds from the tracer's creation to the start of the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's creation to the return of the call.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// The closed-loop step the span belongs to: the shared identifier.
    pub step: u64,
}

impl Span {
    /// The span's duration.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls, total time and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their durations.
    pub nanos: u64,
    /// Sum of their durations minus what their children cover.
    pub self_nanos: u64,
}

/// The span recorder. Switched off it records nothing and costs one
/// branch per call, so the untraced run goes through the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    /// Starts or stops recording; open spans must have been closed.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "switching the tracer inside a span");
        self.on = on;
    }

    /// Sets the step identifier given to the spans recorded from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Runs `f` inside a span called `name`, a child of the span that is
    /// open now. `f` gets the tracer back to open children of its own.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: name, start, end, parent, step.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{}}}",
                span.name, span.start_ns, span.end_ns, span.step
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children of one span never overlap (one thread
/// records them all), so the part covered is the sum of their durations.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = &mut own[parent as usize];
            *covered = covered.saturating_sub(span.nanos());
        }
    }
    own
}

/// Totals per span name over the spans from index `from` on (parents may
/// lie before it), in name order so that output repeats exactly.
pub fn totals_by_name(spans: &[Span], from: usize) -> BTreeMap<&'static str, NameTotals> {
    let own = self_nanos(spans);
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_nanos) in spans.iter().zip(own).skip(from) {
        let entry = totals.entry(span.name).or_default();
        entry.calls += 1;
        entry.nanos += span.nanos();
        entry.self_nanos += self_nanos;
    }
    totals
}

/// Durations of the spans called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::nanos)
        .collect()
}
