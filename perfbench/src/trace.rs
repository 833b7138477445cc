//! In-memory spans around each call into the engine, written out when
//! the run ends.
//!
//! A span has a name, a start, an end, a parent and a step id. Spans are
//! recorded from the benchmark's side of each public call, so a layer's
//! time is what its caller waited for it.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One closed-loop round: appends, run, drains.
    Step,
    /// `Engine::append` of one batch of stream `s`.
    AppendS,
    /// `Engine::append` of one batch of stream `t`.
    AppendT,
    /// `Engine::run_until_idle`.
    Run,
    /// `Engine::drain_results` of every query.
    Drain,
    /// Open-loop sender: writing scheduled rows to the ingest socket.
    GenSend,
    /// Open-loop sender: waiting for the next scheduled chunk.
    GenWait,
    /// Subscriber: reading and splitting result lines.
    SubRead,
}

impl Name {
    /// Span name as written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Step => "step",
            Name::AppendS => "append.s",
            Name::AppendT => "append.t",
            Name::Run => "run_until_idle",
            Name::Drain => "drain",
            Name::GenSend => "gen.send",
            Name::GenWait => "gen.wait",
            Name::SubRead => "sub.read",
        }
    }
}

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Round the span belongs to.
    pub step: u32,
    /// What it covers.
    pub name: Name,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

impl Span {
    /// Length of the span.
    pub fn dur(&self) -> Duration {
        Duration::from_nanos(self.end.saturating_sub(self.start))
    }
}

/// Span recorder. When off, `record` does nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 20 } else { 0 }),
        }
    }

    /// Is recording on?
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span; returns its index (for children's `parent`).
    pub fn record(
        &mut self,
        step: usize,
        name: Name,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = u32::try_from(self.spans.len()).ok()?;
        let span = Span {
            step: u32::try_from(step).unwrap_or(u32::MAX),
            name,
            parent,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.push(span);
        Some(idx)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time and count of the spans named `name`.
    pub fn total(&self, name: Name) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, n), s| (d + s.dur(), n + 1))
    }

    /// Write every span as CSV: `step,name,parent,start_ns,end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "step,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(String::new, |p| p.to_string());
            writeln!(w, "{},{},{},{},{}", s.step, s.name.as_str(), parent, s.start, s.end)?;
        }
        w.flush()
    }

    /// Cost of recording one span (two clock reads plus the push), in
    /// nanoseconds, measured on a scratch tracer.
    pub fn cost_per_span_ns() -> f64 {
        const N: usize = 200_000;
        let mut t = Tracer::new(true);
        let start = Instant::now();
        for i in 0..N {
            let a = Instant::now();
            let b = Instant::now();
            t.record(i, Name::Run, None, a, b);
        }
        let ns = start.elapsed().as_nanos() as f64;
        std::hint::black_box(t.spans.len());
        ns / N as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_and_on_tracer_sums() {
        let mut off = Tracer::new(false);
        let mut on = Tracer::new(true);
        let a = Instant::now();
        assert_eq!(off.record(0, Name::Run, None, a, a), None);
        assert!(off.spans().is_empty());

        let b = a + Duration::from_micros(5);
        let p = on.record(0, Name::Step, None, a, b);
        on.record(0, Name::Run, p, a, b);
        on.record(1, Name::Run, p, a, b);
        assert_eq!(on.total(Name::Run), (Duration::from_micros(10), 2));
        assert_eq!(on.spans()[1].parent, Some(0));
    }
}
