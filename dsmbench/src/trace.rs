//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer's public functions; the program itself is not
//! instrumented. A span's self time is its duration minus the time its
//! child spans cover ([`crate::stats::self_time`]).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::self_time;

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// A single thread's span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Records a finished top-level span that ran from `start` to `end`.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start, end) = (at(start), at(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            op,
        });
    }

    /// Every recorded span, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, grouped by span name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            out.entry(s.name)
                .or_default()
                .push(self_time(s.start, s.end, kids));
        }
        out
    }

    /// Appends the log to `path` as tab-separated
    /// `name start end parent op` lines, at most `cap` spans.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_tsv(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        );
        for s in self.spans.iter().take(cap) {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, parent, s.op
            )?;
        }
        f.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_per_parent() {
        let mut t = Tracer::new();
        let op = t.open("op", 0, None);
        t.span("child", 0, Some(op), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(op);
        let st = t.self_times();
        let child = st["child"][0];
        let parent_total = t.spans()[0].end - t.spans()[0].start;
        assert!(child >= 2_000_000);
        assert_eq!(st["op"][0] + child, parent_total);
    }
}
