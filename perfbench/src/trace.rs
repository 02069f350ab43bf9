//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! program's public functions: each span has a layer name, a start, an end
//! and the span that encloses it. Nothing is written while the replay
//! runs; [`Tracer::finish`] folds the spans into per-layer self times at
//! the end. A span's self time is its duration minus the durations of its
//! direct children, so the self times of all spans, including the root's,
//! add up to the root's duration exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layer that owns the time no layer span covers: the benchmark's own
/// glue between calls.
pub const ROOT: &str = "trace";

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals folded from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Sum of the self times of the layer's spans, in seconds.
    pub self_s: f64,
    /// Number of spans recorded for the layer.
    pub calls: u64,
}

/// The folded trace: per-layer totals plus the root's wall time.
#[derive(Debug, Clone, Default)]
pub struct Folded {
    /// Totals per layer; the root layer holds the unattributed time.
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Duration of the root span, in seconds.
    pub wall_s: f64,
}

impl Folded {
    /// Self time of `layer` in seconds (0 when it recorded no span).
    pub fn self_s(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |l| l.self_s)
    }

    /// Spans recorded for `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |l| l.calls)
    }

    /// Time inside the root span that no layer span covers.
    pub fn unattributed_s(&self) -> f64 {
        self.self_s(ROOT)
    }

    /// Adds another trace's totals to these.
    pub fn merge(&mut self, other: Folded) {
        for (layer, totals) in other.layers {
            let mine = self.layers.entry(layer).or_default();
            mine.self_s += totals.self_s;
            mine.calls += totals.calls;
        }
        self.wall_s += other.wall_s;
    }

    /// Sum of the self times of every layer except the root.
    pub fn attributed_s(&self) -> f64 {
        self.layers
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .map(|(_, l)| l.self_s)
            .sum()
    }
}

/// Records nested spans in memory. The root span opens on construction.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Starts a trace and opens its root span.
    pub fn new() -> Tracer {
        let mut tracer = Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        tracer.begin(ROOT);
        tracer
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` inside the innermost open span.
    pub fn begin(&mut self, layer: &'static str) {
        let span = Span {
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(layer);
        let out = f();
        self.end();
        out
    }

    /// Closes the root span and folds every span into per-layer totals.
    pub fn finish(mut self) -> Folded {
        while !self.open.is_empty() {
            self.end();
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut folded = Folded::default();
        for (id, span) in self.spans.iter().enumerate() {
            let duration = span.end_ns - span.start_ns;
            let totals = folded.layers.entry(span.layer).or_default();
            totals.self_s += duration.saturating_sub(child_ns[id]) as f64 * 1e-9;
            totals.calls += 1;
            if span.parent.is_none() {
                folded.wall_s += duration as f64 * 1e-9;
            }
        }
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < micros as u128 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_times_add_up_to_the_root_wall() {
        let mut t = Tracer::new();
        spin(200);
        t.begin("outer");
        spin(300);
        t.span("inner", || spin(500));
        t.end();
        t.span("inner", || spin(100));
        let folded = t.finish();
        let sum = folded.attributed_s() + folded.unattributed_s();
        assert!(
            (sum - folded.wall_s).abs() < 1e-9,
            "{sum} vs {}",
            folded.wall_s
        );
        assert_eq!(folded.calls("inner"), 2);
        assert_eq!(folded.calls("outer"), 1);
        assert!(folded.self_s("outer") >= 300e-6);
        assert!(folded.unattributed_s() >= 200e-6);
    }
}
