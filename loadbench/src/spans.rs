//! The span recorder of the traced run.
//!
//! A span is a named interval around one call into a layer's public
//! functions, with its parent span and the benchmark request it served.
//! Spans stay in memory while the benchmark runs and are written out once
//! at the end, together with per-layer self time (a span's duration minus
//! the durations of its children).
//!
//! Server stages are timed by replaying them in-process after the timed
//! window (see `replay`), so they run on a later stretch of the clock than
//! the client call they belong to. Such replayed spans are *grafted* under
//! that call's `wire.rtt` span: the parent's self time subtracts their
//! durations even though the intervals do not overlap, which leaves as the
//! round trip's self time exactly what the replay does not account for —
//! reactor, queueing and transport.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// An in-memory span and counter store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// `(name, request, value)` counts recorded at layer boundaries.
    counts: Vec<(&'static str, u64, f64)>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new(), counts: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    /// Close a span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Record a count for a request.
    pub fn count(&mut self, name: &'static str, request: u64, value: f64) {
        self.counts.push((name, request, value));
    }

    /// Duration of a span in milliseconds.
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Move every span and count of `other` (same epoch) into this
    /// recorder, returning the id offset its span ids moved by.
    pub fn absorb(&mut self, other: Recorder) -> usize {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.counts.extend(other.counts);
        offset
    }

    /// Self time of every span, in milliseconds.
    pub fn self_times_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.duration_ms(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                own[parent] -= self.duration_ms(i);
            }
        }
        own
    }

    /// Per request: the total duration (not self time) of its spans
    /// named `name`.
    pub fn durations(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            *out.entry(span.request).or_default() += self.duration_ms(i);
        }
        out
    }

    /// Per layer (span name): each request's total self time in that
    /// layer, for the requests that entered it.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let own = self.self_times_ms();
        let mut layers: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(own) {
            *layers.entry(span.name).or_default().entry(span.request).or_default() += t;
        }
        layers
    }

    /// Per count name: each request's total, for the requests that
    /// recorded it.
    pub fn layer_counts(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut counts: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for &(name, request, value) in &self.counts {
            *counts.entry(name).or_default().entry(request).or_default() += value;
        }
        counts
    }

    /// Write every span (one JSON object per line), then one summary line
    /// per layer with its total self time and the requests that entered it.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let own = self.self_times_ms();
        let mut out = String::new();
        for (i, (s, self_ms)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ms":{self_ms}}}"#,
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        for (layer, per_request) in self.layer_self_times() {
            let total: f64 = per_request.values().sum();
            let _ = writeln!(
                out,
                r#"{{"layer":"{layer}","self_ms_total":{total},"requests":{}}}"#,
                per_request.len()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_including_grafts() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("root", None, 7);
        rec.time("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.close(root);
        let own = rec.self_times_ms();
        assert!(own[1] >= 2.0);
        assert!((own[0] + own[1] - rec.duration_ms(0)).abs() < 1e-9);
        let layers = rec.layer_self_times();
        assert_eq!(layers["child"].len(), 1);
        assert!((rec.durations("root")[&7] - rec.duration_ms(root)).abs() < 1e-9);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.open("x", None, 1);
        let mut b = Recorder::new(epoch);
        let parent = b.open("y", None, 2);
        b.open("z", Some(parent), 2);
        let offset = a.absorb(b);
        assert_eq!(offset, 1);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
