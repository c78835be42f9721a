//! Wall-clock spans recorded around calls into each layer.
//!
//! A span has a name, a category (the layer), a start, an end and the
//! span that was open when it began. Durations of every span are kept per
//! name for the per-layer statistics; individual spans are kept for the
//! first [`KEEP_PER_NAME`] occurrences of each name, so a trace of a
//! million frames stays small. At the end the kept spans are written as
//! Chrome `trace_event` JSON through `age_telemetry::render_chrome_json`,
//! the renderer behind `repro --trace`.

use std::collections::BTreeMap;
use std::time::Instant;

use age_telemetry::{render_chrome_json, SpanEvent};

/// Individual spans kept per name for the Chrome trace.
pub const KEEP_PER_NAME: usize = 2_000;

/// Runs `f` inside a span when `spans` is `Some`, bare otherwise, so the
/// untraced and the traced run go through one loop.
pub fn leaf<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    cat: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(spans) => spans.leaf(name, cat, f),
        None => f(),
    }
}

#[derive(Debug, Clone)]
struct Kept {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    kept: Vec<Kept>,
    open: Vec<usize>,
    durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            kept: Vec::new(),
            open: Vec::new(),
            durations: BTreeMap::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` in layer `cat`; spans opened
    /// by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let slot = self.open_slot(name, cat, start_ns);
        if let Some(slot) = slot {
            self.open.push(slot);
        }
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(slot) = slot {
            self.open.pop();
            self.kept[slot].end_ns = end_ns;
        }
        self.durations
            .entry(name)
            .or_default()
            .push(end_ns - start_ns);
        out
    }

    /// Runs `f` (which opens no spans of its own) inside a span.
    pub fn leaf<T>(&mut self, name: &'static str, cat: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, cat, |_| f())
    }

    fn open_slot(&mut self, name: &'static str, cat: &'static str, start_ns: u64) -> Option<usize> {
        let seen = self.durations.get(name).map_or(0, Vec::len);
        (seen < KEEP_PER_NAME).then(|| {
            self.kept.push(Kept {
                name,
                cat,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.kept.len() - 1
        })
    }

    /// Every recorded duration of `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> &[u64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Quantile `q` of `name`'s durations, in nanoseconds.
    pub fn quantile_ns(&self, name: &str, q: f64) -> f64 {
        let values: Vec<f64> = self.durations(name).iter().map(|&d| d as f64).collect();
        crate::harness::quantile(&values, q)
    }

    /// Median duration of `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> f64 {
        self.quantile_ns(name, 0.5)
    }

    /// Layer calls recorded, across all names.
    pub fn calls(&self) -> u64 {
        self.durations.values().map(|d| d.len() as u64).sum()
    }

    /// Total time spent in `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 * 1e-9
    }

    /// The kept spans as Chrome trace JSON on one track named `label`.
    pub fn chrome_json(&self, label: &str) -> String {
        let track = crate::harness::Fnv::default()
            .bytes(label.as_bytes())
            .finish();
        let mut events = vec![SpanEvent {
            name: label.to_string(),
            cat: "meta",
            track,
            start_us: 0,
            dur_us: 0,
            depth: 0,
        }];
        for span in &self.kept {
            let mut depth = 0;
            let mut parent = span.parent;
            while let Some(p) = parent {
                depth += 1;
                parent = self.kept[p].parent;
            }
            events.push(SpanEvent {
                name: span.name.to_string(),
                cat: span.cat,
                track,
                start_us: span.start_ns / 1_000,
                dur_us: (span.end_ns - span.start_ns) / 1_000,
                depth,
            });
        }
        render_chrome_json(&events)
    }
}
