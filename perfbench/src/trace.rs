//! In-memory spans for the traced run.
//!
//! Every call the benchmark makes into a layer of the simulator can be
//! wrapped in a span: name, start, end, parent span and op id. Spans
//! stay in memory and are written out once, at exit, as a Chrome trace.
//! Counters the layers report are kept as samples next to the spans.
//!
//! Spans and samples carry a census flag. A layer that a workload's
//! own ops never reach is measured on one census op of the workload
//! that does reach it, so every traced run measures every layer;
//! the tracer reports the workload's own records and falls back
//! to the census.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `core.run_in_mode`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to.
    pub op: u64,
    /// True for census ops.
    pub census: bool,
}

impl Span {
    /// The span's duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder plus counter samples.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    census: bool,
    samples: BTreeMap<(bool, String), Vec<f64>>,
    inputs: BTreeMap<(bool, &'static str), (usize, BTreeSet<String>)>,
}

/// The records of one group (own ops or census ops) for one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Number of spans.
    pub calls: usize,
    /// Summed span time, ns.
    pub total_ns: u64,
    /// Ops of the group the layer was measured over.
    pub ops: usize,
}

impl LayerStat {
    /// Mean time per call in ms (0 without calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }

    /// Mean calls per op (0 without ops).
    pub fn calls_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.calls as f64 / self.ops as f64
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            census: false,
            samples: BTreeMap::new(),
            inputs: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts attributing spans and samples to `op`; census ops are
    /// kept apart from the workload's own.
    pub fn begin_op(&mut self, op: u64, census: bool) {
        self.op = op;
        self.census = census;
        // A panic inside an earlier op may have left spans open.
        self.stack.clear();
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            census: self.census,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records one sample of a counter.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry((self.census, name.to_string()))
            .or_default()
            .push(value);
    }

    /// Notes that `layer` was called with input `key`, for counting
    /// calls and distinct inputs. A call is noted whether or not it is
    /// also timed in a span.
    pub fn note_input(&mut self, layer: &'static str, key: String) {
        let (calls, keys) = self.inputs.entry((self.census, layer)).or_default();
        *calls += 1;
        keys.insert(key);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ops_in(&self, census: bool) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == "op" && s.census == census)
            .count()
    }

    /// Whether `name` is reported from the census: only when the
    /// workload's own ops never reached it.
    fn reported_from_census(&self, name: &str) -> bool {
        !self.spans.iter().any(|s| s.name == name && !s.census)
    }

    /// Calls and time of the spans called `name`.
    pub fn layer(&self, name: &str) -> LayerStat {
        let census = self.reported_from_census(name);
        let mut stat = LayerStat {
            ops: self.ops_in(census),
            ..LayerStat::default()
        };
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.census == census)
        {
            stat.calls += 1;
            stat.total_ns += s.ns();
        }
        stat
    }

    /// Noted calls of `layer` and the distinct inputs among them, in
    /// the same group as [`Tracer::layer`] reports it from.
    pub fn noted_inputs(&self, layer: &'static str) -> (usize, usize) {
        let census = self.reported_from_census(layer);
        self.inputs
            .get(&(census, layer))
            .map_or((0, 0), |(calls, keys)| (*calls, keys.len()))
    }

    /// Mean of a counter's samples (0 when never sampled).
    pub fn sample_mean(&self, name: &str) -> f64 {
        let own = (false, name.to_string());
        let key = if self.samples.contains_key(&own) {
            own
        } else {
            (true, name.to_string())
        };
        self.samples
            .get(&key)
            .map_or(0.0, |v| crate::stats::mean(v))
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"census\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                u8::from(s.census),
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.op,
                s.census,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_groups_fall_back_to_census() {
        let mut tr = Tracer::new();
        tr.begin_op(0, false);
        tr.span("op", |tr| {
            tr.span("a", |_| ());
            tr.span("a", |_| ());
        });
        tr.sample("x", 2.0);
        tr.begin_op(1, true);
        tr.span("op", |tr| tr.span("b", |_| ()));
        tr.sample("x", 10.0);
        tr.sample("y", 4.0);
        tr.note_input("b", "k".into());
        tr.note_input("b", "k".into());
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[4].parent, Some(3));
        assert_eq!(tr.layer("a").calls_per_op(), 2.0);
        assert_eq!(tr.layer("b").calls, 1);
        assert_eq!(tr.layer("b").ops, 1);
        assert_eq!(tr.noted_inputs("b"), (2, 1));
        assert_eq!(tr.sample_mean("x"), 2.0);
        assert_eq!(tr.sample_mean("y"), 4.0);
        assert_eq!(tr.layer("c").calls, 0);
        assert!(tr.chrome_json().contains("\"parent\":3"));
    }
}
