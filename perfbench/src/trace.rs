//! In-memory span recorder for the traced run.
//!
//! The traced run replays each op's work from the benchmark itself, one public
//! library call at a time, and records a span around every call: name, layer,
//! start, end, the enclosing span and the op it belongs to. Spans stay in memory
//! and are written out once, when the run ends.
//!
//! A layer's self time is its spans' durations minus the durations of their child
//! spans. One refinement: the FA-tree flows analyse their netlist *inside*
//! `Flow::synthesize`, which cannot be timed from outside. The replay therefore
//! re-runs compile, timing and power on the finished netlist in spans marked
//! `within` the synthesis span. Those spans count for their own layers and are
//! subtracted from the layer of the span they stand in for, and from the op total,
//! since the real run does that work only once.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layers spans are attributed to, named after the workspace crates (plus the
/// explorer's engine/store/serve modules and the benchmark's own loop, `other`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Ir,
    Baselines,
    Core,
    Netlist,
    Timing,
    Power,
    Anneal,
    Sim,
    Explore,
    Store,
    Serve,
    Other,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::Ir,
        Layer::Baselines,
        Layer::Core,
        Layer::Netlist,
        Layer::Timing,
        Layer::Power,
        Layer::Anneal,
        Layer::Sim,
        Layer::Explore,
        Layer::Store,
        Layer::Serve,
        Layer::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Ir => "ir",
            Layer::Baselines => "baselines",
            Layer::Core => "core",
            Layer::Netlist => "netlist",
            Layer::Timing => "timing",
            Layer::Power => "power",
            Layer::Anneal => "anneal",
            Layer::Sim => "sim",
            Layer::Explore => "explore",
            Layer::Store => "store",
            Layer::Serve => "serve",
            Layer::Other => "other",
        }
    }
}

/// Index of a recorded span; `None` wherever tracing is off.
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    layer: Layer,
    op: u32,
    parent: Option<usize>,
    within: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans and counters. A disabled tracer records nothing, so the same
/// replay code measures the cost of tracing itself.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    op: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether this recorder keeps spans.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> SpanId {
        self.begin_within(name, layer, None)
    }

    /// Opens a span that measures work the real run does inside span `within`.
    pub fn begin_within(&mut self, name: &'static str, layer: Layer, within: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            within,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = now;
    }

    /// Runs `work` inside a span.
    pub fn time<T>(&mut self, name: &'static str, layer: Layer, work: impl FnOnce() -> T) -> T {
        self.time_within(name, layer, None, work)
    }

    /// Runs `work` inside a span marked as standing in for part of span `within`.
    pub fn time_within<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        within: SpanId,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin_within(name, layer, within);
        let value = work();
        self.end(id);
        value
    }

    /// Opens the root span of the next op.
    pub fn begin_op(&mut self) -> SpanId {
        self.op += 1;
        self.begin("op", Layer::Other)
    }

    /// Adds `value` to a counter recorded at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Traced ops recorded so far.
    pub fn ops(&self) -> u32 {
        self.op
    }

    /// Total milliseconds of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Durations in milliseconds of every span called `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer plus the op total it adds up to; see the module docs.
    pub fn breakdown(&self) -> Breakdown {
        let mut children_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ms[parent] += span.ms();
            }
        }
        let mut self_ms: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
        let mut total_ms = 0.0;
        for (index, span) in self.spans.iter().enumerate() {
            *self_ms.entry(span.layer).or_insert(0.0) += span.ms() - children_ms[index];
            if let Some(target) = span.within {
                *self_ms.entry(self.spans[target].layer).or_insert(0.0) -= span.ms();
                total_ms -= span.ms();
            }
            if span.parent.is_none() {
                total_ms += span.ms();
            }
        }
        Breakdown { self_ms, total_ms }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let id = |value: Option<usize>| value.map_or("null".to_string(), |v| v.to_string());
        for (index, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"layer\":\"{}\",\"op\":{},\"parent\":{},\
                 \"within\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name,
                span.layer.name(),
                span.op,
                id(span.parent),
                id(span.within),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer self time of a traced run.
pub struct Breakdown {
    pub self_ms: BTreeMap<Layer, f64>,
    pub total_ms: f64,
}

impl Breakdown {
    pub fn share_pct(&self, layer: Layer) -> f64 {
        if self.total_ms > 0.0 {
            100.0 * self.self_ms.get(&layer).copied().unwrap_or(0.0) / self.total_ms
        } else {
            0.0
        }
    }
}
