//! The benchmark's own tracer: spans around each call the benchmark makes
//! into a simulator layer, timed on the host clock.
//!
//! Spans live in a thread-local buffer until the run ends. Calls made
//! once per simulated message go into per-name duration histograms
//! instead, so a traced `put_bw` loop does not allocate a span per post.
//! When tracing is off every entry point is one thread-local flag test.

use serde_json::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which simulator layer a span or call belongs to (the crate or module
/// the benchmark calls into).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own sample loop.
    Bench,
    Fault,
    Llp,
    Mpi,
    Microbench,
    Cluster,
    Telemetry,
    Metrics,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Fault => "core::fault",
            Layer::Llp => "llp",
            Layer::Mpi => "hlp/mpi",
            Layer::Microbench => "microbench",
            Layer::Cluster => "cluster",
            Layer::Telemetry => "cluster::telemetry",
            Layer::Metrics => "metrics",
        }
    }
}

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    pub workload: &'static str,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by direct children: child spans plus histogram calls.
    pub child_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Log-linear duration histogram: 16 buckets per power of two, so any
/// quantile it reports is within 1/16 of the true value.
#[derive(Debug, Clone)]
pub struct Hist {
    pub layer: Layer,
    pub count: u64,
    pub total_ns: u64,
    buckets: Vec<u64>,
}

const SUB_BITS: u32 = 4;

fn bucket_of(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) as usize & ((1 << SUB_BITS) - 1);
    (((shift + 1) as usize) << SUB_BITS) + sub
}

/// Midpoint of a bucket's value range.
fn bucket_mid(b: usize) -> f64 {
    let sub_count = 1usize << SUB_BITS;
    if b < sub_count {
        return b as f64;
    }
    let shift = (b >> SUB_BITS) as u32 - 1;
    let sub = (b & (sub_count - 1)) as u64;
    let lo = (sub_count as u64 + sub) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    fn new(layer: Layer) -> Self {
        Hist {
            layer,
            count: 0,
            total_ns: 0,
            buckets: Vec::new(),
        }
    }

    fn record(&mut self, ns: u64) {
        let b = bucket_of(ns);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.total_ns += ns;
    }

    /// Approximate `q`-quantile (bucket midpoint), nanoseconds.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        0.0
    }
}

struct Open {
    id: u64,
    parent: u64,
    layer: Layer,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Buffer {
    epoch: Option<Instant>,
    workload: &'static str,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    hists: BTreeMap<&'static str, Hist>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static BUF: RefCell<Buffer> = RefCell::new(Buffer::default());
}

/// Is the tracer recording on this thread?
fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Start recording; later spans are tagged with `workload`.
pub fn start(workload: &'static str) {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.epoch.get_or_insert_with(Instant::now);
        b.workload = workload;
    });
    ON.with(|on| on.set(true));
}

/// Stop recording; what was recorded stays until [`take`].
pub fn stop() {
    ON.with(|on| on.set(false));
}

/// Everything recorded so far, leaving the buffer empty.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, Hist>) {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        (std::mem::take(&mut b.spans), std::mem::take(&mut b.hists))
    })
}

/// Closes its span when dropped, also while a panic unwinds through it.
pub struct Guard(bool);

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            let open = b.stack.pop().expect("span stack underflow");
            let epoch = b.epoch.expect("tracer started");
            let end = Instant::now();
            let dur = end.duration_since(open.start).as_nanos() as u64;
            if let Some(parent) = b.stack.last_mut() {
                parent.child_ns += dur;
            }
            let start_ns = open.start.duration_since(epoch).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent: open.parent,
                workload: b.workload,
                layer: open.layer,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
                child_ns: open.child_ns,
            };
            b.spans.push(span);
        });
    }
}

/// Open a span that closes when the returned guard drops.
pub fn begin(layer: Layer, name: &'static str) -> Guard {
    if !enabled() {
        return Guard(false);
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.next_id += 1;
        let id = b.next_id;
        let parent = b.stack.last().map_or(0, |o| o.id);
        b.stack.push(Open {
            id,
            parent,
            layer,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    Guard(true)
}

/// Run `f` inside a span.
pub fn span<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = begin(layer, name);
    f()
}

/// Run `f`, a call made once per simulated message, recording its duration
/// in the histogram `name` rather than as a span.
#[inline]
pub fn call<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if let Some(parent) = b.stack.last_mut() {
            parent.child_ns += ns;
        }
        b.hists
            .entry(name)
            .or_insert_with(|| Hist::new(layer))
            .record(ns);
    });
    r
}

/// Per-layer totals: how often the benchmark called into the layer, the
/// time those calls took, and that time minus the time of nested calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub fn layer_totals(spans: &[Span], hists: &BTreeMap<&str, Hist>) -> BTreeMap<Layer, LayerTotals> {
    let mut out: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.layer).or_default();
        t.count += 1;
        t.busy_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(s.child_ns);
    }
    for h in hists.values() {
        let t = out.entry(h.layer).or_default();
        t.count += h.count;
        t.busy_ns += h.total_ns;
        t.self_ns += h.total_ns;
    }
    out
}

/// The trace file: every span, every histogram, and the layer totals.
pub fn to_json(spans: &[Span], hists: &BTreeMap<&str, Hist>) -> Value {
    let spans_json = spans
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("id".into(), Value::UInt(s.id)),
                ("parent".into(), Value::UInt(s.parent)),
                ("workload".into(), Value::Str(s.workload.into())),
                ("layer".into(), Value::Str(s.layer.name().into())),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
            ])
        })
        .collect();
    let hists_json = hists
        .iter()
        .map(|(name, h)| {
            Value::Obj(vec![
                ("name".into(), Value::Str((*name).into())),
                ("layer".into(), Value::Str(h.layer.name().into())),
                ("count".into(), Value::UInt(h.count)),
                ("total_ns".into(), Value::UInt(h.total_ns)),
                ("p50_ns".into(), Value::Float(h.quantile(0.5))),
                ("p90_ns".into(), Value::Float(h.quantile(0.9))),
                ("p99_ns".into(), Value::Float(h.quantile(0.99))),
            ])
        })
        .collect();
    let layers_json = layer_totals(spans, hists)
        .into_iter()
        .map(|(layer, t)| {
            Value::Obj(vec![
                ("layer".into(), Value::Str(layer.name().into())),
                ("count".into(), Value::UInt(t.count)),
                ("busy_ns".into(), Value::UInt(t.busy_ns)),
                ("self_ns".into(), Value::UInt(t.self_ns)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("spans".into(), Value::Arr(spans_json)),
        ("histograms".into(), Value::Arr(hists_json)),
        ("layers".into(), Value::Arr(layers_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Hist::new(Layer::Llp);
        for v in 1..=1000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1000.0;
            assert!((h.quantile(q) - exact).abs() / exact < 1.0 / 16.0, "q{q}");
        }
        assert_eq!(h.count, 1000);
    }

    #[test]
    fn self_time_excludes_children() {
        start("test");
        span(Layer::Bench, "outer", || {
            span(Layer::Fault, "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            call(Layer::Llp, "post", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        stop();
        let (spans, hists) = take();
        let totals = layer_totals(&spans, &hists);
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        assert_eq!(inner.parent, outer.id);
        let post = &hists["post"];
        assert_eq!(outer.child_ns, inner.dur_ns() + post.total_ns);
        assert_eq!(
            totals[&Layer::Bench].self_ns,
            outer.dur_ns() - outer.child_ns
        );
        assert_eq!(totals[&Layer::Llp].count, 1);
    }
}
