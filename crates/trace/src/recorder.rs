//! The per-task span recorder: thread-local sink, one growing span list
//! per [`collect`] scope, and the virtual "now" used by instrumentation
//! sites that have no clock of their own.

use bband_sim::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};

/// Which layer of the stack emitted a record. Layers map to fixed display
/// tracks (`tid` in the Chrome export) so every trace lays out the same
/// way: software on top, then the TX I/O path, the network, the RX I/O
/// path, and recovery activity at the bottom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// High-level protocol (UCP tag matching, rendezvous control).
    Hlp,
    /// Low-level protocol (UCT posting and progress).
    Llp,
    /// TX-side PCIe link (MMIO doorbell path).
    PcieTx,
    /// PCIe posted-credit flow control.
    PcieCredit,
    /// PCIe data-link layer (LCRC, ACK/NAK, replay).
    PcieDll,
    /// NIC processing.
    Nic,
    /// Fabric wire (serialization + FEC + propagation).
    Wire,
    /// Fabric switch traversal.
    Switch,
    /// Transport protocol (IB RC go-back-N).
    Transport,
    /// RX-side PCIe link (DMA delivery path).
    PcieRx,
    /// Memory system (RC-to-MEM visibility).
    Memory,
    /// Recovery activity: backoff gaps, replay windows, stalls.
    Recovery,
}

impl Layer {
    /// Short category label (the `cat` field of the Chrome export).
    pub fn label(self) -> &'static str {
        match self {
            Layer::Hlp => "hlp",
            Layer::Llp => "llp",
            Layer::PcieTx => "pcie-tx",
            Layer::PcieCredit => "pcie-credit",
            Layer::PcieDll => "pcie-dll",
            Layer::Nic => "nic",
            Layer::Wire => "wire",
            Layer::Switch => "switch",
            Layer::Transport => "transport",
            Layer::PcieRx => "pcie-rx",
            Layer::Memory => "memory",
            Layer::Recovery => "recovery",
        }
    }

    /// Fixed display track (`tid`), top-down in stack order.
    pub fn track(self) -> u8 {
        match self {
            Layer::Hlp => 0,
            Layer::Llp => 1,
            Layer::PcieTx => 2,
            Layer::PcieCredit => 3,
            Layer::PcieDll => 4,
            Layer::Nic => 5,
            Layer::Wire => 6,
            Layer::Switch => 7,
            Layer::Transport => 8,
            Layer::PcieRx => 9,
            Layer::Memory => 10,
            Layer::Recovery => 11,
        }
    }
}

/// Handle to a recorded span within its task, used to declare
/// happens-after edges between stages: the span's 1-based position in
/// its [`collect`] scope's span list. `SpanId::NONE` (zero) means "no
/// span" — recording sites return it when tracing is disabled, so edge
/// plumbing costs nothing on untraced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no span recorded (tracing disabled or no predecessor).
    pub const NONE: SpanId = SpanId(0);

    /// True for the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Maximum predecessors one record can carry. Two suffices for the stack's
/// join points (a progress stage waits on its CPU predecessor *and* the
/// hardware completion it reaps); wider joins chain through intermediates.
pub const MAX_DEPS: usize = 2;

/// One recorded span or instant. `Copy`, name `&'static str`: a record
/// owns no heap data, so recording one is a push onto the span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span start (virtual clock).
    pub start: SimTime,
    /// Span length; instants carry [`SimDuration::ZERO`] and a set
    /// `instant` flag (a genuine zero-length span stays a span).
    pub dur: SimDuration,
    /// Emitting layer.
    pub layer: Layer,
    /// Component name — the vocabulary of the breakdown figures
    /// (`"LLP_post"`, `"Wire"`, …) or a recovery label (`"rto_backoff"`).
    pub name: &'static str,
    /// Free-form payload: message index, PSN, TLP id — whatever the
    /// instrumentation site keys its work by.
    pub arg: u64,
    /// True for point events.
    pub instant: bool,
    /// Happens-after edges: ids of up to [`MAX_DEPS`] spans in the same
    /// task that must finish before this one starts. Zero entries pad.
    pub deps: [u64; MAX_DEPS],
}

impl SpanRecord {
    /// True for point events.
    pub fn is_instant(&self) -> bool {
        self.instant
    }

    /// Span end.
    pub fn end(&self) -> SimTime {
        self.start + self.dur
    }

    /// The non-null predecessor ids.
    pub fn deps(&self) -> impl Iterator<Item = u64> + '_ {
        self.deps.iter().copied().filter(|&d| d != 0)
    }

    /// True when this record declares at least one predecessor.
    pub fn has_deps(&self) -> bool {
        self.deps.iter().any(|&d| d != 0)
    }
}

/// Pack a dependency slice into the fixed-width record field, dropping
/// null ids. More than [`MAX_DEPS`] non-null predecessors is a bug at the
/// instrumentation site (debug-asserted), not a recording-time branch.
fn pack_deps(deps: &[SpanId]) -> [u64; MAX_DEPS] {
    let mut out = [0u64; MAX_DEPS];
    let mut n = 0;
    for d in deps {
        if d.is_none() {
            continue;
        }
        debug_assert!(n < MAX_DEPS, "stage declares more than {MAX_DEPS} deps");
        if n < MAX_DEPS {
            out[n] = d.0;
            n += 1;
        }
    }
    out
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static NOW_PS: Cell<u64> = const { Cell::new(0) };
    static SINK: RefCell<Vec<Vec<SpanRecord>>> = const { RefCell::new(Vec::new()) };
}

/// Is a collector installed on this thread? The disabled fast path of
/// every recording call is this read plus a branch.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Publish the driver's virtual clock for clock-less instrumentation
/// sites ([`instant_now`]). No-op overhead pattern: guard with
/// [`enabled`] at the call site when on a hot path.
#[inline]
pub fn set_now(t: SimTime) {
    NOW_PS.with(|n| n.set(t.as_ps()));
}

/// The last published virtual time (zero at [`collect`] entry).
#[inline]
pub fn now() -> SimTime {
    SimTime::from_ps(NOW_PS.with(|n| n.get()))
}

#[inline]
fn record(rec: SpanRecord) -> SpanId {
    SINK.with(|s| match s.borrow_mut().last_mut() {
        Some(spans) => {
            spans.push(rec);
            SpanId(spans.len() as u64)
        }
        None => SpanId::NONE,
    })
}

/// Record a span from `start` to `end`. No-op unless a collector is
/// installed. Returns the span's id for use as a later stage's
/// predecessor ([`SpanId::NONE`] when disabled).
#[inline]
pub fn span(layer: Layer, name: &'static str, start: SimTime, end: SimTime, arg: u64) -> SpanId {
    stage(layer, name, start, end, arg, &[])
}

/// Record a pipeline stage: a span from `start` to `end` that happens
/// after every span in `deps` (null ids are skipped — threading
/// [`SpanId::NONE`] through untraced runs is free). This is the edge-
/// recording primitive every layer's instrumentation uses; the DAG
/// reconstructor recovers the critical path from these edges.
#[inline]
pub fn stage(
    layer: Layer,
    name: &'static str,
    start: SimTime,
    end: SimTime,
    arg: u64,
    deps: &[SpanId],
) -> SpanId {
    stage_dur(layer, name, start, end.since(start), arg, deps)
}

/// Record a pipeline stage of `dur` starting at `start` with
/// happens-after edges to `deps`.
#[inline]
pub fn stage_dur(
    layer: Layer,
    name: &'static str,
    start: SimTime,
    dur: SimDuration,
    arg: u64,
    deps: &[SpanId],
) -> SpanId {
    // Every traced stage also feeds the metrics registry (when one is
    // collecting): the same name/duration stream, accumulated into
    // log-bucketed histograms instead of a span list. The stage's virtual
    // start instant rides along so windowed collectors can split the
    // distribution over time. Gated on its own atomic, so this costs one
    // relaxed load when metrics are off.
    bband_metrics::record_ps_at(name, dur.as_ps(), start.as_ps());
    if !enabled() {
        return SpanId::NONE;
    }
    record(SpanRecord {
        start,
        dur,
        layer,
        name,
        arg,
        instant: false,
        deps: pack_deps(deps),
    })
}

/// Record a point event at `at`.
#[inline]
pub fn instant(layer: Layer, name: &'static str, at: SimTime, arg: u64) -> SpanId {
    if !enabled() {
        return SpanId::NONE;
    }
    record(SpanRecord {
        start: at,
        dur: SimDuration::ZERO,
        layer,
        name,
        arg,
        instant: true,
        deps: [0; MAX_DEPS],
    })
}

/// Record a point event at the last [`set_now`] time — for sites (credit
/// pools, link CRC checks) whose APIs carry no clock.
#[inline]
pub fn instant_now(layer: Layer, name: &'static str, arg: u64) -> SpanId {
    if !enabled() {
        return SpanId::NONE;
    }
    instant(layer, name, now(), arg)
}

/// Run `f` with a fresh collector installed on this thread, returning
/// its result and every span it recorded, in emission order.
///
/// This is the unit of deterministic merging: wrap each
/// [`bband_sim::WorkerPool`] task closure in `collect` and merge the
/// returned span lists by task index ([`crate::Trace::from_tasks`]) — the
/// result is independent of which thread ran which task. Scopes nest; the
/// inner scope shadows the outer until it returns.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    SINK.with(|s| s.borrow_mut().push(Vec::new()));
    let prev_active = ACTIVE.with(|a| a.replace(true));
    let prev_now = NOW_PS.with(|n| n.replace(0));
    // On unwind the thread-local stack would leak one span list; tests
    // that panic inside `collect` run on dying threads, so that is benign.
    let out = f();
    NOW_PS.with(|n| n.set(prev_now));
    ACTIVE.with(|a| a.set(prev_active));
    let spans = SINK
        .with(|s| s.borrow_mut().pop())
        .expect("collector stack underflow");
    (out, spans)
}
