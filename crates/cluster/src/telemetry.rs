//! Deterministic virtual-time telemetry over [`ClusterFabric`]: per-port
//! time series, occupancy gauges, and flow-level path attribution.
//!
//! PR 8 left the fabric a black box of run-total counters (`contended`,
//! `credit_waits`, `ecn_marks` summed over a whole collective). This
//! module is the sensor layer underneath congestion-aware routing: it
//! records, per egress port and per fixed-width virtual-time window,
//!
//! * **busy time** (link utilization) — every serialization span an
//!   egress transmits (the windowing model of
//!   [`bband_metrics::SpanAccum`], laid out hot/cold for fabric rates);
//! * **queue-wait and credit-stall time** — how long arriving flows
//!   waited for the egress to drain and for downstream credits, with the
//!   per-window event counts replacing the old run totals;
//! * **ECN marks** per input buffer over time;
//! * **input-buffer occupancy** — a time-weighted integral (the same
//!   accounting as [`bband_metrics::TimeGauge`], kept as two words per
//!   port so the per-reservation update is one dense cache access),
//!   plus a high-water mark and an occupancy-fraction histogram;
//! * **flow path attribution** — each delivery's latency split bit-exactly
//!   into wire/serialization vs egress queueing vs credit wait, the same
//!   decomposition `trace::dag` applies to critical-path stages.
//!
//! Everything is integer picoseconds keyed by the virtual clock, so
//! telemetry is deterministic (pooled == serial, byte for byte) and
//! *conservative*: per-port series reconcile bit-exactly against the
//! fabric's [`FlowCounters`] — [`FabricTelemetry::summarize`] embeds the
//! checks in [`Conservation`] and tests assert them.
//!
//! Window widths adapt: recording starts at [`TelemetryConfig::window`]
//! and doubles (merging adjacent windows exactly) whenever a run would
//! exceed [`TelemetryConfig::max_windows`], so memory stays bounded at
//! any scale without a second pass — the same auto-resize idea HDR
//! histograms use, driven purely by recorded virtual time.

use crate::flow::FlowCounters;
use crate::topo::FabricGraph;
use bband_sim::SimDuration;

/// Occupancy-fraction histogram bins (eighths of buffer capacity).
pub const OCC_BINS: usize = 8;

/// Knobs of the telemetry layer.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Initial window width; doubles when a run outgrows `max_windows`.
    /// Rounded up to the next power-of-two picoseconds at recording time
    /// so every window lookup on the hot path is a bit shift, not a
    /// division.
    pub window: SimDuration,
    /// Widen once any series would populate a window index past this.
    pub max_windows: u64,
    /// Hotspot table size (top-k contended links).
    pub top_k: usize,
    /// A link counts **saturated** when the total time flows spent
    /// waiting on it (egress queue + credit stall) reaches this fraction
    /// of the run's span. Synchronous collectives keep raw utilization
    /// low even on a congested link (rounds barrier between bursts), so
    /// contention time — which piles up across concurrent waiters — is
    /// the signal that actually separates an oversubscribed dragonfly
    /// global link from a full-bisection fat tree.
    pub sat_contention: f64,
}

impl TelemetryConfig {
    /// Defaults sized for the sweep grids: ~8.4 µs windows (2^23 ps, a
    /// power of two by construction) widening past 64 windows, a 5-row
    /// hotspot table, saturation when a link's contention time reaches
    /// 95% of the run span.
    pub fn paper_default() -> Self {
        TelemetryConfig {
            window: SimDuration::from_ps(1 << 23),
            max_windows: 64,
            top_k: 5,
            sat_contention: 0.95,
        }
    }
}

/// Per-port cursor of one [`Series`]: lifetime totals plus the open
/// window. `cur_idx == u64::MAX` marks "no window open yet". The cell is
/// 32 bytes and `Copy`, so the hop hook loads it, mutates in registers,
/// and stores it back — one random access per series touched.
#[derive(Debug, Clone, Copy)]
struct HotCell {
    total: u64,
    events: u64,
    cur_idx: u64,
    cur_ps: u64,
}

const EMPTY_CELL: HotCell = HotCell {
    total: 0,
    events: 0,
    cur_idx: u64::MAX,
    cur_ps: 0,
};

/// The three per-egress cursors of one port, bundled and 128-byte
/// aligned so the hop hook's random access lands on as few lines as the
/// hop's contention state allows: `busy` and `queue` share the first
/// cache line (a queue-contended hop — the common case on a congested
/// fabric — still touches exactly one line), `credit` sits alone on the
/// adjacent second line. The bundle has no embedded pointers; closed
/// windows drain to the shared spill logs on [`FabricTelemetry`].
#[repr(align(128))]
#[derive(Debug, Clone, Copy)]
struct HotPort {
    busy: HotCell,
    queue: HotCell,
    credit: HotCell,
}

const EMPTY_PORT: HotPort = HotPort {
    busy: EMPTY_CELL,
    queue: EMPTY_CELL,
    credit: EMPTY_CELL,
};

/// Accumulate the span `[from, to)` into `h`'s windows (width `2^shift`
/// ps) and count `events`; returns the last window index touched. The
/// common case — the span lands inside the port's open window — is a
/// handful of register ops against the already-loaded cell; everything
/// else takes the [`cell_roll`] cold path into the spill log.
///
/// Spill-log entries are `(port gid, window idx, accumulated value)`.
/// Duplicate `(gid, idx)` entries are allowed — aggregation is additive
/// — which makes window-halving an in-place integer sweep and keeps the
/// hot path allocation-free (a per-port `Vec<(idx, ps)>` layout spent
/// more of the telemetry budget in the allocator than in recording).
#[inline]
fn cell_add_span(
    h: &mut HotCell,
    spill: &mut Vec<(u32, u32, u64)>,
    gid: usize,
    shift: u32,
    from_ps: u64,
    to_ps: u64,
    events: u64,
) -> u64 {
    debug_assert!(to_ps > from_ps);
    h.total += to_ps - from_ps;
    h.events += events;
    let last = (to_ps - 1) >> shift;
    if from_ps >> shift == h.cur_idx && last == h.cur_idx {
        h.cur_ps += to_ps - from_ps;
    } else {
        cell_roll(h, spill, gid, shift, from_ps, to_ps, last);
    }
    last
}

/// Cold path of [`cell_add_span`]: the span reaches outside the open
/// window. Drains the cursor (and every whole window the span crosses)
/// to the spill log and re-opens at the span's last window.
#[cold]
fn cell_roll(
    h: &mut HotCell,
    spill: &mut Vec<(u32, u32, u64)>,
    gid: usize,
    shift: u32,
    from_ps: u64,
    to_ps: u64,
    last: u64,
) {
    debug_assert!(last <= u32::MAX as u64);
    if h.cur_idx != u64::MAX {
        spill.push((gid as u32, h.cur_idx as u32, h.cur_ps));
    }
    let mut at = from_ps;
    for idx in (from_ps >> shift)..last {
        let end = (idx + 1) << shift;
        spill.push((gid as u32, idx as u32, end - at));
        at = end;
    }
    h.cur_idx = last;
    h.cur_ps = to_ps - at;
}

/// Halve one cursor: window merging is exact in integer index
/// arithmetic, so deferred widening records byte-identically.
#[inline]
fn cell_halve(h: &mut HotCell) {
    if h.cur_idx != u64::MAX {
        h.cur_idx /= 2;
    }
}

/// A windowed per-port event counter (ECN marks): [`HotCell`] cursors
/// plus a shared spill log, the same hot/cold layout as the hop series
/// but single-celled — marks are far rarer than hops, so these stay in
/// their own dense array instead of widening [`HotPort`].
#[derive(Debug, Clone)]
struct Series {
    hot: Vec<HotCell>,
    /// Closed windows: `(port gid, window idx, event count)`.
    spill: Vec<(u32, u32, u64)>,
}

impl Series {
    fn new(ports: usize) -> Self {
        Series {
            hot: vec![EMPTY_CELL; ports],
            spill: Vec::new(),
        }
    }

    /// Zero every cursor and drop the log, keeping both allocations.
    fn reset(&mut self) {
        self.hot.fill(EMPTY_CELL);
        self.spill.clear();
    }

    /// Count one event at `at_ps` — the window cell accumulates event
    /// *counts* rather than time; returns the window index.
    #[inline]
    fn add_at(&mut self, gid: usize, shift: u32, at_ps: u64) -> u64 {
        let mut h = self.hot[gid];
        h.total += 1;
        h.events += 1;
        let idx = at_ps >> shift;
        if idx == h.cur_idx {
            h.cur_ps += 1;
        } else {
            debug_assert!(idx <= u32::MAX as u64);
            if h.cur_idx != u64::MAX {
                self.spill.push((gid as u32, h.cur_idx as u32, h.cur_ps));
            }
            h.cur_idx = idx;
            h.cur_ps = 1;
        }
        self.hot[gid] = h;
        idx
    }

    /// Merge adjacent window pairs (exact; see [`cell_halve`]).
    fn halve(&mut self) {
        for h in &mut self.hot {
            cell_halve(h);
        }
        for e in &mut self.spill {
            e.1 /= 2;
        }
    }
}

/// The recording state attached to a [`ClusterFabric`] when telemetry is
/// enabled. All hooks take raw picoseconds (the fabric's native unit).
#[derive(Debug, Clone)]
pub struct FabricTelemetry {
    pub cfg: TelemetryConfig,
    /// `log2` of the current window width: widths are powers of two so
    /// the per-event window lookup is a shift (measurably cheaper than a
    /// division at fabric message rates).
    shift: u32,
    max_idx: u64,
    /// Per-egress cursor bundles: busy spans (`events` = flows
    /// transmitted), queue-wait spans (`events` = contended hops), and
    /// credit-stall spans (`events` = FIFO credit pops).
    hot: Vec<HotPort>,
    /// Closed busy windows `(gid, idx, ps)`; see [`cell_add_span`].
    busy_spill: Vec<(u32, u32, u64)>,
    /// Closed queue-wait windows.
    queue_spill: Vec<(u32, u32, u64)>,
    /// Closed credit-stall windows.
    credit_spill: Vec<(u32, u32, u64)>,
    /// Per-input-port ECN marks; window cells hold mark counts.
    ecn: Series,
    /// Per-input-port occupancy state `(level bytes, last update ps)`;
    /// the report only needs the global integral and high-water mark, so
    /// the per-port record stays two words — one dense cache access per
    /// reservation instead of a full per-port gauge.
    occ: Vec<(u64, u64)>,
    /// Global `Σ occupancy · dt` across all input buffers, ps-bytes.
    occ_integral: u128,
    /// Largest occupancy any input buffer reached, bytes.
    occ_hwm: u64,
    /// Occupancy fraction at reservation time, in eighths of capacity.
    occ_hist: [u64; OCC_BINS],
    messages: u64,
    span_end_ps: u64,
    // Flow-attribution ledger: summed per-delivery splits. The invariant
    // `wire + queue + credit == latency` holds per message in integer
    // picoseconds; `attribution_exact` records it held for every one.
    lat_ps: u64,
    queue_ps: u64,
    credit_ps: u64,
    wire_ps: u64,
    attribution_exact: bool,
}

impl FabricTelemetry {
    pub fn new(total_ports: usize, cfg: TelemetryConfig) -> Self {
        assert!(
            cfg.window > SimDuration::ZERO,
            "telemetry window must be positive"
        );
        assert!(cfg.max_windows >= 2, "telemetry needs at least two windows");
        FabricTelemetry {
            cfg,
            shift: cfg.window.as_ps().next_power_of_two().trailing_zeros(),
            max_idx: 0,
            hot: vec![EMPTY_PORT; total_ports],
            busy_spill: Vec::new(),
            queue_spill: Vec::new(),
            credit_spill: Vec::new(),
            ecn: Series::new(total_ports),
            occ: vec![(0, 0); total_ports],
            occ_integral: 0,
            occ_hwm: 0,
            occ_hist: [0; OCC_BINS],
            messages: 0,
            span_end_ps: 0,
            lat_ps: 0,
            queue_ps: 0,
            credit_ps: 0,
            wire_ps: 0,
            attribution_exact: true,
        }
    }

    /// Drop every recording, keeping the configuration — called from
    /// [`ClusterFabric::reset_transients`](crate::ClusterFabric::reset_transients)
    /// so a reused fabric records a fresh, byte-identical run. Clears in
    /// place: the per-port arrays (and their spill capacity) survive, so
    /// resetting costs a sweep over touched state, not a reallocation.
    pub fn reset(&mut self) {
        self.shift = self.cfg.window.as_ps().next_power_of_two().trailing_zeros();
        self.max_idx = 0;
        self.hot.fill(EMPTY_PORT);
        self.busy_spill.clear();
        self.queue_spill.clear();
        self.credit_spill.clear();
        self.ecn.reset();
        self.occ.fill((0, 0));
        self.occ_integral = 0;
        self.occ_hwm = 0;
        self.occ_hist = [0; OCC_BINS];
        self.messages = 0;
        self.span_end_ps = 0;
        self.lat_ps = 0;
        self.queue_ps = 0;
        self.credit_ps = 0;
        self.wire_ps = 0;
        self.attribution_exact = true;
    }

    /// Current window width in picoseconds (grows by doubling).
    pub fn window_ps(&self) -> u64 {
        1u64 << self.shift
    }

    #[inline]
    fn note(&mut self, idx: u64) {
        if idx <= self.max_idx {
            return;
        }
        self.max_idx = idx;
        while self.max_idx >= self.cfg.max_windows {
            for p in &mut self.hot {
                cell_halve(&mut p.busy);
                cell_halve(&mut p.queue);
                cell_halve(&mut p.credit);
            }
            for e in &mut self.busy_spill {
                e.1 /= 2;
            }
            for e in &mut self.queue_spill {
                e.1 /= 2;
            }
            for e in &mut self.credit_spill {
                e.1 /= 2;
            }
            self.ecn.halve();
            self.shift += 1;
            self.max_idx /= 2;
        }
    }

    /// One hop through egress `gid`, its phases contiguous in virtual
    /// time: the flow arrived ready at `ready_ps`, waited for the egress
    /// to drain until `drained_ps`, stalled on downstream credits through
    /// `credit_events` FIFO pops (mirroring `FlowCounters::credit_waits`)
    /// until `start_ps`, then transmitted until `end_ps`. One call
    /// records all three series; the uncontended hop (the common case)
    /// touches only the busy series' hot cell.
    #[inline]
    pub fn on_hop(
        &mut self,
        gid: usize,
        ready_ps: u64,
        drained_ps: u64,
        start_ps: u64,
        end_ps: u64,
        credit_events: u64,
    ) {
        let shift = self.shift;
        let p = &mut self.hot[gid];
        let idx = cell_add_span(
            &mut p.busy,
            &mut self.busy_spill,
            gid,
            shift,
            start_ps,
            end_ps,
            1,
        );
        if drained_ps > ready_ps {
            cell_add_span(
                &mut p.queue,
                &mut self.queue_spill,
                gid,
                shift,
                ready_ps,
                drained_ps,
                1,
            );
        }
        if credit_events > 0 {
            cell_add_span(
                &mut p.credit,
                &mut self.credit_spill,
                gid,
                shift,
                drained_ps,
                start_ps,
                credit_events,
            );
        }
        self.note(idx);
    }

    /// Input buffer `gid` ECN-marked a reservation at `at_ps`.
    #[inline]
    pub fn on_ecn_mark(&mut self, gid: usize, at_ps: u64) {
        let idx = self.ecn.add_at(gid, self.shift, at_ps);
        self.note(idx);
    }

    /// Input buffer `gid` holds `occupied` of `capacity` bytes at `at_ps`
    /// (sampled after each reservation push — what ECN sees). Updates
    /// arriving out of order clamp to the port's last update, keeping the
    /// integral monotone and deterministic.
    #[inline]
    pub fn on_occupancy(&mut self, gid: usize, at_ps: u64, occupied: u64, capacity: u64) {
        let (level, last_at) = &mut self.occ[gid];
        let at = at_ps.max(*last_at);
        self.occ_integral += (at - *last_at) as u128 * *level as u128;
        *level = occupied;
        *last_at = at;
        if occupied > self.occ_hwm {
            self.occ_hwm = occupied;
        }
        // Default buffer capacities are powers of two: bin with a shift,
        // falling back to the exact division otherwise.
        let bin = if capacity.is_power_of_two() && capacity >= OCC_BINS as u64 {
            occupied >> (capacity.trailing_zeros() - OCC_BINS.trailing_zeros())
        } else {
            (occupied * OCC_BINS as u64) / capacity
        }
        .min(OCC_BINS as u64 - 1);
        self.occ_hist[bin as usize] += 1;
    }

    /// One delivery completed: its latency split (all picoseconds, with
    /// `wire + queue + credit == latency` bit-exact) and delivery time.
    #[inline]
    pub fn on_delivery(&mut self, lat: u64, wire: u64, queue: u64, credit: u64, end_ps: u64) {
        self.messages += 1;
        self.lat_ps += lat;
        self.wire_ps += wire;
        self.queue_ps += queue;
        self.credit_ps += credit;
        self.attribution_exact &= wire + queue + credit == lat;
        self.span_end_ps = self.span_end_ps.max(end_ps);
        self.note(end_ps >> self.shift);
    }

    /// Condense the recording into the report the artifact and heatmap
    /// renderer consume, reconciling against the fabric's run-total
    /// `counters` bit-exactly.
    pub fn summarize(&self, graph: &FabricGraph, counters: &FlowCounters) -> TelemetryReport {
        let span_ps = self.span_end_ps;
        let n_windows = self.max_idx + 1;
        let classes = graph.link_classes();
        let mut class_rows: Vec<ClassSeries> = classes
            .iter()
            .map(|label| ClassSeries {
                label: label.clone(),
                links: 0,
                busy_ps: 0,
                queue_ps: 0,
                credit_ps: 0,
                util: vec![0.0; n_windows as usize],
                peak_util: 0.0,
            })
            .collect();
        let groups = graph.switch_group(0).map(|_| {
            let last = graph.switches() - 1;
            vec![
                GroupUtil {
                    group: 0,
                    busy_ps: 0,
                    links: 0,
                    util: 0.0,
                };
                graph.switch_group(last).unwrap() as usize + 1
            ]
        });
        let mut groups = groups.unwrap_or_default();
        let global_class = classes.len() - 1; // dragonfly: "global"

        // Hotspot candidates stay lightweight keys `(contention, gid)`
        // until after the cut: materializing a labeled `Hotspot` row (a
        // `String` clone) for every active port of every cell just to
        // keep the top five dominated the whole summarize cost.
        let mut hot_keys: Vec<(u64, usize)> = Vec::new();
        let mut saturated = 0u64;
        let mut windows_sum = true;
        let (mut contended_ev, mut credit_ev, mut ecn_ev) = (0u64, 0u64, 0u64);

        // Link class per gid, precomputed once: the spill-log replay
        // below is keyed by gid alone.
        let n_ports = self.hot.len();
        let mut class_of = vec![0u8; n_ports];
        for sw in 0..graph.switches() {
            for port in 0..graph.ports[sw as usize].len() as u32 {
                class_of[graph.gid(sw, port)] = graph.link_class(sw, port) as u8;
            }
        }

        // Replay the busy series — spill log plus open cursors — into
        // the per-class windowed utilization, accumulating per-port
        // window sums for the `windows_sum` conservation check (every
        // port's cells must sum back to its lifetime busy total).
        let mut port_win = vec![0u64; n_ports];
        for &(gid, idx, ps) in &self.busy_spill {
            port_win[gid as usize] += ps;
            class_rows[class_of[gid as usize] as usize].util[idx as usize] += ps as f64;
        }
        for (gid, p) in self.hot.iter().enumerate() {
            if p.busy.cur_idx != u64::MAX {
                port_win[gid] += p.busy.cur_ps;
                class_rows[class_of[gid] as usize].util[p.busy.cur_idx as usize] +=
                    p.busy.cur_ps as f64;
            }
        }

        for sw in 0..graph.switches() {
            for port in 0..graph.ports[sw as usize].len() as u32 {
                let gid = graph.gid(sw, port);
                let class = class_of[gid] as usize;
                let HotPort {
                    busy,
                    queue,
                    credit,
                } = self.hot[gid];
                contended_ev += queue.events;
                credit_ev += credit.events;
                ecn_ev += self.ecn.hot[gid].events;
                windows_sum &= busy.total == port_win[gid];

                let row = &mut class_rows[class];
                row.links += 1;
                row.busy_ps += busy.total;
                row.queue_ps += queue.total;
                row.credit_ps += credit.total;
                if !groups.is_empty() && class == global_class {
                    let g = &mut groups[graph.switch_group(sw).unwrap() as usize];
                    g.links += 1;
                    g.busy_ps += busy.total;
                }
                if span_ps > 0
                    && (queue.total + credit.total) as f64
                        >= self.cfg.sat_contention * span_ps as f64
                {
                    saturated += 1;
                }
                if busy.total > 0 || queue.total > 0 || credit.total > 0 {
                    hot_keys.push((queue.total + credit.total, gid));
                }
            }
        }
        // Normalize class series to utilization fractions of aggregate
        // class capacity (links × window width).
        for row in &mut class_rows {
            if row.links > 0 {
                let denom = row.links as f64 * self.window_ps() as f64;
                for u in &mut row.util {
                    *u /= denom;
                }
            }
            row.peak_util = row.util.iter().copied().fold(0.0, f64::max);
        }
        for g in &mut groups {
            if g.links > 0 && span_ps > 0 {
                g.util = g.busy_ps as f64 / (g.links as f64 * span_ps as f64);
            }
        }
        // Rank by contention (queue + credit time), ties by port id
        // (gids are assigned in `(sw, port)` order), keep the top-k —
        // the fabric analogue of `trace::dag`'s critical-path stage
        // ranking — and only then build the labeled rows.
        hot_keys.sort_by(|a, b| (b.0, a.1).cmp(&(a.0, b.1)));
        hot_keys.truncate(self.cfg.top_k);
        let hot: Vec<Hotspot> = hot_keys
            .into_iter()
            .map(|(_, gid)| {
                let (sw, port) = graph.port_of_gid(gid);
                let HotPort {
                    busy,
                    queue,
                    credit,
                } = self.hot[gid];
                Hotspot {
                    sw,
                    port,
                    class: classes[class_of[gid] as usize].clone(),
                    util: if span_ps > 0 {
                        busy.total as f64 / span_ps as f64
                    } else {
                        0.0
                    },
                    busy_ps: busy.total,
                    queue_ps: queue.total,
                    credit_ps: credit.total,
                    credit_events: credit.events,
                    ecn_marks: self.ecn.hot[gid].events,
                    flows: busy.events,
                }
            })
            .collect();

        let conservation = Conservation {
            messages: self.messages == counters.messages,
            contended: contended_ev == counters.contended,
            credit_waits: credit_ev == counters.credit_waits,
            ecn_marks: ecn_ev == counters.ecn_marks,
            windows_sum,
            attribution: self.attribution_exact
                && self.wire_ps + self.queue_ps + self.credit_ps == self.lat_ps,
        };
        TelemetryReport {
            window_ps: self.window_ps(),
            windows: n_windows,
            span_ps,
            messages: self.messages,
            classes: class_rows,
            groups,
            hotspots: hot,
            saturated_links: saturated,
            occupancy: OccupancySummary {
                high_water_bytes: self.occ_hwm,
                mean_occupied_bytes: if span_ps > 0 {
                    self.occ_integral as f64 / span_ps as f64 / self.occ.len() as f64
                } else {
                    0.0
                },
                hist: self.occ_hist.to_vec(),
            },
            totals: AttributionTotals {
                latency_ps: self.lat_ps,
                wire_ps: self.wire_ps,
                queue_ps: self.queue_ps,
                credit_ps: self.credit_ps,
            },
            conservation,
        }
    }
}

/// Windowed utilization of one link class (fat-tree level/direction or
/// dragonfly host/local/global).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSeries {
    pub label: String,
    /// Egress ports in the class.
    pub links: u64,
    pub busy_ps: u64,
    pub queue_ps: u64,
    pub credit_ps: u64,
    /// Per-window utilization: class busy time / (links × window width).
    pub util: Vec<f64>,
    pub peak_util: f64,
}

/// Aggregate global-link utilization of one dragonfly group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupUtil {
    pub group: u32,
    pub busy_ps: u64,
    pub links: u64,
    /// Busy time / (links × span).
    pub util: f64,
}

/// One row of the top-k contended-link table.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    pub sw: u32,
    pub port: u32,
    pub class: String,
    /// Lifetime utilization (busy / span).
    pub util: f64,
    pub busy_ps: u64,
    pub queue_ps: u64,
    pub credit_ps: u64,
    pub credit_events: u64,
    pub ecn_marks: u64,
    pub flows: u64,
}

/// Input-buffer occupancy across all ports of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancySummary {
    /// Largest occupancy any input buffer reached, bytes.
    pub high_water_bytes: u64,
    /// Time-weighted mean occupancy per buffer, bytes.
    pub mean_occupied_bytes: f64,
    /// Reservation-time occupancy histogram in eighths of capacity.
    pub hist: Vec<u64>,
}

/// Sums of the per-flow latency decomposition; `wire + queue + credit ==
/// latency` bit-exactly (asserted by [`Conservation::attribution`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributionTotals {
    pub latency_ps: u64,
    pub wire_ps: u64,
    pub queue_ps: u64,
    pub credit_ps: u64,
}

/// Bit-exact reconciliation of the telemetry series against the fabric's
/// run-total [`FlowCounters`] — the acceptance gate of the telemetry PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conservation {
    /// Telemetry deliveries == `counters.messages`.
    pub messages: bool,
    /// Per-port queue-wait events sum to `counters.contended`.
    pub contended: bool,
    /// Per-port credit-stall events sum to `counters.credit_waits`.
    pub credit_waits: bool,
    /// Per-port ECN marks sum to `counters.ecn_marks`.
    pub ecn_marks: bool,
    /// Every port's window cells sum to its busy total.
    pub windows_sum: bool,
    /// Every flow's wire + queue + credit split equals its latency.
    pub attribution: bool,
}

impl Conservation {
    /// All reconciliation checks passed.
    pub fn exact(&self) -> bool {
        self.messages
            && self.contended
            && self.credit_waits
            && self.ecn_marks
            && self.windows_sum
            && self.attribution
    }
}

/// The condensed, render-ready telemetry of one fabric run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Final window width (after any adaptive doubling), ps.
    pub window_ps: u64,
    /// Populated window count (highest index + 1).
    pub windows: u64,
    /// Virtual-time span of the run (last delivery), ps.
    pub span_ps: u64,
    pub messages: u64,
    pub classes: Vec<ClassSeries>,
    /// Per-group global-link utilization (dragonfly only, else empty).
    pub groups: Vec<GroupUtil>,
    pub hotspots: Vec<Hotspot>,
    /// Links whose contention time (queue + credit) reached
    /// [`TelemetryConfig::sat_contention`] of the run span.
    pub saturated_links: u64,
    pub occupancy: OccupancySummary,
    pub totals: AttributionTotals,
    pub conservation: Conservation,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stream of `msgs` messages over `graph`'s ports, one
    /// per 2^22 ps (400 span ~200 default 2^23 ps windows): hops whose
    /// spans cross window boundaries, some queued, some credit-stalled,
    /// with ECN marks and occupancy samples, each followed by a delivery
    /// whose split is exact. Returns the fabric counters the stream
    /// implies.
    fn record(
        tel: &mut FabricTelemetry,
        graph: &FabricGraph,
        seed: u64,
        msgs: u64,
    ) -> FlowCounters {
        let ports = graph.total_ports as u64;
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut counters = FlowCounters::default();
        for m in 0..msgs {
            let gid = (next() % ports) as usize;
            let ready = m * (1 << 22) + next() % (1 << 22);
            let queue = if next() % 3 == 0 {
                next() % (1 << 24)
            } else {
                0
            };
            let credit_events = u64::from(next() % 4 == 0);
            let credit = credit_events * (1 + next() % (1 << 20));
            let start = ready + queue + credit;
            let end = start + 1 + next() % (1 << 25);
            tel.on_hop(gid, ready, ready + queue, start, end, credit_events);
            counters.contended += u64::from(queue > 0);
            counters.credit_waits += credit_events;
            if next() % 5 == 0 {
                tel.on_ecn_mark(gid, start);
                counters.ecn_marks += 1;
            }
            tel.on_occupancy(gid, start, next() % (64 << 10), 64 << 10);
            let wire = 1 + next() % 1_000_000;
            tel.on_delivery(wire + queue + credit, wire, queue, credit, end);
            counters.messages += 1;
        }
        counters
    }

    fn recorder(max_windows: u64) -> FabricTelemetry {
        let cfg = TelemetryConfig {
            max_windows,
            ..TelemetryConfig::paper_default()
        };
        FabricTelemetry::new(FabricGraph::fat_tree(4, 2).total_ports as usize, cfg)
    }

    /// Window widening merges windows exactly: four windows or a
    /// thousand, the same hops give the same per-class and per-port
    /// busy/queue/credit totals, the same attribution and occupancy, and
    /// both recordings reconcile.
    #[test]
    fn window_budget_changes_resolution_not_totals() {
        let graph = FabricGraph::fat_tree(4, 2);
        let report = |max_windows: u64| {
            let mut tel = recorder(max_windows);
            let counters = record(&mut tel, &graph, 7, 400);
            tel.summarize(&graph, &counters)
        };
        let (coarse, fine) = (report(4), report(1024));
        assert!(coarse.windows <= 4 && coarse.window_ps > fine.window_ps);
        assert!(fine.windows > 64, "the stream spans many default windows");
        let totals = |r: &TelemetryReport| -> Vec<(u64, u64, u64, u64)> {
            r.classes
                .iter()
                .map(|c| (c.links, c.busy_ps, c.queue_ps, c.credit_ps))
                .collect()
        };
        assert_eq!(totals(&coarse), totals(&fine));
        assert_eq!(coarse.hotspots, fine.hotspots);
        assert_eq!(coarse.totals, fine.totals);
        assert_eq!(coarse.occupancy, fine.occupancy);
        assert_eq!(coarse.saturated_links, fine.saturated_links);
        assert!(coarse.conservation.exact(), "{:?}", coarse.conservation);
        assert!(fine.conservation.exact(), "{:?}", fine.conservation);
    }

    /// `reset` clears every recording and the widened window: re-recording
    /// a shorter run after it reports exactly what a fresh recorder does.
    #[test]
    fn reset_then_rerecord_equals_a_fresh_recorder() {
        let graph = FabricGraph::fat_tree(4, 2);
        let mut reused = recorder(8);
        record(&mut reused, &graph, 3, 400);
        reused.reset();
        let counters = record(&mut reused, &graph, 11, 40);
        let mut fresh = recorder(8);
        assert_eq!(record(&mut fresh, &graph, 11, 40), counters);
        assert_eq!(
            reused.summarize(&graph, &counters),
            fresh.summarize(&graph, &counters)
        );
    }

    /// A delivery whose wire + queue + credit split misses its latency
    /// breaks the attribution check, and with it `exact()`.
    #[test]
    fn inexact_delivery_split_fails_conservation() {
        let graph = FabricGraph::fat_tree(2, 1);
        let one = FlowCounters {
            messages: 1,
            ..FlowCounters::default()
        };
        let mut exact = FabricTelemetry::new(2, TelemetryConfig::paper_default());
        exact.on_delivery(100, 60, 30, 10, 100);
        assert!(exact.summarize(&graph, &one).conservation.exact());
        let mut off = FabricTelemetry::new(2, TelemetryConfig::paper_default());
        off.on_delivery(100, 60, 30, 11, 100);
        let c = off.summarize(&graph, &one).conservation;
        assert!(!c.attribution && !c.exact(), "{c:?}");
    }
}
