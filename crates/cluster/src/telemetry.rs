//! Deterministic virtual-time telemetry over [`ClusterFabric`]: link
//! utilization over time, per-port contention, input-buffer occupancy,
//! and flow-level path attribution.
//!
//! The fabric's own [`FlowCounters`] are totals over a whole run. This
//! module is its sensor layer, and it records exactly what
//! [`FabricTelemetry::summarize`] reports:
//!
//! * **per-port lifetime totals** — busy (serialization) time and flows
//!   sent, egress queue-wait time and contended hops, credit-stall time
//!   and credit pops, and ECN marks at the port's input buffer; the
//!   hotspot table, saturation count and class and group totals read
//!   these;
//! * **one busy series per link class** — every serialization span,
//!   split across the fixed-width virtual-time windows it overlaps and
//!   summed over the class's ports: the utilization heatmap;
//! * **input-buffer occupancy** — a time-weighted integral of the
//!   reserved bytes, kept as two words per port, plus a high-water mark
//!   and an occupancy-fraction histogram;
//! * **flow path attribution** — each delivery's latency split bit-exactly
//!   into wire/serialization vs egress queueing vs credit wait, the same
//!   decomposition `trace::dag` applies to critical-path stages.
//!
//! Everything is integer picoseconds keyed by the virtual clock, so
//! telemetry is deterministic (pooled == serial, byte for byte) and
//! *conservative*: the recording reconciles bit-exactly against the
//! fabric's [`FlowCounters`] — [`FabricTelemetry::summarize`] embeds the
//! checks in [`Conservation`] and tests assert them.
//!
//! Window widths adapt: recording starts at [`TelemetryConfig::window`]
//! and doubles (merging adjacent windows exactly) whenever a run would
//! exceed [`TelemetryConfig::max_windows`], so memory stays bounded at
//! any scale without a second pass — the same auto-resize idea HDR
//! histograms use, driven purely by recorded virtual time.
//!
//! [`ClusterFabric`]: crate::ClusterFabric

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

/// Lifetime totals of one port: its egress hops and the ECN marks of
/// its input buffer.
#[derive(Debug, Clone, Copy, Default)]
struct PortTotals {
    busy_ps: u64,
    flows: u64,
    queue_ps: u64,
    contended: u64,
    credit_ps: u64,
    credit_events: u64,
    ecn_marks: u64,
}

/// The recording state attached to a
/// [`ClusterFabric`](crate::ClusterFabric) when telemetry is enabled. All
/// hooks take raw picoseconds (the fabric's native unit).
#[derive(Debug, Clone)]
pub struct FabricTelemetry {
    pub cfg: TelemetryConfig,
    /// `log2` of the current window width: widths are powers of two so
    /// the per-event window lookup is a shift (measurably cheaper than a
    /// division at fabric message rates).
    shift: u32,
    max_idx: u64,
    /// Link class of each port: an index into
    /// [`FabricGraph::link_classes`].
    class_of: Vec<u8>,
    ports: Vec<PortTotals>,
    /// Busy picoseconds per link class and window. A series grows to its
    /// highest written window, which stays below `max_windows`.
    class_busy: Vec<Vec<u64>>,
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
    /// An empty recording over `graph`'s ports.
    pub fn new(graph: &FabricGraph, cfg: TelemetryConfig) -> Self {
        assert!(
            cfg.window > SimDuration::ZERO,
            "telemetry window must be positive"
        );
        assert!(cfg.max_windows >= 2, "telemetry needs at least two windows");
        let ports = graph.total_ports as usize;
        let mut class_of = vec![0u8; ports];
        for sw in 0..graph.switches() {
            for port in 0..graph.ports[sw as usize].len() as u32 {
                class_of[graph.gid(sw, port)] = graph.link_class(sw, port) as u8;
            }
        }
        FabricTelemetry {
            cfg,
            shift: cfg.window.as_ps().next_power_of_two().trailing_zeros(),
            max_idx: 0,
            class_of,
            ports: vec![PortTotals::default(); ports],
            class_busy: vec![Vec::new(); graph.link_classes().len()],
            occ: vec![(0, 0); ports],
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
    /// place, so resetting costs a sweep over the arrays, not a
    /// reallocation.
    pub fn reset(&mut self) {
        self.shift = self.cfg.window.as_ps().next_power_of_two().trailing_zeros();
        self.max_idx = 0;
        self.ports.fill(PortTotals::default());
        for series in &mut self.class_busy {
            series.clear();
        }
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

    /// Widen until window `idx` (at the current width) fits the budget.
    /// Each doubling adds adjacent window pairs, which is exact in
    /// integer picoseconds, so a span split after widening lands in the
    /// same cells as one split before it and merged.
    #[inline]
    fn note(&mut self, idx: u64) {
        if idx <= self.max_idx {
            return;
        }
        self.max_idx = idx;
        while self.max_idx >= self.cfg.max_windows {
            for series in &mut self.class_busy {
                let half = series.len().div_ceil(2);
                for i in 0..half {
                    series[i] = series[2 * i..].iter().take(2).sum();
                }
                series.truncate(half);
            }
            self.shift += 1;
            self.max_idx /= 2;
        }
    }

    /// One hop through egress `gid`, its phases contiguous in virtual
    /// time: the flow arrived ready at `ready_ps`, waited for the egress
    /// to drain until `drained_ps`, stalled on downstream credits through
    /// `credit_events` FIFO pops (mirroring `FlowCounters::credit_waits`)
    /// until `start_ps`, then transmitted until `end_ps`.
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
        let p = &mut self.ports[gid];
        p.busy_ps += end_ps - start_ps;
        p.flows += 1;
        p.queue_ps += drained_ps - ready_ps;
        p.contended += u64::from(drained_ps > ready_ps);
        p.credit_ps += start_ps - drained_ps;
        p.credit_events += credit_events;
        // Widen before cutting: the span's last window then fits the
        // budget, so no series grows past `max_windows` cells.
        self.note((end_ps - 1) >> self.shift);
        let shift = self.shift;
        let (first, last) = (
            (start_ps >> shift) as usize,
            ((end_ps - 1) >> shift) as usize,
        );
        let series = &mut self.class_busy[self.class_of[gid] as usize];
        if last >= series.len() {
            series.resize(last + 1, 0);
        }
        let mut at = start_ps;
        for cell in &mut series[first..last] {
            let boundary = ((at >> shift) + 1) << shift;
            *cell += boundary - at;
            at = boundary;
        }
        series[last] += end_ps - at;
    }

    /// Input buffer `gid` ECN-marked a reservation.
    #[inline]
    pub fn on_ecn_mark(&mut self, gid: usize) {
        self.ports[gid].ecn_marks += 1;
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
    /// `counters` bit-exactly. `graph` is the one the recorder was built
    /// over.
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
        // `String` clone) for every active port just to keep the top
        // five dominated the whole summarize cost.
        let mut hot_keys: Vec<(u64, usize)> = Vec::new();
        let mut saturated = 0u64;
        let (mut contended_ev, mut credit_ev, mut ecn_ev) = (0u64, 0u64, 0u64);
        for sw in 0..graph.switches() {
            for port in 0..graph.ports[sw as usize].len() as u32 {
                let gid = graph.gid(sw, port);
                let class = self.class_of[gid] as usize;
                let p = self.ports[gid];
                contended_ev += p.contended;
                credit_ev += p.credit_events;
                ecn_ev += p.ecn_marks;

                let row = &mut class_rows[class];
                row.links += 1;
                row.busy_ps += p.busy_ps;
                row.queue_ps += p.queue_ps;
                row.credit_ps += p.credit_ps;
                if !groups.is_empty() && class == global_class {
                    let g = &mut groups[graph.switch_group(sw).unwrap() as usize];
                    g.links += 1;
                    g.busy_ps += p.busy_ps;
                }
                if span_ps > 0
                    && (p.queue_ps + p.credit_ps) as f64 >= self.cfg.sat_contention * span_ps as f64
                {
                    saturated += 1;
                }
                if p.busy_ps > 0 || p.queue_ps > 0 || p.credit_ps > 0 {
                    hot_keys.push((p.queue_ps + p.credit_ps, gid));
                }
            }
        }
        // Normalize class series to utilization fractions of aggregate
        // class capacity (links × window width). Each window sum stays
        // far below 2^53 ps, so its one conversion to `f64` is exact.
        let mut windows_sum = true;
        for (row, series) in class_rows.iter_mut().zip(&self.class_busy) {
            windows_sum &= series.iter().sum::<u64>() == row.busy_ps;
            if row.links > 0 {
                let denom = row.links as f64 * self.window_ps() as f64;
                for (u, &ps) in row.util.iter_mut().zip(series) {
                    *u = ps as f64 / denom;
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
                let p = self.ports[gid];
                Hotspot {
                    sw,
                    port,
                    class: classes[self.class_of[gid] as usize].clone(),
                    util: if span_ps > 0 {
                        p.busy_ps as f64 / span_ps as f64
                    } else {
                        0.0
                    },
                    busy_ps: p.busy_ps,
                    queue_ps: p.queue_ps,
                    credit_ps: p.credit_ps,
                    credit_events: p.credit_events,
                    ecn_marks: p.ecn_marks,
                    flows: p.flows,
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
    /// Every link class's window cells sum to its ports' busy totals.
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

    /// One recorded egress hop's busy span: `(port gid, start ps, end ps)`.
    type Span = (usize, u64, u64);

    /// A deterministic stream of `msgs` messages over `graph`'s ports, one
    /// per 2^22 ps (400 span ~200 default 2^23 ps windows): hops whose
    /// spans cross window boundaries, some queued, some credit-stalled,
    /// with ECN marks and occupancy samples, each followed by a delivery
    /// whose split is exact. Returns the fabric counters the stream
    /// implies and every hop's busy span.
    fn record(
        tel: &mut FabricTelemetry,
        graph: &FabricGraph,
        seed: u64,
        msgs: u64,
    ) -> (FlowCounters, Vec<Span>) {
        let ports = graph.total_ports as u64;
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut counters = FlowCounters::default();
        let mut spans = Vec::new();
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
            spans.push((gid, start, end));
            counters.contended += u64::from(queue > 0);
            counters.credit_waits += credit_events;
            if next() % 5 == 0 {
                tel.on_ecn_mark(gid);
                counters.ecn_marks += 1;
            }
            tel.on_occupancy(gid, start, next() % (64 << 10), 64 << 10);
            let wire = 1 + next() % 1_000_000;
            tel.on_delivery(wire + queue + credit, wire, queue, credit, end);
            counters.messages += 1;
        }
        (counters, spans)
    }

    fn recorder(graph: &FabricGraph, max_windows: u64) -> FabricTelemetry {
        let cfg = TelemetryConfig {
            max_windows,
            ..TelemetryConfig::paper_default()
        };
        FabricTelemetry::new(graph, cfg)
    }

    /// Window widening merges windows exactly: four windows or a
    /// thousand, the same hops give the same per-class and per-port
    /// busy/queue/credit totals, the same attribution and occupancy, and
    /// both recordings reconcile.
    #[test]
    fn window_budget_changes_resolution_not_totals() {
        let graph = FabricGraph::fat_tree(4, 2);
        let report = |max_windows: u64| {
            let mut tel = recorder(&graph, max_windows);
            let (counters, _) = record(&mut tel, &graph, 7, 400);
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

    /// Oracle for the windowed series: cut every busy span at the
    /// report's final window width by brute force, sum the pieces per
    /// link class, and normalize by the class's capacity. Each class's
    /// `util` must equal that bit for bit, whatever the window budget
    /// (including one that is not a power of two).
    #[test]
    fn class_utilization_matches_brute_force_window_split() {
        let graph = FabricGraph::dragonfly(4, 2, 2);
        let classes = graph.link_classes().len();
        let class_of = |gid: usize| {
            let (sw, port) = graph.port_of_gid(gid);
            graph.link_class(sw, port)
        };
        let mut links = vec![0u64; classes];
        for gid in 0..graph.total_ports as usize {
            links[class_of(gid)] += 1;
        }
        for max_windows in [4u64, 5, 8, 64, 1024] {
            let mut tel = recorder(&graph, max_windows);
            let (counters, spans) = record(&mut tel, &graph, 5, 400);
            let report = tel.summarize(&graph, &counters);
            let width = report.window_ps;
            let mut busy = vec![vec![0u64; report.windows as usize]; classes];
            for &(gid, start, end) in &spans {
                for (w, cell) in busy[class_of(gid)].iter_mut().enumerate() {
                    let (lo, hi) = (w as u64 * width, (w as u64 + 1) * width);
                    if start < hi && end > lo {
                        *cell += end.min(hi) - start.max(lo);
                    }
                }
            }
            for (c, row) in report.classes.iter().enumerate() {
                assert_eq!(row.links, links[c]);
                let expect: Vec<f64> = busy[c]
                    .iter()
                    .map(|&ps| ps as f64 / (links[c] as f64 * width as f64))
                    .collect();
                assert_eq!(row.util, expect, "max_windows {max_windows}, {}", row.label);
            }
            assert!(report.conservation.exact(), "{:?}", report.conservation);
        }
    }

    /// `reset` clears every recording and the widened window: re-recording
    /// a shorter run after it reports exactly what a fresh recorder does.
    #[test]
    fn reset_then_rerecord_equals_a_fresh_recorder() {
        let graph = FabricGraph::fat_tree(4, 2);
        let mut reused = recorder(&graph, 8);
        record(&mut reused, &graph, 3, 400);
        reused.reset();
        let (counters, _) = record(&mut reused, &graph, 11, 40);
        let mut fresh = recorder(&graph, 8);
        assert_eq!(record(&mut fresh, &graph, 11, 40).0, counters);
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
        let mut exact = FabricTelemetry::new(&graph, TelemetryConfig::paper_default());
        exact.on_delivery(100, 60, 30, 10, 100);
        assert!(exact.summarize(&graph, &one).conservation.exact());
        let mut off = FabricTelemetry::new(&graph, TelemetryConfig::paper_default());
        off.on_delivery(100, 60, 30, 11, 100);
        let c = off.summarize(&graph, &one).conservation;
        assert!(!c.attribution && !c.exact(), "{c:?}");
    }
}
