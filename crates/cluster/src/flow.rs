//! Flow-level per-port fabric model: finite input buffers, credit-based
//! link-level flow control, cut-through forwarding, egress arbitration,
//! and ECN-style marking fed back to injecting NICs.
//!
//! Messages are simulated as *flows*: one [`ClusterFabric::send`] walks
//! the whole route at once, charging each switch's crossbar latency,
//! waiting on busy egress ports, and holding space in the next hop's
//! input buffer until the message has streamed onward (plus the credit's
//! return flight). Messages are processed one at a time in a
//! deterministic global order chosen by the caller, so pooled and serial
//! runs are byte-identical — there is no randomness anywhere in this
//! module.
//!
//! **Calibration invariant**: an uncontended walk of a single-switch
//! topology costs exactly `Wire + Switch` — bit-equal in integer
//! picoseconds to [`bband_fabric::NetworkModel::network_mean`] — and an
//! uncontended walk over `h` switches costs `Wire + h·Switch +
//! (h−1)·cable`. The sweep artifact embeds the first check
//! (`two_node.exact`), and a `bband-bench` test asserts it.

use crate::telemetry::{FabricTelemetry, TelemetryConfig};
use crate::topo::{FabricGraph, PortTarget, RouteHop};
use bband_fabric::{segmented_wire_bytes, WireModel, MTU};
use bband_metrics as metrics;
use bband_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Calibration and policy knobs of the flow-level fabric.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Injection link: SerDes/PHY pipeline plus per-byte serialization.
    pub wire: WireModel,
    /// Per-switch crossbar latency (the paper's 108 ns `Switch` term).
    pub switch_base: SimDuration,
    /// Egress serialization rate (same 0.08 ns/B as the wire).
    pub switch_per_byte: SimDuration,
    /// Propagation latency of one inter-switch cable.
    pub inter_switch_cable: SimDuration,
    /// Capacity of each switch input buffer. A message must obtain this
    /// many bytes of credit at the next hop before its egress may start.
    pub input_buffer_bytes: u64,
    /// Occupancy fraction of an input buffer at or above which a message
    /// is ECN-marked, telling the source NIC to back off.
    pub ecn_threshold: f64,
    /// Injection-side penalty a NIC takes per ECN-marked delivery.
    pub ecn_backoff: SimDuration,
}

impl FlowConfig {
    /// The calibrated configuration: the paper's wire and switch numbers
    /// (jitter-free — the flow model is deterministic by design), 64 KiB
    /// input buffers, ECN at 70% occupancy.
    pub fn paper_default() -> Self {
        FlowConfig {
            wire: WireModel::default().deterministic(),
            switch_base: SimDuration::from_ns_f64(108.0),
            switch_per_byte: SimDuration::from_ps(80),
            inter_switch_cable: SimDuration::from_ns_f64(50.0),
            input_buffer_bytes: 64 << 10,
            ecn_threshold: 0.7,
            ecn_backoff: SimDuration::from_ns_f64(500.0),
        }
    }
}

/// Congestion diagnostics accumulated over a fabric's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Messages delivered.
    pub messages: u64,
    /// Hops that waited for a busy egress port.
    pub contended: u64,
    /// Hops that waited for input-buffer credits at the next switch.
    pub credit_waits: u64,
    /// ECN marks set (input buffer past the threshold).
    pub ecn_marks: u64,
    /// Injection backoffs applied to NICs after marked deliveries.
    pub ecn_backoffs: u64,
}

/// Outcome of one flow-level message walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the message is fully delivered at the destination NIC.
    pub deliver_at: SimTime,
    /// Switches traversed.
    pub hops: u32,
    /// Total bytes the message occupied on each link (payload + per-MTU
    /// IB headers).
    pub wire_bytes: u64,
    /// Whether any input buffer on the path was past the ECN threshold;
    /// the caller should feed this back via
    /// [`ClusterFabric::apply_ecn_backoff`].
    pub ecn_marked: bool,
    /// Time spent waiting for busy egress ports, summed over the path.
    pub queued: SimDuration,
    /// Time stalled on downstream input-buffer credits, summed over the
    /// path. Together with `queued`, this decomposes the flow's latency
    /// bit-exactly: `latency = wire/serialization + queued +
    /// credit_waited`, where the wire term is the analytic uncontended
    /// cost of the walk (wire + per-hop crossbar + cables).
    pub credit_waited: SimDuration,
}

/// One switch traversal of a resolved path, in the fabric's global port
/// ids: the egress port the message leaves through, and the input buffer
/// it lands in at the next switch ([`PortHop::HOST`] when the egress
/// ejects to the destination host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortHop {
    pub(crate) egress: u32,
    pub(crate) next_buf: u32,
}

impl PortHop {
    /// `next_buf` of a host-facing egress: the last hop of every path.
    pub(crate) const HOST: u32 = u32::MAX;
}

/// One switch input buffer: FIFO of in-flight reservations. An entry
/// frees at the instant the upstream sees the credit return — after the
/// message finished streaming out of this switch plus one cable flight.
#[derive(Debug, Clone, Default)]
struct InBuf {
    q: VecDeque<(SimTime, u64)>,
    occupied: u64,
}

/// The runtime fabric: an explicit topology graph plus per-port state.
#[derive(Debug, Clone)]
pub struct ClusterFabric {
    pub graph: FabricGraph,
    pub cfg: FlowConfig,
    /// Busy-until horizon per global egress port.
    egress_busy: Vec<SimTime>,
    /// Input buffer per global port.
    bufs: Vec<InBuf>,
    /// Injection link free-at per host NIC (serialization pacing + ECN
    /// backoff).
    nic_free: Vec<SimTime>,
    /// ECN mark threshold in bytes (precomputed from the config).
    ecn_bytes: u64,
    /// Reused buffers of [`ClusterFabric::send`]'s resolve step.
    route: Vec<RouteHop>,
    path: Vec<PortHop>,
    pub counters: FlowCounters,
    /// Optional telemetry recording (`None` costs nothing on the send
    /// path beyond one branch).
    telemetry: Option<Box<FabricTelemetry>>,
}

impl ClusterFabric {
    pub fn new(graph: FabricGraph, cfg: FlowConfig) -> Self {
        assert!(cfg.input_buffer_bytes > 0, "input buffers need capacity");
        let ports = graph.total_ports as usize;
        let hosts = graph.hosts as usize;
        let ecn_bytes = (cfg.input_buffer_bytes as f64 * cfg.ecn_threshold) as u64;
        ClusterFabric {
            graph,
            cfg,
            egress_busy: vec![SimTime::ZERO; ports],
            bufs: vec![InBuf::default(); ports],
            nic_free: vec![SimTime::ZERO; hosts],
            ecn_bytes,
            route: Vec::new(),
            path: Vec::new(),
            counters: FlowCounters::default(),
            telemetry: None,
        }
    }

    /// Calibrated fabric over `graph`.
    pub fn paper_default(graph: FabricGraph) -> Self {
        ClusterFabric::new(graph, FlowConfig::paper_default())
    }

    /// Drop all transient run state (port horizons, buffers, NIC pacing,
    /// counters), keeping topology and calibration — the cluster-scale
    /// analogue of [`bband_fabric::SwitchModel::reset_transients`].
    pub fn reset_transients(&mut self) {
        self.egress_busy.fill(SimTime::ZERO);
        for b in &mut self.bufs {
            b.q.clear();
            b.occupied = 0;
        }
        self.nic_free.fill(SimTime::ZERO);
        self.counters = FlowCounters::default();
        if let Some(tel) = &mut self.telemetry {
            tel.reset();
        }
    }

    /// Attach a telemetry recorder (replacing any existing recording).
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = Some(Box::new(FabricTelemetry::new(&self.graph, cfg)));
    }

    /// The current telemetry recording, if enabled.
    pub fn telemetry(&self) -> Option<&FabricTelemetry> {
        self.telemetry.as_deref()
    }

    /// Admit a message to `src`'s injection link: the NIC serializes
    /// back-to-back sends and carries any ECN backoff debt. Returns the
    /// departure instant.
    pub fn inject(&mut self, src: u32, ready: SimTime, payload: u32) -> SimTime {
        let depart = ready.max_of(self.nic_free[src as usize]);
        let seg = segmented_wire_bytes(payload, MTU);
        self.nic_free[src as usize] = depart + self.cfg.wire.per_byte * seg;
        depart
    }

    /// Penalize `src`'s NIC after an ECN-marked delivery: the next
    /// injection waits out the backoff — the backpressure loop from
    /// fabric congestion to the injecting edge.
    pub fn apply_ecn_backoff(&mut self, src: u32) {
        self.nic_free[src as usize] += self.cfg.ecn_backoff;
        self.counters.ecn_backoffs += 1;
    }

    /// Walk one message from `src` to `dst`, departing the NIC at
    /// `depart`. Deterministic: same fabric state and arguments, same
    /// delivery. Records one `fabric_msg_latency` metric per message.
    pub fn send(&mut self, depart: SimTime, src: u32, dst: u32, payload: u32) -> Delivery {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        self.resolve_into(src, dst, &mut path);
        let d = self.walk(depart, &path, payload);
        self.path = path;
        metrics::record("fabric_msg_latency", d.deliver_at.since(depart));
        d
    }

    /// Route `src` to `dst` and append the route to `out` as global port
    /// ids, one [`PortHop`] per switch: the routing half of
    /// [`ClusterFabric::send`], for callers that walk one path many times.
    pub(crate) fn resolve_into(&mut self, src: u32, dst: u32, out: &mut Vec<PortHop>) {
        self.graph.route_into(src, dst, &mut self.route);
        let graph = &self.graph;
        out.extend(self.route.iter().map(|hop| PortHop {
            egress: graph.gid(hop.sw, hop.port) as u32,
            next_buf: match graph.ports[hop.sw as usize][hop.port as usize] {
                PortTarget::Switch { sw, port } => graph.gid(sw, port) as u32,
                PortTarget::Host(h) => {
                    debug_assert_eq!(h, dst, "route delivered to the wrong host");
                    PortHop::HOST
                }
            },
        }));
    }

    /// Walk one message along a resolved `path` (from
    /// [`ClusterFabric::resolve_into`]), departing the NIC at `depart`:
    /// the hop loop of [`ClusterFabric::send`], with its state updates and
    /// telemetry hooks. It records no metric and makes no trace call: its
    /// caller observes the latency, `send` as one record per message and
    /// `run_flow_collective` as one histogram merge per collective.
    pub(crate) fn walk(&mut self, depart: SimTime, path: &[PortHop], payload: u32) -> Delivery {
        let seg = segmented_wire_bytes(payload, MTU);
        // First-hop wire: SerDes/propagation plus full serialization at
        // the injection link — identical to `WireModel::latency_mean` for
        // sub-MTU payloads, extended with per-segment headers above.
        let wire_lat = self.cfg.wire.base + self.cfg.wire.fec + self.cfg.wire.per_byte * seg;
        let ser = self.cfg.switch_per_byte * seg;
        // A flow larger than an input buffer streams through it and can
        // hold at most the buffer's full capacity in reservations.
        let need = seg.min(self.cfg.input_buffer_bytes);
        self.counters.messages += 1;

        // The telemetry recorder borrows nothing of the fabric; take it
        // out to keep the borrow checker out of the hop loop.
        let mut tel = self.telemetry.take();

        let mut t = depart + wire_lat; // header arrival at the first switch
        let mut marked = false;
        let mut queued = SimDuration::ZERO;
        let mut credit_waited = SimDuration::ZERO;
        // The input-buffer entry pushed at the previous hop; its free
        // time is patched once this hop's egress start is known.
        let mut patch: Option<usize> = None;
        for hop in path {
            // Cut-through: the header is routed after the crossbar delay;
            // serialization overlaps with downstream progress.
            let ready = t + self.cfg.switch_base;
            let out_gid = hop.egress as usize;
            let mut start = ready.max_of(self.egress_busy[out_gid]);
            // Egress start after the queue drained, before credit stalls:
            // the boundary between the hop's queue and credit phases.
            let drained = start;
            let mut hop_credit_waits = 0u64;
            if start > ready {
                self.counters.contended += 1;
                queued += start.since(ready);
            }
            if hop.next_buf != PortHop::HOST {
                // Credit flow control: the next hop's input buffer must
                // have room before egress may start. Buffers are FIFOs:
                // reservations free in arrival order.
                let buf = &mut self.bufs[hop.next_buf as usize];
                while buf.occupied + need > self.cfg.input_buffer_bytes {
                    let (free_at, bytes) = buf
                        .q
                        .pop_front()
                        .expect("input buffer overcommitted yet empty");
                    buf.occupied -= bytes;
                    if free_at > start {
                        self.counters.credit_waits += 1;
                        credit_waited += free_at.since(start);
                        hop_credit_waits += 1;
                        start = free_at;
                    }
                }
                // Drain reservations that already freed — bounded by the
                // queue, so occupancy (and ECN) sees current state.
                while buf.q.front().is_some_and(|&(free_at, _)| free_at <= start) {
                    let (_, bytes) = buf.q.pop_front().expect("checked front");
                    buf.occupied -= bytes;
                }
            }
            self.egress_busy[out_gid] = start + ser;
            if let Some(tel) = tel.as_deref_mut() {
                tel.on_hop(
                    out_gid,
                    ready.as_ps(),
                    drained.as_ps(),
                    start.as_ps(),
                    (start + ser).as_ps(),
                    hop_credit_waits,
                );
            }
            if let Some(bgid) = patch.take() {
                // This message's reservation at the *current* switch frees
                // once it has streamed out, plus the credit return flight.
                let entry = self.bufs[bgid].q.back_mut().expect("patched entry");
                entry.0 = start + ser + self.cfg.inter_switch_cable;
            }
            if hop.next_buf != PortHop::HOST {
                let bgid = hop.next_buf as usize;
                let buf = &mut self.bufs[bgid];
                // Provisional free time (patched at the next hop).
                buf.q
                    .push_back((start + ser + self.cfg.inter_switch_cable, need));
                buf.occupied += need;
                let occupied = buf.occupied;
                // `>=`: a buffer sitting exactly at the threshold is
                // already at the configured fraction — mark it. (The
                // old `>` let boundary-exact occupancy dodge ECN.)
                if occupied >= self.ecn_bytes {
                    marked = true;
                    self.counters.ecn_marks += 1;
                    if let Some(tel) = tel.as_deref_mut() {
                        tel.on_ecn_mark(bgid);
                    }
                }
                if let Some(tel) = tel.as_deref_mut() {
                    tel.on_occupancy(bgid, start.as_ps(), occupied, self.cfg.input_buffer_bytes);
                }
                patch = Some(bgid);
                t = start + self.cfg.inter_switch_cable;
            } else {
                // Cut-through delivery: the final cable segment is
                // folded into the wire calibration, exactly as the
                // legacy single-switch model accounts it.
                t = start;
            }
        }
        let hops = path.len() as u32;
        if let Some(tel) = tel.as_deref_mut() {
            // Analytic uncontended cost of the walk: first-hop wire plus
            // per-switch crossbar and inter-switch cables. Together with
            // the waits this reconstructs the latency bit-exactly.
            let fixed = wire_lat
                + self.cfg.switch_base * hops as u64
                + self.cfg.inter_switch_cable * (hops as u64).saturating_sub(1);
            tel.on_delivery(
                t.since(depart).as_ps(),
                fixed.as_ps(),
                queued.as_ps(),
                credit_waited.as_ps(),
                t.as_ps(),
            );
        }
        self.telemetry = tel;
        Delivery {
            deliver_at: t,
            hops,
            wire_bytes: seg,
            ecn_marked: marked,
            queued,
            credit_waited,
        }
    }

    /// One-way latency of an uncontended walk — the calibration gate
    /// value. Runs on a scratch clone so the live state is untouched.
    pub fn uncontended_latency(&self, src: u32, dst: u32, payload: u32) -> SimDuration {
        let mut scratch = self.clone();
        scratch.reset_transients();
        scratch
            .send(SimTime::ZERO, src, dst, payload)
            .deliver_at
            .since(SimTime::ZERO)
    }

    /// Link rate in Gbit/s implied by the serialization calibration.
    pub fn link_rate_gbps(&self) -> f64 {
        8.0 / self.cfg.wire.per_byte.as_ns_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::FabricGraph;
    use bband_fabric::{NetworkModel, NodeId, Packet, PacketId, PacketKind};
    use bband_trace as trace;

    fn probe(payload: u32) -> Packet {
        Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(1), payload)
    }

    /// The 2-node acceptance gate: one switch between two hosts must be
    /// bit-exact against the calibrated `NetworkModel` — every prior
    /// validation (Table 1, fig13, live runs) rests on that path.
    #[test]
    fn two_node_path_is_bit_exact_against_network_model() {
        let fab = ClusterFabric::paper_default(FabricGraph::fat_tree(2, 1));
        let legacy = NetworkModel::paper_default().deterministic();
        for payload in [8u32, 64, 512, 4096] {
            assert_eq!(
                fab.uncontended_latency(0, 1, payload),
                legacy.network_mean(&probe(payload)),
                "payload {payload}"
            );
        }
        // And the 8-byte probe lands on the paper's 382.81 ns.
        assert_eq!(fab.uncontended_latency(0, 1, 8).as_ps(), 382_810);
    }

    /// `resolve_into` appends each route hop as the global id of its
    /// egress port and of the input buffer at the port's far end, or the
    /// host marker on the last hop, which ejects to the destination.
    #[test]
    fn resolved_paths_agree_with_the_port_tables() {
        for graph in [FabricGraph::fat_tree(4, 3), FabricGraph::dragonfly(4, 2, 2)] {
            let mut fab = ClusterFabric::paper_default(graph.clone());
            let (mut route, mut path) = (Vec::new(), Vec::new());
            for src in 0..graph.hosts {
                path.clear();
                for dst in (0..graph.hosts).filter(|&d| d != src) {
                    graph.route_into(src, dst, &mut route);
                    let lo = path.len();
                    fab.resolve_into(src, dst, &mut path);
                    assert_eq!(path.len() - lo, route.len(), "{src}->{dst}");
                    for (i, (hop, resolved)) in route.iter().zip(&path[lo..]).enumerate() {
                        assert_eq!(resolved.egress as usize, graph.gid(hop.sw, hop.port));
                        let next_buf = match graph.ports[hop.sw as usize][hop.port as usize] {
                            PortTarget::Switch { sw, port } => graph.gid(sw, port) as u32,
                            PortTarget::Host(h) => {
                                assert_eq!((h, i), (dst, route.len() - 1), "{src}->{dst}");
                                PortHop::HOST
                            }
                        };
                        assert_eq!(resolved.next_buf, next_buf, "{src}->{dst} hop {i}");
                    }
                }
            }
        }
    }

    /// An uncontended 3-switch walk costs Wire + 3*Switch + 2*cable.
    #[test]
    fn three_hop_walk_matches_legacy_fat_tree_formula() {
        let fab = ClusterFabric::paper_default(FabricGraph::fat_tree(2, 2));
        // Hosts 0 and 3 differ in the top digit: up, across, down.
        let d = fab.uncontended_latency(0, 3, 8);
        assert_eq!(d.as_ps(), 274_810 + 3 * 108_000 + 2 * 50_000);
    }

    #[test]
    fn shared_egress_port_serializes_and_counts_contention() {
        let mut fab = ClusterFabric::paper_default(FabricGraph::fat_tree(4, 1));
        let t0 = SimTime::ZERO;
        let d1 = fab.send(t0, 0, 3, 4096);
        let d2 = fab.send(t0, 1, 3, 4096);
        assert!(d2.deliver_at > d1.deliver_at, "second flow queues");
        assert_eq!(fab.counters.contended, 1);
        // Far-apart sends never contend.
        fab.reset_transients();
        let a = fab.send(SimTime::ZERO, 0, 3, 4096);
        let b = fab.send(SimTime::from_ns(100_000), 1, 3, 4096);
        assert_eq!(
            b.deliver_at.since(SimTime::from_ns(100_000)),
            a.deliver_at.since(SimTime::ZERO)
        );
        assert_eq!(fab.counters.contended, 0);
    }

    #[test]
    fn tiny_buffers_force_credit_waits() {
        let graph = FabricGraph::fat_tree(2, 2);
        let mut cfg = FlowConfig::paper_default();
        // Room for exactly one 4 KiB message reservation.
        cfg.input_buffer_bytes = 4_200;
        let mut fab = ClusterFabric::new(graph.clone(), cfg);
        // Incast across the top: 0->3 and 1->3 share the down path; with
        // one-message buffers the second flow must wait for credits.
        let uncontended = fab.uncontended_latency(1, 3, 4096);
        let t0 = SimTime::ZERO;
        fab.send(t0, 0, 3, 4096);
        let d2 = fab.send(t0, 1, 3, 4096);
        assert!(fab.counters.credit_waits > 0, "{:?}", fab.counters);
        assert!(d2.deliver_at.since(t0) > uncontended);
        // Roomy buffers on the same schedule: egress contention only.
        let mut roomy = ClusterFabric::paper_default(graph);
        roomy.send(t0, 0, 3, 4096);
        roomy.send(t0, 1, 3, 4096);
        assert_eq!(roomy.counters.credit_waits, 0);
    }

    #[test]
    fn ecn_marks_feed_nic_backpressure() {
        let graph = FabricGraph::fat_tree(2, 2);
        let mut cfg = FlowConfig::paper_default();
        cfg.input_buffer_bytes = 10_000; // ECN above 7000 bytes
        let mut fab = ClusterFabric::new(graph, cfg);
        let t0 = SimTime::ZERO;
        fab.send(t0, 0, 3, 4096);
        let d = fab.send(t0, 1, 3, 4096); // second reservation: 8252 > 7000
        assert!(d.ecn_marked, "{:?}", fab.counters);
        assert!(fab.counters.ecn_marks > 0);
        // The mark pushes the source NIC's next injection out.
        let before = fab.inject(1, t0, 8);
        fab.apply_ecn_backoff(1);
        let after = fab.inject(1, t0, 8);
        assert!(after >= before + SimDuration::from_ns_f64(500.0));
        assert_eq!(fab.counters.ecn_backoffs, 1);
    }

    #[test]
    fn injection_link_paces_back_to_back_sends() {
        let mut fab = ClusterFabric::paper_default(FabricGraph::fat_tree(2, 1));
        let t0 = SimTime::ZERO;
        let first = fab.inject(0, t0, 4096);
        assert_eq!(first, t0);
        let second = fab.inject(0, t0, 4096);
        // Second departs after the first finished serializing: 4126 B.
        assert_eq!(second, t0 + SimDuration::from_ps(80 * (30 + 4096)));
    }

    /// Observing a send costs one metrics value per message: the
    /// `fabric_msg_latency` histogram is the registry's only entry and no
    /// span is traced, even on paths that queue, stall on credits and
    /// mark ECN (those totals live in `FlowCounters`). A bare walk records
    /// nothing: its caller observes the latency.
    #[test]
    fn walk_records_one_latency_metric_and_no_trace_spans() {
        let ((counters, tr), task) = metrics::collect(|| {
            trace::collect(1 << 8, || {
                let mut cfg = FlowConfig::paper_default();
                cfg.input_buffer_bytes = 4_200;
                let mut fab = ClusterFabric::new(FabricGraph::fat_tree(4, 2), cfg);
                for s in 0..8 {
                    if fab.send(SimTime::ZERO, s, 9, 4096).ecn_marked {
                        fab.apply_ecn_backoff(s);
                    }
                }
                let mut path = Vec::new();
                fab.resolve_into(8, 9, &mut path);
                fab.walk(SimTime::ZERO, &path, 4096);
                assert_eq!(fab.counters.messages, 9);
                fab.counters
            })
        });
        assert!(
            counters.contended > 0 && counters.credit_waits > 0 && counters.ecn_backoffs > 0,
            "{counters:?}"
        );
        assert!(tr.spans.is_empty(), "{:?}", tr.spans);
        assert!(task.counters.is_empty(), "{:?}", task.counters);
        let hists: Vec<_> = task.hists.iter().map(|h| (h.name, h.count)).collect();
        assert_eq!(hists, [("fabric_msg_latency", 8)]);
    }

    /// The ECN boundary satellite: ecn_bytes = floor(2858 * 0.7) = 2000,
    /// and two 1000-byte reservations put the shared buffer at exactly
    /// 2000 — at the threshold, not past it. `>=` must mark.
    #[test]
    fn ecn_marks_at_exactly_the_threshold_boundary() {
        let mut cfg = FlowConfig::paper_default();
        cfg.input_buffer_bytes = 2858;
        let mut fab = ClusterFabric::new(FabricGraph::fat_tree(2, 2), cfg);
        let t0 = SimTime::ZERO;
        // payload 970 + 30 header = 1000 reserved bytes per flow.
        let d1 = fab.send(t0, 0, 3, 970);
        assert!(!d1.ecn_marked, "single flow is under the threshold");
        let d2 = fab.send(t0, 1, 3, 970);
        assert!(
            d2.ecn_marked,
            "occupancy exactly at the threshold must mark: {:?}",
            fab.counters
        );
        assert!(fab.counters.ecn_marks > 0);
    }

    /// Tentpole reconciliation gate: every telemetry series sums
    /// bit-exactly to the fabric's aggregate counters, and each flow's
    /// wire + queued + credit split equals its latency.
    #[test]
    fn telemetry_reconciles_bit_exactly_with_fabric_counters() {
        let mut cfg = FlowConfig::paper_default();
        cfg.input_buffer_bytes = 4_200; // force credit waits and ECN
        let mut fab = ClusterFabric::new(FabricGraph::fat_tree(4, 2), cfg);
        fab.enable_telemetry(TelemetryConfig::paper_default());
        for s in 0..8 {
            let depart = fab.inject(s, SimTime::ZERO, 4096);
            let d = fab.send(depart, s, 9, 4096);
            // Per-delivery attribution identity, directly on the Delivery.
            assert!(d.deliver_at.since(depart) >= d.queued + d.credit_waited);
        }
        assert!(fab.counters.contended > 0);
        assert!(fab.counters.credit_waits > 0);
        assert!(fab.counters.ecn_marks > 0);
        let report = fab
            .telemetry()
            .unwrap()
            .summarize(&fab.graph, &fab.counters);
        assert!(report.conservation.exact(), "{:?}", report.conservation);
        assert_eq!(report.messages, 8);
        assert!(report.totals.queue_ps > 0);
        assert!(report.totals.credit_ps > 0);
        assert_eq!(
            report.totals.wire_ps + report.totals.queue_ps + report.totals.credit_ps,
            report.totals.latency_ps
        );
        assert!(report.occupancy.high_water_bytes > 0);
        assert!(!report.hotspots.is_empty());
        // Hotspots ranked by contention time, descending.
        for w in report.hotspots.windows(2) {
            assert!(w[0].queue_ps + w[0].credit_ps >= w[1].queue_ps + w[1].credit_ps);
        }
    }

    /// Observation must not perturb: a telemetry-enabled fabric delivers
    /// byte-identical results to a plain one.
    #[test]
    fn telemetry_observation_does_not_perturb_the_simulation() {
        let graph = FabricGraph::dragonfly(4, 2, 2);
        let mut plain = ClusterFabric::paper_default(graph.clone());
        let mut tele = ClusterFabric::paper_default(graph);
        tele.enable_telemetry(TelemetryConfig::paper_default());
        let hosts = plain.graph.hosts;
        for s in 0..hosts {
            let dst = (s + hosts / 2) % hosts;
            let a = plain.send(SimTime::ZERO, s, dst, 4096);
            let b = tele.send(SimTime::ZERO, s, dst, 4096);
            assert_eq!(a, b);
        }
        assert_eq!(plain.counters, tele.counters);
    }

    /// A second run from a reset fabric records telemetry identical to a
    /// fresh fabric's.
    #[test]
    fn reused_fabric_records_identical_telemetry() {
        let run = |fab: &mut ClusterFabric| {
            let mut deliveries = Vec::new();
            for s in 0..8 {
                deliveries.push(fab.send(SimTime::ZERO, s, 9, 4096));
            }
            (
                deliveries,
                fab.telemetry()
                    .unwrap()
                    .summarize(&fab.graph, &fab.counters),
            )
        };
        let mut cfg = FlowConfig::paper_default();
        cfg.input_buffer_bytes = 4_200;
        let mut fresh = ClusterFabric::new(FabricGraph::fat_tree(4, 2), cfg);
        fresh.enable_telemetry(TelemetryConfig::paper_default());
        let first = run(&mut fresh);
        // Reset in place: everything transient (including telemetry)
        // must clear, so the second run is identical.
        fresh.reset_transients();
        assert_eq!(run(&mut fresh), first);
    }

    #[test]
    fn reset_transients_restores_a_clean_fabric() {
        let mut fab = ClusterFabric::paper_default(FabricGraph::fat_tree(4, 2));
        let clean = fab.uncontended_latency(0, 9, 4096);
        for s in 0..8 {
            fab.send(SimTime::ZERO, s, 9, 4096);
        }
        assert!(fab.counters.contended > 0);
        fab.reset_transients();
        assert_eq!(fab.counters, FlowCounters::default());
        assert_eq!(
            fab.send(SimTime::ZERO, 0, 9, 4096)
                .deliver_at
                .since(SimTime::ZERO),
            clean
        );
    }
}
