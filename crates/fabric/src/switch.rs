//! The network switch.
//!
//! The paper measures the switch's added latency as 108 ns by differencing
//! two latency runs, with and without a switch on the path (§4.3). That is
//! the uncontended cut-through latency; we additionally model output-port
//! serialization so that multi-flow workloads (the event-level
//! collectives over more than two nodes) experience queueing, which the
//! paper's single-flow experiments never do.

use crate::packet::{NodeId, Packet};
use bband_sim::{IdMap, Jitter, Pcg64, SimDuration, SimTime};
use bband_trace as trace;
use serde::{Deserialize, Serialize};

/// A cut-through switch with per-output-port serialization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchModel {
    /// Uncontended port-to-port latency (header parse, routing, crossbar).
    pub base: SimDuration,
    /// Per-byte serialization on the egress port (same rate as the wire).
    pub per_byte: SimDuration,
    /// Per-hop jitter.
    pub jitter: Jitter,
    /// Busy-until horizon per egress port.
    #[serde(skip)]
    egress_busy: IdMap<NodeId, SimTime>,
    /// Packets that experienced queueing (diagnostics). Transient run
    /// state like `egress_busy`, so it is skipped too: a deserialized
    /// switch always starts idle *and* uncontended.
    #[serde(skip)]
    pub contended: u64,
}

impl Default for SwitchModel {
    /// Mellanox-class calibration: 108 ns cut-through (Table 1). An
    /// Ethernet switch would be an order of magnitude slower; GenZ
    /// forecasts 30–50 ns (§7.2).
    fn default() -> Self {
        SwitchModel {
            base: SimDuration::from_ns_f64(108.0),
            per_byte: SimDuration::from_ps(80),
            jitter: Jitter::Hw,
            egress_busy: IdMap::default(),
            contended: 0,
        }
    }
}

impl SwitchModel {
    /// Jitter-free copy for validation runs.
    pub fn deterministic(mut self) -> Self {
        self.jitter = Jitter::Fixed;
        self
    }

    /// Drop all transient run state (egress busy horizons, contention
    /// diagnostics), leaving only the calibration. Validation runs call
    /// this so a reused model starts from a clean slate.
    pub fn reset_transients(&mut self) {
        self.egress_busy.clear();
        self.contended = 0;
    }

    /// Mean uncontended delay added by the switch for this packet — the
    /// paper's `Switch` term. (Cut-through: serialization is already paid
    /// on the wire; only the crossbar cost is added.)
    pub fn latency_mean(&self, _pkt: &Packet) -> SimDuration {
        self.base
    }

    /// Delay added for a packet entering the switch at `arrival`, including
    /// any wait for the egress port to drain earlier packets.
    pub fn traverse(&mut self, arrival: SimTime, pkt: &Packet, rng: &mut Pcg64) -> SimDuration {
        let crossbar = self.jitter.sample(self.base, rng);
        let ready = arrival + crossbar;
        let port_free = self
            .egress_busy
            .get(&pkt.dst)
            .copied()
            .unwrap_or(SimTime::ZERO);
        let start_tx = ready.max_of(port_free);
        if start_tx > ready {
            self.contended += 1;
        }
        let serialize = self.per_byte * pkt.wire_bytes() as u64;
        self.egress_busy.insert(pkt.dst, start_tx + serialize);
        trace::span(trace::Layer::Switch, "Switch", arrival, start_tx, pkt.id.0);
        start_tx.since(arrival)
    }

    /// True if no packet ever queued behind another on an egress port.
    pub fn uncontended(&self) -> bool {
        self.contended == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketId, PacketKind};

    fn pkt(id: u64, dst: u32) -> Packet {
        Packet::message(PacketId(id), PacketKind::Send, NodeId(0), NodeId(dst), 8)
    }

    #[test]
    fn uncontended_latency_is_108ns() {
        let mut sw = SwitchModel::default().deterministic();
        let mut rng = Pcg64::new(1);
        let d = sw.traverse(SimTime::from_ns(1000), &pkt(0, 1), &mut rng);
        assert!((d.as_ns_f64() - 108.0).abs() < 0.001);
        assert!(sw.uncontended());
    }

    #[test]
    fn same_egress_port_serializes() {
        let mut sw = SwitchModel::default().deterministic();
        let mut rng = Pcg64::new(2);
        let t = SimTime::from_ns(0);
        let d1 = sw.traverse(t, &pkt(0, 1), &mut rng);
        // Second packet arrives 1 ns later, same destination: must wait for
        // the first one's serialization.
        let d2 = sw.traverse(SimTime::from_ns(1), &pkt(1, 1), &mut rng);
        assert!(d2 > d1, "second packet should queue: {d2} <= {d1}");
        assert!(!sw.uncontended());
        assert_eq!(sw.contended, 1);
    }

    #[test]
    fn different_egress_ports_do_not_interfere() {
        let mut sw = SwitchModel::default().deterministic();
        let mut rng = Pcg64::new(3);
        let t = SimTime::from_ns(0);
        let d1 = sw.traverse(t, &pkt(0, 1), &mut rng);
        let d2 = sw.traverse(SimTime::from_ns(1), &pkt(1, 2), &mut rng);
        assert_eq!(d1, d2);
        assert!(sw.uncontended());
    }

    /// Regression: `egress_busy` was `#[serde(skip)]` but `contended`
    /// serialized, so a round-tripped switch claimed past contention while
    /// having forgotten the busy horizons that caused it. Both are
    /// transient now.
    #[test]
    fn serde_roundtrip_drops_all_transient_state() {
        let mut sw = SwitchModel::default().deterministic();
        let mut rng = Pcg64::new(7);
        sw.traverse(SimTime::from_ns(0), &pkt(0, 1), &mut rng);
        sw.traverse(SimTime::from_ns(1), &pkt(1, 1), &mut rng);
        assert!(!sw.uncontended());
        let json = serde_json::to_string(&sw).unwrap();
        assert!(
            !json.contains("contended"),
            "transient diagnostics must not serialize: {json}"
        );
        let back: SwitchModel = serde_json::from_str(&json).unwrap();
        assert!(back.uncontended(), "deserialized switch starts clean");
        assert_eq!(back.base, sw.base);
        assert_eq!(back.per_byte, sw.per_byte);
    }

    #[test]
    fn reset_transients_and_clean_clone_keep_only_calibration() {
        let mut sw = SwitchModel::default().deterministic();
        let mut rng = Pcg64::new(8);
        sw.traverse(SimTime::from_ns(0), &pkt(0, 1), &mut rng);
        sw.traverse(SimTime::from_ns(1), &pkt(1, 1), &mut rng);
        assert_eq!(sw.contended, 1);

        sw.reset_transients();
        assert!(sw.uncontended());
        // The busy port is forgotten too: an immediate traverse sees the
        // uncontended latency.
        let d = sw.traverse(SimTime::from_ns(1), &pkt(3, 1), &mut rng);
        assert_eq!(d, sw.latency_mean(&pkt(3, 1)));
    }

    #[test]
    fn widely_spaced_packets_never_queue() {
        let mut sw = SwitchModel::default().deterministic();
        let mut rng = Pcg64::new(4);
        for i in 0..100u64 {
            sw.traverse(SimTime::from_ns(i * 1_000), &pkt(i, 1), &mut rng);
        }
        assert!(sw.uncontended());
    }
}
