//! The physical wire, including SerDes and (optionally) FEC.
//!
//! Calibrated to the paper's measurement: an 8-byte message on a direct
//! NIC-to-NIC ConnectX-4 link takes `Wire` = 274.81 ns one-way (§4.3). The
//! model decomposes that into SerDes conversion at both ends, an optional
//! forward-error-correction stage (zero on the measured EDR link; §7.2
//! notes PAM-4/8 at >100 Gb/s may add up to ~300 ns), propagation, and
//! serialization at the link rate.

use crate::packet::Packet;
use bband_sim::{Jitter, Pcg64, SimDuration};
use serde::{Deserialize, Serialize};

/// One-way wire latency model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireModel {
    /// SerDes + PHY pipeline at both ends plus cable propagation (~5 ns/m);
    /// the bulk of the paper's 274.81 ns.
    pub base: SimDuration,
    /// FEC encode+decode latency (0 on the calibrated EDR link).
    pub fec: SimDuration,
    /// Serialization per byte: EDR 4x = 100 Gb/s ⇒ 0.08 ns/B.
    pub per_byte: SimDuration,
    /// Per-traversal jitter.
    pub jitter: Jitter,
}

impl Default for WireModel {
    /// Calibrated so that the paper's 8-byte `am_lat`/`put_bw` packet
    /// (38 wire bytes with IB headers) crosses in exactly 274.81 ns.
    fn default() -> Self {
        let per_byte = SimDuration::from_ps(80); // 0.08 ns/B = 100 Gb/s
        let probe_bytes = (8 + crate::packet::IB_HEADER_BYTES) as u64;
        WireModel {
            base: SimDuration::from_ns_f64(274.81) - SimDuration::from_ps(80 * probe_bytes),
            fec: SimDuration::ZERO,
            per_byte,
            jitter: Jitter::Hw,
        }
    }
}

impl WireModel {
    /// Jitter-free copy for validation runs.
    pub fn deterministic(mut self) -> Self {
        self.jitter = Jitter::Fixed;
        self
    }

    /// A future high-rate link with PAM-based signalling: higher bandwidth
    /// but FEC latency added, per §7.2's discussion.
    pub fn pam4_with_fec() -> Self {
        WireModel {
            base: SimDuration::from_ns_f64(230.0),
            fec: SimDuration::from_ns_f64(300.0),
            per_byte: SimDuration::from_ps(40), // 200 Gb/s
            jitter: Jitter::Hw,
        }
    }

    /// Mean one-way traversal for a packet.
    pub fn latency_mean(&self, pkt: &Packet) -> SimDuration {
        self.base + self.fec + self.per_byte * pkt.wire_bytes() as u64
    }

    /// Sampled one-way traversal.
    pub fn latency(&self, pkt: &Packet, rng: &mut Pcg64) -> SimDuration {
        self.jitter.sample(self.latency_mean(pkt), rng)
    }

    /// The paper's `Wire` figure (8-byte message packet).
    pub fn wire_8b(&self) -> SimDuration {
        use crate::packet::{NodeId, PacketId, PacketKind};
        let probe = Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(1), 8);
        self.latency_mean(&probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, Packet, PacketId, PacketKind};

    #[test]
    fn calibration_hits_274_81ns() {
        let w = WireModel::default();
        assert!(
            (w.wire_8b().as_ns_f64() - 274.81).abs() < 0.001,
            "Wire(8B) = {}",
            w.wire_8b()
        );
    }

    #[test]
    fn bigger_packets_serialize_longer() {
        let w = WireModel::default();
        let small = Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(1), 8);
        let large = Packet::message(PacketId(1), PacketKind::Send, NodeId(0), NodeId(1), 65536);
        assert!(w.latency_mean(&large) > w.latency_mean(&small));
        // 65528 extra bytes at 0.08 ns/B ≈ 5242 ns more
        let delta = w.latency_mean(&large).as_ns_f64() - w.latency_mean(&small).as_ns_f64();
        assert!((delta - 65528.0 * 0.08).abs() < 1.0);
    }

    #[test]
    fn fec_link_trades_latency_for_bandwidth() {
        // §7.2: "it is possible that the latency will increase in future
        // interconnects in order to accommodate for higher throughput".
        let edr = WireModel::default();
        let pam = WireModel::pam4_with_fec();
        let small = Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(1), 8);
        assert!(pam.latency_mean(&small) > edr.latency_mean(&small));
        // ...but crosses over for large transfers:
        let huge = Packet::message(PacketId(1), PacketKind::Send, NodeId(0), NodeId(1), 32_768);
        assert!(pam.latency_mean(&huge) < edr.latency_mean(&huge));
    }

    #[test]
    fn deterministic_wire_is_exact() {
        let w = WireModel::default().deterministic();
        let mut rng = Pcg64::new(4);
        let p = Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(1), 8);
        assert_eq!(w.latency(&p, &mut rng), w.latency_mean(&p));
    }
}
