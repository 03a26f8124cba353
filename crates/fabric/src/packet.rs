//! Network packets exchanged NIC-to-NIC.
//!
//! InfiniBand reliable-connection (RC) transport delivers a message packet
//! and returns a transport-level acknowledgement; the host NIC generates
//! the CQE "upon the reception of the ACK from the target NIC" (§2 step 4–5).

use serde::{Deserialize, Serialize};

/// Identifies a node (endpoint) in the two-node evaluation setup; the type
/// supports larger clusters for the sweep examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifies a message end-to-end (kept stable between the message packet
/// and its ACK so the initiator NIC can match them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PacketId(pub u64);

/// What the packet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// An RDMA-write: payload lands directly in a remote registered region;
    /// no receive posted on the target (put semantics, UCX `put_short`).
    RdmaWrite,
    /// A send that must match a posted receive on the target (send-receive
    /// semantics, UCX active message / MPI point-to-point).
    Send,
    /// A non-final MTU segment of a larger message: its payload is
    /// DMA-written on arrival, but acknowledgement and completion belong
    /// to the final segment.
    Segment,
    /// Transport-level acknowledgement for `acks`.
    Ack,
}

/// A packet on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    pub id: PacketId,
    pub kind: PacketKind,
    pub src: NodeId,
    pub dst: NodeId,
    /// Application payload bytes carried by *this packet* — at most one
    /// MTU. A message larger than the MTU travels as several packets
    /// (`Segment`s plus a final `Send`/`RdmaWrite`), each paying its own
    /// IB header; the paper's latency experiments use 8 bytes, but the
    /// put_bw size axis spans 8 B – 4 MB.
    pub payload: u32,
    /// Application tag carried by two-sided sends (UCP/MPI tag matching).
    pub tag: u64,
    /// Destination queue pair (two-sided receive completions land on its
    /// CQ; 0 unless set by `with_dst_qp`).
    pub dst_qp: u32,
    /// For `Ack`: the message being acknowledged.
    pub acks: Option<PacketId>,
}

/// InfiniBand local-route-header + base-transport-header + iCRC/vCRC
/// overhead per packet, in bytes.
pub const IB_HEADER_BYTES: u32 = 30;

/// Path MTU (InfiniBand's largest): a larger payload travels as several
/// packets, and a two-sided send must fit one.
pub const MTU: u32 = 4096;

impl Packet {
    /// A message packet (RDMA-write or send).
    pub fn message(id: PacketId, kind: PacketKind, src: NodeId, dst: NodeId, payload: u32) -> Self {
        debug_assert!(kind != PacketKind::Ack);
        Packet {
            id,
            kind,
            src,
            dst,
            payload,
            tag: 0,
            dst_qp: 0,
            acks: None,
        }
    }

    /// Set the destination queue pair.
    pub fn with_dst_qp(mut self, qp: u32) -> Self {
        self.dst_qp = qp;
        self
    }

    /// Same, with an application tag.
    pub fn tagged(
        id: PacketId,
        kind: PacketKind,
        src: NodeId,
        dst: NodeId,
        payload: u32,
        tag: u64,
    ) -> Self {
        let mut p = Packet::message(id, kind, src, dst, payload);
        p.tag = tag;
        p
    }

    /// The transport ACK for this message, travelling the reverse path.
    pub fn ack_for(&self, ack_id: PacketId) -> Packet {
        debug_assert!(self.kind != PacketKind::Ack, "cannot ack an ack");
        Packet {
            id: ack_id,
            kind: PacketKind::Ack,
            src: self.dst,
            dst: self.src,
            payload: 0,
            tag: 0,
            dst_qp: 0,
            acks: Some(self.id),
        }
    }

    /// Bytes this packet occupies on the fiber.
    pub fn wire_bytes(&self) -> u32 {
        IB_HEADER_BYTES + self.payload
    }
}

/// Total fiber bytes for a `payload`-byte message segmented at `mtu`:
/// every MTU segment pays its own IB header (LRH/BTH/iCRC are per packet,
/// not per message), then the final remainder packet pays one more.
/// Zero-byte messages still send one header-only packet.
pub fn segmented_wire_bytes(payload: u32, mtu: u32) -> u64 {
    debug_assert!(mtu > 0);
    let full = u64::from(payload / mtu);
    let rem = payload % mtu;
    let header = u64::from(IB_HEADER_BYTES);
    let full_bytes = full * (header + u64::from(mtu));
    if rem > 0 || payload == 0 {
        full_bytes + header + u64::from(rem)
    } else {
        full_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_reverses_path_and_links_message() {
        let msg = Packet::message(PacketId(7), PacketKind::Send, NodeId(1), NodeId(2), 8);
        let ack = msg.ack_for(PacketId(8));
        assert_eq!(ack.src, NodeId(2));
        assert_eq!(ack.dst, NodeId(1));
        assert_eq!(ack.acks, Some(PacketId(7)));
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.payload, 0);
    }

    #[test]
    fn wire_bytes_include_ib_headers() {
        let msg = Packet::message(PacketId(0), PacketKind::RdmaWrite, NodeId(0), NodeId(1), 8);
        assert_eq!(msg.wire_bytes(), 8 + IB_HEADER_BYTES);
        let ack = msg.ack_for(PacketId(1));
        assert_eq!(ack.wire_bytes(), IB_HEADER_BYTES);
    }

    /// Regression: a segmented transfer pays the IB header once per MTU
    /// segment, not once per message — segments × (header + mtu) plus a
    /// headered final remainder.
    #[test]
    fn segmented_transfers_pay_per_segment_headers() {
        let h = u64::from(IB_HEADER_BYTES);
        let mtu = 4096u32;
        // Single sub-MTU packet: one header.
        assert_eq!(segmented_wire_bytes(8, mtu), h + 8);
        assert_eq!(segmented_wire_bytes(0, mtu), h);
        // Exactly k MTUs: k headers, no remainder packet.
        assert_eq!(segmented_wire_bytes(4096, mtu), h + 4096);
        assert_eq!(segmented_wire_bytes(3 << 12, mtu), 3 * (h + 4096));
        // 1 MiB + 1 B: 256 full segments plus a 1-byte remainder packet.
        assert_eq!(
            segmented_wire_bytes((1 << 20) + 1, mtu),
            256 * (h + 4096) + h + 1
        );
        // The closed form agrees with summing per-packet `wire_bytes` over
        // the actual segment stream for irregular sizes.
        for payload in [1u32, 4095, 4097, 12_288, 65_537, (1 << 22) - 5] {
            let segs = payload.div_ceil(mtu).max(1);
            let total: u64 = (0..segs)
                .map(|i| {
                    let len = (payload - i * mtu).min(mtu);
                    let kind = if i + 1 == segs {
                        PacketKind::Send
                    } else {
                        PacketKind::Segment
                    };
                    let pkt =
                        Packet::message(PacketId(u64::from(i)), kind, NodeId(0), NodeId(1), len);
                    u64::from(pkt.wire_bytes())
                })
                .sum();
            assert_eq!(segmented_wire_bytes(payload, mtu), total, "{payload}");
        }
    }
}
