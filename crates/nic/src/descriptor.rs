//! Work requests and completions, as the software stack sees them.

use bband_fabric::NodeId;
use bband_sim::SimTime;

/// Largest payload a sender inlines into the descriptor (Mellanox: device
/// dependent, commonly 60–956 B). Larger sends post a plain descriptor and
/// the NIC DMA-fetches the payload.
pub const MAX_INLINE: u32 = 256;

/// Number of 64-byte PIO chunks a descriptor occupies when pushed via
/// BlueFlame: a 32 B control segment plus the inline payload, or a 16 B
/// pointer to a payload the NIC fetches.
pub fn pio_chunks(payload: u32, inline: bool) -> u32 {
    const CTRL_SEGMENT_BYTES: u32 = 32;
    let bytes = CTRL_SEGMENT_BYTES + if inline { payload } else { 16 };
    bytes.div_ceil(64)
}

/// Work-request id chosen by the poster; returned in the completion so the
/// software can match them (verbs `wr_id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WrId(pub u64);

/// A queue pair on a NIC. Each posting core drives its own QP, and each QP
/// has its own completion queue — completions never cross between cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct QpId(pub u32);

/// Operation semantics of a posted send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// RDMA-write into a remote registered region (UCX `put`; the paper's
    /// `put_bw` test). No receive needs to be posted on the target.
    RdmaWrite,
    /// Two-sided send matching a posted receive (UCX active message; the
    /// paper's `am_lat` test and all MPI traffic).
    Send,
}

/// A work request handed to the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostDescriptor {
    pub wr_id: WrId,
    /// The local queue pair this request is posted to (its CQ receives the
    /// completion).
    pub qp: QpId,
    /// The peer queue pair on the destination node (two-sided receives
    /// complete on its CQ).
    pub dst_qp: QpId,
    pub opcode: Opcode,
    /// Destination node.
    pub dst: NodeId,
    /// Application payload bytes.
    pub payload: u32,
    /// Payload embedded in the descriptor (no payload DMA-read; §2).
    pub inline: bool,
    /// Descriptor pushed by PIO/BlueFlame (no descriptor DMA-read; §2).
    pub pio: bool,
    /// Whether this request generates a CQE on completion. Unsignaled
    /// requests are confirmed retroactively by the next signaled CQE
    /// (completion moderation; §6 "the NIC DMA-writes a completion only
    /// every c operations").
    pub signaled: bool,
    /// Application tag for two-sided sends (UCP/MPI tag matching; ignored
    /// for RDMA writes).
    pub tag: u64,
}

impl PostDescriptor {
    /// The configuration all the paper's small-message experiments use:
    /// PIO + inline, signaled.
    pub fn pio_inline(wr_id: WrId, opcode: Opcode, dst: NodeId, payload: u32) -> Self {
        PostDescriptor {
            wr_id,
            qp: QpId(0),
            dst_qp: QpId(0),
            opcode,
            dst,
            payload,
            inline: true,
            pio: true,
            signaled: true,
            tag: 0,
        }
    }

    /// Number of 64-byte PIO chunks this descriptor occupies when pushed
    /// via BlueFlame (see [`pio_chunks`]).
    pub fn pio_chunks(&self) -> u32 {
        pio_chunks(self.payload, self.inline)
    }
}

/// What a completion describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CqeKind {
    /// A posted send/RDMA-write finished (transport ACK received).
    SendComplete,
    /// An incoming two-sided message landed in a posted receive buffer.
    RecvComplete,
}

/// A completion-queue entry, as visible to the CPU *after* the RC has
/// finished DMA-writing it into host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    pub wr_id: WrId,
    /// The queue pair whose CQ this entry landed on.
    pub qp: QpId,
    pub kind: CqeKind,
    /// Source node (the remote peer for receive completions; the local
    /// node for send completions) — real CQEs carry the remote QP/LID.
    pub src: NodeId,
    /// How many operations this CQE confirms (1, or `c` for a moderated
    /// signaled completion arriving after `c-1` unsignaled ones).
    pub completes: u32,
    /// Payload bytes (receive completions).
    pub payload: u32,
    /// Application tag (receive completions; 0 otherwise).
    pub tag: u64,
    /// Instant the CQE became visible in host memory.
    pub visible_at: SimTime,
    /// Trace span of the RC-to-MEM write that made this entry visible
    /// ([`bband_trace::SpanId::NONE`] on untraced runs) — the happens-after
    /// edge a consuming `LLP_prog` chains from.
    pub cause: bband_trace::SpanId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_descriptor_is_one_chunk() {
        // 8-byte inline payload + control segment fits one 64 B BlueFlame
        // chunk — "The PIO copy of an 8-byte message is one 64-byte chunk in
        // Mellanox InfiniBand" (§4.1).
        let d = PostDescriptor::pio_inline(WrId(0), Opcode::RdmaWrite, NodeId(1), 8);
        assert_eq!(d.pio_chunks(), 1);
        const { assert!(MAX_INLINE >= 8, "must accept the paper's 8-byte payloads") };
    }

    #[test]
    fn larger_inline_payloads_need_more_chunks() {
        let d = PostDescriptor::pio_inline(WrId(0), Opcode::Send, NodeId(1), 100);
        assert_eq!(d.pio_chunks(), 3); // 32 + 100 = 132 -> 3 chunks
        let d = PostDescriptor::pio_inline(WrId(0), Opcode::Send, NodeId(1), 32);
        assert_eq!(d.pio_chunks(), 1);
        let d = PostDescriptor::pio_inline(WrId(0), Opcode::Send, NodeId(1), 33);
        assert_eq!(d.pio_chunks(), 2);
    }

    #[test]
    fn non_inline_descriptor_is_one_chunk_regardless_of_payload() {
        let mut d = PostDescriptor::pio_inline(WrId(0), Opcode::Send, NodeId(1), 1 << 20);
        d.inline = false;
        assert_eq!(d.pio_chunks(), 1); // ctrl + pointer segment only
    }
}
