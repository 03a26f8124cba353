//! Transaction-layer and data-link-layer packet types.
//!
//! Two TLP kinds matter on the paper's critical path (§2): Memory Write
//! (MWr) — the doorbell ring, the PIO copy, the NIC's DMA-writes of payload
//! and CQE — and Memory Read (MRd), which a DMA-read issues and which is
//! answered by a Completion with Data (CplD). At the data-link layer,
//! ACK/NACK DLLPs confirm TLP delivery and UpdateFC DLLPs replenish flow
//! control credits.

use serde::{Deserialize, Serialize};

/// Unique id for a TLP within a simulation run (used to match MRd↔CplD and
/// TLP↔ACK pairs, as the paper matches trace lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TlpId(pub u64);

/// Transaction-layer packet kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TlpKind {
    /// Posted memory write carrying `payload` bytes.
    MemWrite,
    /// Non-posted memory read requesting `payload` bytes.
    MemRead,
    /// Completion with data answering a MemRead.
    CplD,
}

/// What a TLP is doing at the protocol level; lets traces and tests tell a
/// doorbell from a PIO chunk without inspecting payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TlpPurpose {
    /// 8-byte atomic doorbell write (§2 step 1).
    Doorbell,
    /// 64-byte PIO/BlueFlame chunk carrying descriptor (+ inline payload).
    PioChunk,
    /// NIC DMA-read of a message descriptor (§2 step 2).
    DescriptorFetch,
    /// NIC DMA-read of the payload (§2 step 3).
    PayloadFetch,
    /// Completion data returning to the NIC.
    ReadCompletion,
    /// NIC DMA-write of an arriving message's payload into host memory.
    PayloadDeliver,
    /// NIC DMA-write of a 64-byte CQE (§2 step 5).
    CqeWrite,
}

/// A transaction-layer packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tlp {
    pub id: TlpId,
    pub kind: TlpKind,
    pub purpose: TlpPurpose,
    /// Payload bytes carried (0 for MemRead requests).
    pub payload: u32,
    /// For MemRead: number of bytes requested (sizes the future CplD).
    pub req_len: u32,
    /// For CplD: the id of the MemRead being answered.
    pub answers: Option<TlpId>,
}

/// PCIe Gen3 per-TLP framing overhead in bytes: 2 B framing + 6 B DLL
/// (sequence + LCRC) + 16 B transaction header (3–4 DW; we use 4 DW for
/// 64-bit addressing) — the fixed tax every TLP pays on the wire.
pub const TLP_OVERHEAD_BYTES: u32 = 24;

impl Tlp {
    /// Total bytes this TLP occupies on the link, including framing.
    pub fn wire_bytes(&self) -> u32 {
        TLP_OVERHEAD_BYTES + self.payload
    }

    /// Flow-control data credits consumed (1 credit per 16 bytes of
    /// payload, rounded up; header credit accounted separately).
    pub fn data_credits(&self) -> u32 {
        self.payload.div_ceil(16)
    }

    /// True for posted transactions (no completion expected).
    pub fn is_posted(&self) -> bool {
        self.kind == TlpKind::MemWrite
    }
}

/// Data-link-layer packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dllp {
    /// Acknowledges correct receipt of TLPs up to `up_to`.
    Ack { up_to: TlpId },
    /// Negative acknowledgement requesting replay from `from`.
    Nack { from: TlpId },
    /// Flow-control update granting header and data credits back.
    UpdateFc { hdr: u32, data: u32 },
}

/// Size of any DLLP on the wire (2 B framing + 6 B body).
pub const DLLP_WIRE_BYTES: u32 = 8;

/// Monotonic TLP id allocator.
#[derive(Debug, Default, Clone)]
pub struct TlpIdGen(u64);

impl TlpIdGen {
    pub fn new() -> Self {
        TlpIdGen(0)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> TlpId {
        let id = TlpId(self.0);
        self.0 += 1;
        id
    }

    /// Bulk-advance for the fault engine: consume `n` ids at once, returning
    /// the raw value of the first. Equivalent to `n` calls to
    /// [`TlpIdGen::next`].
    pub fn skip(&mut self, n: u64) -> u64 {
        let base = self.0;
        self.0 += n;
        base
    }
}

/// Convenience constructors matching the protocol steps of §2.
impl Tlp {
    /// §2 step 1: the 8-byte doorbell MWr.
    pub fn doorbell(id: TlpId) -> Tlp {
        Tlp {
            id,
            kind: TlpKind::MemWrite,
            purpose: TlpPurpose::Doorbell,
            payload: 8,
            req_len: 0,
            answers: None,
        }
    }

    /// One 64-byte PIO chunk (BlueFlame).
    pub fn pio_chunk(id: TlpId) -> Tlp {
        Tlp {
            id,
            kind: TlpKind::MemWrite,
            purpose: TlpPurpose::PioChunk,
            payload: 64,
            req_len: 0,
            answers: None,
        }
    }

    /// A burst of `chunks` back-to-back 64-byte PIO chunks posted as one
    /// MMIO write (descriptor plus inline payload). `chunks == 1` is
    /// field-identical to [`Tlp::pio_chunk`].
    pub fn pio_burst(id: TlpId, chunks: u32) -> Tlp {
        debug_assert!(chunks >= 1);
        Tlp {
            id,
            kind: TlpKind::MemWrite,
            purpose: TlpPurpose::PioChunk,
            payload: 64 * chunks,
            req_len: 0,
            answers: None,
        }
    }

    /// §2 step 2: DMA-read of the message descriptor.
    pub fn descriptor_fetch(id: TlpId, len: u32) -> Tlp {
        Tlp {
            id,
            kind: TlpKind::MemRead,
            purpose: TlpPurpose::DescriptorFetch,
            payload: 0,
            req_len: len,
            answers: None,
        }
    }

    /// §2 step 3: DMA-read of the payload.
    pub fn payload_fetch(id: TlpId, len: u32) -> Tlp {
        Tlp {
            id,
            kind: TlpKind::MemRead,
            purpose: TlpPurpose::PayloadFetch,
            payload: 0,
            req_len: len,
            answers: None,
        }
    }

    /// Completion answering a read; carries the read data.
    pub fn completion(id: TlpId, answers: TlpId, len: u32) -> Tlp {
        Tlp {
            id,
            kind: TlpKind::CplD,
            purpose: TlpPurpose::ReadCompletion,
            payload: len,
            req_len: 0,
            answers: Some(answers),
        }
    }

    /// Inbound payload delivery DMA-write on the target node.
    pub fn payload_deliver(id: TlpId, len: u32) -> Tlp {
        Tlp {
            id,
            kind: TlpKind::MemWrite,
            purpose: TlpPurpose::PayloadDeliver,
            payload: len,
            req_len: 0,
            answers: None,
        }
    }

    /// §2 step 5: the 64-byte CQE DMA-write.
    pub fn cqe_write(id: TlpId) -> Tlp {
        Tlp {
            id,
            kind: TlpKind::MemWrite,
            purpose: TlpPurpose::CqeWrite,
            payload: 64,
            req_len: 0,
            answers: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_gen_is_monotonic() {
        let mut g = TlpIdGen::new();
        let a = g.next();
        let b = g.next();
        assert!(b > a);
        assert_eq!(a, TlpId(0));
        assert_eq!(b, TlpId(1));
    }

    #[test]
    fn wire_bytes_include_overhead() {
        let mut g = TlpIdGen::new();
        let pio = Tlp::pio_chunk(g.next());
        assert_eq!(pio.wire_bytes(), 64 + TLP_OVERHEAD_BYTES);
        let db = Tlp::doorbell(g.next());
        assert_eq!(db.wire_bytes(), 8 + TLP_OVERHEAD_BYTES);
        let rd = Tlp::descriptor_fetch(g.next(), 64);
        assert_eq!(rd.wire_bytes(), TLP_OVERHEAD_BYTES);
    }

    #[test]
    fn pio_burst_of_one_is_a_pio_chunk() {
        assert_eq!(Tlp::pio_burst(TlpId(3), 1), Tlp::pio_chunk(TlpId(3)));
        let burst = Tlp::pio_burst(TlpId(4), 5);
        assert_eq!(burst.payload, 320);
        assert_eq!(burst.data_credits(), 20);
        assert!(burst.is_posted());
    }

    #[test]
    fn data_credit_accounting() {
        let mut g = TlpIdGen::new();
        assert_eq!(Tlp::doorbell(g.next()).data_credits(), 1); // 8 B -> 1
        assert_eq!(Tlp::pio_chunk(g.next()).data_credits(), 4); // 64 B -> 4
        assert_eq!(Tlp::payload_deliver(g.next(), 17).data_credits(), 2);
        assert_eq!(Tlp::descriptor_fetch(g.next(), 64).data_credits(), 0);
    }

    #[test]
    fn posted_vs_non_posted() {
        let mut g = TlpIdGen::new();
        assert!(Tlp::pio_chunk(g.next()).is_posted());
        assert!(Tlp::cqe_write(g.next()).is_posted());
        assert!(!Tlp::payload_fetch(g.next(), 8).is_posted());
        assert!(!Tlp::completion(g.next(), TlpId(0), 8).is_posted());
    }

    #[test]
    fn completion_links_to_read() {
        let mut g = TlpIdGen::new();
        let rd = Tlp::descriptor_fetch(g.next(), 64);
        let cpl = Tlp::completion(g.next(), rd.id, 64);
        assert_eq!(cpl.answers, Some(rd.id));
        assert_eq!(cpl.payload, 64);
    }

    #[test]
    fn purposes_follow_protocol_steps() {
        let mut g = TlpIdGen::new();
        assert_eq!(Tlp::doorbell(g.next()).purpose, TlpPurpose::Doorbell);
        assert_eq!(Tlp::cqe_write(g.next()).purpose, TlpPurpose::CqeWrite);
        assert_eq!(
            Tlp::cqe_write(g.next()).payload,
            64,
            "InfiniBand CQE is 64 bytes"
        );
    }
}
