//! ConnectX-style NIC model and the two-node cluster assembly.
//!
//! This crate implements the message-transmission machinery of §2 of the
//! paper ("Mechanisms of a high-performance interconnect"):
//!
//! * the transmit queue (TxQ) / completion queue (CQ) pair;
//! * doorbell + DMA descriptor/payload fetch (steps 0–5: one MMIO write,
//!   two DMA reads, one DMA write);
//! * the faster **PIO (BlueFlame) + inlining** path that eliminates both
//!   DMA reads for small messages — the path every experiment in the paper
//!   uses;
//! * completion generation on transport ACK, including **unsignaled
//!   completions** (one CQE confirming `c` operations, §6);
//! * the target-side path: payload DMA-write through the RC into host
//!   memory (for small messages the CQE data rides in the same write, as
//!   Mellanox inline-CQE reception does).
//!
//! [`cluster::Cluster`] assembles two (or more) nodes — each with a root
//! complex, a PCIe link, and a NIC — around one event queue plus a network
//! model, and exposes the handful of operations the software stack (the
//! `llp` crate) performs: MMIO post, receive posting, CQ polling, and
//! event draining. A [`bband_pcie::LinkTap`] can be attached just before
//! one node's NIC, exactly where the paper's Lecroy analyzer sits.

pub mod cluster;
pub mod config;
pub mod descriptor;

pub use cluster::{Cluster, HwEvent};
pub use config::NicConfig;
pub use descriptor::{pio_chunks, Cqe, CqeKind, Opcode, PostDescriptor, QpId, WrId, MAX_INLINE};
