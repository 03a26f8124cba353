//! Interconnect (network-fabric) model: wire, switch, and the one-switch
//! network they form.
//!
//! The paper's `Network` term is "the total time in the interconnect
//! (Wire + Switch)": 274.81 ns for the physical wire of a direct NIC-to-NIC
//! InfiniBand connection (which includes the SerDes conversion between the
//! parallel PCIe-side signals and the serial fiber signals at both ends),
//! plus 108 ns added by a Mellanox switch when one is on the path (§4.3,
//! "Measuring Network"). §7.2 discusses why the wire latency is hard to
//! reduce — higher-order PAM signalling needs forward error correction that
//! can *add* up to ~300 ns — so the model exposes SerDes/FEC as an explicit
//! knob for what-if runs.
//!
//! [`NetworkModel`] is the testbed's one-switch network; multi-hop fabrics
//! and rank scale are the flow tier's (`bband-cluster`).
//!
//! [`schedule`] holds the one collective schedule generator both
//! collective tiers (`bband-mpi` and `bband-cluster`) run.

pub mod packet;
pub mod reliability;
pub mod schedule;
pub mod switch;
pub mod topology;
pub mod wire;

pub use packet::{
    segmented_wire_bytes, NodeId, Packet, PacketId, PacketKind, IB_HEADER_BYTES, MTU,
};
pub use reliability::{LossyFabric, Psn, RcReceiver, RcSender, RcVerdict};
pub use schedule::{Pattern, Step};
pub use switch::SwitchModel;
pub use topology::NetworkModel;
pub use wire::WireModel;
