//! Cluster-scale fabric: explicit fat-tree and dragonfly topologies,
//! per-port credit-based flow control with ECN backpressure, and
//! flow-level collectives across thousands of simulated ranks.
//!
//! The calibrated [`bband_fabric`] models answer "what does one message
//! cost between two nodes?" — this crate answers "what happens when
//! thousands of ranks drive a real topology at once?". It keeps the
//! same calibration (the 2-host path is bit-exact against
//! [`bband_fabric::NetworkModel`], asserted in tests and in the
//! `repro sweep-ranks` artifact) and the same determinism contract
//! (pooled == serial, byte for byte).
//!
//! Layers:
//! - [`topo`]: graph builders ([`FabricGraph::fat_tree`] k-ary n-trees,
//!   [`FabricGraph::dragonfly`]) with deterministic routing — digit-wise
//!   up*/down* for fat trees, minimal local–global–local for dragonflies.
//! - [`flow`]: the per-port runtime ([`ClusterFabric`]) — finite input
//!   buffers, credit flow control, cut-through forwarding, egress
//!   arbitration, ECN marks fed back to injecting NICs.
//! - [`collective`]: synchronous-round drivers for barrier, binomial
//!   bcast, recursive-doubling allreduce (with the MPICH fold), and
//!   ring allreduce.
//! - [`telemetry`]: deterministic link-class utilization series, per-port
//!   contention totals (queue/credit stalls, ECN), occupancy gauges and
//!   flow-level path attribution over [`ClusterFabric`] — the sensor
//!   layer behind `repro sweep-ranks --telemetry`.
//! - [`sweep`]: the rank-scaling grid behind `repro sweep-ranks`.

pub mod collective;
pub mod flow;
pub mod sweep;
pub mod telemetry;
pub mod topo;

pub use collective::{run_flow_collective, EndpointCosts, FlowCollective, FlowReport};
pub use flow::{ClusterFabric, Delivery, FlowConfig, FlowCounters};
pub use sweep::{
    dragonfly_for, fat_tree_for, sweep_ranks, sweep_ranks_telemetry, two_node_equivalence,
    RankPoint, TelemetryPoint, TwoNodeCheck, SWEEP_PAYLOAD_BYTES,
};
pub use telemetry::{Conservation, FabricTelemetry, Hotspot, TelemetryConfig, TelemetryReport};
pub use topo::{FabricGraph, PortTarget, RouteHop, TopologyKind};
