//! Topology: how NICs are connected, and the paper's `Network` total.
//!
//! `Network = Wire + Switch` (§4): 274.81 ns direct, +108 ns when a switch
//! is on the path (382.81 ns, the configuration behind the paper's Table 1
//! and every end-to-end figure).

use crate::packet::Packet;
use crate::switch::SwitchModel;
use crate::wire::WireModel;
use bband_sim::{IdMap, Pcg64, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Path shape between two NICs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Back-to-back cable, no switch.
    Direct,
    /// One switch hop (the paper's Table 1 configuration).
    SingleSwitch,
    /// Two-level fat tree: nodes grouped into pods of `pod_size` behind
    /// leaf switches; inter-pod traffic crosses a spine (3 switch hops,
    /// 2 inter-switch cable segments). The scale-out topology real
    /// InfiniBand clusters use.
    FatTree { pod_size: u32 },
}

/// The interconnect between the nodes of the evaluation setup.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    pub topology: Topology,
    pub wire: WireModel,
    pub switch: SwitchModel,
    /// Propagation latency of one inter-switch cable segment (fat tree).
    pub inter_switch_cable: SimDuration,
    /// Per-switch-instance state (egress contention), created on demand:
    /// leaf switches keyed by pod id, spines by spine index.
    leaf_switches: IdMap<u32, SwitchModel>,
    spine_switches: IdMap<u32, SwitchModel>,
}

impl NetworkModel {
    /// The paper's configuration: ConnectX-4 EDR through one switch.
    pub fn paper_default() -> Self {
        NetworkModel::with_topology(Topology::SingleSwitch)
    }

    /// Direct back-to-back configuration (used when measuring `Wire` alone).
    pub fn direct() -> Self {
        NetworkModel::with_topology(Topology::Direct)
    }

    /// A two-level fat tree with the given pod size.
    pub fn fat_tree(pod_size: u32) -> Self {
        assert!(pod_size > 0);
        NetworkModel::with_topology(Topology::FatTree { pod_size })
    }

    /// Any topology over the calibrated wire and switch.
    pub fn with_topology(topology: Topology) -> Self {
        NetworkModel {
            topology,
            wire: WireModel::default(),
            switch: SwitchModel::default(),
            inter_switch_cable: SimDuration::from_ns_f64(50.0),
            leaf_switches: IdMap::default(),
            spine_switches: IdMap::default(),
        }
    }

    /// Jitter-free copy for validation runs, with all transient switch
    /// state (busy horizons, contention counts) dropped.
    pub fn deterministic(mut self) -> Self {
        self.wire = self.wire.deterministic();
        self.switch = self.switch.deterministic();
        self.switch.reset_transients();
        self.leaf_switches.clear();
        self.spine_switches.clear();
        self
    }

    /// Number of switch hops between two nodes under this topology.
    pub fn hops(&self, pkt: &Packet) -> u32 {
        match self.topology {
            Topology::Direct => 0,
            Topology::SingleSwitch => 1,
            Topology::FatTree { pod_size } => {
                if pkt.src.0 / pod_size == pkt.dst.0 / pod_size {
                    1
                } else {
                    3
                }
            }
        }
    }

    /// Mean one-way latency — the analytical model's `Network` term.
    pub fn network_mean(&self, pkt: &Packet) -> SimDuration {
        let hops = self.hops(pkt) as u64;
        let cables = hops.saturating_sub(1);
        self.wire.latency_mean(pkt)
            + self.switch.latency_mean(pkt) * hops
            + self.inter_switch_cable * cables
    }

    /// Sampled one-way traversal for a packet departing at `depart`;
    /// includes switch queueing when contended.
    pub fn traverse(&mut self, depart: SimTime, pkt: &Packet, rng: &mut Pcg64) -> SimDuration {
        match self.topology {
            Topology::Direct => self.wire.latency(pkt, rng),
            Topology::SingleSwitch => {
                let to_switch = self.wire.latency(pkt, rng);
                let in_switch = self.switch.traverse(depart + to_switch, pkt, rng);
                // The paper folds both cable segments into its single `Wire`
                // term (it measures Wire on a direct link and attributes the
                // remainder to Switch), so the second segment is already
                // accounted inside `to_switch`'s calibration.
                to_switch + in_switch
            }
            Topology::FatTree { pod_size } => {
                let src_pod = pkt.src.0 / pod_size;
                let dst_pod = pkt.dst.0 / pod_size;
                let template = &self.switch;
                let mut t = depart + self.wire.latency(pkt, rng);
                // Source leaf.
                let leaf_in = self
                    .leaf_switches
                    .entry(src_pod)
                    .or_insert_with(|| template.clean_clone())
                    .traverse(t, pkt, rng);
                t += leaf_in;
                if src_pod != dst_pod {
                    // Up to a spine (deterministic ECMP by destination pod)
                    // and down to the destination leaf.
                    t += self.inter_switch_cable;
                    let spine_idx = dst_pod % 4;
                    let spine_in = self
                        .spine_switches
                        .entry(spine_idx)
                        .or_insert_with(|| template.clean_clone())
                        .traverse(t, pkt, rng);
                    t += spine_in;
                    t += self.inter_switch_cable;
                    let leaf2_in = self
                        .leaf_switches
                        .entry(dst_pod)
                        .or_insert_with(|| template.clean_clone())
                        .traverse(t, pkt, rng);
                    t += leaf2_in;
                }
                t.since(depart)
            }
        }
    }

    /// Total egress-contention events across all switch instances.
    pub fn total_contention(&self) -> u64 {
        self.switch.contended
            + self
                .leaf_switches
                .values()
                .map(|s| s.contended)
                .sum::<u64>()
            + self
                .spine_switches
                .values()
                .map(|s| s.contended)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketId, PacketKind};

    fn probe() -> Packet {
        Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(1), 8)
    }

    #[test]
    fn network_total_matches_table1() {
        let net = NetworkModel::paper_default();
        let total = net.network_mean(&probe()).as_ns_f64();
        assert!(
            (total - 382.81).abs() < 0.001,
            "Network = Wire + Switch = {total}"
        );
    }

    #[test]
    fn direct_topology_is_wire_only() {
        let net = NetworkModel::direct();
        assert!((net.network_mean(&probe()).as_ns_f64() - 274.81).abs() < 0.001);
    }

    #[test]
    fn switch_difference_is_108ns() {
        // The paper measured Switch by differencing the two configurations.
        let with_sw = NetworkModel::paper_default().network_mean(&probe());
        let without = NetworkModel::direct().network_mean(&probe());
        assert!(((with_sw - without).as_ns_f64() - 108.0).abs() < 0.001);
    }

    #[test]
    fn fat_tree_intra_pod_is_one_hop() {
        let net = NetworkModel::fat_tree(4);
        let intra = Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(3), 8);
        let single = NetworkModel::paper_default().network_mean(&intra);
        assert_eq!(net.network_mean(&intra), single, "intra-pod = one leaf hop");
        assert_eq!(net.hops(&intra), 1);
    }

    #[test]
    fn fat_tree_inter_pod_pays_three_hops() {
        let net = NetworkModel::fat_tree(4);
        let inter = Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(5), 8);
        assert_eq!(net.hops(&inter), 3);
        let expected = 274.81 + 3.0 * 108.0 + 2.0 * 50.0;
        assert!((net.network_mean(&inter).as_ns_f64() - expected).abs() < 0.001);
    }

    #[test]
    fn fat_tree_traverse_matches_mean_when_uncontended() {
        let mut net = NetworkModel::fat_tree(4).deterministic();
        let mut rng = Pcg64::new(9);
        let inter = Packet::message(PacketId(0), PacketKind::Send, NodeId(1), NodeId(9), 8);
        let d = net.traverse(SimTime::from_ns(100), &inter, &mut rng);
        assert_eq!(d, net.network_mean(&inter));
        assert_eq!(net.total_contention(), 0);
    }

    #[test]
    fn fat_tree_spine_contention_under_incast() {
        // Many pods sending to one destination pod at the same instant:
        // the shared spine/destination-leaf egress serializes.
        let mut net = NetworkModel::fat_tree(1).deterministic();
        let mut rng = Pcg64::new(10);
        let t = SimTime::from_ns(0);
        let mut latencies = Vec::new();
        for src in 1..6u32 {
            let pkt = Packet::message(
                PacketId(src as u64),
                PacketKind::Send,
                NodeId(src),
                NodeId(0),
                4096,
            );
            latencies.push(net.traverse(t, &pkt, &mut rng));
        }
        assert!(net.total_contention() > 0, "incast must contend");
        assert!(
            latencies.last().unwrap() > latencies.first().unwrap(),
            "later arrivals queue behind earlier ones"
        );
    }

    #[test]
    fn deterministic_traverse_equals_mean() {
        let mut net = NetworkModel::paper_default().deterministic();
        let mut rng = Pcg64::new(5);
        let p = probe();
        let d = net.traverse(SimTime::from_ns(100), &p, &mut rng);
        assert_eq!(d, net.network_mean(&p));
    }
}
