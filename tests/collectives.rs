//! Collectives at integration scope: the dissemination barrier and
//! recursive-doubling allreduce across cluster sizes and topologies,
//! through the public facade, plus a differential check of the
//! event-level tier (`bband_mpi`) against the flow-level one
//! (`bband_cluster`).

use bband_cluster::{
    fat_tree_for, run_flow_collective, ClusterFabric, EndpointCosts, FlowCollective,
};
use breaking_band::fabric::{NetworkModel, NodeId};
use breaking_band::hlp::{UcpCosts, UcpWorker};
use breaking_band::llp::{LlpCosts, Worker};
use breaking_band::mpi::{barrier, run_collective, Collective, MpiCosts, MpiProcess};
use breaking_band::nic::{Cluster, NicConfig};
use breaking_band::pcie::NullTap;

fn make_ranks(n: usize, network: NetworkModel, seed: u64) -> (Cluster, Vec<MpiProcess>) {
    let mut cluster = Cluster::new(n, network, NicConfig::default(), seed).deterministic();
    let mut tap = NullTap;
    let ranks = (0..n)
        .map(|i| {
            let uct = Worker::new(
                NodeId(i as u32),
                LlpCosts::default().deterministic(),
                seed + i as u64,
            );
            let mut p = MpiProcess::new(
                UcpWorker::new(uct, UcpCosts::default().unmoderated()),
                MpiCosts::default(),
            );
            p.init(&mut cluster, &mut tap);
            p
        })
        .collect();
    (cluster, ranks)
}

#[test]
fn barrier_round_structure_is_logarithmic() {
    let mut tap = NullTap;
    let mut times = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let (mut cl, mut ranks) = make_ranks(n, NetworkModel::paper_default(), 21);
        let rep = barrier(&mut cl, &mut ranks, &mut tap);
        assert_eq!(rep.rounds, (n as u32).trailing_zeros());
        times.push(rep.completion.as_ns_f64());
    }
    // Completion time grows with the round count, roughly linearly in
    // log2(N): t(16)/t(2) ≈ 4 rounds / 1 round.
    let ratio = times[3] / times[0];
    assert!(
        (3.0..5.5).contains(&ratio),
        "barrier(16)/barrier(2) = {ratio:.2}, times {times:?}"
    );
    // Strictly increasing.
    assert!(times.windows(2).all(|w| w[1] > w[0]));
}

#[test]
fn fat_tree_barrier_pays_inter_pod_rounds() {
    let mut tap = NullTap;
    let (mut c1, mut r1) = make_ranks(8, NetworkModel::paper_default(), 22);
    let single = barrier(&mut c1, &mut r1, &mut tap).completion.as_ns_f64();
    let (mut c2, mut r2) = make_ranks(8, NetworkModel::fat_tree(2), 22);
    let fat = barrier(&mut c2, &mut r2, &mut tap).completion.as_ns_f64();
    assert!(
        fat > single + 300.0,
        "fat-tree barrier {fat} should exceed single-switch {single} by the \
         inter-pod hops"
    );
}

#[test]
fn allreduce_with_multi_mtu_payload() {
    // 8 KiB operands: each round's exchange is fragmented by UCP (two
    // 4 KiB fragments) — the collective, fragmentation and reassembly
    // machinery working together.
    let mut tap = NullTap;
    let (mut cl, mut ranks) = make_ranks(4, NetworkModel::paper_default(), 23);
    let rep = run_collective(
        &mut cl,
        &mut ranks,
        Collective::Allreduce { bytes: 8 * 1024 },
        &mut tap,
    );
    assert_eq!(rep.rounds, 2);
    let us = rep.completion.as_ns_f64() / 1_000.0;
    assert!(
        (3.0..40.0).contains(&us),
        "4-rank 8 KiB allreduce took {us:.1} µs"
    );
}

#[test]
fn bcast_completion_independent_of_root() {
    let mut tap = NullTap;
    let mut times = Vec::new();
    for root in 0..4u32 {
        let (mut cl, mut ranks) = make_ranks(4, NetworkModel::paper_default(), 24);
        let rep = run_collective(
            &mut cl,
            &mut ranks,
            Collective::Bcast { root, bytes: 64 },
            &mut tap,
        );
        times.push(rep.completion.as_ns_f64());
    }
    let spread = times.iter().cloned().fold(f64::MIN, f64::max)
        - times.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 100.0,
        "binomial bcast should be root-symmetric on a flat switch: {times:?}"
    );
}

/// Where the event-level and flow-level tiers overlap (barrier, bcast
/// from root 0, recursive-doubling allreduce) they run the same schedule,
/// so they must report the same round count, the MPICH fold's extra step
/// at rank counts that are not a power of two included.
#[test]
fn event_and_flow_level_collectives_agree_on_rounds() {
    let mut tap = NullTap;
    for n in [2u32, 3, 4, 5, 6, 7, 8, 13, 16] {
        let mut fab = ClusterFabric::paper_default(fat_tree_for(n));
        for (event, flow) in [
            (Collective::Barrier, FlowCollective::Barrier),
            (
                Collective::Bcast { root: 0, bytes: 64 },
                FlowCollective::Bcast { bytes: 64 },
            ),
            (
                Collective::Allreduce { bytes: 64 },
                FlowCollective::AllreduceRd { bytes: 64 },
            ),
        ] {
            let (mut cl, mut ranks) = make_ranks(n as usize, NetworkModel::paper_default(), 25);
            let event_rounds = run_collective(&mut cl, &mut ranks, event, &mut tap).rounds;
            let flow_rounds =
                run_flow_collective(&mut fab, n, flow, EndpointCosts::paper_default()).rounds;
            assert_eq!(event_rounds, flow_rounds, "{} at {n} ranks", flow.name());
        }
    }
}
