//! Flow-level collectives over [`ClusterFabric`]: the schedules of
//! [`bband_fabric::schedule`] (barrier, bcast from rank 0, and the
//! recursive-doubling and ring allreduces), driven as synchronous
//! communication rounds across hundreds to thousands of simulated ranks.
//!
//! Where `bband-mpi` runs a handful of ranks through the full per-packet
//! NIC/transport pipeline, this driver models each rank as an endpoint
//! clock plus per-message overheads and lets the fabric's per-port model
//! resolve contention, credits, and ECN. Rounds are synchronous: a rank
//! enters round `r+1` once its round-`r` send has left the NIC and its
//! round-`r` receive has been delivered — the standard flow-level
//! approximation (LogGP-style) for collective scaling studies.
//!
//! Determinism: within a round, sends are issued in ascending
//! `(depart, src, dst)` order, so a fabric walk's arbitration outcome is
//! a pure function of the schedule. Pooled and serial sweeps are
//! byte-identical.

use crate::flow::{ClusterFabric, PortHop};
use bband_fabric::Pattern;
use bband_sim::{SimDuration, SimTime};

/// Collective operation to run at flow level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowCollective {
    /// Dissemination barrier of 8-byte tokens.
    Barrier,
    /// Binomial-tree broadcast from rank 0 of a `bytes`-sized payload.
    Bcast { bytes: u32 },
    /// Recursive-doubling allreduce of `bytes` (the schedule `bband-mpi`
    /// runs packet-level).
    AllreduceRd { bytes: u32 },
    /// Ring allreduce of `bytes` in `bytes/n` chunks — the
    /// bandwidth-optimal schedule large-message collectives use.
    AllreduceRing { bytes: u32 },
}

impl FlowCollective {
    /// The shared schedule this collective runs over `n` ranks, and the
    /// bytes each of its messages carries.
    fn pattern(self, n: u32) -> (Pattern, u32) {
        match self {
            FlowCollective::Barrier => (Pattern::Barrier, 8),
            FlowCollective::Bcast { bytes } => (Pattern::Bcast { root: 0 }, bytes),
            FlowCollective::AllreduceRd { bytes } => (Pattern::AllreduceRd, bytes),
            FlowCollective::AllreduceRing { bytes } => (
                Pattern::AllreduceRing,
                (bytes as u64).div_ceil(n as u64).max(1) as u32,
            ),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            FlowCollective::Barrier => "barrier",
            FlowCollective::Bcast { .. } => "bcast",
            FlowCollective::AllreduceRd { .. } => "allreduce-rd",
            FlowCollective::AllreduceRing { .. } => "allreduce-ring",
        }
    }
}

/// Per-message endpoint costs: the host-side work bracketing each fabric
/// traversal, approximating the paper's LLP post/poll path.
#[derive(Debug, Clone, Copy)]
pub struct EndpointCosts {
    /// Descriptor build + doorbell before the NIC serializes (§4's
    /// `LLP_post` ballpark).
    pub send_overhead: SimDuration,
    /// Completion detection + buffer handoff after delivery.
    pub recv_overhead: SimDuration,
}

impl EndpointCosts {
    /// Calibrated to the paper's host-side figures: 175.42 ns post,
    /// ~100 ns poll-to-return.
    pub fn paper_default() -> Self {
        EndpointCosts {
            send_overhead: SimDuration::from_ns_f64(175.42),
            recv_overhead: SimDuration::from_ns_f64(100.0),
        }
    }
}

/// One directed transfer within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Xfer {
    src: u32,
    dst: u32,
    bytes: u32,
}

/// Result of one flow-level collective run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowReport {
    /// Virtual time from start until the last rank finishes.
    pub completion: SimDuration,
    /// Synchronous rounds executed.
    pub rounds: u32,
    /// Point-to-point messages carried by the fabric.
    pub messages: u64,
    /// Bytes (wire bytes, headers included) that crossed the topology's
    /// bisection — the numerator of achieved bisection goodput.
    pub bisection_bytes: u64,
}

/// Ranks `0..n` run `coll`; returns the completion report. The fabric's
/// transient state is reset first so repeated runs are independent.
///
/// A round whose transfers equal the previous round's (every ring step)
/// reuses that round's resolved paths, so each distinct round is routed
/// once and every message is one allocation-free fabric walk.
pub fn run_flow_collective(
    fab: &mut ClusterFabric,
    n: u32,
    coll: FlowCollective,
    costs: EndpointCosts,
) -> FlowReport {
    assert!(n >= 2, "collectives need at least two ranks");
    assert!(n <= fab.graph.hosts, "topology too small for {n} ranks");
    fab.reset_transients();

    let mut clock = vec![SimTime::ZERO; n as usize];
    let mut rounds = 0u32;
    let mut messages = 0u64;
    let mut bisection_bytes = 0u64;
    let half = n / 2;

    // `sched` holds the transfers whose paths are resolved: transfer `i`
    // walks `hops[bounds[i]..bounds[i + 1]]`. Each round's schedule lands
    // in `next` and replaces `sched`, resolved afresh, only if it differs.
    let (mut sched, mut next) = (Vec::new(), Vec::new());
    let mut hops: Vec<PortHop> = Vec::new();
    let mut bounds: Vec<usize> = Vec::new();
    // `(depart_ps << 64 | src << 32 | dst, transfer index)`: one integer
    // key in the `(depart, src, dst)` order.
    let mut pending: Vec<(u128, usize)> = Vec::new();
    for r in 0.. {
        round_schedule(n, coll, r, &mut next);
        if next.is_empty() {
            break;
        }
        rounds += 1;
        if next != sched {
            std::mem::swap(&mut sched, &mut next);
            hops.clear();
            bounds.clear();
            bounds.push(0);
            for x in &sched {
                fab.resolve_into(x.src, x.dst, &mut hops);
                bounds.push(hops.len());
            }
        }
        // Inject in rank order, then walk the fabric in global departure
        // order — the deterministic arbitration order.
        pending.clear();
        pending.extend(sched.iter().enumerate().map(|(i, x)| {
            let ready = clock[x.src as usize] + costs.send_overhead;
            let depart = fab.inject(x.src, ready, x.bytes);
            let key =
                u128::from(depart.as_ps()) << 64 | u128::from(x.src) << 32 | u128::from(x.dst);
            (key, i)
        }));
        pending.sort_by_key(|&(key, _)| key);

        // Every injection above has read its sender's clock, so the walks
        // can advance the clocks in place: a rank leaves the round once
        // its send has left the NIC and its receive has been delivered.
        for &(key, i) in &pending {
            let depart = SimTime::from_ps((key >> 64) as u64);
            let x = sched[i];
            let d = fab.walk(depart, &hops[bounds[i]..bounds[i + 1]], x.bytes);
            messages += 1;
            if (x.src < half) != (x.dst < half) {
                bisection_bytes += d.wire_bytes;
            }
            if d.ecn_marked {
                fab.apply_ecn_backoff(x.src);
            }
            clock[x.src as usize] = clock[x.src as usize].max_of(depart);
            let done = d.deliver_at + costs.recv_overhead;
            clock[x.dst as usize] = clock[x.dst as usize].max_of(done);
        }
    }

    let completion = clock
        .iter()
        .fold(SimTime::ZERO, |acc, &t| acc.max_of(t))
        .since(SimTime::ZERO);
    FlowReport {
        completion,
        rounds,
        messages,
        bisection_bytes,
    }
}

/// The transfers of round `r` into `out` (cleared first), empty once the
/// schedule is exhausted.
fn round_schedule(n: u32, coll: FlowCollective, r: u32, out: &mut Vec<Xfer>) {
    out.clear();
    let (pattern, bytes) = coll.pattern(n);
    if r < pattern.rounds(n) {
        // Reserving at once keeps growth reallocations from raising peak RSS.
        out.reserve(n as usize);
        out.extend((0..n).filter_map(|src| {
            let dst = pattern.step(n, r, src).send_to?;
            Some(Xfer { src, dst, bytes })
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{dragonfly_for, fat_tree_for, SWEEP_PAYLOAD_BYTES};
    use crate::telemetry::TelemetryConfig;
    use crate::topo::FabricGraph;
    use bband_metrics as metrics;

    fn fab(hosts_pow: u32) -> ClusterFabric {
        ClusterFabric::paper_default(FabricGraph::fat_tree(4, hosts_pow))
    }

    #[test]
    fn barrier_round_count_is_ceil_log2() {
        let costs = EndpointCosts::paper_default();
        for n in [2u32, 3, 5, 8, 13, 16] {
            let mut f = fab(2);
            let rep = run_flow_collective(&mut f, n, FlowCollective::Barrier, costs);
            assert_eq!(rep.rounds, n.next_power_of_two().trailing_zeros());
            assert_eq!(rep.messages, rep.rounds as u64 * n as u64);
            assert!(rep.completion > SimDuration::ZERO);
        }
    }

    #[test]
    fn bcast_reaches_everyone_in_log_rounds() {
        let costs = EndpointCosts::paper_default();
        let mut f = fab(2);
        let rep = run_flow_collective(&mut f, 11, FlowCollective::Bcast { bytes: 4096 }, costs);
        assert_eq!(rep.rounds, 4);
        // A binomial tree sends exactly n-1 messages in total.
        assert_eq!(rep.messages, 10);
    }

    #[test]
    fn allreduce_rd_matches_mpi_round_structure() {
        let costs = EndpointCosts::paper_default();
        // Power of two: log2(n) rounds, n messages per round.
        let mut f = fab(2);
        let rep = run_flow_collective(&mut f, 8, FlowCollective::AllreduceRd { bytes: 64 }, costs);
        assert_eq!(rep.rounds, 3);
        assert_eq!(rep.messages, 24);
        // Non-power-of-two: pre + core + post.
        let rep6 = run_flow_collective(&mut f, 6, FlowCollective::AllreduceRd { bytes: 64 }, costs);
        assert_eq!(rep6.rounds, 1 + 2 + 1);
        // Folded schedule costs more than its power-of-two core.
        let rep4 = run_flow_collective(&mut f, 4, FlowCollective::AllreduceRd { bytes: 64 }, costs);
        assert!(rep6.completion > rep4.completion);
    }

    #[test]
    fn ring_allreduce_runs_2n_minus_2_rounds() {
        let costs = EndpointCosts::paper_default();
        let mut f = fab(2);
        let rep = run_flow_collective(
            &mut f,
            10,
            FlowCollective::AllreduceRing { bytes: 1 << 20 },
            costs,
        );
        assert_eq!(rep.rounds, 18);
        assert_eq!(rep.messages, 180);
        assert!(rep.bisection_bytes > 0);
    }

    #[test]
    fn ring_beats_recursive_doubling_for_large_payloads() {
        let costs = EndpointCosts::paper_default();
        let mut f = fab(2);
        let n = 16;
        let bytes = 1 << 20; // 1 MiB
        let rd = run_flow_collective(&mut f, n, FlowCollective::AllreduceRd { bytes }, costs);
        let ring = run_flow_collective(&mut f, n, FlowCollective::AllreduceRing { bytes }, costs);
        assert!(
            ring.completion < rd.completion,
            "ring {:?} vs rd {:?}",
            ring.completion,
            rd.completion
        );
        // And the reverse for latency-bound tiny payloads.
        let rd8 = run_flow_collective(&mut f, n, FlowCollective::AllreduceRd { bytes: 8 }, costs);
        let ring8 =
            run_flow_collective(&mut f, n, FlowCollective::AllreduceRing { bytes: 8 }, costs);
        assert!(rd8.completion < ring8.completion);
    }

    #[test]
    fn repeated_runs_are_identical() {
        let costs = EndpointCosts::paper_default();
        let mut f = fab(2);
        let a = run_flow_collective(
            &mut f,
            16,
            FlowCollective::AllreduceRd { bytes: 4096 },
            costs,
        );
        let b = run_flow_collective(
            &mut f,
            16,
            FlowCollective::AllreduceRd { bytes: 4096 },
            costs,
        );
        assert_eq!(a, b, "reset_transients makes runs independent");
    }

    /// `run_flow_collective` before round reuse, kept as the reference:
    /// every transfer of every round routed afresh by `fab.send`, in
    /// `(depart, src, dst)` tuple order.
    fn reference_collective(
        fab: &mut ClusterFabric,
        n: u32,
        coll: FlowCollective,
        costs: EndpointCosts,
    ) -> FlowReport {
        fab.reset_transients();
        let mut clock = vec![SimTime::ZERO; n as usize];
        let (mut rounds, mut messages, mut bisection_bytes) = (0u32, 0u64, 0u64);
        let half = n / 2;
        let mut xfers = Vec::new();
        for r in 0.. {
            round_schedule(n, coll, r, &mut xfers);
            if xfers.is_empty() {
                break;
            }
            rounds += 1;
            let mut pending: Vec<(SimTime, Xfer)> = xfers
                .iter()
                .map(|&x| {
                    let ready = clock[x.src as usize] + costs.send_overhead;
                    (fab.inject(x.src, ready, x.bytes), x)
                })
                .collect();
            pending.sort_by_key(|&(depart, x)| (depart, x.src, x.dst));
            let mut recv_at = vec![SimTime::ZERO; n as usize];
            let mut sent_by = vec![SimTime::ZERO; n as usize];
            for &(depart, x) in &pending {
                let d = fab.send(depart, x.src, x.dst, x.bytes);
                messages += 1;
                if (x.src < half) != (x.dst < half) {
                    bisection_bytes += d.wire_bytes;
                }
                if d.ecn_marked {
                    fab.apply_ecn_backoff(x.src);
                }
                sent_by[x.src as usize] = sent_by[x.src as usize].max_of(depart);
                let done = d.deliver_at + costs.recv_overhead;
                recv_at[x.dst as usize] = recv_at[x.dst as usize].max_of(done);
            }
            for i in 0..n as usize {
                clock[i] = clock[i].max_of(sent_by[i]).max_of(recv_at[i]);
            }
        }
        FlowReport {
            completion: clock
                .iter()
                .fold(SimTime::ZERO, |acc, &t| acc.max_of(t))
                .since(SimTime::ZERO),
            rounds,
            messages,
            bisection_bytes,
        }
    }

    /// Byte identity of round reuse: reused resolved paths and the packed
    /// sort key give the per-message reference's report, fabric counters,
    /// collected metrics (the per-message `fabric_msg_latency` histogram)
    /// and telemetry report, on every collective and topology, across
    /// rank counts that are and are not powers of two.
    #[test]
    fn round_reuse_matches_the_per_message_reference() {
        type Collective = fn(&mut ClusterFabric, u32, FlowCollective, EndpointCosts) -> FlowReport;
        let costs = EndpointCosts::paper_default();
        let bytes = SWEEP_PAYLOAD_BYTES;
        let colls = [
            FlowCollective::Barrier,
            FlowCollective::Bcast { bytes },
            FlowCollective::AllreduceRd { bytes },
            FlowCollective::AllreduceRing { bytes },
        ];
        for graph_for in [fat_tree_for as fn(u32) -> FabricGraph, dragonfly_for] {
            for n in [2u32, 3, 5, 16, 100, 384] {
                let mut fab = ClusterFabric::paper_default(graph_for(n));
                fab.enable_telemetry(TelemetryConfig::paper_default());
                for coll in colls {
                    let mut run = |collective: Collective| {
                        let (report, task) =
                            metrics::collect(|| collective(&mut fab, n, coll, costs));
                        let telemetry = fab
                            .telemetry()
                            .expect("telemetry enabled")
                            .summarize(&fab.graph, &fab.counters);
                        (report, fab.counters, task, telemetry)
                    };
                    let fast = run(run_flow_collective);
                    let reference = run(reference_collective);
                    assert!(
                        fast == reference,
                        "{} n={n} {}",
                        fab.graph.params(),
                        coll.name()
                    );
                }
            }
        }
    }
}
