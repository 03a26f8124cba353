//! Queue-pair semantics at integration scope: per-QP completion isolation
//! and moderation under concurrent multi-core traffic, through the public
//! facade.

use breaking_band::fabric::NodeId;
use breaking_band::llp::{LlpCosts, LockGranularity, Worker};
use breaking_band::microbench::{endpoint_injection, StackConfig, ThreadSweepConfig};
use breaking_band::nic::{Cluster, CqeKind, Opcode, QpId};
use breaking_band::pcie::NullTap;
use proptest::prelude::*;

/// Two cores with different moderation patterns on one NIC: completions
/// stay on their own CQs and each QP's moderated CQE counts only its own
/// backlog.
#[test]
fn per_qp_moderation_does_not_mix_backlogs() {
    let mut cl = Cluster::two_node_paper(55).deterministic();
    let mut tap = NullTap;
    let mut wa = Worker::on_qp(NodeId(0), QpId(0), LlpCosts::default().deterministic(), 1);
    let mut wb = Worker::on_qp(NodeId(0), QpId(1), LlpCosts::default().deterministic(), 2);
    // QP0: three unsignaled then one signaled; QP1: all signaled,
    // interleaved in min-clock order.
    let mut a_plan = vec![false, false, false, true];
    let mut b_plan = vec![true, true, true, true];
    while !a_plan.is_empty() || !b_plan.is_empty() {
        let use_a = match (a_plan.first(), b_plan.first()) {
            (Some(_), Some(_)) => wa.now() <= wb.now(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        if use_a {
            let signaled = a_plan.remove(0);
            wa.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, signaled, &mut tap)
                .unwrap();
        } else {
            let signaled = b_plan.remove(0);
            wb.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, signaled, &mut tap)
                .unwrap();
        }
    }
    let end = cl.run_until_idle(&mut tap);
    wa.cpu_mut().advance_to(end);
    wb.cpu_mut().advance_to(end);
    // QP0 gets exactly one CQE confirming 4 ops.
    let cqe_a = wa.progress(&mut cl, &mut tap).expect("QP0 moderated CQE");
    assert_eq!(cqe_a.completes, 4, "QP0 backlog must not leak to QP1");
    assert!(wa.progress(&mut cl, &mut tap).is_none());
    // QP1 gets four CQEs of one op each.
    let mut count = 0;
    while let Some(cqe) = wb.progress(&mut cl, &mut tap) {
        assert_eq!(cqe.completes, 1);
        assert_eq!(cqe.kind, CqeKind::SendComplete);
        count += 1;
    }
    assert_eq!(count, 4);
    assert_eq!(wa.occupancy(), 0);
    assert_eq!(wb.occupancy(), 0);
}

/// Aggregate multi-core throughput is conserved: total messages on the
/// fabric equals cores × messages regardless of contention.
#[test]
fn multicore_message_conservation() {
    for cores in [2u32, 8, 32] {
        let r = endpoint_injection(&ThreadSweepConfig {
            stack: StackConfig::validation(),
            threads: cores,
            endpoints: cores,
            lock: LockGranularity::Independent,
            messages_per_thread: 200,
            ring_depth: 8,
            credits: None,
            stalls: None,
        });
        // Per-core overhead must stay at least the single-core cost: more
        // cores cannot make one core faster.
        assert!(
            r.per_thread_overhead.as_ns_f64() > 200.0,
            "{cores} cores: per-core overhead {}",
            r.per_thread_overhead
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings of posts across 2–4 QPs: every QP sees exactly
    /// its own completions, in its own post order.
    #[test]
    fn qp_isolation_under_random_interleaving(
        seed in 0u64..50_000,
        plan in proptest::collection::vec(0u8..4, 8..40),
    ) {
        let n_qps = 4usize;
        let mut cl = Cluster::two_node_paper(seed).deterministic();
        let mut tap = NullTap;
        let mut workers: Vec<Worker> = (0..n_qps)
            .map(|q| {
                Worker::on_qp(
                    NodeId(0),
                    QpId(q as u32),
                    LlpCosts::default().deterministic(),
                    seed + q as u64,
                )
            })
            .collect();
        let mut posted: Vec<Vec<u64>> = vec![Vec::new(); n_qps];
        for q in plan {
            let q = q as usize;
            // A core that was idle acts at the current wall time: bring its
            // clock up to the fleet maximum first (otherwise it would post
            // into hardware's past — the causality the engine enforces).
            let sync = workers.iter().map(|w| w.now()).max().unwrap();
            workers[q].cpu_mut().advance_to(sync);
            if let Ok(wr) =
                workers[q].post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap)
            {
                posted[q].push(wr.0);
            }
        }
        let end = cl.run_until_idle(&mut tap);
        for (q, w) in workers.iter_mut().enumerate() {
            w.cpu_mut().advance_to(end);
            let mut got = Vec::new();
            while let Some(cqe) = w.progress(&mut cl, &mut tap) {
                got.push(cqe.wr_id.0);
            }
            prop_assert_eq!(&got, &posted[q], "QP {} completions", q);
        }
    }
}
