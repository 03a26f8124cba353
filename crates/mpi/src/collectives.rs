//! Collectives — "UCP implements high-level communication protocols such
//! as collectives" (§5). The dissemination barrier, binomial broadcast and
//! recursive-doubling allreduce of [`bband_fabric::schedule`], run for any
//! rank count ≥ 2 by a multi-rank co-simulation driver.
//!
//! The driver steps rank state machines in min-clock order against the
//! shared hardware event queue, so no rank ever observes hardware from
//! another rank's future — the discrete-event analogue of how a real
//! machine interleaves cores. Each round, a rank posts the send and the
//! receive its [`Pattern::step`] names, then waits for both.

use crate::costs::MpiCosts;
use crate::proc::{MpiProcess, MpiRequest, RequestState};
use bband_fabric::{NodeId, Pattern};
use bband_hlp::{UcpCosts, UcpWorker};
use bband_llp::{LlpCosts, Worker};
use bband_nic::{Cluster, NicConfig};
use bband_pcie::{LinkTap, NullTap};
use bband_profiling::RecoveryCounters;
use bband_sim::{SimTime, WorkerPool};

/// Which collective to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Dissemination barrier.
    Barrier,
    /// Binomial-tree broadcast of `bytes` from `root`.
    Bcast { root: u32, bytes: u32 },
    /// Recursive-doubling allreduce of `bytes`.
    Allreduce { bytes: u32 },
}

/// Result of one collective run.
#[derive(Debug, Clone)]
pub struct CollectiveReport {
    /// Virtual time from the start of the run to the last rank finishing.
    pub completion: SimTime,
    /// Rounds executed: the collective's [`Pattern::rounds`].
    pub rounds: u32,
    /// Recovery engagement observed by the cluster over the whole job so
    /// far (credit-starved RCs parking MMIO writes, Markov stall windows).
    /// Clean unless a `--faults` plan's credit/stall overrides apply.
    pub counters: RecoveryCounters,
}

#[derive(Debug)]
enum RankState {
    /// Ready to start round `round`.
    StartRound {
        round: u32,
    },
    /// Waiting for this round's requests.
    Waiting {
        round: u32,
        reqs: Vec<MpiRequest>,
    },
    Done,
}

/// Run a collective across `ranks` (one rank per node, any count ≥ 2) and
/// return timing. The ranks are left at quiescence, usable for subsequent
/// operations.
pub fn run_collective(
    cluster: &mut Cluster,
    ranks: &mut [MpiProcess],
    op: Collective,
    tap: &mut dyn LinkTap,
) -> CollectiveReport {
    let n = ranks.len() as u32;
    assert!(n >= 2, "a collective needs at least two ranks");
    // The shared schedule and each message's bytes (1-byte barrier tokens).
    let (pattern, bytes) = match op {
        Collective::Barrier => (Pattern::Barrier, 1),
        Collective::Bcast { root, bytes } => (Pattern::Bcast { root }, bytes),
        Collective::Allreduce { bytes } => (Pattern::AllreduceRd, bytes),
    };
    let steps = pattern.rounds(n);
    // The tag layout gives the step index 4 bits.
    assert!(steps <= 16, "collective steps exceed the tag layout");
    let start = ranks.iter().map(|r| r.now()).max().expect("ranks");
    // Align rank clocks at the collective's entry (as a preceding barrier
    // or compute phase would).
    for r in ranks.iter_mut() {
        r.ucp_mut().uct_mut().cpu_mut().advance_to(start);
    }
    let mut states: Vec<RankState> = (0..n).map(|_| RankState::StartRound { round: 0 }).collect();
    // Unique-ish tag space per collective instance: fold the start time in
    // so back-to-back collectives never collide.
    let base_tag = ((start.as_ps() >> 10) & 0x3FFF) as i64;

    let mut guard = 0u64;
    while states.iter().any(|s| !matches!(s, RankState::Done)) {
        guard += 1;
        assert!(guard < 2_000_000, "collective diverged");
        // Pick the active (non-done) rank with the smallest clock.
        let idx = (0..ranks.len())
            .filter(|&i| !matches!(states[i], RankState::Done))
            .min_by_key(|&i| ranks[i].now())
            .expect("someone is active");
        match &mut states[idx] {
            RankState::StartRound { round } => {
                let r = *round;
                if r >= steps {
                    states[idx] = RankState::Done;
                    continue;
                }
                let mut reqs = Vec::new();
                let tag = base_tag << 4 | r as i64;
                let step = pattern.step(n, r, idx as u32);
                if let Some(to) = step.send_to {
                    reqs.push(ranks[idx].isend(cluster, NodeId(to), bytes, tag, tap));
                }
                if step.recv {
                    reqs.push(ranks[idx].irecv(tag));
                }
                states[idx] = RankState::Waiting { round: r, reqs };
            }
            RankState::Waiting { round, reqs } => {
                let r = *round;
                let done = reqs
                    .iter()
                    .all(|q| ranks[idx].state(*q) == RequestState::Complete);
                if done {
                    states[idx] = RankState::StartRound { round: r + 1 };
                    continue;
                }
                // One progress pulse; if nothing changed, fast-forward this
                // (minimum-clock) rank to the next hardware instant.
                let progressed = ranks[idx].pump(cluster, tap);
                if !progressed {
                    if let Some(t) = cluster.next_wake(ranks[idx].node(), ranks[idx].ucp().qp()) {
                        ranks[idx].ucp_mut().uct_mut().cpu_mut().advance_to(t);
                    }
                    // If there is nothing at all pending, another rank must
                    // act first; the min-clock loop will pick it once our
                    // clock advances past it.
                }
            }
            RankState::Done => unreachable!("filtered above"),
        }
    }
    let end = ranks.iter().map(|r| r.now()).max().expect("ranks");
    CollectiveReport {
        completion: end,
        rounds: steps,
        counters: cluster.recovery_counters(),
    }
}

/// `n` initialized MPI ranks on `cluster`, rank `i` on node `i`, with
/// deterministic LLP costs and unmoderated UCP costs. Deterministic costs
/// never draw from a worker's RNG, so the workers take fixed seeds and two
/// calls on identical clusters build identical jobs. Configure `cluster`
/// first: a credit override (`Cluster::with_credits`) resets RC state and
/// must precede the ranks' `init`.
pub fn deterministic_ranks(cluster: &mut Cluster, n: u32) -> Vec<MpiProcess> {
    (0..n)
        .map(|i| {
            let uct = Worker::new(
                NodeId(i),
                LlpCosts::default().deterministic(),
                0xC0_11EC + u64::from(i),
            );
            let mut p = MpiProcess::new(
                UcpWorker::new(uct, UcpCosts::default().unmoderated()),
                MpiCosts::default(),
            );
            p.init(cluster, &mut NullTap);
            p
        })
        .collect()
}

/// Run `op` at each rank count, every count on its own freshly seeded
/// deterministic cluster, fanned out across `pool` (the jobs are
/// independent; the ranks inside one share hardware and stay sequential).
/// Seeds derive from `(seed, rank count)` alone, so the result is
/// identical to a serial loop. `credits` shrinks the RC posted-credit
/// pools to `(hdr, data, update_batch)` and `stalls` parks the NICs in a
/// Markov process of `(mean_up_ns, mean_down_ns)`: the `--faults` plan's
/// two live-fabric knobs. Each report carries the cluster's
/// [`RecoveryCounters`].
pub fn collective_scaling(
    rank_counts: &[u32],
    op: Collective,
    seed: u64,
    credits: Option<(u32, u32, u32)>,
    stalls: Option<(f64, f64)>,
    pool: &WorkerPool,
) -> Vec<(u32, CollectiveReport)> {
    pool.map(rank_counts.to_vec(), |_, n| {
        let mut cluster = Cluster::new(n as usize, NicConfig::default(), seed).deterministic();
        if let Some((hdr, data, update_batch)) = credits {
            cluster = cluster.with_credits(hdr, data, update_batch);
        }
        if let Some((up, down)) = stalls {
            cluster.set_markov_stalls(up, down, seed ^ 0x3A11);
        }
        let mut ranks = deterministic_ranks(&mut cluster, n);
        let report = run_collective(&mut cluster, &mut ranks, op, &mut NullTap);
        (n, report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: u32) -> (Cluster, Vec<MpiProcess>) {
        let mut cluster = Cluster::new(n as usize, NicConfig::default(), 9).deterministic();
        let ranks = deterministic_ranks(&mut cluster, n);
        (cluster, ranks)
    }

    #[test]
    fn barrier_completes_on_two_ranks() {
        let (mut cl, mut ranks) = setup(2);
        let mut tap = NullTap;
        let rep = run_collective(&mut cl, &mut ranks, Collective::Barrier, &mut tap);
        assert_eq!(rep.rounds, 1);
        // One round ≈ one end-to-end latency plus progress overheads.
        let us = rep.completion.as_ns_f64() / 1_000.0;
        assert!((1.0..6.0).contains(&us), "2-rank barrier took {us} µs");
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let mut tap = NullTap;
        let (mut c2, mut r2) = setup(2);
        let t2 = run_collective(&mut c2, &mut r2, Collective::Barrier, &mut tap)
            .completion
            .as_ns_f64();
        let (mut c8, mut r8) = setup(8);
        let t8 = run_collective(&mut c8, &mut r8, Collective::Barrier, &mut tap)
            .completion
            .as_ns_f64();
        // 8 ranks = 3 rounds vs 1 round: between 2x and 5x, not 4x+ linear.
        let ratio = t8 / t2;
        assert!(
            (1.8..5.5).contains(&ratio),
            "barrier scaling ratio {ratio} (t2 {t2}, t8 {t8})"
        );
    }

    #[test]
    fn bcast_reaches_every_rank() {
        let (mut cl, mut ranks) = setup(4);
        let mut tap = NullTap;
        let rep = run_collective(
            &mut cl,
            &mut ranks,
            Collective::Bcast { root: 1, bytes: 8 },
            &mut tap,
        );
        assert_eq!(rep.rounds, 2);
        // Completion means every non-root received its copy; the driver
        // would have diverged otherwise.
    }

    #[test]
    fn allreduce_completes_and_costs_more_than_barrier() {
        let mut tap = NullTap;
        let (mut c4, mut r4) = setup(4);
        let tb = run_collective(&mut c4, &mut r4, Collective::Barrier, &mut tap).completion;
        let (mut c4b, mut r4b) = setup(4);
        let ta = run_collective(
            &mut c4b,
            &mut r4b,
            Collective::Allreduce { bytes: 256 },
            &mut tap,
        )
        .completion;
        // Same round count; allreduce moves real payloads both ways, so it
        // cannot be cheaper than the barrier.
        assert!(ta >= tb, "allreduce {ta} vs barrier {tb}");
    }

    #[test]
    fn back_to_back_barriers_do_not_collide() {
        let (mut cl, mut ranks) = setup(4);
        let mut tap = NullTap;
        let first = run_collective(&mut cl, &mut ranks, Collective::Barrier, &mut tap).completion;
        let second = run_collective(&mut cl, &mut ranks, Collective::Barrier, &mut tap).completion;
        assert!(second > first, "second barrier runs after the first");
    }

    #[test]
    fn scaling_sweep_matches_serial_runs() {
        // The pooled sweep must reproduce job-by-job serial execution.
        let counts = [2u32, 4, 8];
        let pool = WorkerPool::with_threads(4);
        let pooled = collective_scaling(&counts, Collective::Barrier, 9, None, None, &pool);
        for &(n, ref rep) in &pooled {
            let (mut cl, mut ranks) = setup(n);
            let mut tap = NullTap;
            let serial = run_collective(&mut cl, &mut ranks, Collective::Barrier, &mut tap);
            assert_eq!(rep.completion, serial.completion, "{n} ranks");
            assert_eq!(rep.rounds, serial.rounds);
        }
        // Logarithmic rounds, monotone completion.
        assert_eq!(
            pooled.iter().map(|(_, r)| r.rounds).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(pooled[2].1.completion > pooled[0].1.completion);
    }

    #[test]
    fn starved_credits_engage_recovery_and_slow_the_collective() {
        // Inline payloads (<= 256 B) ride BlueFlame as ~5 PIO chunks per
        // post, so a one-header-credit pool has to park some of them at
        // the RC. (Larger payloads fall back to a single-chunk descriptor
        // the NIC DMA-reads, which a serial rank never backs up.)
        let counts = [8u32];
        let op = Collective::Allreduce { bytes: 240 };
        let pool = WorkerPool::with_threads(1);
        let clean = collective_scaling(&counts, op, 9, None, None, &pool);
        assert!(clean[0].1.counters.is_clean(), "default pools never stall");
        let starved = collective_scaling(&counts, op, 9, Some((1, 8, 1)), None, &pool);
        assert!(
            starved[0].1.counters.credit_stalls > 0,
            "a one-header-credit pool must park MMIO writes: {:?}",
            starved[0].1.counters
        );
        assert!(
            starved[0].1.completion >= clean[0].1.completion,
            "parked doorbells cannot make the collective faster"
        );
    }

    #[test]
    fn markov_stalls_surface_in_the_report() {
        // Mostly-down NICs: every rank's sends cross stall windows.
        let rep = collective_scaling(
            &[8u32],
            Collective::Allreduce { bytes: 4096 },
            9,
            None,
            Some((500.0, 2_000.0)),
            &WorkerPool::with_threads(1),
        );
        let k = &rep[0].1.counters;
        assert!(k.nic_stalls > 0, "stall windows must engage: {k:?}");
        assert!(k.recovery_time > bband_sim::SimDuration::ZERO);
    }

    /// Formerly `non_power_of_two_is_rejected`: the driver used to panic
    /// on any rank count that was not a power of two. Dissemination and
    /// the binomial tree generalize directly; allreduce folds around the
    /// power-of-two core.
    #[test]
    fn non_power_of_two_ranks_complete() {
        let mut tap = NullTap;
        for n in [3u32, 5, 6] {
            let (mut cl, mut ranks) = setup(n);
            let rep = run_collective(&mut cl, &mut ranks, Collective::Barrier, &mut tap);
            assert_eq!(
                rep.rounds,
                n.next_power_of_two().trailing_zeros(),
                "{n}-rank barrier rounds"
            );
            assert!(rep.completion > SimTime::ZERO);
        }
    }

    #[test]
    fn non_power_of_two_bcast_and_allreduce_complete() {
        let mut tap = NullTap;
        let (mut cl, mut ranks) = setup(5);
        let rep = run_collective(
            &mut cl,
            &mut ranks,
            Collective::Bcast { root: 2, bytes: 64 },
            &mut tap,
        );
        assert_eq!(rep.rounds, 3, "5-rank binomial tree is ⌈log₂5⌉ deep");

        for n in [3u32, 6] {
            let (mut cl, mut ranks) = setup(n);
            let rep = run_collective(
                &mut cl,
                &mut ranks,
                Collective::Allreduce { bytes: 128 },
                &mut tap,
            );
            // Completion implies every fold/core/unfold exchange matched;
            // the min-clock driver would have diverged otherwise.
            assert!(rep.completion > SimTime::ZERO, "{n}-rank allreduce");
        }
    }

    /// The fold must cost more than the power-of-two core alone: 6 ranks
    /// run a 4-rank core plus fold-in/fold-out steps around it.
    #[test]
    fn folded_allreduce_costs_more_than_its_core() {
        let mut tap = NullTap;
        let (mut c4, mut r4) = setup(4);
        let t4 = run_collective(
            &mut c4,
            &mut r4,
            Collective::Allreduce { bytes: 128 },
            &mut tap,
        )
        .completion;
        let (mut c6, mut r6) = setup(6);
        let t6 = run_collective(
            &mut c6,
            &mut r6,
            Collective::Allreduce { bytes: 128 },
            &mut tap,
        )
        .completion;
        assert!(t6 > t4, "fold steps add time: {t6} vs {t4}");
    }
}
