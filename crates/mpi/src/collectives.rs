//! Collectives — "UCP implements high-level communication protocols such
//! as collectives" (§5). Three classic small-message algorithms built on
//! the point-to-point layer, plus the multi-rank co-simulation driver that
//! runs them:
//!
//! * **barrier** — dissemination: ⌈log₂N⌉ rounds, in round *r* rank *i*
//!   sends to *(i + 2^r) mod N* and receives from *(i − 2^r) mod N*;
//! * **broadcast** — binomial tree from the root;
//! * **allreduce** — recursive doubling (pairwise exchange with *i ⊕ 2^r*).
//!
//! All three accept arbitrary rank counts ≥ 2. Dissemination and the
//! binomial tree generalize directly; recursive doubling uses the classic
//! MPICH fold: with `N = pow + rem` (`pow` the largest power of two ≤ N),
//! the first `2·rem` ranks pair up in a pre-step so `pow` representatives
//! run the power-of-two core, then a post-step returns the result to the
//! folded-out ranks.
//!
//! The driver steps rank state machines in min-clock order against the
//! shared hardware event queue, so no rank ever observes hardware from
//! another rank's future — the discrete-event analogue of how a real
//! machine interleaves cores.

use crate::costs::MpiCosts;
use crate::proc::{MpiProcess, MpiRequest, RequestState};
use bband_fabric::{NetworkModel, NodeId};
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
    /// Rounds executed: ⌈log₂N⌉ for barrier and bcast; for allreduce
    /// the recursive-doubling core plus, when N is not a power of two,
    /// the fold-in and fold-out steps (⌈log₂N⌉ + 1).
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
    let rounds = n.next_power_of_two().trailing_zeros();
    // Allreduce fold decomposition: `pow` representatives run the
    // recursive-doubling core; the first `2*rem` ranks fold in/out around
    // it (no-ops when N is a power of two).
    let pow = if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() >> 1
    };
    let rem = n - pow;
    let pre = u32::from(rem > 0);
    let core = pow.trailing_zeros();
    let steps = match op {
        Collective::Barrier | Collective::Bcast { .. } => rounds,
        Collective::Allreduce { .. } => core + 2 * pre,
    };
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
        let rank_n = idx as u32;
        match &mut states[idx] {
            RankState::StartRound { round } => {
                let r = *round;
                if r >= steps {
                    states[idx] = RankState::Done;
                    continue;
                }
                let mut reqs = Vec::new();
                let tag = base_tag << 4 | r as i64;
                match op {
                    Collective::Barrier => {
                        // Dissemination: send to (i + 2^r), recv from (i - 2^r).
                        let to = NodeId((rank_n + (1 << r)) % n);
                        reqs.push(ranks[idx].isend(cluster, to, 1, tag, tap));
                        reqs.push(ranks[idx].irecv(tag));
                    }
                    Collective::Bcast { root, bytes } => {
                        // Binomial tree, root-relative rank.
                        let vrank = (rank_n + n - root) % n;
                        if vrank < (1 << r) {
                            // Has the data: send to vrank + 2^r if in range.
                            let peer_v = vrank + (1 << r);
                            if peer_v < n {
                                let to = NodeId((peer_v + root) % n);
                                reqs.push(ranks[idx].isend(cluster, to, bytes, tag, tap));
                            }
                        } else if vrank < (1 << (r + 1)) {
                            // Receives the data this round.
                            reqs.push(ranks[idx].irecv(tag));
                        }
                    }
                    Collective::Allreduce { bytes } => {
                        if pre == 1 && r == 0 {
                            // Fold-in: odd ranks below 2*rem hand their
                            // contribution to the even neighbour, which
                            // then represents the pair in the core.
                            if rank_n < 2 * rem {
                                if rank_n % 2 == 1 {
                                    let to = NodeId(rank_n - 1);
                                    reqs.push(ranks[idx].isend(cluster, to, bytes, tag, tap));
                                } else {
                                    reqs.push(ranks[idx].irecv(tag));
                                }
                            }
                        } else if r < pre + core {
                            // Recursive-doubling core over `pow` virtual
                            // ranks: exchange with v ^ 2^rr.
                            let rr = r - pre;
                            let vrank = if rank_n < 2 * rem {
                                rank_n.is_multiple_of(2).then_some(rank_n / 2)
                            } else {
                                Some(rank_n - rem)
                            };
                            if let Some(v) = vrank {
                                let peer_v = v ^ (1 << rr);
                                let peer = if peer_v < rem {
                                    2 * peer_v
                                } else {
                                    peer_v + rem
                                };
                                let to = NodeId(peer);
                                reqs.push(ranks[idx].isend(cluster, to, bytes, tag, tap));
                                reqs.push(ranks[idx].irecv(tag));
                            }
                        } else {
                            // Fold-out: the representative returns the
                            // reduced vector to the rank that sat out.
                            if rank_n < 2 * rem {
                                if rank_n.is_multiple_of(2) {
                                    let to = NodeId(rank_n + 1);
                                    reqs.push(ranks[idx].isend(cluster, to, bytes, tag, tap));
                                } else {
                                    reqs.push(ranks[idx].irecv(tag));
                                }
                            }
                        }
                    }
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
                    let qp = ranks[idx].ucp().qp();
                    let node = ranks[idx].node();
                    let hw = cluster.next_event_time();
                    let vis = cluster.next_cqe_visible_at(node, qp);
                    let next = match (hw, vis) {
                        (Some(a), Some(b)) => Some(if a <= b { a } else { b }),
                        (a, b) => a.or(b),
                    };
                    if let Some(t) = next {
                        ranks[idx].ucp_mut().uct_mut().cpu_mut().advance_to(t);
                    }
                    // If there is nothing at all pending, another rank must
                    // act first; the min-clock loop will pick it once our
                    // clock advances past it. Nudge by one progress cost to
                    // avoid a spin at identical clocks.
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

/// Build a deterministic `n`-rank job (cluster + initialized MPI ranks)
/// for the scaling driver. Seeding is a pure function of `(seed, rank)`,
/// so two jobs built with the same arguments are identical. `credits`
/// shrinks the RC posted-credit pools to `(hdr, data, update_batch)` and
/// `stalls` parks the NICs in a correlated Markov process of
/// `(mean_up_ns, mean_down_ns)` — the live fabric's two fault knobs (it
/// has no lossy wire; loss plans only reach the fault engine).
fn deterministic_job(
    n: u32,
    seed: u64,
    credits: Option<(u32, u32, u32)>,
    stalls: Option<(f64, f64)>,
) -> (Cluster, Vec<MpiProcess>) {
    let mut cluster = Cluster::new(
        n as usize,
        NetworkModel::paper_default(),
        NicConfig::default(),
        seed,
    )
    .deterministic();
    if let Some((hdr, data, update_batch)) = credits {
        cluster = cluster.with_credits(hdr, data, update_batch);
    }
    if let Some((up, down)) = stalls {
        cluster.set_markov_stalls(up, down, seed ^ 0x3A11);
    }
    let mut tap = NullTap;
    let ranks: Vec<MpiProcess> = (0..n)
        .map(|i| {
            let uct = Worker::new(
                NodeId(i),
                LlpCosts::default().deterministic(),
                seed ^ (0xC0_11EC + i as u64),
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

/// Run `op` at each rank count, every count on its own freshly seeded
/// cluster, fanned out across a [`WorkerPool`]. The min-clock driver
/// inside one job stays sequential (its ranks share hardware); the jobs
/// themselves are independent, which is where the parallelism is. Seeds
/// derive from `(seed, rank count)` alone, so the result is identical to
/// running the jobs in a serial loop.
pub fn collective_scaling(
    rank_counts: &[u32],
    op: Collective,
    seed: u64,
) -> Vec<(u32, CollectiveReport)> {
    collective_scaling_with(rank_counts, op, seed, None, None)
}

/// [`collective_scaling`] under an optional posted-credit override and/or
/// a correlated NIC-stall process (the `--faults` plan's live-fabric
/// knobs). Each report carries the cluster's [`RecoveryCounters`], so a
/// starved configuration shows credit stalls alongside its completion
/// time.
pub fn collective_scaling_with(
    rank_counts: &[u32],
    op: Collective,
    seed: u64,
    credits: Option<(u32, u32, u32)>,
    stalls: Option<(f64, f64)>,
) -> Vec<(u32, CollectiveReport)> {
    WorkerPool::new().map(rank_counts.to_vec(), |_, n| {
        let (mut cluster, mut ranks) = deterministic_job(n, seed, credits, stalls);
        let mut tap = NullTap;
        let report = run_collective(&mut cluster, &mut ranks, op, &mut tap);
        (n, report)
    })
}

/// Convenience: barrier over the ranks.
pub fn barrier(
    cluster: &mut Cluster,
    ranks: &mut [MpiProcess],
    tap: &mut dyn LinkTap,
) -> CollectiveReport {
    run_collective(cluster, ranks, Collective::Barrier, tap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::MpiCosts;
    use bband_fabric::NetworkModel;
    use bband_hlp::{UcpCosts, UcpWorker};
    use bband_llp::{LlpCosts, Worker};
    use bband_nic::NicConfig;
    use bband_pcie::NullTap;

    fn setup(n: usize) -> (Cluster, Vec<MpiProcess>) {
        let mut cluster =
            Cluster::new(n, NetworkModel::paper_default(), NicConfig::default(), 9).deterministic();
        let mut tap = NullTap;
        let ranks: Vec<MpiProcess> = (0..n)
            .map(|i| {
                let uct = Worker::new(
                    NodeId(i as u32),
                    LlpCosts::default().deterministic(),
                    100 + i as u64,
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
    fn barrier_completes_on_two_ranks() {
        let (mut cl, mut ranks) = setup(2);
        let mut tap = NullTap;
        let rep = barrier(&mut cl, &mut ranks, &mut tap);
        assert_eq!(rep.rounds, 1);
        // One round ≈ one end-to-end latency plus progress overheads.
        let us = rep.completion.as_ns_f64() / 1_000.0;
        assert!((1.0..6.0).contains(&us), "2-rank barrier took {us} µs");
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let mut tap = NullTap;
        let (mut c2, mut r2) = setup(2);
        let t2 = barrier(&mut c2, &mut r2, &mut tap).completion.as_ns_f64();
        let (mut c8, mut r8) = setup(8);
        let t8 = barrier(&mut c8, &mut r8, &mut tap).completion.as_ns_f64();
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
        let tb = barrier(&mut c4, &mut r4, &mut tap).completion;
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
        let first = barrier(&mut cl, &mut ranks, &mut tap).completion;
        let second = barrier(&mut cl, &mut ranks, &mut tap).completion;
        assert!(second > first, "second barrier runs after the first");
    }

    #[test]
    fn scaling_sweep_matches_serial_runs() {
        // The pooled sweep must reproduce job-by-job serial execution.
        let counts = [2u32, 4, 8];
        let pooled = collective_scaling(&counts, Collective::Barrier, 9);
        for &(n, ref rep) in &pooled {
            let (mut cl, mut ranks) = super::deterministic_job(n, 9, None, None);
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
        let clean = collective_scaling(&counts, op, 9);
        assert!(clean[0].1.counters.is_clean(), "default pools never stall");
        let starved = collective_scaling_with(&counts, op, 9, Some((1, 8, 1)), None);
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
        let rep = collective_scaling_with(
            &[8u32],
            Collective::Allreduce { bytes: 4096 },
            9,
            None,
            Some((500.0, 2_000.0)),
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
        for n in [3usize, 5, 6] {
            let (mut cl, mut ranks) = setup(n);
            let rep = barrier(&mut cl, &mut ranks, &mut tap);
            assert_eq!(
                rep.rounds,
                (n as u32).next_power_of_two().trailing_zeros(),
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

        for n in [3usize, 6] {
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
