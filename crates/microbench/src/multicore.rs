//! Multi-thread injection over first-class endpoints — the scalable-
//! endpoints experiment, with the paper's multi-core credit probe as its
//! one-endpoint-per-thread special case.
//!
//! §4.2 observes that "a single core does not exhaust the credits for MWr
//! transactions" and explicitly scopes the model to that case. The
//! original experiment here drove the same root complex with `k`
//! independent cores (one QP per core) to find where the posted-write
//! credit pool becomes the bottleneck. Zambre et al. ("Scalable
//! Communication Endpoints for MPI+Threads") add the orthogonal axis this
//! driver now sweeps: *how many endpoints* those threads share, and
//! *where the lock sits* when they share one. [`endpoint_injection`]
//! parameterizes all three —
//!
//! * `threads` — injecting cores on node 0, each with its own
//!   [`bband_llp::Core`] (CPU clock + jitter stream);
//! * `endpoints` — first-class [`bband_llp::Endpoint`]s (VI: ring, WR
//!   allocator, CQ stash), assigned round-robin (`thread i` drives
//!   endpoint `i % endpoints`);
//! * `lock` — a [`LockGranularity`]: one global lock, one lock per
//!   endpoint, or fully independent VIs.
//!
//! The expected shape is Zambre's Figure-1 spectrum: a single locked
//! endpoint pins the aggregate rate near one thread's rate however many
//! threads post; per-endpoint locks recover rate proportional to the
//! endpoint count; independent VIs scale near-linearly until the PCIe
//! credit pool (the original experiment) takes over as the ceiling.
//!
//! Back-of-envelope with the calibrated numbers: each thread posts every
//! ~296 ns; an UpdateFC grant lags its TLP by one PCIe round trip
//! (~270 ns); so ~0.9·k header credits are in flight on average and the
//! 64-credit pool saturates around k ≈ 70 independent threads.
//!
//! Orchestration note: all threads share one hardware event queue, so the
//! driver always steps the thread with the *smallest* local clock —
//! guaranteeing that hardware is never drained past another thread's
//! present (the same reason total-store-order simulators use a min-heap of
//! logical clocks). Lock waits advance the waiter's clock to the lock's
//! free instant, so contention surfaces as virtual time exactly where a
//! futex would burn it.

use crate::common::StackConfig;
use bband_fabric::NodeId;
use bband_llp::{Core, Endpoint, LockGranularity, LockModel};
use bband_nic::{NicConfig, Opcode, QpId};
use bband_pcie::NullTap;
use bband_profiling::RecoveryCounters;
use bband_sim::{SimDuration, WorkerPool};

/// Configuration for the thread/endpoint/lock injection experiment.
#[derive(Debug, Clone)]
pub struct ThreadSweepConfig {
    pub stack: StackConfig,
    /// Injecting threads (cores) on node 0.
    pub threads: u32,
    /// First-class endpoints the threads drive (`thread i` posts to
    /// endpoint `i % endpoints`).
    pub endpoints: u32,
    /// Where the lock sits when threads share an endpoint.
    pub lock: LockGranularity,
    /// Messages per thread.
    pub messages_per_thread: u64,
    /// Per-endpoint software ring depth.
    pub ring_depth: u32,
    /// Posted-credit pool override as `(hdr, data, update_batch)` — the
    /// `repro --faults` plan's `credits` block, threaded through here so
    /// the exhaustion onset can be probed under starved pools.
    pub credits: Option<(u32, u32, u32)>,
    /// Correlated NIC injection stalls as `(mean_up_ns, mean_down_ns)` —
    /// the `repro --faults` plan's `markov_stall` block: a Markov-modulated
    /// on/off process parks the NIC's fabric launches during "down" dwells.
    pub stalls: Option<(f64, f64)>,
}

impl Default for ThreadSweepConfig {
    fn default() -> Self {
        ThreadSweepConfig {
            stack: StackConfig::default(),
            threads: 4,
            endpoints: 4,
            lock: LockGranularity::Independent,
            messages_per_thread: 1_000,
            ring_depth: 16,
            credits: None,
            stalls: None,
        }
    }
}

/// Results of one thread/endpoint/lock run.
#[derive(Debug)]
pub struct ThreadSweepReport {
    pub threads: u32,
    pub endpoints: u32,
    pub lock: LockGranularity,
    /// Aggregate messages per microsecond reaching the fabric.
    pub aggregate_rate_per_us: f64,
    /// Mean per-message injection overhead seen by one thread.
    pub per_thread_overhead: SimDuration,
    /// Did the RC ever stall an MMIO write for credits?
    pub rc_stalled: bool,
    /// Total busy posts across threads.
    pub busy_posts: u64,
    /// Lock acquisitions across threads (0 under independent VIs).
    pub lock_acquisitions: u64,
    /// Acquisitions that had to wait.
    pub lock_contended: u64,
    /// Total exposed lock-wait time across threads.
    pub lock_wait_time: SimDuration,
    /// Cluster-level recovery counters (credit stall episodes).
    pub counters: RecoveryCounters,
}

/// Run `threads` injectors over `endpoints` shared VIs against one node's
/// RC + NIC, serializing critical sections per the lock granularity.
pub fn endpoint_injection(cfg: &ThreadSweepConfig) -> ThreadSweepReport {
    assert!(cfg.threads >= 1, "at least one injecting thread");
    assert!(cfg.endpoints >= 1, "at least one endpoint");
    let mut cluster = cfg.stack.build_cluster_with(NicConfig {
        // The hardware ring must hold every endpoint's outstanding work.
        txq_depth: (cfg.endpoints * cfg.ring_depth).max(256),
    });
    if let Some((hdr, data, update_batch)) = cfg.credits {
        cluster = cluster.with_credits(hdr, data, update_batch);
    }
    if let Some((up, down)) = cfg.stalls {
        cluster.set_markov_stalls(up, down, cfg.stack.seed ^ 0x3A11);
    }
    let mut tap = NullTap;
    let mut endpoints: Vec<Endpoint> = (0..cfg.endpoints)
        .map(|e| {
            let mut ep = Endpoint::new(QpId(e));
            ep.set_ring_capacity(cfg.ring_depth);
            ep
        })
        .collect();
    // Thread i's jitter stream is salted with its own index — for the
    // one-endpoint-per-thread case this is the exact per-QP seeding the
    // pre-refactor multicore experiment used, so that point stays
    // bit-identical.
    let mut cores: Vec<Core> = (0..cfg.threads)
        .map(|i| {
            Core::on_lane(
                NodeId(0),
                i,
                cfg.stack.llp.clone(),
                cfg.stack.seed ^ (0x9000 + i as u64),
            )
        })
        .collect();
    let mut lock = LockModel::new(cfg.lock, cfg.endpoints);
    let mut remaining: Vec<u64> = vec![cfg.messages_per_thread; cfg.threads as usize];

    // Min-clock scheduling: the thread with the earliest local time acts.
    while let Some(idx) = (0..cores.len())
        .filter(|&i| remaining[i] > 0)
        .min_by_key(|&i| cores[i].now())
    {
        let core = &mut cores[idx];
        let ep_idx = idx as u32 % cfg.endpoints;
        // Enter the critical section: a contended acquire burns virtual
        // time on this thread's clock and (on traced runs) records a
        // `lock_wait` recovery stage the next CPU stage chains after.
        let start = lock.acquire(ep_idx, core.now(), core.last_cpu_stage());
        if start > core.now() {
            core.cpu_mut().advance_to(start);
            let wait = lock.last_wait_span();
            if !wait.is_none() {
                core.set_last_cpu_stage(wait);
            }
        }
        let ep = &mut endpoints[ep_idx as usize];
        match core.post(
            ep,
            &mut cluster,
            Opcode::RdmaWrite,
            NodeId(1),
            8,
            true,
            &mut tap,
        ) {
            Ok(_) => {
                remaining[idx] -= 1;
                // Poll opportunistically to keep the ring from filling.
                let _ = core.progress(ep, &mut cluster, &mut tap);
            }
            Err(_) => {
                let _ = core.progress(ep, &mut cluster, &mut tap);
            }
        }
        lock.release(ep_idx, core.now(), core.last_cpu_stage());
    }
    let end = cores.iter().map(|c| c.now()).max().expect("threads > 0");
    cluster.run_until_idle(&mut tap);

    let total = cfg.messages_per_thread * cfg.threads as u64;
    let span_us = end.as_ns_f64() / 1_000.0;
    ThreadSweepReport {
        threads: cfg.threads,
        endpoints: cfg.endpoints,
        lock: cfg.lock,
        aggregate_rate_per_us: total as f64 / span_us,
        per_thread_overhead: SimDuration::from_ns_f64(
            end.as_ns_f64() / cfg.messages_per_thread as f64,
        ),
        rc_stalled: !cluster.rc_never_stalled(),
        busy_posts: cores.iter().map(|c| c.busy_posts).sum(),
        lock_acquisitions: lock.acquisitions(),
        lock_contended: lock.contended(),
        lock_wait_time: lock.total_wait(),
        counters: cluster.recovery_counters(),
    }
}

/// Sweep core counts and report where credits first exhaust, under an
/// optional posted-credit override and/or a correlated-stall process — a
/// starved pool pulls the onset down to fewer cores, and Markov stall
/// windows back the NIC up so in-flight credits pile on during bursts.
/// Each count runs [`endpoint_injection`] with one independent endpoint
/// per core on an independent cluster (seeded only by `stack.seed` and
/// the core index), so the sweep fans out across `pool` with results
/// identical to a serial loop.
pub fn credit_exhaustion_onset_with(
    stack: &StackConfig,
    core_counts: &[u32],
    credits: Option<(u32, u32, u32)>,
    stalls: Option<(f64, f64)>,
    pool: &WorkerPool,
) -> Vec<(u32, bool)> {
    pool.map(core_counts.to_vec(), |_, cores| {
        let r = endpoint_injection(&ThreadSweepConfig {
            stack: stack.clone(),
            threads: cores,
            endpoints: cores,
            lock: LockGranularity::Independent,
            messages_per_thread: 400,
            ring_depth: 16,
            credits,
            stalls,
        });
        (cores, r.rc_stalled)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_pcie::LinkModel;

    fn sweep(threads: u32, endpoints: u32, lock: LockGranularity) -> ThreadSweepConfig {
        ThreadSweepConfig {
            stack: StackConfig::validation(),
            threads,
            endpoints,
            lock,
            messages_per_thread: 500,
            ring_depth: 16,
            credits: None,
            stalls: None,
        }
    }

    /// The multicore credit probe's shape: one independent endpoint per
    /// core.
    fn det(cores: u32) -> ThreadSweepConfig {
        sweep(cores, cores, LockGranularity::Independent)
    }

    #[test]
    fn single_core_matches_the_paper() {
        let r = endpoint_injection(&det(1));
        assert!(!r.rc_stalled, "one core must never stall the RC (§4.2)");
        // One core posting + opportunistic poll ≈ LLP_post + LLP_prog.
        let ns = r.per_thread_overhead.as_ns_f64();
        assert!(
            (ns - 237.05).abs() < 15.0,
            "single-core overhead {ns} vs ~237 (175.42+61.63)"
        );
    }

    #[test]
    fn few_cores_scale_without_stalling() {
        let r1 = endpoint_injection(&det(1));
        let r8 = endpoint_injection(&det(8));
        assert!(!r8.rc_stalled, "8 cores fit in the credit pool");
        assert!(
            r8.aggregate_rate_per_us > 6.0 * r1.aggregate_rate_per_us,
            "8 cores should give near-linear aggregate rate: {} vs {}",
            r8.aggregate_rate_per_us,
            r1.aggregate_rate_per_us
        );
    }

    #[test]
    fn many_cores_exhaust_credits() {
        // ~0.9·k header credits in flight; the 64-credit pool must
        // saturate well before 128 cores.
        let r = endpoint_injection(&det(128));
        assert!(
            r.rc_stalled,
            "128 cores must exhaust the RC's posted-write credits"
        );
    }

    #[test]
    fn exhaustion_onset_is_monotone() {
        let stack = StackConfig::validation();
        let pool = WorkerPool::with_threads(2);
        let onset = credit_exhaustion_onset_with(&stack, &[1, 8, 128], None, None, &pool);
        assert_eq!(onset[0], (1, false));
        assert_eq!(onset[1], (8, false));
        assert_eq!(onset[2], (128, true));
    }

    #[test]
    fn starved_credit_override_pulls_the_onset_down() {
        // A pool of 4 header credits replenished 2 at a time: 8 concurrent
        // posters exhaust it, where the ConnectX-4-class default absorbs
        // them without a stall.
        let r = endpoint_injection(&ThreadSweepConfig {
            credits: Some((4, 64, 2)),
            ..det(8)
        });
        assert!(r.rc_stalled, "starved pool must stall 8 cores");
        assert!(r.counters.credit_stalls > 0);
        assert!(!r.counters.is_clean());
        // And the default remains clean at the same core count.
        let clean = endpoint_injection(&det(8));
        assert!(clean.counters.is_clean());
    }

    #[test]
    fn markov_stalls_reach_the_multicore_cluster() {
        // Long down-dwells park the NIC; posted writes keep landing, so the
        // stall episodes show up in the recovery counters and throughput
        // drops against the clean run.
        let stalled = endpoint_injection(&ThreadSweepConfig {
            stalls: Some((4_000.0, 2_000.0)),
            ..det(4)
        });
        assert!(stalled.counters.nic_stalls > 0, "stall windows must fire");
        assert!(!stalled.counters.is_clean());
        let clean = endpoint_injection(&det(4));
        assert!(clean.counters.nic_stalls == 0);
        assert!(
            stalled.aggregate_rate_per_us < clean.aggregate_rate_per_us,
            "stalls must cost throughput: {} vs {}",
            stalled.aggregate_rate_per_us,
            clean.aggregate_rate_per_us
        );
    }

    #[test]
    fn one_locked_endpoint_pins_the_rate_flat() {
        // Zambre's pathology: 8 threads funneling through one locked
        // endpoint post no faster than ~1 thread.
        let solo = endpoint_injection(&sweep(1, 1, LockGranularity::GlobalLock));
        let shared = endpoint_injection(&sweep(8, 1, LockGranularity::GlobalLock));
        assert!(shared.lock_contended > 0, "8 threads on one lock contend");
        assert!(shared.lock_wait_time > SimDuration::ZERO);
        assert!(
            shared.aggregate_rate_per_us < 1.3 * solo.aggregate_rate_per_us,
            "a locked shared endpoint must pin the rate near flat: {} vs {}",
            shared.aggregate_rate_per_us,
            solo.aggregate_rate_per_us
        );
    }

    #[test]
    fn independent_vis_scale_but_locked_sharing_does_not() {
        // The headline Zambre ratio at 8 threads: independent VIs versus a
        // single global-locked endpoint.
        let locked = endpoint_injection(&sweep(8, 1, LockGranularity::GlobalLock));
        let indep = endpoint_injection(&sweep(8, 8, LockGranularity::Independent));
        assert!(
            indep.aggregate_rate_per_us >= 4.0 * locked.aggregate_rate_per_us,
            "independent VIs must scale ≥4× over a locked shared endpoint: {} vs {}",
            indep.aggregate_rate_per_us,
            locked.aggregate_rate_per_us
        );
    }

    #[test]
    fn per_endpoint_locks_sit_between_the_extremes() {
        let global = endpoint_injection(&sweep(8, 4, LockGranularity::GlobalLock));
        let per_ep = endpoint_injection(&sweep(8, 4, LockGranularity::PerEndpointLock));
        let indep = endpoint_injection(&sweep(8, 8, LockGranularity::Independent));
        assert!(
            per_ep.aggregate_rate_per_us > global.aggregate_rate_per_us,
            "4 locks beat 1: {} vs {}",
            per_ep.aggregate_rate_per_us,
            global.aggregate_rate_per_us
        );
        assert!(
            indep.aggregate_rate_per_us > per_ep.aggregate_rate_per_us,
            "no locks beat 4: {} vs {}",
            indep.aggregate_rate_per_us,
            per_ep.aggregate_rate_per_us
        );
        // Contention accounting is consistent: per-endpoint locks wait
        // strictly less than the one global lock on the same workload.
        assert!(per_ep.lock_wait_time < global.lock_wait_time);
    }

    /// Without credit pressure the deterministic stack has a closed form:
    /// a post plus its opportunistic poll costs 175.42 + 61.63 = 237.05 ns,
    /// and `s` threads serialize on the busiest lock, so each thread
    /// spends `s × 237.05` ns per message and `T` threads inject
    /// `T / (s × 237.05 ns)`. Two kinds of cell are left out: per-endpoint
    /// locks over an uneven split abort (the min-clock driver lets a
    /// contended acquirer post ahead of other endpoints' threads), and
    /// independent VIs with fewer endpoints than threads share rings.
    #[test]
    fn thread_sweep_rates_match_the_closed_form() {
        let mut cells = Vec::new();
        for t in 1..=8u32 {
            for e in 1..=t {
                cells.push((t, e, LockGranularity::GlobalLock, t));
                if t % e == 0 {
                    cells.push((t, e, LockGranularity::PerEndpointLock, t / e));
                }
            }
            cells.push((t, t, LockGranularity::Independent, 1));
        }
        assert_eq!(cells.len(), 64);
        for (t, e, lock, s) in cells {
            let r = endpoint_injection(&ThreadSweepConfig {
                messages_per_thread: 200,
                ..sweep(t, e, lock)
            });
            let cell = format!("{t} threads over {e} endpoints, {lock:?}");
            assert_eq!(
                r.per_thread_overhead,
                SimDuration::from_ps(u64::from(s) * 237_050),
                "{cell}"
            );
            // The driver divides in another order, so allow a few ulps; the
            // end instant is integer picoseconds, so this still pins it.
            let rate = f64::from(t) / (f64::from(s) * 0.237_05);
            assert!(
                (r.aggregate_rate_per_us / rate - 1.0).abs() < 1e-12,
                "{cell}: {} msg/us vs {rate}",
                r.aggregate_rate_per_us
            );
        }
    }

    /// A what-if link in the stack reaches the thread sweep, as it
    /// reaches `put_bw`, `am_lat` and `osu`: a PCIe link 50× slower per
    /// TLP collapses the injection rate under a starved credit pool.
    #[test]
    fn thread_sweep_honours_what_if_hardware() {
        let cfg = |link: Option<LinkModel>| ThreadSweepConfig {
            stack: StackConfig {
                seed: 3,
                link,
                ..StackConfig::validation()
            },
            credits: Some((2, 16, 1)),
            ..sweep(8, 8, LockGranularity::Independent)
        };
        let default = endpoint_injection(&cfg(None));
        let l = LinkModel::default();
        let slow = LinkModel {
            base: l.base * 50,
            per_byte: l.per_byte * 50,
            ..l
        };
        let r = endpoint_injection(&cfg(Some(slow)));
        assert!(
            r.aggregate_rate_per_us * 10.0 < default.aggregate_rate_per_us,
            "{} msg/us with the slow link vs {} with the default",
            r.aggregate_rate_per_us,
            default.aggregate_rate_per_us
        );
    }

    #[test]
    fn single_thread_lock_models_cost_nothing() {
        // One thread never contends, so every granularity lands on the
        // identical virtual end time — the lock model is free until a
        // second thread shows up.
        let indep = endpoint_injection(&sweep(1, 1, LockGranularity::Independent));
        for lock in [
            LockGranularity::GlobalLock,
            LockGranularity::PerEndpointLock,
        ] {
            let r = endpoint_injection(&sweep(1, 1, lock));
            assert_eq!(r.per_thread_overhead, indep.per_thread_overhead);
            assert_eq!(r.lock_contended, 0);
            assert_eq!(r.lock_wait_time, SimDuration::ZERO);
        }
    }

    #[test]
    fn endpoint_injection_is_deterministic() {
        let a = endpoint_injection(&sweep(6, 3, LockGranularity::PerEndpointLock));
        let b = endpoint_injection(&sweep(6, 3, LockGranularity::PerEndpointLock));
        assert_eq!(a.per_thread_overhead, b.per_thread_overhead);
        assert_eq!(a.lock_wait_time, b.lock_wait_time);
        assert_eq!(a.busy_posts, b.busy_posts);
        assert_eq!(a.lock_contended, b.lock_contended);
    }
}
