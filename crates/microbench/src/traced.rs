//! Traced variants of the live microbenchmarks.
//!
//! Each wrapper runs the untouched benchmark loop inside a
//! [`bband_trace::collect`] scope, so every layer's stage instrumentation
//! (LLP posts, PCIe TLP flights, NIC launches, wire segments, RC DMA
//! writes, progress polls) lands in one ring with its happens-after edges
//! intact. The returned [`Trace`] feeds the DAG critical-path
//! reconstructor (`bband_trace::dag`) and the Chrome export — the same
//! pipeline the model-faithful fault engine's traces flow through, which
//! is what makes the `repro trace --bench` diff meaningful.
//!
//! Ring capacity is sized from the workload so the ring never wraps: the
//! reconstructor refuses truncated graphs, and a silent wrap would turn a
//! bandwidth run's breakdown into a lie. ~24 spans cover one message's
//! worth of stages on every layer with 2× headroom.

use crate::am_lat::{am_lat, AmLatConfig, AmLatReport};
use crate::multicore::{endpoint_injection, ThreadSweepConfig, ThreadSweepReport};
use crate::osu::{osu_latency, OsuLatConfig, OsuLatReport};
use crate::put_bw::{put_bw, PutBwConfig, PutBwReport};
use bband_trace::{self as trace, Trace};

/// Spans allocated per traced message/iteration (upper bound with slack).
const SPANS_PER_MSG: u64 = 24;

fn ring_capacity(units: u64) -> usize {
    units.saturating_mul(SPANS_PER_MSG).clamp(1 << 12, 1 << 22) as usize
}

/// Run [`put_bw`] with stage tracing enabled.
///
/// The interesting structure: the CPU spine (`busy_post` → `LLP_post` →
/// `LLP_prog` → ...) is serial, while each message's hardware chain
/// (`TX PCIe` → `nic_tx` → `net_flight` → ...) overlaps later CPU work.
/// The DAG critical path is therefore strictly shorter than the stage
/// sum — the hidden time is exactly the hardware latency the pipelined
/// benchmark buys back.
pub fn traced_put_bw(cfg: &PutBwConfig) -> (PutBwReport, Trace) {
    let cap = ring_capacity(cfg.warmup + cfg.messages);
    let (report, task) = trace::collect(cap, || put_bw(cfg));
    (report, Trace::from_task(task))
}

/// Run [`am_lat`] with stage tracing enabled. A ping-pong is nearly a
/// chain — each iteration's hardware must land before the peer's CPU can
/// react — so the critical path sits close to the stage sum, with only
/// the transport-ACK flights hidden behind the reverse direction.
pub fn traced_am_lat(cfg: &AmLatConfig) -> (AmLatReport, Trace) {
    let cap = ring_capacity((cfg.warmup + cfg.iterations).saturating_mul(4));
    let (report, task) = trace::collect(cap, || am_lat(cfg));
    (report, Trace::from_task(task))
}

/// Run [`osu_latency`] with stage tracing enabled (MPI blocking ping-pong
/// through the full HLP/LLP stack).
pub fn traced_osu_latency(cfg: &OsuLatConfig) -> (OsuLatReport, Trace) {
    // The MPI ping-pong runs two full HLP/LLP stacks, each polling — its
    // span rate is well above put_bw's, so budget extra headroom.
    let cap = ring_capacity((cfg.warmup + cfg.iterations).saturating_mul(4));
    let (report, task) = trace::collect(cap, || osu_latency(cfg));
    (report, Trace::from_task(task))
}

/// Run [`endpoint_injection`] with stage tracing enabled.
///
/// Each thread's `LLP_post`/`busy_post`/`LLP_prog` spans form that
/// thread's serial CPU spine, while every thread's MMIO writes funnel
/// through the one root complex: a write that parks for posted-write
/// credits records a `credit_wait` recovery stage chained after both its
/// own thread and the RC's previous departure. On a starved pool the DAG
/// critical path therefore threads *across* cores through the shared RC
/// track, and the credit stalls show up as exposed recovery time — the
/// congestion the paper scopes out of its single-core model (§4.2), made
/// attributable.
///
/// Threads sharing a locked endpoint also record `lock_wait` recovery
/// stages: each wait chains after both the waiter's own CPU spine and the
/// previous wait on the same lock, so cross-thread serialization threads
/// through the trace the same way credit stalls thread through the shared
/// RC track.
pub fn traced_endpoint_injection(cfg: &ThreadSweepConfig) -> (ThreadSweepReport, Trace) {
    let units = cfg
        .messages_per_thread
        .saturating_mul(u64::from(cfg.threads.max(1)));
    let (report, task) = trace::collect(ring_capacity(units), || endpoint_injection(cfg));
    (report, Trace::from_task(task))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::StackConfig;
    use bband_llp::LockGranularity;
    use bband_sim::SimDuration;
    use bband_trace::critical_path;

    fn bw_cfg() -> PutBwConfig {
        PutBwConfig {
            stack: StackConfig::validation(),
            messages: 1_500,
            warmup: 256,
            ..Default::default()
        }
    }

    #[test]
    fn put_bw_critical_path_is_shorter_than_stage_sum() {
        let (report, trace) = traced_put_bw(&bw_cfg());
        assert_eq!(trace.dropped(), 0, "ring sized to never wrap");
        let cp = critical_path(&trace).unwrap();
        // Pipelining: hardware stages hide behind the CPU spine.
        assert!(
            cp.length < cp.stage_sum,
            "overlap must shorten the path: {:?} vs {:?}",
            cp.length,
            cp.stage_sum
        );
        assert!(cp.hidden_total() > SimDuration::ZERO);
        // The hidden time is hardware, not CPU: every wire flight
        // overlaps later posts, so net_flight is (almost) fully hidden.
        let wire = cp.stage("net_flight").expect("wire stages recorded");
        assert!(
            wire.hidden() > wire.total / 2,
            "most wire time hides behind the CPU spine"
        );
        // The CPU spine bounds the run: LLP_post is mostly exposed.
        let post = cp.stage("LLP_post").expect("posts recorded");
        assert!(
            post.exposed > post.total / 2,
            "the serial CPU spine is the bottleneck in put_bw"
        );
        // Tracing must not perturb the simulation itself.
        let mean = report.observed.summary().mean;
        assert!(
            (mean - 295.73).abs() / 295.73 < 0.03,
            "traced run still matches the model: {mean}"
        );
    }

    #[test]
    fn put_bw_exposed_time_sums_to_the_critical_path() {
        let (_, trace) = traced_put_bw(&bw_cfg());
        let cp = critical_path(&trace).unwrap();
        let exposed: SimDuration = cp
            .stages
            .iter()
            .map(|s| s.exposed)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(exposed, cp.length);
        assert!(cp.path_len > 1_000, "a long run has a long spine");
    }

    #[test]
    fn traced_put_bw_is_deterministic() {
        let (_, a) = traced_put_bw(&bw_cfg());
        let (_, b) = traced_put_bw(&bw_cfg());
        assert_eq!(a.to_chrome_json(), b.to_chrome_json());
    }

    #[test]
    fn am_lat_is_nearly_a_chain() {
        let cfg = AmLatConfig {
            stack: StackConfig::validation(),
            iterations: 100,
            warmup: 8,
        };
        let (_, trace) = traced_am_lat(&cfg);
        let cp = critical_path(&trace).unwrap();
        assert!(cp.length < cp.stage_sum, "ACK flights still overlap");
        // But far less hidden than put_bw: the ping-pong serializes the
        // two directions, so the critical path dominates the sum.
        let ratio = cp.length.as_ns_f64() / cp.stage_sum.as_ns_f64();
        assert!(
            ratio > 0.45,
            "ping-pong should expose most stage time, got {ratio:.2}"
        );
    }

    fn starved_mc_cfg() -> ThreadSweepConfig {
        ThreadSweepConfig {
            stack: StackConfig::validation(),
            threads: 8,
            endpoints: 8,
            lock: LockGranularity::Independent,
            messages_per_thread: 300,
            ring_depth: 16,
            // 4 header credits replenished 2 at a time: 8 concurrent
            // posters must park MMIO writes at the RC.
            credits: Some((4, 64, 2)),
            stalls: None,
        }
    }

    #[test]
    fn starved_multicore_exposes_credit_waits_on_the_critical_path() {
        let (report, trace) = traced_endpoint_injection(&starved_mc_cfg());
        assert!(report.rc_stalled, "the starved pool must stall");
        assert_eq!(trace.dropped(), 0, "ring sized to never wrap");
        let cp = critical_path(&trace).unwrap();
        let wait = cp.stage("credit_wait").expect("parked writes recorded");
        assert!(
            wait.exposed > SimDuration::ZERO,
            "credit starvation must surface as exposed recovery time"
        );
        let split = cp.recovery_split();
        assert!(split.recovery_exposed >= wait.exposed);
        assert_eq!(split.nominal_exposed + split.recovery_exposed, cp.length);
        // Per-core spines are present alongside the shared RC track.
        assert!(cp.stage("LLP_post").is_some());
        assert!(cp.stage("TX PCIe").is_some());
    }

    #[test]
    fn multicore_stall_ledger_matches_the_recovery_track_bit_exactly() {
        // The cluster accrues stall time exactly where it records its
        // recovery-track stages, so the trace's Recovery-layer total and
        // the counters' recovery_time agree in integer picoseconds — the
        // same single-bookkeeping invariant the fault engine holds.
        let (report, trace) = traced_endpoint_injection(&ThreadSweepConfig {
            stalls: Some((4_000.0, 2_000.0)),
            ..starved_mc_cfg()
        });
        assert!(report.counters.credit_stalls > 0);
        assert!(report.counters.nic_stalls > 0);
        let recovery: SimDuration = trace
            .spans()
            .filter(|(_, s)| s.layer == bband_trace::Layer::Recovery)
            .map(|(_, s)| s.dur)
            .fold(SimDuration::ZERO, |a, d| a + d);
        assert_eq!(recovery, report.counters.recovery_time);
        assert!(recovery > SimDuration::ZERO);
    }

    #[test]
    fn unstarved_multicore_records_no_recovery_stages() {
        let (report, trace) = traced_endpoint_injection(&ThreadSweepConfig {
            stack: StackConfig::validation(),
            threads: 4,
            endpoints: 4,
            lock: LockGranularity::Independent,
            messages_per_thread: 200,
            ring_depth: 16,
            credits: None,
            stalls: None,
        });
        assert!(!report.rc_stalled);
        assert!(report.counters.is_clean());
        assert!(!trace
            .spans()
            .any(|(_, s)| s.layer == bband_trace::Layer::Recovery && !s.is_instant()));
        let cp = critical_path(&trace).unwrap();
        assert_eq!(cp.recovery_split().recovery_exposed, SimDuration::ZERO);
    }

    #[test]
    fn locked_sweep_exposes_lock_waits_on_the_critical_path() {
        // 8 threads funneling through one global-locked endpoint: almost
        // every post waits, and the waits must surface as first-class
        // recovery stages alongside the per-thread CPU spines.
        let (report, trace) = traced_endpoint_injection(&ThreadSweepConfig {
            stack: StackConfig::validation(),
            threads: 8,
            endpoints: 1,
            lock: LockGranularity::GlobalLock,
            messages_per_thread: 200,
            ring_depth: 16,
            credits: None,
            stalls: None,
        });
        assert!(report.lock_contended > 0);
        assert_eq!(trace.dropped(), 0, "ring sized to never wrap");
        let cp = critical_path(&trace).unwrap();
        let wait = cp.stage("lock_wait").expect("contended waits recorded");
        assert!(
            wait.exposed > SimDuration::ZERO,
            "lock contention must surface as exposed recovery time"
        );
        let split = cp.recovery_split();
        assert!(split.recovery_exposed >= wait.exposed);
        assert_eq!(split.nominal_exposed + split.recovery_exposed, cp.length);
        assert!(cp.stage("LLP_post").is_some());
    }

    #[test]
    fn sweep_ledger_matches_the_recovery_track_bit_exactly() {
        // Single bookkeeping across both wait sources: the trace's
        // Recovery-layer total is exactly the cluster's recovery_time
        // (credit + NIC stalls) plus the lock model's wait ledger, in
        // integer picoseconds.
        let (report, trace) = traced_endpoint_injection(&ThreadSweepConfig {
            stack: StackConfig::validation(),
            threads: 8,
            endpoints: 4,
            lock: LockGranularity::PerEndpointLock,
            messages_per_thread: 200,
            ring_depth: 16,
            credits: Some((4, 64, 2)),
            stalls: None,
        });
        assert!(report.lock_wait_time > SimDuration::ZERO);
        let recovery: SimDuration = trace
            .spans()
            .filter(|(_, s)| s.layer == bband_trace::Layer::Recovery)
            .map(|(_, s)| s.dur)
            .fold(SimDuration::ZERO, |a, d| a + d);
        assert_eq!(
            recovery,
            report.counters.recovery_time + report.lock_wait_time
        );
        let lock_total: SimDuration = trace
            .spans()
            .filter(|(_, s)| s.name == "lock_wait")
            .map(|(_, s)| s.dur)
            .fold(SimDuration::ZERO, |a, d| a + d);
        assert_eq!(lock_total, report.lock_wait_time);
    }

    #[test]
    fn independent_sweep_records_no_lock_waits() {
        let (report, trace) = traced_endpoint_injection(&ThreadSweepConfig {
            stack: StackConfig::validation(),
            threads: 4,
            endpoints: 4,
            lock: LockGranularity::Independent,
            messages_per_thread: 200,
            ring_depth: 16,
            credits: None,
            stalls: None,
        });
        assert_eq!(report.lock_acquisitions, 0);
        assert!(!trace.spans().any(|(_, s)| s.name == "lock_wait"));
    }

    #[test]
    fn osu_latency_traces_through_the_mpi_stack() {
        let cfg = OsuLatConfig {
            stack: StackConfig::validation(),
            iterations: 60,
            warmup: 8,
        };
        let (report, trace) = traced_osu_latency(&cfg);
        assert!(!trace.is_empty());
        let cp = critical_path(&trace).unwrap();
        assert!(cp.length <= cp.stage_sum);
        assert!(cp.stage("LLP_post").is_some());
        assert!(cp.stage("TX PCIe").is_some());
        let corrected = report.observed.summary().mean - 49.69 / 2.0;
        assert!(
            (corrected - 1387.02).abs() / 1387.02 < 0.05,
            "traced OSU latency still matches the model: {corrected:.1}"
        );
    }
}
