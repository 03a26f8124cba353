//! UCX perftest `put_bw`: the RDMA-write injection-rate benchmark (§4.2).
//!
//! Single thread, 8-byte RDMA writes, continuous posting. "The benchmark
//! polls for one completion every 16 posts. Hence, eventually the finite
//! depth of the TxQ is fully utilized after which an LLP_post results in a
//! busy post ... Additionally, the benchmark records a timestamp and
//! updates its injection-rate measurements after every LLP_post."
//!
//! The observed injection overhead is read from the analyzer: deltas
//! between consecutive downstream 64-byte MWr arrivals at the NIC
//! (Figures 6 and 7).

use crate::common::{BenchClock, StackConfig};
use bband_analyzer::PcieAnalyzer;
use bband_fabric::NodeId;
use bband_nic::Opcode;
use bband_profiling::SampleSet;
use bband_sim::SimDuration;

/// Configuration for a `put_bw` run.
#[derive(Debug, Clone)]
pub struct PutBwConfig {
    pub stack: StackConfig,
    /// Messages to inject (the paper averages over ≥100 samples; default
    /// is comfortably more).
    pub messages: u64,
    /// Poll one completion every `poll_interval` posts (16 in UCX
    /// perftest).
    pub poll_interval: u64,
    /// Software ring depth.
    pub ring_depth: u32,
    /// Messages injected before measurement starts (the ring-fill
    /// transient has no busy posts and would drag the mean down; the
    /// paper measures steady state).
    pub warmup: u64,
}

impl Default for PutBwConfig {
    fn default() -> Self {
        PutBwConfig {
            stack: StackConfig::default(),
            messages: 20_000,
            poll_interval: 16,
            ring_depth: 256,
            warmup: 2_048,
        }
    }
}

/// What a `put_bw` run produced.
#[derive(Debug)]
pub struct PutBwReport {
    /// Distribution of the observed injection overhead (analyzer deltas).
    pub observed: SampleSet,
    /// CPU-side per-message time (total loop time / messages).
    pub cpu_time_per_msg: SimDuration,
    /// Busy posts per successful post.
    pub busy_fraction: f64,
    /// Progress calls per successful post.
    pub progress_fraction: f64,
    /// The captured trace (Figure 6 rendering, PCIe samples, ...).
    pub analyzer: PcieAnalyzer,
    /// RC credit invariant: true if no MMIO write ever stalled.
    pub rc_never_stalled: bool,
}

/// Run the benchmark.
pub fn put_bw(cfg: &PutBwConfig) -> PutBwReport {
    let mut cluster = cfg.stack.build_cluster();
    let mut analyzer = PcieAnalyzer::tlps_only();
    let mut worker = cfg.stack.build_worker(0);
    worker.set_ring_capacity(cfg.ring_depth);
    let mut bench = BenchClock::new(cfg.stack.seed, cfg.stack.deterministic);

    let mut posted = 0u64;
    let mut t_start = worker.now();
    let total = cfg.warmup + cfg.messages;
    while posted < total {
        // Post, progressing on busy (the dequeue semantic of §4.2).
        loop {
            match worker.post(
                &mut cluster,
                Opcode::RdmaWrite,
                NodeId(1),
                8,
                true,
                &mut analyzer,
            ) {
                Ok(_) => break,
                Err(_) => {
                    let _ = worker.progress(&mut cluster, &mut analyzer);
                }
            }
        }
        posted += 1;
        // The benchmark's own poll cadence: one completion every 16 posts.
        if posted.is_multiple_of(cfg.poll_interval) {
            let _ = worker.progress(&mut cluster, &mut analyzer);
        }
        // Timestamp + rate-accumulator update after every post.
        bench.update(worker.cpu_mut());
        if posted == cfg.warmup {
            // Steady state reached: restart the measurement window.
            analyzer.clear();
            t_start = worker.now();
        }
    }
    let elapsed = worker.now().since(t_start);
    let cpu_time_per_msg = elapsed / cfg.messages.max(1);

    // Let in-flight traffic land (between-runs quiescence; not measured).
    cluster.run_until_idle(&mut analyzer);

    let mut observed = SampleSet::new();
    for d in analyzer.injection_deltas() {
        observed.push(d);
        // Self-gated: feeds the live-microbenchmark quantile tables when a
        // metrics collector is installed, free otherwise.
        bband_metrics::record("put_bw_iter", d);
    }
    PutBwReport {
        observed,
        cpu_time_per_msg,
        busy_fraction: worker.busy_posts() as f64 / worker.successful_posts().max(1) as f64,
        progress_fraction: worker.progress_calls() as f64 / worker.successful_posts().max(1) as f64,
        rc_never_stalled: cluster.rc_never_stalled(),
        analyzer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(deterministic: bool) -> PutBwConfig {
        PutBwConfig {
            stack: if deterministic {
                StackConfig::validation()
            } else {
                StackConfig::default()
            },
            messages: 3_000,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_injection_matches_model() {
        // Steady state: LLP_post + LLP_prog + busy + measurement ≈ 295.73.
        let report = put_bw(&small(true));
        let mean = report.observed.summary().mean;
        assert!(
            (mean - 295.73).abs() / 295.73 < 0.03,
            "observed injection overhead {mean} vs model 295.73"
        );
        assert!(report.rc_never_stalled, "single core must not stall RC");
    }

    #[test]
    fn steady_state_has_one_busy_post_per_post() {
        let report = put_bw(&small(true));
        // "in the average case, after every successful LLP_post, there
        // occurs a busy post" — the explicit 16th poll shaves 1/16, and the
        // counter includes the ring-fill transient.
        assert!(
            report.busy_fraction > 0.55 && report.busy_fraction <= 1.05,
            "busy fraction {}",
            report.busy_fraction
        );
    }

    #[test]
    fn jittered_distribution_is_right_skewed_with_floor() {
        let report = put_bw(&small(false));
        let s = report.observed.summary();
        assert!(
            s.median < s.mean,
            "right skew: median {} mean {}",
            s.median,
            s.mean
        );
        assert!(s.min > 150.0, "floor too low: {}", s.min);
        assert!(s.min < s.mean * 0.85, "min should sit well below mean");
    }

    #[test]
    fn cpu_time_matches_observed_deltas() {
        // Fig. 5's argument: the NIC-observed delta equals CPU_time.
        let report = put_bw(&small(true));
        let cpu = report.cpu_time_per_msg.as_ns_f64();
        let obs = report.observed.summary().mean;
        assert!(
            (cpu - obs).abs() / obs < 0.02,
            "CPU {cpu} vs NIC-observed {obs}"
        );
    }

    #[test]
    fn trace_is_dominated_by_downstream_64b_writes() {
        let report = put_bw(&small(true));
        let pio = report
            .analyzer
            .downstream_tlps(Some(bband_pcie::TlpPurpose::PioChunk));
        // Warmup is cleared from the trace; the measured window remains
        // (±1 straggler from the warmup boundary still in flight).
        assert!(
            (3_000..=3_002).contains(&pio.len()),
            "every message is one 64-byte PIO MWr, got {}",
            pio.len()
        );
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let a = put_bw(&small(false));
        let b = put_bw(&small(false));
        assert_eq!(a.observed.summary(), b.observed.summary());
    }
}
