//! OSU-style MPI microbenchmarks (§6 of the paper).
//!
//! * **message rate** — windows of `MPI_Isend` closed by `MPI_Waitall`,
//!   with no send-receive synchronization per window (the paper removes it
//!   "for a clear analysis"). The inverse of the measured rate is the
//!   overall injection overhead; the paper observes 263.91 ns against a
//!   264.97 ns model (Equation 2).
//! * **point-to-point latency** — blocking `MPI_Send`/`MPI_Recv` ping-pong;
//!   the paper observes 1336 ns against a 1387.02 ns end-to-end model.

use crate::common::{BenchClock, StackConfig};
use bband_analyzer::PcieAnalyzer;
use bband_fabric::NodeId;
use bband_hlp::{UcpCosts, UcpWorker};
use bband_mpi::{MpiCosts, MpiProcess, MpiRequest};
use bband_profiling::SampleSet;
use bband_sim::SimDuration;

/// Configuration for the message-rate test.
#[derive(Debug, Clone)]
pub struct OsuMrConfig {
    pub stack: StackConfig,
    /// Isends per window (64 in OSU's default).
    pub window: u32,
    /// Number of windows.
    pub windows: u32,
    /// Unsignaled-completion period (c = 64 in UCX).
    pub signal_period: u32,
    /// Software ring depth. OSU on the paper's setup keeps the ring small
    /// enough that busy posts occasionally occur (§6 attributes 3.17 ns per
    /// operation to them).
    pub ring_depth: u32,
}

impl Default for OsuMrConfig {
    fn default() -> Self {
        OsuMrConfig {
            stack: StackConfig::default(),
            window: 512,
            windows: 60,
            signal_period: 64,
            ring_depth: 128,
        }
    }
}

/// Message-rate results.
#[derive(Debug)]
pub struct OsuMrReport {
    /// Mean overall injection overhead (inverse message rate).
    pub inj_overhead: SimDuration,
    /// Messages per second implied by the virtual clock.
    pub rate_mmps: f64,
    /// Busy posts per message (the `Misc` contribution).
    pub busy_per_msg: f64,
    /// Progress calls per message.
    pub prog_per_msg: f64,
    /// RC credit invariant.
    pub rc_never_stalled: bool,
}

/// Run the OSU message-rate test.
pub fn osu_message_rate(cfg: &OsuMrConfig) -> OsuMrReport {
    let mut cluster = cfg.stack.build_cluster();
    let mut analyzer = PcieAnalyzer::tlps_only();
    let mut uct = cfg.stack.build_worker(0);
    uct.set_ring_capacity(cfg.ring_depth);
    let ucp_costs = UcpCosts {
        signal_period: cfg.signal_period,
        ..Default::default()
    };
    let mut sender = MpiProcess::new(UcpWorker::new(uct, ucp_costs), MpiCosts::default());
    sender.init(&mut cluster, &mut analyzer);
    // The target rank is passive: its NIC accepts and ACKs sends; arrived
    // messages park in the unexpected queue (no sync in this variant).
    let mut bench = BenchClock::new(cfg.stack.seed, cfg.stack.deterministic);

    let total = cfg.window as u64 * cfg.windows as u64;
    // One warmup window to reach steady state.
    let mut reqs: Vec<MpiRequest> = Vec::with_capacity(cfg.window as usize);
    for i in 0..cfg.window {
        reqs.push(sender.isend(&mut cluster, NodeId(1), 8, i as i64, &mut analyzer));
    }
    sender.waitall(&mut cluster, &reqs, &mut analyzer);
    let t_start = sender.now();
    for w in 0..cfg.windows {
        reqs.clear();
        for i in 0..cfg.window {
            let tag = ((w as i64 + 1) << 16) | i as i64;
            reqs.push(sender.isend(&mut cluster, NodeId(1), 8, tag, &mut analyzer));
        }
        sender.waitall(&mut cluster, &reqs, &mut analyzer);
        // One measurement update per window (OSU updates per window).
        bench.update(sender.ucp_mut().uct_mut().cpu_mut());
    }
    let elapsed = sender.now().since(t_start);
    cluster.run_until_idle(&mut analyzer);

    let inj = elapsed / total;
    let busy = sender.ucp().uct().busy_posts as f64 / total as f64;
    let prog = sender.ucp().uct().progress_calls as f64 / total as f64;
    OsuMrReport {
        inj_overhead: inj,
        rate_mmps: 1_000.0 / inj.as_ns_f64(),
        busy_per_msg: busy,
        prog_per_msg: prog,
        rc_never_stalled: cluster.rc_never_stalled(),
    }
}

/// Configuration for the point-to-point latency test.
#[derive(Debug, Clone)]
pub struct OsuLatConfig {
    pub stack: StackConfig,
    pub iterations: u64,
    pub warmup: u64,
}

impl Default for OsuLatConfig {
    fn default() -> Self {
        OsuLatConfig {
            stack: StackConfig::default(),
            iterations: 1_000,
            warmup: 32,
        }
    }
}

/// Latency results.
#[derive(Debug)]
pub struct OsuLatReport {
    /// One-way latency samples (RTT/2, measurement update included).
    pub observed: SampleSet,
}

/// Run the OSU point-to-point latency test.
pub fn osu_latency(cfg: &OsuLatConfig) -> OsuLatReport {
    let mut cluster = cfg.stack.build_cluster();
    let mut analyzer = PcieAnalyzer::tlps_only();
    // Latency path posts are all signaled (no moderation on a half-duplex
    // ping-pong; UCX signals eagerly when the queue is otherwise empty).
    let mk = |node: u32, stack: &StackConfig| {
        MpiProcess::new(
            UcpWorker::new(stack.build_worker(node), UcpCosts::default().unmoderated()),
            MpiCosts::default(),
        )
    };
    let mut r0 = mk(0, &cfg.stack);
    let mut r1 = mk(1, &cfg.stack);
    r0.init(&mut cluster, &mut analyzer);
    r1.init(&mut cluster, &mut analyzer);
    let mut bench = BenchClock::new(cfg.stack.seed, cfg.stack.deterministic);
    let mut observed = SampleSet::new();

    for iter in 0..(cfg.warmup + cfg.iterations) {
        let tag = (iter & 0x7FFF) as i64;
        let t0 = r0.now();
        // r1 posts its receive up front (always matched, never unexpected).
        let rx = r1.irecv(tag);
        r0.send(&mut cluster, NodeId(1), 8, tag, &mut analyzer);
        r1.wait(&mut cluster, rx, &mut analyzer);
        r1.send(&mut cluster, NodeId(0), 8, tag, &mut analyzer);
        r0.recv(&mut cluster, tag, &mut analyzer);
        bench.update(r0.ucp_mut().uct_mut().cpu_mut());
        if iter >= cfg.warmup {
            let one_way = r0.now().since(t0) / 2;
            observed.push(one_way);
            bband_metrics::record("osu_iter", one_way);
        }
    }
    OsuLatReport { observed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_rate_overhead_close_to_eq2() {
        // Equation 2: Post (201.98) + Post_prog (59.82) + Misc (3.17)
        // = 264.97 ns; the paper observes 263.91 (within 1%).
        let cfg = OsuMrConfig {
            stack: StackConfig::validation(),
            windows: 40,
            ..Default::default()
        };
        let r = osu_message_rate(&cfg);
        let inj = r.inj_overhead.as_ns_f64();
        assert!(
            (inj - 264.97).abs() / 264.97 < 0.05,
            "overall injection overhead {inj} vs Eq.2's 264.97"
        );
        assert!(r.rc_never_stalled);
    }

    #[test]
    fn moderation_amortizes_progress() {
        // With c = 64, the transport progress per message must be far below
        // one call per message.
        let cfg = OsuMrConfig {
            stack: StackConfig::validation(),
            windows: 40,
            ..Default::default()
        };
        let r = osu_message_rate(&cfg);
        assert!(
            r.prog_per_msg < 0.25,
            "progress per message {} should be amortized by c=64",
            r.prog_per_msg
        );
    }

    #[test]
    fn unmoderated_rate_is_visibly_slower() {
        let base = OsuMrConfig {
            stack: StackConfig::validation(),
            windows: 30,
            ..Default::default()
        };
        let moderated = osu_message_rate(&base).inj_overhead.as_ns_f64();
        let mut unmod = base.clone();
        unmod.signal_period = 1;
        let unmoderated = osu_message_rate(&unmod).inj_overhead.as_ns_f64();
        assert!(
            unmoderated > moderated + 20.0,
            "unsignaled completions should pay off: {unmoderated} vs {moderated}"
        );
    }

    #[test]
    fn latency_close_to_e2e_model() {
        // §6: end-to-end model 1387.02 ns; observed 1336 ns (within 4%).
        let cfg = OsuLatConfig {
            stack: StackConfig::validation(),
            iterations: 300,
            ..Default::default()
        };
        let r = osu_latency(&cfg);
        let corrected = r.observed.summary().mean - 49.69 / 2.0;
        let err = (corrected - 1387.02).abs() / 1387.02;
        assert!(
            err < 0.05,
            "observed e2e latency {corrected:.1} vs model 1387.02 (err {:.1}%)",
            err * 100.0
        );
    }

    #[test]
    fn mpi_latency_exceeds_uct_latency() {
        // The HLP adds ~250 ns on top of the LLP path.
        let mpi_cfg = OsuLatConfig {
            stack: StackConfig::validation(),
            iterations: 100,
            ..Default::default()
        };
        let mpi = osu_latency(&mpi_cfg).observed.summary().mean;
        let uct_cfg = crate::am_lat::AmLatConfig {
            stack: StackConfig::validation(),
            iterations: 100,
            ..Default::default()
        };
        let uct = crate::am_lat::am_lat(&uct_cfg).observed.summary().mean;
        assert!(
            mpi > uct + 150.0,
            "MPI latency {mpi} should exceed UCT latency {uct} by the HLP terms"
        );
    }
}
