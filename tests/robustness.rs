//! Property-based robustness tests across seeds and configurations:
//! whatever the randomness, the system's structural invariants hold.

use breaking_band::fabric::NodeId;
use breaking_band::llp::{LlpCosts, Worker};
use breaking_band::microbench::{
    am_lat, osu_message_rate, put_bw, AmLatConfig, OsuMrConfig, PutBwConfig, StackConfig,
};
use breaking_band::nic::{Cluster, CqeKind, Opcode};
use breaking_band::pcie::NullTap;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Across random seeds, the jittered injection overhead stays within a
    /// tight band of the model (means over 1500+ samples), the ring never
    /// leaks, and the RC never stalls.
    #[test]
    fn put_bw_stable_across_seeds(seed in 0u64..1_000_000) {
        let mut stack = StackConfig { seed, ..Default::default() };
        stack.llp.noise = breaking_band::sim::NoiseSpike::OFF;
        let r = put_bw(&PutBwConfig {
            stack,
            messages: 1_500,
            ..Default::default()
        });
        let mean = r.observed.summary().mean;
        prop_assert!((mean - 295.73).abs() / 295.73 < 0.05,
            "seed {seed}: mean {mean}");
        prop_assert!(r.rc_never_stalled);
    }

    /// Latency stays within 5% of the model regardless of seed.
    #[test]
    fn am_lat_stable_across_seeds(seed in 0u64..1_000_000) {
        let mut stack = StackConfig { seed, ..Default::default() };
        stack.llp.noise = breaking_band::sim::NoiseSpike::OFF;
        let r = am_lat(&AmLatConfig { stack, iterations: 150, warmup: 8 });
        let corrected = r.observed.summary().mean - 49.69 / 2.0;
        prop_assert!((corrected - 1135.8).abs() / 1135.8 < 0.05,
            "seed {seed}: corrected latency {corrected}");
    }

    /// Any moderation period and window size completes without deadlock
    /// and with sane overheads.
    #[test]
    fn message_rate_any_moderation(
        seed in 0u64..100_000,
        period_pow in 0u32..8,
        window_pow in 4u32..9,
    ) {
        let r = osu_message_rate(&OsuMrConfig {
            stack: StackConfig {
                seed,
                deterministic: true,
                llp: LlpCosts::default().deterministic(),
                ..Default::default()
            },
            window: 1 << window_pow,
            windows: 4,
            signal_period: 1 << period_pow,
            ring_depth: 1 << window_pow.max(7),
        });
        let inj = r.inj_overhead.as_ns_f64();
        // Bounded below by Post (201.98); bounded above by Post + a fully
        // unamortized progress chain (prog + dispatch + per-op HLP work)
        // + the per-window completion stall of a small window
        // (gen_completion / window ≈ 80 ns at window = 16).
        prop_assert!(inj > 200.0 && inj < 520.0, "inj {inj}");
    }

    /// Arbitrary interleavings of sends/receives between two workers never
    /// lose a message.
    #[test]
    fn random_interleavings_conserve_messages(
        seed in 0u64..100_000,
        ops in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let cfg = StackConfig {
                seed,
                deterministic: true,
                llp: LlpCosts::default().deterministic(),
                ..Default::default()
            };
        let mut cluster = cfg.build_cluster();
        let mut tap = NullTap;
        let mut w0 = cfg.build_worker(0);
        let mut w1 = cfg.build_worker(1);
        for _ in 0..ops.len() {
            w1.post_recv(&mut cluster, 64, &mut tap);
        }
        let mut sent = 0u32;
        for &do_send in &ops {
            if do_send {
                if w0.post(&mut cluster, Opcode::Send, NodeId(1), 8, true, &mut tap).is_ok() {
                    sent += 1;
                }
            } else {
                let _ = w0.progress(&mut cluster, &mut tap);
            }
        }
        let end = cluster.run_until_idle(&mut tap);
        w1.cpu_mut().advance_to(end);
        let mut received = 0u32;
        while let Some(cqe) = w1.progress(&mut cluster, &mut tap) {
            if cqe.kind == CqeKind::RecvComplete { received += 1; }
        }
        prop_assert_eq!(received, sent, "messages lost or duplicated");
    }
}

/// OS-noise spikes appear in long runs at roughly the configured rate and
/// produce the paper's heavy-tailed maximum.
#[test]
fn noise_spikes_create_heavy_tail() {
    let r = put_bw(&PutBwConfig {
        stack: StackConfig::default(), // noise ON
        messages: 30_000,
        ..Default::default()
    });
    let s = r.observed.summary();
    assert!(
        s.max > 5_000.0,
        "expected at least one multi-microsecond outlier, max = {}",
        s.max
    );
    assert!(
        s.median < 320.0,
        "median must stay near the model despite outliers: {}",
        s.median
    );
}

/// A worker polling an idle system forever makes no progress but also
/// breaks nothing (progress returns None, costs accrue).
#[test]
fn polling_idle_system_is_safe() {
    let mut cluster = Cluster::two_node_paper(1).deterministic();
    let mut tap = NullTap;
    let mut w = Worker::new(NodeId(0), LlpCosts::default().deterministic(), 1);
    for _ in 0..1_000 {
        assert!(w.progress(&mut cluster, &mut tap).is_none());
    }
    assert!((w.now().as_ns_f64() - 61.63 * 1_000.0).abs() < 0.5);
}
