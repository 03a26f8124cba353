//! Trace-derived breakdowns: rebuild the paper's figures from recorded
//! spans and prove them against the analytical models.
//!
//! The instrumented fault path ([`crate::fault`]) emits [`bband_trace`]
//! spans named after the paper's breakdown slices. This module reduces a
//! recorded [`Trace`] back into [`Breakdown`]s and asserts — in tests,
//! bit-exactly in integer picoseconds — that the reconstruction agrees
//! with [`EndToEndLatencyModel`]: a zero-fault traced run of
//! [`traced_e2e`] yields exactly the nine Figure-13 slices per message,
//! summing to [`EndToEndLatencyModel::total`].
//!
//! This is the cross-check the paper performs by measurement (model vs
//! observed, §5): here both sides live in the same integer virtual
//! clock, so agreement is exact, not approximate — any drift between the
//! event-driven simulation and the closed-form model is a test failure,
//! not a tolerance.
//!
//! Reconstruction is DAG-based ([`bband_trace::critical_path`]): stages
//! record explicit happens-after edges, and the breakdown is the longest
//! dependency-weighted path ([`bband_trace::dag`]), not a flat sum. On
//! the zero-fault end-to-end trace each message's nine slices form a
//! chain, so the critical path degrades bit-exactly to
//! [`EndToEndLatencyModel::total`]; on overlapped traces (`put_bw`,
//! multicore) the same reconstruction splits each stage into exposed and
//! hidden time. A traced run keeps every span it records, so every
//! breakdown here covers the whole run.
//!
//! [`EndToEndLatencyModel`]: crate::EndToEndLatencyModel
//! [`EndToEndLatencyModel::total`]: crate::EndToEndLatencyModel::total

use crate::breakdown::Breakdown;
use crate::calibration::Calibration;
use crate::fault::{run_raw_on, EnginePath, FaultPlan, FaultRunStats, RetryExhausted};
use crate::latency::SizedLatencyModel;
use bband_metrics as metrics;
use bband_metrics::MetricsSet;
use bband_sim::{Pcg64, SimDuration, WorkerPool};
use bband_trace as trace;
use bband_trace::Trace;

/// The nine Figure-13 end-to-end slices, in critical-path order. These are
/// the span names the instrumented fault path emits for one message.
pub const FIG13_SLICES: [&str; 9] = [
    "HLP_post",
    "LLP_post",
    "TX PCIe",
    "Wire",
    "Switch",
    "RX PCIe",
    "RC-to-MEM(8B)",
    "LLP_prog",
    "HLP_rx_prog",
];

/// Run the end-to-end fault simulation on engine `path` with tracing
/// enabled. Returns the run result alongside the recorded single-task
/// [`Trace`].
pub fn traced_e2e(
    path: EnginePath,
    cal: &Calibration,
    plan: &FaultPlan,
    messages: u64,
    seed: u64,
) -> (Result<FaultRunStats, RetryExhausted>, Trace) {
    let (out, task) = trace::collect(|| {
        let (stats, aborted) = run_raw_on(path, cal, plan, messages, seed);
        match aborted {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    });
    (out, Trace::from_task(task))
}

/// One point of the `repro sweep-size` latency/bandwidth curve: a traced,
/// metered zero-fault run at one payload size, reduced to the quantities
/// the paper's put_bw-style figures plot.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeSweepPoint {
    /// Application payload per message, bytes.
    pub payload_bytes: u32,
    /// Protocol the sized model selects (and the engine runs): "eager" or
    /// "rendezvous".
    pub protocol: &'static str,
    /// MTU segments the payload travels as.
    pub segments: u32,
    /// Fiber bytes per message, paying the IB header once per segment.
    pub wire_bytes: u64,
    /// The sized analytical model's end-to-end latency.
    pub model_ns: f64,
    /// Engine run statistics (zero-fault: min == max == `model_ns`,
    /// asserted by the sweep itself).
    pub stats: FaultRunStats,
    /// Metered per-message latency quantiles, nanoseconds.
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
    /// Application goodput at the modeled latency, Gbit/s.
    pub goodput_gbps: f64,
    /// Critical-path stage attribution: the top exposed stages of this
    /// size's traced run, `(name, exposed ns)`, largest first.
    pub top_stages: Vec<(String, f64)>,
}

/// The default 8 B → 4 MB grid `repro sweep-size` sweeps: log-spaced
/// sizes straddling the inline cutoff (256 B), the MTU (4 KiB), and the
/// eager/rendezvous crossover (between 16 KiB and 64 KiB on the
/// calibrated ConnectX-4 constants).
pub const DEFAULT_SIZE_GRID: [u32; 10] = [
    8,
    64,
    256,
    1024,
    4096,
    16_384,
    65_536,
    262_144,
    1 << 20,
    1 << 22,
];

/// The payload-size sweep behind `repro sweep-size`: one pool task per
/// size, each a traced *and* metered zero-fault run of `messages`
/// messages at that payload. Every point is proven
/// bit-exact against [`SizedLatencyModel::total`] before it is returned,
/// and its DAG reconstruction attributes the latency to named stages —
/// the eager/rendezvous crossover shows up as RTS/CTS stages entering the
/// attribution. Each task drops its size's spans once it has reduced
/// them to a point, so the sweep holds at most one trace per pool
/// thread. Task seeds fork deterministically from `seed` by index, so
/// serial and pooled sweeps are byte-identical (tested below). Every
/// point runs engine `path`.
pub fn sweep_message_sizes(
    path: EnginePath,
    cal: &Calibration,
    sizes: &[u32],
    messages: u64,
    seed: u64,
    pool: &WorkerPool,
) -> Vec<SizeSweepPoint> {
    pool.map(sizes.to_vec(), |idx, payload| {
        size_point(path, cal, payload, messages, seed, idx).0
    })
}

/// Point `idx` of a size sweep seeded with `seed`, and the trace it was
/// reduced from: a traced and metered zero-fault run of `messages`
/// messages at `payload` bytes, checked bit-exact against the sized
/// model.
fn size_point(
    path: EnginePath,
    cal: &Calibration,
    payload: u32,
    messages: u64,
    seed: u64,
    idx: usize,
) -> (SizeSweepPoint, Trace) {
    let sized = SizedLatencyModel::from_calibration(cal);
    let mut plan = FaultPlan::none();
    plan.payload_bytes = payload;
    let task_seed = Pcg64::new(seed).fork(idx as u64).next_u64();
    let ((run, task), tm) = metrics::collect(|| {
        trace::collect(|| {
            let run = run_raw_on(path, cal, &plan, messages, task_seed);
            feed_recovery_counters(&run.0);
            run
        })
    });
    let (stats, aborted) = run;
    assert!(aborted.is_none(), "a zero-fault sweep point cannot abort");
    let model = sized.total(payload, None);
    assert_eq!(
        stats.min_ns,
        model.as_ns_f64(),
        "engine diverged from the sized model at {payload} B (fastest)"
    );
    assert_eq!(
        stats.max_ns,
        model.as_ns_f64(),
        "engine diverged from the sized model at {payload} B (slowest)"
    );
    let tr = Trace::from_task(task);
    let cp = trace::critical_path(&tr);
    let mut top: Vec<(String, f64)> = cp
        .stages
        .iter()
        .filter(|s| s.exposed > SimDuration::ZERO)
        .map(|s| (s.name.to_string(), s.exposed.as_ns_f64()))
        .collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    top.truncate(5);
    let set = MetricsSet::from_tasks(vec![tm]);
    let e2e = set.hist("e2e_latency").expect("metered latencies");
    let point = SizeSweepPoint {
        payload_bytes: payload,
        protocol: sized.select(payload, None).name(),
        segments: SizedLatencyModel::segments(payload),
        wire_bytes: bband_fabric::segmented_wire_bytes(payload, bband_fabric::MTU),
        model_ns: model.as_ns_f64(),
        stats,
        p50_ns: e2e.quantile_ns(0.5),
        p95_ns: e2e.quantile_ns(0.95),
        p99_ns: e2e.quantile_ns(0.99),
        goodput_gbps: f64::from(payload) * 8.0 / model.as_ns_f64(),
        top_stages: top,
    };
    (point, tr)
}

/// Feed a finished run's per-layer recovery counters into the metrics
/// registry as named counters (no-op unless a collector is live).
fn feed_recovery_counters(stats: &FaultRunStats) {
    let k = &stats.counters;
    metrics::counter("completed", stats.completed);
    metrics::counter("rc_retransmissions", k.rc_retransmissions);
    metrics::counter("rc_naks", k.rc_naks);
    metrics::counter("rc_timeouts", k.rc_timeouts);
    metrics::counter("dll_nacks", k.dll_nacks);
    metrics::counter("dll_replays", k.dll_replays);
    metrics::counter("replay_stalls", k.replay_stalls);
    metrics::counter("credit_stalls", k.credit_stalls);
    metrics::counter("nic_stalls", k.nic_stalls);
    metrics::counter("recovery_time_ps", k.recovery_time.as_ps());
}

/// The `repro metrics` run: `tasks` independent fault simulations fanned
/// out over the pool, each recording every traced stage duration, its
/// per-message end-to-end latency, and its recovery counters into a
/// per-task metrics registry. Registries merge by task index —
/// [`MetricsSet::from_tasks`] — so serial and pooled runs produce
/// identical sets. No span collector is installed: a traced stage
/// records into the metrics registry whether or not tracing is on, so
/// only the histograms leave the tasks, which is what lets this scale to
/// message counts a retained trace could not.
///
/// With a `window` width the registry runs in fixed-width virtual-time
/// window mode (`repro metrics --windows N`): every stage histogram is
/// additionally split into `width`-wide windows of the virtual clock, so
/// long runs expose drift and bursts the aggregate quantiles average
/// away. Window merging keys on `(name, index)` and is deterministic, so
/// pooled and `--serial` runs stay byte-identical in this mode too.
/// Every task runs engine `path`.
#[allow(clippy::too_many_arguments)]
pub fn metered_e2e(
    path: EnginePath,
    cal: &Calibration,
    plan: &FaultPlan,
    messages_per_task: u64,
    tasks: u64,
    seed: u64,
    window: Option<SimDuration>,
    pool: &WorkerPool,
) -> (Vec<(FaultRunStats, Option<RetryExhausted>)>, MetricsSet) {
    let idxs: Vec<u64> = (0..tasks).collect();
    let results = pool.map(idxs, |idx, _| {
        let task_seed = Pcg64::new(seed).fork(idx as u64).next_u64();
        let run = || {
            let run = run_raw_on(path, cal, plan, messages_per_task, task_seed);
            feed_recovery_counters(&run.0);
            run
        };
        match window {
            Some(width) => metrics::collect_windowed(width, run),
            None => metrics::collect(run),
        }
    });
    let (runs, metric_tasks): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    (runs, MetricsSet::from_tasks(metric_tasks))
}

/// Rebuild the Figure-13 end-to-end breakdown from a recorded trace: the
/// per-slice sums over every message traced. On a zero-fault trace of
/// `n` messages each slice equals `n ×` the model's component.
pub fn e2e_breakdown_from_trace(t: &Trace) -> Breakdown {
    let mut b = Breakdown::new("End-to-end latency, trace-derived (Fig. 13)");
    for name in FIG13_SLICES {
        b.push(name, t.total_for(name));
    }
    b
}

/// Sum of the nine Figure-13 slices across the trace — the *sequential*
/// total, `n ×`
/// [`EndToEndLatencyModel::total`](crate::EndToEndLatencyModel::total)
/// on a zero-fault trace of `n` messages. The DAG counterpart is
/// [`bband_trace::critical_path`], which on the same trace is one
/// message's chain, not the sum.
pub fn slice_sum_total(t: &Trace) -> SimDuration {
    FIG13_SLICES
        .iter()
        .map(|name| t.total_for(name))
        .fold(SimDuration::ZERO, |a, d| a + d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::EndToEndLatencyModel;

    fn cal() -> Calibration {
        Calibration::default()
    }

    /// **The acceptance criterion**: the trace-derived breakdown of the
    /// zero-fault 8-byte end-to-end path agrees bit-exactly (integer
    /// picoseconds) with the analytical model — slice by slice, in total,
    /// and through the DAG reconstruction: each message's stages form a
    /// chain, so the critical path is exactly one message's nine slices,
    /// `EndToEndLatencyModel::total()`.
    #[test]
    fn zero_fault_trace_breakdown_matches_model_bit_exactly() {
        let c = cal();
        let n = 16u64;
        let model = EndToEndLatencyModel::from_calibration(&c);
        let (res, t) = traced_e2e(EnginePath::Fast, &c, &FaultPlan::none(), n, 0x5EED);
        assert_eq!(res.unwrap().completed, n);

        let derived = e2e_breakdown_from_trace(&t);
        let expect = model.breakdown();
        assert_eq!(derived.len(), 9);
        for (name, dur) in expect.items() {
            let got = derived.get(name).unwrap();
            assert_eq!(got, *dur * n, "slice {name}: trace {got} != model × {n}");
        }
        assert_eq!(slice_sum_total(&t), model.total() * n);

        // DAG reconstruction: chain degeneracy per message.
        let cp = trace::critical_path(&t);
        assert_eq!(cp.recovery_split().recovery_total, SimDuration::ZERO);
        assert_eq!(
            cp.length,
            model.total(),
            "critical path must be one message's chain, bit-exactly"
        );
        for (name, dur) in expect.items() {
            let s = cp.stage(name).unwrap();
            assert_eq!(s.exposed, *dur, "slice {name}: one exposed instance");
            assert_eq!(s.hidden(), *dur * (n - 1), "slice {name}: rest hidden");
            assert_eq!(s.exposed_count, 1);
        }
    }

    /// Under faults, the trace accounts for the excess: critical-path
    /// slices plus Recovery-layer spans cover the latency the counters
    /// charge to recovery.
    #[test]
    fn faulted_trace_shows_recovery_spans() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.05;
        let (res, t) = traced_e2e(EnginePath::Fast, &c, &plan, 200, 42);
        let stats = res.unwrap();
        assert!(!stats.counters.is_clean());
        assert!(
            trace::critical_path(&t).recovery_split().recovery_total > SimDuration::ZERO
                || t.spans()
                    .any(|(_, s)| s.layer == trace::Layer::Recovery && s.is_instant()),
            "recovery must leave a trace"
        );
        // Dropped packets and control flights are visible by name.
        assert!(t
            .spans()
            .any(|(_, s)| s.name == "pkt_drop" || s.name == "rto_backoff"));
        assert!(t.spans().any(|(_, s)| s.name == "ack_flight"));
    }

    /// The zero-fault traced run and the untraced run agree on latency —
    /// tracing observes the simulation, it never perturbs it.
    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.02;
        let untraced =
            crate::fault::run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 100, 7).unwrap();
        let (traced, _) = traced_e2e(EnginePath::Fast, &c, &plan, 100, 7);
        assert_eq!(untraced, traced.unwrap());
    }

    /// **Recovery-attribution exactness**: every recovery mechanism
    /// accrues its counter time exactly where it records its recovery
    /// span, so the trace's Recovery-layer total equals the run's
    /// `recovery_time` counter bit-exactly in integer picoseconds — the
    /// span DAG and the counter ledger are one bookkeeping, not two.
    #[test]
    fn recovery_spans_account_for_the_counter_ledger_bit_exactly() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.03;
        plan.corruption_probability = 0.01;
        let (res, t) = traced_e2e(EnginePath::Fast, &c, &plan, 300, 11);
        let stats = res.unwrap();
        assert!(!stats.counters.is_clean());
        assert_eq!(
            trace::critical_path(&t).recovery_split().recovery_total,
            stats.counters.recovery_time,
            "recovery spans and the recovery-time counter must agree"
        );
        // The retransmitted legs are visible by name on the recovery
        // track, distinct from the nominal wire/switch slices.
        assert!(t.spans().any(|(_, s)| s.name == "Wire(retx)"));
        assert!(t
            .spans()
            .any(|(_, s)| s.name == "nak_flight" && s.layer == trace::Layer::Recovery));
    }

    /// The lossy DAG names recovery: the critical path splits into
    /// nominal and recovery exposed time, and each completed message's
    /// chain can name the single worst recovery span that lengthened it.
    #[test]
    fn lossy_critical_path_attributes_recovery() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.05;
        let (res, t) = traced_e2e(EnginePath::Fast, &c, &plan, 200, 42);
        res.unwrap();
        let cp = trace::critical_path(&t);
        let split = cp.recovery_split();
        assert_eq!(
            split.nominal_exposed + split.recovery_exposed,
            cp.length,
            "the split partitions the critical path"
        );
        assert!(
            split.recovery_exposed > SimDuration::ZERO,
            "5% loss must expose recovery time on the critical path"
        );
        let recorded = t
            .spans()
            .filter(|(_, s)| s.layer == trace::Layer::Recovery)
            .fold(SimDuration::ZERO, |a, (_, s)| a + s.dur);
        assert_eq!(split.recovery_total, recorded);
        let msgs = trace::per_message_attribution(&t, "HLP_rx_prog");
        assert_eq!(msgs.len(), 200, "one chain per completed message");
        let worst = msgs.iter().max_by_key(|m| m.recovery).unwrap();
        assert!(worst.recovery > SimDuration::ZERO);
        let (name, dur) = worst.worst.expect("a lossy chain names its worst span");
        assert!(dur > SimDuration::ZERO);
        assert!(
            [
                "rto_backoff",
                "nak_flight",
                "Wire(retx)",
                "Switch(retx)",
                "reap_wait"
            ]
            .contains(&name),
            "unexpected worst offender {name}"
        );
        // Clean chains exist too and carry no recovery.
        assert!(msgs
            .iter()
            .any(|m| m.recovery == SimDuration::ZERO && m.worst.is_none()));
    }

    /// `metered_e2e` is pool-invariant: serial and pooled runs merge to
    /// the same [`MetricsSet`] value (the rendered/exported forms are
    /// byte-identical because this value is identical).
    #[test]
    fn metered_e2e_is_pool_invariant() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.01;
        let run = |threads| {
            metered_e2e(
                EnginePath::Fast,
                &c,
                &plan,
                50,
                4,
                0x5EED,
                None,
                &WorkerPool::with_threads(threads),
            )
        };
        let ((runs_a, set_a), (runs_b, set_b)) = (run(1), run(4));
        assert_eq!(runs_a, runs_b);
        assert_eq!(set_a, set_b);
        assert_eq!(set_a.counter_value("completed"), 200);
        let e2e = set_a.hist("e2e_latency").expect("per-message latencies");
        assert_eq!(e2e.count, 200);
    }

    /// The windowed mode keeps the pool-invariance contract: windows
    /// merge keyed on `(name, index)`, so serial and pooled runs produce
    /// the same windowed [`MetricsSet`] value, and the windowed slices
    /// sum back to the aggregate histogram.
    #[test]
    fn windowed_metered_e2e_is_pool_invariant() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.01;
        let width = SimDuration::from_us(25);
        let run = |threads| {
            metered_e2e(
                EnginePath::Fast,
                &c,
                &plan,
                50,
                4,
                0x5EED,
                Some(width),
                &WorkerPool::with_threads(threads),
            )
        };
        let ((runs_a, set_a), (runs_b, set_b)) = (run(1), run(4));
        assert_eq!(runs_a, runs_b);
        assert_eq!(set_a, set_b);
        let series = set_a.window_series("e2e_latency").expect("windowed e2e");
        assert!(
            series.windows.len() > 1,
            "a 50-message stream spans windows"
        );
        let total: u64 = series.windows.iter().map(|w| w.hist.count).sum();
        assert_eq!(total, set_a.hist("e2e_latency").unwrap().count);
    }

    /// On a zero-fault metered run every stage histogram is a spike at
    /// the calibrated mean: p50 == p99.9 == the model component.
    #[test]
    fn zero_fault_metered_quantiles_are_the_calibrated_means() {
        let c = cal();
        let model = EndToEndLatencyModel::from_calibration(&c);
        let (_, set) = metered_e2e(
            EnginePath::Fast,
            &c,
            &FaultPlan::none(),
            32,
            2,
            0x5EED,
            None,
            &WorkerPool::with_threads(2),
        );
        let e2e = set.hist("e2e_latency").unwrap();
        assert_eq!(e2e.count, 64);
        assert_eq!(e2e.min, model.total().as_ps());
        assert_eq!(e2e.max, model.total().as_ps());
        for q in [0.5, 0.95, 0.999] {
            assert_eq!(e2e.quantile(q), model.total().as_ps() as f64, "q={q}");
        }
        for (name, dur) in model.breakdown().items() {
            let h = set.hist(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(h.min, dur.as_ps(), "{name} min");
            assert_eq!(h.max, dur.as_ps(), "{name} max");
        }
        assert_eq!(set.counter_value("rc_retransmissions"), 0);
        assert_eq!(set.counter_value("recovery_time_ps"), 0);
    }

    /// Satellite: a zero-fault ≥ 1 MiB rendezvous transfer, traced — the
    /// engine reproduces the sized model bit-exactly, the handshake and
    /// every per-segment stage are visible by name, and nothing lands on
    /// the Recovery layer.
    #[test]
    fn megabyte_rendezvous_trace_is_model_exact_and_fully_named() {
        let c = cal();
        let sized = crate::latency::SizedLatencyModel::from_calibration(&c);
        let payload = 1u32 << 20;
        assert_eq!(sized.select(payload, None).name(), "rendezvous");
        let mut plan = FaultPlan::none();
        plan.payload_bytes = payload;
        let n = 3u64;
        let (res, t) = traced_e2e(EnginePath::Fast, &c, &plan, n, 0x5EED);
        let stats = res.unwrap();
        assert_eq!(stats.completed, n);
        let model_ns = sized.total(payload, None).as_ns_f64();
        assert_eq!(stats.min_ns, model_ns, "fastest message == sized model");
        assert_eq!(stats.max_ns, model_ns, "slowest message == sized model");
        assert!(stats.counters.is_clean());
        // The rendezvous handshake is visible by name: one RTS flight and
        // one CTS flight per message, plus the DMA fetch of the payload.
        for name in ["RTS_wire", "RTS_switch", "cts_flight", "DMA_fetch"] {
            let count = t.spans().filter(|(_, s)| s.name == name).count() as u64;
            assert_eq!(count, n, "{name}: one per message");
        }
        // Per-segment accounting: every MTU segment pays its own wire leg
        // and its own RC write into host memory.
        let segs = u64::from(crate::latency::SizedLatencyModel::segments(payload));
        assert_eq!(segs, 256);
        let mem = t.spans().filter(|(_, s)| s.name == "RC-to-MEM").count() as u64;
        assert_eq!(mem, segs * n, "one RC-to-MEM write per segment");
        let wire = t.spans().filter(|(_, s)| s.name == "Wire").count() as u64;
        assert_eq!(wire, segs * n, "one wire leg per data segment");
        // The DAG attributes no recorded time to recovery.
        let cp = trace::critical_path(&t);
        assert_eq!(cp.recovery_split().recovery_total, SimDuration::ZERO);
        assert!(cp.stage("RTS_wire").is_some());
    }

    /// The size sweep is pool-invariant — points, and the whole trace each
    /// point was reduced from, are byte-identical between serial and
    /// pooled runs — and every point carries the protocol, quantiles, and
    /// stage attribution the curve artifact needs.
    #[test]
    fn size_sweep_is_pool_invariant_and_crossover_visible() {
        let c = cal();
        let sizes = [8u32, 4096, 65_536, 1 << 20];
        let sweep = |threads| {
            let pool = WorkerPool::with_threads(threads);
            let points = sweep_message_sizes(EnginePath::Fast, &c, &sizes, 8, 0x5EED, &pool);
            // The sweep drops each size's trace; collect them here.
            let traced = pool.map(sizes.to_vec(), |idx, payload| {
                size_point(EnginePath::Fast, &c, payload, 8, 0x5EED, idx)
            });
            let (traced_points, traces): (Vec<_>, Vec<_>) = traced.into_iter().unzip();
            assert_eq!(points, traced_points);
            let json: Vec<String> = traces.iter().map(Trace::to_chrome_json).collect();
            (points, json)
        };
        let (pts_a, tr_a) = sweep(1);
        let (pts_b, tr_b) = sweep(4);
        assert_eq!(pts_a, pts_b);
        assert_eq!(tr_a, tr_b);
        assert_eq!(pts_a.len(), sizes.len());
        // Small sizes go eager, large go rendezvous, and latency grows.
        assert_eq!(pts_a[0].protocol, "eager");
        assert_eq!(pts_a[3].protocol, "rendezvous");
        assert!(pts_a.windows(2).all(|w| w[0].model_ns < w[1].model_ns));
        // Zero-fault: the metered quantiles are a spike at the model.
        for p in &pts_a {
            assert_eq!(p.p50_ns, p.model_ns, "{} B", p.payload_bytes);
            assert_eq!(p.p99_ns, p.model_ns, "{} B", p.payload_bytes);
            assert!(!p.top_stages.is_empty());
        }
        // Per-segment wire accounting feeds the bandwidth axis.
        assert_eq!(pts_a[0].wire_bytes, 38);
        assert_eq!(pts_a[3].segments, 256);
        assert_eq!(pts_a[3].wire_bytes, 256 * (30 + 4096));
        // The crossover is attributed to the handshake: the rendezvous
        // point's critical path includes an RTS/CTS stage by name.
        let rndv_stages: Vec<&str> = pts_a[3]
            .top_stages
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(
            rndv_stages
                .iter()
                .any(|n| n.starts_with("RTS") || *n == "cts_flight" || *n == "DMA_fetch"),
            "rendezvous attribution must name the handshake: {rndv_stages:?}"
        );
        // Goodput rises monotonically toward the large-message asymptote.
        assert!(pts_a
            .windows(2)
            .all(|w| w[0].goodput_gbps < w[1].goodput_gbps));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// A lossy run's critical path is never shorter than the
        /// zero-fault chain, and the exposed recovery time accounts for
        /// the difference up to bounded nominal slack: a retransmitted
        /// final hop removes at most one wire+switch of nominal time, and
        /// each reap-wait join on the path can splice in at most one
        /// extra message's nominal chain.
        #[test]
        fn lossy_critical_path_dominates_zero_fault(
            seed in 0u64..1u64 << 32,
            loss_mille in 1u64..60,
        ) {
            let c = cal();
            let model = EndToEndLatencyModel::from_calibration(&c);
            let (res0, t0) = traced_e2e(EnginePath::Fast, &c, &FaultPlan::none(), 48, seed);
            res0.unwrap();
            let cp0 = trace::critical_path(&t0);
            prop_assert_eq!(cp0.length, model.total());

            let mut plan = FaultPlan::none();
            plan.loss_probability = loss_mille as f64 / 1000.0;
            let (res, t) = traced_e2e(EnginePath::Fast, &c, &plan, 48, seed);
            res.unwrap();
            let cp = trace::critical_path(&t);
            prop_assert!(
                cp.length >= cp0.length,
                "lossy CP {} < zero-fault CP {}", cp.length, cp0.length
            );

            let split = cp.recovery_split();
            prop_assert_eq!(
                split.nominal_exposed + split.recovery_exposed,
                cp.length
            );
            let diff = cp.length - cp0.length;
            let net = c.wire() + c.switch();
            // Upper slack: nominal exposed can fall short of the
            // zero-fault chain by at most one wire+switch (retx hop).
            prop_assert!(
                split.recovery_exposed <= diff + net,
                "recovery exposed {} > diff {} + net {}",
                split.recovery_exposed, diff, net
            );
            // Lower slack: reap-wait joins splice nominal time in.
            let reap_links = cp
                .stage("reap_wait")
                .map_or(0, |s| s.exposed_count);
            let slack = net + model.total() * reap_links;
            prop_assert!(
                split.recovery_exposed + slack >= diff,
                "recovery exposed {} + slack {} < diff {}",
                split.recovery_exposed, slack, diff
            );
        }
    }
}
