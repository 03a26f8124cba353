//! The `repro` harness's target table: one entry per table/figure of the
//! paper, each running its experiment once and returning the rendered
//! text plus every artifact exported from that same run.

use bband_core::fault::{self, EnginePath, FaultPlan};
use bband_core::latency::Category;
use bband_core::tracepath;
use bband_core::validate::{validate_all, ValidationScale};
use bband_core::whatif::Component;
use bband_core::{hlp_breakdown, profiles};
use bband_core::{
    Breakdown, Calibration, EndToEndLatencyModel, InjectionModel, LlpLatencyModel,
    OverallInjectionModel, ScalingModel, WhatIf,
};
use bband_llp::LockGranularity;
use bband_metrics::MetricsSet;
use bband_microbench::{
    am_lat, credit_exhaustion_onset_with, eager_rndv_sweep, endpoint_injection, osu_latency,
    put_bw, AmLatConfig, OsuLatConfig, PutBwConfig, StackConfig, ThreadSweepConfig,
};
use bband_mpi::{collective_scaling, Collective};
use bband_profiling::profiler::UCS_OVERHEAD_MEAN_NS;
use bband_report::{
    breakdown_json, curves_json, fabric_telemetry_json, loss_sweep_json, metrics_json,
    rank_sweep_json, render_bar, render_critical_path, render_curves, render_fabric_heatmap,
    render_fault_check, render_flame, render_histogram, render_loss_sweep, render_quantiles,
    render_rank_sweep, render_recovery_attribution, render_size_sweep, render_table1,
    render_thread_sweep, render_windowed_quantiles, segmented_fault_check, size_sweep_json,
    thread_sweep_json, to_json, ThreadBaseline, ThreadPoint, ZambreCheck,
};
use bband_sim::{SimDuration, WorkerPool};
use bband_trace::{critical_path, per_message_attribution, Trace};

/// Experiment scale: quick (tests and CI) or full (the harness default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    fn put_bw_messages(self) -> u64 {
        match self {
            Scale::Quick => 3_000,
            Scale::Full => 20_000,
        }
    }

    /// Stable lowercase name for JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// What `repro`'s flags ask of a target.
#[derive(Debug)]
pub struct Opts {
    pub scale: Scale,
    /// `--bench`: `trace` or `metrics` runs this live microbenchmark
    /// instead of the fault engine.
    pub bench: Option<String>,
    /// `--windows N`: `metrics` also splits its histograms into N
    /// virtual-time windows.
    pub windows: Option<u64>,
    /// `--telemetry`: `sweep-ranks` also renders its fabric heatmaps.
    pub telemetry: bool,
    /// `--json` or `--out` was given: targets export their artifacts.
    pub artifacts: bool,
    /// `--faults`: the fault plan every fault-aware target runs under
    /// (fault-free by default).
    pub plan: FaultPlan,
    /// `--reference`: the path every fault-engine run takes (fast by
    /// default).
    pub path: EnginePath,
    /// `--seed`: the master seed of every stack and engine run (the
    /// default stack's seed unless given).
    pub seed: u64,
    /// The pool every fan-out inside a target runs on (one thread under
    /// `--serial`).
    pub pool: WorkerPool,
}

impl Opts {
    /// The jittered stack, seeded with `--seed`.
    fn stack(&self) -> StackConfig {
        StackConfig {
            seed: self.seed,
            ..StackConfig::default()
        }
    }

    /// The deterministic stack, seeded with `--seed`.
    fn validation_stack(&self) -> StackConfig {
        StackConfig {
            seed: self.seed,
            ..StackConfig::validation()
        }
    }
}

/// One target's result: the text `repro` prints and, when
/// [`Opts::artifacts`] is set, the artifacts of the same run as
/// `(name, JSON)` pairs, written as `NAME.json`.
#[derive(Debug)]
pub struct Output {
    pub text: String,
    pub artifacts: Vec<(&'static str, String)>,
}

impl Output {
    /// Attach artifact `name`, rendering `json` only if artifacts were
    /// asked for.
    fn with(mut self, o: &Opts, name: &'static str, json: impl FnOnce() -> String) -> Self {
        if o.artifacts {
            self.artifacts.push((name, json()));
        }
        self
    }
}

impl From<String> for Output {
    fn from(text: String) -> Self {
        Output {
            text,
            artifacts: Vec::new(),
        }
    }
}

/// Table 1.
fn table1() -> String {
    render_table1(&Calibration::default())
}

/// A breakdown figure: `b` and then each of `more` rendered as bars; the
/// artifact is `b` alone.
fn breakdown_figure(o: &Opts, name: &'static str, b: &Breakdown, more: &[Breakdown]) -> Output {
    let mut text = render_bar(b);
    for m in more {
        text.push('\n');
        text.push_str(&render_bar(m));
    }
    Output::from(text).with(o, name, || to_json(&breakdown_json(b)))
}

/// Figure 4: LLP_post phase breakdown.
fn fig4(o: &Opts) -> Output {
    let b = InjectionModel::llp_post_breakdown(&Calibration::default());
    breakdown_figure(o, "fig4", &b, &[])
}

/// Figure 6: PCIe trace snippet (downstream transactions of put_bw).
fn fig6(o: &Opts) -> String {
    let report = put_bw(&PutBwConfig {
        stack: o.stack(),
        messages: o.scale.put_bw_messages().min(64),
        warmup: 0,
        ..Default::default()
    });
    let mut out = String::from("Figure 6: PCIe trace of downstream PCIe transactions (put_bw)\n");
    let downstream = report.analyzer.downstream_tlps(None);
    for rec in downstream.iter().take(12) {
        out.push_str(&rec.render());
        out.push('\n');
    }
    out
}

/// Figure 7: distribution of the observed injection overhead.
fn fig7(o: &Opts) -> String {
    let report = put_bw(&PutBwConfig {
        stack: o.stack(),
        messages: o.scale.put_bw_messages(),
        ..Default::default()
    });
    render_histogram(
        "Figure 7: observed injection overhead (put_bw, PCIe trace deltas)",
        &report.observed,
        0.0,
        500.0,
        25,
    )
}

/// Figure 8: LLP-level injection breakdown.
fn fig8(o: &Opts) -> Output {
    let b = InjectionModel::from_calibration(&Calibration::default()).breakdown();
    breakdown_figure(o, "fig8", &b, &[])
}

/// Figure 10: LLP-level latency breakdown (plus the am_lat observation).
fn fig10(o: &Opts) -> String {
    let c = Calibration::default();
    let model = LlpLatencyModel::from_calibration(&c);
    let mut out = render_bar(&model.breakdown());
    let obs = am_lat(&AmLatConfig {
        stack: o.stack(),
        iterations: match o.scale {
            Scale::Quick => 200,
            Scale::Full => 1_000,
        },
        warmup: 16,
    });
    let corrected = obs.observed.mean_ns() - UCS_OVERHEAD_MEAN_NS / 2.0;
    out.push_str(&format!(
        "  modeled total (incl. LLP_prog): {:.2} ns; observed (am_lat, corrected): {corrected:.2} ns\n",
        model.total().as_ns_f64(),
    ));
    out
}

/// Figure 11: HLP split between MPICH and UCP.
fn fig11() -> String {
    let c = Calibration::default();
    let mut out = render_bar(&hlp_breakdown::isend_split(&c));
    out.push('\n');
    out.push_str(&render_bar(&hlp_breakdown::rx_wait_split(&c)));
    out
}

/// Figure 12: overall injection breakdown.
fn fig12(o: &Opts) -> Output {
    let b = OverallInjectionModel::from_calibration(&Calibration::default()).breakdown();
    breakdown_figure(o, "fig12", &b, &[])
}

/// Figure 13: end-to-end latency breakdown.
fn fig13(o: &Opts) -> Output {
    let b = EndToEndLatencyModel::from_calibration(&Calibration::default()).breakdown();
    let mut out = breakdown_figure(o, "fig13", &b, &[]);
    out.text
        .push_str(&format!("  end-to-end total: {}\n", b.total()));
    out
}

/// Figure 14: HLP vs LLP during initiation and progress.
fn fig14() -> String {
    let c = Calibration::default();
    let mut out = String::new();
    for b in [
        hlp_breakdown::initiation_split(&c),
        hlp_breakdown::tx_progress_split(&c),
        hlp_breakdown::rx_progress_split(&c),
    ] {
        out.push_str(&render_bar(&b));
        out.push('\n');
    }
    out.push_str(&format!(
        "  RX/TX progress ratio: {:.2}x (paper: 4.78x)\n",
        hlp_breakdown::rx_to_tx_progress_ratio(&c)
    ));
    out
}

/// Figure 15: category breakdown of the end-to-end latency.
fn fig15(o: &Opts) -> Output {
    let model = EndToEndLatencyModel::from_calibration(&Calibration::default());
    let subs = [Category::Cpu, Category::Io, Category::Network]
        .map(|cat| model.category_sub_breakdown(cat));
    breakdown_figure(o, "fig15", &model.category_breakdown(), &subs)
}

/// Figure 16: on-node time breakdown.
fn fig16(o: &Opts) -> Output {
    let model = EndToEndLatencyModel::from_calibration(&Calibration::default());
    let splits = [
        model.initiator_split(),
        model.target_split(),
        model.target_io_split(),
    ];
    breakdown_figure(o, "fig16", &model.on_node_breakdown(), &splits)
}

/// One panel of Figure 17; its artifact carries the curves under the
/// short title `fig17<panel>`.
fn fig17(o: &Opts, panel: char) -> Output {
    let w = WhatIf::new(Calibration::default());
    let (name, title, comps, latency): (_, _, &[Component], _) = match panel {
        'a' => (
            "fig17a",
            "Figure 17a: injection speedup vs CPU-component reduction",
            &Component::FIG17A,
            false,
        ),
        'b' => (
            "fig17b",
            "Figure 17b: latency speedup vs CPU-component reduction",
            &Component::FIG17B,
            true,
        ),
        'c' => (
            "fig17c",
            "Figure 17c: latency speedup vs I/O-component reduction",
            &Component::FIG17C,
            true,
        ),
        'd' => (
            "fig17d",
            "Figure 17d: latency speedup vs network-component reduction",
            &Component::FIG17D,
            true,
        ),
        other => panic!("unknown Figure 17 panel: {other}"),
    };
    let curves: Vec<_> = comps
        .iter()
        .map(|&c| (c, w.curve(c, latency, &WhatIf::GRID)))
        .collect();
    Output::from(render_curves(title, &curves))
        .with(o, name, || to_json(&curves_json(name, &curves)))
}

/// §7's headline claims, evaluated.
fn claims() -> String {
    let mut out = String::from("Section 7 claims:\n");
    for c in WhatIf::new(Calibration::default()).claims() {
        out.push_str(&format!(
            "  [{}] {} -> model {:.2}% (paper {:.2}%)\n",
            if c.holds { "ok" } else { "FAIL" },
            c.name,
            c.speedup_pct,
            c.paper_pct
        ));
    }
    out
}

/// Model-vs-observed validation table.
fn validation(o: &Opts) -> String {
    let s = match o.scale {
        Scale::Quick => ValidationScale::quick(),
        Scale::Full => ValidationScale::default(),
    };
    let report = validate_all(&Calibration::default(), s, true, &o.plan, o.path, o.seed);
    let mut out = String::from(
        "Model vs simulated observation (jittered system):\n\
         quantity                              model(ns)  observed(ns)  error\n",
    );
    for row in &report.rows {
        out.push_str(&format!(
            "  {:<36} {:>9.2} {:>12.2} {:>6.2}% [{}]\n",
            row.name,
            row.modeled_ns,
            row.observed_ns,
            row.error_frac * 100.0,
            if row.passes() { "ok" } else { "FAIL" }
        ));
    }
    out.push_str(&format!(
        "  recovery (e2e run, active fault plan): {} [{}]\n",
        report.counters.render_compact(),
        if report.counters.is_clean() {
            "clean"
        } else {
            "ENGAGED"
        }
    ));
    out
}

/// Extension experiments beyond the paper's figures.
fn ext_scaling() -> String {
    let m = ScalingModel::new(Calibration::default());
    let mut out = String::from(
        "Message-size scaling (UCT latency model; extension of §1's argument)
",
    );
    out.push_str(&format!(
        "  {:>10}  {:>12}  {:>10}
",
        "bytes", "latency", "network %"
    ));
    let mut x = 8u32;
    while x <= 1 << 20 {
        out.push_str(&format!(
            "  {x:>10}  {:>10.1}ns  {:>9.1}%
",
            m.latency_ns(x),
            m.network_share(x) * 100.0
        ));
        x *= 4;
    }
    out.push_str(&format!(
        "  network-majority crossover: {:?} bytes
",
        m.crossover_size(0.5)
    ));
    out
}

/// Eager-vs-rendezvous crossover, measured on the simulated stack.
fn ext_crossover(o: &Opts) -> String {
    let rows = eager_rndv_sweep(
        &o.validation_stack(),
        &[4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024],
    );
    let mut out = String::from(
        "Eager vs rendezvous (measured, deterministic)
",
    );
    for (p, e, r) in rows {
        out.push_str(&format!(
            "  {p:>8} B  eager {e:>10.1} ns  rndv {r:>10.1} ns  -> {}
",
            if e <= r { "eager" } else { "rendezvous" }
        ));
    }
    out
}

/// Multi-core credit-exhaustion onset (§4.2's excluded regime). A
/// `--faults` plan's `credits` block overrides the posted-credit pools,
/// and its `markov_stall` block parks the NICs in correlated stall
/// windows, so faulted configurations show the onset moving to fewer
/// cores.
fn ext_multicore(o: &Opts) -> String {
    let credits = o.plan.credits.map(|c| (c.hdr, c.data, c.update_batch));
    let stalls = o
        .plan
        .markov_stall
        .filter(|m| !m.is_zero())
        .map(|m| (m.mean_up_ns, m.mean_down_ns));
    let onset = credit_exhaustion_onset_with(
        &o.validation_stack(),
        &[1, 4, 16, 64, 128],
        credits,
        stalls,
        &o.pool,
    );
    let mut out = String::from(
        "Multi-core injection: RC posted-credit exhaustion
",
    );
    if let Some((h, d, b)) = credits {
        out.push_str(&format!(
            "  (credit override active: hdr={h} data={d} update_batch={b})\n"
        ));
    }
    if let Some((up, down)) = stalls {
        out.push_str(&format!(
            "  (Markov stall process active: mean up {up} ns, mean down {down} ns)\n"
        ));
    }
    for (cores, stalled) in onset {
        out.push_str(&format!(
            "  {cores:>4} cores: {}
",
            if stalled {
                "credits EXHAUSTED (RC stalls MMIO writes)"
            } else {
                "no stalls (the paper's single-core regime)"
            }
        ));
    }
    out
}

/// Collective scaling on the simulated stack: barrier and allreduce
/// completion vs rank count (⌈log₂N⌉ rounds over the point-to-point
/// layer). The sweep fans independent rank counts across the worker pool.
/// A `--faults` plan's `credits`/`markov_stall` blocks reach the live
/// fabric (its two fault knobs — it has no lossy wire), and engaged runs
/// report their recovery counters per rank count.
fn ext_collectives(o: &Opts) -> String {
    let counts: &[u32] = match o.scale {
        Scale::Quick => &[2, 4, 8],
        Scale::Full => &[2, 4, 8, 16, 32],
    };
    let credits = o.plan.credits.map(|c| (c.hdr, c.data, c.update_batch));
    let stalls = o
        .plan
        .markov_stall
        .filter(|m| !m.is_zero())
        .map(|m| (m.mean_up_ns, m.mean_down_ns));
    let barrier = collective_scaling(counts, Collective::Barrier, 9, credits, stalls, &o.pool);
    let allreduce = collective_scaling(
        counts,
        Collective::Allreduce { bytes: 256 },
        9,
        credits,
        stalls,
        &o.pool,
    );
    let mut out = String::from("Collective scaling (deterministic, min-clock driver)\n");
    if credits.is_some() || stalls.is_some() {
        out.push_str("  (--faults credit/stall overrides active on the live fabric)\n");
    }
    out.push_str(&format!(
        "  {:>6}  {:>7}  {:>14}  {:>16}\n",
        "ranks", "rounds", "barrier", "allreduce 256B"
    ));
    for ((n, b), (_, a)) in barrier.iter().zip(&allreduce) {
        out.push_str(&format!(
            "  {n:>6}  {:>7}  {:>12.2}ns  {:>14.2}ns\n",
            b.rounds,
            b.completion.as_ns_f64(),
            a.completion.as_ns_f64()
        ));
        if !b.counters.is_clean() || !a.counters.is_clean() {
            out.push_str(&format!(
                "  {:>6}  recovery: barrier {}; allreduce {}\n",
                "",
                b.counters.render_compact(),
                a.counters.render_compact()
            ));
        }
    }
    out
}

/// Alternative system profiles (the §7 optimizations as whole systems).
fn ext_profiles() -> String {
    let mut out = String::from(
        "Alternative system calibrations (end-to-end latency)
",
    );
    for (name, c) in [
        ("ThunderX2 + ConnectX-4 (paper)", Calibration::default()),
        (
            "integrated-NIC SoC (Tofu-D-like)",
            profiles::integrated_nic_soc(),
        ),
        (
            "strongly-ordered CPU (x86-TSO)",
            profiles::strongly_ordered_cpu(),
        ),
        ("fast device memory", profiles::fast_device_memory()),
        ("GenZ-class switch (30 ns)", profiles::genz_switch()),
        ("PAM4 + FEC interconnect", profiles::pam4_fec_interconnect()),
    ] {
        let m = EndToEndLatencyModel::from_calibration(&c);
        out.push_str(&format!(
            "  {name:<34} {}
",
            m.total()
        ));
    }
    out
}

/// §6's four insights, evaluated on the calibrated system and on the
/// integrated-NIC profile (where insight 3 weakens — the point of §7.1).
fn ext_insights() -> String {
    let mut out = String::from(
        "Section 6 insights (calibrated system):
",
    );
    for i in bband_core::insights::all(&Calibration::default()) {
        out.push_str(&format!(
            "  [{}] Insight {}: {} (value {:.2})
",
            if i.holds { "ok" } else { "FAIL" },
            i.id,
            i.statement,
            i.value
        ));
    }
    out.push_str(
        "on the integrated-NIC SoC profile:
",
    );
    for i in bband_core::insights::all(&profiles::integrated_nic_soc()) {
        out.push_str(&format!(
            "  [{}] Insight {}: value {:.2}
",
            if i.holds { "ok" } else { "changed" },
            i.id,
            i.value
        ));
    }
    out
}

/// Extension: end-to-end latency under fabric loss — the fault-injection
/// sweep. The base plan is [`Opts::plan`] (fault-free unless `--faults`
/// gives one), with the fabric loss probability swept over
/// [`fault::DEFAULT_LOSS_GRID`]; each grid point is one pool task with an
/// RNG stream derived from `(seed, index)`, so pooled and `--serial` runs
/// emit identical bytes.
fn loss(o: &Opts) -> Output {
    let base = &o.plan;
    let messages = match o.scale {
        Scale::Quick => 120,
        Scale::Full => 1_000,
    };
    let points = fault::latency_under_loss(
        o.path,
        &Calibration::default(),
        base,
        &fault::DEFAULT_LOSS_GRID,
        messages,
        o.seed,
        &o.pool,
    );
    let mut text = render_loss_sweep(
        "Latency under fabric loss (8-byte messages, go-back-N recovery)",
        &points,
    );
    if !base.is_zero() {
        text.push_str("  (active fault plan injects additional faults via --faults)\n");
    }
    Output::from(text).with(o, "loss", || {
        to_json(&loss_sweep_json("latency_under_loss", &points))
    })
}

/// Extension: the payload-size axis (`repro sweep-size`) — latency and
/// goodput from 8 B to 4 MB across the eager→rendezvous crossover, each
/// point a traced, metered engine run with per-size critical-path stage
/// attribution, plus the segmented-lossy fast-vs-reference fault check.
/// One pool task per payload with RNG streams derived from
/// `(seed, index)`, so pooled and `--serial` runs emit identical bytes;
/// [`tracepath::sweep_message_sizes`] asserts every engine run reproduces
/// the sized analytical model bit-exactly.
fn sweep_size(o: &Opts) -> Output {
    let c = Calibration::default();
    let crossover = bband_core::SizedLatencyModel::from_calibration(&c).crossover();
    let (sizes, messages): (&[u32], u64) = match o.scale {
        Scale::Quick => (&[8, 4096, 65_536, 1 << 20], 8),
        Scale::Full => (&tracepath::DEFAULT_SIZE_GRID, 64),
    };
    let (points, _) = tracepath::sweep_message_sizes(o.path, &c, sizes, messages, o.seed, &o.pool);
    let check = segmented_fault_check(&c, 12, o.seed);
    let mut text = render_size_sweep(
        &format!(
            "Message-size sweep: {messages} e2e messages per point, \
             MTU segmentation + protocol selection ({} points)",
            sizes.len()
        ),
        &points,
        crossover,
    );
    text.push_str(&render_fault_check(&check));
    Output::from(text).with(o, "sweep-size", || {
        let title = format!("sweep-size ({})", o.scale.name());
        to_json(&size_sweep_json(&title, &points, crossover, check))
    })
}

/// Extension: the cluster-scale rank axis (`repro sweep-ranks`) —
/// completion latency and achieved bisection goodput for four collectives
/// across fat-tree and dragonfly topologies, with per-port credit flow
/// control and ECN backpressure resolved by the flow fabric, plus the
/// 2-node bit-exactness gate against the calibrated `NetworkModel`. One
/// pool task per (topology, ranks) cell; cells share nothing, so pooled
/// and `--serial` runs emit identical bytes.
///
/// With `--telemetry` the table is followed by the per-cell fabric
/// heatmaps: per-link-class utilization over virtual-time windows,
/// per-group global-link strips (dragonfly), and the top-k
/// contended-link table that names the links behind the dragonfly
/// congestion knee. The `fabric-telemetry` artifact always rides along
/// with `sweep-ranks`, so CI's byte-diff covers it.
fn sweep_ranks(o: &Opts) -> Output {
    let ranks: &[u32] = match o.scale {
        Scale::Quick => &[16, 64, 256],
        Scale::Full => &[128, 512, 1024, 2048, 4096],
    };
    // Recording never perturbs the simulation (tested in bband-cluster),
    // so when telemetry is wanted its one sweep also yields the points.
    let cells =
        (o.telemetry || o.artifacts).then(|| bband_cluster::sweep_ranks_telemetry(ranks, &o.pool));
    let points = match &cells {
        Some(cells) => cells.iter().map(|c| c.point.clone()).collect(),
        None => bband_cluster::sweep_ranks(ranks, &o.pool),
    };
    let gate = bband_cluster::two_node_equivalence();
    let mut text = render_rank_sweep(
        &format!(
            "Rank-scaling sweep: collectives on fat-tree and dragonfly fabrics \
             ({} rank counts up to {}, {} B payloads, credit flow control + ECN)",
            ranks.len(),
            ranks.last().expect("the rank grid is non-empty"),
            bband_cluster::SWEEP_PAYLOAD_BYTES
        ),
        &points,
        &gate,
    );
    if let Some(cells) = cells.as_ref().filter(|_| o.telemetry) {
        text.push('\n');
        text.push_str(&render_fabric_heatmap(
            "Fabric telemetry: link-class utilization heatmaps and contended links",
            cells,
        ));
    }
    let mut out = Output::from(text).with(o, "sweep-ranks", || {
        let title = format!("sweep-ranks ({})", o.scale.name());
        to_json(&rank_sweep_json(&title, &points, &gate))
    });
    if let Some(cells) = &cells {
        out = out.with(o, "fabric-telemetry", || {
            let title = format!("sweep-ranks --telemetry ({})", o.scale.name());
            to_json(&fabric_telemetry_json(&title, cells))
        });
    }
    out
}

/// One Zambre curve: `(name, endpoints(threads), lock granularity)`.
type ThreadCurve = (&'static str, fn(u32) -> u32, LockGranularity);

/// The three Zambre curves of the thread sweep: every thread through one
/// global-locked endpoint, per-endpoint locks over half as many
/// endpoints as threads, and one independent VI per thread.
const THREAD_CURVES: [ThreadCurve; 3] = [
    ("shared", |_| 1, LockGranularity::GlobalLock),
    (
        "per-endpoint",
        |t| (t / 2).max(1),
        LockGranularity::PerEndpointLock,
    ),
    ("independent", |t| t, LockGranularity::Independent),
];

/// The 1-thread equivalence gate: the sweep's 1-thread/1-endpoint point
/// (even under a global lock — one thread never contends) must land on
/// the exact virtual end time of the multicore credit probe's 1-core
/// point (one independent endpoint).
fn thread_sweep_baseline(stack: &StackConfig, messages: u64) -> ThreadBaseline {
    let one_thread = |lock| ThreadSweepConfig {
        stack: stack.clone(),
        threads: 1,
        endpoints: 1,
        lock,
        messages_per_thread: messages,
        ring_depth: 16,
        credits: None,
        stalls: None,
    };
    let mc = endpoint_injection(&one_thread(LockGranularity::Independent));
    let sw = endpoint_injection(&one_thread(LockGranularity::GlobalLock));
    ThreadBaseline {
        multicore_ns: mc.per_thread_overhead.as_ns_f64(),
        sweep_ns: sw.per_thread_overhead.as_ns_f64(),
        bit_exact: mc.per_thread_overhead == sw.per_thread_overhead,
    }
}

/// The headline Zambre comparison from an already-run sweep: locked
/// shared endpoint vs independent VIs at the largest thread count.
fn zambre_check(points: &[ThreadPoint]) -> ZambreCheck {
    let max_threads = points.iter().map(|p| p.threads).max().unwrap_or(1);
    let rate = |curve: &str| {
        points
            .iter()
            .find(|p| p.curve == curve && p.threads == max_threads)
            .map(|p| p.rate_per_us)
            .unwrap_or(0.0)
    };
    let locked = rate("shared");
    let independent = rate("independent");
    let ratio = if locked > 0.0 {
        independent / locked
    } else {
        0.0
    };
    ZambreCheck {
        threads: max_threads,
        locked_rate_per_us: locked,
        independent_rate_per_us: independent,
        ratio,
        scalable: ratio >= 4.0,
    }
}

/// Extension: the MPI+threads axis (`repro sweep-threads`) — Zambre et
/// al.'s scalable-endpoints experiment on the calibrated stack: aggregate
/// message rate for 1..=8 threads driving a single global-locked
/// endpoint, per-endpoint-locked shared endpoints, and independent VIs,
/// with the 1-thread bit-exactness gate against the pre-refactor
/// multicore path and the ≥4× scalability ratio at 8 threads. One pool
/// task per (curve, threads) cell, each running [`endpoint_injection`] on
/// a fresh cluster; cells share nothing, so pooled and `--serial` runs
/// emit identical bytes.
fn sweep_threads(o: &Opts) -> Output {
    let (threads, messages): (&[u32], u64) = match o.scale {
        Scale::Quick => (&[1, 2, 4, 8], 400),
        Scale::Full => (&[1, 2, 3, 4, 5, 6, 7, 8], 1_000),
    };
    let cells: Vec<(usize, u32)> = (0..THREAD_CURVES.len())
        .flat_map(|c| threads.iter().map(move |&t| (c, t)))
        .collect();
    let stack = o.validation_stack();
    let points = o.pool.map(cells, |_, (curve_idx, t)| {
        let (curve, endpoints_of, lock) = THREAD_CURVES[curve_idx];
        let r = endpoint_injection(&ThreadSweepConfig {
            stack: stack.clone(),
            threads: t,
            endpoints: endpoints_of(t),
            lock,
            messages_per_thread: messages,
            ring_depth: 16,
            credits: None,
            stalls: None,
        });
        ThreadPoint {
            curve,
            threads: r.threads,
            endpoints: r.endpoints,
            lock: r.lock.name(),
            rate_per_us: r.aggregate_rate_per_us,
            per_thread_ns: r.per_thread_overhead.as_ns_f64(),
            busy_posts: r.busy_posts,
            lock_acquisitions: r.lock_acquisitions,
            lock_contended: r.lock_contended,
            lock_wait_ns: r.lock_wait_time.as_ns_f64(),
            rc_stalled: r.rc_stalled,
            credit_waits: r.counters.credit_stalls,
        }
    });
    let baseline = thread_sweep_baseline(&stack, messages);
    let zambre = zambre_check(&points);
    let title = format!(
        "Thread-scaling sweep: message rate vs lock granularity over \
         first-class endpoints ({} thread counts up to {}, {} msgs/thread)",
        threads.len(),
        threads.last().expect("the thread grid is non-empty"),
        messages
    );
    Output::from(render_thread_sweep(&title, &points, &baseline, &zambre)).with(
        o,
        "sweep-threads",
        || {
            let title = format!("sweep-threads ({})", o.scale.name());
            to_json(&thread_sweep_json(&title, &points, &baseline, &zambre))
        },
    )
}

/// Extension: `repro trace` — the whole-stack traced run, or with
/// `--bench` a traced live microbenchmark. The `trace` artifact is the
/// Chrome trace-format JSON (Perfetto-loadable) of the very run the text
/// renders; stage edges export as flow arrows, and under `--faults` the
/// recovery track shows go-back-N replay windows and backoff gaps.
fn trace(o: &Opts) -> Output {
    let (text, trace) = match o.bench.as_deref() {
        Some(b) => trace_bench(b, o),
        None => trace_engine(o),
    };
    Output::from(text).with(o, "trace", || trace.to_chrome_json())
}

/// The end-to-end fault pipeline recorded span by span on the virtual
/// clock, rendered as a flame view plus the trace-derived Figure-13
/// breakdown. Under a zero fault plan the reconstruction is bit-exact
/// against the analytical model (and says so); under `--faults` the
/// Recovery-layer events (drops, go-back-N rounds, backoff gaps, replay
/// windows) become visible by name.
fn trace_engine(o: &Opts) -> (String, Trace) {
    let c = Calibration::default();
    let plan = &o.plan;
    let messages = match o.scale {
        Scale::Quick => 24,
        Scale::Full => 200,
    };
    let (res, trace) = tracepath::traced_e2e(o.path, &c, plan, messages, o.seed);
    let mut out = render_flame(
        &format!(
            "Whole-stack trace: {messages} 8-byte e2e messages ({} fault plan)",
            if plan.is_zero() { "zero" } else { "active" }
        ),
        &trace,
    );
    out.push('\n');
    out.push_str(&render_bar(&tracepath::e2e_breakdown_from_trace(&trace)));
    out.push('\n');
    let cp = critical_path(&trace);
    out.push_str(&render_critical_path(
        "DAG reconstruction (exposed vs hidden)",
        &cp,
    ));
    if plan.is_zero() {
        let model = EndToEndLatencyModel::from_calibration(&c).total();
        let seq_exact = tracepath::slice_sum_total(&trace) == model * messages;
        out.push_str(&format!(
            "  sequential slice sum vs model x {messages}: {}\n",
            if seq_exact { "bit-exact" } else { "MISMATCH" }
        ));
        // Zero-fault messages are independent chains, so the DAG
        // critical path is exactly one message's model total.
        out.push_str(&format!(
            "  DAG critical path vs one-message model: {}\n",
            if cp.length == model {
                "bit-exact"
            } else {
                "MISMATCH"
            }
        ));
    } else {
        // Lossy run: split the critical path into nominal vs recovery
        // exposed time and name, per message, the single
        // retransmission/backoff span that lengthened it.
        out.push('\n');
        out.push_str(&render_recovery_attribution(
            "Recovery attribution (lossy critical path)",
            &cp,
            &per_message_attribution(&trace, "HLP_rx_prog"),
        ));
    }
    match res {
        Ok(stats) => out.push_str(&format!(
            "  completed {}/{}; recovery: {}\n",
            stats.completed,
            stats.messages,
            stats.counters.render_compact()
        )),
        Err(e) => out.push_str(&format!("  ! {e}\n")),
    }
    (out, trace)
}

/// Live microbenchmarks that can run under the tracer
/// (`repro trace --bench <name>`). `multicore` runs a deliberately
/// credit-starved 8-core pool, so its DAG threads across cores through
/// the shared root complex and credit stalls surface as exposed time.
pub const TRACE_BENCHES: [&str; 4] = ["put_bw", "am_lat", "osu", "multicore"];

/// Run one traced live microbenchmark, returning a display label and the
/// recorded trace. Deterministic (validation) stacks, so the trace — and
/// therefore the Chrome export — is byte-stable run to run.
fn run_traced_bench(which: &str, o: &Opts) -> (String, Trace) {
    let scale = o.scale;
    let (label, spans) = match which {
        "put_bw" => {
            let messages = match scale {
                Scale::Quick => 1_500,
                Scale::Full => 8_000,
            };
            let cfg = PutBwConfig {
                stack: o.validation_stack(),
                messages,
                warmup: 256,
                ..Default::default()
            };
            let (_, spans) = bband_trace::collect(|| put_bw(&cfg));
            (format!("put_bw ({messages} msgs, deterministic)"), spans)
        }
        "am_lat" => {
            let iterations = match scale {
                Scale::Quick => 200,
                Scale::Full => 1_000,
            };
            let cfg = AmLatConfig {
                stack: o.validation_stack(),
                iterations,
                warmup: 16,
            };
            let (_, spans) = bband_trace::collect(|| am_lat(&cfg));
            (format!("am_lat ({iterations} iters, deterministic)"), spans)
        }
        "osu" => {
            let iterations = match scale {
                Scale::Quick => 150,
                Scale::Full => 1_000,
            };
            let cfg = OsuLatConfig {
                stack: o.validation_stack(),
                iterations,
                warmup: 16,
            };
            let (_, spans) = bband_trace::collect(|| osu_latency(&cfg));
            (
                format!("osu_latency ({iterations} iters, deterministic)"),
                spans,
            )
        }
        "multicore" => {
            let messages_per_thread = match scale {
                Scale::Quick => 300,
                Scale::Full => 2_000,
            };
            // Congested on both axes on purpose: 4 header credits
            // replenished 2 at a time against 8 concurrent posters parks
            // MMIO writes at the RC (credit_wait stages), and 8 threads
            // sharing 4 per-endpoint-locked endpoints serialize in pairs
            // (lock_wait stages) — so the DAG threads across cores
            // through both the shared root complex and the lock chains.
            let cfg = ThreadSweepConfig {
                stack: o.validation_stack(),
                threads: 8,
                endpoints: 4,
                lock: LockGranularity::PerEndpointLock,
                messages_per_thread,
                ring_depth: 16,
                credits: Some((4, 64, 2)),
                stalls: None,
            };
            let (_, spans) = bband_trace::collect(|| endpoint_injection(&cfg));
            (
                format!(
                    "endpoint_injection (8 threads x 4 locked endpoints x \
                     {messages_per_thread} msgs, starved credits)"
                ),
                spans,
            )
        }
        other => panic!("unknown trace bench {other}; known: {TRACE_BENCHES:?}"),
    };
    (label, Trace::from_task(spans))
}

/// A live microbenchmark under the tracer, reconstructed by the same DAG
/// pipeline the fault engine's traces flow through. For `put_bw` the
/// critical path is strictly shorter than the stage sum — the hardware
/// chain hides behind the serial CPU spine — and the per-stage
/// exposed/hidden split quantifies exactly what pipelining buys. The
/// zero-fault diff at the end cross-checks the live stack's shared stages
/// against the model-faithful fault engine.
fn trace_bench(which: &str, o: &Opts) -> (String, Trace) {
    let (label, trace) = run_traced_bench(which, o);
    let mut out = render_flame(&format!("Traced live microbenchmark: {label}"), &trace);
    out.push('\n');
    let cp = critical_path(&trace);
    out.push_str(&render_critical_path(
        "DAG reconstruction (exposed vs hidden)",
        &cp,
    ));
    let ratio = if cp.stage_sum.as_ns_f64() > 0.0 {
        cp.length.as_ns_f64() / cp.stage_sum.as_ns_f64()
    } else {
        1.0
    };
    out.push_str(&format!(
        "  overlap: critical path is {:.1}% of the stage sum ({} hidden)\n",
        ratio * 100.0,
        cp.hidden_total()
    ));
    let split = cp.recovery_split();
    if split.recovery_total > SimDuration::ZERO {
        out.push_str(&format!(
            "  recovery (credit waits / stall windows): {} exposed on the \
             critical path, {} recorded in total\n",
            split.recovery_exposed, split.recovery_total
        ));
    }
    // The multicore bench is deliberately congested (starved credits), so
    // a diff against the zero-fault single-message engine path would be
    // comparing different regimes; every other bench diffs when clean.
    if which != "multicore" && o.plan.is_zero() {
        out.push('\n');
        out.push_str(&trace_diff(&trace, o));
    }
    (out, trace)
}

/// Stage names with identical semantics in the live cluster and the
/// fault engine — the comparable subset [`trace_diff`] checks. The HLP
/// names are the paper's aggregate slices: the live MPI layer brackets
/// them around its finer-grained sub-steps (`ucp.tag_send`,
/// `ucp.recv_cb`, MPICH callbacks and epilogue), so `HLP_post` and
/// `HLP_rx_prog` mean the same thing in both pipelines — 26.56 ns and
/// 224.66 ns per 8-byte message.
const DIFF_STAGES: [&str; 8] = [
    "HLP_post",
    "HLP_rx_prog",
    "LLP_post",
    "LLP_prog",
    "TX PCIe",
    "RX PCIe",
    "Switch",
    "ack_flight",
];

/// Diff a live traced run against the model-faithful fault engine on the
/// zero-fault path: for every [`DIFF_STAGES`] name both pipelines emit,
/// compare the mean per-span duration. The two implementations share
/// nothing but the calibration, so agreement here means the live
/// cluster's per-stage charges really are the model's slices.
fn trace_diff(live: &Trace, o: &Opts) -> String {
    let c = Calibration::default();
    let (res, reference) = tracepath::traced_e2e(o.path, &c, &FaultPlan::none(), 64, o.seed);
    debug_assert!(res.is_ok());
    let live_sums = live.component_sums();
    let ref_sums = reference.component_sums();
    let mut out = String::from("trace-diff vs fault engine (zero-fault path, shared stages):\n");
    let mut worst = 0.0_f64;
    let mut shared = 0u32;
    for l in &live_sums {
        if !DIFF_STAGES.contains(&l.name) {
            continue;
        }
        let Some(r) = ref_sums.iter().find(|r| r.name == l.name) else {
            continue;
        };
        if l.count == 0 || r.count == 0 {
            continue;
        }
        let lm = l.total.as_ns_f64() / l.count as f64;
        let rm = r.total.as_ns_f64() / r.count as f64;
        if rm == 0.0 {
            continue;
        }
        let err = (lm - rm).abs() / rm;
        worst = worst.max(err);
        shared += 1;
        out.push_str(&format!(
            "  {:<18} live {lm:>9.2} ns  engine {rm:>9.2} ns  ({:+.2}%)\n",
            l.name,
            (lm - rm) / rm * 100.0
        ));
    }
    if shared == 0 {
        out.push_str("  trace-diff: MISMATCH (no shared stages)\n");
    } else if worst < 0.05 {
        out.push_str(&format!(
            "  trace-diff: OK ({shared} shared stages within 5%)\n"
        ));
    } else {
        out.push_str(&format!(
            "  trace-diff: MISMATCH (worst error {:.1}%)\n",
            worst * 100.0
        ));
    }
    out
}

/// Extension: `repro metrics` — the virtual-time metrics registry's
/// per-stage p50/p95/p99/p99.9 latency quantile tables over the metered
/// end-to-end run, or with `--bench` over a live microbenchmark's
/// per-iteration latencies. The `metrics` artifact holds the quantile
/// summaries and counters of the run the table renders.
fn metrics(o: &Opts) -> Output {
    let (title, set, tail) = match o.bench.as_deref() {
        Some(b) => {
            let (label, task) = run_metered_bench(b, o);
            let set = MetricsSet::from_tasks(vec![task]);
            (
                format!("Live microbenchmark quantiles: {label}"),
                set,
                String::new(),
            )
        }
        None => metered_engine(o),
    };
    let text = render_quantiles(&title, &set) + &tail;
    Output::from(text).with(o, "metrics", || to_json(&metrics_json(&title, &set)))
}

/// The metered end-to-end run behind `metrics`: a fixed task fan-out (so
/// quick/full differ only in per-task message count), the `--faults`
/// plan and `--seed` applied, drained task-major. The registry
/// records on the virtual clock, so pooled and `--serial` runs are
/// byte-identical. On a zero fault plan every stage row is a spike at its
/// calibrated mean; under `--faults` the e2e histogram grows the
/// retransmission/backoff tail the quantiles pin down. With `--windows N`
/// the registry also splits every histogram into `N` fixed-width windows
/// spanning the modeled run, so bursts and drift that aggregate quantiles
/// average away become rows of their own. Returns the title, the merged
/// registry, and the lines printed under the quantile table.
fn metered_engine(o: &Opts) -> (String, MetricsSet, String) {
    let c = Calibration::default();
    let plan = &o.plan;
    let messages_per_task = match o.scale {
        Scale::Quick => 64,
        Scale::Full => 500,
    };
    const TASKS: u64 = 4;
    // Window width: the modeled span of one task's message stream split
    // into n windows. The virtual clock starts at zero, so this covers
    // the whole run (the last window absorbs fault-plan overshoot).
    let model = EndToEndLatencyModel::from_calibration(&c).total();
    let width = o
        .windows
        .map(|n| SimDuration::from_ps((model * messages_per_task).as_ps().div_ceil(n)));
    let (runs, set) = tracepath::metered_e2e(
        o.path,
        &c,
        plan,
        messages_per_task,
        TASKS,
        o.seed,
        width,
        &o.pool,
    );
    let windows = o
        .windows
        .map(|n| format!(" ({n} virtual-time windows)"))
        .unwrap_or_default();
    let title = format!(
        "Per-stage latency quantiles{windows}: {TASKS} tasks x {messages_per_task} 8-byte \
         e2e messages ({} fault plan)",
        if plan.is_zero() { "zero" } else { "active" }
    );
    let completed: u64 = runs.iter().map(|(r, _)| r.completed).sum();
    let messages: u64 = runs.iter().map(|(r, _)| r.messages).sum();
    let mut tail = format!("  completed {completed}/{messages} messages\n");
    if o.windows.is_some() {
        tail.push_str(&render_windowed_quantiles(&set, "e2e_latency"));
    } else {
        let mut counters = bband_profiling::RecoveryCounters::new();
        for (r, _) in &runs {
            counters.merge(&r.counters);
        }
        if !counters.is_clean() {
            tail.push_str(&format!("  recovery: {}\n", counters.render_compact()));
        }
    }
    (title, set, tail)
}

/// Live microbenchmarks that can run under the metrics registry
/// (`repro metrics --bench <name>`): the per-iteration latencies feed the
/// quantile histograms, so p50/p95/p99 land next to the means the summary
/// statistics already report.
pub const METRIC_BENCHES: [&str; 3] = ["put_bw", "am_lat", "osu"];

/// Run one live microbenchmark with a metrics collector installed,
/// returning a display label and the recorded task metrics. The jittered
/// default stack is deliberate: the quantile spread (p99.9 vs mean) is the
/// paper's Figure-7 heavy tail, which a deterministic stack would flatten
/// to a spike.
fn run_metered_bench(which: &str, o: &Opts) -> (String, bband_metrics::TaskMetrics) {
    let scale = o.scale;
    match which {
        "put_bw" => {
            let messages = scale.put_bw_messages();
            let cfg = PutBwConfig {
                stack: o.stack(),
                messages,
                ..Default::default()
            };
            let (_, task) = bband_metrics::collect(|| put_bw(&cfg));
            (
                format!("put_bw ({messages} msgs, per-message injection deltas)"),
                task,
            )
        }
        "am_lat" => {
            let iterations = match scale {
                Scale::Quick => 200,
                Scale::Full => 1_000,
            };
            let cfg = AmLatConfig {
                stack: o.stack(),
                iterations,
                warmup: 16,
            };
            let (_, task) = bband_metrics::collect(|| am_lat(&cfg));
            (
                format!("am_lat ({iterations} iters, one-way latencies)"),
                task,
            )
        }
        "osu" => {
            let iterations = match scale {
                Scale::Quick => 150,
                Scale::Full => 1_000,
            };
            let cfg = OsuLatConfig {
                stack: o.stack(),
                iterations,
                warmup: 16,
            };
            let (_, task) = bband_metrics::collect(|| osu_latency(&cfg));
            (
                format!("osu_latency ({iterations} iters, one-way latencies)"),
                task,
            )
        }
        other => panic!("unknown metric bench {other}; known: {METRIC_BENCHES:?}"),
    }
}

/// A `repro` target: its name and the function that runs it once.
pub type Target = (&'static str, fn(&Opts) -> Output);

/// Every target the harness knows, in paper order.
pub const TARGETS: [Target; 30] = [
    ("table1", |_| table1().into()),
    ("fig4", fig4),
    ("fig6", |o| fig6(o).into()),
    ("fig7", |o| fig7(o).into()),
    ("fig8", fig8),
    ("fig10", |o| fig10(o).into()),
    ("fig11", |_| fig11().into()),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", |_| fig14().into()),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17a", |o| fig17(o, 'a')),
    ("fig17b", |o| fig17(o, 'b')),
    ("fig17c", |o| fig17(o, 'c')),
    ("fig17d", |o| fig17(o, 'd')),
    ("claims", |_| claims().into()),
    ("validate", |o| validation(o).into()),
    ("scaling", |_| ext_scaling().into()),
    ("crossover", |o| ext_crossover(o).into()),
    ("multicore", |o| ext_multicore(o).into()),
    ("collectives", |o| ext_collectives(o).into()),
    ("profiles", |_| ext_profiles().into()),
    ("insights", |_| ext_insights().into()),
    ("loss", loss),
    ("sweep-size", sweep_size),
    ("sweep-ranks", sweep_ranks),
    ("sweep-threads", sweep_threads),
    ("trace", trace),
    ("metrics", metrics),
];

/// Run the target called `name` once.
pub fn run_target(name: &str, o: &Opts) -> Output {
    let (_, run) = TARGETS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown target {name}"));
    run(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// Quick scale with artifacts on, the way CI regenerates `artifacts/`.
    fn quick() -> Opts {
        Opts {
            scale: Scale::Quick,
            bench: None,
            windows: None,
            telemetry: false,
            artifacts: true,
            plan: FaultPlan::none(),
            path: EnginePath::Fast,
            seed: StackConfig::default().seed,
            pool: WorkerPool::new(),
        }
    }

    fn bench(name: &str) -> Opts {
        Opts {
            bench: Some(name.into()),
            ..quick()
        }
    }

    /// The parsed artifact `name` of `out`.
    fn artifact(out: &Output, name: &str) -> Value {
        let (_, json) = out
            .artifacts
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no {name} artifact"));
        serde_json::from_str(json).unwrap()
    }

    fn num(v: &Value) -> f64 {
        v.as_f64().unwrap_or_else(|| panic!("not a number: {v:?}"))
    }

    fn arr(v: &Value) -> &[Value] {
        v.as_array()
            .unwrap_or_else(|| panic!("not an array: {v:?}"))
    }

    #[test]
    fn every_target_renders_nonempty() {
        // Rows every rendering must carry, beyond being non-empty.
        let rows = [
            ("fig4", "PIO copy"),
            ("fig7", "Mean:"),
            ("fig10", "Wire"),
            ("fig11", "MPICH"),
            ("fig11", "UCP"),
            ("fig12", "Post_prog"),
            ("fig13", "HLP_rx_prog"),
            ("table1", "240.96"),
        ];
        let plain = Opts {
            artifacts: false,
            ..quick()
        };
        let mut exported = Vec::new();
        for (t, run) in TARGETS {
            let out = run(&quick());
            assert!(!out.text.trim().is_empty(), "target {t} rendered nothing");
            for (_, row) in rows.iter().filter(|(target, _)| *target == t) {
                assert!(
                    out.text.contains(row),
                    "target {t} lacks {row:?}:\n{}",
                    out.text
                );
            }
            // Artifacts are exports of the run whose text is printed:
            // asking for them changes no byte of the text.
            let bare = run(&plain);
            assert_eq!(bare.text, out.text, "target {t}");
            assert!(bare.artifacts.is_empty(), "target {t}");
            exported.extend(out.artifacts.iter().map(|(name, _)| *name));
        }
        assert_eq!(
            exported,
            [
                "fig4",
                "fig8",
                "fig12",
                "fig13",
                "fig15",
                "fig16",
                "fig17a",
                "fig17b",
                "fig17c",
                "fig17d",
                "loss",
                "sweep-size",
                "sweep-ranks",
                "fabric-telemetry",
                "sweep-threads",
                "trace",
                "metrics",
            ]
        );
    }

    #[test]
    fn table1_has_the_calibrated_totals() {
        let t = table1();
        assert!(t.contains("175.42"));
        assert!(t.contains("382.81"));
    }

    #[test]
    fn fig17_panels_render_all_lines() {
        for (panel, line) in [
            ('a', "LLP_post"),
            ('b', "HLP_rx_prog"),
            ('c', "Integrated NIC"),
            ('d', "Switch"),
        ] {
            assert!(fig17(&quick(), panel).text.contains(line), "panel {panel}");
        }
    }

    #[test]
    fn claims_all_hold() {
        let c = claims();
        assert!(!c.contains("FAIL"), "{c}");
    }

    #[test]
    fn validation_quick_passes() {
        let v = validation(&quick());
        assert!(!v.contains("FAIL"), "{v}");
    }

    #[test]
    fn zero_fault_trace_target_is_bit_exact() {
        let out = run_target("trace", &quick()).text;
        assert!(out.contains("sequential slice sum vs model"), "{out}");
        assert!(
            out.contains("DAG critical path vs one-message model"),
            "{out}"
        );
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    /// The `trace` artifact satisfies the Chrome trace schema, and the
    /// happens-after edges export as balanced flow-event pairs with
    /// matching ids whose finish events bind to the enclosing slice.
    #[test]
    fn trace_artifact_is_a_chrome_trace_with_paired_flows() {
        let d = artifact(&run_target("trace", &quick()), "trace");
        let evs = arr(&d["traceEvents"]);
        assert!(!evs.is_empty(), "empty traceEvents");
        for e in evs {
            assert!(
                ["X", "i", "M", "s", "f"].contains(&e["ph"].as_str().unwrap()),
                "{e:?}"
            );
            assert!(e.get("pid").is_some() && e.get("name").is_some(), "{e:?}");
        }
        let flows = |ph: &str| -> Vec<&Value> { evs.iter().filter(|e| e["ph"] == ph).collect() };
        let (starts, finishes) = (flows("s"), flows("f"));
        assert!(!starts.is_empty(), "stage edges must emit flow events");
        assert_eq!(starts.len(), finishes.len());
        let ids = |evs: &[&Value]| {
            let mut ids: Vec<u64> = evs.iter().map(|e| e["id"].as_u64().unwrap()).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        assert_eq!(ids(&starts), ids(&finishes));
        assert!(finishes.iter().all(|e| e["bp"] == "e"));
        assert!(starts.iter().chain(&finishes).all(|e| e["cat"] == "flow"));
    }

    /// Under a lossy fault plan the `trace` target's critical path splits
    /// into nominal and recovery time, and the recovery share is nonzero.
    #[test]
    fn lossy_critical_path_attributes_recovery_time() {
        let o = Opts {
            plan: FaultPlan::from_json_str(r#"{"loss_probability": 0.05}"#).unwrap(),
            ..quick()
        };
        let text = run_target("trace", &o).text;
        for line in ["Recovery attribution", "% recovery", "worst offenders"] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        // "critical path T ns = nominal N ns + recovery R ns ..."
        let split: Vec<f64> = text
            .lines()
            .map(str::trim)
            .find(|l| l.starts_with("critical path ") && l.contains(" = nominal "))
            .expect("missing the recovery split line")
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .take(3)
            .collect();
        let [total, nominal, recovery] = split[..] else {
            panic!("malformed split line: {split:?}");
        };
        assert!(
            (nominal + recovery - total).abs() < 0.02,
            "nominal {nominal} + recovery {recovery} != critical path {total}"
        );
        assert!(recovery > 0.0, "5% loss must expose recovery time");
    }

    /// Every run option travels in [`Opts`], so one process can run any
    /// target under any options, in any order: each option changes
    /// exactly the targets listed here, and a default run made after all
    /// the others prints what the first one did. `multicore` is left out:
    /// under starved credits it takes seconds even in release.
    #[test]
    fn each_option_reaches_exactly_its_targets() {
        let mut runs: Vec<(&str, Option<&str>)> = TARGETS
            .iter()
            .map(|&(t, _)| (t, None))
            .filter(|&(t, _)| t != "multicore")
            .collect();
        for b in METRIC_BENCHES {
            runs.extend([("metrics", Some(b)), ("trace", Some(b))]);
        }
        let texts = |plan: &FaultPlan, path, seed| -> Vec<String> {
            let run = |&(t, b): &(&str, Option<&str>)| {
                let o = Opts {
                    bench: b.map(String::from),
                    artifacts: false,
                    plan: plan.clone(),
                    path,
                    seed,
                    ..quick()
                };
                run_target(t, &o).text
            };
            runs.iter().map(run).collect()
        };
        let changed = |a: &[String], b: &[String]| -> Vec<String> {
            let labels = runs.iter().map(|&(t, b)| match b {
                Some(b) => format!("{t} --bench {b}"),
                None => t.to_string(),
            });
            labels
                .zip(a.iter().zip(b))
                .filter(|(_, (x, y))| x != y)
                .map(|(label, _)| label)
                .collect()
        };
        let seed = StackConfig::default().seed;
        let none = FaultPlan::none();
        let lossy = FaultPlan::from_json_str(
            r#"{"loss_probability": 0.05, "credits": {"hdr": 4, "data": 64, "update_batch": 2}}"#,
        )
        .unwrap();
        let default = texts(&none, EnginePath::Fast, seed);
        let seeded = texts(&none, EnginePath::Fast, 7);
        let faulty = texts(&lossy, EnginePath::Fast, seed);
        let faulty_seeded = texts(&lossy, EnginePath::Fast, 7);
        let reference = texts(&none, EnginePath::Reference, seed);
        let benches = [
            "metrics --bench put_bw",
            "metrics --bench am_lat",
            "metrics --bench osu",
        ];
        let seed_reaches = ["fig6", "fig7", "fig10", "validate", "loss", "sweep-size"];
        assert_eq!(
            changed(&default, &seeded),
            [&seed_reaches[..], &benches].concat()
        );
        assert_eq!(
            changed(&default, &faulty),
            [
                "validate",
                "collectives",
                "loss",
                "trace",
                "metrics",
                "trace --bench put_bw",
                "trace --bench am_lat",
                "trace --bench osu",
            ]
        );
        // Under a lossy plan the seed also reaches the engine's traced
        // and metered runs.
        assert_eq!(
            changed(&faulty, &faulty_seeded),
            [&seed_reaches[..], &["trace", "metrics"], &benches].concat()
        );
        assert_eq!(changed(&default, &reference), Vec::<String>::new());
        assert_eq!(texts(&none, EnginePath::Fast, seed), default);
    }

    #[test]
    fn traced_put_bw_diffs_clean_against_the_fault_engine() {
        let out = run_target("trace", &bench("put_bw")).text;
        assert!(out.contains("critical path"), "{out}");
        // Real overlap: the critical path is shorter than the stage sum.
        assert!(out.contains("% hidden"), "{out}");
        assert!(out.contains("trace-diff: OK"), "{out}");
        assert!(!out.contains("trace-diff: MISMATCH"), "{out}");
    }

    #[test]
    fn every_trace_bench_renders() {
        for b in TRACE_BENCHES {
            let out = run_target("trace", &bench(b)).text;
            assert!(!out.trim().is_empty(), "bench {b} rendered nothing");
            assert!(!out.contains("trace-diff: MISMATCH"), "bench {b}:\n{out}");
        }
    }

    #[test]
    fn metrics_target_renders_spiked_quantiles_on_the_clean_plan() {
        let out = run_target("metrics", &quick()).text;
        assert!(out.contains("p99.9"), "{out}");
        assert!(out.contains("e2e_latency"), "{out}");
        for name in bband_core::tracepath::FIG13_SLICES {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("completed 256/256 messages"), "{out}");
    }

    /// The `metrics` artifact: a stable schema whose quantiles are
    /// monotone and bracketed by each stage's min and max.
    #[test]
    fn metrics_json_artifact_is_deterministic_and_parses() {
        let out = run_target("metrics", &quick());
        // Deterministic: the registry records on the virtual clock.
        assert_eq!(out.artifacts, run_target("metrics", &quick()).artifacts);
        let d = artifact(&out, "metrics");
        assert!(d["dropped"] == 0, "name-table overflow");
        let stages = arr(&d["stages"]);
        assert!(stages.len() >= 10, "nine Fig-13 slices plus e2e_latency");
        for s in stages {
            let q = ["p50_ns", "p95_ns", "p99_ns", "p999_ns"].map(|k| num(&s[k]));
            assert!(q.windows(2).all(|w| w[0] <= w[1]), "{s:?}");
            assert!(
                num(&s["min_ns"]) <= q[0] && q[3] <= num(&s["max_ns"]) + 1e-9,
                "{s:?}"
            );
            assert!(num(&s["count"]) > 0.0 && num(&s["mean_ns"]) > 0.0, "{s:?}");
        }
        assert!(stages.iter().any(|s| s["name"] == "e2e_latency"));
        assert!(arr(&d["counters"]).iter().any(|c| c["name"] == "completed"));
    }

    #[test]
    fn multicore_trace_bench_exposes_credit_waits() {
        let out = run_target("trace", &bench("multicore")).text;
        assert!(out.contains("credit_wait"), "{out}");
        assert!(
            out.contains("recovery (credit waits / stall windows)"),
            "{out}"
        );
        // Congested regime: deliberately not diffed against the engine.
        assert!(!out.contains("trace-diff"), "{out}");
    }

    #[test]
    fn multicore_trace_bench_attributes_lock_waits() {
        // 8 threads over 4 per-endpoint-locked endpoints: the exposed
        // lock serialization is a first-class attributed stage next to
        // the credit stalls.
        let out = run_target("trace", &bench("multicore")).text;
        assert!(out.contains("lock_wait"), "{out}");
    }

    #[test]
    fn osu_trace_diff_covers_the_aggregate_hlp_stages() {
        let out = run_target("trace", &bench("osu")).text;
        assert!(out.contains("HLP_post"), "{out}");
        assert!(out.contains("HLP_rx_prog"), "{out}");
        assert!(out.contains("trace-diff: OK"), "{out}");
    }

    #[test]
    fn every_metric_bench_renders_quantiles() {
        for (b, stage) in [
            ("put_bw", "put_bw_iter"),
            ("am_lat", "am_lat_iter"),
            ("osu", "osu_iter"),
        ] {
            let out = run_target("metrics", &bench(b));
            assert!(out.text.contains("p99.9"), "bench {b}:\n{}", out.text);
            assert!(out.text.contains(stage), "bench {b} missing {stage}");
            // The artifact is this bench's run, not the engine's.
            let title = artifact(&out, "metrics")["title"]
                .as_str()
                .unwrap()
                .to_string();
            assert!(out.text.starts_with(&title), "bench {b}: {title}");
            // Deterministic: the registry records on the virtual clock.
            assert_eq!(out.text, run_target("metrics", &bench(b)).text, "bench {b}");
        }
    }

    #[test]
    fn sweep_size_target_crosses_protocols_and_passes_the_fault_check() {
        let run = run_target("sweep-size", &quick());
        let out = &run.text;
        assert!(out.contains("eager"), "{out}");
        assert!(out.contains("rendezvous"), "{out}");
        assert!(out.contains("crossover at"), "{out}");
        assert!(out.contains("fault-check: OK"), "{out}");
        // Deterministic: virtual clock + per-task RNG streams.
        let rerun = run_target("sweep-size", &quick());
        assert_eq!((out, &run.artifacts), (&rerun.text, &rerun.artifacts));
    }

    /// The `sweep-size` artifact: the payload curve rises with size,
    /// crosses into rendezvous with the crossover attributed to named
    /// stages, and embeds a passing segmented-lossy fault check.
    #[test]
    fn sweep_size_json_artifact_is_deterministic_and_schema_tagged() {
        let d = artifact(&run_target("sweep-size", &quick()), "sweep-size");
        assert!(d["schema"] == "bband/sweep-size/v1");
        let pts = arr(&d["points"]);
        assert_eq!(pts.len(), 4);
        assert!(pts[0]["payload_bytes"] == 8 && pts[0]["protocol"] == "eager");
        assert!(pts[pts.len() - 1]["protocol"] == "rendezvous");
        for w in pts.windows(2) {
            assert!(num(&w[0]["payload_bytes"]) < num(&w[1]["payload_bytes"]));
            assert!(
                num(&w[0]["model_ns"]) <= num(&w[1]["model_ns"]),
                "latency must rise"
            );
        }
        for p in pts {
            let q = ["p50_ns", "p95_ns", "p99_ns"].map(|k| num(&p[k]));
            assert!(q[0] <= q[1] && q[1] <= q[2], "{p:?}");
            assert!(num(&p["segments"]) >= 1.0, "{p:?}");
            assert!(num(&p["wire_bytes"]) > num(&p["payload_bytes"]), "{p:?}");
            assert!(!arr(&p["top_stages"]).is_empty(), "stage attribution");
        }
        let rndv_stage = |s: &Value| {
            let name = s["name"].as_str().unwrap();
            name.starts_with("RTS") || name == "cts_flight" || name == "DMA_fetch"
        };
        assert!(pts
            .iter()
            .filter(|p| p["protocol"] == "rendezvous")
            .any(|p| arr(&p["top_stages"]).iter().any(rndv_stage)));
        assert!((8.0..(1u32 << 22) as f64).contains(&num(&d["crossover_bytes"])));
        let fc = &d["fault_check"];
        assert!(fc["identical"] == true, "fast path diverged");
        assert!(
            num(&fc["rc_retransmissions"]) > 0.0,
            "go-back-N unexercised"
        );
    }

    #[test]
    fn sweep_ranks_target_covers_both_topologies_and_the_gate() {
        let run = run_target("sweep-ranks", &quick());
        let out = &run.text;
        assert!(out.contains("-- fat-tree"), "{out}");
        assert!(out.contains("-- dragonfly"), "{out}");
        assert!(out.contains("allreduce-ring"), "{out}");
        assert!(out.contains("2-node equivalence: OK"), "{out}");
        assert!(!out.contains("Fabric telemetry"), "{out}");
        let rerun = run_target("sweep-ranks", &quick());
        assert_eq!((out, &run.artifacts), (&rerun.text, &rerun.artifacts));
    }

    /// The `sweep-ranks` artifact: the full grid on both topologies, the
    /// 2-node gate exact, and completion growing with rank count.
    #[test]
    fn sweep_ranks_json_artifact_is_deterministic_and_schema_tagged() {
        let d = artifact(&run_target("sweep-ranks", &quick()), "sweep-ranks");
        assert!(d["schema"] == "bband/sweep-ranks/v1");
        let tn = &d["two_node"];
        assert!(
            tn["exact"] == true,
            "flow fabric diverged from NetworkModel"
        );
        assert!((num(&tn["model_ns"]) - 382.81).abs() < 1e-6);
        assert_eq!(num(&tn["model_ns"]), num(&tn["fabric_ns"]));
        let pts = arr(&d["points"]);
        for p in pts {
            assert!(
                num(&p["rounds"]) >= 1.0 && num(&p["messages"]) >= 1.0,
                "{p:?}"
            );
            assert!(num(&p["completion_ns"]) > 0.0, "{p:?}");
            assert!(
                num(&p["msg_p50_ns"]) <= num(&p["msg_p99_ns"]) + 1e-9,
                "{p:?}"
            );
            assert!(num(&p["achieved_gbps"]) <= num(&p["capacity_gbps"]) * 1.000001);
        }
        for topo in ["fat-tree", "dragonfly"] {
            for coll in ["barrier", "bcast", "allreduce-rd", "allreduce-ring"] {
                let mut curve: Vec<(f64, f64)> = pts
                    .iter()
                    .filter(|p| p["topology"] == topo && p["collective"] == coll)
                    .map(|p| (num(&p["ranks"]), num(&p["completion_ns"])))
                    .collect();
                assert_eq!(curve.len(), 3, "{topo} {coll}");
                curve.sort_by(|a, b| a.0.total_cmp(&b.0));
                if coll == "barrier" || coll == "allreduce-rd" {
                    assert!(curve[0].1 < curve[2].1, "{topo} {coll}: {curve:?}");
                }
            }
        }
    }

    /// `sweep-ranks --telemetry`: every one of the 24 cells reconciles
    /// bit-exactly against the flow counters, and the dragonfly's global
    /// links hit the contention knee by 256 ranks while the fat-tree keeps
    /// recursive doubling unsaturated at every rank count.
    #[test]
    fn fabric_telemetry_cells_conserve_and_show_the_dragonfly_knee() {
        let o = Opts {
            telemetry: true,
            ..quick()
        };
        let out = run_target("sweep-ranks", &o);
        for line in [
            "Fabric telemetry",
            "top contended links",
            "conservation exact",
        ] {
            assert!(out.text.contains(line), "missing {line:?}");
        }
        let d = artifact(&out, "fabric-telemetry");
        assert!(d["schema"] == "bband/fabric-telemetry/v1");
        let cells = arr(&d["cells"]);
        assert_eq!(
            cells.len(),
            24,
            "2 topologies x 4 collectives x 3 rank counts"
        );
        for c in cells {
            assert!(c["conservation"]["exact"] == true, "{c:?}");
            assert!(num(&c["windows"]) >= 1.0 && num(&c["window_ps"]) > 0.0);
            let a = &c["attribution"];
            let parts = ["wire_ps", "queue_ps", "credit_ps"].map(|k| a[k].as_u64().unwrap());
            assert_eq!(a["latency_ps"].as_u64().unwrap(), parts.iter().sum::<u64>());
            assert!(!arr(&c["hotspots"]).is_empty(), "every cell names hotspots");
            if c["topology"] == "fat-tree" && c["collective"] == "allreduce-rd" {
                assert!(c["saturated_links"] == 0, "{c:?}");
            }
        }
        assert!(cells.iter().any(|c| c["topology"] == "dragonfly"
            && c["collective"] == "allreduce-rd"
            && c["ranks"] == 256
            && num(&c["saturated_links"]) >= 1.0));
        // The plain sweep's artifact rides along, and the heatmaps only
        // add to its text.
        let plain = run_target("sweep-ranks", &quick());
        assert!(out.text.starts_with(&plain.text));
        assert_eq!(plain.artifacts, out.artifacts);
    }

    #[test]
    fn sweep_threads_target_renders_all_curves_and_gates() {
        let run = run_target("sweep-threads", &quick());
        let out = &run.text;
        assert!(out.contains("-- shared (lock: global)"), "{out}");
        assert!(out.contains("-- per-endpoint"), "{out}");
        assert!(out.contains("-- independent"), "{out}");
        assert!(out.contains("1-thread equivalence: OK"), "{out}");
        assert!(out.contains("SCALABLE"), "{out}");
        assert!(!out.contains("NOT SCALABLE"), "{out}");
        // Pooled cells share nothing: reruns are byte-identical.
        let rerun = run_target("sweep-threads", &quick());
        assert_eq!((out, &run.artifacts), (&rerun.text, &rerun.artifacts));
    }

    #[test]
    fn sweep_threads_json_artifact_holds_every_gate() {
        let d = artifact(&run_target("sweep-threads", &quick()), "sweep-threads");
        assert!(d["schema"] == "bband/sweep-threads/v1");
        let base = &d["baseline"];
        assert!(
            base["bit_exact"] == true,
            "the 1-thread point must be bit-exact vs the multicore path"
        );
        assert_eq!(num(&base["multicore_ns"]), num(&base["sweep_ns"]));
        let zambre = &d["zambre"];
        assert!(zambre["threads"] == 8 && zambre["scalable"] == true);
        assert!(
            num(&zambre["ratio"]) >= 4.0,
            "independent VIs must deliver >=4x the locked-endpoint rate"
        );
        // Grid: 3 curves x 4 thread counts at quick scale.
        let points = arr(&d["points"]);
        assert_eq!(points.len(), 12);
        // Monotone ordering at 8 threads: independent >= per-endpoint >=
        // global — Zambre's lock-granularity spectrum.
        let at8 = |curve: &str| {
            points
                .iter()
                .find(|p| p["curve"] == curve && p["threads"] == 8)
                .unwrap_or_else(|| panic!("no {curve} point at 8 threads"))
        };
        let rate = |curve: &str| num(&at8(curve)["rate_per_us"]);
        let (shared, per_ep, indep) = (rate("shared"), rate("per-endpoint"), rate("independent"));
        assert!(
            indep >= per_ep && per_ep >= shared,
            "rate ordering violated at 8 threads: {indep} vs {per_ep} vs {shared}"
        );
        // The independent curve records no lock traffic at all; the
        // shared endpoint contends at 8 threads.
        for p in points.iter().filter(|p| p["curve"] == "independent") {
            assert!(
                p["lock_acquisitions"] == 0 && p["lock_wait_ns"] == 0.0,
                "{p:?}"
            );
        }
        let shared8 = at8("shared");
        assert!(num(&shared8["lock_contended"]) > 0.0 && num(&shared8["lock_wait_ns"]) > 0.0);
    }

    #[test]
    fn windowed_metrics_renders_per_window_rows() {
        let o = Opts {
            windows: Some(6),
            ..quick()
        };
        let out = run_target("metrics", &o);
        assert!(out.text.contains("windows of e2e_latency"), "{}", out.text);
        assert!(out.text.contains("6 virtual-time windows"), "{}", out.text);
        assert_eq!(out.text, run_target("metrics", &o).text);
        // The aggregate table still leads the windowed view.
        assert!(out.text.contains("p99.9"), "{}", out.text);
        // The artifact is this windowed run's.
        let title = artifact(&out, "metrics")["title"]
            .as_str()
            .unwrap()
            .to_string();
        assert!(title.contains("6 virtual-time windows"), "{title}");
    }

    #[test]
    fn trace_bench_chrome_json_is_deterministic_and_has_flows() {
        let a = run_target("trace", &bench("put_bw"));
        let b = run_target("trace", &bench("put_bw"));
        assert_eq!(a.artifacts, b.artifacts);
        let (_, json) = &a.artifacts[0];
        assert!(
            json.contains("\"ph\": \"s\""),
            "stage edges must export as flows"
        );
        assert!(json.contains("\"ph\": \"f\""));
    }
}
