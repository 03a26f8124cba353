//! The six workloads. Each one builds its state once (`setup`), then runs
//! samples: one sample is a fixed amount of simulated work, driven from
//! the main thread through the simulator crates' public functions only.
//!
//! Sample results are digested and checked outside the timed region.

use crate::ops::{op, op_infallible};
use crate::stats::Fnv;
use crate::trace::{self, Layer};
use bband_cluster::{
    dragonfly_for, fat_tree_for, run_flow_collective, ClusterFabric, EndpointCosts, FlowCollective,
    FlowCounters, FlowReport, TelemetryConfig, TelemetryReport,
};
use bband_core::fault::{self, EnginePath, FaultPlan, FaultRunStats, MarkovStall};
use bband_core::{Calibration, EndToEndLatencyModel};
use bband_fabric::NodeId;
use bband_hlp::{UcpCosts, UcpWorker};
use bband_llp::LockGranularity;
use bband_metrics as metrics;
use bband_microbench::{endpoint_injection, BenchClock, StackConfig, ThreadSweepConfig};
use bband_mpi::{MpiCosts, MpiProcess};
use bband_nic::Opcode;
use bband_pcie::{Dllp, LinkDirection, LinkTap, NullTap, Tlp};
use bband_sim::SimTime;
use serde_json::Value;
use std::sync::OnceLock;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    EngineClean,
    EngineFaulty,
    EngineSized,
    LiveStack,
    RanksRing,
    RanksContended,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::EngineClean,
        Kind::EngineFaulty,
        Kind::EngineSized,
        Kind::LiveStack,
        Kind::RanksRing,
        Kind::RanksContended,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::EngineClean => "engine_clean",
            Kind::EngineFaulty => "engine_faulty",
            Kind::EngineSized => "engine_sized",
            Kind::LiveStack => "live_stack",
            Kind::RanksRing => "ranks_ring",
            Kind::RanksContended => "ranks_contended",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Samples of a run bounded by count rather than by time.
    pub fn samples(self) -> u64 {
        match self {
            Kind::EngineClean => 12_000,
            Kind::EngineFaulty => 4_000,
            Kind::EngineSized => 6_000,
            Kind::LiveStack => 200,
            Kind::RanksRing => 200,
            Kind::RanksContended => 300,
        }
    }

    /// Whether the seed reaches the simulated result. The zero fault plan
    /// draws no randomness and the flow fabric has none, so every sample
    /// of these workloads must produce the same digest.
    pub fn seeded(self) -> bool {
        matches!(
            self,
            Kind::EngineFaulty | Kind::EngineSized | Kind::LiveStack
        )
    }

    /// Digest of the first [`CHECK_SAMPLES`] samples at seed 1. A change
    /// that moves it changed simulated output.
    pub fn expected_digest(self) -> u64 {
        match self {
            Kind::EngineClean => 0xab56_51d5_bebc_f485,
            Kind::EngineFaulty => 0x9387_3f4d_8d7c_edad,
            Kind::EngineSized => 0x5b55_f5ac_6de3_e437,
            Kind::LiveStack => 0x43b5_4672_4c7c_0319,
            Kind::RanksRing => 0xd276_465d_b4d6_76dd,
            Kind::RanksContended => 0x8795_3270_f76d_334d,
        }
    }
}

/// Samples folded into [`Kind::expected_digest`].
pub const CHECK_SAMPLES: u64 = 4;

/// Messages per fault-engine call on the 8-byte workloads.
const ENGINE_MESSAGES: u64 = 20_000;
/// Messages per fault-engine call on the sized workload.
const SIZED_MESSAGES: u64 = 2_000;
const PAYLOAD_CYCLE: [u32; 7] = [8, 64, 256, 1024, 4096, 16384, 65536];

/// `put_bw`-style posts per `live_stack` pass.
const PUT_BW_POSTS: u64 = 10_000;
const OSU_WINDOWS: u32 = 20;
const OSU_WINDOW: u32 = 512;
/// Thread counts of the `live_stack` thread grid; see README for why 5
/// and 7 are left out.
const THREAD_COUNTS: [u32; 4] = [1, 2, 4, 8];
const MSGS_PER_THREAD: u64 = 400;

pub const RING_RANKS: u32 = 384;
const CONTENDED_RANKS: u32 = 2048;
const COLLECTIVE_BYTES: u32 = 4096;
const RING_COLLECTIVES: [FlowCollective; 1] = [FlowCollective::AllreduceRing {
    bytes: COLLECTIVE_BYTES,
}];
const CONTENDED_COLLECTIVES: [FlowCollective; 3] = [
    FlowCollective::Barrier,
    FlowCollective::Bcast {
        bytes: COLLECTIVE_BYTES,
    },
    FlowCollective::AllreduceRd {
        bytes: COLLECTIVE_BYTES,
    },
];

/// One curve of the thread grid: name, endpoints for `t` threads, lock.
type Curve = (&'static str, fn(u32) -> u32, LockGranularity);

/// The three curves of `repro sweep-threads`.
pub const CURVES: [Curve; 3] = [
    ("shared", |_| 1, LockGranularity::GlobalLock),
    (
        "per-endpoint",
        |t| (t / 2).max(1),
        LockGranularity::PerEndpointLock,
    ),
    ("independent", |t| t, LockGranularity::Independent),
];

fn cell_span(curve: &str) -> &'static str {
    match curve {
        "shared" => "microbench.thread_cell.shared",
        "per-endpoint" => "microbench.thread_cell.per-endpoint",
        _ => "microbench.thread_cell.independent",
    }
}

/// Span name of one collective on one topology.
fn collective_span(coll: FlowCollective, topo: &str) -> &'static str {
    let dragonfly = topo == "dragonfly";
    match (coll, dragonfly) {
        (FlowCollective::Barrier, false) => "cluster.collective.barrier.fat-tree",
        (FlowCollective::Barrier, true) => "cluster.collective.barrier.dragonfly",
        (FlowCollective::Bcast { .. }, false) => "cluster.collective.bcast.fat-tree",
        (FlowCollective::Bcast { .. }, true) => "cluster.collective.bcast.dragonfly",
        (FlowCollective::AllreduceRd { .. }, false) => "cluster.collective.allreduce-rd.fat-tree",
        (FlowCollective::AllreduceRd { .. }, true) => "cluster.collective.allreduce-rd.dragonfly",
        (FlowCollective::AllreduceRing { .. }, false) => {
            "cluster.collective.allreduce-ring.fat-tree"
        }
        (FlowCollective::AllreduceRing { .. }, true) => {
            "cluster.collective.allreduce-ring.dragonfly"
        }
    }
}

/// The fault plan of an engine workload.
pub fn engine_plan(kind: Kind) -> (FaultPlan, u64) {
    let mut plan = FaultPlan::none();
    match kind {
        Kind::EngineClean => (plan, ENGINE_MESSAGES),
        Kind::EngineFaulty => {
            plan.loss_probability = 1e-3;
            plan.markov_stall = Some(MarkovStall {
                mean_up_ns: 20_000.0,
                mean_down_ns: 1_000.0,
            });
            (plan, ENGINE_MESSAGES)
        }
        Kind::EngineSized => {
            plan.loss_probability = 1e-3;
            plan.payload_cycle = PAYLOAD_CYCLE.to_vec();
            (plan, SIZED_MESSAGES)
        }
        _ => unreachable!("{kind:?} is not an engine workload"),
    }
}

/// A workload's state between samples.
pub enum State {
    Engine {
        cal: Box<Calibration>,
        plan: FaultPlan,
        messages: u64,
    },
    Live,
    Ranks(RanksState),
}

pub struct RanksState {
    ranks: u32,
    colls: &'static [FlowCollective],
    fabrics: Vec<(&'static str, ClusterFabric)>,
    /// Run each collective under `bband_metrics::collect`, as the
    /// rank sweep does, to get per-message latency quantiles.
    collect: bool,
}

impl RanksState {
    /// Build both topologies for `kind`, optionally with telemetry and the
    /// metrics collector.
    pub fn build(kind: Kind, telemetry: bool, collect: bool) -> Self {
        let (ranks, colls): (u32, &'static [FlowCollective]) = match kind {
            Kind::RanksRing => (RING_RANKS, &RING_COLLECTIVES),
            Kind::RanksContended => (CONTENDED_RANKS, &CONTENDED_COLLECTIVES),
            _ => unreachable!("{kind:?} is not a ranks workload"),
        };
        let fabrics = [
            ("fat-tree", fat_tree_for as fn(u32) -> _),
            ("dragonfly", dragonfly_for),
        ]
        .into_iter()
        .map(|(topo, graph_for)| {
            let mut fab = trace::span(Layer::Cluster, "cluster.fabric_build", || {
                ClusterFabric::paper_default(graph_for(ranks))
            });
            if telemetry {
                trace::span(Layer::Telemetry, "telemetry.enable", || {
                    fab.enable_telemetry(TelemetryConfig::paper_default())
                });
            }
            (topo, fab)
        })
        .collect();
        RanksState {
            ranks,
            colls,
            fabrics,
            collect,
        }
    }

    pub fn sample(&mut self) -> Vec<Option<CollResult>> {
        let costs = EndpointCosts::paper_default();
        let (ranks, collect) = (self.ranks, self.collect);
        let mut out = Vec::with_capacity(self.fabrics.len() * self.colls.len());
        for (topo, fab) in &mut self.fabrics {
            for &coll in self.colls {
                let name = collective_span(coll, topo);
                out.push(op_infallible(|| {
                    let run = |fab: &mut ClusterFabric| {
                        trace::span(Layer::Cluster, name, || {
                            run_flow_collective(fab, ranks, coll, costs)
                        })
                    };
                    let (report, quantiles) = if collect {
                        let (report, task) = trace::span(Layer::Metrics, "metrics.collect", || {
                            metrics::collect(|| run(fab))
                        });
                        let set = metrics::MetricsSet::from_task(task);
                        let h = set
                            .hist("fabric_msg_latency")
                            .expect("collectives record message latencies");
                        (report, Some((h.quantile_ns(0.50), h.quantile_ns(0.99))))
                    } else {
                        (run(fab), None)
                    };
                    let telemetry = fab.telemetry().map(|t| {
                        trace::span(Layer::Telemetry, "telemetry.summarize", || {
                            t.summarize(&fab.graph, &fab.counters)
                        })
                    });
                    CollResult {
                        topo,
                        coll,
                        report,
                        counters: fab.counters,
                        quantiles,
                        telemetry,
                    }
                }));
            }
        }
        out
    }
}

/// One collective on one topology.
pub struct CollResult {
    pub topo: &'static str,
    pub coll: FlowCollective,
    pub report: FlowReport,
    pub counters: FlowCounters,
    /// Per-message fabric latency p50 and p99, ns.
    pub quantiles: Option<(f64, f64)>,
    pub telemetry: Option<TelemetryReport>,
}

/// A PCIe tap that counts what crosses the link.
#[derive(Debug, Default)]
struct CountingTap {
    tlps: u64,
    dllps: u64,
}

impl LinkTap for CountingTap {
    fn on_tlp(&mut self, _: SimTime, _: LinkDirection, _: &Tlp) {
        self.tlps += 1;
    }
    fn on_dllp(&mut self, _: SimTime, _: LinkDirection, _: &Dllp) {
        self.dllps += 1;
    }
}

/// What the `put_bw`-style loop produced.
pub struct PutResult {
    pub end_ps: u64,
    pub successful_posts: u64,
    pub busy_posts: u64,
    pub progress_calls: u64,
    pub tlps: u64,
    pub dllps: u64,
    pub rc_never_stalled: bool,
}

/// What the OSU message-rate loop produced.
pub struct OsuResult {
    pub end_ps: u64,
    pub busy_posts: u64,
    pub progress_calls: u64,
    pub rc_never_stalled: bool,
}

/// One cell of the thread grid.
pub struct CellResult {
    pub curve: &'static str,
    pub threads: u32,
    pub endpoints: u32,
    pub lock: &'static str,
    pub rate_per_us: f64,
    pub per_thread_ns: f64,
    pub busy_posts: u64,
    pub lock_acquisitions: u64,
    pub lock_contended: u64,
    pub lock_wait_ns: f64,
    pub rc_stalled: bool,
    pub credit_waits: u64,
}

pub struct LiveResult {
    pub put: Option<PutResult>,
    pub osu: Option<OsuResult>,
    pub cells: Vec<Option<CellResult>>,
}

pub enum Results {
    Engine(Option<FaultRunStats>),
    Live(LiveResult),
    Ranks(Vec<Option<CollResult>>),
}

impl State {
    /// Build the state of `kind`: fabrics, telemetry recorders, plans.
    pub fn setup(kind: Kind) -> State {
        match kind {
            Kind::EngineClean | Kind::EngineFaulty | Kind::EngineSized => {
                let (plan, messages) = engine_plan(kind);
                State::Engine {
                    cal: Box::default(),
                    plan,
                    messages,
                }
            }
            Kind::LiveStack => State::Live,
            Kind::RanksRing => State::Ranks(RanksState::build(kind, false, true)),
            Kind::RanksContended => State::Ranks(RanksState::build(kind, true, true)),
        }
    }

    /// Run one sample with the given seed.
    pub fn sample(&mut self, seed: u64) -> Results {
        let _g = trace::begin(Layer::Bench, "bench.sample");
        match self {
            State::Engine {
                cal,
                plan,
                messages,
            } => Results::Engine(op(|| {
                trace::span(Layer::Fault, "fault.run_e2e_under_faults_on", || {
                    fault::run_e2e_under_faults_on(EnginePath::Fast, cal, plan, *messages, seed)
                })
            })),
            State::Live => Results::Live(live_pass(seed)),
            State::Ranks(r) => Results::Ranks(r.sample()),
        }
    }
}

impl Results {
    /// Operations the sample attempted, and how many of them failed.
    pub fn op_counts(&self) -> (u64, u64) {
        let succeeded: Vec<bool> = match self {
            Results::Engine(r) => vec![r.is_some()],
            Results::Live(l) => [l.put.is_some(), l.osu.is_some()]
                .into_iter()
                .chain(l.cells.iter().map(Option::is_some))
                .collect(),
            Results::Ranks(v) => v.iter().map(Option::is_some).collect(),
        };
        let failed = succeeded.iter().filter(|ok| !**ok).count();
        (succeeded.len() as u64, failed as u64)
    }

    /// Simulated messages the sample's successful operations carried.
    pub fn messages(&self) -> u64 {
        match self {
            Results::Engine(r) => r.as_ref().map_or(0, |s| s.messages),
            Results::Live(l) => {
                let put = l.put.as_ref().map_or(0, |p| p.successful_posts);
                let osu = l
                    .osu
                    .as_ref()
                    .map_or(0, |_| (OSU_WINDOWS * OSU_WINDOW) as u64);
                let cells: u64 = l
                    .cells
                    .iter()
                    .flatten()
                    .map(|c| c.threads as u64 * MSGS_PER_THREAD)
                    .sum();
                put + osu + cells
            }
            Results::Ranks(v) => v.iter().flatten().map(|c| c.report.messages).sum(),
        }
    }

    /// FNV-1a over every simulated result of the sample. A failed
    /// operation enters as a marker, so failures move the digest too.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Results::Engine(r) => fold_opt(&mut h, r, fold_fault_stats),
            Results::Live(l) => {
                fold_opt(&mut h, &l.put, |h, p| {
                    h.u64(p.end_ps)
                        .u64(p.successful_posts)
                        .u64(p.busy_posts)
                        .u64(p.progress_calls)
                        .u64(p.tlps)
                        .u64(p.dllps)
                        .bool(p.rc_never_stalled);
                });
                fold_opt(&mut h, &l.osu, |h, o| {
                    h.u64(o.end_ps)
                        .u64(o.busy_posts)
                        .u64(o.progress_calls)
                        .bool(o.rc_never_stalled);
                });
                for c in &l.cells {
                    fold_opt(&mut h, c, |h, c| {
                        h.str(c.curve)
                            .u64(c.threads as u64)
                            .u64(c.endpoints as u64)
                            .str(c.lock)
                            .f64(c.rate_per_us)
                            .f64(c.per_thread_ns)
                            .u64(c.busy_posts)
                            .u64(c.lock_acquisitions)
                            .u64(c.lock_contended)
                            .f64(c.lock_wait_ns)
                            .bool(c.rc_stalled)
                            .u64(c.credit_waits);
                    });
                }
            }
            Results::Ranks(v) => {
                for c in v {
                    fold_opt(&mut h, c, fold_collective);
                }
            }
        }
        h.finish()
    }
}

fn fold_opt<T>(h: &mut Fnv, v: &Option<T>, f: impl FnOnce(&mut Fnv, &T)) {
    match v {
        Some(x) => {
            h.bool(true);
            f(h, x);
        }
        None => {
            h.bool(false);
        }
    }
}

fn fold_fault_stats(h: &mut Fnv, s: &FaultRunStats) {
    let c = &s.counters;
    h.u64(s.messages)
        .u64(s.completed)
        .f64(s.mean_ns)
        .f64(s.min_ns)
        .f64(s.max_ns)
        .u64(c.rc_retransmissions)
        .u64(c.rc_naks)
        .u64(c.rc_timeouts)
        .u64(c.dll_replays)
        .u64(c.dll_nacks)
        .u64(c.replay_stalls)
        .u64(c.credit_stalls)
        .u64(c.nic_stalls)
        .u64(c.recovery_time.as_ps());
}

fn fold_collective(h: &mut Fnv, c: &CollResult) {
    let (r, k) = (&c.report, &c.counters);
    h.str(c.topo)
        .str(c.coll.name())
        .u64(r.completion.as_ps())
        .u64(r.rounds as u64)
        .u64(r.messages)
        .u64(r.bisection_bytes)
        .u64(k.messages)
        .u64(k.contended)
        .u64(k.credit_waits)
        .u64(k.ecn_marks)
        .u64(k.ecn_backoffs);
    if let Some((p50, p99)) = c.quantiles {
        h.f64(p50).f64(p99);
    }
    if let Some(t) = &c.telemetry {
        h.u64(t.window_ps)
            .u64(t.windows)
            .u64(t.span_ps)
            .u64(t.messages)
            .u64(t.saturated_links)
            .u64(t.totals.latency_ps)
            .u64(t.totals.wire_ps)
            .u64(t.totals.queue_ps)
            .u64(t.totals.credit_ps)
            .u64(t.occupancy.high_water_bytes)
            .f64(t.occupancy.mean_occupied_bytes)
            .bool(t.conservation.exact());
        for v in &t.occupancy.hist {
            h.u64(*v);
        }
        for s in &t.classes {
            h.str(&s.label)
                .u64(s.links)
                .u64(s.busy_ps)
                .u64(s.queue_ps)
                .u64(s.credit_ps)
                .f64(s.peak_util);
            for u in &s.util {
                h.f64(*u);
            }
        }
        for g in &t.groups {
            h.u64(g.group as u64)
                .u64(g.busy_ps)
                .u64(g.links)
                .f64(g.util);
        }
        for s in &t.hotspots {
            h.u64(s.sw as u64)
                .u64(s.port as u64)
                .str(&s.class)
                .f64(s.util)
                .u64(s.busy_ps)
                .u64(s.queue_ps)
                .u64(s.credit_ps)
                .u64(s.credit_events)
                .u64(s.ecn_marks)
                .u64(s.flows);
        }
    }
}

/// One `live_stack` pass: the event-level stack behind figs 6/7/10 and
/// `repro sweep-threads`.
fn live_pass(seed: u64) -> LiveResult {
    let put =
        op_infallible(|| trace::span(Layer::Bench, "bench.put_bw_loop", || put_bw_loop(seed)));
    let osu = op_infallible(|| trace::span(Layer::Bench, "bench.osu_loop", || osu_loop(seed)));
    let cells = CURVES
        .iter()
        .flat_map(|curve| THREAD_COUNTS.map(|threads| (curve, threads)))
        .map(|(curve, threads)| op_infallible(|| thread_cell(seed, curve, threads)))
        .collect();
    LiveResult { put, osu, cells }
}

/// One cell of the `repro sweep-threads` grid on the deterministic stack.
fn thread_cell(seed: u64, &(curve, endpoints_of, lock): &Curve, threads: u32) -> CellResult {
    let cfg = ThreadSweepConfig {
        stack: StackConfig {
            seed,
            ..StackConfig::validation()
        },
        threads,
        endpoints: endpoints_of(threads),
        lock,
        messages_per_thread: MSGS_PER_THREAD,
        ring_depth: 16,
        credits: None,
        stalls: None,
    };
    let r = trace::span(Layer::Microbench, cell_span(curve), || {
        endpoint_injection(&cfg)
    });
    CellResult {
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
}

/// The `put_bw` loop on the jittered stack: post, progress on a busy
/// post, poll one completion every 16 posts, and charge a measurement
/// update after every post.
fn put_bw_loop(seed: u64) -> PutResult {
    let stack = StackConfig {
        seed,
        ..StackConfig::default()
    };
    let mut cluster = stack.build_cluster();
    let mut worker = stack.build_worker(0);
    worker.set_ring_capacity(256);
    let mut bench = BenchClock::new(seed, false);
    let mut tap = CountingTap::default();
    for posted in 1..=PUT_BW_POSTS {
        while trace::call(Layer::Llp, "llp.post", || {
            worker.post(
                &mut cluster,
                Opcode::RdmaWrite,
                NodeId(1),
                8,
                true,
                &mut tap,
            )
        })
        .is_err()
        {
            trace::call(Layer::Llp, "llp.progress", || {
                worker.progress(&mut cluster, &mut tap)
            });
        }
        if posted % 16 == 0 {
            trace::call(Layer::Llp, "llp.progress", || {
                worker.progress(&mut cluster, &mut tap)
            });
        }
        bench.update(worker.cpu_mut());
    }
    cluster.run_until_idle(&mut tap);
    PutResult {
        end_ps: worker.now().as_ps(),
        successful_posts: worker.successful_posts(),
        busy_posts: worker.busy_posts(),
        progress_calls: worker.progress_calls(),
        tlps: tap.tlps,
        dllps: tap.dllps,
        rc_never_stalled: cluster.rc_never_stalled(),
    }
}

/// OSU message rate on the jittered stack: windows of `MPI_Isend` closed
/// by `MPI_Waitall`, completions signalled every 64 operations.
fn osu_loop(seed: u64) -> OsuResult {
    let stack = StackConfig {
        seed,
        ..StackConfig::default()
    };
    let mut cluster = stack.build_cluster();
    let mut tap = NullTap;
    let mut uct = stack.build_worker(0);
    uct.set_ring_capacity(128);
    let costs = UcpCosts {
        signal_period: 64,
        ..Default::default()
    };
    let mut rank = MpiProcess::new(UcpWorker::new(uct, costs), MpiCosts::default());
    rank.init(&mut cluster, &mut tap);
    let mut reqs = Vec::with_capacity(OSU_WINDOW as usize);
    for w in 0..OSU_WINDOWS {
        reqs.clear();
        for i in 0..OSU_WINDOW {
            let tag = ((w as i64 + 1) << 16) | i as i64;
            reqs.push(trace::call(Layer::Mpi, "mpi.isend", || {
                rank.isend(&mut cluster, NodeId(1), 8, tag, &mut tap)
            }));
        }
        trace::span(Layer::Mpi, "mpi.waitall", || {
            rank.waitall(&mut cluster, &reqs, &mut tap)
        });
    }
    cluster.run_until_idle(&mut tap);
    OsuResult {
        end_ps: rank.now().as_ps(),
        busy_posts: rank.ucp().uct().busy_posts,
        progress_calls: rank.ucp().uct().progress_calls,
        rc_never_stalled: cluster.rc_never_stalled(),
    }
}

/// The model's fault-free end-to-end latency, ns.
pub fn model_total_ns() -> f64 {
    EndToEndLatencyModel::from_calibration(&Calibration::default())
        .total()
        .as_ns_f64()
}

/// Thread-grid points of the committed `artifacts/sweep-threads.json`,
/// keyed by (curve, threads).
pub fn artifact_cells() -> &'static [(String, u32, Value)] {
    static CELLS: OnceLock<Vec<(String, u32, Value)>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let doc: Value = serde_json::from_str(include_str!("../../artifacts/sweep-threads.json"))
            .expect("committed sweep-threads artifact parses");
        doc.get("points")
            .and_then(Value::as_array)
            .expect("sweep-threads artifact has points")
            .iter()
            .map(|p| {
                let curve = p.get("curve").and_then(Value::as_str).expect("curve");
                let threads = p.get("threads").and_then(Value::as_u64).expect("threads");
                (curve.to_string(), threads as u32, p.clone())
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    /// Failure accounting surfaces a real bug: the per-endpoint cells of
    /// `repro sweep-threads` at 5 and 7 threads schedule an event behind
    /// the event queue's watermark, so full-scale `repro sweep-threads`
    /// aborts. `live_stack` runs 1/2/4/8 threads until it is fixed; the
    /// fix should flip this test and widen `THREAD_COUNTS` to 1..=8.
    #[test]
    fn known_bug_per_endpoint_cells_at_5_and_7_threads_panic() {
        ops::install_quiet_hook();
        let per_endpoint = &CURVES[1];
        for threads in [5, 7] {
            assert!(
                op_infallible(|| thread_cell(1, per_endpoint, threads)).is_none(),
                "per-endpoint cell at {threads} threads no longer fails"
            );
        }
        assert!(ops::distinct()
            .iter()
            .any(|(m, _)| m.contains("causality violation")));
        for threads in [3, 6] {
            assert!(op_infallible(|| thread_cell(1, per_endpoint, threads)).is_some());
        }
    }
}
