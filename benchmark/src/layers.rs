//! The traced run and the per-layer metrics.
//!
//! A traced run samples its primary workloads again with the tracer on
//! (one tenth of the untraced samples, same seeds), plus a few companion
//! samples of every other workload, so each per-layer metric is measured
//! whichever workload is primary. Probes that time one layer in
//! isolation (event queue, NIC, fabric hop, fabric build) and the
//! observation-cost comparisons run untraced afterwards.

use crate::stats::{median, sample_seed, sorted};
use crate::trace::{self, Hist, Layer, LayerTotals, Span};
use crate::workloads::{engine_plan, Kind, RanksState, Results, State, CURVES, RING_RANKS};
use bband_cluster::{fat_tree_for, ClusterFabric};
use bband_core::fault::{self, EnginePath};
use bband_core::Calibration;
use bband_fabric::NodeId;
use bband_nic::{Cluster, Opcode, PostDescriptor, QpId, WrId};
use bband_pcie::NullTap;
use bband_sim::{EventQueue, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Samples of each non-primary workload in a traced run.
fn companions(kind: Kind) -> u64 {
    match kind {
        Kind::EngineClean | Kind::EngineFaulty | Kind::EngineSized => 20,
        Kind::LiveStack | Kind::RanksRing => 2,
        Kind::RanksContended => 3,
    }
}

/// Work counted at the layer boundaries of the traced samples.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    messages: u64,
    completed: u64,
    rc_retransmissions: u64,
    dll_replays: u64,
    credit_stalls: u64,
    nic_stalls: u64,
    posts: u64,
    busy_posts: u64,
    tlps: u64,
    dllps: u64,
    cells_failed: u64,
    flow_messages: u64,
    contended: u64,
    credit_waits: u64,
    ecn_marks: u64,
}

impl Tally {
    fn add(&mut self, results: &Results) {
        match results {
            Results::Engine(stats) => {
                if let Some(s) = stats {
                    self.messages += s.messages;
                    self.completed += s.completed;
                    self.rc_retransmissions += s.counters.rc_retransmissions;
                    self.dll_replays += s.counters.dll_replays;
                    self.credit_stalls += s.counters.credit_stalls;
                    self.nic_stalls += s.counters.nic_stalls;
                }
            }
            Results::Live(live) => {
                if let Some(p) = &live.put {
                    self.posts += p.successful_posts;
                    self.busy_posts += p.busy_posts;
                    self.tlps += p.tlps;
                    self.dllps += p.dllps;
                }
                self.cells_failed += live.cells.iter().filter(|c| c.is_none()).count() as u64;
            }
            Results::Ranks(colls) => {
                for c in colls.iter().flatten() {
                    self.flow_messages += c.report.messages;
                    self.contended += c.counters.contended;
                    self.credit_waits += c.counters.credit_waits;
                    self.ecn_marks += c.counters.ecn_marks;
                }
            }
        }
    }
}

/// What a traced run produced.
pub struct Traced {
    /// `(wall ns, simulated messages)` of each traced primary sample.
    pub samples: BTreeMap<Kind, Vec<(u64, u64)>>,
    /// Every per-layer metric by name, except `trace_overhead_frac`,
    /// which needs the untraced run.
    pub metrics: BTreeMap<String, f64>,
    pub layers: BTreeMap<Layer, LayerTotals>,
    pub spans: Vec<Span>,
    pub hists: BTreeMap<&'static str, Hist>,
}

/// Trace `count` samples (from index 0) of each primary workload, then
/// companions of the others, then run the probes.
pub fn traced(primaries: &[(Kind, u64)], seed: u64) -> Traced {
    let mut tallies: BTreeMap<Kind, Tally> = BTreeMap::new();
    let mut samples = BTreeMap::new();
    for kind in Kind::ALL {
        let primary = primaries.iter().find(|(k, _)| *k == kind).map(|&(_, n)| n);
        trace::start(kind.name());
        let mut state = trace::span(Layer::Bench, "bench.setup", || State::setup(kind));
        let tally = tallies.entry(kind).or_default();
        let mut walls = Vec::new();
        for i in 0..primary.unwrap_or_else(|| companions(kind)) {
            let t0 = Instant::now();
            let results = state.sample(sample_seed(seed, kind.name(), i));
            walls.push((t0.elapsed().as_nanos() as u64, results.messages()));
            tally.add(&results);
        }
        trace::stop();
        if primary.is_some() {
            samples.insert(kind, walls);
        }
    }
    let (spans, hists) = trace::take();
    let mut metrics = span_metrics(&spans, &hists, &tallies);
    probe_metrics(seed, &mut metrics);
    Traced {
        samples,
        metrics,
        layers: trace::layer_totals(&spans, &hists),
        spans,
        hists,
    }
}

fn per_k(count: u64, of: u64) -> f64 {
    count as f64 * 1e3 / of.max(1) as f64
}

fn ratio(count: u64, of: u64) -> f64 {
    count as f64 / of.max(1) as f64
}

/// Median duration, ms, of the spans named `name` of workload `kind`.
fn span_ms(spans: &[Span], kind: Kind, name: &str) -> f64 {
    let d = sorted(
        spans
            .iter()
            .filter(|s| s.workload == kind.name() && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6),
    );
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Metrics read off the spans, histograms and tallies.
fn span_metrics(
    spans: &[Span],
    hists: &BTreeMap<&str, Hist>,
    tallies: &BTreeMap<Kind, Tally>,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |k: String, v: f64| {
        m.insert(k, v);
    };
    for kind in [Kind::EngineClean, Kind::EngineFaulty, Kind::EngineSized] {
        let t = tallies[&kind];
        let w = kind.name();
        put(
            format!("fault.call_ms.{w}"),
            span_ms(spans, kind, "fault.run_e2e_under_faults_on"),
        );
        put(
            format!("fault.rc_retransmissions_per_kmsg.{w}"),
            per_k(t.rc_retransmissions, t.messages),
        );
        put(
            format!("fault.dll_replays_per_kmsg.{w}"),
            per_k(t.dll_replays, t.messages),
        );
        put(
            format!("fault.credit_stalls_per_kmsg.{w}"),
            per_k(t.credit_stalls, t.messages),
        );
        put(
            format!("fault.nic_stalls_per_kmsg.{w}"),
            per_k(t.nic_stalls, t.messages),
        );
        put(
            format!("fault.completed_frac.{w}"),
            ratio(t.completed, t.messages),
        );
    }
    let live = tallies[&Kind::LiveStack];
    put("pcie.tlps_per_msg".into(), ratio(live.tlps, live.posts));
    put("pcie.dllps_per_msg".into(), ratio(live.dllps, live.posts));
    let hist_ns = |name: &str| hists.get(name).map_or(0.0, |h| h.quantile(0.5));
    put("llp.post_ns".into(), hist_ns("llp.post"));
    put("llp.progress_ns".into(), hist_ns("llp.progress"));
    put(
        "llp.busy_post_frac".into(),
        ratio(live.busy_posts, live.posts),
    );
    put("mpi.isend_ns".into(), hist_ns("mpi.isend"));
    put(
        "mpi.waitall_ns".into(),
        span_ms(spans, Kind::LiveStack, "mpi.waitall") * 1e6,
    );
    for (curve, _, _) in CURVES {
        let cells: Vec<f64> = spans
            .iter()
            .filter(|s| {
                s.workload == Kind::LiveStack.name()
                    && s.name.strip_prefix("microbench.thread_cell.") == Some(curve)
            })
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        put(
            format!("microbench.thread_cell_ms.{curve}"),
            cells.iter().sum::<f64>() / cells.len().max(1) as f64,
        );
    }
    put(
        "microbench.thread_cells_failed".into(),
        live.cells_failed as f64,
    );
    for kind in [Kind::RanksRing, Kind::RanksContended] {
        let t = tallies[&kind];
        let w = kind.name();
        put(
            format!("cluster.contended_per_msg.{w}"),
            ratio(t.contended, t.flow_messages),
        );
        put(
            format!("cluster.credit_waits_per_msg.{w}"),
            ratio(t.credit_waits, t.flow_messages),
        );
        put(
            format!("cluster.ecn_marks_per_msg.{w}"),
            ratio(t.ecn_marks, t.flow_messages),
        );
        let mut names: Vec<&str> = spans
            .iter()
            .filter(|s| s.workload == w && s.name.starts_with("cluster.collective."))
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let metric = name.replacen("cluster.collective.", "cluster.collective_ms.", 1);
            put(metric, span_ms(spans, kind, name));
        }
    }
    put(
        "telemetry.summarize_ms".into(),
        span_ms(spans, Kind::RanksContended, "telemetry.summarize"),
    );
    m
}

/// Median of `reps` timings of `f`, seconds.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = sorted((0..reps).map(|_| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    }));
    median(&t)
}

/// `on` vs `off` wall time of one sample each, alternated `reps` times:
/// median(on) / median(off) - 1.
fn overhead(reps: usize, mut off: impl FnMut(), mut on: impl FnMut()) -> f64 {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        a.push(timed(1, &mut off));
        b.push(timed(1, &mut on));
    }
    median(&sorted(b)) / median(&sorted(a)) - 1.0
}

/// Layer probes, untraced.
fn probe_metrics(seed: u64, m: &mut BTreeMap<String, f64>) {
    for standing in [0usize, 1024] {
        let ops = 200_000;
        let s = timed(5, || queue_probe(standing, ops));
        m.insert(
            format!("sim.queue_push_pop_ns.standing_{standing}"),
            s * 1e9 / ops as f64,
        );
    }
    let posts = 20_000;
    let s = timed(3, || nic_probe(posts));
    m.insert("nic.doorbell_to_cqe_ns".into(), s * 1e9 / posts as f64);

    for (name, spacing_ns) in [("idle", 100_000), ("loaded", 0)] {
        let mut hops = 0;
        let s = timed(3, || hops = send_probe(spacing_ns).0);
        m.insert(
            format!("cluster.send_ns_per_hop.{name}"),
            s * 1e9 / hops as f64,
        );
    }
    for kind in [Kind::RanksRing, Kind::RanksContended] {
        let telemetry = kind == Kind::RanksContended;
        let s = timed(3, || {
            black_box(RanksState::build(kind, telemetry, true));
        });
        m.insert(format!("cluster.fabric_build_ms.{}", kind.name()), s * 1e3);
    }
    let (mut plain, mut observed) = (
        RanksState::build(Kind::RanksContended, false, true),
        RanksState::build(Kind::RanksContended, true, true),
    );
    m.insert(
        "telemetry.overhead_frac".into(),
        overhead(
            3,
            || {
                black_box(plain.sample());
            },
            || {
                black_box(observed.sample());
            },
        ),
    );
    let (mut bare, mut collected) = (
        RanksState::build(Kind::RanksRing, false, false),
        RanksState::build(Kind::RanksRing, false, true),
    );
    m.insert(
        "metrics.collect_overhead_frac".into(),
        overhead(
            3,
            || {
                black_box(bare.sample());
            },
            || {
                black_box(collected.sample());
            },
        ),
    );
    let cal = Calibration::default();
    for kind in [Kind::EngineClean, Kind::EngineFaulty, Kind::EngineSized] {
        let (plan, messages) = engine_plan(kind);
        // The check seeds: the samples the oracle re-runs on the reference
        // loop.
        let seeds: Vec<u64> = (0..3)
            .map(|i| sample_seed(seed, kind.name(), i * crate::run::REFERENCE_EVERY))
            .collect();
        let run_all = |path| {
            timed(1, || {
                for &s in &seeds {
                    let _ = black_box(fault::run_e2e_under_faults_on(
                        path, &cal, &plan, messages, s,
                    ));
                }
            })
        };
        let fast = run_all(EnginePath::Fast);
        let reference = run_all(EnginePath::Reference);
        m.insert(
            format!("fault.reference_speedup.{}", kind.name()),
            reference / fast,
        );
    }
}

/// The hold model on `sim::EventQueue`: with `standing` events pending,
/// pop the earliest and push one at a pseudo-random later time, `ops`
/// times.
fn queue_probe(standing: usize, ops: u64) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next_gap = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        SimDuration::from_ps(1 + x % 1_000_000)
    };
    for i in 0..standing {
        q.push(SimTime::ZERO + next_gap(), i as u64);
    }
    let mut now = SimTime::ZERO;
    for i in 0..ops {
        q.push(now + next_gap(), i);
        let (t, ev) = q.pop().expect("queue holds the event just pushed");
        now = t;
        black_box(ev);
    }
}

/// Doorbell to completion on the deterministic 2-node cluster: post one
/// 8-byte RDMA write, run the hardware to idle, pop the CQE.
fn nic_probe(posts: u64) {
    let mut cluster = Cluster::two_node_paper(1).deterministic();
    let mut tap = NullTap;
    let mut now = SimTime::ZERO;
    for i in 0..posts {
        let desc = PostDescriptor::pio_inline(WrId(i), Opcode::RdmaWrite, NodeId(1), 8);
        cluster.post(now, NodeId(0), desc, &mut tap);
        now = cluster.run_until_idle(&mut tap);
        black_box(
            cluster
                .pop_cqe(NodeId(0), QpId(0))
                .expect("a signalled write completes"),
        );
    }
}

/// `ClusterFabric::send` on the `ranks_ring` fat tree between
/// pseudo-random host pairs, departures `spacing_ns` apart: far apart
/// the queues stay empty and credits full, back to back they fill.
/// Returns the hops walked and the hops that waited on a busy port or
/// for credits.
fn send_probe(spacing_ns: u64) -> (u64, u64) {
    let mut fab = ClusterFabric::paper_default(fat_tree_for(RING_RANKS));
    let hosts = fab.graph.hosts as u64;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let (mut hops, mut waited) = (0, 0);
    for batch in 0..16u64 {
        fab.reset_transients();
        for i in 0..1024u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let src = (x % hosts) as u32;
            let dst = ((src as u64 + 1 + (x >> 32) % (hosts - 1)) % hosts) as u32;
            let depart = SimTime::from_ns((batch * 1024 + i) * spacing_ns);
            hops += fab.send(depart, src, dst, 64).hops as u64;
        }
        waited += fab.counters.contended + fab.counters.credit_waits;
    }
    (hops, waited)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_probe_is_idle_when_spaced_and_loaded_when_not() {
        let (hops, waited) = send_probe(100_000);
        assert!(hops > 16 * 1024);
        assert_eq!(waited, 0, "spaced departures must never queue");
        let (_, waited) = send_probe(0);
        assert!(waited > hops / 10, "back-to-back departures must queue");
    }
}
