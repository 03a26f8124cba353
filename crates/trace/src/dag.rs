//! DAG critical-path reconstruction over recorded stage edges.
//!
//! The sequential-sum reconstruction (`component_sums`, and the Figure-13
//! slice sums built on it) is exact only when the traced pipeline is a
//! chain: every stage starts after its sole predecessor finishes. Real
//! hardware overlaps stages — doorbell batching, pipelined DMA, multiple
//! packets in flight — so a bandwidth run's stage sum far exceeds its
//! elapsed time. This module recovers the *critical path* instead: the
//! longest dependency-weighted path through the recorded happens-after
//! edges ([`SpanRecord::deps`]), per the critical-path method.
//!
//! For each span `i` (in emission order, which is a valid topological
//! order because a stage can only name already-recorded predecessors):
//!
//! ```text
//! finish(i) = dur(i) + max(finish(d) for d in deps(i), default 0)
//! ```
//!
//! The critical path is `max_i finish(i)`; backtracking the maximising
//! predecessors yields the chain of spans that bound the run. Per stage
//! name the reconstruction splits total recorded time into **exposed**
//! (spans on the critical path — time that lengthens the run) and
//! **hidden** (time overlapped behind other stages).
//!
//! Two properties anchor the tests:
//!
//! * **Chain degeneracy.** When the edges form a chain, every span is on
//!   the critical path, so `critical_path == stage_sum` bit-exactly in
//!   integer picoseconds and `hidden == 0` for every stage — the DAG
//!   reconstruction *is* the sequential sum on chain-shaped traces.
//! * **Wall-clock independence.** Only durations and edges matter;
//!   recorded start times do not. Idle time a layer wants attributed must
//!   be recorded as an explicit stage (as `reap_wait` is), never inferred
//!   from gaps.
//!
//! Tasks are independent executions (pool fan-out points). The trace-level
//! critical path is the maximum over tasks, and only the maximising task's
//! chain is marked exposed, so `sum(exposed) == critical_path` holds for
//! the whole report.
//!
//! [`SpanRecord::deps`]: crate::SpanRecord::deps

use crate::{Layer, Trace};
use bband_sim::SimDuration;

/// Per-stage-name attribution of recorded time against the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAttribution {
    /// Stage name (`&'static str` from the instrumentation site).
    pub name: &'static str,
    /// Layer of the first span with this name.
    pub layer: Layer,
    /// Total recorded duration across all spans with this name.
    pub total: SimDuration,
    /// Duration of this stage's spans on the critical path.
    pub exposed: SimDuration,
    /// Number of spans with this name.
    pub count: u64,
    /// Number of those spans on the critical path.
    pub exposed_count: u64,
}

impl StageAttribution {
    /// Time this stage spent overlapped behind other stages.
    pub fn hidden(&self) -> SimDuration {
        self.total - self.exposed
    }
}

/// The reconstruction: critical path, stage sum, and per-stage split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Longest dependency-weighted path over all tasks.
    pub length: SimDuration,
    /// Sum of every span duration (the sequential-sum total).
    pub stage_sum: SimDuration,
    /// Task index owning the critical path (ties: lowest task, then
    /// earliest-emitted sink span — fully deterministic).
    pub critical_task: usize,
    /// Number of spans on the critical path.
    pub path_len: usize,
    /// Per-stage attribution in first-appearance order (task-major
    /// emission order, deterministic).
    pub stages: Vec<StageAttribution>,
}

impl CriticalPath {
    /// Total time hidden behind overlap: `stage_sum - length`.
    pub fn hidden_total(&self) -> SimDuration {
        self.stage_sum - self.length
    }

    /// Attribution row for `name`, if any span carried it.
    pub fn stage(&self, name: &str) -> Option<&StageAttribution> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Split the critical path into nominal vs recovery exposed time.
    /// Purely layer-based: every recovery mechanism (backoff gaps, NAK
    /// flights, retransmitted legs, replay windows, stalls) records on
    /// [`Layer::Recovery`], so the split needs no name list and new
    /// recovery stages are covered automatically.
    pub fn recovery_split(&self) -> RecoverySplit {
        let mut split = RecoverySplit::default();
        for s in &self.stages {
            if s.layer == Layer::Recovery {
                split.recovery_exposed += s.exposed;
                split.recovery_total += s.total;
            } else {
                split.nominal_exposed += s.exposed;
                split.nominal_total += s.total;
            }
        }
        split
    }
}

/// Nominal-vs-recovery decomposition of a reconstruction: how much of the
/// critical path (and of all recorded time) the recovery machinery owns.
/// `nominal_exposed + recovery_exposed == length` by the exposed-sum
/// invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverySplit {
    /// Exposed time on non-recovery layers (the calibrated pipeline).
    pub nominal_exposed: SimDuration,
    /// Exposed time on [`Layer::Recovery`] — critical-path lengthening
    /// directly attributable to faults and stalls.
    pub recovery_exposed: SimDuration,
    /// Total recorded non-recovery time (exposed + hidden).
    pub nominal_total: SimDuration,
    /// Total recorded recovery time (exposed + hidden).
    pub recovery_total: SimDuration,
}

/// Per-message chain attribution: the dependency-weighted completion
/// chain of one message's sink span, with its recovery content named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageAttribution {
    /// Task the sink span was recorded in.
    pub task: usize,
    /// The sink span's `arg` — the message index at the recording site.
    pub msg: u64,
    /// Length of the longest dependency chain ending at the sink.
    pub chain: SimDuration,
    /// Recovery-layer time along that chain.
    pub recovery: SimDuration,
    /// Number of recovery-layer spans along the chain.
    pub recovery_count: u64,
    /// Name of the largest single recovery span on the chain — the
    /// specific retransmission, backoff, or stall that lengthened this
    /// message — and its duration. `None` on a clean chain.
    pub worst: Option<(&'static str, SimDuration)>,
}

/// Backtrack the maximising chain of every span named `sink_name` and
/// attribute its recovery content. On a lossy e2e run the sinks are the
/// `HLP_rx_prog` completions: each message's chain tells how much of its
/// latency was recovery and which single recovery span hurt most. Rows
/// come back in emission order (task-major, deterministic); the renderer
/// sorts by whatever it wants to surface.
pub fn per_message_attribution(trace: &Trace, sink_name: &str) -> Vec<MessageAttribution> {
    let mut out = Vec::new();
    for (ti, spans) in trace.tasks().iter().enumerate() {
        let mut finish: Vec<SimDuration> = Vec::with_capacity(spans.len());
        for s in spans {
            let base = s
                .deps()
                .filter_map(|d| resolve(spans, d))
                .map(|j| finish[j])
                .max()
                .unwrap_or(SimDuration::ZERO);
            finish.push(base + s.dur);
        }
        for (sink, s) in spans.iter().enumerate() {
            if s.name != sink_name || s.is_instant() {
                continue;
            }
            let mut recovery = SimDuration::ZERO;
            let mut recovery_count = 0u64;
            let mut worst: Option<(&'static str, SimDuration)> = None;
            let mut cur = sink;
            loop {
                let span = &spans[cur];
                if span.layer == Layer::Recovery && !span.is_instant() {
                    recovery += span.dur;
                    recovery_count += 1;
                    if worst.is_none_or(|(_, w)| span.dur > w) {
                        worst = Some((span.name, span.dur));
                    }
                }
                let pred = span
                    .deps()
                    .filter_map(|d| resolve(spans, d))
                    .max_by(|&a, &b| finish[a].cmp(&finish[b]).then(b.cmp(&a)));
                match pred {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            out.push(MessageAttribution {
                task: ti,
                msg: s.arg,
                chain: finish[sink],
                recovery,
                recovery_count,
                worst,
            });
        }
    }
    out
}

/// Reconstruct the critical path of a recorded trace.
pub fn critical_path(trace: &Trace) -> CriticalPath {
    // Pass 1: per-task longest path; remember the globally best sink.
    let mut best: Option<(SimDuration, usize, usize)> = None; // (finish, task, sink idx)
    let mut per_task_finish: Vec<Vec<SimDuration>> = Vec::with_capacity(trace.tasks().len());
    for (ti, spans) in trace.tasks().iter().enumerate() {
        let mut finish: Vec<SimDuration> = Vec::with_capacity(spans.len());
        for s in spans {
            let base = s
                .deps()
                .filter_map(|d| resolve(spans, d))
                .map(|j| finish[j])
                .max()
                .unwrap_or(SimDuration::ZERO);
            finish.push(base + s.dur);
        }
        for (i, &f) in finish.iter().enumerate() {
            let better = match best {
                None => true,
                Some((bf, _, _)) => f > bf,
            };
            if better {
                best = Some((f, ti, i));
            }
        }
        per_task_finish.push(finish);
    }

    // Pass 2: backtrack the maximising chain in the critical task.
    let mut on_path: Vec<bool> = Vec::new();
    let (length, critical_task, path_len) = match best {
        None => (SimDuration::ZERO, 0, 0),
        Some((f, ti, sink)) => {
            let spans = &trace.tasks()[ti];
            let finish = &per_task_finish[ti];
            on_path = vec![false; spans.len()];
            let mut cur = sink;
            let mut n = 0usize;
            loop {
                on_path[cur] = true;
                n += 1;
                // The predecessor whose finish the recurrence took the max
                // of; ties resolve to the earliest-emitted span.
                let pred = spans[cur]
                    .deps()
                    .filter_map(|d| resolve(spans, d))
                    .max_by(|&a, &b| finish[a].cmp(&finish[b]).then(b.cmp(&a)));
                match pred {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            (f, ti, n)
        }
    };

    // Pass 3: aggregate per stage name, splitting exposed vs hidden.
    let mut stage_sum = SimDuration::ZERO;
    let mut stages: Vec<StageAttribution> = Vec::new();
    for (ti, spans) in trace.tasks().iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if s.is_instant() {
                continue;
            }
            stage_sum += s.dur;
            let exposed = ti == critical_task && on_path.get(i).copied().unwrap_or(false);
            match stages.iter_mut().find(|c| c.name == s.name) {
                Some(c) => {
                    c.total += s.dur;
                    c.count += 1;
                    if exposed {
                        c.exposed += s.dur;
                        c.exposed_count += 1;
                    }
                }
                None => stages.push(StageAttribution {
                    name: s.name,
                    layer: s.layer,
                    total: s.dur,
                    exposed: if exposed { s.dur } else { SimDuration::ZERO },
                    count: 1,
                    exposed_count: u64::from(exposed),
                }),
            }
        }
    }

    CriticalPath {
        length,
        stage_sum,
        critical_task,
        path_len,
        stages,
    }
}

/// The index of the span with id `id`: a [`crate::SpanId`] is the span's
/// 1-based position in its task. An id past the end (only a predecessor
/// recorded outside this collect scope can have one) imposes no
/// constraint.
pub(crate) fn resolve(spans: &[crate::SpanRecord], id: u64) -> Option<usize> {
    let i = id as usize - 1;
    (i < spans.len()).then_some(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect, instant, stage, Trace};
    use bband_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_ns(ns)
    }

    #[test]
    fn empty_trace_reconstructs_to_zero() {
        let (_, task) = collect(|| ());
        let cp = critical_path(&Trace::from_task(task));
        assert_eq!(cp.length, SimDuration::ZERO);
        assert_eq!(cp.stage_sum, SimDuration::ZERO);
        assert!(cp.stages.is_empty());
    }

    #[test]
    fn chain_degenerates_to_sequential_sum() {
        let (_, task) = collect(|| {
            let a = stage(Layer::Llp, "A", t(0), t(100), 0, &[]);
            let b = stage(Layer::Wire, "B", t(100), t(350), 0, &[a]);
            stage(Layer::Memory, "C", t(350), t(400), 0, &[b]);
        });
        let cp = critical_path(&Trace::from_task(task));
        assert_eq!(cp.length, d(400));
        assert_eq!(cp.stage_sum, d(400));
        assert_eq!(cp.hidden_total(), SimDuration::ZERO);
        assert_eq!(cp.path_len, 3);
        for s in &cp.stages {
            assert_eq!(
                s.exposed, s.total,
                "{}: chain spans are all exposed",
                s.name
            );
        }
    }

    #[test]
    fn two_stage_overlap_hides_the_flight_behind_the_spine() {
        // The put_bw shape at minimum size: two serial CPU posts, each
        // launching a wire flight that overlaps the next post. Critical
        // path = post, post, last flight — strictly less than the stage
        // sum, with the first flight fully hidden.
        let (_, task) = collect(|| {
            let a1 = stage(Layer::Llp, "post", t(0), t(100), 0, &[]);
            let _b1 = stage(Layer::Wire, "flight", t(100), t(180), 0, &[a1]);
            let a2 = stage(Layer::Llp, "post", t(100), t(200), 1, &[a1]);
            stage(Layer::Wire, "flight", t(200), t(280), 1, &[a2]);
        });
        let cp = critical_path(&Trace::from_task(task));
        assert_eq!(cp.length, d(100 + 100 + 80));
        assert_eq!(cp.stage_sum, d(100 + 80 + 100 + 80));
        assert!(cp.length < cp.stage_sum, "overlap must shorten the path");
        let post = cp.stage("post").unwrap();
        assert_eq!(post.exposed, d(200), "the serial spine is fully exposed");
        assert_eq!(post.hidden(), SimDuration::ZERO);
        let flight = cp.stage("flight").unwrap();
        assert_eq!(flight.exposed, d(80), "only the last flight bounds the run");
        assert_eq!(flight.hidden(), d(80), "the first flight is overlapped");
        assert_eq!(flight.exposed_count, 1);
    }

    #[test]
    fn diamond_exposes_only_the_longer_branch() {
        // A -> {B, C} -> D with C longer than B: critical path A,C,D.
        let (_, task) = collect(|| {
            let a = stage(Layer::Llp, "A", t(0), t(100), 0, &[]);
            let b = stage(Layer::Wire, "B", t(100), t(150), 0, &[a]);
            let c = stage(Layer::Switch, "C", t(100), t(300), 0, &[a]);
            stage(Layer::Memory, "D", t(300), t(360), 0, &[b, c]);
        });
        let cp = critical_path(&Trace::from_task(task));
        assert_eq!(cp.length, d(100 + 200 + 60));
        assert_eq!(cp.stage_sum, d(100 + 50 + 200 + 60));
        assert!(cp.length < cp.stage_sum);
        assert_eq!(cp.hidden_total(), d(50));
        let b = cp.stage("B").unwrap();
        assert_eq!(b.exposed, SimDuration::ZERO);
        assert_eq!(b.hidden(), d(50));
        let c = cp.stage("C").unwrap();
        assert_eq!(c.exposed, d(200));
        assert_eq!(c.hidden(), SimDuration::ZERO);
    }

    #[test]
    fn disconnected_chains_report_the_longest() {
        // Two independent messages: the critical path is one message's
        // chain, not the sum of both.
        let (_, task) = collect(|| {
            let a = stage(Layer::Llp, "post", t(0), t(100), 0, &[]);
            stage(Layer::Wire, "wire", t(100), t(300), 0, &[a]);
            let b = stage(Layer::Llp, "post", t(100), t(250), 1, &[]);
            stage(Layer::Wire, "wire", t(250), t(400), 1, &[b]);
        });
        let cp = critical_path(&Trace::from_task(task));
        assert_eq!(cp.length, d(300));
        assert_eq!(cp.stage_sum, d(600));
        let post = cp.stage("post").unwrap();
        assert_eq!(post.exposed, d(100));
        assert_eq!(post.hidden(), d(150));
        assert_eq!(post.exposed_count, 1);
    }

    #[test]
    fn exposed_sums_to_the_critical_path() {
        let (_, task) = collect(|| {
            let mut prev = stage(Layer::Llp, "s", t(0), t(10), 0, &[]);
            for i in 1..8u64 {
                let side = stage(Layer::Nic, "side", t(i * 10), t(i * 10 + 3), i, &[prev]);
                let _ = side;
                prev = stage(Layer::Llp, "s", t(i * 10), t((i + 1) * 10), i, &[prev]);
            }
        });
        let cp = critical_path(&Trace::from_task(task));
        let exposed: SimDuration = cp
            .stages
            .iter()
            .map(|s| s.exposed)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(exposed, cp.length);
    }

    #[test]
    fn instants_do_not_enter_the_attribution() {
        let (_, task) = collect(|| {
            stage(Layer::Llp, "A", t(0), t(100), 0, &[]);
            instant(Layer::Transport, "nak", t(50), 0);
        });
        let cp = critical_path(&Trace::from_task(task));
        assert_eq!(cp.stages.len(), 1);
        assert_eq!(cp.length, d(100));
    }

    #[test]
    fn multi_task_critical_path_is_the_max_task() {
        let (_, t0) = collect(|| {
            stage(Layer::Llp, "A", t(0), t(100), 0, &[]);
        });
        let (_, t1) = collect(|| {
            stage(Layer::Llp, "A", t(0), t(400), 0, &[]);
        });
        let cp = critical_path(&Trace::from_tasks(vec![t0, t1]));
        assert_eq!(cp.length, d(400));
        assert_eq!(cp.critical_task, 1);
        let a = cp.stage("A").unwrap();
        assert_eq!(a.exposed, d(400));
        assert_eq!(a.hidden(), d(100));
    }

    #[test]
    fn recovery_split_partitions_the_path_by_layer() {
        // post -> backoff (recovery) -> retx wire -> prog, plus a hidden
        // nominal flight and a hidden recovery stall off to the side.
        let (_, task) = collect(|| {
            let a = stage(Layer::Llp, "post", t(0), t(100), 0, &[]);
            stage(Layer::Wire, "wire", t(100), t(150), 0, &[a]);
            let g = stage(Layer::Recovery, "backoff", t(100), t(400), 0, &[a]);
            stage(Layer::Recovery, "stall", t(100), t(120), 0, &[a]);
            let w = stage(Layer::Recovery, "wire(retx)", t(400), t(480), 0, &[g]);
            stage(Layer::Llp, "prog", t(480), t(540), 0, &[w]);
        });
        let cp = critical_path(&Trace::from_task(task));
        assert_eq!(cp.length, d(100 + 300 + 80 + 60));
        let split = cp.recovery_split();
        assert_eq!(split.nominal_exposed, d(160), "post + prog");
        assert_eq!(split.recovery_exposed, d(380), "backoff + retx leg");
        assert_eq!(split.nominal_exposed + split.recovery_exposed, cp.length);
        assert_eq!(split.nominal_total, d(210), "plus the hidden wire");
        assert_eq!(split.recovery_total, d(400), "plus the hidden stall");
    }

    #[test]
    fn per_message_attribution_names_the_worst_offender() {
        // Message 0 completes cleanly; message 1's chain carries two
        // recovery spans, the larger of which must be named.
        let (_, task) = collect(|| {
            let a0 = stage(Layer::Llp, "post", t(0), t(100), 0, &[]);
            stage(Layer::Hlp, "done", t(100), t(150), 0, &[a0]);
            let a1 = stage(Layer::Llp, "post", t(0), t(100), 1, &[]);
            let g = stage(Layer::Recovery, "backoff", t(100), t(400), 1, &[a1]);
            let w = stage(Layer::Recovery, "wire(retx)", t(400), t(480), 1, &[g]);
            stage(Layer::Hlp, "done", t(480), t(530), 1, &[w]);
        });
        let msgs = per_message_attribution(&Trace::from_task(task), "done");
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].msg, 0);
        assert_eq!(msgs[0].chain, d(150));
        assert_eq!(msgs[0].recovery, SimDuration::ZERO);
        assert_eq!(msgs[0].recovery_count, 0);
        assert_eq!(msgs[0].worst, None);
        assert_eq!(msgs[1].msg, 1);
        assert_eq!(msgs[1].chain, d(530));
        assert_eq!(msgs[1].recovery, d(380));
        assert_eq!(msgs[1].recovery_count, 2);
        assert_eq!(msgs[1].worst, Some(("backoff", d(300))));
    }

    #[test]
    fn per_message_attribution_follows_the_maximising_branch() {
        // A diamond into the sink: the chain goes through the longer
        // (recovery) branch, so its recovery content is attributed, not
        // the short nominal branch's absence of it.
        let (_, task) = collect(|| {
            let a = stage(Layer::Llp, "post", t(0), t(100), 0, &[]);
            let b = stage(Layer::Wire, "wire", t(100), t(150), 0, &[a]);
            let c = stage(Layer::Recovery, "stall", t(100), t(350), 0, &[a]);
            stage(Layer::Hlp, "done", t(350), t(400), 0, &[b, c]);
        });
        let msgs = per_message_attribution(&Trace::from_task(task), "done");
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].chain, d(100 + 250 + 50));
        assert_eq!(msgs[0].recovery, d(250));
        assert_eq!(msgs[0].worst, Some(("stall", d(250))));
    }

    use crate::SpanId;
    use proptest::prelude::*;

    const NAMES: [&str; 4] = ["post", "pcie", "wire", "prog"];
    const LAYERS: [Layer; 4] = [Layer::Llp, Layer::PcieTx, Layer::Wire, Layer::Llp];

    proptest! {
        /// **Chain degeneracy, property-checked**: on any chain-shaped
        /// trace the DAG critical path equals the sequential sum in
        /// strict integer picoseconds — regardless of durations, stage
        /// names, or wall-clock gaps between stages (edges, not recorded
        /// start times, define the path).
        #[test]
        fn chain_critical_path_equals_sequential_sum(
            items in proptest::collection::vec((0u64..1u64 << 40, 0u64..1u64 << 20), 1..128)
        ) {
            let (_, task) = collect(|| {
                let mut prev = SpanId::NONE;
                let mut now = SimTime::ZERO;
                for (i, &(dur_ps, gap_ps)) in items.iter().enumerate() {
                    // Arbitrary idle gap: must not enter the attribution.
                    now += SimDuration::from_ps(gap_ps);
                    let end = now + SimDuration::from_ps(dur_ps);
                    prev = stage(
                        LAYERS[i % LAYERS.len()],
                        NAMES[i % NAMES.len()],
                        now,
                        end,
                        i as u64,
                        &[prev],
                    );
                    now = end;
                }
            });
            let trace = Trace::from_task(task);
            let cp = critical_path(&trace);
            let sum_ps: u64 = items.iter().map(|&(d, _)| d).sum();
            prop_assert_eq!(cp.length.as_ps(), sum_ps);
            prop_assert_eq!(cp.stage_sum.as_ps(), sum_ps);
            prop_assert_eq!(cp.hidden_total(), SimDuration::ZERO);
            for s in &cp.stages {
                prop_assert_eq!(s.exposed, s.total);
                prop_assert_eq!(s.exposed_count, s.count);
            }
        }

        /// On arbitrary DAGs the reconstruction stays sane: the critical
        /// path never exceeds the stage sum, never falls below the
        /// longest single span, and the exposed attribution always sums
        /// back to the path length.
        #[test]
        fn random_dag_invariants(
            items in proptest::collection::vec((0u64..1u64 << 40, any::<u64>()), 1..96)
        ) {
            let (_, task) = collect(|| {
                let mut ids: Vec<SpanId> = Vec::new();
                let mut now = SimTime::ZERO;
                for (i, &(dur_ps, sel)) in items.iter().enumerate() {
                    // Pick a predecessor among prior spans, or none.
                    let dep = match sel as usize % (i + 2) {
                        j if j <= i && i > 0 => ids[j % i.max(1)],
                        _ => SpanId::NONE,
                    };
                    let end = now + SimDuration::from_ps(dur_ps);
                    let id = stage(
                        LAYERS[i % LAYERS.len()],
                        NAMES[i % NAMES.len()],
                        now,
                        end,
                        i as u64,
                        &[dep],
                    );
                    ids.push(id);
                    now = end;
                }
            });
            let trace = Trace::from_task(task);
            let cp = critical_path(&trace);
            let sum_ps: u64 = items.iter().map(|&(d, _)| d).sum();
            let max_ps: u64 = items.iter().map(|&(d, _)| d).max().unwrap_or(0);
            prop_assert!(cp.length.as_ps() <= sum_ps);
            prop_assert!(cp.length.as_ps() >= max_ps);
            prop_assert_eq!(cp.stage_sum.as_ps(), sum_ps);
            let exposed: SimDuration = cp
                .stages
                .iter()
                .map(|s| s.exposed)
                .fold(SimDuration::ZERO, |a, b| a + b);
            prop_assert_eq!(exposed, cp.length);
        }
    }
}
