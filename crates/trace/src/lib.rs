//! Virtual-clock tracing: span recording for the simulated stack.
//!
//! Every model in this workspace attributes *virtual* nanoseconds to
//! components of the communication critical path. This crate records that
//! attribution as it happens: instrumented code emits [`SpanRecord`]s
//! keyed to the simulation clock ([`bband_sim::SimTime`]), a per-task span
//! list keeps every one of them, and merged traces export to Chrome
//! trace-format JSON (loadable in `ui.perfetto.dev`) or reduce to
//! per-component sums that can be checked against the analytical
//! breakdown models.
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** Tracing is off unless a collector
//!    is installed via [`collect`]; the disabled fast path of [`span`] is
//!    one thread-local flag read and a branch. No instrumented crate pays
//!    an allocation, a lock, or a syscall.
//! 2. **Amortized growth in the hot path.** [`SpanRecord`] is `Copy`
//!    (names are `&'static str`), and each [`collect`] scope appends to
//!    one growing `Vec`: a push is an index write except when the list
//!    doubles, so recording costs amortized O(1) and never loses a span.
//!    A span's [`SpanId`] is its 1-based position in that list.
//! 3. **Deterministic merge.** Collection is scoped *per task*, not per
//!    thread: a [`bband_sim::WorkerPool`] fan-out wraps each task closure
//!    in [`collect`] and merges the returned span lists by task index
//!    ([`Trace::from_tasks`]). Which OS thread ran a task is invisible, so
//!    pooled and serial runs produce byte-identical merged traces.
//!
//! The span vocabulary mirrors the paper's breakdown figures: a traced
//! zero-fault 8-byte end-to-end run yields exactly the nine Figure-13
//! slices, and [`component_sums`](Trace::component_sums) rebuilds the
//! breakdown bit-exactly in integer picoseconds (see
//! `bband_core::tracepath`).
//!
//! Beyond flat spans, instrumentation can record pipeline **stages** with
//! explicit happens-after edges ([`stage`] returns a [`SpanId`]; later
//! stages list their predecessors). The [`dag`] module reconstructs the
//! longest dependency-weighted path over those edges — the critical path
//! — and splits each stage's time into *exposed* (bounding the run) and
//! *hidden* (overlapped) components; the Chrome export renders the edges
//! as flow arrows.

mod chrome;
pub mod dag;
mod recorder;

pub use chrome::{chrome_trace_json, chrome_trace_value};
pub use dag::{
    critical_path, per_message_attribution, CriticalPath, MessageAttribution, RecoverySplit,
    StageAttribution,
};
pub use recorder::{
    collect, enabled, instant, instant_now, now, set_now, span, stage, stage_dur, Layer, SpanId,
    SpanRecord, MAX_DEPS,
};

use bband_sim::SimDuration;

/// A merged multi-task trace: one span list per pool task, ordered by
/// task index (which equals input order under [`bband_sim::WorkerPool`]).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    tasks: Vec<Vec<SpanRecord>>,
}

/// Total recorded virtual time per span name, in first-appearance order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSum {
    /// Span name (`&'static str` from the instrumentation site).
    pub name: &'static str,
    /// Layer of the first span with this name.
    pub layer: Layer,
    /// Sum of span durations (instants contribute zero).
    pub total: SimDuration,
    /// Number of records with this name.
    pub count: u64,
}

impl Trace {
    /// Merge per-task traces. Task index becomes the trace's process id,
    /// so the merge is a deterministic function of the task *results*
    /// alone — never of thread scheduling.
    pub fn from_tasks(tasks: Vec<Vec<SpanRecord>>) -> Self {
        Trace { tasks }
    }

    /// Single-task convenience (a serial [`collect`] run).
    pub fn from_task(task: Vec<SpanRecord>) -> Self {
        Trace { tasks: vec![task] }
    }

    /// The per-task span lists, in task order.
    pub fn tasks(&self) -> &[Vec<SpanRecord>] {
        &self.tasks
    }

    /// All spans as `(task index, record)`, task-major, insertion order
    /// within each task.
    pub fn spans(&self) -> impl Iterator<Item = (usize, &SpanRecord)> {
        self.tasks
            .iter()
            .enumerate()
            .flat_map(|(i, t)| t.iter().map(move |s| (i, s)))
    }

    /// Total records across tasks.
    pub fn len(&self) -> usize {
        self.tasks.iter().map(Vec::len).sum()
    }

    /// True when no task recorded anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reduce to per-name duration sums over all spans.
    pub fn component_sums(&self) -> Vec<ComponentSum> {
        self.component_sums_filtered(|_| true)
    }

    /// Reduce to per-name duration sums over spans matching `keep`. Names
    /// appear in first-appearance order (deterministic: task-major
    /// insertion order), which for a single traced message is critical-path
    /// order.
    pub fn component_sums_filtered(&self, keep: impl Fn(&SpanRecord) -> bool) -> Vec<ComponentSum> {
        let mut sums: Vec<ComponentSum> = Vec::new();
        for (_, s) in self.spans() {
            if !keep(s) {
                continue;
            }
            match sums.iter_mut().find(|c| c.name == s.name) {
                Some(c) => {
                    c.total += s.dur;
                    c.count += 1;
                }
                None => sums.push(ComponentSum {
                    name: s.name,
                    layer: s.layer,
                    total: s.dur,
                    count: 1,
                }),
            }
        }
        sums
    }

    /// Sum of durations of every span named `name`.
    pub fn total_for(&self, name: &str) -> SimDuration {
        self.spans()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| s.dur)
            .fold(SimDuration::ZERO, |a, d| a + d)
    }

    /// Chrome trace-format JSON of the merged trace.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        assert!(!enabled());
        span(Layer::Llp, "LLP_post", t(0), t(100), 0);
        let (_, task) = collect(|| ());
        assert!(task.is_empty());
    }

    #[test]
    fn collect_scopes_recording_to_the_closure() {
        let (val, task) = collect(|| {
            assert!(enabled());
            span(Layer::Llp, "LLP_post", t(0), t(100), 7);
            instant(Layer::Transport, "nak", t(50), 3);
            42
        });
        assert!(!enabled());
        assert_eq!(val, 42);
        assert_eq!(task.len(), 2);
        assert_eq!(task[0].name, "LLP_post");
        assert_eq!(task[0].dur, SimDuration::from_ns(100));
        assert_eq!(task[0].arg, 7);
        assert!(task[1].is_instant());
    }

    #[test]
    fn collect_keeps_every_span() {
        const STAGES: u64 = 100_000;
        let (ids, task) = collect(|| {
            let mut prev = SpanId::NONE;
            (0..STAGES)
                .map(|i| {
                    prev = stage(Layer::Nic, "hop", t(i), t(i + 1 + i % 7), i, &[prev]);
                    prev
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(task.len(), STAGES as usize, "every span is kept");
        for (pos, (s, id)) in task.iter().zip(&ids).enumerate() {
            assert_eq!(s.arg, pos as u64, "spans keep emission order");
            assert_eq!(id.0, pos as u64 + 1, "an id is the span's 1-based position");
        }
        let chain_ps: u64 = (0..STAGES).map(|i| t(1 + i % 7).as_ps()).sum();
        let cp = critical_path(&Trace::from_task(task));
        assert_eq!(cp.length.as_ps(), chain_ps);
        assert_eq!(cp.path_len, STAGES as usize);
    }

    #[test]
    fn nested_collect_restores_the_outer_sink() {
        let (_, outer) = collect(|| {
            span(Layer::Hlp, "outer", t(0), t(1), 0);
            let (_, inner) = collect(|| {
                span(Layer::Hlp, "inner", t(1), t(2), 0);
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].name, "inner");
            span(Layer::Hlp, "outer2", t(2), t(3), 0);
        });
        let names: Vec<_> = outer.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["outer", "outer2"]);
    }

    #[test]
    fn component_sums_aggregate_in_first_appearance_order() {
        let (_, task) = collect(|| {
            span(Layer::Llp, "LLP_post", t(0), t(100), 0);
            span(Layer::Wire, "Wire", t(100), t(300), 0);
            span(Layer::Llp, "LLP_post", t(300), t(450), 1);
        });
        let sums = Trace::from_task(task).component_sums();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].name, "LLP_post");
        assert_eq!(sums[0].total, SimDuration::from_ns(250));
        assert_eq!(sums[0].count, 2);
        assert_eq!(sums[1].name, "Wire");
        assert_eq!(sums[1].layer, Layer::Wire);
    }

    #[test]
    fn virtual_now_is_task_local() {
        let (_, _) = collect(|| {
            set_now(t(123));
            assert_eq!(now(), t(123));
            instant_now(Layer::PcieCredit, "credit_stall", 9);
        });
        let (_, task) = collect(|| {
            instant_now(Layer::PcieCredit, "credit_stall", 9);
        });
        // A fresh collect resets the clock: no bleed between tasks.
        assert_eq!(task[0].start, SimTime::ZERO);
    }
}
