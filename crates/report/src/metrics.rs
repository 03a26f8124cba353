//! Rendering for the virtual-time metrics registry: per-stage latency
//! quantile tables, counter listings, and the JSON artifact — plus the
//! recovery-attribution view of a lossy critical-path reconstruction.

use bband_metrics::{Histogram, MetricsSet};
use bband_sim::SimDuration;
use bband_trace::{CriticalPath, Layer, MessageAttribution};
use serde::Serialize;

/// The quantiles every table and artifact reports, in order.
const QUANTILES: [(f64, &str); 4] = [
    (0.50, "p50"),
    (0.95, "p95"),
    (0.99, "p99"),
    (0.999, "p99.9"),
];

/// Render a metrics set as a fixed-width quantile table: one row per
/// stage histogram (in first-recorded order — critical-path order for the
/// e2e pipeline), then the named counters. Values are virtual
/// nanoseconds; on a zero-fault run every row is a spike (p50 == p99.9 ==
/// the calibrated mean).
pub fn render_quantiles(title: &str, set: &MetricsSet) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "  {:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "stage", "count", "mean ns", "p50", "p95", "p99", "p99.9", "max"
    ));
    for h in &set.hists {
        out.push_str(&format!(
            "  {:<18} {:>8} {:>10.2}",
            h.name,
            h.count,
            h.mean_ns()
        ));
        for (q, _) in QUANTILES {
            out.push_str(&format!(" {:>10.2}", h.quantile_ns(q)));
        }
        out.push_str(&format!(
            " {:>10.2}\n",
            SimDuration::from_ps(h.max).as_ns_f64()
        ));
    }
    if !set.counters.is_empty() {
        out.push_str("  counters:\n");
        for c in &set.counters {
            out.push_str(&format!("    {:<22} {:>12}\n", c.name, c.value));
        }
    }
    if set.dropped > 0 {
        out.push_str(&format!(
            "  ! {} sample(s) dropped (name-table overflow)\n",
            set.dropped
        ));
    }
    out
}

/// Render the time-windowed view of one stage's distribution: one row
/// per occupied fixed-width virtual-time window, so drift and bursts
/// show up as rows whose quantiles move. Returns an empty string when
/// the set carries no windows for `stage` (collection ran unwindowed).
pub fn render_windowed_quantiles(set: &MetricsSet, stage: &str) -> String {
    let Some(series) = set.window_series(stage) else {
        return String::new();
    };
    let width_us = series.width_ps as f64 / 1_000_000.0;
    let mut out = format!(
        "  windows of {} ({:.2} us each, {} occupied):\n",
        stage,
        width_us,
        series.windows.len()
    );
    out.push_str(&format!(
        "  {:>8} {:>14} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "window", "start us", "count", "mean ns", "p50", "p99", "max"
    ));
    for w in &series.windows {
        let start_us = w.index as f64 * width_us;
        out.push_str(&format!(
            "  {:>8} {:>14.2} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
            w.index,
            start_us,
            w.hist.count,
            w.hist.mean_ns(),
            w.hist.quantile_ns(0.50),
            w.hist.quantile_ns(0.99),
            SimDuration::from_ps(w.hist.max).as_ns_f64(),
        ));
    }
    out
}

/// JSON form of a metrics set.
#[derive(Debug, Serialize)]
pub struct MetricsJson {
    pub title: String,
    pub dropped: u64,
    pub stages: Vec<StageQuantilesJson>,
    pub counters: Vec<CounterJson>,
}

/// One stage histogram's summary.
#[derive(Debug, Serialize)]
pub struct StageQuantilesJson {
    pub name: String,
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
    pub p999_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
}

/// One named counter.
#[derive(Debug, Serialize)]
pub struct CounterJson {
    pub name: String,
    pub value: u64,
}

fn stage_json(h: &Histogram) -> StageQuantilesJson {
    StageQuantilesJson {
        name: h.name.to_string(),
        count: h.count,
        mean_ns: h.mean_ns(),
        p50_ns: h.quantile_ns(0.50),
        p95_ns: h.quantile_ns(0.95),
        p99_ns: h.quantile_ns(0.99),
        p999_ns: h.quantile_ns(0.999),
        min_ns: SimDuration::from_ps(h.min).as_ns_f64(),
        max_ns: SimDuration::from_ps(h.max).as_ns_f64(),
    }
}

/// Convert a metrics set for serialization.
pub fn metrics_json(title: &str, set: &MetricsSet) -> MetricsJson {
    MetricsJson {
        title: title.to_string(),
        dropped: set.dropped,
        stages: set.hists.iter().map(stage_json).collect(),
        counters: set
            .counters
            .iter()
            .map(|c| CounterJson {
                name: c.name.to_string(),
                value: c.value,
            })
            .collect(),
    }
}

/// How many per-message worst offenders the attribution table lists.
const WORST_ROWS: usize = 5;

/// Render the recovery attribution of a lossy reconstruction: the
/// nominal-vs-recovery split of the critical path, each recovery
/// mechanism's exposed share, and the worst-hit messages with the single
/// recovery span that lengthened each one.
pub fn render_recovery_attribution(
    title: &str,
    cp: &CriticalPath,
    msgs: &[MessageAttribution],
) -> String {
    let split = cp.recovery_split();
    let len_ns = cp.length.as_ns_f64();
    let rec_pct = if len_ns > 0.0 {
        split.recovery_exposed.as_ns_f64() / len_ns * 100.0
    } else {
        0.0
    };
    let mut out = format!(
        "{title}\n  critical path {len_ns:.2} ns = nominal {:.2} ns + recovery {:.2} ns \
         ({rec_pct:.1}% recovery)\n  recovery recorded {:.2} ns total \
         ({:.2} ns hidden behind overlap)\n",
        split.nominal_exposed.as_ns_f64(),
        split.recovery_exposed.as_ns_f64(),
        split.recovery_total.as_ns_f64(),
        (split.recovery_total - split.recovery_exposed).as_ns_f64(),
    );
    let recovery_stages: Vec<_> = cp
        .stages
        .iter()
        .filter(|s| s.layer == Layer::Recovery)
        .collect();
    if recovery_stages.is_empty() {
        out.push_str("  no recovery spans recorded (clean run)\n");
        return out;
    }
    out.push_str(&format!(
        "  {:<18} {:>12} {:>12}  {:>11}\n",
        "mechanism", "total(ns)", "exposed(ns)", "on-path"
    ));
    for s in recovery_stages {
        out.push_str(&format!(
            "  {:<18} {:>12.2} {:>12.2}  {:>4}/{:<6}\n",
            s.name,
            s.total.as_ns_f64(),
            s.exposed.as_ns_f64(),
            s.exposed_count,
            s.count
        ));
    }
    let clean = msgs
        .iter()
        .filter(|m| m.recovery == SimDuration::ZERO)
        .count();
    let mut hit: Vec<&MessageAttribution> = msgs
        .iter()
        .filter(|m| m.recovery > SimDuration::ZERO)
        .collect();
    // Worst first; ties break on (task, msg) so the listing is a pure
    // function of the trace, never of iteration order.
    hit.sort_by(|a, b| {
        b.recovery
            .cmp(&a.recovery)
            .then(a.task.cmp(&b.task))
            .then(a.msg.cmp(&b.msg))
    });
    out.push_str(&format!(
        "  messages: {} of {} touched by recovery; worst offenders:\n",
        hit.len(),
        clean + hit.len()
    ));
    out.push_str(&format!(
        "  {:>8} {:>12} {:>12} {:>6}  worst span\n",
        "msg", "chain(ns)", "recovery", "spans"
    ));
    for m in hit.iter().take(WORST_ROWS) {
        let (name, dur) = m.worst.expect("recovery > 0 implies a worst span");
        out.push_str(&format!(
            "  {:>8} {:>12.2} {:>12.2} {:>6}  {} ({:.2} ns)\n",
            m.msg,
            m.chain.as_ns_f64(),
            m.recovery.as_ns_f64(),
            m.recovery_count,
            name,
            dur.as_ns_f64()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_json;
    use bband_core::fault::EnginePath;
    use bband_core::tracepath::{metered_e2e, reconstruct, traced_e2e};
    use bband_core::{Calibration, FaultPlan};
    use bband_sim::WorkerPool;
    use bband_trace::per_message_attribution;

    fn lossy() -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.05;
        plan
    }

    #[test]
    fn quantile_table_lists_every_traced_stage() {
        let (_, set) = metered_e2e(
            EnginePath::Fast,
            &Calibration::default(),
            &FaultPlan::none(),
            16,
            2,
            0x5EED,
            None,
            &WorkerPool::with_threads(1),
        );
        let text = render_quantiles("per-stage latency quantiles", &set);
        for name in bband_core::tracepath::FIG13_SLICES {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("e2e_latency"), "{text}");
        assert!(text.contains("p99.9"), "{text}");
        assert!(text.contains("completed"), "{text}");
        assert!(!text.contains("dropped"), "{text}");
    }

    #[test]
    fn metrics_json_parses_back_with_stable_schema() {
        let (_, set) = metered_e2e(
            EnginePath::Fast,
            &Calibration::default(),
            &lossy(),
            32,
            2,
            0x5EED,
            None,
            &WorkerPool::with_threads(1),
        );
        let json = to_json(&metrics_json("metrics", &set));
        let v = serde_json::from_str::<serde_json::Value>(&json).unwrap();
        let stages = v.get("stages").and_then(|s| s.as_array()).unwrap();
        assert!(stages.len() >= 10, "nine slices plus e2e_latency");
        for key in ["name", "count", "mean_ns", "p50_ns", "p999_ns", "max_ns"] {
            assert!(stages[0].get(key).is_some(), "missing {key}");
        }
        assert!(json.contains("rc_retransmissions"));
        assert!(json.contains("recovery_time_ps"));
    }

    #[test]
    fn windowed_rendering_splits_the_e2e_distribution() {
        let (_, set) = metered_e2e(
            EnginePath::Fast,
            &Calibration::default(),
            &FaultPlan::none(),
            32,
            2,
            0x5EED,
            Some(SimDuration::from_us(20)),
            &WorkerPool::with_threads(1),
        );
        let text = render_windowed_quantiles(&set, "e2e_latency");
        assert!(text.contains("windows of e2e_latency"), "{text}");
        // Header + at least two window rows: a 32-message serial stream
        // spans well past one 20 us window.
        assert!(text.lines().count() >= 4, "{text}");
        // An unwindowed collection renders nothing for the same stage.
        let (_, plain) = metered_e2e(
            EnginePath::Fast,
            &Calibration::default(),
            &FaultPlan::none(),
            32,
            2,
            0x5EED,
            None,
            &WorkerPool::with_threads(1),
        );
        assert!(render_windowed_quantiles(&plain, "e2e_latency").is_empty());
    }

    #[test]
    fn recovery_attribution_names_the_offenders() {
        let (res, trace) = traced_e2e(EnginePath::Fast, &Calibration::default(), &lossy(), 200, 42);
        res.unwrap();
        let cp = reconstruct(&trace).unwrap();
        let msgs = per_message_attribution(&trace, "HLP_rx_prog").unwrap();
        let text = render_recovery_attribution("lossy recovery attribution", &cp, &msgs);
        assert!(text.contains("nominal"), "{text}");
        assert!(text.contains("% recovery"), "{text}");
        assert!(text.contains("worst offenders"), "{text}");
        // The split partitions the headline: nominal + recovery = length.
        let split = cp.recovery_split();
        assert_eq!(split.nominal_exposed + split.recovery_exposed, cp.length);
        // At least one recovery mechanism row made it into the table.
        assert!(
            text.contains("rto_backoff")
                || text.contains("nak_flight")
                || text.contains("Wire(retx)"),
            "{text}"
        );
    }

    #[test]
    fn clean_run_renders_the_clean_banner() {
        let (res, trace) = traced_e2e(
            EnginePath::Fast,
            &Calibration::default(),
            &FaultPlan::none(),
            8,
            1,
        );
        res.unwrap();
        let cp = reconstruct(&trace).unwrap();
        let msgs = per_message_attribution(&trace, "HLP_rx_prog").unwrap();
        let text = render_recovery_attribution("clean", &cp, &msgs);
        assert!(text.contains("clean run"), "{text}");
        assert!(text.contains("recovery 0.00 ns"), "{text}");
    }
}
