//! Compact text flame view of a recorded trace: per-task, per-layer
//! component sums with proportional bars — the terminal-friendly
//! companion to the Chrome trace-format export.

use bband_trace::{ComponentSum, CriticalPath, Layer, Trace};

const BAR_WIDTH: usize = 28;

/// Render a DAG critical-path reconstruction: headline totals, then one
/// row per stage splitting its recorded time into *exposed* (on the
/// critical path, bounding the run) and *hidden* (overlapped behind other
/// stages) components. The bar shows each stage's share of the critical
/// path, so a fully-hidden stage renders no bar at all — overlap made it
/// free.
pub fn render_critical_path(title: &str, cp: &CriticalPath) -> String {
    let len_ns = cp.length.as_ns_f64();
    let sum_ns = cp.stage_sum.as_ns_f64();
    let hidden_pct = if sum_ns > 0.0 {
        cp.hidden_total().as_ns_f64() / sum_ns * 100.0
    } else {
        0.0
    };
    let mut out = format!(
        "{title}\n  critical path {len_ns:.2} ns of {sum_ns:.2} ns total stage time \
         ({hidden_pct:.1}% hidden); {} span(s) on path (task {})\n",
        cp.path_len, cp.critical_task
    );
    out.push_str(&format!(
        "    {:<12} {:<18} {:>12} {:>12} {:>12}  {:>11}\n",
        "", "stage", "total(ns)", "exposed(ns)", "hidden(ns)", "on-path"
    ));
    for s in &cp.stages {
        let exposed_ns = s.exposed.as_ns_f64();
        let width = if len_ns > 0.0 {
            ((exposed_ns / len_ns) * BAR_WIDTH as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "    {:<12} {:<18} {:>12.2} {:>12.2} {:>12.2}  {:>4}/{:<6} {}\n",
            layer_tag(s.layer),
            s.name,
            s.total.as_ns_f64(),
            exposed_ns,
            s.hidden().as_ns_f64(),
            s.exposed_count,
            s.count,
            "#".repeat(width)
        ));
    }
    out
}

/// Render a merged trace as a compact flame view: one block per task,
/// components grouped by layer track and scaled against the task's
/// largest component. Instant events render as counts, not bars.
pub fn render_flame(title: &str, trace: &Trace) -> String {
    let mut out = format!(
        "{title}\n  {} task(s), {} record(s)\n",
        trace.tasks().len(),
        trace.len()
    );
    for (idx, task) in trace.tasks().iter().enumerate() {
        if task.is_empty() {
            continue;
        }
        let single = Trace::from_task(task.clone());
        let mut sums = single.component_sums();
        sums.sort_by_key(|c| c.layer.track());
        let max_ns = sums
            .iter()
            .map(|c| c.total.as_ns_f64())
            .fold(0.0_f64, f64::max);
        out.push_str(&format!("  task {idx}\n"));
        for c in &sums {
            out.push_str(&render_component(c, max_ns));
        }
    }
    out
}

fn render_component(c: &ComponentSum, max_ns: f64) -> String {
    let ns = c.total.as_ns_f64();
    if ns == 0.0 {
        // Instant-only name (drops, stall markers): a count line.
        return format!(
            "    {:<12} {:<18} {:>7} event(s)\n",
            layer_tag(c.layer),
            c.name,
            c.count
        );
    }
    let width = if max_ns > 0.0 {
        ((ns / max_ns) * BAR_WIDTH as f64).round().max(1.0) as usize
    } else {
        1
    };
    format!(
        "    {:<12} {:<18} {:>12.2} ns  x{:<5} {}\n",
        layer_tag(c.layer),
        c.name,
        ns,
        c.count,
        "#".repeat(width)
    )
}

fn layer_tag(layer: Layer) -> String {
    format!("[{}]", layer.label())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_core::fault::EnginePath;
    use bband_core::tracepath::traced_e2e;
    use bband_core::{Calibration, FaultPlan};

    #[test]
    fn flame_lists_all_nine_e2e_slices() {
        let (res, trace) = traced_e2e(
            EnginePath::Fast,
            &Calibration::default(),
            &FaultPlan::none(),
            8,
            1,
        );
        res.unwrap();
        let text = render_flame("zero-fault e2e", &trace);
        for name in bband_core::tracepath::FIG13_SLICES {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("[wire]"), "{text}");
        let header = format!("1 task(s), {} record(s)\n", trace.len());
        assert!(text.contains(&header), "{text}");
    }

    #[test]
    fn faulted_flame_shows_recovery_events() {
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.05;
        let (res, trace) = traced_e2e(EnginePath::Fast, &Calibration::default(), &plan, 200, 42);
        res.unwrap();
        let text = render_flame("lossy e2e", &trace);
        assert!(text.contains("event(s)"), "{text}");
        assert!(
            text.contains("pkt_drop") || text.contains("rto_backoff"),
            "{text}"
        );
    }

    #[test]
    fn empty_trace_renders_header_only() {
        let text = render_flame("empty", &Trace::default());
        assert!(text.contains("0 task(s)"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn critical_path_view_splits_exposed_and_hidden() {
        let (res, trace) = traced_e2e(
            EnginePath::Fast,
            &Calibration::default(),
            &FaultPlan::none(),
            4,
            1,
        );
        res.unwrap();
        let cp = bband_trace::critical_path(&trace);
        let text = render_critical_path("zero-fault DAG", &cp);
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("exposed(ns)"), "{text}");
        // Four disconnected messages: each slice has one exposed instance
        // out of four recorded.
        assert!(text.contains("1/4"), "{text}");
        for name in bband_core::tracepath::FIG13_SLICES {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn critical_path_view_handles_empty_reconstruction() {
        let cp = bband_trace::critical_path(&Trace::default());
        let text = render_critical_path("empty", &cp);
        assert!(text.contains("0.00 ns"), "{text}");
    }
}
