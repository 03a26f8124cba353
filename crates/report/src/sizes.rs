//! Rendering for the `sweep-size` experiment: the put_bw-style payload
//! axis — latency/goodput versus message size with per-size critical-path
//! attribution, the eager→rendezvous crossover, and a fast-vs-reference
//! byte-identity check on a segmented lossy plan.

use bband_core::fault::{run_raw_on, EnginePath, FaultPlan};
use bband_core::{Calibration, SizeSweepPoint};
use bband_metrics as metrics;
use bband_trace as trace;
use serde::Serialize;

/// Schema tag of the JSON artifact; CI asserts it (and the fields it
/// promises) before trusting the curve.
pub const SWEEP_SIZE_SCHEMA: &str = "bband/sweep-size/v1";

/// Render the sweep as a fixed-width table: one row per payload size with
/// the protocol, latency quantiles, goodput, and the top critical-path
/// stage — the crossover row is marked.
pub fn render_size_sweep(title: &str, points: &[SizeSweepPoint], crossover_bytes: u32) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "  {:>9}  {:>10}  {:>5}  {:>12}  {:>12}  {:>10}  {}\n",
        "size", "protocol", "segs", "p50 ns", "p99 ns", "Gbit/s", "top stage"
    ));
    let mut crossed = false;
    for p in points {
        if !crossed && p.protocol == "rendezvous" {
            crossed = true;
            out.push_str(&format!(
                "  ---- eager -> rendezvous crossover at {crossover_bytes} B ----\n"
            ));
        }
        let top = p
            .top_stages
            .first()
            .map(|(n, d)| format!("{n} ({d:.2} ns)"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:>9}  {:>10}  {:>5}  {:>12.2}  {:>12.2}  {:>10.3}  {}\n",
            format_size(p.payload_bytes),
            p.protocol,
            p.segments,
            p.p50_ns,
            p.p99_ns,
            p.goodput_gbps,
            top,
        ));
    }
    out
}

fn format_size(bytes: u32) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{} MiB", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{} KiB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

/// One exposed critical-path stage of a swept point.
#[derive(Debug, Serialize)]
pub struct StageJson {
    pub name: String,
    pub exposed_ns: f64,
}

/// One point of the JSON curve.
#[derive(Debug, Serialize)]
pub struct SizePointJson {
    pub payload_bytes: u32,
    pub protocol: String,
    pub segments: u32,
    pub wire_bytes: u64,
    pub model_ns: f64,
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
    pub goodput_gbps: f64,
    pub top_stages: Vec<StageJson>,
}

/// Result of the segmented-lossy fast-vs-reference byte-identity check.
#[derive(Debug, Serialize)]
pub struct FaultCheckJson {
    pub payload_bytes: u32,
    pub loss_probability: f64,
    pub messages: u64,
    pub seed: u64,
    /// Stats, spans, and metrics of the fast engine path are byte-equal
    /// to the reference event loop.
    pub identical: bool,
    pub completed: u64,
    pub rc_retransmissions: u64,
}

/// JSON form of the size sweep.
#[derive(Debug, Serialize)]
pub struct SizeSweepJson {
    pub schema: String,
    pub title: String,
    /// Smallest payload where the min-cost model picks rendezvous.
    pub crossover_bytes: u32,
    pub points: Vec<SizePointJson>,
    pub fault_check: FaultCheckJson,
}

/// Convert a sweep for serialization.
pub fn size_sweep_json(
    title: &str,
    points: &[SizeSweepPoint],
    crossover_bytes: u32,
    fault_check: FaultCheckJson,
) -> SizeSweepJson {
    SizeSweepJson {
        schema: SWEEP_SIZE_SCHEMA.to_string(),
        title: title.to_string(),
        crossover_bytes,
        points: points
            .iter()
            .map(|p| SizePointJson {
                payload_bytes: p.payload_bytes,
                protocol: p.protocol.to_string(),
                segments: p.segments,
                wire_bytes: p.wire_bytes,
                model_ns: p.model_ns,
                mean_ns: p.stats.mean_ns,
                p50_ns: p.p50_ns,
                p95_ns: p.p95_ns,
                p99_ns: p.p99_ns,
                goodput_gbps: p.goodput_gbps,
                top_stages: p
                    .top_stages
                    .iter()
                    .map(|(name, exposed_ns)| StageJson {
                        name: name.clone(),
                        exposed_ns: *exposed_ns,
                    })
                    .collect(),
            })
            .collect(),
        fault_check,
    }
}

/// Run the acceptance check the size-sweep artifact embeds: a lossy
/// segmented-rendezvous plan (16 MTU segments per message) on both engine
/// paths, comparing everything a run can observably produce — terminal
/// stats, every recorded span, and the metrics registry. Panics if the
/// run aborts; returns `identical: false` (failing CI's grep) on any
/// divergence.
pub fn segmented_fault_check(cal: &Calibration, messages: u64, seed: u64) -> FaultCheckJson {
    let mut plan = FaultPlan::none();
    plan.payload_bytes = 65_536;
    plan.loss_probability = 2e-2;
    let observe = |path: EnginePath| {
        metrics::collect(|| trace::collect(|| run_raw_on(path, cal, &plan, messages, seed)))
    };
    let ((run_f, trace_f), metrics_f) = observe(EnginePath::Fast);
    let ((run_r, trace_r), metrics_r) = observe(EnginePath::Reference);
    let identical = run_f == run_r && trace_f == trace_r && metrics_f == metrics_r;
    assert!(
        run_r.1.is_none(),
        "the fault-check plan must complete, not abort"
    );
    FaultCheckJson {
        payload_bytes: plan.payload_bytes,
        loss_probability: plan.loss_probability,
        messages,
        seed,
        identical,
        completed: run_r.0.completed,
        rc_retransmissions: run_r.0.counters.rc_retransmissions,
    }
}

/// One human-readable line for the rendered report.
pub fn render_fault_check(fc: &FaultCheckJson) -> String {
    format!(
        "fault-check: {} (payload {} B, loss {:.0e}, {} messages, {} retransmissions)\n",
        if fc.identical { "OK" } else { "DIVERGED" },
        fc.payload_bytes,
        fc.loss_probability,
        fc.completed,
        fc.rc_retransmissions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_json;
    use bband_core::fault::EnginePath;
    use bband_core::sweep_message_sizes;
    use bband_sim::WorkerPool;

    fn sweep() -> Vec<SizeSweepPoint> {
        sweep_message_sizes(
            EnginePath::Fast,
            &Calibration::default(),
            &[8, 4096, 65_536, 1 << 20],
            6,
            0x5EED,
            &WorkerPool::with_threads(2),
        )
    }

    #[test]
    fn renders_one_row_per_size_and_marks_the_crossover() {
        let points = sweep();
        let text = render_size_sweep("sweep-size", &points, 21_583);
        assert!(text.contains("sweep-size"));
        assert!(text.contains("crossover at 21583 B"), "{text}");
        assert!(text.contains("rendezvous"), "{text}");
        assert!(text.contains("1 MiB"), "{text}");
        assert_eq!(
            text.lines().filter(|l| l.contains("Gbit")).count() + points.len(),
            points.len() + 1,
            "{text}"
        );
    }

    #[test]
    fn json_artifact_has_schema_curve_and_fault_check() {
        let points = sweep();
        let fc = segmented_fault_check(&Calibration::default(), 8, 42);
        assert!(fc.identical, "fast path diverged from reference");
        assert!(fc.rc_retransmissions > 0, "the lossy plan must recover");
        let json = to_json(&size_sweep_json("sweep-size", &points, 21_583, fc));
        let v = serde_json::from_str::<serde_json::Value>(&json).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(SWEEP_SIZE_SCHEMA)
        );
        let arr = v.get("points").and_then(|p| p.as_array()).unwrap();
        assert_eq!(arr.len(), 4);
        for p in arr {
            for key in [
                "payload_bytes",
                "protocol",
                "segments",
                "wire_bytes",
                "model_ns",
                "p50_ns",
                "p99_ns",
                "goodput_gbps",
                "top_stages",
            ] {
                assert!(p.get(key).is_some(), "missing {key}: {p}");
            }
        }
        assert_eq!(
            v.get("fault_check")
                .and_then(|f| f.get("identical"))
                .and_then(|b| b.as_bool()),
            Some(true)
        );
        let line = render_fault_check(&segmented_fault_check(&Calibration::default(), 8, 42));
        assert!(line.starts_with("fault-check: OK"), "{line}");
    }
}
