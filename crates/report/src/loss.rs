//! Rendering for the `latency_under_loss` experiment: the latency-vs-loss
//! curve with per-layer recovery counters, as text and as a JSON artifact.

use bband_core::fault::LossPoint;
use bband_profiling::RecoveryCounters;
use serde::Serialize;

/// Render the sweep as a fixed-width table: one row per loss point, with
/// latency statistics and the recovery activity that produced them.
pub fn render_loss_sweep(title: &str, points: &[LossPoint]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "  {:>10}  {:>10}  {:>10}  {:>10}  {:>9}  {}\n",
        "loss", "mean ns", "max ns", "completed", "outcome", "recovery"
    ));
    for p in points {
        let outcome = if p.retry_exhausted.is_some() {
            "ABORTED"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "  {:>10}  {:>10.2}  {:>10.2}  {:>6}/{:<3}  {:>9}  {}\n",
            format_loss(p.loss_probability),
            p.stats.mean_ns,
            p.stats.max_ns,
            p.stats.completed,
            p.stats.messages,
            outcome,
            p.stats.counters.render_compact(),
        ));
        if let Some(e) = &p.retry_exhausted {
            out.push_str(&format!("    ! {e}\n"));
        }
    }
    out
}

fn format_loss(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else {
        format!("{p:.0e}")
    }
}

/// JSON form of the loss sweep.
#[derive(Debug, Serialize)]
pub struct LossSweepJson {
    pub title: String,
    pub points: Vec<LossPointJson>,
}

/// One sweep point.
#[derive(Debug, Serialize)]
pub struct LossPointJson {
    pub loss_probability: f64,
    pub messages: u64,
    pub completed: u64,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    pub counters: RecoveryCounters,
    pub retry_exhausted: bool,
}

/// Convert a sweep for serialization.
pub fn loss_sweep_json(title: &str, points: &[LossPoint]) -> LossSweepJson {
    LossSweepJson {
        title: title.to_string(),
        points: points
            .iter()
            .map(|p| LossPointJson {
                loss_probability: p.loss_probability,
                messages: p.stats.messages,
                completed: p.stats.completed,
                mean_ns: p.stats.mean_ns,
                min_ns: p.stats.min_ns,
                max_ns: p.stats.max_ns,
                counters: p.stats.counters,
                retry_exhausted: p.retry_exhausted.is_some(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_json;
    use bband_core::fault::{latency_under_loss, EnginePath, FaultPlan, DEFAULT_LOSS_GRID};
    use bband_core::Calibration;
    use bband_sim::WorkerPool;

    fn sweep() -> Vec<LossPoint> {
        latency_under_loss(
            EnginePath::Fast,
            &Calibration::default(),
            &FaultPlan::none(),
            &DEFAULT_LOSS_GRID,
            40,
            0x5EED,
            &WorkerPool::with_threads(1),
        )
    }

    #[test]
    fn renders_one_row_per_point() {
        let points = sweep();
        let text = render_loss_sweep("latency under loss", &points);
        assert!(text.contains("latency under loss"));
        assert!(text.contains("1e-2"), "{text}");
        assert_eq!(
            text.lines().filter(|l| l.contains("ok")).count(),
            points.len(),
            "{text}"
        );
    }

    #[test]
    fn json_artifact_parses_back() {
        let points = sweep();
        let json = to_json(&loss_sweep_json("latency under loss", &points));
        let v = serde_json::from_str::<serde_json::Value>(&json).unwrap();
        let arr = v.get("points").and_then(|p| p.as_array()).unwrap();
        assert_eq!(arr.len(), DEFAULT_LOSS_GRID.len());
        assert!(json.contains("rc_retransmissions"));
    }
}
