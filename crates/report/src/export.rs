//! Machine-readable exports: JSON artifacts for downstream plotting.
//!
//! Every figure the harness renders as text can also be emitted as a JSON
//! document with a stable schema, so the reproduction's outputs can be
//! diffed, archived, or re-plotted without parsing terminal art.

use bband_core::whatif::{Component, Point};
use bband_core::Breakdown;
use serde::Serialize;

/// JSON form of a breakdown figure.
#[derive(Debug, Serialize)]
pub struct BreakdownJson {
    pub title: String,
    pub total_ns: f64,
    pub components: Vec<BreakdownItemJson>,
}

/// One slice of a breakdown.
#[derive(Debug, Serialize)]
pub struct BreakdownItemJson {
    pub name: String,
    pub time_ns: f64,
    pub percent: f64,
}

/// Convert a breakdown for serialization.
pub fn breakdown_json(b: &Breakdown) -> BreakdownJson {
    BreakdownJson {
        title: b.title.clone(),
        total_ns: b.total().as_ns_f64(),
        components: b
            .items()
            .iter()
            .zip(b.percentages())
            .map(|((name, dur), (_, pct))| BreakdownItemJson {
                name: name.clone(),
                time_ns: dur.as_ns_f64(),
                percent: pct,
            })
            .collect(),
    }
}

/// JSON form of a what-if panel (Figure 17).
#[derive(Debug, Serialize)]
pub struct CurvesJson {
    pub title: String,
    pub curves: Vec<CurveJson>,
}

/// One component's line.
#[derive(Debug, Serialize)]
pub struct CurveJson {
    pub component: String,
    pub points: Vec<PointJson>,
}

/// One grid point.
#[derive(Debug, Serialize)]
pub struct PointJson {
    pub reduction: f64,
    pub speedup_pct: f64,
}

/// Convert a curve family for serialization.
pub fn curves_json(title: &str, curves: &[(Component, Vec<Point>)]) -> CurvesJson {
    CurvesJson {
        title: title.to_string(),
        curves: curves
            .iter()
            .map(|(comp, pts)| CurveJson {
                component: comp.label().to_string(),
                points: pts
                    .iter()
                    .map(|p| PointJson {
                        reduction: p.reduction,
                        speedup_pct: p.speedup_pct,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Serialize any exportable document to pretty JSON.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("export types always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_core::{Calibration, EndToEndLatencyModel, WhatIf};

    #[test]
    fn breakdown_json_roundtrips_totals() {
        let b = EndToEndLatencyModel::from_calibration(&Calibration::default()).breakdown();
        let j = breakdown_json(&b);
        assert_eq!(j.components.len(), 9);
        assert!((j.total_ns - 1387.02).abs() < 0.05);
        let json = to_json(&j);
        assert!(json.contains("HLP_rx_prog"));
        // Valid JSON: parses back.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["components"].as_array().unwrap().len(), 9);
    }

    #[test]
    fn curves_json_covers_all_lines() {
        let w = WhatIf::new(Calibration::default());
        let curves: Vec<_> = Component::FIG17C
            .iter()
            .map(|&c| (c, w.curve(c, true, &WhatIf::GRID)))
            .collect();
        let j = curves_json("fig17c", &curves);
        assert_eq!(j.curves.len(), 3);
        assert_eq!(j.curves[0].points.len(), 5);
        let v: serde_json::Value = serde_json::from_str(&to_json(&j)).unwrap();
        assert_eq!(v["curves"][0]["component"], "Integrated NIC");
    }
}
