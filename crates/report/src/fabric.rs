//! Rendering for fabric telemetry: topology-aware terminal heatmaps and
//! the `bband/fabric-telemetry/v1` JSON artifact behind
//! `repro sweep-ranks --telemetry`.
//!
//! Each sweep cell renders one block: per-link-class utilization rows
//! over virtual-time windows (one shade glyph per window, like a tiny
//! Grafana heatmap), a per-group global-link strip for dragonflies, and
//! the top-k contended-link table — the fabric analogue of
//! `trace::dag`'s critical-path stage ranking. The JSON carries the full
//! numeric series plus the bit-exact [`Conservation`] reconciliation
//! against the fabric's aggregate counters, which CI asserts.
//!
//! [`Conservation`]: bband_cluster::Conservation

use bband_cluster::TelemetryPoint;
use serde::Serialize;

/// Schema tag of the JSON artifact; CI asserts it before trusting the
/// series.
pub const FABRIC_TELEMETRY_SCHEMA: &str = "bband/fabric-telemetry/v1";

/// Shade ramp for utilization cells, darkest = 100%.
const SHADES: [char; 5] = ['·', '░', '▒', '▓', '█'];

fn shade(frac: f64) -> char {
    if frac <= 0.0 {
        return SHADES[0];
    }
    // Congested windows sit far below 100% utilization on synchronous
    // collectives, so spread the ramp over 0..25% and clamp above.
    let idx = (frac * 4.0 / 0.25).ceil() as usize;
    SHADES[idx.clamp(1, SHADES.len() - 1)]
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Render the telemetry sweep as per-cell heatmap blocks.
pub fn render_fabric_heatmap(title: &str, cells: &[TelemetryPoint]) -> String {
    let mut out = format!("{title}\n");
    for cell in cells {
        let p = &cell.point;
        let r = &cell.report;
        out.push_str(&format!(
            "-- {} ({}) · {} ranks · {} --\n",
            p.topology, p.params, p.ranks, p.collective
        ));
        out.push_str(&format!(
            "  window {:.1} us x {} | span {:.1} us | msgs {} | saturated links {} | conservation {}\n",
            us(r.window_ps),
            r.windows,
            us(r.span_ps),
            r.messages,
            r.saturated_links,
            if r.conservation.exact() { "exact" } else { "BROKEN" },
        ));
        let label_w = r
            .classes
            .iter()
            .map(|c| c.label.len())
            .max()
            .unwrap_or(0)
            .max(8);
        for class in &r.classes {
            let strip: String = class.util.iter().map(|&u| shade(u)).collect();
            out.push_str(&format!(
                "  {:label_w$} |{strip}| peak {:5.1}%  wait {:.2} us\n",
                class.label,
                class.peak_util * 100.0,
                us(class.queue_ps + class.credit_ps),
            ));
        }
        if !r.groups.is_empty() {
            let strip: String = r.groups.iter().map(|g| shade(g.util)).collect();
            let peak = r.groups.iter().map(|g| g.util).fold(0.0, f64::max);
            out.push_str(&format!(
                "  {:label_w$} |{strip}| peak {:5.1}%  (one cell per group)\n",
                "groups",
                peak * 100.0,
            ));
        }
        if !r.hotspots.is_empty() {
            out.push_str(&format!(
                "  top contended links:  {:>8}  {:>10}  {:>6}  {:>12}  {:>12}  {:>5}  {:>6}\n",
                "link", "class", "util%", "queue us", "credit us", "ecn", "flows"
            ));
            for h in &r.hotspots {
                out.push_str(&format!(
                    "  {:20}  {:>8}  {:>10}  {:>6.1}  {:>12.2}  {:>12.2}  {:>5}  {:>6}\n",
                    "",
                    format!("sw{}:p{}", h.sw, h.port),
                    h.class,
                    h.util * 100.0,
                    us(h.queue_ps),
                    us(h.credit_ps),
                    h.ecn_marks,
                    h.flows,
                ));
            }
        }
    }
    out
}

/// One class row of the JSON artifact.
#[derive(Debug, Serialize)]
pub struct ClassJson {
    pub label: String,
    pub links: u64,
    pub busy_ps: u64,
    pub queue_ps: u64,
    pub credit_ps: u64,
    pub peak_util: f64,
    /// Per-window utilization (class busy / links × window).
    pub util: Vec<f64>,
}

/// One dragonfly group row.
#[derive(Debug, Serialize)]
pub struct GroupJson {
    pub group: u32,
    pub links: u64,
    pub busy_ps: u64,
    pub util: f64,
}

/// One hotspot row.
#[derive(Debug, Serialize)]
pub struct HotspotJson {
    pub sw: u32,
    pub port: u32,
    pub class: String,
    pub util: f64,
    pub busy_ps: u64,
    pub queue_ps: u64,
    pub credit_ps: u64,
    pub credit_events: u64,
    pub ecn_marks: u64,
    pub flows: u64,
}

/// Input-buffer occupancy summary.
#[derive(Debug, Serialize)]
pub struct OccupancyJson {
    pub high_water_bytes: u64,
    pub mean_occupied_bytes: f64,
    /// Reservation-time occupancy histogram, eighths of capacity.
    pub hist: Vec<u64>,
}

/// Flow path-attribution totals (ps; wire + queue + credit == latency).
#[derive(Debug, Serialize)]
pub struct AttributionJson {
    pub latency_ps: u64,
    pub wire_ps: u64,
    pub queue_ps: u64,
    pub credit_ps: u64,
}

/// The bit-exact reconciliation flags CI asserts.
#[derive(Debug, Serialize)]
pub struct ConservationJson {
    pub messages: bool,
    pub contended: bool,
    pub credit_waits: bool,
    pub ecn_marks: bool,
    pub windows_sum: bool,
    pub attribution: bool,
    pub exact: bool,
}

/// One sweep cell of the artifact.
#[derive(Debug, Serialize)]
pub struct TelemetryCellJson {
    pub topology: String,
    pub params: String,
    pub ranks: u32,
    pub collective: String,
    pub window_ps: u64,
    pub windows: u64,
    pub span_ps: u64,
    pub messages: u64,
    /// The fabric's aggregate counters for this run — the values the
    /// telemetry series must reconcile against.
    pub contended: u64,
    pub credit_waits: u64,
    pub ecn_marks: u64,
    pub saturated_links: u64,
    pub classes: Vec<ClassJson>,
    pub groups: Vec<GroupJson>,
    pub hotspots: Vec<HotspotJson>,
    pub occupancy: OccupancyJson,
    pub attribution: AttributionJson,
    pub conservation: ConservationJson,
}

/// JSON form of the telemetry sweep.
#[derive(Debug, Serialize)]
pub struct FabricTelemetryJson {
    pub schema: String,
    pub title: String,
    pub cells: Vec<TelemetryCellJson>,
}

/// Convert a telemetry sweep for serialization.
pub fn fabric_telemetry_json(title: &str, cells: &[TelemetryPoint]) -> FabricTelemetryJson {
    FabricTelemetryJson {
        schema: FABRIC_TELEMETRY_SCHEMA.to_string(),
        title: title.to_string(),
        cells: cells
            .iter()
            .map(|cell| {
                let p = &cell.point;
                let r = &cell.report;
                TelemetryCellJson {
                    topology: p.topology.to_string(),
                    params: p.params.clone(),
                    ranks: p.ranks,
                    collective: p.collective.to_string(),
                    window_ps: r.window_ps,
                    windows: r.windows,
                    span_ps: r.span_ps,
                    messages: r.messages,
                    contended: p.contended,
                    credit_waits: p.credit_waits,
                    ecn_marks: p.ecn_marks,
                    saturated_links: r.saturated_links,
                    classes: r
                        .classes
                        .iter()
                        .map(|c| ClassJson {
                            label: c.label.clone(),
                            links: c.links,
                            busy_ps: c.busy_ps,
                            queue_ps: c.queue_ps,
                            credit_ps: c.credit_ps,
                            peak_util: c.peak_util,
                            util: c.util.clone(),
                        })
                        .collect(),
                    groups: r
                        .groups
                        .iter()
                        .map(|g| GroupJson {
                            group: g.group,
                            links: g.links,
                            busy_ps: g.busy_ps,
                            util: g.util,
                        })
                        .collect(),
                    hotspots: r
                        .hotspots
                        .iter()
                        .map(|h| HotspotJson {
                            sw: h.sw,
                            port: h.port,
                            class: h.class.clone(),
                            util: h.util,
                            busy_ps: h.busy_ps,
                            queue_ps: h.queue_ps,
                            credit_ps: h.credit_ps,
                            credit_events: h.credit_events,
                            ecn_marks: h.ecn_marks,
                            flows: h.flows,
                        })
                        .collect(),
                    occupancy: OccupancyJson {
                        high_water_bytes: r.occupancy.high_water_bytes,
                        mean_occupied_bytes: r.occupancy.mean_occupied_bytes,
                        hist: r.occupancy.hist.clone(),
                    },
                    attribution: AttributionJson {
                        latency_ps: r.totals.latency_ps,
                        wire_ps: r.totals.wire_ps,
                        queue_ps: r.totals.queue_ps,
                        credit_ps: r.totals.credit_ps,
                    },
                    conservation: ConservationJson {
                        messages: r.conservation.messages,
                        contended: r.conservation.contended,
                        credit_waits: r.conservation.credit_waits,
                        ecn_marks: r.conservation.ecn_marks,
                        windows_sum: r.conservation.windows_sum,
                        attribution: r.conservation.attribution,
                        exact: r.conservation.exact(),
                    },
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_json;
    use bband_cluster::sweep_ranks_telemetry;
    use bband_sim::WorkerPool;

    fn cells() -> Vec<TelemetryPoint> {
        sweep_ranks_telemetry(&[16, 64], &WorkerPool::with_threads(2))
    }

    #[test]
    fn heatmap_renders_classes_groups_and_hotspots() {
        let text = render_fabric_heatmap("fabric-telemetry", &cells());
        assert!(text.contains("-- fat-tree"), "{text}");
        assert!(text.contains("-- dragonfly"), "{text}");
        // Fat-tree rows are per level and direction, dragonfly rows the
        // host/local/global split plus the per-group strip.
        assert!(text.contains("L0->L1"), "{text}");
        assert!(text.contains("global"), "{text}");
        assert!(text.contains("groups"), "{text}");
        assert!(text.contains("top contended links"), "{text}");
        assert!(text.contains("conservation exact"), "{text}");
        assert!(!text.contains("BROKEN"), "{text}");
    }

    #[test]
    fn json_artifact_has_schema_series_and_conservation() {
        let json = to_json(&fabric_telemetry_json("fabric-telemetry", &cells()));
        let v = serde_json::from_str::<serde_json::Value>(&json).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(FABRIC_TELEMETRY_SCHEMA)
        );
        let arr = v.get("cells").and_then(|c| c.as_array()).unwrap();
        assert_eq!(arr.len(), 2 * 2 * 4);
        for cell in arr {
            for key in [
                "topology",
                "ranks",
                "collective",
                "window_ps",
                "span_ps",
                "saturated_links",
                "classes",
                "hotspots",
                "occupancy",
                "attribution",
                "conservation",
            ] {
                assert!(cell.get(key).is_some(), "missing {key}: {cell}");
            }
            assert_eq!(
                cell.get("conservation")
                    .and_then(|c| c.get("exact"))
                    .and_then(|b| b.as_bool()),
                Some(true),
                "{cell}"
            );
        }
    }
}
