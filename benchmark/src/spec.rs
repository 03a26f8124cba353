//! `BENCHMARK.json`, read at build time: the workload names and every
//! metric with its unit, direction and regression bound.

use serde_json::Value;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen; per-
    /// layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// `failed_frac` is reported beside the end-to-end metrics but is not one
/// of them in `BENCHMARK.json` (it is zero on every workload); any
/// increase counts as a regression.
pub fn failed_frac() -> Metric {
    Metric {
        name: "failed_frac".into(),
        unit: "fraction".into(),
        lower_is_better: true,
        bound: None,
    }
}

/// End-to-end metrics that are reported beside the bounded ones but have
/// no bound: the median and p90 of host ns per message and the mean
/// throughput move with the share of a run that a slow phase of a shared
/// host covers, not only with the simulator.
pub fn reported_only() -> [Metric; 4] {
    let metric = |name: &str, unit: &str, lower_is_better| Metric {
        name: name.into(),
        unit: unit.into(),
        lower_is_better,
        bound: None,
    };
    [
        metric("host_ns_per_msg", "ns", true),
        metric("host_ns_per_msg_p90", "ns", true),
        metric("sim_msgs_per_s", "msg/s", false),
        failed_frac(),
    ]
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a list"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks `{k}`"))
                    .to_string()
            };
            Metric {
                name: s("name"),
                unit: s("unit"),
                lower_is_better: s("better") == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

pub fn load() -> Spec {
    let doc: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json: `workloads` is a list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    Spec {
        workloads,
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}
