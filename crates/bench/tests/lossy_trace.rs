//! Under a lossy fault plan the `trace` target's critical path splits
//! into nominal and recovery time, and the recovery share is nonzero.
//! The fault plan is a process-wide override, so this test has a binary
//! of its own.

use bband_bench::{run_target, Opts, Scale};
use bband_core::fault::{set_plan_override, FaultPlan};

#[test]
fn lossy_critical_path_attributes_recovery_time() {
    let plan = FaultPlan::from_json_str(r#"{"loss_probability": 0.05}"#).unwrap();
    assert!(set_plan_override(plan), "no other test sets the plan");
    let opts = Opts {
        scale: Scale::Quick,
        bench: None,
        windows: None,
        telemetry: false,
        artifacts: false,
    };
    let text = run_target("trace", &opts).text;
    for line in ["Recovery attribution", "% recovery", "worst offenders"] {
        assert!(text.contains(line), "missing {line:?} in:\n{text}");
    }
    // "critical path T ns = nominal N ns + recovery R ns ..."
    let split: Vec<f64> = text
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("critical path ") && l.contains(" = nominal "))
        .expect("missing the recovery split line")
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .take(3)
        .collect();
    let [total, nominal, recovery] = split[..] else {
        panic!("malformed split line: {split:?}");
    };
    assert!(
        (nominal + recovery - total).abs() < 0.02,
        "nominal {nominal} + recovery {recovery} != critical path {total}"
    );
    assert!(recovery > 0.0, "5% loss must expose recovery time");
}
