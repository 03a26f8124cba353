//! Bad command lines and bad fault plans end `repro` with exit code 2 and
//! a one-line message, never a panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_refused(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(message),
        "expected {message:?} in: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bad_fault_plans_exit_2_with_a_message() {
    let dir = std::env::temp_dir().join(format!("repro-bad-plans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create plan dir");
    for (json, message) in [
        (
            r#"{"credits": {"hdr": 0, "data": 0, "update_batch": 0}}"#,
            "credits.data = 0",
        ),
        (
            r#"{"credits": {"hdr": 2, "data": 64, "update_batch": 4}}"#,
            "credits.update_batch = 4",
        ),
        (r#"{"loss_probability": -0.5}"#, "loss_probability = -0.5"),
        (r#"{"loss_probability": 1e400}"#, "loss_probability = inf"),
        (r#"{"loss_probability": "high"}"#, "expected f64"),
    ] {
        let plan = dir.join("plan.json");
        std::fs::write(&plan, json).expect("write plan");
        let out = repro(&["--quick", "--faults", plan.to_str().unwrap(), "loss"]);
        assert_refused(&out, message);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_targets_and_flags_exit_2() {
    assert_refused(&repro(&["bench-engine"]), "unknown target bench-engine");
    assert_refused(&repro(&["--smoke", "all"]), "unknown argument --smoke");
}
