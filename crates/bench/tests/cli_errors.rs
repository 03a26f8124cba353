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
        (
            r#"{"credits": {"hdr": 4, "data": 12, "update_batch": 4}}"#,
            "credits.data = 12 cannot issue one UpdateFC batch",
        ),
        (r#"{"loss_probability": -0.5}"#, "loss_probability = -0.5"),
        (r#"{"loss_probability": 1e400}"#, "loss_probability = inf"),
        (r#"{"loss_probability": "high"}"#, "expected f64"),
        (
            r#"{"nic_stalls": [{"start_ns": 18446744073709551615, "duration_ns": 1}]}"#,
            "nic_stalls[0] (start_ns = 18446744073709551615, duration_ns = 1) must end by",
        ),
        (
            r#"{"markov_stall": {"mean_down_ns": 1e300}}"#,
            "markov_stall.mean_down_ns = 1e300 is not a mean dwell",
        ),
        (
            r#"{"markov_stall": {"mean_up_ns": -5, "mean_down_ns": 100}}"#,
            "markov_stall.mean_up_ns = -5.0 is not a mean dwell",
        ),
        (
            r#"{"payload_bytes": 4294967295}"#,
            "payload_bytes = 4294967295 exceeds the 67108864-byte (64 MiB) payload limit",
        ),
        (
            r#"{"payload_cycle": [8, 67108865]}"#,
            "payload_cycle[1] = 67108865 exceeds",
        ),
        (
            r#"{"retry": {"timeout_ns": 0}}"#,
            "retry.timeout_ns = 0 must be positive",
        ),
        (r#"{"retry": 5}"#, "RetryPolicy: expected a JSON object"),
        (
            r#"{"loss_probabilty": 0.01}"#,
            "unknown field loss_probabilty",
        ),
        (
            r#"{"retry": {"timeout": 10}}"#,
            "unknown field retry.timeout",
        ),
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
    let timing = std::env::temp_dir().join(format!("repro-timing-{}.json", std::process::id()));
    assert_refused(&repro(&["bench-engine"]), "unknown target bench-engine");
    assert_refused(&repro(&["--smoke", "all"]), "unknown argument --smoke");
    assert_refused(
        &repro(&["--quick", "--timing-json", timing.to_str().unwrap(), "fig4"]),
        "unknown argument --timing-json",
    );
    let _ = std::fs::remove_file(&timing);
}

/// Output paths under a regular file cannot be created, even by root:
/// `--out` and `--json` name the path and the OS error instead of
/// panicking once the targets have run.
#[test]
fn unwritable_output_paths_exit_2() {
    let file = std::env::temp_dir().join(format!("repro-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, "").expect("create a regular file");
    let (out, dir) = (file.join("x.json"), file.join("dir"));
    let (out, dir) = (out.to_str().unwrap(), dir.to_str().unwrap());
    for (args, path) in [
        (["--quick", "--out", out, "trace"], out),
        (["--quick", "--json", dir, "fig4"], dir),
    ] {
        assert_refused(&repro(&args), &format!("cannot write {path}: "));
    }
    let _ = std::fs::remove_file(&file);
}
