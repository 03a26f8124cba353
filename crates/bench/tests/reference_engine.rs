//! `--reference` forces every fault-engine call onto the reference event
//! loop, so the default fast path and the reference must print identical
//! bytes. `repro sweep-size` prints per-size engine stats, metered latency
//! quantiles and a segmented-lossy fast-vs-reference check; `loss` and
//! `validate` under a plan with every fault family run the untraced
//! engine, where bulk commits engage.

use std::process::Command;

fn quick_run(args: &[&str], reference: bool) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("--quick");
    if reference {
        cmd.arg("--reference");
    }
    let out = cmd.args(args).output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed (reference {reference}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_reference_agrees(args: &[&str]) {
    let fast = quick_run(args, false);
    assert!(!fast.is_empty(), "{args:?} printed nothing");
    assert!(
        fast == quick_run(args, true),
        "--reference changed the output of {args:?}"
    );
}

#[test]
fn sweep_size_fast_path_matches_reference() {
    assert_reference_agrees(&["sweep-size"]);
}

/// EXPERIMENTS.md's full plan, as CI writes it to `plan.json`.
const FULL_PLAN: &str = r#"{"loss_probability": 1e-3, "corruption_probability": 1e-4, "credits": {"hdr": 2, "data": 64, "update_batch": 1}, "nic_stalls": [{"start_ns": 3000, "duration_ns": 10000}], "markov_stall": {"mean_up_ns": 10000, "mean_down_ns": 800}, "retry": {"timeout_ns": 2000, "max_retries": 12}}"#;

#[test]
fn full_plan_loss_and_validate_match_reference() {
    let dir = std::env::temp_dir().join(format!("repro-reference-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create plan dir");
    let plan = dir.join("plan.json");
    std::fs::write(&plan, FULL_PLAN).expect("write plan");
    let plan = plan.to_str().unwrap();
    assert_reference_agrees(&["--seed", "7", "--faults", plan, "loss", "validate"]);
    let _ = std::fs::remove_dir_all(&dir);
}
