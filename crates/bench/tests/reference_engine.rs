//! `--reference` forces every fault-engine call onto the reference event
//! loop, so the default fast path and the reference must print identical
//! bytes. `repro sweep-size` prints per-size engine stats, metered latency
//! quantiles and a segmented-lossy fast-vs-reference check; `loss` and
//! `validate` under a plan with every fault family run the untraced
//! engine, where bulk commits engage, and `loss` under a rendezvous plan
//! runs it where none can.

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

/// A uniform 64 KiB rendezvous plan: it builds no memo, so the fast path
/// runs the event loop alone. Each CTS posts the data phase synchronously
/// and arms the retransmission timer at that post's later instant; the
/// timer must still fire where the reference fires it.
const P64_PLAN: &str = r#"{"burst_loss": {"p_good_to_bad": 0.029426354318098032, "p_bad_to_good": 0.10214060774345742, "loss_good": 0, "loss_bad": 0.5389327459865142}, "corruption_probability": 0.01602923962607091, "nic_stalls": [{"start_ns": 35248, "duration_ns": 19647}], "retry": {"timeout_ns": 1163, "max_retries": 6}, "payload_bytes": 65536}"#;

/// Write `json` to a plan file in a fresh temporary directory and check
/// that `args` (with `--faults PLAN` in front) print the same bytes with
/// and without `--reference`.
fn assert_reference_agrees_under(name: &str, json: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("repro-reference-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create plan dir");
    let plan = dir.join("plan.json");
    std::fs::write(&plan, json).expect("write plan");
    let mut full = vec!["--faults", plan.to_str().unwrap()];
    full.extend_from_slice(args);
    assert_reference_agrees(&full);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_plan_loss_and_validate_match_reference() {
    assert_reference_agrees_under("full", FULL_PLAN, &["--seed", "7", "loss", "validate"]);
}

#[test]
fn rendezvous_plan_loss_matches_reference() {
    assert_reference_agrees_under("p64", P64_PLAN, &["loss"]);
}
