//! `--reference` forces every fault-engine call onto the reference event
//! loop. `repro sweep-size` prints per-size engine stats, metered latency
//! quantiles and a segmented-lossy fast-vs-reference check, so the
//! default fast path and the reference must print identical bytes.

use std::process::Command;

fn quick_sweep_size(reference: bool) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("--quick");
    if reference {
        cmd.arg("--reference");
    }
    let out = cmd.arg("sweep-size").output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro sweep-size failed (reference {reference}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn sweep_size_fast_path_matches_reference() {
    let fast = quick_sweep_size(false);
    assert!(!fast.is_empty(), "sweep-size printed nothing");
    assert!(
        fast == quick_sweep_size(true),
        "--reference changed sweep-size's output"
    );
}
