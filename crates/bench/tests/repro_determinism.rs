//! Determinism contract of the parallel harness: `repro` run on the
//! worker pool must emit byte-identical stdout and `--json` artifacts to
//! a `--serial` run, for any seed. Exercises the real binary end to end.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Targets mixing stochastic simulation (fig7 drives put_bw) with
/// closed-form artifacts (fig4/fig13/fig17a write JSON).
const TARGETS: &[&str] = &["fig4", "fig7", "fig13", "fig17a"];

fn run_repro(seed: u64, serial: bool, dir: &Path) -> (Vec<u8>, BTreeMap<String, Vec<u8>>) {
    std::fs::create_dir_all(dir).expect("create artifact dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("--quick")
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--json")
        .arg(dir);
    if serial {
        cmd.arg("--serial");
    }
    cmd.args(TARGETS);
    let out = cmd.output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed (seed {seed}, serial {serial}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut artifacts = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read artifact dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        artifacts.insert(name, std::fs::read(&path).expect("read artifact"));
    }
    (out.stdout, artifacts)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let mut stdout_by_seed = Vec::new();
    for seed in [3u64, 11] {
        let par_dir = scratch(&format!("par-{seed}"));
        let ser_dir = scratch(&format!("ser-{seed}"));
        let (par_out, par_art) = run_repro(seed, false, &par_dir);
        let (ser_out, ser_art) = run_repro(seed, true, &ser_dir);

        assert_eq!(
            par_out, ser_out,
            "seed {seed}: parallel stdout diverged from --serial"
        );
        assert!(
            !par_art.is_empty(),
            "seed {seed}: no JSON artifacts were written"
        );
        assert_eq!(
            par_art, ser_art,
            "seed {seed}: parallel artifacts diverged from --serial"
        );

        let _ = std::fs::remove_dir_all(&par_dir);
        let _ = std::fs::remove_dir_all(&ser_dir);
        stdout_by_seed.push(par_out);
    }
    // The seed must actually reach the stochastic figures: fig7's
    // distribution differs between seeds even though each seed is
    // individually deterministic.
    assert_ne!(
        stdout_by_seed[0], stdout_by_seed[1],
        "--seed had no effect on stochastic output"
    );
}

/// `--seed 0` is a seed like any other: it must not fall back to the
/// default seed 0x5EED, which `--seed 24301` names explicitly.
#[test]
fn seed_zero_is_not_the_default_seed() {
    let fig7 = |seed: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--quick")
            .args(seed)
            .arg("fig7")
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "repro {seed:?} fig7 failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let default = fig7(&[]);
    assert_ne!(
        fig7(&["--seed", "0"]),
        default,
        "--seed 0 ran the default seed"
    );
    assert_eq!(
        fig7(&["--seed", "24301"]),
        default,
        "the default seed is 0x5EED"
    );
}
