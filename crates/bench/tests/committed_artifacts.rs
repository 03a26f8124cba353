//! The committed `artifacts/*.json` are exactly what `repro --quick
//! --json DIR all` writes: a change that alters any of them fails the
//! test suite, not only CI's artifact diff.

use std::path::Path;
use std::process::Command;

#[test]
fn quick_run_regenerates_every_committed_artifact() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    let dir = std::env::temp_dir().join(format!("repro-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--json"])
        .arg(&dir)
        .arg("all")
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut compared = 0;
    for entry in std::fs::read_dir(&committed).expect("read artifacts/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|ext| ext != "json") {
            continue;
        }
        let name = path.file_name().expect("file name");
        let regenerated = std::fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("{name:?} was not regenerated: {e}"));
        let expected = std::fs::read(&path).expect("read committed artifact");
        assert!(
            regenerated == expected,
            "{name:?} differs from the committed artifact"
        );
        compared += 1;
    }
    assert!(compared > 0, "no committed artifacts in {committed:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
