//! An artifact `repro` writes is the export of the run whose text it
//! prints: the `--out` and `--json` metrics files carry the title of the
//! quantile table on stdout, whichever variant of the target ran.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn title(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read artifact");
    let doc: Value = serde_json::from_str(&text).expect("artifact parses");
    doc["title"]
        .as_str()
        .expect("artifact has a title")
        .to_string()
}

#[test]
fn metrics_artifacts_are_the_printed_run() {
    let dir = std::env::temp_dir().join(format!("repro-provenance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("metrics.json");
    let path = file.to_str().unwrap();
    for (variant, name) in [
        (&["--bench", "put_bw"][..], "put_bw"),
        (&["--bench", "am_lat"], "am_lat"),
        (&["--bench", "osu"], "osu_latency"),
        (&["--windows", "4"], "4 virtual-time windows"),
        (&[], "Per-stage latency quantiles: "),
    ] {
        let mut args = vec!["--quick", "--out", path, "metrics"];
        args.extend(variant);
        let stdout = repro(&args);
        let title = title(&file);
        assert!(title.contains(name), "{variant:?}: {title}");
        assert!(
            stdout.starts_with(&format!("==== metrics ====\n{title}\n")),
            "{variant:?}: the artifact's title {title:?} does not head the printed table"
        );
        // `--json DIR` writes the same export.
        let mut args = vec!["--quick", "--json", dir.to_str().unwrap(), "metrics"];
        args.extend(variant);
        std::fs::remove_file(&file).expect("remove artifact");
        assert_eq!(repro(&args), stdout, "{variant:?}");
        assert_eq!(self::title(&file), title, "{variant:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
