//! `bband-benchmark`: the host wall-clock benchmark of the simulator.
//!
//! ```text
//! bband-benchmark [--seed N] [--workload NAME]... [--seconds S] [--trace [0|1]]
//!                 [--out RESULTS.json] [--smoke]
//! bband-benchmark --compare PARENT.json CHANGE.json
//! ```
//!
//! One workload runs in this process. Several run in child processes of
//! this binary, one per workload per round, in interleaved rounds, so a
//! slow phase of a shared machine hits every workload alike and each
//! workload's peak memory is its own. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See README.md for the workloads and metrics.

mod compare;
mod cpus;
mod layers;
mod ops;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::{Budget, Run, RunSpec};
use serde_json::Value;
use spec::Spec;
use stats::{median, percentile, sorted, Fnv};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::Kind;

const USAGE: &str = "usage: bband-benchmark [--seed N] [--workload NAME]... [--seconds S] \
                     [--trace [0|1]] [--out RESULTS.json] [--smoke]\n       \
                     bband-benchmark --compare PARENT.json CHANGE.json";

/// Rounds over which a multi-workload run interleaves its workloads.
const ROUNDS: u64 = 5;
/// A smoke run samples each workload at this fraction of its samples.
const SMOKE_DIVISOR: u64 = 50;
/// A traced run samples each workload at this fraction of its samples.
const TRACE_DIVISOR: u64 = 10;

#[derive(Debug, Default)]
struct Args {
    seed: u64,
    workloads: Vec<Kind>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
    /// Internal: run samples `first..first + count` and print them raw.
    child: Option<(u64, u64)>,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = it.peekable();
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => a.seed = num(&flag, it.next())?,
            "--seconds" => {
                let s: f64 = num(&flag, it.next())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                a.seconds = Some(s);
            }
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                let kind = Kind::from_name(&name).ok_or_else(|| {
                    let known: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })?;
                if !a.workloads.contains(&kind) {
                    a.workloads.push(kind);
                }
            }
            "--trace" => {
                a.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--out" => a.out = Some(it.next().ok_or("--out needs a path")?),
            "--smoke" => a.smoke = true,
            "--compare" => {
                let p = it.next().ok_or("--compare needs two files")?;
                let c = it.next().ok_or("--compare needs two files")?;
                a.compare = Some((p, c));
            }
            "--child" => {
                let first = num(&flag, it.next())?;
                let count = num(&flag, it.next())?;
                a.child = Some((first, count));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Kind::ALL.to_vec();
    }
    if a.seconds.is_some() && (a.workloads.len() > 1 || a.smoke) {
        return Err("--seconds applies to a single --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    ops::install_quiet_hook();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = spec::load();
    for w in &spec.workloads {
        assert!(
            Kind::from_name(w).is_some(),
            "BENCHMARK.json names workload `{w}`, which the benchmark lacks"
        );
    }
    if let Some((parent, change)) = &args.compare {
        return ExitCode::from(compare::compare(parent, change, &spec) as u8);
    }
    if let Some((first, count)) = args.child {
        let kind = args.workloads[0];
        let r = run::run(&RunSpec {
            kind,
            seed: args.seed,
            first,
            budget: Budget::Samples(count),
        });
        println!("{}", run_to_json(&r).render_compact());
        return ExitCode::SUCCESS;
    }

    let runs: Vec<(Kind, Run)> = if args.smoke {
        smoke(&args.workloads, args.seed)
    } else if let [kind] = args.workloads[..] {
        let budget = match args.seconds {
            Some(s) => Budget::Seconds(s),
            None => Budget::Samples(kind.samples()),
        };
        vec![(
            kind,
            run::run(&RunSpec {
                kind,
                seed: args.seed,
                first: 0,
                budget,
            }),
        )]
    } else {
        rounds(&args.workloads, args.seed)
    };
    report(&runs, &spec, &args)
}

/// Every selected workload at 1/50 of its samples, in this process.
fn smoke(kinds: &[Kind], seed: u64) -> Vec<(Kind, Run)> {
    kinds
        .iter()
        .map(|&kind| {
            let r = run::run(&RunSpec {
                kind,
                seed,
                first: 0,
                budget: Budget::Samples((kind.samples() / SMOKE_DIVISOR).max(1)),
            });
            (kind, r)
        })
        .collect()
}

/// Several workloads: [`ROUNDS`] rounds, each running a fifth of every
/// workload's samples in a child process, merged in sample order.
fn rounds(kinds: &[Kind], seed: u64) -> Vec<(Kind, Run)> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut parts: BTreeMap<Kind, Vec<Run>> = BTreeMap::new();
    for round in 0..ROUNDS {
        for &kind in kinds {
            let n = kind.samples();
            let (lo, hi) = (n * round / ROUNDS, n * (round + 1) / ROUNDS);
            let out = Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args(["--child", &lo.to_string(), &(hi - lo).to_string()])
                .stderr(Stdio::inherit())
                .output()
                .expect("start a child run");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str::<Value>(l).ok())
                .filter(|_| out.status.success())
                .map(|v| run_from_json(&v));
            parts
                .entry(kind)
                .or_default()
                .push(parsed.unwrap_or_else(|| {
                    let mut failed = Run::default();
                    failed.checks.insert(
                        "child_run".into(),
                        Some(format!("round {round} exited with {}", out.status)),
                    );
                    failed
                }));
        }
    }
    kinds
        .iter()
        .map(|k| (*k, merge(parts.remove(k).unwrap_or_default())))
        .collect()
}

fn merge(parts: Vec<Run>) -> Run {
    let mut m = Run::default();
    let mut digest = Fnv::default();
    for p in parts {
        m.wall_ns.extend(p.wall_ns);
        m.msgs.extend(p.msgs);
        m.setup_s.extend(p.setup_s);
        m.attempted += p.attempted;
        m.failed += p.failed;
        digest.u64(p.digest);
        for (name, result) in p.checks {
            let slot = m.checks.entry(name).or_insert(None);
            if slot.is_none() {
                *slot = result;
            }
        }
        m.rss_kb = m.rss_kb.max(p.rss_kb);
    }
    m.digest = digest.finish();
    m
}

fn run_to_json(r: &Run) -> Value {
    let uints = |v: &[u64]| Value::Arr(v.iter().map(|&x| Value::UInt(x)).collect());
    Value::Obj(vec![
        ("wall_ns".into(), uints(&r.wall_ns)),
        ("msgs".into(), uints(&r.msgs)),
        (
            "setup_s".into(),
            Value::Arr(r.setup_s.iter().map(|&x| Value::Float(x)).collect()),
        ),
        ("attempted".into(), Value::UInt(r.attempted)),
        ("failed".into(), Value::UInt(r.failed)),
        ("digest".into(), Value::Str(format!("{:016x}", r.digest))),
        ("rss_kb".into(), Value::UInt(r.rss_kb)),
        (
            "checks".into(),
            Value::Obj(
                r.checks
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone().map_or(Value::Null, Value::Str)))
                    .collect(),
            ),
        ),
        (
            "failures".into(),
            Value::Arr(
                ops::distinct()
                    .into_iter()
                    .map(|(m, c)| Value::Arr(vec![Value::Str(m), Value::UInt(c)]))
                    .collect(),
            ),
        ),
    ])
}

/// Parse a child's raw run; its failure messages join this process's log.
fn run_from_json(v: &Value) -> Run {
    let uints = |k: &str| -> Vec<u64> {
        v.get(k)
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default()
    };
    let uint = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    for f in v
        .get("failures")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        if let (Some(m), Some(c)) = (f[0].as_str(), f[1].as_u64()) {
            ops::note(m.to_string(), c);
        }
    }
    Run {
        wall_ns: uints("wall_ns"),
        msgs: uints("msgs"),
        setup_s: v
            .get("setup_s")
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default(),
        attempted: uint("attempted"),
        failed: uint("failed"),
        digest: v
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .unwrap_or(0),
        checks: v
            .get("checks")
            .and_then(Value::as_object)
            .map(|o| {
                o.iter()
                    .map(|(k, x)| (k.clone(), x.as_str().map(String::from)))
                    .collect()
            })
            .unwrap_or_default(),
        rss_kb: uint("rss_kb"),
    }
}

/// Host ns per simulated message of each sample that carried messages.
fn ns_per_msg(wall_ns: &[u64], msgs: &[u64]) -> Vec<f64> {
    sorted(
        wall_ns
            .iter()
            .zip(msgs)
            .filter(|(_, &m)| m > 0)
            .map(|(&w, &m)| w as f64 / m as f64),
    )
}

/// The end-to-end metrics of one run, bounded or [`spec::reported_only`].
fn end_to_end(r: &Run) -> BTreeMap<&'static str, f64> {
    let per = ns_per_msg(&r.wall_ns, &r.msgs);
    let pick = |f: fn(&[f64]) -> f64, v: &[f64]| if v.is_empty() { f64::NAN } else { f(v) };
    let wall: u64 = r.wall_ns.iter().sum();
    let msgs: u64 = r.msgs.iter().sum();
    BTreeMap::from([
        ("setup_s", pick(median, &sorted(r.setup_s.iter().copied()))),
        ("host_ns_per_msg_p10", pick(|v| percentile(v, 10.0), &per)),
        ("host_ns_per_msg", pick(median, &per)),
        ("host_ns_per_msg_p90", pick(|v| percentile(v, 90.0), &per)),
        ("sim_msgs_per_s", msgs as f64 * 1e9 / wall.max(1) as f64),
        ("peak_rss_mb", r.rss_kb as f64 / 1024.0),
        ("failed_frac", r.failed as f64 / r.attempted.max(1) as f64),
    ])
}

fn report(runs: &[(Kind, Run)], spec: &Spec, args: &Args) -> ExitCode {
    let single = runs.len() == 1;
    let mut json_metrics: Vec<(String, f64, String)> = Vec::new();
    let mut results = Vec::new();
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for (kind, r) in runs {
        let w = kind.name();
        let e2e = end_to_end(r);
        let per = ns_per_msg(&r.wall_ns, &r.msgs);
        println!(
            "== {w}: {} timed samples at seed {}, {} simulated msgs, {:.2} s timed",
            r.wall_ns.len(),
            args.seed,
            r.msgs.iter().sum::<u64>(),
            r.wall_ns.iter().sum::<u64>() as f64 / 1e9,
        );
        let mut rows = spec.end_to_end.clone();
        rows.extend(spec::reported_only());
        for m in &rows {
            let v = *e2e
                .get(m.name.as_str())
                .unwrap_or_else(|| panic!("BENCHMARK.json names `{}`, not measured", m.name));
            println!("{w} {} {v} {}", m.name, m.unit);
            if m.bound.is_some() && !args.trace {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{w}.{}", m.name)
                };
                json_metrics.push((key, v, m.unit.clone()));
            }
        }
        match stats::highest_tail(per.len()) {
            Some(p) => println!(
                "{w}: highest tail with ten of {} samples beyond it: p{p} = {} ns",
                per.len(),
                percentile(&per, p)
            ),
            None => println!("{w}: {} samples, too few for a tail", per.len()),
        }
        let failed_checks: Vec<_> = r.checks.iter().filter(|(_, v)| v.is_some()).collect();
        let passed: Vec<&str> = r
            .checks
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|(k, _)| k.as_str())
            .collect();
        println!(
            "{w}: oracle passed [{}]; digest of the timed samples {:016x}",
            passed.join(", "),
            r.digest
        );
        for (check, detail) in &failed_checks {
            println!(
                "{w}: ORACLE MISMATCH in {check}: {}",
                detail.as_deref().unwrap_or("")
            );
        }
        correct &= failed_checks.is_empty();
        attempted += r.attempted;
        failed += r.failed;
        results.push((
            w.to_string(),
            Value::Obj(
                e2e.iter()
                    .map(|(k, v)| (k.to_string(), Value::Float(*v)))
                    .collect(),
            ),
        ));
    }
    let failures = ops::distinct();
    if !failures.is_empty() {
        println!("failed operations, by distinct message:");
        for (msg, count) in &failures {
            println!("  x{count}: {msg}");
        }
    }
    if args.trace {
        json_metrics.extend(traced(runs, spec, args));
    }
    if let Some(path) = &args.out {
        if let Err(e) = append_results(path, args.seed, results) {
            eprintln!("--out {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        (
            "metrics".into(),
            Value::Obj(
                json_metrics
                    .into_iter()
                    .map(|(k, v, unit)| {
                        (
                            k,
                            Value::Obj(vec![
                                ("value".into(), Value::Float(v)),
                                ("unit".into(), Value::Str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The traced run; prints the layer table and every per-layer metric and
/// returns the ones the final JSON line carries.
fn traced(runs: &[(Kind, Run)], spec: &Spec, args: &Args) -> Vec<(String, f64, String)> {
    let primaries: Vec<(Kind, u64)> = runs
        .iter()
        .map(|(k, r)| (*k, (r.wall_ns.len() as u64).div_ceil(TRACE_DIVISOR).max(1)))
        .collect();
    let t = layers::traced(&primaries, args.seed);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace.json");
    let written = std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .and_then(|_| std::fs::write(path, trace::to_json(&t.spans, &t.hists).render_pretty()));
    match written {
        Ok(()) => println!("== traced run: {} spans written to {path}", t.spans.len()),
        Err(e) => eprintln!("writing {path}: {e}"),
    }
    println!(
        "{:20} {:>10} {:>12} {:>12}",
        "layer", "count", "busy_ms", "self_ms"
    );
    for (layer, totals) in &t.layers {
        println!(
            "{:20} {:>10} {:>12.3} {:>12.3}",
            layer.name(),
            totals.count,
            totals.busy_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
    let mut overhead = BTreeMap::new();
    for (kind, r) in runs {
        let traced = &t.samples[kind];
        let n = traced.len();
        let (w, m): (Vec<u64>, Vec<u64>) = traced.iter().copied().unzip();
        let on = median(&ns_per_msg(&w, &m));
        let off = median(&ns_per_msg(&r.wall_ns[..n], &r.msgs[..n]));
        overhead.insert(*kind, on / off - 1.0);
    }
    let mut out = Vec::new();
    for m in &spec.per_layer {
        let v = if m.name == "trace_overhead_frac" {
            if runs.len() > 1 {
                continue;
            }
            overhead[&runs[0].0]
        } else {
            *t.metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("BENCHMARK.json names `{}`, not measured", m.name))
        };
        println!("{} {v} {}", m.name, m.unit);
        out.push((m.name.clone(), v, m.unit.clone()));
    }
    if runs.len() > 1 {
        for (kind, v) in &overhead {
            println!("{} trace_overhead_frac {v} fraction", kind.name());
            let key = format!("{}.trace_overhead_frac", kind.name());
            out.push((key, *v, "fraction".to_string()));
        }
    }
    let unknown: Vec<_> = t
        .metrics
        .keys()
        .filter(|k| !spec.per_layer.iter().any(|m| &&m.name == k))
        .collect();
    assert!(
        unknown.is_empty(),
        "measured per-layer metrics missing from BENCHMARK.json: {unknown:?}"
    );
    out
}

/// Append one run's end-to-end metrics to the results file `--compare`
/// reads, creating it if needed.
fn append_results(path: &str, seed: u64, workloads: Vec<(String, Value)>) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str::<Value>(&text)
            .map_err(|e| e.to_string())?
            .get("runs")
            .and_then(Value::as_array)
            .cloned()
            .ok_or("existing file has no `runs` list")?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(Value::Obj(vec![
        ("seed".into(), Value::UInt(seed)),
        ("workloads".into(), Value::Obj(workloads)),
    ]));
    let doc = Value::Obj(vec![
        (
            "schema".into(),
            Value::Str("bband-benchmark/results/v1".into()),
        ),
        ("runs".into(), Value::Arr(runs)),
    ]);
    std::fs::write(path, doc.render_pretty() + "\n").map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two smoke runs give equal digests and pass every oracle check,
    /// the committed digests included.
    #[test]
    fn smoke_runs_are_deterministic_and_correct() {
        let a = smoke(&Kind::ALL, 1);
        let b = smoke(&Kind::ALL, 1);
        for ((kind, ra), (_, rb)) in a.iter().zip(&b) {
            assert_eq!(ra.digest, rb.digest, "{}", kind.name());
            assert_eq!(ra.msgs, rb.msgs, "{}", kind.name());
            for (check, failure) in &ra.checks {
                assert!(failure.is_none(), "{} {check}: {failure:?}", kind.name());
            }
            assert_eq!(ra.failed, 0, "{}", kind.name());
        }
    }

    /// A stretch at half speed over four fifths of the run moves the
    /// median and the mean throughput but not the bounded p10.
    #[test]
    fn p10_ignores_a_slow_stretch_over_most_of_the_run() {
        let r = Run {
            wall_ns: (0..300)
                .map(|i| if i < 240 { 2_000 } else { 1_000 })
                .collect(),
            msgs: vec![10; 300],
            setup_s: vec![0.5],
            ..Run::default()
        };
        let e2e = end_to_end(&r);
        assert_eq!(e2e["host_ns_per_msg_p10"], 100.0);
        assert_eq!(e2e["host_ns_per_msg"], 200.0);
        assert!(e2e["sim_msgs_per_s"] < 0.6e7);
    }

    #[test]
    fn arguments_parse_like_the_documented_command_lines() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload live_stack --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(a.workloads, vec![Kind::LiveStack]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        assert!(!parse("--trace 0").expect("parses").trace);
        let a = parse("--trace --workload ranks_ring").expect("parses");
        assert!(a.trace);
        assert_eq!(parse("").expect("parses").workloads, Kind::ALL.to_vec());
        assert!(parse("--workload nope").is_err());
        assert!(
            parse("--seconds 5").is_err(),
            "--seconds needs one workload"
        );
        assert!(parse("--bogus").is_err());
    }
}
