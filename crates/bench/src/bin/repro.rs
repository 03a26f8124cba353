//! The reproduction harness: regenerate any table or figure of the paper.
//!
//! ```text
//! repro <target>...        # table1 fig4 fig6 fig7 fig8 fig10..fig16
//!                          # fig17a..fig17d claims validate
//!                          # scaling crossover multicore collectives
//!                          # profiles insights
//! repro all                # everything, in paper order
//! repro --quick all        # smaller runs (CI-friendly)
//! repro --serial all       # one thread for every fan-out (same bytes,
//!                          # slower)
//! repro --json DIR fig13   # also write machine-readable artifacts
//! repro --seed 7 fig7      # re-seed every stochastic experiment
//! repro --faults plan.json loss  # inject a fault plan (loss sweep etc.)
//! repro trace              # whole-stack traced run (flame view)
//! repro trace --bench put_bw   # trace a live microbenchmark instead of
//!                          # the fault engine (put_bw | am_lat | osu |
//!                          # multicore): DAG critical path,
//!                          # exposed/hidden split, and a zero-fault
//!                          # diff against the engine
//! repro --faults plan.json trace   # recovery attribution: the
//!                          # nominal-vs-recovery critical-path split and
//!                          # each message's worst retransmission/backoff
//! repro metrics            # virtual-time metrics registry: per-stage
//!                          # p50/p95/p99/p99.9 latency quantile tables
//! repro metrics --out metrics.json  # ... with the JSON artifact of
//!                          # that same run (also with --bench/--windows)
//! repro metrics --bench put_bw  # meter a live microbenchmark instead of
//!                          # the fault engine (put_bw | am_lat | osu):
//!                          # per-iteration latency quantiles next to the
//!                          # mean
//! repro metrics --windows 8  # time-windowed quantiles: split every
//!                          # stage histogram into fixed-width
//!                          # virtual-time windows so drift and bursts
//!                          # show up as rows, not averaged tails
//! repro sweep-size         # payload-size axis, 8 B – 4 MB: MTU
//!                          # segmentation, eager→rendezvous crossover,
//!                          # per-size critical-path attribution, and the
//!                          # segmented-lossy fast-vs-reference check
//! repro sweep-ranks        # cluster-scale rank axis, 128–4096 ranks:
//!                          # four collectives on fat-tree and dragonfly
//!                          # fabrics with credit flow control and ECN,
//!                          # completion latency + bisection goodput per
//!                          # topology, and the 2-node bit-exactness gate
//!                          # against the calibrated NetworkModel
//! repro sweep-ranks --telemetry  # + per-port fabric telemetry: link
//!                          # utilization heatmaps per level (fat-tree)
//!                          # and per group (dragonfly) over virtual-time
//!                          # windows, input-buffer occupancy, and the
//!                          # top-k contended links behind the dragonfly
//!                          # congestion knee
//! repro sweep-ranks --telemetry --out fabric-telemetry.json
//!                          # ... writing the bband/fabric-telemetry/v1
//!                          # artifact (per-class series, hotspots, and
//!                          # the bit-exact conservation reconciliation)
//! repro sweep-threads      # MPI+threads axis, 1–8 threads: aggregate
//!                          # message rate per lock granularity (global
//!                          # lock, per-endpoint locks, independent VIs)
//!                          # over first-class endpoints, with the
//!                          # 1-thread bit-exactness gate against the
//!                          # multicore path and the Zambre >=4x ratio
//! repro --reference loss   # force the reference engine path everywhere
//!                          # (the escape hatch; fast is the default)
//! repro --faults plan.json trace --out trace.json
//!                          # Chrome trace JSON (open in ui.perfetto.dev):
//!                          # go-back-N replay windows and backoff gaps
//!                          # appear on the recovery track; stage edges
//!                          # render as flow arrows
//! ```
//!
//! Each target runs its experiment once: the text it prints and the
//! artifacts it writes (`--json DIR`, `--out FILE`) are renderings of that
//! one run, listed in [`bband_bench::TARGETS`]. Figures are independent
//! simulations, so the harness fans them out across a [`WorkerPool`] (one
//! task per figure) and then emits results in paper order. The same pool
//! travels in [`Opts`] to every fan-out inside a target, so `--serial`
//! runs everything on one thread. Every figure seeds its own RNG streams,
//! so stdout and the `--json` artifacts are byte-identical between
//! parallel and `--serial` runs — only the wall clock differs.

use bband_bench::{run_target, Opts, Output, Scale, TARGETS};
use bband_core::fault::{EnginePath, FaultPlan};
use bband_microbench::StackConfig;
use bband_sim::WorkerPool;
use std::path::Path;

/// The artifacts `--out` can write, by precedence: the first of these any
/// requested target exported.
const OUT_ARTIFACTS: [&str; 3] = ["trace", "metrics", "fabric-telemetry"];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if let Some(pos) = args.iter().position(|a| a == "--quick") {
        args.remove(pos);
        Scale::Quick
    } else {
        Scale::Full
    };
    let path = if let Some(pos) = args.iter().position(|a| a == "--reference") {
        args.remove(pos);
        EnginePath::Reference
    } else {
        EnginePath::Fast
    };
    let serial = if let Some(pos) = args.iter().position(|a| a == "--serial") {
        args.remove(pos);
        true
    } else {
        false
    };
    let telemetry = if let Some(pos) = args.iter().position(|a| a == "--telemetry") {
        args.remove(pos);
        true
    } else {
        false
    };
    let mut flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|pos| {
            args.remove(pos);
            if pos >= args.len() {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            }
            args.remove(pos)
        })
    };
    let json_dir = flag_value("--json");
    let out_path = flag_value("--out");
    let trace_bench = flag_value("--bench");
    let windows = flag_value("--windows").map(|w| {
        w.parse::<u64>().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--windows requires a positive integer");
            std::process::exit(2);
        })
    });
    let seed = flag_value("--seed").map_or(StackConfig::default().seed, |seed| {
        seed.parse().unwrap_or_else(|_| {
            eprintln!("--seed requires an unsigned integer");
            std::process::exit(2);
        })
    });
    let plan = flag_value("--faults").map_or_else(FaultPlan::none, |path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("--faults: cannot read {path}: {e}");
            std::process::exit(2);
        });
        FaultPlan::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!("--faults: {path} is not a valid fault plan: {e}");
            std::process::exit(2);
        })
    });
    let names = TARGETS.map(|(name, _)| name);
    if args.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--serial] [--reference] [--seed N] [--faults PLAN.json] [--json DIR] [--out OUT.json] [--bench put_bw|am_lat|osu|multicore] [--windows N] [--telemetry] <target>... | all"
        );
        eprintln!("targets: {}", names.join(" "));
        std::process::exit(2);
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown argument {flag}");
        std::process::exit(2);
    }
    let targets: Vec<&str> = if args.len() == 1 && args[0] == "all" {
        names.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for t in &targets {
        if !names.contains(t) {
            eprintln!("unknown target {t}; known: {}", names.join(" "));
            std::process::exit(2);
        }
    }
    if telemetry && !targets.contains(&"sweep-ranks") {
        eprintln!("--telemetry requires the sweep-ranks target");
        std::process::exit(2);
    }
    if out_path.is_some()
        && !targets.contains(&"trace")
        && !targets.contains(&"metrics")
        && !telemetry
    {
        eprintln!("--out requires the trace, metrics, or sweep-ranks --telemetry target");
        std::process::exit(2);
    }
    if let Some(b) = &trace_bench {
        let trace = targets.contains(&"trace");
        let metrics = targets.contains(&"metrics");
        if !trace && !metrics {
            eprintln!("--bench requires the trace or metrics target");
            std::process::exit(2);
        }
        if trace && !bband_bench::TRACE_BENCHES.contains(&b.as_str()) {
            eprintln!(
                "unknown --bench {b}; known: {}",
                bband_bench::TRACE_BENCHES.join(" ")
            );
            std::process::exit(2);
        }
        if metrics && !bband_bench::METRIC_BENCHES.contains(&b.as_str()) {
            eprintln!(
                "unknown --bench {b} for metrics; known: {}",
                bband_bench::METRIC_BENCHES.join(" ")
            );
            std::process::exit(2);
        }
    }

    if let Some(n) = windows {
        if !targets.contains(&"metrics") {
            eprintln!("--windows requires the metrics target");
            std::process::exit(2);
        }
        if trace_bench.is_some() {
            eprintln!("--windows applies to the engine metrics run, not --bench");
            std::process::exit(2);
        }
        if n > 4096 {
            eprintln!("--windows: at most 4096 windows");
            std::process::exit(2);
        }
    }

    let opts = Opts {
        scale,
        bench: trace_bench,
        windows,
        telemetry,
        artifacts: json_dir.is_some() || out_path.is_some(),
        plan,
        path,
        seed,
        pool: if serial {
            WorkerPool::with_threads(1)
        } else {
            WorkerPool::new()
        },
    };
    // One task per figure. Results come back in paper order regardless
    // of which worker ran what.
    let results: Vec<Output> = opts.pool.map(targets.clone(), |_, t| run_target(t, &opts));

    for (t, out) in targets.iter().zip(&results) {
        println!("==== {t} ====");
        println!("{}", out.text);
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| exit_unwritable(Path::new(dir), e));
            for (name, json) in &out.artifacts {
                let path = Path::new(dir).join(format!("{name}.json"));
                std::fs::write(&path, json).unwrap_or_else(|e| exit_unwritable(&path, e));
                eprintln!("wrote {}", path.display());
            }
        }
    }

    if let Some(path) = &out_path {
        let json = OUT_ARTIFACTS
            .iter()
            .find_map(|want| {
                let mut artifacts = results.iter().flat_map(|out| &out.artifacts);
                artifacts.find(|(name, _)| name == want)
            })
            .map(|(_, json)| json)
            .expect("--out requires a target that exports one of OUT_ARTIFACTS");
        std::fs::write(path, json).unwrap_or_else(|e| exit_unwritable(Path::new(path), e));
        eprintln!("wrote {path}");
    }
}

/// End the run with exit code 2 and one line naming `path` and the OS
/// error, as every other bad input does.
fn exit_unwritable(path: &Path, e: std::io::Error) -> ! {
    eprintln!("cannot write {}: {e}", path.display());
    std::process::exit(2);
}
