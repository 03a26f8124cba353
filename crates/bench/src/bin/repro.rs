//! The reproduction harness: regenerate any table or figure of the paper.
//!
//! ```text
//! repro <target>...        # table1 fig4 fig6 fig7 fig8 fig10..fig16
//!                          # fig17a..fig17d claims validate
//!                          # scaling crossover multicore collectives
//!                          # profiles insights
//! repro all                # everything, in paper order
//! repro --quick all        # smaller runs (CI-friendly)
//! repro --serial all       # one figure at a time (same bytes, slower)
//! repro --json DIR fig13   # also write machine-readable artifacts
//! repro --timing-json P all  # write per-figure wall-clock to P
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
//! repro metrics --out metrics.json  # ... with the JSON artifact
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
//! Figures are independent simulations, so the harness fans them out
//! across a [`WorkerPool`] (one task per figure) and then emits results in
//! paper order. Every figure seeds its own RNG streams, so stdout and the
//! `--json` artifacts are byte-identical between parallel and `--serial`
//! runs — only the wall clock differs.

use bband_bench::{run_target, Scale, ALL_TARGETS};
use bband_core::whatif::Component;
use bband_core::{
    Calibration, EndToEndLatencyModel, FaultPlan, InjectionModel, OverallInjectionModel, WhatIf,
};
use bband_report::{breakdown_json, curves_json, loss_sweep_json, to_json};
use bband_sim::WorkerPool;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if let Some(pos) = args.iter().position(|a| a == "--quick") {
        args.remove(pos);
        Scale::Quick
    } else {
        Scale::Full
    };
    if let Some(pos) = args.iter().position(|a| a == "--reference") {
        args.remove(pos);
        bband_core::fault::set_engine_path(bband_core::fault::EnginePath::Reference);
    }
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
    let timing_path = flag_value("--timing-json");
    let trace_out = flag_value("--out");
    let trace_bench = flag_value("--bench");
    let windows = flag_value("--windows").map(|w| {
        w.parse::<u64>().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--windows requires a positive integer");
            std::process::exit(2);
        })
    });
    if let Some(seed) = flag_value("--seed") {
        let seed: u64 = seed.parse().unwrap_or_else(|_| {
            eprintln!("--seed requires an unsigned integer");
            std::process::exit(2);
        });
        bband_microbench::set_seed_override(seed);
    }
    if let Some(path) = flag_value("--faults") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("--faults: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let plan = FaultPlan::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!("--faults: {path} is not a valid fault plan: {e}");
            std::process::exit(2);
        });
        bband_core::fault::set_plan_override(plan);
    }
    if args.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--serial] [--reference] [--seed N] [--faults PLAN.json] [--json DIR] [--timing-json PATH] [--out OUT.json] [--bench put_bw|am_lat|osu|multicore] [--windows N] [--telemetry] <target>... | all"
        );
        eprintln!("targets: {}", ALL_TARGETS.join(" "));
        std::process::exit(2);
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown argument {flag}");
        std::process::exit(2);
    }
    let targets: Vec<&str> = if args.len() == 1 && args[0] == "all" {
        ALL_TARGETS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for t in &targets {
        if !ALL_TARGETS.contains(t) {
            eprintln!("unknown target {t}; known: {}", ALL_TARGETS.join(" "));
            std::process::exit(2);
        }
    }
    if telemetry && !targets.contains(&"sweep-ranks") {
        eprintln!("--telemetry requires the sweep-ranks target");
        std::process::exit(2);
    }
    if trace_out.is_some()
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

    let pool = if serial {
        WorkerPool::with_threads(1)
    } else {
        WorkerPool::new()
    };
    let started = Instant::now();
    // One task per figure; each returns (rendered text, optional artifact,
    // wall-clock seconds). Results come back in paper order regardless of
    // which worker ran what.
    let results: Vec<(String, Option<String>, f64)> = pool.map(targets.clone(), |_, t| {
        let t0 = Instant::now();
        let text = match (t, &trace_bench) {
            ("trace", Some(b)) => bband_bench::ext_trace_bench(b, scale),
            ("metrics", Some(b)) => bband_bench::ext_metrics_bench(b, scale),
            ("metrics", None) if windows.is_some() => {
                bband_bench::ext_metrics_windowed(scale, windows.unwrap())
            }
            ("sweep-ranks", _) if telemetry => bband_bench::ext_sweep_ranks_telemetry(scale),
            _ => run_target(t, scale),
        };
        let artifact = json_dir
            .as_ref()
            .and_then(|_| json_artifact(t, scale, trace_bench.as_deref()));
        (text, artifact, t0.elapsed().as_secs_f64())
    });
    let total = started.elapsed().as_secs_f64();

    for (t, (text, artifact, _)) in targets.iter().zip(&results) {
        println!("==== {t} ====");
        println!("{text}");
        if let (Some(dir), Some(json)) = (&json_dir, artifact) {
            std::fs::create_dir_all(dir).expect("create artifact dir");
            let path = Path::new(dir).join(format!("{t}.json"));
            std::fs::write(&path, json).expect("write artifact");
            eprintln!("wrote {}", path.display());
        }
    }

    // The telemetry artifact rides along with the sweep-ranks one so the
    // CI byte-diff loop (`--quick --json regen all`) covers it too.
    if let Some(dir) = json_dir
        .as_ref()
        .filter(|_| targets.contains(&"sweep-ranks"))
    {
        std::fs::create_dir_all(dir).expect("create artifact dir");
        let path = Path::new(dir).join("fabric-telemetry.json");
        std::fs::write(&path, bband_bench::fabric_telemetry_json_string(scale))
            .expect("write telemetry artifact");
        eprintln!("wrote {}", path.display());
    }

    if let Some(path) = &trace_out {
        // `trace` takes precedence when both targets ran; `metrics` gets
        // the quantile artifact.
        let json = if targets.contains(&"trace") {
            match &trace_bench {
                Some(b) => bband_bench::trace_bench_chrome_json(b, scale),
                None => bband_bench::trace_chrome_json(),
            }
        } else if targets.contains(&"metrics") {
            bband_bench::metrics_json_string(scale)
        } else {
            bband_bench::fabric_telemetry_json_string(scale)
        };
        std::fs::write(path, json).expect("write output json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = &timing_path {
        let per_target: Vec<Value> = targets
            .iter()
            .zip(&results)
            .map(|(t, (_, _, secs))| {
                Value::Obj(vec![
                    ("target".into(), Value::Str((*t).into())),
                    ("ms".into(), Value::Float(secs * 1e3)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("scale".into(), Value::Str(scale.name().into())),
            ("threads".into(), Value::UInt(pool.threads() as u64)),
            ("total_ms".into(), Value::Float(total * 1e3)),
            ("targets".into(), Value::Arr(per_target)),
        ]);
        std::fs::write(
            path,
            serde_json::to_string_pretty(&doc).expect("render timings"),
        )
        .expect("write timing json");
        eprintln!("wrote {path}");
    }
}

/// Machine-readable form of the analytical targets (those with a stable
/// schema; trace/distribution targets export through the library API).
fn json_artifact(target: &str, scale: Scale, trace_bench: Option<&str>) -> Option<String> {
    let c = Calibration::default();
    let w = WhatIf::new(c.clone());
    let panel = |comps: &[Component], latency: bool, title: &str| {
        let curves: Vec<_> = comps
            .iter()
            .map(|&comp| (comp, w.curve(comp, latency, &WhatIf::GRID)))
            .collect();
        to_json(&curves_json(title, &curves))
    };
    Some(match target {
        "fig4" => to_json(&breakdown_json(&InjectionModel::llp_post_breakdown(&c))),
        "fig8" => to_json(&breakdown_json(
            &InjectionModel::from_calibration(&c).breakdown(),
        )),
        "fig12" => to_json(&breakdown_json(
            &OverallInjectionModel::from_calibration(&c).breakdown(),
        )),
        "fig13" => to_json(&breakdown_json(
            &EndToEndLatencyModel::from_calibration(&c).breakdown(),
        )),
        "fig15" => to_json(&breakdown_json(
            &EndToEndLatencyModel::from_calibration(&c).category_breakdown(),
        )),
        "fig16" => to_json(&breakdown_json(
            &EndToEndLatencyModel::from_calibration(&c).on_node_breakdown(),
        )),
        "fig17a" => panel(&Component::FIG17A, false, "fig17a"),
        "fig17b" => panel(&Component::FIG17B, true, "fig17b"),
        "fig17c" => panel(&Component::FIG17C, true, "fig17c"),
        "fig17d" => panel(&Component::FIG17D, true, "fig17d"),
        // Recomputed with the same plan/seed/scale as the rendered text;
        // identical inputs give identical points.
        "loss" => to_json(&loss_sweep_json(
            "latency_under_loss",
            &bband_bench::loss_sweep(scale),
        )),
        // Fixed message count: the Chrome trace artifact is
        // scale-independent (see `trace_chrome_json`). With --bench the
        // artifact is the traced live microbenchmark instead.
        "trace" => match trace_bench {
            Some(b) => bband_bench::trace_bench_chrome_json(b, scale),
            None => bband_bench::trace_chrome_json(),
        },
        // Quantile summaries + counters of the metered e2e run (same
        // plan/seed/scale as the rendered table).
        "metrics" => bband_bench::metrics_json_string(scale),
        // The payload-size curve: quantiles, stage attributions, the
        // eager→rendezvous crossover, and the embedded fast-vs-reference
        // fault check on a segmented lossy plan.
        "sweep-size" => bband_bench::sweep_size_json_string(scale),
        // The rank-scaling grid: collectives per topology with congestion
        // counters and the embedded 2-node equivalence gate.
        "sweep-ranks" => bband_bench::sweep_ranks_json_string(scale),
        // The thread-scaling grid: message rate per lock granularity over
        // first-class endpoints, with the 1-thread bit-exactness gate and
        // the Zambre scalability ratio.
        "sweep-threads" => bband_bench::sweep_threads_json_string(scale),
        _ => return None,
    })
}
