//! One run of one workload: the measured set-ups, the timed closed loop
//! (one caller, the next sample starts when the last returns), and the
//! output oracle.

use crate::cpus::Rotation;
use crate::stats::{sample_seed, Fnv};
use crate::workloads::{
    artifact_cells, engine_plan, model_total_ns, Kind, RanksState, Results, State, CHECK_SAMPLES,
};
use bband_core::fault::{self, EnginePath, FaultRunStats};
use bband_core::Calibration;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How much a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many timed samples.
    Samples(u64),
    /// Samples until this many seconds have passed, and at least
    /// [`MIN_SAMPLES`].
    Seconds(f64),
}

/// Every time-bounded run has at least this many samples, so ten of them
/// lie beyond the reported p90.
const MIN_SAMPLES: u64 = 100;

/// A run sets up once before its first timed sample and again this often
/// between samples, so its set-ups spread over the run as its samples do.
/// A shared host has slow phases of seconds: set-ups bunched into the
/// first 1.5 s of a run all fell inside one in seven of ten runs of a set,
/// while spread ones move their median only when a phase covers half the
/// run. Each set-up first moves the run to its next CPU ([`Rotation`]).
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Every this-many-th sample of an engine workload, up to
/// [`REFERENCE_CHECKS`] of them, is re-run on the reference event loop and
/// must match the fast path exactly.
pub const REFERENCE_EVERY: u64 = 100;
/// The reference loop is up to 14x slower than the fast path; uncapped,
/// its re-runs would add seconds to a long run after the timed loop.
const REFERENCE_CHECKS: usize = 40;

#[derive(Debug, Clone)]
pub struct RunSpec {
    pub kind: Kind,
    pub seed: u64,
    /// Index of the first timed sample.
    pub first: u64,
    pub budget: Budget,
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Wall time of each timed sample, ns, in sample order.
    pub wall_ns: Vec<u64>,
    /// Simulated messages each timed sample carried.
    pub msgs: Vec<u64>,
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the digests of the timed samples, in order.
    pub digest: u64,
    /// Oracle checks by name: `None` passed, `Some(detail)` failed.
    pub checks: BTreeMap<String, Option<String>>,
    /// Peak resident set of the process, KiB.
    pub rss_kb: u64,
}

/// Build a workload's state and run one untimed warm-up sample, recording
/// the time both took.
fn set_up(spec: &RunSpec, out: &mut Run) -> State {
    let t0 = Instant::now();
    let mut s = State::setup(spec.kind);
    s.sample(sample_seed(spec.seed, spec.kind.name(), u64::MAX));
    out.setup_s.push(t0.elapsed().as_secs_f64());
    s
}

pub fn run(spec: &RunSpec) -> Run {
    let name = spec.kind.name();
    let mut out = Run::default();
    let mut cpus = Rotation::new();
    let mut rotate = || cpus.as_mut().map(Rotation::advance);
    rotate();
    let mut state = set_up(spec, &mut out);

    // Reserved up front: a vector that doubles as it fills would move the
    // peak RSS with the sample count, which depends on the machine's speed.
    let capacity = match spec.budget {
        Budget::Samples(n) => n as usize,
        Budget::Seconds(_) => 1 << 20,
    };
    out.wall_ns.reserve_exact(capacity);
    out.msgs.reserve_exact(capacity);
    let mut oracle = Oracle::new(spec);
    let mut digest = Fnv::default();
    let start = Instant::now();
    let mut next_setup = start + SETUP_EVERY;
    let mut i = spec.first;
    loop {
        let n = i - spec.first;
        let done = match spec.budget {
            Budget::Samples(want) => n >= want,
            Budget::Seconds(s) => n >= MIN_SAMPLES && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        if Instant::now() >= next_setup {
            // The old state goes first, so peak memory holds one state.
            drop(state);
            rotate();
            state = set_up(spec, &mut out);
            next_setup = Instant::now() + SETUP_EVERY;
        }
        let seed = sample_seed(spec.seed, name, i);
        let t0 = Instant::now();
        let results = state.sample(seed);
        out.wall_ns.push(t0.elapsed().as_nanos() as u64);
        out.msgs.push(results.messages());
        let (ops, failed) = results.op_counts();
        out.attempted += ops;
        out.failed += failed;
        digest.u64(oracle.observe(i, seed, results));
        i += 1;
    }
    out.digest = digest.finish();
    drop(cpus);
    oracle.finish(&mut state);
    out.checks = oracle.checks;
    out.rss_kb = peak_rss_kb();
    out
}

/// Peak resident set size of this process (`VmHWM`), KiB; 0 where the
/// kernel does not report it.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The output oracle of one run. Cheap checks run on every timed sample;
/// the rest run once, after the timed loop.
struct Oracle {
    kind: Kind,
    seed: u64,
    first: u64,
    checks: BTreeMap<String, Option<String>>,
    first_digest: Option<u64>,
    /// Fast-path results of every [`REFERENCE_EVERY`]-th sample.
    reference_due: Vec<(u64, FaultRunStats)>,
    /// Digests of the first [`CHECK_SAMPLES`] samples, if they ran at seed 1.
    canonical: Vec<u64>,
    /// The first sample's collective results (telemetry on == off check).
    first_ranks: Option<Results>,
}

impl Oracle {
    fn new(spec: &RunSpec) -> Self {
        Oracle {
            kind: spec.kind,
            seed: spec.seed,
            first: spec.first,
            checks: BTreeMap::new(),
            first_digest: None,
            reference_due: Vec::new(),
            canonical: Vec::new(),
            first_ranks: None,
        }
    }

    /// Record a check outcome; the first failure detail of a check wins.
    fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let slot = self.checks.entry(name.to_string()).or_insert(None);
        if !ok && slot.is_none() {
            *slot = Some(detail());
        }
    }

    /// Check one timed sample; returns its digest.
    fn observe(&mut self, index: u64, seed: u64, results: Results) -> u64 {
        let digest = results.digest();
        if self.seed == 1 && self.first == 0 && index < CHECK_SAMPLES {
            self.canonical.push(digest);
        }
        if !self.kind.seeded() {
            let first = *self.first_digest.get_or_insert(digest);
            self.check("seed_independent", digest == first, || {
                format!("sample {index} digest {digest:016x} != first sample's {first:016x}")
            });
        }
        match &results {
            Results::Engine(Some(stats)) => {
                if self.kind == Kind::EngineClean {
                    let total = model_total_ns();
                    let ok = stats.min_ns == total
                        && stats.max_ns == total
                        && (stats.mean_ns - total).abs() < 1e-9
                        && stats.completed == stats.messages
                        && stats.counters.is_clean();
                    self.check("zero_plan_matches_model", ok, || {
                        format!(
                            "sample {index}: min {} max {} mean {} vs model {total}",
                            stats.min_ns, stats.max_ns, stats.mean_ns
                        )
                    });
                }
                if index.is_multiple_of(REFERENCE_EVERY)
                    && self.reference_due.len() < REFERENCE_CHECKS
                {
                    self.reference_due.push((seed, stats.clone()));
                }
            }
            Results::Live(live) => {
                let stalled = live.put.as_ref().is_some_and(|p| !p.rc_never_stalled)
                    || live.osu.as_ref().is_some_and(|o| !o.rc_never_stalled);
                self.check("single_core_never_stalls", !stalled, || {
                    format!("sample {index}: one posting core stalled the RC for credits")
                });
                for cell in live.cells.iter().flatten() {
                    let mismatch = artifact_mismatch(cell);
                    self.check("thread_cells_match_artifact", mismatch.is_none(), || {
                        format!("sample {index}: {}", mismatch.unwrap_or_default())
                    });
                }
            }
            Results::Ranks(colls) => {
                for c in colls.iter().flatten() {
                    if let Some(t) = &c.telemetry {
                        let ok = t.conservation.exact() && t.messages == c.report.messages;
                        self.check("telemetry_conservation", ok, || {
                            format!(
                                "sample {index} {} {}: {:?}",
                                c.topo,
                                c.coll.name(),
                                t.conservation
                            )
                        });
                    }
                }
                if self.first_ranks.is_none() {
                    self.first_ranks = Some(results);
                }
            }
            Results::Engine(None) => {}
        }
        digest
    }

    /// The checks that need extra simulation: fast vs reference, the
    /// committed digest, telemetry on vs off, and the 2-node gate.
    fn finish(&mut self, state: &mut State) {
        let kind = self.kind;
        if matches!(
            kind,
            Kind::EngineClean | Kind::EngineFaulty | Kind::EngineSized
        ) {
            let (plan, messages) = engine_plan(kind);
            let cal = Calibration::default();
            for (seed, fast) in std::mem::take(&mut self.reference_due) {
                let reference = fault::run_e2e_under_faults_on(
                    EnginePath::Reference,
                    &cal,
                    &plan,
                    messages,
                    seed,
                );
                self.check(
                    "fast_equals_reference",
                    reference.as_ref() == Ok(&fast),
                    || format!("seed {seed:#x}: fast {fast:?} vs reference {reference:?}"),
                );
            }
        }
        if self.first != 0 {
            // Runs that start past sample 0 are later rounds of a
            // multi-round run; the first round makes the one-off checks.
            return;
        }
        if self.canonical.len() < CHECK_SAMPLES as usize {
            self.canonical = (0..CHECK_SAMPLES)
                .map(|i| state.sample(sample_seed(1, kind.name(), i)).digest())
                .collect();
        }
        let mut h = Fnv::default();
        for d in &self.canonical {
            h.u64(*d);
        }
        let (got, want) = (h.finish(), kind.expected_digest());
        self.check("digest", got == want, || {
            format!("digest of samples 0..{CHECK_SAMPLES} at seed 1 is {got:016x}, expected {want:016x}")
        });
        if matches!(kind, Kind::RanksRing | Kind::RanksContended) {
            let gate = bband_cluster::two_node_equivalence();
            self.check("two_node_equivalence", gate.exact, || format!("{gate:?}"));
        }
        if kind == Kind::RanksContended {
            let plain = RanksState::build(kind, false, true).sample();
            let equal = match &self.first_ranks {
                Some(Results::Ranks(on)) => {
                    on.len() == plain.len()
                        && on.iter().zip(&plain).all(|(a, b)| match (a, b) {
                            (Some(a), Some(b)) => {
                                a.report == b.report
                                    && a.counters == b.counters
                                    && a.quantiles == b.quantiles
                            }
                            _ => false,
                        })
                }
                _ => false,
            };
            self.check("telemetry_on_equals_off", equal, || {
                "collective results differ with telemetry off".into()
            });
        }
    }
}

/// Compare one thread cell with its point in the committed
/// `artifacts/sweep-threads.json`; `Some(reason)` on any difference.
fn artifact_mismatch(c: &crate::workloads::CellResult) -> Option<String> {
    let point = artifact_cells()
        .iter()
        .find(|(curve, threads, _)| curve == c.curve && *threads == c.threads)
        .map(|(_, _, p)| p);
    let Some(p) = point else {
        return Some(format!("{} x{}: no artifact point", c.curve, c.threads));
    };
    let f = |k: &str| p.get(k).and_then(Value::as_f64);
    let u = |k: &str| p.get(k).and_then(Value::as_u64);
    let fields = [
        ("endpoints", u("endpoints") == Some(c.endpoints as u64)),
        (
            "lock",
            p.get("lock").and_then(Value::as_str) == Some(c.lock),
        ),
        ("rate_per_us", f("rate_per_us") == Some(c.rate_per_us)),
        ("per_thread_ns", f("per_thread_ns") == Some(c.per_thread_ns)),
        ("busy_posts", u("busy_posts") == Some(c.busy_posts)),
        (
            "lock_acquisitions",
            u("lock_acquisitions") == Some(c.lock_acquisitions),
        ),
        (
            "lock_contended",
            u("lock_contended") == Some(c.lock_contended),
        ),
        ("lock_wait_ns", f("lock_wait_ns") == Some(c.lock_wait_ns)),
        (
            "rc_stalled",
            p.get("rc_stalled").and_then(Value::as_bool) == Some(c.rc_stalled),
        ),
        ("credit_waits", u("credit_waits") == Some(c.credit_waits)),
    ];
    fields.iter().find(|(_, ok)| !ok).map(|(field, _)| {
        format!(
            "{} x{}: {field} differs from the artifact",
            c.curve, c.threads
        )
    })
}
