//! `--compare PARENT.json CHANGE.json`: the rule for claiming a gain or
//! finding a regression between two commits, over alternating pairs of
//! runs written with `--out`.

use crate::spec::{self, Metric, Spec};
use crate::stats::{median, quartiles, sorted};
use crate::workloads::Kind;
use serde_json::Value;
use std::collections::BTreeMap;

/// Pairs of runs the rule needs.
const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Runs of a results file: workload -> metric -> value, per run.
type Runs = Vec<BTreeMap<String, BTreeMap<String, f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `runs` list; write it with --out"))?;
    runs.iter()
        .map(|run| {
            let workloads = run
                .get("workloads")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{path}: a run has no `workloads` object"))?;
            workloads
                .iter()
                .map(|(w, metrics)| {
                    let m = metrics
                        .as_object()
                        .ok_or_else(|| format!("{path}: {w} is not an object"))?
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                        .collect();
                    Ok((w.clone(), m))
                })
                .collect()
        })
        .collect()
}

/// Wins of the change over `pairs` index-matched runs; ties count for
/// neither side.
fn wins(parent: &[f64], change: &[f64], lower_is_better: bool) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if lower_is_better { c < p } else { c > p })
        .count()
}

/// The verdict on one (workload, metric) from index-matched runs.
///
/// A gain needs the change to win at least nine tenths of the pairs and
/// the medians to differ by more than the parent's interquartile range. A
/// regression is a median worse than the parent's by more than the bound;
/// for a metric without a bound, any worse mean. Where the parent's
/// spread exceeds the bound the metric is unresolved, unless every run of
/// the change reads better than every run of the parent.
fn verdict(parent: &[f64], change: &[f64], metric: &Metric) -> Verdict {
    let lower = metric.lower_is_better;
    let (sp, sc) = (
        sorted(parent.iter().copied()),
        sorted(change.iter().copied()),
    );
    let (mp, mc) = (median(&sp), median(&sc));
    let better = |a: f64, b: f64| if lower { a < b } else { a > b };
    let (q1, q3) = quartiles(&sp);
    let won = wins(parent, change, lower) * 10 >= parent.len() * 9;
    if won && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let Some(bound) = metric.bound else {
        // Means, not medians: a failure in any single run counts.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        return if better(mean(parent), mean(change)) {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    };
    let worse_by = if lower { mc - mp } else { mp - mc } / mp.abs();
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let all_better = if lower {
        sc[sc.len() - 1] < sp[0]
    } else {
        sc[0] > sp[sp.len() - 1]
    };
    if (q3 - q1) / mp.abs() > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Print one row per (workload, end-to-end metric). Exit code 1 if any
/// metric regressed, 2 if the inputs cannot be compared.
pub fn compare(parent_path: &str, change_path: &str, spec: &Spec) -> i32 {
    let (parent, change) = match (load(parent_path), load(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        eprintln!(
            "compare: {pairs} pairs of runs; the rule needs at least {MIN_PAIRS}, \
             run alternately: parent, change, parent, ..."
        );
        return 2;
    }
    println!(
        "{:16} {:20} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut metrics = spec.end_to_end.clone();
    metrics.push(spec::failed_frac());
    let mut regressed = false;
    for w in Kind::ALL.map(Kind::name) {
        for m in &metrics {
            let series = |runs: &Runs| -> Option<Vec<f64>> {
                runs[..pairs]
                    .iter()
                    .map(|r| r.get(w).and_then(|x| x.get(&m.name)).copied())
                    .collect()
            };
            let (Some(p), Some(c)) = (series(&parent), series(&change)) else {
                continue;
            };
            let v = verdict(&p, &c, m);
            regressed |= v == Verdict::Regressed;
            let cell = |x: &[f64]| {
                let s = sorted(x.iter().copied());
                let (q1, q3) = quartiles(&s);
                let num = |v: f64| {
                    if v.abs() >= 1e5 {
                        format!("{v:.4e}")
                    } else {
                        format!("{v:.4}")
                    }
                };
                format!("{} [{}, {}]", num(median(&s)), num(q1), num(q3))
            };
            println!(
                "{w:16} {:20} {:>30} {:>30} {:>3}/{:<3}  {}",
                m.name,
                cell(&p),
                cell(&c),
                wins(&p, &c, m.lower_is_better),
                pairs,
                v.name()
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(bound: Option<f64>) -> Metric {
        Metric {
            name: "host_ns_per_msg".into(),
            unit: "ns".into(),
            lower_is_better: true,
            bound,
        }
    }

    /// Ten runs around `center` with a ±1% wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.01 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn a_consistent_speedup_is_a_gain() {
        let v = verdict(&runs(100.0), &runs(80.0), &metric(Some(0.1)));
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn a_slowdown_past_the_bound_regresses() {
        let v = verdict(&runs(100.0), &runs(115.0), &metric(Some(0.1)));
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn a_slowdown_within_the_bound_is_unchanged() {
        let v = verdict(&runs(100.0), &runs(104.0), &metric(Some(0.1)));
        assert_eq!(v, Verdict::Unchanged);
        assert_eq!(
            verdict(&runs(100.0), &runs(100.0), &metric(Some(0.1))),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_small_gain_within_the_parents_spread_is_not_claimed() {
        // Wins every pair but by less than the parent's IQR.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + (i % 2) as f64 * 4.0).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert_eq!(
            verdict(&parent, &change, &metric(Some(0.1))),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + (i % 2) as f64 * 30.0).collect();
        let change: Vec<f64> = parent.iter().rev().map(|p| p + 1.0).collect();
        assert_eq!(
            verdict(&parent, &change, &metric(Some(0.1))),
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_metrics_flip_direction() {
        let m = Metric {
            lower_is_better: false,
            ..metric(Some(0.1))
        };
        assert_eq!(verdict(&runs(100.0), &runs(130.0), &m), Verdict::Improved);
        assert_eq!(verdict(&runs(100.0), &runs(80.0), &m), Verdict::Regressed);
    }

    #[test]
    fn any_increase_in_failures_regresses() {
        let m = spec::failed_frac();
        let zero = vec![0.0; 10];
        let mut some = zero.clone();
        for x in some.iter_mut().take(6) {
            *x = 0.01;
        }
        assert_eq!(verdict(&zero, &some, &m), Verdict::Regressed);
        assert_eq!(verdict(&zero, &zero, &m), Verdict::Unchanged);
    }
}
