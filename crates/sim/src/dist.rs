//! Jitter and OS-noise models for calibrated component costs.
//!
//! The paper's Figure 7 shows the distribution of the observed injection
//! overhead: mean 282.33 ns, median 266.30 ns, minimum 201.30 ns, standard
//! deviation ≈ 58.5 ns — and a maximum of 34,951.7 ns, four orders of
//! magnitude above the mean, caused by rare interference (scheduler ticks,
//! SMIs, cache/TLB misses). Two observations shape the model:
//!
//! 1. the bulk is right-skewed with a hard floor a bit below the median
//!    (the fastest possible execution of the code path), which a floored
//!    log-normal captures well;
//! 2. the tail is a separate, rare spike process, not the same distribution
//!    stretched — so we superimpose Bernoulli "OS noise" spikes.

use crate::rng::Pcg64;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};

/// How a calibrated base cost is perturbed per sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Jitter {
    /// No jitter: every sample is exactly the base cost. Hardware-pipeline
    /// latencies in validation runs use this so model-vs-simulation error is
    /// attributable to structure, not noise.
    Fixed,
    /// Floored log-normal: `max(floor_frac * base, base * exp(sigma*N(0,1)) / k)`
    /// where `k = exp(sigma^2 / 2)` recenters the *mean* on `base` so that
    /// calibrated constants stay means, as in the paper's tables.
    LogNormal {
        /// Log-space standard deviation (≈ relative sigma for small values).
        sigma: f64,
        /// Hard lower bound as a fraction of base (fastest possible run).
        floor_frac: f64,
    },
}

impl Jitter {
    /// CPU-side software cost jitter calibrated so that the injection-
    /// overhead sum reproduces Figure 7's spread: per-component σ_rel 0.25
    /// gives σ ≈ 48 ns on the ~296 ns sum (the paper observes 58.5), and
    /// the 0.70 floor gives a minimum near 207 ns (the paper: 201.3).
    pub const fn cpu_default() -> Jitter {
        Jitter::LogNormal {
            sigma: 0.25,
            floor_frac: 0.70,
        }
    }

    /// Hardware-path (PCIe / wire / switch) jitter: much tighter.
    pub const fn hw_default() -> Jitter {
        Jitter::LogNormal {
            sigma: 0.04,
            floor_frac: 0.90,
        }
    }

    /// Draw one sample of a cost whose calibrated mean is `base`.
    ///
    /// Hot path: the floored log-normal factors as `base · m(u)` where the
    /// multiplier quantile `m` depends only on `(sigma, floor_frac)`, so
    /// the draw is one uniform word and one lerp through a precomputed
    /// 1024-entry inverse-CDF table (`lookup_table`) — no `ln`/`exp`/
    /// Box–Muller per sample. [`Jitter::sample_exact`] keeps the closed
    /// form as the reference the table is tested against.
    #[inline]
    pub fn sample(&self, base: SimDuration, rng: &mut Pcg64) -> SimDuration {
        match *self {
            Jitter::Fixed => base,
            Jitter::LogNormal { sigma, floor_frac } => {
                let table = lookup_table(sigma, floor_frac);
                let u = rng.next_f64();
                // Table entries sit at mid-bin quantiles (i + 0.5)/N; map u
                // onto that grid and interpolate between neighbours. Draws
                // past the outermost mid-bins clamp to the end entries
                // (the spike process models the extreme tail separately).
                let x = (u * TABLE_LEN as f64 - 0.5).clamp(0.0, (TABLE_LEN - 1) as f64);
                let i = x as usize;
                let m = if i + 1 < TABLE_LEN {
                    let frac = x - i as f64;
                    table[i] + (table[i + 1] - table[i]) * frac
                } else {
                    table[TABLE_LEN - 1]
                };
                SimDuration::from_ns_f64(base.as_ns_f64() * m)
            }
        }
    }

    /// The closed-form sampler (Box–Muller through `ln`/`exp`): the
    /// statistical reference for [`Jitter::sample`]'s lookup table. Draw
    /// sequences differ (two-plus uniforms per draw here, exactly one in
    /// the table path) but the distributions must agree in moments.
    pub fn sample_exact(&self, base: SimDuration, rng: &mut Pcg64) -> SimDuration {
        match *self {
            Jitter::Fixed => base,
            Jitter::LogNormal { sigma, floor_frac } => {
                debug_assert!((0.0..=1.0).contains(&floor_frac));
                let mean_correction = (sigma * sigma / 2.0).exp();
                let raw = rng.next_lognormal(base.as_ns_f64() / mean_correction, sigma);
                let floored = raw.max(base.as_ns_f64() * floor_frac);
                SimDuration::from_ns_f64(floored)
            }
        }
    }
}

/// Entries in one inverse-CDF lookup table.
const TABLE_LEN: usize = 1024;

/// Relative-multiplier quantiles of the floored, mean-corrected log-normal
/// for one `(sigma, floor_frac)` profile: entry `i` is the multiplier at
/// probability `(i + 0.5) / TABLE_LEN`.
fn build_table(sigma: f64, floor_frac: f64) -> [f64; TABLE_LEN] {
    assert!((0.0..=1.0).contains(&floor_frac));
    let mean_correction = (sigma * sigma / 2.0).exp();
    let mut t = [0.0; TABLE_LEN];
    for (i, slot) in t.iter_mut().enumerate() {
        let p = (i as f64 + 0.5) / TABLE_LEN as f64;
        *slot = ((sigma * norm_quantile(p)).exp() / mean_correction).max(floor_frac);
    }
    t
}

/// Resolve the table for a profile. Tables are built once per process and
/// leaked (a handful of profiles exist per run), registered under the bit
/// patterns of `(sigma, floor_frac)`, and memoized thread-locally so the
/// per-draw path is an unsynchronized scan of a few entries — no lock to
/// bounce between worker-pool threads.
fn lookup_table(sigma: f64, floor_frac: f64) -> &'static [f64; TABLE_LEN] {
    type Entry = ((u64, u64), &'static [f64; TABLE_LEN]);
    thread_local! {
        static LOCAL: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    }
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();

    let key = (sigma.to_bits(), floor_frac.to_bits());
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if let Some(&(_, t)) = local.iter().find(|(k, _)| *k == key) {
            return t;
        }
        let registry = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
        let mut registry = registry.lock().unwrap();
        let t = match registry.iter().find(|(k, _)| *k == key) {
            Some(&(_, t)) => t,
            None => {
                let t: &'static [f64; TABLE_LEN] =
                    Box::leak(Box::new(build_table(sigma, floor_frac)));
                registry.push((key, t));
                t
            }
        };
        local.push((key, t));
        t
    })
}

/// Acklam's rational approximation of the standard normal quantile
/// Φ⁻¹(p); max absolute error ≈ 1.15e-9, far below the table's
/// interpolation error. Used only at table-construction time.
fn norm_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

/// Rare large interference spikes superimposed on CPU-side costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseSpike {
    /// Per-sample probability of a spike.
    pub probability: f64,
    /// Spike magnitude is uniform in `[min, max]`.
    pub min: SimDuration,
    pub max: SimDuration,
}

impl NoiseSpike {
    /// No spikes at all.
    pub const OFF: NoiseSpike = NoiseSpike {
        probability: 0.0,
        min: SimDuration::ZERO,
        max: SimDuration::ZERO,
    };

    /// Default calibrated to the paper's Figure 7 tail: spikes on the order
    /// of tens of microseconds, about one per ten thousand samples. (The
    /// paper's single 34.9 µs maximum against σ = 58.5 implies an even
    /// rarer process on its hardware; at our default run lengths this rate
    /// makes the tail reliably visible without drowning the bulk.)
    pub fn os_default() -> NoiseSpike {
        NoiseSpike {
            probability: 1.0e-4,
            min: SimDuration::from_us(5),
            max: SimDuration::from_us(35),
        }
    }

    /// Draw the spike contribution for one sample (usually zero).
    pub fn sample(&self, rng: &mut Pcg64) -> SimDuration {
        if self.probability <= 0.0 || !rng.next_bool(self.probability) {
            return SimDuration::ZERO;
        }
        let span = self.max.as_ps().saturating_sub(self.min.as_ps());
        let extra = if span == 0 {
            0
        } else {
            rng.next_below(span + 1)
        };
        SimDuration::from_ps(self.min.as_ps() + extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_ns(samples: &[SimDuration]) -> f64 {
        samples.iter().map(|d| d.as_ns_f64()).sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn fixed_jitter_is_identity() {
        let mut rng = Pcg64::new(1);
        let base = SimDuration::from_ns_f64(175.42);
        for _ in 0..100 {
            assert_eq!(Jitter::Fixed.sample(base, &mut rng), base);
        }
    }

    #[test]
    fn lognormal_preserves_mean() {
        let mut rng = Pcg64::new(5);
        let base = SimDuration::from_ns_f64(175.42);
        let j = Jitter::cpu_default();
        let samples: Vec<SimDuration> = (0..200_000).map(|_| j.sample(base, &mut rng)).collect();
        let mean = mean_ns(&samples);
        assert!(
            (mean - 175.42).abs() / 175.42 < 0.02,
            "jittered mean drifted from calibrated base: {mean}"
        );
    }

    #[test]
    fn lognormal_respects_floor() {
        let mut rng = Pcg64::new(6);
        let base = SimDuration::from_ns_f64(100.0);
        let j = Jitter::LogNormal {
            sigma: 0.5,
            floor_frac: 0.8,
        };
        for _ in 0..50_000 {
            let s = j.sample(base, &mut rng);
            assert!(s.as_ns_f64() >= 80.0 - 1e-9, "sample below floor: {s}");
        }
    }

    #[test]
    fn lognormal_is_right_skewed() {
        // Median below mean, as in the paper's Figure 7
        // (median 266.30 < mean 282.33).
        let mut rng = Pcg64::new(8);
        let base = SimDuration::from_ns_f64(282.33);
        let j = Jitter::cpu_default();
        let mut samples: Vec<f64> = (0..100_001)
            .map(|_| j.sample(base, &mut rng).as_ns_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            median < mean,
            "expected right skew, got median {median} >= mean {mean}"
        );
    }

    #[test]
    fn noise_spikes_are_rare_and_bounded() {
        let mut rng = Pcg64::new(11);
        let n = 500_000;
        let spike = NoiseSpike::os_default();
        let mut hits = 0usize;
        for _ in 0..n {
            let s = spike.sample(&mut rng);
            if !s.is_zero() {
                hits += 1;
                assert!(s >= spike.min && s <= spike.max);
            }
        }
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - 1.0e-4).abs() < 0.6e-4,
            "spike rate off: {rate} (hits {hits})"
        );
    }

    #[test]
    fn noise_off_never_fires() {
        let mut rng = Pcg64::new(12);
        for _ in 0..10_000 {
            assert!(NoiseSpike::OFF.sample(&mut rng).is_zero());
        }
    }

    #[test]
    fn norm_quantile_matches_known_values() {
        // Reference values of Φ⁻¹ to 6 decimals; Acklam's approximation
        // is good to ~1e-9 so equality at 1e-6 exercises all three branches.
        for (p, z) in [
            (0.5, 0.0),
            (0.841345, 1.0),
            (0.975, 1.959964),
            (0.999, 3.090232),
            (0.025, -1.959964),
            (0.001, -3.090232),
            (1e-6, -4.753424),
        ] {
            let got = norm_quantile(p);
            assert!(
                (got - z).abs() < 1e-5,
                "norm_quantile({p}) = {got}, want {z}"
            );
        }
    }

    /// The ISSUE's exactness criterion: the table sampler's moments must
    /// match the closed-form sampler's on every shipped profile.
    #[test]
    fn table_sampler_matches_exact_sampler_moments() {
        let base = SimDuration::from_ns_f64(282.33);
        let n = 200_000;
        for j in [
            Jitter::cpu_default(),
            Jitter::hw_default(),
            Jitter::LogNormal {
                sigma: 0.5,
                floor_frac: 0.8,
            },
        ] {
            let moments = |exact: bool| {
                let mut rng = Pcg64::new(0xF1_6007);
                let samples: Vec<f64> = (0..n)
                    .map(|_| {
                        if exact {
                            j.sample_exact(base, &mut rng).as_ns_f64()
                        } else {
                            j.sample(base, &mut rng).as_ns_f64()
                        }
                    })
                    .collect();
                let mean = samples.iter().sum::<f64>() / n as f64;
                let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
                (mean, var.sqrt())
            };
            let (table_mean, table_sigma) = moments(false);
            let (exact_mean, exact_sigma) = moments(true);
            assert!(
                (table_mean - exact_mean).abs() / exact_mean < 0.01,
                "{j:?}: table mean {table_mean} vs exact {exact_mean}"
            );
            assert!(
                (table_sigma - exact_sigma).abs() / exact_sigma < 0.05,
                "{j:?}: table sigma {table_sigma} vs exact {exact_sigma}"
            );
        }
    }

    #[test]
    fn table_sampler_consumes_one_rng_word_per_draw() {
        // The table path must draw exactly one uniform per sample so cost
        // streams stay deterministic and cheap to reason about.
        let j = Jitter::cpu_default();
        let base = SimDuration::from_ns_f64(100.0);
        let mut rng = Pcg64::new(42);
        let mut reference = rng.clone();
        for _ in 0..257 {
            j.sample(base, &mut rng);
            reference.next_f64();
        }
        assert_eq!(rng, reference, "table draw consumed != 1 RNG word");
    }

    #[test]
    fn table_median_matches_closed_form() {
        // At u = 0.5 the multiplier is exp(0)/exp(sigma^2/2); the lerped
        // table value around mid-grid must agree to table resolution.
        let sigma = 0.25f64;
        let t = build_table(sigma, 0.0);
        let mid = (t[TABLE_LEN / 2 - 1] + t[TABLE_LEN / 2]) / 2.0;
        let want = (-sigma * sigma / 2.0).exp();
        assert!(
            (mid - want).abs() < 1e-4,
            "table median {mid} vs closed form {want}"
        );
    }

    #[test]
    fn table_is_monotone_and_floored() {
        let t = build_table(0.25, 0.70);
        for w in t.windows(2) {
            assert!(w[1] >= w[0], "quantile table must be non-decreasing");
        }
        assert!(t.iter().all(|&m| m >= 0.70), "floor not applied in table");
        assert!(t[TABLE_LEN - 1] > 1.5, "upper tail missing");
    }

    #[test]
    fn hw_jitter_is_tight() {
        let mut rng = Pcg64::new(13);
        let base = SimDuration::from_ns_f64(137.49);
        let j = Jitter::hw_default();
        let samples: Vec<f64> = (0..50_000)
            .map(|_| j.sample(base, &mut rng).as_ns_f64())
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        let rel_sigma = var.sqrt() / mean;
        assert!(rel_sigma < 0.06, "hardware jitter too loose: {rel_sigma}");
    }
}
