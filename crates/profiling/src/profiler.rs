//! The scoped profiler that costs virtual CPU time.

use crate::stats::SampleSet;
use bband_sim::{CpuClock, Pcg64, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Calibrated mean cost of one instrumented measurement (the paper's
/// `isb` + `cntvct_el0` read pair): 49.69 ns.
pub const UCS_OVERHEAD_MEAN_NS: f64 = 49.69;
/// Its standard deviation over 1000 samples: 1.48 ns.
pub const UCS_OVERHEAD_SIGMA_NS: f64 = 1.48;

/// Handle for an open measurement region.
#[must_use = "a region must be closed with Profiler::end"]
#[derive(Debug)]
pub struct RegionHandle {
    start: SimTime,
}

/// The UCS-style profiler.
///
/// `begin` charges the instrumentation cost to the measured CPU (as the
/// real timer read does) so raw samples are inflated by ~49.69 ns;
/// `deducted_mean_ns` applies the paper's calibration correction when
/// reporting.
#[derive(Debug)]
pub struct Profiler {
    regions: BTreeMap<String, SampleSet>,
    overhead_mean: f64,
    overhead_sigma: f64,
    rng: Pcg64,
    enabled: bool,
}

impl Profiler {
    /// Profiler with the paper's calibrated overhead.
    pub fn new(seed: u64) -> Self {
        Profiler {
            regions: BTreeMap::new(),
            overhead_mean: UCS_OVERHEAD_MEAN_NS,
            overhead_sigma: UCS_OVERHEAD_SIGMA_NS,
            rng: Pcg64::new(seed ^ 0x9a0f),
            enabled: true,
        }
    }

    /// A profiler that records nothing and costs nothing — the
    /// "instrumentation compiled out" configuration. §3: "while measuring
    /// time of a component, we do not simultaneously measure time in any
    /// other component"; benchmarks use a disabled profiler for all regions
    /// except the one under study.
    pub fn disabled() -> Self {
        let mut p = Profiler::new(0);
        p.enabled = false;
        p
    }

    /// Whether measurements are being taken.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// One sampled instrumentation overhead (Gaussian around the calibrated
    /// mean, clamped positive).
    fn sample_overhead(&mut self) -> SimDuration {
        let ns = (self.overhead_mean + self.overhead_sigma * self.rng.next_gaussian()).max(0.1);
        SimDuration::from_ns_f64(ns)
    }

    /// Open a measurement region: charges the timer-read cost to `cpu` and
    /// snapshots its clock.
    pub fn begin(&mut self, cpu: &mut CpuClock) -> RegionHandle {
        if self.enabled {
            let oh = self.sample_overhead();
            cpu.advance(oh);
        }
        RegionHandle { start: cpu.now() }
    }

    /// Close a region and record the raw (overhead-inflated) sample under
    /// `name`. Note the closing timer read lands *after* the interval, as
    /// on real hardware, so one overhead (the opening one) sits inside each
    /// raw sample... except that `begin` charges it before snapshotting.
    /// We instead charge the closing read inside the interval: symmetric
    /// and equivalent in the mean.
    pub fn end(&mut self, name: &str, handle: RegionHandle, cpu: &mut CpuClock) {
        if !self.enabled {
            return;
        }
        let oh = self.sample_overhead();
        cpu.advance(oh);
        let raw = cpu.now().since(handle.start);
        self.regions.entry(name.to_string()).or_default().push(raw);
    }

    /// Record an externally measured sample (PCIe-analyzer-side data).
    pub fn record(&mut self, name: &str, sample: SimDuration) {
        self.regions
            .entry(name.to_string())
            .or_default()
            .push(sample);
    }

    /// Raw samples of a region.
    pub fn region(&self, name: &str) -> Option<&SampleSet> {
        self.regions.get(name)
    }

    /// Mean of a region with the calibrated overhead deducted — what the
    /// paper's tables report.
    pub fn deducted_mean_ns(&self, name: &str) -> Option<f64> {
        self.regions
            .get(name)
            .map(|s| s.mean_ns_minus(self.overhead_mean))
    }

    /// Raw mean of a region (no deduction).
    pub fn raw_mean_ns(&self, name: &str) -> Option<f64> {
        self.regions.get(name).map(|s| s.mean_ns())
    }

    /// Names of all recorded regions.
    pub fn region_names(&self) -> impl Iterator<Item = &str> {
        self.regions.keys().map(String::as_str)
    }

    /// Drop all samples, keeping calibration.
    pub fn reset(&mut self) {
        self.regions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate a region whose true cost is exactly `true_ns`.
    fn run_region(p: &mut Profiler, cpu: &mut CpuClock, name: &str, true_ns: f64) {
        let h = p.begin(cpu);
        cpu.advance(SimDuration::from_ns_f64(true_ns));
        p.end(name, h, cpu);
    }

    #[test]
    fn deduction_recovers_true_cost() {
        let mut p = Profiler::new(1);
        let mut cpu = CpuClock::new();
        for _ in 0..1_000 {
            run_region(&mut p, &mut cpu, "llp_post", 175.42);
        }
        let raw = p.raw_mean_ns("llp_post").unwrap();
        let corrected = p.deducted_mean_ns("llp_post").unwrap();
        assert!(
            (raw - (175.42 + UCS_OVERHEAD_MEAN_NS)).abs() < 0.5,
            "raw mean should be inflated by ~49.69: {raw}"
        );
        assert!(
            (corrected - 175.42).abs() < 0.5,
            "deducted mean should recover truth: {corrected}"
        );
    }

    #[test]
    fn instrumentation_costs_cpu_time() {
        let mut p = Profiler::new(2);
        let mut cpu = CpuClock::new();
        run_region(&mut p, &mut cpu, "x", 100.0);
        // The CPU paid region + one full overhead (charged inside) plus the
        // trailing half... total advance = 100 + 2 samples of ~49.69? No:
        // begin charges one, end charges one; both advance the clock.
        let elapsed = cpu.now().as_ns_f64();
        assert!(
            elapsed > 100.0 + 2.0 * 40.0 && elapsed < 100.0 + 2.0 * 60.0,
            "elapsed {elapsed}"
        );
    }

    #[test]
    fn disabled_profiler_is_free_and_silent() {
        let mut p = Profiler::disabled();
        let mut cpu = CpuClock::new();
        run_region(&mut p, &mut cpu, "x", 100.0);
        assert!((cpu.now().as_ns_f64() - 100.0).abs() < 1e-9);
        assert!(p.region("x").is_none());
        assert!(!p.is_enabled());
    }

    #[test]
    fn overhead_spread_matches_calibration() {
        let mut p = Profiler::new(3);
        let mut cpu = CpuClock::new();
        for _ in 0..1_000 {
            run_region(&mut p, &mut cpu, "zero", 0.0);
        }
        let sum = p.region("zero").unwrap().summary();
        // Each sample is one overhead draw (the end-side one) — mean 49.69,
        // sigma 1.48 as the paper calibrates over 1000 samples.
        assert!(
            (sum.mean - UCS_OVERHEAD_MEAN_NS).abs() < 0.5,
            "mean {}",
            sum.mean
        );
        assert!(
            (sum.std_dev - UCS_OVERHEAD_SIGMA_NS).abs() < 0.5,
            "σ {}",
            sum.std_dev
        );
    }

    #[test]
    fn external_records_bypass_overhead() {
        let mut p = Profiler::new(4);
        p.record("pcie", SimDuration::from_ns_f64(137.49));
        assert!((p.raw_mean_ns("pcie").unwrap() - 137.49).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_samples() {
        let mut p = Profiler::new(5);
        p.record("a", SimDuration::from_ns(1));
        p.reset();
        assert!(p.region("a").is_none());
        assert_eq!(p.region_names().count(), 0);
    }
}
