//! Histogram rendering (Figure 7).

use bband_profiling::SampleSet;

/// Render a probability-density histogram with summary statistics, in the
/// style of the paper's Figure 7 (which annotates mean, median, min, max
/// and standard deviation, and clips the distant outliers).
pub fn render_histogram(title: &str, s: &SampleSet, lo: f64, hi: f64, bins: usize) -> String {
    const WIDTH: usize = 50;
    let sum = s.summary();
    let mut out = format!(
        "{title}\n  Mean: {:.2}  Median: {:.2}  Min: {:.2}  Max: {:.2}  Std.dev: {:.4}  (n = {})\n",
        sum.mean, sum.median, sum.min, sum.max, sum.std_dev, sum.count
    );
    let hist = s.histogram(lo, hi, bins);
    let peak = hist.iter().map(|(_, d)| *d).fold(0.0f64, f64::max);
    for (center, density) in hist {
        let cells = if peak > 0.0 {
            (density / peak * WIDTH as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "  {center:>8.1} ns |{}{} {density:.5}\n",
            "█".repeat(cells),
            " ".repeat(WIDTH - cells),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_sim::SimDuration;

    fn sample() -> SampleSet {
        let mut s = SampleSet::new();
        for ns in [250.0, 260.0, 270.0, 280.0, 280.0, 300.0, 350.0] {
            s.push(SimDuration::from_ns_f64(ns));
        }
        s
    }

    #[test]
    fn histogram_shows_stats_line() {
        let out = render_histogram("Fig 7", &sample(), 200.0, 400.0, 8);
        assert!(out.contains("Mean:"));
        assert!(out.contains("Median:"));
        assert!(out.contains("Std.dev:"));
        assert!(out.contains("(n = 7)"));
    }

    #[test]
    fn histogram_has_requested_bins() {
        let out = render_histogram("x", &sample(), 200.0, 400.0, 8);
        assert_eq!(out.lines().count(), 2 + 8);
    }
}
