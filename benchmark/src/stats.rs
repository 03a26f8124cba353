//! Order statistics, the percentile rule, seed derivation and the FNV-1a
//! digest the output oracle folds simulated results into.

/// FNV-1a, 64-bit, over the bytes fed to it in order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Floats enter bit-exactly: a result that changes in its last bit
    /// changes the digest.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.bytes(&[v as u8])
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The seed of sample `index` of `workload`: the run seed XOR a hash of
/// the workload name and the index. The simulator sees only this value.
pub fn sample_seed(seed: u64, workload: &str, index: u64) -> u64 {
    seed ^ Fnv::default().str(workload).u64(index).finish()
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `sorted`, which must be sorted ascending and non-empty.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The percentiles the benchmark reports tails at, lowest first.
const TAILS: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`TAILS`] with at least ten of `n` samples
/// beyond it, if any.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from the same values elsewhere. Needs two values.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail(9), None);
        assert_eq!(highest_tail(20), Some(50.0));
        assert_eq!(highest_tail(99), Some(50.0));
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(999), Some(90.0));
        assert_eq!(highest_tail(1_000), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[1.0, 2.0, 7.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn seed_derivation_is_deterministic_and_spreads() {
        assert_eq!(
            sample_seed(1, "engine_faulty", 7),
            sample_seed(1, "engine_faulty", 7)
        );
        assert_ne!(
            sample_seed(1, "engine_faulty", 7),
            sample_seed(1, "engine_faulty", 8)
        );
        assert_ne!(
            sample_seed(1, "engine_faulty", 7),
            sample_seed(1, "engine_sized", 7)
        );
        assert_ne!(
            sample_seed(1, "engine_faulty", 7),
            sample_seed(2, "engine_faulty", 7)
        );
        // FNV-1a reference value: the empty input hashes to the offset basis.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
