//! RC-to-MEM: the root complex writing a payload into host memory.
//!
//! When an inbound MWr TLP reaches the root complex, the RC performs the
//! actual memory write on behalf of the NIC. The paper measures
//! `RC-to-MEM(8B)` = 240.96 ns on the target ThunderX2 (Table 1, §4.3) via
//! the pong-ping delta on the PCIe trace, and uses `RC-to-MEM(64B)` inside
//! `gen_completion` (the 64-byte InfiniBand CQE write).
//!
//! Only the 8-byte point is published, so we model the size dependence as
//! `base + len * per_byte`, with `per_byte` derived from sustained DDR4
//! write bandwidth and `base` solved from the 8-byte point (see DESIGN.md
//! §7). At 64 B it enters the `p` lower-bound check. It also sets the
//! large-message RC-to-MEM of `repro sweep-size`: the sized latency model
//! charges [`RcToMemModel::cost`] on every MTU segment, serialized on the
//! RC write port, so at 1 MiB RC-to-MEM is most of the end-to-end latency.

use bband_sim::SimDuration;

/// Linear cost model for RC memory writes.
#[derive(Debug, Clone, PartialEq)]
pub struct RcToMemModel {
    /// Fixed cost: coherence-protocol round trip, write allocation, and the
    /// RC's internal pipeline.
    pub base: SimDuration,
    /// Streaming cost per byte.
    pub per_byte: SimDuration,
}

impl Default for RcToMemModel {
    /// Calibrated so that `cost(8) == 240.96 ns` (Table 1) with a
    /// 0.12 ns/B streaming term (≈ 8.3 GB/s sustained single-stream DDR4
    /// write bandwidth).
    fn default() -> Self {
        let per_byte = SimDuration::from_ns_f64(0.12);
        let base = SimDuration::from_ns_f64(240.96 - 8.0 * 0.12);
        RcToMemModel { base, per_byte }
    }
}

impl RcToMemModel {
    /// Cost of the RC writing `len` bytes to memory.
    pub fn cost(&self, len: usize) -> SimDuration {
        self.base + self.per_byte * len as u64
    }

    /// The paper's `RC-to-MEM(8B)`.
    pub fn eight_byte(&self) -> SimDuration {
        self.cost(8)
    }

    /// The paper's `RC-to-MEM(64B)` (CQE write inside `gen_completion`).
    pub fn cqe_write(&self) -> SimDuration {
        self.cost(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_byte_point_matches_table1() {
        let m = RcToMemModel::default();
        assert!(
            (m.eight_byte().as_ns_f64() - 240.96).abs() < 0.01,
            "RC-to-MEM(8B) = {}",
            m.eight_byte()
        );
    }

    #[test]
    fn cqe_write_is_slightly_larger() {
        let m = RcToMemModel::default();
        let d8 = m.eight_byte().as_ns_f64();
        let d64 = m.cqe_write().as_ns_f64();
        assert!(d64 > d8);
        // 56 extra bytes at 0.12 ns/B
        assert!((d64 - d8 - 56.0 * 0.12).abs() < 0.01);
    }

    #[test]
    fn cost_is_monotone_in_length() {
        let m = RcToMemModel::default();
        let mut prev = SimDuration::ZERO;
        for len in [0usize, 1, 8, 64, 256, 4096] {
            let c = m.cost(len);
            assert!(c >= prev);
            prev = c;
        }
    }
}
