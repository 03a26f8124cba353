//! ARMv8-A memory types and the write-cost model.
//!
//! The paper's §4.1 notes that the PIO copy targets *Device-GRE* memory
//! (Gathering, Reordering, Early-write-acknowledgement permitted) — an
//! uncached, buffered region supporting out-of-order writes — and its §7.1
//! observes that a 64-byte write to Device memory costs 94.25 ns while the
//! same write to Normal (cacheable) memory costs under a nanosecond, a >90%
//! gap the authors flag as an optimization opportunity.

use bband_sim::SimDuration;

/// ARMv8-A memory attribute for a mapped range.
///
/// The two types the paper measures (see Arm DDI 0487, "Memory types and
/// attributes"); the simulation distinguishes them by write cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryType {
    /// Cacheable normal memory: regular heap/stack buffers.
    Normal,
    /// Device, Gathering + Reordering + Early-ack. Used for the NIC's
    /// memory-mapped doorbell/BlueFlame pages on the measured system.
    DeviceGre,
}

/// Calibrated CPU-side cost of writing `len` bytes to memory of a given
/// type. Costs are per-chunk linear: `ceil(len/64) * per_chunk`.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteCostModel {
    /// Cost of one 64-byte store burst to Normal memory. A regular 64-byte
    /// memcpy takes "less than a nanosecond" on the TX2 (§7.1).
    pub normal_per_chunk: SimDuration,
    /// Cost of one 64-byte store burst to Device-GRE memory: the PIO copy,
    /// 94.25 ns (Table 1).
    pub device_gre_per_chunk: SimDuration,
}

impl Default for WriteCostModel {
    fn default() -> Self {
        WriteCostModel {
            normal_per_chunk: SimDuration::from_ns_f64(0.9),
            device_gre_per_chunk: SimDuration::from_ns_f64(94.25),
        }
    }
}

impl WriteCostModel {
    /// Number of 64-byte chunks needed for `len` bytes (Mellanox PIO writes
    /// in 64-byte BlueFlame chunks; a smaller payload still costs a chunk).
    pub fn chunks(len: usize) -> u64 {
        (len.max(1) as u64).div_ceil(64)
    }

    /// CPU cost of writing `len` bytes to memory of type `ty`.
    pub fn write_cost(&self, ty: MemoryType, len: usize) -> SimDuration {
        let chunks = Self::chunks(len);
        match ty {
            MemoryType::Normal => self.normal_per_chunk * chunks,
            MemoryType::DeviceGre => self.device_gre_per_chunk * chunks,
        }
    }

    /// The relative gap between Device-GRE and Normal writes, as a fraction
    /// of the Device-GRE cost. The paper reports this is "more than 90%".
    pub fn device_penalty(&self) -> f64 {
        let dev = self.device_gre_per_chunk.as_ns_f64();
        let norm = self.normal_per_chunk.as_ns_f64();
        (dev - norm) / dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_rounding() {
        assert_eq!(WriteCostModel::chunks(0), 1);
        assert_eq!(WriteCostModel::chunks(1), 1);
        assert_eq!(WriteCostModel::chunks(8), 1);
        assert_eq!(WriteCostModel::chunks(64), 1);
        assert_eq!(WriteCostModel::chunks(65), 2);
        assert_eq!(WriteCostModel::chunks(128), 2);
        assert_eq!(WriteCostModel::chunks(129), 3);
    }

    #[test]
    fn pio_copy_matches_table1() {
        let m = WriteCostModel::default();
        // An 8-byte inline message is one 64-byte BlueFlame chunk: 94.25 ns.
        assert_eq!(
            m.write_cost(MemoryType::DeviceGre, 8),
            SimDuration::from_ns_f64(94.25)
        );
    }

    #[test]
    fn device_penalty_exceeds_90_percent() {
        // §7.1: "the current difference between 64-byte writes to Normal and
        // Device memory is more than 90%".
        assert!(WriteCostModel::default().device_penalty() > 0.90);
    }

    #[test]
    fn normal_memory_is_subnanosecond() {
        let m = WriteCostModel::default();
        assert!(m.write_cost(MemoryType::Normal, 64).as_ns_f64() < 1.0);
    }

    #[test]
    fn multi_chunk_writes_scale_linearly() {
        let m = WriteCostModel::default();
        let one = m.write_cost(MemoryType::DeviceGre, 64);
        let four = m.write_cost(MemoryType::DeviceGre, 256);
        assert_eq!(four, one * 4);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn write_cost_monotone_in_length(a in 1usize..1<<16, b in 1usize..1<<16) {
                let m = WriteCostModel::default();
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                for ty in [MemoryType::Normal, MemoryType::DeviceGre] {
                    prop_assert!(m.write_cost(ty, lo) <= m.write_cost(ty, hi));
                }
            }

            #[test]
            fn device_always_costs_at_least_normal(len in 1usize..1<<16) {
                let m = WriteCostModel::default();
                prop_assert!(
                    m.write_cost(MemoryType::DeviceGre, len)
                        >= m.write_cost(MemoryType::Normal, len)
                );
            }
        }
    }
}
