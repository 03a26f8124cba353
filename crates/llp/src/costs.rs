//! Calibrated LLP cost model (Table 1 of the paper).

use bband_memsys::{Barrier, BarrierModel, MemoryType, WriteCostModel};
use bband_sim::{Jitter, NoiseSpike, SimDuration};

/// The instrumentable phases of an `LLP_post`, §4.1 / Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Control-segment write + inline memcpy.
    MdSetup,
    /// `dmb st` ordering the descriptor.
    BarrierMd,
    /// DoorBell-counter increment + its `dmb st`.
    BarrierDbc,
    /// The PIO copy into Device-GRE memory.
    PioCopy,
    /// Function-call overhead, branch decisions, etc.
    Misc,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 5] = [
        Phase::MdSetup,
        Phase::BarrierMd,
        Phase::BarrierDbc,
        Phase::PioCopy,
        Phase::Misc,
    ];

    /// Region name used by the profiler.
    pub fn region_name(self) -> &'static str {
        match self {
            Phase::MdSetup => "llp_post.md_setup",
            Phase::BarrierMd => "llp_post.barrier_md",
            Phase::BarrierDbc => "llp_post.barrier_dbc",
            Phase::PioCopy => "llp_post.pio_copy",
            Phase::Misc => "llp_post.misc",
        }
    }
}

/// Calibrated costs for the LLP on one microarchitecture.
#[derive(Debug, Clone, PartialEq)]
pub struct LlpCosts {
    /// Descriptor control-segment write + inline payload memcpy.
    pub md_setup: SimDuration,
    /// Barrier ordering the descriptor stores.
    pub barrier_md: SimDuration,
    /// DoorBell-counter update + barrier.
    pub barrier_dbc: SimDuration,
    /// One 64-byte PIO chunk into device memory.
    pub pio_copy_per_chunk: SimDuration,
    /// `dsb st` after the PIO copy (zero on TX2).
    pub pio_flush: SimDuration,
    /// Function call/branching overhead of a post.
    pub post_misc: SimDuration,
    /// One progress call (CQ poll): load barrier + CQE read + bookkeeping.
    pub prog: SimDuration,
    /// A post attempt that fails because the ring is full.
    pub busy_post: SimDuration,
    /// Jitter applied to each CPU-side phase.
    pub jitter: Jitter,
    /// Rare OS-noise spikes added to post boundaries.
    pub noise: NoiseSpike,
}

impl LlpCosts {
    /// ThunderX2 + ConnectX-4 calibration, assembled from the lower-level
    /// models so a what-if change to a barrier or to the Device-memory
    /// write cost propagates here.
    pub fn thunderx2(barriers: &BarrierModel, writes: &WriteCostModel) -> Self {
        LlpCosts {
            md_setup: SimDuration::from_ns_f64(27.78),
            barrier_md: barriers.cost(Barrier::StoreForDescriptor),
            barrier_dbc: barriers.cost(Barrier::StoreForDoorbell),
            pio_copy_per_chunk: writes.write_cost(MemoryType::DeviceGre, 64),
            pio_flush: barriers.cost(Barrier::StoreSyncAfterPio),
            post_misc: SimDuration::from_ns_f64(14.99),
            prog: SimDuration::from_ns_f64(61.63),
            busy_post: SimDuration::from_ns_f64(8.99),
            jitter: Jitter::Cpu,
            noise: NoiseSpike::os_default(),
        }
    }

    /// Calibration with no jitter and no noise (validation runs).
    pub fn deterministic(mut self) -> Self {
        self.jitter = Jitter::Fixed;
        self.noise = NoiseSpike::OFF;
        self
    }

    /// Mean cost of one phase for a single-chunk (8-byte) post.
    pub fn phase_mean(&self, phase: Phase) -> SimDuration {
        match phase {
            Phase::MdSetup => self.md_setup,
            Phase::BarrierMd => self.barrier_md,
            Phase::BarrierDbc => self.barrier_dbc,
            Phase::PioCopy => self.pio_copy_per_chunk + self.pio_flush,
            Phase::Misc => self.post_misc,
        }
    }

    /// Mean total `LLP_post` for a payload needing `chunks` PIO chunks.
    pub fn post_mean(&self, chunks: u32) -> SimDuration {
        self.md_setup
            + self.barrier_md
            + self.barrier_dbc
            + self.pio_copy_per_chunk * chunks as u64
            + self.pio_flush
            + self.post_misc
    }

    /// Scale one phase by `factor` (the what-if engine's hook).
    pub fn scale_phase(&mut self, phase: Phase, factor: f64) {
        match phase {
            Phase::MdSetup => self.md_setup = self.md_setup.scale(factor),
            Phase::BarrierMd => self.barrier_md = self.barrier_md.scale(factor),
            Phase::BarrierDbc => self.barrier_dbc = self.barrier_dbc.scale(factor),
            Phase::PioCopy => {
                self.pio_copy_per_chunk = self.pio_copy_per_chunk.scale(factor);
                self.pio_flush = self.pio_flush.scale(factor);
            }
            Phase::Misc => self.post_misc = self.post_misc.scale(factor),
        }
    }
}

impl Default for LlpCosts {
    fn default() -> Self {
        LlpCosts::thunderx2(&BarrierModel::default(), &WriteCostModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_total_matches_table1() {
        let c = LlpCosts::default();
        // 27.78 + 17.33 + 21.07 + 94.25 + 14.99 = 175.42 ns
        assert!(
            (c.post_mean(1).as_ns_f64() - 175.42).abs() < 0.001,
            "LLP_post = {}",
            c.post_mean(1)
        );
    }

    #[test]
    fn phase_shares_match_figure4() {
        // Figure 4: MD 15.84%, MD barrier 9.88%, DBC barrier 12.01%,
        // PIO 53.79%, other 8.49%.
        let c = LlpCosts::default();
        let total = c.post_mean(1).as_ns_f64();
        let share = |p: Phase| c.phase_mean(p).as_ns_f64() / total * 100.0;
        assert!((share(Phase::MdSetup) - 15.84).abs() < 0.1);
        assert!((share(Phase::BarrierMd) - 9.88).abs() < 0.1);
        assert!((share(Phase::BarrierDbc) - 12.01).abs() < 0.1);
        assert!((share(Phase::PioCopy) - 53.79).abs() < 0.1);
        assert!((share(Phase::Misc) - 8.49).abs() < 0.1);
    }

    #[test]
    fn prog_and_busy_match_table1() {
        let c = LlpCosts::default();
        assert!((c.prog.as_ns_f64() - 61.63).abs() < 1e-9);
        assert!((c.busy_post.as_ns_f64() - 8.99).abs() < 1e-9);
    }

    #[test]
    fn multi_chunk_posts_pay_per_chunk_pio() {
        let c = LlpCosts::default();
        let one = c.post_mean(1).as_ns_f64();
        let three = c.post_mean(3).as_ns_f64();
        assert!((three - one - 2.0 * 94.25).abs() < 0.001);
    }

    #[test]
    fn scaling_a_phase_only_touches_it() {
        let mut c = LlpCosts::default().deterministic();
        c.scale_phase(Phase::PioCopy, 0.16); // §7.1: PIO down to ~15 ns
        assert!((c.phase_mean(Phase::PioCopy).as_ns_f64() - 94.25 * 0.16).abs() < 0.01);
        assert!((c.phase_mean(Phase::MdSetup).as_ns_f64() - 27.78).abs() < 1e-9);
        // Total drops by exactly the PIO saving.
        assert!((c.post_mean(1).as_ns_f64() - (175.42 - 94.25 * 0.84)).abs() < 0.01);
    }

    #[test]
    fn faster_memory_model_shrinks_pio_phase() {
        // What-if: writes to Device memory as fast as Normal memory.
        let barriers = BarrierModel::default();
        let mut writes = WriteCostModel::default();
        writes.device_gre_per_chunk = writes.normal_per_chunk;
        let c = LlpCosts::thunderx2(&barriers, &writes);
        assert!(c.phase_mean(Phase::PioCopy).as_ns_f64() < 1.0);
    }
}
