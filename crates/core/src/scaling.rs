//! Message-size scaling — the introduction's argument, quantified.
//!
//! §1 of the paper: "the latency of sending a large message is driven by
//! the time spent in the network components. Hence, optimizing the
//! software stack for this case would be a futile effort. On the other
//! hand, the time spent in the software stack during the propagation of a
//! small message is a considerable portion of the overall latency." The
//! paper then analyzes the 8-byte point; this module extends the same
//! component model across payload sizes:
//!
//! * the transport switches from PIO+inline to doorbell+DMA beyond the
//!   NIC's inline limit (§2's two paths);
//! * a message up to one MTU is store-and-forward through each stage
//!   (the NIC transmits only once the payload is fully fetched);
//! * beyond the MTU the message is segmented and the stages *pipeline*,
//!   so the tail latency grows at the slowest stage's byte rate — the
//!   EDR wire (0.08 ns/B) on the calibrated system, which is exactly why
//!   large messages are network-bound.

use crate::calibration::Calibration;
use bband_fabric::MTU;
use bband_nic::{pio_chunks, MAX_INLINE};
use bband_sim::SimDuration;

/// Per-size latency model over the calibrated components.
#[derive(Debug, Clone)]
pub struct ScalingModel {
    calib: Calibration,
    /// DRAM fetch latency for the NIC's payload DMA-read.
    pub dram_fetch: SimDuration,
    /// Streaming (write-combined) RC byte rate for bulk payloads; the
    /// calibrated `RcToMemModel::per_byte` is a small-write latency slope,
    /// not a bandwidth — bulk DMA writes stream near DDR4 bandwidth.
    pub rc_bulk_ns_per_byte: f64,
    /// Small-write region where the calibrated slope applies.
    pub rc_small_limit: u32,
}

impl ScalingModel {
    /// Model over a calibration with ConnectX-class defaults.
    pub fn new(calib: Calibration) -> Self {
        ScalingModel {
            calib,
            dram_fetch: SimDuration::from_ns_f64(90.0),
            rc_bulk_ns_per_byte: 0.05, // ~20 GB/s streaming DDR4 writes
            rc_small_limit: 512,
        }
    }

    fn ns(&self, d: SimDuration) -> f64 {
        d.as_ns_f64()
    }

    /// CPU-side `LLP_post` for `x` bytes (ns).
    pub fn llp_post_ns(&self, x: u32) -> f64 {
        if x <= MAX_INLINE {
            self.ns(self.calib.llp.post_mean(pio_chunks(x, true)))
        } else {
            // Doorbell path: descriptor written to memory, one 8-byte MMIO
            // ring; the PIO-copy phase is not paid.
            self.ns(self.calib.llp.post_mean(1)) - self.ns(self.calib.llp.pio_copy_per_chunk)
        }
    }

    /// RC write time for `x` bytes (ns): calibrated small-write slope up
    /// to `rc_small_limit`, streaming rate beyond.
    fn rc_write_ns(&self, x: u32) -> f64 {
        let rc = &self.calib.rc_to_mem;
        let base = self.ns(rc.base);
        let slope = self.ns(rc.per_byte);
        if x <= self.rc_small_limit {
            base + x as f64 * slope
        } else {
            base + self.rc_small_limit as f64 * slope
                + (x - self.rc_small_limit) as f64 * self.rc_bulk_ns_per_byte
        }
    }

    /// TX-side I/O time for one `x`-byte segment (ns).
    fn tx_io_ns(&self, x: u32) -> f64 {
        let base = self.ns(self.calib.link.base);
        let pb = self.ns(self.calib.link.per_byte);
        if x <= MAX_INLINE {
            // PIO chunks pipeline on the link: first traversal plus one
            // serialization per chunk.
            base + pio_chunks(x, true) as f64 * 88.0 * pb
        } else {
            // Doorbell MWr, then descriptor and payload DMA-read round
            // trips ("The DMA-reads translate to round-trip PCIe
            // latencies which are expensive", §2).
            let doorbell = base + 32.0 * pb;
            let desc_rt = (base + 24.0 * pb) + self.ns(self.dram_fetch) + (base + 88.0 * pb);
            let payload_rt =
                (base + 24.0 * pb) + self.ns(self.dram_fetch) + (base + (24.0 + x as f64) * pb);
            doorbell + desc_rt + payload_rt
        }
    }

    /// Network time for `x` application bytes (ns), including per-segment
    /// IB headers.
    pub fn network_ns(&self, x: u32) -> f64 {
        let wire = &self.calib.network.wire;
        let segments = x.div_ceil(MTU).max(1) as f64;
        let bytes = x as f64 + 30.0 * segments;
        self.ns(wire.base)
            + self.ns(wire.fec)
            + bytes * self.ns(wire.per_byte)
            + self.ns(self.calib.network.switch.base)
    }

    /// RX-side I/O for one `x`-byte segment (ns). Small deliveries ride a
    /// 64-byte inline-CQE write, so the TLP never shrinks below 64 B of
    /// payload.
    fn rx_io_ns(&self, x: u32) -> f64 {
        let base = self.ns(self.calib.link.base);
        let pb = self.ns(self.calib.link.per_byte);
        base + (24.0 + x.max(64) as f64) * pb + self.rc_write_ns(x)
    }

    /// Total UCT-level latency for `x` bytes (ns): store-and-forward up to
    /// one MTU; beyond that the tail pipelines at the slowest stage rate.
    pub fn latency_ns(&self, x: u32) -> f64 {
        let head = x.min(MTU);
        let store_forward = self.llp_post_ns(x)
            + self.tx_io_ns(head)
            + self.network_ns(head)
            + self.rx_io_ns(head)
            + self.ns(self.calib.llp_prog());
        if x <= MTU {
            store_forward
        } else {
            let tail_bytes = (x - MTU) as f64;
            let bottleneck = self
                .ns(self.calib.network.wire.per_byte)
                .max(self.ns(self.calib.link.per_byte))
                .max(self.rc_bulk_ns_per_byte);
            store_forward + tail_bytes * bottleneck
        }
    }

    /// Fraction of the latency attributable to the network: its fixed
    /// terms plus its full serialization of `x` bytes.
    pub fn network_share(&self, x: u32) -> f64 {
        let wire = &self.calib.network.wire;
        let segments = x.div_ceil(MTU).max(1) as f64;
        let network = self.ns(wire.base)
            + self.ns(wire.fec)
            + (x as f64 + 30.0 * segments) * self.ns(wire.per_byte)
            + self.ns(self.calib.network.switch.base);
        network / self.latency_ns(x)
    }

    /// Smallest power-of-two payload at which the network share reaches
    /// `threshold` (doublings up to 16 MiB).
    pub fn crossover_size(&self, threshold: f64) -> Option<u32> {
        let mut x = 8u32;
        while x <= 16 * 1024 * 1024 {
            if self.network_share(x) >= threshold {
                return Some(x);
            }
            x = x.saturating_mul(2);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ScalingModel {
        ScalingModel::new(Calibration::default())
    }

    #[test]
    fn eight_byte_point_matches_llp_latency_model() {
        let m = model();
        let got = m.latency_ns(8);
        assert!(
            (got - 1135.8).abs() < 0.1,
            "8-byte scaling point {got} vs LLP model 1135.8"
        );
    }

    #[test]
    fn latency_is_monotone_in_size() {
        let m = model();
        let mut prev = 0.0;
        for x in [8u32, 32, 128, 256, 512, 4096, 65536, 1 << 20] {
            let l = m.latency_ns(x);
            assert!(l > prev, "latency not monotone at {x}: {l} <= {prev}");
            prev = l;
        }
    }

    #[test]
    fn inline_to_dma_transition_pays_round_trips() {
        let m = model();
        let below = m.latency_ns(MAX_INLINE);
        let above = m.latency_ns(MAX_INLINE + 1);
        // Two extra PCIe round trips + DRAM fetches, minus the saved PIO
        // chunks: a visible step.
        assert!(
            above - below > 150.0,
            "DMA transition step too small: {below} -> {above}"
        );
    }

    #[test]
    fn small_messages_are_node_bound_large_are_network_bound() {
        // §1's motivation. At 8 bytes the network is ~a third of the
        // UCT-level latency (27.6% of the end-to-end one); at a megabyte
        // it dominates outright.
        let m = model();
        assert!(m.network_share(8) < 0.35, "{}", m.network_share(8));
        assert!(
            m.network_share(1 << 20) > 0.7,
            "{}",
            m.network_share(1 << 20)
        );
    }

    #[test]
    fn crossover_is_in_the_kilobyte_range() {
        // EDR serialization (0.08 ns/B) against ~1.6 µs of fixed node-side
        // DMA-path time puts the 50% crossover in the tens of kilobytes.
        let m = model();
        let x = m.crossover_size(0.5).expect("crossover exists");
        assert!(
            (4_096..=131_072).contains(&x),
            "network-majority crossover at {x} bytes"
        );
    }

    #[test]
    fn network_share_is_monotone_beyond_inline_limit() {
        let m = model();
        let mut prev = 0.0;
        for x in [512u32, 1024, 4096, 16384, 65536, 1 << 18] {
            let s = m.network_share(x);
            assert!(s >= prev, "network share dipped at {x}: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn faster_wire_removes_the_network_bound_regime() {
        // With a 4x-bandwidth wire (0.02 ns/B), the PCIe link (0.064 ns/B)
        // becomes the pipeline bottleneck and the network share asymptotes
        // below 50%: the network-majority crossover disappears entirely —
        // the flip side of §1's argument.
        let m = model();
        assert!(m.crossover_size(0.5).is_some(), "EDR baseline crosses");
        let mut fast = Calibration::default();
        fast.network.wire.per_byte = SimDuration::from_ps(20);
        let mf = ScalingModel::new(fast);
        assert!(
            mf.crossover_size(0.5).is_none(),
            "a fast-enough wire can never be the majority of latency"
        );
        // A modestly faster wire (25% better) just moves the crossover up.
        let mut modest = Calibration::default();
        modest.network.wire.per_byte = SimDuration::from_ps(70);
        let mm = ScalingModel::new(modest);
        assert!(
            mm.crossover_size(0.5).unwrap() >= m.crossover_size(0.5).unwrap(),
            "a modestly faster wire pushes the crossover to larger sizes"
        );
    }

    #[test]
    fn pam4_fec_crossover_behaviour() {
        // §7.2's trade: FEC hurts small messages but doubles bandwidth, so
        // at large sizes the FEC link wins.
        let edr = model();
        let pam = ScalingModel::new(crate::profiles::pam4_fec_interconnect());
        assert!(pam.latency_ns(8) > edr.latency_ns(8));
        assert!(pam.latency_ns(1 << 20) < edr.latency_ns(1 << 20));
    }
}
