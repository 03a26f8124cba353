//! The PCIe wire between root complex and NIC, and the analyzer tap.
//!
//! The paper measures `PCIe` — "payload traversing PCIe between RC and NIC"
//! — as 137.49 ns one-way for a 64-byte TLP (§4.3, "Measuring PCIe"), by
//! halving the round-trip between a NIC-initiated MWr and its ACK DLLP on
//! the Lecroy trace. We model one-way latency as a fixed pipeline term plus
//! serialization at the link rate, calibrated so the 64-byte point lands on
//! 137.49 ns exactly.

use crate::tlp::{Dllp, Tlp, DLLP_WIRE_BYTES};
use bband_sim::{Jitter, Pcg64, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Direction of travel on the link, from the analyzer's point of view
/// (the analyzer sits just before the NIC on node 1, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkDirection {
    /// RC → NIC ("downstream" in the paper's Figure 6 filter).
    Downstream,
    /// NIC → RC ("upstream").
    Upstream,
}

/// A passive observer of everything crossing the link: the simulation
/// counterpart of the Lecroy analyzer. Implementations must not influence
/// the simulation — the trait only receives shared references and there is
/// no way to mutate link state through it.
pub trait LinkTap {
    /// A TLP passed the tap point at `at`.
    fn on_tlp(&mut self, at: SimTime, dir: LinkDirection, tlp: &Tlp);
    /// A DLLP passed the tap point at `at`.
    fn on_dllp(&mut self, at: SimTime, dir: LinkDirection, dllp: &Dllp);
}

/// A tap that records nothing (the "analyzer unplugged" configuration; the
/// paper checked performance was identical with and without the analyzer).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTap;

impl LinkTap for NullTap {
    fn on_tlp(&mut self, _: SimTime, _: LinkDirection, _: &Tlp) {}
    fn on_dllp(&mut self, _: SimTime, _: LinkDirection, _: &Dllp) {}
}

/// One-way latency model for the RC↔NIC link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Fixed pipeline latency: PHY (de)serialization stages, data-link
    /// processing, replay-buffer insertion.
    pub base: SimDuration,
    /// Serialization time per byte at the negotiated link rate.
    /// Gen3 x16 ≈ 15.75 GB/s ⇒ ≈ 0.0635 ns/B.
    pub per_byte: SimDuration,
    /// Jitter applied per traversal.
    pub jitter: Jitter,
}

impl Default for LinkModel {
    /// Calibrated to the paper: a 64-byte-payload TLP (88 wire bytes with
    /// framing) takes exactly 137.49 ns one-way.
    fn default() -> Self {
        let per_byte = SimDuration::from_ps(64); // 0.064 ns/B ≈ Gen3 x16
        let wire_bytes_64 = 64 + crate::tlp::TLP_OVERHEAD_BYTES as u64;
        let base = SimDuration::from_ns_f64(137.49) - SimDuration::from_ps(64 * wire_bytes_64);
        LinkModel {
            base,
            per_byte,
            jitter: Jitter::Hw,
        }
    }
}

impl LinkModel {
    /// Deterministic (jitter-free) copy for validation runs.
    pub fn deterministic(mut self) -> Self {
        self.jitter = Jitter::Fixed;
        self
    }

    /// Mean one-way latency for a TLP (what the analytical model uses).
    pub fn tlp_latency_mean(&self, tlp: &Tlp) -> SimDuration {
        self.base + self.per_byte * tlp.wire_bytes() as u64
    }

    /// Sampled one-way latency for a TLP traversal.
    pub fn tlp_latency(&self, tlp: &Tlp, rng: &mut Pcg64) -> SimDuration {
        self.jitter.sample(self.tlp_latency_mean(tlp), rng)
    }

    /// Mean one-way latency for a DLLP.
    pub fn dllp_latency_mean(&self) -> SimDuration {
        self.base + self.per_byte * DLLP_WIRE_BYTES as u64
    }

    /// Sampled one-way latency for a DLLP traversal.
    pub fn dllp_latency(&self, rng: &mut Pcg64) -> SimDuration {
        self.jitter.sample(self.dllp_latency_mean(), rng)
    }

    /// The paper's `PCIe` figure: one-way latency of a 64-byte-payload TLP.
    pub fn pcie_64b(&self) -> SimDuration {
        let probe = Tlp::pio_chunk(crate::tlp::TlpId(u64::MAX));
        self.tlp_latency_mean(&probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlp::{TlpId, TlpIdGen};

    #[test]
    fn calibration_hits_137_49ns_for_64b() {
        let link = LinkModel::default();
        assert!(
            (link.pcie_64b().as_ns_f64() - 137.49).abs() < 0.001,
            "PCIe(64B) = {}",
            link.pcie_64b()
        );
    }

    #[test]
    fn larger_tlps_take_longer() {
        let link = LinkModel::default();
        let mut g = TlpIdGen::new();
        let small = Tlp::doorbell(g.next());
        let big = Tlp::payload_deliver(g.next(), 4096);
        assert!(link.tlp_latency_mean(&big) > link.tlp_latency_mean(&small));
    }

    #[test]
    fn dllp_is_cheapest_traversal() {
        let link = LinkModel::default();
        let mut g = TlpIdGen::new();
        assert!(link.dllp_latency_mean() < link.tlp_latency_mean(&Tlp::doorbell(g.next())));
    }

    #[test]
    fn deterministic_link_has_no_spread() {
        let link = LinkModel::default().deterministic();
        let mut rng = Pcg64::new(3);
        let tlp = Tlp::pio_chunk(TlpId(0));
        let first = link.tlp_latency(&tlp, &mut rng);
        for _ in 0..100 {
            assert_eq!(link.tlp_latency(&tlp, &mut rng), first);
        }
    }

    #[test]
    fn jittered_link_means_stay_calibrated() {
        let link = LinkModel::default();
        let mut rng = Pcg64::new(8);
        let tlp = Tlp::pio_chunk(TlpId(0));
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| link.tlp_latency(&tlp, &mut rng).as_ns_f64())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 137.49).abs() / 137.49 < 0.01,
            "jittered mean drifted: {mean}"
        );
    }

    #[test]
    fn null_tap_is_inert() {
        let mut tap = NullTap;
        let tlp = Tlp::pio_chunk(TlpId(0));
        tap.on_tlp(SimTime::ZERO, LinkDirection::Downstream, &tlp);
        tap.on_dllp(
            SimTime::ZERO,
            LinkDirection::Upstream,
            &Dllp::Ack { up_to: TlpId(0) },
        );
    }
}
