//! The latency models.
//!
//! **LLP-level** (§4.3), measured by `am_lat`:
//!
//! ```text
//! Latency = LLP_post + 2·PCIe + Network + RC-to-MEM(xB) + LLP_prog
//!         = 1135.8 ns for x = 8
//! ```
//!
//! **End-to-end** (§6), measured by the OSU latency test:
//!
//! ```text
//! Latency = HLP_post + LLP_post + 2·PCIe + Network + RC-to-MEM(xB)
//!         + LLP_prog + HLP_rx_prog = 1387.02 ns
//! ```
//!
//! plus the category rollups of Figures 15 (CPU / I/O / Network) and 16
//! (initiator vs target, and their internal splits).

use crate::breakdown::Breakdown;
use crate::calibration::Calibration;
use bband_fabric::{IB_HEADER_BYTES, MTU};
use bband_hlp::rndv::CTRL_BYTES;
use bband_nic::MAX_INLINE;
use bband_sim::SimDuration;

/// Which protocol carries a message of a given size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Payload travels with the send descriptor (copied through a bounce
    /// buffer when it exceeds the inline limit).
    Eager,
    /// RTS/CTS handshake first, then the payload moves without copies.
    Rendezvous,
}

impl Protocol {
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Eager => "eager",
            Protocol::Rendezvous => "rendezvous",
        }
    }
}

/// High-level component category (Figure 15's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    Cpu,
    Io,
    Network,
}

/// The LLP-level latency model.
#[derive(Debug, Clone)]
pub struct LlpLatencyModel {
    pub llp_post: SimDuration,
    pub pcie: SimDuration,
    pub wire: SimDuration,
    pub switch: SimDuration,
    pub rc_to_mem: SimDuration,
    pub llp_prog: SimDuration,
}

impl LlpLatencyModel {
    /// Build for an 8-byte payload.
    pub fn from_calibration(c: &Calibration) -> Self {
        LlpLatencyModel {
            llp_post: c.llp_post(),
            pcie: c.pcie(),
            wire: c.wire(),
            switch: c.switch(),
            rc_to_mem: c.rc_to_mem_8b(),
            llp_prog: c.llp_prog(),
        }
    }

    /// Modeled latency (1135.8 ns).
    pub fn total(&self) -> SimDuration {
        self.llp_post + self.pcie * 2 + self.wire + self.switch + self.rc_to_mem + self.llp_prog
    }

    /// Figure 10's breakdown (the paper's Fig. 10 omits `LLP_prog` from
    /// the percentage bar; we include it as its own labelled slice so the
    /// shares of the other six match when it is excluded).
    pub fn breakdown(&self) -> Breakdown {
        Breakdown::new("Latency with the LLP (Fig. 10)")
            .with("LLP_post", self.llp_post)
            .with("TX PCIe", self.pcie)
            .with("Wire", self.wire)
            .with("Switch", self.switch)
            .with("RX PCIe", self.pcie)
            .with("RC-to-MEM(8B)", self.rc_to_mem)
    }
}

/// The end-to-end latency model.
#[derive(Debug, Clone)]
pub struct EndToEndLatencyModel {
    pub hlp_post: SimDuration,
    pub llp: LlpLatencyModel,
    pub hlp_rx_prog: SimDuration,
}

impl EndToEndLatencyModel {
    /// Build for an 8-byte payload.
    pub fn from_calibration(c: &Calibration) -> Self {
        EndToEndLatencyModel {
            hlp_post: c.hlp_post(),
            llp: LlpLatencyModel::from_calibration(c),
            hlp_rx_prog: c.hlp_rx_prog(),
        }
    }

    /// Modeled end-to-end latency (1387.02 ns).
    pub fn total(&self) -> SimDuration {
        self.hlp_post + self.llp.total() + self.hlp_rx_prog
    }

    /// Figure 13's nine-component breakdown.
    pub fn breakdown(&self) -> Breakdown {
        Breakdown::new("End-to-end latency (Fig. 13)")
            .with("HLP_post", self.hlp_post)
            .with("LLP_post", self.llp.llp_post)
            .with("TX PCIe", self.llp.pcie)
            .with("Wire", self.llp.wire)
            .with("Switch", self.llp.switch)
            .with("RX PCIe", self.llp.pcie)
            .with("RC-to-MEM(8B)", self.llp.rc_to_mem)
            .with("LLP_prog", self.llp.llp_prog)
            .with("HLP_rx_prog", self.hlp_rx_prog)
    }

    /// Total time in one category.
    pub fn category_total(&self, cat: Category) -> SimDuration {
        match cat {
            Category::Cpu => {
                self.hlp_post + self.llp.llp_post + self.llp.llp_prog + self.hlp_rx_prog
            }
            Category::Io => self.llp.pcie * 2 + self.llp.rc_to_mem,
            Category::Network => self.llp.wire + self.llp.switch,
        }
    }

    /// Figure 15's top-level split.
    pub fn category_breakdown(&self) -> Breakdown {
        Breakdown::new("End-to-end latency by category (Fig. 15)")
            .with("Network", self.category_total(Category::Network))
            .with("I/O", self.category_total(Category::Io))
            .with("CPU", self.category_total(Category::Cpu))
    }

    /// Figure 15's per-category sub-splits.
    pub fn category_sub_breakdown(&self, cat: Category) -> Breakdown {
        match cat {
            Category::Cpu => Breakdown::new("CPU split (Fig. 15)")
                .with("LLP", self.llp.llp_post + self.llp.llp_prog)
                .with("HLP", self.hlp_post + self.hlp_rx_prog),
            Category::Io => Breakdown::new("I/O split (Fig. 15)")
                .with("RC-to-MEM", self.llp.rc_to_mem)
                .with("PCIe", self.llp.pcie * 2),
            Category::Network => Breakdown::new("Network split (Fig. 15)")
                .with("Wire", self.llp.wire)
                .with("Switch", self.llp.switch),
        }
    }

    /// Figure 16: time on the initiator node vs the target node (the
    /// on-node portion only — network excluded).
    pub fn on_node_breakdown(&self) -> Breakdown {
        let initiator = self.hlp_post + self.llp.llp_post + self.llp.pcie;
        let target = self.llp.pcie + self.llp.rc_to_mem + self.llp.llp_prog + self.hlp_rx_prog;
        Breakdown::new("On-node time (Fig. 16)")
            .with("Initiator", initiator)
            .with("Target", target)
    }

    /// Figure 16: the initiator's CPU/I-O split.
    pub fn initiator_split(&self) -> Breakdown {
        Breakdown::new("Initiator split (Fig. 16)")
            .with("I/O", self.llp.pcie)
            .with("CPU", self.hlp_post + self.llp.llp_post)
    }

    /// Figure 16: the target's CPU/I-O split.
    pub fn target_split(&self) -> Breakdown {
        Breakdown::new("Target split (Fig. 16)")
            .with("I/O", self.llp.pcie + self.llp.rc_to_mem)
            .with("CPU", self.llp.llp_prog + self.hlp_rx_prog)
    }

    /// Figure 16: the target's I/O split.
    pub fn target_io_split(&self) -> Breakdown {
        Breakdown::new("Target I/O split (Fig. 16)")
            .with("RC-to-MEM", self.llp.rc_to_mem)
            .with("PCIe", self.llp.pcie)
    }
}

/// The payload-size-dependent latency model: the 8-byte end-to-end model
/// generalized along the message-size axis (the paper's put_bw figure).
///
/// Every cost primitive here is *the same integer arithmetic* the fault
/// engine performs, so a zero-fault engine run of any size reproduces
/// `total()` bit-exactly — the per-size analogue of the 1387.02 ns check.
///
/// Size effects modeled:
/// - **PIO inlining** (≤ [`MAX_INLINE`]): the payload rides the
///   descriptor in 64-byte BlueFlame chunks (`LLP_post` grows 94.25 ns per
///   extra chunk, the TX TLP grows 64 B per chunk).
/// - **DMA descriptor path** (> inline): a bounce-buffer copy at
///   `eager_copy_per_byte`, then descriptor fetch (MRd + CplD) and payload
///   fetch (MRd + CplD of the first MTU) before the NIC can transmit.
/// - **MTU segmentation**: payloads split into [`MTU`] segments, each
///   paying IB headers on the wire and its own RX-PCIe and RC-to-MEM legs;
///   segments pipeline (wire serialization spacing) and complete on the
///   final segment.
/// - **Rendezvous**: RTS (16 B control), CTS back, then the same segmented
///   data path — no copies. Min-cost selection crosses over where the
///   handshake amortizes against the eager copy.
#[derive(Debug, Clone)]
pub struct SizedLatencyModel {
    cal: Calibration,
}

impl SizedLatencyModel {
    pub fn from_calibration(c: &Calibration) -> Self {
        SizedLatencyModel { cal: c.clone() }
    }

    /// Number of MTU segments a payload occupies (a zero-byte message still
    /// sends one packet).
    pub fn segments(payload: u32) -> u32 {
        payload.div_ceil(MTU).max(1)
    }

    /// Size of segment `i` of a `payload`-byte message.
    pub fn seg_size(payload: u32, i: u32) -> u32 {
        let segs = Self::segments(payload);
        debug_assert!(i < segs);
        if i + 1 < segs {
            MTU
        } else {
            payload - MTU * (segs - 1)
        }
    }

    /// True when the payload rides inside the PIO descriptor write.
    pub fn is_inline(payload: u32) -> bool {
        payload <= MAX_INLINE
    }

    /// 64-byte PIO chunks of the posted descriptor
    /// ([`bband_nic::pio_chunks`] under the inline rule).
    pub fn pio_chunks(payload: u32) -> u32 {
        bband_nic::pio_chunks(payload, Self::is_inline(payload))
    }

    /// Payload bytes of the TX PIO TLP (64 B per chunk).
    pub fn tx_tlp_payload(payload: u32) -> u32 {
        64 * Self::pio_chunks(payload)
    }

    /// `LLP_post` for this size: the doorbell/BlueFlame copy grows with the
    /// chunk count (§4.3's +94.25 ns per extra chunk).
    pub fn llp_post_for(&self, payload: u32) -> SimDuration {
        self.cal.llp.post_mean(Self::pio_chunks(payload))
    }

    /// Eager bounce-buffer copy (zero when inlined).
    pub fn eager_copy(&self, payload: u32) -> SimDuration {
        if Self::is_inline(payload) {
            SimDuration::ZERO
        } else {
            self.cal.ucp.eager_copy_per_byte * payload as u64
        }
    }

    /// One-way PCIe cost of a TLP carrying `payload` bytes. The paper's
    /// `PCIe` figure is a 64-byte TLP; smaller TLPs occupy the same slot, so
    /// the cost floors at 137.49 ns and grows at the link's per-byte rate.
    pub fn pcie_tlp(&self, payload: u32) -> SimDuration {
        self.cal.pcie() + self.cal.link.per_byte * payload.saturating_sub(64) as u64
    }

    /// One-way wire cost of a packet carrying `payload` bytes: every packet
    /// pays [`IB_HEADER_BYTES`] of headers — once per segment, not once per
    /// message.
    pub fn wire_packet(&self, payload: u32) -> SimDuration {
        let w = &self.cal.network.wire;
        w.base + w.fec + w.per_byte * (payload + IB_HEADER_BYTES) as u64
    }

    /// RC-to-MEM cost of writing `payload` bytes to host memory.
    pub fn rc_to_mem(&self, payload: u32) -> SimDuration {
        self.cal.rc_to_mem.cost(payload as usize)
    }

    /// NIC DMA fetch before a non-inline transmit: descriptor MRd + 16 B
    /// CplD, then payload MRd + CplD of the first MTU (later segments
    /// pipeline behind wire serialization).
    pub fn dma_fetch(&self, payload: u32) -> SimDuration {
        if Self::is_inline(payload) {
            SimDuration::ZERO
        } else {
            self.rndv_data_fetch(payload)
        }
    }

    /// The unconditional fetch cost (rendezvous data is never inline).
    pub fn rndv_data_fetch(&self, payload: u32) -> SimDuration {
        self.pcie_tlp(0) + self.pcie_tlp(16) + self.pcie_tlp(0) + self.pcie_tlp(payload.min(MTU))
    }

    /// Wire-serialization spacing between consecutive MTU segments.
    pub fn seg_spacing(&self) -> SimDuration {
        let rate = self.cal.network.wire.per_byte.max(self.cal.link.per_byte);
        rate * MTU as u64
    }

    /// Segmented delivery pipeline: NIC-ready instant → final segment in
    /// memory → target LLP/HLP progress. Segments share the RX PCIe link and
    /// the RC write port in FIFO order.
    fn delivery(&self, payload: u32, nic_ready: SimDuration) -> SimDuration {
        let spacing = self.seg_spacing();
        let switch = self.cal.switch();
        let mut rx_done = SimDuration::ZERO;
        let mut in_mem = SimDuration::ZERO;
        for i in 0..Self::segments(payload) {
            let s = Self::seg_size(payload, i);
            let arrive = nic_ready + spacing * i as u64 + self.wire_packet(s) + switch;
            rx_done = arrive.max(rx_done) + self.pcie_tlp(s);
            in_mem = rx_done.max(in_mem) + self.rc_to_mem(s);
        }
        in_mem + self.cal.llp_prog() + self.cal.hlp_rx_prog()
    }

    /// Zero-fault eager latency for one `payload`-byte message.
    pub fn eager_total(&self, payload: u32) -> SimDuration {
        let ready = self.cal.hlp_post() + self.eager_copy(payload) + self.llp_post_for(payload);
        let nic = ready + self.pcie_tlp(Self::tx_tlp_payload(payload));
        self.delivery(payload, nic + self.dma_fetch(payload))
    }

    /// Zero-fault rendezvous latency: RTS out, CTS back, then the
    /// descriptor-posted segmented data phase.
    pub fn rndv_total(&self, payload: u32) -> SimDuration {
        let rts_ready = self.cal.hlp_post() + self.cal.llp_post();
        let rts_nic = rts_ready + self.pcie_tlp(64);
        let rts_arrive = rts_nic + self.wire_packet(CTRL_BYTES) + self.cal.switch();
        let cts_arrive = rts_arrive + self.cal.network_total();
        let data_nic = cts_arrive + self.cal.llp_post() + self.pcie_tlp(64);
        self.delivery(payload, data_nic + self.rndv_data_fetch(payload))
    }

    /// Protocol choice: min-cost when `threshold` is `None`, otherwise the
    /// classic "rendezvous at or above the threshold" rule.
    pub fn select(&self, payload: u32, threshold: Option<u32>) -> Protocol {
        match threshold {
            Some(t) => {
                if payload >= t {
                    Protocol::Rendezvous
                } else {
                    Protocol::Eager
                }
            }
            None => {
                if self.rndv_total(payload) < self.eager_total(payload) {
                    Protocol::Rendezvous
                } else {
                    Protocol::Eager
                }
            }
        }
    }

    /// Latency under the selected protocol.
    pub fn total(&self, payload: u32, threshold: Option<u32>) -> SimDuration {
        match self.select(payload, threshold) {
            Protocol::Eager => self.eager_total(payload),
            Protocol::Rendezvous => self.rndv_total(payload),
        }
    }

    /// Smallest payload at which min-cost selection switches to rendezvous.
    pub fn crossover(&self) -> u32 {
        let (mut lo, mut hi) = (1u32, 1 << 22);
        debug_assert!(matches!(self.select(hi, None), Protocol::Rendezvous));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if matches!(self.select(mid, None), Protocol::Rendezvous) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2e() -> EndToEndLatencyModel {
        EndToEndLatencyModel::from_calibration(&Calibration::default())
    }

    #[test]
    fn llp_latency_totals_1135_8() {
        let m = LlpLatencyModel::from_calibration(&Calibration::default());
        assert!(
            (m.total().as_ns_f64() - 1135.8).abs() < 0.05,
            "{}",
            m.total()
        );
    }

    #[test]
    fn fig10_percentages() {
        // Figure 10 (excludes LLP_prog): LLP_post 16.33%, TX PCIe 12.80%,
        // Wire 25.58%, Switch 10.05%, RX PCIe 12.80%, RC-to-MEM 22.43%.
        let m = LlpLatencyModel::from_calibration(&Calibration::default());
        let b = m.breakdown();
        assert!((b.pct("LLP_post").unwrap() - 16.33).abs() < 0.05);
        assert!((b.pct("Wire").unwrap() - 25.58).abs() < 0.05);
        assert!((b.pct("Switch").unwrap() - 10.05).abs() < 0.05);
        assert!((b.pct("RC-to-MEM(8B)").unwrap() - 22.43).abs() < 0.05);
    }

    #[test]
    fn e2e_latency_totals_1387_02() {
        assert!((e2e().total().as_ns_f64() - 1387.02).abs() < 0.05);
    }

    #[test]
    fn fig13_percentages() {
        // Figure 13: HLP_post 1.91%, LLP_post 12.65%, TX PCIe 9.91%,
        // Wire 19.81%, Switch 7.79%, RX PCIe 9.91%, RC-to-MEM 17.37%,
        // LLP_prog 4.44%, HLP_rx_prog 16.20%.
        let b = e2e().breakdown();
        assert_eq!(b.len(), 9);
        for (name, expect) in [
            ("HLP_post", 1.91),
            ("LLP_post", 12.65),
            ("TX PCIe", 9.91),
            ("Wire", 19.81),
            ("Switch", 7.79),
            ("RC-to-MEM(8B)", 17.37),
            ("LLP_prog", 4.44),
            ("HLP_rx_prog", 16.20),
        ] {
            let got = b.pct(name).unwrap();
            assert!((got - expect).abs() < 0.05, "{name}: {got} vs {expect}");
        }
    }

    #[test]
    fn fig15_category_shares() {
        // Figure 15: Network 27.60%, I/O 37.20%, CPU 35.20%.
        let b = e2e().category_breakdown();
        assert!((b.pct("Network").unwrap() - 27.60).abs() < 0.05);
        assert!((b.pct("I/O").unwrap() - 37.20).abs() < 0.05);
        assert!((b.pct("CPU").unwrap() - 35.20).abs() < 0.05);
    }

    #[test]
    fn fig15_sub_splits() {
        let m = e2e();
        let cpu = m.category_sub_breakdown(Category::Cpu);
        assert!((cpu.pct("LLP").unwrap() - 48.55).abs() < 0.1);
        assert!((cpu.pct("HLP").unwrap() - 51.45).abs() < 0.1);
        let io = m.category_sub_breakdown(Category::Io);
        assert!((io.pct("RC-to-MEM").unwrap() - 46.70).abs() < 0.1);
        assert!((io.pct("PCIe").unwrap() - 53.30).abs() < 0.1);
        let net = m.category_sub_breakdown(Category::Network);
        assert!((net.pct("Wire").unwrap() - 71.79).abs() < 0.1);
        assert!((net.pct("Switch").unwrap() - 28.21).abs() < 0.1);
    }

    #[test]
    fn fig16_on_node_shares() {
        // Figure 16: Initiator 33.80%, Target 66.20%; initiator I/O 40.50%;
        // target I/O 56.93%; target-I/O RC-to-MEM 63.67%.
        let m = e2e();
        let on = m.on_node_breakdown();
        assert!((on.pct("Initiator").unwrap() - 33.80).abs() < 0.05);
        assert!((on.pct("Target").unwrap() - 66.20).abs() < 0.05);
        assert!((m.initiator_split().pct("I/O").unwrap() - 40.50).abs() < 0.05);
        assert!((m.target_split().pct("I/O").unwrap() - 56.93).abs() < 0.05);
        assert!((m.target_io_split().pct("RC-to-MEM").unwrap() - 63.67).abs() < 0.05);
    }

    #[test]
    fn insight2_majority_of_latency_is_on_node() {
        // §6 Insight 2: CPU + I/O = 72.4% of the latency; network < 1/3.
        let m = e2e();
        let total = m.total().as_ns_f64();
        let on_node =
            (m.category_total(Category::Cpu) + m.category_total(Category::Io)).as_ns_f64();
        assert!((on_node / total * 100.0 - 72.4).abs() < 0.1);
        assert!(m.category_total(Category::Network).as_ns_f64() / total < 1.0 / 3.0);
    }

    fn sized() -> SizedLatencyModel {
        SizedLatencyModel::from_calibration(&Calibration::default())
    }

    #[test]
    fn eight_byte_eager_reduces_to_the_e2e_model_bit_exactly() {
        // The sized model at 8 B must be *the* 1387.02 ns model, not close
        // to it: same integer picosecond count.
        assert_eq!(sized().eager_total(8), e2e().total());
        assert_eq!(sized().total(8, None), e2e().total());
    }

    #[test]
    fn sized_primitives_floor_at_the_calibrated_points() {
        let m = sized();
        let c = Calibration::default();
        assert_eq!(m.pcie_tlp(8), c.pcie(), "sub-64B TLPs occupy a 64B slot");
        assert_eq!(m.pcie_tlp(64), c.pcie());
        assert_eq!(m.wire_packet(8), c.wire());
        assert_eq!(m.rc_to_mem(8), c.rc_to_mem_8b());
        assert_eq!(m.llp_post_for(8), c.llp_post());
        assert_eq!(m.eager_copy(8), SimDuration::ZERO);
        assert_eq!(m.dma_fetch(8), SimDuration::ZERO);
    }

    #[test]
    fn segmentation_arithmetic() {
        assert_eq!(SizedLatencyModel::segments(0), 1);
        assert_eq!(SizedLatencyModel::segments(8), 1);
        assert_eq!(SizedLatencyModel::segments(4096), 1);
        assert_eq!(SizedLatencyModel::segments(4097), 2);
        assert_eq!(SizedLatencyModel::segments(1 << 20), 256);
        assert_eq!(SizedLatencyModel::seg_size(4097, 0), 4096);
        assert_eq!(SizedLatencyModel::seg_size(4097, 1), 1);
        assert_eq!(SizedLatencyModel::pio_chunks(8), 1);
        assert_eq!(SizedLatencyModel::pio_chunks(256), 5);
        assert_eq!(
            SizedLatencyModel::pio_chunks(257),
            1,
            "non-inline: pointer only"
        );
    }

    #[test]
    fn crossover_lands_between_8k_and_64k() {
        // The RTS/CTS handshake costs ~1079 ns; the eager copy recoups it at
        // 50 ps/B, so min-cost crossover lands near 21.6 KB — inside the
        // range the paper's put_bw curve shows for eager/rendezvous.
        let x = sized().crossover();
        assert!((8192..=65536).contains(&x), "crossover = {x}");
    }

    proptest::proptest! {
        #[test]
        fn eager_latency_is_monotone_in_size(a in 0u32..(1 << 22), b in 0u32..(1 << 22)) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let m = sized();
            proptest::prop_assert!(m.eager_total(lo) <= m.eager_total(hi));
        }

        #[test]
        fn rndv_latency_is_monotone_in_size(a in 0u32..(1 << 22), b in 0u32..(1 << 22)) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let m = sized();
            proptest::prop_assert!(m.rndv_total(lo) <= m.rndv_total(hi));
        }

        #[test]
        fn min_cost_selection_is_min_cost_at_every_point(s in 0u32..(1 << 22)) {
            let m = sized();
            let best = m.eager_total(s).min(m.rndv_total(s));
            proptest::prop_assert_eq!(m.total(s, None), best);
        }

        #[test]
        fn crossover_is_consistent(s in 0u32..(1 << 22)) {
            // Selection is a single threshold: eager strictly below the
            // crossover point, rendezvous at and above it.
            let m = sized();
            let x = m.crossover();
            let expect = if s < x { Protocol::Eager } else { Protocol::Rendezvous };
            proptest::prop_assert_eq!(m.select(s, None), expect);
        }

        #[test]
        fn threshold_rule_matches_the_classic_cutoff(s in 0u32..(1 << 22), t in 1u32..(1 << 22)) {
            let m = sized();
            let expect = if s >= t { Protocol::Rendezvous } else { Protocol::Eager };
            proptest::prop_assert_eq!(m.select(s, Some(t)), expect);
        }
    }
}
