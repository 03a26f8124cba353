//! Transport-level reliability: IB reliable-connection (RC) semantics.
//!
//! The paper's completion semantics hinge on the transport ACK ("the NIC
//! receives an acknowledgment (ACK) from the target-NIC", §2 step 4). On
//! the calibrated fast path no packet is ever lost; this module provides
//! the recovery machinery a real RC queue pair has — packet sequence
//! numbers (PSNs), go-back-N retransmission on timeout or explicit
//! out-of-sequence NAK — so failure-injection tests can exercise loss.

use crate::packet::Packet;
use bband_sim::{SimDuration, SimTime};
use bband_trace as trace;
use std::collections::VecDeque;

/// 24-bit packet sequence number, as InfiniBand PSNs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Psn(pub u32);

/// PSN modulus.
pub const PSN_MOD: u32 = 1 << 24;

impl Psn {
    /// Successor with wrap.
    pub fn next(self) -> Psn {
        Psn((self.0 + 1) % PSN_MOD)
    }

    /// Predecessor with wrap (PSN 0's predecessor is `PSN_MOD - 1`).
    pub fn prev(self) -> Psn {
        Psn((self.0 + PSN_MOD - 1) % PSN_MOD)
    }

    /// Forward distance (mod 2^24).
    pub fn distance_to(self, other: Psn) -> u32 {
        (other.0 + PSN_MOD - self.0) % PSN_MOD
    }
}

/// Sender-side RC transport state for one QP.
#[derive(Debug)]
pub struct RcSender {
    unacked: VecDeque<(Psn, Packet, SimTime)>,
    next_psn: Psn,
    /// Base retransmission timeout (IB's local ACK timeout; microseconds
    /// on real HCAs). Consecutive timer firings without forward progress
    /// back this off exponentially — see [`RcSender::effective_timeout`].
    pub timeout: SimDuration,
    /// Consecutive timer-driven go-back-N rounds without ACK progress;
    /// doubles the effective timeout each round (capped) and is what a
    /// retry budget bounds.
    front_retries: u32,
    /// Diagnostics.
    pub retransmissions: u64,
    /// Timer-driven go-back-N rounds (each may resend many packets).
    pub timeouts: u64,
    /// NAK-driven go-back-N rounds.
    pub naks: u64,
}

/// Cap on the exponential-backoff shift, so the effective timeout never
/// overflows (2^16 × base is already hours of simulated time).
const MAX_BACKOFF_SHIFT: u32 = 16;

impl RcSender {
    /// Sender with a given ACK timeout, starting at PSN 0.
    pub fn new(timeout: SimDuration) -> Self {
        Self::with_initial_psn(timeout, Psn(0))
    }

    /// Sender whose first packet uses `initial` — real QPs negotiate an
    /// arbitrary starting PSN at connection setup, and wraparound tests
    /// start just below [`PSN_MOD`].
    pub fn with_initial_psn(timeout: SimDuration, initial: Psn) -> Self {
        assert!(initial.0 < PSN_MOD, "initial PSN out of range");
        RcSender {
            unacked: VecDeque::new(),
            next_psn: initial,
            timeout,
            front_retries: 0,
            retransmissions: 0,
            timeouts: 0,
            naks: 0,
        }
    }

    /// Register a packet transmission at `now`; returns its PSN.
    pub fn send(&mut self, pkt: Packet, now: SimTime) -> Psn {
        let psn = self.next_psn;
        self.next_psn = psn.next();
        self.unacked.push_back((psn, pkt, now));
        psn
    }

    /// Cumulative ACK up to and including `psn`.
    pub fn on_ack(&mut self, psn: Psn) {
        let mut progressed = false;
        while let Some(&(p, ..)) = self.unacked.front() {
            if p.distance_to(psn) < PSN_MOD / 2 {
                self.unacked.pop_front();
                progressed = true;
            } else {
                break;
            }
        }
        if progressed {
            // Forward progress: the retry counter and backoff reset, as
            // they guard the (new) oldest unacked packet.
            self.front_retries = 0;
        }
    }

    /// Explicit out-of-sequence NAK: retransmit from `psn`, restamping at
    /// `now`. Go-back-N: everything from the NAKed PSN is resent in order.
    pub fn on_nak(&mut self, psn: Psn, now: SimTime) -> Vec<(Psn, Packet)> {
        // A NAK for `psn` implicitly acks everything before it. The
        // predecessor is taken modulo PSN_MOD: when the NAKed PSN is 0
        // (receiver wrapped), the pre-wrap packets up to PSN_MOD - 1 are
        // the ones being acknowledged. (If nothing precedes the NAK, the
        // predecessor lies a full window behind `psn` and the cumulative
        // ACK correctly pops nothing.)
        self.on_ack(psn.prev());
        self.naks += 1;
        trace::instant(trace::Layer::Transport, "rc_nak", now, psn.0 as u64);
        self.retransmit_all(now)
    }

    /// Check the retransmission timer: if the oldest unacked packet is
    /// older than the effective (backed-off) timeout, go-back-N from it.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<(Psn, Packet)> {
        match self.unacked.front() {
            Some(&(_, _, sent_at)) if now.saturating_since(sent_at) >= self.effective_timeout() => {
                self.timeouts += 1;
                self.front_retries += 1;
                trace::instant(
                    trace::Layer::Transport,
                    "rc_timeout",
                    now,
                    self.front_retries as u64,
                );
                self.retransmit_all(now)
            }
            _ => Vec::new(),
        }
    }

    fn retransmit_all(&mut self, now: SimTime) -> Vec<(Psn, Packet)> {
        let out: Vec<(Psn, Packet)> = self
            .unacked
            .iter()
            .map(|&(psn, pkt, _)| (psn, pkt))
            .collect();
        for entry in &mut self.unacked {
            entry.2 = now;
        }
        self.retransmissions += out.len() as u64;
        if !out.is_empty() {
            trace::instant(trace::Layer::Transport, "go_back_n", now, out.len() as u64);
        }
        out
    }

    /// Packets awaiting acknowledgement.
    pub fn pending(&self) -> usize {
        self.unacked.len()
    }

    /// Bulk-advance for the fault engine: `n` send/ACK round trips that each
    /// completed before the next began. Requires an idle sender on entry
    /// and leaves it idle — only the PSN counter moves.
    pub fn skip_delivered(&mut self, n: u64) {
        assert!(self.unacked.is_empty(), "bulk skip requires an idle sender");
        self.next_psn = Psn(((self.next_psn.0 as u64 + n) % PSN_MOD as u64) as u32);
    }

    /// The current retransmission timeout including exponential backoff:
    /// `timeout × 2^retries`, saturating, shift capped.
    pub fn effective_timeout(&self) -> SimDuration {
        let shift = self.front_retries.min(MAX_BACKOFF_SHIFT);
        SimDuration::from_ps(self.timeout.as_ps().saturating_mul(1u64 << shift))
    }

    /// Timer-driven retry rounds the oldest unacked packet has survived;
    /// a recovery driver compares this against its retry budget and
    /// surfaces a terminal error instead of retrying forever.
    pub fn front_retries(&self) -> u32 {
        self.front_retries
    }

    /// The oldest unacked packet and its PSN — the one a retry budget is
    /// guarding, reported when the budget is exhausted.
    pub fn oldest_unacked(&self) -> Option<(Psn, &Packet)> {
        self.unacked.front().map(|(psn, pkt, _)| (*psn, pkt))
    }

    /// Earliest deadline at which [`RcSender::on_timer`] would fire.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.unacked
            .front()
            .map(|&(_, _, at)| at + self.effective_timeout())
    }
}

/// Receiver-side RC transport state for one QP.
#[derive(Debug, Default)]
pub struct RcReceiver {
    expected: u32,
    /// Diagnostics.
    pub duplicates: u64,
    pub out_of_order: u64,
}

/// Receiver's verdict for one arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcVerdict {
    /// In-order: deliver and ACK this PSN.
    Deliver { ack: Psn },
    /// Out-of-sequence (a gap): discard and NAK the expected PSN.
    Nak { expected: Psn },
    /// Duplicate of an already-delivered packet: discard and re-ACK.
    DuplicateAck { ack: Psn },
}

impl RcReceiver {
    /// Fresh receiver expecting PSN 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Receiver expecting `psn` first — pairs with
    /// [`RcSender::with_initial_psn`] for arbitrary starting PSNs.
    pub fn expecting(psn: Psn) -> Self {
        assert!(psn.0 < PSN_MOD, "initial PSN out of range");
        RcReceiver {
            expected: psn.0,
            ..Self::default()
        }
    }

    /// Bulk-advance for the fault engine: `n` in-sequence deliveries.
    /// Equivalent to `n` delivering calls to [`RcReceiver::on_packet`].
    pub fn skip_delivered(&mut self, n: u64) {
        self.expected = ((self.expected as u64 + n) % PSN_MOD as u64) as u32;
    }

    /// Process an arriving packet.
    pub fn on_packet(&mut self, psn: Psn) -> RcVerdict {
        let expected = Psn(self.expected);
        if psn == expected {
            self.expected = expected.next().0;
            RcVerdict::Deliver { ack: psn }
        } else if expected.distance_to(psn) < PSN_MOD / 2 {
            self.out_of_order += 1;
            RcVerdict::Nak { expected }
        } else {
            self.duplicates += 1;
            RcVerdict::DuplicateAck {
                ack: expected.prev(),
            }
        }
    }
}

/// A fabric that drops packets with a configurable probability (loss
/// injection for tests; the calibrated profile uses 0.0).
#[derive(Debug)]
pub struct LossyFabric {
    pub drop_probability: f64,
    rng: bband_sim::Pcg64,
    /// Diagnostics.
    pub dropped: u64,
}

impl LossyFabric {
    /// Loss-injecting fabric.
    pub fn new(drop_probability: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&drop_probability));
        LossyFabric {
            drop_probability,
            rng: bband_sim::Pcg64::new(seed ^ 0xD20),
            dropped: 0,
        }
    }

    /// Does the fabric drop this packet?
    pub fn drops(&mut self, _pkt: &Packet) -> bool {
        let d = self.drop_probability > 0.0 && self.rng.next_bool(self.drop_probability);
        if d {
            self.dropped += 1;
        }
        d
    }

    /// Clone of the internal RNG stream, for speculative draws: predict
    /// future [`LossyFabric::drops`] outcomes on the clone without mutating
    /// the fabric state or its diagnostics counters.
    pub fn rng_snapshot(&self) -> bband_sim::Pcg64 {
        self.rng.clone()
    }

    /// Commit a speculatively advanced RNG stream (from
    /// [`LossyFabric::rng_snapshot`]) back into the fabric.
    pub fn rng_restore(&mut self, rng: bband_sim::Pcg64) {
        self.rng = rng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketId, PacketKind};

    fn pkt(i: u64) -> Packet {
        Packet::message(PacketId(i), PacketKind::Send, NodeId(0), NodeId(1), 8)
    }

    #[test]
    fn in_order_delivery_acks_each_psn() {
        let mut tx = RcSender::new(SimDuration::from_us(10));
        let mut rx = RcReceiver::new();
        for i in 0..5 {
            let psn = tx.send(pkt(i), SimTime::from_ns(i * 100));
            match rx.on_packet(psn) {
                RcVerdict::Deliver { ack } => tx.on_ack(ack),
                v => panic!("unexpected {v:?}"),
            }
        }
        assert_eq!(tx.pending(), 0);
        assert_eq!(tx.retransmissions, 0);
    }

    #[test]
    fn gap_triggers_nak_and_go_back_n() {
        let mut tx = RcSender::new(SimDuration::from_us(10));
        let mut rx = RcReceiver::new();
        let p0 = tx.send(pkt(0), SimTime::ZERO);
        let p1 = tx.send(pkt(1), SimTime::ZERO);
        let p2 = tx.send(pkt(2), SimTime::ZERO);
        assert!(matches!(rx.on_packet(p0), RcVerdict::Deliver { .. }));
        // p1 lost; p2 arrives out of sequence.
        let RcVerdict::Nak { expected } = rx.on_packet(p2) else {
            panic!("expected NAK");
        };
        assert_eq!(expected, p1);
        let replay = tx.on_nak(expected, SimTime::from_ns(500));
        assert_eq!(replay.len(), 2, "go-back-N resends p1 and p2");
        assert_eq!(replay[0].0, p1);
        assert!(matches!(rx.on_packet(p1), RcVerdict::Deliver { .. }));
        assert!(matches!(rx.on_packet(p2), RcVerdict::Deliver { .. }));
    }

    #[test]
    fn timeout_retransmits_everything_outstanding() {
        let mut tx = RcSender::new(SimDuration::from_us(1));
        tx.send(pkt(0), SimTime::ZERO);
        tx.send(pkt(1), SimTime::ZERO);
        assert!(tx.on_timer(SimTime::from_ns(500)).is_empty(), "too early");
        let replay = tx.on_timer(SimTime::from_ns(1_500));
        assert_eq!(replay.len(), 2);
        assert_eq!(tx.retransmissions, 2);
        // Timer restamped: immediate re-check does nothing.
        assert!(tx.on_timer(SimTime::from_ns(1_600)).is_empty());
    }

    #[test]
    fn duplicates_are_discarded_with_reack() {
        let mut tx = RcSender::new(SimDuration::from_us(10));
        let mut rx = RcReceiver::new();
        let p0 = tx.send(pkt(0), SimTime::ZERO);
        assert!(matches!(rx.on_packet(p0), RcVerdict::Deliver { .. }));
        assert!(matches!(rx.on_packet(p0), RcVerdict::DuplicateAck { .. }));
        assert_eq!(rx.duplicates, 1);
    }

    #[test]
    fn psn_wraparound() {
        let last = Psn(PSN_MOD - 1);
        assert_eq!(last.next(), Psn(0));
        assert_eq!(last.distance_to(Psn(0)), 1);
        assert_eq!(Psn(0).prev(), last);
        assert_eq!(Psn(1).prev(), Psn(0));
    }

    /// Regression: a NAK for PSN 0 right after wraparound must implicitly
    /// ack the pre-wrap packets (…, PSN_MOD-2, PSN_MOD-1). The old
    /// `psn.0 != 0` guard skipped that cumulative ACK entirely, so the
    /// pre-wrap packets stayed unacked and were retransmitted forever.
    #[test]
    fn nak_at_psn_zero_acks_pre_wrap_packets() {
        let start = Psn(PSN_MOD - 2);
        let mut tx = RcSender::with_initial_psn(SimDuration::from_us(10), start);
        let mut rx = RcReceiver::expecting(start);
        // Send PSN_MOD-2, PSN_MOD-1, 0, 1; deliver the two pre-wrap ones
        // without their ACKs reaching the sender, lose 0, deliver 1.
        let psns: Vec<Psn> = (0..4).map(|i| tx.send(pkt(i), SimTime::ZERO)).collect();
        assert_eq!(psns[2], Psn(0), "third packet wraps to PSN 0");
        assert!(matches!(rx.on_packet(psns[0]), RcVerdict::Deliver { .. }));
        assert!(matches!(rx.on_packet(psns[1]), RcVerdict::Deliver { .. }));
        // Packet 0 lost; packet 1 arrives out of sequence: NAK expecting 0.
        let RcVerdict::Nak { expected } = rx.on_packet(psns[3]) else {
            panic!("expected NAK");
        };
        assert_eq!(expected, Psn(0));
        let replay = tx.on_nak(expected, SimTime::from_ns(500));
        // The NAK implicitly acked PSN_MOD-2 and PSN_MOD-1: only the two
        // post-wrap packets are retransmitted.
        assert_eq!(
            replay.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            vec![Psn(0), Psn(1)],
            "pre-wrap packets must be implicitly acked, not resent"
        );
        assert_eq!(tx.pending(), 2);
        // Recovery completes normally.
        assert!(matches!(rx.on_packet(Psn(0)), RcVerdict::Deliver { .. }));
        assert!(matches!(rx.on_packet(Psn(1)), RcVerdict::Deliver { .. }));
    }

    /// The NAKed PSN being the oldest unacked packet must not ack anything
    /// (its predecessor is a full window behind).
    #[test]
    fn nak_of_oldest_acks_nothing() {
        let mut tx = RcSender::new(SimDuration::from_us(10));
        let p0 = tx.send(pkt(0), SimTime::ZERO);
        tx.send(pkt(1), SimTime::ZERO);
        let replay = tx.on_nak(p0, SimTime::from_ns(100));
        assert_eq!(replay.len(), 2, "nothing precedes the NAK: resend all");
        assert_eq!(tx.pending(), 2);
    }

    #[test]
    fn timeout_backoff_doubles_and_resets_on_progress() {
        let mut tx = RcSender::new(SimDuration::from_us(1));
        tx.send(pkt(0), SimTime::ZERO);
        assert_eq!(tx.effective_timeout(), SimDuration::from_us(1));
        assert_eq!(tx.next_deadline(), Some(SimTime::from_ns(1_000)));
        // First timeout: fires at 1 µs, backoff doubles the next window.
        assert_eq!(tx.on_timer(SimTime::from_ns(1_000)).len(), 1);
        assert_eq!(tx.front_retries(), 1);
        assert_eq!(tx.effective_timeout(), SimDuration::from_us(2));
        assert_eq!(tx.next_deadline(), Some(SimTime::from_ns(3_000)));
        // Too early for the backed-off deadline.
        assert!(tx.on_timer(SimTime::from_ns(2_500)).is_empty());
        assert_eq!(tx.on_timer(SimTime::from_ns(3_000)).len(), 1);
        assert_eq!(tx.front_retries(), 2);
        assert_eq!(tx.effective_timeout(), SimDuration::from_us(4));
        // ACK progress resets the backoff.
        tx.on_ack(Psn(0));
        assert_eq!(tx.front_retries(), 0);
        assert_eq!(tx.effective_timeout(), SimDuration::from_us(1));
        assert_eq!(tx.timeouts, 2);
    }

    #[test]
    fn backoff_shift_saturates() {
        let mut tx = RcSender::new(SimDuration::from_us(1));
        tx.send(pkt(0), SimTime::ZERO);
        for _ in 0..40 {
            let now = tx.next_deadline().unwrap();
            assert_eq!(tx.on_timer(now).len(), 1);
        }
        // Shift capped at 16: effective timeout stays finite.
        assert_eq!(
            tx.effective_timeout(),
            SimDuration::from_ps(SimDuration::from_us(1).as_ps() << 16)
        );
    }

    #[test]
    fn next_deadline_tracks_oldest() {
        let mut tx = RcSender::new(SimDuration::from_us(2));
        assert_eq!(tx.next_deadline(), None);
        tx.send(pkt(0), SimTime::from_ns(100));
        tx.send(pkt(1), SimTime::from_ns(900));
        assert_eq!(tx.next_deadline(), Some(SimTime::from_ns(2_100)));
    }
}
