//! Data-link-layer reliability: sequence numbers, the replay buffer, and
//! NACK-driven retransmission.
//!
//! §2 of the paper: "The Data Link layer ensures the successful execution
//! of all transactions using Data Link Layer Packet (DLLP)
//! acknowledgements (ACK/NACK)". The calibrated fast path never corrupts a
//! TLP (the paper's testbed didn't either), so the main simulation charges
//! no retransmission cost — but the machinery exists in real PCIe and is
//! exercised here for failure-injection testing: every transmitted TLP is
//! held in a bounded replay buffer until ACKed; a receiver that detects an
//! LCRC error NACKs, and the sender replays everything from the NACKed
//! sequence number in order.

use crate::tlp::Tlp;
use bband_sim::Pcg64;
use bband_trace as trace;
use std::collections::VecDeque;

/// A 12-bit data-link sequence number with wrap-around ordering,
/// as PCIe's TS field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeqNum(pub u16);

/// Modulus of the sequence space.
pub const SEQ_MOD: u16 = 1 << 12;

impl SeqNum {
    /// Successor with wrap.
    pub fn next(self) -> SeqNum {
        SeqNum((self.0 + 1) % SEQ_MOD)
    }

    /// Predecessor with wrap (sequence 0's predecessor is `SEQ_MOD - 1`).
    pub fn prev(self) -> SeqNum {
        SeqNum((self.0 + SEQ_MOD - 1) % SEQ_MOD)
    }

    /// Distance from `self` to `other` going forward (mod 4096).
    pub fn distance_to(self, other: SeqNum) -> u16 {
        (other.0 + SEQ_MOD - self.0) % SEQ_MOD
    }
}

/// Error: the replay buffer is full; the link layer must stall new TLPs
/// until ACKs drain it (a real, if rare, PCIe back-pressure mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayFull;

/// Sender-side replay buffer.
#[derive(Debug)]
pub struct ReplayBuffer {
    unacked: VecDeque<(SeqNum, Tlp)>,
    next_seq: SeqNum,
    capacity: usize,
    /// Diagnostics.
    pub retransmissions: u64,
}

impl ReplayBuffer {
    /// Buffer sized like a real device (a few dozen TLPs).
    pub fn new(capacity: usize) -> Self {
        Self::with_initial_seq(capacity, SeqNum(0))
    }

    /// Buffer whose first TLP is stamped `initial` — wraparound tests
    /// start just below [`SEQ_MOD`].
    pub fn with_initial_seq(capacity: usize, initial: SeqNum) -> Self {
        assert!(capacity > 0 && capacity < SEQ_MOD as usize / 2);
        assert!(initial.0 < SEQ_MOD, "initial sequence out of range");
        ReplayBuffer {
            unacked: VecDeque::new(),
            next_seq: initial,
            capacity,
            retransmissions: 0,
        }
    }

    /// Register a TLP for transmission; returns its sequence number.
    pub fn send(&mut self, tlp: Tlp) -> Result<SeqNum, ReplayFull> {
        if self.unacked.len() >= self.capacity {
            return Err(ReplayFull);
        }
        let seq = self.next_seq;
        self.next_seq = seq.next();
        self.unacked.push_back((seq, tlp));
        Ok(seq)
    }

    /// ACK received: everything up to and including `up_to` is delivered.
    pub fn ack(&mut self, up_to: SeqNum) {
        while let Some(&(seq, _)) = self.unacked.front() {
            // `seq` is acked iff it is not ahead of `up_to`.
            if seq.distance_to(up_to) < SEQ_MOD / 2 {
                self.unacked.pop_front();
            } else {
                break;
            }
        }
    }

    /// NACK received: replay everything from `from` (inclusive), in order.
    pub fn nack(&mut self, from: SeqNum) -> Vec<(SeqNum, Tlp)> {
        // Everything before `from` is implicitly acknowledged (wraparound
        // safe: sequence 0's predecessor is SEQ_MOD - 1).
        self.ack(from.prev());
        let replayed: Vec<(SeqNum, Tlp)> = self.unacked.iter().copied().collect();
        self.retransmissions += replayed.len() as u64;
        trace::instant_now(trace::Layer::PcieDll, "dll_replay", replayed.len() as u64);
        replayed
    }

    /// Number of TLPs awaiting acknowledgement.
    pub fn pending(&self) -> usize {
        self.unacked.len()
    }

    /// Bulk-advance for the fault engine: commit `n` in-order sends of which
    /// the first `n - 1` have already been ACKed, leaving only `last`
    /// outstanding — the state `n` interleaved send/ACK rounds produce.
    /// Requires a drained buffer on entry; returns the sequence number
    /// assigned to `last`.
    pub fn skip_delivered(&mut self, n: u64, last: Tlp) -> SeqNum {
        assert!(n > 0);
        assert!(
            self.unacked.is_empty(),
            "bulk skip requires a drained replay buffer"
        );
        let seq = SeqNum(((self.next_seq.0 as u64 + n - 1) % SEQ_MOD as u64) as u16);
        self.next_seq = seq.next();
        self.unacked.push_back((seq, last));
        seq
    }
}

/// Receiver-side data-link state.
#[derive(Debug, Default)]
pub struct DllReceiver {
    expected: u16,
    /// Diagnostics.
    pub corrupted_seen: u64,
    pub duplicates_discarded: u64,
}

/// What the receiver instructs the link to do for one arriving TLP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxVerdict {
    /// Deliver to the transaction layer; schedule an ACK for `ack_up_to`.
    Accept { ack_up_to: SeqNum },
    /// Corrupted or out-of-order: discard and schedule a NACK asking for
    /// retransmission from `expected`.
    Nack { expected: SeqNum },
    /// Duplicate of something already delivered: discard, re-ACK.
    Duplicate { ack_up_to: SeqNum },
}

impl DllReceiver {
    /// Fresh receiver expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Receiver expecting `seq` first — pairs with
    /// [`ReplayBuffer::with_initial_seq`].
    pub fn expecting(seq: SeqNum) -> Self {
        assert!(seq.0 < SEQ_MOD, "initial sequence out of range");
        DllReceiver {
            expected: seq.0,
            ..Self::default()
        }
    }

    /// Bulk-advance for the fault engine: accept `n` in-order uncorrupted
    /// TLPs. Equivalent to `n` accepting calls to [`DllReceiver::receive`].
    pub fn skip_delivered(&mut self, n: u64) {
        self.expected = ((self.expected as u64 + n) % SEQ_MOD as u64) as u16;
    }

    /// Process an arriving TLP with its sequence number and an
    /// LCRC-corruption flag (set by the error-injecting link).
    pub fn receive(&mut self, seq: SeqNum, corrupted: bool) -> RxVerdict {
        let expected = SeqNum(self.expected);
        if corrupted {
            self.corrupted_seen += 1;
            return RxVerdict::Nack { expected };
        }
        if seq == expected {
            self.expected = expected.next().0;
            RxVerdict::Accept { ack_up_to: seq }
        } else if expected.distance_to(seq) < SEQ_MOD / 2 {
            // A gap: something before `seq` was lost — ask for it.
            RxVerdict::Nack { expected }
        } else {
            // Behind the window: duplicate of an already-delivered TLP.
            self.duplicates_discarded += 1;
            RxVerdict::Duplicate {
                ack_up_to: expected.prev(),
            }
        }
    }
}

/// A link that corrupts TLPs with a configurable probability (bit-error
/// injection for tests; the calibrated profile uses 0.0).
#[derive(Debug)]
pub struct LossyLink {
    pub corruption_probability: f64,
    rng: Pcg64,
}

impl LossyLink {
    /// Error-injecting link.
    pub fn new(corruption_probability: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&corruption_probability));
        LossyLink {
            corruption_probability,
            rng: Pcg64::new(seed ^ 0xBADC0DE),
        }
    }

    /// Does this traversal corrupt the TLP?
    pub fn corrupts(&mut self) -> bool {
        let hit =
            self.corruption_probability > 0.0 && self.rng.next_bool(self.corruption_probability);
        if hit {
            trace::instant_now(trace::Layer::PcieDll, "lcrc_corrupt", 0);
        }
        hit
    }

    /// Clone of the internal RNG stream, for speculative draws: predict the
    /// outcome of future [`LossyLink::corrupts`] calls on the clone without
    /// mutating the link or emitting trace instants.
    pub fn rng_snapshot(&self) -> Pcg64 {
        self.rng.clone()
    }

    /// Commit a speculatively advanced RNG stream (from
    /// [`LossyLink::rng_snapshot`]) back into the link, consuming the draws
    /// that were predicted.
    pub fn rng_restore(&mut self, rng: Pcg64) {
        self.rng = rng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlp::{Tlp, TlpIdGen};

    fn tlp(g: &mut TlpIdGen) -> Tlp {
        Tlp::pio_chunk(g.next())
    }

    #[test]
    fn ack_drains_in_order() {
        let mut g = TlpIdGen::new();
        let mut buf = ReplayBuffer::new(8);
        let s0 = buf.send(tlp(&mut g)).unwrap();
        let s1 = buf.send(tlp(&mut g)).unwrap();
        let _s2 = buf.send(tlp(&mut g)).unwrap();
        assert_eq!(buf.pending(), 3);
        buf.ack(s1);
        assert_eq!(buf.pending(), 1);
        buf.ack(s0); // stale ACK: no effect
        assert_eq!(buf.pending(), 1);
    }

    #[test]
    fn nack_replays_everything_from_seq() {
        let mut g = TlpIdGen::new();
        let mut buf = ReplayBuffer::new(8);
        let seqs: Vec<SeqNum> = (0..4).map(|_| buf.send(tlp(&mut g)).unwrap()).collect();
        let replayed = buf.nack(seqs[2]);
        assert_eq!(replayed.len(), 2, "replay from the NACKed seq onwards");
        assert_eq!(replayed[0].0, seqs[2]);
        assert_eq!(buf.retransmissions, 2);
        // The NACK implicitly acked everything before it.
        assert_eq!(buf.pending(), 2);
    }

    #[test]
    fn full_buffer_back_pressures() {
        let mut g = TlpIdGen::new();
        let mut buf = ReplayBuffer::new(2);
        buf.send(tlp(&mut g)).unwrap();
        let s1 = buf.send(tlp(&mut g)).unwrap();
        assert_eq!(buf.send(tlp(&mut g)), Err(ReplayFull));
        buf.ack(s1);
        assert!(buf.send(tlp(&mut g)).is_ok());
    }

    #[test]
    fn receiver_accepts_in_order_and_nacks_corruption() {
        let mut rx = DllReceiver::new();
        assert_eq!(
            rx.receive(SeqNum(0), false),
            RxVerdict::Accept {
                ack_up_to: SeqNum(0)
            }
        );
        assert_eq!(
            rx.receive(SeqNum(1), true),
            RxVerdict::Nack {
                expected: SeqNum(1)
            }
        );
        assert_eq!(rx.corrupted_seen, 1);
        // Retransmission of 1 is then accepted.
        assert_eq!(
            rx.receive(SeqNum(1), false),
            RxVerdict::Accept {
                ack_up_to: SeqNum(1)
            }
        );
    }

    #[test]
    fn receiver_nacks_gaps_and_discards_duplicates() {
        let mut rx = DllReceiver::new();
        rx.receive(SeqNum(0), false);
        // Gap: 2 arrives before 1.
        assert_eq!(
            rx.receive(SeqNum(2), false),
            RxVerdict::Nack {
                expected: SeqNum(1)
            }
        );
        rx.receive(SeqNum(1), false);
        // Duplicate of 0.
        assert!(matches!(
            rx.receive(SeqNum(0), false),
            RxVerdict::Duplicate { .. }
        ));
        assert_eq!(rx.duplicates_discarded, 1);
    }

    #[test]
    fn sequence_wraparound() {
        let a = SeqNum(SEQ_MOD - 1);
        assert_eq!(a.next(), SeqNum(0));
        assert_eq!(a.distance_to(SeqNum(1)), 2);
        assert_eq!(SeqNum(1).distance_to(a), SEQ_MOD - 2);
    }

    /// End-to-end mini-simulation: a stream of TLPs through a corrupting
    /// link with NACK/replay recovers every TLP exactly once, in order.
    #[test]
    fn lossy_stream_recovers_in_order() {
        let mut g = TlpIdGen::new();
        let mut buf = ReplayBuffer::new(32);
        let mut rx = DllReceiver::new();
        let mut link = LossyLink::new(0.2, 42);
        let total = 500u64;
        let mut delivered: Vec<u64> = Vec::new();
        // The "wire": in-flight FIFO of (seq, tlp).
        let mut wire: VecDeque<(SeqNum, Tlp)> = VecDeque::new();
        let mut sent = 0u64;
        while delivered.len() < total as usize {
            // Send while there is room.
            while sent < total && buf.pending() < 16 {
                let t = tlp(&mut g);
                let seq = buf.send(t).expect("room checked");
                wire.push_back((seq, t));
                sent += 1;
            }
            let Some((seq, t)) = wire.pop_front() else {
                // Wire empty but not done: replay whatever is pending.
                for item in buf.nack(SeqNum(rx_expected(&rx))) {
                    wire.push_back(item);
                }
                continue;
            };
            match rx.receive(seq, link.corrupts()) {
                RxVerdict::Accept { ack_up_to } => {
                    delivered.push(t.id.0);
                    buf.ack(ack_up_to);
                }
                RxVerdict::Nack { expected } => {
                    // Everything in flight after the corruption is stale.
                    wire.clear();
                    for item in buf.nack(expected) {
                        wire.push_back(item);
                    }
                }
                RxVerdict::Duplicate { ack_up_to } => {
                    buf.ack(ack_up_to);
                }
            }
        }
        assert_eq!(delivered.len(), total as usize);
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), total as usize, "no duplicates delivered");
        assert!(
            delivered.windows(2).all(|w| w[0] < w[1]),
            "delivery must be in order"
        );
        assert!(buf.retransmissions > 0, "corruption must have occurred");
    }

    fn rx_expected(rx: &DllReceiver) -> u16 {
        rx.expected
    }
}
