//! Property-based wraparound coverage for the two sequence spaces the
//! recovery machinery lives on: the 24-bit IB PSN space and the 12-bit
//! PCIe DLL sequence space. Every property is exercised *across* the wrap
//! boundary by starting the counters just below the modulus — the regime
//! where the PR-fixed `on_nak` PSN-0 bug lived.

use breaking_band::fabric::reliability::{Psn, PSN_MOD};
use breaking_band::fabric::{
    NodeId, Packet, PacketId, PacketKind, RcReceiver, RcSender, RcVerdict,
};
use breaking_band::models::fault::{run_e2e_under_faults_on, EnginePath, FaultPlan};
use breaking_band::models::Calibration;
use breaking_band::pcie::replay::SEQ_MOD;
use breaking_band::pcie::{DllReceiver, ReplayBuffer, RxVerdict, SeqNum, Tlp, TlpIdGen};
use breaking_band::sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn pkt(i: u64) -> Packet {
    Packet::message(PacketId(i), PacketKind::Send, NodeId(0), NodeId(1), 8)
}

proptest! {
    /// PSN algebra: next/prev are inverses and distance is consistent,
    /// everywhere in the 2^24 space.
    #[test]
    fn psn_algebra_holds_everywhere(raw in 0u32..PSN_MOD) {
        let p = Psn(raw);
        prop_assert_eq!(p.next().prev(), p);
        prop_assert_eq!(p.prev().next(), p);
        prop_assert_eq!(p.distance_to(p.next()), 1);
        prop_assert_eq!(p.prev().distance_to(p), 1);
        prop_assert_eq!(p.distance_to(p), 0);
    }

    /// SeqNum algebra: same invariants in the 2^12 space.
    #[test]
    fn seqnum_algebra_holds_everywhere(raw in 0u16..SEQ_MOD) {
        let s = SeqNum(raw);
        prop_assert_eq!(s.next().prev(), s);
        prop_assert_eq!(s.prev().next(), s);
        prop_assert_eq!(s.distance_to(s.next()), 1);
        prop_assert_eq!(s.prev().distance_to(s), 1);
    }

    /// Go-back-N with one lost packet recovers every message exactly once,
    /// in order, for any starting PSN — including windows that straddle
    /// the 2^24 wrap (`start_offset` counts back from PSN_MOD).
    #[test]
    fn go_back_n_recovers_across_psn_wrap(
        start_offset in 1u32..12,
        window in 3u64..12,
        lost in 1u64..11,
    ) {
        let lost = lost.min(window - 1);
        let start = Psn(PSN_MOD - start_offset);
        let mut tx = RcSender::with_initial_psn(SimDuration::from_us(10), start);
        let mut rx = RcReceiver::expecting(start);
        let psns: Vec<Psn> = (0..window).map(|i| tx.send(pkt(i), SimTime::ZERO)).collect();
        let mut delivered: Vec<u64> = Vec::new();
        let mut nak: Option<Psn> = None;
        for (i, &psn) in psns.iter().enumerate() {
            if i as u64 == lost {
                continue; // dropped on the fabric
            }
            match rx.on_packet(psn) {
                RcVerdict::Deliver { ack } => {
                    delivered.push(i as u64);
                    tx.on_ack(ack);
                }
                RcVerdict::Nak { expected } => nak = Some(expected),
                RcVerdict::DuplicateAck { .. } => prop_assert!(false, "no duplicates yet"),
            }
        }
        if window > lost + 1 {
            let expected = nak.expect("a packet after the loss must trigger a NAK");
            prop_assert_eq!(expected, psns[lost as usize]);
            // The NAK implicitly acked everything before the gap: only the
            // lost packet and its successors are resent.
            let replay = tx.on_nak(expected, SimTime::from_ns(100));
            prop_assert_eq!(replay.len() as u64, window - lost);
            for (psn, p) in replay {
                match rx.on_packet(psn) {
                    RcVerdict::Deliver { ack } => {
                        delivered.push(p.id.0);
                        tx.on_ack(ack);
                    }
                    v => prop_assert!(false, "replay must deliver, got {:?}", v),
                }
            }
        } else {
            // Loss at the tail: only the timer can recover it.
            let replay = tx.on_timer(SimTime::from_ns(11_000));
            prop_assert_eq!(replay.len(), 1);
            let (psn, p) = replay[0];
            match rx.on_packet(psn) {
                RcVerdict::Deliver { ack } => {
                    delivered.push(p.id.0);
                    tx.on_ack(ack);
                }
                v => prop_assert!(false, "timer replay must deliver, got {:?}", v),
            }
        }
        delivered.sort_unstable();
        let want: Vec<u64> = (0..window).collect();
        prop_assert_eq!(delivered, want, "every message exactly once");
        prop_assert_eq!(tx.pending(), 0, "cumulative ACKs drained the sender");
    }

    /// DLL NACK/replay recovers a corrupted stream in order for any
    /// starting sequence number, including across the 2^12 wrap.
    #[test]
    fn dll_replay_recovers_across_seq_wrap(
        start_offset in 1u16..10,
        total in 4u64..24,
        corrupt_mask in 0u64..(1 << 20),
    ) {
        let start = SeqNum(SEQ_MOD - start_offset);
        let mut buf = ReplayBuffer::with_initial_seq(30, start);
        let mut rx = DllReceiver::expecting(start);
        let mut g = TlpIdGen::new();
        let mut delivered: Vec<u64> = Vec::new();
        for i in 0..total {
            let t = Tlp::pio_chunk(g.next());
            let seq = buf.send(t).expect("capacity exceeds stream length");
            // First traversal corrupted iff bit i of the mask is set; the
            // replay always goes through (a deterministic single-retry
            // link).
            let corrupted = corrupt_mask >> (i % 20) & 1 == 1;
            match rx.receive(seq, corrupted) {
                RxVerdict::Accept { ack_up_to } => {
                    delivered.push(t.id.0);
                    buf.ack(ack_up_to);
                }
                RxVerdict::Nack { expected } => {
                    prop_assert_eq!(expected, seq, "in-order stream NACKs itself");
                    let replayed = buf.nack(expected);
                    prop_assert_eq!(replayed.len(), 1);
                    let (rseq, rt) = replayed[0];
                    match rx.receive(rseq, false) {
                        RxVerdict::Accept { ack_up_to } => {
                            delivered.push(rt.id.0);
                            buf.ack(ack_up_to);
                        }
                        v => prop_assert!(false, "replay must deliver, got {:?}", v),
                    }
                }
                RxVerdict::Duplicate { .. } => prop_assert!(false, "no duplicates sent"),
            }
        }
        let want: Vec<u64> = (0..total).collect();
        prop_assert_eq!(delivered, want, "in-order delivery across the wrap");
        prop_assert_eq!(buf.pending(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fault engine terminates for any seed and moderate loss: either
    /// every message completes, or the retry budget surfaces
    /// `RetryExhausted` — it never hangs and never panics.
    #[test]
    fn fault_engine_always_terminates(seed in 0u64..1_000_000, loss_milli in 0u64..200) {
        let mut plan = FaultPlan::none();
        plan.loss_probability = loss_milli as f64 / 1000.0;
        plan.retry.max_retries = 6;
        match run_e2e_under_faults_on(EnginePath::Fast, &Calibration::default(), &plan, 80, seed) {
            Ok(stats) => prop_assert_eq!(stats.completed, 80),
            Err(e) => prop_assert!(e.retries > 6),
        }
    }
}

proptest! {
    /// rndv-id wraparound — the PSN-0 pattern in the 16-bit slot space.
    /// Start the allocator just below the slot wrap, drain one full
    /// 65,536-id cycle so it lands on the same slot index again, and prove
    /// a stale CTS/FIN tag from the slot's previous generation matches
    /// none of the live operations (a bare `u16` id would match all of
    /// them), while every live operation's own tag still round-trips.
    #[test]
    fn rndv_ids_are_generation_safe_across_the_slot_wrap(
        start_offset in 1u32..64,
        live in 2u32..48,
        kind_sel in 0u64..3,
    ) {
        use breaking_band::hlp::rndv::{self, CtrlKind, RndvId, EP_BITS, RNDV_ID_BITS};
        let kind = match kind_sel {
            0 => CtrlKind::Rts,
            1 => CtrlKind::Cts,
            _ => CtrlKind::Fin,
        };
        let mut id = RndvId((1u32 << 16) - start_offset);
        let stale = id; // a control message still in flight, generation g
        for _ in 0..(1u32 << 16) {
            id = id.next();
        }
        prop_assert_eq!(id.index(), stale.index(), "slot index reused");
        prop_assert_ne!(id, stale, "generation g+1 is a different id");
        // Outstanding operations from the slot's new life.
        let mut table = std::collections::HashMap::new();
        for op in 0..live {
            table.insert(id, op);
            id = id.next();
        }
        // The stale tag decodes to the stale id, which matches nothing.
        let tag = rndv::encode(kind, stale, 7);
        let (dkind, did, low) = rndv::decode(tag).expect("control tag");
        prop_assert_eq!(dkind, kind);
        prop_assert_eq!(low, 7);
        prop_assert!(
            !table.contains_key(&did),
            "stale control message matched a live operation"
        );
        // Every live operation's own tag still round-trips to itself.
        for (&lid, &op) in &table {
            let (_, rid, _) = rndv::decode(rndv::encode(kind, lid, op)).unwrap();
            prop_assert_eq!(rid, lid);
        }
        // Each endpoint partition wraps only at its capacity (2^22), not
        // at 2^16, and never crosses into a neighbouring partition.
        prop_assert_eq!(
            RndvId((1 << (RNDV_ID_BITS - EP_BITS)) - 1).next(),
            RndvId::ZERO
        );
        prop_assert_eq!(
            RndvId((1 << RNDV_ID_BITS) - 1).next(),
            RndvId::first_for_endpoint((1 << EP_BITS) - 1)
        );
    }
}
