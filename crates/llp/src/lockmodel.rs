//! Pluggable lock-granularity models for shared endpoints.
//!
//! Zambre et al. ("Scalable Communication Endpoints for MPI+Threads")
//! attribute the gap between flat and linear message-rate scaling to
//! *where the lock sits* when several threads drive the communication
//! stack: one global lock over the whole progress engine, one lock per
//! endpoint, or no lock at all because every thread owns an independent
//! VI. [`LockModel`] reproduces that spectrum as a deterministic
//! virtual-time contention model.
//!
//! The model is exact, not sampled: each lock keeps the virtual instant
//! it becomes free. A thread acquiring at `now` starts its critical
//! section at `max(now, free_at)`; the difference is *exposed lock-wait
//! time*, accrued to a ledger and — on traced runs — recorded as a
//! first-class `lock_wait` stage on [`trace::Layer::Recovery`], exactly
//! like the NIC's `credit_wait`: the recovery-split and per-message
//! attribution of `trace::dag` pick it up with no new cases. Spans on
//! one lock chain through a per-lock track (each wait happens-after the
//! previous wait on that lock), mirroring the RC-track chaining of
//! credit stalls, so cross-thread serialization is visible as a chain
//! in the DAG, not just as a sum.
//!
//! [`LockGranularity::Independent`] is the explicit no-op: acquires
//! return `now`, record nothing, and cost nothing — a run over
//! independent endpoints is bit-identical to one that never heard of
//! lock models.

use bband_sim::{SimDuration, SimTime};
use bband_trace as trace;

/// Where the lock sits — Zambre's three endpoint-sharing regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockGranularity {
    /// One lock over the whole progress engine: every post/progress by
    /// every thread serializes, whatever endpoint it targets.
    GlobalLock,
    /// One lock per endpoint: threads sharing an endpoint serialize;
    /// threads on different endpoints proceed concurrently.
    PerEndpointLock,
    /// Per-thread VIs, no sharing: no lock exists and no wait is ever
    /// recorded.
    Independent,
}

impl LockGranularity {
    /// Stable lowercase name (CLI arguments, JSON artifacts).
    pub fn name(&self) -> &'static str {
        match self {
            LockGranularity::GlobalLock => "global",
            LockGranularity::PerEndpointLock => "per-endpoint",
            LockGranularity::Independent => "independent",
        }
    }

    /// Parse a [`LockGranularity::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "global" => Some(LockGranularity::GlobalLock),
            "per-endpoint" => Some(LockGranularity::PerEndpointLock),
            "independent" => Some(LockGranularity::Independent),
            _ => None,
        }
    }
}

/// Deterministic virtual-time contention model over `n` endpoints.
#[derive(Debug)]
pub struct LockModel {
    granularity: LockGranularity,
    /// Virtual instant each lock becomes free (one slot for
    /// [`LockGranularity::GlobalLock`], one per endpoint for
    /// [`LockGranularity::PerEndpointLock`], none for
    /// [`LockGranularity::Independent`]).
    free_at: Vec<SimTime>,
    /// Per-lock chain of `lock_wait` spans (the previous wait on the
    /// same lock), mirroring the RC track of `credit_wait`.
    track: Vec<trace::SpanId>,
    acquisitions: u64,
    contended: u64,
    total_wait: SimDuration,
    /// Span recorded by the most recent contended acquire
    /// ([`trace::SpanId::NONE`] if it was uncontended or untraced) — the
    /// driver chains the holder's next CPU stage after it.
    last_wait: trace::SpanId,
}

impl LockModel {
    /// A model of `granularity` over `endpoints` endpoints.
    pub fn new(granularity: LockGranularity, endpoints: u32) -> Self {
        let locks = match granularity {
            LockGranularity::GlobalLock => 1,
            LockGranularity::PerEndpointLock => endpoints as usize,
            LockGranularity::Independent => 0,
        };
        LockModel {
            granularity,
            free_at: vec![SimTime::ZERO; locks],
            track: vec![trace::SpanId::NONE; locks],
            acquisitions: 0,
            contended: 0,
            total_wait: SimDuration::ZERO,
            last_wait: trace::SpanId::NONE,
        }
    }

    /// The granularity in force.
    pub fn granularity(&self) -> LockGranularity {
        self.granularity
    }

    fn slot(&self, ep: u32) -> Option<usize> {
        match self.granularity {
            LockGranularity::GlobalLock => Some(0),
            LockGranularity::PerEndpointLock => Some(ep as usize),
            LockGranularity::Independent => None,
        }
    }

    /// Acquire the lock guarding endpoint `ep` at virtual time `now`;
    /// returns the instant the critical section may begin. A contended
    /// acquire accrues `start − now` to the wait ledger and, on traced
    /// runs, records it as a `lock_wait` recovery stage happening-after
    /// both the caller's last CPU stage (`cause`) and the previous wait
    /// on the same lock. The caller must advance its CPU clock to the
    /// returned instant and pair this with [`LockModel::release`].
    pub fn acquire(&mut self, ep: u32, now: SimTime, cause: trace::SpanId) -> SimTime {
        self.last_wait = trace::SpanId::NONE;
        let Some(slot) = self.slot(ep) else {
            return now; // Independent: no lock, no wait, no record.
        };
        self.acquisitions += 1;
        let free = self.free_at[slot];
        if free <= now {
            return now;
        }
        self.contended += 1;
        self.total_wait += free.since(now);
        if trace::enabled() {
            self.track[slot] = trace::stage(
                trace::Layer::Recovery,
                "lock_wait",
                now,
                free,
                ep as u64,
                &[cause, self.track[slot]],
            );
            self.last_wait = self.track[slot];
        }
        free
    }

    /// The `lock_wait` span the most recent [`LockModel::acquire`]
    /// recorded ([`trace::SpanId::NONE`] if it was uncontended, untraced,
    /// or independent). The caller splices it into its CPU spine so the
    /// work done under the lock happens-after the wait.
    pub fn last_wait_span(&self) -> trace::SpanId {
        self.last_wait
    }

    /// Release the lock guarding endpoint `ep` at the critical section's
    /// end. The span the holder just executed under the lock becomes the
    /// chain head for the next waiter's happens-after edge.
    pub fn release(&mut self, ep: u32, end: SimTime, holder_stage: trace::SpanId) {
        let Some(slot) = self.slot(ep) else {
            return;
        };
        debug_assert!(
            end >= self.free_at[slot],
            "critical sections on one lock must not overlap"
        );
        self.free_at[slot] = end;
        if !holder_stage.is_none() {
            self.track[slot] = holder_stage;
        }
    }

    /// Total acquisitions (zero under [`LockGranularity::Independent`]).
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Acquisitions that had to wait.
    pub fn contended(&self) -> u64 {
        self.contended
    }

    /// Total exposed lock-wait time across all threads.
    pub fn total_wait(&self) -> SimDuration {
        self.total_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// Closed-form reference for a global lock: the exposed wait is the
    /// serialization delta of a single-server queue,
    ///
    /// ```text
    /// C_0 = a_0 + d_0
    /// C_i = max(a_i, C_{i-1}) + d_i
    /// total_wait = Σ_i max(0, C_{i-1} − a_i)
    /// ```
    ///
    /// for critical sections of duration `d_i` arriving at `a_i`, sorted
    /// by arrival (ties in acquisition order). Returns the completion of
    /// the last section and the summed wait.
    fn serialization_delta(schedule: &[(SimTime, SimDuration)]) -> (SimTime, SimDuration) {
        let mut free = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for &(arrival, duration) in schedule {
            if free > arrival {
                total += free.since(arrival);
                free += duration;
            } else {
                free = arrival + duration;
            }
        }
        (free, total)
    }

    #[test]
    fn global_lock_serializes_across_endpoints() {
        let mut m = LockModel::new(LockGranularity::GlobalLock, 4);
        let s0 = m.acquire(0, t(0), trace::SpanId::NONE);
        assert_eq!(s0, t(0));
        m.release(0, t(100), trace::SpanId::NONE);
        // A different endpoint still waits on the one global lock.
        let s1 = m.acquire(3, t(40), trace::SpanId::NONE);
        assert_eq!(s1, t(100));
        assert_eq!(m.contended(), 1);
        assert_eq!(m.total_wait(), SimDuration::from_ns(60));
    }

    #[test]
    fn per_endpoint_lock_isolates_endpoints() {
        let mut m = LockModel::new(LockGranularity::PerEndpointLock, 2);
        m.acquire(0, t(0), trace::SpanId::NONE);
        m.release(0, t(100), trace::SpanId::NONE);
        // Endpoint 1 is free; endpoint 0 is not.
        assert_eq!(m.acquire(1, t(10), trace::SpanId::NONE), t(10));
        m.release(1, t(50), trace::SpanId::NONE);
        assert_eq!(m.acquire(0, t(10), trace::SpanId::NONE), t(100));
        assert_eq!(m.contended(), 1);
        assert_eq!(m.total_wait(), SimDuration::from_ns(90));
    }

    #[test]
    fn independent_never_waits_or_counts() {
        let mut m = LockModel::new(LockGranularity::Independent, 8);
        for i in 0..8 {
            assert_eq!(m.acquire(i, t(5), trace::SpanId::NONE), t(5));
            m.release(i, t(500), trace::SpanId::NONE);
        }
        assert_eq!(m.acquisitions(), 0);
        assert_eq!(m.contended(), 0);
        assert_eq!(m.total_wait(), SimDuration::ZERO);
    }

    #[test]
    fn uncontended_acquire_is_free() {
        let mut m = LockModel::new(LockGranularity::GlobalLock, 1);
        m.acquire(0, t(0), trace::SpanId::NONE);
        m.release(0, t(10), trace::SpanId::NONE);
        // Arriving exactly at free_at is not contention.
        assert_eq!(m.acquire(0, t(10), trace::SpanId::NONE), t(10));
        assert_eq!(m.contended(), 0);
    }

    #[test]
    fn contended_acquire_records_a_recovery_stage_when_traced() {
        let ((), task) = trace::collect(|| {
            let mut m = LockModel::new(LockGranularity::GlobalLock, 1);
            m.acquire(0, t(0), trace::SpanId::NONE);
            m.release(0, t(100), trace::SpanId::NONE);
            m.acquire(0, t(30), trace::SpanId::NONE);
        });
        let trace = trace::Trace::from_task(task);
        let spans: Vec<_> = trace
            .spans()
            .filter(|(_, s)| s.name == "lock_wait")
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].layer, trace::Layer::Recovery);
        assert_eq!(spans[0].start, t(30));
        assert_eq!(spans[0].dur, SimDuration::from_ns(70));
    }

    #[test]
    fn closed_form_matches_hand_computation() {
        // Sections (0,100), (40,50), (200,10): the second waits 60 ns,
        // the third arrives after the lock is free.
        let (last, wait) = serialization_delta(&[
            (t(0), SimDuration::from_ns(100)),
            (t(40), SimDuration::from_ns(50)),
            (t(200), SimDuration::from_ns(10)),
        ]);
        assert_eq!(wait, SimDuration::from_ns(60));
        assert_eq!(last, t(210));
    }

    proptest! {
        /// The event-level GlobalLock model agrees with the closed-form
        /// serialization delta on any arrival/duration schedule — every
        /// acquire's start time and the summed ledger.
        #[test]
        fn global_lock_wait_equals_serialization_delta(
            gaps in proptest::collection::vec((0u64..400, 1u64..300), 1..64),
            endpoints in 1u32..8,
        ) {
            // Monotone arrivals from random inter-arrival gaps; random
            // section durations; acquires spread round-robin over
            // endpoints (a global lock must not care which).
            let mut schedule = Vec::with_capacity(gaps.len());
            let mut arrival = 0u64;
            for &(gap, dur) in &gaps {
                arrival += gap;
                schedule.push((t(arrival), SimDuration::from_ns(dur)));
            }
            let mut m = LockModel::new(LockGranularity::GlobalLock, endpoints);
            let mut reference_free = SimTime::ZERO;
            for (i, &(a, d)) in schedule.iter().enumerate() {
                let ep = i as u32 % endpoints;
                let start = m.acquire(ep, a, trace::SpanId::NONE);
                let expect = if reference_free > a { reference_free } else { a };
                prop_assert_eq!(start, expect, "acquire {} start", i);
                m.release(ep, start + d, trace::SpanId::NONE);
                reference_free = start + d;
            }
            let (last, wait) = serialization_delta(&schedule);
            prop_assert_eq!(reference_free, last);
            prop_assert_eq!(m.total_wait(), wait, "ledger == closed form");
            prop_assert_eq!(m.acquisitions(), schedule.len() as u64);
        }

        /// Independent endpoints never wait, never count, and — on a
        /// traced run — never record a single `lock_wait` span, whatever
        /// the schedule. This is the "no lock exists" end of Zambre's
        /// spectrum, and what keeps independent-VI runs bit-identical to
        /// pre-lockmodel runs.
        #[test]
        fn independent_records_zero_lock_wait(
            schedule in proptest::collection::vec((0u64..500, 1u64..300, 0u32..8), 1..48),
        ) {
            let ((), task) = trace::collect(|| {
                let mut m = LockModel::new(LockGranularity::Independent, 8);
                for &(a, d, ep) in &schedule {
                    let start = m.acquire(ep, t(a), trace::SpanId::NONE);
                    assert_eq!(start, t(a), "independent acquire is immediate");
                    m.release(ep, t(a + d), trace::SpanId::NONE);
                }
                assert_eq!(m.acquisitions(), 0);
                assert_eq!(m.contended(), 0);
                assert_eq!(m.total_wait(), SimDuration::ZERO);
            });
            let trace = trace::Trace::from_task(task);
            let lock_waits = trace.spans().filter(|(_, s)| s.name == "lock_wait").count();
            prop_assert_eq!(lock_waits, 0, "no lock_wait span may exist");
        }

        /// Per-endpoint locks reduce to the closed form *per endpoint*:
        /// the total ledger is the sum of each endpoint's own
        /// serialization delta, computed independently.
        #[test]
        fn per_endpoint_wait_is_sum_of_per_endpoint_deltas(
            gaps in proptest::collection::vec((0u64..200, 1u64..200, 0u32..4), 1..64),
        ) {
            let mut arrival = 0u64;
            let mut m = LockModel::new(LockGranularity::PerEndpointLock, 4);
            let mut per_ep: Vec<Vec<(SimTime, SimDuration)>> = vec![Vec::new(); 4];
            let mut free = [SimTime::ZERO; 4];
            for &(gap, dur, ep) in &gaps {
                arrival += gap;
                let (a, d) = (t(arrival), SimDuration::from_ns(dur));
                per_ep[ep as usize].push((a, d));
                let start = m.acquire(ep, a, trace::SpanId::NONE);
                let f = free[ep as usize];
                prop_assert_eq!(start, if f > a { f } else { a });
                m.release(ep, start + d, trace::SpanId::NONE);
                free[ep as usize] = start + d;
            }
            let want: SimDuration = per_ep
                .iter()
                .map(|s| serialization_delta(s).1)
                .fold(SimDuration::ZERO, |acc, w| acc + w);
            prop_assert_eq!(m.total_wait(), want);
        }
    }
}
