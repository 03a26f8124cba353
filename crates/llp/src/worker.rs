//! The UCT worker: one CPU core driving one NIC.
//!
//! Since the scalable-endpoints refactor the worker is two halves:
//!
//! * [`Core`] — the CPU side: clock, calibrated cost model, jitter RNG,
//!   the serial trace spine, and the post/progress *logic*;
//! * [`Endpoint`] — the VI the core drives: QP identity, software ring
//!   occupancy, WR allocator, CQ stash (see [`crate::endpoint`]).
//!
//! Every `Core` operation takes the endpoint it drives as an explicit
//! `&mut Endpoint` handle, so N threads can share one endpoint (under a
//! [`crate::lockmodel`] granularity) or own one each. [`Worker`] bundles
//! one core with one endpoint — the common single-threaded shape every
//! existing benchmark uses — and delegates; its behavior is bit-for-bit
//! what it was before the split.

use crate::costs::{LlpCosts, Phase};
use crate::endpoint::Endpoint;
use bband_fabric::NodeId;
use bband_nic::{Cluster, Cqe, CqeKind, Opcode, PostDescriptor, QpId, WrId, MAX_INLINE};
use bband_pcie::LinkTap;
use bband_profiling::Profiler;
use bband_sim::{CpuClock, Pcg64, SimDuration, SimTime};
use bband_trace as trace;

/// Why a post did not happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The transmit queue is full; progress the worker and retry — §4.2's
    /// "busy post".
    Busy,
}

/// One core's side of the transport: CPU clock, calibrated cost model,
/// and the post/progress logic, driving any [`Endpoint`] handed to it.
#[derive(Debug)]
pub struct Core {
    node: NodeId,
    cpu: CpuClock,
    costs: LlpCosts,
    rng: Pcg64,
    /// Trace span of this core's most recent CPU-side stage (the serial
    /// "CPU spine": each post/busy/progress span depends on the previous
    /// one). [`bband_trace::SpanId::NONE`] on untraced runs.
    last_cpu_stage: trace::SpanId,
    /// Diagnostics.
    pub busy_posts: u64,
    pub successful_posts: u64,
    pub progress_calls: u64,
    pub spin_polls: u64,
}

impl Core {
    /// A core on `node` whose jitter stream is salted with `lane` (the
    /// QP index for one-endpoint-per-core setups, a thread index when
    /// several cores share an endpoint) — the exact seeding the
    /// pre-split worker used for its QP.
    pub fn on_lane(node: NodeId, lane: u32, costs: LlpCosts, seed: u64) -> Self {
        Core {
            node,
            cpu: CpuClock::new(),
            costs,
            rng: Pcg64::new(seed ^ (0xC0DE << 4) ^ node.0 as u64 ^ ((lane as u64) << 32)),
            last_cpu_stage: trace::SpanId::NONE,
            busy_posts: 0,
            successful_posts: 0,
            progress_calls: 0,
            spin_polls: 0,
        }
    }

    /// This core's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Local CPU time.
    pub fn now(&self) -> SimTime {
        self.cpu.now()
    }

    /// Mutable access to the clock (benchmarks charge their own loop
    /// bookkeeping, e.g. the measurement update, through this).
    pub fn cpu_mut(&mut self) -> &mut CpuClock {
        &mut self.cpu
    }

    /// Cost model in use.
    pub fn costs(&self) -> &LlpCosts {
        &self.costs
    }

    /// The most recent CPU-side trace stage (the serial core spine);
    /// lock models chain exposed waits after it.
    pub fn last_cpu_stage(&self) -> trace::SpanId {
        self.last_cpu_stage
    }

    /// Record an externally-computed CPU stage onto the serial spine
    /// (the lock model's exposed `lock_wait` lands here).
    pub fn set_last_cpu_stage(&mut self, span: trace::SpanId) {
        self.last_cpu_stage = span;
    }

    fn sample(&mut self, base: SimDuration) -> SimDuration {
        self.costs.jitter.sample(base, &mut self.rng)
    }

    /// Execute the five phases of an `LLP_post` on the CPU clock and hand
    /// the descriptor to the hardware. `uct_ep_put_short` when `opcode` is
    /// [`Opcode::RdmaWrite`], `uct_ep_am_short` when [`Opcode::Send`].
    #[allow(clippy::too_many_arguments)]
    pub fn post(
        &mut self,
        ep: &mut Endpoint,
        cluster: &mut Cluster,
        opcode: Opcode,
        dst: NodeId,
        payload: u32,
        signaled: bool,
        tap: &mut dyn LinkTap,
    ) -> Result<WrId, PostError> {
        self.post_tagged(ep, cluster, opcode, dst, payload, signaled, 0, tap)
    }

    /// [`Core::post`] with an application tag (two-sided sends).
    #[allow(clippy::too_many_arguments)]
    pub fn post_tagged(
        &mut self,
        ep: &mut Endpoint,
        cluster: &mut Cluster,
        opcode: Opcode,
        dst: NodeId,
        payload: u32,
        signaled: bool,
        tag: u64,
        tap: &mut dyn LinkTap,
    ) -> Result<WrId, PostError> {
        let t0 = self.cpu.now();
        if ep.is_full() {
            // Busy post: the quick occupancy check and bail-out.
            let d = self.sample(self.costs.busy_post);
            self.cpu.advance(d);
            self.busy_posts += 1;
            self.last_cpu_stage = trace::stage(
                trace::Layer::Llp,
                "busy_post",
                t0,
                self.cpu.now(),
                ep.next_wr_id(),
                &[self.last_cpu_stage],
            );
            return Err(PostError::Busy);
        }
        let wr_id = ep.alloc_wr();
        // Inline only up to the NIC's limit; larger payloads ride a PIO
        // descriptor whose payload the NIC DMA-reads (§2 step 3).
        let desc = PostDescriptor {
            wr_id,
            qp: ep.qp(),
            dst_qp: QpId(0),
            opcode,
            dst,
            payload,
            inline: payload <= MAX_INLINE,
            pio: true,
            signaled,
            tag,
        };
        let chunks = desc.pio_chunks();
        // Phase 1: prepare the message descriptor (+ inline memcpy).
        let d = self.sample(self.costs.md_setup);
        self.cpu.advance(d);
        // Phase 2: store barrier for the MD.
        let d = self.sample(self.costs.barrier_md);
        self.cpu.advance(d);
        // Phases 3–4: DoorBell-counter increment + its barrier.
        let d = self.sample(self.costs.barrier_dbc);
        self.cpu.advance(d);
        // Phase 5: PIO copy, one 64-byte chunk at a time, + optional flush.
        for _ in 0..chunks {
            let d = self.sample(self.costs.pio_copy_per_chunk);
            self.cpu.advance(d);
        }
        if !self.costs.pio_flush.is_zero() {
            let d = self.sample(self.costs.pio_flush);
            self.cpu.advance(d);
        }
        // Misc: call overhead, branches.
        let d = self.sample(self.costs.post_misc);
        self.cpu.advance(d);
        // OS noise occasionally lands on the post boundary.
        let spike = self.costs.noise.sample(&mut self.rng);
        if !spike.is_zero() {
            self.cpu.advance(spike);
        }
        self.last_cpu_stage = trace::stage(
            trace::Layer::Llp,
            "LLP_post",
            t0,
            self.cpu.now(),
            wr_id.0,
            &[self.last_cpu_stage],
        );
        // Hand to hardware at the CPU's current instant; the hardware
        // stages this post spawns chain back to the LLP_post span.
        cluster.post_with_cause(self.cpu.now(), self.node, desc, self.last_cpu_stage, tap);
        ep.on_posted();
        self.successful_posts += 1;
        Ok(wr_id)
    }

    /// Instrumented post: wraps exactly one phase (or the whole post) with
    /// the UCS profiler, honouring §3's rule of measuring one component at
    /// a time. Returns `Err(Busy)` without measuring if the ring is full.
    #[allow(clippy::too_many_arguments)]
    pub fn post_profiled(
        &mut self,
        ep: &mut Endpoint,
        cluster: &mut Cluster,
        opcode: Opcode,
        dst: NodeId,
        payload: u32,
        profiler: &mut Profiler,
        measure: Option<Phase>,
        tap: &mut dyn LinkTap,
    ) -> Result<WrId, PostError> {
        if ep.is_full() {
            let d = self.sample(self.costs.busy_post);
            self.cpu.advance(d);
            self.busy_posts += 1;
            return Err(PostError::Busy);
        }
        let wr_id = ep.alloc_wr();
        let desc = PostDescriptor {
            wr_id,
            qp: ep.qp(),
            dst_qp: QpId(0),
            opcode,
            dst,
            payload,
            inline: true,
            pio: true,
            signaled: true,
            tag: 0,
        };
        let chunks = desc.pio_chunks();
        let whole = if measure.is_none() {
            Some(profiler.begin(&mut self.cpu))
        } else {
            None
        };
        let run_phase = |c: &mut Core, phase: Phase, prof: &mut Profiler| {
            let handle = (measure == Some(phase)).then(|| prof.begin(&mut c.cpu));
            let reps = if phase == Phase::PioCopy { chunks } else { 1 };
            for _ in 0..reps {
                let d = c.sample(c.costs.phase_mean(phase));
                c.cpu.advance(d);
            }
            if let Some(h) = handle {
                prof.end(phase.region_name(), h, &mut c.cpu);
            }
        };
        for phase in Phase::ALL {
            run_phase(self, phase, profiler);
        }
        if let Some(h) = whole {
            profiler.end("llp_post", h, &mut self.cpu);
        }
        cluster.post(self.cpu.now(), self.node, desc, tap);
        ep.on_posted();
        self.successful_posts += 1;
        Ok(wr_id)
    }

    /// Pre-post a receive buffer.
    pub fn post_recv(
        &mut self,
        ep: &mut Endpoint,
        cluster: &mut Cluster,
        len: u32,
        tap: &mut dyn LinkTap,
    ) -> WrId {
        let wr_id = ep.alloc_wr();
        cluster.post_recv(self.cpu.now(), self.node, wr_id, len, tap);
        wr_id
    }

    /// One `uct_worker_progress` call: pay the progress cost (dominated by
    /// the load barrier), let hardware catch up to the CPU clock, and
    /// dequeue at most one CQ entry.
    pub fn progress(
        &mut self,
        ep: &mut Endpoint,
        cluster: &mut Cluster,
        tap: &mut dyn LinkTap,
    ) -> Option<Cqe> {
        let t0 = self.cpu.now();
        let d = self.sample(self.costs.prog);
        self.cpu.advance(d);
        let arg = self.progress_calls;
        self.progress_calls += 1;
        cluster.advance_to(self.cpu.now(), tap);
        let cqe = if let Some(stashed) = ep.pop_stashed() {
            Some(stashed)
        } else {
            let cqe = cluster.pop_cqe_visible(self.node, ep.qp(), self.cpu.now());
            if let Some(ref c) = cqe {
                ep.note_completion(c);
            }
            cqe
        };
        // The poll that dequeues a completion happens-after both the
        // previous CPU stage (serial core) and the DMA write it observed.
        let hw = cqe.as_ref().map_or(trace::SpanId::NONE, |c| c.cause);
        self.last_cpu_stage = trace::stage(
            trace::Layer::Llp,
            "LLP_prog",
            t0,
            self.cpu.now(),
            arg,
            &[self.last_cpu_stage, hw],
        );
        cqe
    }

    /// Spin until a completion of `kind` arrives; other completions are
    /// stashed for later waits. The CPU fast-forwards across dead time (a
    /// real core burns the same wall-clock spinning on the CQ), then pays
    /// exactly one successful progress call — the `LLP_prog` the latency
    /// model charges.
    pub fn wait(
        &mut self,
        ep: &mut Endpoint,
        cluster: &mut Cluster,
        kind: CqeKind,
        tap: &mut dyn LinkTap,
    ) -> Cqe {
        // Check already-stashed completions first.
        if let Some(cqe) = ep.take_stashed(kind) {
            return cqe;
        }
        loop {
            cluster.advance_to(self.cpu.now(), tap);
            // Drain whatever is visible right now.
            while let Some(cqe) = cluster.pop_cqe_visible(self.node, ep.qp(), self.cpu.now()) {
                ep.note_completion(&cqe);
                if cqe.kind == kind {
                    // The successful poll that observed it.
                    let t0 = self.cpu.now();
                    let d = self.sample(self.costs.prog);
                    self.cpu.advance(d);
                    self.last_cpu_stage = trace::stage(
                        trace::Layer::Llp,
                        "LLP_prog",
                        t0,
                        self.cpu.now(),
                        cqe.wr_id.0,
                        &[self.last_cpu_stage, cqe.cause],
                    );
                    self.progress_calls += 1;
                    return cqe;
                }
                ep.stash(cqe);
            }
            // Nothing observable yet: spin forward to the earliest instant
            // something could change.
            match cluster.next_wake(self.node, ep.qp()) {
                Some(t) => {
                    // Count the failed polls the core burned while waiting.
                    let wait = t.saturating_since(self.cpu.now());
                    self.spin_polls += wait.as_ps() / self.costs.prog.as_ps().max(1);
                    self.cpu.advance_to(t);
                }
                None => panic!(
                    "deadlock: waiting for a {kind:?} completion on {:?} with no pending hardware",
                    self.node
                ),
            }
        }
    }
}

/// One core bound to one endpoint — the single-threaded shape every
/// benchmark that predates scalable endpoints uses. Pure delegation to
/// [`Core`] methods on the owned [`Endpoint`].
#[derive(Debug)]
pub struct Worker {
    core: Core,
    ep: Endpoint,
}

impl Worker {
    /// Worker for `node` on queue pair 0 with calibrated costs.
    pub fn new(node: NodeId, costs: LlpCosts, seed: u64) -> Self {
        Worker::on_qp(node, QpId(0), costs, seed)
    }

    /// Worker for `node` on a specific queue pair (one QP per core).
    pub fn on_qp(node: NodeId, qp: QpId, costs: LlpCosts, seed: u64) -> Self {
        Worker {
            core: Core::on_lane(node, qp.0, costs, seed),
            ep: Endpoint::new(qp),
        }
    }

    /// Split into the CPU half and the endpoint half (multi-endpoint
    /// drivers build a `Core` per thread and `Endpoint`s separately;
    /// this is the bridge from the bundled shape).
    pub fn into_parts(self) -> (Core, Endpoint) {
        (self.core, self.ep)
    }

    /// The CPU half.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// The endpoint this worker drives.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// Cap the software ring (tests use small rings to exercise busy
    /// posts deterministically).
    pub fn set_ring_capacity(&mut self, cap: u32) {
        self.ep.set_ring_capacity(cap);
    }

    /// This worker's node.
    pub fn node(&self) -> NodeId {
        self.core.node()
    }

    /// This worker's queue pair.
    pub fn qp(&self) -> QpId {
        self.ep.qp()
    }

    /// Local CPU time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Mutable access to the clock (benchmarks charge their own loop
    /// bookkeeping, e.g. the measurement update, through this).
    pub fn cpu_mut(&mut self) -> &mut CpuClock {
        self.core.cpu_mut()
    }

    /// Current ring occupancy.
    pub fn occupancy(&self) -> u32 {
        self.ep.occupancy()
    }

    /// Cost model in use.
    pub fn costs(&self) -> &LlpCosts {
        self.core.costs()
    }

    /// Busy posts bounced off a full ring.
    pub fn busy_posts(&self) -> u64 {
        self.core.busy_posts
    }

    /// Posts that reached the hardware.
    pub fn successful_posts(&self) -> u64 {
        self.core.successful_posts
    }

    /// Progress calls issued.
    pub fn progress_calls(&self) -> u64 {
        self.core.progress_calls
    }

    /// Failed polls burned while spinning in [`Worker::wait`].
    pub fn spin_polls(&self) -> u64 {
        self.core.spin_polls
    }

    /// See [`Core::post`].
    pub fn post(
        &mut self,
        cluster: &mut Cluster,
        opcode: Opcode,
        dst: NodeId,
        payload: u32,
        signaled: bool,
        tap: &mut dyn LinkTap,
    ) -> Result<WrId, PostError> {
        self.core
            .post(&mut self.ep, cluster, opcode, dst, payload, signaled, tap)
    }

    /// See [`Core::post_tagged`].
    #[allow(clippy::too_many_arguments)]
    pub fn post_tagged(
        &mut self,
        cluster: &mut Cluster,
        opcode: Opcode,
        dst: NodeId,
        payload: u32,
        signaled: bool,
        tag: u64,
        tap: &mut dyn LinkTap,
    ) -> Result<WrId, PostError> {
        self.core.post_tagged(
            &mut self.ep,
            cluster,
            opcode,
            dst,
            payload,
            signaled,
            tag,
            tap,
        )
    }

    /// See [`Core::post_profiled`].
    #[allow(clippy::too_many_arguments)]
    pub fn post_profiled(
        &mut self,
        cluster: &mut Cluster,
        opcode: Opcode,
        dst: NodeId,
        payload: u32,
        profiler: &mut Profiler,
        measure: Option<Phase>,
        tap: &mut dyn LinkTap,
    ) -> Result<WrId, PostError> {
        self.core.post_profiled(
            &mut self.ep,
            cluster,
            opcode,
            dst,
            payload,
            profiler,
            measure,
            tap,
        )
    }

    /// See [`Core::post_recv`].
    pub fn post_recv(&mut self, cluster: &mut Cluster, len: u32, tap: &mut dyn LinkTap) -> WrId {
        self.core.post_recv(&mut self.ep, cluster, len, tap)
    }

    /// See [`Core::progress`].
    pub fn progress(&mut self, cluster: &mut Cluster, tap: &mut dyn LinkTap) -> Option<Cqe> {
        self.core.progress(&mut self.ep, cluster, tap)
    }

    /// See [`Core::wait`].
    pub fn wait(&mut self, cluster: &mut Cluster, kind: CqeKind, tap: &mut dyn LinkTap) -> Cqe {
        self.core.wait(&mut self.ep, cluster, kind, tap)
    }

    /// See [`Endpoint::clear_stashed`].
    pub fn clear_stashed(&mut self) {
        self.ep.clear_stashed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_pcie::NullTap;

    fn setup() -> (Cluster, Worker, Worker) {
        let cluster = Cluster::two_node_paper(11).deterministic();
        let w0 = Worker::new(NodeId(0), LlpCosts::default().deterministic(), 1);
        let w1 = Worker::new(NodeId(1), LlpCosts::default().deterministic(), 2);
        (cluster, w0, w1)
    }

    #[test]
    fn post_costs_exactly_llp_post() {
        let (mut cl, mut w, _) = setup();
        let mut tap = NullTap;
        let t0 = w.now();
        w.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap)
            .unwrap();
        let elapsed = w.now().since(t0).as_ns_f64();
        assert!(
            (elapsed - 175.42).abs() < 0.001,
            "LLP_post = {elapsed}, want 175.42"
        );
    }

    #[test]
    fn put_and_wait_completes() {
        let (mut cl, mut w, _) = setup();
        let mut tap = NullTap;
        let wr = w
            .post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap)
            .unwrap();
        let cqe = w.wait(&mut cl, CqeKind::SendComplete, &mut tap);
        assert_eq!(cqe.wr_id, wr);
        assert_eq!(w.occupancy(), 0);
        assert!(cl.rc_never_stalled());
    }

    #[test]
    fn ring_full_returns_busy_and_charges_busy_cost() {
        let (mut cl, mut w, _) = setup();
        let mut tap = NullTap;
        w.set_ring_capacity(2);
        w.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap)
            .unwrap();
        w.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap)
            .unwrap();
        let t0 = w.now();
        let err = w.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap);
        assert_eq!(err, Err(PostError::Busy));
        assert!((w.now().since(t0).as_ns_f64() - 8.99).abs() < 0.001);
        assert_eq!(w.busy_posts(), 1);
        // Waiting for a completion makes room again.
        w.wait(&mut cl, CqeKind::SendComplete, &mut tap);
        assert!(w.occupancy() < 2);
        assert!(w
            .post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap)
            .is_ok());
    }

    #[test]
    fn progress_costs_llp_prog() {
        let (mut cl, mut w, _) = setup();
        let mut tap = NullTap;
        let t0 = w.now();
        let none = w.progress(&mut cl, &mut tap);
        assert!(none.is_none());
        assert!((w.now().since(t0).as_ns_f64() - 61.63).abs() < 0.001);
    }

    #[test]
    fn send_recv_ping_completes_both_sides() {
        let (mut cl, mut w0, mut w1) = setup();
        let mut tap = NullTap;
        let rwr = w1.post_recv(&mut cl, 64, &mut tap);
        w0.post(&mut cl, Opcode::Send, NodeId(1), 8, true, &mut tap)
            .unwrap();
        let rx = w1.wait(&mut cl, CqeKind::RecvComplete, &mut tap);
        assert_eq!(rx.wr_id, rwr);
        assert_eq!(rx.payload, 8);
        let tx = w0.wait(&mut cl, CqeKind::SendComplete, &mut tap);
        assert_eq!(tx.kind, CqeKind::SendComplete);
    }

    #[test]
    fn wait_stashes_foreign_completions() {
        // Node 0 sends a ping and waits for the *pong receive*; its own
        // send completion must be stashed, not lost.
        let (mut cl, mut w0, mut w1) = setup();
        let mut tap = NullTap;
        w0.post_recv(&mut cl, 64, &mut tap);
        w1.post_recv(&mut cl, 64, &mut tap);
        w0.post(&mut cl, Opcode::Send, NodeId(1), 8, true, &mut tap)
            .unwrap();
        // Target receives and pongs.
        w1.wait(&mut cl, CqeKind::RecvComplete, &mut tap);
        w1.post(&mut cl, Opcode::Send, NodeId(0), 8, true, &mut tap)
            .unwrap();
        // Initiator waits for the pong: the ping's send CQE arrives first.
        let rx = w0.wait(&mut cl, CqeKind::RecvComplete, &mut tap);
        assert_eq!(rx.kind, CqeKind::RecvComplete);
        // The stashed send completion is delivered by the next progress.
        let stashed = w0.progress(&mut cl, &mut tap).expect("stashed send CQE");
        assert_eq!(stashed.kind, CqeKind::SendComplete);
    }

    #[test]
    fn profiled_post_measures_requested_phase_only() {
        let (mut cl, mut w, _) = setup();
        let mut prof = Profiler::new(3);
        for _ in 0..200 {
            let mut tap = NullTap;
            w.post_profiled(
                &mut cl,
                Opcode::RdmaWrite,
                NodeId(1),
                8,
                &mut prof,
                Some(Phase::PioCopy),
                &mut tap,
            )
            .unwrap();
            w.wait(&mut cl, CqeKind::SendComplete, &mut tap);
        }
        let pio = prof.deducted_mean_ns(Phase::PioCopy.region_name()).unwrap();
        assert!((pio - 94.25).abs() < 1.0, "PIO copy = {pio}");
        assert!(prof.region("llp_post").is_none(), "total not measured");
        assert!(prof.region(Phase::MdSetup.region_name()).is_none());
    }

    #[test]
    fn profiled_post_total_recovers_llp_post() {
        let (mut cl, mut w, _) = setup();
        let mut prof = Profiler::new(4);
        let mut tap = NullTap;
        for _ in 0..200 {
            w.post_profiled(
                &mut cl,
                Opcode::RdmaWrite,
                NodeId(1),
                8,
                &mut prof,
                None,
                &mut tap,
            )
            .unwrap();
            w.wait(&mut cl, CqeKind::SendComplete, &mut tap);
        }
        let total = prof.deducted_mean_ns("llp_post").unwrap();
        assert!((total - 175.42).abs() < 1.0, "LLP_post = {total}");
    }

    #[test]
    fn unsignaled_ring_accounting_via_moderated_cqe() {
        let (mut cl, mut w, _) = setup();
        let mut tap = NullTap;
        for _ in 0..3 {
            w.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, false, &mut tap)
                .unwrap();
        }
        w.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap)
            .unwrap();
        assert_eq!(w.occupancy(), 4);
        let cqe = w.wait(&mut cl, CqeKind::SendComplete, &mut tap);
        assert_eq!(cqe.completes, 4);
        assert_eq!(w.occupancy(), 0, "one CQE frees all four slots");
    }

    #[test]
    fn per_qp_completion_isolation() {
        // Two cores (QPs) on the same node: each sees exactly its own
        // completions, in order — no cross-talk through the shared NIC.
        let mut cl = Cluster::two_node_paper(77).deterministic();
        let mut tap = NullTap;
        let mut wa = Worker::on_qp(
            NodeId(0),
            bband_nic::QpId(0),
            LlpCosts::default().deterministic(),
            1,
        );
        let mut wb = Worker::on_qp(
            NodeId(0),
            bband_nic::QpId(1),
            LlpCosts::default().deterministic(),
            2,
        );
        let mut a_wrs = Vec::new();
        let mut b_wrs = Vec::new();
        // Interleave posts from both cores (min-clock order).
        for _ in 0..10 {
            let (w, wrs) = if wa.now() <= wb.now() {
                (&mut wa, &mut a_wrs)
            } else {
                (&mut wb, &mut b_wrs)
            };
            wrs.push(
                w.post(&mut cl, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap)
                    .unwrap(),
            );
        }
        let end = cl.run_until_idle(&mut tap);
        wa.cpu_mut().advance_to(end);
        wb.cpu_mut().advance_to(end);
        let mut got_a = Vec::new();
        while let Some(cqe) = wa.progress(&mut cl, &mut tap) {
            got_a.push(cqe.wr_id);
        }
        let mut got_b = Vec::new();
        while let Some(cqe) = wb.progress(&mut cl, &mut tap) {
            got_b.push(cqe.wr_id);
        }
        assert_eq!(got_a, a_wrs, "QP 0 must see exactly its own CQEs");
        assert_eq!(got_b, b_wrs, "QP 1 must see exactly its own CQEs");
        assert_eq!(wa.occupancy(), 0);
        assert_eq!(wb.occupancy(), 0);
    }

    #[test]
    fn multi_chunk_post_pays_pio_per_chunk() {
        let (mut cl, mut w, _) = setup();
        let mut tap = NullTap;
        let t0 = w.now();
        // 100-byte inline payload: 3 chunks (32 B ctrl + 100 B).
        w.post(&mut cl, Opcode::Send, NodeId(1), 100, true, &mut tap)
            .unwrap();
        let elapsed = w.now().since(t0).as_ns_f64();
        assert!(
            (elapsed - (175.42 + 2.0 * 94.25)).abs() < 0.001,
            "3-chunk post = {elapsed}"
        );
    }

    #[test]
    fn split_worker_matches_bundled_worker_bit_exact() {
        // Driving a Core + explicit Endpoint by hand replays the exact
        // virtual-time sequence of the bundled Worker (the refactor's
        // no-regression gate at the LLP layer).
        let mut cl_a = Cluster::two_node_paper(11).deterministic();
        let mut cl_b = Cluster::two_node_paper(11).deterministic();
        let mut tap = NullTap;
        let mut w = Worker::on_qp(NodeId(0), QpId(3), LlpCosts::default(), 9);
        let (mut core, mut ep) =
            Worker::on_qp(NodeId(0), QpId(3), LlpCosts::default(), 9).into_parts();
        for _ in 0..50 {
            let a = w.post(&mut cl_a, Opcode::RdmaWrite, NodeId(1), 8, true, &mut tap);
            let b = core.post(
                &mut ep,
                &mut cl_b,
                Opcode::RdmaWrite,
                NodeId(1),
                8,
                true,
                &mut tap,
            );
            assert_eq!(a, b);
            let ca = w.wait(&mut cl_a, CqeKind::SendComplete, &mut tap);
            let cb = core.wait(&mut ep, &mut cl_b, CqeKind::SendComplete, &mut tap);
            assert_eq!(ca.wr_id, cb.wr_id);
            assert_eq!(w.now(), core.now(), "clocks must stay in lockstep");
        }
        assert_eq!(w.busy_posts(), core.busy_posts);
        assert_eq!(w.occupancy(), ep.occupancy());
    }
}
