//! The assembled two-node (or N-node) system.
//!
//! One [`Cluster`] owns, per node: a root complex, a PCIe link, and a NIC;
//! plus one network model and one hardware event queue shared by all nodes.
//! The software stack drives it through four operations:
//!
//! * [`Cluster::post`] — the tail end of an `LLP_post`: the MMIO write(s)
//!   that push a descriptor to the NIC (doorbell or PIO chunks);
//! * [`Cluster::post_recv`] — pre-posting a receive buffer for two-sided
//!   sends;
//! * [`Cluster::advance_to`] — let hardware progress up to the CPU's local
//!   time (a real CPU doesn't "drain events", but its loads observe
//!   whatever DMA writes completed before them — same thing);
//! * [`Cluster::pop_cqe`] — read the completion queue in host memory.
//!
//! Every TLP and DLLP crossing the tap node's link is reported to the
//! attached [`LinkTap`] with the same timestamp convention as the paper's
//! analyzer (Figure 3: the tap sits *just before the NIC*, so downstream
//! packets are stamped on arrival at the NIC and upstream packets on
//! departure from it).

use crate::config::NicConfig;
use crate::descriptor::{Cqe, CqeKind, Opcode, PostDescriptor, QpId, WrId, MAX_INLINE};
use bband_fabric::{NetworkModel, NodeId, Packet, PacketId, PacketKind, MTU};
use bband_pcie::{
    Dllp, FlowControl, LinkDirection, LinkModel, LinkTap, RcAction, RootComplex, Tlp, TlpId,
    TlpPurpose,
};
use bband_sim::{EventQueue, IdMap, IdRing, Pcg64, SimDuration, SimTime, StallSchedule};
use bband_trace as trace;
use std::collections::VecDeque;

/// `qp`'s entry in a per-QP table, grown on first use: QP ids are small
/// dense endpoint indices, so a `Vec` indexed by id is the whole map.
fn qp_slot<T: Default>(table: &mut Vec<T>, qp: QpId) -> &mut T {
    let i = qp.0 as usize;
    if i >= table.len() {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

/// Hardware events circulating in the cluster.
#[derive(Debug, Clone, Copy)]
pub enum HwEvent {
    /// A downstream TLP reached the NIC.
    TlpAtNic { node: NodeId, tlp: Tlp },
    /// An upstream TLP reached the root complex.
    TlpAtRc { node: NodeId, tlp: Tlp },
    /// A DLLP reached the NIC.
    DllpAtNic { node: NodeId, dllp: Dllp },
    /// A DLLP reached the root complex.
    DllpAtRc { node: NodeId, dllp: Dllp },
    /// A network packet reached a node's NIC.
    NetAtNic { node: NodeId, pkt: Packet },
    /// The RC finished writing a TLP's payload into host memory.
    MemVisible { node: NodeId, tlp: Tlp },
}

/// A send operation the NIC has accepted but not yet seen acknowledged.
#[derive(Debug, Clone, Copy)]
struct InflightSend {
    desc: PostDescriptor,
}

/// Descriptor/payload fetch progress for the doorbell (non-PIO) path.
#[derive(Debug, Clone, Copy)]
enum FetchStage {
    /// Waiting for the descriptor CplD; then fetch payload (or transmit if
    /// inline).
    Descriptor(PostDescriptor),
    /// Waiting for the payload CplD; then transmit.
    Payload(PostDescriptor),
}

/// Multi-chunk PIO assembly progress.
#[derive(Debug, Clone, Copy)]
struct PioAssembly {
    desc: PostDescriptor,
    chunks_remaining: u32,
}

/// Per-node NIC state. The in-flight tables are [`IdRing`]s: each is
/// keyed by ids issued in increasing order (packet ids, RC- or
/// NIC-issued TLP ids, PIO operation numbers) and retires them within a
/// hardware round trip. `fetching` stays an [`IdMap`]: it holds
/// RC-issued doorbell ids and NIC-issued read ids at once, two counters
/// no one window spans.
#[derive(Debug)]
struct Nic {
    cfg: NicConfig,
    ids: bband_pcie::TlpIdGen,
    /// Posted-send operations awaiting transport ACK, by message packet id.
    inflight: IdRing<InflightSend>,
    /// Doorbell-path fetches in flight, keyed by doorbell/MRd TLP id.
    fetching: IdMap<TlpId, FetchStage>,
    /// PIO chunk (RC-issued TLP id) → operation map and per-operation
    /// assembly state.
    pio_chunk_map: IdRing<u64>,
    pio_ops: IdRing<PioAssembly>,
    next_pio_op: u64,
    /// Posted receives (FIFO matching, as an IB receive queue).
    rx_posted: VecDeque<(WrId, u32)>,
    /// Two-sided messages that arrived before a receive was posted.
    unexpected: VecDeque<Packet>,
    /// Completed-but-unsignaled sends awaiting the next signaled CQE,
    /// indexed by queue pair (see `qp_slot`).
    unsignaled_backlog: Vec<u32>,
    /// Hardware ring occupancy per queue pair — N doorbells, one per VI
    /// (defense in depth; the software ring check lives in the LLP).
    /// `cfg.txq_depth` bounds each QP's ring independently, as on real
    /// hardware where every QP owns its own send queue.
    occupancy: Vec<u32>,
    /// CQE DMA-writes in flight: TLP id → (wr_id, qp, completes).
    cqe_in_flight: IdRing<(WrId, QpId, u32)>,
    /// Receive-payload DMA-writes in flight:
    /// TLP id → (wr_id, qp, len, tag, src).
    recv_in_flight: IdRing<(WrId, QpId, u32, u64, NodeId)>,
    /// Receiver-side credit bookkeeping driving UpdateFC back to the RC.
    fc_recv: FlowControl,
}

impl Nic {
    fn new(cfg: NicConfig) -> Self {
        Nic {
            cfg,
            ids: bband_pcie::TlpIdGen::new(),
            inflight: IdRing::default(),
            fetching: IdMap::default(),
            pio_chunk_map: IdRing::default(),
            pio_ops: IdRing::default(),
            next_pio_op: 0,
            rx_posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            unsignaled_backlog: Vec::new(),
            occupancy: Vec::new(),
            cqe_in_flight: IdRing::default(),
            recv_in_flight: IdRing::default(),
            fc_recv: FlowControl::connectx4_default(),
        }
    }

    /// NIC-originated TLP ids live in a namespace disjoint from the RC's.
    fn next_tlp_id(&mut self, node: NodeId) -> TlpId {
        let base = self.ids.next();
        TlpId(base.0 | 1 << 62 | (node.0 as u64) << 48)
    }
}

/// Per-node hardware: RC + link + NIC + host-visible completion queue.
#[derive(Debug)]
struct NodeState {
    rc: RootComplex,
    link: LinkModel,
    nic: Nic,
    /// Per-QP completion queues visible to CPU loads (entries appear only
    /// after `MemVisible`), indexed by queue pair.
    host_cq: Vec<VecDeque<Cqe>>,
    link_rng: Pcg64,
    /// Happens-after cause of each in-flight TLP on this node's link
    /// (traced runs only; empty and untouched when tracing is disabled).
    /// Per node, because RC-issued TLP ids restart at 0 on every node.
    tlp_cause: IdMap<TlpId, trace::SpanId>,
    /// When each credit-parked MMIO write entered this node's RC pending
    /// queue — the start of its `credit_wait` stage (and of the
    /// stall-time accrual). Per node for the same reason as `tlp_cause`.
    stalled_at: IdMap<TlpId, SimTime>,
}

/// Node whose link carries the analyzer (the paper's "node 1").
const ANALYZER_NODE: NodeId = NodeId(0);

/// The assembled system.
pub struct Cluster {
    queue: EventQueue<HwEvent>,
    nodes: Vec<NodeState>,
    network: NetworkModel,
    net_rng: Pcg64,
    next_packet_id: u64,
    /// Diagnostics: total messages injected (launched onto the fabric).
    pub messages_injected: u64,
    /// Diagnostics: total transport ACKs received.
    pub acks_received: u64,
    /// Correlated (Markov-modulated) NIC injection-stall schedule per
    /// node: while a stall window is active the NIC defers launching
    /// messages onto the fabric.
    stalls: Vec<Option<StallSchedule>>,
    /// Diagnostics: messages whose launch a stall window deferred.
    pub nic_stalls: u64,
    /// Happens-after cause of each in-flight network packet (traced runs
    /// only; packet ids are cluster-wide).
    pkt_cause: IdMap<PacketId, trace::SpanId>,
    /// Per-node span of the RC's most recent downstream TLP departure: the
    /// shared RC track. Credit waits chain after it, so a starved pool
    /// shows up in the DAG as cross-core edges through one serialised RC.
    rc_track: Vec<trace::SpanId>,
    /// Virtual time lost to stall machinery (credit waits + Markov stall
    /// windows) — accrued exactly where the recovery-track stages are
    /// recorded, so it equals the trace's Recovery-layer total bit-exactly.
    stall_time: SimDuration,
    /// The actions of one root-complex call. Taken before the call and
    /// handed back, empty, by `apply_rc_actions`, so a TLP allocates
    /// nothing once the buffer has grown.
    rc_actions: Vec<RcAction>,
}

impl Cluster {
    /// Build a cluster of `n_nodes` identical nodes on the paper's network
    /// (one switch).
    pub fn new(n_nodes: usize, cfg: NicConfig, seed: u64) -> Self {
        assert!(n_nodes >= 2, "a cluster needs at least two nodes");
        let mut root = Pcg64::new(seed);
        let nodes = (0..n_nodes)
            .map(|i| NodeState {
                rc: RootComplex::new(),
                link: LinkModel::default(),
                nic: Nic::new(cfg.clone()),
                host_cq: Vec::new(),
                link_rng: root.fork(0x11A5 + i as u64),
                tlp_cause: IdMap::default(),
                stalled_at: IdMap::default(),
            })
            .collect();
        Cluster {
            queue: EventQueue::new(),
            nodes,
            network: NetworkModel::paper_default(),
            net_rng: root.fork(0xFAB),
            next_packet_id: 0,
            messages_injected: 0,
            acks_received: 0,
            stalls: vec![None; n_nodes],
            nic_stalls: 0,
            pkt_cause: IdMap::default(),
            rc_track: vec![trace::SpanId::NONE; n_nodes],
            stall_time: SimDuration::ZERO,
            rc_actions: Vec::new(),
        }
    }

    /// Two nodes with the paper's network (one switch), default NICs.
    pub fn two_node_paper(seed: u64) -> Self {
        Cluster::new(2, NicConfig::default(), seed)
    }

    /// Make every hardware latency deterministic (validation runs).
    pub fn deterministic(mut self) -> Self {
        self.network = self.network.deterministic();
        for n in &mut self.nodes {
            n.link = n.link.clone().deterministic();
        }
        self
    }

    /// One-way mean PCIe latency of node 0's link for a 64-byte TLP — the
    /// model's `PCIe` constant for this cluster.
    pub fn pcie_64b_mean(&self) -> bband_sim::SimDuration {
        self.nodes[0].link.pcie_64b()
    }

    /// Mean one-way network latency for an 8-byte message — the model's
    /// `Network` constant for this cluster.
    pub fn network_8b_mean(&self) -> bband_sim::SimDuration {
        let probe = Packet::message(
            PacketId(u64::MAX),
            PacketKind::Send,
            NodeId(0),
            NodeId(1),
            8,
        );
        self.network.network_mean(&probe)
    }

    /// RC-to-MEM model of a node.
    pub fn rc_to_mem(&self, node: NodeId) -> &bband_memsys::RcToMemModel {
        self.nodes[node.0 as usize].rc.rc_to_mem()
    }

    /// Swap in a different network model (what-if experiments).
    pub fn set_network(&mut self, network: NetworkModel) {
        self.network = network;
    }

    /// Swap every node's PCIe link model (what-if experiments, e.g. an
    /// SoC-integrated NIC with a NoC hop instead of a PCIe link).
    pub fn set_link_model(&mut self, link: LinkModel) {
        for n in &mut self.nodes {
            n.link = link.clone();
        }
    }

    /// Swap every node's RC-to-memory write model.
    pub fn set_rc_to_mem(&mut self, model: bband_memsys::RcToMemModel) {
        for n in &mut self.nodes {
            n.rc.set_rc_to_mem(model.clone());
        }
    }

    /// True if no node's RC ever stalled an MMIO write for credits — the
    /// invariant the paper observes with a single posting core.
    pub fn rc_never_stalled(&self) -> bool {
        self.nodes.iter().all(|n| n.rc.never_stalled())
    }

    /// Override every node's posted-credit pools: the RC's downstream
    /// issue pool and the NIC's receiver-side return bookkeeping. This is
    /// how a `--faults` plan's `credits` block reaches the cluster-backed
    /// experiments. Call right after construction (it resets RC state
    /// but keeps the RC-to-MEM model).
    pub fn with_credits(mut self, hdr: u32, data: u32, update_batch: u32) -> Self {
        for n in &mut self.nodes {
            let rc_to_mem = n.rc.rc_to_mem().clone();
            n.rc = RootComplex::with_flow_control(FlowControl::new(hdr, data, update_batch));
            n.rc.set_rc_to_mem(rc_to_mem);
            n.nic.fc_recv = FlowControl::new(hdr, data, update_batch);
        }
        self
    }

    /// Install a correlated (Markov-modulated) NIC injection-stall process
    /// on every node: alternating exponential up/down dwells with the given
    /// means — the Gilbert–Elliott-style analogue of the fault engine's
    /// `markov_stall` block. A non-positive `mean_down_ns` is a no-op.
    pub fn set_markov_stalls(&mut self, mean_up_ns: f64, mean_down_ns: f64, seed: u64) {
        for (i, slot) in self.stalls.iter_mut().enumerate() {
            let sched = StallSchedule::new(mean_up_ns, mean_down_ns, seed ^ 0x57A11 ^ (i as u64));
            *slot = sched.is_active().then_some(sched);
        }
    }

    /// Recovery activity visible at the cluster level. The hardware model
    /// here is fault-free (no loss or corruption is injected below the
    /// transport), so only credit stalls and configured Markov stall
    /// windows can engage; the other counters stay zero and
    /// [`RecoveryCounters::is_clean`](bband_profiling::RecoveryCounters::is_clean)
    /// holds iff no RC ever parked an MMIO write and no stall window
    /// deferred a launch.
    pub fn recovery_counters(&self) -> bband_profiling::RecoveryCounters {
        let mut k = bband_profiling::RecoveryCounters::new();
        k.credit_stalls = self.nodes.iter().map(|n| n.rc.stalled_issues).sum();
        k.nic_stalls = self.nic_stalls;
        k.recovery_time = self.stall_time;
        k
    }

    /// Consume the recorded happens-after cause of a TLP on `node`'s
    /// link, if any.
    fn tlp_dep(&mut self, node: NodeId, id: TlpId) -> trace::SpanId {
        let causes = &mut self.nodes[node.0 as usize].tlp_cause;
        if causes.is_empty() {
            trace::SpanId::NONE
        } else {
            causes.remove(&id).unwrap_or(trace::SpanId::NONE)
        }
    }

    /// Record `span` as the cause of an in-flight TLP on `node`'s link
    /// (traced runs only).
    fn link_tlp(&mut self, node: NodeId, id: TlpId, span: trace::SpanId) {
        if !span.is_none() {
            self.nodes[node.0 as usize].tlp_cause.insert(id, span);
        }
    }

    /// Consume the recorded happens-after cause of a packet, if any.
    fn pkt_dep(&mut self, id: PacketId) -> trace::SpanId {
        if self.pkt_cause.is_empty() {
            trace::SpanId::NONE
        } else {
            self.pkt_cause.remove(&id).unwrap_or(trace::SpanId::NONE)
        }
    }

    /// Record `span` as the cause of an in-flight packet (traced runs
    /// only).
    fn link_pkt(&mut self, id: PacketId, span: trace::SpanId) {
        if !span.is_none() {
            self.pkt_cause.insert(id, span);
        }
    }

    /// Hardware ring occupancy of a node's NIC, summed over its QPs.
    pub fn nic_occupancy(&self, node: NodeId) -> u32 {
        self.nodes[node.0 as usize].nic.occupancy.iter().sum()
    }

    /// Time of the next pending hardware event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// True when no hardware activity is pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    // ------------------------------------------------------------------
    // Software-visible operations
    // ------------------------------------------------------------------

    /// Post a work request: the MMIO write(s) that conclude an `LLP_post`.
    /// `now` is the CPU's clock after it paid the software-side costs
    /// (descriptor prep, barriers, PIO copy). Chunks of a PIO post enter
    /// the RC together; the NIC launches the message when the last chunk
    /// arrives.
    pub fn post(
        &mut self,
        now: SimTime,
        node: NodeId,
        desc: PostDescriptor,
        tap: &mut dyn LinkTap,
    ) {
        self.post_with_cause(now, node, desc, trace::SpanId::NONE, tap);
    }

    /// [`Cluster::post`] with an explicit happens-after cause: the span of
    /// the CPU-side work (`LLP_post`) that produced the MMIO write(s). The
    /// hardware stages spawned by this post — PCIe traversals, NIC
    /// processing, wire flight, completion delivery — chain their trace
    /// edges back to `cause`, so a traced run reconstructs the full
    /// software→hardware dependency DAG.
    pub fn post_with_cause(
        &mut self,
        now: SimTime,
        node: NodeId,
        desc: PostDescriptor,
        cause: trace::SpanId,
        tap: &mut dyn LinkTap,
    ) {
        // Hardware that was due before the post (UpdateFC credit returns,
        // CQE writes, ...) has already happened from the CPU's viewpoint.
        self.advance_to(now, tap);
        let mut actions = std::mem::take(&mut self.rc_actions);
        let n = &mut self.nodes[node.0 as usize];
        let ring = qp_slot(&mut n.nic.occupancy, desc.qp);
        assert!(
            *ring < n.nic.cfg.txq_depth,
            "TxQ overflow on {node:?} {:?}: the LLP must poll before posting",
            desc.qp
        );
        assert!(
            !desc.inline || desc.payload <= MAX_INLINE,
            "payload exceeds MAX_INLINE"
        );
        *ring += 1;
        let mut posted_ids: Vec<TlpId> = Vec::new();
        let mut parked_ids: Vec<TlpId> = Vec::new();
        let traced = trace::enabled() && !cause.is_none();
        if desc.pio {
            let op = n.nic.next_pio_op;
            n.nic.next_pio_op += 1;
            let chunks = desc.pio_chunks();
            n.nic.pio_ops.insert(
                op,
                PioAssembly {
                    desc,
                    chunks_remaining: chunks,
                },
            );
            for _ in 0..chunks {
                let tlp = Tlp::pio_chunk(n.rc.next_id());
                n.nic.pio_chunk_map.insert(tlp.id.0, op);
                if traced {
                    posted_ids.push(tlp.id);
                }
                let before = actions.len();
                n.rc.mmio_write(now, tlp, &mut actions);
                if actions.len() == before {
                    // Parked for credits: remember when, for the
                    // `credit_wait` stage (and stall-time ledger) at release.
                    parked_ids.push(tlp.id);
                }
            }
        } else {
            // Doorbell path: one 8-byte MWr; the NIC will fetch the rest.
            let tlp = Tlp::doorbell(n.rc.next_id());
            n.nic.fetching.insert(tlp.id, FetchStage::Descriptor(desc));
            if traced {
                posted_ids.push(tlp.id);
            }
            let before = actions.len();
            n.rc.mmio_write(now, tlp, &mut actions);
            if actions.len() == before {
                parked_ids.push(tlp.id);
            }
        }
        for id in parked_ids {
            n.stalled_at.insert(id, now);
        }
        for id in posted_ids {
            self.link_tlp(node, id, cause);
        }
        self.apply_rc_actions(node, actions);
    }

    /// Pre-post a receive buffer for a two-sided send. If a message already
    /// arrived "unexpected", it is delivered immediately at `now`.
    pub fn post_recv(
        &mut self,
        now: SimTime,
        node: NodeId,
        wr_id: WrId,
        len: u32,
        tap: &mut dyn LinkTap,
    ) {
        self.nodes[node.0 as usize]
            .nic
            .rx_posted
            .push_back((wr_id, len));
        let early = self.nodes[node.0 as usize].nic.unexpected.pop_front();
        if let Some(pkt) = early {
            self.deliver_recv(now, node, pkt, tap);
        }
    }

    /// Process all hardware events due at or before `t`.
    pub fn advance_to(&mut self, t: SimTime, tap: &mut dyn LinkTap) {
        while let Some((at, ev)) = self.queue.pop_due(t) {
            self.handle(at, ev, tap);
        }
    }

    /// Run the hardware to quiescence; returns the time of the last event.
    /// Only call between experiments — during a run the CPU must not see
    /// the future (use [`Cluster::advance_to`]).
    pub fn run_until_idle(&mut self, tap: &mut dyn LinkTap) -> SimTime {
        let mut last = self.queue.watermark();
        while let Some((at, ev)) = self.queue.pop() {
            self.handle(at, ev, tap);
            last = at;
        }
        last
    }

    /// Pop the oldest host-visible completion on `node`'s CQ for `qp`, if
    /// any. The caller must have advanced the cluster to its own clock
    /// first.
    pub fn pop_cqe(&mut self, node: NodeId, qp: QpId) -> Option<Cqe> {
        self.nodes[node.0 as usize]
            .host_cq
            .get_mut(qp.0 as usize)?
            .pop_front()
    }

    /// Pop the oldest completion for `qp` only if it was already visible in
    /// host memory at `now` — a CPU load cannot observe a DMA write from
    /// its future. (The CQ may hold later entries drained into host memory
    /// by another core's progress through the shared event queue.)
    pub fn pop_cqe_visible(&mut self, node: NodeId, qp: QpId, now: SimTime) -> Option<Cqe> {
        let cq = self.nodes[node.0 as usize].host_cq.get_mut(qp.0 as usize)?;
        if cq.front().is_some_and(|c| c.visible_at <= now) {
            cq.pop_front()
        } else {
            None
        }
    }

    /// The earliest instant a core polling `qp` on `node` could observe a
    /// change: the next pending hardware event or the next already-written
    /// CQE on `qp` becoming visible, whichever comes first. `None` when
    /// neither exists.
    pub fn next_wake(&self, node: NodeId, qp: QpId) -> Option<SimTime> {
        match (self.next_event_time(), self.next_cqe_visible_at(node, qp)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// When the next already-written CQE on `qp` becomes observable.
    fn next_cqe_visible_at(&self, node: NodeId, qp: QpId) -> Option<SimTime> {
        self.nodes[node.0 as usize]
            .host_cq
            .get(qp.0 as usize)?
            .front()
            .map(|c| c.visible_at)
    }

    // ------------------------------------------------------------------
    // Event plumbing
    // ------------------------------------------------------------------

    /// Schedule what one root-complex call emitted, then hand the emptied
    /// buffer back to `rc_actions` for the next call.
    fn apply_rc_actions(&mut self, node: NodeId, mut actions: Vec<RcAction>) {
        for act in actions.drain(..) {
            match act {
                RcAction::SendTlp { depart, tlp } => {
                    let mut dep = self.tlp_dep(node, tlp.id);
                    let stalled_at = &mut self.nodes[node.0 as usize].stalled_at;
                    // Writes park only when credits run out: skip the
                    // lookup until one has.
                    let parked = if stalled_at.is_empty() {
                        None
                    } else {
                        stalled_at.remove(&tlp.id)
                    };
                    if let Some(parked) = parked {
                        if depart > parked {
                            // The write waited for UpdateFC: a recovery-track
                            // stage spanning park→release, chained after both
                            // the core that issued it and the RC's previous
                            // departure — the shared track that serialises
                            // every core through the one credit pool.
                            self.stall_time += depart.since(parked);
                            let wait = trace::stage(
                                trace::Layer::Recovery,
                                "credit_wait",
                                parked,
                                depart,
                                tlp.id.0,
                                &[dep, self.rc_track[node.0 as usize]],
                            );
                            if !wait.is_none() {
                                dep = wait;
                            }
                        }
                    }
                    let lat = {
                        let n = &mut self.nodes[node.0 as usize];
                        n.link.tlp_latency(&tlp, &mut n.link_rng)
                    };
                    let span = trace::stage(
                        trace::Layer::PcieTx,
                        "TX PCIe",
                        depart,
                        depart + lat,
                        tlp.id.0,
                        &[dep],
                    );
                    if !span.is_none() {
                        self.rc_track[node.0 as usize] = span;
                    }
                    self.link_tlp(node, tlp.id, span);
                    self.queue
                        .push(depart + lat, HwEvent::TlpAtNic { node, tlp });
                }
                RcAction::SendDllp { depart, dllp } => {
                    let n = &mut self.nodes[node.0 as usize];
                    let lat = n.link.dllp_latency(&mut n.link_rng);
                    self.queue
                        .push(depart + lat, HwEvent::DllpAtNic { node, dllp });
                }
                RcAction::MemWriteDone { at, tlp } => {
                    self.queue.push(at, HwEvent::MemVisible { node, tlp });
                }
            }
        }
        self.rc_actions = actions;
    }

    /// NIC sends an upstream TLP toward the RC (tap sees the departure).
    fn nic_send_upstream(&mut self, now: SimTime, node: NodeId, tlp: Tlp, tap: &mut dyn LinkTap) {
        if node == ANALYZER_NODE {
            tap.on_tlp(now, LinkDirection::Upstream, &tlp);
        }
        let dep = self.tlp_dep(node, tlp.id);
        let lat = {
            let n = &mut self.nodes[node.0 as usize];
            n.link.tlp_latency(&tlp, &mut n.link_rng)
        };
        let span = trace::stage(
            trace::Layer::PcieRx,
            "RX PCIe",
            now,
            now + lat,
            tlp.id.0,
            &[dep],
        );
        self.link_tlp(node, tlp.id, span);
        self.queue.push(now + lat, HwEvent::TlpAtRc { node, tlp });
    }

    /// NIC sends an upstream DLLP toward the RC.
    fn nic_send_dllp(&mut self, now: SimTime, node: NodeId, dllp: Dllp, tap: &mut dyn LinkTap) {
        if node == ANALYZER_NODE {
            tap.on_dllp(now, LinkDirection::Upstream, &dllp);
        }
        let n = &mut self.nodes[node.0 as usize];
        let lat = n.link.dllp_latency(&mut n.link_rng);
        self.queue.push(now + lat, HwEvent::DllpAtRc { node, dllp });
    }

    /// Launch a message onto the fabric. Payloads above the MTU are
    /// segmented and pipelined: segments depart one serialization apart
    /// (the slower of wire and PCIe-fetch rates), and only the final
    /// segment carries acknowledgement/completion semantics.
    fn transmit(&mut self, now: SimTime, node: NodeId, desc: PostDescriptor, cause: trace::SpanId) {
        let kind = match desc.opcode {
            Opcode::RdmaWrite => PacketKind::RdmaWrite,
            Opcode::Send => PacketKind::Send,
        };
        assert!(
            kind != PacketKind::Send || desc.payload <= MTU,
            "two-sided sends above the MTU must be fragmented by the HLP"
        );
        self.messages_injected += 1;
        // A Markov stall window parks the launch until the window closes
        // (correlated NIC stalls — bursts spanning several messages).
        let mut now = now;
        let mut cause = cause;
        if let Some(sched) = self.stalls[node.0 as usize].as_mut() {
            let (resume, window) = sched.defer_with_window(now);
            if resume > now {
                self.nic_stalls += 1;
                self.stall_time += resume.since(now);
                let w = window.map_or(0, |(s, _)| s.as_ps());
                let stall = trace::stage(
                    trace::Layer::Recovery,
                    "nic_stall",
                    now,
                    resume,
                    w,
                    &[cause],
                );
                if !stall.is_none() {
                    cause = stall;
                }
                now = resume;
            }
        }
        // NIC processing is folded into the calibrated `Wire` (the paper
        // measures it NIC-to-NIC), so `nic_tx` is a zero-length stage: it
        // anchors the packets' happens-after edges.
        let tx = trace::stage(
            trace::Layer::Nic,
            "nic_tx",
            now,
            now,
            desc.wr_id.0,
            &[cause],
        );
        let segments = desc.payload.div_ceil(MTU).max(1);
        // Per-segment pipeline spacing: the NIC can launch the next
        // segment once it is fetched and the previous one serialized.
        let wire_rate = self.network.wire.per_byte;
        let link_rate = self.nodes[node.0 as usize].link.per_byte;
        let rate = if wire_rate >= link_rate {
            wire_rate
        } else {
            link_rate
        };
        let spacing = rate * MTU as u64;
        let mut remaining = desc.payload;
        for i in 0..segments {
            let seg = remaining.min(MTU);
            remaining -= seg;
            let last = i == segments - 1;
            let pkt_id = PacketId(self.next_packet_id);
            self.next_packet_id += 1;
            let seg_kind = if last { kind } else { PacketKind::Segment };
            let pkt = Packet::tagged(pkt_id, seg_kind, node, desc.dst, seg, desc.tag)
                .with_dst_qp(desc.dst_qp.0);
            if last {
                self.nodes[node.0 as usize]
                    .nic
                    .inflight
                    .insert(pkt_id.0, InflightSend { desc });
            }
            let seg_depart = now + spacing * i as u64;
            let lat = self.network.traverse(seg_depart, &pkt, &mut self.net_rng);
            let flight = trace::stage(
                trace::Layer::Wire,
                "net_flight",
                seg_depart,
                seg_depart + lat,
                pkt_id.0,
                &[tx],
            );
            self.link_pkt(pkt_id, flight);
            self.queue.push(
                seg_depart + lat,
                HwEvent::NetAtNic {
                    node: desc.dst,
                    pkt,
                },
            );
        }
    }

    /// An arriving two-sided message consumes a posted receive and is
    /// DMA-written into host memory (payload and CQE data in one posted
    /// write for small messages, as Mellanox inline-CQE reception does).
    fn deliver_recv(&mut self, now: SimTime, node: NodeId, pkt: Packet, tap: &mut dyn LinkTap) {
        // The message's wire-flight span (if traced); it survives an
        // "unexpected" stash because the map entry is only consumed here.
        let dep = self.pkt_dep(pkt.id);
        let pkt_id = pkt.id;
        let n = &mut self.nodes[node.0 as usize];
        let Some((wr_id, buf_len)) = n.nic.rx_posted.pop_front() else {
            n.nic.unexpected.push_back(pkt);
            self.link_pkt(pkt_id, dep);
            return;
        };
        assert!(
            pkt.payload <= buf_len,
            "receive buffer too small: {} < {}",
            buf_len,
            pkt.payload
        );
        let tlp = Tlp::payload_deliver(n.nic.next_tlp_id(node), pkt.payload);
        n.nic.recv_in_flight.insert(
            tlp.id.0,
            (wr_id, QpId(pkt.dst_qp), pkt.payload, pkt.tag, pkt.src),
        );
        self.link_tlp(node, tlp.id, dep);
        self.nic_send_upstream(now, node, tlp, tap);
    }

    fn handle(&mut self, at: SimTime, ev: HwEvent, tap: &mut dyn LinkTap) {
        match ev {
            HwEvent::TlpAtNic { node, tlp } => {
                if node == ANALYZER_NODE {
                    tap.on_tlp(at, LinkDirection::Downstream, &tlp);
                }
                // Data-link layer: NIC ACKs the TLP and may return credits.
                self.nic_send_dllp(at, node, Dllp::Ack { up_to: tlp.id }, tap);
                let grant = self.nodes[node.0 as usize].nic.fc_recv.drain(&tlp);
                if let Some((h, d)) = grant {
                    self.nic_send_dllp(at, node, Dllp::UpdateFc { hdr: h, data: d }, tap);
                }
                self.nic_receive_downstream(at, node, tlp, tap);
            }
            HwEvent::TlpAtRc { node, tlp } => {
                let tid = tlp.id;
                let dep = self.tlp_dep(node, tid);
                let mut actions = std::mem::take(&mut self.rc_actions);
                self.nodes[node.0 as usize]
                    .rc
                    .on_upstream_tlp(at, tlp, &mut actions);
                if !dep.is_none() {
                    // Memory writes become an explicit RC-to-MEM stage;
                    // read completions (CplD) inherit the read's cause.
                    let mut handoff = dep;
                    if let Some(done) = actions.iter().find_map(|a| match a {
                        RcAction::MemWriteDone { at: done, tlp } if tlp.id == tid => Some(*done),
                        _ => None,
                    }) {
                        handoff = trace::stage(
                            trace::Layer::Memory,
                            "RC-to-MEM",
                            at,
                            done,
                            tid.0,
                            &[dep],
                        );
                        self.link_tlp(node, tid, handoff);
                    }
                    for act in &actions {
                        if let RcAction::SendTlp { tlp, .. } = act {
                            self.link_tlp(node, tlp.id, handoff);
                        }
                    }
                }
                self.apply_rc_actions(node, actions);
            }
            HwEvent::DllpAtNic { node, dllp } => {
                if node == ANALYZER_NODE {
                    tap.on_dllp(at, LinkDirection::Downstream, &dllp);
                }
                // ACK/UpdateFC arriving at the NIC: data-link bookkeeping
                // only; the NIC's upstream credit pool is modeled as ample
                // (the RC's receive buffers are large).
            }
            HwEvent::DllpAtRc { node, dllp } => {
                if let Dllp::UpdateFc { hdr, data } = dllp {
                    let mut actions = std::mem::take(&mut self.rc_actions);
                    self.nodes[node.0 as usize]
                        .rc
                        .on_update_fc(at, hdr, data, &mut actions);
                    self.apply_rc_actions(node, actions);
                }
                // ACK DLLPs retire replay-buffer entries; no latency effect.
            }
            HwEvent::NetAtNic { node, pkt } => match pkt.kind {
                PacketKind::Ack => {
                    self.acks_received += 1;
                    self.on_transport_ack(at, node, pkt, tap);
                }
                PacketKind::Segment => {
                    // Mid-message segment: DMA-write the bytes, no ACK,
                    // no completion.
                    let dep = self.pkt_dep(pkt.id);
                    let tlp = {
                        let n = &mut self.nodes[node.0 as usize];
                        Tlp::payload_deliver(n.nic.next_tlp_id(node), pkt.payload)
                    };
                    self.link_tlp(node, tlp.id, dep);
                    self.nic_send_upstream(at, node, tlp, tap);
                }
                PacketKind::RdmaWrite => {
                    let dep = self.pkt_dep(pkt.id);
                    self.send_transport_ack(at, &pkt, dep);
                    // Payload lands via DMA write; no CQE on the target for
                    // one-sided writes.
                    let tlp = {
                        let n = &mut self.nodes[node.0 as usize];
                        Tlp::payload_deliver(n.nic.next_tlp_id(node), pkt.payload)
                    };
                    self.link_tlp(node, tlp.id, dep);
                    self.nic_send_upstream(at, node, tlp, tap);
                }
                PacketKind::Send => {
                    // Peek (don't consume) the flight span: deliver_recv
                    // consumes it, including across an "unexpected" stash.
                    let dep = self.pkt_cause.get(&pkt.id).copied().unwrap_or_default();
                    self.send_transport_ack(at, &pkt, dep);
                    self.deliver_recv(at, node, pkt, tap);
                }
            },
            HwEvent::MemVisible { node, tlp } => {
                trace::instant(trace::Layer::Memory, "mem_visible", at, tlp.id.0);
                let cause = self.tlp_dep(node, tlp.id);
                let n = &mut self.nodes[node.0 as usize];
                match tlp.purpose {
                    TlpPurpose::CqeWrite => {
                        if let Some((wr_id, qp, completes)) = n.nic.cqe_in_flight.remove(tlp.id.0) {
                            qp_slot(&mut n.host_cq, qp).push_back(Cqe {
                                wr_id,
                                qp,
                                kind: CqeKind::SendComplete,
                                src: node,
                                completes,
                                payload: 0,
                                tag: 0,
                                visible_at: at,
                                cause,
                            });
                        }
                    }
                    TlpPurpose::PayloadDeliver => {
                        if let Some((wr_id, qp, payload, tag, src)) =
                            n.nic.recv_in_flight.remove(tlp.id.0)
                        {
                            qp_slot(&mut n.host_cq, qp).push_back(Cqe {
                                wr_id,
                                qp,
                                kind: CqeKind::RecvComplete,
                                src,
                                completes: 1,
                                payload,
                                tag,
                                visible_at: at,
                                cause,
                            });
                        }
                        // One-sided payload writes have no recv_in_flight
                        // entry and produce no CQE.
                    }
                    _ => {}
                }
            }
        }
    }

    /// Downstream TLP processing in the NIC (doorbells, PIO chunks, read
    /// completions).
    fn nic_receive_downstream(
        &mut self,
        at: SimTime,
        node: NodeId,
        tlp: Tlp,
        tap: &mut dyn LinkTap,
    ) {
        // The TLP's own link-traversal span, recorded when it departed.
        let dep = self.tlp_dep(node, tlp.id);
        match tlp.purpose {
            TlpPurpose::PioChunk => {
                let ready = {
                    let n = &mut self.nodes[node.0 as usize];
                    let op = n
                        .nic
                        .pio_chunk_map
                        .remove(tlp.id.0)
                        .unwrap_or_else(|| panic!("PIO chunk {:?} without an op", tlp.id));
                    let assembly = n.nic.pio_ops.get_mut(op).expect("op registered");
                    assembly.chunks_remaining -= 1;
                    if assembly.chunks_remaining == 0 {
                        Some(n.nic.pio_ops.remove(op).expect("just seen").desc)
                    } else {
                        None
                    }
                };
                if let Some(desc) = ready {
                    if desc.inline {
                        self.transmit(at, node, desc, dep);
                    } else {
                        // PIO descriptor, non-inline payload: §2 step 3 —
                        // DMA-read the payload (first MTU; the rest
                        // pipelines with the transmit).
                        let mrd = {
                            let n = &mut self.nodes[node.0 as usize];
                            let mrd =
                                Tlp::payload_fetch(n.nic.next_tlp_id(node), desc.payload.min(MTU));
                            n.nic.fetching.insert(mrd.id, FetchStage::Payload(desc));
                            mrd
                        };
                        self.link_tlp(node, mrd.id, dep);
                        self.nic_send_upstream(at, node, mrd, tap);
                    }
                }
            }
            TlpPurpose::Doorbell => {
                // §2 step 2: fetch the descriptor with a DMA read.
                let mrd = {
                    let n = &mut self.nodes[node.0 as usize];
                    let stage = n
                        .nic
                        .fetching
                        .remove(&tlp.id)
                        .unwrap_or_else(|| panic!("doorbell {:?} without an op", tlp.id));
                    let FetchStage::Descriptor(desc) = stage else {
                        panic!("doorbell must map to a descriptor fetch");
                    };
                    let mrd = Tlp::descriptor_fetch(n.nic.next_tlp_id(node), 64);
                    n.nic.fetching.insert(mrd.id, FetchStage::Descriptor(desc));
                    mrd
                };
                self.link_tlp(node, mrd.id, dep);
                self.nic_send_upstream(at, node, mrd, tap);
            }
            TlpPurpose::ReadCompletion => {
                let answers = tlp.answers.expect("CplD answers a read");
                enum Next {
                    Transmit(PostDescriptor),
                    FetchPayload(Tlp),
                }
                let next = {
                    let n = &mut self.nodes[node.0 as usize];
                    match n.nic.fetching.remove(&answers) {
                        Some(FetchStage::Descriptor(desc)) => {
                            if desc.inline {
                                Next::Transmit(desc)
                            } else {
                                // §2 step 3: fetch the payload (the first
                                // MTU; later segments pipeline with the
                                // transmit, see `transmit`).
                                let mrd = Tlp::payload_fetch(
                                    n.nic.next_tlp_id(node),
                                    desc.payload.min(MTU),
                                );
                                n.nic.fetching.insert(mrd.id, FetchStage::Payload(desc));
                                Next::FetchPayload(mrd)
                            }
                        }
                        Some(FetchStage::Payload(desc)) => Next::Transmit(desc),
                        None => panic!("CplD for unknown read {answers:?}"),
                    }
                };
                match next {
                    Next::Transmit(desc) => self.transmit(at, node, desc, dep),
                    Next::FetchPayload(mrd) => {
                        self.link_tlp(node, mrd.id, dep);
                        self.nic_send_upstream(at, node, mrd, tap);
                    }
                }
            }
            other => panic!("unexpected downstream TLP at NIC: {other:?}"),
        }
    }

    /// Target NIC acknowledges an arriving message (transport-level ACK).
    fn send_transport_ack(&mut self, at: SimTime, pkt: &Packet, cause: trace::SpanId) {
        let ack_id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let ack = pkt.ack_for(ack_id);
        let lat = self.network.traverse(at, &ack, &mut self.net_rng);
        let flight = trace::stage(
            trace::Layer::Wire,
            "ack_flight",
            at,
            at + lat,
            ack_id.0,
            &[cause],
        );
        self.link_pkt(ack_id, flight);
        self.queue.push(
            at + lat,
            HwEvent::NetAtNic {
                node: ack.dst,
                pkt: ack,
            },
        );
    }

    /// See [`Cluster::recovery_counters`] for how stall deferrals surface.
    pub fn markov_stalls_active(&self) -> bool {
        self.stalls.iter().any(Option::is_some)
    }

    /// §2 steps 4–5: on ACK reception, DMA-write a CQE (if signaled).
    fn on_transport_ack(&mut self, at: SimTime, node: NodeId, ack: Packet, tap: &mut dyn LinkTap) {
        let msg_id = ack.acks.expect("ack links its message");
        let dep = self.pkt_dep(ack.id);
        let cqe_tlp = {
            let n = &mut self.nodes[node.0 as usize];
            let Some(inflight) = n.nic.inflight.remove(msg_id.0) else {
                panic!("transport ACK for unknown message {msg_id:?}");
            };
            let qp = inflight.desc.qp;
            let ring = n
                .nic
                .occupancy
                .get_mut(qp.0 as usize)
                .expect("ACK for a QP that never posted");
            *ring -= 1;
            if inflight.desc.signaled {
                let backlog = qp_slot(&mut n.nic.unsignaled_backlog, qp);
                let completes = 1 + *backlog;
                *backlog = 0;
                let tlp = Tlp::cqe_write(n.nic.next_tlp_id(node));
                n.nic
                    .cqe_in_flight
                    .insert(tlp.id.0, (inflight.desc.wr_id, qp, completes));
                Some(tlp)
            } else {
                *qp_slot(&mut n.nic.unsignaled_backlog, qp) += 1;
                None
            }
        };
        if let Some(tlp) = cqe_tlp {
            self.link_tlp(node, tlp.id, dep);
            self.nic_send_upstream(at, node, tlp, tap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_pcie::NullTap;

    fn paper_cluster() -> Cluster {
        Cluster::two_node_paper(42).deterministic()
    }

    fn desc(wr: u64, opcode: Opcode) -> PostDescriptor {
        PostDescriptor::pio_inline(WrId(wr), opcode, NodeId(1), 8)
    }

    #[test]
    fn rdma_write_completes_with_cqe_on_initiator() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        c.post(
            SimTime::from_ns(100),
            NodeId(0),
            desc(1, Opcode::RdmaWrite),
            &mut tap,
        );
        let end = c.run_until_idle(&mut tap);
        let cqe = c.pop_cqe(NodeId(0), QpId(0)).expect("send CQE");
        assert_eq!(cqe.wr_id, WrId(1));
        assert_eq!(cqe.kind, CqeKind::SendComplete);
        assert_eq!(cqe.completes, 1);
        assert!(end > SimTime::from_ns(100));
        // No CQE on the target for one-sided writes.
        assert!(c.pop_cqe(NodeId(1), QpId(0)).is_none());
        assert_eq!(c.messages_injected, 1);
        assert_eq!(c.acks_received, 1);
    }

    #[test]
    fn cqe_timing_matches_gen_completion_model() {
        // gen_completion = 2*(PCIe + Network) + RC-to-MEM(64B)  (§4.2),
        // counted from the message reaching the NIC.
        let mut c = paper_cluster();
        let mut tap = NullTap;
        let t0 = SimTime::from_ns(0);
        c.post(t0, NodeId(0), desc(1, Opcode::RdmaWrite), &mut tap);
        c.run_until_idle(&mut tap);
        let cqe = c.pop_cqe(NodeId(0), QpId(0)).expect("cqe");
        let pcie = c.pcie_64b_mean();
        let network = c.network_8b_mean();
        let rc64 = c.rc_to_mem(NodeId(0)).cqe_write();
        // Full path: PIO chunk link traversal (PCIe) + network + ACK-wire
        // (ACK packet is smaller: its own network latency) + CQE link
        // (PCIe for a 64-byte MWr) + RC-to-MEM(64B).
        let expected_min = (pcie + network + rc64).as_ns_f64();
        let got = cqe.visible_at.since(t0).as_ns_f64();
        assert!(got > expected_min, "CQE too early: {got} <= {expected_min}");
        // And it must be within ~gen_completion + PCIe of the post.
        let gen_completion = (pcie + network).as_ns_f64() * 2.0 + rc64.as_ns_f64();
        assert!(
            got < gen_completion + pcie.as_ns_f64() + 20.0,
            "CQE too late: {got} vs gen_completion {gen_completion}"
        );
    }

    #[test]
    fn send_recv_delivers_recv_cqe_on_target() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        c.post_recv(SimTime::ZERO, NodeId(1), WrId(900), 64, &mut tap);
        c.post(
            SimTime::from_ns(10),
            NodeId(0),
            desc(2, Opcode::Send),
            &mut tap,
        );
        c.run_until_idle(&mut tap);
        let rx = c.pop_cqe(NodeId(1), QpId(0)).expect("recv CQE");
        assert_eq!(rx.kind, CqeKind::RecvComplete);
        assert_eq!(rx.wr_id, WrId(900));
        assert_eq!(rx.payload, 8);
        let tx = c.pop_cqe(NodeId(0), QpId(0)).expect("send CQE");
        assert_eq!(tx.kind, CqeKind::SendComplete);
        assert_eq!(tx.wr_id, WrId(2));
    }

    #[test]
    fn unexpected_message_waits_for_recv() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        c.post(
            SimTime::from_ns(10),
            NodeId(0),
            desc(3, Opcode::Send),
            &mut tap,
        );
        c.run_until_idle(&mut tap);
        assert!(
            c.pop_cqe(NodeId(1), QpId(0)).is_none(),
            "no recv posted yet"
        );
        // Post the receive late: delivery happens now.
        let late = SimTime::from_ns(100_000);
        c.post_recv(late, NodeId(1), WrId(7), 64, &mut tap);
        c.run_until_idle(&mut tap);
        let rx = c
            .pop_cqe(NodeId(1), QpId(0))
            .expect("recv CQE after late post");
        assert_eq!(rx.wr_id, WrId(7));
        assert!(rx.visible_at > late);
    }

    #[test]
    fn unsignaled_completions_are_confirmed_by_next_signaled() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        let mut t = SimTime::from_ns(0);
        for i in 0..4u64 {
            let mut d = desc(i, Opcode::RdmaWrite);
            d.signaled = false;
            c.post(t, NodeId(0), d, &mut tap);
            t += bband_sim::SimDuration::from_ns(300);
        }
        let d = desc(4, Opcode::RdmaWrite); // signaled
        c.post(t, NodeId(0), d, &mut tap);
        c.run_until_idle(&mut tap);
        let cqe = c.pop_cqe(NodeId(0), QpId(0)).expect("one CQE for five ops");
        assert_eq!(cqe.completes, 5, "CQE confirms all prior unsignaled ops");
        assert!(c.pop_cqe(NodeId(0), QpId(0)).is_none());
    }

    #[test]
    fn doorbell_path_issues_dma_reads_and_still_completes() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        let mut d = desc(11, Opcode::RdmaWrite);
        d.pio = false;
        d.inline = false;
        c.post(SimTime::from_ns(5), NodeId(0), d, &mut tap);
        c.run_until_idle(&mut tap);
        let cqe = c
            .pop_cqe(NodeId(0), QpId(0))
            .expect("doorbell path completes");
        assert_eq!(cqe.wr_id, WrId(11));
    }

    #[test]
    fn doorbell_path_is_slower_than_pio_inline() {
        // §2: PIO+inlining "eliminates both the DMA-reads"; the DMA reads
        // are round-trip PCIe latencies, so the doorbell path must be
        // visibly slower end-to-end.
        let mut tap = NullTap;
        let t0 = SimTime::from_ns(0);

        let mut pio = paper_cluster();
        pio.post(t0, NodeId(0), desc(0, Opcode::RdmaWrite), &mut tap);
        pio.run_until_idle(&mut tap);
        let pio_done = pio.pop_cqe(NodeId(0), QpId(0)).unwrap().visible_at;

        let mut db = paper_cluster();
        let mut d = desc(0, Opcode::RdmaWrite);
        d.pio = false;
        d.inline = false;
        db.post(t0, NodeId(0), d, &mut tap);
        db.run_until_idle(&mut tap);
        let db_done = db.pop_cqe(NodeId(0), QpId(0)).unwrap().visible_at;

        let gap = db_done.since(pio_done).as_ns_f64();
        // Two DMA reads = two PCIe round trips ≈ 4 × 137 ns plus DRAM
        // fetches; require at least two one-way PCIe times of gap.
        assert!(
            gap > 2.0 * 137.0,
            "doorbell path should pay DMA-read round trips, gap = {gap}"
        );
    }

    #[test]
    fn txq_occupancy_rises_and_falls() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        c.post(
            SimTime::from_ns(1),
            NodeId(0),
            desc(0, Opcode::RdmaWrite),
            &mut tap,
        );
        assert_eq!(c.nic_occupancy(NodeId(0)), 1);
        c.run_until_idle(&mut tap);
        assert_eq!(c.nic_occupancy(NodeId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "TxQ overflow")]
    fn txq_overflow_panics() {
        let cfg = NicConfig { txq_depth: 2 };
        let mut tap = NullTap;
        let mut c = Cluster::new(2, cfg, 1).deterministic();
        for i in 0..3u64 {
            c.post(
                SimTime::from_ns(i),
                NodeId(0),
                desc(i, Opcode::RdmaWrite),
                &mut tap,
            );
        }
    }

    #[test]
    fn single_core_burst_never_exhausts_rc_credits() {
        // The paper's §4.2 observation, validated in the assembled system:
        // a single core posting every ~282 ns never stalls the RC.
        let mut c = paper_cluster();
        let mut tap = NullTap;
        let mut t = SimTime::from_ns(0);
        for i in 0..2_000u64 {
            c.advance_to(t, &mut tap);
            // Poll to keep occupancy bounded, mimicking put_bw.
            while c.pop_cqe(NodeId(0), QpId(0)).is_some() {}
            c.post(t, NodeId(0), desc(i, Opcode::RdmaWrite), &mut tap);
            t += bband_sim::SimDuration::from_ns_f64(282.33);
        }
        c.run_until_idle(&mut tap);
        assert!(c.rc_never_stalled());
    }

    #[test]
    fn deterministic_runs_replay_identically() {
        let run = |seed: u64| {
            let mut c = Cluster::two_node_paper(seed);
            let mut tap = NullTap;
            let mut t = SimTime::from_ns(0);
            let mut visible = Vec::new();
            for i in 0..100u64 {
                c.post(t, NodeId(0), desc(i, Opcode::RdmaWrite), &mut tap);
                t += bband_sim::SimDuration::from_ns(400);
                c.advance_to(t, &mut tap);
                while let Some(cqe) = c.pop_cqe(NodeId(0), QpId(0)) {
                    visible.push((cqe.wr_id, cqe.visible_at));
                }
            }
            c.run_until_idle(&mut tap);
            while let Some(cqe) = c.pop_cqe(NodeId(0), QpId(0)) {
                visible.push((cqe.wr_id, cqe.visible_at));
            }
            visible
        };
        assert_eq!(run(7), run(7), "same seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds must differ (jitter)");
    }

    #[test]
    fn large_rdma_write_is_segmented_and_pipelined() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        let mut d = desc(0, Opcode::RdmaWrite);
        d.payload = 64 * 1024; // 16 MTU segments
        d.inline = false;
        c.post(SimTime::from_ns(1), NodeId(0), d, &mut tap);
        c.run_until_idle(&mut tap);
        let cqe = c.pop_cqe(NodeId(0), QpId(0)).expect("completes");
        assert_eq!(cqe.wr_id, WrId(0));
        // Pipelined: completion well before the store-and-forward bound.
        let t = cqe.visible_at.as_ns_f64();
        // Store-and-forward would pay 64 KiB serialization on fetch + wire
        // + delivery ≈ 3 × 5.2 µs; pipelined pays ~1 × plus fixed terms.
        assert!(
            t < 12_000.0,
            "64 KiB completion at {t} ns suggests no pipelining"
        );
        assert!(
            t > 5_200.0,
            "64 KiB completion at {t} ns is faster than the wire allows"
        );
    }

    #[test]
    fn segment_count_is_message_count_of_one() {
        // Segmentation is one message: one CQE, one ACK, injected once.
        let mut c = paper_cluster();
        let mut tap = NullTap;
        let mut d = desc(0, Opcode::RdmaWrite);
        d.payload = 3 * 4096 + 1; // 4 segments
        d.inline = false;
        c.post(SimTime::from_ns(1), NodeId(0), d, &mut tap);
        c.run_until_idle(&mut tap);
        assert_eq!(c.acks_received, 1, "one transport ACK for the message");
        assert!(c.pop_cqe(NodeId(0), QpId(0)).is_some());
        assert!(c.pop_cqe(NodeId(0), QpId(0)).is_none(), "exactly one CQE");
    }

    #[test]
    #[should_panic(expected = "fragmented by the HLP")]
    fn oversized_two_sided_send_is_rejected() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        c.post_recv(SimTime::ZERO, NodeId(1), WrId(9), 1 << 20, &mut tap);
        let mut d = desc(0, Opcode::Send);
        d.payload = 8192; // > MTU
        d.inline = false;
        c.post(SimTime::from_ns(1), NodeId(0), d, &mut tap);
        c.run_until_idle(&mut tap);
    }

    #[test]
    fn markov_stalls_defer_launches_but_everything_completes() {
        let run = |stalled: bool| {
            let mut c = paper_cluster();
            if stalled {
                // ~50% duty cycle, multi-microsecond dwells: bursts park
                // several consecutive launches.
                c.set_markov_stalls(3_000.0, 3_000.0, 99);
                assert!(c.markov_stalls_active());
            }
            let mut tap = NullTap;
            let mut t = SimTime::from_ns(0);
            let mut last = SimTime::ZERO;
            for i in 0..200u64 {
                c.post(t, NodeId(0), desc(i, Opcode::RdmaWrite), &mut tap);
                t += bband_sim::SimDuration::from_ns(300);
            }
            c.run_until_idle(&mut tap);
            let mut seen = 0;
            while let Some(cqe) = c.pop_cqe(NodeId(0), QpId(0)) {
                last = cqe.visible_at;
                seen += 1;
            }
            assert_eq!(seen, 200);
            (last, c.recovery_counters())
        };
        let (clean_end, clean_k) = run(false);
        let (stalled_end, stalled_k) = run(true);
        assert!(clean_k.is_clean());
        assert!(stalled_k.nic_stalls > 0, "{stalled_k:?}");
        assert!(!stalled_k.is_clean());
        assert!(
            stalled_end > clean_end,
            "stall windows must cost completion time: {stalled_end:?} vs {clean_end:?}"
        );
    }

    #[test]
    fn zero_down_dwell_markov_stall_is_inert() {
        let mut c = paper_cluster();
        c.set_markov_stalls(1_000.0, 0.0, 7);
        assert!(!c.markov_stalls_active());
        let mut tap = NullTap;
        c.post(
            SimTime::ZERO,
            NodeId(0),
            desc(0, Opcode::RdmaWrite),
            &mut tap,
        );
        c.run_until_idle(&mut tap);
        assert_eq!(c.recovery_counters().nic_stalls, 0);
    }

    #[test]
    fn traced_post_chains_hardware_stages_to_the_cause() {
        let (_, task) = bband_trace::collect(|| {
            let mut c = paper_cluster();
            let mut tap = NullTap;
            let cause = bband_trace::stage(
                bband_trace::Layer::Llp,
                "LLP_post",
                SimTime::ZERO,
                SimTime::from_ns(175),
                0,
                &[],
            );
            c.post_with_cause(
                SimTime::from_ns(175),
                NodeId(0),
                desc(1, Opcode::RdmaWrite),
                cause,
                &mut tap,
            );
            c.run_until_idle(&mut tap);
            let cqe = c.pop_cqe(NodeId(0), QpId(0)).expect("cqe");
            assert!(!cqe.cause.is_none(), "traced CQE must carry its cause");
        });
        // The recorded stages form one connected chain from LLP_post to
        // the CQE's RC-to-MEM write: every hardware span has a dep, and
        // the DAG critical path is strictly longer than any single stage.
        let trace = bband_trace::Trace::from_task(task);
        for name in [
            "TX PCIe",
            "nic_tx",
            "net_flight",
            "ack_flight",
            "RX PCIe",
            "RC-to-MEM",
        ] {
            assert!(
                trace.spans().any(|(_, s)| s.name == name && s.has_deps()),
                "{name} missing or unchained"
            );
        }
        let cp = bband_trace::critical_path(&trace);
        assert!(cp.length > bband_sim::SimDuration::from_ns(500));
        assert!(cp.length <= cp.stage_sum);
    }

    #[test]
    fn completions_arrive_in_post_order() {
        let mut c = paper_cluster();
        let mut tap = NullTap;
        let mut t = SimTime::from_ns(0);
        for i in 0..50u64 {
            c.post(t, NodeId(0), desc(i, Opcode::RdmaWrite), &mut tap);
            t += bband_sim::SimDuration::from_ns(300);
        }
        c.run_until_idle(&mut tap);
        let mut prev = None;
        while let Some(cqe) = c.pop_cqe(NodeId(0), QpId(0)) {
            if let Some(p) = prev {
                assert!(
                    cqe.wr_id > p,
                    "CQE order broken: {:?} after {:?}",
                    cqe.wr_id,
                    p
                );
            }
            prev = Some(cqe.wr_id);
        }
        assert_eq!(prev, Some(WrId(49)));
    }

    /// Nodes `posters` each post `n` 8-byte writes to node 2 at one
    /// instant, on a three-node cluster. Every node's RC numbers its TLPs
    /// from 0, so two posters issue the same ids at the same times.
    fn post_alike(c: &mut Cluster, posters: &[NodeId], n: u64, causes: &[trace::SpanId]) {
        let mut tap = NullTap;
        for i in 0..n {
            for (k, &node) in posters.iter().enumerate() {
                let mut d = desc(u64::from(node.0) << 32 | i, Opcode::RdmaWrite);
                d.dst = NodeId(2);
                let cause = causes.get(k).copied().unwrap_or_default();
                c.post_with_cause(SimTime::from_ns(175), node, d, cause, &mut tap);
            }
        }
        c.run_until_idle(&mut tap);
    }

    /// Parked writes are keyed per node: two nodes that park the same TLP
    /// ids at the same instants each accrue their own credit-stall time,
    /// so together they accrue twice what one of them does alone.
    #[test]
    fn two_nodes_stalling_alike_accrue_twice_one_nodes_recovery_time() {
        let run = |posters: &[NodeId]| {
            let mut c = Cluster::new(3, NicConfig::default(), 42)
                .deterministic()
                .with_credits(2, 64, 1);
            post_alike(&mut c, posters, 6, &[]);
            c.recovery_counters()
        };
        let one = run(&[NodeId(0)]);
        let two = run(&[NodeId(0), NodeId(1)]);
        assert!(one.credit_stalls > 0, "{one:?}");
        assert!(one.recovery_time > SimDuration::ZERO, "{one:?}");
        assert_eq!(two.credit_stalls, 2 * one.credit_stalls);
        assert_eq!(two.recovery_time, one.recovery_time * 2);
    }

    /// TLP causes are keyed per node: when two nodes post at the same
    /// instant, each node's `nic_tx` hangs off its own `TX PCIe` span,
    /// which hangs off that node's post.
    #[test]
    fn each_nic_tx_depends_on_its_own_nodes_tx_pcie() {
        let posters = [NodeId(0), NodeId(1)];
        let (causes, spans) = bband_trace::collect(|| {
            let causes = posters.map(|node| {
                bband_trace::stage(
                    bband_trace::Layer::Llp,
                    "LLP_post",
                    SimTime::ZERO,
                    SimTime::from_ns(175),
                    node.0.into(),
                    &[],
                )
            });
            let mut c = Cluster::new(3, NicConfig::default(), 42).deterministic();
            post_alike(&mut c, &posters, 1, &causes);
            causes
        });
        // A span's id is its 1-based position in the list.
        let record = |id: u64| &spans[id as usize - 1];
        for (node, cause) in posters.iter().zip(causes) {
            let tx = spans
                .iter()
                .find(|s| s.name == "nic_tx" && s.arg == u64::from(node.0) << 32)
                .unwrap_or_else(|| panic!("{node:?} launched nothing"));
            let deps: Vec<u64> = tx.deps().collect();
            assert_eq!(deps.len(), 1, "{node:?}'s nic_tx: {deps:?}");
            let pcie = record(deps[0]);
            assert_eq!(pcie.name, "TX PCIe");
            assert_eq!(
                pcie.deps().collect::<Vec<_>>(),
                [cause.0],
                "{node:?}'s nic_tx hangs off another node's TX PCIe"
            );
        }
    }

    /// A credit override rebuilds each root complex but keeps a what-if
    /// RC-to-MEM model applied before it.
    #[test]
    fn credit_override_keeps_the_rc_to_mem_model() {
        let model = bband_memsys::RcToMemModel {
            base: SimDuration::from_ns(500),
            per_byte: SimDuration::from_ps(250),
        };
        let mut c = paper_cluster();
        c.set_rc_to_mem(model.clone());
        let c = c.with_credits(2, 16, 1);
        for node in [NodeId(0), NodeId(1)] {
            assert_eq!(c.rc_to_mem(node), &model);
        }
    }
}
