//! The UCP worker: tag send/recv and progress over a UCT worker.

use crate::costs::UcpCosts;
use crate::rndv::{self, CtrlKind, RndvId, RndvRecv, RndvSend, CTRL_BYTES};
use crate::tag::{TagMask, TagMatcher};
use bband_fabric::{NodeId, MTU};
use bband_llp::{Core, Endpoint, Worker};
use bband_nic::{Cluster, Cqe, CqeKind, Opcode, MAX_INLINE};
use bband_pcie::LinkTap;
use bband_sim::{IdMap, SimTime};
use bband_trace as trace;
use std::collections::VecDeque;

/// Identifies a UCP request (send or receive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Completion events surfaced by `ucp_worker_progress`. The upper layer
/// (MPI) charges its own callback cost when it consumes these — the paper's
/// layered-callback structure (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UcpEvent {
    /// A send request finished (transport ACK seen, CQE consumed — possibly
    /// via a moderated CQE covering many requests).
    SendComplete { req: ReqId },
    /// A receive request matched an incoming message and its payload is in
    /// host memory.
    RecvComplete { req: ReqId, tag: u64, payload: u32 },
}

/// One send as the transport takes it: posted at once, or parked after a
/// busy post until `worker_progress` reschedules it.
#[derive(Debug, Clone, Copy)]
struct PendingSend {
    req: ReqId,
    dst: NodeId,
    payload: u32,
    tag: u64,
    signaled: bool,
    opcode: Opcode,
}

/// A message that has arrived and awaits (or has just met) tag matching.
#[derive(Debug, Clone, Copy)]
pub enum ArrivedMsg {
    /// Eager: the payload is already in host memory.
    Eager(Cqe),
    /// A rendezvous Ready-To-Send: only the handshake has arrived.
    Rts { src: NodeId, rndv_id: RndvId },
}

/// Protocol-internal send operations (not user-visible requests).
#[derive(Debug, Clone, Copy)]
enum InternalOp {
    /// RTS/CTS/FIN control message: completion is ignored.
    Ctrl,
    /// The rendezvous RDMA-write of the payload: completion triggers FIN.
    RndvData { rndv_id: RndvId },
    /// The last fragment of a multi-segment eager send: completing it
    /// (in-order transport) completes the whole user request.
    FragLast { user_req: ReqId },
}

/// A UCP worker bound to one UCT worker (one core, one NIC).
#[derive(Debug)]
pub struct UcpWorker {
    /// The CPU half of the transport (clock, costs, post/progress logic).
    uct: Core,
    /// The endpoint (VI) this worker posts to — an explicit handle, not
    /// process-global state.
    ep: Endpoint,
    /// Index of `ep` among this process's endpoints; selects the
    /// rendezvous-id partition (see [`rndv::EP_BITS`]).
    ep_index: u32,
    costs: UcpCosts,
    /// Software tag matching over transport-level receive completions.
    matcher: TagMatcher<ReqId, ArrivedMsg>,
    /// Sends that hit a busy transport and await rescheduling during
    /// progress (§6 caveat: "UCP schedules the successful execution of
    /// LLP_post for busy posts during the progress of operations").
    pending_sends: VecDeque<PendingSend>,
    /// Outstanding send requests in post order; moderated CQEs retire them
    /// front-first (IB completes in order on an RC QP).
    outstanding_sends: VecDeque<ReqId>,
    /// Sends since the last signaled one (moderation counter).
    sends_since_signal: u32,
    /// Receive matches made at post time, delivered on the next progress.
    ready_events: VecDeque<UcpEvent>,
    /// User events drained during an internal flush, re-delivered (without
    /// re-charging callbacks) by the next progress call.
    deferred_events: VecDeque<UcpEvent>,
    next_req: u64,
    /// Destination of the most recent send (target of a flush no-op).
    last_dst: Option<NodeId>,
    /// Payload size at which sends switch from eager to rendezvous.
    pub rndv_threshold: u32,
    /// In-progress receive-side reassembly: (src, frag op) →
    /// (bytes so far, fragments seen, total fragments).
    frag_assembly: IdMap<(NodeId, RndvId), (u32, u32, u32)>,
    /// User tag of each in-progress assembly (learned from the last frag).
    frag_tags: IdMap<(NodeId, RndvId), u64>,
    next_rndv: RndvId,
    /// Sender-side rendezvous operations awaiting CTS.
    rndv_send: IdMap<RndvId, RndvSend>,
    /// Receiver-side rendezvous operations awaiting FIN, keyed by
    /// (sender, id) so ids allocated by different peers can never
    /// collide in this table.
    rndv_recv: IdMap<(NodeId, RndvId), RndvRecv>,
    /// Protocol-internal sends, keyed by their transport request.
    internal: IdMap<ReqId, InternalOp>,
    /// Control messages to emit at the next progress (deferred when no
    /// cluster handle is in scope, e.g. a match made inside tag_recv_nb).
    pending_ctrl: VecDeque<(NodeId, u64)>,
    /// Transport-level receive-buffer pool target (buffers the worker keeps
    /// posted to the NIC, like UCX's pre-posted RQ).
    rx_pool_target: u32,
    rx_pool_posted: u32,
    /// Start of the earliest untaken UCP receive callback, so the MPI
    /// layer above can bracket the paper's aggregate `HLP_rx_prog` slice
    /// (UCP callback + MPICH callback + wait epilogue) around it.
    recv_cb_start: Option<SimTime>,
    /// End of the most recent `tag_send_nb`'s UCP-level send work (before
    /// the transport post), closing MPI's aggregate `HLP_post` bracket.
    tag_send_end: Option<SimTime>,
    /// Diagnostics: busy posts rescheduled through the pending queue.
    pub rescheduled_sends: u64,
}

impl UcpWorker {
    /// Build over an existing UCT worker (endpoint index 0).
    pub fn new(uct: Worker, costs: UcpCosts) -> Self {
        let (core, ep) = uct.into_parts();
        UcpWorker::on_endpoint(core, ep, 0, costs)
    }

    /// Build over an explicit core + endpoint pair. `ep_index` selects
    /// the rendezvous-id partition, so several endpoints on one node can
    /// post concurrently without their protocol ids colliding.
    pub fn on_endpoint(core: Core, ep: Endpoint, ep_index: u32, costs: UcpCosts) -> Self {
        UcpWorker {
            uct: core,
            ep,
            ep_index,
            costs,
            matcher: TagMatcher::new(),
            pending_sends: VecDeque::new(),
            outstanding_sends: VecDeque::new(),
            sends_since_signal: 0,
            ready_events: VecDeque::new(),
            deferred_events: VecDeque::new(),
            next_req: 0,
            last_dst: None,
            rndv_threshold: 8192,
            frag_assembly: IdMap::default(),
            frag_tags: IdMap::default(),
            next_rndv: RndvId::first_for_endpoint(ep_index),
            rndv_send: IdMap::default(),
            rndv_recv: IdMap::default(),
            internal: IdMap::default(),
            pending_ctrl: VecDeque::new(),
            rx_pool_target: 64,
            rx_pool_posted: 0,
            recv_cb_start: None,
            tag_send_end: None,
            rescheduled_sends: 0,
        }
    }

    /// The underlying UCT core (CPU half).
    pub fn uct(&self) -> &Core {
        &self.uct
    }

    /// Mutable access (benchmarks charge loop bookkeeping on the clock).
    pub fn uct_mut(&mut self) -> &mut Core {
        &mut self.uct
    }

    /// The endpoint this worker posts to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// This worker's endpoint index (rendezvous-id partition).
    pub fn ep_index(&self) -> u32 {
        self.ep_index
    }

    /// The endpoint's queue pair.
    pub fn qp(&self) -> bband_nic::QpId {
        self.ep.qp()
    }

    /// This worker's node.
    pub fn node(&self) -> NodeId {
        self.uct.node()
    }

    /// Local CPU time.
    pub fn now(&self) -> SimTime {
        self.uct.now()
    }

    /// Number of send requests posted but not yet completed (including
    /// rendezvous operations awaiting their handshake).
    pub fn outstanding(&self) -> usize {
        self.outstanding_sends.len() + self.pending_sends.len() + self.rndv_send.len()
    }

    fn alloc_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    /// Take (and clear) the start time of the earliest receive callback
    /// run since the last call. The MPI layer uses this to emit the
    /// paper's aggregate `HLP_rx_prog` span: from the UCP callback's
    /// start through MPICH's callback and wait epilogue.
    pub fn take_recv_cb_start(&mut self) -> Option<SimTime> {
        self.recv_cb_start.take()
    }

    fn note_recv_cb(&mut self, t0: SimTime) {
        self.recv_cb_start.get_or_insert(t0);
    }

    /// Take (and clear) the instant the most recent `tag_send_nb`
    /// finished its UCP-level send work — before any transport post — so
    /// MPI can close its aggregate `HLP_post` span there instead of
    /// folding `LLP_post` into the HLP slice.
    pub fn take_tag_send_end(&mut self) -> Option<SimTime> {
        self.tag_send_end.take()
    }

    /// Keep the transport-level receive pool full (UCX pre-posts receive
    /// buffers for active messages; MPI tag matching happens in software
    /// above them).
    pub fn replenish_rx_pool(&mut self, cluster: &mut Cluster, tap: &mut dyn LinkTap) {
        while self.rx_pool_posted < self.rx_pool_target {
            // Each buffer holds one eager fragment: at most one MTU.
            self.uct.post_recv(&mut self.ep, cluster, MTU, tap);
            self.rx_pool_posted += 1;
        }
    }

    /// `ucp_tag_send_nb`: initiate a tagged send. Never blocks: a busy
    /// transport queues the operation for rescheduling during progress.
    /// Payloads at or above [`UcpWorker::rndv_threshold`] take the
    /// rendezvous path (RTS/CTS/FIN + zero-copy RDMA write).
    pub fn tag_send_nb(
        &mut self,
        cluster: &mut Cluster,
        dst: NodeId,
        payload: u32,
        tag: u64,
        tap: &mut dyn LinkTap,
    ) -> ReqId {
        // UCP's own send-path work (2.19 ns). The span carries UCP's own
        // name; the MPI layer above emits the paper's aggregate `HLP_post`
        // slice (MPICH + UCP) bracketing this.
        let t0 = self.uct.now();
        let d = self.costs.tag_send;
        self.uct.cpu_mut().advance(d);
        self.tag_send_end = Some(self.uct.now());
        trace::span(trace::Layer::Hlp, "ucp.tag_send", t0, self.uct.now(), tag);
        let req = self.alloc_req();
        self.last_dst = Some(dst);
        if payload >= self.rndv_threshold {
            assert!(tag <= u32::MAX as u64, "rendezvous tags are 32-bit");
            let rndv_id = self.next_rndv;
            self.next_rndv = self.next_rndv.next();
            self.rndv_send.insert(
                rndv_id,
                RndvSend {
                    dst,
                    payload,
                    user_req: req,
                },
            );
            let rts = rndv::encode(CtrlKind::Rts, rndv_id, tag as u32);
            self.post_internal(
                cluster,
                dst,
                CTRL_BYTES,
                rts,
                Opcode::Send,
                InternalOp::Ctrl,
                tap,
            );
            return req;
        }
        self.charge_eager_copy(payload);
        if payload > MTU {
            // Multi-segment eager (§5: UCP implements "message
            // fragmentation"): split into MTU segments with a shared
            // fragment-op id; the receiver reassembles.
            assert!(tag <= u32::MAX as u64, "fragmented tags are 32-bit");
            let frag_op = self.next_rndv;
            self.next_rndv = self.next_rndv.next();
            let total_frags = payload.div_ceil(MTU);
            let mut remaining = payload;
            for i in 0..total_frags {
                let seg = remaining.min(MTU);
                remaining -= seg;
                let last = i == total_frags - 1;
                let (ctrl_tag, op) = if last {
                    (
                        rndv::encode(CtrlKind::FragLast, frag_op, tag as u32),
                        InternalOp::FragLast { user_req: req },
                    )
                } else {
                    (
                        rndv::encode(CtrlKind::FragMid, frag_op, total_frags),
                        InternalOp::Ctrl,
                    )
                };
                self.post_internal(cluster, dst, seg, ctrl_tag, Opcode::Send, op, tap);
            }
            return req;
        }
        self.post_user_send(cluster, req, dst, payload, tag, tap);
        req
    }

    /// An eager payload beyond the inline limit is copied through a
    /// registered bounce buffer, packed on send and unpacked on receive
    /// (the copies rendezvous avoids).
    fn charge_eager_copy(&mut self, payload: u32) {
        if payload > MAX_INLINE {
            let d = self.costs.eager_copy_per_byte * payload as u64;
            self.uct.cpu_mut().advance(d);
        }
    }

    /// Post a user-visible eager send through the moderated transport.
    fn post_user_send(
        &mut self,
        cluster: &mut Cluster,
        req: ReqId,
        dst: NodeId,
        payload: u32,
        tag: u64,
        tap: &mut dyn LinkTap,
    ) {
        self.sends_since_signal += 1;
        let signaled = self.sends_since_signal >= self.costs.signal_period;
        if signaled {
            self.sends_since_signal = 0;
        }
        let send = PendingSend {
            req,
            dst,
            payload,
            tag,
            signaled,
            opcode: Opcode::Send,
        };
        self.post_or_park(cluster, send, tap);
    }

    /// Post a protocol-internal operation (control message or rendezvous
    /// data). Always signaled — protocol steps drive state machines.
    #[allow(clippy::too_many_arguments)]
    fn post_internal(
        &mut self,
        cluster: &mut Cluster,
        dst: NodeId,
        payload: u32,
        tag: u64,
        opcode: Opcode,
        op: InternalOp,
        tap: &mut dyn LinkTap,
    ) {
        let req = self.alloc_req();
        self.internal.insert(req, op);
        // A signaled post resets the moderation counter, as on real UCX
        // where protocol operations request completions.
        self.sends_since_signal = 0;
        let send = PendingSend {
            req,
            dst,
            payload,
            tag,
            signaled: true,
            opcode,
        };
        self.post_or_park(cluster, send, tap);
    }

    /// Post `send` through the transport; on a busy ring, park it for
    /// `worker_progress` to reschedule (§6 caveat 1).
    fn post_or_park(&mut self, cluster: &mut Cluster, send: PendingSend, tap: &mut dyn LinkTap) {
        if !self.try_post(cluster, &send, tap) {
            self.rescheduled_sends += 1;
            self.pending_sends.push_back(send);
        }
    }

    /// Post `send` and track it as outstanding; false if the ring was busy.
    fn try_post(
        &mut self,
        cluster: &mut Cluster,
        send: &PendingSend,
        tap: &mut dyn LinkTap,
    ) -> bool {
        let posted = self
            .uct
            .post_tagged(
                &mut self.ep,
                cluster,
                send.opcode,
                send.dst,
                send.payload,
                send.signaled,
                send.tag,
                tap,
            )
            .is_ok();
        if posted {
            self.outstanding_sends.push_back(send.req);
        }
        posted
    }

    /// `ucp_tag_recv_nb`: post a tagged receive. Matching against an
    /// already-arrived unexpected message completes on the next progress.
    pub fn tag_recv_nb(&mut self, sel: TagMask) -> ReqId {
        let req = self.alloc_req();
        match self.matcher.post_recv(sel, req) {
            Some((req, ArrivedMsg::Eager(cqe), tag)) => {
                self.ready_events.push_back(UcpEvent::RecvComplete {
                    req,
                    tag,
                    payload: cqe.payload,
                });
            }
            Some((req, ArrivedMsg::Rts { src, rndv_id }, tag)) => {
                // Late receive matching a parked RTS: answer with CTS at
                // the next progress (no cluster handle in this call).
                self.rndv_recv
                    .insert((src, rndv_id), RndvRecv { user_req: req, tag });
                self.pending_ctrl
                    .push_back((src, rndv::encode(CtrlKind::Cts, rndv_id, 0)));
            }
            None => {}
        }
        req
    }

    /// `ucp_worker_progress`: drive the transport and surface completion
    /// events. Costs: the dispatch overhead, one `LLP_prog`, and the UCP
    /// receive callback for each matched receive.
    pub fn worker_progress(
        &mut self,
        cluster: &mut Cluster,
        tap: &mut dyn LinkTap,
    ) -> Vec<UcpEvent> {
        let d = self.costs.progress_dispatch;
        self.uct.cpu_mut().advance(d);
        let mut events = Vec::new();
        // Re-deliver events drained by an internal flush (already charged).
        while let Some(ev) = self.deferred_events.pop_front() {
            events.push(ev);
        }
        // Deliver matches made at recv-post time first.
        while let Some(ev) = self.ready_events.pop_front() {
            let t0 = self.uct.now();
            let d = self.costs.recv_callback;
            self.uct.cpu_mut().advance(d);
            self.note_recv_cb(t0);
            trace::span(trace::Layer::Hlp, "ucp.recv_cb", t0, self.uct.now(), 0);
            events.push(ev);
        }
        // Emit deferred protocol control messages (e.g. CTS for an RTS
        // matched inside tag_recv_nb).
        while let Some((dst, tag)) = self.pending_ctrl.pop_front() {
            self.post_internal(
                cluster,
                dst,
                CTRL_BYTES,
                tag,
                Opcode::Send,
                InternalOp::Ctrl,
                tap,
            );
        }
        // Reschedule busy posts (§6 caveat 1).
        while let Some(p) = self.pending_sends.front().copied() {
            if !self.try_post(cluster, &p, tap) {
                break;
            }
            self.pending_sends.pop_front();
        }
        // One transport progress (the LLP_prog).
        if let Some(cqe) = self.uct.progress(&mut self.ep, cluster, tap) {
            self.consume_cqe(cluster, cqe, tap, &mut events);
        }
        events
    }

    fn consume_cqe(
        &mut self,
        cluster: &mut Cluster,
        cqe: Cqe,
        tap: &mut dyn LinkTap,
        events: &mut Vec<UcpEvent>,
    ) {
        match cqe.kind {
            CqeKind::SendComplete => {
                // Moderated CQE retires `completes` requests, oldest first.
                let d = self.costs.tx_prog_per_op * cqe.completes as u64;
                self.uct.cpu_mut().advance(d);
                for _ in 0..cqe.completes {
                    let req = self
                        .outstanding_sends
                        .pop_front()
                        .expect("CQE without an outstanding send");
                    match self.internal.remove(&req) {
                        None => events.push(UcpEvent::SendComplete { req }),
                        Some(InternalOp::Ctrl) => {}
                        Some(InternalOp::FragLast { user_req }) => {
                            // In-order transport: the last fragment's
                            // completion implies all earlier ones.
                            events.push(UcpEvent::SendComplete { req: user_req });
                        }
                        Some(InternalOp::RndvData { rndv_id }) => {
                            // The zero-copy payload landed: tell the
                            // receiver (FIN) and complete the user send.
                            let st = self
                                .rndv_send
                                .remove(&rndv_id)
                                .expect("rndv data without state");
                            let fin = rndv::encode(CtrlKind::Fin, rndv_id, st.payload);
                            self.pending_ctrl.push_back((st.dst, fin));
                            events.push(UcpEvent::SendComplete { req: st.user_req });
                        }
                    }
                }
                // Flush any FIN generated above right away.
                while let Some((dst, tag)) = self.pending_ctrl.pop_front() {
                    self.post_internal(
                        cluster,
                        dst,
                        CTRL_BYTES,
                        tag,
                        Opcode::Send,
                        InternalOp::Ctrl,
                        tap,
                    );
                }
            }
            CqeKind::RecvComplete => {
                // Consumed one pool buffer; repost to keep the pool full.
                self.rx_pool_posted = self.rx_pool_posted.saturating_sub(1);
                self.replenish_rx_pool(cluster, tap);
                if let Some((kind, rndv_id, low)) = rndv::decode(cqe.tag) {
                    self.handle_ctrl(cluster, cqe, kind, rndv_id, low, events, tap);
                } else if let Some((req, matched, tag)) =
                    self.matcher.arrive(cqe.tag, ArrivedMsg::Eager(cqe))
                {
                    // The UCP completion callback (139.78 ns), plus the
                    // unpack copy for bounced eager payloads.
                    let t0 = self.uct.now();
                    let d = self.costs.recv_callback;
                    self.uct.cpu_mut().advance(d);
                    self.note_recv_cb(t0);
                    trace::span(
                        trace::Layer::Hlp,
                        "ucp.recv_cb",
                        t0,
                        self.uct.now(),
                        cqe.tag,
                    );
                    let payload = match matched {
                        ArrivedMsg::Eager(c) => c.payload,
                        ArrivedMsg::Rts { .. } => unreachable!("eager arrival"),
                    };
                    self.charge_eager_copy(payload);
                    events.push(UcpEvent::RecvComplete { req, tag, payload });
                }
                // Unmatched: parked in the unexpected queue; the callback
                // runs when the receive is posted.
            }
        }
    }

    /// Rendezvous control-message handling (§5's "high-level
    /// communication protocols" in action).
    #[allow(clippy::too_many_arguments)]
    fn handle_ctrl(
        &mut self,
        cluster: &mut Cluster,
        cqe: Cqe,
        kind: CtrlKind,
        rndv_id: RndvId,
        low: u32,
        events: &mut Vec<UcpEvent>,
        tap: &mut dyn LinkTap,
    ) {
        match kind {
            CtrlKind::Rts => {
                match self.matcher.arrive(
                    low as u64,
                    ArrivedMsg::Rts {
                        src: cqe.src,
                        rndv_id,
                    },
                ) {
                    Some((req, ArrivedMsg::Rts { src, rndv_id }, tag)) => {
                        self.rndv_recv
                            .insert((src, rndv_id), RndvRecv { user_req: req, tag });
                        let cts = rndv::encode(CtrlKind::Cts, rndv_id, 0);
                        self.post_internal(
                            cluster,
                            src,
                            CTRL_BYTES,
                            cts,
                            Opcode::Send,
                            InternalOp::Ctrl,
                            tap,
                        );
                    }
                    Some((_, ArrivedMsg::Eager(_), _)) => unreachable!("RTS arrival"),
                    None => {} // parked unexpected; CTS sent when recv posts
                }
            }
            CtrlKind::Cts => {
                let st = *self
                    .rndv_send
                    .get(&rndv_id)
                    .expect("CTS without a pending rendezvous send");
                // Zero-copy payload transfer: one-sided RDMA write.
                self.post_internal(
                    cluster,
                    st.dst,
                    st.payload,
                    0,
                    Opcode::RdmaWrite,
                    InternalOp::RndvData { rndv_id },
                    tap,
                );
            }
            CtrlKind::Fin => {
                let st = self
                    .rndv_recv
                    .remove(&(cqe.src, rndv_id))
                    .expect("FIN without a matched rendezvous receive");
                let t0 = self.uct.now();
                let d = self.costs.recv_callback;
                self.uct.cpu_mut().advance(d);
                self.note_recv_cb(t0);
                trace::span(
                    trace::Layer::Hlp,
                    "ucp.recv_cb",
                    t0,
                    self.uct.now(),
                    u64::from(rndv_id.0),
                );
                events.push(UcpEvent::RecvComplete {
                    req: st.user_req,
                    tag: st.tag,
                    payload: low,
                });
            }
            CtrlKind::FragMid => {
                let entry = self
                    .frag_assembly
                    .entry((cqe.src, rndv_id))
                    .or_insert((0, 0, 0));
                entry.0 += cqe.payload;
                entry.1 += 1;
                entry.2 = low; // total fragment count (carried on mids)
                self.try_complete_fragments(cqe.src, rndv_id, None, events);
            }
            CtrlKind::FragLast => {
                let entry = self
                    .frag_assembly
                    .entry((cqe.src, rndv_id))
                    .or_insert((0, 0, 0));
                entry.0 += cqe.payload;
                entry.1 += 1;
                self.try_complete_fragments(cqe.src, rndv_id, Some(low as u64), events);
            }
        }
    }

    /// If the assembly for (src, frag op) is complete, deliver it through
    /// the tag matcher as one eager arrival. `user_tag` is learned from
    /// the final fragment; fragments may arrive out of order, so the tag
    /// is stashed until completion.
    fn try_complete_fragments(
        &mut self,
        src: NodeId,
        frag_op: RndvId,
        user_tag: Option<u64>,
        events: &mut Vec<UcpEvent>,
    ) {
        // Stash the user tag alongside the assembly (reuse rndv_recv-style
        // side table keyed in the assembly map via a parallel entry).
        if let Some(tag) = user_tag {
            self.frag_tags.insert((src, frag_op), tag);
        }
        let Some(&(bytes, seen, total)) = self.frag_assembly.get(&(src, frag_op)) else {
            return;
        };
        let Some(&tag) = self.frag_tags.get(&(src, frag_op)) else {
            return; // last fragment not yet seen
        };
        // total is 0 until a mid arrives; a 2-fragment message may see the
        // last first — completion requires seen == total and total known,
        // where total comes from any mid (total >= 2 always here).
        if total == 0 || seen < total {
            return;
        }
        self.frag_assembly.remove(&(src, frag_op));
        self.frag_tags.remove(&(src, frag_op));
        // Deliver as one eager arrival: match or park.
        let pseudo = Cqe {
            wr_id: bband_nic::WrId(u64::MAX),
            qp: self.ep.qp(),
            kind: CqeKind::RecvComplete,
            src,
            completes: 1,
            payload: bytes,
            tag,
            visible_at: bband_sim::SimTime::ZERO,
            cause: trace::SpanId::NONE,
        };
        if let Some((req, matched, tag)) = self.matcher.arrive(tag, ArrivedMsg::Eager(pseudo)) {
            let t0 = self.uct.now();
            let d = self.costs.recv_callback;
            self.uct.cpu_mut().advance(d);
            self.note_recv_cb(t0);
            trace::span(trace::Layer::Hlp, "ucp.recv_cb", t0, self.uct.now(), tag);
            let payload = match matched {
                ArrivedMsg::Eager(c) => c.payload,
                ArrivedMsg::Rts { .. } => unreachable!(),
            };
            self.charge_eager_copy(payload);
            events.push(UcpEvent::RecvComplete { req, tag, payload });
        }
    }

    /// Spin `worker_progress` until at least one event arrives,
    /// fast-forwarding across hardware dead time like a polling core.
    pub fn wait_any(&mut self, cluster: &mut Cluster, tap: &mut dyn LinkTap) -> Vec<UcpEvent> {
        loop {
            let events = self.worker_progress(cluster, tap);
            if !events.is_empty() {
                return events;
            }
            match cluster.next_wake(self.node(), self.ep.qp()) {
                Some(t) => {
                    self.uct.cpu_mut().advance_to(t);
                }
                None => panic!("deadlock: ucp wait with no pending hardware"),
            }
        }
    }

    /// If a moderation tail exists (trailing unsignaled sends that will
    /// never produce a CQE of their own), post a zero-byte *signaled*
    /// one-sided no-op whose moderated CQE retires the whole tail — what
    /// UCX's flush does. Returns true if a no-op was posted.
    pub fn force_signal(&mut self, cluster: &mut Cluster, tap: &mut dyn LinkTap) -> bool {
        if self.sends_since_signal == 0 || self.outstanding_sends.is_empty() {
            return false;
        }
        let dst = self
            .last_dst
            .expect("outstanding sends imply a destination");
        let req = self.alloc_req();
        self.sends_since_signal = 0;
        loop {
            match self
                .uct
                .post(&mut self.ep, cluster, Opcode::RdmaWrite, dst, 0, true, tap)
            {
                Ok(_) => {
                    self.outstanding_sends.push_back(req);
                    return true;
                }
                Err(_) => {
                    let _ = self.worker_progress(cluster, tap);
                }
            }
        }
    }

    /// Progress until every outstanding send has completed (including
    /// rendezvous handshakes and protocol-internal operations), forcing a
    /// signal first if a moderation tail would otherwise never complete.
    /// User events observed along the way are preserved and re-delivered
    /// by the next `worker_progress`.
    pub fn flush_sends(&mut self, cluster: &mut Cluster, tap: &mut dyn LinkTap) {
        self.force_signal(cluster, tap);
        while self.outstanding() > 0 {
            let events = self.worker_progress(cluster, tap);
            self.deferred_events.extend(events);
            if self.outstanding() == 0 {
                break;
            }
            match cluster.next_wake(self.node(), self.ep.qp()) {
                Some(t) => {
                    self.uct.cpu_mut().advance_to(t);
                }
                None => panic!(
                    "flush deadlock: {} operations outstanding with no pending hardware",
                    self.outstanding()
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_llp::LlpCosts;
    use bband_pcie::NullTap;

    fn setup() -> (Cluster, UcpWorker, UcpWorker) {
        let mut cluster = Cluster::two_node_paper(21).deterministic();
        let mut tap = NullTap;
        let mk = |node: u32, seed: u64| {
            Worker::new(NodeId(node), LlpCosts::default().deterministic(), seed)
        };
        let mut u0 = UcpWorker::new(mk(0, 5), UcpCosts::default().unmoderated());
        let mut u1 = UcpWorker::new(mk(1, 6), UcpCosts::default().unmoderated());
        u0.replenish_rx_pool(&mut cluster, &mut tap);
        u1.replenish_rx_pool(&mut cluster, &mut tap);
        (cluster, u0, u1)
    }

    #[test]
    fn tagged_send_recv_roundtrip() {
        let (mut cl, mut u0, mut u1) = setup();
        let mut tap = NullTap;
        let rx_req = u1.tag_recv_nb(TagMask::exact(0x77));
        u0.tag_send_nb(&mut cl, NodeId(1), 8, 0x77, &mut tap);
        let events = u1.wait_any(&mut cl, &mut tap);
        assert!(
            events.iter().any(|e| matches!(
                e,
                UcpEvent::RecvComplete { req, tag: 0x77, payload: 8 } if *req == rx_req
            )),
            "expected recv completion, got {events:?}"
        );
    }

    #[test]
    fn send_cost_adds_ucp_overhead_on_top_of_llp_post() {
        let (mut cl, mut u0, _) = setup();
        let mut tap = NullTap;
        let t0 = u0.now();
        u0.tag_send_nb(&mut cl, NodeId(1), 8, 1, &mut tap);
        let elapsed = u0.now().since(t0).as_ns_f64();
        // 2.19 (UCP) + 175.42 (LLP_post)
        assert!((elapsed - 177.61).abs() < 0.01, "UCP send path = {elapsed}");
    }

    #[test]
    fn unexpected_message_matches_late_recv() {
        let (mut cl, mut u0, mut u1) = setup();
        let mut tap = NullTap;
        u0.tag_send_nb(&mut cl, NodeId(1), 8, 0xAA, &mut tap);
        // Let everything land with no receive posted; move the target CPU
        // past the landing time so the writes are observable to its loads.
        let end = cl.run_until_idle(&mut tap);
        u1.uct_mut().cpu_mut().advance_to(end);
        // Drain the transport CQE into the unexpected queue.
        let evs = u1.worker_progress(&mut cl, &mut tap);
        assert!(evs.is_empty(), "no app recv posted: {evs:?}");
        // Now post the receive: matches the parked message.
        let rx = u1.tag_recv_nb(TagMask::exact(0xAA));
        let evs = u1.worker_progress(&mut cl, &mut tap);
        assert!(
            evs.iter()
                .any(|e| matches!(e, UcpEvent::RecvComplete { req, .. } if *req == rx)),
            "late recv must match unexpected message: {evs:?}"
        );
    }

    #[test]
    fn moderated_sends_signal_every_cth() {
        let mut cluster = Cluster::two_node_paper(22).deterministic();
        let mut tap = NullTap;
        let uct = Worker::new(NodeId(0), LlpCosts::default().deterministic(), 7);
        let costs = UcpCosts {
            signal_period: 4,
            ..Default::default()
        };
        let mut u0 = UcpWorker::new(uct, costs);
        for _ in 0..8 {
            u0.tag_send_nb(&mut cluster, NodeId(1), 8, 0, &mut tap);
        }
        // Run hardware; two moderated CQEs (one per 4 sends) should retire
        // all eight requests.
        let end = cluster.run_until_idle(&mut tap);
        u0.uct_mut().cpu_mut().advance_to(end);
        let mut completed = 0;
        while completed < 8 {
            let evs = u0.worker_progress(&mut cluster, &mut tap);
            completed += evs
                .iter()
                .filter(|e| matches!(e, UcpEvent::SendComplete { .. }))
                .count();
            if evs.is_empty() && cluster.is_idle() {
                break;
            }
        }
        assert_eq!(completed, 8);
        assert_eq!(u0.outstanding(), 0);
    }

    #[test]
    fn busy_posts_reschedule_during_progress() {
        let mut cluster = Cluster::two_node_paper(23).deterministic();
        let mut tap = NullTap;
        let mut uct = Worker::new(NodeId(0), LlpCosts::default().deterministic(), 8);
        uct.set_ring_capacity(2);
        let mut u0 = UcpWorker::new(uct, UcpCosts::default().unmoderated());
        for _ in 0..4 {
            u0.tag_send_nb(&mut cluster, NodeId(1), 8, 0, &mut tap);
        }
        assert_eq!(u0.rescheduled_sends, 2, "ring of 2: two sends deferred");
        assert_eq!(u0.outstanding(), 4);
        u0.flush_sends(&mut cluster, &mut tap);
        assert_eq!(u0.outstanding(), 0, "pending sends drained by progress");
    }

    #[test]
    fn flush_with_moderation_tail_completes() {
        let mut cluster = Cluster::two_node_paper(24).deterministic();
        let mut tap = NullTap;
        let uct = Worker::new(NodeId(0), LlpCosts::default().deterministic(), 9);
        let costs = UcpCosts {
            signal_period: 64,
            ..Default::default()
        };
        let mut u0 = UcpWorker::new(uct, costs);
        // 10 sends: none reaches the signal period.
        for _ in 0..10 {
            u0.tag_send_nb(&mut cluster, NodeId(1), 8, 0, &mut tap);
        }
        u0.flush_sends(&mut cluster, &mut tap);
        assert_eq!(u0.outstanding(), 0);
    }

    #[test]
    fn rendezvous_transfer_completes_both_sides() {
        // A payload above the threshold takes the RTS/CTS/RDMA/FIN path.
        let mut cluster = Cluster::two_node_paper(40).deterministic();
        let mut tap = NullTap;
        let mk = |n: u32, s: u64| Worker::new(NodeId(n), LlpCosts::default().deterministic(), s);
        let mut u0 = UcpWorker::new(mk(0, 50), UcpCosts::default().unmoderated());
        let mut u1 = UcpWorker::new(mk(1, 51), UcpCosts::default().unmoderated());
        u0.rndv_threshold = 1_000;
        u1.rndv_threshold = 1_000;
        u0.replenish_rx_pool(&mut cluster, &mut tap);
        u1.replenish_rx_pool(&mut cluster, &mut tap);

        let rx = u1.tag_recv_nb(TagMask::exact(0x42));
        let tx = u0.tag_send_nb(&mut cluster, NodeId(1), 64 * 1024, 0x42, &mut tap);
        // Counts the user op and the in-flight RTS control message.
        assert_eq!(u0.outstanding(), 2, "rendezvous op + RTS outstanding");

        // Drive both sides until the receive completes (the handshake
        // needs alternating progress).
        let mut rx_done = false;
        let mut tx_done = false;
        for _ in 0..200 {
            for ev in u1.worker_progress(&mut cluster, &mut tap) {
                if let UcpEvent::RecvComplete { req, tag, payload } = ev {
                    assert_eq!(req, rx);
                    assert_eq!(tag, 0x42);
                    assert_eq!(payload, 64 * 1024);
                    rx_done = true;
                }
            }
            for ev in u0.worker_progress(&mut cluster, &mut tap) {
                if let UcpEvent::SendComplete { req } = ev {
                    assert_eq!(req, tx);
                    tx_done = true;
                }
            }
            if rx_done && tx_done {
                break;
            }
            // Fast-forward the laggard CPU across hardware dead time.
            if let Some(t) = cluster.next_event_time() {
                u0.uct_mut().cpu_mut().advance_to(t);
                u1.uct_mut().cpu_mut().advance_to(t);
            }
        }
        assert!(rx_done, "rendezvous receive never completed");
        assert!(tx_done, "rendezvous send never completed");
        // The FIN control message may still be in flight; flush retires it.
        u0.flush_sends(&mut cluster, &mut tap);
        assert_eq!(u0.outstanding(), 0);
    }

    #[test]
    fn rendezvous_rts_parks_until_recv_posted() {
        let mut cluster = Cluster::two_node_paper(41).deterministic();
        let mut tap = NullTap;
        let mk = |n: u32, s: u64| Worker::new(NodeId(n), LlpCosts::default().deterministic(), s);
        let mut u0 = UcpWorker::new(mk(0, 60), UcpCosts::default().unmoderated());
        let mut u1 = UcpWorker::new(mk(1, 61), UcpCosts::default().unmoderated());
        u0.rndv_threshold = 1_000;
        u1.rndv_threshold = 1_000;
        u0.replenish_rx_pool(&mut cluster, &mut tap);
        u1.replenish_rx_pool(&mut cluster, &mut tap);

        u0.tag_send_nb(&mut cluster, NodeId(1), 32 * 1024, 0x7, &mut tap);
        // Let the RTS land with no receive posted.
        let end = cluster.run_until_idle(&mut tap);
        u1.uct_mut().cpu_mut().advance_to(end);
        assert!(u1.worker_progress(&mut cluster, &mut tap).is_empty());
        // Post the receive late: the parked RTS matches and CTS flows.
        let rx = u1.tag_recv_nb(TagMask::exact(0x7));
        let mut rx_done = false;
        for _ in 0..200 {
            for ev in u1.worker_progress(&mut cluster, &mut tap) {
                if let UcpEvent::RecvComplete { req, payload, .. } = ev {
                    assert_eq!(req, rx);
                    assert_eq!(payload, 32 * 1024);
                    rx_done = true;
                }
            }
            let _ = u0.worker_progress(&mut cluster, &mut tap);
            if rx_done {
                break;
            }
            if let Some(t) = cluster.next_event_time() {
                u0.uct_mut().cpu_mut().advance_to(t);
                u1.uct_mut().cpu_mut().advance_to(t);
            }
        }
        assert!(rx_done, "late-posted rendezvous receive never completed");
    }

    #[test]
    fn eager_below_threshold_rendezvous_above() {
        let mut cluster = Cluster::two_node_paper(42).deterministic();
        let mut tap = NullTap;
        let mk = |n: u32, s: u64| Worker::new(NodeId(n), LlpCosts::default().deterministic(), s);
        let mut u0 = UcpWorker::new(mk(0, 70), UcpCosts::default().unmoderated());
        u0.rndv_threshold = 256;
        u0.replenish_rx_pool(&mut cluster, &mut tap);
        // Below threshold: one eager send, no rendezvous state.
        u0.tag_send_nb(&mut cluster, NodeId(1), 255, 1, &mut tap);
        assert!(u0.rndv_send.is_empty());
        // At/above threshold: rendezvous state appears.
        u0.tag_send_nb(&mut cluster, NodeId(1), 256, 2, &mut tap);
        assert_eq!(u0.rndv_send.len(), 1);
    }

    #[test]
    fn wildcard_recv_matches_any_tag() {
        let (mut cl, mut u0, mut u1) = setup();
        let mut tap = NullTap;
        let rx = u1.tag_recv_nb(TagMask::ANY);
        u0.tag_send_nb(&mut cl, NodeId(1), 8, 0x1234_5678, &mut tap);
        let evs = u1.wait_any(&mut cl, &mut tap);
        assert!(evs.iter().any(|e| matches!(
            e,
            UcpEvent::RecvComplete { req, tag: 0x1234_5678, .. } if *req == rx
        )));
    }
}
