//! One MPI process (rank) and its request machinery.

use crate::costs::MpiCosts;
use bband_fabric::NodeId;
use bband_hlp::ucp::ReqId;
use bband_hlp::{TagMask, UcpEvent, UcpWorker};
use bband_nic::Cluster;
use bband_pcie::LinkTap;
use bband_sim::{IdMap, SimTime};
use bband_trace as trace;

/// MPI_ANY_TAG.
pub const ANY_TAG: i64 = -1;

/// An MPI request handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MpiRequest(pub u64);

/// Lifecycle of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// In flight.
    Pending,
    /// Finished; `MPI_Wait` on it returns immediately.
    Complete,
}

/// One MPI rank, mapped 1:1 onto a node of the cluster (a process per core,
/// the paper's strong-scaling end point).
#[derive(Debug)]
pub struct MpiProcess {
    ucp: UcpWorker,
    costs: MpiCosts,
    /// State of every request ever allocated, indexed by its handle
    /// (handles are dense from 0).
    states: Vec<RequestState>,
    by_ucp: IdMap<ReqId, MpiRequest>,
    /// Diagnostics: progress-loop iterations spent spinning in waits.
    pub wait_spins: u64,
}

impl MpiProcess {
    /// Wrap a UCP worker as an MPI rank.
    pub fn new(ucp: UcpWorker, costs: MpiCosts) -> Self {
        MpiProcess {
            ucp,
            costs,
            states: Vec::new(),
            by_ucp: IdMap::default(),
            wait_spins: 0,
        }
    }

    /// This rank's node.
    pub fn node(&self) -> NodeId {
        self.ucp.node()
    }

    /// Local CPU time.
    pub fn now(&self) -> SimTime {
        self.ucp.now()
    }

    /// The underlying UCP worker.
    pub fn ucp(&self) -> &UcpWorker {
        &self.ucp
    }

    /// Mutable access to the UCP worker (benchmarks).
    pub fn ucp_mut(&mut self) -> &mut UcpWorker {
        &mut self.ucp
    }

    /// Pre-post the transport receive pool (call once at "MPI_Init").
    pub fn init(&mut self, cluster: &mut Cluster, tap: &mut dyn LinkTap) {
        self.ucp.replenish_rx_pool(cluster, tap);
    }

    fn alloc(&mut self, ucp_req: ReqId) -> MpiRequest {
        let req = MpiRequest(self.states.len() as u64);
        self.states.push(RequestState::Pending);
        self.by_ucp.insert(ucp_req, req);
        req
    }

    /// State of a request.
    pub fn state(&self, req: MpiRequest) -> RequestState {
        *self
            .states
            .get(req.0 as usize)
            .expect("unknown MPI request")
    }

    /// Non-blocking tagged send: `MPI_Isend`.
    pub fn isend(
        &mut self,
        cluster: &mut Cluster,
        dst: NodeId,
        payload: u32,
        tag: i64,
        tap: &mut dyn LinkTap,
    ) -> MpiRequest {
        assert!(tag >= 0, "send tags must be concrete");
        // MPICH's own send-path work (24.37 ns), then into UCP. The
        // bracket is the paper's aggregate `HLP_post` slice (MPICH + UCP
        // send-side work, 26.56 ns for an 8-byte eager message), named to
        // match the fault engine's stage so `trace_diff` can compare them.
        let t0 = self.now();
        let d = self.costs.isend;
        self.ucp.uct_mut().cpu_mut().advance(d);
        let ucp_req = self.ucp.tag_send_nb(cluster, dst, payload, tag as u64, tap);
        let hlp_end = self.ucp.take_tag_send_end().unwrap_or_else(|| self.now());
        trace::span(trace::Layer::Hlp, "HLP_post", t0, hlp_end, tag as u64);
        self.alloc(ucp_req)
    }

    /// Non-blocking tagged receive: `MPI_Irecv` (`tag` may be [`ANY_TAG`]).
    pub fn irecv(&mut self, tag: i64) -> MpiRequest {
        let d = self.costs.irecv;
        self.ucp.uct_mut().cpu_mut().advance(d);
        let sel = if tag == ANY_TAG {
            TagMask::ANY
        } else {
            TagMask::exact(tag as u64)
        };
        let ucp_req = self.ucp.tag_recv_nb(sel);
        self.alloc(ucp_req)
    }

    /// Consume UCP events: run the registered MPICH callbacks and flip
    /// request states.
    fn absorb(&mut self, events: &[UcpEvent], charge_waitall_rate: bool) {
        for ev in events {
            match ev {
                UcpEvent::RecvComplete { req, .. } => {
                    // The registered MPICH receive callback (47.99 ns).
                    let d = self.costs.recv_callback;
                    self.ucp.uct_mut().cpu_mut().advance(d);
                    self.complete(*req);
                }
                UcpEvent::SendComplete { req } => {
                    if charge_waitall_rate {
                        let d = self.costs.waitall_per_op;
                        self.ucp.uct_mut().cpu_mut().advance(d);
                    }
                    self.complete(*req);
                }
            }
        }
    }

    fn complete(&mut self, ucp_req: ReqId) {
        // Internal UCP requests (e.g. flush no-ops) have no MPI request.
        if let Some(req) = self.by_ucp.remove(&ucp_req) {
            self.states[req.0 as usize] = RequestState::Complete;
        }
    }

    /// Blocking `MPI_Wait`. The progress-engine loop spins until the
    /// request completes; prologue and failed iterations overlap the wait,
    /// and after the successful progress MPICH pays its epilogue (36.89 ns).
    pub fn wait(&mut self, cluster: &mut Cluster, req: MpiRequest, tap: &mut dyn LinkTap) {
        let d = self.costs.wait_prologue;
        self.ucp.uct_mut().cpu_mut().advance(d);
        // Bracket for the paper's aggregate `HLP_rx_prog` slice: from the
        // start of the UCP receive callback of the batch that completed
        // the request, through MPICH's callback, to past the epilogue
        // (139.78 + 47.99 + 36.89 = 224.66 ns for an 8-byte message).
        self.ucp.take_recv_cb_start();
        let mut rx_start = None;
        loop {
            if self.state(req) == RequestState::Complete {
                break;
            }
            let events = self.ucp.worker_progress(cluster, tap);
            if events.is_empty() {
                self.wait_spins += 1;
                let d = self.costs.wait_iteration;
                self.ucp.uct_mut().cpu_mut().advance(d);
                // Fast-forward across hardware dead time like a spinning
                // core (wall-clock burned either way).
                if self.state(req) != RequestState::Complete {
                    if let Some(t) = cluster.next_wake(self.node(), self.ucp.qp()) {
                        self.ucp.uct_mut().cpu_mut().advance_to(t);
                    } else if !self.ucp.force_signal(cluster, tap) {
                        panic!("MPI_Wait deadlock: no pending hardware events");
                    }
                }
            } else {
                self.absorb(&events, false);
                // Each absorbed batch supersedes the last: if the final
                // batch completed a receive, its callback start opens the
                // aggregate span; a send-only batch clears it.
                rx_start = self.ucp.take_recv_cb_start();
            }
        }
        let d = self.costs.wait_epilogue;
        self.ucp.uct_mut().cpu_mut().advance(d);
        if let Some(t0) = rx_start {
            trace::span(trace::Layer::Hlp, "HLP_rx_prog", t0, self.now(), req.0);
        }
    }

    /// Blocking `MPI_Waitall` over send requests, with the batched progress
    /// the paper's injection analysis uses (§6): unsignaled completions
    /// amortize `LLP_prog`, and MPICH/UCP pay their per-operation
    /// bookkeeping for every completed operation.
    pub fn waitall(&mut self, cluster: &mut Cluster, reqs: &[MpiRequest], tap: &mut dyn LinkTap) {
        // `reqs[..done]` are complete. A request never returns to
        // `Pending`, so each iteration checks only from the first one
        // still pending, not the whole window again.
        let mut done = 0;
        loop {
            while done < reqs.len() && self.state(reqs[done]) == RequestState::Complete {
                done += 1;
            }
            if done == reqs.len() {
                break;
            }
            let events = self.ucp.worker_progress(cluster, tap);
            if events.is_empty() {
                if let Some(t) = cluster.next_wake(self.node(), self.ucp.qp()) {
                    self.wait_spins += 1;
                    self.ucp.uct_mut().cpu_mut().advance_to(t);
                } else if !self.ucp.force_signal(cluster, tap) {
                    // Nothing in flight and nothing flushable: a receive
                    // request with no matching sender, i.e. a real hang.
                    panic!("MPI_Waitall deadlock: no pending hardware events");
                }
            } else {
                self.absorb(&events, true);
            }
        }
    }

    /// `MPI_Send` = `MPI_Isend` + `MPI_Wait`.
    pub fn send(
        &mut self,
        cluster: &mut Cluster,
        dst: NodeId,
        payload: u32,
        tag: i64,
        tap: &mut dyn LinkTap,
    ) {
        let req = self.isend(cluster, dst, payload, tag, tap);
        self.wait(cluster, req, tap);
    }

    /// `MPI_Recv` = `MPI_Irecv` + `MPI_Wait`.
    pub fn recv(&mut self, cluster: &mut Cluster, tag: i64, tap: &mut dyn LinkTap) {
        let req = self.irecv(tag);
        self.wait(cluster, req, tap);
    }

    /// Absorb externally collected UCP events (tests driving two ranks'
    /// progress engines by hand).
    #[doc(hidden)]
    pub fn absorb_for_test(&mut self, events: &[UcpEvent]) {
        self.absorb(events, false);
    }

    /// One non-blocking progress pulse: drive UCP once and absorb whatever
    /// completed. Returns true if any event was processed. Used by drivers
    /// that interleave several ranks (collectives, co-simulations).
    pub fn pump(&mut self, cluster: &mut Cluster, tap: &mut dyn LinkTap) -> bool {
        let events = self.ucp.worker_progress(cluster, tap);
        let any = !events.is_empty();
        self.absorb(&events, false);
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_hlp::UcpCosts;
    use bband_llp::{LlpCosts, Worker};
    use bband_pcie::NullTap;

    fn rank(node: u32, seed: u64, ucp_costs: UcpCosts) -> MpiProcess {
        let uct = Worker::new(NodeId(node), LlpCosts::default().deterministic(), seed);
        MpiProcess::new(UcpWorker::new(uct, ucp_costs), MpiCosts::default())
    }

    fn setup() -> (Cluster, MpiProcess, MpiProcess) {
        let mut cluster = Cluster::two_node_paper(31).deterministic();
        let mut tap = NullTap;
        let mut r0 = rank(0, 1, UcpCosts::default().unmoderated());
        let mut r1 = rank(1, 2, UcpCosts::default().unmoderated());
        r0.init(&mut cluster, &mut tap);
        r1.init(&mut cluster, &mut tap);
        (cluster, r0, r1)
    }

    #[test]
    fn isend_charges_hlp_post_then_llp_post() {
        let (mut cl, mut r0, _) = setup();
        let mut tap = NullTap;
        let t0 = r0.now();
        r0.isend(&mut cl, NodeId(1), 8, 0, &mut tap);
        let elapsed = r0.now().since(t0).as_ns_f64();
        // 24.37 + 2.19 + 175.42 = 201.98 = the paper's `Post`.
        assert!((elapsed - 201.98).abs() < 0.01, "Post = {elapsed}");
    }

    #[test]
    fn blocking_send_recv_pair() {
        let (mut cl, mut r0, mut r1) = setup();
        let mut tap = NullTap;
        let rx = r1.irecv(42);
        r0.send(&mut cl, NodeId(1), 8, 42, &mut tap);
        r1.wait(&mut cl, rx, &mut tap);
        assert_eq!(r1.state(rx), RequestState::Complete);
    }

    #[test]
    fn any_tag_receive() {
        let (mut cl, mut r0, mut r1) = setup();
        let mut tap = NullTap;
        let rx = r1.irecv(ANY_TAG);
        r0.send(&mut cl, NodeId(1), 8, 1234, &mut tap);
        r1.wait(&mut cl, rx, &mut tap);
        assert_eq!(r1.state(rx), RequestState::Complete);
    }

    #[test]
    fn wait_on_complete_request_is_fast() {
        let (mut cl, mut r0, mut r1) = setup();
        let mut tap = NullTap;
        let rx = r1.irecv(7);
        r0.send(&mut cl, NodeId(1), 8, 7, &mut tap);
        r1.wait(&mut cl, rx, &mut tap);
        // Second wait on the same completed request: only prologue+epilogue.
        let t0 = r1.now();
        r1.wait(&mut cl, rx, &mut tap);
        let elapsed = r1.now().since(t0).as_ns_f64();
        assert!(elapsed < 100.0, "re-wait should not progress: {elapsed}");
    }

    #[test]
    fn waitall_with_moderated_completions() {
        let mut cluster = Cluster::two_node_paper(33).deterministic();
        let mut tap = NullTap;
        let ucp_costs = UcpCosts {
            signal_period: 16,
            ..Default::default()
        };
        let mut r0 = rank(0, 3, ucp_costs);
        let mut r1 = rank(1, 4, UcpCosts::default().unmoderated());
        r0.init(&mut cluster, &mut tap);
        r1.init(&mut cluster, &mut tap);
        // Window of 32 sends: two moderated CQEs cover them.
        let reqs: Vec<MpiRequest> = (0..32)
            .map(|i| r0.isend(&mut cluster, NodeId(1), 8, i, &mut tap))
            .collect();
        r0.waitall(&mut cluster, &reqs, &mut tap);
        for r in &reqs {
            assert_eq!(r0.state(*r), RequestState::Complete);
        }
        // Target side: drain the 32 sends into its unexpected queue (no
        // receives posted — irrelevant for this test).
    }

    #[test]
    fn large_isend_takes_rendezvous_and_completes() {
        // A 64 KiB Isend exceeds the UCP rendezvous threshold (8 KiB): the
        // full RTS/CTS/RDMA/FIN handshake runs under MPI_Wait.
        let (mut cl, mut r0, mut r1) = setup();
        let mut tap = NullTap;
        let rx = r1.irecv(5);
        let tx = r0.isend(&mut cl, NodeId(1), 64 * 1024, 5, &mut tap);
        // Interleave the two progress engines (the handshake needs both).
        let mut guard = 0;
        while r1.state(rx) != RequestState::Complete {
            guard += 1;
            assert!(guard < 500, "rendezvous via MPI never completed");
            let evs = r1.ucp_mut().worker_progress(&mut cl, &mut tap);
            r1.absorb_for_test(&evs);
            let evs = r0.ucp_mut().worker_progress(&mut cl, &mut tap);
            r0.absorb_for_test(&evs);
            if let Some(t) = cl.next_event_time() {
                r0.ucp_mut().uct_mut().cpu_mut().advance_to(t);
                r1.ucp_mut().uct_mut().cpu_mut().advance_to(t);
            }
        }
        assert_eq!(r1.state(rx), RequestState::Complete);
        // Sender side finishes with a plain wait.
        r0.wait(&mut cl, tx, &mut tap);
        assert_eq!(r0.state(tx), RequestState::Complete);
    }

    #[test]
    fn ping_pong_latency_close_to_model() {
        // End-to-end latency (§6): HLP_post + LLP_post + 2·PCIe + Network
        // + RC-to-MEM(8B) + LLP_prog + HLP_rx_prog = 1387.02 ns.
        let (mut cl, mut r0, mut r1) = setup();
        let mut tap = NullTap;
        // Warm up one round so both clocks are aligned mid-steady-state.
        let rx0 = r1.irecv(0);
        r0.send(&mut cl, NodeId(1), 8, 0, &mut tap);
        r1.wait(&mut cl, rx0, &mut tap);
        r1.send(&mut cl, NodeId(0), 8, 0, &mut tap);
        r0.recv(&mut cl, 0, &mut tap);

        // Measured round: r0 sends, r1 receives. One-way latency is the
        // gap from just before Isend on r0 to just after the wait returns
        // on r1... but the two clocks are independent; instead measure a
        // full round trip on r0 and halve it, as the benchmarks do.
        let iters = 50;
        let t0 = r0.now();
        for i in 1..=iters {
            let rx = r1.irecv(i);
            r0.send(&mut cl, NodeId(1), 8, i, &mut tap);
            r1.wait(&mut cl, rx, &mut tap);
            r1.send(&mut cl, NodeId(0), 8, i, &mut tap);
            r0.recv(&mut cl, i, &mut tap);
        }
        let rtt = r0.now().since(t0).as_ns_f64() / iters as f64;
        let one_way = rtt / 2.0;
        let model = 1387.02;
        let err = (one_way - model).abs() / model;
        assert!(
            err < 0.10,
            "one-way latency {one_way:.1} vs model {model} (err {:.1}%)",
            err * 100.0
        );
    }
}
