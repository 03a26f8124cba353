//! Fault injection and recovery, threaded into the end-to-end latency path.
//!
//! The calibrated models of [`crate::latency`] describe the *fault-free*
//! fast path: no packet is ever lost on the fabric, no TLP is ever
//! corrupted on the PCIe link, credits never run out. The substrate crates
//! carry the full recovery machinery a real stack has — go-back-N with
//! NAKs and retransmission timers ([`bband_fabric::RcSender`]), the DLL
//! replay buffer ([`bband_pcie::ReplayBuffer`]), credit-based flow control
//! ([`bband_pcie::FlowControl`]) — but until now it was only exercised by
//! isolated failure-injection tests.
//!
//! This module connects the two: a serializable [`FaultPlan`] configures
//! loss, corruption, credit starvation, NIC stall windows, and the message
//! payload size, and [`run_e2e_under_faults_on`] drives a stream of messages
//! (8-byte eager sends by default; any size up to multi-MB segmented
//! rendezvous transfers) through a discrete-event simulation of the full
//! initiator → TX PCIe → fabric → RX PCIe → target pipeline, with every
//! recovery mechanism live:
//!
//! * fabric loss triggers receiver NAKs (out-of-sequence arrivals) and
//!   sender retransmission timeouts, scheduled as events at
//!   [`bband_fabric::RcSender::next_deadline`] with exponential backoff;
//! * TLP corruption triggers DLL NACK + replay, each round costing one
//!   extra PCIe round-trip;
//! * exhausted credits park the MMIO write until an UpdateFC event
//!   replenishes the pool;
//! * a bounded retry budget turns a dead link into a terminal
//!   [`RetryExhausted`] error instead of an unbounded retry loop.
//!
//! **Zero-fault invariant**: with [`FaultPlan::none`] the simulation draws
//! no randomness, engages no recovery (its [`RecoveryCounters`] stay
//! clean), and every message's latency equals
//! [`EndToEndLatencyModel::total`] *bit-exactly* in integer picoseconds —
//! proving the fault path is a strict superset of the calibrated model,
//! not a parallel implementation that could drift.

use crate::calibration::Calibration;
use crate::latency::{EndToEndLatencyModel, Protocol, SizedLatencyModel};
use bband_fabric::reliability::PSN_MOD;
use bband_fabric::{
    LossyFabric, NodeId, Packet, PacketId, PacketKind, Psn, RcReceiver, RcSender, RcVerdict,
};
use bband_hlp::rndv::CTRL_BYTES;
use bband_pcie::replay::ReplayFull;
use bband_pcie::{
    DllReceiver, FlowControl, LossyLink, ReplayBuffer, RxVerdict, SeqNum, Tlp, TlpIdGen,
};
use bband_profiling::RecoveryCounters;
use bband_sim::{EventKey, EventQueue, Pcg64, SimDuration, SimTime, StallSchedule, WorkerPool};
use bband_trace as trace;
use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Retransmission-timer policy: base ACK timeout (backed off exponentially
/// by the sender on consecutive fruitless rounds) and the retry budget
/// after which the run surfaces [`RetryExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Base retransmission timeout in nanoseconds; must be positive (a
    /// zero timeout backs off to zero and fires before any ACK returns).
    /// A timeout below the ~0.77 µs fault-free round trip is legal: it
    /// only retransmits spuriously. At loss 0, timeouts of 1, 100 and
    /// 500 ns still complete every message at the fault-free 1387.02 ns.
    pub timeout_ns: u64,
    /// Timer-driven go-back-N rounds the oldest packet may survive before
    /// the run aborts.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // The fault-free ACK round trip is ~0.77 µs; 2 µs leaves headroom
        // so NAK-driven recovery wins the race when it can.
        RetryPolicy {
            timeout_ns: 2_000,
            max_retries: 12,
        }
    }
}

/// Override of the TX-link posted-credit pool, for credit-starvation
/// experiments (the ConnectX-4-class default never stalls a single core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreditConfig {
    /// Header credit limit.
    pub hdr: u32,
    /// Data credit limit.
    pub data: u32,
    /// Header credits drained per UpdateFC DLLP.
    pub update_batch: u32,
}

/// Gilbert–Elliott burst-loss channel: a two-state Markov chain (good/bad)
/// with a per-state loss probability. Real fabrics lose packets in bursts
/// (a flapping cable, a congested uplink), not i.i.d.; this models the
/// difference. The chain transitions *before* each packet is sampled, so
/// `p_good_to_bad = 1` puts the very first packet in the bad state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GilbertElliott {
    /// Per-packet probability of moving good → bad.
    pub p_good_to_bad: f64,
    /// Per-packet probability of moving bad → good.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state (usually ~0).
    pub loss_good: f64,
    /// Loss probability while in the bad state (usually large).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A channel that never leaves the good state and never loses there —
    /// behaviourally identical to no burst loss at all.
    pub fn is_zero(&self) -> bool {
        self.loss_good == 0.0 && (self.p_good_to_bad == 0.0 || self.loss_bad == 0.0)
    }
}

impl Deserialize for GilbertElliott {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError::msg("GilbertElliott: expected a JSON object"));
        }
        Ok(GilbertElliott {
            p_good_to_bad: opt_field(v, "p_good_to_bad")?.unwrap_or(0.0),
            p_bad_to_good: opt_field(v, "p_bad_to_good")?.unwrap_or(1.0),
            loss_good: opt_field(v, "loss_good")?.unwrap_or(0.0),
            loss_bad: opt_field(v, "loss_bad")?.unwrap_or(0.0),
        })
    }
}

/// The burst-loss channel state machine for one run. `Clone` so the fast
/// path can advance a scratch copy over a run of messages and commit it
/// only up to the last one that drew no loss (see [`FaultSim::try_turbo`]).
#[derive(Clone)]
struct GeChannel {
    cfg: GilbertElliott,
    rng: Pcg64,
    /// True while in the bad state.
    bad: bool,
    /// Diagnostics: packets dropped by the burst channel.
    dropped: u64,
}

impl GeChannel {
    fn new(cfg: GilbertElliott, seed: u64) -> Self {
        GeChannel {
            cfg,
            rng: Pcg64::new(seed ^ 0x6E11),
            bad: false,
            dropped: 0,
        }
    }

    /// Advance the chain one packet and sample loss in the new state.
    fn drops(&mut self) -> bool {
        let flip = if self.bad {
            self.cfg.p_bad_to_good
        } else {
            self.cfg.p_good_to_bad
        };
        if flip > 0.0 && self.rng.next_bool(flip) {
            self.bad = !self.bad;
        }
        let p = if self.bad {
            self.cfg.loss_bad
        } else {
            self.cfg.loss_good
        };
        let lost = p > 0.0 && self.rng.next_bool(p);
        if lost {
            self.dropped += 1;
        }
        lost
    }
}

/// An absolute window of simulated time during which the initiator NIC
/// transmits nothing into the fabric (firmware hiccup, PFC pause, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallWindow {
    /// Window start, nanoseconds of simulated time.
    pub start_ns: u64,
    /// Window length in nanoseconds.
    pub duration_ns: u64,
}

impl StallWindow {
    /// The window's end when `[start, end)` covers `t`.
    fn end_if_covers(&self, t: SimTime) -> Option<SimTime> {
        let start = SimTime::from_ns(self.start_ns);
        let end = start + SimDuration::from_ns(self.duration_ns);
        (t >= start && t < end).then_some(end)
    }
}

/// Markov-modulated NIC stalls: the temporal analogue of
/// [`GilbertElliott`] burst loss. Instead of hand-placed absolute
/// [`StallWindow`]s, the NIC alternates between an up (serving) and a down
/// (stalled) state with exponentially distributed dwell times — a NIC that
/// falls behind goes dark for a correlated burst, not for one operation.
/// Realised as a [`bband_sim::StallSchedule`] seeded from the run seed, so
/// pooled and serial runs see identical schedules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MarkovStall {
    /// Mean serving dwell between stalls, nanoseconds (exponential).
    pub mean_up_ns: f64,
    /// Mean stall dwell, nanoseconds (exponential). Zero disables the
    /// process entirely (no randomness drawn).
    pub mean_down_ns: f64,
}

impl MarkovStall {
    /// True when the process can never stall.
    pub fn is_zero(&self) -> bool {
        self.mean_down_ns <= 0.0
    }
}

impl Deserialize for MarkovStall {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError::msg("MarkovStall: expected a JSON object"));
        }
        Ok(MarkovStall {
            mean_up_ns: opt_field(v, "mean_up_ns")?.unwrap_or(10_000.0),
            mean_down_ns: opt_field(v, "mean_down_ns")?.unwrap_or(0.0),
        })
    }
}

/// A serializable description of every fault the recovery simulation can
/// inject. `FaultPlan::none()` is the calibrated fast path.
///
/// The JSON form is sparse: omitted fields take their fault-free defaults,
/// so `{"loss_probability": 1e-3}` is a complete plan; unknown keys are refused.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Per-packet drop probability on the fabric (data and ACK/NAK alike),
    /// i.i.d. per packet.
    pub loss_probability: f64,
    /// Bursty fabric loss layered on top of the i.i.d. loss: a packet is
    /// dropped if *either* channel drops it.
    pub burst_loss: Option<GilbertElliott>,
    /// Per-traversal TLP LCRC-corruption probability on each PCIe link.
    pub corruption_probability: f64,
    /// TX-link credit pool override; `None` keeps the ConnectX-4 default.
    pub credits: Option<CreditConfig>,
    /// Injected NIC transmit-stall windows.
    pub nic_stalls: Vec<StallWindow>,
    /// Markov-modulated (correlated) NIC stalls layered on top of the
    /// absolute windows.
    pub markov_stall: Option<MarkovStall>,
    /// Retransmission-timer policy.
    pub retry: RetryPolicy,
    /// Application payload of every posted message, bytes (the paper's
    /// put_bw axis; 8 reproduces the original 8-byte story).
    pub payload_bytes: u32,
    /// Per-message payload override: message `m` carries
    /// `payload_cycle[m % len]`. Empty means every message is
    /// `payload_bytes`.
    pub payload_cycle: Vec<u32>,
    /// Eager/rendezvous selection: `None` picks the min-cost protocol from
    /// the sized model at each payload; `Some(t)` applies the classic rule
    /// (rendezvous at or above `t` bytes).
    pub rndv_threshold: Option<u32>,
}

impl FaultPlan {
    /// The fault-free plan: nothing is ever lost, corrupted, or stalled.
    pub fn none() -> Self {
        FaultPlan {
            loss_probability: 0.0,
            burst_loss: None,
            corruption_probability: 0.0,
            credits: None,
            nic_stalls: Vec::new(),
            markov_stall: None,
            retry: RetryPolicy::default(),
            payload_bytes: 8,
            payload_cycle: Vec::new(),
            rndv_threshold: None,
        }
    }

    /// Payload of message `msg` under this plan.
    pub fn payload_for(&self, msg: u64) -> u32 {
        if self.payload_cycle.is_empty() {
            self.payload_bytes
        } else {
            self.payload_cycle[(msg % self.payload_cycle.len() as u64) as usize]
        }
    }

    /// A plan that injects faults nowhere — the zero-fault invariant must
    /// hold for it.
    pub fn is_zero(&self) -> bool {
        self.loss_probability == 0.0
            && self.burst_loss.is_none_or(|g| g.is_zero())
            && self.corruption_probability == 0.0
            && self.credits.is_none()
            && self.nic_stalls.is_empty()
            && self.markov_stall.is_none_or(|m| m.is_zero())
    }

    /// Refuse a plan the engine cannot run: a probability that is not a
    /// finite number in [0, 1]; a credit pool that would deadlock the
    /// simulation rather than stall it — one that can never issue the
    /// plan's largest MMIO write, whose UpdateFC batch can never fill once
    /// the header pool empties, or whose data pool empties before one
    /// batch of those writes drains; a `nic_stalls` window that ends past
    /// [`PLAN_HORIZON_NS`]; a `markov_stall` mean outside
    /// `[0, MAX_MEAN_DWELL_NS]`; a payload above [`MAX_PAYLOAD_BYTES`]; or
    /// a zero `retry.timeout_ns`.
    pub fn check(&self) -> Result<(), PlanError> {
        if self.retry.timeout_ns == 0 {
            return Err(PlanError::ZeroTimeout);
        }
        let burst = self.burst_loss.map(|g| {
            [
                ("burst_loss.p_good_to_bad", g.p_good_to_bad),
                ("burst_loss.p_bad_to_good", g.p_bad_to_good),
                ("burst_loss.loss_good", g.loss_good),
                ("burst_loss.loss_bad", g.loss_bad),
            ]
        });
        let probabilities = [
            ("loss_probability", self.loss_probability),
            ("corruption_probability", self.corruption_probability),
        ];
        if let Some((field, value)) = probabilities
            .into_iter()
            .chain(burst.into_iter().flatten())
            .find(|(_, p)| !(0.0..=1.0).contains(p))
        {
            return Err(PlanError::Probability { field, value });
        }
        let cycle = self.payload_cycle.iter().enumerate();
        if let Some((index, bytes)) = std::iter::once((None, self.payload_bytes))
            .chain(cycle.map(|(i, &bytes)| (Some(i), bytes)))
            .find(|&(_, bytes)| bytes > MAX_PAYLOAD_BYTES)
        {
            return Err(PlanError::Payload { index, bytes });
        }
        if let Some(c) = self.credits {
            let max_chunks = if self.payload_cycle.is_empty() {
                SizedLatencyModel::pio_chunks(self.payload_bytes)
            } else {
                self.payload_cycle
                    .iter()
                    .map(|&p| SizedLatencyModel::pio_chunks(p))
                    .max()
                    .unwrap_or(1)
            };
            let needed = Tlp::pio_burst(bband_pcie::TlpId(0), max_chunks).data_credits();
            if c.data < needed {
                return Err(PlanError::DataCredits {
                    data: c.data,
                    needed,
                });
            }
            if c.update_batch == 0 || c.update_batch > c.hdr {
                return Err(PlanError::UpdateBatch {
                    update_batch: c.update_batch,
                    hdr: c.hdr,
                });
            }
            // An UpdateFC returns credits only once `update_batch` writes
            // have drained, so the data pool must cover a whole batch.
            if u64::from(c.data) < u64::from(c.update_batch) * u64::from(needed) {
                return Err(PlanError::BatchCredits {
                    data: c.data,
                    update_batch: c.update_batch,
                    needed,
                });
            }
        }
        if let Some((index, &w)) = self.nic_stalls.iter().enumerate().find(|(_, w)| {
            w.start_ns
                .checked_add(w.duration_ns)
                .is_none_or(|end| end > PLAN_HORIZON_NS)
        }) {
            return Err(PlanError::StallWindow { index, window: w });
        }
        let means = self.markov_stall.map(|m| {
            [
                ("markov_stall.mean_up_ns", m.mean_up_ns),
                ("markov_stall.mean_down_ns", m.mean_down_ns),
            ]
        });
        if let Some((field, value)) = means
            .into_iter()
            .flatten()
            .find(|(_, mean)| !(0.0..=MAX_MEAN_DWELL_NS).contains(mean))
        {
            return Err(PlanError::MeanDwell { field, value });
        }
        Ok(())
    }

    /// Parse a plan from JSON; omitted fields default to fault-free. A
    /// key that does not survive the round trip through the parsed plan's
    /// serialized form, at any depth, is refused as unknown; the plan must
    /// also pass [`FaultPlan::check`].
    pub fn from_json_str(s: &str) -> Result<Self, PlanError> {
        let v = serde::json::parse(s)?;
        let plan = Self::from_value(&v)?;
        if let Some(path) = unknown_key(&v, &plan.to_value(), "") {
            return Err(PlanError::UnknownField { path });
        }
        plan.check()?;
        Ok(plan)
    }

    /// Serialize the plan as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_value().render_pretty()
    }
}

/// The path (`retry.timeout`, `nic_stalls[1].length`) of the first key
/// of `v` that `known` lacks, comparing objects key by key and arrays
/// element by element.
fn unknown_key(v: &Value, known: &Value, path: &str) -> Option<String> {
    if let (Some(fields), Some(_)) = (v.as_object(), known.as_object()) {
        let dot = if path.is_empty() { "" } else { "." };
        return fields.iter().find_map(|(key, x)| {
            let at = format!("{path}{dot}{key}");
            match known.get(key) {
                None => Some(at),
                Some(k) => unknown_key(x, k, &at),
            }
        });
    }
    let items = v.as_array()?.iter().zip(known.as_array()?);
    items
        .enumerate()
        .find_map(|(i, (x, k))| unknown_key(x, k, &format!("{path}[{i}]")))
}

/// Latest simulated time, in nanoseconds, a `nic_stalls` window may end
/// at (10 s). Every message posted inside a window waits it out, and the
/// engine sums those waits in u64 picoseconds: this bound leaves room for
/// over a million messages to wait out a window spanning the whole
/// horizon, where a window ending near `u64::MAX` ns would overflow
/// [`SimTime`].
pub const PLAN_HORIZON_NS: u64 = 10_000_000_000;

/// Largest `markov_stall` mean dwell, nanoseconds (1 s). One draw is at
/// most 53·ln 2 ≈ 36.7 times its mean (the uniform has 53 bits), so even
/// worst-case dwells leave room for half a million stalls in the same
/// ledger, where a mean of 1e300 would overflow [`SimTime`] on its
/// first draw.
pub const MAX_MEAN_DWELL_NS: f64 = 1e9;

/// Largest payload a plan may post, bytes (64 MiB, 16× the largest
/// `sweep-size` point). One message's simulation cost grows with its
/// segment count, so a payload near `u32::MAX` would run for minutes.
pub const MAX_PAYLOAD_BYTES: u32 = 64 << 20;

/// Why [`FaultPlan::from_json_str`] or [`FaultPlan::check`] refused a plan.
#[derive(Debug, Clone)]
pub enum PlanError {
    /// Not JSON, or a field of the wrong type.
    Json(JsonError),
    /// A probability that is not a finite number in [0, 1].
    Probability { field: &'static str, value: f64 },
    /// `credits.data` is below the data credits of the plan's largest
    /// MMIO write, which would then wait for credits forever.
    DataCredits { data: u32, needed: u32 },
    /// `credits.update_batch` is zero or larger than `credits.hdr`, so no
    /// UpdateFC ever returns the header credits.
    UpdateBatch { update_batch: u32, hdr: u32 },
    /// `credits.data` is below `update_batch` writes of `needed` data
    /// credits each (the plan's largest MMIO write): the pool empties
    /// before the first UpdateFC batch drains, and no write issues again.
    BatchCredits {
        data: u32,
        update_batch: u32,
        needed: u32,
    },
    /// `nic_stalls[index]` ends past [`PLAN_HORIZON_NS`], where waiting it
    /// out would overflow [`SimTime`].
    StallWindow { index: usize, window: StallWindow },
    /// A `markov_stall` mean dwell that is negative, non-finite or above
    /// [`MAX_MEAN_DWELL_NS`].
    MeanDwell { field: &'static str, value: f64 },
    /// `payload_bytes` (`index` `None`) or `payload_cycle[index]` is above
    /// [`MAX_PAYLOAD_BYTES`].
    Payload { index: Option<usize>, bytes: u32 },
    /// A key no plan has, e.g. a misspelt field, at `path`.
    UnknownField { path: String },
    /// `retry.timeout_ns` is zero: the backed-off timeout stays zero, so
    /// the timer always fires first and even a lossless run aborts.
    ZeroTimeout,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Json(e) => write!(f, "{e}"),
            PlanError::Probability { field, value } => {
                write!(f, "{field} = {value} is not a probability in [0, 1]")
            }
            PlanError::DataCredits { data, needed } => write!(
                f,
                "credits.data = {data} cannot issue the plan's largest MMIO write \
                 ({needed} data credits)"
            ),
            PlanError::UpdateBatch { update_batch, hdr } => write!(
                f,
                "credits.update_batch = {update_batch} must be between 1 and \
                 credits.hdr = {hdr}"
            ),
            PlanError::BatchCredits {
                data,
                update_batch,
                needed,
            } => write!(
                f,
                "credits.data = {data} cannot issue one UpdateFC batch: \
                 credits.update_batch = {update_batch} writes of {needed} data credits \
                 need {}",
                u64::from(*update_batch) * u64::from(*needed)
            ),
            PlanError::StallWindow { index, window } => write!(
                f,
                "nic_stalls[{index}] (start_ns = {}, duration_ns = {}) must end by \
                 {PLAN_HORIZON_NS} ns",
                window.start_ns, window.duration_ns
            ),
            PlanError::MeanDwell { field, value } => write!(
                f,
                "{field} = {value:?} is not a mean dwell in [0, {MAX_MEAN_DWELL_NS:e}] ns"
            ),
            PlanError::Payload { index, bytes } => {
                match index {
                    None => write!(f, "payload_bytes")?,
                    Some(i) => write!(f, "payload_cycle[{i}]")?,
                }
                write!(
                    f,
                    " = {bytes} exceeds the {MAX_PAYLOAD_BYTES}-byte (64 MiB) payload limit"
                )
            }
            PlanError::UnknownField { path } => write!(f, "unknown field {path}"),
            PlanError::ZeroTimeout => write!(f, "retry.timeout_ns = 0 must be positive"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<JsonError> for PlanError {
    fn from(e: JsonError) -> Self {
        PlanError::Json(e)
    }
}

fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, JsonError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => T::from_value(x).map(Some),
    }
}

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError::msg("FaultPlan: expected a JSON object"));
        }
        let d = FaultPlan::none();
        Ok(FaultPlan {
            loss_probability: opt_field(v, "loss_probability")?.unwrap_or(d.loss_probability),
            burst_loss: opt_field(v, "burst_loss")?,
            corruption_probability: opt_field(v, "corruption_probability")?
                .unwrap_or(d.corruption_probability),
            credits: opt_field(v, "credits")?,
            nic_stalls: opt_field(v, "nic_stalls")?.unwrap_or_default(),
            markov_stall: opt_field(v, "markov_stall")?,
            retry: opt_field(v, "retry")?.unwrap_or(d.retry),
            payload_bytes: opt_field(v, "payload_bytes")?.unwrap_or(d.payload_bytes),
            payload_cycle: opt_field(v, "payload_cycle")?.unwrap_or_default(),
            rndv_threshold: opt_field(v, "rndv_threshold")?,
        })
    }
}

impl Deserialize for RetryPolicy {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError::msg("RetryPolicy: expected a JSON object"));
        }
        let d = RetryPolicy::default();
        Ok(RetryPolicy {
            timeout_ns: opt_field(v, "timeout_ns")?.unwrap_or(d.timeout_ns),
            max_retries: opt_field(v, "max_retries")?.unwrap_or(d.max_retries),
        })
    }
}

/// Which implementation drives the fault engine. Both produce byte-identical
/// stats, counters, trace spans, and metrics; the fast path just gets there
/// without re-simulating structurally identical messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePath {
    /// Bulk commits of clean-message runs on the memoized stage chain,
    /// with posts generated lazily (the default).
    Fast,
    /// The plain event loop: every message simulated event by event. The
    /// `repro --reference` escape hatch and the equivalence tests use it.
    Reference,
}

/// Terminal error: the oldest unacked packet exhausted its retry budget.
/// Surfaced instead of retrying forever — a run under total loss
/// terminates with this, it never hangs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RetryExhausted {
    /// Message index whose packet gave up.
    pub message: u64,
    /// Its transport PSN.
    pub psn: u32,
    /// Timer-driven retry rounds it survived before the budget tripped.
    pub retries: u32,
    /// Simulated time of the abort, nanoseconds.
    pub at_ns: u64,
}

impl std::fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retry budget exhausted: message {} (PSN {}) gave up after {} retries at t={} ns",
            self.message, self.psn, self.retries, self.at_ns
        )
    }
}

impl std::error::Error for RetryExhausted {}

/// Aggregate outcome of one fault-injected run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultRunStats {
    /// Messages posted.
    pub messages: u64,
    /// Messages whose payload reached target memory and was reaped.
    pub completed: u64,
    /// Mean end-to-end latency over completed messages, nanoseconds.
    pub mean_ns: f64,
    /// Fastest completed message, nanoseconds.
    pub min_ns: f64,
    /// Slowest completed message, nanoseconds.
    pub max_ns: f64,
    /// Per-layer recovery counters.
    pub counters: RecoveryCounters,
}

/// One point of the `latency_under_loss` sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LossPoint {
    /// Fabric loss probability at this point.
    pub loss_probability: f64,
    /// Run outcome (partial if the retry budget tripped).
    pub stats: FaultRunStats,
    /// Set iff the run aborted on its retry budget.
    pub retry_exhausted: Option<RetryExhausted>,
}

/// The default loss grid of the `latency_under_loss` experiment:
/// fault-free through one lost packet per hundred.
pub const DEFAULT_LOSS_GRID: [f64; 6] = [0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2];

/// Run the probe `f` (a span, an instant, a metric sample or a clock
/// update) in the observed copy of the engine, `FaultSim<true>`. The
/// unobserved copy compiles it out and yields the default:
/// [`trace::SpanId::NONE`] for a span id, `()` otherwise. Every probe in
/// this module goes through here.
#[inline(always)]
fn probe<const OBSERVED: bool, R: Default>(f: impl FnOnce() -> R) -> R {
    if OBSERVED {
        f()
    } else {
        R::default()
    }
}

/// Events driving the recovery simulation. Data-path events carry the
/// [`trace::SpanId`] of the stage that scheduled them, so the target-side
/// stages can declare their happens-after edges. The id is
/// [`trace::SpanId::NONE`] in the unobserved copy of the engine, which
/// records no stage; the fields still ride in every event.
#[derive(Clone, Copy)]
enum Ev {
    /// The initiator CPU starts posting message `msg`.
    Post { msg: u64 },
    /// A transport packet arrives at the target NIC.
    PktArrive {
        msg: u64,
        psn: Psn,
        /// Segment index within the message; [`RTS_SEG`] marks a
        /// rendezvous RTS control packet.
        seg: u32,
        dep: trace::SpanId,
    },
    /// A transport ACK arrives back at the initiator NIC. Carries the
    /// flight span so a CTS (the ACK of an RTS) can root the data-phase
    /// stages after it in the DAG.
    AckArrive { psn: Psn, dep: trace::SpanId },
    /// A transport NAK arrives back at the initiator NIC. Carries the
    /// NAK-flight span so the go-back-N resends it triggers chain after
    /// it in the DAG — a lossy run's critical path can then name the
    /// flight that provoked each retransmission.
    NakArrive { psn: Psn, dep: trace::SpanId },
    /// Retransmission-timer check.
    Timer,
    /// An UpdateFC DLLP replenishes the initiator's credit pool.
    UpdateFc { hdr: u32, data: u32 },
}

/// Sentinel segment index marking a rendezvous RTS control packet in
/// [`Ev::PktArrive`] (real segment indices are bounded by the 4 MB sweep
/// ceiling, far below it).
const RTS_SEG: u32 = u32::MAX;

/// Packet tag marking a rendezvous RTS on the fabric (data segments carry
/// their segment index as the tag).
const RTS_TAG: u64 = u64::MAX;

/// One direction of a PCIe link: replay buffer + DLL receiver + corrupting
/// wire, serialized FIFO. TLPs are handed over one at a time (the posts
/// are spaced and 8-byte writes are single-TLP), so the DLL protocol here
/// is a sequential sub-simulation: each traversal resolves its own
/// corruption replays and replay-buffer stalls before returning the
/// delivery time at the far end.
struct PcieChannel {
    buf: ReplayBuffer,
    rx: DllReceiver,
    link: LossyLink,
    /// Receiver-side credit bookkeeping; `Some` only on the TX link, where
    /// the initiator's MMIO writes spend posted credits.
    fc_recv: Option<FlowControl>,
    /// The calibrated 64-byte-TLP traversal (also the DLLP return leg).
    pcie: SimDuration,
    /// Serialization rate for TLP payload beyond the 64-byte slot.
    per_byte: SimDuration,
    /// Delivery time of the last TLP (FIFO serialization point).
    clock: SimTime,
    /// ACK DLLPs in flight back to the sender: (seq, arrival time).
    pending_acks: VecDeque<(SeqNum, SimTime)>,
    /// Trace identity of this link direction: the Figure-13 slice name of
    /// the successful leg and the layer (track) it renders on.
    span_name: &'static str,
    layer: trace::Layer,
}

/// Outcome of one TLP traversal.
struct Traversal {
    /// Delivery time at the far end of the link.
    delivered: SimTime,
    /// UpdateFC grant emitted by this delivery (header, data credits); the
    /// caller stamps its return time, since the NIC may be stalled.
    grant: Option<(u32, u32)>,
    /// Stage id of the successful delivery leg, for downstream edges.
    span: trace::SpanId,
}

/// Replay-buffer depth of each PCIe link direction.
const REPLAY_SLOTS: usize = 32;

impl PcieChannel {
    #[allow(clippy::too_many_arguments)]
    fn new(
        pcie: SimDuration,
        per_byte: SimDuration,
        corruption: f64,
        seed: u64,
        fc_recv: Option<FlowControl>,
        span_name: &'static str,
        layer: trace::Layer,
    ) -> Self {
        PcieChannel {
            buf: ReplayBuffer::new(REPLAY_SLOTS),
            rx: DllReceiver::new(),
            link: LossyLink::new(corruption, seed),
            fc_recv,
            pcie,
            per_byte,
            clock: SimTime::ZERO,
            pending_acks: VecDeque::new(),
            span_name,
            layer,
        }
    }

    /// One-way time of `tlp` on this link: the calibrated 64-byte-slot
    /// cost, plus serialization of any payload beyond the slot (the
    /// per-size model's [`SizedLatencyModel::pcie_tlp`], so engine and
    /// model stay bit-equal at every payload).
    fn tlp_time(&self, tlp: &Tlp) -> SimDuration {
        self.pcie + self.per_byte * tlp.payload.saturating_sub(64) as u64
    }

    /// Bulk-advance for a bulk commit: `n` in-order deliveries of which
    /// the first `n - 1` have been reaped, leaving `last`'s ACK DLLP (due
    /// at `ack_due`) in flight — the state `n` reap/send/accept rounds
    /// produce. The caller reaped everything due first.
    fn skip_delivered(&mut self, n: u64, last: Tlp, delivered: SimTime, ack_due: SimTime) {
        debug_assert!(self.pending_acks.is_empty() && self.buf.pending() == 0);
        let seq = self.buf.skip_delivered(n, last);
        self.rx.skip_delivered(n);
        self.pending_acks.push_back((seq, ack_due));
        self.clock = delivered;
    }

    /// Free replay-buffer slots whose ACK DLLP has arrived by `now`.
    fn reap_acks(&mut self, now: SimTime) {
        while let Some(&(seq, due)) = self.pending_acks.front() {
            if due <= now {
                self.buf.ack(seq);
                self.pending_acks.pop_front();
            } else {
                break;
            }
        }
    }

    /// Carry `tlp` across the link starting at `now`; returns its delivery
    /// time, charging corruption replays (one extra round trip each) and
    /// replay-buffer stalls to the clock and to `k`. The successful leg is
    /// recorded as a stage happening after `dep` (recovery legs chain in
    /// between), and its id rides out in [`Traversal::span`]; only the
    /// observed copy (`OBSERVED`) records them.
    fn traverse<const OBSERVED: bool>(
        &mut self,
        now: SimTime,
        tlp: Tlp,
        k: &mut RecoveryCounters,
        dep: trace::SpanId,
    ) -> Traversal {
        let mut link_dep = dep;
        let mut depart = now.max_of(self.clock);
        self.reap_acks(depart);
        let seq = loop {
            match self.buf.send(tlp) {
                Ok(s) => break s,
                Err(ReplayFull) => {
                    k.replay_stalls += 1;
                    let due = self
                        .pending_acks
                        .front()
                        .map(|&(_, due)| due)
                        .expect("replay buffer full implies an ACK in flight");
                    k.recovery_time += due.since(depart);
                    link_dep = probe::<OBSERVED, _>(|| {
                        trace::stage(
                            trace::Layer::Recovery,
                            "replay_stall",
                            depart,
                            due,
                            tlp.id.0,
                            &[link_dep],
                        )
                    });
                    depart = due;
                    self.reap_acks(depart);
                }
            }
        };
        loop {
            let arrival = depart + self.tlp_time(&tlp);
            match self.rx.receive(seq, self.link.corrupts()) {
                RxVerdict::Accept { ack_up_to } => {
                    self.pending_acks
                        .push_back((ack_up_to, arrival + self.pcie));
                    let grant = self.fc_recv.as_mut().and_then(|fc| fc.drain(&tlp));
                    self.clock = arrival;
                    let span = probe::<OBSERVED, _>(|| {
                        trace::stage(
                            self.layer,
                            self.span_name,
                            depart,
                            arrival,
                            tlp.id.0,
                            &[link_dep],
                        )
                    });
                    return Traversal {
                        delivered: arrival,
                        grant,
                        span,
                    };
                }
                RxVerdict::Nack { expected } => {
                    // NACK DLLP returns (+pcie, payload-free); the replay
                    // departs then. The round trip charged is the elapsed
                    // time to the replayed departure: one sized forward leg
                    // plus the flat DLLP return.
                    let replayed = self.buf.nack(expected);
                    debug_assert_eq!(replayed.len(), 1, "serialized link replays one TLP");
                    let rt = self.tlp_time(&tlp) + self.pcie;
                    link_dep = probe::<OBSERVED, _>(|| {
                        trace::stage_dur(
                            trace::Layer::Recovery,
                            "dll_replay_rt",
                            depart,
                            rt,
                            seq.0 as u64,
                            &[link_dep],
                        )
                    });
                    depart = arrival + self.pcie;
                    k.recovery_time += rt;
                }
                RxVerdict::Duplicate { .. } => {
                    unreachable!("serialized link never delivers duplicates")
                }
            }
        }
    }
}

/// The memoized fault-free message lifetime: the instants of the stage
/// chain that [`FaultSim::try_turbo`] reads, as offsets from the post
/// time, precomputed once per run (hash-consing one representative chain
/// per calibration — the plan contributes no offsets on a clean lifetime,
/// only RNG draws and stall windows, which the bulk commit checks per
/// message).
///
/// `None` when the run's timing makes the steady-state layout invalid —
/// e.g. a retry timeout no longer than the transport ACK round trip, where
/// the reference path would fire timer recovery on every message — in
/// which case every message takes the event loop.
#[derive(Debug, Clone, Copy)]
struct ChainMemo {
    /// `LLP_post` end: the MMIO write is ready (the TX-link depart time).
    ready: SimDuration,
    /// TX PCIe delivery: the packet departs the NIC here.
    nic: SimDuration,
    /// Switch exit: the packet reaches the target NIC.
    pkt_arr: SimDuration,
    /// RX PCIe delivery at the target root complex.
    rx_arr: SimDuration,
    /// Payload landed in target memory.
    in_mem: SimDuration,
    /// `HLP_rx_prog` end: the completed end-to-end latency.
    total: SimDuration,
    /// `total` in nanoseconds — the exact f64 the reference path folds
    /// into its running statistics.
    total_ns: f64,
    /// One 64-byte PCIe traversal (DLLP return leg).
    pcie: SimDuration,
    /// The payload size the chain was recorded for — bulk admission keys
    /// on it, so a memo recorded at one size never commits a message of
    /// another.
    payload: u32,
    /// PIO chunks of the TX MMIO write at that payload.
    chunks: u32,
}

impl ChainMemo {
    /// Precompute the chain for one run, or `None` when the layout cannot
    /// be committed in bulk safely (see invalidation rules in DESIGN.md
    /// §12).
    ///
    /// The memo covers single-segment inline eager chains only: larger,
    /// segmented, or rendezvous messages soundly take the event loop
    /// (the caller gates on protocol; inline implies single-segment).
    fn build(
        cal: &Calibration,
        payload: u32,
        model_total: SimDuration,
        retry_timeout: SimDuration,
    ) -> Option<Self> {
        if !SizedLatencyModel::is_inline(payload) {
            return None;
        }
        let sized = SizedLatencyModel::from_calibration(cal);
        let chunks = SizedLatencyModel::pio_chunks(payload);
        let pcie = cal.pcie();
        let net = cal.wire() + cal.switch();
        let ready = cal.hlp_post() + sized.llp_post_for(payload);
        let nic = ready + sized.pcie_tlp(SizedLatencyModel::tx_tlp_payload(payload));
        let pkt_arr = nic + sized.wire_packet(payload) + cal.switch();
        let ack_arr = pkt_arr + net;
        let rx_arr = pkt_arr + sized.pcie_tlp(payload);
        let in_mem = rx_arr + sized.rc_to_mem(payload);
        let total = in_mem + cal.llp_prog() + cal.hlp_rx_prog();
        // The chain must land exactly on the analytical model (the post
        // interval), or committed latencies would drift from the loop's.
        if total != model_total {
            return None;
        }
        // The UpdateFC DLLP must land strictly before the next post: at a
        // tie the reference pops the pre-pushed Post first and would see
        // the pool un-replenished.
        if nic + pcie >= total {
            return None;
        }
        // The transport ACK must clear the in-flight window strictly
        // before the next post, or back-to-back chains overlap in the
        // go-back-N state.
        if ack_arr >= total {
            return None;
        }
        // The retransmission timer must outlive this payload's own ACK
        // round trip, which grows with its wire bytes (otherwise the
        // reference path fires timer recovery on every message and no
        // lifetime is fault-free). At a tie the timer, armed first, pops
        // first.
        if retry_timeout <= ack_arr - nic {
            return None;
        }
        Some(ChainMemo {
            ready,
            nic,
            pkt_arr,
            rx_arr,
            in_mem,
            total,
            total_ns: total.as_ns_f64(),
            pcie,
            payload,
            chunks,
        })
    }
}

/// Per-message payload/protocol state, resolved at construction from the
/// plan's payload axis.
#[derive(Clone, Copy)]
struct MsgState {
    /// Application payload bytes.
    payload: u32,
    /// Selected protocol is rendezvous.
    rndv: bool,
    /// MTU segment count.
    segs: u32,
    /// Rendezvous only: the RTS is already on the wire — the next MMIO
    /// write for this message posts the data-phase descriptor.
    rts_sent: bool,
    /// FIFO clock of this message's RC-to-MEM writes (segments of one
    /// message share the root complex's write port; messages are spaced
    /// far enough apart that cross-message contention never arises on
    /// the zero-fault path, keeping single-segment traces unchanged).
    dma_clock: SimTime,
    /// Previous segment's RC-to-MEM stage — the second happens-after
    /// edge of the next segment's write when the port was busy.
    dma_span: trace::SpanId,
}

/// The recovery simulation for one run, in two copies. `OBSERVED` says
/// whether a collector (trace spans or metrics histograms) is installed
/// on the calling thread; [`run_raw_on`] picks the copy once per run,
/// which is exact because collectors wrap whole runs. The observed copy
/// records every span and sample and never commits in bulk, since a
/// bulk commit records neither; the unobserved copy compiles every
/// [`probe`] and the trace-only bookkeeping out.
struct FaultSim<const OBSERVED: bool> {
    /// Memoized fault-free lifetime, when the layout admits one. Built on
    /// the fast path only, so the reference never commits in bulk.
    memo: Option<ChainMemo>,
    /// Fast path only: set once a loop-simulated message completes with a
    /// latency bit-equal to the memo — bulk commits engage only after the
    /// event loop itself has demonstrated the chain once.
    rep_verified: bool,
    /// Memo runs only: key and fire time of the single live
    /// retransmission timer entry (see [`FaultSim::arm_timer`]).
    timer: Option<(EventKey, SimTime)>,
    /// Next message index to post lazily. The reference pre-pushes every
    /// post and starts this at the message count.
    next_post: u64,
    /// Uniform post cadence: message `m` posts at `post_interval * m`
    /// (`FaultSim::post_at`).
    post_interval: SimDuration,
    plan: FaultPlan,
    // Calibrated stage costs, kept per component so the trace can expose
    // the Figure-13 slices. The combined stage costs below are sums of
    // these; integer-picosecond addition is associative, so charging the
    // components sequentially lands on the same instants as charging the
    // sums did.
    hlp_post: SimDuration,
    llp_post: SimDuration,
    wire: SimDuration,
    switch: SimDuration,
    llp_prog: SimDuration,
    hlp_rx_prog: SimDuration,
    /// Fixed per-packet wire cost (preamble/FEC, payload excluded).
    wire_base: SimDuration,
    /// Wire serialization rate.
    wire_per_byte: SimDuration,
    /// The per-size cost model every sized stage charges from — the same
    /// arithmetic [`SizedLatencyModel::total`] performs, keeping the
    /// zero-fault invariant bit-exact at every payload.
    sized: SizedLatencyModel,
    /// Per-message payload/protocol state, indexed by message id.
    msgs: Vec<MsgState>,
    /// RTS sends awaiting their CTS (the transport ACK of the RTS):
    /// (RTS PSN, message id).
    pending_rts: Vec<(Psn, u64)>,
    // Machinery.
    queue: EventQueue<Ev>,
    ids: TlpIdGen,
    fc_issue: FlowControl,
    tx_chan: PcieChannel,
    rx_chan: PcieChannel,
    rc_tx: RcSender,
    rc_rx: RcReceiver,
    fabric: LossyFabric,
    burst: Option<GeChannel>,
    /// Markov-modulated stall schedule, present iff the plan asks for it.
    stall_sched: Option<StallSchedule>,
    /// Messages blocked on credits: (msg, time the MMIO was ready, the
    /// stage the eventual transmit happens after).
    credit_waiters: VecDeque<(u64, Tlp, SimTime, trace::SpanId)>,
    /// Last stage (or drop marker) of each PSN's most recent transmission
    /// attempt, indexed by PSN — the predecessor an `rto_backoff` gap
    /// declares, so timer recovery chains into the attempt it waited on.
    /// Written and read by the observed copy only.
    psn_launch: Vec<trace::SpanId>,
    /// When the target CPU is next free to reap a completion.
    target_cpu_free: SimTime,
    /// Stage that last occupied the target CPU (`HLP_rx_prog` of the
    /// previous reap) — the second predecessor of a `reap_wait` stage.
    target_cpu_span: trace::SpanId,
    // Measurement.
    completed: u64,
    lat_sum_ns: f64,
    lat_min_ns: f64,
    lat_max_ns: f64,
    counters: RecoveryCounters,
}

impl<const OBSERVED: bool> FaultSim<OBSERVED> {
    fn new(
        cal: &Calibration,
        plan: &FaultPlan,
        messages: u64,
        seed: u64,
        path: EnginePath,
    ) -> Self {
        if let Err(e) = plan.check() {
            panic!("invalid fault plan: {e}");
        }
        let sized = SizedLatencyModel::from_calibration(cal);
        let model = EndToEndLatencyModel::from_calibration(cal);
        let retry_timeout = SimDuration::from_ns(plan.retry.timeout_ns);
        // Resolve every message's payload, protocol, and segment count up
        // front; the post cadence is the slowest message's fault-free
        // lifetime, so back-to-back chains never overlap on a clean run.
        let mut msgs = Vec::with_capacity(messages as usize);
        let mut per_size: Vec<(u32, SimDuration)> = Vec::new();
        let mut max_total = SimDuration::ZERO;
        for m in 0..messages {
            let payload = plan.payload_for(m);
            let total = match per_size.iter().find(|&&(p, _)| p == payload) {
                Some(&(_, t)) => t,
                None => {
                    let t = sized.total(payload, plan.rndv_threshold);
                    per_size.push((payload, t));
                    t
                }
            };
            max_total = max_total.max(total);
            msgs.push(MsgState {
                payload,
                rndv: sized.select(payload, plan.rndv_threshold) == Protocol::Rendezvous,
                segs: SizedLatencyModel::segments(payload),
                rts_sent: false,
                dma_clock: SimTime::ZERO,
                dma_span: trace::SpanId::NONE,
            });
        }
        let fc_issue = match plan.credits {
            Some(c) => FlowControl::new(c.hdr, c.data, c.update_batch),
            None => FlowControl::connectx4_default(),
        };
        let fc_recv = match plan.credits {
            Some(c) => FlowControl::new(c.hdr, c.data, c.update_batch),
            None => FlowControl::connectx4_default(),
        };
        let mut queue = EventQueue::new();
        // For the default 8-byte plan `max_total` is exactly the classic
        // model total; `max_of` only widens the cadence for larger plans.
        let post_interval = model.total().max(max_total);
        let burst = plan.burst_loss.map(|g| GeChannel::new(g, seed));
        let stall_sched = plan
            .markov_stall
            .filter(|m| !m.is_zero())
            .map(|m| StallSchedule::new(m.mean_up_ns, m.mean_down_ns, seed ^ 0x57A11));
        let (memo, next_post) = match path {
            EnginePath::Reference => {
                for msg in 0..messages {
                    queue.push(SimTime::ZERO + post_interval * msg, Ev::Post { msg });
                }
                (None, messages)
            }
            // The fast path generates posts lazily from `next_post` — the
            // queue then holds only genuinely pending events, which is both
            // the quiescence test a bulk commit needs and a heap that stays
            // O(in-flight) instead of O(messages). The memo exists only for
            // uniform-size inline eager plans: a chain recorded for one size
            // must never commit a message of another.
            EnginePath::Fast => {
                let payload0 = plan.payload_for(0);
                let uniform = (0..messages).all(|m| plan.payload_for(m) == payload0);
                let eager0 = msgs.first().is_none_or(|s: &MsgState| !s.rndv);
                let memo = if uniform && eager0 {
                    ChainMemo::build(cal, payload0, post_interval, retry_timeout)
                } else {
                    None
                };
                (memo, 0)
            }
        };
        FaultSim {
            memo,
            rep_verified: false,
            timer: None,
            next_post,
            post_interval,
            plan: plan.clone(),
            hlp_post: cal.hlp_post(),
            llp_post: cal.llp_post(),
            wire: cal.wire(),
            switch: cal.switch(),
            llp_prog: cal.llp_prog(),
            hlp_rx_prog: cal.hlp_rx_prog(),
            wire_base: cal.network.wire.base + cal.network.wire.fec,
            wire_per_byte: cal.network.wire.per_byte,
            sized,
            msgs,
            pending_rts: Vec::new(),
            queue,
            ids: TlpIdGen::new(),
            fc_issue,
            tx_chan: PcieChannel::new(
                cal.pcie(),
                cal.link.per_byte,
                plan.corruption_probability,
                seed ^ 0x7C1,
                Some(fc_recv),
                "TX PCIe",
                trace::Layer::PcieTx,
            ),
            rx_chan: PcieChannel::new(
                cal.pcie(),
                cal.link.per_byte,
                plan.corruption_probability,
                seed ^ 0x7C2,
                None,
                "RX PCIe",
                trace::Layer::PcieRx,
            ),
            rc_tx: RcSender::new(retry_timeout),
            rc_rx: RcReceiver::new(),
            fabric: LossyFabric::new(plan.loss_probability, seed),
            burst,
            stall_sched,
            credit_waiters: VecDeque::new(),
            psn_launch: Vec::new(),
            target_cpu_free: SimTime::ZERO,
            target_cpu_span: trace::SpanId::NONE,
            completed: 0,
            lat_sum_ns: 0.0,
            lat_min_ns: f64::INFINITY,
            lat_max_ns: 0.0,
            counters: RecoveryCounters::new(),
        }
    }

    /// When message `msg` is posted.
    fn post_at(&self, msg: u64) -> SimTime {
        SimTime::ZERO + self.post_interval * msg
    }

    /// Combined fabric-loss oracle: i.i.d. loss OR the burst channel.
    /// Both channels always advance on every packet, so adding one does
    /// not perturb the other's random stream.
    fn fabric_drops(&mut self, pkt: &Packet) -> bool {
        let iid = self.fabric.drops(pkt);
        let burst = self.burst.as_mut().is_some_and(GeChannel::drops);
        iid || burst
    }

    fn net(&self) -> SimDuration {
        self.wire + self.switch
    }

    /// Defer a fabric departure out of any injected NIC stall window —
    /// absolute [`StallWindow`]s and the Markov-modulated schedule alike.
    /// Each stall emits a recovery stage chained after `dep`; returns the
    /// deferred time and the last stage emitted (for downstream edges).
    fn defer_nic_stall(
        &mut self,
        mut t: SimTime,
        mut dep: trace::SpanId,
    ) -> (SimTime, trace::SpanId) {
        loop {
            let mut deferred = false;
            for w in &self.plan.nic_stalls {
                if let Some(end) = w.end_if_covers(t) {
                    self.counters.nic_stalls += 1;
                    self.counters.recovery_time += end.since(t);
                    dep = probe::<OBSERVED, _>(|| {
                        trace::stage(trace::Layer::Recovery, "nic_stall", t, end, 0, &[dep])
                    });
                    t = end;
                    deferred = true;
                }
            }
            if let Some(sched) = self.stall_sched.as_mut() {
                let (when, window) = sched.defer_with_window(t);
                if window.is_some() {
                    self.counters.nic_stalls += 1;
                    self.counters.recovery_time += when.since(t);
                    dep = probe::<OBSERVED, _>(|| {
                        trace::stage(trace::Layer::Recovery, "nic_stall", t, when, 1, &[dep])
                    });
                    t = when;
                    deferred = true;
                }
            }
            if !deferred {
                return (t, dep);
            }
        }
    }

    /// Arm the retransmission timer for the current oldest unacked packet.
    ///
    /// A run without a memo pushes a fresh entry on every re-arm, as the
    /// reference does; superseded entries linger and fire as no-op polls.
    /// A memo run keeps one live entry, so the queue empties between clean
    /// messages and `try_turbo` can commit the next run. On a re-arm with
    /// deadline `d`, the live entry stays iff `d <= live <= max(d, now)`:
    /// it still fires recovery, and a new entry would not fire earlier.
    /// Otherwise it is cancelled and one pushed at `max(d, now)`; an empty
    /// window cancels it outright.
    fn arm_timer(&mut self, now: SimTime) {
        let deadline = self.rc_tx.next_deadline();
        if self.memo.is_none() {
            if let Some(d) = deadline {
                self.queue.push(d.max_of(now), Ev::Timer);
            }
            return;
        }
        if let (Some(d), Some((_, live))) = (deadline, self.timer) {
            if d <= live && live <= d.max_of(now) {
                return;
            }
        }
        if let Some((key, _)) = self.timer.take() {
            self.queue.cancel(key);
        }
        if let Some(d) = deadline {
            let at = d.max_of(now);
            self.timer = Some((self.queue.push(at, Ev::Timer), at));
        }
    }

    /// Remember the last stage (or drop marker) of `psn`'s transmission
    /// attempt, for the `rto_backoff` gap that may later wait on it. Only
    /// that span reads it, so the unobserved copy keeps nothing.
    fn note_launch(&mut self, psn: Psn, span: trace::SpanId) {
        if !OBSERVED {
            return;
        }
        let i = psn.0 as usize;
        if i >= self.psn_launch.len() {
            self.psn_launch.resize(i + 1, trace::SpanId::NONE);
        }
        self.psn_launch[i] = span;
    }

    /// Put one packet (first transmission or retransmission) on the
    /// fabric, departing the NIC at `t`, as a stage chain hanging off
    /// `dep`. Retransmitted legs are recovery traffic: they record on the
    /// recovery track under distinct names and accrue to the recovery-time
    /// ledger, so the DAG's nominal-vs-recovery split is purely by layer.
    fn launch(
        &mut self,
        msg: u64,
        psn: Psn,
        pkt: &Packet,
        t: SimTime,
        dep: trace::SpanId,
        retx: bool,
    ) {
        let (depart, dep) = self.defer_nic_stall(t, dep);
        let rts = pkt.tag == RTS_TAG;
        let seg = if rts { RTS_SEG } else { pkt.tag as u32 };
        if !self.fabric_drops(pkt) {
            // The fabric leg decomposes into the Figure-13 wire and switch
            // slices, sized per packet: every segment pays its own IB
            // headers plus payload serialization (for the 8-byte packet
            // this is exactly the calibrated `Wire` figure).
            let at_switch = depart + self.wire_base + self.wire_per_byte * pkt.wire_bytes() as u64;
            let arrive = at_switch + self.switch;
            let (wn, sn, wl, sl) = if retx {
                self.counters.recovery_time += arrive.since(depart);
                (
                    "Wire(retx)",
                    "Switch(retx)",
                    trace::Layer::Recovery,
                    trace::Layer::Recovery,
                )
            } else if rts {
                (
                    "RTS_wire",
                    "RTS_switch",
                    trace::Layer::Wire,
                    trace::Layer::Switch,
                )
            } else {
                ("Wire", "Switch", trace::Layer::Wire, trace::Layer::Switch)
            };
            let w = probe::<OBSERVED, _>(|| trace::stage(wl, wn, depart, at_switch, msg, &[dep]));
            let s = probe::<OBSERVED, _>(|| trace::stage(sl, sn, at_switch, arrive, msg, &[w]));
            self.note_launch(psn, s);
            self.queue.push(
                arrive,
                Ev::PktArrive {
                    msg,
                    psn,
                    seg,
                    dep: s,
                },
            );
        } else {
            // The drop marker is a zero-duration stage, not an instant: it
            // must carry the happens-after edge to the pre-drop chain so
            // the backoff gap that later waits on this attempt still
            // reaches the nominal post stages through it.
            let d = probe::<OBSERVED, _>(|| {
                trace::stage(
                    trace::Layer::Recovery,
                    "pkt_drop",
                    depart,
                    depart,
                    msg,
                    &[dep],
                )
            });
            self.note_launch(psn, if d.is_none() { dep } else { d });
        }
    }

    /// Send a transport ACK or NAK back across the fabric (droppable),
    /// recorded as a flight stage happening after `dep` — the arrival
    /// that provoked it. NAK flights are recovery traffic (recovery
    /// track and ledger); ACK flights are the nominal transport ack
    /// path. The flight span is handed to `make` so the arrival event
    /// can carry it.
    fn launch_ctrl(
        &mut self,
        t: SimTime,
        name: &'static str,
        recovery: bool,
        dep: trace::SpanId,
        make: impl FnOnce(trace::SpanId) -> Ev,
    ) {
        let ctrl = Packet::message(
            PacketId(u64::MAX),
            PacketKind::Send,
            NodeId(1),
            NodeId(0),
            0,
        )
        .ack_for(PacketId(u64::MAX));
        if !self.fabric_drops(&ctrl) {
            let layer = if recovery {
                self.counters.recovery_time += self.net();
                trace::Layer::Recovery
            } else {
                trace::Layer::Transport
            };
            let s =
                probe::<OBSERVED, _>(|| trace::stage(layer, name, t, t + self.net(), 0, &[dep]));
            self.queue.push(t + self.net(), make(s));
        } else {
            probe::<OBSERVED, _>(|| trace::instant(trace::Layer::Recovery, "ctrl_drop", t, 0));
        }
    }

    /// The MMIO write for `msg` has credits: cross the TX link, enter the
    /// transport, and launch onto the fabric. For a rendezvous message the
    /// first MMIO write posts the RTS; the second (after the CTS returns)
    /// posts the data-phase descriptor. Non-inline descriptors DMA-fetch
    /// the payload before the NIC can put it on the wire.
    fn transmit(&mut self, msg: u64, tlp: Tlp, t: SimTime, dep: trace::SpanId) {
        let out = self
            .tx_chan
            .traverse::<OBSERVED>(t, tlp, &mut self.counters, dep);
        // The NIC both sinks the doorbell TLP and feeds the fabric: an
        // injected stall window freezes it whole, deferring the drain
        // (hence the UpdateFC grant) and the packet departure alike.
        let (nic_time, dep) = self.defer_nic_stall(out.delivered, out.span);
        if let Some((h, d)) = out.grant {
            let pcie = self.tx_chan.pcie;
            self.queue
                .push(nic_time + pcie, Ev::UpdateFc { hdr: h, data: d });
        }
        let st = self.msgs[msg as usize];
        if st.rndv && !st.rts_sent {
            self.msgs[msg as usize].rts_sent = true;
            let pkt = Packet::tagged(
                PacketId(msg),
                PacketKind::Send,
                NodeId(0),
                NodeId(1),
                CTRL_BYTES,
                RTS_TAG,
            );
            let psn = self.rc_tx.send(pkt, nic_time);
            self.pending_rts.push((psn, msg));
            self.launch(msg, psn, &pkt, nic_time, dep, false);
            self.arm_timer(nic_time);
            return;
        }
        let fetch = if st.rndv {
            self.sized.rndv_data_fetch(st.payload)
        } else {
            self.sized.dma_fetch(st.payload)
        };
        let (mut nic_ready, mut dep) = (nic_time, dep);
        if fetch > SimDuration::ZERO {
            let end = nic_time + fetch;
            dep = probe::<OBSERVED, _>(|| {
                trace::stage(
                    trace::Layer::PcieTx,
                    "DMA_fetch",
                    nic_time,
                    end,
                    msg,
                    &[dep],
                )
            });
            nic_ready = end;
        }
        self.launch_segments(msg, nic_ready, dep);
    }

    /// Put every MTU segment of `msg`'s payload onto the fabric, spaced by
    /// wire serialization. Non-final segments carry [`PacketKind::Segment`]
    /// (DMA-written on arrival, no completion); the final segment carries
    /// [`PacketKind::Send`] and completes the message.
    fn launch_segments(&mut self, msg: u64, t: SimTime, dep: trace::SpanId) {
        let st = self.msgs[msg as usize];
        let spacing = self.sized.seg_spacing();
        for i in 0..st.segs {
            let kind = if i + 1 == st.segs {
                PacketKind::Send
            } else {
                PacketKind::Segment
            };
            let pkt = Packet::tagged(
                PacketId(msg),
                kind,
                NodeId(0),
                NodeId(1),
                SizedLatencyModel::seg_size(st.payload, i),
                i as u64,
            );
            let depart = t + spacing * i as u64;
            let psn = self.rc_tx.send(pkt, depart);
            self.launch(msg, psn, &pkt, depart, dep, false);
        }
        self.arm_timer(t);
    }

    /// The initiator CPU posts message `msg` at `t`: CPU work, then the
    /// credit gate, then [`FaultSim::transmit`]. Each message roots its
    /// own stage chain — inter-message spacing is wall-clock scheduling,
    /// not a dependency, so on the zero-fault path the per-message chains
    /// stay disconnected and the DAG critical path is exactly one
    /// message's nine slices.
    fn post(&mut self, msg: u64, t: SimTime) {
        let st = self.msgs[msg as usize];
        let hlp_done = t + self.hlp_post;
        let h = probe::<OBSERVED, _>(|| {
            trace::stage(trace::Layer::Hlp, "HLP_post", t, hlp_done, msg, &[])
        });
        let (mut cpu_done, mut dep) = (hlp_done, h);
        if !st.rndv {
            // Non-inline eager sends stage the payload through a bounce
            // buffer before the descriptor is built (inline and rendezvous
            // sends copy nothing — the stage is only emitted when it has
            // width, so the 8-byte chain is unchanged).
            let copy = self.sized.eager_copy(st.payload);
            if copy > SimDuration::ZERO {
                let copy_done = cpu_done + copy;
                dep = probe::<OBSERVED, _>(|| {
                    trace::stage(
                        trace::Layer::Hlp,
                        "eager_copy",
                        cpu_done,
                        copy_done,
                        msg,
                        &[dep],
                    )
                });
                cpu_done = copy_done;
            }
        }
        // A rendezvous post writes a one-chunk RTS descriptor; an eager
        // post writes the payload descriptor (inline chunks or a pointer).
        let (llp_dur, chunks) = if st.rndv {
            (self.llp_post, 1)
        } else {
            (
                self.sized.llp_post_for(st.payload),
                SizedLatencyModel::pio_chunks(st.payload),
            )
        };
        let ready = cpu_done + llp_dur;
        let l = probe::<OBSERVED, _>(|| {
            trace::stage(trace::Layer::Llp, "LLP_post", cpu_done, ready, msg, &[dep])
        });
        let tlp = Tlp::pio_burst(self.ids.next(), chunks);
        if !self.credit_waiters.is_empty() || self.fc_issue.consume(&tlp).is_err() {
            self.credit_waiters.push_back((msg, tlp, ready, l));
            return;
        }
        self.transmit(msg, tlp, ready, l);
    }

    /// The CTS for `msg` arrived at `t`: the initiator LLP posts the
    /// data-phase descriptor (one chunk — the payload is DMA-fetched, never
    /// inlined on the rendezvous path), gated on credits like any MMIO
    /// write. `dep` is the CTS flight stage, rooting the data phase after
    /// the handshake in the DAG.
    fn start_rndv_data(&mut self, msg: u64, t: SimTime, dep: trace::SpanId) {
        let ready = t + self.llp_post;
        let l = probe::<OBSERVED, _>(|| {
            trace::stage(trace::Layer::Llp, "LLP_post", t, ready, msg, &[dep])
        });
        let tlp = Tlp::pio_burst(self.ids.next(), 1);
        if !self.credit_waiters.is_empty() || self.fc_issue.consume(&tlp).is_err() {
            self.credit_waiters.push_back((msg, tlp, ready, l));
            return;
        }
        self.transmit(msg, tlp, ready, l);
    }

    /// An in-sequence segment reached the target NIC at `t`: RX PCIe leg
    /// and DMA to memory for every segment; the target CPU reaps the
    /// completion only when the final segment lands.
    fn deliver(&mut self, msg: u64, seg: u32, t: SimTime, dep: trace::SpanId) {
        let st = self.msgs[msg as usize];
        let seg_payload = SizedLatencyModel::seg_size(st.payload, seg);
        let tlp = Tlp::payload_deliver(self.ids.next(), seg_payload);
        let out = self
            .rx_chan
            .traverse::<OBSERVED>(t, tlp, &mut self.counters, dep);
        // Segments of one message serialize on the RC write port; the
        // first (and any single-segment) write starts at PCIe delivery.
        let dma_start = out.delivered.max_of(st.dma_clock);
        let in_memory = dma_start + self.sized.rc_to_mem(seg_payload);
        let mem_name = if seg_payload == 8 {
            "RC-to-MEM(8B)"
        } else {
            "RC-to-MEM"
        };
        // The first segment's null `dma_span` declares no second edge.
        let mem = probe::<OBSERVED, _>(|| {
            trace::stage(
                trace::Layer::Memory,
                mem_name,
                dma_start,
                in_memory,
                msg,
                &[out.span, st.dma_span],
            )
        });
        self.msgs[msg as usize].dma_clock = in_memory;
        self.msgs[msg as usize].dma_span = mem;
        if seg + 1 < st.segs {
            return;
        }
        let reap_start = self.target_cpu_free.max_of(in_memory);
        let cpu_dep = if reap_start > in_memory {
            // The target CPU was still reaping an earlier message: the
            // wait joins the DMA completion with the previous reap — the
            // one point where inter-message edges exist on this path.
            // Queueing behind a recovery-induced delivery burst is stall
            // time, so it accrues to the recovery ledger like every other
            // recovery-track stage.
            self.counters.recovery_time += reap_start.since(in_memory);
            probe::<OBSERVED, _>(|| {
                trace::stage(
                    trace::Layer::Recovery,
                    "reap_wait",
                    in_memory,
                    reap_start,
                    msg,
                    &[mem, self.target_cpu_span],
                )
            })
        } else {
            mem
        };
        let llp_done = reap_start + self.llp_prog;
        let done = llp_done + self.hlp_rx_prog;
        let lp = probe::<OBSERVED, _>(|| {
            trace::stage(
                trace::Layer::Llp,
                "LLP_prog",
                reap_start,
                llp_done,
                msg,
                &[cpu_dep],
            )
        });
        self.target_cpu_span = probe::<OBSERVED, _>(|| {
            trace::stage(trace::Layer::Hlp, "HLP_rx_prog", llp_done, done, msg, &[lp])
        });
        self.target_cpu_free = done;
        let latency_dur = done.since(self.post_at(msg));
        // Bulk bootstrap: the fast path trusts the memo only after the
        // event loop itself has completed one message bit-exactly on it
        // (any fault strictly lengthens the lifetime, so equality means
        // the chain ran clean end to end).
        if !self.rep_verified {
            if let Some(m) = &self.memo {
                if latency_dur == m.total {
                    self.rep_verified = true;
                }
            }
        }
        // Per-message latency feeds the metrics registry (when one is
        // collecting) — the e2e distribution behind `repro metrics`. The
        // post instant rides along so windowed collectors can split the
        // distribution over virtual time.
        probe::<OBSERVED, _>(|| {
            bband_metrics::record_ps_at(
                "e2e_latency",
                latency_dur.as_ps(),
                self.post_at(msg).as_ps(),
            )
        });
        let latency = latency_dur.as_ns_f64();
        self.completed += 1;
        self.lat_sum_ns += latency;
        self.lat_min_ns = self.lat_min_ns.min(latency);
        self.lat_max_ns = self.lat_max_ns.max(latency);
    }

    /// Go-back-N resends from a NAK or timer round. `dep` is the recovery
    /// stage (backoff gap) that triggered the round, if one was recorded.
    fn relaunch(&mut self, resends: Vec<(Psn, Packet)>, now: SimTime, dep: trace::SpanId) {
        for (psn, pkt) in resends {
            let msg = pkt.id.0;
            self.launch(msg, psn, &pkt, now, dep, true);
        }
        self.arm_timer(now);
    }

    /// Handle one event. Both paths reach this point through the same
    /// loop and differ only in whether posts were pre-pushed, never in
    /// what an event does. A tripped retry budget lands in `aborted`; the
    /// caller breaks.
    fn dispatch(&mut self, t: SimTime, ev: Ev, aborted: &mut Option<RetryExhausted>) {
        match ev {
            Ev::Post { msg } => self.post(msg, t),
            Ev::PktArrive { msg, psn, seg, dep } => match self.rc_rx.on_packet(psn) {
                RcVerdict::Deliver { ack } => {
                    if seg == RTS_SEG {
                        // The RTS reached the target LLP: the CTS heads
                        // back, doubling as the RTS's transport ACK (one
                        // control flight, as in the sized model).
                        self.launch_ctrl(t, "cts_flight", false, dep, |s| Ev::AckArrive {
                            psn: ack,
                            dep: s,
                        });
                    } else {
                        self.deliver(msg, seg, t, dep);
                        self.launch_ctrl(t, "ack_flight", false, dep, |s| Ev::AckArrive {
                            psn: ack,
                            dep: s,
                        });
                    }
                }
                RcVerdict::Nak { expected } => {
                    self.launch_ctrl(t, "nak_flight", true, dep, |s| Ev::NakArrive {
                        psn: expected,
                        dep: s,
                    });
                }
                RcVerdict::DuplicateAck { ack } => {
                    self.launch_ctrl(t, "ack_flight", false, dep, |s| Ev::AckArrive {
                        psn: ack,
                        dep: s,
                    });
                }
            },
            Ev::AckArrive { psn, dep } => {
                self.rc_tx.on_ack(psn);
                // A cumulative ACK that covers an outstanding RTS is its
                // CTS: start the data phase (a second LLP post of the
                // data descriptor, credit-gated like any MMIO write).
                if !self.pending_rts.is_empty() {
                    let mut i = 0;
                    while i < self.pending_rts.len() {
                        let (rts_psn, m) = self.pending_rts[i];
                        if rts_psn.distance_to(psn) < PSN_MOD / 2 {
                            self.pending_rts.swap_remove(i);
                            self.start_rndv_data(m, t, dep);
                        } else {
                            i += 1;
                        }
                    }
                }
                self.arm_timer(t);
            }
            Ev::NakArrive { psn, dep } => {
                // Go-back-N resends chain after the NAK flight that
                // provoked them; their recovery cost accrues where the
                // retransmitted legs are recorded, in `launch`.
                let resends = self.rc_tx.on_nak(psn, t);
                self.relaunch(resends, t, dep);
            }
            Ev::Timer => match self.rc_tx.next_deadline() {
                Some(deadline) if deadline <= t => {
                    let backoff = self.rc_tx.effective_timeout();
                    self.counters.recovery_time += backoff;
                    // The backoff gap the oldest packet waited out,
                    // ending at the timer firing. It happens after the
                    // oldest unacked packet's last transmission attempt
                    // (often a drop marker) — the DAG can then name the
                    // attempt each backoff waited on.
                    let gap = probe::<OBSERVED, _>(|| {
                        let gap_dep = self
                            .rc_tx
                            .oldest_unacked()
                            .and_then(|(psn, _)| self.psn_launch.get(psn.0 as usize).copied())
                            .unwrap_or(trace::SpanId::NONE);
                        trace::stage(
                            trace::Layer::Recovery,
                            "rto_backoff",
                            t - backoff,
                            t,
                            self.rc_tx.front_retries() as u64 + 1,
                            &[gap_dep],
                        )
                    });
                    let resends = self.rc_tx.on_timer(t);
                    if self.rc_tx.front_retries() > self.plan.retry.max_retries {
                        let (psn, pkt) = self
                            .rc_tx
                            .oldest_unacked()
                            .expect("budget tripped on a live packet");
                        *aborted = Some(RetryExhausted {
                            message: pkt.id.0,
                            psn: psn.0,
                            retries: self.rc_tx.front_retries(),
                            at_ns: t.since(SimTime::ZERO).as_ps() / 1000,
                        });
                        return;
                    }
                    self.relaunch(resends, t, gap);
                }
                // Stale or early firing: nothing due. `arm_timer` is
                // re-invoked on every state change, so a live deadline
                // always has an event at or before it.
                _ => {}
            },
            Ev::UpdateFc { hdr, data } => {
                self.fc_issue.replenish(hdr, data);
                while let Some(&(msg, tlp, ready, post_dep)) = self.credit_waiters.front() {
                    if self.fc_issue.consume(&tlp).is_err() {
                        break;
                    }
                    self.credit_waiters.pop_front();
                    // The grant may land while the CPU is still mid-post;
                    // the MMIO write goes out at the later of the two.
                    let start = t.max_of(ready);
                    self.counters.recovery_time += start.since(ready);
                    let dep = if start > ready {
                        probe::<OBSERVED, _>(|| {
                            trace::stage(
                                trace::Layer::Recovery,
                                "credit_wait",
                                ready,
                                start,
                                msg,
                                &[post_dep],
                            )
                        })
                    } else {
                        post_dep
                    };
                    self.transmit(msg, tlp, start, dep);
                }
            }
        }
    }

    /// The event loop: handle one event at a time until every message
    /// completes or the retry budget trips. A lazy post goes first when it
    /// is due no later than the queue's earliest event (ties go to the
    /// post: the reference pre-pushes its posts with the lowest sequence
    /// numbers), and first attempts a bulk commit of the clean run it
    /// starts.
    fn run(mut self, messages: u64) -> (FaultRunStats, Option<RetryExhausted>) {
        let mut aborted = None;
        while self.completed < messages {
            let post = (self.next_post < messages).then(|| self.post_at(self.next_post));
            let (t, ev) = match post {
                Some(t) if self.queue.peek_time().is_none_or(|q| t <= q) => {
                    let msg = self.next_post;
                    let k = self.try_turbo(msg, t, messages);
                    if k > 0 {
                        self.next_post += k;
                        continue;
                    }
                    self.next_post += 1;
                    (t, Ev::Post { msg })
                }
                _ => {
                    let Some((t, ev)) = self.queue.pop() else {
                        unreachable!("event queue drained with messages outstanding");
                    };
                    if matches!(ev, Ev::Timer) {
                        // On a memo run the one live timer entry just fired.
                        self.timer = None;
                    }
                    (t, ev)
                }
            };
            // Publish the virtual clock for clock-less substrate sites
            // (credit pools, LCRC checks) that emit `instant_now`.
            probe::<OBSERVED, _>(|| {
                if trace::enabled() {
                    trace::set_now(t);
                }
            });
            self.dispatch(t, ev, &mut aborted);
            if aborted.is_some() {
                break;
            }
        }
        self.finish(messages, aborted)
    }

    /// Attempt to complete a whole run of consecutive clean messages
    /// starting at `msg` (posted at `t`) in one bulk commit. Returns the
    /// number of messages completed (0: the event loop posts `msg`).
    ///
    /// In steady state each clean message is the same pure function of its
    /// post time, and post times are uniformly spaced — so once the first
    /// message's admission checks pass and the shift-invariance
    /// inequalities below hold, every later clean message's checks pass by
    /// induction. The only per-message work left is what a fault source
    /// decides per message: the NIC departure's stall windows and the
    /// draws the event loop would take, each on a scratch copy of its own
    /// stream, stopping *before* the first faulting message so the event
    /// loop redraws its values from the committed streams; and the
    /// sequential f64 latency folds the reference performs. Everything
    /// else — TLP ids, DLL sequence numbers, PSNs, the in-flight ACK
    /// queues, link clocks, the credit-pool phase — advances in closed form
    /// to the exact state `k` event-loop messages would leave.
    fn try_turbo(&mut self, msg: u64, t: SimTime, messages: u64) -> u64 {
        let Some(memo) = self.memo else {
            return 0;
        };
        if OBSERVED || !self.rep_verified {
            return 0;
        }
        // Size admission: never commit a chain recorded for another payload
        // size. The memo exists only for uniform plans, so the first
        // message's key covers the run.
        if self.plan.payload_for(msg) != memo.payload {
            return 0;
        }
        // Quiescence: no pending events (a live event means an earlier
        // message is still recovering), no parked MMIO writes, no unacked
        // transport packets.
        if !self.queue.is_empty() || !self.credit_waiters.is_empty() || self.rc_tx.pending() != 0 {
            return 0;
        }
        // Shift-invariance: with posts `interval` apart, message `m+1`'s
        // admission checks against message `m`'s committed state reduce to
        // constant inequalities between memo offsets. The ACK-reap bounds
        // subsume the link-clock FIFO checks.
        let iv = self.post_interval;
        if memo.nic + memo.pcie > iv + memo.ready
            || memo.rx_arr + memo.pcie > iv + memo.pkt_arr
            || memo.total > iv + memo.in_mem
        {
            return 0;
        }
        // First-message admission against the current state. Link FIFO
        // serialization: an earlier traversal holds a later clock only
        // while recovery is draining. The target CPU must be free when the
        // payload lands, or the reference would emit a `reap_wait` stage.
        let ready = t + memo.ready;
        let pkt_arr = t + memo.pkt_arr;
        if self.tx_chan.clock > ready || self.rx_chan.clock > pkt_arr {
            return 0;
        }
        if self.target_cpu_free > t + memo.in_mem {
            return 0;
        }
        // Reap the ACK DLLPs due by the depart times — exactly the reaps
        // `traverse` would perform first, so a refusal leaves the event
        // loop to re-reap idempotently.
        self.tx_chan.reap_acks(ready);
        self.rx_chan.reap_acks(pkt_arr);
        if self.tx_chan.buf.pending() != 0
            || !self.tx_chan.pending_acks.is_empty()
            || self.rx_chan.buf.pending() != 0
            || !self.rx_chan.pending_acks.is_empty()
        {
            return 0;
        }
        // Credit-pool periodicity: every committed message runs the same
        // consume → drain → (replenish on batch boundary) cycle on
        // identically-sized TLPs, so the pool state must cycle with period
        // `update_batch` messages. Prove it from the current phase on
        // clones; a pool that would stall or not return exactly forfeits
        // the bulk run. (The credit ops read only the TLP's size class.)
        let tlp0 = Tlp::pio_burst(bband_pcie::TlpId(0), memo.chunks);
        let Some(fc_recv) = self.tx_chan.fc_recv.as_ref() else {
            return 0;
        };
        let period = fc_recv.update_batch() as u64;
        {
            let mut issue = self.fc_issue.clone();
            let mut recv = fc_recv.clone();
            for _ in 0..period {
                if issue.consume(&tlp0).is_err() {
                    return 0;
                }
                if let Some((hdr, data)) = recv.drain(&tlp0) {
                    issue.replenish(hdr, data);
                }
            }
            if issue != self.fc_issue || recv != *fc_recv {
                return 0;
            }
        }
        let k = self.clean_run(msg, messages - msg, &memo);
        if k == 0 {
            return 0;
        }
        // Commit: credit phase (whole periods are exact no-ops, proven
        // above), id/sequence/PSN counters, the final message's in-flight
        // ACKs and clocks, and the statistics folds.
        for _ in 0..k % period {
            self.fc_issue
                .consume(&tlp0)
                .expect("periodicity proof covered every phase");
            if let Some((hdr, data)) = self
                .tx_chan
                .fc_recv
                .as_mut()
                .expect("checked above")
                .drain(&tlp0)
            {
                self.fc_issue.replenish(hdr, data);
            }
        }
        // Two TLP ids per message, TX leg first.
        let base = self.ids.skip(2 * k);
        let last_t = self.post_at(msg + k - 1);
        let nic = last_t + memo.nic;
        let rx_arr = last_t + memo.rx_arr;
        self.tx_chan.skip_delivered(
            k,
            Tlp::pio_burst(bband_pcie::TlpId(base + 2 * (k - 1)), memo.chunks),
            nic,
            nic + memo.pcie,
        );
        self.rx_chan.skip_delivered(
            k,
            Tlp::payload_deliver(bband_pcie::TlpId(base + 2 * k - 1), memo.payload),
            rx_arr,
            rx_arr + memo.pcie,
        );
        self.rc_tx.skip_delivered(k);
        self.rc_rx.skip_delivered(k);
        self.target_cpu_free = last_t + memo.total;
        self.completed += k;
        // The reference folds one f64 add per message; float addition is
        // not associative, so the sum must stay sequential for the mean to
        // come out bit-equal.
        for _ in 0..k {
            self.lat_sum_ns += memo.total_ns;
        }
        self.lat_min_ns = self.lat_min_ns.min(memo.total_ns);
        self.lat_max_ns = self.lat_max_ns.max(memo.total_ns);
        k
    }

    /// How many of the `remaining` messages from `msg` run clean, and
    /// commit the random streams up to the last of them. Per message, in
    /// post order: stop if the NIC departure lies in an absolute stall
    /// window, or if one real Markov query at that instant returns a window
    /// (queries in post order keep the event loop's later ones monotone, as
    /// the lazily extended schedule requires; a refused message's own
    /// query returns the same window again). Then take the draws its
    /// lifetime takes, each stream on its scratch copy in that stream's
    /// reference order: TX corruption, the data leg's loss (both channels
    /// advance, as in `fabric_drops`), RX corruption, the ACK leg's loss.
    /// A message that faults keeps its draws on the committed streams.
    fn clean_run(&mut self, msg: u64, remaining: u64, memo: &ChainMemo) -> u64 {
        let p_loss = self.plan.loss_probability;
        let p_corrupt = self.plan.corruption_probability;
        if p_loss == 0.0
            && p_corrupt == 0.0
            && self.burst.is_none()
            && self.stall_sched.is_none()
            && self.plan.nic_stalls.is_empty()
        {
            return remaining;
        }
        let mut fab = self.fabric.rng_snapshot();
        let mut tx = self.tx_chan.link.rng_snapshot();
        let mut rx = self.rx_chan.link.rng_snapshot();
        let mut burst = self.burst.clone();
        let drops = |fab: &mut Pcg64, burst: &mut Option<GeChannel>| {
            let iid = p_loss > 0.0 && fab.next_bool(p_loss);
            let bursty = burst.as_mut().is_some_and(GeChannel::drops);
            iid || bursty
        };
        let corrupts = |link: &mut Pcg64| p_corrupt > 0.0 && link.next_bool(p_corrupt);
        let mut k = 0;
        while k < remaining {
            let nic = self.post_at(msg + k) + memo.nic;
            let windows = &self.plan.nic_stalls;
            if windows.iter().any(|w| w.end_if_covers(nic).is_some())
                || self
                    .stall_sched
                    .as_mut()
                    .is_some_and(|s| s.defer_with_window(nic).1.is_some())
            {
                break;
            }
            let (mut f, mut b) = (fab.clone(), burst.clone());
            let (mut t, mut r) = (tx.clone(), rx.clone());
            if corrupts(&mut t)
                || drops(&mut f, &mut b)
                || corrupts(&mut r)
                || drops(&mut f, &mut b)
            {
                break;
            }
            (fab, burst, tx, rx) = (f, b, t, r);
            k += 1;
        }
        self.fabric.rng_restore(fab);
        self.tx_chan.link.rng_restore(tx);
        self.rx_chan.link.rng_restore(rx);
        self.burst = burst;
        k
    }

    /// Fold the run into its terminal statistics.
    fn finish(
        mut self,
        messages: u64,
        aborted: Option<RetryExhausted>,
    ) -> (FaultRunStats, Option<RetryExhausted>) {
        // Fold the substrate diagnostics into the per-layer counter block.
        self.counters.rc_retransmissions = self.rc_tx.retransmissions;
        self.counters.rc_naks = self.rc_tx.naks;
        self.counters.rc_timeouts = self.rc_tx.timeouts;
        self.counters.dll_nacks = self.tx_chan.rx.corrupted_seen + self.rx_chan.rx.corrupted_seen;
        self.counters.dll_replays =
            self.tx_chan.buf.retransmissions + self.rx_chan.buf.retransmissions;
        self.counters.credit_stalls = self.fc_issue.stalls;
        let completed = self.completed;
        let stats = FaultRunStats {
            messages,
            completed,
            mean_ns: if completed > 0 {
                self.lat_sum_ns / completed as f64
            } else {
                0.0
            },
            min_ns: if completed > 0 { self.lat_min_ns } else { 0.0 },
            max_ns: self.lat_max_ns,
            counters: self.counters,
        };
        (stats, aborted)
    }
}

/// Drive `messages` sends (the plan's payload axis; 8-byte eager by
/// default) through the full pipeline under `plan` on engine `path`.
/// Returns the run statistics, or [`RetryExhausted`] if the retry budget
/// tripped (total loss terminates; it never hangs).
pub fn run_e2e_under_faults_on(
    path: EnginePath,
    cal: &Calibration,
    plan: &FaultPlan,
    messages: u64,
    seed: u64,
) -> Result<FaultRunStats, RetryExhausted> {
    let (stats, aborted) = run_raw_on(path, cal, plan, messages, seed);
    match aborted {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// Like [`run_e2e_under_faults_on`] but keeps the partial statistics
/// when the retry budget trips: the traced runs ([`crate::tracepath`])
/// and the report layer's fast-vs-reference fault check want both.
///
/// A run with a trace or metrics collector installed on this thread runs
/// the observed copy of the engine; any other run, the unobserved one.
pub fn run_raw_on(
    path: EnginePath,
    cal: &Calibration,
    plan: &FaultPlan,
    messages: u64,
    seed: u64,
) -> (FaultRunStats, Option<RetryExhausted>) {
    if trace::enabled() || bband_metrics::enabled() {
        FaultSim::<true>::new(cal, plan, messages, seed, path).run(messages)
    } else {
        FaultSim::<false>::new(cal, plan, messages, seed, path).run(messages)
    }
}

/// The `latency_under_loss` experiment: sweep fabric loss probability over
/// `grid`, one pool task per point, each with an RNG stream derived from
/// `(seed, index)` so pooled and serial runs are bit-identical. Every pool
/// task runs engine `path`.
pub fn latency_under_loss(
    path: EnginePath,
    cal: &Calibration,
    base: &FaultPlan,
    grid: &[f64],
    messages: u64,
    seed: u64,
    pool: &WorkerPool,
) -> Vec<LossPoint> {
    let points: Vec<f64> = grid.to_vec();
    pool.map(points, move |idx, loss| {
        let mut plan = base.clone();
        plan.loss_probability = loss;
        let task_seed = Pcg64::new(seed).fork(idx as u64).next_u64();
        let (stats, aborted) = run_raw_on(path, cal, &plan, messages, task_seed);
        LossPoint {
            loss_probability: loss,
            stats,
            retry_exhausted: aborted,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::default()
    }

    /// The zero-fault invariant: under `FaultPlan::none()` every message's
    /// simulated latency equals the analytical end-to-end model bit-exactly
    /// in integer picoseconds, and no recovery mechanism engages.
    #[test]
    fn zero_fault_plan_matches_model_bit_exactly() {
        let c = cal();
        let model_ns = EndToEndLatencyModel::from_calibration(&c)
            .total()
            .as_ns_f64();
        let stats =
            run_e2e_under_faults_on(EnginePath::Fast, &c, &FaultPlan::none(), 64, 0x5EED).unwrap();
        assert_eq!(stats.completed, 64);
        assert_eq!(
            stats.min_ns, model_ns,
            "fastest message must match the model"
        );
        assert_eq!(
            stats.max_ns, model_ns,
            "slowest message must match the model"
        );
        // The mean is a floating sum; min == max pins every sample anyway.
        assert!((stats.mean_ns - model_ns).abs() < 1e-9);
        assert!(stats.counters.is_clean(), "no recovery on the fast path");
    }

    /// The zero-fault run is also seed-independent: no randomness drawn.
    #[test]
    fn zero_fault_plan_is_seed_independent() {
        let c = cal();
        let a = run_e2e_under_faults_on(EnginePath::Fast, &c, &FaultPlan::none(), 16, 1).unwrap();
        let b = run_e2e_under_faults_on(EnginePath::Fast, &c, &FaultPlan::none(), 16, 999).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn loss_engages_transport_recovery_and_completes() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.loss_probability = 0.05;
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 400, 42).unwrap();
        assert_eq!(stats.completed, 400, "every message must still complete");
        assert!(
            stats.counters.rc_naks > 0 || stats.counters.rc_timeouts > 0,
            "5% loss over 400 messages must trigger recovery: {:?}",
            stats.counters
        );
        assert!(stats.counters.rc_retransmissions > 0);
        let model_ns = EndToEndLatencyModel::from_calibration(&c)
            .total()
            .as_ns_f64();
        assert!(stats.max_ns > model_ns, "recovery must cost latency");
        assert!(stats.min_ns >= model_ns);
    }

    #[test]
    fn corruption_engages_dll_replay() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.corruption_probability = 0.05;
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 400, 42).unwrap();
        assert_eq!(stats.completed, 400);
        assert!(stats.counters.dll_nacks > 0, "{:?}", stats.counters);
        assert_eq!(stats.counters.dll_nacks, stats.counters.dll_replays);
        assert_eq!(stats.counters.rc_retransmissions, 0, "fabric stays clean");
    }

    /// Total loss must terminate with `RetryExhausted`, not hang.
    #[test]
    fn total_loss_exhausts_retry_budget() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.loss_probability = 1.0;
        plan.retry.max_retries = 3;
        let err = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 8, 7).unwrap_err();
        assert_eq!(err.message, 0, "the first message's packet gives up");
        assert!(err.retries > 3);
        let msg = err.to_string();
        assert!(msg.contains("retry budget exhausted"), "{msg}");
    }

    #[test]
    fn starved_credits_stall_and_recover() {
        let c = cal();
        let mut plan = FaultPlan::none();
        // A single header credit replenished one UpdateFC at a time. With
        // the grant round trip (~0.5 µs) faster than the post interval
        // this alone never stalls — the paper's single-core observation —
        // so freeze the NIC for 10 µs mid-run: the doorbell parked in the
        // window holds the only credit until the NIC thaws, and the posts
        // behind it must stall on credits.
        plan.credits = Some(CreditConfig {
            hdr: 1,
            data: 64,
            update_batch: 1,
        });
        plan.nic_stalls = vec![StallWindow {
            start_ns: 3_000,
            duration_ns: 10_000,
        }];
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 64, 3).unwrap();
        assert_eq!(stats.completed, 64);
        assert!(stats.counters.credit_stalls > 0, "{:?}", stats.counters);
        assert!(stats.counters.nic_stalls > 0);
    }

    /// The ConnectX-4-class default pool never stalls a single-core
    /// injector — the §4.2 observation, now verified end to end.
    #[test]
    fn default_credits_never_stall_single_core() {
        let c = cal();
        let stats =
            run_e2e_under_faults_on(EnginePath::Fast, &c, &FaultPlan::none(), 256, 3).unwrap();
        assert_eq!(stats.counters.credit_stalls, 0);
    }

    #[test]
    fn nic_stall_window_defers_and_is_counted() {
        let c = cal();
        let mut plan = FaultPlan::none();
        // A 10 µs dead window starting mid-run.
        plan.nic_stalls = vec![StallWindow {
            start_ns: 2_000,
            duration_ns: 10_000,
        }];
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 32, 3).unwrap();
        assert_eq!(stats.completed, 32);
        assert!(stats.counters.nic_stalls > 0);
        let model_ns = EndToEndLatencyModel::from_calibration(&c)
            .total()
            .as_ns_f64();
        assert!(
            stats.max_ns > model_ns + 5_000.0,
            "stalled messages wait out the window"
        );
    }

    #[test]
    fn fault_plan_json_roundtrip_and_defaults() {
        let mut plan = FaultPlan::none();
        plan.loss_probability = 1e-3;
        plan.credits = Some(CreditConfig {
            hdr: 4,
            data: 64,
            update_batch: 2,
        });
        plan.nic_stalls = vec![StallWindow {
            start_ns: 100,
            duration_ns: 50,
        }];
        plan.payload_bytes = 65_536;
        plan.payload_cycle = vec![8, 1 << 20];
        plan.rndv_threshold = Some(16_384);
        let back = FaultPlan::from_json_str(&plan.to_json_string()).unwrap();
        assert_eq!(back, plan);
        // Sparse plans default every omitted field.
        let sparse = FaultPlan::from_json_str("{\"loss_probability\": 0.25}").unwrap();
        assert_eq!(sparse.loss_probability, 0.25);
        assert_eq!(sparse.retry, RetryPolicy::default());
        assert!(sparse.credits.is_none());
        assert!(sparse.nic_stalls.is_empty());
        assert_eq!(sparse.payload_bytes, 8, "the paper's default size");
        assert!(sparse.payload_cycle.is_empty());
        assert!(sparse.rndv_threshold.is_none());
        // The payload axis is workload shape, not a fault.
        let sized = FaultPlan::from_json_str("{\"payload_bytes\": 1048576}").unwrap();
        assert_eq!(sized.payload_bytes, 1 << 20);
        assert!(sized.is_zero());
        assert!(FaultPlan::from_json_str("{}").unwrap().is_zero());
        assert!(FaultPlan::from_json_str("42").is_err());
        assert!(FaultPlan::from_json_str(r#"{"retry": 5}"#).is_err());
    }

    /// A bursty channel must engage go-back-N recovery, and every message
    /// must still complete.
    #[test]
    fn burst_loss_engages_recovery_and_completes() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.burst_loss = Some(GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.8,
        });
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 400, 42).unwrap();
        assert_eq!(stats.completed, 400, "every message must still complete");
        assert!(
            stats.counters.rc_naks > 0 || stats.counters.rc_timeouts > 0,
            "bursts must trigger transport recovery: {:?}",
            stats.counters
        );
        assert!(stats.counters.rc_retransmissions > 0);
        let model_ns = EndToEndLatencyModel::from_calibration(&c)
            .total()
            .as_ns_f64();
        assert!(stats.max_ns > model_ns, "recovery must cost latency");
    }

    /// A burst channel that never loses is indistinguishable from none.
    #[test]
    fn zero_burst_channel_stays_bit_exact() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.burst_loss = Some(GilbertElliott {
            p_good_to_bad: 0.5,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 0.0,
        });
        assert!(plan.is_zero());
        let model_ns = EndToEndLatencyModel::from_calibration(&c)
            .total()
            .as_ns_f64();
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 32, 9).unwrap();
        assert_eq!(stats.min_ns, model_ns);
        assert_eq!(stats.max_ns, model_ns);
        assert!(stats.counters.is_clean());
    }

    /// Burst-loss config survives the sparse-JSON roundtrip, with the
    /// documented defaults for omitted fields.
    #[test]
    fn burst_loss_json_roundtrip_and_defaults() {
        let mut plan = FaultPlan::none();
        plan.burst_loss = Some(GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.25,
            loss_good: 1e-6,
            loss_bad: 0.5,
        });
        let back = FaultPlan::from_json_str(&plan.to_json_string()).unwrap();
        assert_eq!(back, plan);
        // Sparse: only the bad-state loss given; the chain defaults to
        // "recover immediately" (p_bad_to_good = 1) and a clean good state.
        let sparse = FaultPlan::from_json_str("{\"burst_loss\": {\"loss_bad\": 0.9}}").unwrap();
        let g = sparse.burst_loss.unwrap();
        assert_eq!(g.p_good_to_bad, 0.0);
        assert_eq!(g.p_bad_to_good, 1.0);
        assert_eq!(g.loss_good, 0.0);
        assert_eq!(g.loss_bad, 0.9);
        assert!(sparse.is_zero(), "no path into the bad state");
        assert!(FaultPlan::from_json_str("{\"burst_loss\": 3}").is_err());
    }

    /// Plans the engine cannot run are refused at parse time with a typed
    /// error naming the field, one row per rule and defect.
    #[test]
    fn unrunnable_plans_are_refused_with_a_typed_error() {
        let not_a_probability = "is not a probability in [0, 1]";
        for (json, message) in [
            (
                r#"{"credits": {"hdr": 0, "data": 0, "update_batch": 0}}"#,
                "credits.data = 0 cannot issue the plan's largest MMIO write (4 data credits)"
                    .to_string(),
            ),
            (
                r#"{"credits": {"hdr": 2, "data": 64, "update_batch": 4}}"#,
                "credits.update_batch = 4 must be between 1 and credits.hdr = 2".to_string(),
            ),
            (
                r#"{"credits": {"hdr": 0, "data": 64, "update_batch": 0}}"#,
                "credits.update_batch = 0 must be between 1 and credits.hdr = 0".to_string(),
            ),
            (
                r#"{"credits": {"hdr": 4, "data": 12, "update_batch": 4}}"#,
                "credits.data = 12 cannot issue one UpdateFC batch: credits.update_batch = 4 \
                 writes of 4 data credits need 16"
                    .to_string(),
            ),
            (
                r#"{"credits": {"hdr": 4, "data": 64, "update_batch": 4},
                    "payload_cycle": [8, 256]}"#,
                "credits.data = 64 cannot issue one UpdateFC batch: credits.update_batch = 4 \
                 writes of 20 data credits need 80"
                    .to_string(),
            ),
            (
                r#"{"loss_probability": -0.5}"#,
                format!("loss_probability = -0.5 {not_a_probability}"),
            ),
            (
                r#"{"loss_probability": 1e400}"#,
                format!("loss_probability = inf {not_a_probability}"),
            ),
            (
                r#"{"corruption_probability": 1.5}"#,
                format!("corruption_probability = 1.5 {not_a_probability}"),
            ),
            (
                r#"{"burst_loss": {"loss_bad": 2}}"#,
                format!("burst_loss.loss_bad = 2 {not_a_probability}"),
            ),
            (
                r#"{"retry": {"timeout_ns": 0}}"#,
                "retry.timeout_ns = 0 must be positive".to_string(),
            ),
            (
                r#"{"loss_probabilty": 0.01}"#,
                "unknown field loss_probabilty".to_string(),
            ),
            (
                r#"{"retry": {"timeout": 10}}"#,
                "unknown field retry.timeout".to_string(),
            ),
            (
                r#"{"burst_loss": {"loss_bda": 0.5}}"#,
                "unknown field burst_loss.loss_bda".to_string(),
            ),
            (
                r#"{"credits": {"hdr": 4, "data": 64, "update_batch": 2, "dta": 1}}"#,
                "unknown field credits.dta".to_string(),
            ),
            (
                r#"{"markov_stall": {"mean_up": 5}}"#,
                "unknown field markov_stall.mean_up".to_string(),
            ),
            (
                r#"{"nic_stalls": [{"start_ns": 0, "duration_ns": 5},
                    {"start_ns": 9, "duration_ns": 1, "length": 3}]}"#,
                "unknown field nic_stalls[1].length".to_string(),
            ),
        ] {
            let e = FaultPlan::from_json_str(json).expect_err(json);
            assert!(!matches!(e, PlanError::Json(_)), "{json}: {e:?}");
            assert_eq!(e.to_string(), message, "{json}");
        }
        // NaN has no JSON spelling; a plan built in code is checked too.
        let mut plan = FaultPlan::none();
        plan.loss_probability = f64::NAN;
        assert!(matches!(
            plan.check(),
            Err(PlanError::Probability {
                field: "loss_probability",
                ..
            })
        ));
    }

    /// Stall plans that would panic with "SimTime overflow" (a window
    /// ending near `u64::MAX` ns, a Markov mean of 1e300) or be clamped
    /// silently (a negative mean) are refused with a typed error; the
    /// bounds themselves still run.
    #[test]
    fn stall_plans_past_the_simtime_range_are_refused() {
        let mean = "is not a mean dwell in [0, 1e9] ns";
        for (json, message) in [
            (
                r#"{"nic_stalls": [{"start_ns": 0, "duration_ns": 18446744073709551615}]}"#,
                "nic_stalls[0] (start_ns = 0, duration_ns = 18446744073709551615) must end by \
                 10000000000 ns"
                    .to_string(),
            ),
            (
                r#"{"nic_stalls": [{"start_ns": 10, "duration_ns": 5},
                    {"start_ns": 10000000000, "duration_ns": 1}]}"#,
                "nic_stalls[1] (start_ns = 10000000000, duration_ns = 1) must end by \
                 10000000000 ns"
                    .to_string(),
            ),
            (
                r#"{"markov_stall": {"mean_down_ns": 1e300}}"#,
                format!("markov_stall.mean_down_ns = 1e300 {mean}"),
            ),
            (
                r#"{"markov_stall": {"mean_up_ns": -5, "mean_down_ns": 100}}"#,
                format!("markov_stall.mean_up_ns = -5.0 {mean}"),
            ),
            (
                r#"{"markov_stall": {"mean_up_ns": 1e400}}"#,
                format!("markov_stall.mean_up_ns = inf {mean}"),
            ),
        ] {
            let e = FaultPlan::from_json_str(json).expect_err(json);
            assert!(
                matches!(
                    e,
                    PlanError::StallWindow { .. } | PlanError::MeanDwell { .. }
                ),
                "{json}: {e:?}"
            );
            assert_eq!(e.to_string(), message, "{json}");
        }
        let mut plan = FaultPlan::none();
        plan.markov_stall = Some(MarkovStall {
            mean_up_ns: f64::NAN,
            mean_down_ns: 0.0,
        });
        assert!(matches!(plan.check(), Err(PlanError::MeanDwell { .. })));
        // At the bounds the engine runs: a NIC stalled up to the horizon,
        // and one that goes dark for dwells of the largest mean at once.
        for json in [
            r#"{"nic_stalls": [{"start_ns": 0, "duration_ns": 10000000000}]}"#,
            r#"{"markov_stall": {"mean_up_ns": 0, "mean_down_ns": 1e9}}"#,
        ] {
            let plan = FaultPlan::from_json_str(json).expect(json);
            let stats =
                run_e2e_under_faults_on(EnginePath::Fast, &cal(), &plan, 64, 7).expect(json);
            assert!(stats.counters.nic_stalls > 0, "{json}");
        }
    }

    /// Payloads above 64 MiB, which would run for minutes near `u32::MAX`,
    /// are refused with a typed error naming the field; the bound itself
    /// passes.
    #[test]
    fn payloads_past_64_mib_are_refused() {
        let limit = "exceeds the 67108864-byte (64 MiB) payload limit";
        for (json, message) in [
            (
                r#"{"payload_bytes": 4294967295}"#,
                format!("payload_bytes = 4294967295 {limit}"),
            ),
            (
                r#"{"payload_bytes": 67108865}"#,
                format!("payload_bytes = 67108865 {limit}"),
            ),
            (
                r#"{"payload_cycle": [8, 4096, 2147483648]}"#,
                format!("payload_cycle[2] = 2147483648 {limit}"),
            ),
        ] {
            let e = FaultPlan::from_json_str(json).expect_err(json);
            assert!(matches!(e, PlanError::Payload { .. }), "{json}: {e:?}");
            assert_eq!(e.to_string(), message, "{json}");
        }
        for json in [
            r#"{"payload_bytes": 67108864}"#,
            r#"{"payload_cycle": [8, 67108864]}"#,
        ] {
            FaultPlan::from_json_str(json).expect(json);
        }
    }

    /// A bad plan built in code never reaches `from_json_str`; the engine
    /// refuses it at construction.
    #[test]
    #[should_panic(expected = "invalid fault plan: credits.update_batch = 4")]
    fn engine_panics_on_a_bad_plan_built_in_code() {
        let mut plan = FaultPlan::none();
        plan.credits = Some(CreditConfig {
            hdr: 2,
            data: 64,
            update_batch: 4,
        });
        let _ = run_e2e_under_faults_on(EnginePath::Fast, &cal(), &plan, 4, 1);
    }

    /// The plans CI, the docs and the harness tests pass to `--faults`
    /// still parse, boundary probabilities included.
    #[test]
    fn plans_used_in_ci_and_tests_still_parse() {
        for json in [
            "{}",
            r#"{"loss_probability": 0.0}"#,
            r#"{"loss_probability": 0.05}"#,
            r#"{"loss_probability": 1.0}"#,
            r#"{"loss_probability": 0.0, "corruption_probability": 0.0}"#,
            r#"{"retry": {"max_retries": 0}}"#,
            r#"{"burst_loss": {"p_good_to_bad": 1, "loss_bad": 1}}"#,
            r#"{"credits": {"hdr": 1, "data": 64, "update_batch": 1}}"#,
            r#"{"credits": {"hdr": 4, "data": 64, "update_batch": 2}, "payload_cycle": [8, 1048576]}"#,
            r#"{"loss_probability": 1e-3, "corruption_probability": 1e-4,
                "credits": {"hdr": 2, "data": 64, "update_batch": 1},
                "nic_stalls": [{"start_ns": 3000, "duration_ns": 10000}],
                "markov_stall": {"mean_up_ns": 10000, "mean_down_ns": 800},
                "retry": {"timeout_ns": 2000, "max_retries": 12}}"#,
        ] {
            if let Err(e) = FaultPlan::from_json_str(json) {
                panic!("{json}: {e}");
            }
        }
    }

    /// Retry timeouts below the fault-free round trip only retransmit
    /// spuriously: every message still completes at the model latency.
    #[test]
    fn short_retry_timeouts_still_run_at_the_model_latency() {
        let model_ns = EndToEndLatencyModel::from_calibration(&cal())
            .total()
            .as_ns_f64();
        for (timeout_ns, spurious) in [(1, 1079), (100, 359), (500, 119)] {
            let json = format!(r#"{{"retry": {{"timeout_ns": {timeout_ns}}}}}"#);
            let plan = FaultPlan::from_json_str(&json).expect(&json);
            let stats =
                run_e2e_under_faults_on(EnginePath::Fast, &cal(), &plan, 120, 7).expect(&json);
            assert_eq!(stats.completed, 120, "{json}");
            assert_eq!((stats.min_ns, stats.max_ns), (model_ns, model_ns), "{json}");
            assert_eq!(stats.counters.rc_retransmissions, spurious, "{json}");
        }
    }

    /// A 64-byte payload's ACK round trip (about 770.1 ns) is longer than
    /// the 8-byte one (765.62 ns). A timeout between the two retransmits
    /// every message on the timer, so no lifetime is clean: the memo must
    /// be refused, and the fast path must retransmit what the reference
    /// does.
    #[test]
    fn memo_timer_bound_uses_the_payloads_round_trip() {
        let plan = FaultPlan::from_json_str(
            r#"{"payload_bytes": 64, "retry": {"timeout_ns": 769},
                "markov_stall": {"mean_up_ns": 20000, "mean_down_ns": 1000}}"#,
        )
        .unwrap();
        let c = cal();
        for seed in 1..=3 {
            let fast = run_raw_on(EnginePath::Fast, &c, &plan, 1_000, seed);
            assert_eq!(
                fast,
                run_raw_on(EnginePath::Reference, &c, &plan, 1_000, seed),
                "seed {seed}"
            );
            assert!(fast.0.counters.rc_timeouts > 900, "{:?}", fast.0.counters);
        }
    }

    /// With `p_good_to_bad = 1` and a lossless good state, every loss the
    /// run sees comes from the burst channel's bad state.
    #[test]
    fn burst_bad_state_dominates_when_forced() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.burst_loss = Some(GilbertElliott {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 0.3,
        });
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 200, 11).unwrap();
        assert_eq!(stats.completed, 200);
        assert!(
            stats.counters.rc_retransmissions > 0,
            "a permanent 30% bad state must lose packets: {:?}",
            stats.counters
        );
    }

    /// Correlated (Markov-modulated) NIC stalls engage the stall counters
    /// and cost latency, and every message still completes.
    #[test]
    fn markov_stalls_defer_and_complete() {
        let c = cal();
        let mut plan = FaultPlan::none();
        // ~33% duty cycle with multi-microsecond dwells: bursts span
        // several back-to-back messages, unlike i.i.d. per-op stalls.
        plan.markov_stall = Some(MarkovStall {
            mean_up_ns: 4_000.0,
            mean_down_ns: 2_000.0,
        });
        assert!(!plan.is_zero());
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 128, 42).unwrap();
        assert_eq!(stats.completed, 128);
        assert!(stats.counters.nic_stalls > 0, "{:?}", stats.counters);
        let model_ns = EndToEndLatencyModel::from_calibration(&c)
            .total()
            .as_ns_f64();
        assert!(stats.max_ns > model_ns, "stalled messages must wait");
        assert!(stats.min_ns >= model_ns);
    }

    /// A Markov block with zero mean down dwell is indistinguishable from
    /// none: the zero-fault invariant holds and no randomness is drawn.
    #[test]
    fn zero_markov_stall_stays_bit_exact() {
        let c = cal();
        let mut plan = FaultPlan::none();
        plan.markov_stall = Some(MarkovStall {
            mean_up_ns: 1_000.0,
            mean_down_ns: 0.0,
        });
        assert!(plan.is_zero());
        let a = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 32, 1).unwrap();
        let b = run_e2e_under_faults_on(EnginePath::Fast, &c, &FaultPlan::none(), 32, 2).unwrap();
        assert_eq!(a, b);
        assert!(a.counters.is_clean());
    }

    /// Markov-stall config survives the sparse-JSON roundtrip.
    #[test]
    fn markov_stall_json_roundtrip_and_defaults() {
        let mut plan = FaultPlan::none();
        plan.markov_stall = Some(MarkovStall {
            mean_up_ns: 5_000.0,
            mean_down_ns: 1_500.0,
        });
        let back = FaultPlan::from_json_str(&plan.to_json_string()).unwrap();
        assert_eq!(back, plan);
        // Sparse: only the down dwell given; the up dwell defaults.
        let sparse =
            FaultPlan::from_json_str("{\"markov_stall\": {\"mean_down_ns\": 800}}").unwrap();
        let m = sparse.markov_stall.unwrap();
        assert_eq!(m.mean_up_ns, 10_000.0);
        assert_eq!(m.mean_down_ns, 800.0);
        assert!(!sparse.is_zero());
        // Zero down dwell parses to a zero plan.
        assert!(FaultPlan::from_json_str("{\"markov_stall\": {}}")
            .unwrap()
            .is_zero());
        assert!(FaultPlan::from_json_str("{\"markov_stall\": 3}").is_err());
    }

    /// Everything one run can observably produce: terminal stats (with
    /// the recovery-counter ledger), abort outcome, every trace span it
    /// recorded, and the metrics registry contents.
    type Observed = (
        (FaultRunStats, Option<RetryExhausted>),
        Vec<trace::SpanRecord>,
        bband_metrics::TaskMetrics,
    );

    fn observe(path: EnginePath, plan: &FaultPlan, messages: u64, seed: u64) -> Observed {
        let c = cal();
        let ((run, trace), metrics) = bband_metrics::collect(|| {
            trace::collect(|| run_raw_on(path, &c, plan, messages, seed))
        });
        (run, trace, metrics)
    }

    /// Compare both paths' observations, then run both paths with no
    /// collector (the unobserved copy, probes compiled out) and require
    /// the observed outcome; returns how many spans each trace held.
    fn assert_paths_identical(plan: &FaultPlan, messages: u64, seed: u64) -> usize {
        let fast = observe(EnginePath::Fast, plan, messages, seed);
        let reference = observe(EnginePath::Reference, plan, messages, seed);
        assert_eq!(fast.0, reference.0, "stats diverged: {plan:?} seed {seed}");
        assert_eq!(
            fast.1, reference.1,
            "trace spans diverged: {plan:?} seed {seed}"
        );
        assert_eq!(
            fast.2, reference.2,
            "metrics diverged: {plan:?} seed {seed}"
        );
        assert!(!trace::enabled() && !bband_metrics::enabled());
        let c = cal();
        for path in [EnginePath::Fast, EnginePath::Reference] {
            assert_eq!(
                run_raw_on(path, &c, plan, messages, seed),
                fast.0,
                "unobserved {path:?} run diverged from the observed one: {plan:?} seed {seed}"
            );
        }
        fast.1.len()
    }

    /// Either collector alone selects the observed copy. Under metrics
    /// alone the registry is the one both collectors leave, with one
    /// `e2e_latency` sample per completed message (the unobserved copy
    /// records none, and a bulk commit none either); under a trace alone
    /// the spans are the ones both collectors leave.
    #[test]
    fn either_collector_alone_runs_the_observed_copy() {
        let c = cal();
        let mut lossy = FaultPlan::none();
        lossy.loss_probability = 0.02;
        for plan in [FaultPlan::none(), lossy] {
            for path in [EnginePath::Fast, EnginePath::Reference] {
                let both = observe(path, &plan, 200, 3);
                let (run, metrics) = bband_metrics::collect(|| run_raw_on(path, &c, &plan, 200, 3));
                assert_eq!(run, both.0);
                let e2e = metrics
                    .hists
                    .iter()
                    .find(|h| h.name == "e2e_latency")
                    .expect("metered latencies");
                assert_eq!(e2e.count, run.0.completed, "{path:?} {plan:?}");
                assert_eq!(metrics, both.2, "{path:?} {plan:?}");
                let (run, spans) = trace::collect(|| run_raw_on(path, &c, &plan, 200, 3));
                assert_eq!(run, both.0);
                assert_eq!(spans, both.1, "{path:?} {plan:?}");
            }
        }
    }

    /// The fast path must be byte-identical to the reference event loop —
    /// stats, counters, spans, and metrics — across every fault family,
    /// including plans that defeat memoization entirely.
    #[test]
    fn fast_path_is_byte_identical_to_reference() {
        let mut plans: Vec<(&str, FaultPlan)> = vec![("none", FaultPlan::none())];
        let mut p = FaultPlan::none();
        p.loss_probability = 1e-3;
        plans.push(("loss-1e3", p.clone()));
        p.loss_probability = 0.05;
        plans.push(("loss-5e2", p));
        let mut p = FaultPlan::none();
        p.corruption_probability = 0.03;
        plans.push(("corruption", p));
        let mut p = FaultPlan::none();
        p.burst_loss = Some(GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.8,
        });
        plans.push(("burst", p));
        let mut p = FaultPlan::none();
        p.markov_stall = Some(MarkovStall {
            mean_up_ns: 4_000.0,
            mean_down_ns: 2_000.0,
        });
        plans.push(("markov", p));
        let mut p = FaultPlan::none();
        p.credits = Some(CreditConfig {
            hdr: 1,
            data: 64,
            update_batch: 1,
        });
        p.nic_stalls = vec![StallWindow {
            start_ns: 3_000,
            duration_ns: 10_000,
        }];
        plans.push(("credit-starved", p));
        // Memoization-defeating: a retry timeout inside the ACK round trip
        // forces timer recovery on every message (memo is `None`).
        let mut p = FaultPlan::none();
        p.retry.timeout_ns = 500;
        plans.push(("timeout-inside-rtt", p));
        // Abort path: total loss trips the retry budget on both engines.
        let mut p = FaultPlan::none();
        p.loss_probability = 1.0;
        p.retry.max_retries = 3;
        plans.push(("total-loss", p));
        // Everything at once.
        let mut p = FaultPlan::none();
        p.loss_probability = 2e-3;
        p.corruption_probability = 1e-3;
        p.burst_loss = Some(GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.4,
            loss_good: 0.0,
            loss_bad: 0.5,
        });
        p.markov_stall = Some(MarkovStall {
            mean_up_ns: 20_000.0,
            mean_down_ns: 1_000.0,
        });
        plans.push(("combined", p));
        // Untraced at a length where bulk runs, stall queries and
        // go-back-N recovery all engage: the benchmark's `engine_faulty`
        // plan, and loss alone at 2e-2.
        let mut faulty = FaultPlan::none();
        faulty.loss_probability = 1e-3;
        faulty.markov_stall = Some(MarkovStall {
            mean_up_ns: 20_000.0,
            mean_down_ns: 1_000.0,
        });
        let mut lossy = FaultPlan::none();
        lossy.loss_probability = 0.02;
        let c = cal();
        for (name, p, seed) in [
            ("engine_faulty", &faulty, 1u64),
            ("engine_faulty", &faulty, 9),
            ("loss-2e2", &lossy, 9),
        ] {
            assert_eq!(
                run_raw_on(EnginePath::Fast, &c, p, 2_000, seed),
                run_raw_on(EnginePath::Reference, &c, p, 2_000, seed),
                "untraced stats diverged on {name}, seed {seed}"
            );
        }
        for (name, plan) in &plans {
            for seed in [1u64, 42, 0x5EED] {
                assert_paths_identical(plan, 200, seed);
            }
            // Also untraced/unmetered (the pure-throughput configuration).
            let c = cal();
            for seed in [7u64, 1234] {
                assert_eq!(
                    run_raw_on(EnginePath::Fast, &c, plan, 150, seed),
                    run_raw_on(EnginePath::Reference, &c, plan, 150, seed),
                    "untraced stats diverged on {name}"
                );
            }
        }
    }

    /// Memo-less plans where a synchronous post arms the retransmission
    /// timer at a later instant than a re-arm that follows it: a CTS's
    /// data-phase post, or a mixed cycle's eager post. The timer must fire
    /// where the reference fires it. The random-plan proptest draws too
    /// few messages to reach these.
    #[test]
    fn future_time_rearms_fire_the_timer_the_reference_fires() {
        let cases = [
            (
                r#"{"loss_probability": 0.0169004141325696, "burst_loss": {"p_good_to_bad": 0.004453223191899852, "p_bad_to_good": 0.1159352754992772, "loss_good": 0.0, "loss_bad": 0.47576857896346425}, "markov_stall": {"mean_up_ns": 17559.650174013535, "mean_down_ns": 3657.9686520394616}, "retry": {"timeout_ns": 3897, "max_retries": 7}, "payload_cycle": [8, 65536, 256]}"#,
                1_165,
                6_880_482_810_894_922_993u64,
            ),
            (
                r#"{"burst_loss": {"p_good_to_bad": 0.029426354318098032, "p_bad_to_good": 0.10214060774345742, "loss_good": 0, "loss_bad": 0.5389327459865142}, "corruption_probability": 0.01602923962607091, "nic_stalls": [{"start_ns": 35248, "duration_ns": 19647}], "retry": {"timeout_ns": 1163, "max_retries": 6}, "payload_bytes": 65536}"#,
                73,
                4_825_605_172_961_804_360,
            ),
            (
                r#"{"loss_probability": 0.049869787027724884, "nic_stalls": [{"start_ns": 12152, "duration_ns": 15150}], "markov_stall": {"mean_up_ns": 6194.692291665674, "mean_down_ns": 3096.3153596695556}, "retry": {"timeout_ns": 3649, "max_retries": 7}, "payload_cycle": [8, 65536, 256, 12288]}"#,
                213,
                13_502_509_467_189_669_602,
            ),
        ];
        let c = cal();
        for (json, messages, seed) in cases {
            let plan = FaultPlan::from_json_str(json).expect(json);
            assert_eq!(
                run_raw_on(EnginePath::Fast, &c, &plan, messages, seed),
                run_raw_on(EnginePath::Reference, &c, &plan, messages, seed),
                "{json}"
            );
        }
    }

    /// On a memo run the keyed timer leaves the queue empty once a clean
    /// message completes, so the next post commits every remaining
    /// message in bulk. A stale timer entry would refuse it. Only the
    /// unobserved copy commits in bulk.
    #[test]
    fn a_clean_message_leaves_the_queue_empty_for_a_bulk_commit() {
        let c = cal();
        let mut sim = FaultSim::<false>::new(&c, &FaultPlan::none(), 64, 1, EnginePath::Fast);
        assert!(sim.memo.is_some());
        let (t0, t1) = (sim.post_at(0), sim.post_at(1));
        sim.post(0, t0);
        let mut aborted = None;
        while sim.queue.peek_time().is_some_and(|q| q < t1) {
            let (t, ev) = sim.queue.pop().expect("peeked");
            assert!(!matches!(ev, Ev::Timer), "a clean message fired its timer");
            sim.dispatch(t, ev, &mut aborted);
        }
        assert_eq!(sim.completed, 1);
        assert_eq!(sim.queue.len(), 0, "events pending at the next post");
        assert_eq!(sim.try_turbo(1, t1, 64), 63);
        assert_eq!(sim.completed, 64);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Randomized fast-vs-reference byte-identity across random plans
        /// and seeds — including plans that defeat memoization (short
        /// timeouts, stall windows, heavy loss that trips the retry
        /// budget). Traced and metered runs compare stats, counters, spans
        /// and metrics on the event loop; the untraced runs compare stats
        /// and counters where bulk commits engage, against the observed
        /// outcome.
        #[test]
        fn fast_path_matches_reference_on_random_plans(
            seed in proptest::prelude::any::<u64>(),
            messages in 1u64..120,
            // The offline proptest shim has no `prop_oneof`/`prop_map`, so
            // draw a selector + magnitudes and build each variant by hand.
            loss_sel in 0u64..4,
            loss_mag in 0.0001f64..0.05,
            corruption_sel in 0u64..2,
            corruption_mag in 0.0001f64..0.05,
            burst_sel in 0u64..2,
            burst_gb in 0.001f64..0.1,
            burst_bg in 0.05f64..0.9,
            burst_lb in 0.1f64..0.9,
            markov_sel in 0u64..2,
            markov_up in 2_000.0f64..30_000.0,
            markov_down in 500.0f64..4_000.0,
            stall_sel in 0u64..2,
            stall_start_ns in 0u64..50_000,
            stall_duration_ns in 100u64..20_000,
            timeout_sel in 0u64..2,
            timeout_rand_ns in 500u64..5_000,
            payload_sel in 0u64..6,
            credits_sel in 0u64..2,
            credits_hdr in 2u32..9,
            credits_batch in 0u32..8,
        ) {
            let mut plan = FaultPlan::none();
            match payload_sel {
                0 => {} // the 8-byte default
                1 => plan.payload_bytes = 64,     // inline, memoized
                2 => plan.payload_bytes = 256,    // largest inline, memoized
                3 => plan.payload_bytes = 1024,   // eager, DMA descriptor
                4 => plan.payload_bytes = 65_536, // segmented rendezvous
                _ => plan.payload_cycle = vec![8, 65_536, 256, 12_288],
            }
            if credits_sel == 1 {
                // `update_batch` in 1..=hdr, and a data pool that covers a
                // batch of 256-byte writes (20 data credits each).
                let update_batch = credits_batch % credits_hdr + 1;
                plan.credits = Some(CreditConfig {
                    hdr: credits_hdr,
                    data: update_batch * 20,
                    update_batch,
                });
            }
            plan.loss_probability = match loss_sel {
                0 | 1 => 0.0,
                2 => loss_mag,
                _ => 1.0,
            };
            plan.corruption_probability = if corruption_sel == 0 { 0.0 } else { corruption_mag };
            plan.burst_loss = (burst_sel == 1).then_some(GilbertElliott {
                p_good_to_bad: burst_gb,
                p_bad_to_good: burst_bg,
                loss_good: 0.0,
                loss_bad: burst_lb,
            });
            plan.markov_stall = (markov_sel == 1).then_some(MarkovStall {
                mean_up_ns: markov_up,
                mean_down_ns: markov_down,
            });
            if stall_sel == 1 {
                plan.nic_stalls = vec![StallWindow {
                    start_ns: stall_start_ns,
                    duration_ns: stall_duration_ns,
                }];
            }
            plan.retry.timeout_ns = if timeout_sel == 0 { 2_000 } else { timeout_rand_ns };
            plan.retry.max_retries = 6;
            let fast = observe(EnginePath::Fast, &plan, messages, seed);
            let reference = observe(EnginePath::Reference, &plan, messages, seed);
            proptest::prop_assert_eq!(&fast.0, &reference.0);
            proptest::prop_assert_eq!(&fast.1, &reference.1);
            proptest::prop_assert_eq!(&fast.2, &reference.2);
            let c = cal();
            proptest::prop_assert_eq!(
                &run_raw_on(EnginePath::Fast, &c, &plan, messages, seed),
                &fast.0
            );
            proptest::prop_assert_eq!(
                &run_raw_on(EnginePath::Reference, &c, &plan, messages, seed),
                &fast.0
            );
        }
    }

    /// Zero-fault sized plans reproduce the sized analytical model
    /// bit-exactly at every payload — inline eager, DMA eager, and
    /// multi-segment rendezvous — on both engine paths.
    #[test]
    fn zero_fault_sized_plans_match_the_sized_model_bit_exactly() {
        let c = cal();
        let sized = SizedLatencyModel::from_calibration(&c);
        for payload in [
            0u32,
            1,
            8,
            64,
            200,
            256,
            257,
            1024,
            4096,
            4097,
            65_536,
            1 << 20,
        ] {
            let mut plan = FaultPlan::none();
            plan.payload_bytes = payload;
            let model_ns = sized.total(payload, None).as_ns_f64();
            for path in [EnginePath::Fast, EnginePath::Reference] {
                let stats = run_e2e_under_faults_on(path, &c, &plan, 12, 5).unwrap();
                assert_eq!(stats.completed, 12);
                assert_eq!(stats.min_ns, model_ns, "payload {payload} fastest");
                assert_eq!(stats.max_ns, model_ns, "payload {payload} slowest");
                assert!(stats.counters.is_clean(), "payload {payload}");
            }
        }
    }

    /// A forced threshold overrides min-cost selection: an inline-size
    /// payload pushed over the rendezvous path must match `rndv_total`.
    #[test]
    fn forced_rendezvous_threshold_matches_the_rndv_model() {
        let c = cal();
        let sized = SizedLatencyModel::from_calibration(&c);
        assert_eq!(sized.select(64, Some(32)), Protocol::Rendezvous);
        let mut plan = FaultPlan::none();
        plan.payload_bytes = 64;
        plan.rndv_threshold = Some(32);
        let model_ns = sized.total(64, Some(32)).as_ns_f64();
        assert_eq!(model_ns, sized.rndv_total(64).as_ns_f64());
        for path in [EnginePath::Fast, EnginePath::Reference] {
            let stats = run_e2e_under_faults_on(path, &c, &plan, 8, 3).unwrap();
            assert_eq!(stats.min_ns, model_ns);
            assert_eq!(stats.max_ns, model_ns);
            assert!(stats.counters.is_clean());
        }
    }

    /// Loss inside a segmented rendezvous transfer engages go-back-N over
    /// segments (and RTS/CTS retry), still completes every message, and
    /// the fast path stays byte-identical to the reference loop — over
    /// every span of both traces, millions per path.
    #[test]
    fn segmented_lossy_rendezvous_recovers_and_paths_match() {
        let mut plan = FaultPlan::none();
        plan.payload_bytes = 1 << 20; // 256 MTU segments per message
        plan.loss_probability = 0.02;
        for seed in [1u64, 42] {
            let spans = assert_paths_identical(&plan, 12, seed);
            assert!(
                spans > 2_000_000,
                "seed {seed}: compared {spans} spans, not the whole trace"
            );
        }
        let c = cal();
        let sized = SizedLatencyModel::from_calibration(&c);
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 12, 42).unwrap();
        assert_eq!(stats.completed, 12);
        assert!(
            stats.counters.rc_retransmissions > 0,
            "2% loss over 3072 segments must retransmit: {:?}",
            stats.counters
        );
        assert!(stats.max_ns > sized.total(1 << 20, None).as_ns_f64());
    }

    /// Mixed-size plans must defeat the single-size memo: the fast path
    /// stays byte-identical and each message's latency matches its own
    /// payload's model.
    #[test]
    fn mixed_size_plans_defeat_the_memo_and_match_per_size_models() {
        let c = cal();
        let sized = SizedLatencyModel::from_calibration(&c);
        let mut plan = FaultPlan::none();
        plan.payload_cycle = vec![8, 8, 4096];
        assert_eq!(plan.payload_for(0), 8);
        assert_eq!(plan.payload_for(2), 4096);
        assert_eq!(plan.payload_for(3), 8);
        assert_paths_identical(&plan, 24, 7);
        let stats = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, 24, 7).unwrap();
        assert_eq!(stats.min_ns, sized.total(8, None).as_ns_f64());
        assert_eq!(stats.max_ns, sized.total(4096, None).as_ns_f64());
        assert!(stats.counters.is_clean());
    }

    /// The pooled sweep must be bit-identical to a serial one.
    #[test]
    fn sweep_is_pool_invariant() {
        let c = cal();
        let base = FaultPlan::none();
        let serial = latency_under_loss(
            EnginePath::Fast,
            &c,
            &base,
            &DEFAULT_LOSS_GRID,
            60,
            0x5EED,
            &WorkerPool::with_threads(1),
        );
        let pooled = latency_under_loss(
            EnginePath::Fast,
            &c,
            &base,
            &DEFAULT_LOSS_GRID,
            60,
            0x5EED,
            &WorkerPool::with_threads(4),
        );
        assert_eq!(serial, pooled);
        // Monotone sanity: the fault-free point is the floor.
        let base_mean = serial[0].stats.mean_ns;
        for p in &serial[1..] {
            assert!(p.stats.mean_ns >= base_mean);
        }
    }
}
