//! The paper's primary contribution: analytical models of the injection
//! overhead and end-to-end latency of high-performance communication, the
//! component breakdowns they induce, and the what-if analysis built on top.
//!
//! * [`calibration`] — every calibrated constant (Table 1) in one place,
//!   assembled from the substrate crates' cost models;
//! * [`breakdown`] — the labelled component-sum type used by every figure;
//! * [`injection`] — Equation 1 (LLP-level injection overhead, §4.2) and
//!   Equation 2 (overall injection overhead, §6), with `gen_completion`
//!   and the lower bound on the poll interval `p`;
//! * [`latency`] — the LLP-level latency model (§4.3) and the end-to-end
//!   model (§6), plus the CPU/I-O/Network category rollups of Figures
//!   15–16;
//! * [`fault`] — fault injection and recovery threaded into the
//!   end-to-end path: serializable [`FaultPlan`]s, the discrete-event
//!   recovery simulation, and the `latency_under_loss` sweep;
//! * [`tracepath`] — trace-derived breakdowns: traced runs of the fault
//!   path, reduced back to the paper's figures and proven bit-exact
//!   against the models;
//! * [`hlp_breakdown`] — the HLP-vs-LLP and MPICH-vs-UCP splits of
//!   Figures 11 and 14;
//! * [`whatif`] — the §7 simulated-optimization engine behind Figure 17,
//!   its headline claims, and a simulation-backed cross-check;
//! * [`validate`] — model-vs-observed validation against the simulated
//!   system (the paper's ≤5% / ≤1% / ≤4% agreements).

pub mod breakdown;
pub mod calibration;
pub mod fault;
pub mod hlp_breakdown;
pub mod injection;
pub mod insights;
pub mod latency;
pub mod profiles;
pub mod scaling;
pub mod tracepath;
pub mod validate;
pub mod whatif;

pub use breakdown::Breakdown;
pub use calibration::Calibration;
pub use fault::{FaultPlan, FaultRunStats, LossPoint, PlanError, RetryExhausted, RetryPolicy};
pub use injection::{InjectionModel, OverallInjectionModel};
pub use latency::{Category, EndToEndLatencyModel, LlpLatencyModel, Protocol, SizedLatencyModel};
pub use scaling::ScalingModel;
pub use tracepath::{sweep_message_sizes, traced_e2e, SizeSweepPoint, DEFAULT_SIZE_GRID};
pub use validate::{validate_all, ValidationReport};
pub use whatif::{Component, WhatIf};
