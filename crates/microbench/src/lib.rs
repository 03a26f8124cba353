//! The microbenchmarks of the paper's evaluation (§3–§6), re-implemented
//! against the simulated stack:
//!
//! * [`put_bw`] — UCX perftest's RDMA-write injection-rate test. Drives
//!   `uct_ep_put_short` continuously from one core, polling one completion
//!   every 16 posts, with a measurement update after every post. The PCIe
//!   analyzer's downstream-delta distribution is the *observed injection
//!   overhead* (Figures 6–7).
//! * [`am_lat`] — UCX perftest's send-receive ping-pong. Round-trip halved
//!   is the observed LLP-level latency (§4.3); the same trace yields the
//!   `PCIe`, `Network` and pong-ping measurements.
//! * [`osu_message_rate`] — OSU's message-rate test over the MPI layer
//!   (window of Isends + Waitall, no per-window sync, unsignaled
//!   completions). Its inverse is the overall injection overhead (§6).
//! * [`osu_latency`] — OSU's point-to-point latency test over MPI; the
//!   observed end-to-end latency (§6).
//!
//! [`put_bw`]: fn@put_bw
//! [`am_lat`]: fn@am_lat

pub mod am_lat;
pub mod common;
pub mod multicore;
pub mod osu;
pub mod put_bw;
pub mod traced;
pub mod ucp_lat;

pub use am_lat::{am_lat, AmLatConfig, AmLatReport};
pub use common::{BenchClock, StackConfig};
pub use multicore::{
    credit_exhaustion_onset_with, endpoint_injection, ThreadSweepConfig, ThreadSweepReport,
};
pub use osu::{
    osu_latency, osu_message_rate, OsuLatConfig, OsuLatReport, OsuMrConfig, OsuMrReport,
};
pub use put_bw::{put_bw, PutBwConfig, PutBwReport};
pub use ucp_lat::{eager_rndv_sweep, ucp_latency, UcpLatConfig};
