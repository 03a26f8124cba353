//! Discrete-event simulation substrate for the Breaking Band reproduction.
//!
//! The paper ("Breaking Band: A Breakdown of High-performance Communication",
//! ICPP 2019) measures a physical ThunderX2 + ConnectX-4 system with CPU
//! timers and a PCIe analyzer. This crate provides the virtual equivalents of
//! the physical substrate's foundations:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-picosecond virtual clock. The
//!   paper reports times in hundredths of nanoseconds; picosecond integers
//!   represent every tabled constant exactly and keep event ordering total.
//! * [`rng::Pcg64`] — a small, fully deterministic PRNG so a simulation run
//!   is a pure function of `(profile, seed, workload)`.
//! * [`dist::Jitter`] — the jitter model applied to calibrated component
//!   costs, including the rare OS-noise spikes responsible for the heavy
//!   tail the paper observes (Figure 7: max ≈ 34.9 µs vs. mean ≈ 282 ns).
//! * [`engine::EventQueue`] — a total-ordered, FIFO-stable event queue used
//!   by the hardware-side models (root complex, NIC, fabric).
//! * [`IdMap`] — the hash map for keys the simulator assigns itself (TLP,
//!   packet and request ids), with a multiplicative hasher instead of
//!   SipHash.
//! * [`IdRing`] — the table for ids issued in increasing order and retired
//!   within a short window (a NIC's in-flight TLPs and messages): slot
//!   `id − base` of a ring, no hashing.
//! * [`engine::CpuClock`] — the software side of the hybrid simulation: MPI /
//!   UCP / UCT code paths execute sequentially on a CPU clock while hardware
//!   progresses through queued events, which is exactly how the paper's
//!   measured system overlaps CPU time with PCIe time (its Figure 5).

pub mod dist;
pub mod engine;
pub mod idmap;
pub mod idring;
pub mod pool;
pub mod rng;
pub mod stall;
pub mod time;

pub use dist::{Jitter, NoiseSpike};
pub use engine::{CpuClock, EventKey, EventQueue};
pub use idmap::IdMap;
pub use idring::IdRing;
pub use pool::WorkerPool;
pub use rng::Pcg64;
pub use stall::StallSchedule;
pub use time::{SimDuration, SimTime};
