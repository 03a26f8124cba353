//! Host memory-system model for the Breaking Band reproduction.
//!
//! The paper attributes several critical-path costs to the host memory
//! system of the ThunderX2 node:
//!
//! * **memory barriers** — aarch64's weak memory model requires a store
//!   barrier (`dmb st`) before the doorbell-counter update and the PIO copy,
//!   and a load barrier when polling the completion queue (§4.1);
//! * **memory types** — the PIO copy targets memory-mapped *Device-GRE*
//!   memory, which is ~90% slower to write than *Normal* memory (§7.1,
//!   "Improving the initiation of a message in LLP");
//! * **RC-to-MEM(xB)** — the root complex writing an x-byte payload to
//!   memory on behalf of the NIC (240.96 ns for 8 B, Table 1).
//!
//! This crate models all three with calibrated cost functions.

pub mod barrier;
pub mod rc_write;
pub mod types;

pub use barrier::{Barrier, BarrierModel};
pub use rc_write::RcToMemModel;
pub use types::{MemoryType, WriteCostModel};
