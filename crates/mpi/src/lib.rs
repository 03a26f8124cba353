//! The high-level communication protocol, layer 2: an MPICH/CH4-like MPI
//! library.
//!
//! §5 of the paper: *"Modern implementations, such as the CH4 device of
//! MPICH, rely on abstract communication frameworks, such as UCX, so that
//! the MPI libraries do not need to maintain separate critical paths for
//! all interconnects."* The call chain this crate reproduces:
//!
//! ```text
//! MPI_Isend ─▶ MPICH work (24.37 ns) ─▶ ucp_tag_send_nb (2.19 ns)
//!            ─▶ uct_ep_am_short (LLP_post, 175.42 ns)
//!
//! MPI_Wait  ─▶ progress engine loop ─▶ ucp_worker_progress
//!            ─▶ uct_worker_progress (LLP_prog) ─▶ UCP callback (139.78 ns)
//!            ─▶ MPICH callback (47.99 ns) ─▶ post-progress work (36.89 ns)
//! ```
//!
//! The costs are Table 1's; the structure (registered callbacks executed
//! before `uct_worker_progress` returns, the progress engine looping until
//! the request completes, batched `MPI_Waitall` progress amortized by
//! unsignaled completions) follows §5–§6.

pub mod collectives;
pub mod costs;
pub mod proc;

pub use collectives::{
    collective_scaling, deterministic_ranks, run_collective, Collective, CollectiveReport,
};
pub use costs::MpiCosts;
pub use proc::{MpiProcess, MpiRequest, RequestState, ANY_TAG};
