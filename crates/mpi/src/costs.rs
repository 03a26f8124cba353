//! Calibrated MPICH-layer costs (Table 1 and §6 of the paper).

use bband_sim::SimDuration;

/// Per-operation costs of the MPICH layer.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiCosts {
    /// `MPI_Isend`'s own work before calling `ucp_tag_send_nb`: datatype
    /// check, interface selection, request allocation — 24.37 ns (Table 1).
    pub isend: SimDuration,
    /// `MPI_Irecv`'s own work before `ucp_tag_recv_nb`. Not published
    /// separately (the paper assumes receive initiation overlaps the
    /// latency path); modeled symmetric to `isend`.
    pub irecv: SimDuration,
    /// Fixed prologue of a blocking `MPI_Wait` before the progress loop
    /// spins (request inspection, state setup). Part of the 293.29 ns
    /// MPICH wait total that overlaps the wait itself.
    pub wait_prologue: SimDuration,
    /// MPICH progress-engine cost per unsuccessful loop iteration (also
    /// overlapped by the wait).
    pub wait_iteration: SimDuration,
    /// The registered MPICH callback for a completed receive: 47.99 ns.
    pub recv_callback: SimDuration,
    /// Time spent in MPICH *after* a successful `ucp_worker_progress`
    /// returns: 36.89 ns (§6).
    pub wait_epilogue: SimDuration,
    /// Per-operation MPICH cost of progressing send completions during
    /// `MPI_Waitall` (the MPICH share of HLP_tx_prog ≈ 58.86 ns; split
    /// with UCP per DESIGN.md).
    pub waitall_per_op: SimDuration,
}

impl Default for MpiCosts {
    fn default() -> Self {
        MpiCosts {
            isend: SimDuration::from_ns_f64(24.37),
            irecv: SimDuration::from_ns_f64(24.37),
            wait_prologue: SimDuration::from_ns_f64(58.0),
            wait_iteration: SimDuration::from_ns_f64(50.0),
            recv_callback: SimDuration::from_ns_f64(47.99),
            wait_epilogue: SimDuration::from_ns_f64(36.89),
            waitall_per_op: SimDuration::from_ns_f64(40.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isend_matches_table1() {
        assert!((MpiCosts::default().isend.as_ns_f64() - 24.37).abs() < 1e-9);
    }
}
