//! Table 1: measured times of various components.

use bband_core::Calibration;
use bband_llp::Phase;

/// One row of Table 1: component name and its time in nanoseconds.
pub fn table1_rows(c: &Calibration) -> Vec<(&'static str, f64)> {
    vec![
        (
            "Message descriptor setup",
            c.llp.phase_mean(Phase::MdSetup).as_ns_f64(),
        ),
        (
            "Barrier for message descriptor",
            c.llp.phase_mean(Phase::BarrierMd).as_ns_f64(),
        ),
        (
            "Barrier for DoorBell counter",
            c.llp.phase_mean(Phase::BarrierDbc).as_ns_f64(),
        ),
        (
            "PIO copy (64 bytes)",
            c.llp.phase_mean(Phase::PioCopy).as_ns_f64(),
        ),
        (
            "Miscellaneous in LLP_post",
            c.llp.phase_mean(Phase::Misc).as_ns_f64(),
        ),
        ("LLP_post (total of above)", c.llp_post().as_ns_f64()),
        ("LLP_prog", c.llp_prog().as_ns_f64()),
        ("Busy post", c.llp.busy_post.as_ns_f64()),
        ("Measurement update", c.measurement_update.as_ns_f64()),
        (
            "Misc in Inj_overhead (total of above)",
            (c.llp.busy_post + c.measurement_update).as_ns_f64(),
        ),
        ("PCIe for a 64-byte payload", c.pcie().as_ns_f64()),
        ("Wire", c.wire().as_ns_f64()),
        ("Switch", c.switch().as_ns_f64()),
        ("Network (total of above)", c.network_total().as_ns_f64()),
        ("RC-to-MEM(8B)", c.rc_to_mem_8b().as_ns_f64()),
        ("MPI_Isend in MPICH", c.mpich.isend.as_ns_f64()),
        ("MPI_Isend in UCP", c.ucp.tag_send.as_ns_f64()),
        (
            "Callback for a completed MPI_Irecv in MPICH",
            c.mpich.recv_callback.as_ns_f64(),
        ),
        ("Successful MPI_Wait for MPI_Irecv in MPICH", 293.29),
        (
            "Callback for a completed MPI_Irecv in UCP",
            c.ucp.recv_callback.as_ns_f64(),
        ),
        (
            "Successful MPI_Wait for MPI_Irecv in UCP",
            (c.ucp.progress_dispatch + c.ucp.recv_callback).as_ns_f64(),
        ),
    ]
}

/// Render Table 1 as aligned text.
pub fn render_table1(c: &Calibration) -> String {
    let rows = table1_rows(c);
    let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = format!(
        "Table 1: Measured times of various components.\n{:-<w$}\n",
        "",
        w = name_w + 14
    );
    out.push_str(&format!("{:<name_w$}  {:>10}\n", "Component", "Time (ns)"));
    for (name, ns) in rows {
        out.push_str(&format!("{name:<name_w$}  {ns:>10.2}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_row_matches() {
        // All 21 rows against the paper's published values.
        let expect = [
            27.78, 17.33, 21.07, 94.25, 14.99, 175.42, 61.63, 8.99, 49.69, 58.68, 137.49, 274.81,
            108.0, 382.81, 240.96, 24.37, 2.19, 47.99, 293.29, 139.78, 150.51,
        ];
        let rows = table1_rows(&Calibration::default());
        assert_eq!(rows.len(), expect.len());
        for ((name, got), want) in rows.iter().zip(expect) {
            assert!(
                (got - want).abs() < 0.01,
                "{name}: {got:.2} vs paper {want:.2}"
            );
        }
    }

    #[test]
    fn rendered_table_contains_key_rows() {
        let out = render_table1(&Calibration::default());
        assert!(out.contains("LLP_post (total of above)"));
        assert!(out.contains("175.42"));
        assert!(out.contains("RC-to-MEM(8B)"));
        assert!(out.contains("240.96"));
    }
}
