//! Every number the paper publishes, asserted in one place: Table 1, the
//! derived model totals, all figure percentages, the validation margins,
//! and the §7 claims. This is the reproduction's contract.

use breaking_band::microbench::StackConfig;
use breaking_band::models::fault::{EnginePath, FaultPlan};
use breaking_band::models::validate::{validate_all, ValidationScale};
use breaking_band::models::whatif::Component;
use breaking_band::models::{
    hlp_breakdown, Calibration, EndToEndLatencyModel, InjectionModel, LlpLatencyModel,
    OverallInjectionModel, WhatIf,
};

fn close(got: f64, want: f64, tol: f64, what: &str) {
    assert!((got - want).abs() < tol, "{what}: {got} vs paper {want}");
}

#[test]
fn model_totals() {
    let c = Calibration::default();
    close(c.llp_post().as_ns_f64(), 175.42, 0.01, "LLP_post");
    close(
        InjectionModel::from_calibration(&c).total().as_ns_f64(),
        295.73,
        0.01,
        "Eq.1 injection",
    );
    close(
        OverallInjectionModel::from_calibration(&c)
            .total()
            .as_ns_f64(),
        264.97,
        0.01,
        "Eq.2 injection",
    );
    close(
        LlpLatencyModel::from_calibration(&c).total().as_ns_f64(),
        1135.8,
        0.05,
        "LLP latency",
    );
    close(
        EndToEndLatencyModel::from_calibration(&c)
            .total()
            .as_ns_f64(),
        1387.02,
        0.05,
        "end-to-end latency",
    );
}

#[test]
fn figure_percentages_fig4_8_12() {
    let c = Calibration::default();
    let fig4 = InjectionModel::llp_post_breakdown(&c);
    close(fig4.pct("PIO copy").unwrap(), 53.79, 0.1, "Fig4 PIO");
    close(fig4.pct("MD setup").unwrap(), 15.84, 0.1, "Fig4 MD");
    let fig12 = OverallInjectionModel::from_calibration(&c).breakdown();
    close(fig12.pct("Post").unwrap(), 76.23, 0.05, "Fig12 Post");
    close(
        fig12.pct("Post_prog").unwrap(),
        22.58,
        0.05,
        "Fig12 Post_prog",
    );
    close(fig12.pct("Misc").unwrap(), 1.20, 0.05, "Fig12 Misc");
}

#[test]
fn figure_percentages_fig10_13() {
    let c = Calibration::default();
    let fig10 = LlpLatencyModel::from_calibration(&c).breakdown();
    close(fig10.pct("Wire").unwrap(), 25.58, 0.05, "Fig10 Wire");
    close(fig10.pct("Switch").unwrap(), 10.05, 0.05, "Fig10 Switch");
    let fig13 = EndToEndLatencyModel::from_calibration(&c).breakdown();
    close(fig13.pct("Wire").unwrap(), 19.81, 0.05, "Fig13 Wire");
    close(
        fig13.pct("HLP_rx_prog").unwrap(),
        16.20,
        0.05,
        "Fig13 HLP_rx_prog",
    );
    close(fig13.pct("HLP_post").unwrap(), 1.91, 0.05, "Fig13 HLP_post");
}

#[test]
fn figure_percentages_fig11_14() {
    let c = Calibration::default();
    close(
        hlp_breakdown::isend_split(&c).pct("MPICH").unwrap(),
        91.76,
        0.05,
        "Fig11 Isend MPICH",
    );
    close(
        hlp_breakdown::rx_wait_split(&c).pct("UCP").unwrap(),
        33.91,
        0.05,
        "Fig11 Wait UCP",
    );
    close(
        hlp_breakdown::initiation_split(&c).pct("LLP").unwrap(),
        86.85,
        0.05,
        "Fig14 initiation LLP",
    );
    close(
        hlp_breakdown::tx_progress_split(&c).pct("HLP").unwrap(),
        98.39,
        0.05,
        "Fig14 tx HLP",
    );
    close(
        hlp_breakdown::rx_progress_split(&c).pct("LLP").unwrap(),
        21.53,
        0.05,
        "Fig14 rx LLP",
    );
}

#[test]
fn figure_percentages_fig15_16() {
    let c = Calibration::default();
    let m = EndToEndLatencyModel::from_calibration(&c);
    let cat = m.category_breakdown();
    close(cat.pct("CPU").unwrap(), 35.20, 0.05, "Fig15 CPU");
    close(cat.pct("I/O").unwrap(), 37.20, 0.05, "Fig15 I/O");
    close(cat.pct("Network").unwrap(), 27.60, 0.05, "Fig15 Network");
    let on = m.on_node_breakdown();
    close(on.pct("Target").unwrap(), 66.20, 0.05, "Fig16 target");
    close(
        m.target_io_split().pct("RC-to-MEM").unwrap(),
        63.67,
        0.05,
        "Fig16 target I/O RC-to-MEM",
    );
}

#[test]
fn insights() {
    let c = Calibration::default();
    // Insight 1: Post > 70% of the overall injection overhead.
    let fig12 = OverallInjectionModel::from_calibration(&c).breakdown();
    assert!(fig12.pct("Post").unwrap() > 70.0);
    // Insight 2: on-node time = 72.4% of the end-to-end latency.
    let m = EndToEndLatencyModel::from_calibration(&c);
    use breaking_band::models::latency::Category;
    let on_node = (m.category_total(Category::Cpu) + m.category_total(Category::Io)).as_ns_f64();
    close(
        on_node / m.total().as_ns_f64() * 100.0,
        72.4,
        0.1,
        "Insight 2",
    );
    // Insight 4: rx progress is 4.78x tx progress.
    close(
        hlp_breakdown::rx_to_tx_progress_ratio(&c),
        4.78,
        0.02,
        "Insight 4",
    );
}

#[test]
fn whatif_key_points() {
    let w = WhatIf::new(Calibration::default());
    // §7 values recomputed.
    close(
        w.injection_speedup(Component::Pio, 0.84).unwrap(),
        29.88,
        0.1,
        "PIO -84% injection",
    );
    close(
        w.injection_speedup(Component::Hlp, 0.20).unwrap(),
        6.45,
        0.05,
        "HLP -20% injection (paper 6.44)",
    );
    close(
        w.injection_speedup(Component::Llp, 0.20).unwrap(),
        13.31,
        0.05,
        "LLP -20% injection (paper 13.33)",
    );
    close(
        w.latency_speedup(Component::Switch, 0.72).unwrap(),
        5.61,
        0.05,
        "Switch -72% latency (paper 5.45)",
    );
    close(
        w.latency_speedup(Component::IntegratedNic, 0.50).unwrap(),
        18.60,
        0.1,
        "Integrated NIC -50% latency",
    );
    for claim in w.claims() {
        assert!(claim.holds, "claim failed: {}", claim.name);
    }
}

#[test]
fn validation_margins_hold_like_the_papers() {
    // Paper: Eq.1 within 5%, LLP latency within 5%, Eq.2 within 1%,
    // end-to-end within 4% — of *its* hardware observations. Against our
    // simulated system the same (or tighter) agreements must hold.
    let report = validate_all(
        &Calibration::default(),
        ValidationScale::quick(),
        true,
        &FaultPlan::none(),
        EnginePath::Fast,
        StackConfig::default().seed,
    );
    assert!(report.all_pass(), "{:#?}", report.rows);
    for row in &report.rows {
        assert!(
            row.error_frac < 0.05,
            "{} error {:.2}% exceeds 5%",
            row.name,
            row.error_frac * 100.0
        );
    }
}
