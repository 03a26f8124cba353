//! The complete breakdown report: regenerates every breakdown figure of
//! the paper (4, 8, 10, 11, 12, 13, 14, 15, 16) plus Table 1 and the
//! model-vs-observed validation — the "complete picture" of §6.
//!
//! ```sh
//! cargo run --release --example breakdown_report
//! ```

use breaking_band::microbench::StackConfig;
use breaking_band::models::fault::{EnginePath, FaultPlan};
use breaking_band::models::latency::Category;
use breaking_band::models::validate::{validate_all, ValidationScale};
use breaking_band::models::{
    hlp_breakdown, Calibration, EndToEndLatencyModel, InjectionModel, LlpLatencyModel,
    OverallInjectionModel,
};
use breaking_band::report::{render_bar, render_table1};

fn main() {
    let c = Calibration::default();

    println!("{}", render_table1(&c));

    println!("{}", render_bar(&InjectionModel::llp_post_breakdown(&c)));
    println!(
        "{}",
        render_bar(&InjectionModel::from_calibration(&c).breakdown())
    );
    println!(
        "{}",
        render_bar(&LlpLatencyModel::from_calibration(&c).breakdown())
    );
    println!("{}", render_bar(&hlp_breakdown::isend_split(&c)));
    println!("{}", render_bar(&hlp_breakdown::rx_wait_split(&c)));
    println!(
        "{}",
        render_bar(&OverallInjectionModel::from_calibration(&c).breakdown())
    );

    let e2e = EndToEndLatencyModel::from_calibration(&c);
    println!("{}", render_bar(&e2e.breakdown()));
    println!("{}", render_bar(&hlp_breakdown::initiation_split(&c)));
    println!("{}", render_bar(&hlp_breakdown::tx_progress_split(&c)));
    println!("{}", render_bar(&hlp_breakdown::rx_progress_split(&c)));
    println!("{}", render_bar(&e2e.category_breakdown()));
    for cat in [Category::Cpu, Category::Io, Category::Network] {
        println!("{}", render_bar(&e2e.category_sub_breakdown(cat)));
    }
    println!("{}", render_bar(&e2e.on_node_breakdown()));
    println!("{}", render_bar(&e2e.initiator_split()));
    println!("{}", render_bar(&e2e.target_split()));
    println!("{}", render_bar(&e2e.target_io_split()));

    // The four insights of §6, recomputed.
    println!("Insights (§6):");
    let overall = OverallInjectionModel::from_calibration(&c);
    println!(
        "  1. Post dominates injection: {:.1}% of {:.2} ns",
        overall.breakdown().pct("Post").unwrap(),
        overall.total().as_ns_f64()
    );
    let on_node = e2e.category_total(Category::Cpu) + e2e.category_total(Category::Io);
    println!(
        "  2. On-node share of latency: {:.1}% (network {:.1}%)",
        on_node.as_ns_f64() / e2e.total().as_ns_f64() * 100.0,
        e2e.category_total(Category::Network).as_ns_f64() / e2e.total().as_ns_f64() * 100.0
    );
    println!(
        "  3. Target-node share of on-node time: {:.1}%",
        e2e.on_node_breakdown().pct("Target").unwrap()
    );
    println!(
        "  4. RX progress / TX progress: {:.2}x",
        hlp_breakdown::rx_to_tx_progress_ratio(&c)
    );

    println!("\nValidating models against the simulated system (jittered)...");
    let report = validate_all(
        &c,
        ValidationScale::default(),
        true,
        &FaultPlan::none(),
        EnginePath::Fast,
        StackConfig::default().seed,
    );
    for row in &report.rows {
        println!(
            "  {:<36} model {:>8.2}  observed {:>8.2}  err {:>5.2}% [{}]",
            row.name,
            row.modeled_ns,
            row.observed_ns,
            row.error_frac * 100.0,
            if row.passes() { "ok" } else { "FAIL" }
        );
    }
    assert!(report.all_pass());
}
