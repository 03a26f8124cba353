//! Table/figure renderers for the reproduction harness.
//!
//! Everything the paper presents is one of four shapes:
//!
//! * a **table** of named times (Table 1) — [`table::render_table1`];
//! * a **percent bar** (Figures 4, 8, 10, 11, 12, 14, 15, 16) —
//!   [`bars::render_bar`];
//! * a **histogram** (Figure 7) — [`hist::render_histogram`];
//! * a **set of curves** (Figure 17) — [`curves::render_curves`];
//!
//! plus the Figure 6 trace listing, which `bband-analyzer` renders itself.
//! All renderers produce plain text (terminal-friendly); the JSON
//! artifacts `repro --json` writes come from [`export`] and the
//! per-experiment modules.

pub mod bars;
pub mod curves;
pub mod export;
pub mod fabric;
pub mod flame;
pub mod hist;
pub mod loss;
pub mod metrics;
pub mod ranks;
pub mod sizes;
pub mod table;
pub mod threads;

pub use bars::render_bar;
pub use curves::render_curves;
pub use export::{breakdown_json, curves_json, to_json};
pub use fabric::{fabric_telemetry_json, render_fabric_heatmap, FABRIC_TELEMETRY_SCHEMA};
pub use flame::{render_critical_path, render_flame};
pub use hist::render_histogram;
pub use loss::{loss_sweep_json, render_loss_sweep};
pub use metrics::{
    metrics_json, render_quantiles, render_recovery_attribution, render_windowed_quantiles,
};
pub use ranks::{rank_sweep_json, render_rank_sweep, render_two_node_check, SWEEP_RANKS_SCHEMA};
pub use sizes::{
    render_fault_check, render_size_sweep, segmented_fault_check, size_sweep_json,
    SWEEP_SIZE_SCHEMA,
};
pub use table::render_table1;
pub use threads::{
    render_thread_baseline, render_thread_sweep, thread_sweep_json, ThreadBaseline, ThreadPoint,
    ThreadSweepJson, ZambreCheck, SWEEP_THREADS_SCHEMA,
};
