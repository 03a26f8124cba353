//! Parameter sweeps over the simulated stack — the design-space questions
//! the paper's introduction motivates (fine-grained communication at the
//! limits of strong scaling).
//!
//! Four sweeps:
//! 1. **payload size** — where does the latency stop being CPU/I-O bound
//!    and become network (serialization) bound?
//! 2. **completion moderation** — how much injection overhead do
//!    unsignaled completions (c = 1…256) actually save?
//! 3. **transport path** — PIO+inline vs doorbell+DMA for small messages
//!    (the §2 comparison).
//! 4. **protocol crossover** — eager vs rendezvous across payload sizes
//!    (the §5 "message fragmentation / protocol" layer at work).
//!
//! ```sh
//! cargo run --release --example fleet_sweep
//! ```

use breaking_band::fabric::NodeId;
use breaking_band::microbench::{eager_rndv_sweep, osu_message_rate, OsuMrConfig, StackConfig};
use breaking_band::nic::{CqeKind, Opcode};
use breaking_band::pcie::NullTap;
use breaking_band::sim::SimTime;

fn main() {
    payload_sweep();
    moderation_sweep();
    path_comparison();
    protocol_crossover();
}

/// Eager (two bounce copies) vs rendezvous (handshake + zero-copy RDMA):
/// where does UCX's protocol switch pay off?
fn protocol_crossover() {
    println!("\nEager vs rendezvous (UCP-level one-way latency, deterministic):");
    println!("  {:>10}  {:>12}  {:>12}  winner", "bytes", "eager", "rndv");
    let rows = eager_rndv_sweep(
        &StackConfig::validation(),
        &[4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024],
    );
    for (p, e, r) in rows {
        println!(
            "  {p:>10}  {e:>10.1}ns  {r:>10.1}ns  {}",
            if e <= r { "eager" } else { "rendezvous" }
        );
    }
}

/// One-way UCT-level latency as a function of payload size (inline up to
/// the NIC's limit, so PIO chunks grow with the payload).
fn payload_sweep() {
    println!("Payload-size sweep (UCT send-receive latency, deterministic):");
    println!("  {:>8}  {:>12}  {:>10}", "bytes", "latency", "network %");
    for payload in [8u32, 16, 32, 64, 128, 256] {
        // One deterministic send on a fresh stack: post start to visibility.
        let cfg = StackConfig::validation();
        let mut cluster = cfg.build_cluster();
        let mut tap = NullTap;
        let mut w0 = cfg.build_worker(0);
        let mut w1 = cfg.build_worker(1);
        w1.post_recv(&mut cluster, 4096, &mut tap);
        let t_start = w0.now();
        w0.post(
            &mut cluster,
            Opcode::Send,
            NodeId(1),
            payload,
            true,
            &mut tap,
        )
        .unwrap();
        let rx = w1.wait(&mut cluster, CqeKind::RecvComplete, &mut tap);
        let oneway = rx.visible_at.since(t_start);
        let network =
            cluster.network_8b_mean().as_ns_f64() + (payload.saturating_sub(8)) as f64 * 0.08;
        println!(
            "  {:>8}  {:>12}  {:>9.1}%",
            payload,
            oneway,
            network / oneway.as_ns_f64() * 100.0
        );
    }
    println!();
}

/// Injection overhead vs the unsignaled-completion period.
fn moderation_sweep() {
    println!("Completion-moderation sweep (OSU message rate, deterministic):");
    println!("  {:>4}  {:>14}  {:>10}", "c", "inj overhead", "rate Mm/s");
    for c in [1u32, 2, 4, 16, 64, 256] {
        let report = osu_message_rate(&OsuMrConfig {
            stack: StackConfig::validation(),
            windows: 20,
            signal_period: c,
            ring_depth: 512,
            ..Default::default()
        });
        println!(
            "  {c:>4}  {:>14}  {:>10.3}",
            report.inj_overhead, report.rate_mmps
        );
    }
    println!();
}

/// PIO+inline vs doorbell+DMA completion time for an 8-byte message.
fn path_comparison() {
    println!("Transport-path comparison (8-byte message, deterministic):");
    for (label, pio, inline) in [
        ("PIO + inline (the paper's path)", true, true),
        ("doorbell + descriptor DMA + inline", false, true),
        ("doorbell + descriptor DMA + payload DMA", false, false),
    ] {
        let cfg = StackConfig::validation();
        let mut cluster = cfg.build_cluster();
        let mut tap = NullTap;
        use breaking_band::nic::{PostDescriptor, QpId, WrId};
        let t0 = SimTime::from_ns(10);
        let desc = PostDescriptor {
            wr_id: WrId(0),
            qp: QpId(0),
            dst_qp: QpId(0),
            opcode: Opcode::RdmaWrite,
            dst: NodeId(1),
            payload: 8,
            inline,
            pio,
            signaled: true,
            tag: 0,
        };
        cluster.post(t0, NodeId(0), desc, &mut tap);
        cluster.run_until_idle(&mut tap);
        let cqe = cluster.pop_cqe(NodeId(0), QpId(0)).expect("completion");
        println!(
            "  {:<42} completion after {}",
            label,
            cqe.visible_at.since(t0)
        );
    }
}
