//! Shared benchmark scaffolding.

use bband_fabric::{NetworkModel, NodeId};
use bband_llp::{LlpCosts, Worker};
use bband_memsys::RcToMemModel;
use bband_nic::{Cluster, NicConfig};
use bband_pcie::LinkModel;
use bband_profiling::profiler::{sample_timer_read, UCS_OVERHEAD_MEAN_NS};
use bband_sim::{CpuClock, Pcg64, SimDuration};

/// How the simulated system is configured for a benchmark run.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Master seed; every derived RNG forks from it. The default is the
    /// canonical 0x5EED; a driver re-seeds by setting this field.
    pub seed: u64,
    /// Jitter-free hardware and software (validation runs measure exactly
    /// the calibrated means).
    pub deterministic: bool,
    /// LLP cost model (defaults to the ThunderX2 calibration).
    pub llp: LlpCosts,
    /// Override the PCIe link model on every node (what-if hardware).
    pub link: Option<LinkModel>,
    /// Override the network model (what-if hardware).
    pub network: Option<NetworkModel>,
    /// Override the RC-to-memory model (what-if hardware).
    pub rc_to_mem: Option<RcToMemModel>,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            seed: 0x5EED,
            deterministic: false,
            llp: LlpCosts::default(),
            link: None,
            network: None,
            rc_to_mem: None,
        }
    }
}

impl StackConfig {
    /// Deterministic variant.
    pub fn validation() -> Self {
        StackConfig {
            deterministic: true,
            llp: LlpCosts::default().deterministic(),
            ..Default::default()
        }
    }

    /// Build the two-node cluster for this configuration.
    pub fn build_cluster(&self) -> Cluster {
        self.build_cluster_with(NicConfig::default())
    }

    /// Build the two-node cluster for this configuration on NICs
    /// configured as `nic`, with every what-if override applied.
    pub fn build_cluster_with(&self, nic: NicConfig) -> Cluster {
        let mut c = Cluster::new(2, nic, self.seed);
        if self.deterministic {
            c = c.deterministic();
        }
        if let Some(link) = &self.link {
            let l = if self.deterministic {
                link.clone().deterministic()
            } else {
                link.clone()
            };
            c.set_link_model(l);
        }
        if let Some(net) = &self.network {
            let n = if self.deterministic {
                net.clone().deterministic()
            } else {
                net.clone()
            };
            c.set_network(n);
        }
        if let Some(rc) = &self.rc_to_mem {
            c.set_rc_to_mem(rc.clone());
        }
        c
    }

    /// Build a UCT worker for `node`.
    pub fn build_worker(&self, node: u32) -> Worker {
        Worker::new(
            NodeId(node),
            self.llp.clone(),
            self.seed ^ (node as u64 + 1),
        )
    }
}

/// The benchmark's own timestamp/bookkeeping cost — the "Measurement
/// update" row of Table 1 (49.69 ns mean, σ 1.48): reading the timer and
/// updating the rate/latency accumulators after an operation.
#[derive(Debug)]
pub struct BenchClock {
    rng: Pcg64,
    deterministic: bool,
    /// Total measurement-update time charged (diagnostics).
    pub total_update: SimDuration,
    pub updates: u64,
}

impl BenchClock {
    /// Measurement-update model seeded from the run seed.
    pub fn new(seed: u64, deterministic: bool) -> Self {
        BenchClock {
            rng: Pcg64::new(seed ^ 0x7137),
            deterministic,
            total_update: SimDuration::ZERO,
            updates: 0,
        }
    }

    /// Charge one measurement update to `cpu` and return its cost.
    pub fn update(&mut self, cpu: &mut CpuClock) -> SimDuration {
        let d = if self.deterministic {
            SimDuration::from_ns_f64(UCS_OVERHEAD_MEAN_NS)
        } else {
            sample_timer_read(&mut self.rng)
        };
        cpu.advance(d);
        self.total_update += d;
        self.updates += 1;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_update_is_exact() {
        let mut b = BenchClock::new(1, true);
        let mut cpu = CpuClock::new();
        let d = b.update(&mut cpu);
        assert!((d.as_ns_f64() - UCS_OVERHEAD_MEAN_NS).abs() < 1e-9);
        assert_eq!(cpu.now().as_ps(), d.as_ps());
    }

    #[test]
    fn jittered_update_centers_on_calibration() {
        let mut b = BenchClock::new(2, false);
        let mut cpu = CpuClock::new();
        for _ in 0..1000 {
            b.update(&mut cpu);
        }
        let mean = b.total_update.as_ns_f64() / b.updates as f64;
        assert!((mean - UCS_OVERHEAD_MEAN_NS).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn validation_config_is_deterministic() {
        let cfg = StackConfig::validation();
        assert!(cfg.deterministic);
        let mut w = cfg.build_worker(0);
        let mut cl = cfg.build_cluster();
        let mut tap = bband_pcie::NullTap;
        let t0 = w.now();
        w.post(
            &mut cl,
            bband_nic::Opcode::RdmaWrite,
            NodeId(1),
            8,
            true,
            &mut tap,
        )
        .unwrap();
        assert!((w.now().since(t0).as_ns_f64() - 175.42).abs() < 0.001);
    }
}
