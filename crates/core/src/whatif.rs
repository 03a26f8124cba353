//! §7: simulated optimizations ("if we optimize component X by Y%, what is
//! the corresponding reduction in injection overhead and latency?").
//!
//! The model components are not concurrent — their executions do not
//! overlap — so a Y% reduction of component X reduces the total by exactly
//! `X·Y`, and the speedup curves of Figure 17 are linear. (The paper notes
//! that evaluating the same reductions through a full distributed-system
//! simulator "results in exactly the same linear speedups"; the
//! [`WhatIf::simulate_injection_speedup`] cross-check reproduces that
//! observation against our discrete-event substrate.)
//!
//! Speedup here is the figure's y-axis: the percentage reduction of the
//! overall injection overhead / end-to-end latency.

use crate::calibration::Calibration;
use crate::injection::OverallInjectionModel;
use crate::latency::EndToEndLatencyModel;
use bband_llp::Phase;
use bband_microbench::{am_lat, put_bw, AmLatConfig, PutBwConfig, StackConfig};
use bband_sim::SimDuration;

/// The optimizable components of Figure 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// All HLP time (send path + progress for the relevant metric).
    Hlp,
    /// All LLP time.
    Llp,
    /// `LLP_post` alone.
    LlpPost,
    /// The PIO copy inside `LLP_post` (§7.1's Device-memory optimization).
    Pio,
    /// HLP send-progress per op.
    HlpTxProg,
    /// HLP send-path work (`MPI_Isend` layers).
    HlpPost,
    /// LLP send-progress per op (amortized `LLP_prog`).
    LlpTxProg,
    /// HLP receive-progress (callbacks + epilogue).
    HlpRxProg,
    /// `LLP_prog` on the latency path.
    LlpProg,
    /// The whole I/O subsystem: 2·PCIe + RC-to-MEM (§7.1's integrated NIC).
    IntegratedNic,
    /// Both PCIe traversals.
    Pcie,
    /// The RC's write to memory.
    RcToMem,
    /// The interconnect's physical wire.
    Wire,
    /// The switch.
    Switch,
}

impl Component {
    /// Components on Figure 17a (injection, CPU).
    pub const FIG17A: [Component; 7] = [
        Component::Hlp,
        Component::Llp,
        Component::LlpPost,
        Component::Pio,
        Component::HlpTxProg,
        Component::HlpPost,
        Component::LlpTxProg,
    ];

    /// Components on Figure 17b (latency, CPU).
    pub const FIG17B: [Component; 7] = [
        Component::Hlp,
        Component::Llp,
        Component::HlpRxProg,
        Component::LlpPost,
        Component::Pio,
        Component::HlpPost,
        Component::LlpProg,
    ];

    /// Components on Figure 17c (latency, I/O).
    pub const FIG17C: [Component; 3] = [
        Component::IntegratedNic,
        Component::Pcie,
        Component::RcToMem,
    ];

    /// Components on Figure 17d (latency, network).
    pub const FIG17D: [Component; 2] = [Component::Wire, Component::Switch];

    /// Display label matching the figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Component::Hlp => "HLP",
            Component::Llp => "LLP",
            Component::LlpPost => "LLP_post",
            Component::Pio => "PIO",
            Component::HlpTxProg => "HLP_tx_prog",
            Component::HlpPost => "HLP_post",
            Component::LlpTxProg => "LLP_tx_prog",
            Component::HlpRxProg => "HLP_rx_prog",
            Component::LlpProg => "LLP_prog",
            Component::IntegratedNic => "Integrated NIC",
            Component::Pcie => "PCIe",
            Component::RcToMem => "RC-to-MEM",
            Component::Wire => "Wire",
            Component::Switch => "Switch",
        }
    }

    /// Time this component contributes to the overall injection overhead
    /// (Equation 2), or `None` if it is not on the injection path.
    pub fn injection_time(self, c: &Calibration) -> Option<SimDuration> {
        Some(match self {
            Component::Hlp => c.hlp_post() + c.hlp_tx_prog(),
            Component::Llp => c.llp_post() + c.llp_tx_prog(),
            Component::LlpPost => c.llp_post(),
            Component::Pio => c.llp.phase_mean(Phase::PioCopy),
            Component::HlpTxProg => c.hlp_tx_prog(),
            Component::HlpPost => c.hlp_post(),
            Component::LlpTxProg => c.llp_tx_prog(),
            // I/O and network overlap the CPU pipeline (Figure 5) and do
            // not appear in Equation 2.
            _ => return None,
        })
    }

    /// Time this component contributes to the end-to-end latency, or
    /// `None` if it is not on the latency path.
    pub fn latency_time(self, c: &Calibration) -> Option<SimDuration> {
        Some(match self {
            Component::Hlp => c.hlp_post() + c.hlp_rx_prog(),
            Component::Llp => c.llp_post() + c.llp_prog(),
            Component::LlpPost => c.llp_post(),
            Component::Pio => c.llp.phase_mean(Phase::PioCopy),
            Component::HlpPost => c.hlp_post(),
            Component::HlpRxProg => c.hlp_rx_prog(),
            Component::LlpProg => c.llp_prog(),
            Component::IntegratedNic => c.pcie() * 2 + c.rc_to_mem_8b(),
            Component::Pcie => c.pcie() * 2,
            Component::RcToMem => c.rc_to_mem_8b(),
            Component::Wire => c.wire(),
            Component::Switch => c.switch(),
            // Send-progress terms are overlapped on the latency path.
            Component::HlpTxProg | Component::LlpTxProg => return None,
        })
    }
}

/// One point of a what-if curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Fractional overhead reduction of the component (0.1 = 10%).
    pub reduction: f64,
    /// Percent speedup of the overall metric.
    pub speedup_pct: f64,
}

/// A named §7 claim and its evaluation.
#[derive(Debug, Clone)]
pub struct Claim {
    pub name: &'static str,
    /// What the model computes.
    pub speedup_pct: f64,
    /// The paper's stated threshold/figure.
    pub paper_pct: f64,
    /// Whether our value supports the paper's qualitative claim.
    pub holds: bool,
}

/// The what-if engine.
#[derive(Debug, Clone)]
pub struct WhatIf {
    calib: Calibration,
}

impl WhatIf {
    /// Engine over a calibration.
    pub fn new(calib: Calibration) -> Self {
        WhatIf { calib }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// The paper's five-step reduction grid (10%…90%).
    pub const GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

    /// The shared per-point formula: `share·r / baseline · 100`.
    fn speedup_from(share_ns: f64, baseline_ns: f64, reduction: f64) -> f64 {
        share_ns * reduction / baseline_ns * 100.0
    }

    /// Injection speedup (percent) from reducing `component` by
    /// `reduction`; `None` if the component is off the injection path.
    pub fn injection_speedup(&self, component: Component, reduction: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&reduction));
        let share = component.injection_time(&self.calib)?;
        let baseline = OverallInjectionModel::from_calibration(&self.calib).total();
        Some(Self::speedup_from(
            share.as_ns_f64(),
            baseline.as_ns_f64(),
            reduction,
        ))
    }

    /// Latency speedup (percent) from reducing `component` by `reduction`.
    pub fn latency_speedup(&self, component: Component, reduction: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&reduction));
        let share = component.latency_time(&self.calib)?;
        let baseline = EndToEndLatencyModel::from_calibration(&self.calib).total();
        Some(Self::speedup_from(
            share.as_ns_f64(),
            baseline.as_ns_f64(),
            reduction,
        ))
    }

    /// One full curve for a figure panel: the component share and the
    /// model baseline are resolved once, and every grid point is the
    /// shared formula (the same f64 operand sequence as the per-point
    /// entry points, so a curve is bit-identical to calling them).
    pub fn curve(&self, component: Component, latency: bool, grid: &[f64]) -> Vec<Point> {
        let (share, baseline) = if latency {
            (
                component.latency_time(&self.calib),
                EndToEndLatencyModel::from_calibration(&self.calib).total(),
            )
        } else {
            (
                component.injection_time(&self.calib),
                OverallInjectionModel::from_calibration(&self.calib).total(),
            )
        };
        let share_ns = share.map(|s| s.as_ns_f64());
        let baseline_ns = baseline.as_ns_f64();
        grid.iter()
            .map(|&r| {
                assert!((0.0..=1.0).contains(&r));
                Point {
                    reduction: r,
                    speedup_pct: share_ns
                        .map(|s| Self::speedup_from(s, baseline_ns, r))
                        .unwrap_or(0.0),
                }
            })
            .collect()
    }

    /// All four panels of Figure 17 on the paper's grid.
    pub fn figure17(&self) -> [Vec<(Component, Vec<Point>)>; 4] {
        let panel = |comps: &[Component], latency: bool| {
            comps
                .iter()
                .map(|&c| (c, self.curve(c, latency, &Self::GRID)))
                .collect::<Vec<_>>()
        };
        [
            panel(&Component::FIG17A, false),
            panel(&Component::FIG17B, true),
            panel(&Component::FIG17C, true),
            panel(&Component::FIG17D, true),
        ]
    }

    /// The §7 headline claims.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        // "If we modestly project the overhead of PIO to reduce to 15 ns
        // (84% reduction), overall injection can improve by more than 25%
        // and end-to-end latency ... by more than 5%."
        let pio_inj = self.injection_speedup(Component::Pio, 0.84).unwrap();
        claims.push(Claim {
            name: "PIO -84% => injection speedup > 25%",
            speedup_pct: pio_inj,
            paper_pct: 25.0,
            holds: pio_inj > 25.0,
        });
        let pio_lat = self.latency_speedup(Component::Pio, 0.84).unwrap();
        claims.push(Claim {
            name: "PIO -84% => latency speedup > 5%",
            speedup_pct: pio_lat,
            paper_pct: 5.0,
            holds: pio_lat > 5.0,
        });
        // "a 20% reduction in overhead in the HLP can speedup injection by
        // up to 6.44% while that in the LLP can do so by up to 13.33%."
        let hlp20 = self.injection_speedup(Component::Hlp, 0.20).unwrap();
        claims.push(Claim {
            name: "HLP -20% => injection speedup ~6.44%",
            speedup_pct: hlp20,
            paper_pct: 6.44,
            holds: (hlp20 - 6.44).abs() < 0.25,
        });
        let llp20 = self.injection_speedup(Component::Llp, 0.20).unwrap();
        claims.push(Claim {
            name: "LLP -20% => injection speedup ~13.33%",
            speedup_pct: llp20,
            paper_pct: 13.33,
            holds: (llp20 - 13.33).abs() < 0.25,
        });
        // "software overheads would be reduced at most by 20%, the upper
        // bounds reflect a less than 5% speedup in the end-to-end latency"
        let hlp_lat = self.latency_speedup(Component::Hlp, 0.20).unwrap();
        let llp_lat = self.latency_speedup(Component::Llp, 0.20).unwrap();
        claims.push(Claim {
            name: "software -20% => latency speedup < 5%",
            speedup_pct: hlp_lat.max(llp_lat),
            paper_pct: 5.0,
            holds: hlp_lat < 5.0 && llp_lat < 5.0,
        });
        // "over a 15% improvement in overall latency even with a modest 50%
        // reduction in I/O time" (integrated NIC).
        let nic50 = self
            .latency_speedup(Component::IntegratedNic, 0.50)
            .unwrap();
        claims.push(Claim {
            name: "Integrated NIC -50% I/O => latency speedup > 15%",
            speedup_pct: nic50,
            paper_pct: 15.0,
            holds: nic50 > 15.0,
        });
        // "Only an optimistic reduction to 30 nanoseconds (72% overhead
        // reduction) would correspond to a substantial speedup (5.45%)".
        let sw72 = self.latency_speedup(Component::Switch, 0.72).unwrap();
        claims.push(Claim {
            name: "Switch -72% => latency speedup ~5.45% (substantial)",
            speedup_pct: sw72,
            paper_pct: 5.45,
            holds: sw72 > 5.0 && (sw72 - 5.45).abs() < 0.5,
        });
        claims
    }

    /// Simulation-backed hardware what-if: scale an I/O or network
    /// component in the actual discrete-event system, run `am_lat`, and
    /// report the observed latency speedup over the UCT-level baseline.
    /// Only [`Component::Pcie`], [`Component::RcToMem`],
    /// [`Component::IntegratedNic`], [`Component::Wire`] and
    /// [`Component::Switch`] are simulatable this way.
    pub fn simulate_latency_speedup(
        &self,
        component: Component,
        reduction: f64,
        iterations: u64,
    ) -> f64 {
        let run = |stack: StackConfig| {
            am_lat(&AmLatConfig {
                stack,
                iterations,
                warmup: 8,
                buffer_samples: false,
            })
            .observed
            .summary()
            .mean
        };
        let base_stack = StackConfig {
            seed: 13,
            deterministic: true,
            llp: {
                let mut l = self.calib.llp.clone();
                l = l.deterministic();
                l
            },
            ..Default::default()
        };
        let base = run(base_stack.clone());
        let mut opt = base_stack;
        let keep = 1.0 - reduction;
        match component {
            Component::Pcie => {
                let mut link = self.calib.link.clone();
                link.base = link.base.scale(keep);
                link.per_byte = link.per_byte.scale(keep);
                opt.link = Some(link);
            }
            Component::RcToMem => {
                let mut rc = self.calib.rc_to_mem.clone();
                rc.base = rc.base.scale(keep);
                rc.per_byte = rc.per_byte.scale(keep);
                opt.rc_to_mem = Some(rc);
            }
            Component::IntegratedNic => {
                let mut link = self.calib.link.clone();
                link.base = link.base.scale(keep);
                link.per_byte = link.per_byte.scale(keep);
                opt.link = Some(link);
                let mut rc = self.calib.rc_to_mem.clone();
                rc.base = rc.base.scale(keep);
                rc.per_byte = rc.per_byte.scale(keep);
                opt.rc_to_mem = Some(rc);
            }
            Component::Wire => {
                let mut net = self.calib.network.clone();
                net.wire.base = net.wire.base.scale(keep);
                net.wire.per_byte = net.wire.per_byte.scale(keep);
                opt.network = Some(net);
            }
            Component::Switch => {
                let mut net = self.calib.network.clone();
                net.switch.base = net.switch.base.scale(keep);
                opt.network = Some(net);
            }
            other => panic!("{other:?} is not a hardware component"),
        }
        let optimized = run(opt);
        (base - optimized) / base * 100.0
    }

    /// Simulation-backed cross-check: scale an `LLP_post` phase in the
    /// actual discrete-event system, run `put_bw`, and report the observed
    /// injection speedup. The paper notes a distributed-system simulator
    /// yields "exactly the same linear speedups" as the manual analysis —
    /// this method demonstrates it (for the LLP-level injection metric,
    /// Equation 1).
    pub fn simulate_injection_speedup(&self, phase: Phase, reduction: f64, messages: u64) -> f64 {
        let run = |llp: bband_llp::LlpCosts| {
            let cfg = PutBwConfig {
                stack: StackConfig {
                    seed: 7,
                    deterministic: true,
                    llp,
                    ..Default::default()
                },
                messages,
                warmup: 1_024,
                buffer_samples: false,
                ..Default::default()
            };
            put_bw(&cfg).observed.summary().mean
        };
        let base = run(self.calib.llp.clone());
        let mut scaled = self.calib.llp.clone();
        scaled.scale_phase(phase, 1.0 - reduction);
        let opt = run(scaled);
        (base - opt) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> WhatIf {
        WhatIf::new(Calibration::default())
    }

    #[test]
    fn curves_are_linear_through_origin() {
        let w = engine();
        for comp in Component::FIG17B {
            let s10 = w.latency_speedup(comp, 0.10).unwrap();
            let s90 = w.latency_speedup(comp, 0.90).unwrap();
            assert!((s90 - 9.0 * s10).abs() < 1e-9, "{comp:?} not linear");
            assert!((w.latency_speedup(comp, 0.0).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn fig17a_llp_tops_out_near_60_percent() {
        // The paper's Figure 17a y-axis reaches 60%: LLP at 90% reduction.
        let w = engine();
        let llp90 = w.injection_speedup(Component::Llp, 0.90).unwrap();
        assert!((llp90 - 59.9).abs() < 0.3, "LLP@90% = {llp90}");
    }

    #[test]
    fn all_paper_claims_hold() {
        for claim in engine().claims() {
            assert!(
                claim.holds,
                "{}: model says {:.2}% (paper: {:.2}%)",
                claim.name, claim.speedup_pct, claim.paper_pct
            );
        }
    }

    #[test]
    fn network_components_do_not_affect_injection() {
        let w = engine();
        assert!(w.injection_speedup(Component::Wire, 0.5).is_none());
        assert!(w.injection_speedup(Component::Switch, 0.5).is_none());
        assert!(w.injection_speedup(Component::IntegratedNic, 0.5).is_none());
    }

    #[test]
    fn tx_progress_not_on_latency_path() {
        let w = engine();
        assert!(w.latency_speedup(Component::HlpTxProg, 0.5).is_none());
        assert!(w.latency_speedup(Component::LlpTxProg, 0.5).is_none());
    }

    #[test]
    fn figure17_panels_have_expected_shapes() {
        let panels = engine().figure17();
        assert_eq!(panels[0].len(), 7);
        assert_eq!(panels[1].len(), 7);
        assert_eq!(panels[2].len(), 3);
        assert_eq!(panels[3].len(), 2);
        for (comp, curve) in &panels[2] {
            assert_eq!(curve.len(), 5, "{comp:?} grid");
            // Monotonically increasing speedups.
            for w in curve.windows(2) {
                assert!(w[1].speedup_pct >= w[0].speedup_pct);
            }
        }
    }

    #[test]
    fn curves_match_the_point_formulas_bit_exactly() {
        let w = engine();
        for (panel, latency) in w.figure17().iter().zip([false, true, true, true]) {
            for (comp, curve) in panel {
                for p in curve {
                    let point = if latency {
                        w.latency_speedup(*comp, p.reduction)
                    } else {
                        w.injection_speedup(*comp, p.reduction)
                    };
                    assert_eq!(Some(p.speedup_pct), point, "{comp:?} latency={latency}");
                }
            }
        }
    }

    #[test]
    fn component_labels_are_unique() {
        use std::collections::HashSet;
        let all = [
            Component::Hlp,
            Component::Llp,
            Component::LlpPost,
            Component::Pio,
            Component::HlpTxProg,
            Component::HlpPost,
            Component::LlpTxProg,
            Component::HlpRxProg,
            Component::LlpProg,
            Component::IntegratedNic,
            Component::Pcie,
            Component::RcToMem,
            Component::Wire,
            Component::Switch,
        ];
        let labels: HashSet<&str> = all.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn hardware_simulation_agrees_with_llp_latency_model() {
        // Scale hardware components in the real substrate and compare the
        // observed am_lat speedup with the analytical prediction over the
        // *UCT-level* baseline (1135.8 + measurement update ≈ 1160.6).
        let w = engine();
        let uct_baseline = 1135.8 + 49.69 / 2.0;
        for (comp, share) in [
            (Component::Switch, 108.0),
            (Component::RcToMem, 240.96),
            (Component::Wire, 274.81),
        ] {
            let r = 0.5;
            let predicted = share * r / uct_baseline * 100.0;
            let simulated = w.simulate_latency_speedup(comp, r, 60);
            assert!(
                (simulated - predicted).abs() < 0.5,
                "{comp:?}: simulated {simulated:.2}% vs predicted {predicted:.2}%"
            );
        }
    }

    #[test]
    fn simulation_agrees_with_model_for_pio() {
        // The paper: a simulator gives "exactly the same linear speedups".
        // Our metric here is Equation 1's injection overhead (295.73 ns
        // baseline), so the model prediction is PIO·r / 295.73.
        let w = engine();
        let r = 0.84;
        let predicted = 94.25 * r / 295.73 * 100.0;
        let simulated = w.simulate_injection_speedup(Phase::PioCopy, r, 3_000);
        assert!(
            (simulated - predicted).abs() < 1.0,
            "simulated {simulated:.2}% vs predicted {predicted:.2}%"
        );
    }
}
