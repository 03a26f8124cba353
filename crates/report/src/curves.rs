//! Curve-family rendering (Figure 17's what-if panels).

use bband_core::whatif::{Component, Point};

/// Render one panel of Figure 17 as a table: rows = overhead reductions,
/// columns = components.
pub fn render_curves(title: &str, curves: &[(Component, Vec<Point>)]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!("  {:<12}", "reduction"));
    for (comp, _) in curves {
        out.push_str(&format!("{:>15}", comp.label()));
    }
    out.push('\n');
    let n_points = curves.first().map(|(_, c)| c.len()).unwrap_or(0);
    for i in 0..n_points {
        let reduction = curves[0].1[i].reduction;
        out.push_str(&format!("  {:<12}", format!("{:.0}%", reduction * 100.0)));
        for (_, curve) in curves {
            out.push_str(&format!("{:>14.2}%", curve[i].speedup_pct));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_core::{Calibration, WhatIf};

    #[test]
    fn panel_renders_grid_rows() {
        let w = WhatIf::new(Calibration::default());
        let curves: Vec<_> = Component::FIG17D
            .iter()
            .map(|&c| (c, w.curve(c, true, &WhatIf::GRID)))
            .collect();
        let out = render_curves("Fig 17d", &curves);
        assert!(out.contains("Wire"));
        assert!(out.contains("Switch"));
        assert!(out.contains("10%"));
        assert!(out.contains("90%"));
        assert_eq!(out.lines().count(), 2 + 5);
    }
}
