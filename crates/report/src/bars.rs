//! Percent-bar rendering for breakdown figures.

use bband_core::Breakdown;

/// Render a breakdown as a labelled percent bar plus a legend, e.g.
///
/// ```text
/// LLP_post phases (Fig. 4)  [total 175.42 ns]
///   |████████░░...|
///   MD setup         15.84%   27.78 ns
///   ...
/// ```
pub fn render_bar(b: &Breakdown) -> String {
    const WIDTH: usize = 60;
    const GLYPHS: [char; 6] = ['█', '▓', '▒', '░', '◆', '·'];
    let mut out = format!("{}  [total {}]\n  |", b.title, b.total());
    let pcts = b.percentages();
    let mut used = 0usize;
    for (i, (_, pct)) in pcts.iter().enumerate() {
        let mut cells = (pct / 100.0 * WIDTH as f64).round() as usize;
        if i == pcts.len() - 1 {
            cells = WIDTH.saturating_sub(used);
        }
        used += cells;
        for _ in 0..cells {
            out.push(GLYPHS[i % GLYPHS.len()]);
        }
    }
    out.push_str("|\n");
    let name_w = pcts.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (i, ((name, pct), (_, dur))) in pcts.iter().zip(b.items()).enumerate() {
        out.push_str(&format!(
            "  {} {:<name_w$}  {:>6.2}%  {}\n",
            GLYPHS[i % GLYPHS.len()],
            name,
            pct,
            dur,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bband_sim::SimDuration;

    fn sample() -> Breakdown {
        Breakdown::new("Sample")
            .with("a", SimDuration::from_ns(25))
            .with("b", SimDuration::from_ns(75))
    }

    #[test]
    fn bar_contains_all_labels_and_total() {
        let s = render_bar(&sample());
        assert!(s.contains("Sample"));
        assert!(s.contains("100.00 ns"));
        assert!(s.contains("25.00%"));
        assert!(s.contains("75.00%"));
    }

    #[test]
    fn bar_is_fixed_width() {
        let s = render_bar(&sample());
        let bar_line = s.lines().nth(1).unwrap();
        let inner: String = bar_line.trim().trim_matches('|').chars().collect();
        assert_eq!(inner.chars().count(), 60);
    }
}
