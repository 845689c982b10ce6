//! ASCII bar charts for figure rendering in a terminal.

use std::fmt::Write as _;

/// Render labeled horizontal bars, scaled so the longest bar spans
/// `width` characters. Negative values extend left of the axis.
///
/// ```
/// use ampsched_metrics::bars::hbar_chart;
/// let s = hbar_chart(&[("a".into(), 2.0), ("b".into(), -1.0)], 20, "%");
/// assert!(s.contains("a"));
/// assert!(s.contains("#"));
/// ```
pub fn hbar_chart(rows: &[(String, f64)], width: usize, unit: &str) -> String {
    assert!(width >= 4, "bar width too small to draw");
    if rows.is_empty() {
        return String::new();
    }
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let max_abs = rows
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let neg = rows.iter().any(|(_, v)| *v < 0.0);
    let neg_w = if neg { width / 3 } else { 0 };
    let pos_w = width - neg_w;

    let mut out = String::new();
    for (label, v) in rows {
        let _ = write!(out, "{label:<label_w$} ");
        if neg {
            let n = ((-v).max(0.0) / max_abs * neg_w as f64).round() as usize;
            let n = n.min(neg_w);
            let _ = write!(out, "{}{}", " ".repeat(neg_w - n), "#".repeat(n));
            out.push('|');
        }
        let p = (v.max(0.0) / max_abs * pos_w as f64).round() as usize;
        let _ = write!(out, "{}", "#".repeat(p.min(pos_w)));
        let _ = writeln!(out, " {v:+.1}{unit}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_width() {
        let s = hbar_chart(
            &[("big".into(), 10.0), ("small".into(), 1.0)],
            40,
            "%",
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        let hashes = |l: &str| l.chars().filter(|c| *c == '#').count();
        assert!(hashes(lines[0]) > 5 * hashes(lines[1]));
        assert!(hashes(lines[0]) <= 40);
    }

    #[test]
    fn negative_bars_extend_left() {
        let s = hbar_chart(&[("up".into(), 5.0), ("down".into(), -5.0)], 30, "");
        assert!(s.contains('|'), "axis drawn when negatives exist");
        let down = s.lines().nth(1).expect("two rows");
        let axis = down.find('|').expect("axis");
        assert!(down[..axis].contains('#'), "negative bar left of axis");
    }

    #[test]
    fn empty_rows_render_empty() {
        assert_eq!(hbar_chart(&[], 20, ""), "");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_width_panics() {
        hbar_chart(&[("x".into(), 1.0)], 2, "");
    }
}
