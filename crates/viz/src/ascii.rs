//! Terminal histograms, ring dashboards, and sparklines.

/// One worker on a ring dashboard, text ([`render_ring`]) or SVG
/// ([`RingHeat`](crate::RingHeat)). `frac` is the unit-circle position
/// (0 at 12 o'clock, advancing clockwise — the convention of
/// `autobal_id::embed`); the renderers know nothing about where the
/// numbers came from, so the crate stays metric-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct RingMark {
    /// Worker label, printed next to heavy markers.
    pub label: u64,
    /// Position around the ring in `[0, 1)`.
    pub frac: f64,
    pub load: u64,
    /// Virtual nodes (1 + Sybils); `> 1` renders as `S`, or as sybil
    /// tick marks in SVG.
    pub vnodes: u64,
    /// Quarantine marker (suspected liar); renders as `!`, or as a
    /// warning ring in SVG.
    pub flagged: bool,
}

/// Eight-level block sparkline (`▁▂▃▄▅▆▇█`), scaled to the series max.
/// An empty series renders as the empty string; an all-zero series as
/// a row of `▁`.
pub fn sparkline(values: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                BLOCKS[0]
            } else {
                let idx = ((v as u128 * (BLOCKS.len() as u128 - 1)).div_ceil(max as u128)) as usize;
                BLOCKS[idx.min(BLOCKS.len() - 1)]
            }
        })
        .collect()
}

/// Renders a ring of workers as a character-cell circle of the given
/// diameter (in columns; rows are halved to offset character aspect).
/// Marker precedence per worker: `!` (flagged) over `S` (vnodes > 1)
/// over a load-heat glyph (`.`, `o`, `O`, `@` by quartile of the max
/// load). The ring outline itself is drawn with `·`.
pub fn render_ring(title: &str, marks: &[RingMark], diameter: usize) -> String {
    let w = diameter.max(8);
    let h = w / 2 + 1;
    let mut grid = vec![vec![' '; w + 1]; h + 1];
    let (cx, cy) = (w as f64 / 2.0, h as f64 / 2.0);
    let (rx, ry) = (cx - 1.0, cy - 1.0);
    let cell = |frac: f64| -> (usize, usize) {
        let theta = 2.0 * std::f64::consts::PI * frac;
        // 0 at 12 o'clock, clockwise; y grows downward on screen.
        let x = cx + rx * theta.sin();
        let y = cy - ry * theta.cos();
        ((x.round() as usize).min(w), (y.round() as usize).min(h))
    };
    // Ring outline, sampled densely enough to stay connected.
    for i in 0..(w * 4) {
        let (x, y) = cell(i as f64 / (w * 4) as f64);
        if let Some(c) = grid.get_mut(y).and_then(|row| row.get_mut(x)) {
            *c = '·';
        }
    }
    let max_load = marks.iter().map(|m| m.load).max().unwrap_or(0).max(1);
    const HEAT: [char; 4] = ['.', 'o', 'O', '@'];
    for m in marks {
        let glyph = if m.flagged {
            '!'
        } else if m.vnodes > 1 {
            'S'
        } else {
            let q = ((m.load as u128 * HEAT.len() as u128) / (max_load as u128 + 1)) as usize;
            HEAT[q.min(HEAT.len() - 1)]
        };
        let (x, y) = cell(m.frac.rem_euclid(1.0));
        if let Some(c) = grid.get_mut(y).and_then(|row| row.get_mut(x)) {
            *c = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for row in &grid {
        let line: String = row.iter().collect();
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out.push_str("· ring   .oO@ load heat   S sybils   ! quarantined\n");
    out
}

/// Per-worker load bars: one row per mark, heaviest scale shared, with
/// Sybil counts and quarantine flags inline. Rows keep the input order.
pub fn render_load_bars(title: &str, marks: &[RingMark], width: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let max = marks.iter().map(|m| m.load).max().unwrap_or(0);
    if max == 0 || marks.is_empty() {
        out.push_str("(idle)\n");
        return out;
    }
    for m in marks {
        let bar_len = ((m.load as f64 / max as f64) * width as f64).round() as usize;
        let bar: String = "█".repeat(bar_len);
        let mut tag = String::new();
        if m.vnodes > 1 {
            tag.push_str(&format!(" S{}", m.vnodes - 1));
        }
        if m.flagged {
            tag.push_str(" !");
        }
        out.push_str(&format!(
            "{:>6} |{bar:<width$}| {}{tag}\n",
            format!("w{}", m.label),
            m.load,
        ));
    }
    out
}

/// Renders `(lo, hi, count)` histogram rows as a left-to-right bar chart.
/// `width` is the maximum bar width in characters.
///
/// ```
/// let rows = [(0u64, 10u64, 4u64), (10, 20, 8)];
/// let s = autobal_viz::render_histogram("demo", &rows, 20);
/// assert!(s.contains("demo"));
/// assert!(s.contains('█'));
/// ```
pub fn render_histogram(title: &str, rows: &[(u64, u64, u64)], width: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let max = rows.iter().map(|r| r.2).max().unwrap_or(0);
    if max == 0 {
        out.push_str("(empty)\n");
        return out;
    }
    let label_width = rows
        .iter()
        .map(|r| format!("{}-{}", r.0, r.1).len())
        .max()
        .unwrap_or(0);
    for &(lo, hi, count) in rows {
        let bar_len = ((count as f64 / max as f64) * width as f64).round() as usize;
        let bar: String = "█".repeat(bar_len);
        out.push_str(&format!(
            "{:>label_width$} |{bar:<width$}| {count}\n",
            format!("{lo}-{hi}"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(label: u64, frac: f64, load: u64, vnodes: u64, flagged: bool) -> RingMark {
        RingMark {
            label,
            frac,
            load,
            vnodes,
            flagged,
        }
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let s = sparkline(&[0, 4, 8]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert!(s.starts_with('▁'));
    }

    #[test]
    fn ring_places_markers_with_precedence() {
        let marks = [
            mark(0, 0.0, 10, 1, false),
            mark(1, 0.25, 3, 4, false),
            mark(2, 0.5, 1, 1, true),
        ];
        let s = render_ring("ring", &marks, 24);
        assert!(s.contains('·'), "outline missing: {s}");
        assert!(s.contains('S'), "sybil marker missing: {s}");
        assert!(s.contains('!'), "quarantine marker missing: {s}");
        assert!(s.contains('@'), "heavy-load glyph missing: {s}");
        assert!(s.starts_with("ring\n"));
    }

    #[test]
    fn load_bars_flag_sybils_and_quarantine() {
        let marks = [mark(3, 0.0, 8, 3, false), mark(7, 0.5, 2, 1, true)];
        let s = render_load_bars("loads", &marks, 10);
        assert!(s.contains("w3"));
        assert!(s.contains("S2"), "{s}");
        assert!(s.contains('!'), "{s}");
        let empty = render_load_bars("loads", &[], 10);
        assert!(empty.contains("(idle)"));
    }

    #[test]
    fn bars_scale_with_counts() {
        let s = render_histogram("t", &[(0, 5, 1), (5, 10, 10)], 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t");
        let ones = lines[1].matches('█').count();
        let tens = lines[2].matches('█').count();
        assert_eq!(tens, 10);
        assert!((1..=2).contains(&ones));
    }

    #[test]
    fn empty_histogram_renders_placeholder() {
        let s = render_histogram("t", &[(0, 5, 0)], 10);
        assert!(s.contains("(empty)"));
        let s2 = render_histogram("t", &[], 10);
        assert!(s2.contains("(empty)"));
    }
}
