//! A minimal SVG emitter for the paper's two figure shapes: grouped bar
//! charts (workload histograms) and ring scatters (the Chord circle of
//! Figures 2–3). Pure string assembly — no dependencies.

use crate::ascii::RingMark;
use autobal_id::{embed, Id};

/// Series colors (hex), cycled.
const PALETTE: [&str; 4] = ["#4878cf", "#d65f5f", "#6acc65", "#b47cc7"];

/// A grouped bar chart with one group per bin and one bar per series.
#[derive(Debug, Clone)]
pub struct BarChart {
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    /// Bin labels along the x axis.
    pub bins: Vec<String>,
    /// `(series name, one value per bin)`.
    pub series: Vec<(String, Vec<f64>)>,
    pub width: u32,
    pub height: u32,
}

impl BarChart {
    pub fn new(title: impl Into<String>) -> BarChart {
        BarChart {
            title: title.into(),
            x_label: String::new(),
            y_label: String::new(),
            bins: Vec::new(),
            series: Vec::new(),
            width: 900,
            height: 420,
        }
    }

    /// Builds the chart directly from aligned `(lo, hi, count)` histogram
    /// rows.
    pub fn from_histogram_rows(
        title: impl Into<String>,
        series: &[(&str, &[crate::csv::HistRow])],
    ) -> BarChart {
        let mut chart = BarChart::new(title);
        let bins = series.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
        for i in 0..bins {
            let (lo, hi) = series
                .iter()
                .find_map(|(_, rows)| rows.get(i).map(|r| (r.0, r.1)))
                .unwrap_or((0, 0));
            chart.bins.push(format!("{lo}–{hi}"));
        }
        for (name, rows) in series {
            let vals: Vec<f64> = (0..bins)
                .map(|i| rows.get(i).map_or(0.0, |r| r.2 as f64))
                .collect();
            chart.series.push((name.to_string(), vals));
        }
        chart.x_label = "tasks per node".into();
        chart.y_label = "nodes".into();
        chart
    }

    /// Renders the chart to an SVG document.
    pub fn to_svg(&self) -> String {
        let (w, h) = (self.width as f64, self.height as f64);
        let margin = 50.0;
        let plot_w = w - 2.0 * margin;
        let plot_h = h - 2.0 * margin;
        let max_val = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1.0);

        let mut s = String::new();
        s.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
             viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\">\n"
        ));
        s.push_str(&format!(
            "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"15\">{}</text>\n",
            w / 2.0,
            escape(&self.title)
        ));
        // Axes.
        s.push_str(&format!(
            "<line x1=\"{margin}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#333\"/>\n",
            h - margin,
            w - margin,
            h - margin
        ));
        s.push_str(&format!(
            "<line x1=\"{margin}\" y1=\"{margin}\" x2=\"{margin}\" y2=\"{}\" stroke=\"#333\"/>\n",
            h - margin
        ));
        // Y-axis ticks (4).
        for t in 0..=4 {
            let frac = t as f64 / 4.0;
            let y = h - margin - frac * plot_h;
            let val = frac * max_val;
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" text-anchor=\"end\" font-size=\"10\">{:.0}</text>\n",
                margin - 5.0,
                y + 3.0,
                val
            ));
            s.push_str(&format!(
                "<line x1=\"{margin}\" y1=\"{y}\" x2=\"{}\" y2=\"{y}\" stroke=\"#ddd\"/>\n",
                w - margin
            ));
        }
        // Bars.
        let nbins = self.bins.len().max(1);
        let nseries = self.series.len().max(1);
        let group_w = plot_w / nbins as f64;
        let bar_w = (group_w * 0.8) / nseries as f64;
        for (si, (_, vals)) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            for (bi, &v) in vals.iter().enumerate() {
                let bh = (v / max_val) * plot_h;
                let x = margin + bi as f64 * group_w + group_w * 0.1 + si as f64 * bar_w;
                let y = h - margin - bh;
                s.push_str(&format!(
                    "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{bar_w:.1}\" height=\"{bh:.1}\" \
                     fill=\"{color}\"/>\n"
                ));
            }
        }
        // Bin labels (thinned to ~12 to stay readable).
        let stride = (nbins / 12).max(1);
        for (bi, label) in self.bins.iter().enumerate().step_by(stride) {
            let x = margin + (bi as f64 + 0.5) * group_w;
            s.push_str(&format!(
                "<text x=\"{x:.1}\" y=\"{}\" text-anchor=\"middle\" font-size=\"9\">{}</text>\n",
                h - margin + 14.0,
                escape(label)
            ));
        }
        // Legend.
        for (si, (name, _)) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            let y = margin + si as f64 * 16.0;
            s.push_str(&format!(
                "<rect x=\"{}\" y=\"{}\" width=\"12\" height=\"12\" fill=\"{color}\"/>\n\
                 <text x=\"{}\" y=\"{}\" font-size=\"11\">{}</text>\n",
                w - margin - 150.0,
                y,
                w - margin - 133.0,
                y + 10.0,
                escape(name)
            ));
        }
        // Axis labels.
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" font-size=\"12\">{}</text>\n",
            w / 2.0,
            h - 8.0,
            escape(&self.x_label)
        ));
        s.push_str(&format!(
            "<text x=\"14\" y=\"{}\" text-anchor=\"middle\" font-size=\"12\" \
             transform=\"rotate(-90 14 {})\">{}</text>\n",
            h / 2.0,
            h / 2.0,
            escape(&self.y_label)
        ));
        s.push_str("</svg>\n");
        s
    }
}

/// A multi-series line chart (e.g. work-per-tick over time).
#[derive(Debug, Clone)]
pub struct LineChart {
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    /// `(series name, y values)`; x is the index (tick).
    pub series: Vec<(String, Vec<f64>)>,
    pub width: u32,
    pub height: u32,
}

impl LineChart {
    pub fn new(title: impl Into<String>) -> LineChart {
        LineChart {
            title: title.into(),
            x_label: "tick".into(),
            y_label: String::new(),
            series: Vec::new(),
            width: 900,
            height: 420,
        }
    }

    /// Adds a named series.
    pub fn push_series(&mut self, name: impl Into<String>, ys: Vec<f64>) {
        self.series.push((name.into(), ys));
    }

    /// Renders to an SVG document.
    pub fn to_svg(&self) -> String {
        let (w, h) = (self.width as f64, self.height as f64);
        let margin = 50.0;
        let plot_w = w - 2.0 * margin;
        let plot_h = h - 2.0 * margin;
        let max_y = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let max_x = self
            .series
            .iter()
            .map(|(_, v)| v.len())
            .max()
            .unwrap_or(1)
            .max(2) as f64
            - 1.0;

        let mut s = String::new();
        s.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
             viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\">\n"
        ));
        s.push_str(&format!(
            "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"15\">{}</text>\n",
            w / 2.0,
            escape(&self.title)
        ));
        s.push_str(&format!(
            "<line x1=\"{margin}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#333\"/>\n\
             <line x1=\"{margin}\" y1=\"{margin}\" x2=\"{margin}\" y2=\"{}\" stroke=\"#333\"/>\n",
            h - margin,
            w - margin,
            h - margin,
            h - margin
        ));
        for t in 0..=4 {
            let frac = t as f64 / 4.0;
            let y = h - margin - frac * plot_h;
            s.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" text-anchor=\"end\" font-size=\"10\">{:.0}</text>\n\
                 <line x1=\"{margin}\" y1=\"{y}\" x2=\"{}\" y2=\"{y}\" stroke=\"#eee\"/>\n",
                margin - 5.0,
                y + 3.0,
                frac * max_y,
                w - margin
            ));
        }
        for (si, (name, ys)) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            let pts: Vec<String> = ys
                .iter()
                .enumerate()
                .map(|(i, &y)| {
                    let px = margin + (i as f64 / max_x) * plot_w;
                    let py = h - margin - (y / max_y) * plot_h;
                    format!("{px:.1},{py:.1}")
                })
                .collect();
            if !pts.is_empty() {
                s.push_str(&format!(
                    "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" \
                     points=\"{}\"/>\n",
                    pts.join(" ")
                ));
            }
            let ly = margin + si as f64 * 16.0;
            s.push_str(&format!(
                "<rect x=\"{}\" y=\"{ly}\" width=\"12\" height=\"12\" fill=\"{color}\"/>\n\
                 <text x=\"{}\" y=\"{}\" font-size=\"11\">{}</text>\n",
                w - margin - 150.0,
                w - margin - 133.0,
                ly + 10.0,
                escape(name)
            ));
        }
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" font-size=\"12\">{}</text>\n",
            w / 2.0,
            h - 8.0,
            escape(&self.x_label)
        ));
        s.push_str("</svg>\n");
        s
    }
}

/// The Chord ring visualization of Figures 2–3: nodes as circles, task
/// keys as small crosses, all on the unit circle.
#[derive(Debug, Clone)]
pub struct RingScatter {
    pub title: String,
    pub nodes: Vec<Id>,
    pub tasks: Vec<Id>,
    pub size: u32,
}

impl RingScatter {
    pub fn new(title: impl Into<String>, nodes: Vec<Id>, tasks: Vec<Id>) -> RingScatter {
        RingScatter {
            title: title.into(),
            nodes,
            tasks,
            size: 500,
        }
    }

    pub fn to_svg(&self) -> String {
        let s = self.size as f64;
        let (cx, cy, r) = (s / 2.0, s / 2.0 + 10.0, s / 2.0 - 40.0);
        let mut out = String::new();
        out.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{s}\" height=\"{}\" \
             viewBox=\"0 0 {s} {}\" font-family=\"sans-serif\">\n",
            s + 20.0,
            s + 20.0
        ));
        out.push_str(&format!(
            "<text x=\"{cx}\" y=\"18\" text-anchor=\"middle\" font-size=\"14\">{}</text>\n",
            escape(&self.title)
        ));
        out.push_str(&format!(
            "<circle cx=\"{cx}\" cy=\"{cy}\" r=\"{r}\" fill=\"none\" stroke=\"#999\"/>\n"
        ));
        for &t in &self.tasks {
            let p = embed::ring_xy_scaled(t, cx, cy, r);
            out.push_str(&format!(
                "<path d=\"M {x0} {y} L {x1} {y} M {x} {y0} L {x} {y1}\" stroke=\"#4878cf\" \
                 stroke-width=\"1\"/>\n",
                x0 = p.x - 3.0,
                x1 = p.x + 3.0,
                y0 = p.y - 3.0,
                y1 = p.y + 3.0,
                x = p.x,
                y = p.y
            ));
        }
        for &n in &self.nodes {
            let p = embed::ring_xy_scaled(n, cx, cy, r);
            out.push_str(&format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"6\" fill=\"#d65f5f\"/>\n",
                p.x, p.y
            ));
        }
        out.push_str("</svg>\n");
        out
    }
}

/// The live-monitor ring: each worker's *ownership arc* (from its
/// predecessor to itself, the key range it serves) stroked by load
/// heat, node dots sized by virtual-node count, and quarantine rings.
#[derive(Debug, Clone)]
pub struct RingHeat {
    pub title: String,
    pub slots: Vec<RingMark>,
    pub size: u32,
}

/// Linear blue→red heat color for `value / max`.
fn heat_color(value: u64, max: u64) -> String {
    let t = if max == 0 {
        0.0
    } else {
        (value as f64 / max as f64).clamp(0.0, 1.0)
    };
    let r = (40.0 + t * 180.0) as u32;
    let b = (200.0 - t * 160.0) as u32;
    format!("#{r:02x}50{b:02x}")
}

impl RingHeat {
    pub fn new(title: impl Into<String>, slots: Vec<RingMark>) -> RingHeat {
        RingHeat {
            title: title.into(),
            slots,
            size: 520,
        }
    }

    /// Renders the dashboard ring to an SVG document.
    pub fn to_svg(&self) -> String {
        let s = self.size as f64;
        let (cx, cy, r) = (s / 2.0, s / 2.0 + 10.0, s / 2.0 - 50.0);
        let xy = |frac: f64| -> (f64, f64) {
            let theta = 2.0 * std::f64::consts::PI * frac;
            (cx + r * theta.sin(), cy - r * theta.cos())
        };
        let mut slots = self.slots.clone();
        slots.sort_by(|a, b| a.frac.total_cmp(&b.frac));
        let max_load = slots.iter().map(|t| t.load).max().unwrap_or(0);

        let mut out = String::new();
        out.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{s}\" height=\"{}\" \
             viewBox=\"0 0 {s} {}\" font-family=\"sans-serif\">\n",
            s + 20.0,
            s + 20.0
        ));
        out.push_str(&format!(
            "<text x=\"{cx}\" y=\"18\" text-anchor=\"middle\" font-size=\"14\">{}</text>\n",
            escape(&self.title)
        ));
        out.push_str(&format!(
            "<circle cx=\"{cx}\" cy=\"{cy}\" r=\"{r}\" fill=\"none\" stroke=\"#ddd\"/>\n"
        ));
        // Ownership arcs: worker i serves the arc from its predecessor
        // (wrapping) to itself, drawn clockwise and colored by load.
        let n = slots.len();
        for (i, slot) in slots.iter().enumerate() {
            let pred = if n < 2 {
                // A single worker owns the whole ring; approximate the
                // full circle with an arc that starts just after itself.
                slot.frac + 1e-4
            } else {
                slots[(i + n - 1) % n].frac
            };
            let span = (slot.frac - pred).rem_euclid(1.0);
            let (x0, y0) = xy(pred);
            let (x1, y1) = xy(slot.frac);
            let large = if span > 0.5 { 1 } else { 0 };
            out.push_str(&format!(
                "<path d=\"M {x0:.1} {y0:.1} A {r:.1} {r:.1} 0 {large} 1 {x1:.1} {y1:.1}\" \
                 fill=\"none\" stroke=\"{}\" stroke-width=\"7\"/>\n",
                heat_color(slot.load, max_load)
            ));
        }
        // Node dots, sybil ticks, quarantine rings.
        for slot in &slots {
            let (x, y) = xy(slot.frac);
            if slot.flagged {
                out.push_str(&format!(
                    "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"11\" fill=\"none\" \
                     stroke=\"#d62728\" stroke-width=\"2\" stroke-dasharray=\"3 2\"/>\n"
                ));
            }
            out.push_str(&format!(
                "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"5\" fill=\"#333\"/>\n"
            ));
            // One tick per Sybil, fanned outward from the node.
            for k in 1..slot.vnodes.min(9) {
                let off = slot.frac + k as f64 * 0.004;
                let theta = 2.0 * std::f64::consts::PI * off;
                let (ox, oy) = (theta.sin(), -theta.cos());
                out.push_str(&format!(
                    "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" \
                     stroke=\"#b47cc7\" stroke-width=\"2\"/>\n",
                    cx + (r + 8.0) * ox,
                    cy + (r + 8.0) * oy,
                    cx + (r + 16.0) * ox,
                    cy + (r + 16.0) * oy
                ));
            }
        }
        out.push_str(&format!(
            "<text x=\"{cx}\" y=\"{}\" text-anchor=\"middle\" font-size=\"11\" fill=\"#555\">\
             arc heat = load · purple ticks = sybils · dashed red = quarantined</text>\n",
            s + 12.0
        ));
        out.push_str("</svg>\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_svg_is_well_formed_enough() {
        let a = [(0u64, 10u64, 5u64), (10, 20, 2)];
        let b = [(0u64, 10u64, 1u64), (10, 20, 9)];
        let chart = BarChart::from_histogram_rows("demo", &[("none", &a), ("churn", &b)]);
        let svg = chart.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 4 + 2); // 4 bars + 2 legend chips
        assert!(svg.contains("none"));
        assert!(svg.contains("churn"));
    }

    #[test]
    fn bar_chart_handles_empty() {
        let chart = BarChart::new("empty");
        let svg = chart.to_svg();
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn titles_are_escaped() {
        let chart = BarChart::new("a < b & c");
        let svg = chart.to_svg();
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn line_chart_draws_polylines_and_legend() {
        let mut c = LineChart::new("work per tick");
        c.push_series("none", vec![10.0, 9.0, 8.0]);
        c.push_series("random", vec![10.0, 10.0]);
        let svg = c.to_svg();
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("random"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn line_chart_empty_series_is_safe() {
        let mut c = LineChart::new("empty");
        c.push_series("nothing", vec![]);
        let svg = c.to_svg();
        assert_eq!(svg.matches("<polyline").count(), 0);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn ring_heat_draws_arcs_markers_and_ticks() {
        let slots = vec![
            RingMark {
                label: 0,
                frac: 0.1,
                load: 30,
                vnodes: 1,
                flagged: false,
            },
            RingMark {
                label: 1,
                frac: 0.6,
                load: 5,
                vnodes: 3,
                flagged: true,
            },
        ];
        let svg = RingHeat::new("ring", slots).to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<path").count(), 2, "one ownership arc each");
        assert_eq!(
            svg.matches("stroke-dasharray").count(),
            1,
            "quarantine ring"
        );
        assert_eq!(svg.matches("<line").count(), 2, "two sybil ticks");
        // Heaviest load is full red, lightest near blue.
        assert!(svg.contains(&heat_color(30, 30)));
        assert!(svg.contains(&heat_color(5, 30)));
    }

    #[test]
    fn ring_heat_single_and_empty_are_safe() {
        let svg = RingHeat::new(
            "one",
            vec![RingMark {
                label: 0,
                frac: 0.0,
                load: 1,
                vnodes: 1,
                flagged: false,
            }],
        )
        .to_svg();
        assert!(svg.contains("</svg>"));
        let empty = RingHeat::new("none", Vec::new()).to_svg();
        assert!(empty.contains("</svg>"));
    }

    #[test]
    fn ring_scatter_draws_every_point() {
        let nodes: Vec<Id> = (1..=3u64).map(|v| Id::from(v * 1000)).collect();
        let tasks: Vec<Id> = (1..=5u64).map(|v| Id::from(v * 777)).collect();
        let svg = RingScatter::new("ring", nodes, tasks).to_svg();
        // 1 ring circle + 3 node circles.
        assert_eq!(svg.matches("<circle").count(), 4);
        assert_eq!(svg.matches("<path").count(), 5);
    }
}
