//! `autobal-monitor` — a live ring dashboard over the metrics JSONL
//! stream.
//!
//! ```text
//! autobal-monitor [--follow] [--interval MS] [--last N]
//!                 [--svg PATH] [--html PATH] FILE
//! ```
//!
//! Reads the integer-only sample stream a run records with
//! `record_metrics` (and `metrics_ring` for per-worker slots) and
//! renders, for the latest sample:
//!
//! * the ring itself — arc ownership with load-heat glyphs, `S` for
//!   workers carrying Sybils, `!` for quarantine-marked workers;
//! * per-worker load bars (heaviest first);
//! * message-rate and task-rate sparklines over the sample history.
//!
//! `--follow` re-reads the file at the given interval and redraws in
//! place, turning any running simulation that appends samples into a
//! live view. `--svg`/`--html` additionally write a ring-heat snapshot
//! (the SVG alone, or an HTML page embedding it plus the text panels).
//!
//! The monitor is a pure *reader*: it never influences a run, so its
//! wall-clock pacing lives outside the deterministic plane.
//!
//! A reader that closes stdout early (`| head`) ends the program with
//! exit status 141: all output goes through the workspace's one output
//! endpoint, [`autobal_telemetry::console`].

#[path = "../ringview.rs"]
mod ringview;

use autobal_metrics::names as metric_names;
use autobal_metrics::sample::{parse_jsonl, validate_samples};
use autobal_metrics::MetricsSample;
use autobal_telemetry::{console, errln, outln};
use autobal_viz::{render_load_bars, render_ring, sparkline, RingMark};
use ringview::{ring_heat_svg, ring_marks};
use std::path::PathBuf;

struct Opts {
    file: PathBuf,
    follow: bool,
    interval_ms: u64,
    /// Sparkline window: how many trailing samples to chart.
    last: usize,
    svg: Option<PathBuf>,
    html: Option<PathBuf>,
}

fn usage() -> ! {
    errln!(
        "usage: autobal-monitor [--follow] [--interval MS] [--last N] \
         [--svg PATH] [--html PATH] FILE\n\
         exit status 141 when stdout closes before all output is written"
    );
    std::process::exit(2);
}

fn parse_opts(argv: &[String]) -> Opts {
    let mut opts = Opts {
        file: PathBuf::new(),
        follow: false,
        interval_ms: 500,
        last: 60,
        svg: None,
        html: None,
    };
    let mut file = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--follow" => opts.follow = true,
            "--interval" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => opts.interval_ms = ms,
                None => usage(),
            },
            "--last" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.last = n,
                None => usage(),
            },
            "--svg" => match it.next() {
                Some(p) => opts.svg = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--html" => match it.next() {
                Some(p) => opts.html = Some(PathBuf::from(p)),
                None => usage(),
            },
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    match file {
        Some(f) => opts.file = f,
        None => usage(),
    }
    opts
}

fn load(path: &PathBuf) -> Result<Vec<MetricsSample>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let samples = parse_jsonl(&text)?;
    validate_samples(&samples)?;
    Ok(samples)
}

/// Per-sample deltas of a cumulative counter over the trailing window.
fn rate_series(samples: &[MetricsSample], name: &str, last: usize) -> Vec<u64> {
    let window = samples.len().saturating_sub(last + 1);
    let tail = samples.get(window..).unwrap_or(samples);
    tail.windows(2)
        .map(|w| {
            let prev = w[0].counter(name).unwrap_or(0);
            let cur = w[1].counter(name).unwrap_or(0);
            cur.saturating_sub(prev)
        })
        .collect()
}

fn delivered_rate(samples: &[MetricsSample], last: usize) -> Vec<u64> {
    rate_series(samples, metric_names::MSG_DELIVERED, last)
}

/// The full-text dashboard for the latest sample, whose ring marks
/// are `marks`.
fn render_dashboard(samples: &[MetricsSample], marks: &[RingMark], last: usize) -> String {
    let mut out = String::new();
    let Some(latest) = samples.last() else {
        out.push_str("(no samples yet)\n");
        return out;
    };
    let g = |name: &str| latest.gauge(name).unwrap_or(0);
    out.push_str(&format!(
        "t={}  workers={}  vnodes={}  remaining={}\n",
        latest.time,
        g(metric_names::WORKERS_ACTIVE),
        g(metric_names::VNODES),
        g(metric_names::TASKS_REMAINING),
    ));
    out.push_str(&format!(
        "gini={:.3}  imbalance={:.2}x  p50={}  p90={}  p99={}  max={}\n\n",
        g(metric_names::GINI_PPM) as f64 / 1e6,
        g(metric_names::IMBALANCE_PPM) as f64 / 1e6,
        g(metric_names::LOAD_P50),
        g(metric_names::LOAD_P90),
        g(metric_names::LOAD_P99),
        g(metric_names::LOAD_MAX),
    ));
    if marks.is_empty() {
        out.push_str("(no ring slots; record with metrics_ring to see the ring)\n");
    } else {
        out.push_str(&render_ring("ring", marks, 48));
        out.push('\n');
        let mut by_load = marks.to_vec();
        by_load.sort_by(|a, b| b.load.cmp(&a.load).then(a.label.cmp(&b.label)));
        by_load.truncate(12);
        out.push_str(&render_load_bars("heaviest workers", &by_load, 32));
        out.push('\n');
    }
    let tasks = rate_series(samples, metric_names::TASKS_DONE, last);
    let msgs = delivered_rate(samples, last);
    if !tasks.is_empty() {
        out.push_str(&format!("tasks/sample {}\n", sparkline(&tasks)));
    }
    if !msgs.is_empty() {
        out.push_str(&format!("msgs/sample  {}\n", sparkline(&msgs)));
    }
    out
}

/// An HTML page embedding the SVG snapshot plus the text panels.
fn render_snapshot_html(samples: &[MetricsSample], marks: &[RingMark], last: usize) -> String {
    let svg = ring_heat_svg(samples.last(), marks);
    let text = render_dashboard(samples, marks, last)
        .replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;");
    format!(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>autobal-monitor</title></head>\n<body>\n{svg}\n\
         <pre style=\"font-family: monospace\">\n{text}</pre>\n</body></html>\n"
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_opts(&argv);
    loop {
        let samples = match load(&opts.file) {
            Ok(s) => s,
            Err(e) => {
                // In follow mode the file may not exist yet; keep waiting.
                if !opts.follow {
                    errln!("autobal-monitor: {e}");
                    std::process::exit(2);
                }
                Vec::new()
            }
        };
        let marks = ring_marks(samples.last());
        let dashboard = render_dashboard(&samples, &marks, opts.last);
        if opts.follow {
            // Clear and home, then redraw in place.
            console::out("\x1b[2J\x1b[H");
        }
        outln!(
            "autobal-monitor: {} ({} samples)",
            opts.file.display(),
            samples.len()
        );
        console::out(&dashboard);
        if let Some(path) = &opts.svg {
            if let Err(e) = std::fs::write(path, ring_heat_svg(samples.last(), &marks)) {
                errln!("autobal-monitor: write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        if let Some(path) = &opts.html {
            let html = render_snapshot_html(&samples, &marks, opts.last);
            if let Err(e) = std::fs::write(path, html) {
                errln!("autobal-monitor: write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        if !opts.follow {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_metrics::sample::RingSlot;

    fn sample(time: u64, done: u64, delivered: u64, ring: Vec<RingSlot>) -> MetricsSample {
        MetricsSample {
            time,
            counters: vec![
                (metric_names::TASKS_DONE.to_string(), done),
                (metric_names::MSG_DELIVERED.to_string(), delivered),
            ],
            gauges: vec![
                (metric_names::WORKERS_ACTIVE.to_string(), ring.len() as u64),
                (metric_names::GINI_PPM.to_string(), 125_000),
            ],
            hists: Vec::new(),
            ring,
        }
    }

    fn slot(worker: u64, load: u64, sybils: u64, quarantined: u64) -> RingSlot {
        RingSlot {
            worker,
            pos: autobal_id::Id::from(worker * 1_000_000 + 1).to_hex(),
            load,
            sybils,
            quarantined,
        }
    }

    #[test]
    fn dashboard_renders_ring_and_rates() {
        let samples = vec![
            sample(0, 0, 0, vec![slot(0, 9, 0, 0), slot(1, 2, 2, 1)]),
            sample(5, 40, 12, vec![slot(0, 5, 0, 0), slot(1, 4, 2, 1)]),
        ];
        let text = render_dashboard(&samples, &ring_marks(samples.last()), 60);
        assert!(text.contains("t=5"), "{text}");
        assert!(text.contains("gini=0.125"), "{text}");
        assert!(text.contains('S'), "sybil marker: {text}");
        assert!(text.contains('!'), "quarantine marker: {text}");
        assert!(text.contains("tasks/sample"), "{text}");
        assert!(text.contains("msgs/sample"), "{text}");
    }

    #[test]
    fn dashboard_without_ring_slots_degrades() {
        let samples = vec![sample(0, 0, 0, Vec::new())];
        let text = render_dashboard(&samples, &ring_marks(samples.last()), 60);
        assert!(text.contains("metrics_ring"), "{text}");
        assert_eq!(render_dashboard(&[], &[], 60), "(no samples yet)\n");
    }

    #[test]
    fn rate_series_diffs_cumulative_counters() {
        let samples = vec![
            sample(0, 10, 1, Vec::new()),
            sample(1, 25, 3, Vec::new()),
            sample(2, 25, 9, Vec::new()),
        ];
        assert_eq!(
            rate_series(&samples, metric_names::TASKS_DONE, 60),
            vec![15, 0]
        );
        assert_eq!(delivered_rate(&samples, 60), vec![2, 6]);
        // Window trims to the trailing `last` deltas.
        assert_eq!(rate_series(&samples, metric_names::TASKS_DONE, 1), vec![0]);
    }

    #[test]
    fn snapshot_svg_and_html_embed_the_ring() {
        let samples = vec![sample(3, 7, 2, vec![slot(0, 7, 1, 0)])];
        let marks = ring_marks(samples.last());
        let svg = ring_heat_svg(samples.last(), &marks);
        assert!(svg.contains("ring @ t=3"));
        assert!(svg.contains("<path"), "ownership arc: {svg}");
        let html = render_snapshot_html(&samples, &marks, 60);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("t=3"));
    }
}
