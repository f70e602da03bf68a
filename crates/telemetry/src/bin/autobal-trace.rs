//! `autobal-trace` — inspect, validate, and diff flight-recorder
//! traces and metrics streams.
//!
//! ```text
//! autobal-trace summary FILE      print aggregate stats for a trace
//! autobal-trace validate FILE     schema-check a JSONL trace or
//!                                 metrics stream (told apart by the
//!                                 first record's leading key)
//! autobal-trace diff A B          first causal divergence of two
//!                                 same-seed traces (exit 1 if any)
//! autobal-trace timeseries FILE   metrics JSONL -> per-sample CSV
//! autobal-trace export FILE       metrics JSONL -> Prometheus text
//!                                 exposition (final sample)
//! ```
//!
//! A reader that closes stdout early (`| head`) ends the program with
//! exit status 141, the status a shell reports for a death by SIGPIPE.
//!
//! All user-facing text goes through the workspace's one output
//! endpoint, [`autobal_telemetry::console`].

use autobal_metrics::MetricsSample;
use autobal_telemetry::console::{errln, outln};
use autobal_telemetry::{
    check_framing, diff_traces, parse_jsonl, render_divergence, render_summary, summarize,
    validate_jsonl, Divergence, TraceRecord,
};

fn usage() -> ! {
    errln(
        "usage: autobal-trace <summary FILE | validate FILE | diff A B | timeseries FILE | export FILE>\n\
         exit status 141 when stdout closes before all output is written",
    );
    std::process::exit(2);
}

/// Reads a whole input file, exiting with status 2 when it cannot.
fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        errln(&format!("autobal-trace: cannot read {path}: {e}"));
        std::process::exit(2);
    })
}

/// Whether a JSONL stream holds metrics samples rather than trace
/// records: a sample's first key is `time` (or `counters`), a trace
/// record's is `seq`.
fn is_metrics_stream(text: &str) -> bool {
    let key = text
        .trim_start()
        .strip_prefix('{')
        .unwrap_or("")
        .trim_start();
    key.starts_with("\"time\"") || key.starts_with("\"counters\"")
}

/// Parses and structurally validates a metrics JSONL stream.
fn check_metrics(text: &str) -> Result<Vec<MetricsSample>, String> {
    let samples = autobal_metrics::sample::parse_jsonl(text)?;
    autobal_metrics::sample::validate_samples(&samples)?;
    Ok(samples)
}

/// Loads and structurally validates a metrics JSONL stream.
fn load_metrics(path: &str) -> Vec<MetricsSample> {
    check_metrics(&read(path)).unwrap_or_else(|e| {
        errln(&format!("autobal-trace: {path}: {e}"));
        std::process::exit(2);
    })
}

fn load(path: &str) -> Vec<TraceRecord> {
    parse_jsonl(&read(path)).unwrap_or_else(|e| {
        errln(&format!("autobal-trace: {path}: {e}"));
        std::process::exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str);
    match (cmd, argv.len()) {
        (Some("summary"), 2) => {
            let records = load(&argv[1]);
            outln(render_summary(&summarize(&records)).trim_end());
        }
        (Some("validate"), 2) => {
            let path = &argv[1];
            let text = read(path);
            let (kind, checked) = if is_metrics_stream(&text) {
                let n = check_metrics(&text).map(|s| format!("{} samples", s.len()));
                ("metrics stream", n)
            } else {
                let n = validate_jsonl(&text).and_then(|n| {
                    check_framing(&parse_jsonl(&text)?)?;
                    Ok(format!("{n} records"))
                });
                ("trace", n)
            };
            match checked {
                Ok(count) => outln(&format!("{path}: valid {kind}, {count}")),
                Err(e) => {
                    errln(&format!("{path}: INVALID {kind}: {e}"));
                    std::process::exit(1);
                }
            }
        }
        (Some("timeseries"), 2) => {
            let samples = load_metrics(&argv[1]);
            outln(autobal_metrics::sample::timeseries_csv(&samples).trim_end());
        }
        (Some("export"), 2) => {
            let samples = load_metrics(&argv[1]);
            let Some(last) = samples.last() else {
                errln(&format!("autobal-trace: {}: no samples to export", argv[1]));
                std::process::exit(1);
            };
            let expo = autobal_metrics::expo::render_exposition(last);
            if let Err(e) = autobal_metrics::expo::validate_exposition(&expo) {
                errln(&format!("autobal-trace: internal exposition invalid: {e}"));
                std::process::exit(1);
            }
            outln(expo.trim_end());
        }
        (Some("diff"), 3) => {
            let a = load(&argv[1]);
            let b = load(&argv[2]);
            let d = diff_traces(&a, &b);
            outln(render_divergence(&d).trim_end());
            if matches!(d, Divergence::Diverged(_)) {
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
