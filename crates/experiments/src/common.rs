//! Shared plumbing for the experiment drivers.

use autobal_core::{RunResult, SimConfig};
use autobal_metrics::{names, MetricsSample};
use autobal_stats::Histogram;
use autobal_telemetry::{to_jsonl, TraceRecord};
use autobal_workload::{trials::run_and_summarize, TrialStats, WorkloadCache};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Experiments to run (lowercase ids); empty = all.
    pub targets: Vec<String>,
    /// Trials per cell (paper: 100; quick default: 5).
    pub trials: u64,
    /// `--full`: run the paper-scale versions of every target (100
    /// trials per cell; the perf scaling family sweeps up to 1M
    /// workers instead of the reduced CI grid).
    pub full: bool,
    /// Output directory.
    pub out: PathBuf,
    /// Master seed.
    pub seed: u64,
    /// Base path for flight-recorder JSONL dumps (`--trace PATH`);
    /// `None` leaves tracing disabled and zero-cost. A recorded trace
    /// also carries the run's event log.
    pub trace: Option<PathBuf>,
    /// Committed benchmark baseline to compare against (`repro perf
    /// --baseline BENCH_10.json`); `None` skips the comparison.
    pub baseline: Option<PathBuf>,
    /// Workload memo table for the single-run figure drivers, which
    /// share the master seed and so reuse one generated workload.
    pub cache: Arc<WorkloadCache>,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            targets: Vec::new(),
            trials: 5,
            full: false,
            out: PathBuf::from("results"),
            seed: 0xA0B1_C2D3,
            trace: None,
            baseline: None,
            cache: Arc::new(WorkloadCache::new()),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => {
                    args.trials = 5;
                    args.full = false;
                }
                "--full" => {
                    args.trials = 100;
                    args.full = true;
                }
                "--trials" => {
                    args.trials = it
                        .next()
                        .ok_or("--trials needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --trials: {e}"))?;
                    if args.trials == 0 {
                        return Err("bad --trials: at least one trial is needed".into());
                    }
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--out" => {
                    args.out = PathBuf::from(it.next().ok_or("--out needs a value")?);
                }
                "--trace" => {
                    args.trace = Some(PathBuf::from(it.next().ok_or("--trace needs a path")?));
                }
                "--baseline" => {
                    args.baseline =
                        Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown flag {other}"));
                }
                target => args.targets.push(target.to_ascii_lowercase()),
            }
        }
        Ok(args)
    }

    /// Should this experiment id run?
    pub fn wants(&self, id: &str) -> bool {
        self.targets.is_empty() || self.targets.iter().any(|t| t == id || t == "all")
    }

    /// Runs one experiment cell (`self.trials` trials at `seed`). Each
    /// trial generates its own workload and drops it when it ends:
    /// every trial draws its own seed, so a memo table would keep every
    /// key set of the run alive for hits that almost never come.
    pub fn run_cell(&self, cfg: &SimConfig, seed: u64) -> TrialStats {
        run_and_summarize(cfg, self.trials, seed)
    }

    /// Applies the `--trace` instrumentation flag to a simulator
    /// config.
    pub fn instrument(&self, cfg: &mut SimConfig) {
        cfg.record_trace = cfg.record_trace || self.trace.is_some();
    }

    /// Where a tagged trace dump lands: `--trace out/t.jsonl` with tag
    /// `fig1` gives `out/t_fig1.jsonl`; an empty tag uses the base path.
    pub fn trace_path(&self, tag: &str) -> Option<PathBuf> {
        let base = self.trace.as_ref()?;
        if tag.is_empty() {
            return Some(base.clone());
        }
        let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        Some(base.with_file_name(format!("{stem}_{tag}.jsonl")))
    }

    /// Dumps a recorded trace as JSONL under the `--trace` base path;
    /// no-op when tracing is off or nothing was recorded.
    pub fn write_trace(&self, tag: &str, records: &[TraceRecord]) {
        let Some(path) = self.trace_path(tag) else {
            return;
        };
        if records.is_empty() {
            return;
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).expect("create trace dir");
            }
        }
        fs::write(&path, to_jsonl(records))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("  wrote {}", path.display());
    }
}

/// Writes a file under the output directory, creating parents.
pub fn write_out(dir: &Path, name: &str, contents: &str) {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
}

/// Builds fixed-edge histogram rows over worker loads so multiple
/// networks share bins. Bin width is derived from the larger of the two
/// max loads, aiming at ~26 bins like the paper's figures.
pub fn aligned_histograms(series: &[&[u64]]) -> Vec<Vec<(u64, u64, u64)>> {
    let max = series
        .iter()
        .flat_map(|s| s.iter().copied())
        .max()
        .unwrap_or(0);
    let width = (max / 25).max(1);
    let bins = (max / width + 1) as usize;
    series
        .iter()
        .map(|s| Histogram::build(s, 0, width, bins).rows())
        .collect()
}

/// Runs one simulation with snapshots, returning the result (helper for
/// the figure experiments, which need one run rather than a batch). The
/// run is instrumented per the `--trace` flag; a recorded trace is
/// dumped under `tag`.
pub fn run_with_snapshots(args: &Args, tag: &str, mut cfg: SimConfig, ticks: &[u64]) -> RunResult {
    cfg.snapshot_ticks = ticks.to_vec();
    args.instrument(&mut cfg);
    let res = args.cache.sim(cfg, args.seed).run();
    args.write_trace(tag, res.trace.records());
    res
}

/// One gauge across a run's metrics samples, in sample order (0 where
/// a sample lacks it).
pub fn gauge_series(samples: &[MetricsSample], name: &str) -> Vec<u64> {
    samples.iter().map(|m| m.gauge(name).unwrap_or(0)).collect()
}

/// The Gini coefficient at each metrics sample, `gini_ppm / 10⁶`.
pub fn gini_series(samples: &[MetricsSample]) -> Vec<f64> {
    gauge_series(samples, names::GINI_PPM)
        .into_iter()
        .map(|ppm| ppm as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.trials, 5);
        assert!(a.wants("table1"));
        assert!(a.wants("anything"));
    }

    #[test]
    fn parse_full_and_targets() {
        let a = Args::parse(&s(&["--full", "table2", "fig1"])).unwrap();
        assert_eq!(a.trials, 100);
        assert!(a.full);
        assert!(!Args::parse(&s(&["--quick"])).unwrap().full);
        assert!(a.wants("table2"));
        assert!(a.wants("fig1"));
        assert!(!a.wants("table1"));
    }

    #[test]
    fn parse_trials_and_seed() {
        let a = Args::parse(&s(&["--trials", "7", "--seed", "9"])).unwrap();
        assert_eq!(a.trials, 7);
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(Args::parse(&s(&["--bogus"])).is_err());
        assert!(Args::parse(&s(&["--trials"])).is_err());
        assert!(Args::parse(&s(&["--trace"])).is_err());
        assert!(Args::parse(&s(&["--baseline"])).is_err());
    }

    #[test]
    fn parse_rejects_zero_trials() {
        let err = Args::parse(&s(&["--trials", "0"])).unwrap_err();
        assert!(err.contains("at least one trial"), "{err}");
    }

    #[test]
    fn parse_baseline_path() {
        let a = Args::parse(&[]).unwrap();
        assert!(a.baseline.is_none());
        let a = Args::parse(&s(&["--baseline", "BENCH_10.json"])).unwrap();
        assert_eq!(a.baseline, Some(PathBuf::from("BENCH_10.json")));
    }

    #[test]
    fn parse_trace() {
        let a = Args::parse(&[]).unwrap();
        assert!(a.trace.is_none());
        assert!(a.trace_path("x").is_none());
        // The trace is the event log: there is no separate flag.
        assert!(Args::parse(&s(&["--events"])).is_err());

        let a = Args::parse(&s(&["--trace", "out/t.jsonl"])).unwrap();
        assert_eq!(a.trace, Some(PathBuf::from("out/t.jsonl")));
        assert_eq!(a.trace_path(""), Some(PathBuf::from("out/t.jsonl")));
        assert_eq!(
            a.trace_path("fig1"),
            Some(PathBuf::from("out/t_fig1.jsonl"))
        );
    }

    #[test]
    fn instrument_arms_recording_from_flags() {
        let a = Args::parse(&s(&["--trace", "t.jsonl"])).unwrap();
        let mut cfg = SimConfig::default();
        a.instrument(&mut cfg);
        assert!(cfg.record_trace);

        let off = Args::parse(&[]).unwrap();
        let mut cfg = SimConfig::default();
        off.instrument(&mut cfg);
        assert!(!cfg.record_trace);
    }

    #[test]
    fn aligned_histograms_share_edges() {
        let a = vec![0u64, 10, 20, 100];
        let b = vec![5u64, 50];
        let hs = aligned_histograms(&[&a, &b]);
        assert_eq!(hs[0].len(), hs[1].len());
        assert_eq!(hs[0][0].0, hs[1][0].0);
        let total_a: u64 = hs[0].iter().map(|r| r.2).sum();
        assert_eq!(total_a, 4);
    }
}
