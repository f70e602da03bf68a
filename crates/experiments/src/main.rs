//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick | --full | --trials N] [--seed S] [--out DIR]
//!       [--trace PATH] [--baseline BENCH.json] [targets…]
//!
//! targets: table1 table2 fig1 fig2_3 fig4_6 fig7_9 fig10 fig11_12
//!          fig13_14 text_ri text_ni text_inv messages extensions
//!          worktick timeseries chord_hops chord_churn
//!          maintenance_cost async_latency resilience byzantine
//!          eventtime trace metrics
//!                                                        (default: all)
//!
//! The `perf` target (never part of the default set) runs the pinned
//! benchmark scenarios and writes `BENCH_10.json`; `--baseline PATH`
//! compares it against a committed baseline and fails on a >2x
//! throughput regression.
//! ```
//!
//! `--quick` (default) uses 5 trials per cell; `--full` uses the paper's
//! 100. Outputs land in `results/` as CSV + Markdown + SVG. `--trace`
//! arms the flight recorder in single-run experiments and dumps JSONL
//! traces under the given base path (a trace's `Decision` records are
//! the run's event log); the `trace` target produces the full telemetry
//! artifact set (JSONL dumps, span breakdowns, divergence diff,
//! histograms).

mod byzantine;
mod chordx;
mod common;
mod eventcmp;
mod figures;
mod metricsx;
mod perf;
mod resilience;
mod tables;
mod textual;
mod tracex;

use common::Args;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: autobal_meminstr::CountingAlloc = autobal_meminstr::CountingAlloc::new();

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repro [--quick|--full|--trials N] [--seed S] [--out DIR] \
                 [--trace PATH] [--baseline BENCH.json] [targets…]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "repro: trials={} seed={:#x} out={}",
        args.trials,
        args.seed,
        args.out.display()
    );
    // Wall-clock is the one intentionally nondeterministic output; it is
    // reported on stderr only so result artifacts stay byte-identical.
    // autobal-lint: allow(determinism, "wall-clock timing is reported on stderr only, never in results")
    let t0 = std::time::Instant::now();

    if args.wants("table1") {
        tables::table1(&args);
    }
    if args.wants("table2") {
        tables::table2(&args);
    }
    if args.wants("fig1") {
        figures::fig1(&args);
    }
    if args.wants("fig2_3") || args.wants("fig2") || args.wants("fig3") {
        figures::fig2_3(&args);
    }
    if args.wants("fig4_6") {
        figures::fig4_6(&args);
    }
    if args.wants("fig7_9") {
        figures::fig7_9(&args);
    }
    if args.wants("fig10") {
        figures::fig10(&args);
    }
    if args.wants("fig11_12") {
        figures::fig11_12(&args);
    }
    if args.wants("fig13_14") {
        figures::fig13_14(&args);
    }
    if args.wants("text_ri") {
        textual::text_ri(&args);
    }
    if args.wants("text_ni") {
        textual::text_ni(&args);
    }
    if args.wants("text_inv") {
        textual::text_inv(&args);
    }
    if args.wants("messages") {
        textual::messages(&args);
    }
    if args.wants("extensions") {
        textual::extensions(&args);
    }
    if args.wants("worktick") {
        textual::worktick(&args);
    }
    if args.wants("timeseries") {
        textual::timeseries(&args);
    }
    if args.wants("chord_hops") {
        chordx::chord_hops(&args);
    }
    if args.wants("chord_churn") {
        chordx::chord_churn(&args);
    }
    if args.wants("maintenance_cost") {
        chordx::maintenance_cost(&args);
    }
    if args.wants("async_latency") {
        chordx::async_latency(&args);
    }
    if args.wants("resilience") {
        resilience::resilience(&args);
    }
    if args.wants("byzantine") {
        byzantine::byzantine(&args);
    }
    if args.wants("eventtime") {
        eventcmp::eventtime(&args);
    }
    if args.wants("trace") {
        tracex::trace(&args);
    }
    if args.wants("metrics") {
        metricsx::metrics(&args);
    }
    // Opt-in only: wall-clock benchmarks are meaningless in a default
    // "regenerate everything" run and would slow it down.
    if args.targets.iter().any(|t| t == "perf") {
        perf::perf(&args);
    }

    eprintln!("done in {:?}", t0.elapsed());
}
