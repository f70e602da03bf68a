//! Aggregate views of one trace: totals for the CLI, per-span message
//! breakdowns as CSV for the `repro trace` artifacts.

use crate::record::{MessageStatus, TraceBody, TraceRecord};
use std::collections::BTreeMap;

/// Message-fate counters (one per [`MessageStatus`], plus retries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageCounts {
    pub delivered: u64,
    pub dropped: u64,
    pub timed_out: u64,
    pub unreachable: u64,
    pub retries: u64,
}

impl MessageCounts {
    fn add(&mut self, status: MessageStatus, retries: u64) {
        match status {
            MessageStatus::Delivered => self.delivered += 1,
            MessageStatus::Dropped => self.dropped += 1,
            MessageStatus::TimedOut => self.timed_out += 1,
            MessageStatus::Unreachable => self.unreachable += 1,
        }
        self.retries += retries;
    }

    pub fn total(&self) -> u64 {
        self.delivered + self.dropped + self.timed_out + self.unreachable
    }
}

/// Everything the `autobal-trace summary` subcommand reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    pub substrate: String,
    pub strategy: String,
    pub seed: u64,
    pub completed: bool,
    pub records: u64,
    pub spans: u64,
    pub decisions: u64,
    pub messages: MessageCounts,
    pub last_time: u64,
    /// Decision counts by decision name, sorted by name (BTreeMap, so
    /// rendering is deterministic).
    pub decisions_by_name: BTreeMap<String, u64>,
    /// Span counts by span kind (strategy layer), sorted by kind.
    pub spans_by_kind: BTreeMap<String, u64>,
    /// Decision counts by (span kind, decision name): which strategy
    /// layer produced each decision — this is where the Byzantine
    /// meta-counters (`lied`, `probe_agree`, `probe_conflict`,
    /// `quarantined`) break down per strategy instead of only as
    /// totals. Decisions outside any span (churn, crash plane) are
    /// attributed to the pseudo-kind `-`.
    pub decisions_by_strategy: BTreeMap<String, BTreeMap<String, u64>>,
}

/// Folds a record sequence into its [`Summary`].
pub fn summarize(records: &[TraceRecord]) -> Summary {
    let mut s = Summary::default();
    // Span id → kind, for attributing decisions to the strategy layer
    // whose check produced them.
    let mut span_kind: BTreeMap<u64, String> = BTreeMap::new();
    for rec in records {
        s.records += 1;
        s.last_time = s.last_time.max(rec.time);
        match &rec.body {
            TraceBody::RunStart {
                substrate,
                strategy,
                seed,
            } => {
                s.substrate = substrate.clone();
                s.strategy = strategy.clone();
                s.seed = *seed;
            }
            TraceBody::SpanOpen { kind, .. } => {
                s.spans += 1;
                *s.spans_by_kind.entry(kind.clone()).or_insert(0) += 1;
                span_kind.insert(rec.span, kind.clone());
            }
            TraceBody::Decision { name, .. } => {
                s.decisions += 1;
                *s.decisions_by_name.entry(name.clone()).or_insert(0) += 1;
                let kind = span_kind.get(&rec.span).map(String::as_str).unwrap_or("-");
                *s.decisions_by_strategy
                    .entry(kind.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_insert(0) += 1;
            }
            TraceBody::Message {
                status, retries, ..
            } => s.messages.add(*status, *retries),
            TraceBody::SpanClose { .. } => {}
            TraceBody::RunEnd { completed } => s.completed = *completed,
        }
    }
    s
}

/// Renders a summary as the stable text block the CLI prints.
pub fn render_summary(s: &Summary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace: substrate={} strategy={} seed={:#x} completed={}\n",
        s.substrate, s.strategy, s.seed, s.completed
    ));
    out.push_str(&format!(
        "records={} spans={} decisions={} last_time={}\n",
        s.records, s.spans, s.decisions, s.last_time
    ));
    out.push_str(&format!(
        "messages: total={} delivered={} dropped={} timed_out={} unreachable={} retries={}\n",
        s.messages.total(),
        s.messages.delivered,
        s.messages.dropped,
        s.messages.timed_out,
        s.messages.unreachable,
        s.messages.retries
    ));
    for (kind, n) in &s.spans_by_kind {
        out.push_str(&format!("  spans[{kind}] = {n}\n"));
    }
    for (name, n) in &s.decisions_by_name {
        out.push_str(&format!("  decisions[{name}] = {n}\n"));
    }
    for (kind, names) in &s.decisions_by_strategy {
        for (name, n) in names {
            out.push_str(&format!("  decisions[{kind}/{name}] = {n}\n"));
        }
    }
    out
}

/// Per-span message breakdown as CSV — one row per span, in span-id
/// order: which worker decided, under which layer, at what time, and
/// the fate of every message the decision caused.
pub fn span_breakdown_csv(records: &[TraceRecord]) -> String {
    struct Row {
        time: u64,
        kind: String,
        worker: u64,
        decisions: u64,
        counts: MessageCounts,
    }
    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    for rec in records {
        match &rec.body {
            TraceBody::SpanOpen { kind, worker } => {
                rows.insert(
                    rec.span,
                    Row {
                        time: rec.time,
                        kind: kind.clone(),
                        worker: *worker,
                        decisions: 0,
                        counts: MessageCounts::default(),
                    },
                );
            }
            TraceBody::Decision { .. } => {
                if let Some(row) = rows.get_mut(&rec.span) {
                    row.decisions += 1;
                }
            }
            TraceBody::Message {
                status, retries, ..
            } => {
                if let Some(row) = rows.get_mut(&rec.span) {
                    row.counts.add(*status, *retries);
                }
            }
            _ => {}
        }
    }
    let mut out = String::from(
        "span,time,kind,worker,decisions,delivered,dropped,timed_out,unreachable,retries\n",
    );
    for (span, row) in &rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            span,
            row.time,
            row.kind,
            row.worker,
            row.decisions,
            row.counts.delivered,
            row.counts.dropped,
            row.counts.timed_out,
            row.counts.unreachable,
            row.counts.retries
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Trace;

    fn sample() -> Trace {
        let mut t = Trace::new(true);
        t.run_start(0, "chord", "smart", 9);
        let a = t.open_span(5, "smart", 1);
        t.message(5, "load_query", MessageStatus::Delivered, 0);
        t.decision(5, "sybil_created", 1, "aa", 7);
        t.close_span(5, a);
        let b = t.open_span(10, "smart", 2);
        t.message(10, "load_query", MessageStatus::TimedOut, 2);
        t.decision(10, "neighbor_gap_split", 2, "bb", 0);
        t.close_span(10, b);
        t.run_end(11, true);
        t
    }

    #[test]
    fn summary_counts_everything_once() {
        let s = summarize(sample().records());
        assert_eq!(
            (s.substrate.as_str(), s.strategy.as_str(), s.seed),
            ("chord", "smart", 9)
        );
        assert!(s.completed);
        assert_eq!((s.spans, s.decisions), (2, 2));
        assert_eq!(s.messages.total(), 2);
        assert_eq!(s.messages.timed_out, 1);
        assert_eq!(s.messages.retries, 2);
        assert_eq!(s.last_time, 11);
        assert_eq!(s.spans_by_kind.get("smart"), Some(&2));
        assert_eq!(s.decisions_by_name.get("sybil_created"), Some(&1));
        let text = render_summary(&s);
        assert!(text.contains("substrate=chord"));
        assert!(text.contains("timed_out=1"));
    }

    #[test]
    fn decisions_break_down_per_strategy_layer() {
        // Two layers emitting the same meta-counter name, plus one
        // decision outside any span: the per-strategy table must keep
        // them apart while the flat table sums them.
        let mut t = Trace::new(true);
        t.run_start(0, "chord", "smart", 3);
        let a = t.open_span(5, "crosscheck", 1);
        t.decision(5, "lied", 1, "aa", 7);
        t.decision(5, "probe_conflict", 1, "aa", 7);
        t.close_span(5, a);
        let b = t.open_span(10, "smart", 2);
        t.decision(10, "lied", 2, "bb", 3);
        t.close_span(10, b);
        t.decision(11, "worker_left", 4, "", 0);
        t.run_end(12, true);
        let s = summarize(t.records());
        assert_eq!(s.decisions_by_name.get("lied"), Some(&2));
        assert_eq!(
            s.decisions_by_strategy
                .get("crosscheck")
                .and_then(|m| m.get("lied")),
            Some(&1)
        );
        assert_eq!(
            s.decisions_by_strategy
                .get("crosscheck")
                .and_then(|m| m.get("probe_conflict")),
            Some(&1)
        );
        assert_eq!(
            s.decisions_by_strategy
                .get("smart")
                .and_then(|m| m.get("lied")),
            Some(&1)
        );
        assert_eq!(
            s.decisions_by_strategy
                .get("-")
                .and_then(|m| m.get("worker_left")),
            Some(&1)
        );
        let text = render_summary(&s);
        assert!(text.contains("decisions[crosscheck/lied] = 1"));
        assert!(text.contains("decisions[smart/lied] = 1"));
        assert!(text.contains("decisions[-/worker_left] = 1"));
    }

    #[test]
    fn breakdown_has_one_row_per_span() {
        let csv = span_breakdown_csv(sample().records());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + two spans: {csv}");
        assert_eq!(lines[1], "1,5,smart,1,1,1,0,0,0,0");
        assert_eq!(lines[2], "2,10,smart,2,1,0,0,1,0,2");
    }
}
