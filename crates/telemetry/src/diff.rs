//! Same-seed trace diffing: find the first *causal* divergence between
//! two traces of the same `(config, seed)` pair run on different
//! substrates.
//!
//! Decisions — not raw records — are the comparison unit, because the
//! substrates legitimately differ in message traffic (the Chord sim
//! retries, the oracle cannot fail) while the *decisions* those
//! messages feed are supposed to agree. When the decision streams
//! split, the report attaches the non-delivered messages inside each
//! side's enclosing span: that is the cause a human needs ("the load
//! query timed out on substrate B, so the strategy fell back to the
//! gap estimate").

use crate::record::{MessageStatus, TraceBody, TraceRecord};

/// One side's view of a decision, with enough span context to explain
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionAt {
    /// Virtual time of the decision.
    pub time: u64,
    pub name: String,
    pub worker: u64,
    pub pos: String,
    pub value: u64,
    /// Kind of the enclosing span (strategy layer), if any.
    pub span_kind: String,
    /// Human-readable non-delivered / retried messages in the same
    /// span — the causal explanation.
    pub causes: Vec<String>,
}

impl DecisionAt {
    fn render(&self) -> String {
        let mut s = format!(
            "t={} worker={} {}({}, {})",
            self.time, self.worker, self.name, self.pos, self.value
        );
        if !self.span_kind.is_empty() {
            s.push_str(&format!(" in span[{}]", self.span_kind));
        }
        s
    }
}

/// Where two same-seed traces first part ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergencePoint {
    /// Index into the (lockstep) decision streams.
    pub index: usize,
    /// The decision each side took; `None` when that side's stream
    /// ended early.
    pub a: Option<DecisionAt>,
    pub b: Option<DecisionAt>,
}

/// Outcome of [`diff_traces`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The decision streams agree end to end.
    None { decisions: usize },
    /// The streams split at [`DivergencePoint::index`].
    Diverged(Box<DivergencePoint>),
}

/// Extracts the decision stream from a trace, annotating every
/// decision with its enclosing span kind and the span's non-delivered
/// or retried messages.
fn decisions(records: &[TraceRecord]) -> Vec<DecisionAt> {
    let mut out = Vec::new();
    for rec in records {
        if let TraceBody::Decision {
            name,
            worker,
            pos,
            value,
        } = &rec.body
        {
            let mut span_kind = String::new();
            let mut causes = Vec::new();
            if rec.span != crate::ROOT_SPAN {
                for other in records.iter().filter(|r| r.span == rec.span) {
                    match &other.body {
                        TraceBody::SpanOpen { kind, .. } => span_kind = kind.clone(),
                        TraceBody::Message {
                            kind,
                            status,
                            retries,
                        } if *status != MessageStatus::Delivered || *retries > 0 => {
                            causes.push(format!(
                                "{kind} {} after {retries} retr{} at t={}",
                                status.label(),
                                if *retries == 1 { "y" } else { "ies" },
                                other.time
                            ));
                        }
                        _ => {}
                    }
                }
            }
            out.push(DecisionAt {
                time: rec.time,
                name: name.clone(),
                worker: *worker,
                pos: pos.clone(),
                value: *value,
                span_kind,
                causes,
            });
        }
    }
    out
}

fn same_decision(a: &DecisionAt, b: &DecisionAt) -> bool {
    (a.time, &a.name, a.worker, &a.pos, a.value) == (b.time, &b.name, b.worker, &b.pos, b.value)
}

/// Lockstep-compares the decision streams of two traces.
pub fn diff_traces(a: &[TraceRecord], b: &[TraceRecord]) -> Divergence {
    let da = decisions(a);
    let db = decisions(b);
    let common = da.len().min(db.len());
    for i in 0..common {
        if !same_decision(&da[i], &db[i]) {
            return Divergence::Diverged(Box::new(DivergencePoint {
                index: i,
                a: Some(da[i].clone()),
                b: Some(db[i].clone()),
            }));
        }
    }
    if da.len() != db.len() {
        return Divergence::Diverged(Box::new(DivergencePoint {
            index: common,
            a: da.get(common).cloned(),
            b: db.get(common).cloned(),
        }));
    }
    Divergence::None {
        decisions: da.len(),
    }
}

/// Renders a divergence as the stable text block the CLI prints: the
/// first divergent decision with worker, virtual time, and cause.
pub fn render_divergence(d: &Divergence) -> String {
    match d {
        Divergence::None { decisions } => {
            format!("no divergence: {decisions} decisions agree on both substrates\n")
        }
        Divergence::Diverged(p) => {
            let mut out = format!("first divergence at decision #{}\n", p.index);
            for (label, side) in [("A", &p.a), ("B", &p.b)] {
                match side {
                    Some(d) => {
                        out.push_str(&format!("  {label}: {}\n", d.render()));
                        for cause in &d.causes {
                            out.push_str(&format!("     cause: {cause}\n"));
                        }
                    }
                    None => out.push_str(&format!("  {label}: (decision stream ended)\n")),
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Trace;

    /// An oracle-side span: the load query always succeeds, the worker
    /// splits at the probed target.
    fn oracle_side() -> Trace {
        let mut t = Trace::new(true);
        t.run_start(0, "oracle", "smart", 5);
        let s = t.open_span(40, "smart", 3);
        t.message(40, "load_query", MessageStatus::Delivered, 0);
        t.decision(40, "load_queried", 3, "aaaa", 17);
        t.decision(40, "sybil_created", 3, "aaaa", 8);
        t.close_span(40, s);
        t.run_end(41, true);
        t
    }

    /// The chord side of the same seed: the query times out, so the
    /// strategy falls back to the gap estimate.
    fn chord_side() -> Trace {
        let mut t = Trace::new(true);
        t.run_start(0, "chord", "smart", 5);
        let s = t.open_span(40, "smart", 3);
        t.message(40, "load_query", MessageStatus::TimedOut, 2);
        t.decision(40, "neighbor_gap_split", 3, "bbbb", 0);
        t.decision(40, "sybil_created", 3, "bbbb", 6);
        t.close_span(40, s);
        t.run_end(41, true);
        t
    }

    #[test]
    fn identical_traces_do_not_diverge() {
        let a = oracle_side();
        let d = diff_traces(a.records(), a.records());
        assert_eq!(d, Divergence::None { decisions: 2 });
        assert!(render_divergence(&d).contains("no divergence"));
    }

    #[test]
    fn divergence_reports_worker_time_and_cause() {
        let a = oracle_side();
        let b = chord_side();
        let d = diff_traces(a.records(), b.records());
        let p = match &d {
            Divergence::Diverged(p) => p,
            other => panic!("expected divergence, got {other:?}"),
        };
        assert_eq!(p.index, 0);
        let b_side = p.b.as_ref().expect("b decision present");
        assert_eq!(b_side.worker, 3);
        assert_eq!(b_side.time, 40);
        assert_eq!(b_side.name, "neighbor_gap_split");
        assert_eq!(b_side.causes.len(), 1);
        let report = render_divergence(&d);
        assert!(report.contains("worker=3"), "{report}");
        assert!(report.contains("t=40"), "{report}");
        assert!(
            report.contains("load_query timed-out after 2 retries"),
            "{report}"
        );
    }

    #[test]
    fn shorter_stream_diverges_at_its_end() {
        let a = oracle_side();
        let mut b = Trace::new(true);
        b.run_start(0, "chord", "smart", 5);
        let s = b.open_span(40, "smart", 3);
        b.message(40, "load_query", MessageStatus::Delivered, 0);
        b.decision(40, "load_queried", 3, "aaaa", 17);
        b.close_span(40, s);
        b.run_end(41, true);
        let d = diff_traces(a.records(), b.records());
        let p = match d {
            Divergence::Diverged(p) => p,
            other => panic!("expected divergence, got {other:?}"),
        };
        assert_eq!(p.index, 1);
        assert!(p.a.is_some() && p.b.is_none());
        let report = render_divergence(&Divergence::Diverged(p));
        assert!(report.contains("decision stream ended"), "{report}");
    }

    #[test]
    fn root_span_decisions_compare_without_span_context() {
        let mut a = Trace::new(true);
        a.run_start(0, "oracle", "churn", 1);
        a.decision(3, "worker_left", 7, "", 0);
        a.run_end(4, true);
        let d = diff_traces(a.records(), a.records());
        assert_eq!(d, Divergence::None { decisions: 1 });
    }
}
