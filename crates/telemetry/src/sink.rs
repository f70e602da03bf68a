//! The in-memory flight recorder every substrate emits into.

use crate::record::{MessageStatus, SpanId, TraceBody, TraceRecord, ROOT_SPAN};

/// The in-memory flight recorder.
///
/// Disabled (`Trace::new(false)`, also the `Default`), it is a single
/// `false` bool and three empty vectors that are never pushed to —
/// every recording method returns after one branch, so carrying a `Trace`
/// in a hot simulation struct costs nothing measurable.
///
/// Span attribution uses a stack: records emitted while a span is open
/// attach to the innermost one, everything else to [`ROOT_SPAN`].
///
/// Every recording method takes virtual time explicitly: the substrate
/// owns the clock (tick or event time), the recorder never reads one.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Trace {
    enabled: bool,
    #[serde(default)]
    next_span: u64,
    #[serde(default)]
    open: Vec<u64>,
    #[serde(default)]
    records: Vec<TraceRecord>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            next_span: 0,
            open: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Is anything being recorded? Hot paths gate argument
    /// construction (hex strings, labels) on this; every recording
    /// method is a no-op when it is false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The innermost open span, or the root.
    fn current_span(&self) -> SpanId {
        self.open.last().copied().unwrap_or(ROOT_SPAN)
    }

    fn push(&mut self, time: u64, span: SpanId, body: TraceBody) {
        let seq = self.records.len() as u64;
        self.records.push(TraceRecord {
            seq,
            time,
            span,
            body,
        });
    }

    /// Writes the trace header.
    #[inline]
    pub fn run_start(&mut self, time: u64, substrate: &str, strategy: &str, seed: u64) {
        if !self.enabled {
            return;
        }
        self.push(
            time,
            ROOT_SPAN,
            TraceBody::RunStart {
                substrate: substrate.to_string(),
                strategy: strategy.to_string(),
                seed,
            },
        );
    }

    /// Opens a decision span for `worker` under the strategy layer
    /// `kind`; returns [`ROOT_SPAN`] when disabled.
    #[inline]
    pub fn open_span(&mut self, time: u64, kind: &str, worker: u64) -> SpanId {
        if !self.enabled {
            return ROOT_SPAN;
        }
        self.next_span += 1;
        let span = self.next_span;
        self.push(
            time,
            span,
            TraceBody::SpanOpen {
                kind: kind.to_string(),
                worker,
            },
        );
        self.open.push(span);
        span
    }

    /// Closes `span`, recording how many records it captured.
    #[inline]
    pub fn close_span(&mut self, time: u64, span: SpanId) {
        if !self.enabled || span == ROOT_SPAN {
            return;
        }
        // Count what the span captured: everything attributed to it
        // since (and excluding) its SpanOpen. Spans are a handful of
        // records wide, so the backward scan is cheap.
        let mut inner = 0u64;
        for rec in self.records.iter().rev() {
            if rec.span != span {
                continue;
            }
            if matches!(rec.body, TraceBody::SpanOpen { .. }) {
                break;
            }
            inner += 1;
        }
        self.push(time, span, TraceBody::SpanClose { records: inner });
        if let Some(at) = self.open.iter().rposition(|s| *s == span) {
            self.open.remove(at);
        }
    }

    /// Records a decision inside the current span.
    #[inline]
    pub fn decision(&mut self, time: u64, name: &str, worker: u64, pos: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let span = self.current_span();
        self.push(
            time,
            span,
            TraceBody::Decision {
                name: name.to_string(),
                worker,
                pos: pos.to_string(),
                value,
            },
        );
    }

    /// Records a message outcome inside the current span.
    #[inline]
    pub fn message(&mut self, time: u64, kind: &str, status: MessageStatus, retries: u64) {
        if !self.enabled {
            return;
        }
        let span = self.current_span();
        self.push(
            time,
            span,
            TraceBody::Message {
                kind: kind.to_string(),
                status,
                retries,
            },
        );
    }

    /// Writes the trace footer.
    #[inline]
    pub fn run_end(&mut self, time: u64, completed: bool) {
        if !self.enabled {
            return;
        }
        self.push(time, ROOT_SPAN, TraceBody::RunEnd { completed });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing_and_returns_root() {
        let mut t = Trace::new(false);
        t.run_start(0, "oracle", "smart", 7);
        let span = t.open_span(1, "smart", 3);
        assert_eq!(span, ROOT_SPAN);
        t.decision(1, "sybil_created", 3, "ff", 10);
        t.message(1, "load_query", MessageStatus::Delivered, 0);
        t.close_span(1, span);
        t.run_end(2, true);
        assert!(t.is_empty());
        assert!(!t.enabled());
        assert_eq!(t, Trace::default());
    }

    #[test]
    fn records_attach_to_the_innermost_open_span() {
        let mut t = Trace::new(true);
        t.run_start(0, "oracle", "smart", 7);
        let outer = t.open_span(1, "churn", 2);
        t.decision(1, "worker_left", 2, "", 0);
        let inner = t.open_span(1, "smart", 3);
        t.message(1, "load_query", MessageStatus::TimedOut, 2);
        t.close_span(1, inner);
        t.decision(1, "sybil_created", 2, "ab", 4);
        t.close_span(1, outer);
        t.run_end(2, true);

        let spans: Vec<SpanId> = t.records().iter().map(|r| r.span).collect();
        // header, open(1), decision→1, open(2), message→2, close(2),
        // decision→1, close(1), footer
        assert_eq!(spans, vec![0, 1, 1, 2, 2, 2, 1, 1, 0]);
        // Each close counts only its own records (excluding nested
        // opens/closes attributed to other spans).
        let closes: Vec<u64> = t
            .records()
            .iter()
            .filter_map(|r| match r.body {
                TraceBody::SpanClose { records } => Some(records),
                _ => None,
            })
            .collect();
        assert_eq!(closes, vec![1, 2]);
    }

    #[test]
    fn seq_is_dense_and_increasing() {
        let mut t = Trace::new(true);
        t.run_start(0, "chord", "none", 1);
        let s = t.open_span(4, "none", 0);
        t.close_span(4, s);
        t.run_end(9, false);
        for (i, rec) in t.records().iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn sink_round_trips_through_serde() {
        let mut t = Trace::new(true);
        t.run_start(0, "oracle", "invitation", 3);
        let s = t.open_span(2, "invitation", 5);
        t.message(2, "invitation", MessageStatus::Delivered, 0);
        t.decision(2, "invitation_honored", 5, "w1", 12);
        t.close_span(2, s);
        t.run_end(3, true);
        let json = serde_json::to_string(&t).expect("serializes");
        let back: Trace = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, t);
    }
}
