//! The one recorder every substrate writes through.
//!
//! A run keeps two records, the trace (`autobal-telemetry`) and the
//! metrics samples (`autobal-metrics`); the rest is derived from what
//! passes through here. The [`SimMessageStats`] tally is counted off
//! the emitted events, the event log is decoded back out of the trace
//! ([`crate::trace::event_log`]), and a run's time series is its
//! metrics samples. With both planes off, [`Recorder::emit`] costs one
//! `match` and never allocates.

use crate::metrics::SimMessageStats;
use crate::strategy::InviteOutcome;
use crate::trace::SimEvent;
use crate::worker::WorkerId;
use autobal_metrics::{names, MetricsHub, MetricsSample, RingSlot};
use autobal_telemetry::{MessageStatus, SpanId, Trace};

/// Trace names of the billed message kinds.
pub const LOAD_QUERY: &str = "load_query";
pub const INVITATION: &str = "invitation";
pub const JOIN: &str = "join";

/// The trace and metrics planes of one run and the tallies derived
/// from them.
#[derive(Debug, Default)]
pub struct Recorder {
    trace: Trace,
    hub: MetricsHub,
    /// Sampling cadence in ticks; `None` when metrics are off.
    every: Option<u64>,
    /// Whether samples carry a per-worker ring snapshot.
    ring: bool,
    tally: SimMessageStats,
    workers_crashed: u64,
}

/// What a finished run recorded.
#[derive(Debug)]
pub struct Records {
    pub trace: Trace,
    pub metrics: Vec<MetricsSample>,
    pub tally: SimMessageStats,
    pub workers_crashed: u64,
}

impl Recorder {
    /// Traces when `trace`; samples metrics when `metrics`, every
    /// `interval` ticks (default 1), with ring snapshots when `ring`.
    pub fn new(trace: bool, metrics: bool, ring: bool, interval: Option<u64>) -> Recorder {
        Recorder {
            trace: Trace::new(trace),
            hub: MetricsHub::new(metrics),
            every: metrics.then(|| interval.unwrap_or(1).max(1)),
            ring: metrics && ring,
            ..Recorder::default()
        }
    }

    /// Writes the trace header at time 0.
    pub fn start(&mut self, substrate: &str, strategy: &str, seed: u64) {
        self.trace.run_start(0, substrate, strategy, seed);
    }

    /// The only fan-out of a [`SimEvent`]: counts it into the tally,
    /// writes it to the trace as a `Decision` stamped with its tick,
    /// and bumps its metrics counter (plus the moved-task histogram
    /// for acquisitions).
    #[inline]
    pub fn emit(&mut self, event: SimEvent) {
        let t = &mut self.tally;
        match event {
            SimEvent::SybilCreated { .. } => t.sybils_created += 1,
            SimEvent::SybilsRetired { count, .. } => t.sybils_retired += u64::from(count),
            SimEvent::WorkerLeft { .. } => t.churn_leaves += 1,
            SimEvent::WorkerJoined { .. } => t.churn_joins += 1,
            SimEvent::WorkerCrashed { .. } => self.workers_crashed += 1,
            SimEvent::LoadQueried { .. } => t.load_queries += 1,
            SimEvent::InvitationSent { .. } => t.invitations_sent += 1,
            SimEvent::InvitationRefused { .. } => t.invitations_refused += 1,
            SimEvent::InvitationHonored { .. }
            | SimEvent::NeighborGapSplit { .. }
            | SimEvent::LoadLied { .. }
            | SimEvent::ProbeAgreed { .. }
            | SimEvent::ProbeConflict { .. }
            | SimEvent::Quarantined { .. } => {}
        }
        if self.trace.enabled() {
            let (name, worker, pos, value) = event.decision_fields();
            self.trace.decision(event.tick(), name, worker, &pos, value);
        }
        if self.hub.enabled() {
            let (name, value) = event.metric_fields();
            self.hub.inc(name);
            let acquisition = matches!(
                event,
                SimEvent::SybilCreated { .. }
                    | SimEvent::WorkerJoined { .. }
                    | SimEvent::InvitationHonored { .. }
            );
            if acquisition && value > 0 {
                self.hub.observe(names::TRANSFER_SIZE, value);
            }
        }
    }

    /// The only message bill: one message of `kind`, its fate, and the
    /// retries it cost, to the trace and the metrics plane.
    #[inline]
    pub fn bill(&mut self, tick: u64, kind: &'static str, status: MessageStatus, retries: u64) {
        self.trace.message(tick, kind, status, retries);
        self.hub.inc(match status {
            MessageStatus::Delivered => names::MSG_DELIVERED,
            MessageStatus::Dropped => names::MSG_DROPPED,
            MessageStatus::TimedOut => names::MSG_TIMED_OUT,
            MessageStatus::Unreachable => names::MSG_UNREACHABLE,
        });
        self.hub.observe(names::MSG_RETRIES, retries);
    }

    /// Records a delivered invitation round: `inviter`'s `invitation`
    /// message, billed delivered, and its `InvitationSent` event.
    #[inline]
    pub fn invitation_sent(&mut self, tick: u64, inviter: WorkerId) {
        self.bill(tick, INVITATION, MessageStatus::Delivered, 0);
        self.emit(SimEvent::InvitationSent {
            tick,
            worker: inviter,
        });
    }

    /// Settles a delivered invitation round from the helper whose
    /// Sybil joined and the tasks it acquired, if any: records
    /// `InvitationHonored` or `InvitationRefused` and returns the
    /// round's outcome.
    #[inline]
    pub fn invitation_settled(
        &mut self,
        tick: u64,
        inviter: WorkerId,
        helped: Option<(WorkerId, u64)>,
    ) -> InviteOutcome {
        match helped {
            Some((helper, acquired)) => {
                self.emit(SimEvent::InvitationHonored {
                    tick,
                    worker: inviter,
                    helper,
                    acquired,
                });
                InviteOutcome::Helped { acquired }
            }
            None => {
                self.emit(SimEvent::InvitationRefused {
                    tick,
                    worker: inviter,
                });
                InviteOutcome::Refused
            }
        }
    }

    /// Counts one tick's work phase, which consumed `consumed` tasks.
    #[inline]
    pub fn work(&mut self, consumed: u64) {
        self.hub.inc(names::TICKS);
        self.hub.add(names::TASKS_DONE, consumed);
    }

    /// The one sampling cadence: tick 0, every interval, and completion
    /// (`done`, asked only off-cadence); never with metrics off.
    #[inline]
    pub fn due(&self, tick: u64, done: impl FnOnce() -> bool) -> bool {
        self.every.is_some_and(|k| tick.is_multiple_of(k) || done())
    }

    /// Whether samples carry a per-worker ring snapshot.
    pub fn ring_enabled(&self) -> bool {
        self.ring
    }

    /// Opens a decision span (the root span when tracing is off).
    pub fn open_span(&mut self, tick: u64, kind: &str, worker: u64) -> SpanId {
        self.trace.open_span(tick, kind, worker)
    }

    /// Closes a span opened by [`open_span`](Self::open_span).
    pub fn close_span(&mut self, tick: u64, span: SpanId) {
        self.trace.close_span(tick, span);
    }

    /// The one sampling method of every substrate: sorts the active
    /// workers' `loads` once and writes the metrics sample stamped
    /// `time` from that sweep.
    pub fn sample(
        &mut self,
        time: u64,
        vnodes: usize,
        remaining: u64,
        loads: &mut [u64],
        ring: Vec<RingSlot>,
    ) {
        loads.sort_unstable();
        self.hub.set_gauge(names::VNODES, vnodes as u64);
        self.hub.set_gauge(names::TASKS_REMAINING, remaining);
        self.hub.sample_batch(time, loads, ring);
    }

    /// The strategy and churn counters so far.
    pub fn tally(&self) -> SimMessageStats {
        self.tally
    }

    /// Writes the trace footer and hands back the records.
    pub fn finish(mut self, tick: u64, completed: bool) -> Records {
        self.trace.run_end(tick, completed);
        Records {
            trace: self.trace,
            metrics: self.hub.into_samples(),
            tally: self.tally,
            workers_crashed: self.workers_crashed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_id::Id;
    use autobal_telemetry::TraceBody;

    #[test]
    fn emit_counts_the_tally_with_both_planes_off() {
        let mut rec = Recorder::new(false, false, false, None);
        rec.emit(SimEvent::SybilsRetired {
            tick: 1,
            worker: 0,
            count: 3,
        });
        rec.emit(SimEvent::WorkerCrashed {
            tick: 2,
            worker: 1,
            keys_lost: 0,
        });
        assert_eq!(rec.tally().sybils_retired, 3);
        assert!(!rec.due(0, || true), "metrics off never samples");
        let records = rec.finish(2, true);
        assert_eq!(records.workers_crashed, 1);
        assert!(records.trace.is_empty() && records.metrics.is_empty());
    }

    #[test]
    fn cadence_is_tick_zero_every_interval_and_completion() {
        let rec = Recorder::new(false, true, false, Some(3));
        let due: Vec<u64> = (0..8).filter(|&t| rec.due(t, || false)).collect();
        assert_eq!(due, vec![0, 3, 6]);
        assert!(rec.due(7, || true));
        assert!(Recorder::new(false, true, false, Some(0)).due(5, || false));
    }

    #[test]
    fn emit_and_bill_write_one_trace_record_each() {
        let mut rec = Recorder::new(true, false, false, None);
        rec.start("oracle", "random", 9);
        rec.bill(4, LOAD_QUERY, MessageStatus::Delivered, 0);
        rec.emit(SimEvent::LoadQueried {
            tick: 4,
            worker: 2,
            neighbor: Id::from(7u64),
            load: 11,
        });
        let records = rec.finish(4, true);
        assert_eq!(records.tally.load_queries, 1);
        let bodies: Vec<&TraceBody> = records.trace.records().iter().map(|r| &r.body).collect();
        assert!(matches!(bodies[1], TraceBody::Message { .. }));
        assert!(matches!(bodies[2], TraceBody::Decision { value: 11, .. }));
        assert_eq!(records.trace.records()[2].time, 4);
    }

    #[test]
    fn emit_and_bill_feed_counters_and_histograms() {
        let mut rec = Recorder::new(false, true, false, None);
        let pos = Id::from(7u64);
        rec.emit(SimEvent::SybilCreated {
            tick: 1,
            worker: 0,
            pos,
            acquired: 12,
        });
        rec.emit(SimEvent::WorkerLeft { tick: 1, worker: 1 });
        rec.emit(SimEvent::WorkerJoined {
            tick: 1,
            worker: 2,
            pos,
            acquired: 0,
        });
        rec.emit(SimEvent::InvitationHonored {
            tick: 1,
            worker: 3,
            helper: 0,
            acquired: 3,
        });
        rec.emit(SimEvent::LoadQueried {
            tick: 1,
            worker: 3,
            neighbor: pos,
            load: 40,
        });
        rec.bill(1, INVITATION, MessageStatus::Delivered, 0);
        rec.bill(1, JOIN, MessageStatus::TimedOut, 4);
        rec.work(50);
        rec.sample(1, 4, 9, &mut [], Vec::new());
        let records = rec.finish(1, false);
        let s = &records.metrics[0];
        for (name, n) in [
            (names::SYBIL_CREATED, 1),
            (names::WORKER_LEFT, 1),
            (names::WORKER_JOINED, 1),
            (names::INVITATION_HONORED, 1),
            (names::LOAD_QUERIED, 1),
            (names::MSG_DELIVERED, 1),
            (names::MSG_TIMED_OUT, 1),
            (names::TICKS, 1),
            (names::TASKS_DONE, 50),
        ] {
            assert_eq!(s.counter(name), Some(n), "{name}");
        }
        assert_eq!(s.gauge(names::VNODES), Some(4));
        assert_eq!(s.gauge(names::TASKS_REMAINING), Some(9));
        // Only acquisitions that moved tasks feed the transfer sizes.
        let transfers = s.hist(names::TRANSFER_SIZE).unwrap();
        assert_eq!((transfers.count, transfers.sum), (2, 15));
        let retries = s.hist(names::MSG_RETRIES).unwrap();
        assert_eq!((retries.count, retries.sum), (2, 4));
    }
}
