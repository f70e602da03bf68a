//! The load-balancing event vocabulary — every action a run takes, as
//! one [`SimEvent`].
//!
//! The paper's analysis is aggregate (runtime factors, histograms); the
//! events support the per-decision questions those aggregates hide:
//! *which* nodes created Sybils, how much work each acquisition moved,
//! how often invitations bounced. Substrates emit them through
//! [`crate::record::Recorder::emit`], which writes each one to the
//! trace as a `Decision`; [`event_log`] decodes them back out, so the
//! trace is the event log (record it with `record_trace`).

use crate::worker::WorkerId;
use autobal_id::Id;
use autobal_telemetry::{Trace, TraceBody};

/// One load-balancing event.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SimEvent {
    /// A worker planted a Sybil and acquired `acquired` tasks.
    SybilCreated {
        tick: u64,
        worker: WorkerId,
        pos: Id,
        acquired: u64,
    },
    /// A worker's idle Sybils quit the ring.
    SybilsRetired {
        tick: u64,
        worker: WorkerId,
        count: u32,
    },
    /// A worker left via churn; its tasks moved to successors.
    WorkerLeft { tick: u64, worker: WorkerId },
    /// A worker crash-failed (fault plane); `keys_lost` tasks had no
    /// live replica and are gone for good.
    WorkerCrashed {
        tick: u64,
        worker: WorkerId,
        keys_lost: u64,
    },
    /// A waiting worker joined at `pos`, acquiring `acquired` tasks.
    WorkerJoined {
        tick: u64,
        worker: WorkerId,
        pos: Id,
        acquired: u64,
    },
    /// An overloaded worker asked its predecessors for help.
    InvitationSent { tick: u64, worker: WorkerId },
    /// No predecessor could honor the invitation.
    InvitationRefused { tick: u64, worker: WorkerId },
    /// Predecessor `helper` honored `worker`'s invitation, taking over
    /// `acquired` tasks.
    InvitationHonored {
        tick: u64,
        worker: WorkerId,
        helper: WorkerId,
        acquired: u64,
    },
    /// A worker probed `neighbor` and learned it holds `load` tasks
    /// (smart-neighbor strategies).
    LoadQueried {
        tick: u64,
        worker: WorkerId,
        neighbor: Id,
        load: u64,
    },
    /// A neighbor-injection strategy chose to split the widest
    /// successor gap at `pos` (either directly or as the fallback
    /// after an unanswered load probe).
    NeighborGapSplit {
        tick: u64,
        worker: WorkerId,
        pos: Id,
    },
    /// Byzantine worker `worker` answered a load probe about vnode
    /// `about` with the distorted value `reported` (adversary plane).
    LoadLied {
        tick: u64,
        worker: WorkerId,
        about: Id,
        reported: u64,
    },
    /// A cross-checking probe round about `target` found every
    /// reporter within tolerance of the `estimate`.
    ProbeAgreed {
        tick: u64,
        worker: WorkerId,
        target: Id,
        estimate: u64,
    },
    /// A cross-checking probe round about `target` caught at least one
    /// reporter conflicting with the `estimate`.
    ProbeConflict {
        tick: u64,
        worker: WorkerId,
        target: Id,
        estimate: u64,
    },
    /// Reporter vnode `reporter` crossed the suspicion threshold
    /// (`suspicion` booked conflicts) and is quarantined by `worker`'s
    /// cross-checking defense.
    Quarantined {
        tick: u64,
        worker: WorkerId,
        reporter: Id,
        suspicion: u64,
    },
}

impl SimEvent {
    /// The tick the event occurred at.
    pub fn tick(&self) -> u64 {
        self.stamp().0
    }

    /// The worker that acted (or was acted upon).
    pub fn worker(&self) -> WorkerId {
        self.stamp().1
    }

    /// The `(tick, worker)` every event carries.
    fn stamp(&self) -> (u64, WorkerId) {
        match *self {
            SimEvent::SybilCreated { tick, worker, .. }
            | SimEvent::SybilsRetired { tick, worker, .. }
            | SimEvent::WorkerLeft { tick, worker }
            | SimEvent::WorkerCrashed { tick, worker, .. }
            | SimEvent::WorkerJoined { tick, worker, .. }
            | SimEvent::InvitationSent { tick, worker }
            | SimEvent::InvitationRefused { tick, worker }
            | SimEvent::InvitationHonored { tick, worker, .. }
            | SimEvent::LoadQueried { tick, worker, .. }
            | SimEvent::NeighborGapSplit { tick, worker, .. }
            | SimEvent::LoadLied { tick, worker, .. }
            | SimEvent::ProbeAgreed { tick, worker, .. }
            | SimEvent::ProbeConflict { tick, worker, .. }
            | SimEvent::Quarantined { tick, worker, .. } => (tick, worker),
        }
    }

    /// The `(decision name, magnitude)` pair of the event: the one
    /// table of decision names. Metrics counters are bumped by this name
    /// on the steady-state path, so it must not allocate.
    pub fn metric_fields(&self) -> (&'static str, u64) {
        match self {
            SimEvent::SybilCreated { acquired, .. } => ("sybil_created", *acquired),
            SimEvent::SybilsRetired { count, .. } => ("sybils_retired", u64::from(*count)),
            SimEvent::WorkerLeft { .. } => ("worker_left", 0),
            SimEvent::WorkerCrashed { keys_lost, .. } => ("worker_crashed", *keys_lost),
            SimEvent::WorkerJoined { acquired, .. } => ("worker_joined", *acquired),
            SimEvent::InvitationSent { .. } => ("invitation_sent", 0),
            SimEvent::InvitationRefused { .. } => ("invitation_refused", 0),
            SimEvent::InvitationHonored { acquired, .. } => ("invitation_honored", *acquired),
            SimEvent::LoadQueried { load, .. } => ("load_queried", *load),
            SimEvent::NeighborGapSplit { .. } => ("neighbor_gap_split", 0),
            SimEvent::LoadLied { reported, .. } => ("lied", *reported),
            SimEvent::ProbeAgreed { estimate, .. } => ("probe_agree", *estimate),
            SimEvent::ProbeConflict { estimate, .. } => ("probe_conflict", *estimate),
            SimEvent::Quarantined { suspicion, .. } => ("quarantined", *suspicion),
        }
    }

    /// Flattens the event into the telemetry decision tuple
    /// `(name, worker, pos, value)` — stable lowercase names, hex ring
    /// positions (`w<id>` for an invitation's helper, empty when the
    /// event carries none) — so every substrate emits identical
    /// `Decision` records for identical events.
    pub fn decision_fields(&self) -> (&'static str, u64, String, u64) {
        let (name, value) = self.metric_fields();
        let pos = match self {
            SimEvent::SybilCreated { pos, .. }
            | SimEvent::WorkerJoined { pos, .. }
            | SimEvent::NeighborGapSplit { pos, .. }
            | SimEvent::LoadQueried { neighbor: pos, .. }
            | SimEvent::LoadLied { about: pos, .. }
            | SimEvent::ProbeAgreed { target: pos, .. }
            | SimEvent::ProbeConflict { target: pos, .. }
            | SimEvent::Quarantined { reporter: pos, .. } => pos.to_hex(),
            SimEvent::InvitationHonored { helper, .. } => format!("w{helper}"),
            SimEvent::SybilsRetired { .. }
            | SimEvent::WorkerLeft { .. }
            | SimEvent::WorkerCrashed { .. }
            | SimEvent::InvitationSent { .. }
            | SimEvent::InvitationRefused { .. } => String::new(),
        };
        (name, self.worker() as u64, pos, value)
    }

    /// The exact inverse of [`decision_fields`](Self::decision_fields):
    /// the event a `Decision` record stamped `tick` encodes, or `None`
    /// when the name is unknown or the fields are not what that event
    /// would encode to.
    pub fn from_decision(
        tick: u64,
        name: &str,
        worker: u64,
        pos: &str,
        value: u64,
    ) -> Option<SimEvent> {
        let w = WorkerId::try_from(worker).ok()?;
        let id = || Id::from_hex(pos);
        let event = match name {
            "sybil_created" => SimEvent::SybilCreated {
                tick,
                worker: w,
                pos: id()?,
                acquired: value,
            },
            "sybils_retired" => SimEvent::SybilsRetired {
                tick,
                worker: w,
                count: u32::try_from(value).ok()?,
            },
            "worker_left" => SimEvent::WorkerLeft { tick, worker: w },
            "worker_crashed" => SimEvent::WorkerCrashed {
                tick,
                worker: w,
                keys_lost: value,
            },
            "worker_joined" => SimEvent::WorkerJoined {
                tick,
                worker: w,
                pos: id()?,
                acquired: value,
            },
            "invitation_sent" => SimEvent::InvitationSent { tick, worker: w },
            "invitation_refused" => SimEvent::InvitationRefused { tick, worker: w },
            "invitation_honored" => SimEvent::InvitationHonored {
                tick,
                worker: w,
                helper: pos.strip_prefix('w')?.parse().ok()?,
                acquired: value,
            },
            "load_queried" => SimEvent::LoadQueried {
                tick,
                worker: w,
                neighbor: id()?,
                load: value,
            },
            "neighbor_gap_split" => SimEvent::NeighborGapSplit {
                tick,
                worker: w,
                pos: id()?,
            },
            "lied" => SimEvent::LoadLied {
                tick,
                worker: w,
                about: id()?,
                reported: value,
            },
            "probe_agree" => SimEvent::ProbeAgreed {
                tick,
                worker: w,
                target: id()?,
                estimate: value,
            },
            "probe_conflict" => SimEvent::ProbeConflict {
                tick,
                worker: w,
                target: id()?,
                estimate: value,
            },
            "quarantined" => SimEvent::Quarantined {
                tick,
                worker: w,
                reporter: id()?,
                suspicion: value,
            },
            _ => return None,
        };
        // Re-encoding rejects what parsing alone would accept: a value
        // or position on an event that carries none, uppercase hex, a
        // helper written `w007`.
        let (n, wk, p, v) = event.decision_fields();
        ((n, wk, p.as_str(), v) == (name, worker, pos, value)).then_some(event)
    }
}

/// The event log of a run: its trace's `Decision` records, decoded in
/// order. Empty unless the trace was recorded.
pub fn event_log(trace: &Trace) -> Vec<SimEvent> {
    trace
        .records()
        .iter()
        .filter_map(|r| match &r.body {
            TraceBody::Decision {
                name,
                worker,
                pos,
                value,
            } => SimEvent::from_decision(r.time, name, *worker, pos, *value),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_variants_carry_tick_and_worker() {
        let events = [
            SimEvent::LoadQueried {
                tick: 4,
                worker: 2,
                neighbor: Id::from(9u64),
                load: 31,
            },
            SimEvent::InvitationHonored {
                tick: 5,
                worker: 2,
                helper: 7,
                acquired: 12,
            },
            SimEvent::NeighborGapSplit {
                tick: 6,
                worker: 2,
                pos: Id::from(77u64),
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.tick(), 4 + i as u64);
            assert_eq!(e.worker(), 2);
        }
        let (name, worker, pos, value) = events[0].decision_fields();
        assert_eq!(name, "load_queried");
        assert_eq!(worker, 2);
        assert_eq!(pos, Id::from(9u64).to_hex());
        assert_eq!(value, 31);
        assert_eq!(
            events[1].decision_fields(),
            ("invitation_honored", 2, "w7".to_string(), 12)
        );
        assert_eq!(events[2].decision_fields().0, "neighbor_gap_split");
    }

    #[test]
    fn adversary_vocabulary_encodes_stably() {
        let events = [
            SimEvent::LoadLied {
                tick: 7,
                worker: 3,
                about: Id::from(5u64),
                reported: 2,
            },
            SimEvent::ProbeAgreed {
                tick: 8,
                worker: 3,
                target: Id::from(5u64),
                estimate: 40,
            },
            SimEvent::ProbeConflict {
                tick: 9,
                worker: 3,
                target: Id::from(5u64),
                estimate: 40,
            },
            SimEvent::Quarantined {
                tick: 10,
                worker: 3,
                reporter: Id::from(5u64),
                suspicion: 3,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.tick(), 7 + i as u64);
            assert_eq!(e.worker(), 3);
        }
        let hex = Id::from(5u64).to_hex();
        assert_eq!(events[0].decision_fields(), ("lied", 3, hex.clone(), 2));
        assert_eq!(
            events[1].decision_fields(),
            ("probe_agree", 3, hex.clone(), 40)
        );
        assert_eq!(
            events[2].decision_fields(),
            ("probe_conflict", 3, hex.clone(), 40)
        );
        assert_eq!(events[3].decision_fields(), ("quarantined", 3, hex, 3));
    }

    /// One event of every variant, at boundary values.
    fn every_variant() -> Vec<SimEvent> {
        let top = Id::MAX;
        let big = usize::MAX;
        vec![
            SimEvent::SybilCreated {
                tick: u64::MAX,
                worker: big,
                pos: top,
                acquired: u64::MAX,
            },
            SimEvent::SybilsRetired {
                tick: 0,
                worker: 0,
                count: u32::MAX,
            },
            SimEvent::WorkerLeft {
                tick: u64::MAX,
                worker: big,
            },
            SimEvent::WorkerCrashed {
                tick: 3,
                worker: 1,
                keys_lost: u64::MAX,
            },
            SimEvent::WorkerJoined {
                tick: 4,
                worker: 2,
                pos: Id::ZERO,
                acquired: 0,
            },
            SimEvent::InvitationSent { tick: 5, worker: 3 },
            SimEvent::InvitationRefused {
                tick: 6,
                worker: big,
            },
            SimEvent::InvitationHonored {
                tick: 7,
                worker: 4,
                helper: big,
                acquired: u64::MAX,
            },
            SimEvent::LoadQueried {
                tick: 8,
                worker: 5,
                neighbor: top,
                load: u64::MAX,
            },
            SimEvent::NeighborGapSplit {
                tick: 9,
                worker: 6,
                pos: top,
            },
            SimEvent::LoadLied {
                tick: 10,
                worker: 7,
                about: top,
                reported: u64::MAX,
            },
            SimEvent::ProbeAgreed {
                tick: 11,
                worker: 8,
                target: top,
                estimate: 0,
            },
            SimEvent::ProbeConflict {
                tick: 12,
                worker: 9,
                target: Id::from(5u64),
                estimate: u64::MAX,
            },
            SimEvent::Quarantined {
                tick: u64::MAX,
                worker: big,
                reporter: top,
                suspicion: u64::MAX,
            },
        ]
    }

    #[test]
    fn from_decision_inverts_decision_fields() {
        let events = every_variant();
        let names: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.metric_fields().0).collect();
        assert_eq!(names.len(), 14, "one event per variant");
        for e in &events {
            let (name, worker, pos, value) = e.decision_fields();
            assert_eq!(
                SimEvent::from_decision(e.tick(), name, worker, &pos, value),
                Some(e.clone()),
                "{e:?}"
            );
        }
    }

    #[test]
    fn from_decision_rejects_what_no_event_encodes_to() {
        let hex = Id::from(5u64).to_hex();
        assert_eq!(
            SimEvent::from_decision(1, "sybil_spawned", 0, &hex, 1),
            None
        );
        assert_eq!(SimEvent::from_decision(1, "", 0, "", 0), None);
        // A field the event does not carry, or a non-canonical one.
        assert_eq!(SimEvent::from_decision(1, "worker_left", 0, "", 1), None);
        assert_eq!(SimEvent::from_decision(1, "worker_left", 0, &hex, 0), None);
        let max = Id::MAX.to_hex();
        assert!(SimEvent::from_decision(1, "load_queried", 0, &max, 1).is_some());
        assert_eq!(
            SimEvent::from_decision(1, "load_queried", 0, &max.to_uppercase(), 1),
            None
        );
        assert_eq!(
            SimEvent::from_decision(1, "invitation_honored", 0, "w007", 1),
            None
        );
        assert_eq!(
            SimEvent::from_decision(1, "sybils_retired", 0, "", u64::MAX),
            None
        );
        assert_eq!(SimEvent::from_decision(1, "load_queried", 0, "zz", 1), None);
    }

    #[test]
    fn event_log_decodes_the_decisions_of_a_trace() {
        use autobal_telemetry::TraceSink;
        let mut trace = Trace::new(true);
        trace.run_start(0, "oracle", "random", 1);
        trace.message(
            2,
            "load_query",
            autobal_telemetry::MessageStatus::Delivered,
            0,
        );
        let events = every_variant();
        for e in &events {
            let (name, worker, pos, value) = e.decision_fields();
            trace.decision(e.tick(), name, worker, &pos, value);
        }
        trace.run_end(9, true);
        assert_eq!(event_log(&trace), events);
        assert!(event_log(&Trace::new(false)).is_empty());
    }
}
