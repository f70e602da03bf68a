//@ path: crates/core/src/trace_fixture.rs
// Group fixture: a decoder in the enum's own file constructs every
// variant, yet only `Done` is emitted anywhere else — `Skipped` still
// has no emit site. The test-only construction does not count either.
pub enum SimEvent {
    Done { worker: u64 },
    Skipped { worker: u64 }, //~ ERROR telemetry-vocab
}

impl SimEvent {
    pub fn metric_fields(&self) -> &'static str {
        match self {
            SimEvent::Done { .. } => "done",
            SimEvent::Skipped { .. } => "skipped",
        }
    }

    pub fn from_decision(name: &str, worker: u64) -> Option<SimEvent> {
        match name {
            "done" => Some(SimEvent::Done { worker }),
            "skipped" => Some(SimEvent::Skipped { worker }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    fn skipped() -> super::SimEvent {
        super::SimEvent::Skipped { worker: 3 }
    }
}
