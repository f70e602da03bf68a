//@ path: crates/core/src/trace_fixture.rs
// Group fixture: the golden schema covers "done" but not "skipped".
pub enum SimEvent {
    Done { worker: u64 },
    Skipped { worker: u64 },
}

impl SimEvent {
    pub fn metric_fields(&self) -> &'static str {
        match self {
            SimEvent::Done { .. } => "done",
            SimEvent::Skipped { .. } => "skipped", //~ ERROR telemetry-vocab
        }
    }
}
