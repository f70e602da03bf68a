//@ path: crates/core/src/trace_fixture.rs
// Telemetry-vocabulary fixture: event variants nobody emits, and a
// vocabulary with no golden fixture to pin its wire names. A
// construction in the enum's own file is not an emit site.
pub enum SimEvent { //~ ERROR telemetry-vocab
    Emitted { worker: u64 }, //~ ERROR telemetry-vocab
    Ghost { worker: u64 }, //~ ERROR telemetry-vocab
}

impl SimEvent {
    pub fn metric_fields(&self) -> &'static str {
        match self {
            SimEvent::Emitted { .. } => "emitted",
            SimEvent::Ghost { .. } => "ghost",
        }
    }
}

pub fn emit() -> SimEvent {
    SimEvent::Emitted { worker: 0 }
}
