//@ path: crates/core/src/emit_fixture.rs
// The one real emit site of the group.
use crate::trace_fixture::SimEvent;

pub fn emit_done() -> SimEvent {
    SimEvent::Done { worker: 1 }
}
