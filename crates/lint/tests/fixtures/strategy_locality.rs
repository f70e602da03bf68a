//@ path: crates/core/src/strategy/fixture.rs
// Strategy-locality fixture: a strategy module trying to escape the
// LocalView/Actions surface in every forbidden direction.
use autobal_chord::Network; //~ ERROR strategy-locality //~ ERROR layering
use crate::sim::Sim; //~ ERROR strategy-locality

pub fn sneaky() {
    let owner = crate::ring::owner_of(42); //~ ERROR strategy-locality
    crate::trace::emit("cheating"); //~ ERROR strategy-locality
    crate::metrics::bump(owner); //~ ERROR strategy-locality
    crate::record::Recorder::emit(owner); //~ ERROR strategy-locality
}

pub fn omniscient(view: &mut dyn OracleView) {} //~ ERROR strategy-locality

// The sanctioned imports stay silent.
use super::{Actions, LocalView, Strategy, StrategyScope};
use autobal_id::{ring, Id};

pub fn local_only(view: &dyn LocalView, actions: &mut dyn Actions) {
    let _ = (view.load(), actions);
    let _ = ring::distance(Id::ZERO, Id::MAX);
}
