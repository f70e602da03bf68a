//! Allocation regression test for the steady-state tick loop.
//!
//! The hot-path overhaul's core promise: once a simulation reaches
//! steady state (placement done, scratch buffers warmed), `Sim::step`
//! performs **zero** heap allocations. This binary installs the
//! counting allocator from `autobal-meminstr` process-wide and measures
//! a 1 000-tick window directly.
//!
//! Gated behind the `count-allocs` feature so the ordinary test run
//! keeps the system allocator untouched:
//!
//! ```text
//! cargo test --release --features count-allocs --test zero_alloc
//! ```
#![cfg(feature = "count-allocs")]

use autobal::meminstr::{allocation_delta, CountingAlloc};
use autobal::sim::{Sim, SimConfig, StrategyKind};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A workload big enough that 1 000 + warmup ticks cannot drain it, so
/// every measured tick exercises the full work loop.
fn steady_cfg() -> SimConfig {
    SimConfig {
        nodes: 200,
        tasks: 2_000_000,
        strategy: StrategyKind::None,
        churn_rate: 0.0,
        ..SimConfig::default()
    }
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let mut sim = Sim::new(steady_cfg(), 0xA0B1_C2D3);
    // Warmup: lets one-time lazy growth (work history headroom,
    // strategy scratch) happen outside the measured window.
    for _ in 0..32 {
        sim.step();
    }
    let (allocs, consumed) = allocation_delta(|| {
        let mut consumed = 0u64;
        for _ in 0..1_000 {
            consumed += sim.step();
        }
        consumed
    });
    assert!(consumed > 0, "window must have done real work");
    assert_eq!(
        allocs, 0,
        "steady-state tick loop allocated {allocs} times over 1k ticks"
    );
}

/// The metrics plane keeps the promise: with recording on, every tick
/// pays its counter bumps yet still allocates nothing. Only the
/// periodic sample (the load sweep and the sample dump) may allocate,
/// so the cadence is pushed past the measured window.
#[test]
fn metrics_recording_ticks_do_not_allocate() {
    let mut cfg = steady_cfg();
    cfg.record_metrics = true;
    cfg.metrics_interval = Some(1_000_000);
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    for _ in 0..32 {
        sim.step();
    }
    let (allocs, consumed) = allocation_delta(|| {
        let mut consumed = 0u64;
        for _ in 0..1_000 {
            consumed += sim.step();
        }
        consumed
    });
    assert!(consumed > 0, "window must have done real work");
    assert_eq!(
        allocs, 0,
        "metrics-instrumented tick loop allocated {allocs} times over 1k ticks"
    );
}

/// Rings that hold Sybils keep the promise too: the per-vnode plan
/// (the walk over each worker's slot handles and the per-slot plan
/// entries) reuses its buffer. Random injection spawns
/// and retires Sybils only at check ticks, so the measured windows are
/// the work-only ticks between two checks, once the first Sybils exist.
#[test]
fn sybil_ring_work_ticks_do_not_allocate() {
    let cfg = SimConfig {
        tasks: 400_000,
        strategy: StrategyKind::RandomInjection,
        ..steady_cfg()
    };
    let (nodes, every) = (cfg.nodes, cfg.check_interval);
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    while sim.messages().sybils_created == 0 || !sim.tick().is_multiple_of(every) {
        sim.step();
    }
    let (mut allocs, mut consumed) = (0u64, 0u64);
    for _ in 0..50 {
        let (a, c) = allocation_delta(|| (1..every).map(|_| sim.step()).sum::<u64>());
        allocs += a;
        consumed += c;
        assert!(sim.ring().len() > nodes, "window must run on a Sybil ring");
        // The check tick: Sybils spawn and retire here, unmeasured.
        sim.step();
    }
    assert!(consumed > 0, "windows must have done real work");
    assert_eq!(
        allocs, 0,
        "work ticks on a Sybil ring allocated {allocs} times"
    );
}

/// The ring's own growth over the churn window below, and the only
/// allocations those 1k ticks make: 528 task queues outgrowing their
/// capacity (208 joins split their share into a recycled queue that is
/// too small, and 320 departures merge their queue into a successor's
/// that is full), and 2 free-slot list and 1 queue-pool pushes past
/// capacity. Counted at this seed by instrumenting each growth site.
const CHURN_WINDOW_RING_GROWTH: u64 = 531;

/// Churn ticks allocate only what the ring's growth makes: at rate
/// 0.01, 200 active and 200 waiting workers (about 2k leaves and 2k
/// joins in the window), a tick draws per event, walks the worker table
/// and compacts the presized waiting pool in place, and a first join
/// files its slot handle in a list sized at setup.
#[test]
fn churn_ticks_do_not_allocate() {
    let cfg = SimConfig {
        strategy: StrategyKind::Churn,
        churn_rate: 0.01,
        ..steady_cfg()
    };
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    for _ in 0..32 {
        sim.step();
    }
    let before = sim.messages();
    let (allocs, consumed) = allocation_delta(|| {
        let mut consumed = 0u64;
        for _ in 0..1_000 {
            consumed += sim.step();
        }
        consumed
    });
    let after = sim.messages();
    assert!(consumed > 0, "window must have done real work");
    assert!(
        after.churn_leaves > before.churn_leaves && after.churn_joins > before.churn_joins,
        "window must churn"
    );
    assert_eq!(
        allocs, CHURN_WINDOW_RING_GROWTH,
        "churn ticks allocated {allocs} times over 1k ticks"
    );
}

/// The same property seen end-to-end: a full run's allocation count is
/// dominated by setup, not by ticks — running 4x more ticks over the
/// same setup must not add more than a sliver of allocations.
#[test]
fn allocations_scale_with_setup_not_ticks() {
    let short = {
        let mut cfg = steady_cfg();
        cfg.max_ticks = Some(250);
        let mut sim = Sim::new(cfg, 7);
        allocation_delta(|| {
            for _ in 0..250 {
                sim.step();
            }
        })
        .0
    };
    let long = {
        let mut cfg = steady_cfg();
        cfg.max_ticks = Some(1_000);
        let mut sim = Sim::new(cfg, 7);
        allocation_delta(|| {
            for _ in 0..1_000 {
                sim.step();
            }
        })
        .0
    };
    assert!(
        long <= short + 8,
        "4x the ticks added {} allocations (short {short}, long {long})",
        long - short
    );
}

/// A detached drain: no strategy, no churn and nothing armed, so
/// `Sim::run` ticks ledger-detached from its first tick to its last.
fn detached_drain() -> Sim {
    let cfg = SimConfig {
        nodes: 2_000,
        tasks: 200_000,
        ..steady_cfg()
    };
    Sim::new(cfg, 0xA0B1_C2D3)
}

/// What a whole detached drain's `Sim::run` allocates after setup,
/// counted at this seed: the live-slot set, reserved once at the slot
/// count when the first tick builds it. The work history is sized at
/// setup, and each tick pops in place over the live slots.
const DETACHED_DRAIN_ALLOCS: u64 = 1;

/// A detached drain's whole run, about 1 100 ticks, allocates only its
/// live-slot set.
#[test]
fn detached_drain_run_allocations() {
    let sim = detached_drain();
    let (allocs, result) = allocation_delta(|| sim.run());
    assert!(result.completed, "the drain must finish");
    assert!(
        result.ticks > 1_000,
        "a long drain tail, {} ticks",
        result.ticks
    );
    assert_eq!(
        allocs, DETACHED_DRAIN_ALLOCS,
        "a detached drain allocated {allocs} times over {} ticks",
        result.ticks
    );
}

/// Runs `strategy` on the steady workload past its first Sybils, then
/// counts a 1k-tick window holding 200 check ticks. Returns the
/// window's allocations and the Sybils it created.
fn check_window(strategy: StrategyKind) -> (u64, u64) {
    let cfg = SimConfig {
        strategy,
        ..steady_cfg()
    };
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    while sim.messages().sybils_created == 0 || sim.tick() < 32 {
        sim.step();
    }
    let before = sim.messages().sybils_created;
    let (allocs, consumed) = allocation_delta(|| (0..1_000).map(|_| sim.step()).sum::<u64>());
    assert!(consumed > 0, "window must have done real work");
    (allocs, sim.messages().sybils_created - before)
}

/// The growth in the random-injection window below, counted at this
/// seed by instrumenting each site; nothing else allocates. For its 26
/// Sybils: 26 newcomer queues filled past their capacity by the split,
/// 3 split-buffer regrowths, 1 free-slot list and 1 queue-pool push
/// past capacity, and, for the 23 workers that spawn their first
/// Sybil, 23 Sybil lists and 23 slot-handle lists growing.
const RANDOM_INJECTION_CHECK_ALLOCS: u64 = 77;

/// Check ticks under random injection allocate only the ring's growth:
/// the idle workers' checks, the Sybil inserts, and the retirements of
/// Sybils that ran dry.
#[test]
fn random_injection_check_ticks_allocate_only_ring_growth() {
    let (allocs, created) = check_window(StrategyKind::RandomInjection);
    assert!(created > 0, "the window must inject Sybils");
    assert_eq!(
        allocs, RANDOM_INJECTION_CHECK_ALLOCS,
        "random injection allocated {allocs} times over 1k ticks ({created} Sybils)"
    );
}

/// The growth in the invitation window below, counted at this seed by
/// instrumenting each site; nothing else allocates. For its 9 Sybils:
/// 9 newcomer queues filled past their capacity by the split, 2
/// split-buffer regrowths, and 9 Sybil lists and 9 slot-handle lists
/// growing for helpers that spawn their first Sybil.
const INVITATION_CHECK_ALLOCS: u64 = 29;

/// Check ticks under invitation allocate only the ring's growth: the
/// overloaded workers' invitations walk their predecessors through the
/// reused helper and successor-list buffers.
#[test]
fn invitation_check_ticks_allocate_only_ring_growth() {
    let (allocs, created) = check_window(StrategyKind::Invitation);
    assert!(created > 0, "the window must inject Sybils");
    assert_eq!(
        allocs, INVITATION_CHECK_ALLOCS,
        "invitation allocated {allocs} times over 1k ticks ({created} Sybils)"
    );
}

/// The network the maintenance-cycle tests measure: 149 nodes holding
/// 12 800 keys, past three warm cycles (the first pushes fresh
/// snapshots, and list buffers reach their working capacity).
fn warm_chord_network() -> autobal::chord::Network {
    use autobal::chord::{NetConfig, Network};
    use autobal::id::sha1::sha1_id_of_u64;
    let ids: Vec<autobal::Id> = (0..149u64).map(sha1_id_of_u64).collect();
    let mut net = Network::from_ids(NetConfig::default(), &ids).unwrap();
    for k in 0..12_800u64 {
        net.insert_key(sha1_id_of_u64(1_000_000 + k));
    }
    for _ in 0..3 {
        net.maintenance_cycle();
    }
    net
}

/// Runs one maintenance cycle and returns its allocation count, after
/// checking that every owner pushed to every target.
fn measured_cycle(net: &mut autobal::chord::Network) -> u64 {
    let pushes = net.stats.replica_push;
    let (allocs, ()) = allocation_delta(|| net.maintenance_cycle());
    let rf = autobal::chord::NetConfig::default().replication_factor as u64;
    assert_eq!(
        net.stats.replica_push - pushes,
        149 * rf,
        "every owner pushed to every target"
    );
    allocs
}

/// A quiet sync Chord maintenance cycle (no membership change, no key
/// change since the last one) does not allocate. It walks the node
/// table by position, pruning probes without collecting, the neighbour
/// lists refill their own buffers, finger fixes route without a path,
/// and every replica push hands out a clone of the owner's key run.
#[test]
fn quiet_maintenance_cycle_does_not_allocate() {
    let mut net = warm_chord_network();
    let allocs = measured_cycle(&mut net);
    assert_eq!(
        allocs, 0,
        "a quiet maintenance cycle allocated {allocs} times"
    );
}

/// A busy cycle, where every owner consumed a key since the last one
/// (as the work phase does each tick), does not allocate either: the
/// pop only moves the owner's cursor, so each push still hands its
/// targets the owner's run, and no key set is copied.
#[test]
fn busy_maintenance_cycle_does_not_allocate() {
    let mut net = warm_chord_network();
    let ids = net.node_ids();
    let popped = ids
        .iter()
        .filter(|&&id| net.node_mut(id).unwrap().keys.pop_first().is_some())
        .count();
    assert!(
        popped > ids.len() * 9 / 10,
        "only {popped} owners held keys"
    );
    let allocs = measured_cycle(&mut net);
    assert_eq!(
        allocs, 0,
        "a busy maintenance cycle allocated {allocs} times"
    );
}

/// What the churned cycle below allocates, counted at this seed: the
/// same cycle made 57 allocations while promotion scanned every replica
/// owner each cycle and finger tables were dense, so the count may fall
/// but must not rise.
const CHURNED_CYCLE_ALLOCS: u64 = 16;

/// A cycle after one crash and one join prunes the references to the
/// dead node and promotes its replicas; its allocation count is pinned.
#[test]
fn churned_maintenance_cycle_allocations() {
    let mut net = warm_chord_network();
    let ids = net.node_ids();
    let victim = ids
        .iter()
        .copied()
        .find(|&id| net.node(id).is_some_and(|n| n.keys.len() > 50))
        .unwrap();
    net.fail(victim).unwrap();
    let newcomer = autobal::id::sha1::sha1_id_of_u64(7_000_000);
    net.join(newcomer, net.node_ids()[0]).unwrap();
    let (pings, moved) = (net.stats.ping, net.stats.key_transfer);
    let (allocs, ()) = allocation_delta(|| net.maintenance_cycle());
    assert!(net.stats.ping > pings, "the cycle pruned the dead node");
    assert!(
        net.stats.key_transfer > moved,
        "the cycle promoted the dead node's keys"
    );
    assert_eq!(
        allocs, CHURNED_CYCLE_ALLOCS,
        "a churned maintenance cycle allocated {allocs} times"
    );
}

/// The wire the event-wire windows measure: 64 sha1 ids, wired from
/// ground truth, run to time 1 000 so stabilization's buffers (queue
/// slots, pooled successor lists) reach their working size.
fn warm_event_wire() -> autobal::chord::EventNet {
    use autobal::chord::{EventConfig, EventNet};
    use autobal::id::sha1::sha1_id_of_u64;
    let ids: Vec<autobal::Id> = (0..64u64).map(sha1_id_of_u64).collect();
    let mut net = EventNet::from_ids(EventConfig::default(), &ids);
    net.run_until(1_000);
    net
}

/// A quiet event wire (stabilize timers, their probes and replies, and
/// notifies) does not allocate: queued deliveries reuse the scheduler's
/// slots, and every successor-list reply takes a pooled buffer that its
/// receiver returns once merged.
#[test]
fn quiet_event_wire_does_not_allocate() {
    let mut net = warm_event_wire();
    let (stabilize, now) = (net.stats.stabilize, net.now());
    let (allocs, events) = allocation_delta(|| net.run_until(now + 2_000));
    assert_eq!(
        net.stats.stabilize - stabilize,
        64 * 20,
        "every timer fired"
    );
    assert!(events >= 4 * 64 * 20, "only {events} events");
    assert_eq!(allocs, 0, "a quiet event wire allocated {allocs} times");
}

/// What the busy window below allocates, counted at this seed: the
/// pending-lookup buffer, the deadline FIFO and the completed-lookup
/// buffer each growing to 200 entries. The same window made 1 969
/// allocations while the scheduler was a binary heap and every
/// successor-list reply cloned its list, and 49 while pending lookups
/// were a map, so the count may fall but must not rise.
const BUSY_WIRE_ALLOCS: u64 = 23;

/// 200 lookups from every node over a warm wire, run past their
/// first-attempt deadlines; the allocation count is pinned.
#[test]
fn busy_event_wire_allocations() {
    use autobal::id::sha1::sha1_id_of_u64;
    let mut net = warm_event_wire();
    let ids = net.node_ids();
    let now = net.now();
    let (allocs, events) = allocation_delta(|| {
        for (i, origin) in (0..200u64).zip(ids.iter().cycle()) {
            net.lookup(*origin, sha1_id_of_u64(5_000_000 + i));
        }
        net.run_until(now + 3_000)
    });
    let done: Vec<_> = net.drain_completed().collect();
    assert_eq!(done.len(), 200, "every lookup finished");
    assert!(done.iter().all(|l| l.owner.is_some()), "none timed out");
    assert!(events > 4 * 64 * 30, "only {events} events");
    assert_eq!(
        allocs, BUSY_WIRE_ALLOCS,
        "a busy event wire allocated {allocs} times over {events} events"
    );
}
