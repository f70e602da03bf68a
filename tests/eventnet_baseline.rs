//! Wire-level fingerprints of the event-driven Chord overlay
//! (`chord::eventnet`), pinned against a committed fixture
//! (`tests/data/eventnet_baseline.txt`).
//!
//! `chord_baseline` pins the event wire through the full substrate.
//! This suite pins the bare `EventNet` on two scenarios that stress its
//! queue directly:
//!
//! * `faulty`: a 64-node wire with the flight recorder armed and an
//!   active fault plan (loss, duplication, extra delay, one partition
//!   window). Lookup retries back off on exponential deadlines, so
//!   retry timeouts interleave with first-attempt timeouts. Pins every
//!   completed lookup in completion order, the watched completions
//!   surfaced through `run_until_app`, the `MessageStats` bill and the
//!   trace JSONL.
//! * `crashing`: fault-free links, a third of the ring failed while
//!   lookups are in flight, plus scheduled crashes. Pins the completed
//!   lookups and the `MessageStats` bill.
//!
//! Both lines end in `app_lookups` / `app_digest`: only the lookups the
//! scenario issued, each `req` replaced by its issue index, so a change
//! in how many request ids the wire spends on its own lookups cannot
//! show there.
//!
//! The loop's own counters (`wire_events`, `dropped`) are left out on
//! purpose: they describe the queue's bookkeeping, not the protocol.
//! Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test eventnet_baseline
//! ```

use autobal::chord::{
    AppEvent, AsyncLookup, CrashEvent, EventConfig, EventNet, FaultPlan, Partition,
};
use autobal::id::sha1::sha1_id_of_u64;
use autobal::Id;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

/// FNV-1a over a byte stream: a stable, dependency-free digest.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Digest of lookups in the order given, every field included.
fn lookups_digest(done: &[AsyncLookup]) -> u64 {
    fnv1a(done.iter().flat_map(|l| {
        format!(
            "{} {:?} {:?} {} {}\n",
            l.req, l.key, l.owner, l.latency, l.hops
        )
        .into_bytes()
    }))
}

/// The lookups the scenario itself issued, in completion order, with
/// each `req` replaced by its issue index: wire-internal lookups are
/// left out, and so is any shift in the request ids they consume.
fn app_summary(done: &[AsyncLookup], issued: &[u64]) -> String {
    let app: Vec<AsyncLookup> = done
        .iter()
        .filter_map(|l| {
            let idx = issued.iter().position(|&r| r == l.req)?;
            Some(AsyncLookup {
                req: idx as u64,
                ..*l
            })
        })
        .collect();
    format!(
        "app_lookups={} app_digest={:016x}",
        app.len(),
        lookups_digest(&app)
    )
}

fn lookups_summary(done: &[AsyncLookup]) -> String {
    let timed_out = done.iter().filter(|l| l.owner.is_none()).count();
    format!(
        "lookups={} timed_out={timed_out} latency_sum={} lookups_digest={:016x}",
        done.len(),
        done.iter().map(|l| l.latency).sum::<u64>(),
        lookups_digest(done),
    )
}

fn faulty() -> String {
    let cfg = EventConfig::default();
    let mut net = EventNet::bootstrap(cfg, 64, &mut ChaCha8Rng::seed_from_u64(61));
    net.enable_trace(61);
    net.set_fault_plan(FaultPlan {
        loss_rate: 0.15,
        dup_rate: 0.05,
        delay_rate: 0.20,
        extra_delay: 25,
        partitions: vec![Partition {
            start: 4_000,
            end: 7_000,
        }],
        seed: 62,
        ..FaultPlan::default()
    });
    let ids = net.node_ids();
    let mut done = Vec::new();
    let mut issued = Vec::new();
    let mut watched = Vec::new();
    // Waves of app lookups from rotating origins, some watched through
    // the app loop, the rest left to the plain loop.
    for wave in 0..8u64 {
        for i in 0..8u64 {
            let origin = ids[((wave * 8 + i) as usize * 5) % ids.len()];
            let Some(req) = net.lookup(origin, sha1_id_of_u64(wave * 100 + i)) else {
                continue;
            };
            issued.push(req);
            if i % 2 == 0 {
                net.watch_lookup(req);
            }
        }
        let horizon = net.now() + 1_000;
        while let Some(ev) = net.run_until_app(horizon) {
            if let AppEvent::LookupDone(l) = ev {
                watched.push(l);
            }
        }
        done.extend(net.drain_completed());
    }
    // Let every retry budget run out: three attempts back off over
    // 2000 + 4000 + 8000 time units.
    let t = net.now();
    net.run_until(t + 16_000);
    done.extend(net.drain_completed());
    let trace_digest = fnv1a(autobal_telemetry::to_jsonl(net.trace().records()).into_bytes());
    format!(
        "faulty nodes={} time={} {} watched={} watched_digest={:016x} \
         trace_records={} trace={trace_digest:016x} stats={:?} {}",
        net.len(),
        net.now(),
        lookups_summary(&done),
        watched.len(),
        lookups_digest(&watched),
        net.trace().records().len(),
        net.stats,
        app_summary(&done, &issued),
    )
}

fn crashing() -> String {
    let cfg = EventConfig::default();
    let mut net = EventNet::bootstrap(cfg, 48, &mut ChaCha8Rng::seed_from_u64(63));
    net.set_fault_plan(FaultPlan {
        crashes: vec![
            CrashEvent { at: 900, count: 3 },
            CrashEvent {
                at: 2_600,
                count: 2,
            },
        ],
        seed: 64,
        // No retries: every timeout is a lookup's first deadline.
        max_attempts: 1,
        ..FaultPlan::default()
    });
    let ids = net.node_ids();
    // Every other node issues lookups, so some origins die with their
    // lookups still pending.
    let origins: Vec<Id> = ids.iter().step_by(2).copied().collect();
    let mut done = Vec::new();
    let mut issued = Vec::new();
    for i in 0..40u64 {
        let origin = origins[i as usize % origins.len()];
        issued.extend(net.lookup(origin, sha1_id_of_u64(1_000 + i)));
    }
    // Lookups are mid-flight when a third of the ring dies.
    net.run_until(25);
    for id in ids.iter().skip(1).step_by(3) {
        net.fail(*id);
    }
    for round in 0..6u64 {
        for i in 0..10u64 {
            let origin = origins[(round * 10 + i) as usize % origins.len()];
            issued.extend(net.lookup(origin, sha1_id_of_u64(2_000 + round * 10 + i)));
        }
        let t = net.now();
        net.run_until(t + 700);
        done.extend(net.drain_completed());
    }
    let t = net.now();
    net.run_until(t + 5_000);
    done.extend(net.drain_completed());
    format!(
        "crashing nodes={} time={} {} stats={:?} {}",
        net.len(),
        net.now(),
        lookups_summary(&done),
        net.stats,
        app_summary(&done, &issued),
    )
}

#[test]
fn eventnet_reproduces_the_recorded_baseline() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/eventnet_baseline.txt");
    let fresh = format!("{}\n{}\n", faulty(), crashing());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect("baseline fixture committed");
    // The scenarios exercise what they claim: the faulty wire retried
    // and lost messages, the crashing one timed lookups out.
    for (prefix, inert) in [
        ("faulty ", "retries: 0,"),
        ("faulty ", "dropped: 0,"),
        ("faulty ", " watched=0 "),
        ("crashing ", " timed_out=0 "),
    ] {
        let line = committed
            .lines()
            .find(|l| l.starts_with(prefix))
            .expect("scenario present");
        assert!(!line.contains(inert), "scenario {prefix}is inert: {line}");
    }
    for (want, got) in committed.lines().zip(fresh.lines()) {
        assert_eq!(got, want, "the event wire drifted from the baseline");
    }
    assert_eq!(
        fresh.lines().count(),
        committed.lines().count(),
        "scenario set changed; regenerate with UPDATE_GOLDEN=1 if intentional"
    );
}
