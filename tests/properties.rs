//! Property-based tests (proptest) on the core data structures and
//! invariants: identifier arithmetic, ring-arc geometry, SHA-1
//! streaming, ring task bookkeeping, statistics, and simulator
//! conservation laws.

use autobal::id::{ring, sha1, Id};
use autobal::sim::{Ring, Sim, SimConfig, StrategyKind};
use autobal::stats::{gini, jain_index, Summary};
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = Id> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| Id::from_limbs(a, b, c))
}

proptest! {
    // ---- 160-bit arithmetic --------------------------------------

    #[test]
    fn add_sub_roundtrip(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
        prop_assert_eq!(a.wrapping_sub(b).wrapping_add(b), a);
    }

    #[test]
    fn add_is_commutative(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }

    #[test]
    fn bytes_roundtrip(a in arb_id()) {
        prop_assert_eq!(Id::from_be_bytes(a.to_be_bytes()), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_id()) {
        prop_assert_eq!(Id::from_hex(&a.to_hex()), Some(a));
    }

    #[test]
    fn shl_shr_inverse_for_small_values(v in any::<u64>(), n in 0u32..96) {
        // Shifting a 64-bit value left then right loses nothing while it
        // stays inside 160 bits.
        let id = Id::from(v);
        prop_assert_eq!(id.shl(n).shr(n), id);
    }

    // ---- ring-arc geometry ---------------------------------------

    #[test]
    fn complementary_arcs_partition(a in arb_id(), b in arb_id(), x in arb_id()) {
        prop_assume!(a != b);
        prop_assert!(ring::in_arc(a, b, x) ^ ring::in_arc(b, a, x));
    }

    #[test]
    fn arc_contains_its_endpoint(a in arb_id(), b in arb_id()) {
        prop_assert!(ring::in_arc(a, b, b));
        prop_assert!(!ring::in_open_arc(a, b, b));
    }

    #[test]
    fn midpoint_lies_inside_the_arc(a in arb_id(), b in arb_id()) {
        prop_assume!(a != b);
        let d = ring::distance(a, b);
        prop_assume!(d > Id::ONE); // arcs of width 1 have no interior
        let m = ring::midpoint(a, b);
        prop_assert!(ring::in_arc(a, b, m));
        // The midpoint bisects: both halves within one unit of each other.
        let left = ring::distance(a, m);
        let right = ring::distance(m, b);
        let diff = if left > right { left.wrapping_sub(right) } else { right.wrapping_sub(left) };
        prop_assert!(diff <= Id::ONE);
    }

    #[test]
    fn distance_triangle_identity(a in arb_id(), b in arb_id(), c in arb_id()) {
        // Walking a→b→c clockwise covers the same ground as a→c plus
        // possibly whole laps; modulo 2^160 they are equal.
        let ab = ring::distance(a, b);
        let bc = ring::distance(b, c);
        let ac = ring::distance(a, c);
        prop_assert_eq!(ab.wrapping_add(bc), ac);
    }

    // ---- SHA-1 ----------------------------------------------------

    #[test]
    fn sha1_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                     split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = sha1::Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha1::digest(&data));
    }

    #[test]
    fn sha1_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(sha1::digest(&data), sha1::digest(&data));
    }

    // ---- statistics ------------------------------------------------

    #[test]
    fn gini_bounds_hold(v in proptest::collection::vec(0u64..10_000, 1..200)) {
        let g = gini(&v);
        prop_assert!((0.0..1.0).contains(&g), "gini {}", g);
    }

    #[test]
    fn jain_bounds_hold(v in proptest::collection::vec(0u64..10_000, 1..200)) {
        let j = jain_index(&v);
        let n = v.len() as f64;
        prop_assert!(j <= 1.0 + 1e-9);
        prop_assert!(j >= 1.0 / n - 1e-9);
    }

    #[test]
    fn summary_orderings(v in proptest::collection::vec(0u64..100_000, 1..300)) {
        let s = Summary::from_u64s(&v).unwrap();
        prop_assert!(s.min as f64 <= s.median);
        prop_assert!(s.median <= s.max as f64);
        prop_assert!(s.p25 <= s.median && s.median <= s.p75);
        prop_assert!(s.p75 <= s.p95 && s.p95 <= s.p99);
        prop_assert!(s.min as f64 <= s.mean && s.mean <= s.max as f64);
        prop_assert_eq!(s.total, v.iter().sum::<u64>());
    }

    // ---- ring task bookkeeping -------------------------------------

    #[test]
    fn ring_insert_remove_conserves_tasks(
        vnode_seeds in proptest::collection::vec(any::<u64>(), 2..20),
        task_seeds in proptest::collection::vec(any::<u64>(), 0..200),
        split_seed in any::<u64>(),
    ) {
        let mut ring = Ring::new();
        let mut inserted = 0usize;
        for (i, s) in vnode_seeds.iter().enumerate() {
            if ring.insert_vnode(sha1::sha1_id_of_u64(*s), i).is_ok() {
                inserted += 1;
            }
        }
        prop_assume!(inserted >= 2);
        let keys: Vec<Id> = task_seeds.iter().map(|&s| sha1::sha1_id_of_u64(s ^ 0xdead)).collect();
        let total = keys.len() as u64;
        ring.assign_tasks(keys).unwrap();
        prop_assert_eq!(ring.total_tasks(), total);
        ring.check_invariants().unwrap();

        // Split somewhere new, then remove it again.
        let pos = sha1::sha1_id_of_u64(split_seed ^ 0xbeef);
        if ring.insert_vnode(pos, 99).is_ok() {
            prop_assert_eq!(ring.total_tasks(), total);
            ring.check_invariants().unwrap();
            ring.remove_vnode(pos).unwrap();
        }
        prop_assert_eq!(ring.total_tasks(), total);
        ring.check_invariants().unwrap();
    }

    // ---- Chord protocol --------------------------------------------

    #[test]
    fn chord_lookup_always_agrees_with_oracle(
        n in 2usize..40,
        net_seed in any::<u64>(),
        key_seeds in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        use autobal::chord::{NetConfig, Network};
        let mut rng = autobal::stats::seeded_rng(net_seed);
        let mut net = Network::bootstrap(NetConfig::default(), n, &mut rng);
        let ids = net.node_ids();
        for (i, ks) in key_seeds.iter().enumerate() {
            let key = sha1::sha1_id_of_u64(*ks);
            let truth = net.owner_of(key).unwrap();
            let from = ids[i % ids.len()];
            let res = net.lookup(from, key).unwrap();
            prop_assert_eq!(res.owner, truth);
            prop_assert_eq!(res.path.first(), Some(&from));
        }
    }

    #[test]
    fn chord_join_preserves_key_placement(
        n in 2usize..20,
        seed in any::<u64>(),
        newcomer_seed in any::<u64>(),
    ) {
        use autobal::chord::{NetConfig, Network};
        let mut rng = autobal::stats::seeded_rng(seed);
        let mut net = Network::bootstrap(NetConfig::default(), n, &mut rng);
        for k in 0..50u64 {
            net.insert_key(sha1::sha1_id_of_u64(k));
        }
        let newcomer = sha1::sha1_id_of_u64(newcomer_seed);
        prop_assume!(!net.contains(newcomer));
        let contact = net.node_ids()[0];
        net.join(newcomer, contact).unwrap();
        prop_assert_eq!(net.total_keys(), 50);
        prop_assert!(net.is_consistent());
    }
}

proptest! {
    // Fewer cases: each case is a complete simulation run.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ---- simulator conservation law --------------------------------

    #[test]
    fn simulation_conserves_tasks(
        nodes in 5usize..40,
        tasks in 100u64..2_000,
        strat_idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let strategy = StrategyKind::ALL[strat_idx];
        let cfg = SimConfig {
            nodes,
            tasks,
            strategy,
            churn_rate: if strategy == StrategyKind::Churn { 0.02 } else { 0.0 },
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, seed).run();
        prop_assert!(res.completed);
        prop_assert_eq!(res.work_per_tick.iter().sum::<u64>(), tasks);
        prop_assert!(res.runtime_factor >= 0.99, "cannot beat ideal: {}", res.runtime_factor);
    }
}

proptest! {
    // Event-driven overlay and KV layer properties (moderate case count:
    // each case builds a network).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn eventnet_lookups_agree_with_oracle(
        n in 2usize..64,
        seed in any::<u64>(),
        key_seeds in proptest::collection::vec(any::<u64>(), 1..10),
    ) {
        use autobal::chord::{EventConfig, EventNet};
        let mut rng = autobal::stats::seeded_rng(seed);
        let mut net = EventNet::bootstrap(EventConfig::default(), n, &mut rng);
        let origin = net.node_ids()[0];
        let mut expect = Vec::new();
        for ks in &key_seeds {
            let key = sha1::sha1_id_of_u64(*ks);
            let truth = net.owner_of(key).unwrap();
            let req = net.lookup(origin, key).unwrap();
            expect.push((req, truth));
        }
        net.run_until(30_000);
        let done: Vec<_> = net.drain_completed().collect();
        for (req, truth) in expect {
            let hit = done.iter().find(|l| l.req == req);
            prop_assert!(hit.is_some(), "lookup {req} never completed");
            prop_assert_eq!(hit.unwrap().owner, Some(truth));
        }
    }

    #[test]
    fn kv_roundtrip_under_random_membership_changes(
        n in 4usize..24,
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        use autobal::chord::{NetConfig, Network};
        use rand::Rng;
        let mut rng = autobal::stats::seeded_rng(seed);
        let mut net = Network::bootstrap(NetConfig::default(), n, &mut rng);
        let from = net.node_ids()[0];
        for i in 0..30u64 {
            net.put(from, sha1::sha1_id_of_u64(i), bytes::Bytes::from(vec![i as u8])).unwrap();
        }
        net.maintenance_cycle();
        for op in ops {
            match op % 3 {
                0 => {
                    let ids = net.node_ids();
                    if ids.len() > 3 {
                        net.fail(ids[rng.gen_range(0..ids.len())]).unwrap();
                    }
                }
                1 => {
                    let contact = net.node_ids()[0];
                    let _ = net.join(Id::random(&mut rng), contact);
                }
                _ => {
                    let ids = net.node_ids();
                    if ids.len() > 3 {
                        let _ = net.leave(ids[rng.gen_range(0..ids.len())]);
                    }
                }
            }
            net.maintenance_cycle();
        }
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        let from = net.node_ids()[0];
        for i in 0..30u64 {
            let got = net.get(from, sha1::sha1_id_of_u64(i)).unwrap();
            prop_assert_eq!(got, Some(bytes::Bytes::from(vec![i as u8])), "value {} lost", i);
        }
    }
}
