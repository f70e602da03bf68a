//! Chord substrate microbenchmarks: lookup hop cost and join — overheads
//! the tick model abstracts away but a real deployment pays. One full
//! maintenance cycle is timed by `repro perf` (`chord_maintenance`).

use autobal_chord::{NetConfig, Network};
use autobal_id::Id;
use autobal_stats::seeded_rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use std::hint::black_box;
use std::time::Duration;

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("chord_lookup");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    for n in [64usize, 256, 1024] {
        g.bench_with_input(BenchmarkId::new("lookup", n), &n, |b, &n| {
            let mut rng = seeded_rng(1);
            let mut net = Network::bootstrap(NetConfig::default(), n, &mut rng);
            let ids = net.node_ids();
            b.iter(|| {
                let from = ids[rng.gen_range(0..ids.len())];
                let key = Id::random(&mut rng);
                black_box(net.lookup(from, key).unwrap().hops)
            });
        });
    }
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("chord_join");
    g.sample_size(20);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("join_into_256", |b| {
        let mut rng = seeded_rng(2);
        b.iter_batched(
            || {
                let net = Network::bootstrap(NetConfig::default(), 256, &mut rng);
                let id = Id::random(&mut rng);
                (net, id)
            },
            |(mut net, id)| {
                let contact = net.node_ids()[0];
                net.join(id, contact).unwrap();
                black_box(net.len())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_eventnet(c: &mut Criterion) {
    use autobal_chord::{EventConfig, EventNet};
    let mut g = c.benchmark_group("chord_eventnet");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("async_200_lookups_128n", |b| {
        let mut rng = seeded_rng(4);
        b.iter_batched(
            || EventNet::bootstrap(EventConfig::default(), 128, &mut rng),
            |mut net| {
                let ids = net.node_ids();
                for i in 0..200u64 {
                    let origin = ids[(i as usize * 13) % ids.len()];
                    net.lookup(origin, autobal_id::sha1::sha1_id_of_u64(i));
                }
                net.run_until(20_000);
                black_box(net.take_completed().len())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_kv(c: &mut Criterion) {
    let mut g = c.benchmark_group("chord_kv");
    g.sample_size(20);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("put_get_64n", |b| {
        let mut rng = seeded_rng(5);
        let mut net = Network::bootstrap(NetConfig::default(), 64, &mut rng);
        let from = net.node_ids()[0];
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = autobal_id::sha1::sha1_id_of_u64(i);
            net.put(from, key, bytes::Bytes::from_static(b"v")).unwrap();
            black_box(net.get(from, key).unwrap())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_lookup, bench_join, bench_eventnet, bench_kv);
criterion_main!(benches);
