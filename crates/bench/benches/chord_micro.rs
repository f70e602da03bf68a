//! Chord substrate microbenchmarks: the event wire's asynchronous
//! lookups and the key-value calls. Lookup hop cost, joins and one full
//! maintenance cycle are timed by `repro perf` (`chord_lookup`,
//! `chord_join`, `chord_maintenance`).

use autobal_chord::{NetConfig, Network};
use autobal_stats::seeded_rng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

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

criterion_group!(benches, bench_eventnet, bench_kv);
criterion_main!(benches);
