//! Primitive-layer benches: SHA-1 throughput, 160-bit arithmetic, and
//! ring task operations (the per-tick hot path of the simulator).

use autobal_core::Ring;
use autobal_id::{sha1, Id};
use autobal_stats::seeded_rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

fn bench_sha1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    for size in [8usize, 64, 1024, 65_536] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("digest", size), &data, |b, data| {
            b.iter(|| black_box(sha1::digest(data)));
        });
    }
    g.finish();
}

fn bench_id_arith(c: &mut Criterion) {
    let mut g = c.benchmark_group("id_arithmetic");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    let mut rng = seeded_rng(1);
    let a = Id::random(&mut rng);
    let b_ = Id::random(&mut rng);
    g.bench_function("wrapping_add", |b| b.iter(|| black_box(a.wrapping_add(b_))));
    g.bench_function("wrapping_sub", |b| b.iter(|| black_box(a.wrapping_sub(b_))));
    g.bench_function("cmp", |b| b.iter(|| black_box(a.cmp(&b_))));
    g.bench_function("midpoint", |b| {
        b.iter(|| black_box(autobal_id::ring::midpoint(a, b_)))
    });
    g.finish();
}

fn bench_ring_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring_ops");
    g.sample_size(20);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));

    // Build a ring with 1000 vnodes and 100k tasks once per batch.
    let build = || {
        let mut rng = seeded_rng(2);
        let mut ring = Ring::new();
        let mut i = 0;
        while ring.len() < 1000 {
            let id = Id::random(&mut rng);
            if ring.insert_vnode(id, i).is_ok() {
                i += 1;
            }
        }
        let keys: Vec<Id> = (0..100_000).map(|_| Id::random(&mut rng)).collect();
        ring.assign_tasks(keys);
        ring
    };

    g.bench_function("pop_task_hot_loop_1000", |b| {
        let mut ring = build();
        let ids: Vec<Id> = ring.vnode_loads().into_iter().map(|(id, _)| id).collect();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(ring.pop_task(ids[i]))
        });
    });

    g.bench_function("insert_vnode_split", |b| {
        let ring = build();
        let mut rng = seeded_rng(3);
        b.iter_batched(
            || (ring.clone(), Id::random(&mut rng)),
            |(mut r, pos)| {
                let _ = r.insert_vnode(pos, 0);
                black_box(r.len())
            },
            criterion::BatchSize::LargeInput,
        );
    });

    g.finish();
}

criterion_group!(benches, bench_sha1, bench_id_arith, bench_ring_ops);
criterion_main!(benches);
