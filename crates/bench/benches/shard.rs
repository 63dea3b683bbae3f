//! Sharded-graph benches: the build/traverse/color costs of the
//! vertex-range `ShardedCsr` against the monolithic `CompactCsr`.
//!
//! Three groups:
//!
//! * `shard/build` — the shard-aware two-pass builder (resident and
//!   spill-to-snapshot modes) vs the monolithic streaming build on the
//!   same RMAT source. Sharded builds replay the source `S + 2` times,
//!   so this prices the replays bought by the `O(n + 2m/S)` peak.
//! * `shard/jp` — the shard-parallel JP level loop with its halo
//!   color-exchange barrier vs the monolithic level loop, same ADG
//!   ranks, at 2 and 4 shards.
//! * `shard/peel` — the shard-grouped ADG peel (`adg_with_shards`) vs
//!   the monolithic push peel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pgc_core::jp::{jp_color_levels, jp_color_levels_sharded};
use pgc_graph::gen::{generate, generate_sharded_with_stats, GraphSpec, SpecSource};
use pgc_graph::sharded::{build_sharded, ShardOptions};
use pgc_graph::stream::build_compact;
use pgc_graph::GraphView as _;
use pgc_order::{adg, adg_with_shards, AdgOptions, UpdateStyle};
use std::hint::black_box;

const SPEC: GraphSpec = GraphSpec::Rmat {
    scale: 12,
    edge_factor: 8,
};
const SEED: u64 = 1;

fn shard_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard/build");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let src = SpecSource::new(SPEC, SEED);
    group.bench_function("monolithic", |b| {
        b.iter(|| black_box(build_compact(&src).unwrap().m()))
    });
    for shards in [2usize, 4] {
        group.bench_function(BenchmarkId::new("resident", shards), |b| {
            let opts = ShardOptions::resident(shards);
            b.iter(|| black_box(build_sharded(&src, &opts).unwrap().m()))
        });
        group.bench_function(BenchmarkId::new("spill", shards), |b| {
            let dir = std::env::temp_dir().join(format!("pgc-bench-shard-{shards}"));
            let opts = ShardOptions::spilling(shards, &dir);
            b.iter(|| black_box(build_sharded(&src, &opts).unwrap().m()));
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
    group.finish();
}

fn shard_jp(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard/jp");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let mono = generate(&SPEC, SEED);
    let ord = adg(&mono, &AdgOptions::default());
    group.throughput(Throughput::Elements(mono.m() as u64));
    group.bench_function("monolithic", |b| {
        b.iter(|| black_box(jp_color_levels(&mono, &ord.rho).1))
    });
    for shards in [2usize, 4] {
        let (g, _) = generate_sharded_with_stats(&SPEC, SEED, &ShardOptions::resident(shards));
        let bounds = g.boundaries().to_vec();
        group.bench_function(BenchmarkId::new("halo-exchange", shards), |b| {
            b.iter(|| black_box(jp_color_levels_sharded(&g, &ord.rho, &bounds).1))
        });
    }
    group.finish();
}

fn shard_peel(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard/peel");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let mono = generate(&SPEC, SEED);
    // Forced push: shard grouping applies to pushed levels only.
    let opts = AdgOptions {
        update: UpdateStyle::Push,
        ..AdgOptions::default()
    };
    group.bench_function("monolithic", |b| {
        b.iter(|| black_box(adg(&mono, &opts).rho[0]))
    });
    for shards in [2usize, 4] {
        let (g, _) = generate_sharded_with_stats(&SPEC, SEED, &ShardOptions::resident(shards));
        let bounds = g.boundaries().to_vec();
        group.bench_function(BenchmarkId::new("shard-grouped", shards), |b| {
            b.iter(|| black_box(adg_with_shards(&g, &opts, Some(&bounds)).rho[0]))
        });
    }
    group.finish();
}

criterion_group!(benches, shard_build, shard_jp, shard_peel);
criterion_main!(benches);
