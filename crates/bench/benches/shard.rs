//! Sharded-graph bench `shard/build`: the shard-aware two-pass builder
//! (resident and spill-to-snapshot modes) vs the monolithic streaming
//! build on the same RMAT source. Sharded builds replay the source
//! `S + 2` times, so this prices the replays bought by the `O(n + 2m/S)`
//! peak.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgc_graph::gen::{GraphSpec, SpecSource};
use pgc_graph::sharded::{build_sharded, ShardOptions};
use pgc_graph::stream::build_compact;
use pgc_graph::GraphView as _;
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

criterion_group!(benches, shard_build);
criterion_main!(benches);
