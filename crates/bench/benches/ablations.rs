//! §VI-J ablation bench: the ADG design choices — batch sorting on/off,
//! per-level vs forced push or pull updates, average vs median
//! thresholds, integer-sort algorithm, cached vs recomputed degree sums.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgc_bench::bench_graph_scale_free;
use pgc_order::adg::{adg, AdgOptions, ThresholdRule, UpdateStyle};
use pgc_primitives::sort::SortAlgo;
use std::hint::black_box;

fn adg_variants(c: &mut Criterion) {
    let g = bench_graph_scale_free();
    let variants: Vec<(&str, AdgOptions)> = vec![
        ("default(sortR+auto+radix+cache)", AdgOptions::default()),
        (
            "no-batch-sort",
            AdgOptions {
                sort_batches: false,
                ..Default::default()
            },
        ),
        (
            "push-update",
            AdgOptions {
                update: UpdateStyle::Push,
                ..Default::default()
            },
        ),
        (
            "pull-update",
            AdgOptions {
                update: UpdateStyle::Pull,
                ..Default::default()
            },
        ),
        (
            "median(ADG-M)",
            AdgOptions {
                rule: ThresholdRule::Median,
                ..Default::default()
            },
        ),
        (
            "counting-sort",
            AdgOptions {
                sort_algo: SortAlgo::Counting,
                ..Default::default()
            },
        ),
        (
            "quicksort",
            AdgOptions {
                sort_algo: SortAlgo::Quick,
                ..Default::default()
            },
        ),
        (
            "no-cached-degree-sum",
            AdgOptions {
                cache_degree_sum: false,
                ..Default::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("ablations/adg");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (name, opts) in variants {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(adg(&g, &opts).stats.iterations))
        });
    }
    group.finish();
}

criterion_group!(benches, adg_variants);
criterion_main!(benches);
