//! JP work-efficiency reference: the asynchronous engine against the
//! sequential greedy pass that yields the same coloring.
//!
//! JP over a total order ρ does `O(n + m)` work, the same as greedy
//! coloring in decreasing ρ (Hasenplaugh et al., SPAA'14), and the two
//! colorings are identical. `jp/work` times `greedy_by_priority` and
//! `jp_color_with_counts` (with the ADG-fused predecessor counts, as
//! JP-ADG runs it) at width 1 and at the default width, on R-MAT 16/16
//! with the ADG ordering computed once up front. The reference row prints
//! both JP / greedy ratios, min over reps. It asserts that all three
//! colorings are identical, and nothing about time: the ratios are a
//! reference to read, and shared machines swing by 10–15%.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pgc_core::greedy::greedy_by_priority;
use pgc_core::jp::jp_color_with_counts;
use pgc_graph::gen::{generate, GraphSpec};
use pgc_order::{adg, AdgOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn jp_work(c: &mut Criterion) {
    let g = generate(
        &GraphSpec::Rmat {
            scale: 16,
            edge_factor: 16,
        },
        7,
    );
    let ord = adg(&g, &AdgOptions::default());
    let counts = ord.pred_counts.as_ref().expect("ADG fuses the counts");
    let rho = &ord.rho;
    let width = pgc_par::default_width();

    let mut group = c.benchmark_group("jp/work");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    group.throughput(Throughput::Elements(2 * g.m() as u64));
    group.bench_function("greedy", |b| {
        b.iter(|| black_box(greedy_by_priority(&g, rho).len()))
    });
    group.bench_function("jp-w1", |b| {
        b.iter(|| pgc_par::install(1, || black_box(jp_color_with_counts(&g, rho, counts).len())))
    });
    group.bench_function(format!("jp-w{width}"), |b| {
        b.iter(|| {
            pgc_par::install(width, || {
                black_box(jp_color_with_counts(&g, rho, counts).len())
            })
        })
    });
    group.finish();

    let greedy = greedy_by_priority(&g, rho);
    let jp1 = pgc_par::install(1, || jp_color_with_counts(&g, rho, counts));
    let jpw = pgc_par::install(width, || jp_color_with_counts(&g, rho, counts));
    assert_eq!(jp1, greedy, "width-1 JP differs from the greedy pass");
    assert_eq!(jpw, greedy, "width-{width} JP differs from the greedy pass");

    let min_secs = |f: &mut dyn FnMut()| -> f64 {
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let t_greedy = min_secs(&mut || {
        black_box(greedy_by_priority(&g, rho).len());
    });
    let t_jp1 = min_secs(&mut || {
        pgc_par::install(1, || black_box(jp_color_with_counts(&g, rho, counts).len()));
    });
    let t_jpw = min_secs(&mut || {
        pgc_par::install(width, || {
            black_box(jp_color_with_counts(&g, rho, counts).len())
        });
    });
    println!(
        "jp: greedy {:.1} ms, jp width 1 {:.1} ms ({:.2}x), jp width {width} {:.1} ms ({:.2}x)",
        t_greedy * 1e3,
        t_jp1 * 1e3,
        t_jp1 / t_greedy.max(1e-9),
        t_jpw * 1e3,
        t_jpw / t_greedy.max(1e-9),
    );
}

criterion_group!(benches, jp_work);
criterion_main!(benches);
