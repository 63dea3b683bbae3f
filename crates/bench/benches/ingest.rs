//! Ingestion bench: streaming two-pass construction vs the buffered
//! arc-list front end.
//!
//! Both paths run the same two-pass engine; the difference measured here
//! is the source side — seeded regeneration ([`SpecSource`]) against a
//! fully buffered edge list ([`EdgeListBuilder`]) — i.e. the CPU price
//! paid for halving peak ingestion memory. A second group races the
//! sequential generator replay against its partitioned replay (pool
//! tasks jumping the RNG to their edge ranges), alone and inside a build.
//! A third times whole builds dominated by the staged bucket scatter, on
//! the partitioned and the one-part replay, at width 1 and full width.
//! A fourth measures the file-reader path end to end over in-memory
//! bytes, and a fifth pits the binary snapshot loaders against the text
//! parse on a ≥1M-edge graph (with an in-bench ≥10× regression
//! assertion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pgc_graph::gen::{GraphSpec, SpecSource};
use pgc_graph::io::{read_edge_list, write_edge_list};
use pgc_graph::stream::{build_compact, build_compact_with_stats, ChunkFn, EdgeSource};
use pgc_graph::{EdgeListBuilder, GraphView as _};
use std::hint::black_box;

fn ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/rmat");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for scale in [10u32, 12] {
        let spec = GraphSpec::Rmat {
            scale,
            edge_factor: 8,
        };
        let src = SpecSource::new(spec.clone(), 1);
        let raw = src.edge_hint().expect("generator hints are exact");
        group.throughput(Throughput::Elements(raw as u64));

        group.bench_function(BenchmarkId::new("streaming", scale), |b| {
            b.iter(|| black_box(build_compact(&src).unwrap().m()))
        });

        // Buffered baseline: collect the raw pairs once up front, then
        // rebuild from the buffer per iteration (by reference through the
        // builder's EdgeSource impl — no per-iteration clone).
        let mut buffered = EdgeListBuilder::with_capacity(spec.n(), raw);
        src.replay(&mut |chunk, _: &[()]| {
            for &(u, v) in chunk {
                buffered.add_edge(u, v);
            }
        })
        .unwrap();
        group.bench_function(BenchmarkId::new("buffered", scale), |b| {
            b.iter(|| black_box(build_compact(&buffered).unwrap().m()))
        });
    }
    group.finish();

    // Sanity off the hot path: the streaming build must beat the
    // arc-list memory baseline it replaced.
    let (_, stats) = build_compact_with_stats(&SpecSource::new(
        GraphSpec::Rmat {
            scale: 12,
            edge_factor: 8,
        },
        1,
    ))
    .unwrap();
    assert!(stats.build_bytes_peak < stats.arc_list_baseline_bytes());
}

/// A source that hides its partitions, so the builder takes the
/// sequential one-part replay path (each chunk still fanned out).
struct Sequential<'a>(&'a SpecSource);

impl EdgeSource for Sequential<'_> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        self.0.replay(emit)
    }
}

/// Sequential vs partitioned generator replay on the same R-MAT stream:
/// the replay alone (one pass into a counting closure, or every
/// partition run as a pool task) and the whole two-pass build.
fn ingest_partitioned(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/rmat-replay");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let spec = GraphSpec::Rmat {
        scale: 16,
        edge_factor: 16,
    };
    let src = SpecSource::new(spec, 1);
    let raw = src.edge_hint().expect("generator hints are exact");
    group.throughput(Throughput::Elements(raw as u64));
    group.bench_function("replay/sequential", |b| {
        b.iter(|| {
            let mut pairs = 0usize;
            src.replay(&mut |chunk, _: &[()]| pairs += chunk.len())
                .unwrap();
            black_box(pairs)
        })
    });
    let parts = src.parts().min(4 * pgc_par::current_width());
    group.bench_function("replay/partitioned", |b| {
        b.iter(|| {
            pgc_par::map_reduce_chunks(
                parts,
                1,
                |range| {
                    let mut pairs = 0usize;
                    for part in range {
                        src.replay_part(part, parts, &mut |chunk, _: &[()]| pairs += chunk.len())
                            .unwrap();
                    }
                    pairs
                },
                |a, b| a + b,
            )
        })
    });
    group.bench_function("build/sequential", |b| {
        b.iter(|| black_box(build_compact(&Sequential(&src)).unwrap().m()))
    });
    group.bench_function("build/partitioned", |b| {
        b.iter(|| black_box(build_compact(&src).unwrap().m()))
    });
    group.finish();
}

/// Whole builds of R-MAT 16/16 (partitioned replay) and BA 100k/10
/// (one-part replay), whose largest stage is the staged bucket scatter,
/// at width 1 and at the full pool width. No timing assertion.
fn ingest_scatter(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/scatter");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let rmat = SpecSource::new(
        GraphSpec::Rmat {
            scale: 16,
            edge_factor: 16,
        },
        1,
    );
    let ba = SpecSource::new(
        GraphSpec::BarabasiAlbert {
            n: 100_000,
            attach: 10,
        },
        1,
    );
    let mut widths = vec![1, pgc_par::default_width()];
    widths.dedup();
    for (name, src) in [("rmat-16-16", &rmat), ("ba-100k-10", &ba)] {
        let raw = src.edge_hint().expect("generator hints are exact");
        group.throughput(Throughput::Elements(raw as u64));
        for &width in &widths {
            group.bench_function(BenchmarkId::new(name, format!("w{width}")), |b| {
                b.iter(|| pgc_par::install(width, || black_box(build_compact(src).unwrap().m())))
            });
        }
    }
    group.finish();
}

fn ingest_reader(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/edge-list-text");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let g = pgc_graph::gen::generate(
        &GraphSpec::Rmat {
            scale: 11,
            edge_factor: 8,
        },
        1,
    );
    let mut text = Vec::new();
    write_edge_list(&g, &mut text).unwrap();
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse+build", |b| {
        b.iter(|| black_box(read_edge_list(&text[..]).unwrap().m()))
    });

    // Baseline for the PR-5 byte-level fast-path parser: the retired
    // reader shape — `String` lines + `split_whitespace` + `str::parse`
    // — behind the identical streaming build, so the delta is parsing
    // alone. Run `cargo bench --bench ingest` and compare
    // `parse+build` (fast path) against `parse+build/str-baseline`.
    struct StrLineSource<'a>(&'a [u8]);

    impl EdgeSource for StrLineSource<'_> {
        fn num_vertices(&self) -> usize {
            0
        }

        fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
            use std::io::BufRead;
            let mut sink = pgc_graph::EdgeSink::new(emit);
            for line in self.0.lines() {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
                    continue;
                }
                let mut it = t.split_whitespace();
                let u: u32 = it.next().unwrap().parse().unwrap();
                let v: u32 = it.next().unwrap().parse().unwrap();
                sink.push(u, v);
            }
            Ok(())
        }
    }

    group.bench_function("parse+build/str-baseline", |b| {
        b.iter(|| black_box(build_compact(&StrLineSource(&text)).unwrap().m()))
    });
    group.finish();
}

/// Binary snapshot load vs text parse on a ≥1M-edge graph — the raw-speed
/// claim of the snapshot format, pinned by a min-of-reps ≥10× assertion
/// (min over several runs, so scheduler noise only ever helps the slower
/// side).
fn ingest_snapshot(c: &mut Criterion) {
    let g = pgc_graph::gen::generate(
        &GraphSpec::Rmat {
            scale: 17,
            edge_factor: 16,
        },
        1,
    );
    assert!(
        g.m() >= 1_000_000,
        "snapshot bench wants a >=1M-edge graph, got m={}",
        g.m()
    );
    let mut text = Vec::new();
    write_edge_list(&g, &mut text).unwrap();
    let mut snap = Vec::new();
    pgc_graph::snapshot::write_snapshot_to(&g, &mut snap).unwrap();
    let path = std::env::temp_dir().join(format!(
        "pgc-bench-{}.{}",
        std::process::id(),
        pgc_graph::snapshot::SNAPSHOT_EXT
    ));
    std::fs::write(&path, &snap).unwrap();

    let mut group = c.benchmark_group("ingest/snapshot");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Bytes(snap.len() as u64));
    group.bench_function("text-parse+build", |b| {
        b.iter(|| black_box(read_edge_list(&text[..]).unwrap().m()))
    });
    group.bench_function("snapshot-load", |b| {
        b.iter(|| black_box(pgc_graph::snapshot::load_snapshot_bytes(&snap).unwrap().m()))
    });
    group.bench_function("snapshot-mmap-open", |b| {
        b.iter(|| {
            black_box(
                pgc_graph::snapshot::MappedSnapshot::open(&path)
                    .unwrap()
                    .num_arcs(),
            )
        })
    });
    group.finish();

    // Regression gate: snapshot load must stay >=10x faster than the text
    // parse it replaces.
    let min_secs = |f: &mut dyn FnMut()| -> f64 {
        (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let t_text = min_secs(&mut || {
        black_box(read_edge_list(&text[..]).unwrap().m());
    });
    let t_snap = min_secs(&mut || {
        black_box(pgc_graph::snapshot::load_snapshot_bytes(&snap).unwrap().m());
    });
    let _ = std::fs::remove_file(&path);
    assert!(
        t_text >= 10.0 * t_snap,
        "snapshot load regressed: text parse {:.1} ms vs snapshot load {:.1} ms ({:.1}x < 10x)",
        t_text * 1e3,
        t_snap * 1e3,
        t_text / t_snap
    );
}

criterion_group!(
    benches,
    ingest,
    ingest_partitioned,
    ingest_scatter,
    ingest_reader,
    ingest_snapshot
);
criterion_main!(benches);
