//! Equivalence suite for the streaming two-pass ingestion engine.
//!
//! The refactor's contract: building through [`EdgeSource`] — counting
//! degrees in one replay, scattering neighbors in a second, never
//! materializing an arc list — produces **bit-identical** CSR arrays to
//! the retired sort-the-arc-list pipeline, at *lower* peak memory. This
//! suite pins that down five ways:
//!
//! 1. a reference implementation of the old pipeline (symmetrize → sort →
//!    dedup) agrees with the streaming build on offsets, neighbors, and
//!    Δ/δ across random multigraph inputs,
//! 2. the same holds through the hidden offset-limit hook that forces the
//!    `u32 → usize` wide-offset fallback, covering the boundary without
//!    4-billion-arc inputs,
//! 3. generator sources (seeded regeneration) equal their fully buffered
//!    counterparts, and all 21 algorithms color the two identically,
//! 4. peak build-side allocation of a generator-sourced graph stays below
//!    the arc-list baseline the old path paid,
//! 5. the file-backed readers (two sequential scans) equal the in-memory
//!    compatibility readers.
//!
//! and it pins the partitioned replay down two more:
//!
//! 6. for every partitioning source, the in-order concatenation of
//!    `replay_part(p, P)` equals `replay()` pair for pair at any `P`, and
//!    the raw R-MAT stream keeps its recorded digest,
//! 7. partitioned parallel builds equal a build from the same stream
//!    replayed sequentially, at several pool widths.
//!
//! and the engine's cost and hub handling two more:
//!
//! 8. a build costs exactly two full replays of its source, on the
//!    partitioned and the one-part path alike,
//! 9. a hub row long enough for the parallel sort, with duplicate pairs,
//!    equals the arc-list oracle.
//!
//! and the staged scatter, whose runs are bucketed by 4,096 rows, one
//! more:
//!
//! 10. graphs spanning several buckets equal the arc-list oracle on every
//!     build path — partitioned, sequential, one-part, buffered and
//!     forced-wide — at several pool widths.

use parallel_graph_coloring as pgc;
use pgc::color::{run, verify, Algorithm, Params};
use pgc::graph::builder::from_edges;
use pgc::graph::gen::{generate, generate_with_stats, GraphSpec, SpecSource};
use pgc::graph::stream::{
    build_compact, build_compact_with_offset_limit, build_compact_with_stats, ChunkFn, EdgeSource,
};
use pgc::graph::{CompactCsr, EdgeListBuilder, GraphView};
use pgc_harness::experiments::with_threads;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The retired arc-list pipeline, kept as the oracle: materialize both
/// directions of every non-loop edge as packed `u64` arcs, sort the whole
/// list, dedup, then split into CSR arrays.
fn reference_arrays(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    let mut arcs: Vec<u64> = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in edges {
        if u != v {
            arcs.push(((u as u64) << 32) | v as u64);
            arcs.push(((v as u64) << 32) | u as u64);
        }
    }
    arcs.sort_unstable();
    arcs.dedup();
    let mut offsets = vec![0usize; n + 1];
    for &a in &arcs {
        offsets[(a >> 32) as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let neighbors: Vec<u32> = arcs.iter().map(|&a| a as u32).collect();
    (offsets, neighbors)
}

/// Strategy: raw edge list + vertex count (loops/dups exercised on
/// purpose — the builder must clean them).
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| (n, edges))
    })
}

/// Offsets read through `arc_range`, so 4- and 8-byte layouts compare
/// as the same arrays.
fn csr_offsets(g: &CompactCsr) -> Vec<usize> {
    let mut offsets: Vec<usize> = g.vertices().map(|v| g.arc_range(v).start).collect();
    offsets.push(g.num_arcs());
    offsets
}

fn assert_arrays_match(g: &CompactCsr, offsets: &[usize], neighbors: &[u32]) {
    assert_eq!(csr_offsets(g), offsets, "offsets differ");
    assert_eq!(g.raw_neighbors(), neighbors, "neighbors differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (1) Streaming build ≡ the arc-list oracle at both offset widths,
    /// down to the exact offset/neighbor arrays and the cached Δ/δ.
    #[test]
    fn streaming_build_is_bit_identical_to_arc_list_oracle(
        (n, edges) in arb_edges(48, 200),
    ) {
        let (ref_offsets, ref_neighbors) = reference_arrays(n, &edges);
        let g = from_edges(n, &edges);
        assert_arrays_match(&g, &ref_offsets, &ref_neighbors);
        prop_assert_eq!(g.offset_width(), 4, "u32 fast path expected");

        let mut b = EdgeListBuilder::with_capacity(n, edges.len());
        b.extend_edges(edges.iter().copied());
        let (wide, _) = build_compact_with_offset_limit(&b, 0).unwrap();
        prop_assert_eq!(wide.offset_width(), std::mem::size_of::<usize>());
        assert_arrays_match(&wide, &ref_offsets, &ref_neighbors);

        // Cached degree extremes agree with a rescan of the oracle arrays.
        let degs: Vec<usize> = (0..n).map(|v| ref_offsets[v + 1] - ref_offsets[v]).collect();
        prop_assert_eq!(g.max_degree() as usize, degs.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(g.min_degree() as usize, degs.iter().copied().min().unwrap_or(0));
        prop_assert_eq!(wide.max_degree(), g.max_degree());
        prop_assert_eq!(wide.min_degree(), g.min_degree());
    }

    /// (2) The wide-offset fallback (forced via a tiny `u32` limit, as if
    /// the arc total had crossed `u32::MAX`) produces the same graph.
    #[test]
    fn wide_offset_boundary_is_bit_identical(
        (n, edges) in arb_edges(32, 120),
        limit in 0usize..40,
    ) {
        let mut b = EdgeListBuilder::with_capacity(n, edges.len());
        b.extend_edges(edges.iter().copied());
        let small = from_edges(n, &edges);
        let (wide, _) = build_compact_with_offset_limit(&b, limit).unwrap();
        if small.num_arcs() >= limit {
            prop_assert_eq!(wide.offset_width(), std::mem::size_of::<usize>());
        }
        prop_assert_eq!(csr_offsets(&wide), csr_offsets(&small));
        prop_assert_eq!(wide.raw_neighbors(), small.raw_neighbors());
        prop_assert_eq!(wide.max_degree(), small.max_degree());
        prop_assert_eq!(wide.min_degree(), small.min_degree());
    }

    /// (3a) Seeded regeneration equals full buffering for the generator
    /// sources.
    #[test]
    fn generator_streaming_equals_buffered(seed in 0u64..200) {
        let spec = GraphSpec::Rmat { scale: 7, edge_factor: 6 };
        let streamed = generate(&spec, seed);
        let src = SpecSource::new(spec.clone(), seed);
        let mut b = EdgeListBuilder::with_capacity(spec.n(), spec.raw_edge_hint());
        src.replay(&mut |chunk, _: &[()]| {
            for &(u, v) in chunk {
                b.add_edge(u, v);
            }
        }).unwrap();
        prop_assert_eq!(&streamed, &b.build());
    }
}

/// (3b) All 21 algorithms produce bit-identical colorings on a
/// streaming-built graph vs its `EdgeListBuilder`-built twin (and the
/// wide-offset build of the same source).
#[test]
fn all_algorithms_identical_on_streaming_vs_buffered_builds() {
    let params = Params::default();
    for (i, spec) in [
        GraphSpec::Rmat {
            scale: 9,
            edge_factor: 8,
        },
        GraphSpec::BarabasiAlbert { n: 600, attach: 6 },
        GraphSpec::RingOfCliques {
            cliques: 10,
            clique_size: 12,
        },
    ]
    .iter()
    .enumerate()
    {
        let streamed = generate(spec, i as u64);
        let src = SpecSource::new(spec.clone(), i as u64);
        let mut b = EdgeListBuilder::with_capacity(spec.n(), spec.raw_edge_hint());
        src.replay(&mut |chunk, _: &[()]| {
            for &(u, v) in chunk {
                b.add_edge(u, v);
            }
        })
        .unwrap();
        let (wide, _) = build_compact_with_offset_limit(&src, 0).unwrap();
        let buffered = b.build();
        assert_eq!(streamed, buffered, "{spec:?}");
        for algo in Algorithm::all() {
            let s = run(&streamed, algo, &params);
            let f = run(&buffered, algo, &params);
            let w = run(&wide, algo, &params);
            verify::assert_proper(&streamed, &s.colors);
            assert_eq!(s.colors, f.colors, "{} on {spec:?}", algo.name());
            assert_eq!(s.colors, w.colors, "{} wide on {spec:?}", algo.name());
        }
    }
}

/// (4) The acceptance criterion: peak build allocation for a
/// generator-sourced graph stays below the arc-list baseline (what the
/// retired pipeline allocated transiently), and below the same build fed
/// through the buffered source.
#[test]
fn generator_build_peak_beats_arc_list_baseline() {
    let spec = GraphSpec::Rmat {
        scale: 12,
        edge_factor: 8,
    };
    let (g, stats) = generate_with_stats(&spec, 1);
    assert_eq!(stats.raw_edges, spec.raw_edge_hint());
    assert!(
        stats.build_bytes_peak < stats.arc_list_baseline_bytes(),
        "streaming peak {} must undercut the arc-list baseline {}",
        stats.build_bytes_peak,
        stats.arc_list_baseline_bytes()
    );

    // The buffered source pays the same build-side arrays *plus* the
    // resident 8-byte-per-edge buffer the streaming source never holds.
    let src = SpecSource::new(spec.clone(), 1);
    let mut b = EdgeListBuilder::with_capacity(spec.n(), spec.raw_edge_hint());
    src.replay(&mut |chunk, _: &[()]| {
        for &(u, v) in chunk {
            b.add_edge(u, v);
        }
    })
    .unwrap();
    let (g2, buffered_stats) = build_compact_with_stats(&b).unwrap();
    assert_eq!(g, g2);
    assert!(
        stats.build_bytes_peak + 8 * stats.raw_edges <= buffered_stats.build_bytes_peak,
        "buffered peak {} must carry the edge buffer on top of streaming peak {}",
        buffered_stats.build_bytes_peak,
        stats.build_bytes_peak
    );
    // And the finished graph is a fraction of what ingestion used to cost.
    let fp = g.memory_footprint();
    assert!(fp.total_bytes() < stats.arc_list_baseline_bytes());
}

/// (5) File-backed readers (two sequential scans, no buffering) agree
/// with the in-memory compatibility readers on every format.
#[test]
fn path_readers_equal_buffered_readers() {
    use pgc::graph::io;
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let g = generate(&GraphSpec::ErdosRenyi { n: 400, m: 1_500 }, 3);

    let mut text = Vec::new();
    io::write_edge_list(&g, &mut text).unwrap();
    let snap = dir.join("streaming_roundtrip.txt");
    std::fs::write(&snap, &text).unwrap();
    assert_eq!(
        io::read_edge_list_path(&snap).unwrap(),
        io::read_edge_list(&text[..]).unwrap()
    );

    let mut col = Vec::new();
    io::write_dimacs_col(&g, &mut col).unwrap();
    let dimacs = dir.join("streaming_roundtrip.col");
    std::fs::write(&dimacs, &col).unwrap();
    let via_path = io::read_dimacs_col_path(&dimacs).unwrap();
    assert_eq!(via_path, io::read_dimacs_col(&col[..]).unwrap());
    assert_eq!(via_path, g, "declared n preserved through streaming");
}

/// Everything `src` emits, as one flat pair list: one `replay()`
/// (`parts = None`) or the partitions `0..P` of `replay_part` in order.
fn emitted<S: EdgeSource>(src: &S, parts: Option<usize>) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    let mut emit = |c: &[(u32, u32)], _: &[()]| pairs.extend_from_slice(c);
    match parts {
        None => src.replay(&mut emit).unwrap(),
        Some(p) => {
            for part in 0..p {
                src.replay_part(part, p, &mut emit).unwrap();
            }
        }
    }
    pairs
}

/// Assert the partitions of `src` concatenate to its replay at
/// P ∈ {1, 2, 3, 7, 64, > m}.
fn assert_parts_concatenate<S: EdgeSource>(src: &S, what: &str) {
    let pairs = emitted(src, None);
    assert!(!pairs.is_empty(), "{what}: empty stream proves nothing");
    for p in [1, 2, 3, 7, 64, pairs.len() + 5] {
        assert_eq!(emitted(src, Some(p)), pairs, "{what}: P = {p}");
    }
}

/// (6a) Generator partitions jump the RNG to their first edge and
/// reproduce the sequential stream.
#[test]
fn generator_partitions_concatenate_to_replay() {
    for spec in [
        GraphSpec::Rmat {
            scale: 9,
            edge_factor: 5,
        },
        GraphSpec::ErdosRenyi { n: 700, m: 2_500 },
        GraphSpec::KOut { n: 450, k: 5 },
    ] {
        let src = SpecSource::new(spec.clone(), 31);
        assert_parts_concatenate(&src, &format!("{spec:?}"));
    }
    // Sequential families stay whole: partition 0 carries everything.
    let ba = SpecSource::new(GraphSpec::BarabasiAlbert { n: 300, attach: 4 }, 2);
    assert_eq!(ba.parts(), 1);
    assert_parts_concatenate(&ba, "BA");
}

/// (6b) The buffered builder partitions by slice ranges.
#[test]
fn edge_list_builder_partitions_concatenate_to_replay() {
    let src = SpecSource::new(GraphSpec::ErdosRenyi { n: 300, m: 2_000 }, 4);
    let pairs = emitted(&src, None);
    let mut b = EdgeListBuilder::with_capacity(300, pairs.len());
    b.extend_edges(pairs.iter().copied());
    assert_eq!(emitted(&b, None), pairs);
    assert_parts_concatenate(&b, "EdgeListBuilder");
}

/// (6c) The raw R-MAT 14/8 seed-7 pair stream, FNV-1a over each pair's
/// little-endian `u32`s, as recorded before partitioned replay and the
/// branch-free quadrant kernel existed: neither may change a single pair.
#[test]
fn rmat_pair_stream_digest_is_pinned() {
    let src = SpecSource::new(
        GraphSpec::Rmat {
            scale: 14,
            edge_factor: 8,
        },
        7,
    );
    let fnv = |pairs: &[(u32, u32)]| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(u, v) in pairs {
            for b in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    };
    let pairs = emitted(&src, None);
    assert_eq!(pairs.len(), 131_072);
    assert_eq!(fnv(&pairs), 0xb41b_87d5_2f61_8786);
    assert_eq!(fnv(&emitted(&src, Some(7))), 0xb41b_87d5_2f61_8786);
}

/// A source that hides its partitions: the builder replays it on the
/// sequential one-part path — the oracle for partitioned builds.
struct Sequential<'a>(&'a SpecSource);

impl EdgeSource for Sequential<'_> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        self.0.replay(emit)
    }
}

/// (7) Partitioned builds of an R-MAT 16/16 source equal the sequential
/// oracle at widths 1, 2 and 8.
#[test]
fn partitioned_builds_equal_sequential_oracle() {
    let spec = GraphSpec::Rmat {
        scale: 16,
        edge_factor: 16,
    };
    let src = SpecSource::new(spec, 5);
    assert!(src.parts() > 8, "the source must partition");
    let oracle = with_threads(1, || build_compact(&Sequential(&src)).unwrap());
    for t in [1, 2, 8] {
        let g = with_threads(t, || build_compact(&src).unwrap());
        assert!(g == oracle, "build differs at width {t}");
    }
}

/// Counts the full replays a build makes of the wrapped source: one per
/// `replay()` call plus one per partitioned replay (its partition 0).
struct Counting<'a, S> {
    inner: &'a S,
    replays: AtomicUsize,
}

impl<S: EdgeSource> EdgeSource for Counting<'_, S> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn parts(&self) -> usize {
        self.inner.parts()
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.inner.replay(emit)
    }

    fn replay_part(
        &self,
        part: usize,
        parts: usize,
        emit: &mut ChunkFn<'_>,
    ) -> std::io::Result<()> {
        if part == 0 {
            self.replays.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.replay_part(part, parts, emit)
    }
}

/// (8) A build replays its source exactly twice — one count, one
/// scatter — on the partitioned and the sequential replay path alike.
#[test]
fn build_makes_exactly_two_replays() {
    let er = SpecSource::new(
        GraphSpec::ErdosRenyi {
            n: 3_000,
            m: 150_000,
        },
        9,
    );
    let ba = SpecSource::new(
        GraphSpec::BarabasiAlbert {
            n: 2_000,
            attach: 4,
        },
        9,
    );
    assert!(er.parts() > 1 && ba.parts() == 1);
    for src in [&er, &ba] {
        let counted = Counting {
            inner: src,
            replays: AtomicUsize::new(0),
        };
        build_compact(&counted).unwrap();
        assert_eq!(counted.replays.load(Ordering::Relaxed), 2);
    }
}

/// (9) One hub adjacent to every other vertex (degree > 16,384, the
/// parallel-sort threshold) plus a ring, both with duplicate pairs in
/// either direction: the build equals the arc-list oracle at widths 1, 2
/// and 4.
#[test]
fn hub_rows_equal_arc_list_oracle() {
    let n = 40_000u32;
    let mut pairs: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
    pairs.extend((1..n).step_by(3).map(|v| (v, 0)));
    pairs.extend((1..n).map(|v| (v, v % (n - 1) + 1)));
    pairs.extend((1..n).step_by(5).map(|v| (v % (n - 1) + 1, v)));
    let mut b = EdgeListBuilder::with_capacity(n as usize, pairs.len());
    b.extend_edges(pairs.iter().copied());
    let (offsets, neighbors) = reference_arrays(n as usize, &pairs);
    for t in [1, 2, 4] {
        let g = with_threads(t, || build_compact(&b).unwrap());
        assert!(g.max_degree() as usize > 1 << 14);
        assert_arrays_match(&g, &offsets, &neighbors);
    }
}

/// (10) Graphs spanning several scatter buckets (4,096 rows each) equal
/// the arc-list oracle at widths 1, 2 and 4: R-MAT 14/8 on the
/// partitioned and the sequential replay, BA 20k/5 on the one-part
/// replay, a buffered list with self-loops and duplicate pairs, and the
/// forced-wide offsets.
#[test]
fn multi_bucket_builds_equal_arc_list_oracle() {
    let rmat = SpecSource::new(
        GraphSpec::Rmat {
            scale: 14,
            edge_factor: 8,
        },
        3,
    );
    let ba = SpecSource::new(
        GraphSpec::BarabasiAlbert {
            n: 20_000,
            attach: 5,
        },
        3,
    );
    assert!(rmat.parts() > 1 && ba.parts() == 1);
    let oracle = |src: &SpecSource| reference_arrays(src.num_vertices(), &emitted(src, None));
    let (rmat_ref, ba_ref) = (oracle(&rmat), oracle(&ba));

    // Pseudo-random pairs over three-plus buckets, each repeated in the
    // other direction, plus a self-loop every seventh vertex.
    let n = 3 * 4_096 + 7;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as u32
    };
    let mut pairs: Vec<(u32, u32)> = (0..40_000).map(|_| (next(), next())).collect();
    let dups: Vec<_> = pairs.iter().map(|&(u, v)| (v, u)).collect();
    pairs.extend(dups);
    pairs.extend((0..n as u32).step_by(7).map(|v| (v, v)));
    let mut list = EdgeListBuilder::with_capacity(n, pairs.len());
    list.extend_edges(pairs.iter().copied());
    let list_ref = reference_arrays(n, &pairs);
    let (_, list_neighbors) = &list_ref;
    assert!(
        list_neighbors.len() < 2 * pairs.len(),
        "duplicates exercised"
    );

    for t in [1, 2, 4] {
        with_threads(t, || {
            for (g, what, (offsets, neighbors)) in [
                (
                    build_compact(&rmat).unwrap(),
                    "R-MAT partitioned",
                    &rmat_ref,
                ),
                (
                    build_compact(&Sequential(&rmat)).unwrap(),
                    "R-MAT sequential",
                    &rmat_ref,
                ),
                (
                    build_compact_with_offset_limit(&rmat, 0).unwrap().0,
                    "R-MAT wide",
                    &rmat_ref,
                ),
                (build_compact(&ba).unwrap(), "BA one part", &ba_ref),
                (build_compact(&list).unwrap(), "list", &list_ref),
                (
                    build_compact_with_offset_limit(&list, 0).unwrap().0,
                    "list wide",
                    &list_ref,
                ),
            ] {
                assert_eq!(&csr_offsets(&g), offsets, "{what} offsets at width {t}");
                assert_eq!(
                    g.raw_neighbors(),
                    &neighbors[..],
                    "{what} neighbors at width {t}"
                );
            }
        });
    }
}
