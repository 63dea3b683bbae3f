//! Property suite for the payload-generic weighted graph layer (PR 5).
//!
//! Three contracts:
//!
//! 1. **Builder equivalence** — the weighted streaming two-pass build
//!    (weights scattered through the shared cursors, co-permuted by the
//!    per-vertex sort, duplicates merged by max) agrees with a buffered
//!    reference oracle on offsets, neighbors, *and* weights — and the
//!    structural arrays are bit-identical to the unweighted build of the
//!    same pair stream (the zero-regression claim).
//! 2. **Coloring transparency** — all 21 coloring algorithms produce
//!    bit-identical colorings on a weighted graph and on its unweighted
//!    projection: weights are invisible to `GraphView` consumers.
//! 3. **Matching quality** — parallel greedy weighted matching returns a
//!    valid matching whose weight is at least ½ of the brute-force
//!    maximum-weight matching on small graphs.

use parallel_graph_coloring as pgc;
use pgc::color::{run, Algorithm, Params};
use pgc::graph::builder::{from_edges, EdgeListBuilder};
use pgc::graph::gen::{generate, generate_weighted, GraphSpec};
use pgc::graph::stream::{
    build_weighted_with_offset_limit, build_weighted_with_stats, ChunkFn, EdgeSource,
};
use pgc::graph::{GraphView, WeightedCsr, WeightedView};
use pgc::mining::{greedy_weighted_matching, verify_matching};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A weighted in-memory source that replays in deliberately tiny chunks
/// (chunk-boundary handling is part of what we are testing).
struct ChunkedSource {
    n: usize,
    edges: Vec<(u32, u32, u32)>,
}

impl EdgeSource<u32> for ChunkedSource {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn replay(&self, emit: &mut ChunkFn<'_, u32>) -> std::io::Result<()> {
        for chunk in self.edges.chunks(3) {
            let pairs: Vec<(u32, u32)> = chunk.iter().map(|&(u, v, _)| (u, v)).collect();
            let weights: Vec<u32> = chunk.iter().map(|&(_, _, w)| w).collect();
            emit(&pairs, &weights);
        }
        Ok(())
    }
}

/// Buffered oracle: symmetrize loop-free arcs into a map keyed `(u, v)`,
/// merging duplicate arcs by max weight, then lay out CSR arrays in
/// sorted order.
fn reference_weighted(n: usize, edges: &[(u32, u32, u32)]) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
    let mut arcs: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for &(u, v, w) in edges {
        if u == v {
            continue;
        }
        for key in [(u, v), (v, u)] {
            arcs.entry(key)
                .and_modify(|cur| *cur = (*cur).max(w))
                .or_insert(w);
        }
    }
    let mut offsets = vec![0usize; n + 1];
    let mut neighbors = Vec::with_capacity(arcs.len());
    let mut weights = Vec::with_capacity(arcs.len());
    for (&(u, v), &w) in &arcs {
        offsets[u as usize + 1] += 1;
        neighbors.push(v);
        weights.push(w);
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    (offsets, neighbors, weights)
}

fn assert_weighted_arrays(g: &WeightedCsr<u32>, n: usize, edges: &[(u32, u32, u32)]) {
    let (ref_offsets, ref_neighbors, ref_weights) = reference_weighted(n, edges);
    let s = g.structure();
    let mut offsets: Vec<usize> = s.vertices().map(|v| s.arc_range(v).start).collect();
    offsets.push(s.num_arcs());
    assert_eq!(offsets, ref_offsets, "offsets differ");
    assert_eq!(s.raw_neighbors(), &ref_neighbors[..], "neighbors differ");
    assert_eq!(g.raw_weights(), &ref_weights[..], "weights differ");
}

/// Strategy: raw weighted edge list + vertex count (loops/dups exercised
/// on purpose — duplicate weights must merge by max).
fn arb_weighted_edges(
    max_n: usize,
    max_m: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..100), 0..=max_m)
            .prop_map(move |edges| (n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (1a) Weighted streaming build ≡ buffered oracle on offsets,
    /// neighbors, and weights — through the chunked streaming source at
    /// both offset widths and through the buffered builder.
    #[test]
    fn weighted_streaming_build_matches_buffered_oracle(
        (n, edges) in arb_weighted_edges(40, 160),
    ) {
        let src = ChunkedSource { n, edges: edges.clone() };
        let (g, stats) = build_weighted_with_stats(&src).unwrap();
        assert_weighted_arrays(&g, n, &edges);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(stats.weight_width, 4);
        let (wide, _) = build_weighted_with_offset_limit(&src, 0).unwrap();
        prop_assert_eq!(wide.structure().offset_width(), std::mem::size_of::<usize>());
        assert_weighted_arrays(&wide, n, &edges);

        let mut b = EdgeListBuilder::<u32>::with_capacity(n, edges.len());
        b.extend_weighted_edges(edges.iter().copied());
        assert_weighted_arrays(&b.build_weighted(), n, &edges);
    }

    /// (1b) The structural arrays of a weighted build are bit-identical
    /// to the unweighted build of the same pair stream, and `W = ()`
    /// charges zero weight bytes (zero-regression by construction).
    #[test]
    fn weighted_structure_is_bit_identical_to_unweighted(
        (n, edges) in arb_weighted_edges(40, 160),
    ) {
        let src = ChunkedSource { n, edges: edges.clone() };
        let (g, _) = build_weighted_with_stats(&src).unwrap();
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let unweighted = from_edges(n, &pairs);
        prop_assert_eq!(g.structure(), &unweighted);
        prop_assert_eq!(g.memory_footprint().weight_bytes, g.num_arcs() * 4);
        prop_assert_eq!(unweighted.memory_footprint().weight_bytes, 0);

        // Weight symmetry and max-merge reachability: every stored
        // weight must be one of the input weights of that edge.
        for (u, v, w) in g.weighted_edges() {
            prop_assert_eq!(g.edge_weight(v, u), Some(w));
            prop_assert!(edges.iter().any(|&(a, b, x)| x == w
                && ((a, b) == (u, v) || (a, b) == (v, u))));
        }
    }

    /// (3) Greedy weighted matching: valid, deterministic, and ≥ ½ of
    /// the brute-force maximum-weight matching.
    #[test]
    fn matching_is_valid_and_half_optimal(
        (n, edges) in arb_weighted_edges(9, 14),
    ) {
        let src = ChunkedSource { n, edges: edges.clone() };
        let (g, _) = build_weighted_with_stats(&src).unwrap();
        let m = greedy_weighted_matching(&g);
        prop_assert!(verify_matching(&g, &m).is_ok(), "{:?}", verify_matching(&g, &m));

        // Brute force over the deduped edge set (≤ ~36 edges on n ≤ 9,
        // with heavy pruning from the used-vertex mask).
        let dedup: Vec<(u32, u32, u32)> = g.weighted_edges().collect();
        let opt = brute_force_max_matching(&dedup, 0, 0);
        prop_assert!(
            2.0 * m.total_weight + 1e-6 >= opt,
            "matching weight {} < half of optimum {}",
            m.total_weight,
            opt
        );
    }
}

/// Exact maximum-weight matching by branch-and-bound recursion over the
/// edge list with a used-vertex bitmask.
fn brute_force_max_matching(edges: &[(u32, u32, u32)], i: usize, used: u64) -> f64 {
    if i == edges.len() {
        return 0.0;
    }
    let (u, v, w) = edges[i];
    // Skip edge i.
    let mut best = brute_force_max_matching(edges, i + 1, used);
    // Take edge i if both endpoints are free.
    if used & (1 << u) == 0 && used & (1 << v) == 0 {
        best =
            best.max(w as f64 + brute_force_max_matching(edges, i + 1, used | (1 << u) | (1 << v)));
    }
    best
}

/// (2) All 21 coloring algorithms are bit-identical on a weighted graph
/// vs its unweighted projection: weights never leak into `GraphView`.
#[test]
fn all_algorithms_color_weighted_and_projection_identically() {
    let params = Params::default();
    for (i, spec) in [
        GraphSpec::BarabasiAlbert { n: 220, attach: 5 },
        GraphSpec::ErdosRenyi { n: 260, m: 900 },
        GraphSpec::RingOfCliques {
            cliques: 6,
            clique_size: 8,
        },
    ]
    .iter()
    .enumerate()
    {
        let seed = 11 + i as u64;
        let wg = generate_weighted::<f32>(spec, seed);
        let plain = generate(spec, seed);
        assert_eq!(wg.structure(), &plain, "{spec:?}: structures diverge");
        let algos = Algorithm::all();
        assert_eq!(algos.len(), 21, "the full algorithm roster");
        for algo in algos {
            let a = run(&wg, algo, &params);
            let b = run(&plain, algo, &params);
            assert_eq!(
                a.colors, b.colors,
                "{algo:?} colors weighted {spec:?} differently"
            );
            pgc::color::verify::assert_proper(&wg, &a.colors);
        }
    }
}

/// Acceptance: weighted streaming peak memory stays below the weighted
/// arc-list baseline on a generator-sourced build.
#[test]
fn weighted_streaming_peak_beats_weighted_arc_list_baseline() {
    let spec = GraphSpec::Rmat {
        scale: 10,
        edge_factor: 8,
    };
    let (g, stats) = pgc::graph::gen::generate_weighted_with_stats::<f32>(&spec, 3);
    assert_eq!(stats.arcs, g.num_arcs());
    assert_eq!(stats.weight_width, 4);
    assert!(
        stats.build_bytes_peak < stats.arc_list_baseline_bytes(),
        "weighted peak {} must beat the weighted arc-list baseline {}",
        stats.build_bytes_peak,
        stats.arc_list_baseline_bytes()
    );
}

/// The weighted workloads agree between the zero-copy suffix view and
/// the reported result, end to end from generated weights.
#[test]
fn weighted_densest_view_is_consistent_end_to_end() {
    let g = generate_weighted::<f64>(&GraphSpec::BarabasiAlbert { n: 500, attach: 6 }, 21);
    let (view, r) = pgc::mining::weighted_densest_view(&g, 0.1);
    assert_eq!(view.n(), r.vertices.len());
    assert!((view.total_weight() - r.total_weight).abs() < 1e-6);
    assert!(r.density > 0.0);
    // The view is itself a WeightedView: match the dense core directly
    // on it, without materializing.
    let m = greedy_weighted_matching(&view);
    verify_matching(&view, &m).unwrap();
}
