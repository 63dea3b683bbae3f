//! Representation-equivalence suite for the `GraphView` layer.
//!
//! The refactor's contract: every algorithm is generic over
//! [`pgc::graph::GraphView`] and produces **bit-identical** colorings on
//! any two representations of the same abstract graph. This suite pins
//! that down three ways:
//!
//! 1. all 21 algorithms agree between [`CompactCsr`]'s u32 offsets (the
//!    default) and its machine-word fallback for `2m ≥ u32::MAX`,
//! 2. [`InducedView`] agrees with a materialized induced subgraph on
//!    degrees, edges, and the colorings computed through it,
//! 3. a size check proves the compact layout really spends 4 bytes per
//!    offset entry when `2m < u32::MAX`.

use parallel_graph_coloring as pgc;
use pgc::color::{run, verify, Algorithm, Params};
use pgc::graph::builder::{from_edges, EdgeListBuilder};
use pgc::graph::gen::{generate, GraphSpec, SpecSource};
use pgc::graph::stream::build_compact_with_offset_limit;
use pgc::graph::transform::induced_subgraph;
use pgc::graph::{CompactCsr, EdgeSource, GraphView, InducedView};
use proptest::prelude::*;

/// Strategy: raw edge list + vertex count (dedup happens in the builder).
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| (n, edges))
    })
}

/// The same source built twice: 4-byte offsets and forced 8-byte ones.
fn small_and_wide(src: &impl EdgeSource) -> (CompactCsr, CompactCsr) {
    let (small, _) = build_compact_with_offset_limit(src, u32::MAX as usize).unwrap();
    let (wide, _) = build_compact_with_offset_limit(src, 0).unwrap();
    assert_eq!(small.offset_width(), 4);
    assert_eq!(wide.offset_width(), std::mem::size_of::<usize>());
    (small, wide)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) All 21 algorithms give bit-identical colorings on `CompactCsr`
    /// with 4-byte vs 8-byte offsets.
    #[test]
    fn all_algorithms_identical_across_representations(
        (n, edges) in arb_edges(40, 160),
        seed in 0u64..500,
    ) {
        let mut b = EdgeListBuilder::with_capacity(n, edges.len());
        b.extend_edges(edges.iter().copied());
        let (small, wide) = small_and_wide(&b);
        prop_assert_eq!(small.n(), wide.n());
        prop_assert_eq!(small.m(), wide.m());
        let params = Params { seed, ..Params::default() };
        for algo in Algorithm::all() {
            let s = run(&small, algo, &params);
            let w = run(&wide, algo, &params);
            verify::assert_proper(&small, &s.colors);
            prop_assert_eq!(
                &s.colors, &w.colors,
                "{} differs between small and wide offsets", algo.name()
            );
            prop_assert_eq!(s.num_colors, w.num_colors);
        }
    }

    /// (b) `InducedView` agrees with the materialized induced subgraph on
    /// degrees, edges, and resulting colorings.
    #[test]
    fn induced_view_matches_materialized_subgraph(
        (n, edges) in arb_edges(40, 160),
        keep_mod in 2u32..5,
        seed in 0u64..500,
    ) {
        let g = from_edges(n, &edges);
        let members: Vec<u32> = g.vertices().filter(|v| v % keep_mod != 0).collect();
        let view = InducedView::new(&g, &members);
        let (mat, map) = induced_subgraph(&g, &members);
        prop_assert_eq!(&map, &members, "ascending member order is preserved");

        // Structure: n, m, degrees, adjacency, edge list.
        prop_assert_eq!(view.n(), mat.n());
        prop_assert_eq!(view.m(), mat.m());
        prop_assert_eq!(view.max_degree(), mat.max_degree());
        for v in view.vertices() {
            prop_assert_eq!(view.degree(v), mat.degree(v));
            prop_assert_eq!(view.neighbors(v).collect::<Vec<_>>(), mat.neighbors(v).to_vec());
        }
        prop_assert_eq!(view.edges().collect::<Vec<_>>(), mat.edges().collect::<Vec<_>>());

        // Colorings through the view are bit-identical to colorings of the
        // materialized copy (spot-check one algorithm per class).
        let params = Params { seed, ..Params::default() };
        for algo in [
            Algorithm::GreedySd,
            Algorithm::JpAdg,
            Algorithm::SimCol,
            Algorithm::Itr,
            Algorithm::DecAdgItr,
        ] {
            let via_view = run(&view, algo, &params);
            let via_mat = run(&mat, algo, &params);
            verify::assert_proper(&mat, &via_view.colors);
            prop_assert_eq!(
                &via_view.colors, &via_mat.colors,
                "{} differs between InducedView and materialized G[U]", algo.name()
            );
        }
    }
}

/// (a) at realistic scale: the full algorithm registry on generated suite
/// proxies, small vs wide offsets, exact color vectors.
#[test]
fn generated_graphs_identical_across_representations() {
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
        let (small, wide) = small_and_wide(&SpecSource::new(spec.clone(), i as u64));
        for algo in Algorithm::all() {
            let s = run(&small, algo, &params);
            let w = run(&wide, algo, &params);
            assert_eq!(s.colors, w.colors, "{} on {spec:?}", algo.name());
        }
    }
}

/// (c) The compact layout provably stores 4-byte offsets for every graph
/// with `2m < u32::MAX`, and the footprint arithmetic matches the paper's
/// n-offsets + 2m-neighbors budget.
#[test]
fn compact_offsets_are_four_bytes() {
    let g = generate(
        &GraphSpec::Rmat {
            scale: 10,
            edge_factor: 8,
        },
        1,
    );
    assert!(g.num_arcs() < u32::MAX as usize);
    assert_eq!(g.offset_width(), 4, "u32 offsets expected");
    let fp = g.memory_footprint();
    assert_eq!(fp.offset_width, 4);
    assert_eq!(fp.offset_count, g.n() + 1);
    assert_eq!(fp.offset_bytes(), 4 * (g.n() + 1));
    assert_eq!(fp.neighbor_bytes(), 4 * g.num_arcs());
    // Half the offset memory of the wide fallback.
    let spec = GraphSpec::Rmat {
        scale: 10,
        edge_factor: 8,
    };
    let (wide, _) = build_compact_with_offset_limit(&SpecSource::new(spec, 1), 0).unwrap();
    let wide_fp = wide.memory_footprint();
    assert_eq!(wide_fp.offset_bytes(), 2 * fp.offset_bytes());
    assert_eq!(wide_fp.neighbor_bytes(), fp.neighbor_bytes());
}

/// Zero-copy recursion: mining's k-core and densest-subgraph views nest
/// and color without materializing, and agree with their materialized
/// counterparts.
#[test]
fn mining_views_color_identically() {
    let g = generate(&GraphSpec::BarabasiAlbert { n: 500, attach: 5 }, 7);
    let params = Params::default();

    let core = pgc::mining::kcore_view(&g, 3);
    assert!(core.n() > 0, "a BA graph with attach=5 has a 3-core");
    assert!(core.min_degree() >= 3, "k-core property");
    let mat = core.materialize();
    let a = run(&core, Algorithm::JpAdg, &params);
    let b = run(&mat, Algorithm::JpAdg, &params);
    assert_eq!(a.colors, b.colors);

    let (dense_view, result) = pgc::mining::densest_view(&g, 0.1);
    assert_eq!(dense_view.n(), result.vertices.len());
    assert_eq!(dense_view.m(), result.edges);
    let density = dense_view.m() as f64 / dense_view.n() as f64;
    assert!((density - result.density).abs() < 1e-9);

    // Views nest: the k-core of the densest view, still zero-copy.
    let inner = InducedView::new(&dense_view, &[0, 1, 2]);
    assert_eq!(inner.n(), 3);
    verify::assert_proper(&inner, &run(&inner, Algorithm::GreedyFf, &params).colors);
}
