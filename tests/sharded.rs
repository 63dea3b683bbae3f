//! Integration suite for vertex-range-sharded graphs
//! (`pgc::graph::sharded::ShardedCsr`).
//!
//! The sharded representation's contract, pinned from outside the crate:
//!
//! 1. **Structural equivalence** — a `ShardedCsr` built from any edge
//!    source exposes the exact same `GraphView` as the monolithic
//!    `CompactCsr` of the same source: n, m, per-vertex degrees, full
//!    sorted adjacency, Δ and δ — at every shard count, including the
//!    degenerate 1-shard split.
//! 2. **Algorithm transparency** — all coloring algorithms produce
//!    bit-identical colorings on a `ShardedCsr` vs the `CompactCsr`.
//!    Sharding is a layout detail, never a semantic change. JP-ADG and
//!    the longest `Gρ` path likewise match the monolithic graph's at
//!    1/2/4 shards (thread widths are covered by the CI `PGC_THREADS`
//!    matrix running this whole file).
//! 3. **Spill fidelity** — spill-mode builds (per-shard `.pgcs`
//!    snapshots, mmap-reopened) serve the same graph as resident builds,
//!    and their `build_bytes_peak` is a true high-water mark across the
//!    per-shard scatters (a max, never a sum): it *drops* as the shard
//!    count grows, and on a ≥1M-edge graph a 4-shard spill build peaks
//!    below 60% of the monolithic build.

use parallel_graph_coloring as pgc;
use pgc::color::{run, verify, Algorithm, Params};
use pgc::graph::builder::{from_edges, EdgeListBuilder};
use pgc::graph::gen::{generate_sharded_with_stats, generate_with_stats, GraphSpec};
use pgc::graph::sharded::{build_sharded_with_stats, ShardOptions, ShardedCsr};
use pgc::graph::GraphView;
use pgc::order::{adg, AdgOptions};
use proptest::prelude::*;

/// Strategy: raw edge list + vertex count (dedup happens in the builder).
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| (n, edges))
    })
}

/// Build a `ShardedCsr` from a raw edge list through the same streaming
/// engine the monolithic builder uses.
fn shard_edges(n: usize, edges: &[(u32, u32)], opts: &ShardOptions) -> ShardedCsr {
    let mut b = EdgeListBuilder::new(n);
    b.extend_edges(edges.iter().copied());
    build_sharded_with_stats(&b, opts)
        .expect("in-memory replay cannot fail")
        .0
}

/// Structural equality between any two `GraphView`s: n, m, Δ, δ, degrees,
/// and full adjacency.
fn assert_same_graph<A: GraphView, B: GraphView>(a: &A, b: &B) {
    assert_eq!(a.n(), b.n());
    assert_eq!(a.m(), b.m());
    assert_eq!(a.max_degree(), b.max_degree(), "Δ mismatch");
    assert_eq!(a.min_degree(), b.min_degree(), "δ mismatch");
    for v in a.vertices() {
        assert_eq!(a.degree(v), b.degree(v), "degree mismatch at v={v}");
        assert_eq!(
            a.neighbors(v).collect::<Vec<_>>(),
            b.neighbors(v).collect::<Vec<_>>(),
            "adjacency mismatch at v={v}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1: sharded ≡ monolithic on degrees, neighbors, Δ, δ —
    /// for shard counts spanning degenerate, even, and oversubscribed.
    #[test]
    fn sharded_structure_matches_monolithic((n, edges) in arb_edges(48, 256)) {
        let mono = from_edges(n, &edges);
        for shards in [1usize, 2, 3, 7, 64] {
            let sharded = shard_edges(n, &edges, &ShardOptions::resident(shards));
            assert_same_graph(&mono, &sharded);
            // Shard invariants: boundaries tile [0, n], halo arcs are
            // exactly the cross-shard arcs.
            let bounds = sharded.boundaries();
            prop_assert_eq!(bounds.len(), sharded.num_shards() + 1);
            prop_assert_eq!(bounds[0], 0);
            prop_assert_eq!(*bounds.last().unwrap() as usize, n);
            prop_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
            let cross = mono
                .vertices()
                .flat_map(|v| GraphView::neighbors(&mono, v).map(move |u| (v, u)))
                .filter(|&(v, u)| sharded.shard_of(v) != sharded.shard_of(u))
                .count();
            prop_assert_eq!(sharded.halo_arcs(), cross);
        }
    }

    /// Contract 1 (degenerate): a 1-shard split is the monolithic graph —
    /// no halo, and `to_compact` reproduces the `CompactCsr` exactly.
    #[test]
    fn one_shard_degenerates_to_monolithic((n, edges) in arb_edges(40, 160)) {
        let mono = from_edges(n, &edges);
        let sharded = shard_edges(n, &edges, &ShardOptions::resident(1));
        prop_assert_eq!(sharded.num_shards(), 1);
        prop_assert_eq!(sharded.halo_arcs(), 0);
        assert_same_graph(&mono, &sharded);
        assert_same_graph(&mono, &sharded.to_compact());
    }
}

/// Contract 2: every registered algorithm colors the sharded graph
/// bit-identically to the monolithic one (same seed, same params).
#[test]
fn all_algorithms_bit_identical_on_sharded_graph() {
    let spec = GraphSpec::RingOfCliques {
        cliques: 12,
        clique_size: 9,
    };
    let (mono, _) = generate_with_stats(&spec, 7);
    let (sharded, _) = generate_sharded_with_stats(&spec, 7, &ShardOptions::resident(3));
    assert_same_graph(&mono, &sharded);
    let params = Params::default();
    for algo in Algorithm::all() {
        let a = run(&mono, algo, &params);
        let b = run(&sharded, algo, &params);
        assert_eq!(
            a.colors, b.colors,
            "{algo:?} diverges on ShardedCsr vs CompactCsr"
        );
        assert_eq!(a.num_colors, b.num_colors, "{algo:?}");
        verify::assert_proper(&sharded, &b.colors);
    }
}

/// Contract 2: JP-ADG through the registry colors the sharded graph like
/// the monolithic one, and the longest `Gρ` path — the round count of a
/// level-by-level schedule — is the same on both, at 1/2/4 shards. Thread
/// widths come from the CI `PGC_THREADS` matrix.
#[test]
fn sharded_jp_rounds_bit_identical_at_1_2_4_shards() {
    let spec = GraphSpec::Rmat {
        scale: 10,
        edge_factor: 8,
    };
    let params = Params::default();
    let (mono, _) = generate_with_stats(&spec, 21);
    let ord = adg(&mono, &AdgOptions::default());
    let base_colors = run(&mono, Algorithm::JpAdg, &params).colors;
    let base_rounds = pgc::color::jp::dag_longest_path(&mono, &ord.rho);
    for shards in [1usize, 2, 4] {
        let (sharded, _) = generate_sharded_with_stats(&spec, 21, &ShardOptions::resident(shards));
        let colors = run(&sharded, Algorithm::JpAdg, &params).colors;
        assert_eq!(
            colors, base_colors,
            "sharded JP-ADG diverges at {shards} shard(s)"
        );
        let rounds = pgc::color::jp::dag_longest_path(&sharded, &ord.rho);
        assert_eq!(rounds, base_rounds, "round count at {shards} shard(s)");
    }
}

/// Unique temp directory for spill snapshots, removed on drop (also on
/// panic).
struct SpillDir(std::path::PathBuf);

impl SpillDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pgc-sharded-{tag}-{}", std::process::id()));
        Self(dir)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Contract 3: spill-mode builds snapshot every shard, mmap-reopen them,
/// and serve the identical graph — structure and colorings both.
#[test]
fn spill_and_mmap_reopen_round_trip() {
    let spec = GraphSpec::BarabasiAlbert { n: 600, attach: 5 };
    let (mono, _) = generate_with_stats(&spec, 13);
    let dir = SpillDir::new("roundtrip");
    let (spilled, _) = generate_sharded_with_stats(&spec, 13, &ShardOptions::spilling(4, &dir.0));
    for s in 0..spilled.num_shards() {
        assert!(spilled.is_spilled(s), "shard {s} should be mmap-backed");
    }
    assert_same_graph(&mono, &spilled);
    let params = Params::default();
    for algo in [Algorithm::JpAdg, Algorithm::SimCol] {
        let a = run(&mono, algo, &params);
        let b = run(&spilled, algo, &params);
        assert_eq!(a.colors, b.colors, "{algo:?} diverges on spilled shards");
    }
}

/// Contract 3 / satellite: `build_bytes_peak` is a high-water mark across
/// the per-shard scatters (max, not sum) — so on a ≥1M-edge graph it
/// *shrinks* as spill-mode shard counts grow, and a 4-shard spill build
/// peaks below 60% of the monolithic build. (A summed ledger would stay
/// flat at ~the monolithic figure regardless of shard count.)
#[test]
fn spill_peak_is_high_water_not_sum() {
    // 1024 cliques of 46 ⇒ 1024 · C(46,2) = 1,059,840 raw edges ≥ 1M.
    let spec = GraphSpec::RingOfCliques {
        cliques: 1024,
        clique_size: 46,
    };
    let (mono, mono_stats) = generate_with_stats(&spec, 3);
    assert!(mono.m() >= 1_000_000, "workload must exceed 1M edges");
    let dir = SpillDir::new("peak");
    let peak_at = |shards: usize| {
        let (g, stats) = generate_sharded_with_stats(
            &spec,
            3,
            &ShardOptions::spilling(shards, dir.0.join(format!("s{shards}"))),
        );
        assert_eq!(g.m(), mono.m());
        stats.build_bytes_peak
    };
    let p2 = peak_at(2);
    let p4 = peak_at(4);
    assert!(
        p4 < p2,
        "peak must drop with more spill shards (max, not sum): 4-shard {p4} vs 2-shard {p2}"
    );
    let mono_peak = mono_stats.build_bytes_peak;
    assert!(
        (p4 as f64) < 0.6 * mono_peak as f64,
        "4-shard spill peak {p4} must be < 60% of monolithic peak {mono_peak}"
    );
}
