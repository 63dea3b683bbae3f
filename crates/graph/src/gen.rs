//! Seeded synthetic graph generators.
//!
//! The paper evaluates on SNAP / KONECT / DIMACS / WebGraph datasets
//! (Table V) plus Kronecker graphs for weak scaling (§VI-F, \[101\]). The
//! real datasets are not redistributable here, so each dataset *category*
//! gets a synthetic proxy spanning the same structural regime (see
//! DESIGN.md §5): the paper's bounds and comparisons are parameterized only
//! by `n`, `m`, `Δ`, and the degeneracy `d`, all of which these families
//! control.
//!
//! All generators are deterministic in `(spec, seed)` — which is exactly
//! what makes them streamable: [`SpecSource`] implements
//! [`EdgeSource`] by *re-running* the seeded generator on every replay, so
//! [`generate`] feeds the two-pass builder ([`crate::stream`]) without
//! ever buffering the edge list. Regeneration trades a second pass of
//! RNG work for ~8 bytes per raw edge of peak memory.
//!
//! That RNG work runs on every core. R-MAT draws exactly `scale` values
//! per edge, Erdős–Rényi two and k-out one, and SplitMix64's state is a
//! Weyl sequence, so [`SplitMix64::advance`] jumps to any edge's draws in
//! O(1): these three families split a replay into edge-index ranges
//! ([`EdgeSource::replay_part`], about one partition per
//! [`CHUNK_EDGES`] edges) that reproduce the sequential stream pair for
//! pair. The builder replays the partitions concurrently. Barabási–Albert (each
//! draw reads the endpoint list built so far) and the planted coloring
//! (rejection sampling: edge `e`'s draws depend on earlier rejections)
//! stay one sequential partition, as do the deterministic families.

use crate::compact::CompactCsr;
use crate::stream::{
    build_compact_with_stats, part_range, BuildStats, ChunkFn, EdgeSink, EdgeSource, CHUNK_EDGES,
};
use pgc_primitives::SplitMix64;
use std::ops::Range;

/// A recipe for a synthetic graph.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// Erdős–Rényi `G(n, m)`: `m` edges sampled uniformly (post-dedup count
    /// may be marginally smaller). Proxy for communication graphs (`m-*`).
    ErdosRenyi { n: usize, m: usize },
    /// Barabási–Albert preferential attachment: each new vertex attaches to
    /// `attach` existing vertices. Scale-free with degeneracy ≈ `attach` —
    /// proxy for social networks (`s-*`). Uses the repeated-endpoint list,
    /// so attachment is proportional to degree.
    BarabasiAlbert { n: usize, attach: usize },
    /// RMAT / stochastic-Kronecker (Graph500 parameters a=0.57, b=0.19,
    /// c=0.19): `n = 2^scale`, `m = n * edge_factor`. Proxy for hyperlink
    /// graphs (`h-*`) and the paper's weak-scaling workload \[101\].
    Rmat { scale: u32, edge_factor: usize },
    /// 2D grid (4-neighborhood), `rows × cols` vertices: planar, degeneracy
    /// 2 — proxy for road networks (`v-usa`).
    Grid2d { rows: usize, cols: usize },
    /// `cliques` cliques of `clique_size` vertices joined in a ring by
    /// single bridge edges. Dense clusters generate many speculative-
    /// coloring conflicts — the regime the paper calls out for `h-dsk` /
    /// `s-gmc` ("structure of some graphs (e.g., with dense clusters)
    /// entails many coloring conflicts").
    RingOfCliques { cliques: usize, clique_size: usize },
    /// Random `k`-partite graph: `n` vertices in `k` parts, `m` cross-part
    /// edges, hence chromatic number ≤ `k` (ground-truth quality).
    PlantedColoring { n: usize, k: u32, m: usize },
    /// Each vertex draws `k` random out-neighbors ("k-out"): near-regular,
    /// degeneracy ≤ 2k — proxy for topology graphs (`v-skt`).
    KOut { n: usize, k: usize },
    /// Complete graph `K_n` (worst case Δ = n-1 = d).
    Complete { n: usize },
    /// Simple path `P_n` (d = 1).
    Path { n: usize },
    /// Cycle `C_n` (d = 2, χ = 2 or 3).
    Cycle { n: usize },
    /// Star `K_{1,n-1}` (Δ = n-1 but d = 1: maximal Δ/d gap).
    Star { n: usize },
    /// `n` isolated vertices.
    Empty { n: usize },
}

impl GraphSpec {
    /// Number of vertices this spec will produce.
    pub fn n(&self) -> usize {
        match *self {
            GraphSpec::ErdosRenyi { n, .. }
            | GraphSpec::BarabasiAlbert { n, .. }
            | GraphSpec::PlantedColoring { n, .. }
            | GraphSpec::KOut { n, .. }
            | GraphSpec::Complete { n }
            | GraphSpec::Path { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Star { n }
            | GraphSpec::Empty { n } => n,
            GraphSpec::Rmat { scale, .. } => 1usize << scale,
            GraphSpec::Grid2d { rows, cols } => rows * cols,
            GraphSpec::RingOfCliques {
                cliques,
                clique_size,
            } => cliques * clique_size,
        }
    }

    /// Raw (pre-dedup) edge count one replay emits. Exact for every
    /// family except [`GraphSpec::PlantedColoring`], whose
    /// rejection-sampling guard may stop marginally short of `m`.
    pub fn raw_edge_hint(&self) -> usize {
        match *self {
            GraphSpec::ErdosRenyi { n, m } => {
                if n < 2 {
                    0
                } else {
                    m
                }
            }
            GraphSpec::BarabasiAlbert { n, attach } => {
                if n == 0 {
                    return 0;
                }
                let attach = attach.max(1);
                let core = attach.min(n);
                core * (core - 1) / 2 + (n - core) * attach
            }
            GraphSpec::Rmat { scale, edge_factor } => (1usize << scale) * edge_factor,
            GraphSpec::Grid2d { rows, cols } => {
                rows * cols.saturating_sub(1) + cols * rows.saturating_sub(1)
            }
            GraphSpec::RingOfCliques {
                cliques,
                clique_size,
            } => {
                let per = clique_size * clique_size.saturating_sub(1) / 2;
                cliques * per + if cliques > 1 { cliques } else { 0 }
            }
            GraphSpec::PlantedColoring { n, m, .. } => {
                if n < 2 {
                    0
                } else {
                    m
                }
            }
            GraphSpec::KOut { n, k } => {
                if n < 2 {
                    0
                } else {
                    n * k
                }
            }
            GraphSpec::Complete { n } => n * n.saturating_sub(1) / 2,
            GraphSpec::Path { n } => n.saturating_sub(1),
            GraphSpec::Cycle { n } => match n {
                0 | 1 => 0,
                2 => 1,
                _ => n,
            },
            GraphSpec::Star { n } => n.saturating_sub(1),
            GraphSpec::Empty { .. } => 0,
        }
    }
}

/// A generator as a streaming [`EdgeSource`]: every replay re-runs the
/// seeded generator, so the edge list is never buffered. Deterministic in
/// `(spec, seed)` by construction.
#[derive(Clone, Debug)]
pub struct SpecSource {
    spec: GraphSpec,
    seed: u64,
}

impl SpecSource {
    /// A source that regenerates `spec` with `seed` on every replay.
    pub fn new(spec: GraphSpec, seed: u64) -> Self {
        Self { spec, seed }
    }
}

impl SpecSource {
    /// The raw edge count of a family whose edge `e` is a pure function
    /// of `(seed, e)` — a fixed number of draws per edge, so any edge range
    /// starts with one [`SplitMix64::advance`]. `None` for the stateful
    /// (Barabási–Albert) and rejection-sampled (planted coloring)
    /// generators, and for the deterministic families, which are cheap
    /// enough to replay whole.
    fn partitioned_edges(&self) -> Option<usize> {
        match self.spec {
            GraphSpec::Rmat { .. } | GraphSpec::ErdosRenyi { .. } | GraphSpec::KOut { .. } => {
                Some(self.spec.raw_edge_hint())
            }
            _ => None,
        }
    }
}

impl EdgeSource for SpecSource {
    fn num_vertices(&self) -> usize {
        self.spec.n()
    }

    fn edge_hint(&self) -> Option<usize> {
        Some(self.spec.raw_edge_hint())
    }

    fn parts(&self) -> usize {
        self.partitioned_edges()
            .map_or(1, |m| m.div_ceil(CHUNK_EDGES).max(1))
    }

    fn buffered_bytes(&self) -> usize {
        // Most families regenerate statelessly, but Barabási–Albert keeps
        // its endpoint list alive for essentially a whole replay — as
        // good as resident, so it is charged into `build_bytes_peak`
        // rather than hidden as "scratch".
        match self.spec {
            GraphSpec::BarabasiAlbert { n, attach } => 2 * n * attach.max(1) * 4,
            _ => 0,
        }
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        self.replay_part(0, 1, emit)
    }

    fn replay_part(
        &self,
        part: usize,
        parts: usize,
        emit: &mut ChunkFn<'_>,
    ) -> std::io::Result<()> {
        let edges = match self.partitioned_edges() {
            Some(m) => part_range(m, part, parts),
            // Sequential families replay whole, as partition 0.
            None if part == 0 => 0..self.spec.raw_edge_hint(),
            None => return Ok(()),
        };
        let mut sink = EdgeSink::new(emit);
        emit_edges(&self.spec, self.seed, edges, &mut |u, v| sink.push(u, v));
        Ok(())
    }
}

/// Generate the graph described by `spec`, deterministically in `seed`.
pub fn generate(spec: &GraphSpec, seed: u64) -> CompactCsr {
    generate_with_stats(spec, seed).0
}

/// [`generate`], also returning the streaming-build instrumentation
/// (ingest time, peak build bytes) the harness prints in its tables.
pub fn generate_with_stats(spec: &GraphSpec, seed: u64) -> (CompactCsr, BuildStats) {
    build_compact_with_stats(&SpecSource::new(spec.clone(), seed))
        .expect("generator replay cannot fail")
}

/// [`generate`] into the delta-varint representation (the harness's
/// `--compressed` path): build the compact graph through the streaming
/// engine, then encode it, charging the converter's transient
/// allocations into `build_bytes_peak` so the peak-memory column
/// reflects the conversion that actually ran.
pub fn generate_compressed_with_stats(
    spec: &GraphSpec,
    seed: u64,
) -> (crate::compressed::CompressedCsr, BuildStats) {
    let (g, mut stats) = generate_with_stats(spec, seed);
    let c = crate::compressed::CompressedCsr::from_compact_with_stats(&g, &mut stats);
    (c, stats)
}

/// Run one seeded generation, pushing raw edges `edges` (by global edge
/// index) into `push`. Only the partitionable families (see
/// [`SpecSource::partitioned_edges`]) honor the range; the others are
/// only ever asked for everything and emit their whole stream.
fn emit_edges(spec: &GraphSpec, seed: u64, edges: Range<usize>, push: &mut impl FnMut(u32, u32)) {
    match *spec {
        GraphSpec::ErdosRenyi { n, .. } => erdos_renyi(n, seed, edges, push),
        GraphSpec::BarabasiAlbert { n, attach } => barabasi_albert(n, attach, seed, push),
        GraphSpec::Rmat { scale, .. } => rmat(scale, seed, edges, push),
        GraphSpec::Grid2d { rows, cols } => grid2d(rows, cols, push),
        GraphSpec::RingOfCliques {
            cliques,
            clique_size,
        } => ring_of_cliques(cliques, clique_size, push),
        GraphSpec::PlantedColoring { n, k, m } => planted_coloring(n, k, m, seed, push),
        GraphSpec::KOut { n, k } => k_out(n, k, seed, edges, push),
        GraphSpec::Complete { n } => complete(n, push),
        GraphSpec::Path { n } => path(n, push),
        GraphSpec::Cycle { n } => cycle(n, push),
        GraphSpec::Star { n } => star(n, push),
        GraphSpec::Empty { .. } => {}
    }
}

/// Edges `edges` of `G(n, m)`: two draws per edge.
fn erdos_renyi(n: usize, seed: u64, edges: Range<usize>, push: &mut impl FnMut(u32, u32)) {
    let mut rng = SplitMix64::new(seed ^ 0xE2D0);
    if n < 2 {
        return;
    }
    rng.advance((edges.start as u64).wrapping_mul(2));
    for _ in edges {
        let u = rng.below(n as u32);
        let v = rng.below(n as u32);
        push(u, v);
    }
}

fn barabasi_albert(n: usize, attach: usize, seed: u64, push: &mut impl FnMut(u32, u32)) {
    let mut rng = SplitMix64::new(seed ^ 0xBA0B);
    let attach = attach.max(1);
    if n == 0 {
        return;
    }
    // Endpoint list: each edge contributes both endpoints, so sampling a
    // uniform entry is sampling proportional to degree. This is generator
    // *state* (re-derived per replay), not an edge buffer.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * attach);
    let seed_core = attach.min(n);
    // Seed clique over the first `attach` vertices keeps early attachment
    // well-defined.
    for u in 0..seed_core as u32 {
        for v in (u + 1)..seed_core as u32 {
            push(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in seed_core as u32..n as u32 {
        for _ in 0..attach {
            let t = if endpoints.is_empty() {
                0
            } else {
                endpoints[rng.below(endpoints.len() as u32) as usize]
            };
            push(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
}

/// Edges `edges` of R-MAT: `scale` draws per edge, one quadrant each.
fn rmat(scale: u32, seed: u64, edges: Range<usize>, push: &mut impl FnMut(u32, u32)) {
    let (a, bb, c) = (0.57, 0.19, 0.19);
    let (ab, abc) = (a + bb, a + bb + c);
    let mut rng = SplitMix64::new(seed ^ 0x50A7);
    rng.advance((edges.start as u64).wrapping_mul(scale as u64));
    for _ in edges {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            // Quadrants [0,a) → (0,0), [a,a+b) → (0,1), [a+b,a+b+c) →
            // (1,0), rest → (1,1), as branch-free comparisons (the
            // quadrant is a coin flip the predictor cannot learn).
            let r = rng.f64();
            let ubit = (r >= ab) as u32;
            let vbit = (((r >= a) & (r < ab)) | (r >= abc)) as u32;
            u = (u << 1) | ubit;
            v = (v << 1) | vbit;
        }
        push(u, v);
    }
}

fn grid2d(rows: usize, cols: usize, push: &mut impl FnMut(u32, u32)) {
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                push(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                push(id(r, c), id(r + 1, c));
            }
        }
    }
}

fn ring_of_cliques(cliques: usize, clique_size: usize, push: &mut impl FnMut(u32, u32)) {
    for q in 0..cliques {
        let base = (q * clique_size) as u32;
        for i in 0..clique_size as u32 {
            for j in (i + 1)..clique_size as u32 {
                push(base + i, base + j);
            }
        }
        if cliques > 1 {
            // Bridge: last vertex of clique q to first vertex of clique q+1.
            let next_base = (((q + 1) % cliques) * clique_size) as u32;
            push(base + clique_size as u32 - 1, next_base);
        }
    }
}

fn planted_coloring(n: usize, k: u32, m: usize, seed: u64, push: &mut impl FnMut(u32, u32)) {
    let k = k.max(2);
    let mut rng = SplitMix64::new(seed ^ 0x9A27);
    if n < 2 {
        return;
    }
    // part(v) = v mod k; only cross-part edges, so coloring by part is
    // proper and χ(G) ≤ k.
    let mut placed = 0usize;
    let mut guard = 0usize;
    while placed < m && guard < 20 * m + 100 {
        guard += 1;
        let u = rng.below(n as u32);
        let v = rng.below(n as u32);
        if u % k != v % k {
            push(u, v);
            placed += 1;
        }
    }
}

/// Edges `edges` of k-out: edge `e` is vertex `e / k`'s draw, one each.
fn k_out(n: usize, k: usize, seed: u64, edges: Range<usize>, push: &mut impl FnMut(u32, u32)) {
    let mut rng = SplitMix64::new(seed ^ 0x0C07);
    if n < 2 {
        return;
    }
    rng.advance(edges.start as u64);
    for e in edges {
        let v = (e / k) as u32;
        let mut u = rng.below(n as u32);
        if u == v {
            u = (u + 1) % n as u32;
        }
        push(v, u);
    }
}

fn complete(n: usize, push: &mut impl FnMut(u32, u32)) {
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            push(u, v);
        }
    }
}

fn path(n: usize, push: &mut impl FnMut(u32, u32)) {
    for v in 1..n as u32 {
        push(v - 1, v);
    }
}

fn cycle(n: usize, push: &mut impl FnMut(u32, u32)) {
    if n >= 3 {
        for v in 1..n as u32 {
            push(v - 1, v);
        }
        push(n as u32 - 1, 0);
    } else if n == 2 {
        push(0, 1);
    }
}

fn star(n: usize, push: &mut impl FnMut(u32, u32)) {
    for v in 1..n as u32 {
        push(0, v);
    }
}

/// A named graph in the evaluation suite.
#[derive(Clone, Debug)]
pub struct SuiteGraph {
    /// Short name mirroring the paper's dataset symbol it proxies.
    pub name: &'static str,
    /// Which paper dataset/category this stands in for.
    pub proxies: &'static str,
    /// Generator recipe.
    pub spec: GraphSpec,
}

/// The evaluation suite: one proxy per dataset category of Table V, sized
/// for a single-node reproduction. `scale` ∈ {0: smoke-test, 1: default
/// evaluation, 2: large} multiplies workload sizes.
pub fn suite(scale: usize) -> Vec<SuiteGraph> {
    let s = match scale {
        0 => 1usize,
        1 => 8,
        _ => 24,
    };
    vec![
        SuiteGraph {
            name: "s-ork",
            proxies: "Orkut-like social (scale-free, heavy tail)",
            spec: GraphSpec::BarabasiAlbert {
                n: 6_000 * s,
                attach: 16,
            },
        },
        SuiteGraph {
            name: "s-pok",
            proxies: "Pokec-like social",
            spec: GraphSpec::BarabasiAlbert {
                n: 5_000 * s,
                attach: 10,
            },
        },
        SuiteGraph {
            name: "s-lib",
            proxies: "Libimseti-like dense social",
            spec: GraphSpec::BarabasiAlbert {
                n: 2_500 * s,
                attach: 40,
            },
        },
        SuiteGraph {
            name: "h-bai",
            proxies: "Baidu-like hyperlink (skewed RMAT)",
            spec: GraphSpec::Rmat {
                scale: 12 + scale as u32 * 2,
                edge_factor: 8,
            },
        },
        SuiteGraph {
            name: "h-wdb",
            proxies: "Wikipedia/DBpedia-like hyperlink",
            spec: GraphSpec::Rmat {
                scale: 11 + scale as u32 * 2,
                edge_factor: 16,
            },
        },
        SuiteGraph {
            name: "m-wta",
            proxies: "Wiki-talk-like communication (uniform)",
            spec: GraphSpec::ErdosRenyi {
                n: 6_000 * s,
                m: 30_000 * s,
            },
        },
        SuiteGraph {
            name: "v-usa",
            proxies: "USA-road-like planar mesh",
            spec: GraphSpec::Grid2d {
                rows: 70 * s.max(2),
                cols: 80 * s.max(2) / 2,
            },
        },
        SuiteGraph {
            name: "v-skt",
            proxies: "Skitter-like topology (near-regular)",
            spec: GraphSpec::KOut { n: 5_000 * s, k: 6 },
        },
        SuiteGraph {
            name: "s-gmc",
            proxies: "dense-cluster graph stressing conflicts",
            spec: GraphSpec::RingOfCliques {
                cliques: 60 * s,
                clique_size: 32,
            },
        },
        SuiteGraph {
            name: "l-dbl",
            proxies: "DBLP-like collaboration (bounded chi)",
            spec: GraphSpec::PlantedColoring {
                n: 5_000 * s,
                k: 24,
                m: 25_000 * s,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeListBuilder;
    use crate::degeneracy::degeneracy;

    #[test]
    fn all_specs_produce_valid_graphs() {
        let specs = [
            GraphSpec::ErdosRenyi { n: 200, m: 600 },
            GraphSpec::BarabasiAlbert { n: 200, attach: 4 },
            GraphSpec::Rmat {
                scale: 8,
                edge_factor: 6,
            },
            GraphSpec::Grid2d { rows: 9, cols: 13 },
            GraphSpec::RingOfCliques {
                cliques: 5,
                clique_size: 6,
            },
            GraphSpec::PlantedColoring {
                n: 150,
                k: 5,
                m: 500,
            },
            GraphSpec::KOut { n: 120, k: 3 },
            GraphSpec::Complete { n: 12 },
            GraphSpec::Path { n: 17 },
            GraphSpec::Cycle { n: 9 },
            GraphSpec::Star { n: 21 },
            GraphSpec::Empty { n: 8 },
        ];
        for spec in &specs {
            let g = generate(spec, 7);
            assert_eq!(g.n(), spec.n(), "{spec:?}");
            assert!(g.validate().is_ok(), "{spec:?}");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let spec = GraphSpec::Rmat {
            scale: 9,
            edge_factor: 8,
        };
        assert_eq!(generate(&spec, 3), generate(&spec, 3));
    }

    #[test]
    fn seeds_matter() {
        let spec = GraphSpec::ErdosRenyi { n: 300, m: 900 };
        assert_ne!(generate(&spec, 1), generate(&spec, 2));
    }

    #[test]
    fn raw_edge_hints_are_exact() {
        // Every family except PlantedColoring promises an exact hint.
        for spec in [
            GraphSpec::ErdosRenyi { n: 200, m: 600 },
            GraphSpec::BarabasiAlbert { n: 200, attach: 4 },
            GraphSpec::Rmat {
                scale: 7,
                edge_factor: 5,
            },
            GraphSpec::Grid2d { rows: 9, cols: 13 },
            GraphSpec::RingOfCliques {
                cliques: 5,
                clique_size: 6,
            },
            GraphSpec::KOut { n: 120, k: 3 },
            GraphSpec::Complete { n: 12 },
            GraphSpec::Path { n: 17 },
            GraphSpec::Cycle { n: 9 },
            GraphSpec::Cycle { n: 2 },
            GraphSpec::Star { n: 21 },
            GraphSpec::Empty { n: 8 },
        ] {
            let src = SpecSource::new(spec.clone(), 5);
            let mut emitted = 0usize;
            src.replay(&mut |c, _: &[()]| emitted += c.len()).unwrap();
            assert_eq!(emitted, spec.raw_edge_hint(), "{spec:?}");
        }
    }

    #[test]
    fn streaming_matches_buffered_replay() {
        // Regenerating per pass must produce the exact graph that
        // buffering every emitted edge produces.
        for spec in [
            GraphSpec::Rmat {
                scale: 8,
                edge_factor: 6,
            },
            GraphSpec::BarabasiAlbert { n: 300, attach: 5 },
            GraphSpec::PlantedColoring {
                n: 150,
                k: 5,
                m: 500,
            },
        ] {
            let src = SpecSource::new(spec.clone(), 42);
            let mut b = EdgeListBuilder::with_capacity(spec.n(), spec.raw_edge_hint());
            src.replay(&mut |chunk, _: &[()]| {
                for &(u, v) in chunk {
                    b.add_edge(u, v);
                }
            })
            .unwrap();
            assert_eq!(generate(&spec, 42), b.build(), "{spec:?}");
        }
    }

    #[test]
    fn generate_with_stats_reports_streaming_peak() {
        let spec = GraphSpec::Rmat {
            scale: 10,
            edge_factor: 8,
        };
        let (g, stats) = generate_with_stats(&spec, 3);
        assert_eq!(stats.raw_edges, spec.raw_edge_hint());
        assert_eq!(stats.hinted_edges, Some(stats.raw_edges));
        assert_eq!(stats.arcs, g.num_arcs());
        assert!(stats.build_bytes_peak < stats.arc_list_baseline_bytes());
    }

    #[test]
    fn grid_degrees_and_degeneracy() {
        let g = generate(&GraphSpec::Grid2d { rows: 10, cols: 10 }, 0);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.m(), 2 * 10 * 9);
        assert_eq!(degeneracy(&g).degeneracy, 2);
    }

    #[test]
    fn complete_graph_m() {
        let g = generate(&GraphSpec::Complete { n: 10 }, 0);
        assert_eq!(g.m(), 45);
        assert_eq!(g.min_degree(), 9);
    }

    #[test]
    fn ba_degeneracy_near_attach() {
        let g = generate(
            &GraphSpec::BarabasiAlbert {
                n: 2_000,
                attach: 5,
            },
            11,
        );
        let d = degeneracy(&g).degeneracy;
        // BA graphs have degeneracy exactly `attach` (up to seed-clique
        // effects and dedup losses).
        assert!((3..=6).contains(&d), "d = {d}");
        // Heavy tail: max degree far above average.
        assert!(g.max_degree() as f64 > 4.0 * g.avg_degree());
    }

    #[test]
    fn ring_of_cliques_structure() {
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 4,
                clique_size: 5,
            },
            0,
        );
        assert_eq!(g.n(), 20);
        // Each clique: C(5,2)=10 edges, plus 4 bridges.
        assert_eq!(g.m(), 44);
        assert_eq!(degeneracy(&g).degeneracy, 4);
    }

    #[test]
    fn planted_coloring_is_k_partite() {
        let k = 7u32;
        let g = generate(&GraphSpec::PlantedColoring { n: 300, k, m: 1500 }, 5);
        for (u, v) in g.edges() {
            assert_ne!(u % k, v % k, "edge within a part");
        }
    }

    #[test]
    fn star_extreme_gap() {
        let g = generate(&GraphSpec::Star { n: 100 }, 0);
        assert_eq!(g.max_degree(), 99);
        assert_eq!(degeneracy(&g).degeneracy, 1);
    }

    #[test]
    fn suite_sizes_scale() {
        let small = suite(0);
        let default = suite(1);
        assert_eq!(small.len(), default.len());
        for (a, b) in small.iter().zip(&default) {
            assert_eq!(a.name, b.name);
            assert!(a.spec.n() <= b.spec.n());
        }
        // Smoke-test that every suite member generates.
        for sg in &small {
            let g = generate(&sg.spec, 1);
            assert!(g.n() > 0);
            assert!(g.validate().is_ok(), "{}", sg.name);
        }
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        for spec in [
            GraphSpec::ErdosRenyi { n: 0, m: 10 },
            GraphSpec::ErdosRenyi { n: 1, m: 10 },
            GraphSpec::BarabasiAlbert { n: 1, attach: 3 },
            GraphSpec::KOut { n: 1, k: 2 },
            GraphSpec::Cycle { n: 2 },
            GraphSpec::Cycle { n: 1 },
            GraphSpec::Path { n: 0 },
            GraphSpec::Star { n: 1 },
            GraphSpec::Complete { n: 0 },
            GraphSpec::PlantedColoring { n: 1, k: 3, m: 5 },
        ] {
            let g = generate(&spec, 1);
            assert!(g.validate().is_ok(), "{spec:?}");
        }
    }
}
