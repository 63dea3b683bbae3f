//! Approximate densest subgraph from ADG's peeling levels.
//!
//! Charikar's classic argument: greedily peel minimum-degree vertices and
//! return the intermediate subgraph with the highest density `m(U)/|U|` —
//! a 2-approximation. Batched peeling (exactly ADG's loop) loses only the
//! batch slack: with threshold `(1+ε)·δ̂`, the best *suffix* of the ADG
//! removal order is a `2(1+ε)`-approximate densest subgraph — this is the
//! structure of the `(2+ε)`-approximation of Dhulipala et al. \[61\] that
//! the paper points to as prior use of the same peeling pattern.
//!
//! Implementation: one O(m) pass assigns every edge to the *lower* of its
//! endpoint levels (the level at which the edge leaves the active
//! subgraph); suffix sums then give `m(U_ℓ)` for every level in O(ρ̄).

use pgc_graph::{GraphView, InducedView};
use pgc_order::{adg, AdgOptions, Levels, VertexOrdering};

/// Output of [`approx_densest_subgraph`].
#[derive(Clone, Debug)]
pub struct DensestResult {
    /// Vertices of the chosen subgraph (an ADG-order suffix).
    pub vertices: Vec<u32>,
    /// Number of edges induced by `vertices`.
    pub edges: usize,
    /// Density `edges / |vertices|` (Charikar's objective).
    pub density: f64,
    /// The level whose suffix was chosen.
    pub level: usize,
}

/// Density of the best suffix of a level ordering.
pub fn best_suffix<G: GraphView>(g: &G, levels: &Levels) -> DensestResult {
    let num = levels.num_levels();
    if num == 0 || g.n() == 0 {
        return DensestResult {
            vertices: Vec::new(),
            edges: 0,
            density: 0.0,
            level: 0,
        };
    }
    // edge_at[ℓ] = number of edges whose lower endpoint-level is ℓ (the
    // edge is alive in U_0..=U_ℓ and gone afterwards).
    let mut edges_leaving = vec![0usize; num];
    for (u, v) in g.edges() {
        let l = levels.rank[u as usize].min(levels.rank[v as usize]) as usize;
        edges_leaving[l] += 1;
    }
    // Suffix sums: m(U_ℓ) = edges with both endpoints at level ≥ ℓ.
    let mut m_suffix = vec![0usize; num + 1];
    let mut acc = 0usize;
    for (slot, &leaving) in m_suffix[..num].iter_mut().zip(&edges_leaving).rev() {
        acc += leaving;
        *slot = acc;
    }
    let n_total = g.n();
    let mut best = (0usize, 0.0f64);
    let mut removed_before = 0usize;
    for (l, &m_l) in m_suffix[..num].iter().enumerate() {
        let verts = n_total - removed_before;
        let density = m_l as f64 / verts as f64;
        if density > best.1 {
            best = (l, density);
        }
        removed_before += levels.level(l).len();
    }
    let (level, density) = best;
    let vertices: Vec<u32> = levels.seq[levels.offsets[level]..].to_vec();
    DensestResult {
        edges: m_suffix[level],
        density,
        level,
        vertices,
    }
}

/// Approximate densest subgraph via ADG peeling with accuracy ε.
///
/// Guarantee (Charikar + batch slack): the returned density is at least
/// `ρ* / (2(1+ε))` where `ρ*` is the optimum.
pub fn approx_densest_subgraph<G: GraphView>(g: &G, epsilon: f64) -> DensestResult {
    let _span = pgc_obs::span!("mining.densest");
    let ord: VertexOrdering = adg(g, &AdgOptions::with_epsilon(epsilon));
    best_suffix(g, ord.levels.as_ref().expect("ADG yields levels"))
}

/// [`approx_densest_subgraph`] returning the chosen subgraph as a
/// zero-copy [`InducedView`] (via [`Levels::suffix_view`]) instead of a
/// vertex list — downstream analysis (recounting, recursing, coloring the
/// dense core) runs directly on the view without materializing `G[U]`.
pub fn densest_view<G: GraphView>(g: &G, epsilon: f64) -> (InducedView<'_, G>, DensestResult) {
    let ord: VertexOrdering = adg(g, &AdgOptions::with_epsilon(epsilon));
    let levels = ord.levels.expect("ADG yields levels");
    let result = best_suffix(g, &levels);
    let view = if levels.num_levels() == 0 {
        InducedView::new(g, &[])
    } else {
        levels.suffix_view(g, result.level)
    };
    debug_assert_eq!(view.m(), result.edges);
    (view, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_graph::builder::from_edges;
    use pgc_graph::degeneracy::degeneracy;
    use pgc_graph::gen::{generate, GraphSpec};

    #[test]
    fn finds_planted_dense_core() {
        // K_20 (density 9.5) plus a long sparse path (density ~0.5).
        let mut edges = Vec::new();
        for u in 0..20u32 {
            for v in (u + 1)..20 {
                edges.push((u, v));
            }
        }
        for v in 20..400u32 {
            edges.push((v - 1, v));
        }
        let g = from_edges(400, &edges);
        let r = approx_densest_subgraph(&g, 0.01);
        assert!(r.density > 8.0, "density {} too low", r.density);
        // The chosen suffix must contain the clique.
        for v in 0..20u32 {
            assert!(r.vertices.contains(&v), "clique vertex {v} missing");
        }
    }

    #[test]
    fn density_within_charikar_bound() {
        // The optimum density is at least d/2 (the d-core has min degree
        // d, hence density ≥ d/2); our result must be within 2(1+ε).
        for (i, spec) in [
            GraphSpec::BarabasiAlbert { n: 800, attach: 6 },
            GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            GraphSpec::ErdosRenyi { n: 700, m: 3500 },
        ]
        .iter()
        .enumerate()
        {
            let g = generate(spec, i as u64);
            let eps = 0.1;
            let d = degeneracy(&g).degeneracy as f64;
            let r = approx_densest_subgraph(&g, eps);
            let lower = (d / 2.0) / (2.0 * (1.0 + eps));
            assert!(
                r.density + 1e-9 >= lower,
                "{spec:?}: density {} < guarantee {lower}",
                r.density
            );
        }
    }

    #[test]
    fn density_is_consistent_with_reported_members() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 500, attach: 5 }, 3);
        let r = approx_densest_subgraph(&g, 0.05);
        // Recount edges inside the returned vertex set.
        let mut inside = vec![false; g.n()];
        for &v in &r.vertices {
            inside[v as usize] = true;
        }
        let m = g
            .edges()
            .filter(|&(u, v)| inside[u as usize] && inside[v as usize])
            .count();
        assert_eq!(m, r.edges);
        assert!((r.density - m as f64 / r.vertices.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = pgc_graph::CompactCsr::empty(0);
        let r = approx_densest_subgraph(&g, 0.1);
        assert_eq!(r.density, 0.0);
        assert!(r.vertices.is_empty());
    }

    #[test]
    fn edgeless_graph_density_zero() {
        let g = pgc_graph::CompactCsr::empty(10);
        let r = approx_densest_subgraph(&g, 0.1);
        assert_eq!(r.edges, 0);
        assert_eq!(r.density, 0.0);
    }
}
