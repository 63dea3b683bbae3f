//! The classic O(1)-rank orderings (FF, R, LF, LLF) and exact SL.
//!
//! All follow the paper's definitions (§IV-A): JP-R uses a random priority
//! function, JP-FF the natural order, JP-LF `ρ(v) = ⟨deg(v), ρ_R⟩`
//! lexicographically, JP-LLF `ρ = ⟨⌈log deg(v)⌉, ρ_R⟩`, and JP-SL
//! `ρ = ⟨ρ_SL, ρ_R⟩` with the exact degeneracy ordering `ρ_SL`.

use crate::{Levels, OrderingStats, VertexOrdering};
use pgc_graph::{degeneracy, GraphView};
use pgc_primitives::random_permutation;
use rayon::prelude::*;

/// Pack `(rank, tiebreak)` into the single-u64 priority encoding.
#[inline]
pub(crate) fn pack(rank: u32, tiebreak: u32) -> u64 {
    ((rank as u64) << 32) | tiebreak as u64
}

/// ⌈log₂ x⌉ with ⌈log₂ 0⌉ = ⌈log₂ 1⌉ = 0, as used by LLF/SLL.
#[inline]
pub fn ceil_log2(x: u32) -> u32 {
    if x <= 1 {
        0
    } else {
        32 - (x - 1).leading_zeros()
    }
}

/// First-fit: vertex 0 is colored first (highest priority).
pub fn first_fit<G: GraphView>(g: &G) -> VertexOrdering {
    let n = g.n();
    let rho: Vec<u64> = (0..n as u64).map(|v| (n as u64 - 1) - v).collect();
    VertexOrdering {
        rho,
        levels: None,
        stats: OrderingStats::default(),
    }
}

/// Uniformly random total order.
pub fn random<G: GraphView>(g: &G, seed: u64) -> VertexOrdering {
    let perm = random_permutation(g.n(), seed);
    VertexOrdering {
        rho: perm.into_iter().map(|p| p as u64).collect(),
        levels: None,
        stats: OrderingStats::default(),
    }
}

/// Largest-degree-first: `ρ(v) = ⟨deg(v), ρ_R⟩`.
pub fn largest_first<G: GraphView>(g: &G, seed: u64) -> VertexOrdering {
    let perm = random_permutation(g.n(), seed);
    let rho: Vec<u64> = g
        .vertices()
        .into_par_iter()
        .map(|v| pack(g.degree(v), perm[v as usize]))
        .collect();
    VertexOrdering {
        rho,
        levels: None,
        stats: OrderingStats::default(),
    }
}

/// Largest-log-degree-first: `ρ(v) = ⟨⌈log₂ deg(v)⌉, ρ_R⟩`. Coarsening the
/// degree to its logarithm randomizes within large degree classes, which is
/// what restores polylogarithmic depth relative to LF (Hasenplaugh et al.).
pub fn largest_log_first<G: GraphView>(g: &G, seed: u64) -> VertexOrdering {
    let perm = random_permutation(g.n(), seed);
    let rho: Vec<u64> = g
        .vertices()
        .into_par_iter()
        .map(|v| pack(ceil_log2(g.degree(v)), perm[v as usize]))
        .collect();
    VertexOrdering {
        rho,
        levels: None,
        stats: OrderingStats::default(),
    }
}

/// Smallest-degree-last: the exact degeneracy ordering via sequential
/// bucket peeling (Matula–Beck). Rank = removal position, so the earliest-
/// removed (lowest-degree) vertex is colored last. This is the quality
/// gold standard (d+1 colors with JP/Greedy) with Ω(n) depth — the
/// bottleneck ADG exists to break.
pub fn smallest_last<G: GraphView>(g: &G, seed: u64) -> VertexOrdering {
    let info = degeneracy::degeneracy(g);
    let n = g.n();
    let perm = random_permutation(n, seed);
    let rho: Vec<u64> = (0..n).map(|v| pack(info.removal_pos[v], perm[v])).collect();
    // Every removal position is its own level: the exact ordering is the
    // degenerate case of a partial ordering with singleton batches.
    let offsets: Vec<usize> = (0..=n).collect();
    VertexOrdering {
        rho,
        levels: Some(Levels {
            rank: info.removal_pos.clone(),
            seq: info.removal_order,
            offsets,
        }),
        stats: OrderingStats {
            iterations: n as u32,
            sum_active: (n as u64) * (n as u64 + 1) / 2,
            update_touches: 2 * g.m() as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_graph::builder::from_edges;
    use pgc_graph::gen::{generate, GraphSpec};

    #[test]
    fn ceil_log2_table() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(ceil_log2(u32::MAX), 32);
    }

    #[test]
    fn ff_is_reverse_id() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let o = first_fit(&g);
        assert!(o.rho[0] > o.rho[1] && o.rho[1] > o.rho[2]);
    }

    #[test]
    fn lf_ranks_by_degree() {
        // Star: center must outrank all leaves.
        let g = generate(&GraphSpec::Star { n: 10 }, 0);
        let o = largest_first(&g, 4);
        for v in 1..10 {
            assert!(o.rho[0] > o.rho[v]);
        }
    }

    #[test]
    fn llf_groups_degree_classes() {
        let g = generate(&GraphSpec::Star { n: 10 }, 0);
        let o = largest_log_first(&g, 4);
        // Center: ceil_log2(9) = 4; leaves: ceil_log2(1) = 0.
        assert_eq!(o.rho[0] >> 32, 4);
        for v in 1..10usize {
            assert_eq!(o.rho[v] >> 32, 0);
        }
    }

    #[test]
    fn sl_back_degree_equals_degeneracy() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 500, attach: 3 }, 8);
        let d = pgc_graph::degeneracy::degeneracy(&g).degeneracy;
        let o = smallest_last(&g, 1);
        // In the exact order, each vertex has at most d higher-ranked
        // neighbors; the bound is tight at the max.
        assert_eq!(crate::max_back_degree(&g, &o), d);
    }

    #[test]
    fn random_orders_differ_across_seeds() {
        let g = generate(&GraphSpec::Cycle { n: 50 }, 0);
        assert_ne!(random(&g, 1).rho, random(&g, 2).rho);
    }
}
