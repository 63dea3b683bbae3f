//! Exact degeneracy, coreness, and the smallest-degree-last order (§II-B).
//!
//! "Both degeneracy and a degeneracy ordering of G can be computed in linear
//! time by sequentially removing vertices of smallest degree" — Matula &
//! Beck's bucket-queue peeling. This module is the ground truth for:
//!
//! * the exact degeneracy `d` appearing in every quality bound of the paper
//!   (`2(1+ε)d + 1`, `(2+ε)d`, `4d + 1`, `d + 1`),
//! * the SL ordering baseline (JP-SL, Greedy-SL),
//! * per-vertex coreness (used by tests to cross-check `d = max coreness`).

use crate::view::GraphView;

/// Output of the exact peeling pass.
#[derive(Clone, Debug)]
pub struct DegeneracyInfo {
    /// The degeneracy `d` of the graph: the smallest `s` such that every
    /// induced subgraph has a vertex of degree ≤ `s`.
    pub degeneracy: u32,
    /// Vertices in removal order (smallest residual degree first). In the
    /// *degeneracy ordering*, each vertex has at most `d` neighbors that
    /// appear **later** in this sequence.
    pub removal_order: Vec<u32>,
    /// `removal_pos[v]` = index of `v` in `removal_order`.
    pub removal_pos: Vec<u32>,
    /// `coreness[v]` = the largest `k` such that `v` belongs to a `k`-core.
    pub coreness: Vec<u32>,
}

/// Linear-time `O(n + m)` bucket peeling (Matula–Beck / Batagelj–Zaveršnik).
pub fn degeneracy<G: GraphView>(g: &G) -> DegeneracyInfo {
    let n = g.n();
    if n == 0 {
        return DegeneracyInfo {
            degeneracy: 0,
            removal_order: Vec::new(),
            removal_pos: Vec::new(),
            coreness: Vec::new(),
        };
    }
    let mut deg: Vec<u32> = g.degree_array();
    let max_deg = g.max_degree() as usize;

    // Bucket sort vertices by degree: `bin[d]` = start of degree-d block in
    // `vert`; `pos[v]` = index of v in `vert`.
    let mut bin = vec![0u32; max_deg + 2];
    for &d in &deg {
        bin[d as usize + 1] += 1;
    }
    for i in 0..=max_deg {
        bin[i + 1] += bin[i];
    }
    let mut vert = vec![0u32; n];
    let mut pos = vec![0u32; n];
    {
        let mut cursor = bin.clone();
        for v in 0..n as u32 {
            let d = deg[v as usize] as usize;
            pos[v as usize] = cursor[d];
            vert[cursor[d] as usize] = v;
            cursor[d] += 1;
        }
    }

    let mut coreness = vec![0u32; n];
    let mut d_max = 0u32;
    // Peel in order of current minimum degree. Only neighbors with a
    // *strictly larger* current degree are decremented (Batagelj–Zaveršnik):
    // equal-degree neighbors belong to the same shell, and touching them
    // would break the degree-partitioned layout of `vert`.
    for i in 0..n {
        let v = vert[i];
        let dv = deg[v as usize];
        coreness[v as usize] = dv;
        d_max = d_max.max(dv);
        for u in g.neighbors(v) {
            let du = deg[u as usize];
            if du > dv {
                // Swap `u` with the head of its degree bucket, then shrink
                // the bucket — O(1) per decrement.
                let bucket_head = bin[du as usize];
                let w = vert[bucket_head as usize];
                if u != w {
                    let pu = pos[u as usize];
                    vert.swap(bucket_head as usize, pu as usize);
                    pos[u as usize] = bucket_head;
                    pos[w as usize] = pu;
                }
                bin[du as usize] += 1;
                deg[u as usize] = du - 1;
            }
        }
    }

    let mut removal_pos = vec![0u32; n];
    for (i, &v) in vert.iter().enumerate() {
        removal_pos[v as usize] = i as u32;
    }
    DegeneracyInfo {
        degeneracy: d_max,
        removal_order: vert,
        removal_pos,
        coreness,
    }
}

/// Verify the defining property of a degeneracy ordering: every vertex has
/// at most `k` neighbors that appear later in `removal_order`. Returns the
/// maximum such "forward degree" (which equals the degeneracy when the
/// order is exact).
pub fn max_forward_degree<G: GraphView>(g: &G, removal_pos: &[u32]) -> u32 {
    let mut worst = 0u32;
    for v in g.vertices() {
        let pv = removal_pos[v as usize];
        let fwd = g
            .neighbors(v)
            .filter(|&u| removal_pos[u as usize] > pv)
            .count() as u32;
        worst = worst.max(fwd);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::compact::CompactCsr;

    #[test]
    fn empty_and_isolated() {
        let g = CompactCsr::empty(0);
        assert_eq!(degeneracy(&g).degeneracy, 0);
        let g = CompactCsr::empty(7);
        let info = degeneracy(&g);
        assert_eq!(info.degeneracy, 0);
        assert_eq!(info.removal_order.len(), 7);
        assert!(info.coreness.iter().all(|&c| c == 0));
    }

    #[test]
    fn path_has_degeneracy_1() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let info = degeneracy(&g);
        assert_eq!(info.degeneracy, 1);
        assert_eq!(max_forward_degree(&g, &info.removal_pos), 1);
    }

    #[test]
    fn cycle_has_degeneracy_2() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let info = degeneracy(&g);
        assert_eq!(info.degeneracy, 2);
        assert!(info.coreness.iter().all(|&c| c == 2));
    }

    #[test]
    fn complete_graph_kn() {
        // K_5: degeneracy 4, all coreness 4.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = from_edges(5, &edges);
        let info = degeneracy(&g);
        assert_eq!(info.degeneracy, 4);
        assert!(info.coreness.iter().all(|&c| c == 4));
    }

    #[test]
    fn star_has_degeneracy_1() {
        // Star K_{1,6}: center degree 6 but degeneracy 1.
        let edges: Vec<(u32, u32)> = (1..7u32).map(|v| (0, v)).collect();
        let g = from_edges(7, &edges);
        let info = degeneracy(&g);
        assert_eq!(info.degeneracy, 1);
        assert_eq!(max_forward_degree(&g, &info.removal_pos), 1);
    }

    #[test]
    fn clique_plus_tail() {
        // Triangle with a pendant path: d = 2; coreness separates core
        // (2) from tail (1).
        let g = from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let info = degeneracy(&g);
        assert_eq!(info.degeneracy, 2);
        assert_eq!(info.coreness[0], 2);
        assert_eq!(info.coreness[4], 1);
    }

    #[test]
    fn removal_order_is_permutation() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let info = degeneracy(&g);
        let mut sorted = info.removal_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        for (i, &v) in info.removal_order.iter().enumerate() {
            assert_eq!(info.removal_pos[v as usize] as usize, i);
        }
    }

    #[test]
    fn forward_degree_equals_degeneracy_on_random_graph() {
        // The exact order's max forward degree must equal d.
        let edges: Vec<(u32, u32)> = (0..4000u64)
            .map(|i| {
                let h = pgc_primitives::hash_mix(i ^ 0xABCD);
                (((h >> 32) as u32) % 500, (h as u32) % 500)
            })
            .collect();
        let g = from_edges(500, &edges);
        let info = degeneracy(&g);
        assert_eq!(max_forward_degree(&g, &info.removal_pos), info.degeneracy);
        // d is also max coreness.
        assert_eq!(*info.coreness.iter().max().unwrap(), info.degeneracy);
    }
}
