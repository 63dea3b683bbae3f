//! Graph transformations: induced subgraphs.
//!
//! [`induced_subgraph`] extracts a vertex subset as a relabeled graph;
//! the mining layer's coreness check uses it on each core.

use crate::builder::EdgeListBuilder;
use crate::compact::CompactCsr;
use crate::view::GraphView;

/// The subgraph induced by `vertices` (paper notation `G[U]`), with
/// vertices relabeled `0..|U|` in the order given. Returns the graph and
/// the mapping `new_id -> old_id`.
pub fn induced_subgraph<G: GraphView>(g: &G, vertices: &[u32]) -> (CompactCsr, Vec<u32>) {
    let mut old_to_new = vec![u32::MAX; g.n()];
    for (new, &old) in vertices.iter().enumerate() {
        assert!(
            old_to_new[old as usize] == u32::MAX,
            "duplicate vertex {old}"
        );
        old_to_new[old as usize] = new as u32;
    }
    let mut b = EdgeListBuilder::new(vertices.len());
    for (new, &old) in vertices.iter().enumerate() {
        for nb in g.neighbors(old) {
            let nn = old_to_new[nb as usize];
            if nn != u32::MAX && (new as u32) < nn {
                b.add_edge(new as u32, nn);
            }
        }
    }
    (b.build(), vertices.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        // Path 0-1-2-3; induce {1,2,3} -> path of 2 edges.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (sub, map) = induced_subgraph(&g, &[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        assert!(sub.has_edge(0, 1));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_subgraph_rejects_duplicates() {
        let g = from_edges(3, &[(0, 1)]);
        induced_subgraph(&g, &[1, 1]);
    }
}
