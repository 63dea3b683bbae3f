//! Zero-copy induced subgraph views.
//!
//! The paper's algorithms repeatedly work on induced subgraphs `G[U]`:
//! ADG/DEC-ADG peel low-degree partitions, mining recurses into k-cores
//! and densest-subgraph suffixes. Materializing each `G[U]` costs
//! O(|U| + vol(U)) allocations and copies; [`InducedView`] instead borrows
//! the host representation and exposes `G[U]` through [`GraphView`] with a
//! vertex mask + remap — O(n) words of auxiliary state, zero adjacency
//! copies.

use crate::compact::CompactCsr;
use crate::view::{GraphMemory, GraphView};
use rayon::prelude::*;

/// Marker for "not a member" in the remap table.
const OUTSIDE: u32 = u32::MAX;

/// The subgraph of `base` induced by a vertex subset, relabeled `0..|U|`
/// in ascending original-id order — a zero-copy [`GraphView`].
///
/// Local ids are assigned monotonically, so every local adjacency is
/// strictly ascending whenever the base adjacency is: the view satisfies
/// the full [`GraphView`] contract and can be handed to any algorithm in
/// the workspace (or nested into another `InducedView`). Local degrees, Δ,
/// and `2m` are computed once at construction; `neighbors` filters and
/// remaps the base adjacency on the fly.
///
/// ```
/// use pgc_graph::{builder::from_edges, GraphView, InducedView};
/// let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
/// let view = InducedView::new(&g, &[0, 1, 2]); // path 0-1-2 of the cycle
/// assert_eq!(view.n(), 3);
/// assert_eq!(view.m(), 2);
/// assert_eq!(view.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
/// assert_eq!(view.original_id(2), 2);
/// ```
pub struct InducedView<'g, G: GraphView> {
    base: &'g G,
    /// `members[local] = original`, strictly ascending.
    members: Vec<u32>,
    /// `local_of[original] = local`, [`OUTSIDE`] for non-members.
    local_of: Vec<u32>,
    /// Local degree per member (neighbors inside the view).
    degrees: Vec<u32>,
    num_arcs: usize,
    max_deg: u32,
    min_deg: u32,
}

impl<'g, G: GraphView> InducedView<'g, G> {
    /// View of `base` induced by `vertices` (order-insensitive; duplicates
    /// panic, out-of-range ids panic). Construction is one parallel pass
    /// over the members' adjacencies — no edges are copied.
    pub fn new(base: &'g G, vertices: &[u32]) -> Self {
        let mut members = vertices.to_vec();
        members.sort_unstable();
        let mut local_of = vec![OUTSIDE; base.n()];
        for (local, &v) in members.iter().enumerate() {
            assert!((v as usize) < base.n(), "vertex {v} out of range");
            assert!(
                local_of[v as usize] == OUTSIDE,
                "duplicate vertex {v} in induced set"
            );
            local_of[v as usize] = local as u32;
        }
        let local_ref = &local_of;
        let degrees: Vec<u32> = members
            .par_iter()
            .map(|&v| {
                base.neighbors(v)
                    .filter(|&u| local_ref[u as usize] != OUTSIDE)
                    .count() as u32
            })
            .collect();
        let num_arcs = degrees.iter().map(|&d| d as usize).sum();
        let max_deg = degrees.iter().copied().max().unwrap_or(0);
        let min_deg = degrees.iter().copied().min().unwrap_or(0);
        Self {
            base,
            members,
            local_of,
            degrees,
            num_arcs,
            max_deg,
            min_deg,
        }
    }

    /// The host graph.
    pub fn base(&self) -> &'g G {
        self.base
    }

    /// Member vertices in original ids, ascending — the `local → original`
    /// map.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Original id of a local vertex.
    #[inline]
    pub fn original_id(&self, local: u32) -> u32 {
        self.members[local as usize]
    }

    /// Local id of an original vertex, if it is in the view.
    #[inline]
    pub fn local_id(&self, original: u32) -> Option<u32> {
        match self.local_of[original as usize] {
            OUTSIDE => None,
            l => Some(l),
        }
    }

    /// Copy the view into a standalone [`CompactCsr`] (when the recursion
    /// depth or reuse count makes materializing worthwhile after all).
    pub fn materialize(&self) -> CompactCsr {
        let mut offsets = Vec::with_capacity(self.n() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &self.degrees {
            acc += d as usize;
            offsets.push(acc);
        }
        let mut neighbors = Vec::with_capacity(self.num_arcs);
        for &v in &self.members {
            neighbors.extend(self.base.neighbors(v).filter_map(|u| self.local_id(u)));
        }
        CompactCsr::from_raw(offsets, neighbors)
    }
}

/// Iterator over an [`InducedView`] adjacency: the base adjacency filtered
/// to members and remapped to local ids (ascending, since the remap is
/// monotone).
pub struct InducedNeighbors<'a, G: GraphView + 'a> {
    base: G::Neighbors<'a>,
    local_of: &'a [u32],
}

impl<'a, G: GraphView> Iterator for InducedNeighbors<'a, G> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        for u in self.base.by_ref() {
            let l = self.local_of[u as usize];
            if l != OUTSIDE {
                return Some(l);
            }
        }
        None
    }
}

impl<'g, G: GraphView> GraphView for InducedView<'g, G> {
    type Neighbors<'a>
        = InducedNeighbors<'a, G>
    where
        Self: 'a;

    #[inline]
    fn n(&self) -> usize {
        self.members.len()
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    #[inline]
    fn degree(&self, v: u32) -> u32 {
        self.degrees[v as usize]
    }

    #[inline]
    fn neighbors(&self, v: u32) -> InducedNeighbors<'_, G> {
        InducedNeighbors {
            base: self.base.neighbors(self.members[v as usize]),
            local_of: &self.local_of,
        }
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_deg
    }

    #[inline]
    fn min_degree(&self) -> u32 {
        self.min_deg
    }

    fn memory_footprint(&self) -> GraphMemory {
        // The adjacency belongs to the base graph; the view only owns the
        // mask/remap/degree arrays.
        GraphMemory {
            offset_width: 0,
            offset_count: 0,
            neighbor_width: 0,
            neighbor_count: 0,
            encoded_bytes: 0,
            encoded_mapped_bytes: 0,
            aux_bytes: std::mem::size_of::<u32>()
                * (self.members.len() + self.local_of.len() + self.degrees.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::gen::{generate, GraphSpec};
    use crate::transform::induced_subgraph;

    #[test]
    fn view_matches_materialized_subgraph() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 120, m: 600 }, 3);
        let members: Vec<u32> = (0..120u32).filter(|v| v % 3 != 0).collect();
        let view = InducedView::new(&g, &members);
        let (mat, map) = induced_subgraph(&g, &members);
        assert_eq!(map, members);
        assert_eq!(view.n(), mat.n());
        assert_eq!(view.m(), mat.m());
        assert_eq!(view.max_degree(), mat.max_degree());
        assert_eq!(view.min_degree(), GraphView::min_degree(&mat));
        for v in view.vertices() {
            assert_eq!(view.degree(v), mat.degree(v));
            assert_eq!(
                view.neighbors(v).collect::<Vec<_>>(),
                mat.neighbors(v).to_vec()
            );
        }
        assert_eq!(view.materialize(), mat);
    }

    #[test]
    fn unsorted_input_is_normalized() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let view = InducedView::new(&g, &[3, 1, 2]);
        assert_eq!(view.members(), &[1, 2, 3]);
        assert_eq!(view.original_id(0), 1);
        assert_eq!(view.local_id(3), Some(2));
        assert_eq!(view.local_id(0), None);
        assert_eq!(view.m(), 2);
    }

    #[test]
    fn nests_into_itself() {
        let g = generate(&GraphSpec::Complete { n: 8 }, 0);
        let outer = InducedView::new(&g, &[0, 1, 2, 3, 4, 5]);
        let inner = InducedView::new(&outer, &[0, 2, 4]);
        assert_eq!(inner.n(), 3);
        assert_eq!(inner.m(), 3, "induced triangle of K8");
        assert_eq!(inner.max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicates_rejected() {
        let g = from_edges(3, &[(0, 1)]);
        InducedView::new(&g, &[1, 1]);
    }

    #[test]
    fn footprint_is_aux_only() {
        let g = generate(&GraphSpec::Cycle { n: 30 }, 0);
        let view = InducedView::new(&g, &[0, 1, 2, 3, 4]);
        let fp = view.memory_footprint();
        assert_eq!(fp.offset_bytes() + fp.neighbor_bytes(), 0);
        assert!(fp.aux_bytes > 0);
    }

    #[test]
    fn empty_view() {
        let g = from_edges(3, &[(0, 1)]);
        let view = InducedView::new(&g, &[]);
        assert_eq!(view.n(), 0);
        assert_eq!(view.num_arcs(), 0);
        assert_eq!(view.max_degree(), 0);
        assert_eq!(view.materialize().n(), 0);
    }
}
