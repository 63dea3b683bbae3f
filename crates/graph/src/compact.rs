//! Compact CSR: the paper's exact word budget, now the default
//! representation.
//!
//! The paper stores a graph as "n sorted arrays with neighbors of each
//! vertex (2m words) and offsets to each array (n words)" (§II-A) with
//! 32-bit words. [`CompactCsr`] stores offsets as `u32` whenever
//! `2m < u32::MAX` (every graph that fits the `u32` vertex-id space in
//! practice) — half the bytes of machine-word offsets, and half the
//! offset-stream bandwidth of the peel/color hot loops — with a
//! transparent wide (`usize`) fallback for huge graphs.

use crate::csr::{degree_extremes, validate_csr_arrays};
use crate::view::{GraphMemory, GraphView};
use rayon::prelude::*;

/// A CSR offset array, at the narrowest width that can address its
/// total: [`CompactCsr`]'s row offsets, [`CompressedCsr`](crate::CompressedCsr)'s
/// byte offsets, and any other per-vertex row index built on a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Offsets {
    /// 4-byte offsets: valid while the total is `< u32::MAX`.
    Small(Vec<u32>),
    /// Machine-word fallback for totals `≥ u32::MAX`.
    Wide(Vec<usize>),
}

impl Offsets {
    /// Narrow machine-word offsets to `u32` when the total fits.
    pub fn narrow(offsets: Vec<usize>) -> Self {
        if offsets.last().copied().unwrap_or(0) < u32::MAX as usize {
            Offsets::Small(offsets.par_iter().map(|&o| o as u32).collect())
        } else {
            Offsets::Wide(offsets)
        }
    }

    /// Offset `i`, widened to `usize`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        match self {
            Offsets::Small(o) => o[i] as usize,
            Offsets::Wide(o) => o[i],
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Offsets::Small(o) => o.len(),
            Offsets::Wide(o) => o.len(),
        }
    }

    pub(crate) fn width(&self) -> usize {
        match self {
            Offsets::Small(_) => std::mem::size_of::<u32>(),
            Offsets::Wide(_) => std::mem::size_of::<usize>(),
        }
    }
}

/// Immutable, undirected, simple graph in CSR form with width-adaptive
/// offsets — the workspace's default [`GraphView`] implementation, built
/// by [`EdgeListBuilder`](crate::EdgeListBuilder), the generators, and the
/// readers.
///
/// Invariants: offsets non-decreasing starting at 0, adjacencies
/// strictly ascending, no self-loops, symmetric edges. Δ and δ are
/// computed once at construction, so
/// [`max_degree`](GraphView::max_degree) /
/// [`min_degree`](GraphView::min_degree) are O(1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactCsr {
    offsets: Offsets,
    neighbors: Vec<u32>,
    max_deg: u32,
    min_deg: u32,
}

impl CompactCsr {
    /// Construct from raw CSR arrays (offsets narrowed to `u32` when they
    /// fit). Debug builds validate the invariants.
    pub fn from_raw(offsets: Vec<usize>, neighbors: Vec<u32>) -> Self {
        Self::from_offsets(Offsets::narrow(offsets), neighbors)
    }

    /// Construct from an already-width-resolved offset array — the entry
    /// point of the streaming two-pass builder ([`crate::stream`]), which
    /// produces `u32` offsets directly on the fast path instead of
    /// narrowing a machine-word array after the fact.
    pub(crate) fn from_offsets(offsets: Offsets, neighbors: Vec<u32>) -> Self {
        let n = offsets.len().saturating_sub(1);
        let (max_deg, min_deg) = degree_extremes(n, |i| offsets.get(i));
        let g = Self {
            offsets,
            neighbors,
            max_deg,
            min_deg,
        };
        #[cfg(debug_assertions)]
        if let Err(e) = g.validate() {
            panic!("invalid CSR: {e}");
        }
        g
    }

    /// The empty graph on `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: Offsets::Small(vec![0; n + 1]),
            neighbors: Vec::new(),
            max_deg: 0,
            min_deg: 0,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of stored directed arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        (self.offsets.get(v as usize + 1) - self.offsets.get(v as usize)) as u32
    }

    /// Sorted neighbor slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.arc_range(v)]
    }

    /// The index range of `v`'s adjacency inside the neighbor array.
    #[inline]
    pub fn arc_range(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets.get(v as usize)..self.offsets.get(v as usize + 1)
    }

    /// True if `{u, v}` is an edge (binary search).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree Δ (cached at construction).
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_deg
    }

    /// Minimum degree δ (cached at construction).
    #[inline]
    pub fn min_degree(&self) -> u32 {
        self.min_deg
    }

    /// Average degree δ̂ = 2m / n.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.n() as f64
        }
    }

    /// All vertex ids.
    #[inline]
    pub fn vertices(&self) -> std::ops::Range<u32> {
        0..self.n() as u32
    }

    /// Iterate undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Degree array (parallel).
    pub fn degree_array(&self) -> Vec<u32> {
        self.vertices()
            .into_par_iter()
            .map(|v| self.degree(v))
            .collect()
    }

    /// Bytes per offset entry: 4 while `2m < u32::MAX`, else the machine
    /// word.
    pub fn offset_width(&self) -> usize {
        self.offsets.width()
    }

    /// The raw neighbor array (read-only).
    #[inline]
    pub fn raw_neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// The width-resolved offset array — the snapshot writer serializes
    /// it verbatim.
    #[inline]
    pub(crate) fn raw_offsets(&self) -> &Offsets {
        &self.offsets
    }

    /// Check all CSR invariants without copying the graph; returns the
    /// first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        validate_csr_arrays(self.offsets.len(), |i| self.offsets.get(i), &self.neighbors)
    }
}

impl GraphView for CompactCsr {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, u32>>;

    #[inline]
    fn n(&self) -> usize {
        CompactCsr::n(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        CompactCsr::num_arcs(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> u32 {
        CompactCsr::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> Self::Neighbors<'_> {
        CompactCsr::neighbors(self, v).iter().copied()
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_deg
    }

    #[inline]
    fn min_degree(&self) -> u32 {
        self.min_deg
    }

    fn degree_array(&self) -> Vec<u32> {
        CompactCsr::degree_array(self)
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        CompactCsr::has_edge(self, u, v)
    }

    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        let start = self.offsets.get(v as usize);
        if start < self.neighbors.len() {
            crate::view::prefetch_read(&self.neighbors[start]);
        }
    }

    fn memory_footprint(&self) -> GraphMemory {
        GraphMemory {
            offset_width: self.offsets.width(),
            offset_count: self.offsets.len(),
            neighbor_width: std::mem::size_of::<u32>(),
            neighbor_count: self.neighbors.len(),
            encoded_bytes: 0,
            encoded_mapped_bytes: 0,
            aux_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn small_offsets_by_default() {
        let g = from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(g.offset_width(), 4);
        let fp = GraphView::memory_footprint(&g);
        assert_eq!(fp.offset_bytes(), 4 * 5);
        assert_eq!(fp.neighbor_bytes(), 4 * 8);
        assert_eq!(fp.aux_bytes, 0);
    }

    #[test]
    fn wide_fallback_behaves_identically() {
        // Force the Wide variant on a small graph: every accessor must
        // agree with the Small layout of the same arrays.
        let small = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let offsets: Vec<usize> = (0..=5).map(|v| small.offsets.get(v)).collect();
        let wide = CompactCsr::from_offsets(Offsets::Wide(offsets), small.raw_neighbors().to_vec());
        assert_eq!(wide.offset_width(), std::mem::size_of::<usize>());
        assert_eq!(wide.n(), small.n());
        assert_eq!(wide.m(), small.m());
        assert_eq!(wide.max_degree(), small.max_degree());
        assert_eq!(wide.min_degree(), small.min_degree());
        for v in 0..5u32 {
            assert_eq!(wide.neighbors(v), small.neighbors(v));
            assert_eq!(wide.degree(v), small.degree(v));
        }
        assert_eq!(
            wide.edges().collect::<Vec<_>>(),
            small.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn cached_extremes_match_rescan() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(
            g.max_degree(),
            g.vertices().map(|v| g.degree(v)).max().unwrap()
        );
        assert_eq!(
            g.min_degree(),
            g.vertices().map(|v| g.degree(v)).min().unwrap()
        );
    }

    #[test]
    fn empty_graphs() {
        let g = CompactCsr::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        let g = CompactCsr::empty(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_degree(), 0);
        assert!(g.validate().is_ok());
    }
}
