//! The representation-generic graph interface.
//!
//! Every algorithm in the workspace is written against [`GraphView`], not a
//! concrete CSR struct, so alternative storage layouts ([`crate::CompactCsr`]
//! with 4-byte offsets, the delta-varint [`crate::CompressedCsr`], the
//! zero-copy [`crate::InducedView`]) can be threaded through the whole
//! stack — orderings, colorers, mining, the cache simulator — without
//! touching a single algorithm.
//!
//! The contract mirrors the paper's CSR semantics (§II-A): vertices are ids
//! `0..n`, every adjacency is **sorted strictly ascending** (no duplicates,
//! no self-loops), and edges are symmetric. Algorithms rely on the sorted
//! order for merge intersections and on iteration determinism for
//! bit-identical colorings across representations.

use std::ops::Range;

/// Issue a best-effort read-prefetch hint for the cache line holding
/// `*p`. A no-op on architectures without a prefetch instruction — purely
/// a performance hint, never a semantic one.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch never faults, even on invalid addresses.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: prfm never faults, even on invalid addresses.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p as *const u8, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Storage footprint of a graph representation, split the way the paper
/// budgets CSR memory: `n` offset words plus `2m` neighbor words (§II-A).
///
/// The harness prints these per graph so layout savings (e.g.
/// [`crate::CompactCsr`]'s 4-byte offsets) are visible in experiment
/// tables, and the cache simulator uses the element widths to lay out its
/// virtual address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphMemory {
    /// Bytes per offset entry (the paper's n-term word width).
    pub offset_width: usize,
    /// Number of offset entries (`n + 1` for CSR-style layouts).
    pub offset_count: usize,
    /// Bytes per neighbor entry.
    pub neighbor_width: usize,
    /// Number of stored neighbor entries (`2m` for undirected CSR).
    pub neighbor_count: usize,
    /// Bytes of compressed (encoded) neighbor storage, when the
    /// representation stores adjacencies as packed bytes instead of raw
    /// `u32` entries ([`crate::CompressedCsr`]'s delta-varint arena).
    /// Kept separate from [`neighbor_bytes`](Self::neighbor_bytes) so
    /// tables can print the compression ratio against the paper's `2m`
    /// word budget; always 0 for array-backed layouts, so
    /// `encoded_bytes > 0` identifies a representation whose neighbor
    /// traversal streams packed bytes rather than `u32` slots.
    pub encoded_bytes: usize,
    /// Bytes of any auxiliary structures (masks, remaps, decode scratch)
    /// a view carries on top of the arrays it borrows.
    pub aux_bytes: usize,
}

impl GraphMemory {
    /// Total bytes spent on offsets.
    pub fn offset_bytes(&self) -> usize {
        self.offset_width * self.offset_count
    }

    /// Total bytes spent on neighbors.
    pub fn neighbor_bytes(&self) -> usize {
        self.neighbor_width * self.neighbor_count
    }

    /// Bytes of the structural graph storage: offsets + raw neighbors +
    /// encoded neighbors + auxiliary structures. This is the number the
    /// harness prints as `graph_MiB`, so compact and compressed rows are
    /// comparable.
    pub fn structural_bytes(&self) -> usize {
        self.offset_bytes() + self.neighbor_bytes() + self.encoded_bytes + self.aux_bytes
    }
}

/// An immutable, undirected, simple graph behind a representation-generic
/// interface.
///
/// # Contract
///
/// * vertices are `0..n()`; [`neighbors`](Self::neighbors) yields each
///   adjacency **strictly ascending**, without self-loops, and
///   symmetrically (`u ∈ N(v) ⇔ v ∈ N(u)`),
/// * [`degree`](Self::degree)`(v)` equals `neighbors(v).count()` and is
///   O(1),
/// * iteration order is deterministic, so every coloring algorithm in the
///   workspace produces bit-identical output on any two views exposing the
///   same abstract graph.
///
/// `Sync` is a supertrait: all hot loops traverse the graph from many
/// threads at once.
///
/// Implementations: [`crate::CompactCsr`] (the default; 4-byte offsets
/// when `2m < u32::MAX`, machine-word offsets otherwise),
/// [`crate::CompressedCsr`] (delta-varint block-encoded adjacencies) and
/// [`crate::InducedView`] (zero-copy induced subgraph of any other
/// view).
pub trait GraphView: Sync {
    /// Iterator over the sorted neighbor ids of one vertex.
    type Neighbors<'a>: Iterator<Item = u32> + 'a
    where
        Self: 'a;

    /// Number of vertices `n`.
    fn n(&self) -> usize;

    /// Number of stored directed arcs (`2m`).
    fn num_arcs(&self) -> usize;

    /// Degree of vertex `v` (O(1)).
    fn degree(&self, v: u32) -> u32;

    /// The sorted neighbors of `v`.
    fn neighbors(&self, v: u32) -> Self::Neighbors<'_>;

    /// Maximum degree Δ. Implementations cache this at construction — it
    /// is queried per run for palette sizing and quality bounds.
    fn max_degree(&self) -> u32;

    // ---- derived stats (default methods) ----------------------------

    /// Number of undirected edges `m`.
    fn m(&self) -> usize {
        self.num_arcs() / 2
    }

    /// All vertex ids.
    fn vertices(&self) -> Range<u32> {
        0..self.n() as u32
    }

    /// Minimum degree δ.
    fn min_degree(&self) -> u32 {
        (0..self.n() as u32)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Average degree δ̂ = 2m / n.
    fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.n() as f64
        }
    }

    /// Degree array `D = [deg(v_1) … deg(v_n)]` (Alg. 1, line 4).
    fn degree_array(&self) -> Vec<u32> {
        (0..self.n() as u32).map(|v| self.degree(v)).collect()
    }

    /// True if `{u, v}` is an edge. The default scans `N(u)`;
    /// slice-backed implementations override with a binary search.
    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).any(|w| w == v)
    }

    /// Hint the CPU to start fetching `v`'s adjacency into cache, ahead
    /// of a [`neighbors`](Self::neighbors) call a few iterations from
    /// now. A no-op by default (and on views without contiguous
    /// storage); slice-backed CSR types override it with [`prefetch_read`]
    /// of the adjacency's first cache line. Purely a performance hint —
    /// correctness never depends on it.
    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        let _ = v;
    }

    /// Iterate undirected edges `(u, v)` with `u < v`.
    fn edges(&self) -> EdgeIter<'_, Self>
    where
        Self: Sized,
    {
        EdgeIter {
            g: self,
            v: 0,
            inner: None,
        }
    }

    /// Storage footprint of this representation: offset and neighbor
    /// widths and counts, encoded and auxiliary bytes.
    fn memory_footprint(&self) -> GraphMemory;

    /// Per-thread scratch bytes a traversal of this view needs beyond the
    /// stored arrays — 0 for slice-backed CSR layouts, nonzero for
    /// decoding representations ([`crate::CompressedCsr`] materializes
    /// blocks into a scratch buffer per neighbor iterator). The
    /// scheduling layer uses it to shorten its prefetch lookahead when
    /// decode scratch competes for L1 fill capacity.
    #[inline]
    fn decode_scratch_bytes(&self) -> usize {
        0
    }
}

/// Iterator behind [`GraphView::edges`]: each undirected edge once, as
/// `(u, v)` with `u < v`, in ascending `(u, v)` order.
pub struct EdgeIter<'g, G: GraphView> {
    g: &'g G,
    v: u32,
    inner: Option<G::Neighbors<'g>>,
}

impl<G: GraphView> Iterator for EdgeIter<'_, G> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        loop {
            if let Some(it) = &mut self.inner {
                for u in it.by_ref() {
                    if self.v < u {
                        return Some((self.v, u));
                    }
                }
                self.inner = None;
                self.v += 1;
            }
            if (self.v as usize) >= self.g.n() {
                return None;
            }
            self.inner = Some(self.g.neighbors(self.v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn default_methods_match_inherent_ones() {
        let g = from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        // Call through the trait explicitly.
        fn stats<G: GraphView>(g: &G) -> (usize, usize, u32, u32, f64, Vec<u32>) {
            (
                g.n(),
                g.m(),
                g.max_degree(),
                g.min_degree(),
                g.avg_degree(),
                g.degree_array(),
            )
        }
        let (n, m, dmax, dmin, davg, da) = stats(&g);
        assert_eq!((n, m, dmax, dmin), (4, 4, 3, 1));
        assert!((davg - 2.0).abs() < 1e-12);
        assert_eq!(da, vec![2, 2, 3, 1]);
    }

    #[test]
    fn trait_edges_each_once_sorted() {
        let g = from_edges(4, &[(2, 3), (0, 1), (1, 2), (0, 2)]);
        fn collect<G: GraphView>(g: &G) -> Vec<(u32, u32)> {
            g.edges().collect()
        }
        assert_eq!(collect(&g), vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn trait_has_edge_default_and_override_agree() {
        let g = from_edges(5, &[(0, 4), (1, 3), (2, 4)]);
        fn via_trait<G: GraphView>(g: &G, u: u32, v: u32) -> bool {
            g.has_edge(u, v)
        }
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(via_trait(&g, u, v), g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn memory_totals_add_up() {
        let m = GraphMemory {
            offset_width: 4,
            offset_count: 11,
            neighbor_width: 4,
            neighbor_count: 20,
            encoded_bytes: 5,
            aux_bytes: 3,
        };
        assert_eq!(m.offset_bytes(), 44);
        assert_eq!(m.neighbor_bytes(), 80);
        assert_eq!(m.structural_bytes(), 44 + 80 + 5 + 3);
    }
}
