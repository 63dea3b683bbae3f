//! The representation-generic graph interface.
//!
//! Every algorithm in the workspace is written against [`GraphView`], not a
//! concrete CSR struct, so alternative storage layouts ([`crate::CompactCsr`]
//! with 4-byte offsets, the zero-copy [`crate::InducedView`], or any future
//! weighted/streaming representation) can be threaded through the whole
//! stack — orderings, colorers, mining, the cache simulator — without
//! touching a single algorithm.
//!
//! The contract mirrors the paper's CSR semantics (§II-A): vertices are ids
//! `0..n`, every adjacency is **sorted strictly ascending** (no duplicates,
//! no self-loops), and edges are symmetric. Algorithms rely on the sorted
//! order for merge intersections and on iteration determinism for
//! bit-identical colorings across representations.

use crate::weight::EdgeWeight;
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
    /// Bytes of **heap-owned** compressed (encoded) neighbor storage,
    /// when the representation stores adjacencies as packed bytes
    /// instead of raw `u32` entries ([`crate::CompressedCsr`]'s
    /// delta-varint arena). Kept separate from
    /// [`neighbor_bytes`](Self::neighbor_bytes) so tables can print the
    /// compression ratio against the paper's `2m` word budget; always 0
    /// for array-backed layouts — and also 0 when the arena is served
    /// zero-copy from an `mmap`, which lands in
    /// [`encoded_mapped_bytes`](Self::encoded_mapped_bytes) instead.
    pub encoded_bytes: usize,
    /// Bytes of the encoded neighbor arena served zero-copy from an
    /// `mmap` (page cache, not this process's heap) — the
    /// [`crate::snapshot::load_compressed_snapshot`] fast path. An arena
    /// is entirely heap-owned or entirely mapped, so the representation's
    /// encoded length regardless of backing is
    /// [`encoded_len`](Self::encoded_len); consumers that model the
    /// traversed layout (the cache simulator, the harness's `graph_MiB`
    /// column) must use that, while heap accounting
    /// ([`total_bytes`](Self::total_bytes)) charges only
    /// [`encoded_bytes`](Self::encoded_bytes).
    pub encoded_mapped_bytes: usize,
    /// Bytes of any auxiliary structures (masks, remaps, decode scratch)
    /// a view carries on top of the arrays it borrows.
    pub aux_bytes: usize,
    /// Bytes of the edge-payload (weights) array, when the representation
    /// carries one ([`crate::WeightedCsr`]). Kept separate from
    /// [`aux_bytes`](Self::aux_bytes) so tables can show the weighted
    /// surcharge next to the paper's structural budget; always 0 for
    /// unweighted layouts and for the zero-sized `()` payload.
    pub weight_bytes: usize,
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

    /// Length of the encoded neighbor representation regardless of
    /// backing: heap-owned plus `mmap`-served arena bytes (an arena is
    /// entirely one or the other). 0 for raw-array layouts, so
    /// `encoded_len() > 0` identifies a representation whose neighbor
    /// traversal streams packed bytes rather than `u32` slots.
    pub fn encoded_len(&self) -> usize {
        self.encoded_bytes + self.encoded_mapped_bytes
    }

    /// Offsets + neighbors + heap-owned encoded + auxiliary + weight
    /// bytes: the process-heap charge. An `mmap`-served arena is
    /// excluded (page cache, not heap) — see
    /// [`structural_bytes`](Self::structural_bytes) for the
    /// representation as traversed.
    pub fn total_bytes(&self) -> usize {
        self.offset_bytes()
            + self.neighbor_bytes()
            + self.encoded_bytes
            + self.aux_bytes
            + self.weight_bytes
    }

    /// Bytes of the structural graph storage actually backing this
    /// representation's traversal: offsets + raw neighbors + encoded
    /// neighbors (whether heap-owned or `mmap`-served) + auxiliary
    /// structures — everything except the edge payload. This is the
    /// number the harness prints as `graph_MiB`, so compact and
    /// compressed rows (including snapshot-loaded zero-copy arenas) are
    /// comparable.
    pub fn structural_bytes(&self) -> usize {
        self.offset_bytes() + self.neighbor_bytes() + self.encoded_len() + self.aux_bytes
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
/// [`crate::CompressedCsr`] (delta-varint block-encoded adjacencies),
/// [`crate::WeightedCsr`] (a `CompactCsr` plus a weights array),
/// [`crate::MappedSnapshot`] (zero-copy over an `mmap`ed snapshot) and
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
    /// widths and counts, encoded, auxiliary and weight bytes.
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

/// A [`GraphView`] whose edges carry a payload (an [`EdgeWeight`]).
///
/// The weighted extension of the representation-generic interface: the
/// structure is still exactly the `GraphView` contract (sorted, simple,
/// symmetric adjacencies — so every unweighted algorithm runs unchanged on
/// a weighted view), and [`weighted_neighbors`](Self::weighted_neighbors)
/// additionally yields each neighbor's edge weight in the same sorted
/// order. Weights are symmetric: `w(u, v) == w(v, u)`.
///
/// Implementations: [`crate::WeightedCsr`] (struct-of-arrays weights next
/// to a [`crate::CompactCsr`]), [`crate::InducedView`] over any weighted
/// base (zero-copy passthrough), and the unweighted CSR types themselves
/// with the unit payload `W = ()` — where every weight reads as `1.0`, so
/// weighted workloads (matching weight, weighted density) collapse to
/// their unweighted meanings.
pub trait WeightedView: GraphView {
    /// The edge payload type.
    type Weight: EdgeWeight;

    /// Iterator over `(neighbor, weight)` pairs of one vertex, in the
    /// same strictly-ascending neighbor order as
    /// [`GraphView::neighbors`].
    type WeightedNeighbors<'a>: Iterator<Item = (u32, Self::Weight)> + 'a
    where
        Self: 'a;

    /// The sorted neighbors of `v`, with their edge weights.
    fn weighted_neighbors(&self, v: u32) -> Self::WeightedNeighbors<'_>;

    /// Weight of edge `{u, v}`, `None` if absent. The default scans
    /// `N(u)`; slice-backed implementations override with a binary
    /// search.
    fn edge_weight(&self, u: u32, v: u32) -> Option<Self::Weight> {
        self.weighted_neighbors(u)
            .find(|&(x, _)| x == v)
            .map(|(_, w)| w)
    }

    /// Weighted degree `Σ_{u ∈ N(v)} w(v, u)` (unit weights: the plain
    /// degree).
    fn weighted_degree(&self, v: u32) -> f64 {
        self.weighted_neighbors(v).map(|(_, w)| w.to_f64()).sum()
    }

    /// Total edge weight `W(G) = Σ_{{u,v} ∈ E} w(u, v)` (unit weights:
    /// `m`).
    fn total_weight(&self) -> f64 {
        (0..self.n() as u32)
            .map(|v| self.weighted_degree(v))
            .sum::<f64>()
            / 2.0
    }

    /// Iterate undirected weighted edges `(u, v, w)` with `u < v`.
    fn weighted_edges(&self) -> WeightedEdgeIter<'_, Self>
    where
        Self: Sized,
    {
        WeightedEdgeIter {
            g: self,
            v: 0,
            inner: None,
        }
    }
}

/// Iterator behind [`WeightedView::weighted_edges`]: each undirected edge
/// once, as `(u, v, w)` with `u < v`, in ascending `(u, v)` order.
pub struct WeightedEdgeIter<'g, G: WeightedView> {
    g: &'g G,
    v: u32,
    inner: Option<G::WeightedNeighbors<'g>>,
}

impl<G: WeightedView> Iterator for WeightedEdgeIter<'_, G> {
    type Item = (u32, u32, G::Weight);

    fn next(&mut self) -> Option<(u32, u32, G::Weight)> {
        loop {
            if let Some(it) = &mut self.inner {
                for (u, w) in it.by_ref() {
                    if self.v < u {
                        return Some((self.v, u, w));
                    }
                }
                self.inner = None;
                self.v += 1;
            }
            if (self.v as usize) >= self.g.n() {
                return None;
            }
            self.inner = Some(self.g.weighted_neighbors(self.v));
        }
    }
}

/// Adapter giving any unweighted neighbor iterator unit weights — how the
/// plain CSR types satisfy [`WeightedView`] with `Weight = ()`.
pub struct UnitWeights<I>(pub I);

impl<I: Iterator<Item = u32>> Iterator for UnitWeights<I> {
    type Item = (u32, ());

    #[inline]
    fn next(&mut self) -> Option<(u32, ())> {
        self.0.next().map(|u| (u, ()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
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
            encoded_mapped_bytes: 7,
            aux_bytes: 3,
            weight_bytes: 16,
        };
        assert_eq!(m.offset_bytes(), 44);
        assert_eq!(m.neighbor_bytes(), 80);
        assert_eq!(m.encoded_len(), 12);
        // Traversed representation counts the mapped arena…
        assert_eq!(m.structural_bytes(), 139);
        // …heap accounting does not.
        assert_eq!(m.total_bytes(), 148);
    }

    #[test]
    fn unweighted_csr_is_a_unit_weighted_view() {
        let g = from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        fn weighted_stats<G: WeightedView>(g: &G) -> (f64, f64, Vec<(u32, f64)>) {
            (
                g.total_weight(),
                g.weighted_degree(2),
                g.weighted_neighbors(2)
                    .map(|(u, w)| (u, w.to_f64()))
                    .collect(),
            )
        }
        let (total, wdeg, nbrs) = weighted_stats(&g);
        assert_eq!(total, g.m() as f64, "unit total weight is m");
        assert_eq!(wdeg, g.degree(2) as f64);
        assert_eq!(nbrs, vec![(0, 1.0), (1, 1.0), (3, 1.0)]);
        assert_eq!(g.edge_weight(0, 1), Some(()));
        assert_eq!(WeightedView::edge_weight(&g, 0, 3), None);
        assert_eq!(
            g.weighted_edges()
                .map(|(u, v, _)| (u, v))
                .collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }
}
