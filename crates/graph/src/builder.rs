//! Buffered edge-list → CSR construction.
//!
//! Accepts arbitrary (possibly duplicated, self-looped, one-directional)
//! edge lists and produces a clean undirected simple graph: self-loops
//! dropped, both arc directions materialized, neighbor lists sorted and
//! deduplicated. [`EdgeListBuilder`] is the trivial *buffered*
//! [`EdgeSource`]: it holds the raw edges in memory and replays them as
//! slices, so [`EdgeListBuilder::build`] runs the same two-pass streaming
//! engine ([`crate::stream`]) as every generator and reader — one
//! construction engine, no drift. Producers that can re-derive their
//! edges (seeded generators, file scans) should implement [`EdgeSource`]
//! directly and skip the buffer entirely.

use crate::compact::CompactCsr;
use crate::stream::{self, ChunkFn, EdgeSource, CHUNK_EDGES};

/// Accumulates raw edges and builds a [`CompactCsr`] through the
/// streaming two-pass engine.
#[derive(Clone, Debug)]
pub struct EdgeListBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl EdgeListBuilder {
    /// A builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// A builder with capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges were added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add an undirected edge `{u, v}`. Self-loops and duplicates are
    /// tolerated here and removed by [`Self::build`].
    ///
    /// # Panics
    ///
    /// If `u` or `v` is not in `0..n`. (The streaming engine itself grows
    /// `n` for id-*discovering* sources; this builder declared its vertex
    /// count, so an out-of-range id is a caller bug, not discovery.)
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        self.edges.push((u, v));
    }

    /// Bulk-add edges. Reserves from the iterator's size hint first, so a
    /// builder created with [`Self::with_capacity`] (or fed an
    /// exact-length iterator) ingests without re-allocating. Panics on
    /// out-of-range ids, like [`Self::add_edge`].
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (u32, u32)>) {
        let it = it.into_iter();
        let (lo, _) = it.size_hint();
        self.edges.reserve(lo);
        for (u, v) in it {
            self.add_edge(u, v);
        }
    }

    /// Build the default [`CompactCsr`]: symmetrize, drop self-loops,
    /// sort, dedup; offsets narrowed to `u32` when `2m < u32::MAX`.
    pub fn build(self) -> CompactCsr {
        stream::build_compact(&self).expect("in-memory replay cannot fail")
    }
}

/// The trivial buffered source: replays the in-memory edge list as
/// zero-copy chunk slices, partitioned by slice ranges (every id was
/// checked against `n` on insertion). Kept so the push-style builder API
/// rides the same construction engine as the true streaming producers.
impl EdgeSource for EdgeListBuilder {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn edge_hint(&self) -> Option<usize> {
        Some(self.edges.len())
    }

    fn buffered_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        self.replay_part(0, 1, emit)
    }

    fn parts(&self) -> usize {
        self.edges.len().div_ceil(CHUNK_EDGES).max(1)
    }

    fn replay_part(
        &self,
        part: usize,
        parts: usize,
        emit: &mut ChunkFn<'_>,
    ) -> std::io::Result<()> {
        let r = stream::part_range(self.edges.len(), part, parts);
        for chunk in self.edges[r].chunks(CHUNK_EDGES) {
            emit(chunk, &[]);
        }
        Ok(())
    }
}

/// Convenience: build a graph directly from an edge slice.
pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> CompactCsr {
    let mut b = EdgeListBuilder::with_capacity(n, edges.len());
    b.extend_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_deloop() {
        // Duplicates (both orders) and a self-loop must vanish.
        let g = from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(!g.has_edge(2, 2));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn symmetrization() {
        let g = from_edges(4, &[(3, 0)]);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 0));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn builder_capacity_and_len() {
        let mut b = EdgeListBuilder::with_capacity(10, 5);
        assert!(b.is_empty());
        b.add_edge(0, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn extend_edges_honors_capacity() {
        // `with_capacity` + an exact-size iterator within that capacity
        // must not re-allocate the buffer.
        let mut b = EdgeListBuilder::with_capacity(10, 8);
        let cap = b.edges.capacity();
        b.extend_edges((0..8u32).map(|i| (i, (i + 1) % 10)));
        assert_eq!(b.len(), 8);
        assert_eq!(b.edges.capacity(), cap, "no re-allocation within capacity");
        // And an un-reserved builder pre-sizes from the size hint.
        let mut b = EdgeListBuilder::new(10);
        b.extend_edges((0..6u32).map(|i| (i, (i + 2) % 10)));
        assert!(b.edges.capacity() >= 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_out_of_range_ids() {
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(10, 11);
    }

    #[test]
    fn empty_build() {
        let g = EdgeListBuilder::new(4).build();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn unit_weights_buffer_is_free() {
        let mut b = EdgeListBuilder::with_capacity(10, 100);
        b.extend_edges((0..100u32).map(|i| (i % 10, (i + 1) % 10)));
        // The pair buffer is the only resident byte the builder charges.
        assert_eq!(b.buffered_bytes(), b.edges.capacity() * 8);
    }

    #[test]
    fn large_build_is_valid() {
        // Exercise multi-chunk replay and the parallel scatter path.
        let n = 5_000u32;
        let edges: Vec<(u32, u32)> = (0..60_000u64)
            .map(|i| {
                let h = pgc_primitives::hash_mix(i);
                (((h >> 32) as u32) % n, (h as u32) % n)
            })
            .collect();
        let g = from_edges(n as usize, &edges);
        assert!(g.validate().is_ok());
        assert!(g.m() > 0);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let g = from_edges(5, &[(4, 2), (4, 0), (4, 3), (4, 1)]);
        assert_eq!(g.neighbors(4), &[0, 1, 2, 3]);
    }
}
