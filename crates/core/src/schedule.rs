//! Cache-aware round scheduling for the speculative loop.
//!
//! The speculative loop ([`crate::speculative::itr`]) processes a *round
//! set* whose outcome is order-invariant: ITR's conflict rule is symmetric
//! over the whole tentative round, so no vertex's color depends on where
//! in the round it was colored. That freedom is a scheduling budget, and
//! this module spends it on the memory system:
//!
//! * **Degree-bucketed ordering** ([`bucket_by_degree`]): the round set is
//!   sorted by ⌈log₂ degree⌉ class, ascending vertex id within a class.
//!   Ascending ids make the offset/color/adjacency streams advance
//!   monotonically through memory (hardware-prefetcher friendly, each
//!   cache line of the offset and color arrays touched once per round),
//!   and the degree classes keep per-work-item cost uniform inside a
//!   parallel chunk, so one straggling hub no longer serializes a chunk
//!   of leaves.
//! * **Software prefetch** ([`prefetch_ahead`]): while vertex `i` of the
//!   round is processed, the adjacency list of vertex `i + PREFETCH_DIST`
//!   is requested, hiding the dependent-load latency of
//!   `offsets[v] → neighbors[..]` behind useful work.
//!
//! Neither transform changes any algorithm's output (see the
//! determinism tests in `speculative`); the cache simulator's
//! `bucketed_round_order_does_not_miss_more` test pins the locality claim.

use pgc_graph::GraphView;
use rayon::prelude::*;

/// Look-ahead distance (in round-set slots) for [`prefetch_ahead`]. Far
/// enough that the line arrives before use at ~4 cache lines of work per
/// vertex, small enough not to thrash the L1 fill buffers.
pub const PREFETCH_DIST: usize = 8;

/// Look-ahead distance for decode-scratch-bearing representations
/// ([`GraphView::decode_scratch_bytes`] > 0, i.e. the compressed CSR):
/// block decoding streams its scratch buffer through the same L1 fill
/// buffers the prefetches land in, so a long lookahead evicts its own
/// targets before use. Halving the distance keeps the prefetched arena
/// bytes resident across one block-decode burst.
pub const PREFETCH_DIST_DECODED: usize = PREFETCH_DIST / 2;

/// The prefetch look-ahead appropriate for `g`: [`PREFETCH_DIST`] for
/// raw-array layouts, [`PREFETCH_DIST_DECODED`] when traversal decodes
/// through per-iterator scratch.
#[inline]
pub fn prefetch_dist<G: GraphView>(g: &G) -> usize {
    if g.decode_scratch_bytes() > 0 {
        PREFETCH_DIST_DECODED
    } else {
        PREFETCH_DIST
    }
}

/// Degree class of `d`: 0 for isolated vertices, else `⌈log₂ d⌉ + 1` —
/// 33 classes cover the whole `u32` degree range.
#[inline]
pub fn degree_class(d: u32) -> u32 {
    32 - d.leading_zeros()
}

/// Reorder a round set for cache behaviour: degree class major, vertex id
/// minor. Safe whenever the consumer is order-invariant over the set.
pub fn bucket_by_degree<G: GraphView>(g: &G, round: &mut [u32]) {
    round.par_sort_unstable_by_key(|&v| ((degree_class(g.degree(v)) as u64) << 32) | v as u64);
}

/// Prefetch the adjacency list of the vertex [`prefetch_dist`] slots
/// ahead of position `i` in the round set (no-op past the end).
#[inline]
pub fn prefetch_ahead<G: GraphView>(g: &G, round: &[u32], i: usize) {
    if let Some(&v) = round.get(i + prefetch_dist(g)) {
        g.prefetch_neighbors(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_graph::gen::{generate, GraphSpec};

    #[test]
    fn degree_classes_are_monotone_and_logarithmic() {
        assert_eq!(degree_class(0), 0);
        assert_eq!(degree_class(1), 1);
        assert_eq!(degree_class(2), 2);
        assert_eq!(degree_class(3), 2);
        assert_eq!(degree_class(4), 3);
        assert_eq!(degree_class(u32::MAX), 32);
        for d in 1..1000u32 {
            assert!(degree_class(d) <= degree_class(d + 1));
        }
    }

    #[test]
    fn bucketing_permutes_and_orders() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 300, attach: 5 }, 1);
        let mut round: Vec<u32> = (0..g.n() as u32).rev().collect();
        bucket_by_degree(&g, &mut round);
        // Same set of vertices...
        let mut sorted = round.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.n() as u32).collect::<Vec<_>>());
        // ...in (class, id)-lexicographic order.
        for w in round.windows(2) {
            let (ka, kb) = (degree_class(g.degree(w[0])), degree_class(g.degree(w[1])));
            assert!(ka < kb || (ka == kb && w[0] < w[1]));
        }
    }

    #[test]
    fn prefetch_ahead_is_safe_at_boundaries() {
        let g = generate(&GraphSpec::Cycle { n: 16 }, 0);
        let round: Vec<u32> = (0..16).collect();
        for i in 0..round.len() {
            prefetch_ahead(&g, &round, i); // must never index out of bounds
        }
        prefetch_ahead(&g, &[], 0);
    }

    #[test]
    fn decode_scratch_shortens_lookahead() {
        let g = generate(&GraphSpec::Cycle { n: 16 }, 0);
        assert_eq!(prefetch_dist(&g), PREFETCH_DIST, "raw arrays: full dist");
        let c = pgc_graph::CompressedCsr::from_compact(&g);
        assert!(pgc_graph::GraphView::decode_scratch_bytes(&c) > 0);
        assert_eq!(prefetch_dist(&c), PREFETCH_DIST_DECODED);
        let round: Vec<u32> = (0..16).collect();
        for i in 0..round.len() {
            prefetch_ahead(&c, &round, i);
        }
    }
}
