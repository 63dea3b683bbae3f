//! # pgc-primitives
//!
//! Parallel compute primitives used throughout the graph-coloring
//! reproduction of Besta et al., *"High-Performance Parallel Graph Coloring
//! with Strong Guarantees on Work, Depth, and Quality"* (SC'20).
//!
//! The paper (§II-D) assumes a small set of classic work–depth primitives:
//!
//! * [`reduce`] — `Reduce`, `Count`, and `PrefixSum` with `O(n)` work and
//!   `O(log n)` depth (realized on rayon's fork–join scheduler),
//! * [`join`] — `DecrementAndFetch` / `Join` counters used by the
//!   Jones–Plassmann engine to release a vertex once all its DAG
//!   predecessors are colored,
//! * [`bitmap`] — dense atomic bitmaps for the sets `U` and `R` of the ADG
//!   algorithm and per-vertex forbidden-color bitmaps `B_v` of DEC-ADG,
//! * [`sort`] — linear-time counting/radix integer sorts used by the §V-B
//!   "explicit ordering in R(·)" optimization,
//! * [`intersect`] — the adaptive sorted-set intersection kernel
//!   (branch-lean merge / galloping / reusable [`MarkSet`] bitset)
//!   behind clique enumeration, distance-2 scans, and triangle counting,
//! * [`rng`] — a counter-based (hash) RNG giving deterministic *parallel*
//!   randomness: every `(seed, round, vertex)` triple yields an independent
//!   stream, so Monte-Carlo coloring (SIM-COL) is reproducible regardless of
//!   thread schedule,
//! * [`varint`] — the block-structured delta-varint codec for sorted `u32`
//!   runs behind the compressed CSR representation and the v2 snapshot
//!   section (anchored 64-value blocks, unrolled block decode,
//!   gallop-style [`varint::Decoder::skip_to`] seeks).

#![warn(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod bitmap;
pub mod intersect;
pub mod join;
pub mod reduce;
pub mod rng;
pub mod sort;
pub mod varint;

pub use bitmap::{AtomicBitmap, FixedBitmap};
pub use intersect::{intersect_count, intersect_sorted, intersect_sorted_into, MarkSet};
pub use join::JoinCounters;
pub use reduce::{
    count, offsets_from_counts, prefix_sum_exclusive, reduce_max, reduce_sum_u64, OffsetWord,
};
pub use rng::{hash_mix, random_permutation, Rng, SplitMix64};
pub use sort::{counting_sort_by_key, radix_sort_pairs};
