//! # pgc-mining
//!
//! The paper closes by noting that "degeneracy ordering is used beyond
//! graph coloring \[49\]–\[52\]; thus, our ADG scheme is of separate interest"
//! and names maximal-clique mining and the (2+ε)-approximate densest
//! subgraph of Dhulipala et al. \[61\] as consumers. This crate realizes
//! that claim:
//!
//! * [`densest`] — approximate **densest subgraph** from the ADG peeling
//!   levels (Charikar's peeling argument batched exactly like ADG), with
//!   the chosen suffix available as a zero-copy
//!   [`InducedView`](pgc_graph::InducedView),
//! * [`coreness`] — per-vertex **coreness upper estimates** from the ADG
//!   level thresholds, validated against the exact bucket-peeling values,
//!   plus exact k-core extraction as a zero-copy view,
//! * [`cliques`] — **maximal clique enumeration** (Bron–Kerbosch with
//!   pivoting) driven by a degeneracy-style order \[50\], where the order's
//!   quality (max back-degree, exactly what ADG bounds by 2(1+ε)d) caps
//!   the recursion's candidate-set size,
//! * [`triangles`] — parallel **triangle counting** (forward algorithm)
//!   whose inner loop is the shared adaptive sorted-set intersection
//!   kernel from `pgc-primitives`.

pub mod cliques;
pub mod coreness;
pub mod densest;
pub mod triangles;

pub use cliques::{count_maximal_cliques, max_clique_size, maximal_cliques};
pub use coreness::{approx_coreness, kcore_view};
pub use densest::{approx_densest_subgraph, densest_view, DensestResult};
pub use triangles::{count_triangles, global_clustering, triangle_counts};
