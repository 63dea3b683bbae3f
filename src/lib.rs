//! # parallel-graph-coloring
//!
//! A from-scratch Rust reproduction of Besta et al., *"High-Performance
//! Parallel Graph Coloring with Strong Guarantees on Work, Depth, and
//! Quality"* (ACM/IEEE Supercomputing 2020).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`primitives`] — work–depth compute primitives (§II-D),
//! * [`graph`] — CSR graphs, streaming two-pass ingestion
//!   (`graph::stream::EdgeSource`), generators, I/O, binary snapshots,
//!   exact degeneracy (§II-A/B),
//! * [`order`] — vertex orderings incl. the ADG approximate degeneracy
//!   ordering, the paper's contribution #1 (§III),
//! * [`color`] — the coloring algorithms: JP-X / JP-ADG (§IV-A), SIM-COL &
//!   DEC-ADG (§IV-B), DEC-ADG-ITR (§IV-C), speculative baselines, greedy
//!   baselines, verification and metrics. [`color::run`] maps an
//!   [`color::Algorithm`] tag to its engine, and runs report the shared
//!   [`color::Instrumentation`] measurements (times, rounds, conflicts),
//! * [`cachesim`] — the software cache simulator substituting for the
//!   paper's PAPI hardware-counter measurements (Fig. 4),
//! * [`mining`] — "ADG beyond coloring" (§VIII): approximate densest
//!   subgraph, coreness estimation, maximal cliques, triangle counting,
//! * [`obs`] — observability: the lock-free span/counter recorder behind
//!   the `pgc --trace` flag, mergeable log₂ latency histograms, and the
//!   Chrome-trace / JSONL report exporters (`--report`, `pgc report`).
//!   Compiled to no-ops when the default `obs` feature is disabled.
//!
//! ## Quickstart
//!
//! ```
//! use parallel_graph_coloring as pgc;
//! use pgc::graph::gen::{self, GraphSpec};
//! use pgc::color::{self, Algorithm, Params};
//!
//! // A scale-free graph similar in spirit to the paper's social networks.
//! let g = gen::generate(&GraphSpec::BarabasiAlbert { n: 2_000, attach: 8 }, 42);
//! let run = color::run(&g, Algorithm::JpAdg, &Params::default());
//! color::verify::assert_proper(&g, &run.colors);
//! // JP-ADG guarantees at most 2(1+eps)d + 1 colors.
//! let d = pgc::graph::degeneracy::degeneracy(&g).degeneracy;
//! assert!(run.num_colors <= color::verify::bounds::jp_adg(d, 0.01));
//! // JP is schedule-deterministic: the same graph and parameters give
//! // the same coloring on any representation, at any width.
//! let packed = pgc::graph::CompressedCsr::from_compact(&g);
//! let again = color::run(&packed, Algorithm::JpAdg, &Params::default());
//! assert_eq!(again.colors, run.colors);
//! ```

#![forbid(unsafe_code)]

pub use pgc_cachesim as cachesim;
pub use pgc_core as color;
pub use pgc_graph as graph;
pub use pgc_mining as mining;
pub use pgc_obs as obs;
pub use pgc_order as order;
pub use pgc_primitives as primitives;
