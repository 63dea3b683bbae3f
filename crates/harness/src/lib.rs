//! # pgc-harness
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§VI), each regenerating the corresponding rows/series. The
//! `pgc` binary dispatches to these; `pgc-bench` reuses them as criterion
//! workloads. See EXPERIMENTS.md for paper-vs-measured discussion.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod profiles;
pub mod report;
pub mod table;

pub use experiments::*;
