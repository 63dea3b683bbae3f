//! # pgc-cachesim
//!
//! Software substitute for the paper's Fig. 4 hardware-counter experiment.
//!
//! The paper measures L3-miss and stalled-cycle *fractions* per algorithm
//! with PAPI on a 18 MB-L3 Xeon. Hardware counters are unavailable here, so
//! this crate reproduces the experiment's signal — *relative locality
//! across algorithms* — with a trace-driven, set-associative LRU cache
//! simulator:
//!
//! 1. [`cache`] models one cache level (configurable line size, sets,
//!    ways) with true LRU replacement,
//! 2. [`trace`] replays the memory access pattern of each coloring
//!    algorithm's hot loops (CSR offsets, neighbor arrays, color/degree
//!    vectors mapped to disjoint address regions) against the cache,
//! 3. [`report`](simulate_algorithm) converts hit/miss counts into the two
//!    fractions Fig. 4 plots: the L3 miss ratio and a stalled-cycle proxy
//!    (misses weighted by a memory-latency penalty).
//!
//! The simulator is single-pass and sequential; the paper's insight this
//! reproduces is that ordering-based algorithms (JP-ADG, DEC-ADG-ITR) touch
//! memory in batch-local patterns comparable to their baselines, i.e. their
//! quality gains do not come at the price of extra memory pressure.

#![forbid(unsafe_code)]

pub mod cache;
pub mod trace;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use trace::{simulate_algorithm, CacheReport};
