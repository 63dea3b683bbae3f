//! Workspace-wide observability with zero external dependencies.
//!
//! Three layers, each usable on its own:
//!
//! * [`recorder`] — a lock-free per-thread event recorder. Instrumented
//!   code drops [`span!`] guards and [`counter!`] adds; each thread writes
//!   into its own bounded ring buffer, and [`session_end`] drains every
//!   ring into a time-ordered [`Trace`]. When no session is active an
//!   event costs one relaxed atomic load; with the `capture` feature off
//!   the macros compile to nothing at all (pinned by the `obs_overhead`
//!   bench assertion in `pgc-bench`).
//! * [`histogram`] — [`LogHistogram`], a streaming log₂-bucketed latency
//!   histogram with p50/p90/p99/max that merges across threads — the
//!   building block for serve-mode latency percentiles.
//! * exporters — [`chrome`] writes Chrome trace-event JSON loadable in
//!   Perfetto / `chrome://tracing`, and [`report`] defines the JSONL
//!   [`RunRecord`](report::RunRecord) schema behind the harness's
//!   `--report` flag and `pgc report` subcommand. Both are built on the
//!   dependency-free JSON value type in [`json`].
//!
//! # Example
//!
//! ```
//! use pgc_obs::{counter, span};
//!
//! pgc_obs::session_begin();
//! {
//!     let _outer = span!("ingest");
//!     {
//!         let _inner = span!("count");
//!         counter!("edges", 128);
//!     }
//! }
//! let trace = pgc_obs::session_end();
//! if pgc_obs::CAPTURE {
//!     assert_eq!(trace.counter_total("edges"), 128);
//!     assert_eq!(trace.events.len(), 5); // 2 × begin/end + 1 counter
//! }
//! ```

#![warn(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod chrome;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod report;

pub use histogram::{HistogramSummary, LogHistogram};
pub use recorder::{
    counter_add, session_active, session_begin, session_end, EventKind, EventRecord, SpanGuard,
    Trace,
};

/// Whether the recorder was compiled in. `false` means every [`span!`] /
/// [`counter!`] expansion is a no-op and [`session_end`] always returns an
/// empty [`Trace`]; the `obs_overhead` bench asserts the no-op build has
/// no measurable per-event cost.
pub const CAPTURE: bool = cfg!(feature = "capture");

/// Open a named span on the current thread; it closes when the returned
/// guard drops. The guard is `#[must_use]`: binding it to `_` would end
/// the span immediately.
///
/// ```
/// let _guard = pgc_obs::span!("phase");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Add `delta` to a named monotonic counter on the current thread.
///
/// ```
/// pgc_obs::counter!("conflicts", 3u64);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta)
    };
}
