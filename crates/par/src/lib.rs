//! # pgc-par
//!
//! A `std::thread`-based fork–join runtime: the execution engine behind the
//! workspace's `rayon` facade (`crates/shims/rayon`), and the reason the
//! paper's `threads: 1..8` sweeps measure real hardware parallelism instead
//! of a sequential shim.
//!
//! ## Design
//!
//! * **Work-stealing scheduler** ([`pool`], `deque`): every forking
//!   thread owns a Chase–Lev deque. Fork halves are pushed at the bottom
//!   (lock-free, single-writer) and executed LIFO by their owner for
//!   cache locality; idle workers steal FIFO from the top of a randomly
//!   chosen victim with a single CAS, taking the oldest — and therefore
//!   largest — pending subtree. A bounded lock-free MPMC *injector*
//!   catches submissions from threads without a deque slot. There is no
//!   global lock on the hot path. Workers are daemon threads created on
//!   first parallel call, spawned on demand up to the largest width any
//!   caller installs (capped at [`pool::MAX_WORKERS`]), so
//!   `install(8, ..)` works even on machines with fewer cores. Idle
//!   workers back off through exponential spin, then yields, then a
//!   condvar park guarded by a sleepers counter — busy phases never touch
//!   the condvar, idle CPUs still go quiet.
//! * **Two-way [`join`]**: the classic fork–join primitive. The calling
//!   thread runs the first closure itself and pushes the second onto its
//!   own deque; if no thief took it by the time the first half is done,
//!   the caller pops it straight back and runs it inline — the un-stolen
//!   fork costs one deque push/pop (a CAS only in the last-element race),
//!   not a scan of a shared queue. While blocked on a stolen half, the
//!   caller *helps*: own deque first, then the injector, then steals —
//!   which also makes nested fork–join deadlock-free.
//! * **Scoped spawning** ([`scope()`]/[`Scope`]): structured task parallelism
//!   with non-`'static` borrows. All spawned tasks complete before
//!   `scope` returns; panics are captured and re-thrown at the scope
//!   boundary.
//! * **Blocked loops and reductions** ([`loops`]): `for_each_chunk` /
//!   `map_reduce_chunks` recursively halve an index range down to a grain
//!   and `join` the halves — the logarithmic-depth reduction tree the
//!   paper's work–depth analysis assumes. `map_reduce_chunks` combines up
//!   a binary tree fixed by `(len, grain)`, so reductions are
//!   **deterministic** regardless of which threads execute the leaves
//!   (and, for associative combines, identical across widths too).
//!   `for_each_chunk` — which has no combine order to protect — splits
//!   *adaptively*: one coarse chunk per strand, subdividing further only
//!   while the pool's [`steal_count`] is moving, so uncontended runs skip
//!   the oversubscription overhead entirely.
//! * **Disjoint row writes** ([`for_each_chunk_mut`]): the fork–join loop
//!   in which each vertex writes only its own CSR row (the builder's sort
//!   and compaction, the compressed encoder and decoder, DEC's constraint
//!   rows). It walks `map_reduce_chunks`' fixed tree and cuts the output
//!   array along the caller's row starts with `split_at_mut`, so every
//!   leaf owns a plain `&mut` slice: no atomics, no raw pointers.
//!
//! Determinism under stealing, in one sentence: the scheduler only ever
//! decides *where* a leaf executes, never what a leaf computes nor the
//! order results are combined — so every bit-identical-coloring guarantee
//! holds by construction on any schedule.
//!
//! ## Widths
//!
//! Parallel *width* (how many strands a loop is split across) is a scoped,
//! per-thread property, not a pool property: [`install`]`(t, f)` runs `f`
//! with width `t`, and tasks forked under that width inherit it. Width 1
//! executes everything inline on the caller — a true sequential mode. The
//! default width is `PGC_THREADS` (a single integer) if set, otherwise
//! [`std::thread::available_parallelism`]. This is how the harness's
//! `with_threads` and the facade's `ThreadPoolBuilder::num_threads`
//! actually take effect.
//!
//! ## Ownership rules and memory ordering
//!
//! Each deque has exactly one owner thread (`push`/`pop`); any thread may
//! `steal`. Owner/thief agreement on the last element rests on the
//! Chase–Lev seq-cst fence protocol (see `deque`'s module docs for the
//! full argument); job hand-off through a successful steal or injector
//! pop is release/acquire, and completion (latch release/acquire, scope
//! pending-counter `AcqRel`) establishes happens-before edges between a
//! task and whoever spawned/joined it. Algorithm code may therefore use
//! `Relaxed` atomics for data written in one parallel phase and read in
//! the next: the phase boundary is a synchronization point, exactly the
//! CRCW model the paper assumes.

#![warn(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

mod deque;

pub mod loops;
pub mod pool;
pub mod scope;

pub use loops::{
    auto_grain, for_each_chunk, for_each_chunk_mut, map_reduce_chunks, DEFAULT_MIN_GRAIN,
};
pub use pool::{current_width, default_width, install, join, pool_size, steal_count};
pub use scope::{scope, Scope};
