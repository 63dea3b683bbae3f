//! Streaming two-pass CSR construction: the [`EdgeSource`] trait and the
//! parallel builder that turns any re-playable arc stream into a
//! [`CompactCsr`] **without materializing an arc list**.
//!
//! The paper targets graphs where memory, not compute, binds (§II-A's
//! word-budget accounting). The old build path buffered every input edge
//! twice — an 8-byte `(u32, u32)` list plus a 16-byte symmetrized `u64`
//! arc array — before sorting; ~24 bytes per raw edge of transient
//! allocation, more than the finished CSR itself. The streaming engine
//! replaces that with two replays of the source, each run by one driver
//! over the `pgc-par` pool:
//!
//! ```text
//!            ┌───────────── pass 1 (count) ─────────────┐
//!  EdgeSource ──replay──▶ parallel degree count (atomics, self-loops
//!                         dropped; one part: n grown to max id + 1,
//!                         several parts: n = num_vertices())
//!                              │
//!                              ▼
//!                 parallel exclusive prefix sum
//!                 (pgc_primitives::offsets_from_counts,
//!                  u32 offsets while the arc total fits)
//!                              │
//!            ┌───────────── pass 2 (scatter) ───────────┐
//!  EdgeSource ──replay──▶ each directed arc a → b goes to row a; each
//!                         worker stages a batch of arcs as one run per
//!                         bucket of 2¹² rows, then applies each run under
//!                         that bucket's lock (plain cursor load + store),
//!                         writing the arc directly into place
//!                              │
//!                              ▼
//!                 per-row parallel sort + in-place dedup
//!                 (compaction pass only if duplicates existed)
//!
//!  each "replay" above:
//!    parts() = 1  ─▶ one sequential replay; each chunk fanned out
//!                    with for_each_chunk
//!    parts() = P  ─▶ min(P, 4 × width) replay_part calls run as pool
//!                    tasks, each processing its own chunks
//! ```
//!
//! Both passes see the same multiset of pairs whatever the partitioning
//! and schedule, and the per-row sort erases scatter order, so the
//! finished arrays are identical at every width and partition count.
//!
//! Peak transient memory is the scatter array (4 bytes per raw,
//! pre-dedup arc — duplicate-heavy inputs pay for their
//! duplicates until the compaction pass) plus `O(n)` counters and one
//! staged batch per pool strand (64 KiB of unit arcs each) — roughly
//! half the old path's peak, tracked exactly in
//! [`BuildStats::build_bytes_peak`] and surfaced by the harness's
//! `fig2_*` tables.
//!
//! Every producer in the workspace builds through this engine: the
//! generators replay by seeded regeneration ([`crate::gen::SpecSource`];
//! R-MAT, Erdős–Rényi and k-out partition by jumping their RNG ahead), the readers by re-scanning
//! their file ([`crate::io::EdgeListSource`] and friends, one partition),
//! and [`EdgeListBuilder`](crate::EdgeListBuilder) acts as the trivial
//! buffered source (partitioned by slice ranges) for API compatibility.

use crate::compact::{CompactCsr, Offsets};
use pgc_par::{for_each_chunk, for_each_chunk_mut};
use pgc_primitives::{offsets_from_counts, reduce_sum_u64, OffsetWord};
use rayon::prelude::*;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Adjacency lists at least this long are sorted with the parallel sort
/// (nested fork–join is fine on `pgc-par`); shorter lists sort inline on
/// whichever worker owns their vertex range.
const PAR_SORT_MIN_LEN: usize = 1 << 14;

/// Number of `(u32, u32)` pairs a well-behaved source emits per chunk:
/// big enough that the per-chunk parallel fan-out amortizes, small enough
/// that chunk buffers stay cache-resident and O(1) in the graph size.
pub const CHUNK_EDGES: usize = 1 << 16;

/// The chunk callback a builder hands to [`EdgeSource::replay`]: called
/// once per consecutive chunk of raw `(u, v)` pairs. The second slice is
/// always empty and ignored.
pub type ChunkFn<'a, W = ()> = dyn FnMut(&[(u32, u32)], &[W]) + 'a;

/// A re-playable, chunked stream of raw undirected edges — how graphs
/// enter the system.
///
/// The parameter `W` is always `()` and bounded by nothing: it stays only
/// because the pipeline benchmark names `EdgeSource::<()>` when it
/// replays a source.
///
/// A source describes a multiset of `(u, v)` pairs (self-loops and
/// duplicates permitted; loops are dropped and duplicates merged, while
/// the builder also materializes the reverse direction of every arc).
/// The builder consumes it with **two replays** — one to count degrees,
/// one to scatter neighbors — so
/// implementations must yield the *identical* sequence on every
/// [`replay`](Self::replay) call: buffered slices, a seeded generator
/// re-run, or a second scan of a file all qualify.
///
/// A replay is sequential unless the source can split it: a source with
/// [`parts`](Self::parts)` > 1` is replayed as that many (capped by the
/// pool width) concurrent [`replay_part`](Self::replay_part) calls, whose
/// in-order concatenation must equal `replay()`. Seeded generators jump
/// their RNG to each partition's first edge, buffered lists hand out
/// slice ranges; file readers keep the default single partition.
///
/// One documented limit: raw (pre-dedup) incident pairs are counted per
/// vertex in `u32`, so a single vertex appearing in ≥ 2³² raw pairs
/// (only possible via duplicates — ids themselves are `u32`) makes the
/// build fail with an `InvalidData` error rather than wrap silently.
///
/// # Example: a replayable file reader
///
/// ```no_run
/// use pgc_graph::stream::{build_compact, EdgeSource};
/// use pgc_graph::io::EdgeListSource;
///
/// // A SNAP-style `u v` edge list, replayed by reopening the file: the
/// // graph is built in two sequential scans with no edge buffering.
/// let src = EdgeListSource::new(std::path::PathBuf::from("web-graph.txt"));
/// assert_eq!(src.num_vertices(), 0); // unknown up front
/// let g = build_compact(&src)?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub trait EdgeSource<W = ()>: Sync {
    /// Vertex count known *a priori* (a declared header `n`, a generator
    /// parameter, …). Return 0 when unknown: the builder sizes the graph
    /// as `max(num_vertices(), max id seen + 1)`, so declared isolated
    /// tail vertices survive and id-discovering sources still work.
    fn num_vertices(&self) -> usize;

    /// Expected number of raw pairs per replay, if cheaply known. Purely
    /// advisory and may be approximate: the engine records it in
    /// [`BuildStats::hinted_edges`] next to the measured count, and
    /// benches/drivers use it to scale throughput before a build exists.
    fn edge_hint(&self) -> Option<usize> {
        None
    }

    /// Bytes this source keeps resident for the whole build (e.g. a
    /// buffered edge list). Counted into [`BuildStats::build_bytes_peak`];
    /// transient per-replay scratch is the source's own business.
    fn buffered_bytes(&self) -> usize {
        0
    }

    /// Stream the pairs, invoking `emit` with
    /// consecutive chunks. Must be deterministic: every call yields the
    /// same sequence. Implementations that produce edges one at a time
    /// can wrap `emit` in an [`EdgeSink`] to get the chunking for free.
    fn replay(&self, emit: &mut ChunkFn<'_, W>) -> io::Result<()>;

    /// How many independent pieces [`replay_part`](Self::replay_part)
    /// can usefully split one replay into — a property of the input
    /// (typically its raw edge count over [`CHUNK_EDGES`]), not a tuning
    /// knob. The builder replays at most `min(parts(), 4 × pool width)`
    /// partitions concurrently; `1` (the default) keeps the sequential
    /// replay with chunk-parallel processing.
    fn parts(&self) -> usize {
        1
    }

    /// Stream partition `part` of `parts` (`part < parts`, for *any*
    /// `parts ≥ 1`, not just [`parts()`](Self::parts)). The contract:
    /// concatenating partitions `0..parts` in order yields exactly the
    /// pairs of [`replay`](Self::replay), and a source whose
    /// `parts()` exceeds 1 emits only ids below
    /// [`num_vertices`](Self::num_vertices) — concurrent partitions
    /// cannot grow `n`, so the builder rejects such an id with
    /// `InvalidData`. The default replays everything as partition 0 and
    /// leaves the others empty, which meets the contract for any source.
    fn replay_part(&self, part: usize, parts: usize, emit: &mut ChunkFn<'_, W>) -> io::Result<()> {
        debug_assert!(part < parts);
        if part == 0 {
            self.replay(emit)
        } else {
            Ok(())
        }
    }
}

/// The index range partition `part` of `parts` covers in a sequence of
/// `len` items: consecutive, in order, near-equal, and tiling `0..len`
/// for any `parts ≥ 1` (partitions beyond `len` come out empty).
pub(crate) fn part_range(len: usize, part: usize, parts: usize) -> std::ops::Range<usize> {
    let at = |p: usize| (len as u128 * p as u128 / parts as u128) as usize;
    at(part)..at(part + 1)
}

/// Chunking adapter for [`EdgeSource::replay`] implementations: push
/// edges one at a time, and they are flushed to the underlying callback
/// in [`CHUNK_EDGES`]-sized chunks (plus a final partial chunk on drop).
pub struct EdgeSink<'a> {
    pairs: Vec<(u32, u32)>,
    emit: &'a mut ChunkFn<'a>,
}

impl<'a> EdgeSink<'a> {
    /// Wrap a chunk callback in an edge-at-a-time interface.
    pub fn new(emit: &'a mut ChunkFn<'a>) -> Self {
        Self {
            pairs: Vec::with_capacity(CHUNK_EDGES),
            emit,
        }
    }

    /// Add one raw pair (self-loops and duplicates are fine — the builder
    /// cleans them).
    #[inline]
    pub fn push(&mut self, u: u32, v: u32) {
        self.pairs.push((u, v));
        if self.pairs.len() == CHUNK_EDGES {
            self.flush();
        }
    }

    /// Flush any buffered edges to the callback.
    pub fn flush(&mut self) {
        if !self.pairs.is_empty() {
            (self.emit)(&self.pairs, &[]);
            self.pairs.clear();
        }
    }
}

impl Drop for EdgeSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Instrumentation of one streaming build, printed by the harness next to
/// the finished graph's memory footprint.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Wall-clock time of the whole ingestion (both passes + finalize).
    pub ingest: Duration,
    /// Peak bytes of build-side allocations (count/cursor/offset arrays,
    /// the neighbor scatter array, compaction scratch) plus the source's
    /// [`buffered_bytes`](EdgeSource::buffered_bytes).
    pub build_bytes_peak: usize,
    /// Raw pairs streamed per replay (before de-loop/dedup).
    pub raw_edges: usize,
    /// The source's [`edge_hint`](EdgeSource::edge_hint), recorded so
    /// consumers can see how tight a hint was against
    /// [`raw_edges`](Self::raw_edges).
    pub hinted_edges: Option<usize>,
    /// Directed arcs scattered in pass 2 (`2 ×` loop-free raw pairs,
    /// before dedup).
    pub raw_arcs: usize,
    /// Directed arcs in the finished graph (`2m`).
    pub arcs: usize,
}

impl BuildStats {
    /// Ingestion wall-clock in milliseconds.
    pub fn ingest_ms(&self) -> f64 {
        self.ingest.as_secs_f64() * 1e3
    }

    /// What the retired arc-list path would have allocated transiently for
    /// the same input: an 8-byte buffered pair per raw edge plus an
    /// 8-byte `u64` entry per symmetrized arc (self-loops were buffered
    /// but never expanded into arcs). Lower bound on its peak — useful as
    /// the baseline the streaming build must beat.
    pub fn arc_list_baseline_bytes(&self) -> usize {
        8 * (self.raw_edges + self.raw_arcs)
    }
}

/// Build the default [`CompactCsr`] from a source.
pub fn build_compact<S: EdgeSource + ?Sized>(src: &S) -> io::Result<CompactCsr> {
    build_compact_with_stats(src).map(|(g, _)| g)
}

/// [`build_compact`] returning the [`BuildStats`] instrumentation too.
pub fn build_compact_with_stats<S: EdgeSource + ?Sized>(
    src: &S,
) -> io::Result<(CompactCsr, BuildStats)> {
    build_compact_with_offset_limit(src, u32::MAX as usize)
}

// ---------------------------------------------------------------------
// The two-pass core
// ---------------------------------------------------------------------

/// Finished CSR rows as the engine produces them: width-resolved
/// offsets and neighbors.
type Rows = (Offsets, Vec<u32>);

/// Running high-water mark of build-side allocations, threaded through
/// every phase of one build.
#[derive(Default)]
struct Peak {
    cur: usize,
    peak: usize,
}

impl Peak {
    fn alloc(&mut self, bytes: usize) {
        self.cur += bytes;
        self.peak = self.peak.max(self.cur);
    }

    fn free(&mut self, bytes: usize) {
        self.cur -= bytes;
    }
}

/// Ties an offset width to the [`Offsets`] variant it packs into.
trait ScatterWord: OffsetWord {
    fn pack(offsets: Vec<Self>) -> Offsets;
}

impl ScatterWord for u32 {
    fn pack(offsets: Vec<Self>) -> Offsets {
        Offsets::Small(offsets)
    }
}

impl ScatterWord for usize {
    fn pack(offsets: Vec<Self>) -> Offsets {
        Offsets::Wide(offsets)
    }
}

/// The engine behind every build — two replays, no arc list — as
/// [`build_compact_with_stats`] with an explicit `u32` offset limit:
/// `u32_limit` is the largest arc total the `u32` offset width may
/// address. The builders pass `u32::MAX`; tests pass a small limit (0
/// always goes wide), forcing the 8-byte fallback on small graphs so the
/// `u32 → usize` boundary is exercisable without 4-billion-arc inputs.
#[doc(hidden)]
pub fn build_compact_with_offset_limit<S: EdgeSource + ?Sized>(
    src: &S,
    u32_limit: usize,
) -> io::Result<(CompactCsr, BuildStats)> {
    let t0 = Instant::now();
    let mut peak = Peak::default();
    peak.alloc(src.buffered_bytes());

    // ---- pass 1: parallel degree count, discovering n ----------------
    // Each vertex's count of raw non-loop incident pairs. A one-part
    // source may grow `n` past `num_vertices()` (geometrically, so
    // id-discovering sources pay amortized O(n), and the accounting
    // tracks the capacity actually reserved). A partitioned source may
    // not — its parts count concurrently into the declared array — so an
    // out-of-range id from it is `InvalidData`.
    let count_span = pgc_obs::span!("ingest.count");
    let declared = src.num_vertices();
    let mut counts: Vec<AtomicU32> = (0..declared).map(|_| AtomicU32::new(0)).collect();
    peak.alloc(counts.capacity() * 4);
    let mut n = declared;
    let out_of_range = AtomicBool::new(false);
    let raw_edges = replay_with(
        src,
        &mut counts,
        |counts, chunk| {
            let Some(mx) = chunk.iter().map(|&(u, v)| u.max(v)).max() else {
                return;
            };
            let need = mx as usize + 1;
            n = n.max(need);
            if counts.len() < need {
                let old_cap = counts.capacity();
                counts.resize_with(need.max(counts.len() * 2), || AtomicU32::new(0));
                peak.alloc((counts.capacity() - old_cap) * 4);
            }
        },
        |counts, chunk| {
            for &(u, v) in chunk {
                let (ui, vi) = (u as usize, v as usize);
                if ui.max(vi) >= counts.len() {
                    out_of_range.store(true, Ordering::Relaxed);
                } else if u != v {
                    counts[ui].fetch_add(1, Ordering::Relaxed);
                    counts[vi].fetch_add(1, Ordering::Relaxed);
                }
            }
        },
    )?;
    if out_of_range.load(Ordering::Relaxed) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "partitioned EdgeSource emitted a vertex id >= num_vertices()",
        ));
    }
    // Back to plain words, in place (same allocation); geometric growth
    // may have overshot, and only `0..n` are real vertices (the tail is
    // all-zero by construction).
    let cap = counts.capacity();
    let mut counts: Vec<u32> = counts.into_iter().map(AtomicU32::into_inner).collect();
    peak.free(cap * 4);
    peak.alloc(counts.capacity() * 4);
    counts.truncate(n);
    let total = reduce_sum_u64(&counts, |&c| c as u64) as usize;
    drop(count_span);

    // ---- pass 2 + finish, at the narrowest width addressing `total` ---
    let (offsets, neighbors) = if total < u32_limit {
        let (offsets, neighbors) = scatter::<u32, S>(src, counts, total, &mut peak)?;
        finish(offsets, neighbors, u32_limit, &mut peak)
    } else {
        let (offsets, neighbors) = scatter::<usize, S>(src, counts, total, &mut peak)?;
        finish(offsets, neighbors, u32_limit, &mut peak)
    };
    let stats = BuildStats {
        ingest: t0.elapsed(),
        build_bytes_peak: peak.peak,
        raw_edges,
        hinted_edges: src.edge_hint(),
        raw_arcs: total,
        arcs: neighbors.len(),
    };
    Ok((CompactCsr::from_offsets(offsets, neighbors), stats))
}

/// Partitions the replay driver runs per pool strand: a few more than
/// one, so uneven partitions (hub-heavy ranges, a preempted worker)
/// still balance by stealing.
const PARTS_PER_WORKER: usize = 4;

/// The replay driver behind both builder passes: replays `src` once over
/// the `pgc-par` pool and hands each raw pair to `body` exactly once — in
/// sub-slices of the source's chunks, concurrently. Returns the raw pair
/// count.
///
/// A one-part source replays sequentially and each chunk fans out with
/// `for_each_chunk`; before that, `grow` sees the whole chunk with
/// exclusive access to `state` (the count pass grows `n` there). A
/// source with more [`parts`](EdgeSource::parts) replays
/// `min(parts, 4 × width)` partitions as pool tasks and never calls
/// `grow`, so `body` must reject ids `state` cannot hold.
fn replay_with<S, T>(
    src: &S,
    state: &mut T,
    mut grow: impl FnMut(&mut T, &[(u32, u32)]),
    body: impl Fn(&T, &[(u32, u32)]) + Sync,
) -> io::Result<usize>
where
    S: EdgeSource + ?Sized,
    T: Sync,
{
    let parts = src.parts().min(PARTS_PER_WORKER * pgc_par::current_width());
    if parts <= 1 {
        let mut raw = 0usize;
        src.replay(&mut |chunk, _| {
            raw += chunk.len();
            grow(state, chunk);
            let state = &*state;
            for_each_chunk(chunk.len(), |r| body(state, &chunk[r]));
        })?;
        return Ok(raw);
    }
    let state = &*state;
    pgc_par::map_reduce_chunks(
        parts,
        1,
        |range| {
            let mut raw = 0usize;
            for part in range {
                src.replay_part(part, parts, &mut |chunk, _| {
                    raw += chunk.len();
                    body(state, chunk);
                })?;
            }
            Ok(raw)
        },
        |a, b| Ok(a? + b?),
    )
    .unwrap_or(Ok(0))
}

/// Rows per scatter bucket: one lock guards each run of `2¹²`
/// consecutive rows' cursors (16 KiB of them at the `u32` width).
const BUCKET_ROWS: usize = 1 << 12;

/// Pairs per staged batch: at most `2¹³` arcs, 64 KiB of unit entries.
const STAGE_PAIRS: usize = 1 << 12;

/// Lock one of the scatter pass's mutexes. Recovering a poisoned guard
/// is sound: every update under them (an arc placed, a stage list push
/// or pop) leaves the data valid at every step, a stage comes back
/// cleared, and the pool re-raises the panicking worker's panic when the
/// pass joins.
fn hold<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one scatter bucket lock guards: the write cursors of its
/// [`BUCKET_ROWS`] rows, where those rows end, and the neighbor slots
/// they own, which start at slot `base` of the whole array.
struct Bucket<'a, O> {
    cursors: &'a mut [O],
    ends: &'a [O],
    slots: &'a mut [u32],
    base: usize,
}

impl<O: OffsetWord> Bucket<'_, O> {
    /// Store `target` in the next free slot of the bucket's row `rel`,
    /// unless the row is full: an overfilled row must not spill into the
    /// next row's slots.
    #[inline]
    fn place(&mut self, rel: usize, target: u32) -> bool {
        let slot = self.cursors[rel].to_usize();
        if slot >= self.ends[rel].to_usize() {
            return false;
        }
        self.slots[slot - self.base] = target;
        self.cursors[rel] = O::from_usize(slot + 1);
        true
    }
}

/// One worker's staging buffers for pass 2, reused batch after batch.
#[derive(Default)]
struct Stage {
    /// The batch's arcs as `(row − bucket base, target)`, grouped into
    /// one run per bucket.
    arcs: Vec<(u32, u32)>,
    /// Per bucket: the batch's arc count, then the fill position of its
    /// run; all zero between batches.
    fill: Vec<u32>,
    /// The buckets the batch touched, in run order.
    touched: Vec<usize>,
}

impl Stage {
    fn new(buckets: usize) -> Self {
        Self {
            arcs: vec![(0, 0); 2 * STAGE_PAIRS],
            fill: vec![0; buckets],
            touched: Vec::with_capacity(buckets.min(2 * STAGE_PAIRS)),
        }
    }

    fn bytes(&self) -> usize {
        self.arcs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.fill.capacity() * 4
            + self.touched.capacity() * std::mem::size_of::<usize>()
    }
}

/// The stages of one scatter pass, owned by the pass and freed with it.
/// At most `cap` (the pool width) ever exist: a worker that finds them
/// all on loan waits for one, so the staging memory is bounded by width
/// × one stage however many threads the pool lends the pass.
struct Stages {
    /// Idle stages, and how many the pass has made.
    free: Mutex<(Vec<Stage>, usize)>,
    returned: Condvar,
    cap: usize,
    buckets: usize,
}

/// A stage on loan to one replay body. Dropping it — unwinding included,
/// so a panicking body cannot leave the others waiting — returns it,
/// cleared if the body stopped mid-batch.
struct Lease<'a> {
    stages: &'a Stages,
    stage: Stage,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.stage.fill.fill(0);
            self.stage.touched.clear();
        }
        hold(&self.stages.free)
            .0
            .push(std::mem::take(&mut self.stage));
        self.stages.returned.notify_one();
    }
}

impl Stages {
    fn new(cap: usize, buckets: usize) -> Self {
        Self {
            free: Mutex::new((Vec::new(), 0)),
            returned: Condvar::new(),
            cap,
            buckets,
        }
    }

    fn lease(&self) -> Lease<'_> {
        let mut free = hold(&self.free);
        let stage = loop {
            if let Some(stage) = free.0.pop() {
                break stage;
            }
            if free.1 < self.cap {
                free.1 += 1;
                drop(free);
                break Stage::new(self.buckets);
            }
            free = self
                .returned
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        };
        Lease {
            stages: self,
            stage,
        }
    }

    /// Bytes of every stage the pass made.
    fn into_bytes(self) -> usize {
        let (stages, _) = self
            .free
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        stages.iter().map(Stage::bytes).sum()
    }
}

/// Pass 2 at a fixed offset width: prefix-sum the degree counts, then
/// replay the source once and store each directed arc `a → b` of every
/// non-loop pair (both directions) in row `a`: its cursor claims the next
/// slot, which takes `b`.
///
/// Rows fall into buckets of [`BUCKET_ROWS`], and each bucket's lock owns
/// that bucket's cursors and neighbor slots (a [`Bucket`]): the cursor
/// and slot arrays are split once, along bucket boundaries, so a cursor is
/// a plain word read and advanced under its lock. Each worker stages up to
/// [`STAGE_PAIRS`] pairs at a time: it counts their arcs per bucket,
/// places them as one run per bucket, then applies each run holding its
/// bucket's lock once. A build of one bucket stages nothing and applies
/// each chunk in place under that one lock. Stage buffers are charged to
/// `peak` like the sort scratch and freed when the pass ends.
///
/// An id at or past `n`, an arc past its row's end, or a row whose cursor
/// does not end exactly at the next row's offset means the replay
/// diverged from the counted one: a file edited between scans, a
/// non-deterministic generator, a dropped or extra pair.
fn scatter<O: ScatterWord, S: EdgeSource + ?Sized>(
    src: &S,
    counts: Vec<u32>,
    total: usize,
    peak: &mut Peak,
) -> io::Result<(Vec<O>, Vec<u32>)> {
    let n = counts.len();
    let word = std::mem::size_of::<O>();
    let _scatter_span = pgc_obs::span!("ingest.scatter");

    let (offsets, sum) = offsets_from_counts::<O>(&counts);
    debug_assert_eq!(sum, total);
    peak.alloc((n + 1) * word);
    let counts_bytes = counts.capacity() * 4;
    drop(counts);
    peak.free(counts_bytes);

    // Cursors start at each row's offset; neighbors come zeroed from the
    // allocator.
    let mut cursor_words: Vec<O> = offsets[..n].to_vec();
    peak.alloc(cursor_words.capacity() * word);
    let mut neighbors: Vec<u32> = vec![0; total];
    peak.alloc(neighbors.capacity() * 4);
    let buckets = n.div_ceil(BUCKET_ROWS).max(1);
    let stages = Stages::new(pgc_par::current_width(), buckets);
    let diverged = AtomicBool::new(false);
    let lock_bytes = buckets * std::mem::size_of::<Mutex<Bucket<'_, O>>>();
    {
        let (mut cursors, mut slots) = (&mut cursor_words[..], &mut neighbors[..]);
        let locks: Vec<Mutex<Bucket<'_, O>>> = (0..buckets)
            .map(|b| {
                let first = b * BUCKET_ROWS;
                let rows = cursors.len().min(BUCKET_ROWS);
                let ends = &offsets[first + 1..=first + rows];
                let base = offsets[first].to_usize();
                let len = offsets[first + rows].to_usize() - base;
                let (bucket_cursors, rest) = std::mem::take(&mut cursors).split_at_mut(rows);
                cursors = rest;
                let (bucket_slots, rest) = std::mem::take(&mut slots).split_at_mut(len);
                slots = rest;
                Mutex::new(Bucket {
                    cursors: bucket_cursors,
                    ends,
                    slots: bucket_slots,
                    base,
                })
            })
            .collect();
        let (diverged, locks, stages) = (&diverged, &locks, &stages);
        // The arcs of one raw pair as `(row, target)`: none for a loop. A
        // pass-2 replay that grew (a file appended to between the two
        // scans) can present ids pass 1 never counted; drop them and
        // report divergence instead of panicking on the slice bounds.
        let arcs_of = |u: u32, v: u32| {
            if u == v {
                [None, None]
            } else if u as usize >= n || v as usize >= n {
                diverged.store(true, Ordering::Relaxed);
                [None, None]
            } else {
                [Some((u as usize, v)), Some((v as usize, u))]
            }
        };
        // Store one arc in row `rel` of the held bucket.
        let place = |bucket: &mut Bucket<'_, O>, rel: usize, target: u32| {
            if !bucket.place(rel, target) {
                diverged.store(true, Ordering::Relaxed);
            }
        };
        // Bound by name and called from a forwarding closure: passed to
        // `replay_with` directly, this body compiled to a larger function
        // that built R-MAT 18/16 about 3% slower.
        let body = |chunk: &[(u32, u32)]| {
            if buckets == 1 {
                let mut held = hold(&locks[0]);
                for &(u, v) in chunk {
                    for (row, target) in arcs_of(u, v).into_iter().flatten() {
                        place(&mut held, row, target);
                    }
                }
                return;
            }
            let mut lease = stages.lease();
            let Stage {
                arcs,
                fill,
                touched,
            } = &mut lease.stage;
            for batch in chunk.chunks(STAGE_PAIRS) {
                for &(u, v) in batch {
                    for (row, _) in arcs_of(u, v).into_iter().flatten() {
                        let b = row / BUCKET_ROWS;
                        if fill[b] == 0 {
                            touched.push(b);
                        }
                        fill[b] += 1;
                    }
                }
                let mut run_start = 0;
                for &b in touched.iter() {
                    let count = fill[b];
                    fill[b] = run_start;
                    run_start += count;
                }
                for &(u, v) in batch {
                    for (row, target) in arcs_of(u, v).into_iter().flatten() {
                        let b = row / BUCKET_ROWS;
                        arcs[fill[b] as usize] = ((row % BUCKET_ROWS) as u32, target);
                        fill[b] += 1;
                    }
                }
                let mut lo = 0;
                for &b in touched.iter() {
                    let hi = fill[b] as usize;
                    let mut held = hold(&locks[b]);
                    for &(rel, target) in &arcs[lo..hi] {
                        place(&mut held, rel as usize, target);
                    }
                    fill[b] = 0;
                    lo = hi;
                }
                touched.clear();
            }
        };
        replay_with(src, &mut (), |_, _| {}, |_, chunk| body(chunk))?;
    }
    // Record the stages and the bucket locks they took turns under at
    // their high-water, then release them: they die with the pass. A
    // one-bucket build makes no stage and charges nothing for its lock.
    let staged = stages.into_bytes();
    if staged > 0 {
        peak.alloc(staged + lock_bytes);
        peak.free(staged + lock_bytes);
    }
    // A source whose second replay differs from the first (a file edited
    // between the two scans, a non-deterministic generator) trips the
    // flag above or leaves some cursor short of its row's end. Catch it
    // here instead of handing back a silently corrupt graph.
    let cursors_short = pgc_par::map_reduce_chunks(
        n,
        0,
        |r| {
            r.into_iter()
                .any(|v| cursor_words[v].to_usize() != offsets[v + 1].to_usize())
        },
        |a, b| a || b,
    )
    .unwrap_or(false);
    if diverged.load(Ordering::Relaxed) || cursors_short {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "EdgeSource replay diverged between the count and scatter passes",
        ));
    }
    let cursor_bytes = cursor_words.capacity() * word;
    drop(cursor_words);
    peak.free(cursor_bytes);
    Ok((offsets, neighbors))
}

/// The finish of the engine: sort each scattered row in place (rows of
/// at least [`PAR_SORT_MIN_LEN`] arcs with the parallel sort), dedup it,
/// and compact only if duplicates were dropped, re-deciding the offset
/// width from the post-dedup total. On return `peak` charges the returned
/// arrays in place of the scattered ones.
fn finish<O: ScatterWord>(
    offsets: Vec<O>,
    mut neighbors: Vec<u32>,
    u32_limit: usize,
    peak: &mut Peak,
) -> Rows {
    let n = offsets.len() - 1;
    let total = neighbors.len();
    let _sort_span = pgc_obs::span!("ingest.sort");
    let deduped: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    peak.alloc(n * 4);
    for_each_chunk_mut(
        n,
        &mut neighbors,
        |v| offsets[v].to_usize(),
        |range, rows| {
            let base = offsets[range.start].to_usize();
            for v in range {
                let list =
                    &mut rows[offsets[v].to_usize() - base..offsets[v + 1].to_usize() - base];
                // Hub adjacencies (scale-free graphs concentrate a large
                // share of all arcs on a few vertices) would serialize the
                // whole phase on one worker; fork their sorts too.
                if list.len() >= PAR_SORT_MIN_LEN {
                    list.par_sort_unstable();
                } else {
                    list.sort_unstable();
                }
                let mut out = 0usize;
                for i in 0..list.len() {
                    if i == 0 || list[i] != list[i - 1] {
                        list[out] = list[i];
                        out += 1;
                    }
                }
                deduped[v].store(out as u32, Ordering::Relaxed);
            }
        },
    );
    // Back to plain words, in place (same allocation).
    let deduped: Vec<u32> = deduped.into_iter().map(AtomicU32::into_inner).collect();
    let kept = reduce_sum_u64(&deduped, |&d| d as u64) as usize;
    if kept == total {
        // No duplicates anywhere: the scatter array is already the final
        // neighbor array and the pass-2 offsets are exact.
        peak.free(n * 4);
        return (O::pack(offsets), neighbors);
    }

    // ---- compaction: close the gaps dedup left -----------------------
    let fin = if kept < u32_limit {
        compact_lists::<O, u32>(&offsets, &neighbors, &deduped, kept, peak)
    } else {
        compact_lists::<O, usize>(&offsets, &neighbors, &deduped, kept, peak)
    };
    peak.free(n * 4); // `deduped`
    peak.free((n + 1) * std::mem::size_of::<O>()); // scatter offsets
    peak.free(total * 4); // neighbor scatter array
    fin
}

/// Copy the deduped prefix of each row into a dense final array,
/// re-deciding the offset width from the post-dedup arc total.
fn compact_lists<O: ScatterWord, F: ScatterWord>(
    offsets: &[O],
    neighbors: &[u32],
    deduped: &[u32],
    kept: usize,
    peak: &mut Peak,
) -> Rows {
    let n = deduped.len();
    let (fin_offsets, sum) = offsets_from_counts::<F>(deduped);
    debug_assert_eq!(sum, kept);
    peak.alloc((n + 1) * std::mem::size_of::<F>());
    let mut fin: Vec<u32> = vec![0; kept];
    peak.alloc(kept * 4);
    for_each_chunk_mut(
        n,
        &mut fin,
        |v| fin_offsets[v].to_usize(),
        |range, rows| {
            let base = fin_offsets[range.start].to_usize();
            for v in range {
                let src_lo = offsets[v].to_usize();
                let d = deduped[v] as usize;
                let dst_lo = fin_offsets[v].to_usize() - base;
                rows[dst_lo..dst_lo + d].copy_from_slice(&neighbors[src_lo..src_lo + d]);
            }
        },
    );
    (F::pack(fin_offsets), fin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// How [`Hostile`]'s partition 2 breaks the partition contract.
    #[derive(Clone, Copy, Debug)]
    enum Breach {
        /// Emits an id ≥ `num_vertices()`.
        IdOutOfRange,
        /// Emits one pair fewer on every replay after the first.
        ShortAfterFirst,
    }

    /// A source of four partitions over 8 vertices (a cycle), honest
    /// except for partition 2.
    struct Hostile {
        breach: Breach,
        calls: AtomicUsize,
    }

    impl Hostile {
        fn new(breach: Breach) -> Self {
            Self {
                breach,
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl EdgeSource for Hostile {
        fn num_vertices(&self) -> usize {
            8
        }

        fn parts(&self) -> usize {
            4
        }

        fn replay(&self, emit: &mut ChunkFn<'_>) -> io::Result<()> {
            (0..4).try_for_each(|p| self.replay_part(p, 4, emit))
        }

        fn replay_part(&self, part: usize, parts: usize, emit: &mut ChunkFn<'_>) -> io::Result<()> {
            for block in part_range(4, part, parts) {
                let b = block as u32;
                let mut pairs = vec![(2 * b, 2 * b + 1), (2 * b + 1, (2 * b + 2) % 8)];
                if block == 2 {
                    match self.breach {
                        Breach::IdOutOfRange => pairs.push((5, 9)),
                        Breach::ShortAfterFirst => {
                            if self.calls.fetch_add(1, Ordering::Relaxed) > 0 {
                                pairs.pop();
                            }
                        }
                    }
                }
                emit(&pairs, &[]);
            }
            Ok(())
        }
    }

    #[test]
    fn hostile_partitions_are_errors_not_panics() {
        for (breach, msg) in [
            (Breach::IdOutOfRange, "num_vertices"),
            (Breach::ShortAfterFirst, "diverged"),
        ] {
            for width in [1, 2, 8] {
                let src = Hostile::new(breach);
                let err = pgc_par::install(width, || build_compact(&src)).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{breach:?}");
                assert!(err.to_string().contains(msg), "{breach:?}: {err}");
            }
        }
    }

    #[test]
    fn part_ranges_tile_in_order() {
        for (len, parts) in [(0, 1), (10, 1), (10, 3), (7, 7), (3, 8), (1 << 20, 64)] {
            let mut next = 0;
            for p in 0..parts {
                let r = part_range(len, p, parts);
                assert_eq!(r.start, next, "len {len} parts {parts}");
                assert!(r.len() <= len.div_ceil(parts));
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    /// Width-independent CSR arrays: offsets read through `arc_range`.
    fn csr_arrays(g: &CompactCsr) -> (Vec<usize>, &[u32]) {
        let mut offsets: Vec<usize> = g.vertices().map(|v| g.arc_range(v).start).collect();
        offsets.push(g.num_arcs());
        (offsets, g.raw_neighbors())
    }

    /// Minimal in-memory source over a pair slice.
    struct VecSource {
        n: usize,
        pairs: Vec<(u32, u32)>,
    }

    impl EdgeSource for VecSource {
        fn num_vertices(&self) -> usize {
            self.n
        }

        fn edge_hint(&self) -> Option<usize> {
            Some(self.pairs.len())
        }

        fn replay(&self, emit: &mut ChunkFn<'_>) -> io::Result<()> {
            // Tiny chunks on purpose: exercise chunk-boundary handling.
            for chunk in self.pairs.chunks(3) {
                emit(chunk, &[]);
            }
            Ok(())
        }
    }

    #[test]
    fn cleans_loops_and_duplicates() {
        let src = VecSource {
            n: 3,
            pairs: vec![(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)],
        };
        let g = build_compact(&src).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn grows_n_beyond_declared() {
        let src = VecSource {
            n: 0,
            pairs: vec![(0, 5), (2, 3)],
        };
        let g = build_compact(&src).unwrap();
        assert_eq!(g.n(), 6, "n discovered as max id + 1");
        assert!(g.has_edge(0, 5));
    }

    #[test]
    fn declared_isolated_tail_survives() {
        let src = VecSource {
            n: 9,
            pairs: vec![(0, 1)],
        };
        let g = build_compact(&src).unwrap();
        assert_eq!(g.n(), 9);
        assert_eq!(g.degree(8), 0);
    }

    #[test]
    fn empty_source() {
        let src = VecSource {
            n: 4,
            pairs: vec![],
        };
        let (g, stats) = build_compact_with_stats(&src).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(stats.raw_edges, 0);
        assert_eq!(stats.arcs, 0);
        let none = VecSource {
            n: 0,
            pairs: vec![],
        };
        assert_eq!(build_compact(&none).unwrap().n(), 0);
    }

    #[test]
    fn self_loops_only() {
        let src = VecSource {
            n: 3,
            pairs: vec![(0, 0), (1, 1)],
        };
        let g = build_compact(&src).unwrap();
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn forced_wide_matches_small() {
        let pairs: Vec<(u32, u32)> = (0..40u32).map(|i| (i % 7, (i * 3 + 1) % 7)).collect();
        let src = VecSource { n: 7, pairs };
        let small = build_compact(&src).unwrap();
        assert_eq!(small.offset_width(), 4);
        let (wide, _) = build_compact_with_offset_limit(&src, 1).unwrap();
        assert_eq!(wide.offset_width(), std::mem::size_of::<usize>());
        assert_eq!(csr_arrays(&wide), csr_arrays(&small));
    }

    #[test]
    fn stats_track_peak_and_timing() {
        let pairs: Vec<(u32, u32)> = (0..5_000u32).map(|i| (i % 900, (i * 7) % 900)).collect();
        let raw = pairs.len();
        let src = VecSource { n: 900, pairs };
        let (g, stats) = build_compact_with_stats(&src).unwrap();
        assert_eq!(stats.raw_edges, raw);
        assert_eq!(stats.arcs, g.num_arcs());
        assert!(stats.build_bytes_peak > 0);
        assert!(
            stats.build_bytes_peak < stats.arc_list_baseline_bytes(),
            "streaming peak {} must beat the arc-list baseline {}",
            stats.build_bytes_peak,
            stats.arc_list_baseline_bytes()
        );
        assert!(stats.ingest_ms() >= 0.0);
    }

    #[test]
    fn diverging_replay_is_an_error_not_a_corrupt_graph() {
        /// Emits one fewer pair on every successive replay.
        struct Shrinking {
            calls: std::sync::atomic::AtomicUsize,
        }

        impl EdgeSource for Shrinking {
            fn num_vertices(&self) -> usize {
                6
            }

            fn replay(&self, emit: &mut ChunkFn<'_>) -> io::Result<()> {
                let call = self.calls.fetch_add(1, Ordering::Relaxed);
                let pairs = [(0u32, 1u32), (2, 3), (4, 5)];
                emit(&pairs[..pairs.len() - call.min(pairs.len())], &[]);
                Ok(())
            }
        }

        let src = Shrinking {
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let err = build_compact(&src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    /// A cycle over `n` vertices, one part, whose replays after the
    /// first `honest` ones move one pair's endpoint: `(k, k + 1)` becomes
    /// `(k, k + 2)`. The pair count stays the same, so only the rows'
    /// fill betrays the divergence — row `k + 2` gets one arc too many.
    struct Cycle {
        n: u32,
        honest: usize,
        calls: AtomicUsize,
    }

    impl EdgeSource for Cycle {
        fn num_vertices(&self) -> usize {
            self.n as usize
        }

        fn replay(&self, emit: &mut ChunkFn<'_>) -> io::Result<()> {
            let moved = self.calls.fetch_add(1, Ordering::Relaxed) >= self.honest;
            let k = self.n / 2;
            let mut sink = EdgeSink::new(emit);
            for u in 0..self.n {
                let shift = if moved && u == k { 2 } else { 1 };
                sink.push(u, (u + shift) % self.n);
            }
            Ok(())
        }
    }

    #[test]
    fn moved_endpoint_is_an_error_not_a_row_overflow() {
        // Several 4,096-row buckets, so the overfilled row sits mid-graph.
        let n = 3 * (1 << 12) + 5;
        for width in [1, 2, 4] {
            let cycle = || Cycle {
                n,
                honest: 1,
                calls: AtomicUsize::new(0),
            };
            let err = pgc_par::install(width, || build_compact(&cycle())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "width {width}");
            assert!(err.to_string().contains("diverged"), "width {width}: {err}");
        }
    }

    #[test]
    fn staging_is_charged_and_bounded_by_width_stages() {
        // A cycle has no loops or duplicates and declares its `n`, so the
        // arrays charged before staging are exactly: offsets and cursors
        // (one word per row, offsets one more), the neighbor array, and
        // the counts that `deduped` later replaces.
        for n in [4_000u32, 3 * BUCKET_ROWS as u32 + 5] {
            let rows = n as usize;
            let arrays = 4 * (rows + 1) + 4 * rows + 4 * 2 * rows;
            let buckets = rows.div_ceil(BUCKET_ROWS);
            let stage = Stage::new(buckets).bytes()
                + buckets * std::mem::size_of::<Mutex<Bucket<'_, u32>>>();
            for width in [1, 2, 4] {
                let src = Cycle {
                    n,
                    honest: usize::MAX,
                    calls: AtomicUsize::new(0),
                };
                let (g, stats) =
                    pgc_par::install(width, || build_compact_with_stats(&src)).unwrap();
                assert_eq!(g.num_arcs(), 2 * rows);
                let peak = stats.build_bytes_peak;
                if buckets == 1 {
                    assert_eq!(peak, arrays, "one bucket stages nothing (width {width})");
                } else {
                    assert!(
                        peak > arrays && peak <= arrays + width * stage,
                        "width {width}: peak {peak} vs arrays {arrays} + {width} × {stage}"
                    );
                }
            }
        }
    }

    #[test]
    fn growing_replay_is_an_error_not_a_panic() {
        /// Emits extra pairs — including an out-of-range id — on every
        /// replay after the first (a file appended to between scans).
        struct Growing {
            calls: std::sync::atomic::AtomicUsize,
        }

        impl EdgeSource for Growing {
            fn num_vertices(&self) -> usize {
                3
            }

            fn replay(&self, emit: &mut ChunkFn<'_>) -> io::Result<()> {
                let call = self.calls.fetch_add(1, Ordering::Relaxed);
                emit(&[(0, 1), (1, 2)], &[]);
                if call > 0 {
                    emit(&[(0, 2), (7, 8)], &[]);
                }
                Ok(())
            }
        }

        let src = Growing {
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let err = build_compact(&src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn sink_flushes_on_chunk_boundary_and_drop() {
        let mut chunks: Vec<usize> = Vec::new();
        {
            let mut emit = |c: &[(u32, u32)], _: &[()]| chunks.push(c.len());
            let mut sink = EdgeSink::new(&mut emit);
            for i in 0..(CHUNK_EDGES + 5) {
                sink.push(i as u32 % 11, (i as u32 + 1) % 11);
            }
        }
        assert_eq!(chunks, vec![CHUNK_EDGES, 5]);
    }
}
