//! Compressed CSR: delta-varint adjacencies behind [`GraphView`].
//!
//! The coloring kernels are memory-bandwidth-bound: every JP level,
//! speculative conflict round, and ADG peel streams neighbor arrays, so
//! bytes-per-edge is the throughput ceiling. [`CompressedCsr`] stores
//! each sorted adjacency as a [`pgc_primitives::varint`] run inside one
//! contiguous **encoded byte arena** — anchored 64-value blocks of
//! packed deltas, ~½–¼ the raw `u32` bytes on the harness's generator
//! families — and serves the full [`GraphView`] contract through a chunked-decode neighbor iterator, so all 21
//! coloring algorithms and the mining workloads run on it unchanged.
//!
//! Layout:
//!
//! * `offsets` — decoded arc positions (`n + 1`, width-adaptive like
//!   [`CompactCsr`]): O(1) degrees,
//! * `byte_offsets` — each vertex's byte range inside the arena,
//! * `arena` — the concatenated encoded runs, either heap-owned or
//!   borrowed zero-copy from an `mmap`ed v2 snapshot
//!   ([`crate::snapshot::load_compressed_snapshot`]).
//!
//! Iteration decodes one 64-value block at a time into a scratch buffer
//! inline in the iterator (256 B, stack-resident); full-slice consumers
//! use [`CompressedCsr::with_neighbor_slice`], which decodes into a
//! per-thread scratch ring. Both scratches are charged into
//! [`GraphMemory::aux_bytes`] so the "exact footprint" claim stays
//! honest, and [`GraphView::decode_scratch_bytes`] reports the
//! per-iterator scratch so the scheduling layer can shorten its
//! prefetch lookahead.

use crate::compact::{CompactCsr, Offsets};
use crate::csr::degree_extremes;
use crate::snapshot::Backing;
use crate::stream::SharedMut;
use crate::view::{prefetch_read, GraphMemory, GraphView};
use pgc_primitives::varint;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;

/// Scratch-ring slots per thread for [`CompressedCsr::with_neighbor_slice`]
/// — depth 2 covers the nested two-operand probes of `intersect`-family
/// callers; deeper nesting falls back to a transient allocation.
pub const DECODE_SCRATCH_SLOTS: usize = 2;

/// Per-slot growth cap, in values (16 KiB of `u32`s — about one L1 data
/// cache). A vertex whose degree exceeds the cap decodes into a
/// transient buffer that is freed immediately, so hubs cost a spike, not
/// a permanently grown ring.
pub const DECODE_SCRATCH_CAP: usize = 4096;

thread_local! {
    static SCRATCH_RING: RefCell<[Option<Vec<u32>>; DECODE_SCRATCH_SLOTS]> =
        const { RefCell::new([Some(Vec::new()), Some(Vec::new())]) };
}

/// The encoded byte arena: heap-owned, or borrowed from an `mmap`ed v2
/// snapshot (zero copy — the page cache is the storage).
pub(crate) enum Arena {
    Owned(Vec<u8>),
    Mapped {
        backing: Arc<Backing>,
        start: usize,
        len: usize,
    },
}

impl Arena {
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Arena::Owned(v) => v,
            Arena::Mapped {
                backing,
                start,
                len,
            } => &backing.bytes()[*start..*start + *len],
        }
    }

    /// Heap bytes the arena itself owns (0 when mmap-backed: the pages
    /// belong to the page cache, not this process's heap budget).
    fn owned_bytes(&self) -> usize {
        match self {
            Arena::Owned(v) => v.len(),
            Arena::Mapped { .. } => 0,
        }
    }

    /// Arena bytes served zero-copy from an `mmap` (0 when heap-owned) —
    /// the complement of [`owned_bytes`](Self::owned_bytes), so the two
    /// always sum to the arena length.
    fn mapped_bytes(&self) -> usize {
        match self {
            Arena::Owned(_) => 0,
            Arena::Mapped { len, .. } => *len,
        }
    }
}

impl Clone for Arena {
    fn clone(&self) -> Self {
        match self {
            Arena::Owned(v) => Arena::Owned(v.clone()),
            Arena::Mapped {
                backing,
                start,
                len,
            } => Arena::Mapped {
                backing: Arc::clone(backing),
                start: *start,
                len: *len,
            },
        }
    }
}

impl PartialEq for Arena {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}
impl Eq for Arena {}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arena::Owned(v) => write!(f, "Arena::Owned({} B)", v.len()),
            Arena::Mapped { len, .. } => write!(f, "Arena::Mapped({len} B)"),
        }
    }
}

/// Immutable, undirected, simple graph whose adjacencies live
/// delta-varint-encoded in one contiguous byte arena. Same abstract
/// contract as [`CompactCsr`] — sorted strictly-ascending symmetric
/// adjacencies, cached Δ/δ, deterministic iteration — at a fraction of
/// the neighbor bytes. Lossless converters go both ways
/// ([`from_compact`](Self::from_compact) / [`to_compact`](Self::to_compact)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedCsr {
    /// Decoded arc positions (`n + 1`), same meaning as [`CompactCsr`]'s.
    offsets: Offsets,
    /// Byte position of each vertex's encoded run inside the arena
    /// (`n + 1`).
    byte_offsets: Offsets,
    arena: Arena,
    max_deg: u32,
    min_deg: u32,
}

impl CompressedCsr {
    /// Losslessly encode a graph (parallel two-pass: measure
    /// per-vertex encoded lengths, prefix-sum, scatter-encode into
    /// disjoint arena ranges).
    pub fn from_compact(g: &CompactCsr) -> Self {
        Self::encode(g).0
    }

    /// [`from_compact`](Self::from_compact), charging the converter's
    /// transient allocations (the per-vertex length array on top of the
    /// still-resident source) into `stats.build_bytes_peak`, so the
    /// harness's peak-memory column reflects the conversion it ran.
    pub fn from_compact_with_stats(g: &CompactCsr, stats: &mut crate::stream::BuildStats) -> Self {
        let (c, converter_peak) = Self::encode(g);
        let src = g.memory_footprint().total_bytes();
        stats.build_bytes_peak = stats.build_bytes_peak.max(src + converter_peak);
        c
    }

    /// Shared encoder: returns the graph and the converter's transient
    /// allocation peak (length array + persistent outputs).
    fn encode(g: &CompactCsr) -> (Self, usize) {
        let n = g.n();
        let lens: Vec<usize> = (0..n as u32)
            .into_par_iter()
            .map(|v| varint::encoded_len(g.neighbors(v)))
            .collect();
        let mut byte_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        byte_offsets.push(0);
        for &l in &lens {
            acc += l;
            byte_offsets.push(acc);
        }
        let mut arena = vec![0u8; acc];
        {
            let ptr = SharedMut(arena.as_mut_ptr());
            let bo = &byte_offsets;
            (0..n as u32).into_par_iter().for_each(|v| {
                let (s, e) = (bo[v as usize], bo[v as usize + 1]);
                // SAFETY: per-vertex byte ranges are disjoint by
                // construction (exclusive prefix sums of exact lengths).
                let out = unsafe { ptr.slice(s, e) };
                let written = varint::encode_to_slice(g.neighbors(v), out);
                debug_assert_eq!(written, e - s);
            });
        }
        // Converter peak beyond the (still-resident) source: the length
        // array plus the outputs being built.
        let peak = lens.len() * std::mem::size_of::<usize>()
            + byte_offsets.len() * std::mem::size_of::<usize>()
            + arena.len();
        let graph = Self {
            offsets: g.raw_offsets().clone(),
            byte_offsets: Offsets::narrow(byte_offsets),
            arena: Arena::Owned(arena),
            max_deg: g.max_degree(),
            min_deg: g.min_degree(),
        };
        (graph, peak)
    }

    /// Assemble from already-encoded parts — the snapshot loader's entry
    /// point (`arena` may borrow the mmap). The caller is responsible
    /// for having validated the decoded shape.
    pub(crate) fn from_encoded_parts(
        offsets: Offsets,
        byte_offsets: Offsets,
        arena: Arena,
    ) -> Self {
        let n = offsets.len().saturating_sub(1);
        let (max_deg, min_deg) = degree_extremes(n, |i| offsets.get(i));
        Self {
            offsets,
            byte_offsets,
            arena,
            max_deg,
            min_deg,
        }
    }

    /// Decode back into the raw-array representation (parallel; each
    /// vertex decodes straight into its disjoint output range).
    pub fn to_compact(&self) -> CompactCsr {
        let n = self.n();
        let arcs = self.num_arcs();
        let mut neighbors = vec![0u32; arcs];
        {
            let ptr = SharedMut(neighbors.as_mut_ptr());
            (0..n as u32).into_par_iter().for_each(|v| {
                let r = self.arc_range(v);
                // SAFETY: arc ranges are disjoint per vertex.
                let out = unsafe { ptr.slice(r.start, r.end) };
                self.decoder(v).decode_into_slice(out);
            });
        }
        CompactCsr::from_offsets(self.offsets.clone(), neighbors)
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored directed arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.offsets.get(self.offsets.len() - 1)
    }

    /// Degree of vertex `v` (O(1), from the decoded offsets).
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        (self.offsets.get(v as usize + 1) - self.offsets.get(v as usize)) as u32
    }

    /// The decoded-position range of `v`'s adjacency, exactly like
    /// [`CompactCsr::arc_range`].
    #[inline]
    pub fn arc_range(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets.get(v as usize)..self.offsets.get(v as usize + 1)
    }

    /// Total encoded neighbor bytes (the arena length).
    #[inline]
    pub fn encoded_bytes(&self) -> usize {
        self.arena.bytes().len()
    }

    /// A block decoder positioned at `v`'s encoded run.
    #[inline]
    pub fn decoder(&self, v: u32) -> varint::Decoder<'_> {
        let s = self.byte_offsets.get(v as usize);
        let e = self.byte_offsets.get(v as usize + 1);
        varint::Decoder::new(&self.arena.bytes()[s..e], self.degree(v) as usize)
    }

    /// Strictly check that `v`'s encoded run is structurally well-formed
    /// against its declared degree ([`varint::validate_run`]) — the
    /// snapshot loader's defense against corrupt-but-checksum-valid
    /// arenas.
    pub fn validate_encoded_run(&self, v: u32) -> bool {
        let s = self.byte_offsets.get(v as usize);
        let e = self.byte_offsets.get(v as usize + 1);
        varint::validate_run(&self.arena.bytes()[s..e], self.degree(v) as usize)
    }

    /// Decode `v`'s full adjacency and hand it to `f` as a sorted slice,
    /// using a per-thread scratch ring (degree ≤ [`DECODE_SCRATCH_CAP`])
    /// or a transient buffer (hubs). Nested calls up to
    /// [`DECODE_SCRATCH_SLOTS`] deep get distinct buffers, so two-operand
    /// intersection probes work.
    pub fn with_neighbor_slice<R>(&self, v: u32, f: impl FnOnce(&[u32]) -> R) -> R {
        let deg = self.degree(v) as usize;
        let mut dec = self.decoder(v);
        if deg > DECODE_SCRATCH_CAP {
            let mut buf = vec![0u32; deg];
            dec.decode_into_slice(&mut buf);
            return f(&buf);
        }
        // Take a ring slot (leaving `None` in its place) so the RefCell
        // borrow ends before `f` runs — nested calls then grab the next
        // free slot instead of re-borrowing. Depth beyond the ring uses
        // a transient buffer.
        let taken = SCRATCH_RING.with(|ring| {
            let mut ring = ring.borrow_mut();
            ring.iter_mut()
                .enumerate()
                .find(|(_, s)| s.is_some())
                .map(|(i, s)| (i, s.take().unwrap()))
        });
        let (slot, mut buf) = match taken {
            Some((i, b)) => (Some(i), b),
            None => (None, Vec::new()),
        };
        buf.clear();
        buf.resize(deg, 0);
        dec.decode_into_slice(&mut buf);
        let r = f(&buf);
        if let Some(i) = slot {
            SCRATCH_RING.with(|ring| ring.borrow_mut()[i] = Some(buf));
        }
        r
    }

    /// The steady-state per-process decode scratch this graph is charged
    /// for in [`GraphMemory::aux_bytes`]: one capped ring
    /// ([`DECODE_SCRATCH_SLOTS`] × min(Δ rounded to a block,
    /// [`DECODE_SCRATCH_CAP`]) values) per worker thread. Hub decodes
    /// beyond the cap are transient spikes, charged to the converter's
    /// `BuildStats`, not the resident footprint.
    pub fn decode_scratch_budget(&self) -> usize {
        let per_slot = (self.max_deg as usize)
            .div_ceil(varint::BLOCK)
            .saturating_mul(varint::BLOCK)
            .min(DECODE_SCRATCH_CAP);
        rayon::current_num_threads() * DECODE_SCRATCH_SLOTS * per_slot * 4
    }

    pub(crate) fn raw_offsets(&self) -> &Offsets {
        &self.offsets
    }

    pub(crate) fn raw_byte_offsets(&self) -> &Offsets {
        &self.byte_offsets
    }

    pub(crate) fn arena_bytes(&self) -> &[u8] {
        self.arena.bytes()
    }
}

/// Chunked-decode neighbor iterator: materializes one [`varint::BLOCK`]
/// of ids at a time into an inline buffer (256 B, lives on the stack
/// with the iterator), then yields from it — so a full traversal touches
/// the arena bytes once, sequentially.
pub struct CompressedNeighbors<'a> {
    dec: varint::Decoder<'a>,
    buf: [u32; varint::BLOCK],
    len: u8,
    pos: u8,
}

impl<'a> CompressedNeighbors<'a> {
    fn new(dec: varint::Decoder<'a>) -> Self {
        Self {
            dec,
            buf: [0; varint::BLOCK],
            len: 0,
            pos: 0,
        }
    }
}

impl Iterator for CompressedNeighbors<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.pos == self.len {
            let cnt = self.dec.next_block_into(&mut self.buf);
            if cnt == 0 {
                return None;
            }
            self.len = cnt as u8;
            self.pos = 0;
        }
        let v = self.buf[self.pos as usize];
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.dec.remaining() + (self.len - self.pos) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CompressedNeighbors<'_> {}

impl GraphView for CompressedCsr {
    type Neighbors<'a>
        = CompressedNeighbors<'a>
    where
        Self: 'a;

    #[inline]
    fn n(&self) -> usize {
        CompressedCsr::n(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        CompressedCsr::num_arcs(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> u32 {
        CompressedCsr::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> Self::Neighbors<'_> {
        CompressedNeighbors::new(self.decoder(v))
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_deg
    }

    #[inline]
    fn min_degree(&self) -> u32 {
        self.min_deg
    }

    /// Anchor-gallop probe: hops whole blocks via
    /// [`varint::Decoder::skip_to`], decodes at most one.
    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.decoder(u).contains(v)
    }

    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        let bytes = self.arena.bytes();
        let s = self.byte_offsets.get(v as usize);
        if s < bytes.len() {
            prefetch_read(&bytes[s]);
        }
    }

    fn memory_footprint(&self) -> GraphMemory {
        GraphMemory {
            offset_width: self.offsets.width(),
            offset_count: self.offsets.len(),
            // No raw neighbor array — the arena is the adjacency store.
            neighbor_width: 4,
            neighbor_count: 0,
            encoded_bytes: self.arena.owned_bytes(),
            encoded_mapped_bytes: self.arena.mapped_bytes(),
            aux_bytes: self.byte_offsets.width() * self.byte_offsets.len()
                + self.decode_scratch_budget(),
        }
    }

    #[inline]
    fn decode_scratch_bytes(&self) -> usize {
        varint::BLOCK * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::gen::{generate, GraphSpec};

    #[test]
    fn round_trips_compact() {
        for (spec, seed) in [
            (GraphSpec::ErdosRenyi { n: 300, m: 1200 }, 5),
            (
                GraphSpec::Rmat {
                    scale: 8,
                    edge_factor: 8,
                },
                9,
            ),
            (GraphSpec::Cycle { n: 17 }, 0),
        ] {
            let g = generate(&spec, seed);
            let c = CompressedCsr::from_compact(&g);
            assert_eq!(c.n(), g.n());
            assert_eq!(GraphView::num_arcs(&c), g.num_arcs());
            assert_eq!(GraphView::max_degree(&c), g.max_degree());
            assert_eq!(GraphView::min_degree(&c), g.min_degree());
            for v in g.vertices() {
                assert_eq!(
                    GraphView::neighbors(&c, v).collect::<Vec<_>>(),
                    g.neighbors(v)
                );
            }
            assert_eq!(c.to_compact(), g);
        }
    }

    #[test]
    fn empty_and_isolated() {
        for n in [0usize, 1, 5] {
            let g = CompactCsr::empty(n);
            let c = CompressedCsr::from_compact(&g);
            assert_eq!(c.n(), n);
            assert_eq!(GraphView::num_arcs(&c), 0);
            assert_eq!(c.encoded_bytes(), 0);
            assert_eq!(c.to_compact(), g);
        }
    }

    #[test]
    fn has_edge_matches_compact() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 120, m: 600 }, 3);
        let c = CompressedCsr::from_compact(&g);
        for u in 0..120u32 {
            for v in 0..120u32 {
                assert_eq!(GraphView::has_edge(&c, u, v), g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn with_neighbor_slice_nests() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 60, m: 300 }, 1);
        let c = CompressedCsr::from_compact(&g);
        for u in 0..4u32 {
            c.with_neighbor_slice(u, |nu| {
                assert_eq!(nu, g.neighbors(u));
                c.with_neighbor_slice(u + 1, |nv| {
                    assert_eq!(nv, g.neighbors(u + 1));
                    // Third level exceeds the ring depth — transient path.
                    c.with_neighbor_slice(u + 2, |nw| assert_eq!(nw, g.neighbors(u + 2)));
                    assert_eq!(nv, g.neighbors(u + 1), "slot survives nesting");
                });
                assert_eq!(nu, g.neighbors(u), "outer slot untouched");
            });
        }
    }

    #[test]
    fn footprint_accounts_arena_index_and_scratch() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 500, attach: 4 }, 2);
        let c = CompressedCsr::from_compact(&g);
        let fp = GraphView::memory_footprint(&c);
        assert_eq!(fp.neighbor_bytes(), 0, "no raw neighbor array");
        assert_eq!(fp.encoded_bytes, c.encoded_bytes());
        assert!(
            fp.aux_bytes >= c.decode_scratch_budget(),
            "decode scratch must be charged"
        );
        assert!(fp.encoded_bytes > 0);
        // Compression on a sorted BA adjacency beats raw u32 storage.
        assert!(fp.encoded_bytes < 4 * g.num_arcs());
    }

    #[test]
    fn edges_iterator_matches() {
        let g = from_edges(6, &[(0, 3), (3, 5), (1, 2), (2, 4), (0, 5)]);
        let c = CompressedCsr::from_compact(&g);
        assert_eq!(
            GraphView::edges(&c).collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }
}
