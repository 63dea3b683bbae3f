//! Sharded CSR: vertex-range shards behind [`GraphView`]/[`WeightedView`],
//! built one shard at a time for ~1/S peak build memory and optionally
//! spilled to per-shard `.pgcs` snapshots.
//!
//! One flat CSR caps everything at a single contiguous allocation: peak
//! build memory, NUMA placement, and any future multi-process story. A
//! [`ShardedCsr`] splits the vertex id space into `S` contiguous ranges
//! (arc-balanced, so every shard owns roughly `2m/S` arcs). Each shard
//! stores:
//!
//! * a **local CSR** — an independent [`CompactCsr`] over shard-local ids
//!   holding only intra-shard arcs (symmetric on its own, so the ordinary
//!   CSR invariants, validators, and the snapshot format all apply
//!   unchanged), plus its neighbor-parallel weights, and
//! * a **halo** — a small CSR of cross-shard arcs keyed by the shard's own
//!   vertices, neighbors kept as *global* ids. Every cross-shard edge
//!   `{u, v}` contributes the arc `u → v` to `u`'s shard halo and `v → u`
//!   to `v`'s — so a shard reaches remote vertices only through its halo.
//!
//! `neighbors(v)` chains halo-below · local · halo-above, so the merged
//! stream is globally sorted and the whole algorithm stack runs on a
//! `ShardedCsr` unchanged — and bit-identically, because adjacency
//! *content* is equal to the monolithic build's.
//!
//! ## Building and spilling
//!
//! [`build_sharded`] runs the two-pass streaming engine
//! ([`crate::stream`]) with `S + 2` replays of the source: one global
//! degree count (discovers `n`, picks arc-balanced boundaries), one
//! intra/halo degree count against those boundaries, then **one scatter
//! replay per shard** — so only a single shard's scatter arrays are ever
//! live at once and peak build memory is `O(n + 2m/S + halo)` instead of
//! `O(n + 2m)`. Each shard is built by the monolithic builder's own
//! scatter and finish: a row map sends the shard's intra-shard arcs to
//! `sn` local rows and its cross-shard arcs to `sn` halo rows, the shared
//! sort, dedup and compaction finish all `2·sn` rows, and the result is
//! split at row `sn` into the local CSR and the halo. Hub rows, offset
//! width and divergence checks therefore follow the monolithic rules
//! exactly. Every replay goes through the monolithic builder's driver,
//! so partitionable sources replay in parallel here too. With
//! [`ShardOptions::spill_dir`] set, each finished shard is serialized to
//! `shard-NNNN.pgcs`, dropped, and `mmap`-reopened
//! ([`MappedSnapshot`]), so even the *finished* local CSRs live in the
//! page cache rather than the heap; halos always stay resident. One
//! [`Peak`](crate::stream) ledger threads through every phase, so
//! [`BuildStats::build_bytes_peak`] reports the true high-water mark
//! across shards (a max, never a sum).

use crate::compact::CompactCsr;
use crate::csr::degree_extremes;
use crate::snapshot::{write_weighted_snapshot, MappedSnapshot, SNAPSHOT_EXT};
use crate::stream::{
    as_atomic_u32s, build_rows, count_degrees, diverged_err, par_replay, BuildStats, EdgeSource,
    Peak,
};
use crate::view::{GraphMemory, GraphView, WeightedView};
use crate::weight::EdgeWeight;
use crate::weighted::WeightedCsr;
use pgc_primitives::reduce_sum_u64;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// How to shard a streaming build.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Number of vertex-range shards (clamped to at least 1; shards may
    /// come out empty on tiny or skewed graphs).
    pub num_shards: usize,
    /// When set, each finished shard's local CSR is written to
    /// `<dir>/shard-NNNN.pgcs`, dropped from the heap, and mmap-reopened;
    /// the directory is created if missing. `None` keeps shards resident.
    pub spill_dir: Option<PathBuf>,
}

impl ShardOptions {
    /// Resident sharding with `num_shards` shards.
    pub fn resident(num_shards: usize) -> Self {
        Self {
            num_shards,
            spill_dir: None,
        }
    }

    /// Spill-mode sharding: shards snapshot to `dir` and serve via mmap.
    pub fn spilling(num_shards: usize, dir: impl Into<PathBuf>) -> Self {
        Self {
            num_shards,
            spill_dir: Some(dir.into()),
        }
    }
}

/// Cross-shard arcs of one shard: a CSR keyed by the shard's local ids
/// whose neighbor entries are **global** ids outside the shard's range,
/// sorted ascending (weights neighbor-parallel).
struct Halo<W: EdgeWeight> {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    weights: Vec<W>,
}

impl<W: EdgeWeight> Halo<W> {
    #[inline]
    fn arc_range(&self, lv: u32) -> std::ops::Range<usize> {
        self.offsets[lv as usize]..self.offsets[lv as usize + 1]
    }

    #[inline]
    fn neighbors(&self, lv: u32) -> &[u32] {
        &self.neighbors[self.arc_range(lv)]
    }

    #[inline]
    fn weights(&self, lv: u32) -> &[W] {
        &self.weights[self.arc_range(lv)]
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * 4
            + self.weights.len() * std::mem::size_of::<W>()
    }
}

/// Where one shard's local CSR lives.
enum ShardStore<W: EdgeWeight> {
    /// Owned in-heap arrays, as the builder produced them.
    Resident { csr: CompactCsr, weights: Vec<W> },
    /// Serialized to a `.pgcs` snapshot and served via mmap.
    Spilled(MappedSnapshot<W>),
}

struct Shard<W: EdgeWeight> {
    store: ShardStore<W>,
    halo: Halo<W>,
}

impl<W: EdgeWeight> Shard<W> {
    #[inline]
    fn local_neighbors(&self, lv: u32) -> &[u32] {
        match &self.store {
            ShardStore::Resident { csr, .. } => csr.neighbors(lv),
            ShardStore::Spilled(snap) => snap.neighbor_slice(lv),
        }
    }

    #[inline]
    fn local_weights(&self, lv: u32) -> &[W] {
        match &self.store {
            ShardStore::Resident { csr, weights } => &weights[csr.arc_range(lv)],
            ShardStore::Spilled(snap) => snap.weight_slice(lv),
        }
    }
}

/// A graph split into vertex-range shards — each an independent local
/// [`CompactCsr`] (or spilled snapshot) plus a cross-shard halo — exposed
/// whole through [`GraphView`]/[`WeightedView`]. See the module docs for
/// the layout and [`build_sharded`] for construction.
pub struct ShardedCsr<W: EdgeWeight = ()> {
    /// `num_shards + 1` non-decreasing vertex ids; shard `s` owns
    /// `boundaries[s]..boundaries[s + 1]`.
    boundaries: Vec<u32>,
    shards: Vec<Shard<W>>,
    num_arcs: usize,
    halo_arcs: usize,
    max_deg: u32,
    min_deg: u32,
}

impl<W: EdgeWeight> ShardedCsr<W> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The `num_shards + 1` shard boundary ids (`boundaries[0] == 0`,
    /// `boundaries[num_shards] == n`).
    pub fn boundaries(&self) -> &[u32] {
        &self.boundaries
    }

    /// The shard owning vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: u32) -> usize {
        debug_assert!((v as usize) < self.n());
        self.boundaries.partition_point(|&b| b <= v) - 1
    }

    /// Vertex range of shard `s`.
    #[inline]
    pub fn shard_range(&self, s: usize) -> std::ops::Range<u32> {
        self.boundaries[s]..self.boundaries[s + 1]
    }

    /// Total cross-shard arcs across all halos (each cross-shard edge
    /// counts twice, once per endpoint's shard — the sharding's
    /// communication volume).
    pub fn halo_arcs(&self) -> usize {
        self.halo_arcs
    }

    /// Heap bytes held by the halo structures (offsets + neighbors +
    /// weights) — what spill mode cannot evict.
    pub fn halo_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.halo.heap_bytes()).sum()
    }

    /// True when shard `s`'s local CSR is snapshot-backed (spill mode).
    pub fn is_spilled(&self, s: usize) -> bool {
        matches!(self.shards[s].store, ShardStore::Spilled(_))
    }

    #[inline]
    fn locate(&self, v: u32) -> (&Shard<W>, u32) {
        let s = self.shard_of(v);
        (&self.shards[s], v - self.boundaries[s])
    }

    /// Copy into a monolithic [`CompactCsr`] (merges local + halo arcs).
    pub fn to_compact(&self) -> CompactCsr {
        let n = self.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for v in 0..n as u32 {
            acc += self.degree(v) as usize;
            offsets.push(acc);
        }
        let mut neighbors = Vec::with_capacity(acc);
        for v in 0..n as u32 {
            neighbors.extend(self.neighbors(v));
        }
        CompactCsr::from_raw(offsets, neighbors)
    }
}

/// Merged neighbor stream of one vertex: halo-below, then local
/// (re-based to global ids), then halo-above — globally ascending because
/// each segment is sorted and their id ranges are disjoint and ordered.
pub struct ShardedNeighbors<'a> {
    pre: std::slice::Iter<'a, u32>,
    local: std::slice::Iter<'a, u32>,
    post: std::slice::Iter<'a, u32>,
    base: u32,
}

impl Iterator for ShardedNeighbors<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if let Some(&u) = self.pre.next() {
            return Some(u);
        }
        if let Some(&lu) = self.local.next() {
            return Some(lu + self.base);
        }
        self.post.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.pre.len() + self.local.len() + self.post.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for ShardedNeighbors<'_> {}

/// Weighted sibling of [`ShardedNeighbors`]: the same three segments with
/// their neighbor-parallel weight slices.
pub struct ShardedWeightedNeighbors<'a, W: EdgeWeight> {
    segs: [(&'a [u32], &'a [W]); 3],
    /// Added to segment 1's (the local segment's) ids; 0 for the halos.
    base: u32,
    seg: usize,
    i: usize,
}

impl<W: EdgeWeight> Iterator for ShardedWeightedNeighbors<'_, W> {
    type Item = (u32, W);

    #[inline]
    fn next(&mut self) -> Option<(u32, W)> {
        while self.seg < 3 {
            let (nbrs, wts) = self.segs[self.seg];
            if self.i < nbrs.len() {
                let shift = if self.seg == 1 { self.base } else { 0 };
                let out = (nbrs[self.i] + shift, wts[self.i]);
                self.i += 1;
                return Some(out);
            }
            self.seg += 1;
            self.i = 0;
        }
        None
    }
}

impl<W: EdgeWeight> GraphView for ShardedCsr<W> {
    type Neighbors<'a> = ShardedNeighbors<'a>;

    #[inline]
    fn n(&self) -> usize {
        *self.boundaries.last().unwrap() as usize
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    #[inline]
    fn degree(&self, v: u32) -> u32 {
        let (shard, lv) = self.locate(v);
        (shard.local_neighbors(lv).len() + shard.halo.arc_range(lv).len()) as u32
    }

    #[inline]
    fn neighbors(&self, v: u32) -> ShardedNeighbors<'_> {
        let s = self.shard_of(v);
        let base = self.boundaries[s];
        let shard = &self.shards[s];
        let lv = v - base;
        let halo = shard.halo.neighbors(lv);
        let split = halo.partition_point(|&u| u < base);
        ShardedNeighbors {
            pre: halo[..split].iter(),
            local: shard.local_neighbors(lv).iter(),
            post: halo[split..].iter(),
            base,
        }
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_deg
    }

    #[inline]
    fn min_degree(&self) -> u32 {
        self.min_deg
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        let s = self.shard_of(u);
        let base = self.boundaries[s];
        let shard = &self.shards[s];
        if v >= base && v < self.boundaries[s + 1] {
            shard
                .local_neighbors(u - base)
                .binary_search(&(v - base))
                .is_ok()
        } else {
            shard.halo.neighbors(u - base).binary_search(&v).is_ok()
        }
    }

    fn memory_footprint(&self) -> GraphMemory {
        let mut offset_count = 0usize;
        let mut offset_bytes = 0usize;
        let mut aux = self.boundaries.len() * 4;
        for (s, shard) in self.shards.iter().enumerate() {
            let sn = self.shard_range(s).len();
            let width = match &shard.store {
                ShardStore::Resident { csr, .. } => csr.offset_width(),
                ShardStore::Spilled(snap) => snap.memory_footprint().offset_width,
            };
            offset_count += sn + 1;
            offset_bytes += (sn + 1) * width;
            aux += shard.halo.offsets.len() * std::mem::size_of::<usize>();
        }
        // One GraphMemory carries a single offset width; report the mix
        // at its average width so offset_bytes() stays exact.
        GraphMemory {
            offset_width: if offset_count == 0 {
                4
            } else {
                offset_bytes.div_ceil(offset_count)
            },
            offset_count,
            neighbor_width: 4,
            neighbor_count: self.num_arcs,
            encoded_bytes: 0,
            encoded_mapped_bytes: 0,
            aux_bytes: aux,
            weight_bytes: self.num_arcs * std::mem::size_of::<W>(),
        }
    }
}

impl<W: EdgeWeight> WeightedView for ShardedCsr<W> {
    type Weight = W;
    type WeightedNeighbors<'a> = ShardedWeightedNeighbors<'a, W>;

    #[inline]
    fn weighted_neighbors(&self, v: u32) -> ShardedWeightedNeighbors<'_, W> {
        let s = self.shard_of(v);
        let base = self.boundaries[s];
        let shard = &self.shards[s];
        let lv = v - base;
        let halo_n = shard.halo.neighbors(lv);
        let halo_w = shard.halo.weights(lv);
        let split = halo_n.partition_point(|&u| u < base);
        ShardedWeightedNeighbors {
            segs: [
                (&halo_n[..split], &halo_w[..split]),
                (shard.local_neighbors(lv), shard.local_weights(lv)),
                (&halo_n[split..], &halo_w[split..]),
            ],
            base,
            seg: 0,
            i: 0,
        }
    }
}

// ---------------------------------------------------------------------
// The shard-aware streaming builder
// ---------------------------------------------------------------------

/// Build an unweighted [`ShardedCsr`] (see [`build_sharded_with_stats`]).
pub fn build_sharded<S: EdgeSource + ?Sized>(
    src: &S,
    opts: &ShardOptions,
) -> io::Result<ShardedCsr> {
    build_sharded_with_stats(src, opts).map(|(g, _)| g)
}

/// Build a [`ShardedCsr`] through the two-pass engine:
/// `S + 2` deterministic replays (global count → intra/halo count → one
/// scatter per shard), peak memory `O(n + 2m/S + halo)`, adjacency
/// content bit-identical to the monolithic [`crate::stream::build_compact`]
/// of the same source. Weighted sibling: [`build_sharded_weighted_with_stats`].
pub fn build_sharded_with_stats<S: EdgeSource + ?Sized>(
    src: &S,
    opts: &ShardOptions,
) -> io::Result<(ShardedCsr, BuildStats)> {
    build_raw_sharded::<(), S>(src, opts)
}

/// Weighted sibling of [`build_sharded`].
pub fn build_sharded_weighted<W: EdgeWeight, S: EdgeSource<W> + ?Sized>(
    src: &S,
    opts: &ShardOptions,
) -> io::Result<ShardedCsr<W>> {
    build_raw_sharded::<W, S>(src, opts).map(|(g, _)| g)
}

/// Weighted variant of [`build_sharded_with_stats`]: weights scatter into
/// the per-shard local and halo rows through the monolithic engine, so
/// duplicate arcs keep the max exactly as in a monolithic build.
pub fn build_sharded_weighted_with_stats<W: EdgeWeight, S: EdgeSource<W> + ?Sized>(
    src: &S,
    opts: &ShardOptions,
) -> io::Result<(ShardedCsr<W>, BuildStats)> {
    build_raw_sharded::<W, S>(src, opts)
}

/// Arc-balanced shard boundaries: walk the degree prefix sum, closing a
/// shard as soon as it reaches its proportional share of the arc total.
/// Degenerates to an even vertex split on arc-free inputs. Deterministic
/// in the counts alone, so every replay-identical source shards the same.
fn arc_balanced_boundaries(counts: &[u32], total: usize, num_shards: usize) -> Vec<u32> {
    let n = counts.len();
    let s = num_shards.max(1);
    let mut bounds = Vec::with_capacity(s + 1);
    bounds.push(0u32);
    if total == 0 {
        for j in 1..s {
            bounds.push((n * j / s) as u32);
        }
    } else {
        let mut acc = 0u64;
        let mut j = 1usize;
        for (v, &c) in counts.iter().enumerate() {
            acc += c as u64;
            while j < s && acc * s as u64 >= j as u64 * total as u64 {
                bounds.push(v as u32 + 1);
                j += 1;
            }
        }
        while bounds.len() < s {
            bounds.push(n as u32);
        }
    }
    bounds.push(n as u32);
    bounds
}

fn build_raw_sharded<W: EdgeWeight, S: EdgeSource<W> + ?Sized>(
    src: &S,
    opts: &ShardOptions,
) -> io::Result<(ShardedCsr<W>, BuildStats)> {
    let t0 = Instant::now();
    let wweight = std::mem::size_of::<W>();
    let mut peak = Peak::default();
    peak.alloc(src.buffered_bytes());
    if let Some(dir) = &opts.spill_dir {
        std::fs::create_dir_all(dir)?;
    }

    // ---- replay 1: global degree count (discovers n, picks bounds) ---
    let count_span = pgc_obs::span!("ingest.count");
    let (counts, raw_edges) = count_degrees(src, &mut peak)?;
    let n = counts.len();
    let total = reduce_sum_u64(&counts, |&c| c as u64) as usize;
    let boundaries = arc_balanced_boundaries(&counts, total, opts.num_shards);
    let counts_bytes = counts.capacity() * 4;
    drop(counts);
    peak.free(counts_bytes);
    drop(count_span);

    // ---- replay 2: intra/halo degree split against the boundaries ----
    let split_span = pgc_obs::span!("ingest.shard_count");
    let num_shards = boundaries.len() - 1;
    let mut intra: Vec<u32> = vec![0; n];
    let mut halo_cnt: Vec<u32> = vec![0; n];
    peak.alloc(2 * n * 4);
    let diverged = AtomicBool::new(false);
    {
        let intra_at = as_atomic_u32s(&mut intra);
        let halo_at = as_atomic_u32s(&mut halo_cnt);
        let (boundaries, diverged) = (&boundaries, &diverged);
        par_replay(src, |chunk, _: &[W]| {
            for &(u, v) in chunk {
                if u == v {
                    continue;
                }
                let (ui, vi) = (u as usize, v as usize);
                if ui >= n || vi >= n {
                    diverged.store(true, Ordering::Relaxed);
                    continue;
                }
                let same = boundaries.partition_point(|&b| b <= u)
                    == boundaries.partition_point(|&b| b <= v);
                let tgt = if same { &intra_at } else { &halo_at };
                tgt[ui].fetch_add(1, Ordering::Relaxed);
                tgt[vi].fetch_add(1, Ordering::Relaxed);
            }
        })?;
    }
    // The shard scatters are checked against this split, so the split
    // itself must account for every arc replay 1 counted.
    let split_total =
        reduce_sum_u64(&intra, |&c| c as u64) + reduce_sum_u64(&halo_cnt, |&c| c as u64);
    if diverged.load(Ordering::Relaxed) || split_total != total as u64 {
        return Err(diverged_err());
    }
    drop(split_span);

    // ---- one scatter replay per shard, through the monolithic engine --
    let mut shards: Vec<Shard<W>> = Vec::with_capacity(num_shards);
    let (mut num_arcs, mut halo_arcs, mut max_deg) = (0usize, 0usize, 0u32);
    // Every non-empty shard lowers this; an empty graph keeps δ = 0.
    let mut min_deg = if n == 0 { 0 } else { u32::MAX };
    for s in 0..num_shards {
        let _shard_span = pgc_obs::span!("build.shard");
        let (base, end) = (boundaries[s], boundaries[s + 1]);
        let (lo, hi) = (base as usize, end as usize);
        let sn = hi - lo;
        // 2·sn rows: local rows 0..sn, then halo rows sn..2·sn.
        let mut counts = Vec::with_capacity(2 * sn);
        counts.extend_from_slice(&intra[lo..hi]);
        counts.extend_from_slice(&halo_cnt[lo..hi]);
        peak.alloc(counts.capacity() * 4);
        let shard_total = reduce_sum_u64(&counts, |&c| c as u64) as usize;
        let inside = |x: u32| x >= base && x < end;
        let row_map = |a: u32, b: u32| {
            if !inside(a) {
                return None;
            }
            let row = (a - base) as usize;
            Some(if inside(b) {
                (row, b - base)
            } else {
                (sn + row, b)
            })
        };
        let (mut offsets, mut neighbors, mut weights) = build_rows(
            src,
            n,
            counts,
            shard_total,
            u32::MAX as usize,
            row_map,
            &mut peak,
        )?;

        // Split the finished rows at row sn: the local CSR keeps rows
        // 0..sn, the halo takes the rest, re-based to start at 0.
        if sn > 0 {
            let (mx, mn) = degree_extremes(sn, |i| offsets.get(i) + offsets.get(sn + i));
            max_deg = max_deg.max(mx);
            min_deg = min_deg.min(mn);
        }
        let split = offsets.get(sn);
        let halo = Halo {
            offsets: (sn..=2 * sn).map(|r| offsets.get(r) - split).collect(),
            neighbors: neighbors.split_off(split),
            weights: weights.split_off(split),
        };
        let halo_kept = halo.neighbors.len();
        // The halo copy briefly coexists with the full rows; then the
        // local arrays shrink to rows 0..sn.
        peak.alloc(halo.heap_bytes());
        neighbors.shrink_to_fit();
        weights.shrink_to_fit();
        peak.free(halo_kept * (4 + wweight) + sn * offsets.width());
        offsets.truncate(sn + 1);
        let csr = CompactCsr::from_offsets(offsets, neighbors);
        let loc_kept = csr.num_arcs();
        num_arcs += loc_kept + halo_kept;
        halo_arcs += halo_kept;

        let store = if let Some(dir) = &opts.spill_dir {
            let path = dir.join(format!("shard-{s:04}.{SNAPSHOT_EXT}"));
            let loc_bytes = (sn + 1) * csr.offset_width() + loc_kept * (4 + wweight);
            write_weighted_snapshot(&WeightedCsr::from_parts(csr, weights), &path)?;
            // The shard's finished arrays leave the heap; the mmap that
            // replaces them is page-cache-backed, not build memory.
            peak.free(loc_bytes);
            ShardStore::Spilled(MappedSnapshot::<W>::open(&path)?)
        } else {
            ShardStore::Resident { csr, weights }
        };
        shards.push(Shard { store, halo });
    }
    drop(intra);
    drop(halo_cnt);
    peak.free(2 * n * 4);

    let g = ShardedCsr {
        boundaries,
        shards,
        num_arcs,
        halo_arcs,
        max_deg,
        min_deg,
    };
    let stats = BuildStats {
        ingest: t0.elapsed(),
        build_bytes_peak: peak.high_water(),
        raw_edges,
        hinted_edges: src.edge_hint(),
        raw_arcs: total,
        arcs: num_arcs,
        weight_width: wweight,
    };
    Ok((g, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GraphSpec, SpecSource};
    use crate::stream::build_compact;
    use std::sync::atomic::AtomicUsize;

    fn spec() -> GraphSpec {
        GraphSpec::ErdosRenyi { n: 300, m: 1500 }
    }

    fn check_equiv(g: &ShardedCsr, mono: &CompactCsr) {
        assert_eq!(g.n(), mono.n());
        assert_eq!(g.num_arcs(), mono.num_arcs());
        assert_eq!(GraphView::max_degree(g), mono.max_degree());
        assert_eq!(GraphView::min_degree(g), mono.min_degree());
        for v in mono.vertices() {
            assert_eq!(g.degree(v), mono.degree(v), "degree of {v}");
            assert_eq!(
                g.neighbors(v).collect::<Vec<_>>(),
                mono.neighbors(v),
                "adjacency of {v}"
            );
        }
    }

    #[test]
    fn sharded_matches_monolithic_across_shard_counts() {
        let src = SpecSource::new(spec(), 11);
        let mono = build_compact(&src).unwrap();
        for s in [1, 2, 3, 7, 64] {
            let g = build_sharded(&src, &ShardOptions::resident(s)).unwrap();
            assert_eq!(g.num_shards(), s);
            check_equiv(&g, &mono);
        }
    }

    #[test]
    fn one_shard_has_empty_halo() {
        let src = SpecSource::new(spec(), 3);
        let g = build_sharded(&src, &ShardOptions::resident(1)).unwrap();
        assert_eq!(g.halo_arcs(), 0);
        assert_eq!(g.boundaries(), &[0, g.n() as u32]);
        assert_eq!(g.to_compact(), build_compact(&src).unwrap());
    }

    #[test]
    fn halo_holds_every_cross_shard_arc() {
        let src = SpecSource::new(spec(), 5);
        let g = build_sharded(&src, &ShardOptions::resident(4)).unwrap();
        let mono = build_compact(&src).unwrap();
        let mut cross = 0usize;
        for v in mono.vertices() {
            for &u in mono.neighbors(v) {
                if g.shard_of(u) != g.shard_of(v) {
                    cross += 1;
                }
            }
        }
        assert_eq!(g.halo_arcs(), cross);
        assert!(g.halo_bytes() > 0);
    }

    #[test]
    fn shard_of_agrees_with_ranges() {
        let src = SpecSource::new(spec(), 7);
        let g = build_sharded(&src, &ShardOptions::resident(5)).unwrap();
        for s in 0..g.num_shards() {
            for v in g.shard_range(s) {
                assert_eq!(g.shard_of(v), s);
            }
        }
    }

    #[test]
    fn weighted_sharded_matches_monolithic() {
        let spec = GraphSpec::ErdosRenyi { n: 200, m: 900 };
        let src = SpecSource::new(spec.clone(), 13);
        let mono: WeightedCsr<f32> = crate::stream::build_weighted(&src).unwrap();
        let g: ShardedCsr<f32> = build_sharded_weighted(&src, &ShardOptions::resident(3)).unwrap();
        for v in mono.vertices() {
            assert_eq!(
                g.weighted_neighbors(v).collect::<Vec<_>>(),
                mono.weighted_neighbors(v).collect::<Vec<_>>(),
                "weighted adjacency of {v}"
            );
        }
        assert_eq!(g.total_weight(), mono.total_weight());
    }

    #[test]
    fn spill_mode_round_trips() {
        let dir = std::env::temp_dir().join(format!("pgc-shard-spill-{}", std::process::id()));
        let src = SpecSource::new(spec(), 23);
        let g = build_sharded(&src, &ShardOptions::spilling(3, &dir)).unwrap();
        for s in 0..g.num_shards() {
            assert!(g.is_spilled(s));
        }
        check_equiv(&g, &build_compact(&src).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 5, m: 0 }, 1);
        assert_eq!(g.num_arcs(), 0);
        let src = SpecSource::new(GraphSpec::ErdosRenyi { n: 5, m: 0 }, 1);
        let sh = build_sharded(&src, &ShardOptions::resident(3)).unwrap();
        assert_eq!(sh.n(), 5);
        assert_eq!(sh.num_arcs(), 0);
        assert_eq!(GraphView::min_degree(&sh), 0);
        let sh = build_sharded(&src, &ShardOptions::resident(9)).unwrap();
        assert_eq!(sh.n(), 5, "more shards than vertices");
    }

    #[test]
    fn hostile_partitions_are_errors_not_panics() {
        use crate::stream::tests::{Breach, Hostile};
        for (breach, msg) in [
            (Breach::IdOutOfRange, "num_vertices"),
            (Breach::ShortAfterFirst, "diverged"),
            (Breach::WeightsShort, "weights chunk"),
        ] {
            for (width, shards) in [(1, 2), (2, 3), (8, 1)] {
                let src = Hostile::new(breach);
                let Err(err) = pgc_par::install(width, || {
                    build_sharded_weighted::<f32, _>(&src, &ShardOptions::resident(shards))
                }) else {
                    panic!("{breach:?} built a graph");
                };
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{breach:?}");
                assert!(err.to_string().contains(msg), "{breach:?}: {err}");
            }
        }
    }

    #[test]
    fn moved_endpoint_is_an_error_not_a_row_overflow() {
        use crate::stream::tests::Cycle;
        // Two shards of 2·sn ≈ 12k rows each; the global count and the
        // intra/halo split see the honest stream, the shard scatters the
        // moved one.
        let n = 3 * (1 << 12) + 5;
        let cycle = || Cycle {
            n,
            honest: 2,
            calls: AtomicUsize::new(0),
        };
        for width in [1, 2, 4] {
            let errs = pgc_par::install(width, || {
                let opts = ShardOptions::resident(2);
                [
                    build_sharded(&cycle(), &opts).err(),
                    build_sharded_weighted::<f32, _>(&cycle(), &opts).err(),
                ]
            });
            for err in errs {
                let err = err.expect("a moved endpoint built a graph");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "width {width}");
                assert!(err.to_string().contains("diverged"), "width {width}: {err}");
            }
        }
    }

    #[test]
    fn boundaries_are_arc_balanced() {
        let counts = vec![2u32; 100];
        let b = arc_balanced_boundaries(&counts, 200, 4);
        assert_eq!(b, vec![0, 25, 50, 75, 100]);
        let empty = arc_balanced_boundaries(&[], 0, 3);
        assert_eq!(empty, vec![0, 0, 0, 0]);
    }
}
