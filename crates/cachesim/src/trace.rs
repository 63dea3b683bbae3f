//! Memory-trace replay of the coloring algorithms' hot loops.
//!
//! The arrays of the real implementations are mapped onto disjoint virtual
//! address regions; replaying the algorithm's traversal schedule against
//! [`Cache`] yields its locality profile. Traces model
//! the *sequential projection* of each algorithm — the per-core access
//! stream — which is what determines the L3 behaviour Fig. 4 reports.
//!
//! The tracer is generic over [`GraphView`]: element widths come from the
//! representation's [`memory_footprint`](GraphView::memory_footprint), so
//! e.g. [`CompactCsr`](pgc_graph::CompactCsr)'s 4-byte offsets occupy half
//! the cache lines of its 8-byte wide fallback — the simulator makes the
//! compact representation's bandwidth saving directly measurable.
//!
//! Regions (spaced far apart so they never alias by accident):
//!
//! | array | element | region |
//! |-------|---------|--------|
//! | CSR offsets | footprint width | `0x1_0000_0000` |
//! | CSR neighbors | 4 B raw / mean encoded B per arc | `0x2_0000_0000` |
//! | colors | 4 B | `0x3_0000_0000` |
//! | priorities ρ | 8 B | `0x4_0000_0000` |
//! | degrees D | 4 B | `0x5_0000_0000` |
//!
//! A compressed representation ([`pgc_graph::CompressedCsr`], footprint
//! `encoded_bytes > 0` — the arena length, whether the graph was encoded
//! in memory or loaded from a v2 snapshot) streams its
//! delta-varint arena instead of a raw `u32` array, so its neighbor
//! stride is the arena's mean bytes per arc — the simulator shows the
//! bandwidth side of compression the same way it shows `CompactCsr`'s
//! 4-byte offsets.

use crate::cache::{Cache, CacheConfig, CacheStats};
use pgc_core::{Algorithm, Params};
use pgc_graph::GraphView;

const OFFSETS_BASE: u64 = 0x1_0000_0000;
const NEIGHBORS_BASE: u64 = 0x2_0000_0000;
const COLORS_BASE: u64 = 0x3_0000_0000;
const RHO_BASE: u64 = 0x4_0000_0000;
const DEGREE_BASE: u64 = 0x5_0000_0000;

/// Representation-derived address layout: where each vertex's adjacency
/// begins in the conceptual neighbor array, and how wide one offset entry
/// is.
struct Layout {
    /// `starts[v]` = index of `N(v)`'s first slot in the neighbor array.
    starts: Vec<u64>,
    /// Bytes per offset entry (from the graph's memory footprint).
    offset_width: u64,
    /// Bytes one neighbor slot advances through the neighbor region: 4
    /// for a raw `u32` array, the arena's mean encoded bytes per arc for
    /// a compressed representation (at least 1).
    neighbor_stride: u64,
}

impl Layout {
    fn of<G: GraphView>(g: &G) -> Self {
        let mut starts = Vec::with_capacity(g.n() + 1);
        let mut acc = 0u64;
        starts.push(0);
        for v in g.vertices() {
            acc += g.degree(v) as u64;
            starts.push(acc);
        }
        // A borrowed view owns no offset array; model its traversal with
        // compact 4-byte entries (the host array is the base graph's).
        let fp = g.memory_footprint();
        let w = fp.offset_width.max(4) as u64;
        let encoded = fp.encoded_bytes as u64;
        let neighbor_stride = if encoded > 0 && acc > 0 {
            encoded.div_ceil(acc).max(1)
        } else {
            4
        };
        Self {
            starts,
            offset_width: w,
            neighbor_stride,
        }
    }
}

/// Address helpers for the virtual layout.
struct Mem<'c> {
    cache: &'c mut Cache,
    layout: &'c Layout,
}

impl Mem<'_> {
    fn offsets(&mut self, v: u32) {
        self.cache
            .access(OFFSETS_BASE + v as u64 * self.layout.offset_width);
    }
    fn neighbor_slot(&mut self, v: u32, i: usize) {
        let pos = self.layout.starts[v as usize] + i as u64;
        self.cache
            .access(NEIGHBORS_BASE + pos * self.layout.neighbor_stride);
    }
    fn color(&mut self, v: u32) {
        self.cache.access(COLORS_BASE + v as u64 * 4);
    }
    fn rho(&mut self, v: u32) {
        self.cache.access(RHO_BASE + v as u64 * 8);
    }
    fn degree(&mut self, v: u32) {
        self.cache.access(DEGREE_BASE + v as u64 * 4);
    }

    /// The canonical "color one vertex" access pattern: read the offset,
    /// then for each neighbor the adjacency slot + its color (+ its ρ for
    /// JP's predecessor test), finally write the own color.
    fn color_vertex<G: GraphView>(&mut self, g: &G, v: u32, read_rho: bool) {
        self.offsets(v);
        for (i, u) in g.neighbors(v).enumerate() {
            self.neighbor_slot(v, i);
            if read_rho {
                self.rho(u);
            }
            self.color(u);
        }
        self.color(v);
    }
}

/// Fig. 4 datum for one algorithm.
#[derive(Clone, Debug)]
pub struct CacheReport {
    /// Algorithm traced.
    pub algorithm: Algorithm,
    /// Raw counters.
    pub stats: CacheStats,
    /// L3-miss fraction (Fig. 4, upper panel analogue).
    pub miss_fraction: f64,
    /// Stalled-cycle proxy: fraction of "cycles" spent waiting on memory,
    /// with a miss costing `MISS_PENALTY` cycles and a hit 1 (Fig. 4,
    /// lower panel analogue).
    pub stall_fraction: f64,
}

/// Latency of a miss relative to a hit in the stall proxy (a DRAM-vs-L3
/// ratio of ~4 is the right order for the Xeon the paper used).
pub const MISS_PENALTY: u64 = 4;

fn report(algorithm: Algorithm, stats: CacheStats) -> CacheReport {
    let hits = stats.accesses - stats.misses;
    let stall = (stats.misses * MISS_PENALTY) as f64;
    CacheReport {
        algorithm,
        stats,
        miss_fraction: stats.miss_fraction(),
        stall_fraction: if stats.accesses == 0 {
            0.0
        } else {
            stall / (stall + hits as f64)
        },
    }
}

/// Replay the JP coloring schedule: vertices in decreasing-priority order,
/// each reading its full neighborhood (ρ + colors).
fn trace_jp<G: GraphView>(g: &G, rho: &[u64], layout: &Layout, cache: &mut Cache) {
    let mut mem = Mem { cache, layout };
    for v in pgc_order::by_decreasing_rho(rho) {
        mem.color_vertex(g, v, true);
    }
}

/// Replay a speculative (ITR-style) run: `rounds` passes; pass 1 touches
/// every vertex, later passes only the conflicting fraction (modeled by
/// re-touching the `retried` heaviest vertices — conflicts concentrate in
/// dense regions).
fn trace_itr<G: GraphView>(g: &G, rounds: u32, conflicts: u64, layout: &Layout, cache: &mut Cache) {
    let mut mem = Mem { cache, layout };
    for v in g.vertices() {
        mem.color_vertex(g, v, false);
        // Conflict-detection pass re-reads neighbor colors.
        for (i, u) in g.neighbors(v).enumerate() {
            mem.neighbor_slot(v, i);
            mem.color(u);
        }
    }
    // Re-color rounds: spread the recorded conflict volume over the
    // remaining rounds, touching the highest-degree vertices first.
    if rounds > 1 && conflicts > 0 {
        let mut by_degree: Vec<u32> = (0..g.n() as u32).collect();
        by_degree.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        let per_round = (conflicts / (rounds as u64 - 1).max(1)) as usize;
        for _ in 1..rounds {
            for &v in by_degree.iter().take(per_round.min(by_degree.len())) {
                mem.color_vertex(g, v, false);
            }
        }
    }
}

/// Replay the ADG peeling loop: per iteration a streaming pass over the
/// active region's degrees plus the removed batch's neighborhoods.
fn trace_adg<G: GraphView>(g: &G, levels: &pgc_order::Levels, layout: &Layout, cache: &mut Cache) {
    let mut mem = Mem { cache, layout };
    let n = g.n();
    for l in 0..levels.num_levels() {
        // Average-degree reduction scans the still-active suffix.
        for &v in &levels.seq[levels.offsets[l]..n.min(levels.seq.len())] {
            mem.degree(v);
        }
        // UPDATE touches the removed batch's neighborhoods.
        for &v in levels.level(l) {
            mem.offsets(v);
            for (i, u) in g.neighbors(v).enumerate() {
                mem.neighbor_slot(v, i);
                mem.degree(u);
            }
        }
    }
}

/// Replay the sequential greedy schedule in natural order.
fn trace_greedy<G: GraphView>(g: &G, layout: &Layout, cache: &mut Cache) {
    let mut mem = Mem { cache, layout };
    for v in g.vertices() {
        mem.color_vertex(g, v, false);
    }
}

/// Trace `algo` on `g` against an L3-like cache and report the Fig. 4
/// fractions. Orderings/round counts are obtained by actually running the
/// algorithm (cheaply, once) so the replayed schedule is the real one.
pub fn simulate_algorithm<G: GraphView>(g: &G, algo: Algorithm, params: &Params) -> CacheReport {
    simulate_with_config(g, algo, params, CacheConfig::l3_like())
}

/// [`simulate_algorithm`] with an explicit cache geometry.
pub fn simulate_with_config<G: GraphView>(
    g: &G,
    algo: Algorithm,
    params: &Params,
    config: CacheConfig,
) -> CacheReport {
    use Algorithm::*;
    let mut cache = Cache::new(config);
    let layout = Layout::of(g);
    match algo {
        GreedyFf | GreedyLf | GreedySl | GreedyId | GreedySd => {
            trace_greedy(g, &layout, &mut cache)
        }
        JpFf | JpR | JpLf | JpLlf | JpSl | JpSll | JpAsl => {
            let kind = algo.ordering_kind(params).expect("JP ordering");
            let ord = pgc_order::compute(g, &kind, params.seed);
            trace_jp(g, &ord.rho, &layout, &mut cache);
        }
        JpAdg | JpAdgM => {
            let kind = algo.ordering_kind(params).expect("ADG ordering");
            let ord = pgc_order::compute(g, &kind, params.seed);
            trace_adg(g, ord.levels.as_ref().unwrap(), &layout, &mut cache);
            trace_jp(g, &ord.rho, &layout, &mut cache);
        }
        Itr | ItrB | ItrAsl | SimCol => {
            let run = pgc_core::run(g, algo, params);
            trace_itr(g, run.rounds().max(1), run.conflicts(), &layout, &mut cache);
        }
        DecAdg | DecAdgM | DecAdgItr => {
            let run = pgc_core::run(g, algo, params);
            let opts = pgc_order::AdgOptions {
                epsilon: params.epsilon,
                seed: params.seed,
                ..Default::default()
            };
            let ord = pgc_order::adg(g, &opts);
            let levels = ord.levels.unwrap();
            trace_adg(g, &levels, &layout, &mut cache);
            // Partition-local speculative rounds: one streaming pass per
            // partition plus the recorded conflict retries.
            let mut mem = Mem {
                cache: &mut cache,
                layout: &layout,
            };
            for l in (0..levels.num_levels()).rev() {
                for &v in levels.level(l) {
                    mem.color_vertex(g, v, false);
                }
            }
            trace_itr(
                g,
                1 + (run.conflicts() > 0) as u32,
                run.conflicts(),
                &layout,
                &mut cache,
            );
        }
    }
    report(algo, cache.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_graph::gen::{generate, GraphSpec, SpecSource};
    use pgc_graph::stream::build_compact_with_offset_limit;

    #[test]
    fn reports_are_well_formed() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            1,
        );
        let params = Params::default();
        for algo in [
            Algorithm::JpR,
            Algorithm::JpAdg,
            Algorithm::Itr,
            Algorithm::DecAdgItr,
            Algorithm::GreedyFf,
        ] {
            let r = simulate_algorithm(&g, algo, &params);
            assert!(r.stats.accesses > 0, "{:?}", algo);
            assert!((0.0..=1.0).contains(&r.miss_fraction));
            assert!((0.0..=1.0).contains(&r.stall_fraction));
            assert!(r.stall_fraction >= r.miss_fraction * 0.5);
        }
    }

    #[test]
    fn deterministic() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 400, m: 1600 }, 2);
        let params = Params::default();
        let a = simulate_algorithm(&g, Algorithm::JpAdg, &params);
        let b = simulate_algorithm(&g, Algorithm::JpAdg, &params);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn compact_offsets_never_miss_more() {
        // Same abstract graph, two offset widths: the 4-byte layout packs
        // twice the offsets per line, so its offset-stream misses (and
        // hence total misses on the same trace) cannot exceed the wide
        // 8-byte fallback's.
        let spec = GraphSpec::ErdosRenyi {
            n: 30_000,
            m: 60_000,
        };
        let compact = generate(&spec, 4);
        let (wide, _) = build_compact_with_offset_limit(&SpecSource::new(spec, 4), 0).unwrap();
        assert_eq!(compact.memory_footprint().offset_width, 4);
        assert_eq!(
            wide.memory_footprint().offset_width,
            std::mem::size_of::<usize>()
        );
        let small = CacheConfig {
            line_size: 64,
            sets: 64,
            ways: 16,
        };
        let params = Params::default();
        let rc = simulate_with_config(&compact, Algorithm::GreedyFf, &params, small);
        let rw = simulate_with_config(&wide, Algorithm::GreedyFf, &params, small);
        assert_eq!(rc.stats.accesses, rw.stats.accesses, "same trace length");
        assert!(
            rc.stats.misses <= rw.stats.misses,
            "compact {} > wide {}",
            rc.stats.misses,
            rw.stats.misses
        );
    }

    #[test]
    fn grid_locality_beats_random_graph() {
        // A planar mesh traversed in natural order is far more local than
        // a uniform random graph of similar size — the sanity anchor that
        // the simulator measures locality at all.
        let params = Params::default();
        // A 64 KiB cache against ~40k-vertex graphs: the grid's working
        // window (one row of colors) fits, the random graph's doesn't.
        let small = CacheConfig {
            line_size: 64,
            sets: 64,
            ways: 16,
        };
        let grid = generate(
            &GraphSpec::Grid2d {
                rows: 200,
                cols: 200,
            },
            0,
        );
        let er = generate(
            &GraphSpec::ErdosRenyi {
                n: 40_000,
                m: 80_000,
            },
            0,
        );
        let rg = simulate_with_config(&grid, Algorithm::GreedyFf, &params, small);
        let re = simulate_with_config(&er, Algorithm::GreedyFf, &params, small);
        assert!(
            rg.miss_fraction < re.miss_fraction,
            "grid {} !< er {}",
            rg.miss_fraction,
            re.miss_fraction
        );
    }

    #[test]
    fn bucketed_round_order_does_not_miss_more() {
        // The cache-aware round schedule (pgc_core::schedule): replay one
        // coloring round over every vertex in (a) a hash-shuffled order —
        // the arbitrary order a parallel collect produces — and (b) the
        // degree-bucketed, id-ascending order the engines now use. The
        // bucketed schedule's monotone sweeps through the offset/color
        // arrays must not lose to the shuffle.
        let g = generate(
            &GraphSpec::Rmat {
                scale: 12,
                edge_factor: 8,
            },
            3,
        );
        let small = CacheConfig {
            line_size: 64,
            sets: 64,
            ways: 16,
        };
        let layout = Layout::of(&g);
        let replay = |order: &[u32]| -> u64 {
            let mut cache = Cache::new(small);
            let mut mem = Mem {
                cache: &mut cache,
                layout: &layout,
            };
            for &v in order {
                mem.color_vertex(&g, v, false);
            }
            cache.stats().misses
        };
        let mut shuffled: Vec<u32> = (0..g.n() as u32).collect();
        shuffled.sort_unstable_by_key(|&v| {
            // splitmix64 round: a deterministic stand-in for the arbitrary
            // order of a parallel frontier collect.
            let mut z = v as u64 ^ 0x9E3779B97F4A7C15;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        });
        let mut bucketed = shuffled.clone();
        pgc_core::schedule::bucket_by_degree(&g, &mut bucketed);
        let (m_shuffled, m_bucketed) = (replay(&shuffled), replay(&bucketed));
        assert!(
            m_bucketed <= m_shuffled,
            "bucketed order misses more: {m_bucketed} > {m_shuffled}"
        );
    }

    #[test]
    fn compressed_traversal_does_not_miss_more() {
        // A/B over the identical trace: the compressed representation's
        // neighbor stream advances by its mean encoded bytes per arc
        // (~≤2 B on these families) instead of 4, packing more neighbors
        // per line — so on the same schedule it must not miss more than
        // the raw-array layout, on a skewed and a power-law workload.
        let small = CacheConfig {
            line_size: 64,
            sets: 64,
            ways: 16,
        };
        let params = Params::default();
        for spec in [
            GraphSpec::Rmat {
                scale: 12,
                edge_factor: 8,
            },
            GraphSpec::BarabasiAlbert {
                n: 20_000,
                attach: 8,
            },
        ] {
            let g = generate(&spec, 5);
            let z = pgc_graph::CompressedCsr::from_compact(&g);
            assert!(z.memory_footprint().encoded_bytes > 0);
            let rc = simulate_with_config(&g, Algorithm::GreedyFf, &params, small);
            let rz = simulate_with_config(&z, Algorithm::GreedyFf, &params, small);
            assert_eq!(rc.stats.accesses, rz.stats.accesses, "same trace length");
            assert!(
                rz.stats.misses <= rc.stats.misses,
                "compressed traversal misses more: {} > {} ({spec:?})",
                rz.stats.misses,
                rc.stats.misses
            );
        }
    }

    #[test]
    fn snapshot_loaded_compressed_keeps_encoded_stride() {
        // A compressed graph loaded from a v2 snapshot is laid out with
        // the same encoded stride as the one it was written from, never
        // the raw 4-byte stride.
        let g = generate(
            &GraphSpec::Rmat {
                scale: 10,
                edge_factor: 8,
            },
            7,
        );
        let z = pgc_graph::CompressedCsr::from_compact(&g);
        let dir = std::env::temp_dir().join(format!("pgc-cachesim-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pgcs");
        pgc_graph::write_compressed_snapshot(&z, &path).unwrap();
        let m = pgc_graph::load_compressed_snapshot(&path).unwrap();
        let fp = m.memory_footprint();
        assert_eq!(fp.encoded_bytes, z.encoded_bytes());
        let (lz, lm) = (Layout::of(&z), Layout::of(&m));
        assert_eq!(lm.neighbor_stride, lz.neighbor_stride);
        assert!(
            lm.neighbor_stride < 4,
            "encoded stride, not the raw u32 stride: {}",
            lm.neighbor_stride
        );
        let small = CacheConfig {
            line_size: 64,
            sets: 64,
            ways: 16,
        };
        let rz = simulate_with_config(&z, Algorithm::GreedyFf, &Params::default(), small);
        let rm = simulate_with_config(&m, Algorithm::GreedyFf, &Params::default(), small);
        assert_eq!(rz.stats.accesses, rm.stats.accesses);
        assert_eq!(rz.stats.misses, rm.stats.misses, "identical virtual layout");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn small_graph_fits_in_cache() {
        let g = generate(&GraphSpec::Cycle { n: 500 }, 0);
        let r = simulate_algorithm(&g, Algorithm::GreedyFf, &Params::default());
        assert!(r.miss_fraction < 0.5, "{}", r.miss_fraction);
    }
}
