//! The Jones–Plassmann engine (Alg. 3).
//!
//! Given a total priority function ρ, JP directs every edge from the higher-
//! to the lower-priority endpoint, forming the DAG `Gρ`; a vertex is colored
//! with the smallest color unused among its predecessors as soon as *all*
//! predecessors are done (`Join` on an atomic counter, §II-D). Depth is
//! `O(log n + log Δ · |P|)` where `|P|` is the longest path of `Gρ`
//! (Hasenplaugh et al.) — the whole point of the paper's ADG ordering is to
//! bound `|P|` by `O(d log n + …)` (Lemma 7).
//!
//! Both engines color a vertex with one step that reads its row once: a
//! predecessor marks its color in a `deg + 1`-bit bitmap, a successor goes
//! to a list. The asynchronous engine keeps the bitmap words and the list
//! in per-thread scratch and the level loop keeps the words per parallel
//! leaf, so the step allocates only when a row outgrows every earlier one.
//!
//! Two interchangeable engines:
//!
//! * [`jp_color`] — asynchronous fork–join: the roots of `Gρ` are a
//!   parallel loop, each vertex joins its successors once it is colored,
//!   the first one it releases is colored inline and every further one
//!   becomes a rayon task; closest to the paper's execution model.
//! * [`jp_color_levels`] — level-synchronous: colors the current frontier,
//!   then the released set, round by round. Returns the round count, which
//!   equals the longest `Gρ` path length + 1 — the measured "depth" used by
//!   the Table III experiment. It is the one-shard case of the
//!   shard-parallel level loop [`jp_color_levels_sharded`].
//!
//! JP with a fixed ρ is *schedule-deterministic*: each vertex's color is a
//! function of its predecessors' colors only, so both engines (and any
//! thread interleaving) produce bit-identical colorings — the coloring of
//! the sequential greedy pass over decreasing ρ.

use crate::colorer::{Colorer, Instrumentation};
use crate::{Algorithm, ColoringRun, Params, UNCOLORED};
use pgc_graph::GraphView;
use pgc_primitives::JoinCounters;
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

/// [`Colorer`] for the Jones–Plassmann family: any `Algorithm` whose
/// [`ordering_kind`](Algorithm::ordering_kind) yields the JP priority
/// function (JP-FF/R/LF/LLF/SL/SLL/ASL/ADG/ADG-M).
pub struct Jp {
    algo: Algorithm,
}

impl Jp {
    pub fn new(algo: Algorithm) -> Self {
        use Algorithm::*;
        assert!(
            matches!(
                algo,
                JpFf | JpR | JpLf | JpLlf | JpSl | JpSll | JpAsl | JpAdg | JpAdgM
            ),
            "not a JP algorithm: {algo:?}"
        );
        Self { algo }
    }
}

impl<G: GraphView> Colorer<G> for Jp {
    fn algorithm(&self) -> Algorithm {
        self.algo
    }

    fn color(&self, g: &G, params: &Params) -> ColoringRun {
        let kind = self
            .algo
            .ordering_kind(params)
            .expect("JP algorithms have an ordering");
        let mut instr = Instrumentation::default();
        let ord = instr.ordering(|| pgc_order::compute(g, &kind, params.seed));
        let (colors, color_rounds) = instr.coloring(|| {
            if params.jp_level_sync {
                jp_color_levels(g, &ord.rho)
            } else if let Some(counts) = &ord.pred_counts {
                // §V-C: the ordering fused JP's Part-1 DAG construction.
                (jp_color_with_counts(g, &ord.rho, counts), 0)
            } else {
                (jp_color(g, &ord.rho), 0)
            }
        });
        instr.record_rounds(ord.stats.iterations + color_rounds, 0);
        ColoringRun::new(self.algo, colors, instr)
    }
}

/// Number of predecessors (higher-priority neighbors) per vertex — the
/// initial `count[]` of Alg. 3 (line 11).
pub fn predecessor_counts<G: GraphView>(g: &G, rho: &[u64]) -> Vec<u32> {
    g.vertices()
        .into_par_iter()
        .map(|v| {
            g.neighbors(v)
                .filter(|&u| rho[u as usize] > rho[v as usize])
                .count() as u32
        })
        .collect()
}

/// Per-thread scratch of the asynchronous engine: the bitmap words and
/// the successor list of [`color_step`], kept from one vertex to the next.
#[derive(Default)]
struct Scratch {
    words: Vec<u64>,
    succ: Vec<u32>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            words: Vec::new(),
            succ: Vec::new(),
        })
    };
}

/// `GetColor` (Alg. 3 lines 25–28) in one pass over the row of `v`: a
/// predecessor (`ρ(u) > ρ(v)`) marks its color in a `deg(v) + 1`-bit
/// bitmap held in the first words of `words`, and every successor is
/// handed to `succ`. Returns the smallest color unused among the
/// predecessors. That color is at most `deg(v)`, so a predecessor color
/// beyond it can never be the answer and is dropped.
#[inline]
fn color_step<G: GraphView>(
    g: &G,
    rho: &[u64],
    colors: &[AtomicU32],
    v: u32,
    words: &mut Vec<u64>,
    mut succ: impl FnMut(u32),
) -> u32 {
    let deg = g.degree(v) as usize;
    let nwords = deg / 64 + 1;
    if words.len() < nwords {
        words.resize(nwords, 0);
    }
    // Clear only this row's words: a hub may have grown the capacity.
    let bits = &mut words[..nwords];
    bits.fill(0);
    let rv = rho[v as usize];
    for u in g.neighbors(v) {
        let ru = rho[u as usize];
        if ru > rv {
            let c = colors[u as usize].load(AtOrd::Relaxed) as usize;
            debug_assert_ne!(c, UNCOLORED as usize, "predecessor {u} of {v} uncolored");
            if c <= deg {
                bits[c / 64] |= 1 << (c % 64);
            }
        } else if ru < rv {
            // ρ is total, so only a self-loop falls through both tests.
            succ(u);
        }
    }
    // At most deg(v) bits are set among deg(v) + 1, so a zero exists.
    let mut i = 0;
    while bits[i] == u64::MAX {
        i += 1;
    }
    (i * 64 + bits[i].trailing_ones() as usize) as u32
}

/// Asynchronous JP (Alg. 3): the roots of `Gρ` are a parallel loop, chains
/// of single releases are followed inline, and every further release is a
/// rayon task. Each vertex reads its row once, through per-thread scratch.
/// Returns the coloring.
pub fn jp_color<G: GraphView>(g: &G, rho: &[u64]) -> Vec<u32> {
    let counts = predecessor_counts(g, rho);
    jp_color_with_counts(g, rho, &counts)
}

/// [`jp_color`] with precomputed predecessor counts — the §V-C fused-rank
/// fast path: ADG already produced `count[v]` during its UPDATE pass, so
/// JP's Part 1 (Alg. 3 lines 6–11) is skipped.
pub fn jp_color_with_counts<G: GraphView>(g: &G, rho: &[u64], counts: &[u32]) -> Vec<u32> {
    assert_eq!(rho.len(), g.n());
    debug_assert_eq!(counts, &predecessor_counts(g, rho)[..], "bad fused counts");
    let _span = pgc_obs::span!("jp.color");
    let counters = JoinCounters::from_values(counts);
    let colors: Vec<AtomicU32> = (0..g.n()).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let roots = roots(counts);
    pgc_obs::counter!("roots", roots.len() as u64);

    struct Ctx<'a, G: GraphView> {
        g: &'a G,
        rho: &'a [u64],
        colors: &'a [AtomicU32],
        counters: &'a JoinCounters,
    }

    /// JPColor: color `v`, then join its successors. The first successor
    /// released is colored next in this loop; every further one is spawned.
    fn run_chain<'s, G: GraphView>(ctx: &'s Ctx<'s, G>, v: u32, scope: &rayon::Scope<'s>) {
        // Taken, not borrowed: a spawn that the pool declines runs inline
        // and re-enters here, and then starts from empty scratch.
        let mut scratch = SCRATCH.take();
        let Scratch { words, succ } = &mut scratch;
        let mut current = v;
        loop {
            succ.clear();
            let c = color_step(ctx.g, ctx.rho, ctx.colors, current, words, |u| succ.push(u));
            ctx.colors[current as usize].store(c, AtOrd::Relaxed);
            let mut next: Option<u32> = None;
            for &u in succ.iter() {
                if ctx.counters.join(u as usize) {
                    if next.is_none() {
                        next = Some(u);
                    } else {
                        scope.spawn(move |s| run_chain(ctx, u, s));
                    }
                }
            }
            match next {
                Some(u) => current = u,
                None => break,
            }
        }
        SCRATCH.set(scratch);
    }

    let ctx = Ctx {
        g,
        rho,
        colors: &colors,
        counters: &counters,
    };
    let ctx = &ctx;
    rayon::scope(|s| roots.par_iter().for_each(|&v| run_chain(ctx, v, s)));

    colors.into_iter().map(|c| c.into_inner()).collect()
}

/// The sources of `Gρ`: vertices with no predecessor, in id order.
fn roots(counts: &[u32]) -> Vec<u32> {
    (0..counts.len() as u32)
        .into_par_iter()
        .filter(|&v| counts[v as usize] == 0)
        .collect()
}

/// One level step of `Gρ`: join every successor of the finished
/// `frontier` and return those whose last predecessor this was — the
/// next level. Shared by the level loop and [`dag_longest_path`].
fn release_next<G: GraphView>(
    g: &G,
    rho: &[u64],
    counters: &JoinCounters,
    frontier: &[u32],
) -> Vec<u32> {
    frontier
        .par_iter()
        .flat_map_iter(|&v| {
            let rv = rho[v as usize];
            g.neighbors(v)
                .filter(move |&u| rho[u as usize] < rv && counters.join(u as usize))
        })
        .collect()
}

/// Level-synchronous JP. Returns `(colors, rounds)`; `rounds` equals the
/// number of levels of `Gρ`, i.e. the longest directed path length + 1 —
/// the quantity bounded by Lemma 7 for ρ = ⟨ρ_ADG, ρ_R⟩. The one-shard
/// case of [`jp_color_levels_sharded`].
pub fn jp_color_levels<G: GraphView>(g: &G, rho: &[u64]) -> (Vec<u32>, u32) {
    jp_color_levels_sharded(g, rho, &[0, g.n() as u32])
}

/// Shard-parallel level-synchronous JP over a vertex-range sharding
/// (`bounds` as produced by `pgc_graph::ShardedCsr::boundaries`): each
/// round is partitioned by owning shard and every shard colors its
/// sub-round independently with its own degree-bucketed schedule
/// ([`crate::schedule`]). A round's frontier is an independent set of
/// `Gρ`, so shards never read each other's in-round colors; the fork–join
/// barrier at the end of the round is the halo color exchange — after it,
/// every cross-shard (halo) arc sees its endpoint's committed color, and
/// the release scan runs on globally consistent state. Works on *any*
/// [`GraphView`] (the bounds need not match the representation's physical
/// layout), and is bit-identical to the asynchronous [`jp_color`] because
/// each vertex's color is a function of its predecessors' colors only.
/// Every round colors its sub-rounds in the cache-aware order: degree
/// buckets / ascending ids, with the adjacency prefetched a few slots
/// ahead of the vertex being colored.
pub fn jp_color_levels_sharded<G: GraphView>(
    g: &G,
    rho: &[u64],
    bounds: &[u32],
) -> (Vec<u32>, u32) {
    assert_eq!(rho.len(), g.n());
    assert!(
        bounds.len() >= 2 && bounds[0] == 0 && *bounds.last().unwrap() as usize == g.n(),
        "shard bounds must cover 0..n"
    );
    let num_shards = bounds.len() - 1;
    let counts = predecessor_counts(g, rho);
    let counters = JoinCounters::from_values(&counts);
    let colors: Vec<AtomicU32> = (0..g.n()).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let mut frontier = roots(&counts);
    let mut rounds = 0u32;
    while !frontier.is_empty() {
        rounds += 1;
        let _round = pgc_obs::span!("jp.round");
        let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
        for &v in &frontier {
            by_shard[bounds[1..].partition_point(|&b| b <= v)].push(v);
        }
        let colors_ref = &colors;
        by_shard.par_iter_mut().for_each(|sub| {
            if sub.is_empty() {
                return;
            }
            let _shard = pgc_obs::span!("jp.shard");
            crate::schedule::bucket_by_degree(g, sub);
            let sub = &sub[..];
            (0..sub.len())
                .into_par_iter()
                .for_each_init(Vec::new, |words, i| {
                    crate::schedule::prefetch_ahead(g, sub, i);
                    let v = sub[i];
                    let c = color_step(g, rho, colors_ref, v, words, |_| {});
                    colors_ref[v as usize].store(c, AtOrd::Relaxed);
                });
        });
        // Implicit barrier above = halo color exchange; release the next
        // level against fully committed colors.
        frontier = release_next(g, rho, &counters, &frontier);
    }
    (colors.into_iter().map(|c| c.into_inner()).collect(), rounds)
}

/// Length (in vertices) of the longest directed path in `Gρ` — the `|P|`
/// of the paper's depth bounds. Computed as the number of peeling levels of
/// the DAG (identical to [`jp_color_levels`]'s round count but without
/// doing the coloring work).
pub fn dag_longest_path<G: GraphView>(g: &G, rho: &[u64]) -> u32 {
    let counts = predecessor_counts(g, rho);
    let counters = JoinCounters::from_values(&counts);
    let mut frontier = roots(&counts);
    let mut levels = 0u32;
    while !frontier.is_empty() {
        levels += 1;
        frontier = release_next(g, rho, &counters, &frontier);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_proper, num_colors};
    use pgc_graph::builder::from_edges;
    use pgc_graph::gen::{generate, GraphSpec};
    use pgc_graph::CompactCsr;
    use pgc_order::{compute, OrderingKind};
    use pgc_primitives::random_permutation;

    fn random_rho(n: usize, seed: u64) -> Vec<u64> {
        random_permutation(n, seed)
            .into_iter()
            .map(|p| p as u64)
            .collect()
    }

    #[test]
    fn colors_are_proper_on_random_graphs() {
        for seed in 0..4 {
            let g = generate(&GraphSpec::ErdosRenyi { n: 500, m: 2500 }, seed);
            let rho = random_rho(g.n(), seed);
            let colors = jp_color(&g, &rho);
            assert_proper(&g, &colors);
        }
    }

    #[test]
    fn async_and_level_sync_agree() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            2,
        );
        let rho = random_rho(g.n(), 5);
        let a = jp_color(&g, &rho);
        let (b, rounds) = jp_color_levels(&g, &rho);
        assert_eq!(a, b);
        assert!(rounds > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 1000, attach: 8 }, 3);
        let rho = random_rho(g.n(), 11);
        let a = jp_color(&g, &rho);
        for _ in 0..3 {
            assert_eq!(jp_color(&g, &rho), a, "JP must be schedule-deterministic");
        }
    }

    #[test]
    fn respects_priority_semantics() {
        // Path 0-1-2 with rho = [3,2,1]: 0 colored first (color 0), then 1
        // (sees 0 ⇒ color 1), then 2 (sees 1 ⇒ color 0).
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let colors = jp_color(&g, &[3, 2, 1]);
        assert_eq!(colors, vec![0, 1, 0]);
    }

    #[test]
    fn predecessor_color_above_degree_is_dropped() {
        // K₈ on 0..8 with ρ descending by id colors vertex i with color i.
        // The pendant 8 (lowest ρ) hangs on vertex 7: its one predecessor
        // holds color 7 > deg(8) = 1, which must not reach its bitmap.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for a in 0..8 {
            for b in a + 1..8 {
                edges.push((a, b));
            }
        }
        edges.push((7, 8));
        let g = from_edges(9, &edges);
        let rho: Vec<u64> = (0..9).map(|v| 100 - v).collect();
        let expect: Vec<u32> = (0..8).chain([0]).collect();
        assert_eq!(jp_color(&g, &rho), expect);
        let counts = predecessor_counts(&g, &rho);
        assert_eq!(jp_color_with_counts(&g, &rho, &counts), expect);
        let (levels, rounds) = jp_color_levels(&g, &rho);
        assert_eq!(levels, expect);
        assert_eq!(rounds, 9);
    }

    #[test]
    fn delta_plus_one_always_holds() {
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 10,
                clique_size: 8,
            },
            1,
        );
        let rho = random_rho(g.n(), 7);
        let colors = jp_color(&g, &rho);
        assert!(num_colors(&colors) <= g.max_degree() + 1);
    }

    #[test]
    fn sharded_levels_bit_identical_to_monolithic() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 8,
                edge_factor: 8,
            },
            6,
        );
        let rho = random_rho(g.n(), 9);
        let mono = jp_color(&g, &rho);
        let mono_rounds = dag_longest_path(&g, &rho);
        let n = g.n() as u32;
        for bounds in [
            vec![0, n],
            vec![0, n / 2, n],
            vec![0, n / 4, n / 2, 3 * n / 4, n],
            vec![0, 1, n / 3, n], // deliberately lopsided
        ] {
            let (sharded, rounds) = jp_color_levels_sharded(&g, &rho, &bounds);
            assert_eq!(sharded, mono, "bounds {bounds:?}");
            assert_eq!(rounds, mono_rounds);
        }
    }

    #[test]
    fn longest_path_matches_round_count() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 400, m: 1600 }, 9);
        let rho = random_rho(g.n(), 1);
        let (_, rounds) = jp_color_levels(&g, &rho);
        assert_eq!(dag_longest_path(&g, &rho), rounds);
    }

    #[test]
    fn ff_on_path_is_two_levels_deep_per_vertex() {
        // With FF priorities a path is a single chain: n rounds.
        let g = generate(&GraphSpec::Path { n: 64 }, 0);
        let ord = compute(&g, &OrderingKind::FirstFit, 0);
        assert_eq!(dag_longest_path(&g, &ord.rho), 64);
    }

    #[test]
    fn sl_ordering_gives_d_plus_one() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 800, attach: 5 }, 4);
        let d = pgc_graph::degeneracy::degeneracy(&g).degeneracy;
        let ord = compute(&g, &OrderingKind::SmallestLast, 2);
        let colors = jp_color(&g, &ord.rho);
        assert_proper(&g, &colors);
        assert!(num_colors(&colors) <= d + 1);
    }

    #[test]
    fn pred_counts_sum_to_m() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 300, m: 900 }, 5);
        let rho = random_rho(g.n(), 3);
        let counts = predecessor_counts(&g, &rho);
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, g.m() as u64, "each edge has exactly one direction");
    }

    #[test]
    fn empty_graph() {
        let g = CompactCsr::empty(0);
        assert!(jp_color(&g, &[]).is_empty());
        let (c, r) = jp_color_levels(&g, &[]);
        assert!(c.is_empty());
        assert_eq!(r, 0);
    }

    #[test]
    fn isolated_vertices_all_get_color_zero() {
        let g = CompactCsr::empty(10);
        let rho = random_rho(10, 1);
        let colors = jp_color(&g, &rho);
        assert!(colors.iter().all(|&c| c == 0));
    }
}
