//! The Jones–Plassmann engine (Alg. 3).
//!
//! Given a total priority function ρ, JP directs every edge from the higher-
//! to the lower-priority endpoint, forming the DAG `Gρ`; a vertex is colored
//! with the smallest color unused among its predecessors once *all*
//! predecessors are colored. Depth is `O(log n + log Δ · |P|)` where `|P|`
//! is the longest path of `Gρ` (Hasenplaugh et al.) — the whole point of
//! the paper's ADG ordering is to bound `|P|` by `O(d log n + …)` (Lemma 7).
//!
//! The engine runs the prefix schedule of deterministic reservations
//! (Blelloch, Fineman and Shun, SPAA'12) in place of the paper's per-vertex
//! join counters. It walks the vertices in decreasing ρ, the sequence
//! `seq`, in rounds. A round takes the vertices deferred so far plus the
//! next fresh ones of `seq`, up to a window, and colors them in one
//! parallel loop: each vertex scans its row once, and a neighbor earlier
//! in `seq` is a predecessor (a `u32` rank test, not a ρ read). The first
//! predecessor still uncolored defers the vertex to the next round;
//! otherwise the vertex stores the smallest color its predecessors leave
//! free, found in a `deg + 1`-bit bitmap held in per-leaf scratch.
//! Deferred vertices keep their order in `seq`. The window doubles when
//! under a quarter of a round defers and halves, never below
//! `MIN_WINDOW` (1024), when over half does. There are no counters, no
//! atomic read-modify-writes and no spawns. The first vertex left in
//! `seq` has only colored predecessors, so every round colors at least
//! one vertex.
//!
//! The schedule cannot change a color. A vertex colors only once every
//! predecessor holds a color, and a stored color is never rewritten, so
//! it reads its predecessors' final colors. By induction along `seq`,
//! every vertex gets the color of the sequential greedy pass over
//! decreasing ρ, on any schedule and at any width (Hasenplaugh et al.,
//! SPAA'14). Only which vertices defer depends on the schedule; the
//! `deferred` counter of each `jp.round` span shows it.
//!
//! [`jp_color_ordering`] takes `seq` from
//! [`VertexOrdering::by_decreasing_rho`], which for ADG is the reversed
//! level sequence at O(n) cost; [`jp_color`] sorts ρ. The round count of a
//! level-by-level schedule, `|P|`, comes from [`dag_longest_path`] without
//! coloring anything.

use crate::UNCOLORED;
use pgc_graph::GraphView;
use pgc_order::{by_decreasing_rho, VertexOrdering};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// The first and the smallest window of the prefix schedule.
const MIN_WINDOW: usize = 1024;

/// JP over the priorities `rho` (higher ρ colors first). Returns the
/// coloring.
pub fn jp_color<G: GraphView>(g: &G, rho: &[u64]) -> Vec<u32> {
    assert_eq!(rho.len(), g.n());
    color_in_sequence(g, &by_decreasing_rho(rho))
}

/// JP over the priorities of `ord`, walked in the sequence
/// [`VertexOrdering::by_decreasing_rho`] gives. Returns the coloring,
/// equal to `jp_color(g, &ord.rho)`.
pub fn jp_color_ordering<G: GraphView>(g: &G, ord: &VertexOrdering) -> Vec<u32> {
    assert_eq!(ord.rho.len(), g.n());
    color_in_sequence(g, &ord.by_decreasing_rho())
}

/// The prefix engine (module docs) over `seq`, a permutation of the
/// vertices in decreasing priority.
fn color_in_sequence<G: GraphView>(g: &G, seq: &[u32]) -> Vec<u32> {
    let _span = pgc_obs::span!("jp.color");
    let n = seq.len();
    // rank[v] is the position of v in seq: u precedes v iff rank[u] < rank[v].
    // Both arrays may be `Relaxed`: a rank is written in one parallel loop
    // and read in later ones, whose fork-join boundary orders them, and a
    // color is a value that publishes no other data. A reader that sees it
    // at all sees the final color, which is written once.
    let rank: Vec<AtomicU32> = (0..n).into_par_iter().map(|_| AtomicU32::new(0)).collect();
    seq.par_iter()
        .enumerate()
        .for_each(|(i, &v)| rank[v as usize].store(i as u32, Relaxed));
    let colors: Vec<AtomicU32> = (0..n)
        .into_par_iter()
        .map(|_| AtomicU32::new(UNCOLORED))
        .collect();

    let mut deferred: Vec<u32> = Vec::new();
    let (mut next, mut window) = (0, MIN_WINDOW);
    while next < n || !deferred.is_empty() {
        let _round = pgc_obs::span!("jp.round");
        let fresh = window.saturating_sub(deferred.len()).min(n - next);
        let mut round = std::mem::take(&mut deferred);
        round.extend_from_slice(&seq[next..next + fresh]);
        next += fresh;
        deferred = pgc_par::map_reduce_chunks(
            round.len(),
            0,
            |r| {
                let (mut words, mut left) = (Vec::new(), Vec::new());
                for &v in &round[r] {
                    match try_color(g, &rank, &colors, v, &mut words) {
                        Some(c) => colors[v as usize].store(c, Relaxed),
                        None => left.push(v),
                    }
                }
                left
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        )
        .unwrap_or_default();
        pgc_obs::counter!("deferred", deferred.len() as u64);
        if 4 * deferred.len() < round.len() {
            window = window.saturating_mul(2);
        } else if 2 * deferred.len() > round.len() {
            window = (window / 2).max(MIN_WINDOW);
        }
    }
    colors.into_iter().map(AtomicU32::into_inner).collect()
}

/// `GetColor` (Alg. 3 lines 25–28) in one pass over the row of `v`: every
/// predecessor (`rank[u] < rank[v]`) marks its color in a `deg(v) + 1`-bit
/// bitmap held in the first words of `words`. Returns `None` at the first
/// predecessor still uncolored, else the smallest color unused among the
/// predecessors. That color is at most `deg(v)`, so a predecessor color
/// beyond it can never be the answer and is dropped.
#[inline]
fn try_color<G: GraphView>(
    g: &G,
    rank: &[AtomicU32],
    colors: &[AtomicU32],
    v: u32,
    words: &mut Vec<u64>,
) -> Option<u32> {
    let deg = g.degree(v) as usize;
    let nwords = deg / 64 + 1;
    if words.len() < nwords {
        words.resize(nwords, 0);
    }
    // Clear only this row's words: a hub may have grown the capacity.
    let bits = &mut words[..nwords];
    bits.fill(0);
    let rv = rank[v as usize].load(Relaxed);
    for u in g.neighbors(v) {
        if rank[u as usize].load(Relaxed) < rv {
            let c = colors[u as usize].load(Relaxed);
            if c == UNCOLORED {
                return None;
            }
            let c = c as usize;
            if c <= deg {
                bits[c / 64] |= 1 << (c % 64);
            }
        }
    }
    // At most deg(v) bits are set among deg(v) + 1, so a zero exists.
    let mut i = 0;
    while bits[i] == u64::MAX {
        i += 1;
    }
    Some((i * 64 + bits[i].trailing_ones() as usize) as u32)
}

/// Length (in vertices) of the longest directed path in `Gρ` — the `|P|`
/// of the paper's depth bounds, and the round count of a level-by-level JP
/// schedule. One sequential O(n + m) pass over the vertices by decreasing
/// ρ, without coloring: `depth[v] = 1 + the max depth of v's
/// predecessors`, which are all done when `v` is reached.
pub fn dag_longest_path<G: GraphView>(g: &G, rho: &[u64]) -> u32 {
    assert_eq!(rho.len(), g.n());
    let mut depth = vec![0u32; g.n()];
    let mut longest = 0;
    for v in by_decreasing_rho(rho) {
        let rv = rho[v as usize];
        let d = 1 + g
            .neighbors(v)
            .filter(|&u| rho[u as usize] > rv)
            .map(|u| depth[u as usize])
            .max()
            .unwrap_or(0);
        depth[v as usize] = d;
        longest = longest.max(d);
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_by_priority;
    use crate::verify::{assert_proper, num_colors};
    use pgc_graph::builder::from_edges;
    use pgc_graph::gen::{generate, GraphSpec};
    use pgc_graph::{CompactCsr, CompressedCsr};
    use pgc_order::{adg, compute, AdgOptions, OrderingKind, OrderingStats};
    use pgc_primitives::random_permutation;

    fn random_rho(n: usize, seed: u64) -> Vec<u64> {
        random_permutation(n, seed)
            .into_iter()
            .map(|p| p as u64)
            .collect()
    }

    /// An ordering of bare priorities, with no level sequence.
    fn unbatched(rho: Vec<u64>) -> VertexOrdering {
        VertexOrdering {
            rho,
            levels: None,
            stats: OrderingStats::default(),
        }
    }

    /// Both entry points reproduce the greedy pass over decreasing ρ at
    /// widths 1, 2 and 4, on the compact and the compressed adjacency.
    fn assert_matches_greedy(what: &str, g: &CompactCsr, ord: &VertexOrdering) {
        let expect = greedy_by_priority(g, &ord.rho);
        let compressed = CompressedCsr::from_compact(g);
        for width in [1, 2, 4] {
            pgc_par::install(width, || {
                let at = |repr: &str| format!("{what}, {repr}, width {width}");
                assert_eq!(jp_color(g, &ord.rho), expect, "{}", at("compact"));
                assert_eq!(jp_color_ordering(g, ord), expect, "{}", at("compact"));
                assert_eq!(
                    jp_color(&compressed, &ord.rho),
                    expect,
                    "{}",
                    at("compressed")
                );
                assert_eq!(
                    jp_color_ordering(&compressed, ord),
                    expect,
                    "{}",
                    at("compressed")
                );
            });
        }
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
        assert_eq!(dag_longest_path(&g, &rho), 9);
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

    /// Independent oracle for [`dag_longest_path`]: peel `Gρ` level by
    /// level by predecessor counts. The sources are level 1; a vertex
    /// joins the next level when its last predecessor is peeled. Returns
    /// the number of levels.
    fn levels_by_peeling<G: GraphView>(g: &G, rho: &[u64]) -> u32 {
        let mut count: Vec<usize> = g
            .vertices()
            .map(|v| {
                let above = |&u: &u32| rho[u as usize] > rho[v as usize];
                g.neighbors(v).filter(above).count()
            })
            .collect();
        let mut frontier: Vec<u32> = g.vertices().filter(|&v| count[v as usize] == 0).collect();
        let mut levels = 0;
        while !frontier.is_empty() {
            levels += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                for u in g.neighbors(v) {
                    if rho[u as usize] < rho[v as usize] {
                        count[u as usize] -= 1;
                        if count[u as usize] == 0 {
                            next.push(u);
                        }
                    }
                }
            }
            frontier = next;
        }
        levels
    }

    #[test]
    fn longest_path_matches_round_count() {
        let er = generate(&GraphSpec::ErdosRenyi { n: 400, m: 1600 }, 9);
        let rmat = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            6,
        );
        let path = generate(&GraphSpec::Path { n: 64 }, 0);
        let cases = [
            (random_rho(er.n(), 1), er),
            (random_rho(rmat.n(), 9), rmat),
            (compute(&path, &OrderingKind::FirstFit, 0).rho, path),
            (Vec::new(), CompactCsr::empty(0)),
        ];
        for (i, (rho, g)) in cases.iter().enumerate() {
            assert_eq!(
                dag_longest_path(g, rho),
                levels_by_peeling(g, rho),
                "graph {i}"
            );
        }
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
    fn empty_graph() {
        let g = CompactCsr::empty(0);
        assert!(jp_color(&g, &[]).is_empty());
        assert_eq!(dag_longest_path(&g, &[]), 0);
    }

    #[test]
    fn isolated_vertices_all_get_color_zero() {
        let g = CompactCsr::empty(10);
        let rho = random_rho(10, 1);
        let colors = jp_color(&g, &rho);
        assert!(colors.iter().all(|&c| c == 0));
    }

    #[test]
    fn path_under_ff_is_one_chain_and_still_finishes() {
        // Every vertex waits on the one before it, so a round split across
        // strands can color little beyond its head, and the window has to
        // shrink back without stalling.
        let g = generate(
            &GraphSpec::Path {
                n: 4 * MIN_WINDOW + 3,
            },
            0,
        );
        let ord = compute(&g, &OrderingKind::FirstFit, 0);
        assert_matches_greedy("FF path", &g, &ord);
    }

    #[test]
    fn star_whose_hub_has_the_lowest_priority() {
        // Every leaf precedes the hub, which waits on all of them and
        // colors last, in a round of its own.
        let n = 3 * MIN_WINDOW;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|leaf| (0, leaf)).collect();
        let g = from_edges(n, &edges);
        let ord = unbatched((0..n as u64).collect());
        assert_eq!(jp_color(&g, &ord.rho)[0], 1);
        assert_matches_greedy("star", &g, &ord);
    }

    #[test]
    fn complete_graph_k64() {
        let g = generate(&GraphSpec::Complete { n: 64 }, 0);
        let ord = unbatched(random_rho(g.n(), 5));
        assert_eq!(num_colors(&jp_color(&g, &ord.rho)), 64);
        assert_matches_greedy("K64", &g, &ord);
    }

    #[test]
    fn graphs_below_the_smallest_window() {
        let er = generate(&GraphSpec::ErdosRenyi { n: 300, m: 900 }, 2);
        assert!(er.n() < MIN_WINDOW);
        let ord = compute(&er, &OrderingKind::Adg(AdgOptions::default()), 3);
        assert_matches_greedy("ER 300", &er, &ord);
        for n in [0, 1] {
            let g = CompactCsr::empty(n);
            let ord = unbatched((0..n as u64).collect());
            assert_eq!(jp_color(&g, &ord.rho), vec![0; n]);
            assert_matches_greedy(&format!("n = {n}"), &g, &ord);
        }
    }

    #[test]
    fn adg_without_sorted_batches_takes_the_sort() {
        // With random tie-breaks inside a level, ρ does not follow the
        // level sequence, so the sequence must come from the sort.
        let g = generate(
            &GraphSpec::Rmat {
                scale: 12,
                edge_factor: 8,
            },
            4,
        );
        let reversed = |ord: &VertexOrdering| -> Vec<u32> {
            let levels = ord.levels.as_ref().expect("ADG has levels");
            levels.seq.iter().rev().copied().collect()
        };
        let sorted = adg(&g, &AdgOptions::default());
        assert_eq!(sorted.by_decreasing_rho(), reversed(&sorted));
        let unsorted = adg(
            &g,
            &AdgOptions {
                sort_batches: false,
                ..AdgOptions::default()
            },
        );
        assert_ne!(unsorted.by_decreasing_rho(), reversed(&unsorted));
        assert_eq!(
            unsorted.by_decreasing_rho(),
            by_decreasing_rho(&unsorted.rho)
        );
        assert_matches_greedy("ADG, sorted batches", &g, &sorted);
        assert_matches_greedy("ADG, unsorted batches", &g, &unsorted);
    }
}
