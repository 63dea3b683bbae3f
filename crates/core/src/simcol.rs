//! **SIM-COL** (Alg. 5): randomized speculative coloring of one low-degree
//! partition, the inner engine of DEC-ADG.
//!
//! Every active vertex draws a color uniformly from its private palette
//! `{0, …, ⌈(1+µ)·deg_ℓ(v)⌉ − 1}`; a draw survives unless an active
//! neighbor drew the same color (both retry — the paper's symmetric rule)
//! or the color is forbidden by the vertex's bitmap `B_v` (taken by a
//! *fixed* neighbor, inside or above the partition). Claim 1 shows each
//! vertex survives a round with probability ≥ 1 − 1/(1+µ), so the loop ends
//! in O(log n) rounds w.h.p. (Lemma 10) and — because palettes never exceed
//! `(1+µ)Δ` — uses at most `⌈(1+µ)Δ⌉` colors.
//!
//! The forbidden bitmaps of *all* vertices live in one shared
//! [`AtomicBitmap`], each vertex owning the bit range
//! `bv_offset[v] .. bv_offset[v] + palette[v]` — this is the paper's
//! "`⌈(1+µ)kd⌉+1` bits per vertex" sizing (§IV-B) realized without
//! per-vertex allocations, and it makes all three phases freely parallel
//! (bits are only ever set, never cleared).
//!
//! The engine also hosts the **first-fit** variant (smallest color not in
//! `B_v`, asymmetric conflict resolution) that §IV-C plugs into DEC-ADG to
//! form DEC-ADG-ITR.

use crate::colorer::{Colorer, Instrumentation};
use crate::{Algorithm, ColoringRun, Params, UNCOLORED};
use pgc_graph::{GraphView, InducedView};
use pgc_primitives::bitmap::AtomicBitmap;
use pgc_primitives::rng::uniform_at;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

/// [`Colorer`] for standalone SIM-COL (Alg. 5) on the whole graph, with
/// palette headroom `params.simcol_mu`.
pub struct SimCol;

impl<G: GraphView> Colorer<G> for SimCol {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SimCol
    }

    fn color(&self, g: &G, params: &Params) -> ColoringRun {
        let mut instr = Instrumentation::default();
        let (colors, stats) = instr.coloring(|| sim_col(g, params.simcol_mu, params.seed));
        instr.record_rounds(stats.rounds, stats.retries);
        ColoringRun::new(Algorithm::SimCol, colors, instr)
    }
}

/// Shared state for coloring partitions of one graph (any
/// [`GraphView`] representation).
pub struct SimColEngine<'a, G: GraphView> {
    /// The host graph.
    pub g: &'a G,
    /// Fixed (committed) colors; `UNCOLORED` until a vertex is done.
    pub colors: &'a [AtomicU32],
    /// Per-round tentative draws; `UNCOLORED` outside phase windows, which
    /// is also how phase 2 recognizes *active* neighbors.
    pub tent: &'a [AtomicU32],
    /// Concatenated forbidden-color bitmaps `B_v`.
    pub bv: &'a AtomicBitmap,
    /// `bv_offset[v]` = first bit of `B_v`; length `n + 1`.
    pub bv_offset: &'a [u64],
    /// Palette size (number of candidate colors) per vertex, ≥ 1.
    pub palette: &'a [u32],
    /// RNG seed; draws are `hash(seed, global_round, vertex)`.
    pub seed: u64,
}

/// Round/retry counters from coloring one partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimColStats {
    /// Synchronous rounds executed (the paper's iteration count I).
    pub rounds: u32,
    /// Total re-color attempts (vertices reset by a conflict).
    pub retries: u64,
}

impl<'a, G: GraphView> SimColEngine<'a, G> {
    #[inline]
    fn bv_contains(&self, v: u32, c: u32) -> bool {
        c < self.palette[v as usize]
            && self
                .bv
                .get(self.bv_offset[v as usize] as usize + c as usize)
    }

    /// Record color `c` as forbidden for `v`; colors beyond the palette are
    /// irrelevant (v can never draw them) and dropped, per the §IV-B bitmap
    /// sizing argument.
    #[inline]
    fn bv_insert(&self, v: u32, c: u32) {
        if c < self.palette[v as usize] {
            self.bv
                .set(self.bv_offset[v as usize] as usize + c as usize);
        }
    }

    /// Absorb the fixed colors of all already-colored neighbors of `v` into
    /// `B_v` (Alg. 4 lines 16–18 before the call, and Alg. 5 part 3 inside
    /// the round loop — both are the same pull-style scan).
    fn absorb_fixed_neighbors(&self, v: u32) {
        for u in self.g.neighbors(v) {
            let c = self.colors[u as usize].load(AtOrd::Relaxed);
            if c != UNCOLORED {
                self.bv_insert(v, c);
            }
        }
    }

    /// Color the vertices of `members` with random draws (Alg. 5).
    ///
    /// `round_base` offsets the RNG stream so successive partitions of a
    /// DEC-ADG run use disjoint randomness. All `members` must currently be
    /// uncolored and have correct `B_v` contents for *higher* partitions
    /// (the engine absorbs them itself on entry).
    pub fn color_partition_random(&self, members: &[u32], round_base: u64) -> SimColStats {
        // Entry absorption (Alg. 4 lines 16–18).
        members
            .par_iter()
            .for_each(|&v| self.absorb_fixed_neighbors(v));

        let mut active: Vec<u32> = members.to_vec();
        let mut stats = SimColStats::default();
        while !active.is_empty() {
            let round_id = round_base + stats.rounds as u64;
            stats.rounds += 1;

            // Part 1: every active vertex draws uniformly from its palette.
            active.par_iter().for_each(|&v| {
                let draw = uniform_at(self.seed, round_id, v as u64, self.palette[v as usize]);
                self.tent[v as usize].store(draw, AtOrd::Relaxed);
            });

            // Part 2: a draw dies if an active neighbor drew the same color
            // (symmetric — both retry) or if it is forbidden by B_v.
            // Inactive neighbors have tent == UNCOLORED which never equals
            // a draw (draws are < palette ≤ n).
            let losers: Vec<u32> = active
                .par_iter()
                .copied()
                .filter(|&v| {
                    let draw = self.tent[v as usize].load(AtOrd::Relaxed);
                    self.bv_contains(v, draw)
                        || self
                            .g
                            .neighbors(v)
                            .any(|u| self.tent[u as usize].load(AtOrd::Relaxed) == draw)
                })
                .collect();

            // Commit survivors, then clear their tentative marks.
            active.par_iter().for_each(|&v| {
                let draw = self.tent[v as usize].load(AtOrd::Relaxed);
                let lost = self.bv_contains(v, draw)
                    || self
                        .g
                        .neighbors(v)
                        .any(|u| self.tent[u as usize].load(AtOrd::Relaxed) == draw);
                if !lost {
                    self.colors[v as usize].store(draw, AtOrd::Relaxed);
                }
            });
            active.par_iter().for_each(|&v| {
                self.tent[v as usize].store(UNCOLORED, AtOrd::Relaxed);
            });

            // Part 3: losers absorb the freshly fixed neighbor colors.
            losers
                .par_iter()
                .for_each(|&v| self.absorb_fixed_neighbors(v));

            stats.retries += losers.len() as u64;
            active = losers;
        }
        stats
    }

    /// [`color_partition_random`](Self::color_partition_random) driven
    /// through a zero-copy [`InducedView`] of the partition — the Alg. 4
    /// line 13 recursion on `R(ℓ)` without materializing `G[R(ℓ)]`.
    ///
    /// The payoff is in phase 2: conflict scans walk only intra-partition
    /// adjacency (bounded by `deg_ℓ(v)`) instead of the full host
    /// adjacency. The result is **bit-identical** to the slice path: draws
    /// are keyed on original ids, and any neighbor outside the partition
    /// has `tent == UNCOLORED` (which no draw can equal, palettes being
    /// ≤ n), so dropping non-members from the scan cannot change a round's
    /// loser set.
    pub fn color_partition_random_view(
        &self,
        view: &InducedView<'_, G>,
        round_base: u64,
    ) -> SimColStats {
        debug_assert!(
            std::ptr::eq(view.base(), self.g),
            "view must wrap the engine's host graph"
        );
        // Entry absorption still scans the *full* adjacency: the fixed
        // colors live in higher partitions, outside the view.
        view.members()
            .par_iter()
            .for_each(|&v| self.absorb_fixed_neighbors(v));

        // Active vertices tracked as view-local ids.
        let mut active: Vec<u32> = (0..view.n() as u32).collect();
        let mut stats = SimColStats::default();
        while !active.is_empty() {
            let round_id = round_base + stats.rounds as u64;
            stats.rounds += 1;

            active.par_iter().for_each(|&l| {
                let v = view.original_id(l);
                let draw = uniform_at(self.seed, round_id, v as u64, self.palette[v as usize]);
                self.tent[v as usize].store(draw, AtOrd::Relaxed);
            });

            let lost = |l: u32| {
                let v = view.original_id(l);
                let draw = self.tent[v as usize].load(AtOrd::Relaxed);
                self.bv_contains(v, draw)
                    || view.neighbors(l).any(|ul| {
                        self.tent[view.original_id(ul) as usize].load(AtOrd::Relaxed) == draw
                    })
            };
            let losers: Vec<u32> = active.par_iter().copied().filter(|&l| lost(l)).collect();

            active.par_iter().for_each(|&l| {
                if !lost(l) {
                    let v = view.original_id(l);
                    let draw = self.tent[v as usize].load(AtOrd::Relaxed);
                    self.colors[v as usize].store(draw, AtOrd::Relaxed);
                }
            });
            active.par_iter().for_each(|&l| {
                self.tent[view.original_id(l) as usize].store(UNCOLORED, AtOrd::Relaxed);
            });

            losers
                .par_iter()
                .for_each(|&l| self.absorb_fixed_neighbors(view.original_id(l)));

            stats.retries += losers.len() as u64;
            active = losers;
        }
        stats
    }

    /// First-fit variant (§IV-C): draws are the smallest color not in
    /// `B_v`; conflicts are resolved asymmetrically — the higher-`priority`
    /// endpoint commits, the loser records the winner's color and retries.
    pub fn color_partition_first_fit(&self, members: &[u32], priority: &[u64]) -> SimColStats {
        members
            .par_iter()
            .for_each(|&v| self.absorb_fixed_neighbors(v));

        let mut active: Vec<u32> = members.to_vec();
        let mut stats = SimColStats::default();
        while !active.is_empty() {
            stats.rounds += 1;

            // Part 1: deterministic smallest free color w.r.t. B_v.
            active.par_iter().for_each(|&v| {
                let base = self.bv_offset[v as usize] as usize;
                let pal = self.palette[v as usize] as usize;
                let mut c = 0usize;
                while c < pal && self.bv.get(base + c) {
                    c += 1;
                }
                debug_assert!(c < pal, "palette must contain a free color");
                self.tent[v as usize].store(c as u32, AtOrd::Relaxed);
            });

            // Part 2: asymmetric conflicts — priority decides the winner,
            // so progress is guaranteed even though choices are
            // deterministic (the symmetric rule would livelock here).
            let losers: Vec<u32> = active
                .par_iter()
                .copied()
                .filter(|&v| {
                    let draw = self.tent[v as usize].load(AtOrd::Relaxed);
                    let pv = priority[v as usize];
                    self.g.neighbors(v).any(|u| {
                        self.tent[u as usize].load(AtOrd::Relaxed) == draw
                            && priority[u as usize] > pv
                    })
                })
                .collect();

            active.par_iter().for_each(|&v| {
                let draw = self.tent[v as usize].load(AtOrd::Relaxed);
                let pv = priority[v as usize];
                let lost = self.g.neighbors(v).any(|u| {
                    self.tent[u as usize].load(AtOrd::Relaxed) == draw && priority[u as usize] > pv
                });
                if !lost {
                    self.colors[v as usize].store(draw, AtOrd::Relaxed);
                }
            });
            active.par_iter().for_each(|&v| {
                self.tent[v as usize].store(UNCOLORED, AtOrd::Relaxed);
            });
            losers
                .par_iter()
                .for_each(|&v| self.absorb_fixed_neighbors(v));

            stats.retries += losers.len() as u64;
            active = losers;
        }
        stats
    }

    /// [`color_partition_first_fit`](Self::color_partition_first_fit)
    /// through a zero-copy [`InducedView`] of the partition, with the same
    /// bit-identity argument as
    /// [`color_partition_random_view`](Self::color_partition_random_view):
    /// non-members always carry `tent == UNCOLORED`, so the asymmetric
    /// conflict scan over intra-partition neighbors resolves every round
    /// exactly as the full-adjacency scan did.
    pub fn color_partition_first_fit_view(
        &self,
        view: &InducedView<'_, G>,
        priority: &[u64],
    ) -> SimColStats {
        debug_assert!(
            std::ptr::eq(view.base(), self.g),
            "view must wrap the engine's host graph"
        );
        view.members()
            .par_iter()
            .for_each(|&v| self.absorb_fixed_neighbors(v));

        let mut active: Vec<u32> = (0..view.n() as u32).collect();
        let mut stats = SimColStats::default();
        while !active.is_empty() {
            stats.rounds += 1;

            active.par_iter().for_each(|&l| {
                let v = view.original_id(l);
                let base = self.bv_offset[v as usize] as usize;
                let pal = self.palette[v as usize] as usize;
                let mut c = 0usize;
                while c < pal && self.bv.get(base + c) {
                    c += 1;
                }
                debug_assert!(c < pal, "palette must contain a free color");
                self.tent[v as usize].store(c as u32, AtOrd::Relaxed);
            });

            let lost = |l: u32| {
                let v = view.original_id(l);
                let draw = self.tent[v as usize].load(AtOrd::Relaxed);
                let pv = priority[v as usize];
                view.neighbors(l).any(|ul| {
                    let u = view.original_id(ul);
                    self.tent[u as usize].load(AtOrd::Relaxed) == draw && priority[u as usize] > pv
                })
            };
            let losers: Vec<u32> = active.par_iter().copied().filter(|&l| lost(l)).collect();

            active.par_iter().for_each(|&l| {
                if !lost(l) {
                    let v = view.original_id(l);
                    let draw = self.tent[v as usize].load(AtOrd::Relaxed);
                    self.colors[v as usize].store(draw, AtOrd::Relaxed);
                }
            });
            active.par_iter().for_each(|&l| {
                self.tent[view.original_id(l) as usize].store(UNCOLORED, AtOrd::Relaxed);
            });
            losers
                .par_iter()
                .for_each(|&l| self.absorb_fixed_neighbors(view.original_id(l)));

            stats.retries += losers.len() as u64;
            active = losers;
        }
        stats
    }
}

/// Build the shared per-vertex palette/bitmap layout. `constraint_deg[v]`
/// is the number of neighbors that may ever constrain `v` (full degree for
/// standalone SIM-COL, `deg_ℓ(v)` inside DEC-ADG); `headroom` is the
/// multiplicative slack: palettes are `max(1, ⌈(1+headroom)·deg⌉)`.
pub fn palette_layout(constraint_deg: &[u32], headroom: f64) -> (Vec<u32>, Vec<u64>) {
    let palette: Vec<u32> = constraint_deg
        .iter()
        .map(|&d| (((1.0 + headroom) * d as f64).ceil() as u32).max(1))
        .collect();
    let mut offsets = Vec::with_capacity(palette.len() + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for &p in &palette {
        acc += p as u64;
        offsets.push(acc);
    }
    (palette, offsets)
}

/// Standalone SIM-COL: color an entire graph with `⌈(1+µ)Δ⌉` colors w.h.p.
/// in O(log n) rounds (Lemmas 10–11). Primarily a test vehicle; DEC-ADG
/// calls the engine per partition instead.
pub fn sim_col<G: GraphView>(g: &G, mu: f64, seed: u64) -> (Vec<u32>, SimColStats) {
    assert!(mu > 0.0, "SIM-COL requires mu > 0");
    let n = g.n();
    let deg = g.degree_array();
    let (palette, bv_offset) = palette_layout(&deg, mu);
    let bv = AtomicBitmap::new(*bv_offset.last().unwrap_or(&0) as usize);
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let tent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let engine = SimColEngine {
        g,
        colors: &colors,
        tent: &tent,
        bv: &bv,
        bv_offset: &bv_offset,
        palette: &palette,
        seed,
    };
    let members: Vec<u32> = g.vertices().collect();
    let stats = engine.color_partition_random(&members, 0);
    (colors.into_iter().map(|c| c.into_inner()).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_proper, num_colors};
    use pgc_graph::gen::{generate, GraphSpec};

    #[test]
    fn standalone_simcol_is_proper() {
        for (i, spec) in [
            GraphSpec::ErdosRenyi { n: 500, m: 2500 },
            GraphSpec::BarabasiAlbert { n: 500, attach: 6 },
            GraphSpec::RingOfCliques {
                cliques: 12,
                clique_size: 12,
            },
            GraphSpec::Complete { n: 24 },
            GraphSpec::Empty { n: 16 },
        ]
        .iter()
        .enumerate()
        {
            let g = generate(spec, i as u64 + 1);
            let (colors, _) = sim_col(&g, 1.5, 42);
            assert_proper(&g, &colors);
        }
    }

    #[test]
    fn uses_at_most_one_plus_mu_delta_colors() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 800, m: 6400 }, 3);
        let mu = 0.5;
        let (colors, _) = sim_col(&g, mu, 7);
        let bound = ((1.0 + mu) * g.max_degree() as f64).ceil() as u32;
        assert!(num_colors(&colors) <= bound.max(1));
    }

    #[test]
    fn rounds_logarithmic_for_large_mu() {
        // Lemma 10 regime (µ > 1): rounds should be ~log n with a small
        // constant.
        let g = generate(&GraphSpec::ErdosRenyi { n: 4000, m: 20_000 }, 5);
        let (colors, stats) = sim_col(&g, 3.0, 11);
        assert_proper(&g, &colors);
        let log_n = (g.n() as f64).log2();
        assert!(
            (stats.rounds as f64) <= 6.0 * log_n,
            "{} rounds > 6 log n = {:.1}",
            stats.rounds,
            6.0 * log_n
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 400, attach: 5 }, 2);
        let (a, sa) = sim_col(&g, 1.0, 9);
        let (b, sb) = sim_col(&g, 1.0, 9);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = sim_col(&g, 1.0, 10);
        assert_ne!(a, c, "different seeds explore different colorings");
    }

    #[test]
    fn isolated_vertices_one_round() {
        let g = generate(&GraphSpec::Empty { n: 50 }, 0);
        let (colors, stats) = sim_col(&g, 1.0, 0);
        assert!(colors.iter().all(|&c| c == 0), "palette of size 1");
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn palette_layout_shapes() {
        let (pal, off) = palette_layout(&[0, 1, 4], 0.25);
        assert_eq!(pal, vec![1, 2, 5]);
        assert_eq!(off, vec![0, 1, 3, 8]);
    }

    #[test]
    fn view_partition_coloring_is_bit_identical_to_slice_path() {
        // Regression pin for the DEC-ADG `level_view` recursion: coloring a
        // sequence of partitions through `InducedView`s must reproduce the
        // original full-adjacency slice path bit for bit — same colors, same
        // rounds, same retries — for both the random and first-fit engines.
        use pgc_primitives::random_permutation;
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 10,
                clique_size: 12,
            },
            4,
        );
        let n = g.n();
        let deg = g.degree_array();
        let (palette, bv_offset) = palette_layout(&deg, 0.4);
        let groups: Vec<Vec<u32>> = (0..3)
            .map(|r| (0..n as u32).filter(|v| v % 3 == r).collect())
            .collect();
        let priority: Vec<u64> = random_permutation(n, 77)
            .into_iter()
            .map(u64::from)
            .collect();

        let run = |use_view: bool, first_fit: bool| -> (Vec<u32>, SimColStats) {
            let bv = AtomicBitmap::new(*bv_offset.last().unwrap() as usize);
            let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
            let tent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
            let engine = SimColEngine {
                g: &g,
                colors: &colors,
                tent: &tent,
                bv: &bv,
                bv_offset: &bv_offset,
                palette: &palette,
                seed: 0xFACE,
            };
            let mut total = SimColStats::default();
            let mut round_base = 0u64;
            for members in &groups {
                let stats = match (use_view, first_fit) {
                    (false, false) => engine.color_partition_random(members, round_base),
                    (true, false) => {
                        let view = pgc_graph::InducedView::new(&g, members);
                        engine.color_partition_random_view(&view, round_base)
                    }
                    (false, true) => engine.color_partition_first_fit(members, &priority),
                    (true, true) => {
                        let view = pgc_graph::InducedView::new(&g, members);
                        engine.color_partition_first_fit_view(&view, &priority)
                    }
                };
                total.rounds += stats.rounds;
                total.retries += stats.retries;
                round_base += stats.rounds as u64;
            }
            (colors.into_iter().map(|c| c.into_inner()).collect(), total)
        };

        for first_fit in [false, true] {
            let (slice_colors, slice_stats) = run(false, first_fit);
            let (view_colors, view_stats) = run(true, first_fit);
            assert_eq!(slice_colors, view_colors, "first_fit={first_fit}");
            assert_eq!(slice_stats, view_stats, "first_fit={first_fit}");
        }
    }

    #[test]
    fn dense_graph_causes_retries() {
        let g = generate(&GraphSpec::Complete { n: 40 }, 0);
        let (colors, stats) = sim_col(&g, 0.5, 13);
        assert_proper(&g, &colors);
        assert!(stats.retries > 0, "K_40 with tight palettes must conflict");
    }
}
