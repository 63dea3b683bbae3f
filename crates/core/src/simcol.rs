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
//! The engine never reads the host graph. It runs over a
//! [`ConstraintAdjacency`], built once per run by two host sweeps: each
//! vertex's row holds only the `deg_ℓ(v)` neighbors that can constrain it,
//! its same-partition neighbors first and its higher-partition neighbors
//! after. Each scan then touches only the part it needs:
//!
//! * entry absorb reads the higher part — lower partitions are still
//!   uncolored, and the vertex's own partition has not drawn yet;
//! * the conflict check reads the same part, once per round, and commits
//!   winners in the same pass (it reads only `tent`, `priority` and `B_v`,
//!   never `colors`);
//! * loser absorb reads the same part — higher neighbors were absorbed on
//!   entry, lower ones are still uncolored.
//!
//! The output is bit-identical to scanning the full host adjacency each
//! time: bitmap bits are only ever set, so a skipped re-absorb changes no
//! bit; non-members always carry `tent == UNCOLORED`, which no draw can
//! equal; and the loser set of each round, hence the round and conflict
//! counts, are the same.
//!
//! The engine also hosts the **first-fit** variant (smallest color not in
//! `B_v`, asymmetric conflict resolution) that §IV-C plugs into DEC-ADG to
//! form DEC-ADG-ITR. Standalone SIM-COL is the one-partition case: every
//! rank 0, so every row is all same-partition neighbors.

use crate::UNCOLORED;
use pgc_graph::{GraphView, Offsets};
use pgc_order::Levels;
use pgc_primitives::bitmap::AtomicBitmap;
use pgc_primitives::offsets_from_counts;
use pgc_primitives::rng::uniform_at;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

/// The rank-oriented constraint adjacency of one DEC run (§IV-B): for each
/// vertex `v`, the `deg_ℓ(v)` neighbors that can ever constrain its color —
/// those of equal rank, then those of higher rank, each group in host
/// order. Lower-rank neighbors are colored after `v` and never appear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstraintAdjacency {
    /// Row offsets into `targets`, `n + 1` entries.
    offsets: Offsets,
    /// `same[v]` = length of the equal-rank prefix of `v`'s row.
    same: Vec<u32>,
    /// All rows, concatenated.
    targets: Vec<u32>,
}

impl ConstraintAdjacency {
    /// Build from the host graph and per-vertex ranks with two parallel
    /// sweeps of `g`: a count sweep (row lengths `deg_ℓ` and splits), then
    /// a fill sweep in which every vertex writes only its own row.
    pub fn build<G: GraphView>(g: &G, rank: &[u32]) -> Self {
        let n = g.n();
        assert_eq!(rank.len(), n, "one rank per vertex");
        let mut deg = vec![0u32; n];
        let mut same = vec![0u32; n];
        deg.par_iter_mut()
            .zip(same.par_iter_mut())
            .enumerate()
            .for_each(|(v, (d, s))| {
                let rv = rank[v];
                let (mut eq, mut hi) = (0u32, 0u32);
                for u in g.neighbors(v as u32) {
                    let ru = rank[u as usize];
                    eq += u32::from(ru == rv);
                    hi += u32::from(ru > rv);
                }
                *d = eq + hi;
                *s = eq;
            });
        let (offsets, total) = offsets_from_counts::<usize>(&deg);
        drop(deg);

        let mut targets = vec![0u32; total];
        pgc_par::for_each_chunk_mut(
            n,
            &mut targets,
            |v| offsets[v],
            |vs, rows| {
                let base = offsets[vs.start];
                for v in vs {
                    let rv = rank[v];
                    let mut eq = offsets[v] - base;
                    let mut hi = eq + same[v] as usize;
                    for u in g.neighbors(v as u32) {
                        let ru = rank[u as usize];
                        if ru == rv {
                            rows[eq] = u;
                            eq += 1;
                        } else if ru > rv {
                            rows[hi] = u;
                            hi += 1;
                        }
                    }
                }
            },
        );
        Self {
            offsets: Offsets::narrow(offsets),
            same,
            targets,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.same.len()
    }

    /// `deg_ℓ(v)`: the length of `v`'s row.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        (self.offsets.get(v as usize + 1) - self.offsets.get(v as usize)) as u32
    }

    /// `deg_ℓ` of every vertex (the palette sizing input).
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.n() as u32)
            .into_par_iter()
            .map(|v| self.degree(v))
            .collect()
    }

    /// Neighbors of `v` with the same rank, in host order.
    #[inline]
    pub fn same_level(&self, v: u32) -> &[u32] {
        let lo = self.offsets.get(v as usize);
        &self.targets[lo..lo + self.same[v as usize] as usize]
    }

    /// Neighbors of `v` with a higher rank, in host order.
    #[inline]
    pub fn higher_level(&self, v: u32) -> &[u32] {
        let lo = self.offsets.get(v as usize) + self.same[v as usize] as usize;
        &self.targets[lo..self.offsets.get(v as usize + 1)]
    }
}

/// Shared state for coloring the partitions of one run.
pub struct SimColEngine<'a> {
    /// The run's constraint adjacency; partitions are its rank classes.
    pub adj: &'a ConstraintAdjacency,
    /// Fixed (committed) colors; `UNCOLORED` until a vertex is done.
    pub colors: &'a [AtomicU32],
    /// Per-round tentative draws; `UNCOLORED` outside phase windows, which
    /// is also how phase 2 recognizes *active* neighbors.
    pub tent: &'a [AtomicU32],
    /// Concatenated forbidden-color bitmaps `B_v`.
    pub bv: &'a AtomicBitmap,
    /// `bv_offset[v]` = first bit of `B_v`; length `n + 1`.
    pub bv_offset: &'a [usize],
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

impl SimColEngine<'_> {
    #[inline]
    fn bv_contains(&self, v: u32, c: u32) -> bool {
        c < self.palette[v as usize] && self.bv.get(self.bv_offset[v as usize] + c as usize)
    }

    /// Record color `c` as forbidden for `v`; colors beyond the palette are
    /// irrelevant (v can never draw them) and dropped, per the §IV-B bitmap
    /// sizing argument.
    #[inline]
    fn bv_insert(&self, v: u32, c: u32) {
        if c < self.palette[v as usize] {
            self.bv.set(self.bv_offset[v as usize] + c as usize);
        }
    }

    /// Absorb the fixed colors of the already-colored vertices of `from`
    /// into `B_v` (Alg. 4 lines 16–18 on entry, Alg. 5 part 3 inside the
    /// round loop).
    fn absorb(&self, v: u32, from: &[u32]) {
        for &u in from {
            let c = self.colors[u as usize].load(AtOrd::Relaxed);
            if c != UNCOLORED {
                self.bv_insert(v, c);
            }
        }
    }

    /// Whether an active same-partition neighbor of `v` holds `draw`
    /// (`and` further filters the neighbor). Neighbors outside the current
    /// round carry `tent == UNCOLORED`, which no draw equals: draws are
    /// `< palette`, far below `u32::MAX`.
    #[inline]
    fn clashes(&self, v: u32, draw: u32, and: impl Fn(u32) -> bool) -> bool {
        self.adj
            .same_level(v)
            .iter()
            .any(|&u| self.tent[u as usize].load(AtOrd::Relaxed) == draw && and(u))
    }

    /// Color the partition `members` with random draws (Alg. 5).
    ///
    /// `round_base` offsets the RNG stream so successive partitions of a
    /// DEC-ADG run use disjoint randomness. All `members` must share one
    /// rank, be uncolored, and every higher rank must already be colored.
    pub fn color_partition_random(&self, members: &[u32], round_base: u64) -> SimColStats {
        self.rounds(
            members,
            |v, round| {
                let id = round_base + u64::from(round);
                uniform_at(self.seed, id, v as u64, self.palette[v as usize])
            },
            // Symmetric rule: both endpoints of a clash retry.
            |v, draw| self.bv_contains(v, draw) || self.clashes(v, draw, |_| true),
        )
    }

    /// First-fit variant (§IV-C): draws are the smallest color not in
    /// `B_v`; conflicts are resolved asymmetrically — the higher-`priority`
    /// endpoint commits, the loser records the winner's color and retries.
    /// Same preconditions as
    /// [`color_partition_random`](Self::color_partition_random).
    pub fn color_partition_first_fit(&self, members: &[u32], priority: &[u64]) -> SimColStats {
        self.rounds(
            members,
            |v, _| {
                let base = self.bv_offset[v as usize];
                let pal = self.palette[v as usize] as usize;
                let mut c = 0usize;
                while c < pal && self.bv.get(base + c) {
                    c += 1;
                }
                debug_assert!(c < pal, "palette must contain a free color");
                c as u32
            },
            // Priority decides the winner, so progress is guaranteed even
            // though draws are deterministic (the symmetric rule would
            // livelock here).
            |v, draw| {
                let pv = priority[v as usize];
                self.clashes(v, draw, |u| priority[u as usize] > pv)
            },
        )
    }

    /// The round loop shared by both draws: `draw(v, round)` picks a
    /// tentative color, `lost(v, draw)` decides whether it must retry.
    fn rounds(
        &self,
        members: &[u32],
        draw: impl Fn(u32, u32) -> u32 + Sync,
        lost: impl Fn(u32, u32) -> bool + Sync,
    ) -> SimColStats {
        // Entry absorption (Alg. 4 lines 16–18).
        members
            .par_iter()
            .for_each(|&v| self.absorb(v, self.adj.higher_level(v)));

        let lost = &lost;
        let mut active: Vec<u32> = members.to_vec();
        let mut stats = SimColStats::default();
        while !active.is_empty() {
            let _round = pgc_obs::span!("dec.round");
            pgc_obs::counter!("active", active.len() as u64);
            let round = stats.rounds;
            stats.rounds += 1;

            // Part 1: every active vertex draws.
            active.par_iter().for_each(|&v| {
                self.tent[v as usize].store(draw(v, round), AtOrd::Relaxed);
            });

            // Part 2: keep the losers, commit the winners.
            let losers: Vec<u32> = active
                .par_iter()
                .copied()
                .filter(|&v| {
                    let d = self.tent[v as usize].load(AtOrd::Relaxed);
                    let lose = lost(v, d);
                    if !lose {
                        self.colors[v as usize].store(d, AtOrd::Relaxed);
                    }
                    lose
                })
                .collect();
            active.par_iter().for_each(|&v| {
                self.tent[v as usize].store(UNCOLORED, AtOrd::Relaxed);
            });

            // Part 3: losers absorb the freshly fixed neighbor colors.
            losers
                .par_iter()
                .for_each(|&v| self.absorb(v, self.adj.same_level(v)));

            pgc_obs::counter!("conflicts", losers.len() as u64);
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
pub fn palette_layout(constraint_deg: &[u32], headroom: f64) -> (Vec<u32>, Vec<usize>) {
    let palette: Vec<u32> = constraint_deg
        .par_iter()
        .map(|&d| (((1.0 + headroom) * d as f64).ceil() as u32).max(1))
        .collect();
    let (offsets, _) = offsets_from_counts::<usize>(&palette);
    (palette, offsets)
}

/// Standalone SIM-COL: color an entire graph with `⌈(1+µ)Δ⌉` colors w.h.p.
/// in O(log n) rounds (Lemmas 10–11). This is DEC-ADG's driver on one
/// partition: every rank 0, so each constraint row is the full adjacency
/// and palettes are sized by the full degree.
pub fn sim_col<G: GraphView>(g: &G, mu: f64, seed: u64) -> (Vec<u32>, SimColStats) {
    assert!(mu > 0.0, "SIM-COL requires mu > 0");
    let n = g.n();
    let one_level = Levels {
        rank: vec![0; n],
        seq: g.vertices().collect(),
        offsets: vec![0, n],
    };
    let (colors, rounds, retries) = crate::dec::color_partitions(
        g,
        &one_level,
        seed,
        |deg| palette_layout(deg, mu),
        |engine, members, round_base| engine.color_partition_random(members, round_base),
    );
    (colors, SimColStats { rounds, retries })
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
    fn partition_engines_pinned_on_ring_of_cliques() {
        // Pin of (colors, rounds, retries) for both draws over three
        // partitions of one graph, recorded from the earlier engine that
        // scanned full host rows. Partition `r` holds `v % 3 == r` and is
        // colored r-th, so its rank is `2 - r`. Palettes come from the full
        // degree, as that engine sized them.
        use pgc_primitives::random_permutation;
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 10,
                clique_size: 12,
            },
            4,
        );
        let n = g.n();
        let rank: Vec<u32> = (0..n as u32).map(|v| 2 - v % 3).collect();
        let adj = ConstraintAdjacency::build(&g, &rank);
        let (palette, bv_offset) = palette_layout(&g.degree_array(), 0.4);
        let groups: Vec<Vec<u32>> = (0..3)
            .map(|r| (0..n as u32).filter(|v| v % 3 == r).collect())
            .collect();
        let priority: Vec<u64> = random_permutation(n, 77)
            .into_iter()
            .map(u64::from)
            .collect();

        let run = |first_fit: bool| -> (Vec<u32>, SimColStats) {
            let bv = AtomicBitmap::new(*bv_offset.last().unwrap());
            let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
            let tent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
            let engine = SimColEngine {
                adj: &adj,
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
                let stats = if first_fit {
                    engine.color_partition_first_fit(members, &priority)
                } else {
                    engine.color_partition_random(members, round_base)
                };
                total.rounds += stats.rounds;
                total.retries += stats.retries;
                round_base += stats.rounds as u64;
            }
            (colors.into_iter().map(|c| c.into_inner()).collect(), total)
        };
        let fnv = |colors: &[u32]| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &c in colors {
                for b in c.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            h
        };

        for (first_fit, k, digest, rounds, retries) in [
            (false, 17, 0x40e4_ea1f_c900_8c30, 22, 122),
            (true, 12, 0x4daf_0896_e2e7_3045, 12, 180),
        ] {
            let (colors, stats) = run(first_fit);
            assert_proper(&g, &colors);
            assert_eq!(num_colors(&colors), k, "first_fit={first_fit}");
            assert_eq!(fnv(&colors), digest, "first_fit={first_fit}");
            assert_eq!(
                stats,
                SimColStats { rounds, retries },
                "first_fit={first_fit}"
            );
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
