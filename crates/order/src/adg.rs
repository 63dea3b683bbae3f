//! **ADG** — the parallel approximate degeneracy ordering (§III, Alg. 1),
//! with the §V optimizations (Alg. 6) and the median variant **ADG-M**
//! (§V-D).
//!
//! Core idea: instead of removing *one* minimum-degree vertex per step
//! (SL — inherently sequential, depth Ω(n)), remove **all** vertices with
//! degree ≤ (1+ε)·δ̂ in parallel, where δ̂ is the current average degree.
//! Because at most `|U|/(1+ε)` vertices can exceed the average-based
//! threshold, each iteration removes at least an ε/(1+ε) fraction of `U`
//! (Lemma 1), so the loop runs O(log n) times and every removed vertex has
//! at most 2(1+ε)·d equal-or-higher-ranked neighbors (Lemma 4, via the
//! "average degree ≤ 2d in any subgraph of a d-degenerate graph" Lemma 3).
//!
//! Implemented optimizations (§V):
//! * **V-A** — `U` and the removed batches `R(·)` live in one contiguous
//!   array `[R(1) … R(i) | U]`; removal just advances an index pointer.
//! * **V-B** — each batch is sorted by residual degree with a linear-time
//!   integer sort, giving an explicit total order within the batch (this
//!   consistently improves coloring quality and makes random tie-breaking
//!   unnecessary).
//! * **V-D** — ADG-M: threshold = median degree, removing ⌈|U|/2⌉ vertices
//!   per round (exactly ⌈log₂ n⌉ rounds; 4-approximate by Lemma 15).
//! * **V-E** — push (CRCW, atomic decrements) or pull (CREW, Alg. 2)
//!   degree updates, chosen per level by default
//!   ([`UpdateStyle::Auto`]). Like direction-optimizing BFS (Beamer,
//!   Asanović and Patterson, SC'12), a level pulls when the remaining
//!   vertices' original degrees sum to at most [`PULL_FACTOR`] times the
//!   removed ones', and pushes otherwise. Pushing scans vol(R) arcs and
//!   pulling at most `PULL_FACTOR`·vol(R), so the whole UPDATE scans at
//!   most `PULL_FACTOR`·2m arcs and ADG keeps its O(m) work bound.
//! * **V-F** — the degree sum Σ_U is maintained incrementally instead of
//!   recomputed (subtracting the removed degrees and the cut size).
//!
//! **V-C** (counting JP's predecessors inside the UPDATE) is left out:
//! the pull levels need a second pass over their rows in removal order,
//! and with it ADG took 44–60 ms on R-MAT 18/16 at width 2 against 23–32
//! ms without, while JP's own in-order count takes 9–12 ms.

use crate::{Levels, OrderingStats, VertexOrdering};
use pgc_graph::GraphView;
use pgc_primitives::rng::random_permutation;
use pgc_primitives::sort::{sort_pairs, SortAlgo};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

/// How the removal threshold is chosen each iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ThresholdRule {
    /// `deg ≤ (1+ε)·δ̂` with δ̂ the average degree of `G[U]` (Alg. 1):
    /// partial 2(1+ε)-approximate degeneracy order.
    #[default]
    Average,
    /// Remove the ⌈|U|/2⌉ smallest-degree vertices (all of degree ≤ the
    /// median δ_m ≤ 2δ̂): partial 4-approximate order, exactly ⌈log₂ n⌉
    /// iterations (§V-D).
    Median,
}

/// Degree-update style (§V-E). Every style produces identical degrees
/// and orders; they differ in which arcs a level scans.
/// Push needs atomics (CRCW) and scans the removed batch's rows; pull needs
/// only concurrent reads (CREW, Alg. 2) and scans every remaining vertex's
/// row, which alone is the `O(m + nd)` work of Lemma 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UpdateStyle {
    /// Choose per level: pull when vol(U′) ≤ [`PULL_FACTOR`]·vol(R), push
    /// otherwise (vol = sum of original degrees). Scans at most
    /// `PULL_FACTOR`·2m arcs in total.
    #[default]
    Auto,
    /// Removed vertices atomically decrement their active neighbors.
    Push,
    /// Every remaining vertex counts its just-removed neighbors.
    Pull,
}

/// The `K` of [`UpdateStyle::Auto`]: a level pulls when the remaining
/// vertices' rows hold at most `K` times as many arcs as the removed
/// batch's. A pulled arc is a plain load where a pushed one is a locked
/// decrement, so pulling pays off even when it scans several times more.
pub const PULL_FACTOR: u64 = 8;

impl UpdateStyle {
    /// Whether a level that removes rows of total original degree
    /// `vol_removed`, leaving rows of total `vol_rest`, runs the pull
    /// kernel.
    pub fn pulls(self, vol_removed: u64, vol_rest: u64) -> bool {
        match self {
            UpdateStyle::Auto => vol_rest <= PULL_FACTOR * vol_removed,
            UpdateStyle::Push => false,
            UpdateStyle::Pull => true,
        }
    }
}

/// Tunables for [`adg`]. `Default` matches the paper's evaluation
/// parametrization (ε = 0.01, radix sort, batch sorting on), with the
/// per-level push/pull choice of [`UpdateStyle::Auto`].
#[derive(Clone, Debug, PartialEq)]
pub struct AdgOptions {
    /// Approximation knob ε ≥ 0: larger ε → fewer iterations (more
    /// parallelism), looser 2(1+ε) approximation (§IV-E tradeoff).
    pub epsilon: f64,
    /// Average (ADG) or median (ADG-M) thresholding.
    pub rule: ThresholdRule,
    /// §V-B explicit ordering: sort each batch by residual degree.
    pub sort_batches: bool,
    /// Which linear-time integer sort to use for batches (§VI-J choice).
    pub sort_algo: SortAlgo,
    /// Push (CRCW), pull (CREW) or per-level choice of degree updates.
    pub update: UpdateStyle,
    /// Maintain Σ_U incrementally (§V-F) instead of re-reducing.
    pub cache_degree_sum: bool,
    /// Seed for the random tie-break permutation (used when
    /// `sort_batches == false`).
    pub seed: u64,
}

impl Default for AdgOptions {
    fn default() -> Self {
        Self {
            epsilon: 0.01,
            rule: ThresholdRule::Average,
            sort_batches: true,
            sort_algo: SortAlgo::Radix,
            update: UpdateStyle::Auto,
            cache_degree_sum: true,
            seed: 0,
        }
    }
}

impl AdgOptions {
    /// ADG-M (§V-D): median rule, otherwise default parametrization.
    pub fn median() -> Self {
        Self {
            rule: ThresholdRule::Median,
            ..Self::default()
        }
    }

    /// Default options with a given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }

    /// The guaranteed approximation factor `k` of the partial k-approximate
    /// degeneracy ordering this configuration computes.
    pub fn approx_factor(&self) -> f64 {
        match self.rule {
            ThresholdRule::Average => 2.0 * (1.0 + self.epsilon),
            ThresholdRule::Median => 4.0,
        }
    }
}

/// Marker for "still active" in the rank array.
const ACTIVE: u32 = u32::MAX;

/// Compute the ADG (or ADG-M) partial approximate degeneracy ordering.
///
/// Returns a total priority (rank in high bits, §V-B batch position or the
/// random permutation in low bits) plus the level structure consumed by
/// DEC-ADG. The UPDATE pass only issues commutative atomic decrements and
/// single-writer stores, so the result does not depend on the schedule or
/// the pool width.
pub fn adg<G: GraphView>(g: &G, opts: &AdgOptions) -> VertexOrdering {
    assert!(opts.epsilon >= 0.0, "epsilon must be non-negative");
    let n = g.n();
    let mut rho = vec![0u64; n];
    if n == 0 {
        return VertexOrdering {
            rho,
            levels: Some(Levels {
                rank: Vec::new(),
                seq: Vec::new(),
                offsets: vec![0],
            }),
            stats: OrderingStats::default(),
        };
    }

    // Residual degrees D (atomics so the push update can decrement
    // concurrently; pull only loads/stores them from the owning vertex).
    let deg: Vec<AtomicU32> = g.degree_array().into_iter().map(AtomicU32::new).collect();
    // rank[v] = iteration of removal; ACTIVE while v ∈ U.
    let rank: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(ACTIVE)).collect();

    // §V-A contiguous representation: order = [removed… | U], `index` points
    // at the first element of U.
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut index = 0usize;
    let mut offsets = vec![0usize];
    let mut level = 0u32;
    // Σ_U deg = 2m initially.
    let mut sum_deg: u64 = g.num_arcs() as u64;
    // vol(U): Σ_U of the *original* degrees, for the push/pull choice.
    let mut vol_u: u64 = sum_deg;
    let mut stats = OrderingStats::default();

    let perm = if opts.sort_batches {
        Vec::new()
    } else {
        random_permutation(n, opts.seed)
    };

    let mut scratch: Vec<(u32, u32)> = Vec::new();

    while index < n {
        let _round = pgc_obs::span!("peel.round");
        let u_len = n - index;
        stats.iterations += 1;
        stats.sum_active += u_len as u64;

        if !opts.cache_degree_sum {
            // Re-reduce Σ_U (the unoptimized Alg. 1 path, lines 8–10).
            sum_deg = order[index..]
                .par_iter()
                .map(|&v| deg[v as usize].load(AtOrd::Relaxed) as u64)
                .sum();
        }

        // ---- Select R (Alg. 1 line 13 / §V-D) --------------------------
        let r_len = match opts.rule {
            ThresholdRule::Average => {
                let avg = sum_deg as f64 / u_len as f64;
                let thr = (1.0 + opts.epsilon) * avg;
                let r_len = partition_stable(&mut order[index..], |v| {
                    (deg[v as usize].load(AtOrd::Relaxed) as f64) <= thr
                });
                debug_assert!(
                    r_len > 0,
                    "a minimum-degree vertex always satisfies deg <= (1+eps)*avg"
                );
                if r_len == 0 {
                    // Numeric-safety fallback: peel the minimum degree.
                    let min = order[index..]
                        .par_iter()
                        .map(|&v| deg[v as usize].load(AtOrd::Relaxed))
                        .min()
                        .unwrap();
                    partition_stable(&mut order[index..], |v| {
                        deg[v as usize].load(AtOrd::Relaxed) <= min
                    })
                } else {
                    r_len
                }
            }
            ThresholdRule::Median => {
                // Sort the whole U region by residual degree (linear-time
                // integer sort), then take the smallest half (+1 if odd).
                scratch.clear();
                scratch.extend(
                    order[index..]
                        .iter()
                        .map(|&v| (deg[v as usize].load(AtOrd::Relaxed), v)),
                );
                let bound = scratch.iter().map(|p| p.0).max().unwrap_or(0) + 1;
                sort_pairs(&mut scratch, bound, opts.sort_algo);
                for (slot, &(_, v)) in order[index..].iter_mut().zip(scratch.iter()) {
                    *slot = v;
                }
                u_len.div_ceil(2)
            }
        };

        // ---- §V-B: explicit ordering within the batch ------------------
        if opts.sort_batches && opts.rule != ThresholdRule::Median {
            // (The median path already sorted by degree.)
            scratch.clear();
            scratch.extend(
                order[index..index + r_len]
                    .iter()
                    .map(|&v| (deg[v as usize].load(AtOrd::Relaxed), v)),
            );
            let bound = scratch.iter().map(|p| p.0).max().unwrap_or(0) + 1;
            sort_pairs(&mut scratch, bound, opts.sort_algo);
            for (slot, &(_, v)) in order[index..index + r_len].iter_mut().zip(scratch.iter()) {
                *slot = v;
            }
        }

        let (batch, rest) = order[index..].split_at(r_len);

        // ---- Assign ranks and priorities (Alg. 1 lines 16–17) ----------
        batch
            .par_iter()
            .for_each(|&v| rank[v as usize].store(level, AtOrd::Relaxed));
        if opts.sort_batches {
            for (i, &v) in batch.iter().enumerate() {
                rho[v as usize] = pack(level, i as u32);
            }
        } else {
            for &v in batch {
                rho[v as usize] = pack(level, perm[v as usize]);
            }
        }

        // Degrees at removal (before the update), for Σ_U maintenance, and
        // the batch's original degrees, for vol(U′) = vol(U) − vol(R).
        let rsum: u64 = batch
            .par_iter()
            .map(|&v| deg[v as usize].load(AtOrd::Relaxed) as u64)
            .sum();
        let vol_r: u64 = batch.par_iter().map(|&v| g.degree(v) as u64).sum();
        vol_u -= vol_r;

        // ---- UPDATE (Alg. 1 lines 21–24 / Alg. 2 / §V-E) ---------------
        let peel = Peel {
            deg: &deg,
            rank: &rank,
            level,
        };
        let pull = opts.update.pulls(vol_r, vol_u);
        let cut: u64 = if pull {
            pgc_obs::counter!("peel.pulled", 1);
            rest.par_iter().map(|&v| peel.pull(g, v)).sum()
        } else {
            batch.par_iter().map(|&v| peel.push(g, v)).sum()
        };
        stats.update_touches += if pull { vol_u } else { vol_r };

        // §V-F cached degree sum: Σ_{U'} = Σ_U − Σ_R deg − cut(R, U').
        sum_deg = sum_deg - rsum - cut;

        index += r_len;
        offsets.push(index);
        level += 1;
    }

    let rank_plain: Vec<u32> = rank.into_iter().map(AtomicU32::into_inner).collect();
    VertexOrdering {
        rho,
        levels: Some(Levels {
            rank: rank_plain,
            seq: order,
            offsets,
        }),
        stats,
    }
}

#[inline]
fn pack(rank: u32, low: u32) -> u64 {
    ((rank as u64) << 32) | low as u64
}

/// The peel's shared arrays at one level, taken by both UPDATE kernels.
struct Peel<'a> {
    /// Residual degrees.
    deg: &'a [AtomicU32],
    /// Removal level of each vertex; [`ACTIVE`] while it is in `U`.
    rank: &'a [AtomicU32],
    /// The level being removed.
    level: u32,
}

impl Peel<'_> {
    /// Push kernel for a removed vertex `v`: decrement each active
    /// neighbor. Returns the cut arcs.
    #[inline]
    fn push<G: GraphView>(&self, g: &G, v: u32) -> u64 {
        let mut cut = 0u64;
        for u in g.neighbors(v) {
            if self.rank[u as usize].load(AtOrd::Relaxed) == ACTIVE {
                self.deg[u as usize].fetch_sub(1, AtOrd::Relaxed);
                cut += 1;
            }
        }
        cut
    }

    /// Pull kernel for a remaining vertex `v`: count its just-removed
    /// neighbors and store its own new degree (single owner, so a plain
    /// store suffices in CREW). Returns the cut arcs.
    #[inline]
    fn pull<G: GraphView>(&self, g: &G, v: u32) -> u64 {
        let removed = g
            .neighbors(v)
            .filter(|&u| self.rank[u as usize].load(AtOrd::Relaxed) == self.level)
            .count() as u32;
        if removed > 0 {
            let cur = self.deg[v as usize].load(AtOrd::Relaxed);
            self.deg[v as usize].store(cur - removed, AtOrd::Relaxed);
        }
        u64::from(removed)
    }
}

/// Stable in-place partition of `region` by `pred` (true-block first).
/// Parallel per-chunk classification with deterministic, order-preserving
/// concatenation. Returns the size of the true block.
pub(crate) fn partition_stable<F: Fn(u32) -> bool + Sync>(region: &mut [u32], pred: F) -> usize {
    let len = region.len();
    if len == 0 {
        return 0;
    }
    let chunk = (len / (rayon::current_num_threads() * 4).max(1)).max(4096);
    let parts: Vec<(Vec<u32>, Vec<u32>)> = region
        .par_chunks(chunk)
        .map(|c| {
            let mut yes = Vec::with_capacity(c.len());
            let mut no = Vec::new();
            for &v in c {
                if pred(v) {
                    yes.push(v);
                } else {
                    no.push(v);
                }
            }
            (yes, no)
        })
        .collect();
    let mut pos = 0usize;
    for (yes, _) in &parts {
        region[pos..pos + yes.len()].copy_from_slice(yes);
        pos += yes.len();
    }
    let true_len = pos;
    for (_, no) in &parts {
        region[pos..pos + no.len()].copy_from_slice(no);
        pos += no.len();
    }
    debug_assert_eq!(pos, len);
    true_len
}

/// Upper bound on ADG iterations from Lemma 1: ⌈log n / log(1+ε)⌉ + 1.
pub fn iteration_bound(n: usize, epsilon: f64) -> u32 {
    if n <= 1 {
        return 1;
    }
    ((n as f64).ln() / (1.0 + epsilon).ln() + 1.0).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_back_degree;
    use pgc_graph::degeneracy::degeneracy;
    use pgc_graph::gen::{generate, GraphSpec};

    fn check_partial_approx(spec: &GraphSpec, opts: &AdgOptions, seed: u64) {
        let g = generate(spec, seed);
        let d = degeneracy(&g).degeneracy;
        let ord = adg(&g, opts);
        let back = max_back_degree(&g, &ord);
        let bound = (opts.approx_factor() * d as f64).ceil() as u32;
        assert!(
            back <= bound,
            "{spec:?}: back-degree {back} > {:.2}*d = {bound} (d={d})",
            opts.approx_factor()
        );
    }

    #[test]
    fn adg_is_2_1eps_approximate() {
        // Lemma 4 across structurally different graphs.
        let opts = AdgOptions::default();
        for (i, spec) in [
            GraphSpec::ErdosRenyi { n: 800, m: 4000 },
            GraphSpec::BarabasiAlbert { n: 800, attach: 6 },
            GraphSpec::Rmat {
                scale: 10,
                edge_factor: 8,
            },
            GraphSpec::Grid2d { rows: 25, cols: 30 },
            GraphSpec::RingOfCliques {
                cliques: 12,
                clique_size: 9,
            },
            GraphSpec::Star { n: 400 },
            GraphSpec::Complete { n: 40 },
        ]
        .iter()
        .enumerate()
        {
            check_partial_approx(spec, &opts, i as u64 + 1);
        }
    }

    #[test]
    fn adg_various_epsilons() {
        for eps in [0.0, 0.01, 0.1, 0.5, 1.0, 4.5] {
            check_partial_approx(
                &GraphSpec::BarabasiAlbert { n: 600, attach: 5 },
                &AdgOptions::with_epsilon(eps),
                9,
            );
        }
    }

    #[test]
    fn adg_m_is_4_approximate() {
        let opts = AdgOptions::median();
        for (i, spec) in [
            GraphSpec::ErdosRenyi { n: 700, m: 3500 },
            GraphSpec::Rmat {
                scale: 9,
                edge_factor: 10,
            },
            GraphSpec::Grid2d { rows: 20, cols: 20 },
        ]
        .iter()
        .enumerate()
        {
            check_partial_approx(spec, &opts, i as u64 + 3);
        }
    }

    #[test]
    fn iteration_count_respects_lemma_1() {
        for eps in [0.01, 0.1, 1.0] {
            let g = generate(&GraphSpec::ErdosRenyi { n: 2000, m: 10_000 }, 4);
            let ord = adg(&g, &AdgOptions::with_epsilon(eps));
            assert!(
                ord.stats.iterations <= iteration_bound(g.n(), eps),
                "eps={eps}: {} > bound {}",
                ord.stats.iterations,
                iteration_bound(g.n(), eps)
            );
        }
    }

    #[test]
    fn adg_m_halves_each_round() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 1024, m: 5000 }, 4);
        let ord = adg(&g, &AdgOptions::median());
        // ⌈log2 1024⌉ + 1 slack for the final odd batches.
        assert!(ord.stats.iterations <= 11, "{}", ord.stats.iterations);
        let levels = ord.levels.unwrap();
        assert_eq!(levels.level(0).len(), 512);
    }

    #[test]
    fn sum_active_is_geometric() {
        // Lemma 2: Σ|U_i| ≤ (1+ε)/ε · n.
        let eps = 0.5;
        let g = generate(
            &GraphSpec::Rmat {
                scale: 11,
                edge_factor: 6,
            },
            2,
        );
        let ord = adg(&g, &AdgOptions::with_epsilon(eps));
        let bound = ((1.0 + eps) / eps * g.n() as f64).ceil() as u64;
        assert!(
            ord.stats.sum_active <= bound,
            "{} > {bound}",
            ord.stats.sum_active
        );
    }

    /// K₂₀₀ with 1,000 pendant leaves, five on each clique vertex. Level 0
    /// peels the leaves with vol(U′)/vol(R) = 40,800/1,000 = 40.8, level 1
    /// the whole clique.
    fn clique_with_pendants() -> pgc_graph::CompactCsr {
        let mut edges: Vec<(u32, u32)> = (0..200u32)
            .flat_map(|u| (u + 1..200).map(move |v| (u, v)))
            .collect();
        edges.extend((0..1_000u32).map(|leaf| (leaf % 200, 200 + leaf)));
        pgc_graph::builder::from_edges(1_200, &edges)
    }

    #[test]
    fn push_and_pull_agree() {
        // Push, pull and the per-level choice give identical orders and
        // levels at every pool width, and only the arcs scanned
        // differ: the per-level choice never scans more than K·2m.
        let graphs = [
            generate(
                &GraphSpec::Rmat {
                    scale: 14,
                    edge_factor: 8,
                },
                6,
            ),
            generate(
                &GraphSpec::BarabasiAlbert {
                    n: 20_000,
                    attach: 5,
                },
                6,
            ),
            clique_with_pendants(),
        ];
        let styles = [UpdateStyle::Push, UpdateStyle::Pull, UpdateStyle::Auto];
        for (i, g) in graphs.iter().enumerate() {
            let mut base: Option<VertexOrdering> = None;
            for width in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap();
                let runs = styles.map(|update| {
                    let opts = AdgOptions {
                        update,
                        ..Default::default()
                    };
                    pool.install(|| adg(g, &opts))
                });
                let base = base.get_or_insert_with(|| runs[0].clone());
                let base_levels = base.levels.as_ref().unwrap();
                for (update, ord) in styles.iter().zip(&runs) {
                    let at = format!("graph {i}, width {width}, {update:?}");
                    assert_eq!(ord.rho, base.rho, "{at}");
                    let levels = ord.levels.as_ref().unwrap();
                    assert_eq!(levels.rank, base_levels.rank, "{at}");
                    assert_eq!(levels.seq, base_levels.seq, "{at}");
                    assert_eq!(levels.offsets, base_levels.offsets, "{at}");
                }
                let touches = runs.map(|o| o.stats.update_touches);
                assert!(
                    touches[2] <= PULL_FACTOR * g.num_arcs() as u64,
                    "graph {i}: {touches:?}"
                );
                if i == 2 {
                    // Auto pushes the leaves and pulls the empty remainder.
                    assert_eq!(touches, [41_800, 40_800, 1_000], "width {width}");
                }
            }
        }
    }

    #[test]
    fn cached_and_recomputed_sum_agree() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 600, m: 2500 }, 8);
        let cached = adg(&g, &AdgOptions::default());
        let fresh = adg(
            &g,
            &AdgOptions {
                cache_degree_sum: false,
                ..Default::default()
            },
        );
        assert_eq!(cached.rho, fresh.rho);
    }

    #[test]
    fn sort_algorithms_agree() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            5,
        );
        let base = adg(&g, &AdgOptions::default());
        for algo in [SortAlgo::Counting, SortAlgo::Quick] {
            let other = adg(
                &g,
                &AdgOptions {
                    sort_algo: algo,
                    ..Default::default()
                },
            );
            // Stable sorts with identical keys ⇒ identical explicit order.
            assert_eq!(base.rho, other.rho, "{algo:?}");
        }
    }

    #[test]
    fn unsorted_batches_use_random_tiebreak() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 300, m: 900 }, 2);
        let a = adg(
            &g,
            &AdgOptions {
                sort_batches: false,
                seed: 1,
                ..Default::default()
            },
        );
        let b = adg(
            &g,
            &AdgOptions {
                sort_batches: false,
                seed: 2,
                ..Default::default()
            },
        );
        // Ranks (high bits) identical; tie-breaks (low bits) differ.
        let ranks = |o: &VertexOrdering| o.rho.iter().map(|r| r >> 32).collect::<Vec<_>>();
        assert_eq!(ranks(&a), ranks(&b));
        assert_ne!(a.rho, b.rho);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = generate(&GraphSpec::Empty { n: 0 }, 0);
        let ord = adg(&g, &AdgOptions::default());
        assert!(ord.rho.is_empty());

        let g = generate(&GraphSpec::Empty { n: 5 }, 0);
        let ord = adg(&g, &AdgOptions::default());
        assert_eq!(ord.stats.iterations, 1, "isolated vertices peel at once");

        let g = generate(&GraphSpec::Complete { n: 2 }, 0);
        let ord = adg(&g, &AdgOptions::default());
        assert!(ord.is_total());
    }

    #[test]
    fn partition_stable_is_stable_and_correct() {
        let mut v: Vec<u32> = (0..10_000).collect();
        let t = partition_stable(&mut v, |x| x % 3 == 0);
        assert_eq!(t, 3334, "the multiples of 3 in 0..10_000");
        let (yes, no) = v.split_at(t);
        assert!(yes.iter().all(|&x| x % 3 == 0));
        assert!(no.iter().all(|&x| x % 3 != 0));
        // Stability: both blocks remain in ascending (original) order.
        assert!(yes.windows(2).all(|w| w[0] < w[1]));
        assert!(no.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn levels_offsets_consistent() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 400, attach: 5 }, 3);
        let ord = adg(&g, &AdgOptions::default());
        let l = ord.levels.unwrap();
        assert_eq!(*l.offsets.last().unwrap(), g.n());
        assert_eq!(l.num_levels() as u32, ord.stats.iterations);
        for i in 0..l.num_levels() {
            assert!(!l.level(i).is_empty(), "level {i} empty");
        }
    }
}
