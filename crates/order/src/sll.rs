//! SLL and ASL — the heuristic smallest-last relaxations the paper compares
//! against (Table II).
//!
//! * **SLL** (smallest-log-degree-last, Hasenplaugh et al. \[31\]): peel in
//!   rounds; round `r` removes every vertex whose residual degree is at
//!   most the current power-of-two threshold `2^k`, bumping `k` only when
//!   nothing qualifies. Approximates SL within log-degree classes with
//!   O(log Δ log n) rounds, but offers **no approximation guarantee** on
//!   the degeneracy order — the gap ADG closes.
//! * **ASL** (approximate-SL, Patwary et al. \[32\]): batched exact peeling —
//!   every round removes *all* current minimum-degree vertices at once.
//!   Also guarantee-free: a round can remove a vertex whose degree rose
//!   relative to... (it cannot rise, but the batch may be tiny, degrading
//!   to Ω(n) rounds on e.g. paths, matching the paper's O(n) time row).
//!
//! Both reuse the same batched peeling loop; they differ only in the
//! threshold schedule.

use crate::{Levels, OrderingStats, VertexOrdering};
use pgc_graph::GraphView;
use pgc_primitives::rng::random_permutation;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

const ACTIVE: u32 = u32::MAX;

/// Generic batched peeling: each round removes all active vertices with
/// residual degree ≤ `threshold(min_deg)`; rank = round index; pull-style
/// (CREW) degree updates.
fn batched_peel<G, F>(g: &G, seed: u64, mut threshold: F) -> VertexOrdering
where
    G: GraphView,
    F: FnMut(u32) -> u32,
{
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
    let deg: Vec<AtomicU32> = g.degree_array().into_iter().map(AtomicU32::new).collect();
    let rank: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(ACTIVE)).collect();
    let perm = random_permutation(n, seed);

    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut index = 0usize;
    let mut offsets = vec![0usize];
    let mut level = 0u32;
    let mut stats = OrderingStats::default();

    while index < n {
        stats.iterations += 1;
        stats.sum_active += (n - index) as u64;

        let min_deg = order[index..]
            .par_iter()
            .map(|&v| deg[v as usize].load(AtOrd::Relaxed))
            .min()
            .unwrap();
        let thr = threshold(min_deg).max(min_deg);

        let r_len = crate::adg::partition_stable(&mut order[index..], |v| {
            deg[v as usize].load(AtOrd::Relaxed) <= thr
        });
        debug_assert!(r_len > 0, "threshold >= min degree guarantees progress");

        let batch = &order[index..index + r_len];
        batch.par_iter().for_each(|&v| {
            rank[v as usize].store(level, AtOrd::Relaxed);
        });
        for &v in batch {
            rho[v as usize] = ((level as u64) << 32) | perm[v as usize] as u64;
        }

        // Pull update (CREW): remaining vertices subtract their
        // just-removed neighbors.
        order[index + r_len..].par_iter().for_each(|&v| {
            let removed = g
                .neighbors(v)
                .filter(|&u| rank[u as usize].load(AtOrd::Relaxed) == level)
                .count() as u32;
            if removed > 0 {
                let cur = deg[v as usize].load(AtOrd::Relaxed);
                deg[v as usize].store(cur - removed, AtOrd::Relaxed);
            }
        });
        stats.update_touches += order[index + r_len..]
            .iter()
            .map(|&v| g.degree(v) as u64)
            .sum::<u64>();

        index += r_len;
        offsets.push(index);
        level += 1;
    }

    let rank_plain: Vec<u32> = rank.iter().map(|r| r.load(AtOrd::Relaxed)).collect();
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

/// Smallest-log-degree-last (Hasenplaugh et al.): power-of-two thresholds.
pub fn smallest_log_last<G: GraphView>(g: &G, seed: u64) -> VertexOrdering {
    let mut k = 0u32;
    batched_peel(g, seed ^ 0x511, move |min_deg| {
        while (1u64 << k) < min_deg as u64 {
            k += 1;
        }
        1u32 << k.min(31)
    })
}

/// Approximate-SL (Patwary et al.): remove all current minimum-degree
/// vertices per round.
pub fn approx_smallest_last<G: GraphView>(g: &G, seed: u64) -> VertexOrdering {
    batched_peel(g, seed ^ 0xA51, |min_deg| min_deg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_back_degree;
    use pgc_graph::degeneracy::degeneracy;
    use pgc_graph::gen::{generate, GraphSpec};
    use pgc_graph::CompactCsr;

    #[test]
    fn sll_covers_all_vertices() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            1,
        );
        let o = smallest_log_last(&g, 3);
        assert!(o.is_total());
        let l = o.levels.unwrap();
        assert_eq!(*l.offsets.last().unwrap(), g.n());
    }

    #[test]
    fn sll_rounds_are_polylog_on_scale_free() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 4000, attach: 8 }, 2);
        let o = smallest_log_last(&g, 1);
        // O(log Δ · log n): generous constant-free sanity bound.
        let bound =
            4 * (32 - (g.max_degree()).leading_zeros()) * (32 - (g.n() as u32).leading_zeros());
        assert!(
            o.stats.iterations <= bound,
            "{} > {bound}",
            o.stats.iterations
        );
    }

    #[test]
    fn asl_on_regular_graph_is_one_round() {
        // Cycle: every vertex has degree 2 ⇒ single batch.
        let g = generate(&GraphSpec::Cycle { n: 100 }, 0);
        let o = approx_smallest_last(&g, 0);
        assert_eq!(o.stats.iterations, 1);
    }

    #[test]
    fn asl_path_degrades_to_many_rounds() {
        // Paths force Θ(n) rounds in ASL (endpoints peel two at a time) —
        // the Ω(n) behaviour Table II records for SL-like schemes.
        let g = generate(&GraphSpec::Path { n: 200 }, 0);
        let o = approx_smallest_last(&g, 0);
        assert!(o.stats.iterations >= 50, "{}", o.stats.iterations);
    }

    #[test]
    fn heuristics_back_degree_reasonable_but_unguaranteed() {
        // SLL/ASL track the degeneracy loosely; we only check they beat the
        // trivial Δ bound on a skewed graph (no formal guarantee exists).
        let g = generate(&GraphSpec::BarabasiAlbert { n: 2000, attach: 6 }, 4);
        let d = degeneracy(&g).degeneracy;
        for o in [smallest_log_last(&g, 1), approx_smallest_last(&g, 1)] {
            let back = max_back_degree(&g, &o);
            assert!(back >= d, "cannot beat exact degeneracy");
            assert!(back < g.max_degree(), "should be far below Delta");
        }
    }

    #[test]
    fn empty_graph_ok() {
        let g = CompactCsr::empty(0);
        let o = smallest_log_last(&g, 0);
        assert_eq!(o.rho.len(), 0);
    }
}
