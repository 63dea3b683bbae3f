//! Speculative coloring baselines: **ITR** (Çatalyürek et al. \[40\]) and
//! **ITRB** (Boman et al. \[38\]).
//!
//! The speculative recipe (Table III class 1): color all active vertices
//! *optimistically* in parallel (each takes the smallest color unused by
//! already-fixed neighbors), then detect conflicts (adjacent vertices that
//! picked the same color this round) and re-color the losers in the next
//! round. Termination is guaranteed because within any conflict the
//! highest-priority vertex always keeps its color.
//!
//! * plain **ITR**: all active vertices every round;
//! * **ITRB**: supersteps of a bounded batch size (Boman et al.'s
//!   synchronous scheme — fewer conflicts per round, more rounds);
//! * **ITR-ASL**: ITR with priorities (and hence conflict winners) taken
//!   from the ASL ordering instead of a random permutation.
//!
//! The paper derives no good bounds for this class (depth `O(Δ·I)`); its
//! contribution DEC-ADG-ITR (see [`crate::dec`]) fixes exactly that by
//! running the same speculation inside ADG partitions.

use crate::UNCOLORED;
use pgc_graph::GraphView;
use pgc_primitives::FixedBitmap;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

/// Outcome of the speculative loop, before packaging into a
/// [`ColoringRun`](crate::ColoringRun).
pub struct ItrOutcome {
    /// Final proper coloring.
    pub colors: Vec<u32>,
    /// Number of synchronous rounds executed.
    pub rounds: u32,
    /// Total vertices that lost a conflict and were re-colored.
    pub conflicts: u64,
}

/// Core speculative loop. `priority` breaks conflicts (higher value wins);
/// `batch` bounds the vertices processed per superstep (0 = all).
pub fn itr<G: GraphView>(g: &G, priority: &[u64], batch: usize, _seed: u64) -> ItrOutcome {
    let n = g.n();
    assert_eq!(priority.len(), n);
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    // Tentative colors of the current round; UNCOLORED marks "not in the
    // current batch", which is how phase 2 recognizes active neighbors.
    let tent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();

    // Active worklist, highest priority first so early supersteps fix the
    // most contended vertices (Boman et al.'s "I" processing order).
    let mut active: Vec<u32> = (0..n as u32).collect();
    active.par_sort_unstable_by_key(|&v| std::cmp::Reverse(priority[v as usize]));

    let mut rounds = 0u32;
    let mut conflicts = 0u64;

    while !active.is_empty() {
        rounds += 1;
        let _round = pgc_obs::span!("itr.round");
        if batch == 0 {
            // Plain ITR processes the whole active set each round and its
            // conflict rule is symmetric over that set, so the processing
            // order is free — spend it on the cache-aware schedule. (ITRB
            // must keep the priority-descending order: it decides batch
            // membership.)
            crate::schedule::bucket_by_degree(g, &mut active);
        }
        let batch_len = if batch == 0 {
            active.len()
        } else {
            batch.min(active.len())
        };
        let (cur, rest) = active.split_at(batch_len);

        // Phase 1: tentative first-fit against *fixed* neighbor colors.
        (0..cur.len()).into_par_iter().for_each_init(
            || FixedBitmap::new(0),
            |scratch, i| {
                crate::schedule::prefetch_ahead(g, cur, i);
                let v = cur[i];
                let cap = g.degree(v) as usize + 1;
                scratch.clear_all();
                scratch.ensure_len(cap);
                for u in g.neighbors(v) {
                    let c = colors[u as usize].load(AtOrd::Relaxed);
                    if c != UNCOLORED && (c as usize) < cap {
                        scratch.set(c as usize);
                    }
                }
                tent[v as usize].store(scratch.first_zero_from(0) as u32, AtOrd::Relaxed);
            },
        );

        // Phase 2: conflict detection. v keeps its color unless some
        // neighbor in the same batch picked the same color with higher
        // priority (priorities are a total order, so exactly the conflict
        // losers retry). Winners commit in the same pass: the check reads
        // only `tent` and `priority`, never `colors`.
        let losers: Vec<u32> = cur
            .par_iter()
            .copied()
            .filter(|&v| {
                let cv = tent[v as usize].load(AtOrd::Relaxed);
                let pv = priority[v as usize];
                let lost = g.neighbors(v).any(|u| {
                    tent[u as usize].load(AtOrd::Relaxed) == cv && priority[u as usize] > pv
                });
                if !lost {
                    colors[v as usize].store(cv, AtOrd::Relaxed);
                }
                lost
            })
            .collect();

        // Phase 3: clear tentative marks.
        cur.par_iter().for_each(|&v| {
            tent[v as usize].store(UNCOLORED, AtOrd::Relaxed);
        });

        conflicts += losers.len() as u64;
        pgc_obs::counter!("conflicts", losers.len() as u64);
        let mut next = losers;
        next.extend_from_slice(rest);
        active = next;
    }

    ItrOutcome {
        colors: colors.into_iter().map(|c| c.into_inner()).collect(),
        rounds,
        conflicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_proper, num_colors};
    use pgc_graph::gen::{generate, GraphSpec};
    use pgc_graph::CompactCsr;
    use pgc_primitives::random_permutation;

    fn prio(n: usize, seed: u64) -> Vec<u64> {
        random_permutation(n, seed)
            .into_iter()
            .map(|p| p as u64)
            .collect()
    }

    #[test]
    fn itr_proper_on_varied_graphs() {
        for (i, spec) in [
            GraphSpec::ErdosRenyi { n: 600, m: 3000 },
            GraphSpec::BarabasiAlbert { n: 600, attach: 6 },
            GraphSpec::RingOfCliques {
                cliques: 15,
                clique_size: 10,
            },
            GraphSpec::Complete { n: 30 },
            GraphSpec::Empty { n: 20 },
        ]
        .iter()
        .enumerate()
        {
            let g = generate(spec, i as u64);
            let p = prio(g.n(), 3);
            let out = itr(&g, &p, 0, 1);
            assert_proper(&g, &out.colors);
            assert!(num_colors(&out.colors) <= g.max_degree() + 1, "{spec:?}");
        }
    }

    #[test]
    fn itr_deterministic() {
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 20,
                clique_size: 8,
            },
            2,
        );
        let p = prio(g.n(), 9);
        let a = itr(&g, &p, 0, 0);
        let b = itr(&g, &p, 0, 0);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.conflicts, b.conflicts);
    }

    #[test]
    fn dense_clusters_cause_conflicts() {
        // Cliques colored speculatively must collide (the paper's
        // motivation for DEC-ADG-ITR).
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 10,
                clique_size: 20,
            },
            1,
        );
        let p = prio(g.n(), 4);
        let out = itr(&g, &p, 0, 0);
        assert!(out.conflicts > 0);
        assert!(out.rounds > 1);
        assert_proper(&g, &out.colors);
    }

    #[test]
    fn empty_graph_zero_rounds() {
        let g = CompactCsr::empty(0);
        let out = itr(&g, &[], 0, 0);
        assert_eq!(out.rounds, 0);
        assert!(out.colors.is_empty());
    }

    #[test]
    fn batched_matches_unbatched_properness() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 500, attach: 8 }, 6);
        let p = prio(g.n(), 2);
        for batch in [1usize, 7, 64, 100_000] {
            let out = itr(&g, &p, batch, 0);
            assert_proper(&g, &out.colors);
        }
    }

    #[test]
    fn batching_increases_rounds() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 400, m: 1200 }, 3);
        let p = prio(g.n(), 5);
        let unbatched = itr(&g, &p, 0, 0);
        let batched = itr(&g, &p, 50, 0);
        assert!(batched.rounds >= unbatched.rounds);
        assert!(batched.rounds >= (g.n() / 50) as u32);
    }

    #[test]
    fn max_priority_vertex_never_loses() {
        let g = generate(&GraphSpec::Complete { n: 15 }, 0);
        let p = prio(g.n(), 7);
        let out = itr(&g, &p, 0, 0);
        let top = (0..g.n()).max_by_key(|&v| p[v]).unwrap();
        // Highest priority vertex always wins round 1 with color 0.
        assert_eq!(out.colors[top], 0);
    }
}
