//! Distance-2 coloring: no two vertices within distance 2 share a color.
//!
//! The generalization used for Jacobian/Hessian compression and channel
//! assignment (paper refs \[140\], \[150\], \[151\]). A distance-2 coloring of
//! `G` is a distance-1 coloring of the square graph `G²`; greedy gives at
//! most `Δ² + 1` colors. We provide the sequential greedy and an
//! ITR-style speculative parallel variant (tentative + distance-2
//! conflict detection), mirroring how the paper's distance-1 speculative
//! schemes operate.

use crate::UNCOLORED;
use pgc_graph::GraphView;
use pgc_primitives::{random_permutation, FixedBitmap, MarkSet};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

/// True iff no two distinct vertices within distance ≤ 2 share a color.
pub fn is_proper_d2<G: GraphView>(g: &G, colors: &[u32]) -> bool {
    if colors.len() != g.n() {
        return false;
    }
    g.vertices().into_par_iter().all(|v| {
        let cv = colors[v as usize];
        if cv == UNCOLORED {
            return false;
        }
        for u in g.neighbors(v) {
            if colors[u as usize] == cv {
                return false;
            }
            for w in g.neighbors(u) {
                if w != v && colors[w as usize] == cv {
                    return false;
                }
            }
        }
        true
    })
}

/// The set of colors forbidden for `v`: everything within distance 2.
///
/// `seen` (an epoch-stamped [`MarkSet`]) deduplicates the two-hop scan:
/// in dense neighborhoods a second-hop vertex `w` is reachable through
/// many first-hop vertices `u`, and without the mark array each path
/// re-reads `colors[w]` — the mark turns the scan from
/// O(Σ_{u∈N(v)} deg(u)) reads into one read per distinct vertex.
fn forbid_d2<G: GraphView>(
    g: &G,
    v: u32,
    colors: &[u32],
    scratch: &mut FixedBitmap,
    seen: &mut MarkSet,
    cap: usize,
) {
    scratch.clear_all();
    scratch.ensure_len(cap);
    seen.clear(g.n());
    seen.mark(v);
    let mut record = |x: u32, seen: &mut MarkSet| {
        if !seen.is_marked(x) {
            seen.mark(x);
            let c = colors[x as usize];
            if c != UNCOLORED {
                scratch.set_saturating(c as usize);
            }
        }
    };
    for u in g.neighbors(v) {
        g.prefetch_neighbors(u);
        record(u, seen);
    }
    for u in g.neighbors(v) {
        for w in g.neighbors(u) {
            record(w, seen);
        }
    }
}

/// Sequential greedy distance-2 coloring in the given vertex sequence.
/// Uses at most `Δ² + 1` colors.
pub fn greedy_d2<G: GraphView>(g: &G, seq: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut colors = vec![UNCOLORED; g.n()];
    let mut scratch = FixedBitmap::new(0);
    let mut seen = MarkSet::new();
    let delta = g.max_degree() as usize;
    let cap = delta * delta + 2;
    for v in seq {
        forbid_d2(g, v, &colors, &mut scratch, &mut seen, cap);
        colors[v as usize] = scratch.first_zero_from(0) as u32;
    }
    colors
}

/// Outcome of the speculative distance-2 coloring.
pub struct D2Outcome {
    /// The proper distance-2 coloring.
    pub colors: Vec<u32>,
    /// Synchronous rounds executed.
    pub rounds: u32,
    /// Vertices re-colored after conflicts.
    pub conflicts: u64,
}

/// ITR-style speculative parallel distance-2 coloring: tentative first-fit
/// against fixed distance-2 colors, then conflict detection where the
/// higher random priority wins.
pub fn speculative_d2<G: GraphView>(g: &G, seed: u64) -> D2Outcome {
    let n = g.n();
    let priority: Vec<u64> = random_permutation(n, seed ^ 0xD2)
        .into_iter()
        .map(|p| p as u64)
        .collect();
    let colors_at: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let tent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let delta = g.max_degree() as usize;
    let cap = delta * delta + 2;
    let mut active: Vec<u32> = (0..n as u32).collect();
    let mut rounds = 0u32;
    let mut conflicts = 0u64;
    while !active.is_empty() {
        rounds += 1;
        // Phase 1: tentative first-fit against *fixed* colors (distance 2).
        // Each worker carries a forbidden-color bitmap plus a MarkSet that
        // dedups the two-hop scan, so a second-hop vertex reachable along
        // many paths costs one atomic load instead of one per path.
        active.par_iter().for_each_init(
            || (FixedBitmap::new(0), MarkSet::new()),
            |(scratch, seen), &v| {
                scratch.clear_all();
                scratch.ensure_len(cap);
                seen.clear(n);
                seen.mark(v);
                let mut record = |x: u32, seen: &mut MarkSet| {
                    if !seen.is_marked(x) {
                        seen.mark(x);
                        let c = colors_at[x as usize].load(AtOrd::Relaxed);
                        if c != UNCOLORED {
                            scratch.set_saturating(c as usize);
                        }
                    }
                };
                for u in g.neighbors(v) {
                    g.prefetch_neighbors(u);
                    record(u, seen);
                }
                for u in g.neighbors(v) {
                    for w in g.neighbors(u) {
                        record(w, seen);
                    }
                }
                tent[v as usize].store(scratch.first_zero_from(0) as u32, AtOrd::Relaxed);
            },
        );
        // Phase 2: distance-2 conflicts — the higher priority endpoint of
        // each conflicting pair keeps its tentative color.
        let loses = |v: u32| -> bool {
            let cv = tent[v as usize].load(AtOrd::Relaxed);
            let pv = priority[v as usize];
            for u in g.neighbors(v) {
                if tent[u as usize].load(AtOrd::Relaxed) == cv && priority[u as usize] > pv {
                    return true;
                }
                for w in g.neighbors(u) {
                    if w != v
                        && tent[w as usize].load(AtOrd::Relaxed) == cv
                        && priority[w as usize] > pv
                    {
                        return true;
                    }
                }
            }
            false
        };
        let losers: Vec<u32> = active.par_iter().copied().filter(|&v| loses(v)).collect();
        active.par_iter().for_each(|&v| {
            if !loses(v) {
                colors_at[v as usize].store(tent[v as usize].load(AtOrd::Relaxed), AtOrd::Relaxed);
            }
        });
        active.par_iter().for_each(|&v| {
            tent[v as usize].store(UNCOLORED, AtOrd::Relaxed);
        });
        conflicts += losers.len() as u64;
        active = losers;
    }
    D2Outcome {
        colors: colors_at.into_iter().map(|c| c.into_inner()).collect(),
        rounds,
        conflicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_graph::gen::{generate, GraphSpec};
    use pgc_graph::CompactCsr;

    #[test]
    fn greedy_d2_proper_and_bounded() {
        for (i, spec) in [
            GraphSpec::ErdosRenyi { n: 300, m: 900 },
            GraphSpec::Grid2d { rows: 12, cols: 14 },
            GraphSpec::Cycle { n: 30 },
            GraphSpec::Complete { n: 15 },
        ]
        .iter()
        .enumerate()
        {
            let g = generate(spec, i as u64);
            let colors = greedy_d2(&g, g.vertices());
            assert!(is_proper_d2(&g, &colors), "{spec:?}");
            let delta = g.max_degree();
            let k = crate::verify::num_colors(&colors);
            assert!(k <= delta * delta + 1, "{spec:?}: {k} > Δ²+1");
        }
    }

    #[test]
    fn star_needs_n_colors_at_distance_2() {
        // All leaves are pairwise at distance 2 through the center.
        let g = generate(&GraphSpec::Star { n: 12 }, 0);
        let colors = greedy_d2(&g, g.vertices());
        assert!(is_proper_d2(&g, &colors));
        assert_eq!(crate::verify::num_colors(&colors), 12);
    }

    #[test]
    fn speculative_matches_greedy_properness() {
        for seed in 0..3 {
            let g = generate(&GraphSpec::ErdosRenyi { n: 400, m: 1200 }, seed);
            let out = speculative_d2(&g, seed);
            assert!(is_proper_d2(&g, &out.colors), "seed {seed}");
            assert!(out.rounds >= 1);
        }
    }

    #[test]
    fn speculative_deterministic() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 300, attach: 4 }, 1);
        let a = speculative_d2(&g, 7);
        let b = speculative_d2(&g, 7);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.conflicts, b.conflicts);
    }

    #[test]
    fn d2_is_stricter_than_d1() {
        let g = generate(&GraphSpec::Grid2d { rows: 10, cols: 10 }, 0);
        let d1 = crate::greedy::greedy_first_fit(&g);
        let d2 = greedy_d2(&g, g.vertices());
        assert!(crate::verify::is_proper(&g, &d2), "d2 implies d1");
        assert!(!is_proper_d2(&g, &d1), "2 colors cannot satisfy distance 2");
        assert!(crate::verify::num_colors(&d2) > crate::verify::num_colors(&d1));
    }

    #[test]
    fn verifier_rejects_distance2_violation() {
        // Path 0-1-2: colors [0,1,0] is proper at distance 1, not 2.
        let g = pgc_graph::builder::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!is_proper_d2(&g, &[0, 1, 0]));
        assert!(is_proper_d2(&g, &[0, 1, 2]));
    }

    #[test]
    fn empty_graph() {
        let g = CompactCsr::empty(0);
        assert!(is_proper_d2(&g, &[]));
        let out = speculative_d2(&g, 0);
        assert!(out.colors.is_empty());
    }
}
