//! # pgc-order
//!
//! Vertex orderings for Greedy/Jones–Plassmann graph coloring, including the
//! paper's contribution #1: **ADG**, the first parallel algorithm computing
//! a provably *2(1+ε)-approximate degeneracy ordering* (§III), and its
//! median variant **ADG-M** (§V-D, 4-approximate).
//!
//! An ordering is a priority function `ρ : V → u64`; JP colors a vertex once
//! all neighbors with *higher* priority are colored (the priority DAG `Gρ`
//! directs edges from higher to lower ρ). All orderings here encode
//! `ρ = ⟨ρ_X, ρ_tiebreak⟩` in a single `u64` — rank in the high 32 bits and
//! a random bijection (or the §V-B explicit batch position) in the low 32 —
//! so the order is always *total* and JP terminates.
//!
//! Implemented orderings (Table II):
//!
//! | kind | rank (high bits) | guarantee |
//! |------|------------------|-----------|
//! | FF   | reverse vertex id | none |
//! | R    | random            | none |
//! | LF   | degree            | none |
//! | LLF  | ⌈log₂ deg⌉        | none |
//! | SL   | exact degeneracy removal position | exact (d) |
//! | SLL  | log-degree peeling round | heuristic |
//! | ASL  | batched min-degree peeling round | heuristic |
//! | ADG  | ADG iteration (avg-degree rule) | **2(1+ε)-approx** |
//! | ADG-M| ADG iteration (median rule) | **4-approx** |

#![forbid(unsafe_code)]

pub mod adg;
pub mod simple;
pub mod sll;

use pgc_graph::{GraphView, InducedView};
use rayon::prelude::*;
use std::cmp::Reverse;

pub use adg::{adg, AdgOptions, ThresholdRule, UpdateStyle};
pub use pgc_primitives::sort::SortAlgo;
use pgc_primitives::{hash_mix, FixedBitmap};

/// Batch (level) structure of a partial ordering: vertices grouped by rank.
///
/// This is the `(ρ, G)` output of ADG\* (Alg. 4, line 8): partition `R(i)`
/// holds the vertices removed in iteration `i`, i.e. `{v | rank(v) = i}`.
#[derive(Clone, Debug)]
pub struct Levels {
    /// `rank[v]` = iteration in which `v` was removed (0-based).
    pub rank: Vec<u32>,
    /// Vertices in removal order, grouped by rank: `seq[offsets[i]..offsets[i+1]]`
    /// is `R(i)`.
    pub seq: Vec<u32>,
    /// `offsets.len() == num_levels + 1`.
    pub offsets: Vec<usize>,
}

impl Levels {
    /// Number of levels ρ̄ (the paper shows ρ̄ ∈ O(log n) for ADG).
    pub fn num_levels(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The vertex set `R(i)`.
    pub fn level(&self, i: usize) -> &[u32] {
        &self.seq[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Zero-copy [`InducedView`] of the suffix `U_ℓ = ∪_{i ≥ ℓ} R(i)` —
    /// the still-active subgraph at the start of peeling iteration `ℓ`
    /// (the candidate subgraphs of Charikar-style densest-subgraph
    /// peeling).
    pub fn suffix_view<'g, G: GraphView>(&self, g: &'g G, from: usize) -> InducedView<'g, G> {
        InducedView::new(g, &self.seq[self.offsets[from]..])
    }
}

/// Instrumentation recorded while computing an ordering; used by the
/// Table II experiment to validate the paper's iteration/work bounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrderingStats {
    /// Outer iterations of the peeling loop (ADG: ≤ ⌈log n / log(1+ε)⌉+1).
    pub iterations: u32,
    /// Accumulated `Σ_i |U_i|` — the geometric-series term of Lemma 2.
    pub sum_active: u64,
    /// Accumulated degree-update touches (the `Σ deg` term of Lemma 2/5).
    pub update_touches: u64,
}

/// A total vertex ordering plus optional level structure and stats.
#[derive(Clone, Debug)]
pub struct VertexOrdering {
    /// Priority per vertex; **higher ρ is colored earlier**.
    pub rho: Vec<u64>,
    /// Level structure, present for partial (batched) orderings
    /// (SL/SLL/ASL/ADG/ADG-M).
    pub levels: Option<Levels>,
    /// Peeling instrumentation (zeroed for O(1)-rank orderings).
    pub stats: OrderingStats,
}

impl VertexOrdering {
    /// Check that ρ is a total order (no duplicate priorities).
    ///
    /// Runs in expected O(n) time via a [`pgc_primitives::bitmap`] filter
    /// instead of cloning and sorting the whole priority vector: priorities
    /// are hashed into a bitmap of ~8n bits; only values landing in a
    /// multi-occupancy bit (expected n/8 of them) are collected and
    /// sort-checked. Any true duplicate pair hashes to the same bit, so the
    /// check is exact.
    pub fn is_total(&self) -> bool {
        let n = self.rho.len();
        if n <= 1 {
            return true;
        }
        let bits = (8 * n).next_power_of_two();
        let mask = bits - 1;
        let mut seen = FixedBitmap::new(bits);
        let mut multi = FixedBitmap::new(bits);
        for &r in &self.rho {
            let b = (hash_mix(r) as usize) & mask;
            if seen.get(b) {
                multi.set(b);
            } else {
                seen.set(b);
            }
        }
        let mut suspects: Vec<u64> = self
            .rho
            .iter()
            .copied()
            .filter(|&r| multi.get((hash_mix(r) as usize) & mask))
            .collect();
        suspects.sort_unstable();
        suspects.windows(2).all(|w| w[0] != w[1])
    }

    /// The vertices by decreasing ρ, as [`by_decreasing_rho`] returns them.
    /// A batched ordering whose ρ strictly increases along its level
    /// sequence (ADG and ADG-M with sorted batches) hands back that
    /// sequence reversed, at O(n) cost; one parallel pass checks the
    /// increase, and any other ordering falls back to the sort.
    pub fn by_decreasing_rho(&self) -> Vec<u32> {
        if let Some(levels) = &self.levels {
            let (seq, rho) = (&levels.seq, &self.rho);
            // Strictly increasing ρ also makes `seq` duplicate-free, so
            // with n entries it is a permutation.
            if seq.len() == rho.len()
                && (1..seq.len())
                    .into_par_iter()
                    .all(|i| rho[seq[i - 1] as usize] < rho[seq[i] as usize])
            {
                return seq.iter().rev().copied().collect();
            }
        }
        by_decreasing_rho(&self.rho)
    }
}

/// The vertices by decreasing ρ, equal priorities by increasing id: the
/// order in which greedy colors them and JP's predecessors come first.
/// One parallel sort of `(ρ, v)` pairs.
pub fn by_decreasing_rho(rho: &[u64]) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = rho
        .par_iter()
        .enumerate()
        .map(|(v, &r)| (r, v as u32))
        .collect();
    keyed.par_sort_unstable_by_key(|&(r, v)| (Reverse(r), v));
    keyed.par_iter().map(|&(_, v)| v).collect()
}

/// Which ordering heuristic to run (Table II naming).
#[derive(Clone, Debug, PartialEq)]
pub enum OrderingKind {
    /// First-fit: the graph's natural vertex order.
    FirstFit,
    /// Uniformly random order (JP-R).
    Random,
    /// Largest-degree-first.
    LargestFirst,
    /// Largest-log-degree-first (Hasenplaugh et al.).
    LargestLogFirst,
    /// Smallest-degree-last: the exact degeneracy ordering.
    SmallestLast,
    /// Smallest-log-degree-last (Hasenplaugh et al.).
    SmallestLogLast,
    /// Approximate SL (Patwary et al.): batched min-degree peeling.
    ApproxSmallestLast,
    /// The paper's approximate degeneracy ordering.
    Adg(AdgOptions),
}

impl OrderingKind {
    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            OrderingKind::FirstFit => "FF",
            OrderingKind::Random => "R",
            OrderingKind::LargestFirst => "LF",
            OrderingKind::LargestLogFirst => "LLF",
            OrderingKind::SmallestLast => "SL",
            OrderingKind::SmallestLogLast => "SLL",
            OrderingKind::ApproxSmallestLast => "ASL",
            OrderingKind::Adg(o) => match o.rule {
                ThresholdRule::Average => "ADG",
                ThresholdRule::Median => "ADG-M",
            },
        }
    }
}

/// Compute the selected ordering. `seed` drives every random tie-break.
pub fn compute<G: GraphView>(g: &G, kind: &OrderingKind, seed: u64) -> VertexOrdering {
    match kind {
        OrderingKind::FirstFit => simple::first_fit(g),
        OrderingKind::Random => simple::random(g, seed),
        OrderingKind::LargestFirst => simple::largest_first(g, seed),
        OrderingKind::LargestLogFirst => simple::largest_log_first(g, seed),
        OrderingKind::SmallestLast => simple::smallest_last(g, seed),
        OrderingKind::SmallestLogLast => sll::smallest_log_last(g, seed),
        OrderingKind::ApproxSmallestLast => sll::approx_smallest_last(g, seed),
        OrderingKind::Adg(opts) => {
            let mut o = opts.clone();
            o.seed = seed;
            adg::adg(g, &o)
        }
    }
}

/// The maximum number of equal-or-higher-ranked neighbors over all vertices
/// — the quantity bounded by `k·d` in a partial k-approximate degeneracy
/// ordering (§II-B). For orderings without level structure, ranks are the
/// full priorities.
pub fn max_back_degree<G: GraphView>(g: &G, ord: &VertexOrdering) -> u32 {
    let rank_of = |v: u32| -> u64 {
        match &ord.levels {
            Some(l) => l.rank[v as usize] as u64,
            None => ord.rho[v as usize],
        }
    };
    let mut worst = 0u32;
    for v in g.vertices() {
        let rv = rank_of(v);
        let b = g.neighbors(v).filter(|&u| rank_of(u) >= rv).count() as u32;
        worst = worst.max(b);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_graph::gen::{generate, GraphSpec};

    fn all_kinds() -> Vec<OrderingKind> {
        vec![
            OrderingKind::FirstFit,
            OrderingKind::Random,
            OrderingKind::LargestFirst,
            OrderingKind::LargestLogFirst,
            OrderingKind::SmallestLast,
            OrderingKind::SmallestLogLast,
            OrderingKind::ApproxSmallestLast,
            OrderingKind::Adg(AdgOptions::default()),
            OrderingKind::Adg(AdgOptions::median()),
        ]
    }

    #[test]
    fn every_ordering_is_total() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 500, m: 2000 }, 3);
        for kind in all_kinds() {
            let ord = compute(&g, &kind, 17);
            assert_eq!(ord.rho.len(), g.n(), "{}", kind.name());
            assert!(ord.is_total(), "{} not a total order", kind.name());
        }
    }

    #[test]
    fn orderings_deterministic_in_seed() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 300, attach: 4 }, 1);
        for kind in all_kinds() {
            let a = compute(&g, &kind, 9);
            let b = compute(&g, &kind, 9);
            assert_eq!(a.rho, b.rho, "{}", kind.name());
        }
    }

    #[test]
    fn levels_partition_the_vertices() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            2,
        );
        for kind in [
            OrderingKind::SmallestLast,
            OrderingKind::SmallestLogLast,
            OrderingKind::ApproxSmallestLast,
            OrderingKind::Adg(AdgOptions::default()),
        ] {
            let ord = compute(&g, &kind, 5);
            let levels = ord.levels.as_ref().expect("batched ordering has levels");
            let mut seen = vec![false; g.n()];
            for i in 0..levels.num_levels() {
                for &v in levels.level(i) {
                    assert!(!seen[v as usize]);
                    seen[v as usize] = true;
                    assert_eq!(levels.rank[v as usize] as usize, i);
                }
            }
            assert!(seen.iter().all(|&s| s), "{}", kind.name());
        }
    }

    #[test]
    fn is_total_detects_duplicates() {
        // The bitmap-filtered check must stay exact: any duplicated
        // priority (including across wide value ranges) flips the answer.
        let mk = |rho: Vec<u64>| VertexOrdering {
            rho,
            levels: None,
            stats: OrderingStats::default(),
        };
        assert!(mk(vec![]).is_total());
        assert!(mk(vec![7]).is_total());
        assert!(mk(vec![3, 1, 2, 0]).is_total());
        assert!(!mk(vec![3, 1, 3, 0]).is_total());
        // Rank-encoded values (high-bits rank, low-bits tiebreak).
        let packed = |r: u64, t: u64| (r << 32) | t;
        assert!(mk(vec![packed(1, 5), packed(2, 5), packed(1, 6)]).is_total());
        assert!(!mk(vec![packed(1, 5), packed(2, 5), packed(1, 5)]).is_total());
        // Larger stress: a permutation is total, one collision is caught.
        let mut big: Vec<u64> = (0..10_000u64).map(|v| packed(v % 37, v)).collect();
        assert!(mk(big.clone()).is_total());
        big[9_999] = big[123];
        assert!(!mk(big).is_total());
    }

    #[test]
    fn level_views_partition_and_suffix() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 300, attach: 5 }, 9);
        let ord = compute(&g, &OrderingKind::Adg(AdgOptions::default()), 1);
        let levels = ord.levels.as_ref().unwrap();
        use pgc_graph::GraphView as _;
        let mut total = 0usize;
        for i in 0..levels.num_levels() {
            let level = levels.level(i);
            assert!(level.iter().all(|&v| levels.rank[v as usize] == i as u32));
            let view = levels.suffix_view(&g, i);
            assert_eq!(view.n(), g.n() - levels.offsets[i]);
            total += level.len();
        }
        assert_eq!(total, g.n());
        // The full suffix is the whole graph, zero-copy.
        let whole = levels.suffix_view(&g, 0);
        assert_eq!(whole.n(), g.n());
        assert_eq!(whole.m(), g.m());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(OrderingKind::Adg(AdgOptions::default()).name(), "ADG");
        assert_eq!(OrderingKind::Adg(AdgOptions::median()).name(), "ADG-M");
        assert_eq!(OrderingKind::SmallestLogLast.name(), "SLL");
    }
}
