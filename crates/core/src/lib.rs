//! # pgc-core
//!
//! The coloring algorithms of the SC'20 reproduction:
//!
//! * [`jp`] — the Jones–Plassmann engine (Alg. 3): given any total priority
//!   function it colors each vertex once all higher-priority neighbors are
//!   colored. Combining it with the orderings of `pgc-order` yields JP-FF,
//!   JP-R, JP-LF, JP-LLF, JP-SL, JP-SLL, JP-ASL, and the paper's
//!   **JP-ADG** / **JP-ADG-M** (contribution #2).
//! * [`simcol`] — SIM-COL (Alg. 5), the randomized `(1+µ)Δ` partition
//!   colorer.
//! * [`dec`] — **DEC-ADG** (Alg. 4, contribution #3) and **DEC-ADG-ITR**
//!   (§IV-C, contribution #4) built on the ADG low-degree decomposition.
//! * [`speculative`] — the ITR/ITRB speculative baselines (\[40\], \[38\]).
//! * [`greedy`] — sequential Greedy with FF/LF/SL/ID/SD orderings
//!   (Table III class 2 quality baselines).
//! * [`verify`] — proper-coloring verification and quality-bound oracles.
//!
//! Dispatch is one `match`: [`run`] maps an [`Algorithm`] tag straight
//! to its engine, on any [`GraphView`] representation. A run returns a
//! [`ColoringRun`] carrying the coloring plus the shared
//! [`Instrumentation`] record (times, rounds, conflicts) the paper
//! reports.

#![forbid(unsafe_code)]

pub mod colorer;
pub mod dec;
pub mod greedy;
pub mod jp;
pub mod refine;
pub mod schedule;
pub mod simcol;
pub mod speculative;
pub mod verify;

pub use colorer::{best_of, Instrumentation};

use pgc_graph::GraphView;
use pgc_order::{AdgOptions, OrderingKind, SortAlgo, ThresholdRule, UpdateStyle};
use std::time::Duration;

/// Sentinel for "not yet colored". Valid colors are `0..n`.
pub const UNCOLORED: u32 = u32::MAX;

/// Which coloring algorithm to run (the rows of Table III / bars of Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential Greedy, first-fit order.
    GreedyFf,
    /// Sequential Greedy, largest-degree-first order.
    GreedyLf,
    /// Sequential Greedy, smallest-degree-last (degeneracy) order — the
    /// d+1 quality gold standard.
    GreedySl,
    /// Sequential Greedy, incidence-degree order \[1\].
    GreedyId,
    /// Sequential Greedy, saturation-degree order (DSATUR) \[27\].
    GreedySd,
    /// JP with the natural order.
    JpFf,
    /// JP with a random order.
    JpR,
    /// JP largest-degree-first.
    JpLf,
    /// JP largest-log-degree-first (Hasenplaugh et al.).
    JpLlf,
    /// JP exact smallest-degree-last.
    JpSl,
    /// JP smallest-log-degree-last (Hasenplaugh et al.).
    JpSll,
    /// JP approximate-SL (Patwary et al.).
    JpAsl,
    /// **JP-ADG** (contribution #2): 2(1+ε)d + 1 colors.
    JpAdg,
    /// **JP-ADG-M** (§V-D): 4d + 1 colors.
    JpAdgM,
    /// Speculative iterative coloring (Çatalyürek et al. \[40\]).
    Itr,
    /// Superstep-batched speculative coloring (Boman et al. \[38\]).
    ItrB,
    /// ITR guided by the ASL order (Patwary et al. \[32\]).
    ItrAsl,
    /// **SIM-COL** (Alg. 5): randomized speculation with per-vertex
    /// `⌈(1+µ)·deg⌉` palettes; ≤ ⌈(1+µ)Δ⌉ colors, O(log n) rounds w.h.p.
    SimCol,
    /// **DEC-ADG** (contribution #3): (2+ε)d colors w.h.p. depth bounds.
    DecAdg,
    /// DEC-ADG with the median ADG variant: (4+ε)d colors.
    DecAdgM,
    /// **DEC-ADG-ITR** (contribution #4): ITR on the ADG decomposition,
    /// 2(1+ε)d + 1 colors.
    DecAdgItr,
}

impl Algorithm {
    /// Display name as used in the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::GreedyFf => "Greedy-FF",
            Algorithm::GreedyLf => "Greedy-LF",
            Algorithm::GreedySl => "Greedy-SL",
            Algorithm::GreedyId => "Greedy-ID",
            Algorithm::GreedySd => "Greedy-SD",
            Algorithm::JpFf => "JP-FF",
            Algorithm::JpR => "JP-R",
            Algorithm::JpLf => "JP-LF",
            Algorithm::JpLlf => "JP-LLF",
            Algorithm::JpSl => "JP-SL",
            Algorithm::JpSll => "JP-SLL",
            Algorithm::JpAsl => "JP-ASL",
            Algorithm::JpAdg => "JP-ADG",
            Algorithm::JpAdgM => "JP-ADG-M",
            Algorithm::Itr => "ITR",
            Algorithm::ItrB => "ITRB",
            Algorithm::ItrAsl => "ITR-ASL",
            Algorithm::SimCol => "SIM-COL",
            Algorithm::DecAdg => "DEC-ADG",
            Algorithm::DecAdgM => "DEC-ADG-M",
            Algorithm::DecAdgItr => "DEC-ADG-ITR",
        }
    }

    /// All algorithms, in the paper's class order: greedy (class 2),
    /// JP-based (class 3), speculative (class 1 + contributions).
    pub fn all() -> Vec<Algorithm> {
        use Algorithm::*;
        vec![
            GreedyFf, GreedyLf, GreedySl, GreedyId, GreedySd, JpFf, JpR, JpLf, JpLlf, JpSl, JpSll,
            JpAsl, JpAdg, JpAdgM, Itr, ItrB, ItrAsl, SimCol, DecAdg, DecAdgM, DecAdgItr,
        ]
    }

    /// The parallel algorithms compared in Fig. 1 (greedy baselines and the
    /// mostly-theoretical SIM-COL / DEC-ADG excluded, as in the paper's
    /// plots).
    pub fn fig1_set() -> Vec<Algorithm> {
        use Algorithm::*;
        vec![
            Itr, ItrAsl, ItrB, DecAdgItr, JpFf, JpR, JpLf, JpLlf, JpSl, JpSll, JpAsl, JpAdg,
        ]
    }

    /// True for the speculative-coloring class ("SC" in Fig. 1), false for
    /// the Jones–Plassmann class ("JP").
    pub fn is_speculative(&self) -> bool {
        matches!(
            self,
            Algorithm::Itr
                | Algorithm::ItrB
                | Algorithm::ItrAsl
                | Algorithm::SimCol
                | Algorithm::DecAdg
                | Algorithm::DecAdgM
                | Algorithm::DecAdgItr
        )
    }

    /// True for the Jones–Plassmann family: one JP pass over the priority
    /// function of [`ordering_kind`](Self::ordering_kind).
    pub fn is_jp(&self) -> bool {
        use Algorithm::*;
        matches!(
            self,
            JpFf | JpR | JpLf | JpLlf | JpSl | JpSll | JpAsl | JpAdg | JpAdgM
        )
    }

    /// The vertex ordering this algorithm is built on, if it has one:
    /// the JP family's priority function, the ordered greedy baselines'
    /// sequence, and ITR-ASL's conflict-winner priorities. `None` for
    /// algorithms whose order is internal (first-fit, ID/SD, random
    /// speculation) or managed by the ADG decomposition.
    pub fn ordering_kind(&self, params: &Params) -> Option<OrderingKind> {
        use Algorithm::*;
        match self {
            GreedyLf | JpLf => Some(OrderingKind::LargestFirst),
            GreedySl | JpSl => Some(OrderingKind::SmallestLast),
            JpFf => Some(OrderingKind::FirstFit),
            JpR => Some(OrderingKind::Random),
            JpLlf => Some(OrderingKind::LargestLogFirst),
            JpSll => Some(OrderingKind::SmallestLogLast),
            JpAsl | ItrAsl => Some(OrderingKind::ApproxSmallestLast),
            JpAdg => Some(OrderingKind::Adg(
                params.adg_options(ThresholdRule::Average, params.epsilon),
            )),
            JpAdgM => Some(OrderingKind::Adg(
                params.adg_options(ThresholdRule::Median, params.epsilon),
            )),
            GreedyFf | GreedyId | GreedySd | Itr | ItrB | SimCol | DecAdg | DecAdgM | DecAdgItr => {
                None
            }
        }
    }
}

/// Shared run parameters (defaults mirror the paper's evaluation
/// parametrization: ε = 0.01, radix sort, batch sorting on; ADG's degree
/// update picks push or pull per level).
#[derive(Clone, Debug)]
pub struct Params {
    /// ADG accuracy knob ε for the JP-ADG family (paper default 0.01).
    pub epsilon: f64,
    /// DEC-ADG's ε: run-time bounds need ε > 4, quality needs ε ≤ 8 (§IV-B
    /// end note: "the algorithm attains its runtime and color bounds for
    /// 4 < ε ≤ 8").
    pub dec_epsilon: f64,
    /// Standalone SIM-COL's palette headroom µ > 0 (Alg. 5): palettes hold
    /// `⌈(1+µ)·deg(v)⌉` colors, so quality is ≤ ⌈(1+µ)Δ⌉ and larger µ means
    /// fewer conflict rounds.
    pub simcol_mu: f64,
    /// Seed for every random choice (orderings, SIM-COL draws, tie-breaks).
    pub seed: u64,
    /// Integer sort used inside ADG (§VI-J ablation).
    pub adg_sort: SortAlgo,
    /// Degree updates inside ADG: per-level choice by default, or forced
    /// push or pull (§V-E ablation).
    pub adg_update: UpdateStyle,
    /// §V-B explicit batch ordering on/off (§VI-J ablation).
    pub adg_sort_batches: bool,
    /// ITRB superstep size (vertices per batch); 0 means |U| (plain ITR).
    pub itrb_batch: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            epsilon: 0.01,
            dec_epsilon: 6.0,
            simcol_mu: 0.2,
            seed: 0xC0FFEE,
            adg_sort: SortAlgo::Radix,
            adg_update: UpdateStyle::Auto,
            adg_sort_batches: true,
            itrb_batch: 4096,
        }
    }
}

impl Params {
    pub(crate) fn adg_options(&self, rule: ThresholdRule, epsilon: f64) -> AdgOptions {
        AdgOptions {
            epsilon,
            rule,
            sort_batches: self.adg_sort_batches,
            sort_algo: self.adg_sort,
            update: self.adg_update,
            cache_degree_sum: true,
            seed: self.seed,
        }
    }
}

/// One coloring execution plus the measurements the paper reports.
#[derive(Clone, Debug)]
pub struct ColoringRun {
    /// Which algorithm produced this run.
    pub algorithm: Algorithm,
    /// Color per vertex, `0..num_colors`.
    pub colors: Vec<u32>,
    /// Number of distinct colors used (the paper's quality metric).
    pub num_colors: u32,
    /// Shared measurement record: times, rounds, conflicts.
    pub instr: Instrumentation,
}

impl ColoringRun {
    /// Package a finished coloring; `num_colors` is derived from `colors`.
    /// The parallel width is stamped by the phase timers at execution time
    /// (see [`Instrumentation::threads`]); the packaging-time width is only
    /// a fallback for runs whose phases never executed.
    pub fn new(algorithm: Algorithm, colors: Vec<u32>, mut instr: Instrumentation) -> Self {
        if instr.threads == 0 {
            instr.threads = rayon::current_num_threads();
        }
        Self {
            algorithm,
            num_colors: verify::num_colors(&colors),
            colors,
            instr,
        }
    }

    /// Total wall time.
    pub fn total_time(&self) -> Duration {
        self.instr.total_time()
    }

    /// Preprocessing/ordering wall time.
    pub fn ordering_time(&self) -> Duration {
        self.instr.ordering_time
    }

    /// Coloring wall time.
    pub fn coloring_time(&self) -> Duration {
        self.instr.coloring_time
    }

    /// Outer parallel rounds (peeling + coloring/repair rounds).
    pub fn rounds(&self) -> u32 {
        self.instr.rounds
    }

    /// Vertices re-colored due to conflicts.
    pub fn conflicts(&self) -> u64 {
        self.instr.conflicts
    }
}

/// Run `algo` on `g` with the given parameters. Accepts any [`GraphView`]
/// representation, with bit-identical output for the same abstract graph.
///
/// An algorithm built on a vertex ordering
/// ([`Algorithm::ordering_kind`]) charges it to the ordering phase: the
/// JP family's priorities, the LF/SL greedy sequences and ITR-ASL's
/// conflict winners. The DEC variants time their own ADG decomposition.
pub fn run<G: GraphView>(g: &G, algo: Algorithm, params: &Params) -> ColoringRun {
    use Algorithm::*;
    let mut instr = Instrumentation::default();
    let ord = algo
        .ordering_kind(params)
        .map(|kind| instr.ordering(|| pgc_order::compute(g, &kind, params.seed)));
    let colors = match algo {
        GreedyFf => instr.coloring(|| greedy::greedy_first_fit(g)),
        GreedyId => instr.coloring(|| greedy::greedy_incidence_degree(g)),
        GreedySd => instr.coloring(|| greedy::greedy_saturation_degree(g)),
        GreedyLf | GreedySl => {
            let ord = ord.expect("ordered greedy variants have an ordering");
            instr.coloring(|| greedy::greedy_by_priority(g, &ord.rho))
        }
        JpFf | JpR | JpLf | JpLlf | JpSl | JpSll | JpAsl | JpAdg | JpAdgM => {
            let ord = ord.expect("JP algorithms have an ordering");
            let colors = instr.coloring(|| jp::jp_color_ordering(g, &ord));
            instr.record_rounds(ord.stats.iterations, 0);
            colors
        }
        Itr | ItrB | ItrAsl => {
            // ITR-ASL's conflict winners come from its ordering, the
            // others' from a random permutation.
            let priority: Vec<u64> = match ord {
                Some(ord) => ord.rho,
                None => pgc_primitives::random_permutation(g.n(), params.seed ^ 0x17B)
                    .into_iter()
                    .map(|p| p as u64)
                    .collect(),
            };
            let batch = if algo == ItrB { params.itrb_batch } else { 0 };
            let out = instr.coloring(|| speculative::itr(g, &priority, batch, params.seed));
            instr.record_rounds(out.rounds, out.conflicts);
            out.colors
        }
        SimCol => {
            let (colors, stats) =
                instr.coloring(|| simcol::sim_col(g, params.simcol_mu, params.seed));
            instr.record_rounds(stats.rounds, stats.retries);
            colors
        }
        DecAdg => return dec::dec_adg(g, algo, ThresholdRule::Average, params),
        DecAdgM => return dec::dec_adg(g, algo, ThresholdRule::Median, params),
        DecAdgItr => return dec::dec_adg_itr(g, params),
    };
    ColoringRun::new(algo, colors, instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_graph::gen::{generate, GraphSpec};

    /// The loosest deterministic quality bound each algorithm promises on
    /// any graph (Δ+1 for first-fit-style draws, ⌈(1+µ)Δ⌉ for SIM-COL's
    /// random palettes, (2+ε)d ≤ (2+ε)Δ for DEC-ADG's).
    fn universal_bound(algo: Algorithm, delta: u32, params: &Params) -> u32 {
        match algo {
            Algorithm::SimCol => verify::bounds::sim_col(delta, params.simcol_mu),
            Algorithm::DecAdg | Algorithm::DecAdgM => {
                verify::bounds::dec_adg_m(delta, params.dec_epsilon).max(1)
            }
            _ => verify::bounds::trivial(delta),
        }
    }

    #[test]
    fn every_algorithm_produces_a_proper_coloring() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            7,
        );
        let params = Params::default();
        for algo in Algorithm::all() {
            let run = run(&g, algo, &params);
            verify::assert_proper(&g, &run.colors);
            assert!(run.num_colors > 0, "{}", algo.name());
            let bound = universal_bound(algo, g.max_degree(), &params);
            assert!(
                run.num_colors <= bound,
                "{} used {} colors, above its universal bound {bound}",
                algo.name(),
                run.num_colors
            );
        }
    }

    #[test]
    fn algorithms_handle_trivial_graphs() {
        let params = Params::default();
        for spec in [
            GraphSpec::Empty { n: 0 },
            GraphSpec::Empty { n: 4 },
            GraphSpec::Complete { n: 1 },
            GraphSpec::Complete { n: 2 },
            GraphSpec::Path { n: 3 },
        ] {
            let g = generate(&spec, 0);
            for algo in Algorithm::all() {
                let r = run(&g, algo, &params);
                verify::assert_proper(&g, &r.colors);
                if g.n() > 0 && g.m() == 0 {
                    assert_eq!(r.num_colors, 1, "{} on {spec:?}", algo.name());
                }
            }
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Algorithm::all().iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::all().len());
    }

    #[test]
    fn speculative_classification() {
        assert!(Algorithm::Itr.is_speculative());
        assert!(Algorithm::SimCol.is_speculative());
        assert!(Algorithm::DecAdgItr.is_speculative());
        assert!(!Algorithm::JpAdg.is_speculative());
        assert!(!Algorithm::GreedySl.is_speculative());
    }

    #[test]
    fn ordering_kinds_match_names() {
        let params = Params::default();
        assert_eq!(
            Algorithm::JpAdg.ordering_kind(&params).unwrap().name(),
            "ADG"
        );
        assert_eq!(
            Algorithm::JpAdgM.ordering_kind(&params).unwrap().name(),
            "ADG-M"
        );
        assert_eq!(
            Algorithm::GreedySl.ordering_kind(&params).unwrap().name(),
            "SL"
        );
        assert!(Algorithm::Itr.ordering_kind(&params).is_none());
        assert!(Algorithm::DecAdg.ordering_kind(&params).is_none());
    }
}
