//! **DEC-ADG** (Alg. 4, contribution #3) and **DEC-ADG-ITR** (§IV-C,
//! contribution #4).
//!
//! DEC-ADG abandons the JP scheduling skeleton entirely: ADG decomposes the
//! graph into ρ̄ ∈ O(log n) *low-degree partitions* (each vertex has at most
//! `k·d` neighbors in its own or higher partitions, `k = 2(1+ε/12)`), and
//! each partition is colored independently by SIM-COL, top partition first.
//! Forbidden-color bitmaps `B_v` carry the colors already committed by
//! higher partitions, so partitions never need re-coloring across levels —
//! conflicts only happen (and are retried) *inside* a partition, whose
//! degree is bounded. That is what turns speculative coloring's unbounded
//! `O(Δ·I)` behaviour into `O(log d log² n)` depth, `O(n+m)` work, and a
//! `(2+ε)d` color guarantee (Lemma 12 + Claim 2, for 4 < ε ≤ 8; quality
//! alone holds for all 0 < ε ≤ 8).
//!
//! DEC-ADG-ITR keeps the decomposition but swaps SIM-COL's random draw for
//! ITR's deterministic first-fit draw — the §IV-C recipe showing ADG can
//! upgrade an existing speculative heuristic (\[40\]) to a
//! `2(1+ε)d + 1` quality guarantee while staying fast in practice.
//!
//! Every variant runs the same driver: one
//! [`ConstraintAdjacency`] per run, whose row for `v` holds only the
//! `deg_ℓ(v) ≤ k·d` neighbors in `v`'s own or higher partitions (built by
//! two sweeps of the host graph, whatever its representation), then one
//! [`SimColEngine`] call per partition. SIM-COL's conflict scans therefore
//! touch only intra-partition adjacency (≤ `deg_ℓ`), never the full host
//! row. The coloring is bit-identical to scanning full host rows: bitmap
//! bits are only ever set, so skipping a re-absorb changes nothing, and
//! vertices outside the partition always carry `tent == UNCOLORED`, which
//! no draw can equal (see [`crate::simcol`]).

use crate::colorer::Instrumentation;
use crate::simcol::{palette_layout, ConstraintAdjacency, SimColEngine, SimColStats};
use crate::{Algorithm, ColoringRun, Params, UNCOLORED};
use pgc_graph::GraphView;
use pgc_order::adg::adg;
use pgc_order::{Levels, ThresholdRule};
use pgc_primitives::bitmap::AtomicBitmap;
use pgc_primitives::{offsets_from_counts, random_permutation};
use rayon::prelude::*;
use std::sync::atomic::AtomicU32;

/// Alg. 4 lines 9–19, shared by every DEC variant and by standalone
/// SIM-COL (one level): build the run's [`ConstraintAdjacency`] (two host
/// sweeps; its row lengths are `deg_ℓ`), lay out palettes and bitmaps from
/// `deg_ℓ` with `layout`, then color the partitions from the highest rank
/// down with `color(engine, R(ℓ), rounds so far)`. Returns (colors,
/// rounds, conflicts).
pub(crate) fn color_partitions<G: GraphView>(
    g: &G,
    levels: &Levels,
    seed: u64,
    layout: impl FnOnce(&[u32]) -> (Vec<u32>, Vec<usize>),
    color: impl Fn(&SimColEngine<'_>, &[u32], u64) -> SimColStats,
) -> (Vec<u32>, u32, u64) {
    let n = g.n();
    let adj = {
        let _constraints = pgc_obs::span!("dec.constraints");
        ConstraintAdjacency::build(g, &levels.rank)
    };
    let (palette, bv_offset) = layout(&adj.degrees());
    let bv = AtomicBitmap::new(*bv_offset.last().unwrap_or(&0));
    let uncolored = || -> Vec<AtomicU32> {
        (0..n)
            .into_par_iter()
            .map(|_| AtomicU32::new(UNCOLORED))
            .collect()
    };
    let (colors, tent) = (uncolored(), uncolored());
    let engine = SimColEngine {
        adj: &adj,
        colors: &colors,
        tent: &tent,
        bv: &bv,
        bv_offset: &bv_offset,
        palette: &palette,
        seed,
    };
    let mut rounds = 0u32;
    let mut conflicts = 0u64;
    for l in (0..levels.num_levels()).rev() {
        let _partition = pgc_obs::span!("dec.partition");
        let stats = color(&engine, levels.level(l), u64::from(rounds));
        rounds += stats.rounds;
        conflicts += stats.retries;
    }
    let colors: Vec<u32> = colors.into_iter().map(|c| c.into_inner()).collect();
    (colors, rounds, conflicts)
}

/// DEC-ADG / DEC-ADG-M. `rule` selects the average-degree (ε/12-accurate)
/// or median ADG variant; `params.dec_epsilon` is the ε of Alg. 4.
pub fn dec_adg<G: GraphView>(
    g: &G,
    algo: Algorithm,
    rule: ThresholdRule,
    params: &Params,
) -> ColoringRun {
    let eps = params.dec_epsilon;
    assert!(
        eps > 0.0 && eps <= 8.0,
        "DEC-ADG requires 0 < ε ≤ 8 (Claim 2)"
    );
    let mu = eps / 4.0; // Alg. 5 instantiation µ = ε/4.

    // Alg. 4 line 8: ADG* with accuracy ε/12 (so the Claim 2 algebra
    // (1+ε/4)·2(1+ε/12) ≤ 2+ε goes through).
    let mut instr = Instrumentation::default();
    let ord = instr.ordering(|| adg(g, &params.adg_options(rule, eps / 12.0)));
    let levels = ord.levels.expect("ADG always produces levels");
    instr.record_rounds(ord.stats.iterations, 0);

    // Alg. 4 line 11: bitmaps of ⌈(1+µ)·deg_ℓ(v)⌉(+1) bits; SIM-COL line 7
    // draws from exactly that palette.
    let (colors, rounds, conflicts) = instr.coloring(|| {
        color_partitions(
            g,
            &levels,
            params.seed ^ 0xDEC,
            |deg_l| palette_layout(deg_l, mu),
            |engine, members, round_base| engine.color_partition_random(members, round_base),
        )
    });
    instr.record_rounds(rounds, conflicts);
    ColoringRun::new(algo, colors, instr)
}

/// DEC-ADG-ITR (§IV-C): ADG decomposition + first-fit speculative coloring
/// within each partition. Quality ≤ ⌈2(1+ε)d⌉ + 1 with ε = `params.epsilon`
/// (the JP-ADG knob, default 0.01 — this algorithm competes in the same
/// quality regime as JP-ADG, unlike DEC-ADG's larger ε).
pub fn dec_adg_itr<G: GraphView>(g: &G, params: &Params) -> ColoringRun {
    let mut instr = Instrumentation::default();
    let ord = instr.ordering(|| {
        adg(
            g,
            &params.adg_options(ThresholdRule::Average, params.epsilon),
        )
    });
    let levels = ord.levels.expect("ADG always produces levels");
    instr.record_rounds(ord.stats.iterations, 0);

    // Conflict winners by random priority (a total order guarantees
    // progress of the deterministic first-fit draw).
    let (colors, rounds, conflicts) = instr.coloring(|| {
        let priority: Vec<u64> = random_permutation(g.n(), params.seed ^ 0xABC)
            .into_iter()
            .map(|p| p as u64)
            .collect();
        color_partitions(
            g,
            &levels,
            params.seed ^ 0x17,
            // First-fit never needs more than deg_ℓ(v)+1 candidates.
            |deg_l| {
                let palette: Vec<u32> = deg_l.par_iter().map(|&d| d + 1).collect();
                let (bv_offset, _) = offsets_from_counts::<usize>(&palette);
                (palette, bv_offset)
            },
            |engine, members, _| engine.color_partition_first_fit(members, &priority),
        )
    });
    instr.record_rounds(rounds, conflicts);
    ColoringRun::new(Algorithm::DecAdgItr, colors, instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_proper, bounds};
    use pgc_graph::degeneracy::degeneracy;
    use pgc_graph::gen::{generate, GraphSpec};

    fn specs() -> Vec<GraphSpec> {
        vec![
            GraphSpec::ErdosRenyi { n: 600, m: 3000 },
            GraphSpec::BarabasiAlbert { n: 600, attach: 6 },
            GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            GraphSpec::Grid2d { rows: 20, cols: 25 },
            GraphSpec::RingOfCliques {
                cliques: 10,
                clique_size: 12,
            },
            GraphSpec::Star { n: 300 },
        ]
    }

    #[test]
    fn dec_adg_proper_and_within_bound() {
        let params = Params::default(); // dec_epsilon = 6.0
        for (i, spec) in specs().iter().enumerate() {
            let g = generate(spec, i as u64);
            let d = degeneracy(&g).degeneracy;
            let run = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
            assert_proper(&g, &run.colors);
            if d > 0 {
                assert!(
                    run.num_colors <= bounds::dec_adg(d, params.dec_epsilon),
                    "{spec:?}: {} > (2+ε)d = {}",
                    run.num_colors,
                    bounds::dec_adg(d, params.dec_epsilon)
                );
            }
        }
    }

    #[test]
    fn dec_adg_small_epsilon_quality() {
        // Claim 2 holds for all 0 < ε ≤ 8; smaller ε gives tighter colors
        // (at the cost of losing the w.h.p. runtime proof, which needs
        // ε > 4).
        let params = Params {
            dec_epsilon: 1.0,
            ..Params::default()
        };
        let g = generate(&GraphSpec::BarabasiAlbert { n: 800, attach: 8 }, 2);
        let d = degeneracy(&g).degeneracy;
        let run = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
        assert_proper(&g, &run.colors);
        assert!(run.num_colors <= bounds::dec_adg(d, 1.0));
    }

    #[test]
    fn dec_adg_m_proper_and_within_bound() {
        let params = Params::default();
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 10,
            },
            4,
        );
        let d = degeneracy(&g).degeneracy;
        let run = dec_adg(&g, Algorithm::DecAdgM, ThresholdRule::Median, &params);
        assert_proper(&g, &run.colors);
        assert!(
            run.num_colors <= bounds::dec_adg_m(d, params.dec_epsilon),
            "{} > (4+ε)d",
            run.num_colors
        );
    }

    #[test]
    fn dec_adg_itr_proper_and_within_bound() {
        let params = Params::default(); // epsilon = 0.01
        for (i, spec) in specs().iter().enumerate() {
            let g = generate(spec, 100 + i as u64);
            let d = degeneracy(&g).degeneracy;
            let run = dec_adg_itr(&g, &params);
            assert_proper(&g, &run.colors);
            assert!(
                run.num_colors <= bounds::jp_adg(d, params.epsilon),
                "{spec:?}: {} > 2(1+ε)d+1 = {}",
                run.num_colors,
                bounds::jp_adg(d, params.epsilon)
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 500, m: 2500 }, 8);
        let params = Params::default();
        let a = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
        let b = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
        assert_eq!(a.colors, b.colors);
        let itr_a = dec_adg_itr(&g, &params);
        let itr_b = dec_adg_itr(&g, &params);
        assert_eq!(itr_a.colors, itr_b.colors);
    }

    #[test]
    fn constraint_adjacency_matches_rank_filtered_host_rows() {
        // Oracle: each row is the host row filtered by rank — equal ranks
        // first, then higher ranks, each in host order — and its length
        // deg_ℓ(v) obeys the §IV-B bound ⌈2(1+ε/12)·d⌉. The arrays do not
        // depend on the host representation.
        use pgc_graph::gen::SpecSource;
        use pgc_graph::stream::build_compact_with_offset_limit;
        use pgc_graph::CompressedCsr;
        let spec = GraphSpec::BarabasiAlbert { n: 1000, attach: 7 };
        let g = generate(&spec, 5);
        let d = degeneracy(&g).degeneracy;
        let eps: f64 = 6.0;
        let ord = adg(
            &g,
            &Params::default().adg_options(ThresholdRule::Average, eps / 12.0),
        );
        let rank = ord.levels.unwrap().rank;
        let adj = ConstraintAdjacency::build(&g, &rank);
        assert_eq!(adj.n(), g.n());
        let bound = (2.0 * (1.0 + eps / 12.0) * d as f64).ceil() as u32;
        let deg_l = adj.degrees();
        for v in g.vertices() {
            let rv = rank[v as usize];
            let with = |keep: fn(u32, u32) -> bool| -> Vec<u32> {
                GraphView::neighbors(&g, v)
                    .filter(|&u| keep(rank[u as usize], rv))
                    .collect()
            };
            assert_eq!(adj.same_level(v), with(|ru, rv| ru == rv), "v={v}");
            assert_eq!(adj.higher_level(v), with(|ru, rv| ru > rv), "v={v}");
            assert_eq!(adj.degree(v), deg_l[v as usize]);
            assert!(adj.degree(v) <= bound, "deg_ℓ({v}) > ⌈kd⌉ = {bound}");
        }

        let src = SpecSource::new(spec, 5);
        let (wide, _) = build_compact_with_offset_limit(&src, 0).unwrap();
        assert_eq!(wide.offset_width(), 8);
        assert_eq!(ConstraintAdjacency::build(&wide, &rank), adj);
        let compressed = CompressedCsr::from_compact(&g);
        assert_eq!(ConstraintAdjacency::build(&compressed, &rank), adj);
    }

    #[test]
    fn trivial_graphs() {
        let params = Params::default();
        for spec in [GraphSpec::Empty { n: 0 }, GraphSpec::Empty { n: 5 }] {
            let g = generate(&spec, 0);
            let run = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
            assert_proper(&g, &run.colors);
            let run = dec_adg_itr(&g, &params);
            assert_proper(&g, &run.colors);
        }
    }

    #[test]
    #[should_panic(expected = "0 < ε ≤ 8")]
    fn rejects_out_of_range_epsilon() {
        let g = generate(&GraphSpec::Path { n: 4 }, 0);
        let params = Params {
            dec_epsilon: 9.0,
            ..Params::default()
        };
        dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
    }

    #[test]
    fn conflicts_recorded_on_cliques() {
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 8,
                clique_size: 16,
            },
            3,
        );
        let params = Params::default();
        let run = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
        // Tight palettes inside clique partitions must retry sometimes.
        assert!(run.rounds() > 0);
        assert_proper(&g, &run.colors);
    }
}
