//! Multi-threaded correctness: every `Algorithm` variant must produce a
//! `verify`-valid coloring at widths 1, 2, and 8 — and, because every
//! algorithm in this workspace is schedule-deterministic (JP by the
//! function-of-predecessors argument, the speculative family by phase
//! barriers + total-order conflict rules, reductions by the fixed combine
//! tree), the *same* coloring at every width.

use parallel_graph_coloring as pgc;
use pgc::color::{run, verify, Algorithm, Params};
use pgc::graph::gen::{generate, GraphSpec};
use pgc_harness::experiments::with_threads;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn graphs() -> Vec<(&'static str, pgc::graph::CompactCsr)> {
    vec![
        // Big enough that parallel loops split into several leaves.
        (
            "rmat-11",
            generate(
                &GraphSpec::Rmat {
                    scale: 11,
                    edge_factor: 8,
                },
                3,
            ),
        ),
        (
            "cliques",
            generate(
                &GraphSpec::RingOfCliques {
                    cliques: 40,
                    clique_size: 12,
                },
                5,
            ),
        ),
    ]
}

#[test]
fn every_algorithm_is_proper_at_every_width() {
    let params = Params::default();
    for (name, g) in graphs() {
        for &t in &WIDTHS {
            with_threads(t, || {
                for algo in Algorithm::all() {
                    let r = run(&g, algo, &params);
                    verify::assert_proper(&g, &r.colors);
                    assert_eq!(
                        r.instr.threads,
                        t,
                        "{name}/{}: run must record its pool width",
                        algo.name()
                    );
                }
            });
        }
    }
}

/// Work stealing makes the *schedule* nondeterministic (which worker runs
/// which leaf depends on steal timing), so determinism must hold by
/// construction, not by luck: repeated runs at width 8 — each with fresh
/// steal jitter — must reproduce the exact same coloring.
#[test]
fn colorings_are_stable_across_repeated_stolen_runs() {
    let params = Params::default();
    let (name, g) = graphs().swap_remove(0);
    for algo in [Algorithm::JpLlf, Algorithm::Itr, Algorithm::JpAdg] {
        let baseline = with_threads(8, || run(&g, algo, &params)).colors;
        for rep in 1..4 {
            let colors = with_threads(8, || run(&g, algo, &params)).colors;
            assert_eq!(
                colors,
                baseline,
                "{name}/{}: width-8 rep {rep} diverged under steal jitter",
                algo.name()
            );
        }
    }
}

#[test]
fn colorings_are_identical_across_widths() {
    let params = Params::default();
    for (name, g) in graphs() {
        for algo in Algorithm::all() {
            let baseline = with_threads(1, || run(&g, algo, &params)).colors;
            for &t in &WIDTHS[1..] {
                let colors = with_threads(t, || run(&g, algo, &params)).colors;
                assert_eq!(
                    colors,
                    baseline,
                    "{name}/{}: width {t} diverged from sequential",
                    algo.name()
                );
            }
        }
    }
}

/// Oracle for the JP engines: JP with a fixed ρ is the sequential greedy
/// pass over decreasing ρ, whatever the schedule. Every engine entry point
/// — async, async with the ADG-fused predecessor counts, and
/// level-synchronous — must reproduce `greedy_by_priority` exactly, on
/// both adjacency representations and at every width.
#[test]
fn jp_engines_equal_sequential_greedy_by_priority() {
    use pgc::color::greedy::greedy_by_priority;
    use pgc::color::jp::{jp_color, jp_color_levels, jp_color_with_counts};
    use pgc::graph::{CompressedCsr, GraphView};
    use pgc::order::{compute, AdgOptions, OrderingKind};

    fn check<G: GraphView>(name: &str, g: &G, kind: &OrderingKind) {
        let ord = compute(g, kind, 17);
        let oracle = greedy_by_priority(g, &ord.rho);
        verify::assert_proper(g, &oracle);
        let is_adg = matches!(kind, OrderingKind::Adg(_));
        assert_eq!(ord.pred_counts.is_some(), is_adg, "{name}: fused counts");
        for t in [1, 2, 4] {
            let ctx = format!("{name}/{} at width {t}", kind.name());
            with_threads(t, || {
                assert_eq!(jp_color(g, &ord.rho), oracle, "{ctx}: jp_color");
                if let Some(counts) = &ord.pred_counts {
                    let c = jp_color_with_counts(g, &ord.rho, counts);
                    assert_eq!(c, oracle, "{ctx}: jp_color_with_counts");
                }
                let (c, _) = jp_color_levels(g, &ord.rho);
                assert_eq!(c, oracle, "{ctx}: jp_color_levels");
            });
        }
    }

    let kinds = [
        OrderingKind::Random,
        OrderingKind::LargestFirst,
        OrderingKind::SmallestLast,
        OrderingKind::Adg(AdgOptions::default()),
        OrderingKind::Adg(AdgOptions::median()),
    ];
    let specs = [
        (
            "rmat-11",
            GraphSpec::Rmat {
                scale: 11,
                edge_factor: 8,
            },
        ),
        (
            "ba-2000",
            GraphSpec::BarabasiAlbert {
                n: 2_000,
                attach: 6,
            },
        ),
        (
            "cliques",
            GraphSpec::RingOfCliques {
                cliques: 40,
                clique_size: 12,
            },
        ),
        ("star", GraphSpec::Star { n: 3_000 }),
    ];
    for (name, spec) in &specs {
        let g = generate(spec, 7);
        let z = CompressedCsr::from_compact(&g);
        for kind in &kinds {
            check(&format!("{name}/compact"), &g, kind);
            check(&format!("{name}/compressed"), &z, kind);
        }
    }
}
