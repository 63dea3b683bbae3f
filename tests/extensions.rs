//! End-to-end pipelines for the extension modules: coloring → refinement →
//! balancing, and clique mining against coloring — features outside the
//! paper's tables, composed through the public facade.

use parallel_graph_coloring as pgc;
use pgc::color::refine::{balance_colors, balance_stats, iterated_greedy};
use pgc::color::{run, verify, Algorithm, Params};
use pgc::graph::gen::{generate, GraphSpec};

#[test]
fn color_refine_balance_pipeline() {
    // The production pipeline a scheduler would run: fast parallel coloring,
    // then quality refinement, then load balancing.
    let g = generate(
        &GraphSpec::BarabasiAlbert {
            n: 8_000,
            attach: 9,
        },
        21,
    );
    let params = Params::default();

    let stage1 = run(&g, Algorithm::JpAdg, &params);
    verify::assert_proper(&g, &stage1.colors);

    let stage2 = iterated_greedy(&g, &stage1.colors, 6, params.seed);
    verify::assert_proper(&g, &stage2);
    let k2 = verify::num_colors(&stage2);
    assert!(k2 <= stage1.num_colors, "refinement must not add colors");

    let stage3 = balance_colors(&g, &stage2, 20);
    verify::assert_proper(&g, &stage3);
    assert!(verify::num_colors(&stage3) <= k2);
    let (_, _, imb2) = balance_stats(&stage2);
    let (_, _, imb3) = balance_stats(&stage3);
    assert!(imb3 <= imb2 + 1e-9, "balancing must not worsen imbalance");
}

#[test]
fn refinement_composes_with_every_parallel_algorithm() {
    let g = generate(
        &GraphSpec::Rmat {
            scale: 10,
            edge_factor: 8,
        },
        4,
    );
    let params = Params::default();
    for algo in [Algorithm::JpR, Algorithm::Itr, Algorithm::DecAdg] {
        let base = run(&g, algo, &params);
        let refined = iterated_greedy(&g, &base.colors, 3, 5);
        verify::assert_proper(&g, &refined);
        assert!(
            verify::num_colors(&refined) <= base.num_colors,
            "{}",
            algo.name()
        );
    }
}

#[test]
fn mining_and_coloring_agree_on_structure() {
    // The clique number lower-bounds every proper coloring; ADG-based
    // coloring should sit between ω and the degeneracy bound.
    let g = generate(
        &GraphSpec::RingOfCliques {
            cliques: 12,
            clique_size: 9,
        },
        0,
    );
    let omega = pgc::mining::max_clique_size(&g) as u32;
    assert_eq!(omega, 9);
    let r = run(&g, Algorithm::JpAdg, &Params::default());
    assert!(r.num_colors >= omega, "chromatic >= clique number");
    let d = pgc::graph::degeneracy::degeneracy(&g).degeneracy;
    assert!(r.num_colors <= verify::bounds::jp_adg(d, 0.01));
}
