//! PR-gate smoke test (fast): every algorithm produces a proper
//! coloring on one scale-free and one uniform random graph, and JP-ADG
//! stays within its headline 2(1+ε)d + 1 color bound.

use parallel_graph_coloring as pgc;
use pgc::color::{run, verify, Algorithm, Params};
use pgc::graph::degeneracy::degeneracy;
use pgc::graph::gen::{generate, GraphSpec};

fn smoke_graphs() -> Vec<(&'static str, pgc::graph::CompactCsr)> {
    vec![
        (
            "barabasi-albert",
            generate(
                &GraphSpec::BarabasiAlbert {
                    n: 1_500,
                    attach: 6,
                },
                42,
            ),
        ),
        (
            "erdos-renyi",
            generate(&GraphSpec::ErdosRenyi { n: 1_500, m: 7_500 }, 42),
        ),
    ]
}

#[test]
fn every_algorithm_colors_properly_on_smoke_graphs() {
    let params = Params::default();
    for (name, g) in smoke_graphs() {
        for algo in Algorithm::all() {
            let r = run(&g, algo, &params);
            verify::assert_proper(&g, &r.colors);
            assert!(r.num_colors > 0, "{} on {name}", algo.name());
            assert_eq!(r.algorithm, algo);
        }
    }
}

#[test]
fn jp_adg_respects_its_color_bound_on_smoke_graphs() {
    let params = Params::default();
    for (name, g) in smoke_graphs() {
        let d = degeneracy(&g).degeneracy;
        let bound = verify::bounds::jp_adg(d, params.epsilon);
        let r = run(&g, Algorithm::JpAdg, &params);
        verify::assert_proper(&g, &r.colors);
        assert!(
            r.num_colors <= bound,
            "JP-ADG on {name}: {} colors > 2(1+ε)d + 1 = {bound} (d = {d})",
            r.num_colors
        );
    }
}
