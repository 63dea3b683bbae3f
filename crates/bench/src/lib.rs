//! Shared fixtures for the criterion benches.
//!
//! One bench target per paper table/figure (see DESIGN.md §6). Benchmarks
//! are sized so a full `cargo bench` completes in minutes on one core;
//! `pgc` (the harness binary) runs the same experiments at full scale.

#![forbid(unsafe_code)]

use pgc_graph::gen::{generate, GraphSpec};
use pgc_graph::CompactCsr;

/// The scale-free workhorse graph (h-bai-like proxy) used across benches.
pub fn bench_graph_scale_free() -> CompactCsr {
    generate(
        &GraphSpec::Rmat {
            scale: 13,
            edge_factor: 8,
        },
        0xBE7C,
    )
}

/// A social-network-like proxy (s-pok).
pub fn bench_graph_social() -> CompactCsr {
    generate(
        &GraphSpec::BarabasiAlbert {
            n: 20_000,
            attach: 10,
        },
        0xBE7C,
    )
}

/// A mesh proxy (v-usa).
pub fn bench_graph_mesh() -> CompactCsr {
    generate(
        &GraphSpec::Grid2d {
            rows: 150,
            cols: 150,
        },
        0,
    )
}

/// The conflict-heavy proxy (s-gmc).
pub fn bench_graph_clustered() -> CompactCsr {
    generate(
        &GraphSpec::RingOfCliques {
            cliques: 300,
            clique_size: 24,
        },
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_generate() {
        assert!(bench_graph_scale_free().m() > 0);
        assert!(bench_graph_social().m() > 0);
        assert!(bench_graph_mesh().m() > 0);
        assert!(bench_graph_clustered().m() > 0);
    }
}
