//! Sequential Greedy coloring (Table III, class 2).
//!
//! Greedy \[25\] scans vertices in some order and gives each the smallest
//! color not used by an already-colored neighbor. The *order* is the whole
//! game: static orders (FF, LF, SL) are driven by a priority vector, while
//! ID and SD re-prioritize dynamically as vertices get colored — they are
//! the best-quality (and inherently sequential) baselines of the paper.

use crate::UNCOLORED;
use pgc_graph::GraphView;
use pgc_primitives::FixedBitmap;

/// Greedy over an explicit vertex sequence.
pub fn greedy_in_sequence<G: GraphView>(g: &G, seq: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut colors = vec![UNCOLORED; g.n()];
    let mut forbidden = FixedBitmap::new(0);
    for v in seq {
        colors[v as usize] = smallest_free(g, v, &colors, &mut forbidden);
    }
    colors
}

/// Smallest color not used by any already-colored neighbor of `v`.
/// The answer is ≤ deg(v), so a deg(v)+1-bit scratch bitmap suffices; any
/// neighbor color beyond it can never be the smallest free color.
fn smallest_free<G: GraphView>(g: &G, v: u32, colors: &[u32], forbidden: &mut FixedBitmap) -> u32 {
    let cap = g.degree(v) as usize + 1;
    forbidden.clear_all();
    forbidden.ensure_len(cap);
    for u in g.neighbors(v) {
        let c = colors[u as usize];
        if c != UNCOLORED && (c as usize) < cap {
            forbidden.set(c as usize);
        }
    }
    forbidden.first_zero_from(0) as u32
}

/// Greedy first-fit: the natural vertex order.
pub fn greedy_first_fit<G: GraphView>(g: &G) -> Vec<u32> {
    greedy_in_sequence(g, g.vertices())
}

/// Greedy in decreasing priority (matches JP's semantics: highest ρ first).
pub fn greedy_by_priority<G: GraphView>(g: &G, rho: &[u64]) -> Vec<u32> {
    greedy_in_sequence(g, pgc_order::by_decreasing_rho(rho))
}

/// Incidence-degree ordering \[1\]: repeatedly color the vertex with the most
/// *colored* neighbors (ties by the natural order via bucket FIFO).
///
/// Incidence counts only grow, so a lazy bucket queue gives `O(n + m)`.
pub fn greedy_incidence_degree<G: GraphView>(g: &G) -> Vec<u32> {
    let n = g.n();
    let mut colors = vec![UNCOLORED; n];
    if n == 0 {
        return colors;
    }
    let mut incidence = vec![0u32; n];
    let max_deg = g.max_degree() as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
    buckets[0] = (0..n as u32).collect();
    let mut top = 0usize;
    let mut forbidden = FixedBitmap::new(0);
    let mut colored = 0usize;
    while colored < n {
        // Find the highest non-empty bucket (top only moves up on update,
        // and down while popping — amortized O(n + m)).
        while buckets[top].is_empty() {
            top = top.checked_sub(1).expect("uncolored vertex must exist");
        }
        let v = buckets[top].pop().unwrap();
        if colors[v as usize] != UNCOLORED || incidence[v as usize] as usize != top {
            continue; // stale entry
        }
        colors[v as usize] = smallest_free(g, v, &colors, &mut forbidden);
        colored += 1;
        for u in g.neighbors(v) {
            if colors[u as usize] == UNCOLORED {
                incidence[u as usize] += 1;
                let b = incidence[u as usize] as usize;
                buckets[b].push(u);
                top = top.max(b);
            }
        }
    }
    colors
}

/// Saturation-degree ordering (DSATUR) \[27\]: repeatedly color the vertex
/// whose neighbors use the most *distinct* colors.
///
/// Saturation only grows; per-vertex distinct-color sets are kept as sorted
/// vectors (Θ(m) total memory in the worst case, cheap in practice).
pub fn greedy_saturation_degree<G: GraphView>(g: &G) -> Vec<u32> {
    let n = g.n();
    let mut colors = vec![UNCOLORED; n];
    if n == 0 {
        return colors;
    }
    let mut seen: Vec<Vec<u32>> = vec![Vec::new(); n];
    let max_sat = g.max_degree() as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_sat + 1];
    // Initial tie-break: largest degree first within saturation 0 (the
    // classic DSATUR secondary key), realized by pushing ascending-degree
    // so pops see the largest degree last-in-first-out.
    let mut init: Vec<u32> = (0..n as u32).collect();
    init.sort_unstable_by_key(|&v| g.degree(v));
    buckets[0] = init;
    let mut top = 0usize;
    let mut forbidden = FixedBitmap::new(0);
    let mut colored = 0usize;
    while colored < n {
        while buckets[top].is_empty() {
            top = top.checked_sub(1).expect("uncolored vertex must exist");
        }
        let v = buckets[top].pop().unwrap();
        if colors[v as usize] != UNCOLORED || seen[v as usize].len() != top {
            continue; // stale entry
        }
        let c = smallest_free(g, v, &colors, &mut forbidden);
        colors[v as usize] = c;
        colored += 1;
        for u in g.neighbors(v) {
            if colors[u as usize] == UNCOLORED {
                let s = &mut seen[u as usize];
                if let Err(pos) = s.binary_search(&c) {
                    s.insert(pos, c);
                    let b = s.len();
                    buckets[b].push(u);
                    top = top.max(b);
                }
            }
        }
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_proper, num_colors};
    use pgc_graph::builder::from_edges;
    use pgc_graph::gen::{generate, GraphSpec};

    fn all_greedy<G: GraphView>(g: &G) -> Vec<(&'static str, Vec<u32>)> {
        vec![
            ("ff", greedy_first_fit(g)),
            ("id", greedy_incidence_degree(g)),
            ("sd", greedy_saturation_degree(g)),
        ]
    }

    #[test]
    fn proper_on_varied_graphs() {
        for spec in [
            GraphSpec::ErdosRenyi { n: 400, m: 1600 },
            GraphSpec::BarabasiAlbert { n: 400, attach: 5 },
            GraphSpec::Grid2d { rows: 12, cols: 17 },
            GraphSpec::Complete { n: 25 },
            GraphSpec::Star { n: 50 },
            GraphSpec::Empty { n: 10 },
        ] {
            let g = generate(&spec, 3);
            for (name, colors) in all_greedy(&g) {
                assert_proper(&g, &colors);
                assert!(
                    num_colors(&colors) <= g.max_degree() + 1,
                    "{name} on {spec:?}"
                );
            }
        }
    }

    #[test]
    fn bipartite_sd_uses_two_colors() {
        // DSATUR is exact on bipartite graphs.
        let g = generate(&GraphSpec::Grid2d { rows: 10, cols: 10 }, 0);
        assert_eq!(num_colors(&greedy_saturation_degree(&g)), 2);
    }

    #[test]
    fn complete_graph_uses_n_colors() {
        let g = generate(&GraphSpec::Complete { n: 9 }, 0);
        for (name, colors) in all_greedy(&g) {
            assert_eq!(num_colors(&colors), 9, "{name}");
        }
    }

    #[test]
    fn sl_priority_respects_degeneracy_bound() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 600, attach: 4 }, 5);
        let d = pgc_graph::degeneracy::degeneracy(&g).degeneracy;
        let ord = pgc_order::compute(&g, &pgc_order::OrderingKind::SmallestLast, 1);
        let colors = greedy_by_priority(&g, &ord.rho);
        assert_proper(&g, &colors);
        assert!(
            num_colors(&colors) <= d + 1,
            "{} > d+1",
            num_colors(&colors)
        );
    }

    #[test]
    fn greedy_in_sequence_respects_order() {
        // Path 0-1-2: coloring middle first gives it color 0.
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let colors = greedy_in_sequence(&g, [1u32, 0, 2]);
        assert_eq!(colors[1], 0);
        assert_eq!(colors[0], 1);
        assert_eq!(colors[2], 1);
    }

    #[test]
    fn id_prefers_incident_vertices() {
        let g = generate(&GraphSpec::Cycle { n: 30 }, 0);
        let colors = greedy_incidence_degree(&g);
        assert_proper(&g, &colors);
        assert!(num_colors(&colors) <= 3);
    }
}
