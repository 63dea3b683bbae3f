//! Compressed-graph layer, end to end through the facade: the
//! delta-varint codec on adversarial runs, `CompressedCsr` ≡
//! `CompactCsr` over arbitrary graphs, bit-identical colorings for every
//! registered algorithm, the v2 snapshot round trip (and its corruption
//! rejection), and the ≥2× neighbor-byte saving the fig2 generator
//! families are pinned to.

use parallel_graph_coloring as pgc;
use pgc::color::{run, Algorithm, Params};
use pgc::graph::builder::from_edges;
use pgc::graph::gen::{generate, generate_with_stats, suite, GraphSpec};
use pgc::graph::{CompactCsr, CompressedCsr, GraphView};
use pgc::primitives::varint;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Codec properties on adversarial runs
// ---------------------------------------------------------------------

/// Strategy: a strictly ascending `u32` run shaped to stress the block
/// codec — dense consecutive stretches (gap−1 = 0 everywhere), sparse
/// values spread over the full 32-bit range (5-byte deltas), and
/// lengths straddling the 64-value block boundary. (Built from a seeded
/// splitmix walk because the proptest shim's `prop_oneof!` is
/// homogeneous and has no `any`/`btree_set` strategies.)
fn arb_sorted_run() -> impl Strategy<Value = Vec<u32>> {
    (0usize..3, 0u64..u64::MAX, 0usize..=200).prop_map(|(mode, seed, len)| {
        let mut x = seed | 1;
        let mut step = move || {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ (x >> 31);
            x
        };
        match mode {
            // Dense: consecutive ids, the best case (1-byte zero deltas).
            0 => {
                let start = (step() % 100_000) as u32;
                (start..start.saturating_add(len as u32)).collect()
            }
            // Sparse: values spread over the whole u32 range (deduped and
            // sorted — worst-case 5-byte deltas appear regularly).
            1 => {
                let mut v: Vec<u32> = (0..len).map(|_| step() as u32).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            // Block-boundary lengths: 62..=130 values of mixed gaps.
            _ => {
                let len = 62 + (step() % 69) as usize;
                let mut v = Vec::with_capacity(len);
                let mut cur = 0u32;
                for _ in 0..len {
                    cur = cur.saturating_add((step() % 1000) as u32 + 1);
                    v.push(cur);
                }
                v.dedup();
                v
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn varint_round_trips_adversarial_runs(values in arb_sorted_run()) {
        let mut buf = Vec::new();
        varint::encode_into(&values, &mut buf);
        prop_assert_eq!(varint::encoded_len(&values), buf.len());
        prop_assert_eq!(varint::decode_all(&buf, values.len()), values);
    }

    #[test]
    fn varint_contains_matches_membership(values in arb_sorted_run(), probes in proptest::collection::vec(0u32..u32::MAX, 1..20)) {
        let mut buf = Vec::new();
        varint::encode_into(&values, &mut buf);
        // Probe members and arbitrary values; each probe gets a fresh
        // decoder (contains consumes the candidate block).
        for &t in values.iter().take(10).chain(probes.iter()) {
            let expect = values.binary_search(&t).is_ok();
            let mut dec = varint::Decoder::new(&buf, values.len());
            prop_assert_eq!(dec.contains(t), expect, "target {}", t);
        }
    }

    #[test]
    fn varint_skip_to_matches_linear_scan(values in arb_sorted_run(), target in 0u32..u32::MAX) {
        let mut buf = Vec::new();
        varint::encode_into(&values, &mut buf);
        let mut dec = varint::Decoder::new(&buf, values.len());
        dec.skip_to(target);
        let mut rest = Vec::new();
        dec.decode_into(&mut rest);
        // skip_to only drops whole blocks strictly below the target: the
        // remainder is a suffix of the run, and everything skipped is
        // < target (so every value ≥ target survives the gallop).
        let cut = values.len() - rest.len();
        prop_assert_eq!(&rest, &values[cut..]);
        prop_assert!(values[..cut].iter().all(|&v| v < target));
    }
}

// ---------------------------------------------------------------------
// Representation equivalence on arbitrary graphs
// ---------------------------------------------------------------------

/// Strategy: an arbitrary simple undirected graph (same shape as
/// `tests/properties.rs`).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CompactCsr> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compressed_matches_compact(g in arb_graph(80, 400)) {
        let z = CompressedCsr::from_compact(&g);
        prop_assert_eq!(z.n(), g.n());
        prop_assert_eq!(GraphView::m(&z), g.m());
        prop_assert_eq!(GraphView::max_degree(&z), g.max_degree());
        prop_assert_eq!(GraphView::min_degree(&z), g.min_degree());
        for v in g.vertices() {
            prop_assert_eq!(GraphView::degree(&z, v), g.degree(v));
            let a: Vec<u32> = g.neighbors(v).to_vec();
            let b: Vec<u32> = GraphView::neighbors(&z, v).collect();
            prop_assert_eq!(a, b, "vertex {}", v);
        }
        // Membership probes agree on edges and non-edges.
        for v in g.vertices().take(8) {
            for u in 0..g.n() as u32 {
                prop_assert_eq!(GraphView::has_edge(&z, v, u), g.has_edge(v, u));
            }
        }
        // And the inverse converter is lossless.
        prop_assert_eq!(&z.to_compact(), &g);
    }
}

// ---------------------------------------------------------------------
// Algorithms are representation-blind
// ---------------------------------------------------------------------

#[test]
fn every_algorithm_colors_bit_identically() {
    let params = Params::default();
    for (tag, g) in [
        (
            "rmat",
            generate(
                &GraphSpec::Rmat {
                    scale: 9,
                    edge_factor: 8,
                },
                7,
            ),
        ),
        (
            "ba",
            generate(
                &GraphSpec::BarabasiAlbert {
                    n: 2_000,
                    attach: 6,
                },
                7,
            ),
        ),
    ] {
        let z = CompressedCsr::from_compact(&g);
        for algo in Algorithm::all() {
            let rc = run(&g, algo, &params);
            let rz = run(&z, algo, &params);
            assert_eq!(
                rc.colors, rz.colors,
                "{algo:?} on {tag}: compressed coloring diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot v2 through the public API
// ---------------------------------------------------------------------

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pgc-test-compressed-{}-{tag}.pgcs",
        std::process::id()
    ))
}

#[test]
fn v2_snapshot_round_trips_and_rejects_corruption() {
    let g = generate(
        &GraphSpec::Rmat {
            scale: 10,
            edge_factor: 8,
        },
        3,
    );
    let path = temp_path("v2");
    pgc::graph::write_compressed_snapshot(&CompressedCsr::from_compact(&g), &path).unwrap();

    // Transparent load back to raw arrays…
    let back = pgc::graph::load_snapshot(&path).unwrap();
    assert_eq!(back, g);
    // …and the compressed graph loaded from the same file.
    let z = pgc::graph::load_compressed_snapshot(&path).unwrap();
    assert_eq!(z.n(), g.n());
    for v in g.vertices() {
        assert!(
            GraphView::neighbors(&z, v).eq(g.neighbors(v).iter().copied()),
            "vertex {v}"
        );
    }
    // The header survives inspection with the compressed facts.
    let info = pgc::graph::inspect_snapshot(&path).unwrap();
    assert!(info.compressed);
    assert_eq!(info.n as usize, g.n());
    assert!(
        info.compression_ratio() <= 0.5,
        "{}",
        info.compression_ratio()
    );

    // Any truncation or bit flip must be rejected, not mis-decoded.
    let bytes = std::fs::read(&path).unwrap();
    for cut in [8, 63, 64, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            pgc::graph::load_compressed_snapshot(&path).is_err(),
            "truncation at {cut} accepted"
        );
    }
    for flip in [9, 20, 57, 80, bytes.len() / 2, bytes.len() - 2] {
        let mut bad = bytes.clone();
        bad[flip] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert!(
            pgc::graph::load_compressed_snapshot(&path).is_err(),
            "bit flip at {flip} accepted"
        );
        assert!(
            pgc::graph::load_snapshot(&path).is_err(),
            "bit flip at {flip} accepted by the raw loader"
        );
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// The fig2 families are pinned to the ≥2× byte saving
// ---------------------------------------------------------------------

#[test]
fn fig2_families_compress_at_least_2x() {
    let mut specs: Vec<(String, GraphSpec)> = suite(0)
        .into_iter()
        .filter(|sg| sg.name == "h-bai" || sg.name == "s-pok")
        .map(|sg| (sg.name.to_string(), sg.spec))
        .collect();
    assert_eq!(specs.len(), 2, "fig2 strong-scaling proxies present");
    specs.push((
        "kron-ef8".into(),
        GraphSpec::Rmat {
            scale: 12,
            edge_factor: 8,
        },
    ));
    for (name, spec) in specs {
        let g = generate(&spec, 0xC0FFEE);
        let z = CompressedCsr::from_compact(&g);
        let raw = z.num_arcs() * std::mem::size_of::<u32>();
        assert!(
            2 * z.encoded_bytes() <= raw,
            "{name}: encoded {} > half of raw {raw}",
            z.encoded_bytes()
        );
    }
}

// ---------------------------------------------------------------------
// Memory accounting: scratch + converter peaks are charged
// ---------------------------------------------------------------------

#[test]
fn star_graph_charges_decode_scratch_into_aux() {
    // One hub of degree n−1: the per-thread decode scratch saturates at
    // its 4096-value cap and must show up in aux_bytes alongside the
    // byte-offset index (the GraphMemory split the harness prints).
    let g = generate(&GraphSpec::Star { n: 10_000 }, 0);
    let z = CompressedCsr::from_compact(&g);
    let budget = z.decode_scratch_budget();
    assert!(budget > 0, "star decode scratch must be charged");
    let fp = z.memory_footprint();
    assert_eq!(fp.encoded_bytes, z.encoded_bytes());
    // aux = byte-offset index ((n+1) narrow entries) + scratch budget.
    assert!(
        fp.aux_bytes >= (g.n() + 1) * 4 + budget,
        "aux {} missing index or scratch (budget {budget})",
        fp.aux_bytes
    );
    // The scratch cap bounds the budget even though Δ ≫ the cap.
    let threads = rayon::current_num_threads().max(1);
    let per_slot = pgc::graph::compressed::DECODE_SCRATCH_CAP * std::mem::size_of::<u32>();
    assert!(budget <= threads * pgc::graph::compressed::DECODE_SCRATCH_SLOTS * per_slot);
}

#[test]
fn converter_peak_is_charged_into_build_stats() {
    let (g, mut stats) = generate_with_stats(
        &GraphSpec::Rmat {
            scale: 11,
            edge_factor: 8,
        },
        1,
    );
    let before = stats.build_bytes_peak;
    let z = CompressedCsr::from_compact_with_stats(&g, &mut stats);
    let fp = g.memory_footprint();
    assert!(
        stats.build_bytes_peak >= fp.offset_bytes() + fp.neighbor_bytes(),
        "conversion holds the still-resident source: peak {} too small",
        stats.build_bytes_peak
    );
    assert!(stats.build_bytes_peak >= before, "peak never shrinks");
    assert!(z.encoded_bytes() > 0);
}
