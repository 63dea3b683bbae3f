//! Integration suite for the binary snapshot format (`pgc::graph::snapshot`).
//!
//! The format's contract, pinned from outside the crate:
//!
//! 1. **Round-trip fidelity** — write → load reproduces the exact CSR
//!    (offsets, neighbors) for arbitrary graphs, through both loaders
//!    (`load_snapshot` into a `CompactCsr`, `load_compressed_snapshot`
//!    into a `CompressedCsr`); files written with a weights section by
//!    older builds still load as their structure.
//! 2. **Algorithm transparency** — all 21 coloring algorithms and the
//!    mining kernels produce bit-identical output on a snapshot-loaded
//!    graph vs the originally built one. A snapshot is a representation
//!    detail, never a semantic change.
//! 3. **Corruption rejection** — truncation and bit flips anywhere in the
//!    file surface as `io::ErrorKind::InvalidData`, never as a wrong
//!    graph or a panic.

use parallel_graph_coloring as pgc;
use pgc::color::{run, verify, Algorithm, Params};
use pgc::graph::builder::from_edges;
use pgc::graph::gen::{generate, GraphSpec, SpecSource};
use pgc::graph::snapshot::{
    inspect_snapshot, is_snapshot, load_compressed_snapshot, load_snapshot, load_snapshot_bytes,
    write_compressed_snapshot, write_compressed_snapshot_to, write_snapshot, write_snapshot_to,
    SNAPSHOT_EXT,
};
use pgc::graph::stream::build_compact_with_offset_limit;
use pgc::graph::{CompactCsr, CompressedCsr, GraphView};
use pgc::mining;
use proptest::prelude::*;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Strategy: raw edge list + vertex count (dedup happens in the builder).
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| (n, edges))
    })
}

/// Structural equality between any two `GraphView`s: n, m, degrees, and
/// full adjacency.
fn assert_same_graph<A: GraphView, B: GraphView>(a: &A, b: &B) {
    assert_eq!(a.n(), b.n());
    assert_eq!(a.m(), b.m());
    for v in a.vertices() {
        assert_eq!(a.degree(v), b.degree(v), "degree mismatch at v={v}");
        assert_eq!(
            a.neighbors(v).collect::<Vec<_>>(),
            b.neighbors(v).collect::<Vec<_>>(),
            "adjacency mismatch at v={v}"
        );
    }
}

/// Run `f` on a uniquely named temp snapshot path, then remove the file
/// (also on panic, via a drop guard).
fn with_temp_path<R>(tag: &str, f: impl FnOnce(&Path) -> R) -> R {
    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
    let path = std::env::temp_dir().join(format!(
        "pgc-test-{}-{tag}.{SNAPSHOT_EXT}",
        std::process::id()
    ));
    let guard = Cleanup(path);
    f(&guard.0)
}

/// Write a graph to a uniquely named temp snapshot, run `f` on the path,
/// then clean up.
fn with_snapshot_file<R>(g: &CompactCsr, tag: &str, f: impl FnOnce(&Path) -> R) -> R {
    with_temp_path(tag, |path| {
        write_snapshot(g, path).expect("write snapshot");
        f(path)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip through in-memory bytes is lossless for arbitrary
    /// graphs, and the serialized prefix carries the sniffable magic.
    #[test]
    fn snapshot_round_trips_arbitrary_graphs((n, edges) in arb_edges(60, 240)) {
        let g = from_edges(n, &edges);
        let mut bytes = Vec::new();
        write_snapshot_to(&g, &mut bytes).unwrap();
        prop_assert!(is_snapshot(&bytes));
        let back = load_snapshot_bytes(&bytes).unwrap();
        assert_same_graph(&g, &back);
    }

    /// Truncating the byte stream at any point is rejected as
    /// `InvalidData` (or `UnexpectedEof` inside the header read) — never
    /// a silently wrong graph.
    #[test]
    fn truncation_is_rejected((n, edges) in arb_edges(30, 100), frac in 0u32..1000) {
        let g = from_edges(n, &edges);
        let mut bytes = Vec::new();
        write_snapshot_to(&g, &mut bytes).unwrap();
        let cut = (bytes.len() - 1) * frac as usize / 1000;
        let err = load_snapshot_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(err.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
            "truncation at {cut}/{} gave {:?}", bytes.len(), err.kind()
        );
    }

    /// Flipping any single bit is caught by one of the checksums.
    #[test]
    fn bit_flips_are_rejected((n, edges) in arb_edges(30, 100), pos in 0usize..10_000, bit in 0u8..8) {
        let g = from_edges(n, &edges);
        let mut bytes = Vec::new();
        write_snapshot_to(&g, &mut bytes).unwrap();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match load_snapshot_bytes(&bytes) {
            Err(e) => prop_assert_eq!(e.kind(), ErrorKind::InvalidData),
            // Both checksums cover every byte they guard (the payload one
            // includes alignment padding), so a flip that loads cleanly is
            // a contract violation no matter what graph comes back.
            Ok(_) => prop_assert!(false, "bit flip at byte {pos} bit {bit} went undetected"),
        }
    }
}

/// All 21 algorithms produce bit-identical colorings on the built graph
/// and the snapshot-loaded copy.
#[test]
fn all_algorithms_identical_on_snapshot_loaded_graphs() {
    let specs = [
        GraphSpec::Rmat {
            scale: 9,
            edge_factor: 8,
        },
        GraphSpec::BarabasiAlbert { n: 600, attach: 6 },
    ];
    for (i, spec) in specs.iter().enumerate() {
        let built = generate(spec, 7);
        with_snapshot_file(&built, &format!("algos-{i}"), |path| {
            let loaded = load_snapshot(path).unwrap();
            assert_same_graph(&built, &loaded);
            let params = Params {
                seed: 42,
                ..Params::default()
            };
            for algo in Algorithm::all() {
                let a = run(&built, algo, &params);
                let b = run(&loaded, algo, &params);
                verify::assert_proper(&built, &a.colors);
                assert_eq!(
                    a.colors,
                    b.colors,
                    "{} differs between built and snapshot-loaded graphs",
                    algo.name()
                );
                assert_eq!(a.num_colors, b.num_colors);
            }
        });
    }
}

/// `g` has `small`'s structure, and every non-speculative algorithm
/// colors it exactly as it colors `small`.
fn assert_colors_like<G: GraphView>(small: &CompactCsr, g: &G, what: &str) {
    assert_same_graph(small, g);
    let params = Params::default();
    for algo in Algorithm::all().into_iter().filter(|a| !a.is_speculative()) {
        let (a, b) = (run(small, algo, &params), run(g, algo, &params));
        assert_eq!(a.colors, b.colors, "{} differs on {what}", algo.name());
    }
}

/// The 8-byte offset path end to end: a graph built with wide offsets is
/// written as v1 and v2, keeps 8-byte offsets on disk, and every reopened
/// copy colors exactly like the 4-byte build.
#[test]
fn wide_offsets_survive_v1_and_v2_snapshots() {
    let spec = GraphSpec::Rmat {
        scale: 9,
        edge_factor: 8,
    };
    let small = generate(&spec, 3);
    let (wide, _) = build_compact_with_offset_limit(&SpecSource::new(spec, 3), 0).unwrap();
    assert_eq!(wide.offset_width(), 8);
    type Write = fn(&CompactCsr, &Path) -> std::io::Result<u64>;
    for (version, write) in [
        (1u16, write_snapshot as Write),
        (2, |g, path| {
            write_compressed_snapshot(&CompressedCsr::from_compact(g), path)
        }),
    ] {
        with_temp_path(&format!("wide-v{version}"), |path| {
            write(&wide, path).unwrap();
            let info = inspect_snapshot(path).unwrap();
            assert_eq!(info.version, version);
            assert_eq!(info.offset_width, 8, "v{version} keeps 8-byte offsets");
            let loaded = load_snapshot(path).unwrap();
            assert_eq!(loaded.offset_width(), 8);
            assert_colors_like(&small, &loaded, "load_snapshot");
            let z = load_compressed_snapshot(path).unwrap();
            assert_colors_like(&small, &z, "load_compressed_snapshot");
        });
    }
}

/// Mining kernels (cliques, triangles) agree across the snapshot boundary
/// too — they exercise the intersection kernel on both representations.
#[test]
fn mining_identical_on_snapshot_loaded_graphs() {
    let built = generate(
        &GraphSpec::Rmat {
            scale: 8,
            edge_factor: 6,
        },
        11,
    );
    with_snapshot_file(&built, "mining", |path| {
        let loaded = load_snapshot(path).unwrap();
        let collect_cliques = |g: &CompactCsr| {
            let mut cs: Vec<Vec<u32>> = Vec::new();
            mining::maximal_cliques(g, &mut |c| cs.push(c.to_vec()));
            cs.sort();
            cs
        };
        assert_eq!(collect_cliques(&built), collect_cliques(&loaded));
        assert_eq!(
            mining::count_triangles(&built),
            mining::count_triangles(&loaded)
        );
        assert_eq!(
            mining::triangle_counts(&built),
            mining::triangle_counts(&loaded)
        );
    });
}

/// `io::read_graph` sniffs the snapshot magic: a `.pgcs` file opens
/// through the same call as a text graph and takes the binary path.
#[test]
fn text_readers_sniff_snapshot_magic() {
    let built = generate(
        &GraphSpec::Rmat {
            scale: 8,
            edge_factor: 4,
        },
        3,
    );
    with_snapshot_file(&built, "sniff", |path| {
        let via_reader = pgc::graph::io::read_graph(path).unwrap();
        assert_same_graph(&built, &via_reader);
    });
}

/// Backward-compat pin: `tests/fixtures/tiny-v1.pgcs` is a committed v1
/// snapshot of the Petersen graph in `tests/fixtures/tiny.mtx`. The v1
/// writer must keep producing those exact bytes (the compressed v2 path
/// is opt-in, never a silent format change), the pinned file must keep
/// loading — through the raw and compressed-capable loaders —
/// and every algorithm must color it exactly like the text-parsed graph.
#[test]
fn pinned_v1_fixture_stays_byte_identical_and_loads() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let g = pgc::graph::io::read_graph(&dir.join("tiny.mtx")).unwrap();

    let mut fresh = Vec::new();
    write_snapshot_to(&g, &mut fresh).unwrap();
    let pinned = std::fs::read(dir.join("tiny-v1.pgcs")).unwrap();
    assert_eq!(
        fresh, pinned,
        "v1 snapshot writer no longer byte-identical to the pinned fixture"
    );

    let loaded = load_snapshot(&dir.join("tiny-v1.pgcs")).unwrap();
    assert_same_graph(&g, &loaded);
    let z = pgc::graph::load_compressed_snapshot(&dir.join("tiny-v1.pgcs")).unwrap();
    assert_same_graph(&g, &z.to_compact());

    let params = Params::default();
    for algo in Algorithm::all() {
        let a = run(&g, algo, &params);
        let b = run(&loaded, algo, &params);
        assert_eq!(a.colors, b.colors, "{algo:?} diverged on the v1 fixture");
        verify::assert_proper(&loaded, &b.colors);
    }
}

/// Backward-compat pin for the compressed format:
/// `tests/fixtures/tiny-v2.pgcs` is the committed v2 snapshot of the same
/// Petersen graph (`pgc snapshot tiny.mtx tiny-v2.pgcs --compress`). The
/// v2 writer must keep producing those exact bytes, and the pinned file
/// must keep loading through the decoding and the arena-keeping loaders.
#[test]
fn pinned_v2_fixture_stays_byte_identical_and_loads() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let g = pgc::graph::io::read_graph(&dir.join("tiny.mtx")).unwrap();

    let mut fresh = Vec::new();
    write_compressed_snapshot_to(&CompressedCsr::from_compact(&g), &mut fresh).unwrap();
    let pinned = std::fs::read(dir.join("tiny-v2.pgcs")).unwrap();
    assert_eq!(
        fresh, pinned,
        "v2 snapshot writer no longer byte-identical to the pinned fixture"
    );

    let path = dir.join("tiny-v2.pgcs");
    assert_eq!(inspect_snapshot(&path).unwrap().version, 2);
    let loaded = load_snapshot(&path).unwrap();
    assert_same_graph(&g, &loaded);
    let z = load_compressed_snapshot(&path).unwrap();
    assert_same_graph(&g, &z);

    let params = Params::default();
    for algo in Algorithm::all() {
        let a = run(&g, algo, &params);
        let b = run(&z, algo, &params);
        assert_eq!(a.colors, b.colors, "{algo:?} diverged on the v2 fixture");
        verify::assert_proper(&z, &b.colors);
    }
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Read-compat pin for files written with a weights section:
/// `tests/fixtures/er60-f64-v{1,2}.pgcs` are the v1 and v2 snapshots
/// (4-byte offsets) of ER 60/240, seed 5, carrying `f64` edge weights
/// (kind 3, width 8), as builds with a weighted payload wrote them. Every
/// loader must still accept them as their structure, skipping the
/// weights section, and the kind/width check must still reject a header
/// whose pair is unknown or inconsistent. The unweighted digests of the
/// same graph pin both offset widths of the writers.
#[test]
fn pinned_weighted_fixtures_load_as_structure() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let spec = GraphSpec::ErdosRenyi { n: 60, m: 240 };
    let g = generate(&spec, 5);
    let v1 = dir.join("er60-f64-v1.pgcs");
    let v2 = dir.join("er60-f64-v2.pgcs");
    let digest = |p: &Path| {
        let bytes = std::fs::read(p).unwrap();
        (bytes.len(), fnv1a(&bytes))
    };
    assert_eq!(digest(&v1), (5688, 0xc4ee5e11ea34f3e0));
    assert_eq!(digest(&v2), (4896, 0x198711ded56e822d));

    for path in [&v1, &v2] {
        let info = inspect_snapshot(path).unwrap();
        assert_eq!((info.weight_kind, info.weight_width), (3, 8), "{path:?}");
        assert_eq!(info.weight_bytes, 8 * g.num_arcs(), "{path:?}");
        assert_eq!(load_snapshot(path).unwrap(), g, "{path:?}");
        assert_eq!(
            load_compressed_snapshot(path).unwrap().to_compact(),
            g,
            "{path:?}"
        );
        assert_eq!(pgc::graph::io::read_graph(path).unwrap(), g, "{path:?}");
    }

    // Re-seal the v1 header with an inconsistent kind/width pair, then
    // with an unknown kind: both are InvalidData, not a misread layout.
    let pristine = std::fs::read(&v1).unwrap();
    for (kind, width) in [(3u8, 4u8), (7, 8)] {
        let mut bytes = pristine.clone();
        bytes[13] = kind;
        bytes[14] = width;
        let ck = (0..7).fold(0xcbf2_9ce4_8422_2325u64, |h, i| {
            let word = u64::from_ne_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
            (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        });
        bytes[56..64].copy_from_slice(&ck.to_ne_bytes());
        let err = load_snapshot_bytes(&bytes).unwrap_err();
        assert_eq!(
            err.kind(),
            ErrorKind::InvalidData,
            "kind {kind} width {width}"
        );
        with_temp_path(&format!("kind{kind}"), |path| {
            std::fs::write(path, &bytes).unwrap();
            for err in [
                load_snapshot(path).unwrap_err(),
                load_compressed_snapshot(path).unwrap_err(),
                inspect_snapshot(path).unwrap_err(),
            ] {
                assert_eq!(
                    err.kind(),
                    ErrorKind::InvalidData,
                    "kind {kind} width {width}"
                );
            }
        });
    }

    // (bytes, FNV-1a) of the unweighted v1 then v2 files, 4-byte then
    // 8-byte offsets.
    let src = SpecSource::new(spec, 5);
    let mut digests = Vec::new();
    for limit in [u32::MAX as usize, 0] {
        let (g, _) = build_compact_with_offset_limit(&src, limit).unwrap();
        let mut v1 = Vec::new();
        write_snapshot_to(&g, &mut v1).unwrap();
        let mut v2 = Vec::new();
        write_compressed_snapshot_to(&CompressedCsr::from_compact(&g), &mut v2).unwrap();
        digests.push((v1.len(), fnv1a(&v1)));
        digests.push((v2.len(), fnv1a(&v2)));
    }
    assert_eq!(
        digests,
        [
            (2104, 0xc79a587904f4abfb),
            (1312, 0x9f781a392296bfa0),
            (2344, 0x8fd0893e2983ed00),
            (1552, 0x34addc2a968d93e2),
        ]
    );
}
