//! One function per table/figure of the paper's evaluation (§VI).
//!
//! Every function returns a [`Table`] whose rows mirror what the paper
//! plots; the `pgc` binary prints them as text or CSV. All workloads come
//! from the synthetic proxy suite (`pgc_graph::gen::suite`, DESIGN.md §5).

use crate::profiles::performance_profiles;
use crate::report::{best_of_with_latency, fmt_opt, run_record};
use crate::table::{ms, Table};
use pgc_core::{best_of, run, Algorithm, Instrumentation, Params};
use pgc_graph::gen::{generate, generate_with_stats, suite, GraphSpec, SuiteGraph};
use pgc_graph::{BuildStats, CompactCsr, CompressedCsr, GraphView};
use pgc_obs::report::RunRecord;
use pgc_order::{compute, max_back_degree, AdgOptions, OrderingKind, UpdateStyle};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Workload scale: 0 = smoke test, 1 = default evaluation, 2 = large.
    pub scale: usize,
    /// Master seed.
    pub seed: u64,
    /// Repetitions per measurement (minimum is reported, after a warm-up
    /// run that is discarded — the paper excludes warm-up data too).
    pub reps: usize,
    /// Thread counts for the scaling experiments.
    pub threads: Vec<usize>,
    /// Build the fig2 workloads as a [`CompressedCsr`] (`--compressed`):
    /// delta-varint block-encoded
    /// adjacencies, measured through the same generic round loops, instead
    /// of the default [`CompactCsr`].
    pub compressed: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            scale: 1,
            seed: 0xC0FFEE,
            reps: 3,
            threads: vec![1, 2, 4, 8],
            compressed: false,
        }
    }
}

impl ExpConfig {
    fn params(&self) -> Params {
        Params {
            seed: self.seed,
            ..Params::default()
        }
    }

    /// Apply the `PGC_THREADS` environment override to the thread sweep.
    /// Accepts a single count (`PGC_THREADS=4`, which also sets the pool's
    /// default width — see `pgc-par`) or a comma-separated sweep list
    /// (`PGC_THREADS=1,2,4,8`, harness-only).
    pub fn with_env_overrides(self) -> Self {
        self.with_overrides(|k| std::env::var(k).ok())
    }

    /// [`with_env_overrides`](Self::with_env_overrides) with an injected
    /// variable lookup, so the parsing is testable without mutating the
    /// process-global environment (which would race with concurrently
    /// running tests).
    fn with_overrides(mut self, var: impl Fn(&str) -> Option<String>) -> Self {
        if let Some(list) = var("PGC_THREADS").and_then(|s| parse_thread_list(&s)) {
            self.threads = list;
        }
        self
    }
}

/// Parse a `--threads`/`PGC_THREADS` value: a positive integer or a
/// comma-separated list of them. Returns `None` on any malformed piece.
pub fn parse_thread_list(s: &str) -> Option<Vec<usize>> {
    let list: Option<Vec<usize>> = s
        .split(',')
        .map(|piece| piece.trim().parse::<usize>().ok().filter(|&t| t > 0))
        .collect();
    list.filter(|l| !l.is_empty())
}

/// Structural bytes of a graph's representation (offsets + neighbors +
/// encoded arena + index/scratch aux), in MiB — the paper's §II-A word
/// budget as actually laid out in memory. Recorded in the fig2 run
/// reports (and printed from there) so `CompactCsr`'s 4-byte-offset
/// saving and `CompressedCsr`'s arena saving are visible next to the
/// timings. Uses [`pgc_graph::GraphMemory::structural_bytes`] rather than
/// offsets+neighbors alone, so representations whose traversal state
/// lives outside those two arrays (compressed arena, byte-offset index,
/// decode scratch) aren't under-reported.
fn graph_mib<G: GraphView>(g: &G) -> f64 {
    g.memory_footprint().structural_bytes() as f64 / (1024.0 * 1024.0)
}

/// Peak build-side allocation of a streaming ingestion, in MiB.
fn build_peak_mib(stats: &BuildStats) -> f64 {
    stats.build_bytes_peak as f64 / (1024.0 * 1024.0)
}

/// The two fig2 steps that differ per representation: the conversion
/// after the streaming build, and the snapshot write and load behind
/// `load_ms`.
trait Fig2Graph: GraphView + Send + Sized {
    /// Convert the streamed build, charging the conversion's transient
    /// allocations into `stats`.
    fn from_build(g: CompactCsr, stats: &mut BuildStats) -> Self;
    /// Write `self` to `path` as this representation's snapshot version.
    fn write_snapshot(&self, path: &Path) -> std::io::Result<u64>;
    /// Load a snapshot into this representation.
    fn load_snapshot(path: &Path) -> std::io::Result<Self>;
}

impl Fig2Graph for CompactCsr {
    fn from_build(g: CompactCsr, _: &mut BuildStats) -> Self {
        g
    }
    fn write_snapshot(&self, path: &Path) -> std::io::Result<u64> {
        pgc_graph::write_snapshot(self, path)
    }
    fn load_snapshot(path: &Path) -> std::io::Result<Self> {
        pgc_graph::load_snapshot(path)
    }
}

impl Fig2Graph for CompressedCsr {
    fn from_build(g: CompactCsr, stats: &mut BuildStats) -> Self {
        CompressedCsr::from_compact_with_stats(&g, stats)
    }
    fn write_snapshot(&self, path: &Path) -> std::io::Result<u64> {
        pgc_graph::write_compressed_snapshot(self, path)
    }
    fn load_snapshot(path: &Path) -> std::io::Result<Self> {
        pgc_graph::load_compressed_snapshot(path)
    }
}

/// Generate `spec` through the streaming two-pass builder as a `G`.
fn build<G: Fig2Graph>(spec: &GraphSpec, seed: u64) -> (G, BuildStats) {
    let (g, mut stats) = generate_with_stats(spec, seed);
    (G::from_build(g, &mut stats), stats)
}

/// Time a binary-snapshot load of `g` — the `load_ms` companion to
/// `ingest_ms` in the fig2 tables: what re-opening this graph from its
/// `.pgcs` snapshot costs instead of re-running the streaming ingest.
/// The snapshot is written to a temp file, unique per call so concurrent
/// sweeps never share one, and removed afterwards.
fn snapshot_load_ms<G: Fig2Graph>(g: &G, tag: &str) -> f64 {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "pgc-fig2-{}-{}-{tag}.{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed),
        pgc_graph::snapshot::SNAPSHOT_EXT
    ));
    let timed = (|| -> std::io::Result<f64> {
        g.write_snapshot(&path)?;
        let t0 = std::time::Instant::now();
        let loaded = G::load_snapshot(&path)?;
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(loaded.n(), g.n(), "snapshot load mismatch");
        Ok(dt)
    })();
    let _ = std::fs::remove_file(&path);
    timed.expect("snapshot round-trip in harness")
}

/// Fill a fig2 record's representation columns: the snapshot `load_ms`,
/// and for a compressed graph (non-zero `encoded_bytes`) the encoded
/// arena MiB and the compact÷encoded neighbor-byte ratio (how many times
/// smaller the delta-varint arena is than the raw `u32` neighbor array
/// it replaced).
fn with_layout<G: GraphView>(rec: RunRecord, g: &G, load_ms: f64) -> RunRecord {
    let rec = rec.with_load_ms(load_ms);
    let encoded = g.memory_footprint().encoded_bytes;
    if encoded == 0 {
        return rec;
    }
    let compact = g.num_arcs() * std::mem::size_of::<u32>();
    rec.with_compressed(
        encoded as f64 / (1024.0 * 1024.0),
        compact as f64 / encoded as f64,
    )
}

/// Generate every suite graph once, through the streaming two-pass
/// builder.
fn load_suite(cfg: &ExpConfig) -> Vec<(SuiteGraph, CompactCsr)> {
    suite(cfg.scale)
        .into_iter()
        .map(|sg| {
            let g = generate(&sg.spec, cfg.seed);
            (sg, g)
        })
        .collect()
}

/// Execute `f` at parallel width `t`: installs a pool of that width on the
/// `pgc-par` runtime, so every `par_iter`/`join`/`scope` inside `f` really
/// fans out across (at most) `t` threads — `t == 1` is true sequential
/// execution.
pub fn with_threads<R: Send>(t: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(t)
        .build()
        .expect("pool")
        .install(f)
}

// ---------------------------------------------------------------------
// Fork-heavy scheduler scaling
// ---------------------------------------------------------------------

/// Leaf count for the fork-heavy sweep, by workload scale.
fn fork_heavy_n(scale: usize) -> usize {
    match scale {
        0 => 40_000,
        1 => 160_000,
        _ => 640_000,
    }
}

/// Uneven-cost fork tree over `lo..hi`: splits by `join` down to a fine
/// grain, each leaf burning an index-dependent (~30× spread) amount of
/// register work. This stresses the scheduler itself — deque push/pop
/// rates and steal-based rebalancing — rather than memory bandwidth.
fn fork_heavy_tree(lo: usize, hi: usize) -> u64 {
    const GRAIN: usize = 64;
    if hi - lo <= GRAIN {
        let mut acc = 0u64;
        for i in lo..hi {
            let cost = 20 + (i % 13) * (i % 47);
            let mut x = i as u64 | 1;
            for _ in 0..cost {
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(11);
            }
            acc = acc.wrapping_add(x);
        }
        return acc;
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = rayon::join(|| fork_heavy_tree(lo, mid), || fork_heavy_tree(mid, hi));
    a.wrapping_add(b)
}

/// Strong scaling of a fork-heavy workload (dense join tree, uneven
/// leaves) — the scheduler's own hot paths, not a flat parallel loop.
/// `pgc check-scaling` gates this table alongside the coloring sweeps so
/// a pool regression (say, a reintroduced global-lock hot path) fails CI
/// even while flat data-parallel loops still look fine. The `steals`
/// column is the pool-global steal-counter delta for the timed reps.
pub fn fork_heavy_scaling(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(&[
        "workload",
        "n",
        "threads",
        "total_ms",
        "speedup_vs_1t",
        "steals",
    ]);
    let n = fork_heavy_n(cfg.scale);
    let workload = || fork_heavy_tree(0, n);
    let (base_sum, base_t) = with_threads(1, || timed_best(cfg.reps, workload));
    for &threads in &cfg.threads {
        let steals_before = pgc_par::steal_count();
        let (sum, dt) = if threads == 1 {
            (base_sum, base_t)
        } else {
            with_threads(threads, || timed_best(cfg.reps, workload))
        };
        assert_eq!(sum, base_sum, "fork tree sum must be width-invariant");
        let steals = pgc_par::steal_count() - steals_before;
        let speedup = base_t.as_secs_f64() / dt.as_secs_f64().max(1e-9);
        t.row(vec![
            "uneven-join-tree".to_string(),
            n.to_string(),
            threads.to_string(),
            ms(dt),
            format!("{speedup:.2}"),
            steals.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fig. 1: run-times and coloring quality across the suite
// ---------------------------------------------------------------------

/// Fig. 1: per (graph, algorithm): ordering/coloring time split, color
/// count, and color count relative to JP-R (the paper's quality axis).
/// Every row is derived from the [`pgc_obs::report::RunRecord`] it also
/// feeds into the `--report` collector.
pub fn fig1(cfg: &ExpConfig) -> Table {
    let params = cfg.params();
    let mut t = Table::new(&[
        "graph",
        "algorithm",
        "class",
        "order_ms",
        "color_ms",
        "total_ms",
        "colors",
        "vs_JP-R",
        "rounds",
        "conflicts",
    ]);
    for (sg, g) in load_suite(cfg) {
        let (jpr, jpr_hist) = best_of_with_latency(cfg.reps, || run(&g, Algorithm::JpR, &params));
        for algo in Algorithm::fig1_set() {
            let (r, hist) = if algo == Algorithm::JpR {
                (jpr.clone(), jpr_hist)
            } else {
                best_of_with_latency(cfg.reps, || run(&g, algo, &params))
            };
            pgc_core::verify::assert_proper(&g, &r.colors);
            let rec = run_record("fig1", sg.name, &r)
                .with_graph_size(g.n(), g.m())
                .with_latency(hist.summary());
            t.row(vec![
                rec.graph.clone(),
                rec.algorithm.clone(),
                if algo.is_speculative() { "SC" } else { "JP" }.to_string(),
                format!("{:.2}", rec.order_ms),
                format!("{:.2}", rec.color_ms),
                format!("{:.2}", rec.total_ms),
                rec.colors.to_string(),
                format!("{:.3}", rec.colors as f64 / jpr.num_colors as f64),
                rec.rounds.to_string(),
                rec.conflicts.to_string(),
            ]);
            crate::report::record(rec);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Fig. 2: strong and weak scaling
// ---------------------------------------------------------------------

/// Strong-scaling algorithms shown in Fig. 2.
fn scaling_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::JpAdg,
        Algorithm::DecAdgItr,
        Algorithm::JpR,
        Algorithm::JpLlf,
        Algorithm::Itr,
        Algorithm::JpSll,
    ]
}

/// Fig. 2 (middle/right): strong scaling on the h-bai and s-pok proxies.
/// Each row reports its speedup over the single-thread baseline of the
/// same (graph, algorithm) pair — the paper's scaling axis. With
/// `cfg.compressed` (`--compressed`) the workloads are built as
/// [`CompressedCsr`]s and the generic `run()` loops decode
/// delta-varint blocks on the fly; the trailing `encoded_MiB`/`ratio`
/// columns are filled only then.
pub fn fig2_strong(cfg: &ExpConfig) -> Table {
    if cfg.compressed {
        fig2_strong_on::<CompressedCsr>(cfg)
    } else {
        fig2_strong_on::<CompactCsr>(cfg)
    }
}

/// [`fig2_strong`] on representation `G`: one row per graph × algorithm ×
/// pool width, with the per-width ingest stats threaded into both the
/// table and the run records.
fn fig2_strong_on<G: Fig2Graph>(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(&[
        "graph",
        "algorithm",
        "threads",
        "total_ms",
        "speedup_vs_1t",
        "colors",
        "graph_MiB",
        "ingest_ms",
        "load_ms",
        "build_peak_MiB",
        "encoded_MiB",
        "ratio",
    ]);
    let params = &cfg.params();
    for sg in suite(cfg.scale)
        .into_iter()
        .filter(|sg| sg.name == "h-bai" || sg.name == "s-pok")
    {
        let (g, _) = build::<G>(&sg.spec, cfg.seed);
        let g = &g;
        let load_ms = snapshot_load_ms(g, sg.name);
        // Ingestion is part of the scaling story too: re-measure the
        // streaming build once per pool width so each row's ingest_ms
        // was actually produced at that row's thread count (generation
        // is deterministic, so the graph itself is unchanged).
        let ingest_at: Vec<(usize, BuildStats)> = cfg
            .threads
            .iter()
            .map(|&threads| {
                let stats = with_threads(threads, || build::<G>(&sg.spec, cfg.seed)).1;
                (threads, stats)
            })
            .collect();
        for algo in scaling_algorithms() {
            let (base, base_hist) = with_threads(1, || {
                best_of_with_latency(cfg.reps, || run(g, algo, params))
            });
            for &(threads, stats) in &ingest_at {
                let (r, hist) = if threads == 1 {
                    (base.clone(), base_hist)
                } else {
                    with_threads(threads, || {
                        best_of_with_latency(cfg.reps, || run(g, algo, params))
                    })
                };
                let speedup =
                    base.total_time().as_secs_f64() / r.total_time().as_secs_f64().max(1e-9);
                // The row's key width is the *requested* pool width of the
                // sweep; the record's derived columns carry everything the
                // table prints.
                let rec = with_layout(
                    run_record("fig2-strong", sg.name, &r)
                        .with_threads(threads)
                        .with_graph_size(g.n(), g.m())
                        .with_graph_mib(graph_mib(g))
                        .with_build(stats.ingest_ms(), build_peak_mib(&stats))
                        .with_latency(hist.summary()),
                    g,
                    load_ms,
                );
                t.row(vec![
                    rec.graph.clone(),
                    rec.algorithm.clone(),
                    rec.threads.to_string(),
                    format!("{:.2}", rec.total_ms),
                    format!("{speedup:.2}"),
                    rec.colors.to_string(),
                    fmt_opt(rec.graph_mib),
                    fmt_opt(rec.ingest_ms),
                    fmt_opt(rec.load_ms),
                    fmt_opt(rec.build_peak_mib),
                    fmt_opt(rec.encoded_mib),
                    fmt_opt(rec.compress_ratio),
                ]);
                crate::report::record(rec);
            }
        }
    }
    t
}

/// Fig. 2 (left): weak scaling on Kronecker graphs — edges/vertex grows
/// with the thread count ("1+1 … 32+32" in the paper). With
/// `cfg.compressed`, each Kronecker workload is built as a
/// [`CompressedCsr`] and the trailing `encoded_MiB`/`ratio` columns are
/// filled (as in [`fig2_strong`]).
pub fn fig2_weak(cfg: &ExpConfig) -> Table {
    if cfg.compressed {
        fig2_weak_on::<CompressedCsr>(cfg)
    } else {
        fig2_weak_on::<CompactCsr>(cfg)
    }
}

/// [`fig2_weak`] on representation `G`: one row per edge factor ×
/// scaling algorithm, at the row's pool width.
fn fig2_weak_on<G: Fig2Graph>(cfg: &ExpConfig) -> Table {
    let scale = 12 + cfg.scale as u32 * 2;
    let mut t = Table::new(&[
        "edge_factor",
        "threads",
        "n",
        "m",
        "graph_MiB",
        "ingest_ms",
        "load_ms",
        "build_peak_MiB",
        "algorithm",
        "total_ms",
        "colors",
        "encoded_MiB",
        "ratio",
    ]);
    let params = &cfg.params();
    for (ef, threads) in [(1usize, 1usize), (2, 2), (4, 4), (8, 8), (16, 16), (32, 32)] {
        let spec = GraphSpec::Rmat {
            scale,
            edge_factor: ef,
        };
        // Ingest at the row's width too: weak scaling is about growing
        // the workload with the threads, and the streaming build is part
        // of the measured pipeline.
        let (g, stats) = with_threads(threads, || build::<G>(&spec, cfg.seed));
        let g = &g;
        let load_ms = snapshot_load_ms(g, &format!("weak-ef{ef}"));
        for algo in scaling_algorithms() {
            let (r, hist) = with_threads(threads, || {
                best_of_with_latency(cfg.reps, || run(g, algo, params))
            });
            let rec = with_layout(
                run_record("fig2-weak", &format!("kron-ef{ef}"), &r)
                    .with_threads(threads)
                    .with_graph_size(g.n(), g.m())
                    .with_graph_mib(graph_mib(g))
                    .with_build(stats.ingest_ms(), build_peak_mib(&stats))
                    .with_latency(hist.summary()),
                g,
                load_ms,
            );
            t.row(vec![
                ef.to_string(),
                rec.threads.to_string(),
                rec.n.to_string(),
                rec.m.to_string(),
                fmt_opt(rec.graph_mib),
                fmt_opt(rec.ingest_ms),
                fmt_opt(rec.load_ms),
                fmt_opt(rec.build_peak_mib),
                rec.algorithm.clone(),
                format!("{:.2}", rec.total_ms),
                rec.colors.to_string(),
                fmt_opt(rec.encoded_mib),
                fmt_opt(rec.compress_ratio),
            ]);
            crate::report::record(rec);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Fig. 3: impact of ε
// ---------------------------------------------------------------------

/// Fig. 3: ε ∈ {0.01 … 1.0} vs run-time and quality for JP-ADG and
/// DEC-ADG-ITR on the h-bai and v-usa proxies.
pub fn fig3(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(&[
        "graph",
        "algorithm",
        "epsilon",
        "total_ms",
        "colors",
        "adg_iterations",
    ]);
    for (sg, g) in load_suite(cfg)
        .into_iter()
        .filter(|(sg, _)| sg.name == "h-bai" || sg.name == "v-usa")
    {
        for eps in [0.01, 0.03, 0.1, 0.3, 1.0] {
            let mut params = cfg.params();
            params.epsilon = eps;
            for algo in [Algorithm::JpAdg, Algorithm::DecAdgItr] {
                let r = best_of(cfg.reps, || run(&g, algo, &params));
                let ord = pgc_order::adg(&g, &AdgOptions::with_epsilon(eps));
                t.row(vec![
                    sg.name.to_string(),
                    algo.name().to_string(),
                    format!("{eps}"),
                    ms(r.total_time()),
                    r.num_colors.to_string(),
                    ord.stats.iterations.to_string(),
                ]);
            }
        }
    }
    t
}

// ---------------------------------------------------------------------
// Fig. 4: memory pressure (cache-simulator substitute for PAPI)
// ---------------------------------------------------------------------

/// Fig. 4: L3-miss and stalled-cycle fractions per algorithm on the h-bai
/// and h-hud-like proxies, from the trace-driven cache simulator.
pub fn fig4(cfg: &ExpConfig) -> Table {
    let params = cfg.params();
    let mut t = Table::new(&[
        "graph",
        "algorithm",
        "class",
        "accesses",
        "l3_miss_frac",
        "stall_frac",
    ]);
    for (sg, g) in load_suite(cfg)
        .into_iter()
        .filter(|(sg, _)| sg.name == "h-bai" || sg.name == "h-wdb")
    {
        for algo in [
            Algorithm::Itr,
            Algorithm::ItrAsl,
            Algorithm::DecAdgItr,
            Algorithm::JpAdg,
            Algorithm::JpAsl,
            Algorithm::JpFf,
            Algorithm::JpLf,
            Algorithm::JpLlf,
            Algorithm::JpR,
            Algorithm::JpSl,
            Algorithm::JpSll,
        ] {
            let rep = pgc_cachesim::simulate_algorithm(&g, algo, &params);
            t.row(vec![
                sg.name.to_string(),
                algo.name().to_string(),
                if algo.is_speculative() { "SC" } else { "JP" }.to_string(),
                rep.stats.accesses.to_string(),
                format!("{:.4}", rep.miss_fraction),
                format!("{:.4}", rep.stall_fraction),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Fig. 5: performance profiles of coloring quality
// ---------------------------------------------------------------------

/// Fig. 5: Dolan–Moré profile of color counts over the whole suite.
pub fn fig5(cfg: &ExpConfig) -> Table {
    let params = cfg.params();
    let algos = Algorithm::fig1_set();
    let names: Vec<String> = algos.iter().map(|a| a.name().to_string()).collect();
    let mut values: Vec<Vec<f64>> = Vec::new();
    for (_, g) in load_suite(cfg) {
        values.push(
            algos
                .iter()
                .map(|&a| run(&g, a, &params).num_colors as f64)
                .collect(),
        );
    }
    let taus: Vec<f64> = vec![1.0, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5, 1.75, 2.0];
    let profiles = performance_profiles(&names, &values, &taus);
    let mut header: Vec<String> = vec!["algorithm".into()];
    header.extend(taus.iter().map(|t| format!("tau={t}")));
    let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for p in profiles {
        let mut row = vec![p.name.clone()];
        row.extend(p.fractions.iter().map(|f| format!("{:.0}%", f * 100.0)));
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------
// Table II: ordering heuristics
// ---------------------------------------------------------------------

/// Table II analogue with *measured* quantities: peeling iterations, work
/// touches, and the achieved degeneracy-approximation ratio (max
/// back-degree / d), including ADG's guaranteed 2(1+ε).
pub fn table2(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(&[
        "graph",
        "ordering",
        "time_ms",
        "iterations",
        "max_back_deg",
        "d",
        "approx_ratio",
        "guarantee",
    ]);
    let kinds: Vec<(OrderingKind, String)> = vec![
        (OrderingKind::FirstFit, "n/a".into()),
        (OrderingKind::Random, "n/a".into()),
        (OrderingKind::LargestFirst, "n/a".into()),
        (OrderingKind::LargestLogFirst, "n/a".into()),
        (OrderingKind::SmallestLast, "exact".into()),
        (OrderingKind::SmallestLogLast, "none".into()),
        (OrderingKind::ApproxSmallestLast, "none".into()),
        (
            OrderingKind::Adg(AdgOptions::default()),
            format!("{:.2}", 2.0 * 1.01),
        ),
        (OrderingKind::Adg(AdgOptions::median()), "4.00".into()),
    ];
    for (sg, g) in load_suite(cfg).into_iter().take(4) {
        let d = pgc_graph::degeneracy::degeneracy(&g).degeneracy;
        for (kind, guarantee) in &kinds {
            let mut instr = Instrumentation::default();
            let ord = instr.ordering(|| compute(&g, kind, cfg.seed));
            let back = max_back_degree(&g, &ord);
            t.row(vec![
                sg.name.to_string(),
                kind.name().to_string(),
                ms(instr.ordering_time),
                ord.stats.iterations.to_string(),
                back.to_string(),
                d.to_string(),
                if d > 0 {
                    format!("{:.2}", back as f64 / d as f64)
                } else {
                    "-".into()
                },
                guarantee.clone(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Table III: algorithm comparison
// ---------------------------------------------------------------------

/// The paper's quality bound for `algo` given measured `d`, `Δ`, and the
/// run parameters; `None` if the algorithm only has the trivial bound.
pub fn quality_bound(algo: Algorithm, d: u32, delta: u32, params: &Params) -> u32 {
    use pgc_core::verify::bounds;
    match algo {
        Algorithm::JpSl | Algorithm::GreedySl => bounds::sl(d),
        Algorithm::JpAdg => bounds::jp_adg(d, params.epsilon),
        Algorithm::JpAdgM => bounds::jp_adg_m(d),
        Algorithm::SimCol => bounds::sim_col(delta, params.simcol_mu),
        Algorithm::DecAdg => bounds::dec_adg(d, params.dec_epsilon).max(1),
        Algorithm::DecAdgM => bounds::dec_adg_m(d, params.dec_epsilon).max(1),
        Algorithm::DecAdgItr => bounds::jp_adg(d, params.epsilon),
        _ => bounds::trivial(delta),
    }
}

/// Table III analogue: for every algorithm, measured colors vs the proven
/// bound, measured DAG depth (longest `Gρ` path for JP algorithms), rounds,
/// and conflicts.
pub fn table3(cfg: &ExpConfig) -> Table {
    let params = cfg.params();
    let mut t = Table::new(&[
        "graph",
        "algorithm",
        "colors",
        "bound",
        "bound_ok",
        "dag_path",
        "rounds",
        "conflicts",
        "total_ms",
    ]);
    for (sg, g) in load_suite(cfg).into_iter().take(4) {
        let info = pgc_graph::degeneracy::degeneracy(&g);
        let (d, delta) = (info.degeneracy, g.max_degree());
        for algo in Algorithm::all() {
            let r = run(&g, algo, &params);
            pgc_core::verify::assert_proper(&g, &r.colors);
            let bound = quality_bound(algo, d, delta, &params);
            // Measured DAG depth, for the JP algorithms (whose depth is the
            // longest `Gρ` path): reuse `run`'s ordering mapping.
            let dag_path = if algo.is_jp() {
                let kind = algo.ordering_kind(&params).expect("JP ordering");
                let ord = compute(&g, &kind, params.seed);
                pgc_core::jp::dag_longest_path(&g, &ord.rho).to_string()
            } else {
                "-".to_string()
            };
            t.row(vec![
                sg.name.to_string(),
                algo.name().to_string(),
                r.num_colors.to_string(),
                bound.to_string(),
                (r.num_colors <= bound).to_string(),
                dag_path,
                r.rounds().to_string(),
                r.conflicts().to_string(),
                ms(r.total_time()),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// §VI-J ablations
// ---------------------------------------------------------------------

/// Design-choice ablations (§VI-J): batch sorting on/off, forced push or
/// pull against the per-level choice, average vs median, sort algorithm,
/// ITRB superstep size.
pub fn ablations(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(&["graph", "variant", "total_ms", "colors", "rounds"]);
    let variants: Vec<(String, Params)> = {
        let base = cfg.params();
        let mut v = vec![(
            "JP-ADG default (sortR, auto update, radix)".to_string(),
            base.clone(),
        )];
        v.push((
            "JP-ADG no batch sort".to_string(),
            Params {
                adg_sort_batches: false,
                ..base.clone()
            },
        ));
        v.push((
            "JP-ADG push update".to_string(),
            Params {
                adg_update: UpdateStyle::Push,
                ..base.clone()
            },
        ));
        v.push((
            "JP-ADG pull update".to_string(),
            Params {
                adg_update: UpdateStyle::Pull,
                ..base.clone()
            },
        ));
        v.push((
            "JP-ADG counting sort".to_string(),
            Params {
                adg_sort: pgc_order::SortAlgo::Counting,
                ..base.clone()
            },
        ));
        v.push((
            "JP-ADG quicksort".to_string(),
            Params {
                adg_sort: pgc_order::SortAlgo::Quick,
                ..base.clone()
            },
        ));
        v
    };
    for (sg, g) in load_suite(cfg).into_iter().take(4) {
        for (name, params) in &variants {
            let r = best_of(cfg.reps, || run(&g, Algorithm::JpAdg, params));
            t.row(vec![
                sg.name.to_string(),
                name.clone(),
                ms(r.total_time()),
                r.num_colors.to_string(),
                r.rounds().to_string(),
            ]);
        }
        // Median variant and DEC-ADG-ITR batching as separate rows.
        let base = cfg.params();
        let r = best_of(cfg.reps, || run(&g, Algorithm::JpAdgM, &base));
        t.row(vec![
            sg.name.to_string(),
            "JP-ADG-M (median)".into(),
            ms(r.total_time()),
            r.num_colors.to_string(),
            r.rounds().to_string(),
        ]);
        for batch in [0usize, 1024, 16384] {
            let p = Params {
                itrb_batch: batch,
                ..base.clone()
            };
            let r = best_of(cfg.reps, || run(&g, Algorithm::ItrB, &p));
            t.row(vec![
                sg.name.to_string(),
                format!("ITRB batch={batch}"),
                ms(r.total_time()),
                r.num_colors.to_string(),
                r.rounds().to_string(),
            ]);
        }
    }
    t
}

/// "ADG beyond coloring" (paper §VIII): densest-subgraph density vs the
/// d/2 lower bound, coreness-estimate quality, and maximal-clique counts —
/// all driven by the same ADG levels the coloring algorithms use.
pub fn mining(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(&[
        "graph",
        "d",
        "densest_density",
        "guarantee_floor",
        "coreness_mean_ratio",
        "max_clique",
        "num_cliques",
    ]);
    let eps = 0.1;
    for (sg, g) in load_suite(cfg).into_iter().take(6) {
        let info = pgc_graph::degeneracy::degeneracy(&g);
        let d = info.degeneracy;
        let dense = pgc_mining::approx_densest_subgraph(&g, eps);
        let est = pgc_mining::approx_coreness(&g, eps);
        let (mut num, mut den) = (0.0, 0.0);
        for (&e, &c) in est.iter().zip(&info.coreness) {
            if c > 0 {
                num += e as f64 / c as f64;
                den += 1.0;
            }
        }
        let omega = pgc_mining::max_clique_size(&g);
        let cliques = pgc_mining::count_maximal_cliques(&g);
        t.row(vec![
            sg.name.to_string(),
            d.to_string(),
            format!("{:.2}", dense.density),
            format!("{:.2}", d as f64 / 2.0 / (2.0 * (1.0 + eps))),
            format!("{:.2}", if den > 0.0 { num / den } else { 1.0 }),
            omega.to_string(),
            cliques.to_string(),
        ]);
    }
    t
}

/// Run `f` `reps + 1` times (first run discarded as warm-up, like
/// `best_of`), returning the last result and the minimum wall-clock.
fn timed_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, std::time::Duration) {
    let mut best = std::time::Duration::MAX;
    let mut out = f(); // warm-up, kept only if reps == 0
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        out = f();
        best = best.min(t0.elapsed());
    }
    (out, best)
}

/// Deterministic coloring digest: an FNV-1a hash of every (graph,
/// algorithm) color array, with no timing columns, so two runs of the
/// same binary — or of the obs and no-op builds — must produce
/// byte-identical output. CI diffs exactly that to prove the recorder
/// never changes a coloring. All 21 algorithms are digested, the
/// speculative ones included: every speculative phase is bulk-synchronous
/// (draws are seeded per round and vertex, conflicts are decided on the
/// whole round's tentative colors), so their colorings do not depend on
/// the schedule or the pool width either.
pub fn colorsum(cfg: &ExpConfig) -> Table {
    let params = cfg.params();
    let mut t = Table::new(&["graph", "algorithm", "colors", "fnv64"]);
    for (sg, g) in load_suite(cfg) {
        for algo in Algorithm::all() {
            let r = run(&g, algo, &params);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &c in &r.colors {
                for b in c.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            t.row(vec![
                sg.name.to_string(),
                algo.name().to_string(),
                r.num_colors.to_string(),
                format!("{h:016x}"),
            ]);
        }
    }
    t
}

/// Validate the headline guarantees on the whole suite (used by the `check`
/// subcommand and integration tests): every contribution algorithm must
/// stay within its proven color bound.
pub fn check_guarantees(cfg: &ExpConfig) -> Table {
    let params = cfg.params();
    let mut t = Table::new(&["graph", "d", "algorithm", "colors", "bound", "ok"]);
    for (sg, g) in load_suite(cfg) {
        let d = pgc_graph::degeneracy::degeneracy(&g).degeneracy;
        for algo in [
            Algorithm::JpSl,
            Algorithm::JpAdg,
            Algorithm::JpAdgM,
            Algorithm::SimCol,
            Algorithm::DecAdg,
            Algorithm::DecAdgM,
            Algorithm::DecAdgItr,
        ] {
            let r = run(&g, algo, &params);
            pgc_core::verify::assert_proper(&g, &r.colors);
            let bound = quality_bound(algo, d, g.max_degree(), &params);
            t.row(vec![
                sg.name.to_string(),
                d.to_string(),
                algo.name().to_string(),
                r.num_colors.to_string(),
                bound.to_string(),
                (r.num_colors <= bound).to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0,
            seed: 1,
            reps: 1,
            threads: vec![1, 2],
            compressed: false,
        }
    }

    #[test]
    fn fork_heavy_gate_reads_threads_and_speedup_columns() {
        // `pgc check-scaling` parses threads at column 2 and speedup at
        // column 4 of both gated tables (fig2's is pinned in
        // `fig2_strong_reports_speedups`).
        let t = fork_heavy_scaling(&smoke_cfg());
        assert_eq!(t.header[2], "threads");
        assert_eq!(t.header[4], "speedup_vs_1t");
        assert_eq!(t.rows.len(), smoke_cfg().threads.len());
    }

    #[test]
    fn fig2_strong_compressed_reports_arena_columns() {
        let cfg = ExpConfig {
            compressed: true,
            ..smoke_cfg()
        };
        let t = fig2_strong(&cfg);
        assert!(!t.rows.is_empty());
        let enc_at = t.header.iter().position(|h| h == "encoded_MiB").unwrap();
        let ratio_at = t.header.iter().position(|h| h == "ratio").unwrap();
        let mib_at = t.header.iter().position(|h| h == "graph_MiB").unwrap();
        for row in &t.rows {
            let encoded: f64 = row[enc_at].parse().unwrap();
            assert!(encoded > 0.0, "{row:?}");
            let ratio: f64 = row[ratio_at].parse().unwrap();
            assert!(
                ratio >= 2.0,
                "compressed arena must halve neighbor bytes: {row:?}"
            );
            let mib: f64 = row[mib_at].parse().unwrap();
            assert!(mib > 0.0, "{row:?}");
            let speedup: f64 = row[4].parse().unwrap();
            assert!(speedup > 0.0, "{row:?}");
        }
        // The uncompressed table leaves the arena columns empty.
        let mono = fig2_strong(&smoke_cfg());
        assert_eq!(mono.rows[0][enc_at], "-");
        assert_eq!(mono.rows[0][ratio_at], "-");
    }

    #[test]
    fn env_overrides_pick_up_threads() {
        let cfg = ExpConfig::default().with_overrides(|k| match k {
            "PGC_THREADS" => Some("1,2,8".into()),
            _ => None,
        });
        assert_eq!(cfg.threads, vec![1, 2, 8]);
        // A malformed value leaves the default untouched.
        let cfg = ExpConfig::default().with_overrides(|k| match k {
            "PGC_THREADS" => Some("2,x".into()),
            _ => None,
        });
        assert_eq!(cfg.threads, ExpConfig::default().threads);
    }

    #[test]
    fn thread_list_parsing() {
        assert_eq!(parse_thread_list("4"), Some(vec![4]));
        assert_eq!(parse_thread_list("1, 2,8"), Some(vec![1, 2, 8]));
        assert_eq!(parse_thread_list(""), None);
        assert_eq!(parse_thread_list("0"), None);
        assert_eq!(parse_thread_list("2,x"), None);
    }

    #[test]
    fn fig2_strong_reports_speedups() {
        let t = fig2_strong(&smoke_cfg());
        assert!(!t.rows.is_empty());
        assert_eq!(t.header[2], "threads", "check-scaling reads column 2");
        assert_eq!(t.header[4], "speedup_vs_1t", "check-scaling reads column 4");
        for row in &t.rows {
            let speedup: f64 = row[4].parse().unwrap();
            assert!(speedup > 0.0, "{row:?}");
            let threads: usize = row[2].parse().unwrap();
            assert!(threads == 1 || threads == 2);
            let mib: f64 = row[6].parse().unwrap();
            assert!(mib > 0.0, "graph memory column must be positive: {row:?}");
            let ingest: f64 = row[7].parse().unwrap();
            assert!(ingest >= 0.0, "ingest time column: {row:?}");
            let load: f64 = row[8].parse().unwrap();
            assert!(load >= 0.0, "snapshot load time column: {row:?}");
            let peak: f64 = row[9].parse().unwrap();
            assert!(peak > 0.0, "peak build bytes column: {row:?}");
        }
    }

    #[test]
    fn fig1_smoke() {
        let t = fig1(&smoke_cfg());
        assert_eq!(t.rows.len(), 10 * Algorithm::fig1_set().len());
    }

    #[test]
    fn fig1_feeds_the_report_collector() {
        let rows = fig1(&smoke_cfg()).rows.len();
        // Other tests share the collector, so filter to fig1's records;
        // at least this call's rows must be there, all self-consistent.
        let recs: Vec<_> = crate::report::drain_records()
            .into_iter()
            .filter(|r| r.experiment == "fig1")
            .collect();
        assert!(recs.len() >= rows, "{} records for {rows} rows", recs.len());
        for rec in &recs {
            assert!(rec.threads > 0, "{}", rec.key());
            assert!(rec.colors > 0, "{}", rec.key());
            assert!(rec.total_ms >= 0.0);
            let lat = rec.latency_us.as_ref().expect("fig1 attaches latency");
            assert_eq!(lat.count, smoke_cfg().reps as u64);
        }
    }

    #[test]
    fn colorsum_matches_pinned_fixture() {
        // `pgc colorsum --scale 0 --csv`: default seed, smoke scale.
        let cfg = ExpConfig {
            scale: 0,
            ..ExpConfig::default()
        };
        assert_eq!(
            colorsum(&cfg).to_csv(),
            include_str!("../../../tests/fixtures/colorsum-scale0.csv"),
            "colorsum moved off the pinned digest"
        );
    }

    #[test]
    fn fig3_smoke() {
        let t = fig3(&smoke_cfg());
        assert_eq!(t.rows.len(), 2 * 5 * 2);
    }

    #[test]
    fn table2_smoke() {
        let t = table2(&smoke_cfg());
        assert_eq!(t.rows.len(), 4 * 9);
    }

    #[test]
    fn check_guarantees_all_hold() {
        let t = check_guarantees(&smoke_cfg());
        for row in &t.rows {
            assert_eq!(row[5], "true", "bound violated: {row:?}");
        }
    }

    #[test]
    fn fig5_profiles_end_at_full_coverage() {
        let t = fig5(&smoke_cfg());
        // At large tau every algorithm covers (nearly) all instances.
        for row in &t.rows {
            let last = row.last().unwrap().trim_end_matches('%');
            let pct: f64 = last.parse().unwrap();
            assert!(pct >= 50.0, "{row:?}");
        }
    }
}
