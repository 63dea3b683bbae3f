//! # pgc-perfbench
//!
//! The repository's pipeline benchmark. One closed-loop client runs reps
//! of a fixed workload back to back on a `pgc-par` pool as wide as the
//! machine, checks every coloring, and reports end-to-end metrics
//! (untraced) or per-layer metrics (a separate traced pass). Every layer
//! is timed from outside: the benchmark records its own spans around its
//! calls into `pgc_graph` (generator, streaming builder, snapshot,
//! compressed graph), `pgc_order`, `pgc_core` and `pgc_par`. See
//! `README.md` next to this crate for the workloads and what each one is
//! expected to show.

pub mod checks;
pub mod machine;
pub mod spans;

use checks::Checker;
use machine::Machine;
use pgc_core::verify::bounds;
use pgc_core::{Algorithm, ColoringRun, Params};
use pgc_graph::gen::{GraphSpec, SpecSource};
use pgc_graph::stream::build_compact_with_stats;
use pgc_graph::{
    degeneracy, load_snapshot, write_snapshot, CompactCsr, CompressedCsr, EdgeSource, GraphView,
};
use pgc_obs::json::Json;
use spans::Recorder;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest reps of any timed phase, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Share of the timed run given to traced reps (traced run) or to the
/// width-1 and full-width colorings (untraced run); the untraced reps get
/// the rest.
const TRACED_SHARE: f64 = 0.5;
const SPEEDUP_SHARE: f64 = 0.3;
const MIB: f64 = 1024.0 * 1024.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// R-MAT 18/16 from the generator through the streaming builder:
    /// ingest-heavy.
    RmatStream,
    /// The same graph loaded from a v1 snapshot: coloring-heavy.
    RmatSnapshot,
    /// Barabási–Albert, built, encoded and colored speculatively on the
    /// compressed representation.
    BaCompressed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RmatStream,
        Workload::RmatSnapshot,
        Workload::BaCompressed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RmatStream => "rmat-stream",
            Workload::RmatSnapshot => "rmat-snapshot",
            Workload::BaCompressed => "ba-compressed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self, size: Size) -> GraphSpec {
        match (self, size) {
            (Workload::BaCompressed, Size::Full) => GraphSpec::BarabasiAlbert {
                n: 400_000,
                attach: 10,
            },
            (Workload::BaCompressed, Size::Tiny) => GraphSpec::BarabasiAlbert {
                n: 2_000,
                attach: 5,
            },
            (_, Size::Full) => GraphSpec::Rmat {
                scale: 18,
                edge_factor: 16,
            },
            (_, Size::Tiny) => GraphSpec::Rmat {
                scale: 10,
                edge_factor: 8,
            },
        }
    }

    pub fn algorithm(self) -> Algorithm {
        match self {
            Workload::BaCompressed => Algorithm::DecAdgItr,
            _ => Algorithm::JpAdg,
        }
    }

    fn replays_generator(self) -> bool {
        self != Workload::RmatSnapshot
    }
}

/// Graph sizes: the measured sizes, or tiny ones for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    /// Seed of the workload's graph generator.
    pub seed: u64,
    /// How long the timed reps run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    pub size: Size,
    /// Where the snapshot, the trace and the run summary are written.
    pub out_dir: PathBuf,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One row of the per-layer share table.
#[derive(Clone, Debug, PartialEq)]
pub struct Share {
    pub layer: &'static str,
    /// Self time in the traced rep at the 10th percentile of rep time.
    pub rep_ms: f64,
    /// `rep_ms` over that rep's time, in percent.
    pub share_pct: f64,
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub header: Json,
    /// Traced run only: largest first, the remainder as its own row.
    pub shares: Vec<Share>,
    /// Traced run only: every span and count recorded.
    pub recorder: Recorder,
    pub trace_path: Option<PathBuf>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    pub fn share_table(&self) -> String {
        let mut s = format!("{:<36} {:>12} {:>8}\n", "layer (self time)", "ms", "share%");
        for r in &self.shares {
            s += &format!("{:<36} {:>12.3} {:>8.2}\n", r.layer, r.rep_ms, r.share_pct);
        }
        s
    }
}

/// The representation a rep colors.
enum Graph {
    Compact(CompactCsr),
    Compressed(CompressedCsr),
}

macro_rules! with_graph {
    ($graph:expr, $g:ident => $body:expr) => {
        match $graph {
            Graph::Compact($g) => $body,
            Graph::Compressed($g) => $body,
        }
    };
}

/// What set-up produces: the generator source, the snapshot file, and the
/// graph facts the checks and the run header need.
struct Inputs {
    src: SpecSource,
    snapshot: Option<PathBuf>,
    n: usize,
    m: usize,
    max_degree: u32,
    degeneracy: u32,
    /// Bytes the program reads: the snapshot file, or the raw
    /// `(u32, u32)` pair stream one generator replay emits.
    input_bytes: u64,
    /// Structural bytes of the representation the reps color.
    working_set_bytes: usize,
}

fn set_up(cfg: &Config) -> io::Result<Inputs> {
    let src = SpecSource::new(cfg.workload.spec(cfg.size), cfg.seed);
    let (g, stats) = build_compact_with_stats(&src)?;
    let d = degeneracy(&g).degeneracy;
    let mut input_bytes = stats.raw_edges as u64 * 8;
    let mut working_set_bytes = g.memory_footprint().structural_bytes();
    let mut snapshot = None;
    match cfg.workload {
        Workload::RmatStream => {}
        Workload::RmatSnapshot => {
            let path = cfg
                .out_dir
                .join(format!("{}-{}.pgcs", cfg.workload.name(), cfg.seed));
            // Unlink rather than truncate an earlier set-up's file: ext4
            // makes a truncating rewrite wait for the old pages' writeback.
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            input_bytes = write_snapshot(&g, &path)?;
            snapshot = Some(path);
        }
        Workload::BaCompressed => {
            working_set_bytes = CompressedCsr::from_compact(&g)
                .memory_footprint()
                .structural_bytes();
        }
    }
    Ok(Inputs {
        src,
        snapshot,
        n: g.n(),
        m: g.m(),
        max_degree: g.max_degree(),
        degeneracy: d,
        input_bytes,
        working_set_bytes,
    })
}

struct Rep {
    graph: Graph,
    run: ColoringRun,
    e2e: Duration,
    color: Duration,
}

struct Bench<'a> {
    cfg: &'a Config,
    inputs: Inputs,
    params: Params,
    checker: Checker,
}

impl Bench<'_> {
    /// One rep, source to verified coloring. `rec` records its spans when
    /// enabled; the work is the same either way.
    fn rep(&mut self, rec: &mut Recorder) -> io::Result<Rep> {
        let steals = pgc_par::steal_count();
        let t0 = Instant::now();
        rec.begin("rep");
        let graph = match self.cfg.workload {
            Workload::RmatStream => Graph::Compact(self.build(rec)?),
            Workload::RmatSnapshot => {
                let path = self.inputs.snapshot.as_deref();
                rec.begin("snapshot.load");
                let g = load_snapshot(path.expect("set-up wrote the snapshot"))?;
                rec.end();
                Graph::Compact(g)
            }
            Workload::BaCompressed => {
                let g = self.build(rec)?;
                // The encoded graph replaces the compact one.
                rec.begin("compressed.encode");
                let c = CompressedCsr::from_compact(&g);
                drop(g);
                rec.end();
                Graph::Compressed(c)
            }
        };
        let t1 = Instant::now();
        rec.begin("core.run");
        let algo = self.cfg.workload.algorithm();
        let run = with_graph!(&graph, g => pgc_core::run(g, algo, &self.params));
        // The ordering and coloring phases run inside one `run` call; their
        // bounds come from the call's own phase timers.
        rec.end_with_phases(
            ("order.adg", run.ordering_time()),
            ("core.color", run.coloring_time()),
        );
        let color = t1.elapsed();
        rec.begin("verify");
        with_graph!(&graph, g => self.checker.check(g, &run.colors));
        rec.end();
        rec.end();
        let e2e = t0.elapsed();
        rec.count("par.steals", pgc_par::steal_count() - steals);
        rec.count("par.width", pgc_par::current_width() as u64);
        rec.count("core.rounds", u64::from(run.rounds()));
        rec.count("core.conflicts", run.conflicts());
        Ok(Rep {
            graph,
            run,
            e2e,
            color,
        })
    }

    fn build(&self, rec: &mut Recorder) -> io::Result<CompactCsr> {
        rec.begin("stream.build");
        let (g, stats) = build_compact_with_stats(&self.inputs.src)?;
        rec.end();
        rec.count("stream.arcs", stats.arcs as u64);
        rec.count("stream.build_peak_bytes", stats.build_bytes_peak as u64);
        Ok(g)
    }

    /// Probes timed outside the rep span: one generator replay into a
    /// counting closure, and one parallel pass over every adjacency of the
    /// rep's graph.
    fn probes(&self, graph: &Graph, rec: &mut Recorder) -> io::Result<()> {
        if self.cfg.workload.replays_generator() {
            let mut raw = 0u64;
            rec.begin("gen.replay");
            EdgeSource::<()>::replay(&self.inputs.src, &mut |pairs, _| {
                raw += pairs.len() as u64;
            })?;
            rec.end();
            rec.count("gen.raw_edges", raw);
        }
        rec.begin("graph.sweep");
        std::hint::black_box(with_graph!(graph, g => sweep(g)));
        rec.end();
        Ok(())
    }

    /// Time `run` on `graph` at `width`, checking the coloring.
    fn color_at(&mut self, graph: &Graph, width: usize) -> f64 {
        let algo = self.cfg.workload.algorithm();
        let t = Instant::now();
        let run = pgc_par::install(
            width,
            || with_graph!(graph, g => pgc_core::run(g, algo, &self.params)),
        );
        let dt = t.elapsed().as_secs_f64();
        with_graph!(graph, g => self.checker.check(g, &run.colors));
        dt
    }
}

/// One parallel pass over every adjacency through `GraphView::neighbors`.
fn sweep<G: GraphView>(g: &G) -> u64 {
    pgc_par::map_reduce_chunks(
        g.n(),
        0,
        |r| {
            r.map(|v| {
                g.neighbors(v as u32)
                    .fold(0u64, |a, u| a.wrapping_add(u64::from(u)))
            })
            .fold(0, u64::wrapping_add)
        },
        u64::wrapping_add,
    )
    .unwrap_or(0)
}

/// Run the benchmark as `cfg` says, on a pool as wide as the machine.
pub fn run(cfg: &Config) -> io::Result<Outcome> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    pgc_par::install(machine::nproc(), || run_installed(cfg))
}

fn run_installed(cfg: &Config) -> io::Result<Outcome> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(set_up(cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let header = header(cfg, &inputs, &Machine::probe());
    let params = Params::default();
    let bound = bounds::jp_adg(inputs.degeneracy, params.epsilon);
    let mut bench = Bench {
        cfg,
        inputs,
        params,
        checker: Checker::new(bound),
    };

    // Peak RSS covers the timed reps only, not set-up. Without the reset
    // it would measure set-up too, so the untraced run refuses to go on.
    if !machine::reset_peak_rss() && !cfg.trace {
        return Err(io::Error::other(
            "cannot reset the peak resident set through /proc/self/clear_refs",
        ));
    }
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let width = machine::nproc();
    let mut untraced = Recorder::new(false);
    let mut rec = Recorder::new(cfg.trace);
    let (mut e2e, mut color, mut colors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced, mut t1, mut tn) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_graph = None;
    let share = if cfg.trace {
        TRACED_SHARE
    } else {
        SPEEDUP_SHARE
    };
    let (mut side, mut side_time) = (0, Duration::ZERO);
    // Each round is one untraced rep, then, while it is within its share
    // of the time, one traced rep (traced run) or one coloring at width 1
    // and one at full width (untraced run), so both sides sample the same
    // stretch of time. A rep starts with no other graph alive.
    while e2e.len() < MIN_REPS || start.elapsed() < budget {
        drop(last_graph.take());
        let rep = bench.rep(&mut untraced)?;
        e2e.push(rep.e2e.as_secs_f64());
        color.push(rep.color.as_secs_f64());
        colors.push(f64::from(rep.run.num_colors));
        if side >= MIN_REPS && side_time > start.elapsed().mul_f64(share) {
            last_graph = Some(rep.graph);
            continue;
        }
        side += 1;
        let t = Instant::now();
        let graph = if cfg.trace {
            drop(rep);
            rec.set_rep(traced.len() as u32);
            let rep = bench.rep(&mut rec)?;
            bench.probes(&rep.graph, &mut rec)?;
            traced.push(rep.e2e.as_secs_f64());
            rep.graph
        } else {
            // Alternate which width runs first, so drift cancels.
            let wide_first = t1.len() % 2 == 1;
            if wide_first {
                tn.push(bench.color_at(&rep.graph, width));
            }
            t1.push(bench.color_at(&rep.graph, 1));
            if !wide_first {
                tn.push(bench.color_at(&rep.graph, width));
            }
            rep.graph
        };
        side_time += t.elapsed();
        last_graph = Some(graph);
    }
    let graph = last_graph.expect("at least one rep");

    let (metrics, shares, trace_path) = if cfg.trace {
        // Ordering counts from one untimed call on the last rep's graph:
        // DEC-ADG-ITR's ordering is the same ADG, with the same options.
        let kind = Algorithm::JpAdg
            .ordering_kind(&bench.params)
            .expect("JP-ADG has an ordering");
        let ord = with_graph!(&graph, g => pgc_order::compute(g, &kind, bench.params.seed));
        rec.count("order.iterations", u64::from(ord.stats.iterations));
        rec.count("order.update_touches", ord.stats.update_touches);

        let layers = Layers::from_recorder(&rec);
        let metrics = layer_metrics(&bench, &graph, &layers, &rec, &e2e, &traced);
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
        pgc_obs::chrome::write_trace(&rec.to_trace(), &path)?;
        (metrics, layers.shares(), Some(path))
    } else {
        let peak_mib = machine::peak_rss_kib() as f64 / 1024.0;
        let ok_frac = 1.0 - bench.checker.failed_frac();
        let metrics = vec![
            metric("e2e_s", p10(&e2e), "s"),
            metric("color_s", p10(&color), "s"),
            metric("colors", median(&colors), "count"),
            metric("speedup_vs_1t", p10(&t1) / p10(&tn), "x"),
            metric("peak_rss_mib", peak_mib, "MiB"),
            metric("setup_s", median(&setup_s), "s"),
            metric("ok_frac", ok_frac, "ratio"),
        ];
        (metrics, Vec::new(), None)
    };
    if let Some(path) = &bench.inputs.snapshot {
        std::fs::remove_file(path)?;
    }
    let outcome = Outcome {
        attempted: bench.checker.attempted,
        failed: bench.checker.failed,
        metrics,
        header,
        shares,
        recorder: rec,
        trace_path,
    };
    write_summary(cfg, &outcome)?;
    Ok(outcome)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank 10th percentile: how every timing is reported.
/// Other tenants of a shared machine slow reps in bursts lasting seconds,
/// which makes a run's median swing with the share of reps a burst hit;
/// the low percentile tracks the uncontended time and still is a value
/// some rep measured.
fn p10(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 10]
}

/// Index of the value [`p10`] picks.
fn p10_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx[(xs.len() - 1) / 10]
}

/// The highest nearest-rank percentile of `xs` with at least ten samples
/// above it, as `(value, percentile)`. With ten samples or fewer no such
/// percentile exists and the minimum is reported as percentile 0.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        n if n <= 10 => (v[0], 0.0),
        n => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// Per-rep self times, in ms, of every span name, and the counts.
struct Layers {
    /// name → one value per traced rep (rep spans are named `rep`).
    self_ms: BTreeMap<&'static str, Vec<f64>>,
    rep_ms: Vec<f64>,
}

impl Layers {
    fn from_recorder(rec: &Recorder) -> Self {
        let own = rec.self_times();
        let mut by_rep: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
        let mut rep_ms = Vec::new();
        for (s, &t) in rec.spans.iter().zip(&own) {
            *by_rep.entry(s.name).or_default().entry(s.rep).or_default() += t as f64 / 1e6;
            if s.name == "rep" {
                rep_ms.push(s.duration() as f64 / 1e6);
            }
        }
        let self_ms = by_rep
            .into_iter()
            .map(|(k, v)| (k, v.into_values().collect()))
            .collect();
        Self { self_ms, rep_ms }
    }

    fn get(&self, name: &str) -> &[f64] {
        self.self_ms.get(name).map_or(&[], Vec::as_slice)
    }

    /// `stream.build` minus the two generator replays inside it, per rep.
    fn stream_self(&self) -> Vec<f64> {
        let replay = self.get("gen.replay");
        self.get("stream.build")
            .iter()
            .zip(replay)
            .map(|(b, r)| b - 2.0 * r)
            .collect()
    }

    /// The layers of one traced rep, the one at the 10th percentile of
    /// rep time, largest first: self time, and share of that rep. The
    /// builder's time is split into the two generator replays it runs (as
    /// long as that rep's replay probe) and its own work. The rows add up
    /// to the rep exactly; the rep's own self time is the last row.
    fn shares(&self) -> Vec<Share> {
        if self.rep_ms.is_empty() {
            return Vec::new();
        }
        let i = p10_index(&self.rep_ms);
        let replay_x2: Vec<f64> = self.get("gen.replay").iter().map(|r| 2.0 * r).collect();
        let mut rows: Vec<(&'static str, Vec<f64>)> = vec![
            ("gen.replay x2 (inside stream.build)", replay_x2),
            ("stream.self (count/scatter/sort)", self.stream_self()),
        ];
        for (name, label) in [
            ("snapshot.load", "snapshot.load"),
            ("compressed.encode", "compressed.encode"),
            ("order.adg", "order.adg"),
            ("core.color", "core.color"),
            ("core.run", "core.run (outside its phases)"),
            ("verify", "verify"),
            ("rep", "unattributed (rep self time)"),
        ] {
            rows.push((label, self.get(name).to_vec()));
        }
        let total = self.rep_ms[i];
        let mut shares: Vec<Share> = rows
            .into_iter()
            .filter(|(_, v)| v.len() == self.rep_ms.len())
            .map(|(layer, v)| Share {
                layer,
                rep_ms: v[i],
                share_pct: 100.0 * v[i] / total,
            })
            .collect();
        shares.sort_by(|a, b| b.rep_ms.total_cmp(&a.rep_ms));
        shares
    }
}

fn count_median(rec: &Recorder, name: &str) -> f64 {
    let v: Vec<f64> = rec
        .counts
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value as f64)
        .collect();
    median(&v)
}

fn layer_metrics(
    bench: &Bench<'_>,
    graph: &Graph,
    layers: &Layers,
    rec: &Recorder,
    untraced_e2e: &[f64],
    traced_e2e: &[f64],
) -> Vec<Metric> {
    let ms = |name| p10(layers.get(name));
    let count = |name| count_median(rec, name);
    let n = bench.inputs.n as f64;
    let arcs = with_graph!(graph, g => g.num_arcs()) as f64;
    let sweep_ms = ms("graph.sweep");
    let graph_mib = with_graph!(graph, g => g.memory_footprint().structural_bytes()) as f64 / MIB;
    let ratio = match graph {
        Graph::Compressed(c) => 4.0 * arcs / c.encoded_bytes().max(1) as f64,
        Graph::Compact(_) => 0.0,
    };
    let file_mib = match bench.cfg.workload {
        Workload::RmatSnapshot => bench.inputs.input_bytes as f64 / MIB,
        _ => 0.0,
    };
    let untraced = p10(untraced_e2e);
    let traced = p10(traced_e2e);
    let (tail_s, tail_pct) = tail(untraced_e2e);
    let coverage = layers
        .rep_ms
        .iter()
        .zip(layers.get("rep"))
        .map(|(total, own)| 100.0 * (1.0 - own / total))
        .fold(100.0, f64::min);
    vec![
        metric("gen.replay_ms", ms("gen.replay"), "ms"),
        metric("gen.raw_edges", count("gen.raw_edges"), "count"),
        metric("stream.build_ms", ms("stream.build"), "ms"),
        metric("stream.self_ms", p10(&layers.stream_self()), "ms"),
        metric(
            "stream.build_peak_mib",
            count("stream.build_peak_bytes") / MIB,
            "MiB",
        ),
        metric("stream.arcs", count("stream.arcs"), "count"),
        metric("snapshot.load_ms", ms("snapshot.load"), "ms"),
        metric("snapshot.file_mib", file_mib, "MiB"),
        metric("compressed.encode_ms", ms("compressed.encode"), "ms"),
        metric("compressed.ratio", ratio, "x"),
        metric("graph.sweep_ms", sweep_ms, "ms"),
        metric(
            "graph.sweep_ns_per_arc",
            sweep_ms * 1e6 / arcs.max(1.0),
            "ns",
        ),
        metric("graph.mib", graph_mib, "MiB"),
        metric("order.adg_ms", ms("order.adg"), "ms"),
        metric("order.iterations", count("order.iterations"), "count"),
        metric(
            "order.update_touches",
            count("order.update_touches"),
            "count",
        ),
        metric("core.color_ms", ms("core.color"), "ms"),
        metric("core.run_self_ms", ms("core.run"), "ms"),
        metric("core.rounds", count("core.rounds"), "count"),
        metric("core.conflicts", count("core.conflicts"), "count"),
        metric(
            "core.useful_ratio",
            n / (n + count("core.conflicts")).max(1.0),
            "ratio",
        ),
        metric("verify.ms", ms("verify"), "ms"),
        metric("par.steals", count("par.steals"), "count"),
        metric("par.width", count("par.width"), "count"),
        metric("bench.e2e_tail_ms", tail_s * 1e3, "ms"),
        metric("bench.e2e_tail_pct", tail_pct, "%"),
        metric("bench.traced_e2e_ms", traced * 1e3, "ms"),
        metric(
            "bench.trace_overhead_pct",
            100.0 * (traced - untraced) / untraced,
            "%",
        ),
        metric("bench.unattributed_ms", ms("rep"), "ms"),
        metric("bench.span_coverage_min_pct", coverage, "%"),
        metric("bench.failed_frac", bench.checker.failed_frac(), "ratio"),
    ]
}

fn header(cfg: &Config, inputs: &Inputs, machine: &Machine) -> Json {
    let num = |x: f64| Json::Num(x);
    let s = |x: &str| Json::Str(x.to_string());
    Json::Obj(vec![
        ("workload".into(), s(cfg.workload.name())),
        ("seed".into(), num(cfg.seed as f64)),
        ("size".into(), s(&format!("{:?}", cfg.size).to_lowercase())),
        ("algorithm".into(), s(cfg.workload.algorithm().name())),
        ("clients".into(), s("1 closed-loop client")),
        ("nproc".into(), num(machine.nproc as f64)),
        ("pool_width".into(), num(pgc_par::current_width() as f64)),
        ("cpu_model".into(), s(&machine.cpu_model)),
        ("l2_kib".into(), num(machine.l2_kib as f64)),
        ("l3_kib".into(), num(machine.l3_kib as f64)),
        ("commit".into(), s(&machine.commit)),
        ("n".into(), num(inputs.n as f64)),
        ("m".into(), num(inputs.m as f64)),
        ("max_degree".into(), num(f64::from(inputs.max_degree))),
        ("degeneracy".into(), num(f64::from(inputs.degeneracy))),
        ("input_bytes".into(), num(inputs.input_bytes as f64)),
        (
            "working_set_mib".into(),
            num(inputs.working_set_bytes as f64 / MIB),
        ),
        ("llc_mib".into(), num(machine.l3_kib as f64 / 1024.0)),
    ])
}

/// Header, metrics and share table of this run, as one JSON file.
fn write_summary(cfg: &Config, outcome: &Outcome) -> io::Result<()> {
    let shares = outcome
        .shares
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("layer".into(), Json::Str(r.layer.into())),
                ("rep_ms".into(), Json::Num(r.rep_ms)),
                ("share_pct".into(), Json::Num(r.share_pct)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("header".into(), outcome.header.clone()),
        ("result".into(), outcome.result_json()),
        ("shares".into(), Json::Arr(shares)),
    ]);
    let name = format!(
        "run-{}-{}-trace{}.json",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    std::fs::write(cfg.out_dir.join(name), doc.to_string())
}
