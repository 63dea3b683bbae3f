//! `pgc` — regenerate the paper's tables and figures.
//!
//! ```text
//! pgc <command> [--scale 0|1|2] [--seed N] [--reps R] [--threads T[,T..]]
//!               [--compressed] [--csv] [--trace <file.json>]
//!               [--report <file.jsonl>]
//!
//! commands:
//!   fig1         run-times + coloring quality across the graph suite
//!   fig2-strong  strong scaling (thread sweep)
//!   fig2-weak    weak scaling (Kronecker, edges/vertex sweep)
//!   fig3         impact of epsilon on run-time and quality
//!   fig4         memory pressure via the cache simulator
//!   fig5         performance profiles of coloring quality
//!   table2       ordering heuristics comparison
//!   table3       algorithm comparison with quality bounds
//!   ablations    design-choice ablations (sorting, push/pull, batching)
//!   mining       ADG beyond coloring: densest subgraph, coreness, cliques
//!   colorsum     deterministic digest of every coloring (no timings) —
//!                byte-identical across runs and across obs/no-op builds
//!   check        verify every proven color bound on the whole suite
//!   check-scaling  strong-scaling regression gate: fail if the best
//!                speedup_vs_1t at the widest pool stays below 1.2× on
//!                the generic fig2 sweep or the fork-heavy join tree
//!                (skipped, exit 0, when the machine lacks the cores)
//!   all          everything above, in order
//!   snapshot     convert a text graph to a binary .pgcs snapshot:
//!                pgc snapshot <input> <output> [--compress]
//!                (input format by extension: .col DIMACS, .mtx Matrix
//!                Market, else whitespace edge list; --compress writes the
//!                v2 delta-varint neighbor section. Every reader also
//!                accepts .pgcs input, so this doubles as a snapshot
//!                integrity check.)
//!                pgc snapshot <file.pgcs> --info verifies a snapshot's
//!                checksums and prints its header + per-section byte
//!                breakdown without converting anything.
//!   report       validate + pretty-print a JSONL run report, or diff two:
//!                pgc report <a.jsonl> [b.jsonl] [--csv]
//! ```
//!
//! `--trace <file.json>` records the run's spans and counters (phase
//! timers, per-worker pool activity, per-round algorithm events) and
//! writes a Chrome trace-event file loadable in Perfetto / about:tracing.
//! `--report <file.jsonl>` writes one `pgc-report-v1` JSON line per
//! algorithm × graph × threads run; `pgc report` reads them back. Both
//! work with every experiment command. In a `--no-default-features`
//! build the recorder is compiled out and `--trace` emits an empty (but
//! still valid) trace.
//!
//! The thread sweep used by the scaling experiments defaults to `1,2,4,8`
//! and can be overridden by the `PGC_THREADS` environment variable or the
//! `--threads` flag (which wins); both accept a single count or a
//! comma-separated list. A single-integer `PGC_THREADS` additionally sets
//! the default pool width for every other command (see `pgc-par`).
//!
//! `--compressed` (or `PGC_COMPRESSED=1`, flag wins) builds the fig2
//! workloads as a delta-varint `CompressedCsr` instead; the tables then
//! fill the trailing `encoded_MiB`/`ratio` columns and the run records
//! carry `encoded_mib`/`compress_ratio`.

use pgc_harness::experiments as exp;
use pgc_harness::report as rep;
use pgc_harness::table::Table;

fn usage() -> ! {
    eprintln!(
        "usage: pgc <fig1|fig2-strong|fig2-weak|fig3|fig4|fig5|table2|table3|ablations|mining|colorsum|fork-heavy|check|check-scaling|all> \
         [--scale 0|1|2] [--seed N] [--reps R] [--threads T[,T..]] [--compressed] [--csv] [--trace FILE.json] [--report FILE.jsonl]\n\
         \x20      pgc snapshot <input> <output> [--compress]\n\
         \x20      pgc snapshot <file.pgcs> --info\n\
         \x20      pgc report <a.jsonl> [b.jsonl] [--csv]"
    );
    std::process::exit(2);
}

/// `pgc report <a.jsonl> [b.jsonl]`: validate the file(s) against the
/// `pgc-report-v1` schema, then pretty-print one report or diff two
/// (keyed by `experiment/graph/algorithm@threads`). Any parse or schema
/// failure exits nonzero.
fn report_command(args: &[String]) -> ! {
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let csv = args.iter().any(|a| a == "--csv");
    if paths.is_empty()
        || paths.len() > 2
        || args.iter().any(|a| a.starts_with("--") && a != "--csv")
    {
        usage();
    }
    let load = |path: &String| -> Vec<pgc_obs::report::RunRecord> {
        match pgc_obs::report::read_jsonl(path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("pgc report: {path}: {e}");
                std::process::exit(1);
            }
        }
    };
    let a = load(paths[0]);
    let table = if let Some(b_path) = paths.get(1) {
        rep::diff_table(&a, &load(b_path))
    } else {
        rep::report_table(&a)
    };
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!(
            "## Run report: {}{}\n",
            paths[0],
            paths.get(1).map(|b| format!(" vs {b}")).unwrap_or_default()
        );
        print!("{}", table.to_text());
    }
    std::process::exit(0);
}

/// `pgc snapshot <file.pgcs> --info`: fully verify a snapshot (both
/// checksums) and print its header facts and per-section byte breakdown.
fn snapshot_info(path: &std::path::Path) -> ! {
    match pgc_graph::inspect_snapshot(path) {
        Ok(info) => {
            println!(
                "{}: v{} {}",
                path.display(),
                info.version,
                if info.compressed {
                    "compressed"
                } else {
                    "raw arrays"
                }
            );
            println!(
                "  n={} m={} arcs={} max_deg={} min_deg={}",
                info.n,
                info.num_arcs / 2,
                info.num_arcs,
                info.max_deg,
                info.min_deg
            );
            println!(
                "  offsets      {:>12} bytes ({} B/entry)",
                info.offsets_bytes, info.offset_width
            );
            if info.compressed {
                println!(
                    "  byte_offsets {:>12} bytes ({} B/entry)",
                    info.byte_offsets_bytes, info.byte_offset_width
                );
                println!(
                    "  neighbors    {:>12} bytes encoded ({:.2}x of the raw u32 array)",
                    info.neighbor_bytes,
                    info.compression_ratio()
                );
            } else {
                println!("  neighbors    {:>12} bytes", info.neighbor_bytes);
            }
            println!(
                "  weights      {:>12} bytes (kind={} width={})",
                info.weight_bytes, info.weight_kind, info.weight_width
            );
            println!("  file         {:>12} bytes", info.file_bytes);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("pgc snapshot: {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `pgc snapshot <input> <output> [--compress]`: parse a
/// text graph (format sniffed from the extension) and write it back as a
/// versioned, checksummed binary snapshot that every reader and
/// experiment can re-open via the magic-sniffing fast path. `--compress`
/// writes the v2 delta-varint neighbor section instead of raw arrays;
/// `pgc snapshot <file.pgcs> --info` verifies and describes an existing
/// snapshot.
fn snapshot_command(args: &[String]) -> ! {
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let compress = args.iter().any(|a| a == "--compress");
    let info = args.iter().any(|a| a == "--info");
    let known = ["--compress", "--info"];
    if args
        .iter()
        .any(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        usage();
    }
    if info {
        if positional.len() != 1 || compress {
            usage();
        }
        snapshot_info(std::path::Path::new(positional[0]));
    }
    if positional.len() != 2 {
        usage();
    }
    let (input, output) = (
        std::path::Path::new(positional[0]),
        std::path::Path::new(positional[1]),
    );
    let ext = input
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    let result = (|| -> std::io::Result<(usize, usize, u64)> {
        let g = match ext.as_str() {
            "col" => pgc_graph::io::read_dimacs_col_path(input)?,
            "mtx" => pgc_graph::io::read_matrix_market_path(input)?,
            _ => pgc_graph::io::read_edge_list_path(input)?,
        };
        let bytes = if compress {
            pgc_graph::write_compressed_snapshot(
                &pgc_graph::CompressedCsr::from_compact(&g),
                output,
            )?
        } else {
            pgc_graph::write_snapshot(&g, output)?
        };
        Ok((g.n(), g.m(), bytes))
    })();
    match result {
        Ok((n, m, bytes)) => {
            println!(
                "wrote {} ({bytes} bytes): n={n} m={m}{}",
                output.display(),
                if compress { " compressed(v2)" } else { "" }
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("pgc snapshot: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    if command == "snapshot" {
        snapshot_command(&args[1..]);
    }
    if command == "report" {
        report_command(&args[1..]);
    }
    let mut cfg = exp::ExpConfig::default().with_env_overrides();
    let mut csv = false;
    let mut trace_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                trace_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--report" => {
                report_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--scale" => {
                cfg.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                cfg.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--reps" => {
                cfg.reps = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--threads" => {
                cfg.threads = args
                    .get(i + 1)
                    .and_then(|v| exp::parse_thread_list(v))
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--compressed" => {
                cfg.compressed = true;
                i += 1;
            }
            "--csv" => {
                csv = true;
                i += 1;
            }
            _ => usage(),
        }
    }

    // Record spans only when a trace was asked for; run records are
    // collected unconditionally (cheap) and written only on --report.
    if trace_path.is_some() {
        pgc_obs::session_begin();
    }

    let code = run_command(&command, &cfg, csv);

    if let Some(path) = &trace_path {
        let trace = pgc_obs::session_end();
        match pgc_obs::chrome::write_trace(&trace, path) {
            Ok(bytes) => eprintln!(
                "pgc: wrote trace {path}: {} events on {} thread(s), {bytes} bytes{}",
                trace.events.len(),
                trace.threads.len(),
                if trace.dropped > 0 {
                    format!(" ({} dropped by ring wrap)", trace.dropped)
                } else {
                    String::new()
                }
            ),
            Err(e) => {
                eprintln!("pgc: --trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &report_path {
        let records = rep::drain_records();
        match pgc_obs::report::write_jsonl(&records, path) {
            Ok(()) => eprintln!("pgc: wrote report {path}: {} record(s)", records.len()),
            Err(e) => {
                eprintln!("pgc: --report {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(code);
}

/// Dispatch one experiment command, returning the process exit code (so
/// `main` can still write the `--trace` / `--report` outputs afterwards —
/// including for failing `check` runs, where the trace is most useful).
fn run_command(command: &str, cfg: &exp::ExpConfig, csv: bool) -> i32 {
    let emit = |title: &str, t: &Table| {
        if csv {
            print!("{}", t.to_csv());
        } else {
            println!("## {title}\n");
            print!("{}", t.to_text());
            println!();
        }
    };

    match command {
        "fig1" => emit("Fig. 1: run-times and coloring quality", &exp::fig1(cfg)),
        "fig2-strong" => emit("Fig. 2: strong scaling", &exp::fig2_strong(cfg)),
        "fig2-weak" => emit("Fig. 2: weak scaling (Kronecker)", &exp::fig2_weak(cfg)),
        "fig3" => emit("Fig. 3: impact of epsilon", &exp::fig3(cfg)),
        "fig4" => emit("Fig. 4: memory pressure (cache simulator)", &exp::fig4(cfg)),
        "fig5" => emit("Fig. 5: performance profiles (quality)", &exp::fig5(cfg)),
        "table2" => emit("Table II: ordering heuristics", &exp::table2(cfg)),
        "table3" => emit("Table III: algorithm comparison", &exp::table3(cfg)),
        "ablations" => emit(
            "Section VI-J: design-choice ablations",
            &exp::ablations(cfg),
        ),
        "mining" => emit(
            "ADG beyond coloring (densest/coreness/cliques)",
            &exp::mining(cfg),
        ),
        "colorsum" => emit("Deterministic coloring digest", &exp::colorsum(cfg)),
        "fork-heavy" => emit(
            "Fork-heavy scheduler scaling",
            &exp::fork_heavy_scaling(cfg),
        ),
        "check" => {
            let t = exp::check_guarantees(cfg);
            emit("Quality-bound check", &t);
            let bad = t.rows.iter().filter(|r| r[5] != "true").count();
            if bad > 0 {
                eprintln!("{bad} bound violations!");
                return 1;
            }
            if !csv {
                println!("all proven bounds hold ✓");
            }
        }
        "check-scaling" => {
            // Strong-scaling regression gate: on a machine with the cores
            // to show it, the best speedup_vs_1t at the widest pool must
            // clear 1.2x — for the generic fig2 sweep and for a fork-heavy
            // join tree that exercises the work-stealing scheduler itself.
            // Both tables put threads at column 2 and speedup_vs_1t at
            // column 4.
            let widest = cfg.threads.iter().copied().max().unwrap_or(1);
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            if widest < 2 || cores < widest {
                eprintln!(
                    "check-scaling: skipped ({cores} core(s) available, sweep tops out at \
                     {widest} threads) — gate needs the hardware to mean anything"
                );
                return 0;
            }
            let gates = [
                ("Fig. 2: strong scaling", exp::fig2_strong(cfg)),
                // Fork-heavy gate: the work-stealing scheduler itself
                // (dense join tree, uneven leaves), not a flat loop.
                ("Fork-heavy scheduler scaling", exp::fork_heavy_scaling(cfg)),
            ];
            for (title, t) in &gates {
                emit(title, t);
                let best = t
                    .rows
                    .iter()
                    .filter(|r| r[2] == widest.to_string())
                    .filter_map(|r| r[4].parse::<f64>().ok())
                    .fold(0.0f64, f64::max);
                if best < 1.2 {
                    eprintln!(
                        "check-scaling: {title}: best speedup_vs_1t at {widest} threads is \
                         {best:.2}x < 1.2x"
                    );
                    return 1;
                }
                if !csv {
                    println!(
                        "{title}: best speedup_vs_1t at {widest} threads: {best:.2}x >= 1.2x ✓"
                    );
                }
            }
        }
        "all" => {
            emit("Table II: ordering heuristics", &exp::table2(cfg));
            emit("Table III: algorithm comparison", &exp::table3(cfg));
            emit("Fig. 1: run-times and coloring quality", &exp::fig1(cfg));
            emit("Fig. 2: strong scaling", &exp::fig2_strong(cfg));
            emit("Fig. 2: weak scaling (Kronecker)", &exp::fig2_weak(cfg));
            emit("Fig. 3: impact of epsilon", &exp::fig3(cfg));
            emit("Fig. 4: memory pressure (cache simulator)", &exp::fig4(cfg));
            emit("Fig. 5: performance profiles (quality)", &exp::fig5(cfg));
            emit(
                "Section VI-J: design-choice ablations",
                &exp::ablations(cfg),
            );
            emit(
                "ADG beyond coloring (densest/coreness/cliques)",
                &exp::mining(cfg),
            );
            emit("Deterministic coloring digest", &exp::colorsum(cfg));
            emit("Quality-bound check", &exp::check_guarantees(cfg));
        }
        _ => usage(),
    }
    0
}
