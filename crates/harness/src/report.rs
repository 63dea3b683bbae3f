//! Run-report plumbing: the process-global [`RunRecord`] collector the
//! experiments feed while they build their tables, plus the rendering
//! behind the `pgc report` subcommand.
//!
//! Experiments construct one [`RunRecord`] per algorithm × graph × threads
//! run, derive their printed columns *from* it (so the table and the
//! report can never disagree), and [`record`] it. The `pgc` binary drains
//! the collector into a JSONL file when `--report <file>` is given.

use crate::table::Table;
use pgc_core::ColoringRun;
use pgc_obs::report::RunRecord;
use pgc_obs::LogHistogram;
use std::sync::Mutex;
use std::time::Duration;

static RECORDS: Mutex<Vec<RunRecord>> = Mutex::new(Vec::new());

/// Add one run's record to the session collector.
pub fn record(rec: RunRecord) {
    RECORDS.lock().expect("report collector").push(rec);
}

/// Take every record collected so far, emptying the collector.
#[must_use]
pub fn drain_records() -> Vec<RunRecord> {
    std::mem::take(&mut *RECORDS.lock().expect("report collector"))
}

/// [`pgc_core::best_of`] with a latency digest on the side: the same
/// warm-up-then-minimum protocol, but every *measured* repetition's total
/// wall time also lands in a [`LogHistogram`] (microseconds), so the
/// report can carry p50/p90/p99 next to the best-of headline number.
pub fn best_of_with_latency(
    reps: usize,
    mut f: impl FnMut() -> ColoringRun,
) -> (ColoringRun, LogHistogram) {
    let mut hist = LogHistogram::new();
    let mut best = f(); // warm-up: excluded from both the digest and the min
    let mut best_t = Duration::MAX;
    for _ in 0..reps.max(1) {
        let r = f();
        let t = r.total_time();
        hist.record(t.as_micros() as u64);
        if t < best_t {
            best_t = t;
            best = r;
        }
    }
    (best, hist)
}

/// The common part of a [`RunRecord`]: identity, phase times, and quality,
/// all read out of the finished [`ColoringRun`]. The threads field is the
/// width the run itself observed (see `Instrumentation::threads`); callers
/// that sweep pool widths override it with `with_threads`.
#[must_use]
pub fn run_record(experiment: &str, graph: &str, r: &ColoringRun) -> RunRecord {
    RunRecord::new(experiment, graph, r.algorithm.name())
        .with_threads(r.instr.threads)
        .with_times(
            r.ordering_time().as_secs_f64() * 1e3,
            r.coloring_time().as_secs_f64() * 1e3,
        )
        .with_quality(r.num_colors, r.rounds(), r.conflicts())
}

/// `{:.2}` for a column derived from an optional record field; `-` when
/// the record does not carry it.
#[must_use]
pub fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.2}"))
}

/// One warning per record whose traced command lost events to ring wrap:
/// its trace, and every span-derived number, is incomplete.
#[must_use]
pub fn lossy_warnings(records: &[RunRecord]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| match r.dropped_events {
            Some(d) if d > 0 => Some(format!(
                "{}: its trace dropped {d} event(s) by ring wrap; span-derived numbers are incomplete",
                r.key()
            )),
            _ => None,
        })
        .collect()
}

/// Render a validated report as the `pgc report <file>` table.
#[must_use]
pub fn report_table(records: &[RunRecord]) -> Table {
    let mut t = Table::new(&[
        "experiment",
        "graph",
        "algorithm",
        "threads",
        "n",
        "m",
        "order_ms",
        "color_ms",
        "total_ms",
        "colors",
        "rounds",
        "conflicts",
        "ingest_ms",
        "load_ms",
        "graph_MiB",
        "build_peak_MiB",
        "p50_us",
        "p99_us",
    ]);
    for r in records {
        let lat = r.latency_us.as_ref();
        t.row(vec![
            r.experiment.clone(),
            r.graph.clone(),
            r.algorithm.clone(),
            r.threads.to_string(),
            r.n.to_string(),
            r.m.to_string(),
            format!("{:.2}", r.order_ms),
            format!("{:.2}", r.color_ms),
            format!("{:.2}", r.total_ms),
            r.colors.to_string(),
            r.rounds.to_string(),
            r.conflicts.to_string(),
            fmt_opt(r.ingest_ms),
            fmt_opt(r.load_ms),
            fmt_opt(r.graph_mib),
            fmt_opt(r.build_peak_mib),
            lat.map_or_else(|| "-".into(), |l| l.p50.to_string()),
            lat.map_or_else(|| "-".into(), |l| l.p99.to_string()),
        ]);
    }
    t
}

/// Diff two reports keyed by `experiment/graph/algorithm@threads`: side-by-
/// side total time (with the B/A ratio) and color counts, plus rows that
/// exist in only one of the two files.
#[must_use]
pub fn diff_table(a: &[RunRecord], b: &[RunRecord]) -> Table {
    let mut t = Table::new(&[
        "key",
        "total_ms_a",
        "total_ms_b",
        "ratio_b/a",
        "colors_a",
        "colors_b",
        "status",
    ]);
    let index_b: std::collections::HashMap<String, &RunRecord> =
        b.iter().map(|r| (r.key(), r)).collect();
    let mut seen = std::collections::HashSet::new();
    for ra in a {
        let key = ra.key();
        seen.insert(key.clone());
        match index_b.get(&key) {
            Some(rb) => {
                let ratio = rb.total_ms / ra.total_ms.max(1e-9);
                let status = if ra.colors == rb.colors {
                    "ok"
                } else {
                    "colors-differ"
                };
                t.row(vec![
                    key,
                    format!("{:.2}", ra.total_ms),
                    format!("{:.2}", rb.total_ms),
                    format!("{ratio:.2}"),
                    ra.colors.to_string(),
                    rb.colors.to_string(),
                    status.to_string(),
                ]);
            }
            None => t.row(vec![
                key,
                format!("{:.2}", ra.total_ms),
                "-".into(),
                "-".into(),
                ra.colors.to_string(),
                "-".into(),
                "only-a".into(),
            ]),
        }
    }
    for rb in b {
        let key = rb.key();
        if !seen.contains(&key) {
            t.row(vec![
                key,
                "-".into(),
                format!("{:.2}", rb.total_ms),
                "-".into(),
                "-".into(),
                rb.colors.to_string(),
                "only-b".into(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_core::{run, Algorithm, Params};
    use pgc_graph::gen::{generate, GraphSpec};

    #[test]
    fn collector_round_trips_records() {
        // A unique experiment tag keeps this test independent of records
        // other tests' experiments push into the shared collector.
        let tag = "report-collector-selftest";
        record(RunRecord::new(tag, "g1", "jp-ff").with_quality(3, 1, 0));
        record(RunRecord::new(tag, "g2", "jp-r").with_quality(4, 2, 0));
        let mine: Vec<RunRecord> = drain_records()
            .into_iter()
            .filter(|r| r.experiment == tag)
            .collect();
        assert_eq!(mine.len(), 2);
        for r in &mine {
            assert_eq!(RunRecord::from_json(&r.to_json()).unwrap(), *r);
        }
        assert!(drain_records().iter().all(|r| r.experiment != tag));
    }

    #[test]
    fn best_of_with_latency_digests_every_measured_rep() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 200, m: 800 }, 7);
        let (r, hist) = best_of_with_latency(3, || run(&g, Algorithm::JpR, &Params::default()));
        assert!(r.num_colors > 0);
        assert_eq!(hist.count(), 3, "one sample per measured repetition");
        // The best-of run can't be slower than the digest's slowest rep.
        assert!(r.total_time().as_micros() as u64 <= hist.max());
    }

    #[test]
    fn run_record_mirrors_the_run() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 300, attach: 4 }, 1);
        let r = run(&g, Algorithm::JpLlf, &Params::default());
        let rec = run_record("t", "ba-300", &r).with_graph_size(g.n(), g.m());
        assert_eq!(rec.colors, r.num_colors);
        assert_eq!(rec.rounds, r.rounds());
        assert_eq!(rec.threads, r.instr.threads);
        assert!((rec.total_ms - r.total_time().as_secs_f64() * 1e3).abs() < 1e-6);
        assert_eq!((rec.n, rec.m), (g.n(), g.m()));
    }

    #[test]
    fn lossy_records_are_flagged() {
        let records = vec![
            RunRecord::new("fig2-strong", "g", "jp-adg").with_threads(1),
            RunRecord::new("fig2-strong", "g", "jp-adg")
                .with_threads(2)
                .with_dropped_events(0),
            RunRecord::new("fig2-strong", "g", "itr")
                .with_threads(2)
                .with_dropped_events(7_179),
        ];
        let warnings = lossy_warnings(&records);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].starts_with("fig2-strong/g/itr@2: "));
        assert!(warnings[0].contains("7179"));
    }

    #[test]
    fn report_and_diff_tables() {
        let a = vec![
            RunRecord::new("fig1", "g", "jp-adg")
                .with_threads(2)
                .with_times(1.0, 3.0)
                .with_quality(10, 5, 0),
            RunRecord::new("fig1", "g", "itr")
                .with_threads(2)
                .with_times(0.0, 2.0)
                .with_quality(11, 4, 7),
        ];
        let b = vec![
            RunRecord::new("fig1", "g", "jp-adg")
                .with_threads(2)
                .with_times(1.0, 1.0)
                .with_quality(10, 5, 0),
            RunRecord::new("fig1", "g", "jp-r")
                .with_threads(2)
                .with_times(0.0, 2.0)
                .with_quality(12, 6, 0),
        ];
        let rt = report_table(&a);
        assert_eq!(rt.rows.len(), 2);
        assert_eq!(rt.rows[0][8], "4.00"); // total_ms derived from the record
        assert_eq!(rt.rows[0][14], "-"); // optional column absent

        let dt = diff_table(&a, &b);
        assert_eq!(dt.rows.len(), 3);
        assert_eq!(dt.rows[0][6], "ok");
        assert_eq!(dt.rows[0][3], "0.50"); // 2ms vs 4ms
        assert_eq!(dt.rows[1][6], "only-a");
        assert_eq!(dt.rows[2][6], "only-b");
    }
}
