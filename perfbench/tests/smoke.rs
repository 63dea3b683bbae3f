//! Smoke tests: every workload at tiny size, end-to-end and traced.

use pgc_core::{run as color, Algorithm, Params};
use pgc_graph::gen::{generate, GraphSpec};
use pgc_graph::GraphView;
use pgc_obs::json::Json;
use pgc_perfbench::checks::Checker;
use pgc_perfbench::{run, Config, Outcome, Size, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, test: &str) -> Outcome {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        size: Size::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
    };
    let outcome = run(&cfg).expect("tiny run");
    assert_eq!(outcome.failed, 0, "{}", workload.name());
    outcome
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&doc, key);
        for w in Workload::ALL {
            let outcome = tiny(w, trace, "metrics");
            let got: BTreeMap<String, String> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            // The result line carries the same metrics and parses.
            let line = Json::parse(&outcome.result_json().to_string()).expect("result line");
            let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
            assert_eq!(metrics.len(), want.len());
            assert!(metrics.iter().all(|(_, v)| v
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite)));
        }
    }
}

#[test]
fn corrupted_coloring_raises_failed_frac() {
    let g = generate(&GraphSpec::BarabasiAlbert { n: 500, attach: 4 }, 3);
    let run = color(&g, Algorithm::JpAdg, &Params::default());
    let mut checker = Checker::new(run.num_colors);
    assert!(checker.check(&g, &run.colors));
    assert_eq!(checker.failed_frac(), 0.0);

    // Give vertex 0 the color of one of its neighbors.
    let mut bad = run.colors.clone();
    let u = GraphView::neighbors(&g, 0)
        .next()
        .expect("vertex 0 has a neighbor");
    bad[0] = bad[u as usize];
    assert!(!checker.check(&g, &bad));
    assert_eq!((checker.attempted, checker.failed), (2, 1));
    assert_eq!(checker.failed_frac(), 0.5);

    // A proper coloring that differs from the first rep's also fails.
    let mut over = run.colors.clone();
    over.iter_mut().for_each(|c| *c = run.num_colors - 1 - *c);
    assert!(!checker.check(&g, &over));
    // So does one above the color bound.
    let mut tight = Checker::new(run.num_colors - 1);
    assert!(!tight.check(&g, &run.colors));
}

#[test]
fn trace_file_parses() {
    for w in Workload::ALL {
        let outcome = tiny(w, true, "trace");
        let path = outcome
            .trace_path
            .as_ref()
            .expect("traced run writes a trace");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("trace file"))
            .expect("trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let complete = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(complete, outcome.recorder.spans.len(), "{}", w.name());
        assert!(!outcome.shares.is_empty());
    }
}

/// Self times are a span minus its children, so they add up to the rep
/// span only if every child lies inside its parent, siblings never
/// overlap, and no phase timer had to be clamped to its span.
#[test]
fn span_self_times_sum_to_rep_span() {
    for w in Workload::ALL {
        let outcome = tiny(w, true, "self-times");
        let spans = &outcome.recorder.spans;
        // `ordering_time + coloring_time` never exceeded the `core.run` span.
        assert_eq!(outcome.recorder.clamped, 0, "{}", w.name());
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(
                    parent.start <= s.start && s.end <= parent.end,
                    "{}: {} outside {}",
                    w.name(),
                    s.name,
                    parent.name
                );
                children.entry(p).or_default().push(i);
            }
        }
        for kids in children.values_mut() {
            kids.sort_by_key(|&c| spans[c].start);
            for pair in kids.windows(2) {
                assert!(spans[pair[0]].end <= spans[pair[1]].start, "{}", w.name());
            }
        }
        let own = outcome.recorder.self_times();
        let root = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut reps = 0;
        for (r, rep) in spans.iter().enumerate().filter(|(_, s)| s.name == "rep") {
            let covered: u64 = (0..spans.len())
                .filter(|&i| root(i) == r)
                .map(|i| own[i])
                .sum();
            assert_eq!(covered, rep.duration(), "{} rep {}", w.name(), rep.rep);
            reps += 1;
        }
        assert!(reps >= 3, "{}", w.name());
        // No generator or builder span on the snapshot workload.
        if w == Workload::RmatSnapshot {
            assert!(spans
                .iter()
                .all(|s| !s.name.starts_with("gen.") && !s.name.starts_with("stream.")));
        }
    }
}
