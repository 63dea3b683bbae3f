//! Observability-layer invariants (proptest): the latency histogram must
//! be merge-consistent and its percentiles honestly bounded, a recording
//! session must never change what the algorithms compute while still
//! producing a parseable Chrome trace, and a build emits one span per
//! ingest pass.

use parallel_graph_coloring as pgc;
use pgc::color::{run, Algorithm, Params};
use pgc::graph::gen::{generate, GraphSpec, SpecSource};
use pgc::graph::stream::build_compact;
use pgc::obs::json::Json;
use pgc::obs::report::RunRecord;
use pgc::obs::LogHistogram;
use pgc::order::UpdateStyle;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A session records every thread's events, so the tests that run
/// instrumented code hold this lock: another test's spans would
/// otherwise land in a session's trace.
static RECORDING: Mutex<()> = Mutex::new(());

fn recording() -> MutexGuard<'static, ()> {
    RECORDING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The exact sorted-slice quantile under the same rank convention the
/// histogram uses: the ⌈q·count⌉-th smallest sample (1-based, clamped).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_000_000, 1..=200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-thread histograms is indistinguishable from recording
    /// every sample into a single histogram — the property that makes the
    /// digest trustworthy when workers record independently.
    #[test]
    fn histogram_merge_equals_single_stream(
        samples in arb_samples(),
        chunks in 1usize..=8,
    ) {
        let mut single = LogHistogram::new();
        for &s in &samples {
            single.record(s);
        }
        let mut merged = LogHistogram::new();
        let per = samples.len().div_ceil(chunks);
        for chunk in samples.chunks(per.max(1)) {
            let mut h = LogHistogram::new();
            for &s in chunk {
                h.record(s);
            }
            merged.merge(&h);
        }
        prop_assert_eq!(merged, single);
        prop_assert_eq!(merged.summary(), single.summary());
    }

    /// Every reported percentile brackets the exact sorted-slice quantile
    /// from above by strictly less than one log₂ bucket: for a nonzero
    /// exact quantile `e`, `e <= reported < 2e`; a zero exact quantile
    /// reports zero. The max is always exact.
    #[test]
    fn percentiles_bound_exact_quantiles(samples in arb_samples()) {
        let mut hist = LogHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(hist.max(), *sorted.last().unwrap());
        prop_assert_eq!(hist.count(), sorted.len() as u64);
        for (q, got) in [(0.5, hist.p50()), (0.9, hist.p90()), (0.99, hist.p99())] {
            let exact = exact_quantile(&sorted, q);
            if exact == 0 {
                prop_assert_eq!(got, 0, "q={}", q);
            } else {
                prop_assert!(
                    exact <= got && got < 2 * exact,
                    "q={}: exact {} vs reported {}",
                    q, exact, got
                );
            }
            prop_assert!(got <= hist.max());
        }
    }
}

/// Recording a session neither changes the coloring nor produces a trace
/// the Chrome exporter can't serialize as valid JSON.
#[test]
fn session_is_transparent_and_trace_parses() {
    let _recording = recording();
    let g = generate(
        &GraphSpec::BarabasiAlbert {
            n: 1_500,
            attach: 5,
        },
        9,
    );
    let params = Params::default();
    let quiet = run(&g, Algorithm::JpAdg, &params);

    pgc::obs::session_begin();
    let recorded = run(&g, Algorithm::JpAdg, &params);
    let trace = pgc::obs::session_end();

    assert_eq!(quiet.colors, recorded.colors, "recording changed the run");

    let doc = Json::parse(&pgc::obs::chrome::trace_json(&trace)).expect("trace must be JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    if pgc::obs::CAPTURE {
        assert!(trace.span_count("ordering") >= 1, "phase span missing");
        assert!(trace.span_count("coloring") >= 1, "phase span missing");
        assert!(
            trace.span_count("peel.round") >= 1,
            "per-round span missing"
        );
        // One `jp.color` span over the whole JP engine, and one `jp.round`
        // span per prefix round, each counting the vertices it deferred.
        assert_eq!(trace.span_count("jp.color"), 1, "JP span missing");
        assert!(trace.span_count("jp.round") >= 1, "JP round span missing");
        let deferred_adds = trace
            .events
            .iter()
            .filter(|e| e.kind == pgc::obs::EventKind::Counter && e.name == "deferred")
            .count();
        assert!(deferred_adds >= 1, "deferred counter missing");
        // Complete events for both phases made it into the export.
        let has = |name: &str| {
            events.iter().any(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
        };
        assert!(has("ordering") && has("coloring"), "exported spans missing");
    } else {
        assert!(trace.events.is_empty());
    }
}

/// The harness's run-report path round-trips through the JSONL schema the
/// `pgc report` subcommand validates.
#[test]
fn harness_records_round_trip_through_jsonl() {
    let _recording = recording();
    let g = generate(&GraphSpec::ErdosRenyi { n: 400, m: 1_600 }, 3);
    let (r, hist) = pgc_harness::report::best_of_with_latency(2, || {
        run(&g, Algorithm::JpLlf, &Params::default())
    });
    let rec = pgc_harness::report::run_record("roundtrip", "er-400", &r)
        .with_graph_size(g.n(), g.m())
        .with_latency(hist.summary());
    let text = pgc::obs::report::to_jsonl(std::slice::from_ref(&rec));
    let back = pgc::obs::report::parse_jsonl(&text).expect("schema-valid JSONL");
    assert_eq!(back, vec![rec]);
    assert_eq!(back[0].latency_us.as_ref().unwrap().count, 2);
    assert!(
        RunRecord::from_json("{}").is_err(),
        "empty object must fail"
    );
}

/// A build emits exactly one `ingest.count`, one `ingest.scatter` and one
/// `ingest.sort` span. The graph spans several scatter buckets.
#[test]
fn builds_emit_one_span_per_ingest_pass() {
    let _recording = recording();
    let src = SpecSource::new(
        GraphSpec::Rmat {
            scale: 13,
            edge_factor: 8,
        },
        1,
    );
    pgc::obs::session_begin();
    build_compact(&src).unwrap();
    let trace = pgc::obs::session_end();
    if pgc::obs::CAPTURE {
        for name in ["ingest.count", "ingest.scatter", "ingest.sort"] {
            assert_eq!(trace.span_count(name), 1, "{name}");
        }
    } else {
        assert!(trace.events.is_empty());
    }
}

/// A JP-ADG run emits one `peel.round` span per ADG iteration, and its
/// `peel.pulled` counter counts the levels whose degree update pulled:
/// those where the remaining rows hold at most K times the removed rows'
/// arcs. On K₂₀₀ with 1,000 pendant leaves, level 0 (the leaves) pushes
/// and level 1 (the clique) pulls.
#[test]
fn adg_emits_one_span_per_peel_round() {
    let _recording = recording();
    let mut edges: Vec<(u32, u32)> = (0..200u32)
        .flat_map(|u| (u + 1..200).map(move |v| (u, v)))
        .collect();
    edges.extend((0..1_000u32).map(|leaf| (leaf % 200, 200 + leaf)));
    let g = pgc::graph::builder::from_edges(1_200, &edges);
    let params = Params::default();
    let kind = Algorithm::JpAdg.ordering_kind(&params).unwrap();
    let ord = pgc::order::compute(&g, &kind, params.seed);
    let levels = ord.levels.as_ref().unwrap();
    let vol: Vec<u64> = (0..levels.num_levels())
        .map(|l| levels.level(l).iter().map(|&v| g.degree(v) as u64).sum())
        .collect();
    let mut rest: u64 = vol.iter().sum();
    let pulled = vol
        .iter()
        .filter(|&&removed| {
            rest -= removed;
            UpdateStyle::Auto.pulls(removed, rest)
        })
        .count();
    assert_eq!((pulled, vol.len()), (1, 2));

    pgc::obs::session_begin();
    run(&g, Algorithm::JpAdg, &params);
    let trace = pgc::obs::session_end();
    if pgc::obs::CAPTURE {
        assert_eq!(
            trace.span_count("peel.round"),
            ord.stats.iterations as usize,
            "one span per iteration"
        );
        assert_eq!(trace.counter_total("peel.pulled"), pulled as u64);
    } else {
        assert!(trace.events.is_empty());
    }
}
