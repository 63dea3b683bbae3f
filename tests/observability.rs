//! Observability-layer invariants (proptest): the latency histogram must
//! be merge-consistent and its percentiles honestly bounded, and a
//! recording session must never change what the algorithms compute while
//! still producing a parseable Chrome trace.

use parallel_graph_coloring as pgc;
use pgc::color::{run, Algorithm, Params};
use pgc::graph::gen::{generate, GraphSpec};
use pgc::obs::json::Json;
use pgc::obs::report::RunRecord;
use pgc::obs::LogHistogram;
use proptest::prelude::*;

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
/// the Chrome exporter can't serialize as valid JSON. This is the only
/// root-level test that opens a session, so it needs no cross-test lock.
#[test]
fn session_is_transparent_and_trace_parses() {
    let g = generate(
        &GraphSpec::BarabasiAlbert {
            n: 1_500,
            attach: 5,
        },
        9,
    );
    // Level-synchronous JP so the per-round span fires.
    let params = Params {
        jp_level_sync: true,
        ..Params::default()
    };
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
        assert!(trace.span_count("jp.round") >= 1, "per-round span missing");
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

    // The default (async) JP-ADG run: one `jp.color` span over the whole
    // engine, counting the roots of `Gρ` it starts from.
    let quiet = run(&g, Algorithm::JpAdg, &Params::default());
    pgc::obs::session_begin();
    let recorded = run(&g, Algorithm::JpAdg, &Params::default());
    let trace = pgc::obs::session_end();
    assert_eq!(quiet.colors, recorded.colors, "recording changed the run");
    if pgc::obs::CAPTURE {
        assert_eq!(trace.span_count("jp.color"), 1, "async JP span missing");
        assert_eq!(trace.span_count("jp.round"), 0, "async JP has no rounds");
        assert!(trace.counter_total("roots") >= 1, "roots counter missing");
    } else {
        assert!(trace.events.is_empty());
    }
}

/// The harness's run-report path round-trips through the JSONL schema the
/// `pgc report` subcommand validates.
#[test]
fn harness_records_round_trip_through_jsonl() {
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
