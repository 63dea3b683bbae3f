//! Machine-readable run reports: one JSONL record per
//! algorithm × graph × threads run.
//!
//! The schema (`pgc-report-v1`) is what the harness's `--report` flag
//! emits and the `pgc report` subcommand consumes. Every line is one
//! [`RunRecord`] object; [`REQUIRED_KEYS`] must be present, everything
//! else is optional and omitted when unknown. Harness table columns like
//! `ingest_ms` / `load_ms` / `graph_MiB` are derived *from* these records,
//! so the report is the single source of truth for a run's numbers.
//!
//! # Example
//!
//! ```
//! use pgc_obs::report::RunRecord;
//!
//! let rec = RunRecord::new("fig1", "ba-1k", "jp-adg")
//!     .with_threads(4)
//!     .with_graph_size(1000, 7972)
//!     .with_times(1.25, 3.5)
//!     .with_quality(12, 7, 0);
//! let line = rec.to_json();
//! let back = RunRecord::from_json(&line).unwrap();
//! assert_eq!(back, rec);
//! ```

use crate::histogram::HistogramSummary;
use crate::json::Json;
use std::io;
use std::path::Path;

/// Schema tag stamped into (and required from) every record.
pub const SCHEMA: &str = "pgc-report-v1";

/// Keys every record must carry to be accepted by [`RunRecord::from_json`].
pub const REQUIRED_KEYS: &[&str] = &[
    "schema",
    "experiment",
    "graph",
    "algorithm",
    "threads",
    "colors",
    "total_ms",
];

/// One run's numbers: identity, phase times, quality, and optional
/// build/memory/latency detail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Which experiment produced the run (e.g. `fig1`, `fig2-strong`).
    pub experiment: String,
    /// Graph name from the suite.
    pub graph: String,
    /// Algorithm name (registry spelling, e.g. `jp-adg`).
    pub algorithm: String,
    /// Parallel width the run executed under.
    pub threads: usize,
    /// Vertices.
    pub n: usize,
    /// Undirected edges.
    pub m: usize,
    /// Ordering/preprocessing wall time (ms).
    pub order_ms: f64,
    /// Coloring wall time (ms).
    pub color_ms: f64,
    /// Total wall time (ms).
    pub total_ms: f64,
    /// Outer rounds (peeling + coloring/repair).
    pub rounds: u32,
    /// Vertices re-colored after conflicts.
    pub conflicts: u64,
    /// Distinct colors used.
    pub colors: u32,
    /// Streaming-ingest wall time (ms), when the run built the graph.
    pub ingest_ms: Option<f64>,
    /// Binary-snapshot load time (ms), when measured.
    pub load_ms: Option<f64>,
    /// In-memory graph footprint (MiB), when measured.
    pub graph_mib: Option<f64>,
    /// Peak transient build memory (MiB), when measured.
    pub build_peak_mib: Option<f64>,
    /// Encoded neighbor-arena footprint (MiB), when the run used the
    /// compressed representation (`pgc --compressed`).
    pub encoded_mib: Option<f64>,
    /// Compact-to-compressed neighbor-byte ratio (compact ÷ encoded), when
    /// the run used the compressed representation.
    pub compress_ratio: Option<f64>,
    /// Per-repetition latency digest in microseconds, when the run was
    /// repeated.
    pub latency_us: Option<HistogramSummary>,
    /// Trace events lost to ring wrap ([`crate::Trace::dropped`]), when
    /// the command ran with `--trace`. Nonzero means the trace, and every
    /// number derived from its spans, is incomplete.
    pub dropped_events: Option<u64>,
}

impl RunRecord {
    /// Start a record; fill the rest with the `with_*` builders.
    #[must_use]
    pub fn new(
        experiment: impl Into<String>,
        graph: impl Into<String>,
        algorithm: impl Into<String>,
    ) -> Self {
        Self {
            experiment: experiment.into(),
            graph: graph.into(),
            algorithm: algorithm.into(),
            ..Self::default()
        }
    }

    /// Set the parallel width.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set vertex/edge counts.
    #[must_use]
    pub fn with_graph_size(mut self, n: usize, m: usize) -> Self {
        self.n = n;
        self.m = m;
        self
    }

    /// Set phase times in milliseconds (total is their sum).
    #[must_use]
    pub fn with_times(mut self, order_ms: f64, color_ms: f64) -> Self {
        self.order_ms = order_ms;
        self.color_ms = color_ms;
        self.total_ms = order_ms + color_ms;
        self
    }

    /// Set quality numbers.
    #[must_use]
    pub fn with_quality(mut self, colors: u32, rounds: u32, conflicts: u64) -> Self {
        self.colors = colors;
        self.rounds = rounds;
        self.conflicts = conflicts;
        self
    }

    /// Attach build-side measurements (ingest time, peak build memory).
    #[must_use]
    pub fn with_build(mut self, ingest_ms: f64, build_peak_mib: f64) -> Self {
        self.ingest_ms = Some(ingest_ms);
        self.build_peak_mib = Some(build_peak_mib);
        self
    }

    /// Attach the snapshot load time.
    #[must_use]
    pub fn with_load_ms(mut self, load_ms: f64) -> Self {
        self.load_ms = Some(load_ms);
        self
    }

    /// Attach the in-memory graph footprint.
    #[must_use]
    pub fn with_graph_mib(mut self, graph_mib: f64) -> Self {
        self.graph_mib = Some(graph_mib);
        self
    }

    /// Attach the compressed-representation detail (encoded arena MiB +
    /// compact÷encoded neighbor-byte ratio).
    #[must_use]
    pub fn with_compressed(mut self, encoded_mib: f64, compress_ratio: f64) -> Self {
        self.encoded_mib = Some(encoded_mib);
        self.compress_ratio = Some(compress_ratio);
        self
    }

    /// Attach a per-repetition latency digest (microseconds).
    #[must_use]
    pub fn with_latency(mut self, latency_us: HistogramSummary) -> Self {
        self.latency_us = Some(latency_us);
        self
    }

    /// Attach the traced command's dropped-event count.
    #[must_use]
    pub fn with_dropped_events(mut self, dropped: u64) -> Self {
        self.dropped_events = Some(dropped);
        self
    }

    /// The diff/join key: experiment, graph, algorithm, threads.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}@{}",
            self.experiment, self.graph, self.algorithm, self.threads
        )
    }

    /// Serialize as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut pairs: Vec<(String, Json)> = vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("graph".into(), Json::Str(self.graph.clone())),
            ("algorithm".into(), Json::Str(self.algorithm.clone())),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("n".into(), Json::Num(self.n as f64)),
            ("m".into(), Json::Num(self.m as f64)),
            ("order_ms".into(), Json::Num(self.order_ms)),
            ("color_ms".into(), Json::Num(self.color_ms)),
            ("total_ms".into(), Json::Num(self.total_ms)),
            ("rounds".into(), Json::Num(self.rounds as f64)),
            ("conflicts".into(), Json::Num(self.conflicts as f64)),
            ("colors".into(), Json::Num(self.colors as f64)),
        ];
        let mut opt = |key: &str, v: Option<f64>| {
            if let Some(v) = v {
                pairs.push((key.into(), Json::Num(v)));
            }
        };
        opt("ingest_ms", self.ingest_ms);
        opt("load_ms", self.load_ms);
        opt("graph_mib", self.graph_mib);
        opt("build_peak_mib", self.build_peak_mib);
        opt("encoded_mib", self.encoded_mib);
        opt("compress_ratio", self.compress_ratio);
        if let Some(d) = self.dropped_events {
            pairs.push(("dropped_events".into(), Json::Num(d as f64)));
        }
        if let Some(l) = &self.latency_us {
            pairs.push((
                "latency_us".into(),
                Json::Obj(vec![
                    ("count".into(), Json::Num(l.count as f64)),
                    ("p50".into(), Json::Num(l.p50 as f64)),
                    ("p90".into(), Json::Num(l.p90 as f64)),
                    ("p99".into(), Json::Num(l.p99 as f64)),
                    ("max".into(), Json::Num(l.max as f64)),
                    ("mean".into(), Json::Num(l.mean)),
                ]),
            ));
        }
        Json::Obj(pairs).to_string()
    }

    /// Parse one JSON line, validating the schema tag and
    /// [`REQUIRED_KEYS`].
    pub fn from_json(line: &str) -> Result<Self, String> {
        let doc = Json::parse(line)?;
        if doc.as_obj().is_none() {
            return Err("record is not a JSON object".into());
        }
        for key in REQUIRED_KEYS {
            if doc.get(key).is_none() {
                return Err(format!("missing required key {key:?}"));
            }
        }
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?}, expected {SCHEMA:?}"));
        }
        let s = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("key {key:?} must be a string"))
        };
        let f = |key: &str| doc.get(key).and_then(Json::as_f64);
        let u = |key: &str| doc.get(key).and_then(Json::as_u64);
        let latency_us = doc.get("latency_us").map(|l| HistogramSummary {
            count: l.get("count").and_then(Json::as_u64).unwrap_or(0),
            p50: l.get("p50").and_then(Json::as_u64).unwrap_or(0),
            p90: l.get("p90").and_then(Json::as_u64).unwrap_or(0),
            p99: l.get("p99").and_then(Json::as_u64).unwrap_or(0),
            max: l.get("max").and_then(Json::as_u64).unwrap_or(0),
            mean: l.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
        });
        Ok(Self {
            experiment: s("experiment")?,
            graph: s("graph")?,
            algorithm: s("algorithm")?,
            threads: u("threads").ok_or("key \"threads\" must be a non-negative integer")? as usize,
            n: u("n").unwrap_or(0) as usize,
            m: u("m").unwrap_or(0) as usize,
            order_ms: f("order_ms").unwrap_or(0.0),
            color_ms: f("color_ms").unwrap_or(0.0),
            total_ms: f("total_ms").ok_or("key \"total_ms\" must be a number")?,
            rounds: u("rounds").unwrap_or(0) as u32,
            conflicts: u("conflicts").unwrap_or(0),
            colors: u("colors").ok_or("key \"colors\" must be a non-negative integer")? as u32,
            ingest_ms: f("ingest_ms"),
            load_ms: f("load_ms"),
            graph_mib: f("graph_mib"),
            build_peak_mib: f("build_peak_mib"),
            encoded_mib: f("encoded_mib"),
            compress_ratio: f("compress_ratio"),
            latency_us,
            dropped_events: u("dropped_events"),
        })
    }
}

/// Render records as a JSONL document (one line per record).
#[must_use]
pub fn to_jsonl(records: &[RunRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Parse a JSONL document; errors carry the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(RunRecord::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(records)
}

/// Write records to `path` as JSONL.
pub fn write_jsonl(records: &[RunRecord], path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, to_jsonl(records))
}

/// Read and validate a JSONL report from `path`.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    parse_jsonl(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord::new("fig2-strong", "kron-18", "dec-adg-itr")
            .with_threads(8)
            .with_graph_size(262_144, 4_194_304)
            .with_times(12.5, 87.25)
            .with_quality(42, 19, 1337)
            .with_build(250.0, 96.5)
            .with_load_ms(7.5)
            .with_graph_mib(48.25)
            .with_compressed(21.75, 2.22)
            .with_latency(HistogramSummary {
                count: 5,
                p50: 90_000,
                p90: 110_000,
                p99: 110_000,
                max: 101_000,
                mean: 95_000.0,
            })
            .with_dropped_events(7_179)
    }

    #[test]
    fn record_round_trips() {
        let rec = sample();
        assert_eq!(RunRecord::from_json(&rec.to_json()).unwrap(), rec);
        // Minimal record (no optional fields) round-trips too.
        let min = RunRecord::new("check", "path-8", "greedy-ff").with_quality(2, 0, 0);
        assert_eq!(RunRecord::from_json(&min.to_json()).unwrap(), min);
    }

    #[test]
    fn jsonl_round_trips() {
        let records = vec![
            sample(),
            RunRecord::new("fig1", "er-1k", "jp-ff")
                .with_threads(1)
                .with_times(0.0, 1.0)
                .with_quality(7, 3, 0),
        ];
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(parse_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn lines_with_retired_keys_still_parse() {
        // A line as `pgc --report` wrote it before two optional keys were
        // retired. Unknown keys are skipped, so old reports still load and
        // diff; a fresh line carries every kept key and neither retired one.
        const OLD: &str = r#"{"schema":"pgc-report-v1","experiment":"fig2-strong","graph":"s-pok","algorithm":"JP-ADG","threads":1,"n":5000,"m":49487,"order_ms":1.75,"color_ms":1.75,"total_ms":3.5,"rounds":7,"conflicts":0,"colors":11,"ingest_ms":8.25,"graph_mib":0.4375,"build_peak_mib":1.125,"shards":2,"halo_mib":0.25,"latency_us":{"count":1,"p50":3538,"p90":3538,"p99":3538,"max":3538,"mean":3538}}"#;
        let want = RunRecord::new("fig2-strong", "s-pok", "JP-ADG")
            .with_threads(1)
            .with_graph_size(5000, 49487)
            .with_times(1.75, 1.75)
            .with_quality(11, 7, 0)
            .with_build(8.25, 1.125)
            .with_graph_mib(0.4375)
            .with_latency(HistogramSummary {
                count: 1,
                p50: 3538,
                p90: 3538,
                p99: 3538,
                max: 3538,
                mean: 3538.0,
            });
        assert_eq!(parse_jsonl(OLD).unwrap(), vec![want.clone()]);
        let keys = |line: &str| -> Vec<String> {
            let doc = Json::parse(line).unwrap();
            doc.as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        let (old, fresh) = (keys(OLD), keys(&want.to_json()));
        let retired: Vec<&String> = old.iter().filter(|k| !fresh.contains(k)).collect();
        assert_eq!(retired.len(), 2, "{retired:?}");
        assert!(fresh.iter().all(|k| old.contains(k)), "{fresh:?}");
    }

    #[test]
    fn lines_without_dropped_events_still_parse() {
        // A line as `pgc --report` wrote it before records carried the
        // trace's dropped-event count: it loads with the count unknown.
        const OLD: &str = r#"{"schema":"pgc-report-v1","experiment":"fig1","graph":"er-1k","algorithm":"jp-ff","threads":2,"n":1000,"m":5000,"order_ms":0.5,"color_ms":1.25,"total_ms":1.75,"rounds":4,"conflicts":0,"colors":9}"#;
        let want = RunRecord::new("fig1", "er-1k", "jp-ff")
            .with_threads(2)
            .with_graph_size(1000, 5000)
            .with_times(0.5, 1.25)
            .with_quality(9, 4, 0);
        let back = parse_jsonl(OLD).unwrap();
        assert_eq!(back, vec![want.clone()]);
        assert_eq!(back[0].dropped_events, None);
        assert_eq!(want.to_json(), OLD, "an untraced record writes no count");
        let traced = want.with_dropped_events(0);
        assert!(traced.to_json().ends_with(r#""dropped_events":0}"#));
        assert_eq!(RunRecord::from_json(&traced.to_json()).unwrap(), traced);
    }

    #[test]
    fn missing_required_key_is_rejected() {
        let rec = sample();
        let doc = rec.to_json().replace("\"colors\":42,", "");
        let err = RunRecord::from_json(&doc).unwrap_err();
        assert!(err.contains("colors"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = sample().to_json().replace(SCHEMA, "pgc-report-v0");
        assert!(RunRecord::from_json(&doc).unwrap_err().contains("schema"));
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        let mut text = to_jsonl(&[sample()]);
        text.push_str("{\"broken\n");
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn key_is_stable() {
        assert_eq!(sample().key(), "fig2-strong/kron-18/dec-adg-itr@8");
    }
}
