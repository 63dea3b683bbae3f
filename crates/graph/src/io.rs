//! Graph I/O.
//!
//! Three interchange formats so users can run the paper's real datasets
//! when they have them:
//!
//! * whitespace-separated **edge lists** (`u v` per line, extra columns
//!   ignored, `#` comments) — the SNAP/KONECT distribution format,
//! * **DIMACS `.col`** (`p edge n m` header, `e u v` lines, 1-based) — the
//!   classic coloring-benchmark format,
//! * **Matrix Market** coordinate files — the SuiteSparse format; the
//!   value column is checked against the declared field kind and skipped.
//!
//! Every reader is a replayable [`EdgeSource`]: parsing happens inside
//! [`EdgeSource::replay`], so the two-pass streaming builder
//! ([`crate::stream`]) ingests a file with **two sequential scans and no
//! edge buffering**. The [`Reopen`] trait abstracts "give me a fresh
//! reader over the same bytes" — a path reopens the file, a byte slice
//! rewinds for free — so the same parser serves the streaming
//! [`read_edge_list_path`]-style entry points and the buffered
//! [`read_edge_list`]-style `BufRead` compatibility APIs (which slurp the
//! input once, then stream over the in-memory bytes: text is the only
//! buffer, never a decoded arc list).
//!
//! ## The byte-level fast path
//!
//! Text parsing dominates `read_*_path` ingest (each scan must decode
//! every line), so the readers never materialize `String` lines: a single
//! reusable buffer is filled by `read_until(b'\n')` and vertex ids are
//! decoded by a branch-lean ASCII-decimal loop (`parse_u32_ascii`) —
//! no per-line allocation, no UTF-8 validation, no generic
//! `str::parse` machinery on the hot path. `benches/ingest.rs` measures
//! the gain against the old `String`-lines parser.

use crate::compact::CompactCsr;
use crate::stream::{build_compact, ChunkFn, EdgeSink, EdgeSource};
use crate::view::GraphView;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Input that can be opened for reading any number of times, yielding the
/// identical byte stream — what makes a file-backed [`EdgeSource`]
/// replayable.
pub trait Reopen: Sync {
    /// The reader one scan runs over.
    type Reader: BufRead;
    /// Open a fresh reader at the start of the input.
    fn reopen(&self) -> std::io::Result<Self::Reader>;
}

/// A path reopens the underlying file (the streaming case: two
/// sequential scans of the file, zero buffering).
impl Reopen for PathBuf {
    type Reader = BufReader<File>;

    fn reopen(&self) -> std::io::Result<Self::Reader> {
        Ok(BufReader::new(File::open(self)?))
    }
}

/// In-memory bytes replay for free (the compatibility case and tests).
impl<'a> Reopen for &'a [u8] {
    type Reader = &'a [u8];

    fn reopen(&self) -> std::io::Result<Self::Reader> {
        Ok(*self)
    }
}

// ---------------------------------------------------------------------
// Byte-level line/token machinery (the parse fast path)
// ---------------------------------------------------------------------

/// Feed every input line to `f` as a whitespace-trimmed byte slice,
/// through one reusable buffer — no per-line `String`, no UTF-8 check.
fn for_each_line<R: BufRead>(
    mut reader: R,
    mut f: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        f(buf.trim_ascii())?;
    }
}

/// Split the next whitespace-separated token off the front of `s`.
#[inline]
fn next_token<'a>(s: &mut &'a [u8]) -> Option<&'a [u8]> {
    let mut i = 0;
    while i < s.len() && s[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < s.len() && !s[i].is_ascii_whitespace() {
        i += 1;
    }
    let tok = &s[start..i];
    *s = &s[i..];
    (!tok.is_empty()).then_some(tok)
}

/// Byte-level integer fast path: ASCII decimal → `u32`, rejecting
/// non-digits and overflow. An 11+-digit token cannot fit, so the digit
/// loop runs at most 10 times and accumulates in `u64` without
/// per-iteration overflow checks.
#[inline]
fn parse_u32_ascii(tok: &[u8]) -> Option<u32> {
    if tok.is_empty() || tok.len() > 10 {
        return None;
    }
    let mut x: u64 = 0;
    for &b in tok {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        x = x * 10 + d as u64;
    }
    (x <= u32::MAX as u64).then_some(x as u32)
}

fn lossy(line: &[u8]) -> String {
    String::from_utf8_lossy(line).into_owned()
}

/// Take and decode one vertex-id token; `InvalidData` with the offending
/// line if missing or malformed.
#[inline]
fn parse_id_field(rest: &mut &[u8], what: &str, line: &[u8]) -> std::io::Result<u32> {
    next_token(rest)
        .and_then(parse_u32_ascii)
        .ok_or_else(|| bad(format!("missing or bad {what} in line {:?}", lossy(line))))
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// SNAP-style edge list as a streaming [`EdgeSource`]: one `u v` pair per
/// line, `#`/`%` comment lines. Vertex ids may be sparse; the builder
/// sizes the graph by the maximum id + 1 (so
/// [`num_vertices`](EdgeSource::num_vertices) reports 0 — unknown until
/// scanned). Trailing columns are ignored.
pub struct EdgeListSource<R: Reopen> {
    input: R,
}

impl<R: Reopen> EdgeListSource<R> {
    /// Wrap a replayable input.
    pub fn new(input: R) -> Self {
        Self { input }
    }
}

impl<R: Reopen> EdgeSource for EdgeListSource<R> {
    fn num_vertices(&self) -> usize {
        0
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        let reader = self.input.reopen()?;
        let mut sink = EdgeSink::new(emit);
        for_each_line(reader, |line| {
            if line.is_empty() || line[0] == b'#' || line[0] == b'%' {
                return Ok(());
            }
            let mut rest = line;
            let u = parse_id_field(&mut rest, "source", line)?;
            let v = parse_id_field(&mut rest, "target", line)?;
            sink.push(u, v);
            Ok(())
        })
    }
}

/// DIMACS `.col` as a streaming [`EdgeSource`]: `c` comments, one
/// `p edge <n> <m>` line, `e u v` edges with **1-based** vertex ids.
/// The header is parsed eagerly by [`DimacsSource::new`] (a short partial
/// read), so the declared `n` and edge hint are known before the scans.
pub struct DimacsSource<R: Reopen> {
    input: R,
    n: usize,
    m: usize,
}

impl<R: Reopen> DimacsSource<R> {
    /// Wrap a replayable input, reading ahead to the `p edge` header.
    /// Errors if the header is missing or the problem type unsupported.
    pub fn new(input: R) -> std::io::Result<Self> {
        let mut header = None;
        for line in input.reopen()?.lines() {
            let line = line?;
            if let Some(rest) = line.trim().strip_prefix("p ") {
                let t = line.trim();
                let mut it = rest.split_whitespace();
                let kind = it.next().unwrap_or("");
                if kind != "edge" && kind != "edges" && kind != "col" {
                    return Err(bad(format!("unsupported problem type {kind:?}")));
                }
                let n = parse_field(it.next(), "n", t)? as usize;
                let m = parse_field(it.next(), "m", t)
                    .map(|m| m as usize)
                    .unwrap_or(0);
                header = Some((n, m));
                break;
            }
        }
        let (n, m) = header.ok_or_else(|| bad("missing 'p edge' header".into()))?;
        Ok(Self { input, n, m })
    }

    /// Declared vertex count from the `p edge` header.
    pub fn declared_n(&self) -> usize {
        self.n
    }
}

impl<R: Reopen> EdgeSource for DimacsSource<R> {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn edge_hint(&self) -> Option<usize> {
        Some(self.m)
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        let reader = self.input.reopen()?;
        let mut sink = EdgeSink::new(emit);
        for_each_line(reader, |line| {
            let [b'e', sp, ..] = line else {
                return Ok(());
            };
            if !sp.is_ascii_whitespace() {
                return Ok(());
            }
            let mut rest = &line[1..];
            let u = parse_id_field(&mut rest, "u", line)?;
            let v = parse_id_field(&mut rest, "v", line)?;
            if u == 0 || v == 0 {
                return Err(bad(format!(
                    "DIMACS ids are 1-based, got line {:?}",
                    lossy(line)
                )));
            }
            if u as usize > self.n || v as usize > self.n {
                return Err(bad(format!(
                    "edge ({u},{v}) out of declared range n={}",
                    self.n
                )));
            }
            sink.push(u - 1, v - 1);
            Ok(())
        })
    }
}

/// The value-field kind a Matrix Market header declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MmField {
    /// `pattern`: entries are `row col`, no value.
    Pattern,
    /// `real` / `double`: entries are `row col value`.
    Real,
    /// `integer`: entries are `row col value` with integral values.
    Integer,
}

/// Matrix Market coordinate file as a streaming [`EdgeSource`]:
/// rows/columns are vertices, entries are edges. The `%%MatrixMarket`
/// header and size line are parsed eagerly by [`MatrixMarketSource::new`],
/// which rejects `complex` files outright. Entry lines are validated
/// against the declared field kind — a `pattern` file carrying values, or
/// a `real`/`integer` file missing them, is `InvalidData` instead of a
/// silently wrong graph — and a value token is skipped unparsed.
pub struct MatrixMarketSource<R: Reopen> {
    input: R,
    n: usize,
    nnz: usize,
    field: MmField,
}

impl<R: Reopen> MatrixMarketSource<R> {
    /// Wrap a replayable input, reading ahead to the header and size
    /// line. Errors on missing/dense/non-matrix/`complex` headers.
    pub fn new(input: R) -> std::io::Result<Self> {
        let mut lines = input.reopen()?.lines();
        let header = loop {
            match lines.next() {
                Some(line) => {
                    let line = line?;
                    if line.starts_with("%%MatrixMarket") {
                        break line;
                    } else if !line.trim().is_empty() {
                        return Err(bad("missing %%MatrixMarket header".into()));
                    }
                }
                None => return Err(bad("empty Matrix Market file".into())),
            }
        };
        let lower = header.to_ascii_lowercase();
        let mut tokens = lower.split_whitespace().skip(1); // "%%matrixmarket"
        if tokens.next() != Some("matrix") {
            return Err(bad(format!("unsupported Matrix Market header {header:?}")));
        }
        if tokens.next() != Some("coordinate") {
            return Err(bad(format!(
                "unsupported Matrix Market format in {header:?} (only 'coordinate' is sparse)"
            )));
        }
        let field = match tokens.next() {
            Some("pattern") => MmField::Pattern,
            Some("real") | Some("double") => MmField::Real,
            Some("integer") => MmField::Integer,
            Some("complex") => {
                return Err(bad(format!(
                    "complex Matrix Market files are unsupported (header {header:?})"
                )))
            }
            other => {
                return Err(bad(format!(
                    "missing or unknown Matrix Market field {other:?} in header {header:?}"
                )))
            }
        };
        // Size line: first non-comment line after the header.
        for line in lines {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let nrows = parse_field(it.next(), "rows", t)? as usize;
            let ncols = parse_field(it.next(), "cols", t)? as usize;
            let nnz = parse_field(it.next(), "nnz", t)? as usize;
            return Ok(Self {
                input,
                n: nrows.max(ncols),
                nnz,
                field,
            });
        }
        Err(bad("missing Matrix Market size line".into()))
    }
}

impl<R: Reopen> EdgeSource for MatrixMarketSource<R> {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn edge_hint(&self) -> Option<usize> {
        Some(self.nnz)
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        let reader = self.input.reopen()?;
        let mut sink = EdgeSink::new(emit);
        let mut past_size_line = false;
        for_each_line(reader, |line| {
            if line.is_empty() || line[0] == b'%' {
                return Ok(());
            }
            if !past_size_line {
                past_size_line = true; // validated by `new`
                return Ok(());
            }
            let mut rest = line;
            let r = parse_id_field(&mut rest, "row", line)?;
            let c = parse_id_field(&mut rest, "col", line)?;
            if r == 0 || c == 0 {
                return Err(bad(format!(
                    "Matrix Market ids are 1-based: {:?}",
                    lossy(line)
                )));
            }
            if r as usize > self.n || c as usize > self.n {
                return Err(bad(format!("entry ({r},{c}) exceeds size {}", self.n)));
            }
            // Enforce the declared field kind: an entry shape that
            // contradicts the header means the header (or file) is wrong,
            // and silently guessing would hand back a wrong graph.
            match self.field {
                MmField::Pattern => {
                    if next_token(&mut rest).is_some() {
                        return Err(bad(format!(
                            "'pattern' Matrix Market entry carries a value: {:?}",
                            lossy(line)
                        )));
                    }
                }
                MmField::Real | MmField::Integer => {
                    if next_token(&mut rest).is_none() {
                        return Err(bad(format!(
                            "Matrix Market entry missing its declared value: {:?}",
                            lossy(line)
                        )));
                    }
                    if next_token(&mut rest).is_some() {
                        return Err(bad(format!(
                            "Matrix Market entry has extra columns (complex data \
                             under a non-complex header?): {:?}",
                            lossy(line)
                        )));
                    }
                }
            }
            sink.push(r - 1, c - 1);
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------
// Streaming entry points (two sequential file scans, no buffering)
// ---------------------------------------------------------------------

/// Sniff the first bytes of `path` for the binary-snapshot magic
/// ([`crate::snapshot`]). `Ok(true)` means the file is a snapshot and
/// every `read_*_path` entry point takes the fast binary path; a short
/// or unreadable prefix is simply "not a snapshot" (text parsing will
/// produce its own error if the file is truly unreadable).
fn sniff_snapshot(path: &Path) -> bool {
    let mut prefix = [0u8; 8];
    match File::open(path).and_then(|mut f| f.read_exact(&mut prefix)) {
        Ok(()) => crate::snapshot::is_snapshot(&prefix),
        Err(_) => false,
    }
}

/// Read a SNAP-style edge list from a file with two sequential scans and
/// no edge buffering. A binary snapshot (sniffed by magic) loads on the
/// fast path instead, regardless of extension.
pub fn read_edge_list_path(path: &Path) -> std::io::Result<CompactCsr> {
    if sniff_snapshot(path) {
        return crate::snapshot::load_snapshot(path);
    }
    build_compact(&EdgeListSource::new(path.to_path_buf()))
}

/// Read DIMACS `.col` from a file with two sequential scans and no edge
/// buffering. A binary snapshot (sniffed by magic) loads on the fast
/// path instead.
pub fn read_dimacs_col_path(path: &Path) -> std::io::Result<CompactCsr> {
    if sniff_snapshot(path) {
        return crate::snapshot::load_snapshot(path);
    }
    build_compact(&DimacsSource::new(path.to_path_buf())?)
}

/// Read a Matrix Market coordinate file with two sequential scans and no
/// edge buffering. A binary snapshot (sniffed by magic) loads on the
/// fast path instead.
pub fn read_matrix_market_path(path: &Path) -> std::io::Result<CompactCsr> {
    if sniff_snapshot(path) {
        return crate::snapshot::load_snapshot(path);
    }
    build_compact(&MatrixMarketSource::new(path.to_path_buf())?)
}

// ---------------------------------------------------------------------
// `BufRead` compatibility entry points
// ---------------------------------------------------------------------

/// Read the whole input once: a one-shot reader cannot be replayed, so
/// the compatibility APIs stream over the slurped text instead (the raw
/// bytes are the only buffer — no decoded arc list is ever built; the
/// builder's two passes each re-parse the in-memory text).
fn slurp<R: BufRead>(mut reader: R) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Parse a SNAP-style edge list: one `u v` pair per line; lines starting
/// with `#` or `%` are comments. Vertex ids may be sparse; the graph is
/// sized by the maximum id + 1. Prefer [`read_edge_list_path`] for files:
/// it streams in two scans instead of buffering the text. Like every
/// two-pass ingestion, the text is *parsed* twice (count + scatter) —
/// the price of never holding a decoded edge list.
pub fn read_edge_list<R: BufRead>(reader: R) -> std::io::Result<CompactCsr> {
    let bytes = slurp(reader)?;
    build_compact(&EdgeListSource::new(&bytes[..]))
}

/// Parse DIMACS `.col`: `c` comments, one `p edge <n> <m>` line, `e u v`
/// edges with **1-based** vertex ids. Prefer [`read_dimacs_col_path`] for
/// files.
pub fn read_dimacs_col<R: BufRead>(reader: R) -> std::io::Result<CompactCsr> {
    let bytes = slurp(reader)?;
    build_compact(&DimacsSource::new(&bytes[..])?)
}

/// Parse a Matrix Market pattern/coordinate file (`%%MatrixMarket matrix
/// coordinate ...`) as an undirected graph. Prefer
/// [`read_matrix_market_path`] for files.
pub fn read_matrix_market<R: BufRead>(reader: R) -> std::io::Result<CompactCsr> {
    let bytes = slurp(reader)?;
    build_compact(&MatrixMarketSource::new(&bytes[..])?)
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Write an edge list (`u v` per line, each undirected edge once).
pub fn write_edge_list<G: GraphView, W: Write>(g: &G, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# n={} m={}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Write DIMACS `.col`.
pub fn write_dimacs_col<G: GraphView, W: Write>(g: &G, mut w: W) -> std::io::Result<()> {
    writeln!(w, "c generated by parallel-graph-coloring")?;
    writeln!(w, "p edge {} {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "e {} {}", u + 1, v + 1)?;
    }
    Ok(())
}

fn parse_field(field: Option<&str>, what: &str, line: &str) -> std::io::Result<u32> {
    field
        .ok_or_else(|| bad(format!("missing {what} in line {line:?}")))?
        .parse::<u32>()
        .map_err(|e| bad(format!("bad {what} in line {line:?}: {e}")))
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GraphSpec};

    #[test]
    fn fast_u32_parser_agrees_with_std() {
        for s in ["0", "1", "42", "4294967295", "999999999", "10"] {
            assert_eq!(
                parse_u32_ascii(s.as_bytes()),
                s.parse::<u32>().ok(),
                "{s:?}"
            );
        }
        for s in [
            "",
            "-1",
            "+1",
            "4294967296",
            "99999999999",
            "1 2",
            "x",
            "1.5",
        ] {
            assert_eq!(parse_u32_ascii(s.as_bytes()), None, "{s:?}");
        }
    }

    #[test]
    fn tokenizer_splits_on_any_whitespace() {
        let mut s: &[u8] = b"  12\t34  \r";
        assert_eq!(next_token(&mut s), Some(&b"12"[..]));
        assert_eq!(next_token(&mut s), Some(&b"34"[..]));
        assert_eq!(next_token(&mut s), None);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 100, m: 300 }, 9);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        // Isolated trailing vertices may shrink n; compare edge sets.
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn edge_list_comments_and_blanks() {
        let text = "# comment\n\n% other\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_bad_input_errors() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("17\n".as_bytes()).is_err());
        assert!(read_edge_list("-1 2\n".as_bytes()).is_err());
        assert!(
            read_edge_list("4294967296 0\n".as_bytes()).is_err(),
            "overflow"
        );
    }

    #[test]
    fn edge_list_empty_input() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.n(), 0);
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = generate(&GraphSpec::Cycle { n: 12 }, 0);
        let mut buf = Vec::new();
        write_dimacs_col(&g, &mut buf).unwrap();
        let g2 = read_dimacs_col(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn dimacs_parses_reference_text() {
        let text = "c sample\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n";
        let g = read_dimacs_col(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn dimacs_declared_isolated_tail_survives() {
        // n=6 declared but ids only reach 3: the declared size wins.
        let text = "p edge 6 2\ne 1 2\ne 2 3\n";
        let g = read_dimacs_col(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn dimacs_errors() {
        assert!(read_dimacs_col("e 1 2\n".as_bytes()).is_err(), "no header");
        assert!(
            read_dimacs_col("p edge 2 1\ne 0 1\n".as_bytes()).is_err(),
            "0-based id"
        );
        assert!(
            read_dimacs_col("p edge 2 1\ne 1 5\n".as_bytes()).is_err(),
            "out of range"
        );
        assert!(
            read_dimacs_col("p foo 2 1\n".as_bytes()).is_err(),
            "bad problem type"
        );
    }

    #[test]
    fn matrix_market_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a comment\n\
                    4 4 3\n1 2\n2 3\n4 4\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2, "self-loop (4,4) dropped");
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn matrix_market_with_values() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 2\n1 2 0.5\n3 1 -2e3\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 2));
        // Integer values are skipped too, and a duplicate entry merges.
        let text = "%%MatrixMarket matrix coordinate integer general\n\
                    3 3 3\n1 2 4\n2 1 9\n2 3 1\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn matrix_market_rejects_complex_and_mismatched_fields() {
        // `complex` is rejected at header parse.
        let complex = "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 0.5 1.5\n";
        assert!(read_matrix_market(complex.as_bytes()).is_err());
        // Declared `real` but a value is missing: InvalidData, not a
        // silently wrong graph.
        let missing = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 0.5\n2 1\n";
        assert!(read_matrix_market(missing.as_bytes()).is_err());
        // Declared `pattern` but values present.
        let extra = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 0.5\n";
        assert!(read_matrix_market(extra.as_bytes()).is_err());
        // Complex-shaped data under a real header.
        let wide = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 0.5 1.5\n";
        assert!(read_matrix_market(wide.as_bytes()).is_err());
        let pattern = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        assert!(read_matrix_market(pattern.as_bytes()).is_ok());
    }

    #[test]
    fn matrix_market_errors() {
        assert!(
            read_matrix_market("1 1 0\n".as_bytes()).is_err(),
            "no header"
        );
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real\n2 2\n".as_bytes()).is_err(),
            "dense format unsupported"
        );
        assert!(
            read_matrix_market("%%MatrixMarket matrix coordinate pattern\n2 2 1\n0 1\n".as_bytes())
                .is_err(),
            "0-based entry"
        );
        assert!(
            read_matrix_market("%%MatrixMarket matrix coordinate pattern\n2 2 1\n3 1\n".as_bytes())
                .is_err(),
            "out of range"
        );
    }

    #[test]
    fn sources_replay_identically() {
        // The bit-for-bit replay contract the two-pass builder relies on.
        let text = "p edge 5 3\ne 1 2\ne 4 5\ne 2 3\n".as_bytes();
        let src = DimacsSource::new(text).unwrap();
        let mut a: Vec<(u32, u32)> = Vec::new();
        let mut b: Vec<(u32, u32)> = Vec::new();
        src.replay(&mut |c, _| a.extend_from_slice(c)).unwrap();
        src.replay(&mut |c, _| b.extend_from_slice(c)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, vec![(0, 1), (3, 4), (1, 2)]);
        assert_eq!(src.declared_n(), 5);
    }
}
