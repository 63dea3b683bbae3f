//! Versioned binary snapshots of [`CompactCsr`] / [`CompressedCsr`].
//!
//! Text ingestion is parse-bound (~100 MiB/s through the byte-level
//! reader; see `benches/ingest.rs`), which makes every experiment re-pay
//! the full decode cost of its input. A snapshot stores the CSR arrays
//! **verbatim** behind a checksummed 64-byte header, so a load is one
//! streamed read and one parallel check, an order of magnitude faster
//! than parsing.
//!
//! ## Loading
//!
//! Every loader ([`load_snapshot`], [`load_snapshot_bytes`],
//! [`load_compressed_snapshot`], and so [`crate::io::read_graph`]) runs
//! one decoder over a byte source of known length:
//!
//! 1. The header is decoded and its declared layout checked against the
//!    source's length, before any array is sized from it.
//! 2. The sections stream through one fixed 1 MiB buffer, which folds
//!    the FNV payload checksum and converts each word straight into its
//!    offset or neighbor array. The file is never held as bytes beside
//!    the arrays decoded from it, so a v1 load peaks at the graph's own
//!    size plus the buffer.
//! 3. One parallel pass checks the full CSR contract in every build:
//!    offsets monotone, rows strictly ascending, in range and loop-free,
//!    Δ/δ as the header says, and symmetry. Symmetry is a multiset
//!    fingerprint over GF(2⁶¹ − 1) at a point drawn at random per load:
//!    a symmetric graph always passes, and an asymmetric one with
//!    probability at most m/(2⁶¹ − 2). A v2 load runs the same check on
//!    its decoded blocks, after validating every encoded run.
//!
//! The checksums catch accidents (truncation, bit flips, foreign files);
//! they are trivially re-sealed, so step 3 is what stands between a
//! hostile file and the colorers, which all assume symmetric rows.
//!
//! ## On-disk layout (version 1)
//!
//! All fields and arrays are **native-endian**; the header carries an
//! endianness marker so a foreign-endian file is rejected instead of
//! decoded wrong. Every section is zero-padded to an 8-byte boundary;
//! the padding is part of the format and is covered by the payload
//! checksum.
//!
//! ```text
//! byte  0  ┌────────────────────────────────────────────────┐
//!          │ magic  "PGCSNAP\0"                      (8 B)  │
//!          │ version u16 = 1 · endian u16 = 0xFEFF   (4 B)  │
//!          │ offset_width u8 · weight_kind u8               │
//!          │ weight_width u8 · reserved u8           (4 B)  │
//!          │ n u64 · num_arcs u64                   (16 B)  │
//!          │ max_deg u32 · min_deg u32               (8 B)  │
//!          │ payload_checksum u64                    (8 B)  │
//!          │ reserved u64                            (8 B)  │
//!          │ header_checksum u64 (over bytes 0..56)  (8 B)  │
//! byte 64  ├────────────────────────────────────────────────┤
//!          │ offsets  (n+1) × offset_width, pad → 8         │
//!          ├────────────────────────────────────────────────┤
//!          │ neighbors  num_arcs × 4, pad → 8               │
//!          ├────────────────────────────────────────────────┤
//!          │ weights  num_arcs × weight_width (absent if 0) │
//!          └────────────────────────────────────────────────┘
//! ```
//!
//! `weight_kind` names an edge payload: 0 = none, 1 = `u32`, 2 = `f32`,
//! 3 = `f64`, with `weight_width` 0, 4, 4 and 8 bytes. The writers emit
//! kind 0 only; files that older builds wrote with weights still load as
//! their structure, since every loader skips the weights section. An
//! unknown kind, or a width that disagrees with its kind, is
//! `InvalidData`. Both checksums are FNV-1a over 8-byte words, so a
//! truncated, bit-flipped, or foreign file fails loudly — never a
//! silently wrong graph.
//!
//! [`crate::io::read_graph`] sniffs the magic, so a `.pgcs` file of
//! either version opens through the same call as a text graph.
//!
//! ## On-disk layout (version 2, compressed neighbors)
//!
//! Version 2 snapshots ([`write_compressed_snapshot`]) replace the raw
//! neighbor array with the delta-varint **encoded arena** of a
//! [`CompressedCsr`], typically ≥2× smaller on disk. The header is the
//! same 64 bytes: byte 15 (reserved in v1) becomes a flags byte
//! ([`FLAG_COMPRESSED`], [`FLAG_WIDE_BYTE_OFFSETS`]) and bytes 48..56
//! (reserved in v1) carry the arena length. Sections become:
//!
//! ```text
//! header (64 B, version = 2)
//! offsets       (n+1) × offset_width, pad → 8
//! byte_offsets  (n+1) × (4 or 8),     pad → 8
//! arena         encoded_len bytes,    pad → 8
//! weights       num_arcs × weight_width (absent if 0)
//! ```
//!
//! Both loaders accept either version: [`load_snapshot`] decodes a v2
//! arena into a [`CompactCsr`] ([`CompressedCsr::to_compact`]), and
//! [`load_compressed_snapshot`] keeps a v2 arena encoded and encodes a v1
//! file. Version 1 files are written and read byte-identically to before.

use crate::compact::{CompactCsr, Offsets};
use crate::compressed::CompressedCsr;
use crate::csr::{check_csr, check_rows};
use crate::view::GraphView;
use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// The 8-byte magic every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PGCSNAP\0";

/// Current format version for raw-array snapshots.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Format version for compressed-neighbor snapshots.
pub const SNAPSHOT_VERSION_COMPRESSED: u16 = 2;

/// Header flag (byte 15, bit 0): the neighbors section is a delta-varint
/// encoded arena preceded by a byte-offsets section.
pub const FLAG_COMPRESSED: u8 = 1;

/// Header flag (byte 15, bit 1): the byte-offsets section uses 8-byte
/// entries (arena ≥ 4 GiB) instead of 4-byte.
pub const FLAG_WIDE_BYTE_OFFSETS: u8 = 2;

const KNOWN_FLAGS: u8 = FLAG_COMPRESSED | FLAG_WIDE_BYTE_OFFSETS;

/// Conventional file extension (`graph.pgcs`); nothing depends on it —
/// loaders sniff the magic, not the name.
pub const SNAPSHOT_EXT: &str = "pgcs";

const HEADER_LEN: usize = 64;
const ENDIAN_MARK: u16 = 0xFEFF;

/// True if `prefix` begins with the snapshot magic (give it the first 8+
/// bytes of a file).
pub fn is_snapshot(prefix: &[u8]) -> bool {
    prefix.len() >= SNAPSHOT_MAGIC.len() && prefix[..SNAPSHOT_MAGIC.len()] == SNAPSHOT_MAGIC
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------
// Checksum: FNV-1a over 8-byte words
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Fold `bytes` into `h` one native-endian word at a time; a partial
/// tail word is zero-extended — exactly the zero padding the writer
/// emits, so hashing the unpadded arrays equals hashing the padded file
/// sections.
fn hash_section(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_ne_bytes(c.try_into().unwrap()));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_ne_bytes(tail));
    }
    h
}

/// The payload checksum a header records: [`hash_section`] over the
/// file's sections in order.
fn payload_checksum(sections: &[&[u8]]) -> u64 {
    sections
        .iter()
        .fold(FNV_OFFSET, |h, section| hash_section(h, section))
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
struct Header {
    offset_width: u8,
    weight_kind: u8,
    weight_width: u8,
    /// v2 flag bits (byte 15); 0 in every v1 header.
    flags: u8,
    n: u64,
    num_arcs: u64,
    max_deg: u32,
    min_deg: u32,
    payload_checksum: u64,
    /// Encoded arena length in bytes (v2 only); 0 in every v1 header.
    encoded_len: u64,
}

impl Header {
    #[inline]
    fn compressed(&self) -> bool {
        self.flags & FLAG_COMPRESSED != 0
    }

    /// Byte-offset entry width (meaningful only when compressed).
    #[inline]
    fn byte_offset_width(&self) -> usize {
        if self.flags & FLAG_WIDE_BYTE_OFFSETS != 0 {
            8
        } else {
            4
        }
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let version = if self.compressed() {
            SNAPSHOT_VERSION_COMPRESSED
        } else {
            SNAPSHOT_VERSION
        };
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(&SNAPSHOT_MAGIC);
        h[8..10].copy_from_slice(&version.to_ne_bytes());
        h[10..12].copy_from_slice(&ENDIAN_MARK.to_ne_bytes());
        h[12] = self.offset_width;
        h[13] = self.weight_kind;
        h[14] = self.weight_width;
        h[15] = self.flags;
        h[16..24].copy_from_slice(&self.n.to_ne_bytes());
        h[24..32].copy_from_slice(&self.num_arcs.to_ne_bytes());
        h[32..36].copy_from_slice(&self.max_deg.to_ne_bytes());
        h[36..40].copy_from_slice(&self.min_deg.to_ne_bytes());
        h[40..48].copy_from_slice(&self.payload_checksum.to_ne_bytes());
        h[48..56].copy_from_slice(&self.encoded_len.to_ne_bytes());
        let ck = hash_section(FNV_OFFSET, &h[..56]);
        h[56..64].copy_from_slice(&ck.to_ne_bytes());
        h
    }

    fn decode(bytes: &[u8]) -> std::io::Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(bad(format!(
                "snapshot truncated: {} bytes, header needs {HEADER_LEN}",
                bytes.len()
            )));
        }
        if !is_snapshot(bytes) {
            return Err(bad("not a snapshot: bad magic".into()));
        }
        let u16_at = |i: usize| u16::from_ne_bytes(bytes[i..i + 2].try_into().unwrap());
        let u32_at = |i: usize| u32::from_ne_bytes(bytes[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_ne_bytes(bytes[i..i + 8].try_into().unwrap());
        let stored = u64_at(56);
        let computed = hash_section(FNV_OFFSET, &bytes[..56]);
        if stored != computed {
            return Err(bad(format!(
                "snapshot header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let version = u16_at(8);
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_COMPRESSED {
            return Err(bad(format!(
                "unsupported snapshot version {version} (this build reads \
                 {SNAPSHOT_VERSION} and {SNAPSHOT_VERSION_COMPRESSED})"
            )));
        }
        if u16_at(10) != ENDIAN_MARK {
            return Err(bad(
                "snapshot endianness mismatch: written on a foreign-endian machine".into(),
            ));
        }
        let h = Self {
            offset_width: bytes[12],
            weight_kind: bytes[13],
            weight_width: bytes[14],
            flags: bytes[15],
            n: u64_at(16),
            num_arcs: u64_at(24),
            max_deg: u32_at(32),
            min_deg: u32_at(36),
            payload_checksum: u64_at(40),
            encoded_len: u64_at(48),
        };
        if version == SNAPSHOT_VERSION && (h.flags != 0 || h.encoded_len != 0) {
            return Err(bad(
                "v1 snapshot with nonzero reserved bytes (flags / encoded length)".into(),
            ));
        }
        if version == SNAPSHOT_VERSION_COMPRESSED {
            if h.flags & !KNOWN_FLAGS != 0 {
                return Err(bad(format!(
                    "v2 snapshot carries unknown flags {:#04x}",
                    h.flags
                )));
            }
            if !h.compressed() {
                return Err(bad(
                    "v2 snapshot without the compressed-neighbors flag".into()
                ));
            }
        }
        if !matches!(h.offset_width, 4 | 8) {
            return Err(bad(format!("bad snapshot offset width {}", h.offset_width)));
        }
        let expect_width = match h.weight_kind {
            0 => 0u8,
            1 | 2 => 4,
            3 => 8,
            k => return Err(bad(format!("unknown snapshot weight kind {k}"))),
        };
        if h.weight_width != expect_width {
            return Err(bad(format!(
                "snapshot weight width {} inconsistent with kind {}",
                h.weight_width, h.weight_kind
            )));
        }
        Ok(h)
    }

    /// Unpadded section lengths and the expected file length, all
    /// checked against overflow (the header is untrusted: its checksum
    /// is trivially re-sealed). The byte-offsets section is zero-length
    /// in v1 layouts; in v2 layouts the neighbors section holds the
    /// encoded arena instead of a raw `u32` array.
    fn layout(&self) -> std::io::Result<SectionLayout> {
        if self.n > 1 << 32 {
            return Err(bad(format!(
                "snapshot declares {} vertices, beyond the u32 id space",
                self.n
            )));
        }
        let overflow = || bad("snapshot sections overflow the address space".into());
        let n = usize::try_from(self.n).map_err(|_| overflow())?;
        let arcs = usize::try_from(self.num_arcs).map_err(|_| overflow())?;
        let entries = |width: usize| n.checked_add(1)?.checked_mul(width);
        let off_len = entries(self.offset_width.into());
        let (bo_len, nbr_len) = if self.compressed() {
            (
                entries(self.byte_offset_width()),
                usize::try_from(self.encoded_len).ok(),
            )
        } else {
            (Some(0), arcs.checked_mul(4))
        };
        let w_len = arcs.checked_mul(self.weight_width.into());
        let total = [off_len, bo_len, nbr_len, w_len]
            .into_iter()
            .try_fold(HEADER_LEN, |t, len| {
                t.checked_add(len?.checked_next_multiple_of(8)?)
            });
        match (off_len, bo_len, nbr_len, w_len, total) {
            (Some(off_len), Some(bo_len), Some(nbr_len), Some(w_len), Some(total)) => {
                Ok(SectionLayout {
                    off_len,
                    bo_len,
                    nbr_len,
                    w_len,
                    total,
                })
            }
            _ => Err(overflow()),
        }
    }
}

/// Unpadded section lengths in file order, and the file length (header
/// plus the sections, each padded to 8 bytes).
struct SectionLayout {
    off_len: usize,
    bo_len: usize,
    nbr_len: usize,
    w_len: usize,
    total: usize,
}

// ---------------------------------------------------------------------
// Byte <-> typed-array helpers (plain-old-data only)
// ---------------------------------------------------------------------

/// Raw bytes of a POD slice (`u32`/`usize`).
fn as_bytes<T: Copy>(v: &[T]) -> &[u8] {
    // SAFETY: T is plain-old-data with no padding; reading its object
    // representation is defined.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// The on-disk bytes of an offset array and their entry width: `u32`
/// offsets verbatim, machine-word offsets as `u64`.
fn offset_bytes(offsets: &Offsets) -> (u8, Cow<'_, [u8]>) {
    match offsets {
        Offsets::Small(v) => (4, Cow::Borrowed(as_bytes(v))),
        Offsets::Wide(v) if std::mem::size_of::<usize>() == 8 => (8, Cow::Borrowed(as_bytes(v))),
        Offsets::Wide(v) => (
            8,
            Cow::Owned(v.iter().flat_map(|&x| (x as u64).to_ne_bytes()).collect()),
        ),
    }
}

/// The one snapshot writer: `header`, with its payload checksum computed
/// here over `sections`, then each section in order, zero-padded to an
/// 8-byte boundary. Returns the bytes written.
fn write_sections<Wr: Write>(
    header: Header,
    sections: &[&[u8]],
    w: &mut Wr,
) -> std::io::Result<u64> {
    let header = Header {
        payload_checksum: payload_checksum(sections),
        ..header
    };
    w.write_all(&header.encode())?;
    let mut written = HEADER_LEN as u64;
    const PAD: [u8; 8] = [0; 8];
    for section in sections {
        w.write_all(section)?;
        let pad = (8 - section.len() % 8) % 8;
        w.write_all(&PAD[..pad])?;
        written += (section.len() + pad) as u64;
    }
    Ok(written)
}

/// Serialize a graph to `w` as a version-1 snapshot. Returns the bytes
/// written.
pub fn write_snapshot_to<Wr: Write>(g: &CompactCsr, w: &mut Wr) -> std::io::Result<u64> {
    let (offset_width, off) = offset_bytes(g.raw_offsets());
    let header = Header {
        offset_width,
        n: g.n() as u64,
        num_arcs: g.num_arcs() as u64,
        max_deg: g.max_degree(),
        min_deg: g.min_degree(),
        ..Header::default()
    };
    write_sections(header, &[&off[..], as_bytes(g.raw_neighbors())], w)
}

/// Serialize a graph to a file (buffered, version 1). Returns the bytes
/// written.
pub fn write_snapshot(g: &CompactCsr, path: &Path) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::new(File::create(path)?);
    let bytes = write_snapshot_to(g, &mut w)?;
    w.flush()?;
    Ok(bytes)
}

/// Serialize an already-compressed graph to `w` as a version-2 snapshot
/// (the arena is written verbatim — no re-encode). Returns the bytes
/// written.
pub fn write_compressed_snapshot_to<Wr: Write>(
    g: &CompressedCsr,
    w: &mut Wr,
) -> std::io::Result<u64> {
    let (offset_width, off) = offset_bytes(g.raw_offsets());
    let (byte_offset_width, bo) = offset_bytes(g.raw_byte_offsets());
    let header = Header {
        offset_width,
        flags: if byte_offset_width == 8 {
            FLAG_COMPRESSED | FLAG_WIDE_BYTE_OFFSETS
        } else {
            FLAG_COMPRESSED
        },
        n: g.n() as u64,
        num_arcs: g.num_arcs() as u64,
        max_deg: GraphView::max_degree(g),
        min_deg: GraphView::min_degree(g),
        encoded_len: g.arena_bytes().len() as u64,
        ..Header::default()
    };
    write_sections(header, &[&off[..], &bo, g.arena_bytes()], w)
}

/// Serialize an already-compressed graph to a file (buffered, version 2).
/// Returns the bytes written.
pub fn write_compressed_snapshot(g: &CompressedCsr, path: &Path) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::new(File::create(path)?);
    let bytes = write_compressed_snapshot_to(g, &mut w)?;
    w.flush()?;
    Ok(bytes)
}

// ---------------------------------------------------------------------
// Loading: one streamed decoder for both versions
// ---------------------------------------------------------------------

/// Bytes per read of a snapshot's payload. Every section streams through
/// one buffer of this size straight into its typed array, so a load never
/// holds the file's bytes beside the arrays decoded from them. A multiple
/// of 8, so no checksum word or array entry straddles two reads.
const CHUNK: usize = 1 << 20;

/// A source that ends early is a truncated file.
fn truncated(e: std::io::Error) -> std::io::Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        bad("snapshot truncated: the file ends inside a section".into())
    } else {
        e
    }
}

/// Read and decode the header of a `len`-byte source, and check `len`
/// against the layout the header declares, before anything is sized from
/// the header.
fn open<R: Read>(src: &mut R, len: u64) -> std::io::Result<(Header, SectionLayout)> {
    if len < HEADER_LEN as u64 {
        return Err(bad(format!(
            "snapshot truncated: {len} bytes, header needs {HEADER_LEN}"
        )));
    }
    let mut bytes = [0u8; HEADER_LEN];
    src.read_exact(&mut bytes).map_err(truncated)?;
    let header = Header::decode(&bytes)?;
    let layout = header.layout()?;
    if len != layout.total as u64 {
        return Err(bad(format!(
            "snapshot length {len} does not match header ({} expected): truncated or trailing bytes",
            layout.total
        )));
    }
    Ok((header, layout))
}

/// A snapshot's payload as it streams in: the source, one chunk buffer,
/// and the FNV-1a checksum of every payload byte read so far.
struct Payload<R> {
    src: R,
    chunk: Vec<u8>,
    hash: u64,
}

impl<R: Read> Payload<R> {
    /// The payload of an opened source, `len` bytes long.
    fn new(src: R, len: usize) -> Self {
        Self {
            src,
            chunk: vec![0; CHUNK.min(len)],
            hash: FNV_OFFSET,
        }
    }

    /// Read the next section: `len` bytes and their zero padding to 8,
    /// all hashed. The unpadded bytes go to `sink` one chunk at a time.
    fn section(&mut self, len: usize, mut sink: impl FnMut(&[u8])) -> std::io::Result<()> {
        let padded = len.next_multiple_of(8);
        let mut at = 0;
        while at < padded {
            let take = (padded - at).min(CHUNK);
            let chunk = &mut self.chunk[..take];
            self.src.read_exact(chunk).map_err(truncated)?;
            self.hash = hash_section(self.hash, chunk);
            sink(&chunk[..take.min(len.saturating_sub(at))]);
            at += take;
        }
        Ok(())
    }

    /// Read, hash and drop the next section.
    fn skip(&mut self, len: usize) -> std::io::Result<()> {
        self.section(len, |_| {})
    }

    /// The next section as `count` native-endian `N`-byte words, each
    /// converted by `from` (`u32::from_ne_bytes`, …).
    fn words<T, const N: usize>(
        &mut self,
        count: usize,
        from: fn([u8; N]) -> T,
    ) -> std::io::Result<Vec<T>> {
        let mut out = Vec::with_capacity(count);
        self.section(count * N, |bytes| {
            out.extend(
                bytes
                    .chunks_exact(N)
                    .map(|word| from(word.try_into().expect("chunks_exact yields N bytes"))),
            )
        })?;
        Ok(out)
    }

    /// The next section as `count` offsets of `width` bytes: `u32`
    /// entries as they are, 8-byte ones as `usize`s (an entry beyond this
    /// platform's `usize` is an error naming `what`).
    fn offsets(&mut self, width: usize, count: usize, what: &str) -> std::io::Result<Offsets> {
        if width == 4 {
            return Ok(Offsets::Small(self.words(count, u32::from_ne_bytes)?));
        }
        self.words(count, u64::from_ne_bytes)?
            .into_iter()
            .map(|x| {
                usize::try_from(x).map_err(|_| {
                    bad(format!(
                        "wide snapshot {what} exceeds this platform's usize"
                    ))
                })
            })
            .collect::<std::io::Result<_>>()
            .map(Offsets::Wide)
    }

    /// Once every section is read: the payload checksum must match the
    /// header's, and the source must end here.
    fn finish(mut self, stored: u64) -> std::io::Result<()> {
        if self.hash != stored {
            return Err(bad(format!(
                "snapshot payload checksum mismatch: stored {stored:#018x}, computed {:#018x} \
                 (corrupt or bit-flipped file)",
                self.hash
            )));
        }
        if self.src.read(&mut [0u8; 1])? != 0 {
            return Err(bad(
                "snapshot has trailing bytes past its last section".into()
            ));
        }
        Ok(())
    }
}

/// The header's Δ/δ must match the loaded arrays'.
fn check_degree_extremes(header: &Header, (max_deg, min_deg): (u32, u32)) -> std::io::Result<()> {
    if max_deg != header.max_deg || min_deg != header.min_deg {
        return Err(bad(format!(
            "snapshot degree extremes (Δ={}, δ={}) disagree with arrays (Δ={max_deg}, δ={min_deg})",
            header.max_deg, header.min_deg
        )));
    }
    Ok(())
}

/// A decoded snapshot, in the representation its version stores.
enum Loaded {
    Compact(CompactCsr),
    Compressed(CompressedCsr),
}

impl Loaded {
    fn into_compact(self) -> CompactCsr {
        match self {
            Loaded::Compact(g) => g,
            Loaded::Compressed(c) => c.to_compact(),
        }
    }

    fn into_compressed(self) -> CompressedCsr {
        match self {
            Loaded::Compact(g) => CompressedCsr::from_compact(&g),
            Loaded::Compressed(c) => c,
        }
    }
}

/// The rows section of a snapshot: a v1 file's raw neighbor array, or a
/// v2 file's byte offsets and encoded arena.
enum Rows {
    Raw(Vec<u32>),
    Encoded(Offsets, Vec<u8>),
}

/// The one snapshot decoder, over a `len`-byte source of either version.
/// The header is checked against `len` first; then the sections stream
/// into their arrays, the payload checksum is compared, and one parallel
/// pass checks the full CSR contract, symmetry included (v1:
/// [`check_csr`]; v2: [`validate_compressed`]).
fn decode<R: Read>(mut src: R, len: u64) -> std::io::Result<Loaded> {
    let (header, layout) = open(&mut src, len)?;
    let mut payload = Payload::new(src, layout.total - HEADER_LEN);
    let n = header.n as usize;
    let offsets = payload.offsets(header.offset_width.into(), n + 1, "offset")?;
    let rows = if header.compressed() {
        let byte_offsets = payload.offsets(header.byte_offset_width(), n + 1, "byte offset")?;
        let mut arena = Vec::with_capacity(layout.nbr_len);
        payload.section(layout.nbr_len, |bytes| arena.extend_from_slice(bytes))?;
        Rows::Encoded(byte_offsets, arena)
    } else {
        Rows::Raw(payload.words(header.num_arcs as usize, u32::from_ne_bytes)?)
    };
    // Files older builds wrote with edge weights load as their structure.
    payload.skip(layout.w_len)?;
    payload.finish(header.payload_checksum)?;
    match rows {
        Rows::Raw(neighbors) => {
            let extremes = check_csr(&offsets, &neighbors)
                .map_err(|e| bad(format!("snapshot holds an invalid CSR: {e}")))?;
            check_degree_extremes(&header, extremes)?;
            Ok(Loaded::Compact(CompactCsr::from_checked(
                offsets, neighbors, extremes,
            )))
        }
        Rows::Encoded(byte_offsets, arena) => {
            load_arena(&header, &layout, offsets, byte_offsets, arena).map(Loaded::Compressed)
        }
    }
}

/// The v2 half of [`decode`]: check both offset arrays, then every
/// encoded run ([`validate_compressed`]), and keep the arena encoded.
fn load_arena(
    header: &Header,
    layout: &SectionLayout,
    offsets: Offsets,
    byte_offsets: Offsets,
    arena: Vec<u8>,
) -> std::io::Result<CompressedCsr> {
    let n = header.n as usize;
    let monotone = |o: &Offsets, last: usize| {
        o.get(0) == 0 && (0..n).all(|i| o.get(i) <= o.get(i + 1)) && o.get(n) == last
    };
    if !monotone(&offsets, header.num_arcs as usize) {
        return Err(bad("snapshot offsets are not monotone".into()));
    }
    // Monotonicity + arena bound, checked before any decode slices it.
    if !monotone(&byte_offsets, layout.nbr_len) {
        return Err(bad(
            "snapshot byte offsets are not monotone within the arena".into(),
        ));
    }
    let byte_offsets = match byte_offsets {
        Offsets::Wide(v) => Offsets::narrow(v),
        small => small,
    };
    let g = CompressedCsr::from_encoded_parts(offsets, byte_offsets, arena);
    let extremes = validate_compressed(&g, n)
        .map_err(|e| bad(format!("compressed snapshot holds an invalid CSR: {e}")))?;
    check_degree_extremes(header, extremes)?;
    Ok(g)
}

/// Validation of a v2 load, in every build: each adjacency's encoded run
/// is structurally well-formed ([`pgc_primitives::varint::validate_run`],
/// so truncated or mis-framed runs error instead of panicking or decoding
/// garbage), and the decoded ids go through the same row check and
/// symmetry fingerprint as a v1 load ([`crate::csr`]), block by block.
/// Returns the degree extremes.
fn validate_compressed(g: &CompressedCsr, n: usize) -> Result<(u32, u32), String> {
    check_rows(n, |v, check| {
        if !g.validate_encoded_run(v) {
            check.fail(
                v,
                "malformed varint run (length or block structure disagrees with the declared degree)",
            );
            return;
        }
        check.degree(g.degree(v) as usize);
        let mut dec = g.decoder(v);
        let mut buf = [0u32; pgc_primitives::varint::BLOCK];
        let mut prev = None;
        loop {
            let c = dec.next_block_into(&mut buf);
            if c == 0 || !check.ids(v, prev, &buf[..c]) {
                return;
            }
            prev = Some(buf[c - 1]);
        }
    })
}

/// Load a graph from in-memory snapshot bytes (either version), verifying
/// both checksums and all CSR invariants. A file with a weights section
/// loads as its structure (the section is skipped).
pub fn load_snapshot_bytes(bytes: &[u8]) -> std::io::Result<CompactCsr> {
    Ok(decode(bytes, bytes.len() as u64)?.into_compact())
}

/// Open `path` with its length, for [`decode`].
fn open_file(path: &Path) -> std::io::Result<(File, u64)> {
    let f = File::open(path)?;
    let len = f.metadata()?.len();
    Ok((f, len))
}

/// Load a graph from a snapshot file of either version (one streamed
/// read, fully verified).
pub fn load_snapshot(path: &Path) -> std::io::Result<CompactCsr> {
    let (f, len) = open_file(path)?;
    Ok(decode(f, len)?.into_compact())
}

/// Load a snapshot into a [`CompressedCsr`], verifying checksums and the
/// full CSR contract. A version-2 file keeps its encoded arena as it is
/// (no decode, no re-encode): the arena streams into place once. A
/// version-1 file is loaded and losslessly encoded, so either version
/// works.
pub fn load_compressed_snapshot(path: &Path) -> std::io::Result<CompressedCsr> {
    let (f, len) = open_file(path)?;
    Ok(decode(f, len)?.into_compressed())
}

// ---------------------------------------------------------------------
// Inspection (`pgc snapshot --info`)
// ---------------------------------------------------------------------

/// Everything the header and section table say about a snapshot file,
/// gathered by [`inspect_snapshot`] after full checksum verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version (1 = raw arrays, 2 = compressed neighbors).
    pub version: u16,
    /// True when the neighbors live as a delta-varint arena.
    pub compressed: bool,
    /// Bytes per offset entry (4 or 8).
    pub offset_width: u8,
    /// Bytes per byte-offset entry (4 or 8; 0 when uncompressed).
    pub byte_offset_width: u8,
    /// Stored edge-payload kind: 0 = none, 1 = `u32`, 2 = `f32`, 3 = `f64`
    /// (nonzero only in files older builds wrote with weights).
    pub weight_kind: u8,
    /// Bytes per stored weight (0 when the file carries none).
    pub weight_width: u8,
    /// Number of vertices.
    pub n: u64,
    /// Number of stored directed arcs (`2m`).
    pub num_arcs: u64,
    /// Maximum degree Δ.
    pub max_deg: u32,
    /// Minimum degree δ.
    pub min_deg: u32,
    /// Unpadded byte length of the offsets section.
    pub offsets_bytes: usize,
    /// Unpadded byte length of the byte-offsets section (0 in v1).
    pub byte_offsets_bytes: usize,
    /// Unpadded byte length of the neighbors section: the raw `u32`
    /// array (v1) or the encoded arena (v2).
    pub neighbor_bytes: usize,
    /// Unpadded byte length of the weights section.
    pub weight_bytes: usize,
    /// Total file length (header + padded sections).
    pub file_bytes: usize,
}

impl SnapshotInfo {
    /// Encoded-to-raw neighbor byte ratio (1.0 for uncompressed files).
    pub fn compression_ratio(&self) -> f64 {
        if !self.compressed || self.num_arcs == 0 {
            return 1.0;
        }
        self.neighbor_bytes as f64 / (4 * self.num_arcs) as f64
    }
}

/// Read and fully verify `path`, returning the header / section-table
/// facts (`pgc snapshot --info`). Verifies both checksums, so a corrupt
/// file is reported rather than described.
pub fn inspect_snapshot(path: &Path) -> std::io::Result<SnapshotInfo> {
    let (mut f, len) = open_file(path)?;
    let (header, layout) = open(&mut f, len)?;
    let payload_len = layout.total - HEADER_LEN;
    let mut payload = Payload::new(f, payload_len);
    payload.skip(payload_len)?;
    payload.finish(header.payload_checksum)?;
    Ok(SnapshotInfo {
        version: if header.compressed() {
            SNAPSHOT_VERSION_COMPRESSED
        } else {
            SNAPSHOT_VERSION
        },
        compressed: header.compressed(),
        offset_width: header.offset_width,
        byte_offset_width: if header.compressed() {
            header.byte_offset_width() as u8
        } else {
            0
        },
        weight_kind: header.weight_kind,
        weight_width: header.weight_width,
        n: header.n,
        num_arcs: header.num_arcs,
        max_deg: header.max_deg,
        min_deg: header.min_deg,
        offsets_bytes: layout.off_len,
        byte_offsets_bytes: layout.bo_len,
        neighbor_bytes: layout.nbr_len,
        weight_bytes: layout.w_len,
        file_bytes: layout.total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::gen::{generate, GraphSpec};

    fn snap_bytes(g: &CompactCsr) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot_to(g, &mut buf).unwrap();
        buf
    }

    /// Byte position of section `i` (0 offsets, 1 byte offsets, 2
    /// neighbors or arena, 3 weights) in a snapshot with a valid header.
    fn section_start(buf: &[u8], i: usize) -> usize {
        let layout = Header::decode(buf).unwrap().layout().unwrap();
        let lens = [layout.off_len, layout.bo_len, layout.nbr_len];
        HEADER_LEN
            + lens[..i]
                .iter()
                .map(|l| l.next_multiple_of(8))
                .sum::<usize>()
    }

    /// Recompute both checksums of an edited snapshot. The payload is
    /// every byte after the header: its sections are contiguous and each
    /// a whole number of 8-byte words, so hashing them at once equals
    /// hashing them one by one.
    fn reseal(buf: &mut [u8]) {
        let payload = hash_section(FNV_OFFSET, &buf[HEADER_LEN..]);
        buf[40..48].copy_from_slice(&payload.to_ne_bytes());
        let ck = hash_section(FNV_OFFSET, &buf[..56]);
        buf[56..64].copy_from_slice(&ck.to_ne_bytes());
    }

    /// Whether both checksums of `buf` hold.
    fn checksums_valid(buf: &[u8]) -> bool {
        Header::decode(buf)
            .is_ok_and(|h| hash_section(FNV_OFFSET, &buf[HEADER_LEN..]) == h.payload_checksum)
    }

    #[test]
    fn round_trip_unweighted() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 500, m: 2000 }, 7);
        let back = load_snapshot_bytes(&snap_bytes(&g)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn truncated_and_flipped_rejected() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 200, m: 800 }, 3);
        let buf = snap_bytes(&g);
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            let err = load_snapshot_bytes(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
        }
        // Flip one bit in every region: magic, header fields, payload.
        for pos in [0usize, 9, 13, 20, 40, 60, HEADER_LEN + 3, buf.len() - 2] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                load_snapshot_bytes(&bad).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = snap_bytes(&g);
        buf.extend_from_slice(&[0u8; 8]);
        assert!(load_snapshot_bytes(&buf).is_err());
    }

    #[test]
    fn magic_sniffing() {
        assert!(is_snapshot(&snap_bytes(&CompactCsr::empty(1))));
        assert!(!is_snapshot(b"p edge 4 3"));
        assert!(!is_snapshot(b"PGC"));
    }

    #[test]
    fn empty_graph_round_trips() {
        for n in [0usize, 1, 17] {
            let g = CompactCsr::empty(n);
            let back = load_snapshot_bytes(&snap_bytes(&g)).unwrap();
            assert_eq!(back, g, "n={n}");
        }
    }

    #[test]
    fn compressed_snapshot_round_trips() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 8,
                edge_factor: 8,
            },
            21,
        );
        let dir = std::env::temp_dir().join(format!("pgc-snapc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pgcs");
        let written = write_compressed_snapshot(&CompressedCsr::from_compact(&g), &path).unwrap();
        let v1_len = snap_bytes(&g).len() as u64;
        assert!(
            written < v1_len,
            "v2 file ({written} B) should beat v1 ({v1_len} B)"
        );

        // Transparent decode path: the plain loader accepts v2.
        assert_eq!(load_snapshot(&path).unwrap(), g);

        // Arena path: the v2 arena is kept encoded, byte for byte.
        let c = load_compressed_snapshot(&path).unwrap();
        assert_eq!(c, CompressedCsr::from_compact(&g));
        assert_eq!(c.to_compact(), g);
        let fp = GraphView::memory_footprint(&c);
        assert!(c.encoded_bytes() > 0);
        assert_eq!(fp.encoded_bytes, c.encoded_bytes());
        assert_eq!(
            fp.structural_bytes(),
            fp.offset_bytes() + c.encoded_bytes() + fp.aux_bytes
        );

        // v1 files feed the compressed loader too (materialize + encode).
        let v1_path = dir.join("g1.pgcs");
        write_snapshot(&g, &v1_path).unwrap();
        let c1 = load_compressed_snapshot(&v1_path).unwrap();
        assert_eq!(c1.to_compact(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_truncation_and_flips_rejected() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 200, m: 800 }, 13);
        let c = CompressedCsr::from_compact(&g);
        let mut buf = Vec::new();
        write_compressed_snapshot_to(&c, &mut buf).unwrap();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            let err = load_snapshot_bytes(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
        }
        for pos in [0usize, 9, 15, 20, 40, 50, 60, HEADER_LEN + 3, buf.len() - 2] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                load_snapshot_bytes(&bad).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
    }

    #[test]
    fn checksum_valid_but_malformed_runs_error_not_panic() {
        // A lying dlen inside the arena with both checksums re-sealed is
        // corrupt-but-checksum-valid: FNV is trivially recomputable, so
        // the loaders cannot lean on it — every load path must surface
        // InvalidData instead of panicking mid-decode in a par_iter.
        let g = generate(&GraphSpec::ErdosRenyi { n: 300, m: 1500 }, 17);
        let c = CompressedCsr::from_compact(&g);
        let mut buf = Vec::new();
        write_compressed_snapshot_to(&c, &mut buf).unwrap();
        // Overwrite the first block header's dlen so the run overruns
        // its slice, then re-seal payload + header checksums.
        let arena = section_start(&buf, 2);
        buf[arena + 4..arena + 6].copy_from_slice(&u16::MAX.to_le_bytes());
        reseal(&mut buf);
        // Decoding loader (arena path, then `to_compact`).
        let err = load_snapshot_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("malformed varint run"), "{err}");
        // Arena-keeping loader.
        let dir = std::env::temp_dir().join(format!("pgc-snapbad-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pgcs");
        std::fs::write(&path, &buf).unwrap();
        let err = load_compressed_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A v2 file whose rows are the given encoded runs (`(degree,
    /// bytes)`), written by the v2 writer, which seals both checksums.
    fn v2_file_of_runs(runs: &[(usize, Vec<u8>)]) -> Vec<u8> {
        let (mut offsets, mut byte_offsets, mut arena) = (vec![0], vec![0], Vec::new());
        for (deg, run) in runs {
            offsets.push(offsets.last().unwrap() + deg);
            arena.extend_from_slice(run);
            byte_offsets.push(arena.len());
        }
        let g = CompressedCsr::from_encoded_parts(
            Offsets::narrow(offsets),
            Offsets::narrow(byte_offsets),
            arena,
        );
        let mut buf = Vec::new();
        write_compressed_snapshot_to(&g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn checksum_valid_shape_faults_rejected_by_every_loader() {
        // Re-sealed v2 files, each an otherwise empty 70-vertex graph
        // whose row 0 breaks the CSR shape. A self-loop and an id >= n
        // sit in well-formed varint runs, so only the shape sweep through
        // the decoder catches them. A descending pair cannot: inside a
        // block the deltas only ascend, and `validate_run` requires each
        // block's anchor to exceed the previous block's last value, so
        // it reports the run as malformed.
        use pgc_primitives::varint::{encode_into, validate_run};
        let n = 70u32;
        let enc = |values: &[u32]| {
            let mut out = Vec::new();
            encode_into(values, &mut out);
            out
        };
        let ascending: Vec<u32> = (2..66).collect();
        let faults = [
            ("self-loop", 2, enc(&[0, 1]), "shape sweep"),
            ("id >= n", 2, enc(&[1, n]), "shape sweep"),
            // A full 64-value block ending at 65, then a block anchored at 1.
            (
                "descending pair",
                65,
                [enc(&ascending), enc(&[1])].concat(),
                "malformed varint run",
            ),
        ];
        let dir = std::env::temp_dir().join(format!("pgc-snapshape-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (what, deg, run, expect) in faults {
            assert_eq!(validate_run(&run, deg), expect == "shape sweep", "{what}");
            let mut runs = vec![(deg, run)];
            runs.resize(n as usize, (0, Vec::new()));
            let buf = v2_file_of_runs(&runs);
            assert!(checksums_valid(&buf), "{what}: both checksums are valid");
            let path = dir.join("shape.pgcs");
            std::fs::write(&path, &buf).unwrap();
            let results = [
                load_snapshot_bytes(&buf).map(drop),
                load_snapshot(&path).map(drop),
                load_compressed_snapshot(&path).map(drop),
                crate::io::read_graph(&path).map(drop),
            ];
            for (i, r) in results.into_iter().enumerate() {
                let err = r.expect_err(what);
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{what}, loader {i}"
                );
                assert!(err.to_string().contains(expect), "{what}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every loader on `buf`, from memory and from a file written to
    /// `dir`: `load_snapshot_bytes`, `load_snapshot`,
    /// `load_compressed_snapshot` and `io::read_graph`.
    fn load_everywhere(buf: &[u8], dir: &Path) -> [std::io::Result<()>; 4] {
        let path = dir.join("probe.pgcs");
        std::fs::write(&path, buf).unwrap();
        [
            load_snapshot_bytes(buf).map(drop),
            load_snapshot(&path).map(drop),
            load_compressed_snapshot(&path).map(drop),
            crate::io::read_graph(&path).map(drop),
        ]
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pgc-{tag}-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `(v, i)`: the first row `v` whose `i`-th neighbor `u` can become
    /// `u − 1` with the row still strictly ascending and loop-free. The
    /// edit leaves the arc `v → u − 1` without its reverse.
    fn asymmetric_edit(g: &CompactCsr) -> (u32, usize) {
        g.vertices()
            .find_map(|v| {
                let row = g.neighbors(v);
                (0..row.len())
                    .find(|&i| {
                        let u = row[i];
                        u > 0 && u - 1 != v && (i == 0 || row[i - 1] < u - 1)
                    })
                    .map(|i| (v, i))
            })
            .expect("some row has a gap")
    }

    #[test]
    fn resealed_asymmetric_files_rejected_by_every_loader() {
        use crate::gen::SpecSource;
        use crate::stream::build_compact_with_offset_limit;
        use pgc_primitives::varint::encode_into;
        let spec = GraphSpec::ErdosRenyi { n: 2000, m: 16_000 };
        let g = generate(&spec, 11);
        let (v, i) = asymmetric_edit(&g);
        let arc = g.arc_range(v).start + i;
        let u = g.raw_neighbors()[arc];

        // v1 at 4- and at 8-byte offsets: patch the id in the neighbors
        // section and re-seal both checksums.
        let (wide, _) = build_compact_with_offset_limit(&SpecSource::new(spec, 11), 0).unwrap();
        assert_eq!(wide.offset_width(), 8);
        assert_eq!(wide.raw_neighbors(), g.raw_neighbors());
        let mut files = Vec::new();
        for graph in [&g, &wide] {
            let mut buf = snap_bytes(graph);
            let at = section_start(&buf, 2) + 4 * arc;
            assert_eq!(buf[at..at + 4], u.to_ne_bytes());
            buf[at..at + 4].copy_from_slice(&(u - 1).to_ne_bytes());
            reseal(&mut buf);
            files.push((format!("v1, {}-byte offsets", graph.offset_width()), buf));
        }
        // v2: the same edit, re-encoded; the writer seals the file.
        let runs: Vec<(usize, Vec<u8>)> = g
            .vertices()
            .map(|w| {
                let mut row = g.neighbors(w).to_vec();
                if w == v {
                    row[i] = u - 1;
                }
                let mut run = Vec::new();
                encode_into(&row, &mut run);
                (row.len(), run)
            })
            .collect();
        files.push(("v2".into(), v2_file_of_runs(&runs)));

        let dir = scratch_dir("snapasym");
        for (what, buf) in &files {
            assert!(checksums_valid(buf), "{what}: both checksums are valid");
            for (k, r) in load_everywhere(buf, &dir).into_iter().enumerate() {
                let err = r.expect_err(what);
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{what}, loader {k}"
                );
                assert!(
                    err.to_string().contains("not symmetric"),
                    "{what}, loader {k}: {err}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn headers_larger_than_their_bytes_fail_before_allocating() {
        // Each header claims arrays of up to 2^62 bytes, re-sealed; if a
        // loader sized anything from it before checking the length, the
        // allocation would abort the test instead of returning Err.
        let g = generate(&GraphSpec::ErdosRenyi { n: 100, m: 300 }, 3);
        let v1 = snap_bytes(&g);
        let mut v2 = Vec::new();
        write_compressed_snapshot_to(&CompressedCsr::from_compact(&g), &mut v2).unwrap();
        let lies: [(&[u8], usize, u64, &str); 6] = [
            (&v1, 16, 1 << 32, "does not match header"),
            (&v1, 16, (1 << 32) + 1, "u32 id space"),
            (&v1, 16, u64::MAX, "u32 id space"),
            (&v1, 24, 1 << 60, "does not match header"),
            (&v1, 24, u64::MAX, "overflow"),
            (&v2, 48, 1 << 61, "does not match header"),
        ];
        let dir = scratch_dir("snapbig");
        for (file, at, value, expect) in lies {
            let mut buf = file.to_vec();
            buf[at..at + 8].copy_from_slice(&value.to_ne_bytes());
            let ck = hash_section(FNV_OFFSET, &buf[..56]);
            buf[56..64].copy_from_slice(&ck.to_ne_bytes());
            for (k, r) in load_everywhere(&buf, &dir).into_iter().enumerate() {
                let err = r.expect_err(expect);
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{expect}, loader {k}"
                );
                assert!(err.to_string().contains(expect), "loader {k}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weighted_files_load_as_their_structure() {
        // Files that older builds wrote with an edge-weight section (here
        // f64, kind 3): every loader skips the section.
        let g = generate(&GraphSpec::BarabasiAlbert { n: 300, attach: 3 }, 9);
        let c = CompressedCsr::from_compact(&g);
        let weights: Vec<u8> = (0..g.num_arcs())
            .flat_map(|a| (a as f64 * 0.5).to_ne_bytes())
            .collect();
        let (offset_width, off) = offset_bytes(g.raw_offsets());
        let (_, bo) = offset_bytes(c.raw_byte_offsets());
        let weighted = Header {
            offset_width,
            weight_kind: 3,
            weight_width: 8,
            n: g.n() as u64,
            num_arcs: g.num_arcs() as u64,
            max_deg: g.max_degree(),
            min_deg: g.min_degree(),
            ..Header::default()
        };
        let mut v1 = Vec::new();
        let neighbors = as_bytes(g.raw_neighbors());
        write_sections(weighted, &[&off, neighbors, &weights], &mut v1).unwrap();
        let mut v2 = Vec::new();
        let v2_header = Header {
            flags: FLAG_COMPRESSED,
            encoded_len: c.arena_bytes().len() as u64,
            ..weighted
        };
        let sections: [&[u8]; 4] = [&off, &bo, c.arena_bytes(), &weights];
        write_sections(v2_header, &sections, &mut v2).unwrap();
        let dir = scratch_dir("snapw");
        for buf in [&v1, &v2] {
            assert_eq!(load_snapshot_bytes(buf).unwrap(), g);
            let path = dir.join("w.pgcs");
            std::fs::write(&path, buf).unwrap();
            assert_eq!(load_snapshot(&path).unwrap(), g);
            assert_eq!(load_compressed_snapshot(&path).unwrap(), c);
            assert_eq!(crate::io::read_graph(&path).unwrap(), g);
            assert_eq!(
                inspect_snapshot(&path).unwrap().weight_bytes,
                8 * g.num_arcs()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn offsets_must_start_at_zero() {
        // Three isolated vertices whose offsets all read 1, with one
        // declared arc: monotone, ending at the arc count, and no row to
        // check. A v2 file like this once loaded into a `CompressedCsr`
        // whose `to_compact` panicked.
        let header = Header {
            offset_width: 4,
            flags: FLAG_COMPRESSED,
            n: 3,
            num_arcs: 1,
            ..Header::default()
        };
        let ones = as_bytes(&[1u32; 4]).to_vec();
        let zeros = as_bytes(&[0u32; 4]).to_vec();
        let mut v2 = Vec::new();
        write_sections(header, &[&ones, &zeros, &[]], &mut v2).unwrap();
        let mut v1 = Vec::new();
        let v1_header = Header { flags: 0, ..header };
        write_sections(v1_header, &[&ones, as_bytes(&[2u32])], &mut v1).unwrap();
        let dir = scratch_dir("snapoff0");
        for (what, buf) in [("v1", &v1), ("v2", &v2)] {
            for (k, r) in load_everywhere(buf, &dir).into_iter().enumerate() {
                let err = r.expect_err(what);
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{what}, loader {k}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_reserved_bytes_must_be_zero() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = snap_bytes(&g);
        // Set a flag bit in a v1 header and re-seal the header checksum:
        // the version/flags cross-check must still reject it.
        buf[15] = FLAG_COMPRESSED;
        let ck = hash_section(FNV_OFFSET, &buf[..56]);
        buf[56..64].copy_from_slice(&ck.to_ne_bytes());
        let err = load_snapshot_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn inspect_reports_both_versions() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 400, attach: 4 }, 2);
        let dir = std::env::temp_dir().join(format!("pgc-snapi-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("v1.pgcs");
        let p2 = dir.join("v2.pgcs");
        write_snapshot(&g, &p1).unwrap();
        write_compressed_snapshot(&CompressedCsr::from_compact(&g), &p2).unwrap();
        let i1 = inspect_snapshot(&p1).unwrap();
        let i2 = inspect_snapshot(&p2).unwrap();
        assert_eq!(i1.version, 1);
        assert!(!i1.compressed);
        assert_eq!(i1.neighbor_bytes, 4 * g.num_arcs());
        assert_eq!(i1.byte_offsets_bytes, 0);
        assert_eq!(i1.compression_ratio(), 1.0);
        assert_eq!(i2.version, 2);
        assert!(i2.compressed);
        assert_eq!(i2.n, g.n() as u64);
        assert_eq!(i2.num_arcs, g.num_arcs() as u64);
        assert_eq!(i2.max_deg, g.max_degree());
        assert!(i2.neighbor_bytes < i1.neighbor_bytes);
        assert!(i2.compression_ratio() < 1.0);
        assert!(i2.byte_offsets_bytes > 0);
        assert!(inspect_snapshot(&dir.join("missing.pgcs")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hash_section_matches_padded_equivalent() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        let padded = {
            let mut p = data.to_vec();
            p.resize(16, 0);
            p
        };
        assert_eq!(
            hash_section(FNV_OFFSET, &data),
            hash_section(FNV_OFFSET, &padded)
        );
    }
}
