//! Versioned binary snapshots of [`CompactCsr`] / [`CompressedCsr`].
//!
//! Text ingestion is parse-bound (~100 MiB/s through the byte-level
//! reader; see `benches/ingest.rs`), which makes every experiment re-pay
//! the full decode cost of its input. A snapshot stores the CSR arrays
//! **verbatim** behind a checksummed 64-byte header, so loading is a
//! sequential read plus one checksum pass — memory-bandwidth-bound, an
//! order of magnitude faster than parsing — and [`MappedSnapshot`] skips
//! even the copy by `mmap`ing the file and serving [`GraphView`]
//! straight from the page cache.
//!
//! ## On-disk layout (version 1)
//!
//! All fields and arrays are **native-endian**; the header carries an
//! endianness marker so a foreign-endian file is rejected instead of
//! decoded wrong. Every section is zero-padded to an 8-byte boundary so
//! the mmap path can cast `u64` offsets in place.
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
//! The text readers ([`crate::io`]) sniff the magic, so a `.pgcs` file
//! can be handed to any `read_*_path` entry point and transparently
//! takes the fast path.
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
//! Both loaders sniff the version: [`load_snapshot`] decodes a v2 file
//! into a [`CompactCsr`] transparently (so every `read_*_path` entry
//! point accepts either version), while [`load_compressed_snapshot`]
//! serves the arena **zero-copy** from the `mmap` — only the two offset
//! arrays are copied out. Version 1 files are written and read
//! byte-identically to before.

use crate::compact::{CompactCsr, Offsets};
use crate::compressed::{Arena, CompressedCsr};
#[cfg(debug_assertions)]
use crate::csr::validate_csr_arrays;
use crate::csr::validate_csr_shape;
use crate::stream::SharedMut;
use crate::view::{prefetch_read, GraphMemory, GraphView};
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

    /// Byte ranges of the (padded) sections and the expected file
    /// length. The byte-offsets section is zero-length in v1 layouts;
    /// in v2 layouts the `nbr` section holds the encoded arena instead
    /// of a raw `u32` array.
    fn layout(&self) -> std::io::Result<SectionLayout> {
        let n =
            usize::try_from(self.n).map_err(|_| bad("snapshot n exceeds address space".into()))?;
        let arcs = usize::try_from(self.num_arcs)
            .map_err(|_| bad("snapshot num_arcs exceeds address space".into()))?;
        let pad8 = |x: usize| x.div_ceil(8) * 8;
        let off_len = (n + 1)
            .checked_mul(self.offset_width as usize)
            .ok_or_else(|| bad("snapshot offsets section overflows".into()))?;
        let bo_len = if self.compressed() {
            (n + 1)
                .checked_mul(self.byte_offset_width())
                .ok_or_else(|| bad("snapshot byte-offsets section overflows".into()))?
        } else {
            0
        };
        let nbr_len = if self.compressed() {
            usize::try_from(self.encoded_len)
                .map_err(|_| bad("snapshot arena exceeds address space".into()))?
        } else {
            arcs.checked_mul(4)
                .ok_or_else(|| bad("snapshot neighbors section overflows".into()))?
        };
        let w_len = arcs
            .checked_mul(self.weight_width as usize)
            .ok_or_else(|| bad("snapshot weights section overflows".into()))?;
        let off_start = HEADER_LEN;
        let bo_start = off_start + pad8(off_len);
        let nbr_start = bo_start + pad8(bo_len);
        let w_start = nbr_start + pad8(nbr_len);
        Ok(SectionLayout {
            off_start,
            off_len,
            bo_start,
            bo_len,
            nbr_start,
            nbr_len,
            w_start,
            w_len,
            total: w_start + pad8(w_len),
        })
    }
}

struct SectionLayout {
    off_start: usize,
    off_len: usize,
    bo_start: usize,
    bo_len: usize,
    nbr_start: usize,
    nbr_len: usize,
    w_start: usize,
    w_len: usize,
    total: usize,
}

impl SectionLayout {
    /// Padded section slices of `bytes` (whose length is `total`), in
    /// file order: offsets, byte-offsets (empty in v1), neighbors-or-
    /// arena, weights.
    fn sections<'a>(&self, bytes: &'a [u8]) -> [&'a [u8]; 4] {
        [
            &bytes[self.off_start..self.bo_start],
            &bytes[self.bo_start..self.nbr_start],
            &bytes[self.nbr_start..self.w_start],
            &bytes[self.w_start..self.total],
        ]
    }
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

/// Copy `count` `T`s out of `bytes` (alignment-free byte copy).
fn vec_from_bytes<T: Copy + Default>(bytes: &[u8], count: usize) -> Vec<T> {
    let size = std::mem::size_of::<T>();
    debug_assert!(bytes.len() >= count * size);
    let mut v = vec![T::default(); count];
    // SAFETY: every bit pattern is a valid u32/u64, and the source range
    // is in bounds by the layout checks.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), v.as_mut_ptr() as *mut u8, count * size);
    }
    v
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
// Loading (buffered, fully verified)
// ---------------------------------------------------------------------

/// Decode the header, check both checksums and the exact file length,
/// and hand back `(header, layout)`.
fn verify(bytes: &[u8]) -> std::io::Result<(Header, SectionLayout)> {
    let header = Header::decode(bytes)?;
    let layout = header.layout()?;
    if bytes.len() != layout.total {
        return Err(bad(format!(
            "snapshot length {} does not match header ({} expected): truncated or trailing bytes",
            bytes.len(),
            layout.total
        )));
    }
    let payload = payload_checksum(&layout.sections(bytes));
    if payload != header.payload_checksum {
        return Err(bad(format!(
            "snapshot payload checksum mismatch: stored {:#018x}, computed {payload:#018x} \
             (corrupt or bit-flipped file)",
            header.payload_checksum
        )));
    }
    Ok((header, layout))
}

/// Copy `count` 8-byte on-disk offsets out of `bytes` as `usize`s; one
/// that exceeds this platform's `usize` is an error naming `what`.
fn read_wide(bytes: &[u8], count: usize, what: &str) -> std::io::Result<Vec<usize>> {
    vec_from_bytes::<u64>(bytes, count)
        .into_iter()
        .map(|x| {
            usize::try_from(x).map_err(|_| {
                bad(format!(
                    "wide snapshot {what} exceeds this platform's usize"
                ))
            })
        })
        .collect()
}

/// Copy the v2 byte-offsets section out into plain `usize`s.
fn read_byte_offsets(
    bytes: &[u8],
    header: &Header,
    layout: &SectionLayout,
) -> std::io::Result<Vec<usize>> {
    let n = header.n as usize;
    let bo_bytes = &bytes[layout.bo_start..layout.bo_start + layout.bo_len];
    let bo: Vec<usize> = if header.byte_offset_width() == 4 {
        vec_from_bytes::<u32>(bo_bytes, n + 1)
            .into_iter()
            .map(|x| x as usize)
            .collect()
    } else {
        read_wide(bo_bytes, n + 1, "byte offset")?
    };
    // Monotonicity + arena bound, checked before any decode slices it.
    if bo.first() != Some(&0)
        || bo.windows(2).any(|w| w[0] > w[1])
        || bo.last() != Some(&layout.nbr_len)
    {
        return Err(bad(
            "snapshot byte offsets are not monotone within the arena".into(),
        ));
    }
    Ok(bo)
}

/// Decode a v2 arena into a raw neighbor array (parallel, each vertex
/// into its disjoint output range). `get`/`bo` must already be verified
/// monotone and in bounds. Each run's block structure is strictly
/// validated against its declared degree before decoding, so a
/// corrupt-but-checksum-valid file (truncated run, lying `dlen`) errors
/// instead of decoding garbage or panicking.
fn decode_arena(
    n: usize,
    arcs: usize,
    get: &(impl Fn(usize) -> usize + Sync),
    bo: &[usize],
    arena: &[u8],
) -> std::io::Result<Vec<u32>> {
    use rayon::prelude::*;
    if (0..n).any(|i| get(i) > get(i + 1)) || get(n) != arcs {
        return Err(bad("snapshot offsets are not monotone".into()));
    }
    let mut neighbors = vec![0u32; arcs];
    let ptr = SharedMut(neighbors.as_mut_ptr());
    let ok = (0..n).into_par_iter().all(|v| {
        let (s, e) = (get(v), get(v + 1));
        let run = &arena[bo[v]..bo[v + 1]];
        if !pgc_primitives::varint::validate_run(run, e - s) {
            return false;
        }
        let mut dec = pgc_primitives::varint::Decoder::new(run, e - s);
        // SAFETY: per-vertex arc ranges are disjoint (monotone offsets).
        let out = unsafe { ptr.slice(s, e) };
        dec.decode_into_slice(out);
        true
    });
    if !ok {
        return Err(bad(
            "compressed snapshot holds a malformed varint run (length or block \
             structure disagrees with the declared degree)"
                .into(),
        ));
    }
    Ok(neighbors)
}

/// Copy the offsets section out into an [`Offsets`] array.
fn read_offsets(bytes: &[u8], header: &Header, layout: &SectionLayout) -> std::io::Result<Offsets> {
    let n = header.n as usize;
    let off_bytes = &bytes[layout.off_start..layout.off_start + layout.off_len];
    if header.offset_width == 4 {
        Ok(Offsets::Small(vec_from_bytes::<u32>(off_bytes, n + 1)))
    } else {
        Ok(Offsets::Wide(read_wide(off_bytes, n + 1, "offset")?))
    }
}

fn materialize(
    bytes: &[u8],
    header: &Header,
    layout: &SectionLayout,
) -> std::io::Result<CompactCsr> {
    let n = header.n as usize;
    let arcs = header.num_arcs as usize;
    let offsets = read_offsets(bytes, header, layout)?;
    let get = |i: usize| match &offsets {
        Offsets::Small(o) => o[i] as usize,
        Offsets::Wide(o) => o[i],
    };
    let neighbors: Vec<u32> = if header.compressed() {
        let bo = read_byte_offsets(bytes, header, layout)?;
        let arena = &bytes[layout.nbr_start..layout.nbr_start + layout.nbr_len];
        decode_arena(n, arcs, &get, &bo, arena)?
    } else {
        vec_from_bytes(
            &bytes[layout.nbr_start..layout.nbr_start + layout.nbr_len],
            arcs,
        )
    };
    // Always: the O(n + m) shape sweep (monotone offsets, sorted in-range
    // loop-free adjacencies). Debug builds add the O(m log Δ) symmetry
    // cross-check; in release the payload checksum vouches for the writer,
    // which only serializes already-validated graphs.
    validate_csr_shape(n + 1, get, &neighbors)
        .map_err(|e| bad(format!("snapshot holds an invalid CSR: {e}")))?;
    #[cfg(debug_assertions)]
    validate_csr_arrays(n + 1, get, &neighbors)
        .map_err(|e| bad(format!("snapshot holds an invalid CSR: {e}")))?;
    let g = CompactCsr::from_offsets(offsets, neighbors);
    if g.max_degree() != header.max_deg || g.min_degree() != header.min_deg {
        return Err(bad(format!(
            "snapshot degree extremes (Δ={}, δ={}) disagree with arrays (Δ={}, δ={})",
            header.max_deg,
            header.min_deg,
            g.max_degree(),
            g.min_degree()
        )));
    }
    Ok(g)
}

/// Load a graph from in-memory snapshot bytes, verifying both checksums
/// and all CSR invariants. A file with a weights section loads as its
/// structure (the section is skipped).
pub fn load_snapshot_bytes(bytes: &[u8]) -> std::io::Result<CompactCsr> {
    let (header, layout) = verify(bytes)?;
    materialize(bytes, &header, &layout)
}

fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut f = File::open(path)?;
    let mut bytes = Vec::with_capacity(f.metadata().map(|m| m.len() as usize).unwrap_or(0) + 1);
    f.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Load a graph from a snapshot file (one sequential read, fully
/// verified).
pub fn load_snapshot(path: &Path) -> std::io::Result<CompactCsr> {
    load_snapshot_bytes(&read_file(path)?)
}

// ---------------------------------------------------------------------
// Compressed (v2) load — zero-copy arena
// ---------------------------------------------------------------------

/// Release-build validation of a compressed load: every adjacency's
/// encoded run is structurally well-formed
/// ([`pgc_primitives::varint::validate_run`], so truncated or mis-framed
/// runs error instead of panicking or decoding garbage) and decodes to
/// the right count of strictly-ascending, in-range, loop-free ids — the
/// [`crate::csr::validate_csr_shape`] contract, run through the decoder.
/// Debug builds add the symmetry cross-check.
fn validate_compressed(g: &CompressedCsr, n: usize) -> std::io::Result<()> {
    use rayon::prelude::*;
    let ok = (0..n as u32).into_par_iter().all(|v| {
        if !g.validate_encoded_run(v) {
            return false;
        }
        let mut dec = g.decoder(v);
        let mut buf = [0u32; pgc_primitives::varint::BLOCK];
        let mut prev: Option<u32> = None;
        let mut count = 0usize;
        loop {
            let c = dec.next_block_into(&mut buf);
            if c == 0 {
                break;
            }
            for &x in &buf[..c] {
                if x as usize >= n || x == v || prev.is_some_and(|p| p >= x) {
                    return false;
                }
                prev = Some(x);
            }
            count += c;
        }
        count == g.degree(v) as usize
    });
    if !ok {
        return Err(bad(
            "compressed snapshot holds an invalid CSR: adjacency fails the shape sweep".into(),
        ));
    }
    #[cfg(debug_assertions)]
    {
        let symmetric = (0..n as u32)
            .into_par_iter()
            .all(|v| g.with_neighbor_slice(v, |ns| ns.iter().all(|&u| g.has_edge(u, v))));
        if !symmetric {
            return Err(bad(
                "compressed snapshot holds an invalid CSR: adjacency is not symmetric".into(),
            ));
        }
    }
    Ok(())
}

fn open_backing(path: &Path) -> std::io::Result<Backing> {
    #[cfg(unix)]
    {
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        match mm::Mapping::map(&file, len) {
            Ok(m) => Ok(Backing::Mapped(m)),
            Err(_) => Ok(Backing::Owned(AlignedBytes::read_from(path)?)),
        }
    }
    #[cfg(not(unix))]
    {
        Ok(Backing::Owned(AlignedBytes::read_from(path)?))
    }
}

/// Load a snapshot into a [`CompressedCsr`], verifying checksums and the
/// full CSR contract. A version-2 file is served **zero-copy**: the
/// encoded arena stays in the `mmap` (page-cache-backed) and only the
/// two offset arrays are copied out. A version-1 file is materialized and
/// losslessly encoded, so either version works.
pub fn load_compressed_snapshot(path: &Path) -> std::io::Result<CompressedCsr> {
    let backing = open_backing(path)?;
    let (header, layout) = verify(backing.bytes())?;
    if !header.compressed() {
        let g = materialize(backing.bytes(), &header, &layout)?;
        return Ok(CompressedCsr::from_compact(&g));
    }
    let n = header.n as usize;
    let arcs = header.num_arcs as usize;
    let bytes = backing.bytes();
    let offsets = read_offsets(bytes, &header, &layout)?;
    let get = |i: usize| offsets.get(i);
    if (0..n).any(|i| get(i) > get(i + 1)) || get(n) != arcs {
        return Err(bad("snapshot offsets are not monotone".into()));
    }
    let byte_offsets = Offsets::narrow(read_byte_offsets(bytes, &header, &layout)?);
    let arena = Arena::Mapped {
        backing: std::sync::Arc::new(backing),
        start: layout.nbr_start,
        len: layout.nbr_len,
    };
    let g = CompressedCsr::from_encoded_parts(offsets, byte_offsets, arena);
    validate_compressed(&g, n)?;
    if GraphView::max_degree(&g) != header.max_deg || GraphView::min_degree(&g) != header.min_deg {
        return Err(bad(format!(
            "snapshot degree extremes (Δ={}, δ={}) disagree with arrays (Δ={}, δ={})",
            header.max_deg,
            header.min_deg,
            GraphView::max_degree(&g),
            GraphView::min_degree(&g)
        )));
    }
    Ok(g)
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
    let bytes = read_file(path)?;
    let (header, layout) = verify(&bytes)?;
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

// ---------------------------------------------------------------------
// mmap-backed zero-copy load
// ---------------------------------------------------------------------

#[cfg(unix)]
pub(crate) mod mm {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private file mapping (raw `mmap`, unmapped on drop).
    pub struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never mutated, and `munmap`
    // on drop may run on any thread.
    unsafe impl Send for Mapping {}
    // SAFETY: every access through a shared `Mapping` is a read of
    // memory that nothing writes.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub fn map(file: &File, len: usize) -> std::io::Result<Self> {
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we
            // hold open; failure is reported via MAP_FAILED.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Self {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: the mapping covers len bytes for self's lifetime.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: exactly the region returned by mmap.
            unsafe { munmap(self.ptr as *mut core::ffi::c_void, self.len) };
        }
    }
}

/// 8-byte-aligned owned byte buffer — the non-unix (or mmap-failure)
/// fallback backing store, aligned so the in-place casts stay valid.
pub(crate) struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    fn read_from(path: &Path) -> std::io::Result<Self> {
        let mut f = File::open(path)?;
        let len = f.metadata()?.len() as usize;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec<u64> owns at least `len` writable bytes.
        let buf = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        f.read_exact(buf)?;
        Ok(Self { words, len })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: words owns >= len bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

pub(crate) enum Backing {
    #[cfg(unix)]
    Mapped(mm::Mapping),
    Owned(AlignedBytes),
}

impl Backing {
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Owned(b) => b.bytes(),
        }
    }
}

/// A snapshot served **in place**: the offsets and neighbors arrays are
/// borrowed straight from an `mmap`ed file (page-cache-backed, zero copy)
/// and exposed through [`GraphView`], so every algorithm in the workspace
/// runs on it unchanged.
///
/// `open` verifies both checksums and the CSR invariants before handing
/// the view out — one sequential pass over the mapping, after which
/// traversal is as fast as an owned [`CompactCsr`]. On non-unix hosts
/// (or if `mmap` fails) it transparently falls back to an owned aligned
/// buffer with identical semantics. A weights section, if the file has
/// one, is skipped.
pub struct MappedSnapshot {
    backing: Backing,
    small_offsets: bool,
    off_start: usize,
    nbr_start: usize,
    n: usize,
    num_arcs: usize,
    max_deg: u32,
    min_deg: u32,
}

impl MappedSnapshot {
    /// Map `path` and verify it end to end (checksums + CSR invariants).
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Self::from_backing(open_backing(path)?)
    }

    fn from_backing(backing: Backing) -> std::io::Result<Self> {
        let (header, layout) = verify(backing.bytes())?;
        if header.compressed() {
            return Err(bad(
                "compressed (v2) snapshot cannot be served as raw in-place arrays; \
                 use load_compressed_snapshot or load_snapshot"
                    .into(),
            ));
        }
        let s = Self {
            small_offsets: header.offset_width == 4,
            off_start: layout.off_start,
            nbr_start: layout.nbr_start,
            n: header.n as usize,
            num_arcs: header.num_arcs as usize,
            max_deg: header.max_deg,
            min_deg: header.min_deg,
            backing,
        };
        // Same validation policy as the owned loader: linear shape sweep
        // always, symmetry cross-check in debug builds.
        validate_csr_shape(s.n + 1, |i| s.offset(i), s.neighbor_array())
            .map_err(|e| bad(format!("snapshot holds an invalid CSR: {e}")))?;
        #[cfg(debug_assertions)]
        validate_csr_arrays(s.n + 1, |i| s.offset(i), s.neighbor_array())
            .map_err(|e| bad(format!("snapshot holds an invalid CSR: {e}")))?;
        Ok(s)
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        let bytes = self.backing.bytes();
        if self.small_offsets {
            // SAFETY: section bounds checked at open; base is 8-aligned.
            let o = unsafe {
                std::slice::from_raw_parts(
                    bytes.as_ptr().add(self.off_start) as *const u32,
                    self.n + 1,
                )
            };
            o[i] as usize
        } else {
            // SAFETY: section bounds checked at open; base is 8-aligned.
            let o = unsafe {
                std::slice::from_raw_parts(
                    bytes.as_ptr().add(self.off_start) as *const u64,
                    self.n + 1,
                )
            };
            o[i] as usize
        }
    }

    /// The whole neighbor array, borrowed from the mapping.
    #[inline]
    pub fn neighbor_array(&self) -> &[u32] {
        let bytes = self.backing.bytes();
        // SAFETY: section bounds checked at open; 4-aligned by layout.
        unsafe {
            std::slice::from_raw_parts(
                bytes.as_ptr().add(self.nbr_start) as *const u32,
                self.num_arcs,
            )
        }
    }

    /// Sorted neighbor slice of `v`, borrowed from the mapping.
    #[inline]
    pub fn neighbor_slice(&self, v: u32) -> &[u32] {
        &self.neighbor_array()[self.offset(v as usize)..self.offset(v as usize + 1)]
    }

    /// Copy into an owned [`CompactCsr`] (e.g. to outlive the file).
    pub fn to_compact(&self) -> CompactCsr {
        let offsets: Vec<usize> = (0..=self.n).map(|i| self.offset(i)).collect();
        CompactCsr::from_raw(offsets, self.neighbor_array().to_vec())
    }
}

impl GraphView for MappedSnapshot {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, u32>>;

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    #[inline]
    fn degree(&self, v: u32) -> u32 {
        (self.offset(v as usize + 1) - self.offset(v as usize)) as u32
    }

    #[inline]
    fn neighbors(&self, v: u32) -> Self::Neighbors<'_> {
        self.neighbor_slice(v).iter().copied()
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_deg
    }

    #[inline]
    fn min_degree(&self) -> u32 {
        self.min_deg
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbor_slice(u).binary_search(&v).is_ok()
    }

    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        let r = self.offset(v as usize);
        if r < self.num_arcs {
            prefetch_read(&self.neighbor_array()[r]);
        }
    }

    fn memory_footprint(&self) -> GraphMemory {
        GraphMemory {
            offset_width: if self.small_offsets { 4 } else { 8 },
            offset_count: self.n + 1,
            neighbor_width: 4,
            neighbor_count: self.num_arcs,
            encoded_bytes: 0,
            encoded_mapped_bytes: 0,
            aux_bytes: 0,
        }
    }
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
    fn mapped_view_agrees_with_owned() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 8,
                edge_factor: 8,
            },
            11,
        );
        let dir = std::env::temp_dir().join(format!("pgc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pgcs");
        write_snapshot(&g, &path).unwrap();
        let m = MappedSnapshot::open(&path).unwrap();
        assert_eq!(m.n(), g.n());
        assert_eq!(m.num_arcs(), g.num_arcs());
        assert_eq!(GraphView::max_degree(&m), g.max_degree());
        assert_eq!(GraphView::min_degree(&m), g.min_degree());
        for v in g.vertices() {
            assert_eq!(m.neighbor_slice(v), g.neighbors(v));
        }
        assert_eq!(m.to_compact(), g);
        assert!(m.has_edge(g.edges().next().unwrap().0, g.edges().next().unwrap().1));
        std::fs::remove_dir_all(&dir).ok();
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

        // Zero-copy path: arena served from the mapping.
        let c = load_compressed_snapshot(&path).unwrap();
        assert_eq!(c.to_compact(), g);
        let fp = GraphView::memory_footprint(&c);
        assert_eq!(fp.encoded_bytes, 0, "mapped arena is page-cache, not heap");
        assert!(c.encoded_bytes() > 0);
        assert_eq!(
            fp.encoded_mapped_bytes,
            c.encoded_bytes(),
            "representation length must stay visible for mapped arenas"
        );
        assert_eq!(fp.encoded_len(), c.encoded_bytes());
        // Traversed representation counts the mapped arena; the heap
        // charge does not.
        assert_eq!(fp.structural_bytes(), fp.total_bytes() + fp.encoded_len());

        // A raw-array in-place view cannot serve a v2 file.
        assert!(MappedSnapshot::open(&path).is_err());

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
        let (_, layout) = verify(&buf).unwrap();
        // Overwrite the first block header's dlen so the run overruns
        // its slice, then re-seal payload + header checksums.
        buf[layout.nbr_start + 4..layout.nbr_start + 6].copy_from_slice(&u16::MAX.to_le_bytes());
        let mut payload = FNV_OFFSET;
        for section in layout.sections(&buf) {
            payload = hash_section(payload, section);
        }
        buf[40..48].copy_from_slice(&payload.to_ne_bytes());
        let ck = hash_section(FNV_OFFSET, &buf[..56]);
        buf[56..64].copy_from_slice(&ck.to_ne_bytes());
        // Decode path (materialize → decode_arena).
        let err = load_snapshot_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("malformed varint run"), "{err}");
        // Zero-copy path (load_compressed_snapshot → validate_compressed).
        let dir = std::env::temp_dir().join(format!("pgc-snapbad-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pgcs");
        std::fs::write(&path, &buf).unwrap();
        let err = load_compressed_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
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
