//! Block-structured delta-varint codec for sorted `u32` runs.
//!
//! The graph layer guarantees every adjacency is **strictly ascending**
//! (no duplicates, no self-loops), so consecutive neighbors differ by at
//! least 1 and — on the generator families the harness measures — by a
//! small number most of the time. This module spends that structure:
//! a run is split into fixed blocks of [`BLOCK`] values, and each block
//! stores
//!
//! ```text
//! ┌──────────────┬─────────────┬──────────────────────────────────┐
//! │ anchor  u32  │ dlen  u16   │ LEB128 varints of (vᵢ₊₁ − vᵢ − 1) │
//! │ (first value)│ (delta B)   │ one per remaining value          │
//! └──────────────┴─────────────┴──────────────────────────────────┘
//!      4 B            2 B                 1–5 B each
//! ```
//!
//! * The **anchor** makes every block independently decodable and gives
//!   [`Decoder::skip_to`] an O(1) probe per block: a seek galloping
//!   toward `target` hops whole blocks (64 values each) by reading 6
//!   header bytes, never touching the packed deltas it skips.
//! * The **dlen** field is the byte length of the packed deltas, i.e.
//!   the jump distance to the next block header.
//! * Deltas encode `gap − 1` (strict ascent ⇒ gap ≥ 1), so a dense
//!   consecutive run packs to one zero byte per value.
//!
//! [`Decoder::next_block_into`] materializes a whole block into a
//! caller-provided buffer with an unrolled decode-8-at-a-time loop that
//! does **no per-byte bounds checks in the steady state**: a group of 8
//! varints consumes at most 40 bytes, so one slice-length guard per
//! group licenses unchecked reads; only the final partial group falls
//! back to checked indexing. Decoding arbitrary (corrupt) bytes is
//! memory-safe and panic-free — it can only produce garbage values,
//! never UB — and loaders that must *reject* rather than tolerate
//! corruption run [`validate_run`] first, which strictly checks the
//! block structure against the declared count.

/// Values per block. 64 keeps a decoded block in four cache lines and a
/// full block header + worst-case deltas under 400 bytes.
pub const BLOCK: usize = 64;

/// Bytes of one block header: a 4-byte little-endian anchor plus a
/// 2-byte little-endian delta-section length.
pub const BLOCK_HEADER: usize = 6;

/// Upper bound on the encoded size of one full block
/// (header + 63 worst-case 5-byte varints).
pub const MAX_BLOCK_BYTES: usize = BLOCK_HEADER + (BLOCK - 1) * 5;

/// Encoded bytes of one LEB128 varint of `x`.
#[inline]
fn varint_len(x: u32) -> usize {
    // bits(x) rounded up to a multiple of 7, at least one byte.
    ((32 - x.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Exact encoded byte length of `values` (strictly ascending), without
/// writing anything. `encode_to_slice` emits exactly this many bytes.
pub fn encoded_len(values: &[u32]) -> usize {
    let mut total = 0;
    for block in values.chunks(BLOCK) {
        total += BLOCK_HEADER;
        let mut prev = block[0];
        for &v in &block[1..] {
            total += varint_len(v - prev - 1);
            prev = v;
        }
    }
    total
}

/// Encode `values` (strictly ascending) into `out[..returned]`. The
/// slice must hold at least [`encoded_len`]`(values)` bytes; the exact
/// count written is returned. Panics (debug) on a non-ascending run.
pub fn encode_to_slice(values: &[u32], out: &mut [u8]) -> usize {
    let mut p = 0usize;
    for block in values.chunks(BLOCK) {
        out[p..p + 4].copy_from_slice(&block[0].to_le_bytes());
        let len_at = p + 4;
        p += BLOCK_HEADER;
        let deltas_start = p;
        let mut prev = block[0];
        for &v in &block[1..] {
            debug_assert!(v > prev, "varint runs must be strictly ascending");
            let mut d = v - prev - 1;
            prev = v;
            while d >= 0x80 {
                out[p] = (d as u8) | 0x80;
                d >>= 7;
                p += 1;
            }
            out[p] = d as u8;
            p += 1;
        }
        let dlen = (p - deltas_start) as u16;
        out[len_at..len_at + 2].copy_from_slice(&dlen.to_le_bytes());
    }
    p
}

/// Append the encoding of `values` to `out`.
pub fn encode_into(values: &[u32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + encoded_len(values), 0);
    let written = encode_to_slice(values, &mut out[start..]);
    debug_assert_eq!(written, out.len() - start);
}

/// Little-endian `u16` at `pos`; reads past the slice as 0, so header
/// reads on a truncated (corrupt) run yield garbage instead of a panic.
#[inline]
fn u16_at(bytes: &[u8], pos: usize) -> u16 {
    match bytes.get(pos..).and_then(|t| t.get(..2)) {
        Some(b) => u16::from_le_bytes(b.try_into().unwrap()),
        None => 0,
    }
}

/// Little-endian `u32` at `pos`; reads past the slice as 0 (see
/// [`u16_at`]).
#[inline]
fn u32_at(bytes: &[u8], pos: usize) -> u32 {
    match bytes.get(pos..).and_then(|t| t.get(..4)) {
        Some(b) => u32::from_le_bytes(b.try_into().unwrap()),
        None => 0,
    }
}

/// One LEB128 varint read with bounds checks (tail path). Caps at 5
/// bytes so a corrupt continuation run terminates.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0u32;
    while *pos < bytes.len() {
        let b = bytes[*pos];
        *pos += 1;
        x |= ((b & 0x7f) as u32) << shift;
        shift += 7;
        if b < 0x80 || shift >= 35 {
            break;
        }
    }
    x
}

/// One LEB128 varint read without bounds checks.
///
/// # Safety
/// The caller must guarantee at least 5 readable bytes at `*pos`.
#[inline]
unsafe fn read_varint_unchecked(bytes: &[u8], pos: &mut usize) -> u32 {
    debug_assert!(bytes.len().saturating_sub(*pos) >= 5);
    let mut p = *pos;
    // SAFETY: the caller guarantees 5 readable bytes at `*pos`, so byte
    // `p = *pos` is in bounds.
    let mut b = unsafe { *bytes.get_unchecked(p) };
    p += 1;
    let mut x = (b & 0x7f) as u32;
    let mut shift = 7u32;
    while b >= 0x80 && shift < 35 {
        // SAFETY: the `shift < 35` cap allows at most 4 reads after the
        // first, so `p < *pos + 5`, inside the 5 bytes the caller
        // guarantees.
        b = unsafe { *bytes.get_unchecked(p) };
        p += 1;
        x |= ((b & 0x7f) as u32) << shift;
        shift += 7;
    }
    *pos = p;
    x
}

/// Streaming block decoder over one encoded run of `count` values.
///
/// The decoder is positioned at a block header;
/// [`next_block_into`](Self::next_block_into) materializes the next ≤
/// [`BLOCK`] values and
/// advances, [`skip_to`](Self::skip_to) hops whole blocks toward a
/// target using the anchors, and [`contains`](Self::contains) is the
/// membership probe `intersect`-family callers use without full decode.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
}

impl<'a> Decoder<'a> {
    /// Decode `count` values out of `bytes` (one encoded run).
    #[inline]
    pub fn new(bytes: &'a [u8], count: usize) -> Self {
        Self {
            bytes,
            pos: 0,
            remaining: count,
        }
    }

    /// Values not yet decoded.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// First value of the current block (`None` once exhausted).
    #[inline]
    pub fn peek_anchor(&self) -> Option<u32> {
        (self.remaining > 0).then(|| u32_at(self.bytes, self.pos))
    }

    /// Decode the next block into `out` (which must hold at least
    /// [`BLOCK`] values or the block's count, whichever is smaller);
    /// returns the number of values produced, 0 once exhausted.
    pub fn next_block_into(&mut self, out: &mut [u32]) -> usize {
        if self.remaining == 0 {
            return 0;
        }
        let cnt = self.remaining.min(BLOCK);
        let bytes = self.bytes;
        let anchor = u32_at(bytes, self.pos);
        let mut p = self.pos + BLOCK_HEADER;
        let mut prev = anchor;
        out[0] = anchor;
        let mut i = 1usize;
        // Steady state: one length guard licenses 8 unchecked varint
        // reads (≤ 40 bytes); well-formed input from `encode_to_slice`
        // never leaves the block's delta section. The saturating form
        // matters: on a truncated run `p` may already sit past the end
        // (the 6-byte header read is itself unchecked-by-zero-fill), and
        // a plain subtraction would wrap and license reads past the
        // slice.
        while cnt - i >= 8 && bytes.len().saturating_sub(p) >= 40 {
            // SAFETY: ≥ 40 bytes remain and each capped varint reads ≤ 5.
            unsafe {
                for k in 0..8 {
                    let d = read_varint_unchecked(bytes, &mut p);
                    prev = prev.wrapping_add(d).wrapping_add(1);
                    *out.get_unchecked_mut(i + k) = prev;
                }
            }
            i += 8;
        }
        while i < cnt {
            let d = read_varint(bytes, &mut p);
            prev = prev.wrapping_add(d).wrapping_add(1);
            out[i] = prev;
            i += 1;
        }
        self.pos += BLOCK_HEADER + u16_at(bytes, self.pos + 4) as usize;
        self.remaining -= cnt;
        cnt
    }

    /// Skip whole blocks while the **next** block's anchor is ≤
    /// `target`, so the first block still pending is the only one that
    /// can contain `target` (all later anchors exceed it, all skipped
    /// values are below it). A gallop in units of [`BLOCK`]: each hop
    /// reads 6 header bytes and never touches the packed deltas.
    pub fn skip_to(&mut self, target: u32) {
        while self.remaining > BLOCK {
            let next = self.pos + BLOCK_HEADER + u16_at(self.bytes, self.pos + 4) as usize;
            if u32_at(self.bytes, next) > target {
                break;
            }
            self.pos = next;
            self.remaining -= BLOCK;
        }
    }

    /// Membership probe: `skip_to(target)` then decode and search the one
    /// candidate block. Consumes that block from the stream.
    pub fn contains(&mut self, target: u32) -> bool {
        self.skip_to(target);
        match self.peek_anchor() {
            None => false,
            Some(a) if a > target => false,
            Some(a) if a == target => true,
            Some(_) => {
                let mut buf = [0u32; BLOCK];
                let cnt = self.next_block_into(&mut buf);
                buf[..cnt].binary_search(&target).is_ok()
            }
        }
    }

    /// Decode everything remaining, appending to `out`.
    pub fn decode_into(&mut self, out: &mut Vec<u32>) {
        let start = out.len();
        out.resize(start + self.remaining, 0);
        self.decode_into_slice(&mut out[start..]);
    }

    /// Decode everything remaining into `out`, whose length must equal
    /// [`remaining`](Self::remaining).
    pub fn decode_into_slice(&mut self, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.remaining);
        let mut at = 0usize;
        loop {
            let cnt = self.next_block_into(&mut out[at..]);
            if cnt == 0 {
                break;
            }
            at += cnt;
        }
    }
}

/// Decode a whole run at once (convenience for tests and converters).
pub fn decode_all(bytes: &[u8], count: usize) -> Vec<u32> {
    let mut out = Vec::new();
    Decoder::new(bytes, count).decode_into(&mut out);
    out
}

/// Strict structural check of one encoded run against its declared value
/// `count`, without materializing anything: every block header must lie
/// inside the slice, every delta section must hold exactly the varints
/// its `dlen` field declares (the 5-byte cap respected, no bits past 32),
/// the reconstructed values must stay strictly ascending without `u32`
/// overflow — across block boundaries too — and the run must consume the
/// slice exactly. Output of [`encode_to_slice`] always passes. Loaders
/// run this before trusting foreign bytes, so a corrupt-but-
/// checksum-valid snapshot surfaces as an error instead of garbage
/// values (decoding itself is panic-free either way).
pub fn validate_run(bytes: &[u8], count: usize) -> bool {
    let mut pos = 0usize;
    let mut remaining = count;
    let mut last: Option<u32> = None;
    while remaining > 0 {
        let cnt = remaining.min(BLOCK);
        if bytes.len().saturating_sub(pos) < BLOCK_HEADER {
            return false;
        }
        let anchor = u32_at(bytes, pos);
        let dlen = u16_at(bytes, pos + 4) as usize;
        let deltas_end = pos + BLOCK_HEADER + dlen;
        if deltas_end > bytes.len() || last.is_some_and(|l| anchor <= l) {
            return false;
        }
        let mut p = pos + BLOCK_HEADER;
        let mut v = anchor;
        for _ in 1..cnt {
            let mut d = 0u32;
            let mut shift = 0u32;
            loop {
                if p >= deltas_end {
                    return false;
                }
                let b = bytes[p];
                p += 1;
                // 5th byte: only 4 value bits fit below 32, and a set
                // continuation bit would make a 6th byte.
                if shift == 28 && (b & 0xf0) != 0 {
                    return false;
                }
                d |= ((b & 0x7f) as u32) << shift;
                if b < 0x80 {
                    break;
                }
                shift += 7;
            }
            v = match v.checked_add(d).and_then(|x| x.checked_add(1)) {
                Some(x) => x,
                None => return false,
            };
        }
        if p != deltas_end {
            return false;
        }
        last = Some(v);
        pos = deltas_end;
        remaining -= cnt;
    }
    pos == bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u32]) {
        let mut buf = Vec::new();
        encode_into(values, &mut buf);
        assert_eq!(buf.len(), encoded_len(values));
        assert_eq!(decode_all(&buf, values.len()), values);
    }

    #[test]
    fn empty_and_singleton() {
        round_trip(&[]);
        assert_eq!(encoded_len(&[]), 0);
        round_trip(&[0]);
        round_trip(&[u32::MAX]);
        assert_eq!(encoded_len(&[7]), BLOCK_HEADER);
    }

    #[test]
    fn dense_run_packs_to_one_byte_per_delta() {
        let values: Vec<u32> = (1000..1000 + 200).collect();
        let len = encoded_len(&values);
        // 4 blocks: 64+64+64+8 values; deltas are all gap-1 = 0 → 1 B.
        assert_eq!(len, 4 * BLOCK_HEADER + (values.len() - 4));
        round_trip(&values);
    }

    #[test]
    fn sparse_32bit_spread() {
        let values: Vec<u32> = (0..150).map(|i| i * 28_000_000 + (i % 7)).collect();
        round_trip(&values);
        // Wide gaps cost up to 5 bytes but never more.
        assert!(encoded_len(&values) <= 3 * BLOCK_HEADER + values.len() * 5);
    }

    #[test]
    fn exact_block_boundaries() {
        for n in [63usize, 64, 65, 127, 128, 129] {
            let values: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            round_trip(&values);
        }
    }

    #[test]
    fn skip_to_matches_linear_scan() {
        let values: Vec<u32> = (0..500).map(|i| i * 17 + (i % 5)).collect();
        let mut buf = Vec::new();
        encode_into(&values, &mut buf);
        for target in [0u32, 16, 17, 4000, 8480, values[499], values[499] + 1] {
            let mut dec = Decoder::new(&buf, values.len());
            dec.skip_to(target);
            // Everything skipped is < target; everything pending starts
            // at the last anchor ≤ target (or the very first block).
            let mut rest = Vec::new();
            dec.decode_into(&mut rest);
            let skipped = values.len() - rest.len();
            assert_eq!(&values[skipped..], &rest[..]);
            assert!(values[..skipped].iter().all(|&v| v < target));
            // The candidate block (first BLOCK of rest) covers target if present.
            let linear = values.contains(&target);
            let mut dec = Decoder::new(&buf, values.len());
            assert_eq!(dec.contains(target), linear, "target {target}");
        }
    }

    #[test]
    fn contains_exhaustive_small() {
        let values = [2u32, 3, 5, 8, 13, 21, 34, 55, 89, 144];
        let mut buf = Vec::new();
        encode_into(&values, &mut buf);
        for t in 0..150u32 {
            let mut dec = Decoder::new(&buf, values.len());
            assert_eq!(dec.contains(t), values.contains(&t), "t={t}");
        }
    }

    #[test]
    fn corrupt_bytes_decode_safely() {
        // Arbitrary garbage must stay memory-safe AND panic-free:
        // decoding yields garbage values, never UB and never a panic.
        // Loaders that must reject corruption call `validate_run`; the
        // snapshot path additionally re-validates decoded CSR shape.
        for garbage in [
            (0..64u32)
                .map(|i| (i * 37 + 251) as u8)
                .collect::<Vec<u8>>(),
            vec![0x80u8, 0x80],
            vec![0xffu8; 16],
        ] {
            for count in [1usize, 7, 64, 200] {
                let mut dec = Decoder::new(&garbage, count);
                let mut out = vec![0u32; count];
                let mut at = 0;
                // Terminates: remaining strictly decreases per block.
                while at < count {
                    let got = dec.next_block_into(&mut out[at..]);
                    if got == 0 {
                        break;
                    }
                    at += got;
                }
                assert!(at <= count);
                assert!(
                    !validate_run(&garbage, count),
                    "malformed run must not validate (len {}, count {count})",
                    garbage.len()
                );
            }
        }
    }

    #[test]
    fn truncated_short_runs_decode_safely() {
        // Regression: a run of 4–5 bytes with count ≥ 9 used to wrap the
        // steady-state length guard (`bytes.len() - p` with `p` already
        // past the end) and license unchecked reads past the slice in
        // release builds. Truncated headers must decode to garbage —
        // in-bounds, no panic — for every short length and large count.
        for len in 0usize..=8 {
            let run: Vec<u8> = (0..len).map(|i| 0xf0 | i as u8).collect();
            for count in [1usize, 9, 16, BLOCK, 3 * BLOCK] {
                let mut dec = Decoder::new(&run, count);
                let mut out = vec![0u32; count];
                let mut at = 0;
                while at < count {
                    let got = dec.next_block_into(&mut out[at..]);
                    if got == 0 {
                        break;
                    }
                    at += got;
                }
                assert!(!validate_run(&run, count), "len {len}, count {count}");
                // Panic-free probe paths over the same truncated run.
                let _ = Decoder::new(&run, count).contains(7);
                let mut d = Decoder::new(&run, count);
                d.skip_to(u32::MAX);
                let _ = d.peek_anchor();
            }
        }
    }

    #[test]
    fn validate_run_accepts_encoder_output_and_rejects_corruption() {
        let cases: [Vec<u32>; 5] = [
            vec![],
            vec![42],
            (0..200u32).map(|i| i * 3 + 1).collect(),
            (0..150u32).map(|i| i * 28_000_000 + (i % 7)).collect(),
            vec![0, 1, 2, u32::MAX - 1, u32::MAX],
        ];
        for values in &cases {
            let mut buf = Vec::new();
            encode_into(values, &mut buf);
            assert!(validate_run(&buf, values.len()), "{} values", values.len());
            // Wrong count: too few leaves trailing bytes, too many runs
            // out of blocks.
            if !values.is_empty() {
                assert!(!validate_run(&buf, values.len() - 1));
            }
            assert!(!validate_run(&buf, values.len() + 1));
            // Any truncation breaks the declared structure.
            for cut in 0..buf.len() {
                assert!(!validate_run(&buf[..cut], values.len()), "cut {cut}");
            }
        }
        // Corrupt dlen: points past the run.
        let values: Vec<u32> = (0..100u32).map(|i| i * 5).collect();
        let mut buf = Vec::new();
        encode_into(&values, &mut buf);
        let mut bad = buf.clone();
        bad[4] = 0xff;
        bad[5] = 0xff;
        assert!(!validate_run(&bad, values.len()));
        // Value overflow: a structurally well-formed extra delta that
        // would step past u32::MAX must be rejected, not wrapped.
        let mut overflow = Vec::new();
        encode_into(&[u32::MAX - 1, u32::MAX], &mut overflow);
        let dlen = u16_at(&overflow, 4) as usize;
        overflow[4..6].copy_from_slice(&((dlen + 1) as u16).to_le_bytes());
        overflow.push(0x00); // gap-1 = 0 ⇒ value = u32::MAX + 1
        assert!(!validate_run(&overflow, 3));
    }

    #[test]
    fn anchors_make_blocks_independently_addressable() {
        let values: Vec<u32> = (0..256).map(|i| i * 2).collect();
        let mut buf = Vec::new();
        encode_into(&values, &mut buf);
        // Walk headers: each anchor equals the first value of its block.
        let (mut pos, mut i) = (0usize, 0usize);
        while i < values.len() {
            assert_eq!(u32_at(&buf, pos), values[i]);
            pos += BLOCK_HEADER + u16_at(&buf, pos + 4) as usize;
            i += BLOCK;
        }
        assert_eq!(pos, buf.len());
    }
}
