//! `Reduce` and `PrefixSum` (§II-D of the paper); the paper's `Count` is
//! `Reduce` with the indicator operator.
//!
//! In the work–depth model these run in `O(n)` work and `O(log n)` depth.
//! We realize them with rayon's fork–join parallel iterators, whose
//! divide-and-conquer splitting yields exactly the logarithmic-depth
//! reduction tree assumed by the paper's analysis.

use rayon::prelude::*;

/// Below this size the overhead of spawning tasks dominates: run serially.
/// (Matches the perf-book guidance of not parallelizing tiny loops.)
pub const SEQ_THRESHOLD: usize = 1 << 12;

/// `Reduce` with operator `f` over `items`: returns `Σ f(x)`.
///
/// `O(n)` work, `O(log n)` depth.
pub fn reduce_sum_u64<T: Sync, F: Fn(&T) -> u64 + Sync>(items: &[T], f: F) -> u64 {
    if items.len() < SEQ_THRESHOLD {
        items.iter().map(&f).sum()
    } else {
        items.par_iter().map(&f).sum()
    }
}

/// An offset word width the CSR construction engine can emit: `u32` for
/// the compact fast path (valid while the arc total fits), `usize` for the
/// wide fallback. Implementors promise a lossless round-trip for every
/// value the caller feeds in (the engine checks totals before narrowing).
pub trait OffsetWord: Copy + Default + Send + Sync + 'static {
    /// Narrow a running total into this width.
    fn from_usize(x: usize) -> Self;
    /// Widen back to a machine word.
    fn to_usize(self) -> usize;
}

impl OffsetWord for u32 {
    #[inline]
    fn from_usize(x: usize) -> Self {
        debug_assert!(x <= u32::MAX as usize, "offset {x} overflows u32");
        x as u32
    }
    #[inline]
    fn to_usize(self) -> usize {
        self as usize
    }
}

impl OffsetWord for usize {
    #[inline]
    fn from_usize(x: usize) -> Self {
        x
    }
    #[inline]
    fn to_usize(self) -> usize {
        self
    }
}

/// Parallel exclusive prefix sum of per-vertex counts into CSR offsets:
/// `offsets[v] = Σ_{w<v} counts[w]` with the grand total appended as
/// `offsets[n]`. Returns `(offsets, total)`.
///
/// This is the single offsets-from-degrees engine behind every CSR
/// construction path in the workspace (`CompactCsr` at both offset
/// widths, buffered and streaming alike), generic over the offset width
/// so the `u32` fast path never materializes machine-word offsets.
/// Classic two-pass blocked scan: per-block sums in parallel, a
/// sequential scan over the `O(P)` block sums, then a parallel block
/// fix-up. `O(n)` work, `O(log n)` depth.
pub fn offsets_from_counts<W: OffsetWord>(counts: &[u32]) -> (Vec<W>, usize) {
    let n = counts.len();
    let mut out = vec![W::default(); n + 1];
    if n < SEQ_THRESHOLD {
        let mut acc = 0usize;
        for i in 0..n {
            out[i] = W::from_usize(acc);
            acc += counts[i] as usize;
        }
        out[n] = W::from_usize(acc);
        return (out, acc);
    }
    let num_blocks = rayon::current_num_threads().max(1) * 4;
    let block = n.div_ceil(num_blocks);
    // Pass 1: per-block sums.
    let mut block_sums: Vec<usize> = counts
        .par_chunks(block)
        .map(|c| c.iter().map(|&x| x as usize).sum::<usize>())
        .collect();
    // Pass 2: sequential exclusive scan of the O(P) block sums.
    let mut acc = 0usize;
    for s in block_sums.iter_mut() {
        let v = *s;
        *s = acc;
        acc += v;
    }
    let total = acc;
    // Pass 3: per-block exclusive scans offset by the block prefix.
    out[..n]
        .par_chunks_mut(block)
        .zip(counts.par_chunks(block))
        .zip(block_sums.par_iter())
        .for_each(|((o, c), &base)| {
            let mut a = base;
            for (oj, &cj) in o.iter_mut().zip(c) {
                *oj = W::from_usize(a);
                a += cj as usize;
            }
        });
    out[n] = W::from_usize(total);
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sum_small_and_large() {
        let small: Vec<u64> = (0..100).collect();
        assert_eq!(reduce_sum_u64(&small, |&x| x), 4950);
        let large: Vec<u64> = (0..100_000).collect();
        assert_eq!(reduce_sum_u64(&large, |&x| x), 100_000u64 * 99_999 / 2);
    }

    #[test]
    fn offsets_from_counts_small() {
        let (offs, total) = offsets_from_counts::<usize>(&[2, 0, 3]);
        assert_eq!(offs, vec![0, 2, 2, 5]);
        assert_eq!(total, 5);
        let (offs32, total32) = offsets_from_counts::<u32>(&[2, 0, 3]);
        assert_eq!(offs32, vec![0u32, 2, 2, 5]);
        assert_eq!(total32, 5);
    }

    #[test]
    fn offsets_from_counts_empty() {
        let (offs, total) = offsets_from_counts::<u32>(&[]);
        assert_eq!(offs, vec![0u32]);
        assert_eq!(total, 0);
    }

    #[test]
    fn offsets_from_counts_large_matches_sequential() {
        let counts: Vec<u32> = (0..150_000).map(|i| (i * 13 + 5) % 7).collect();
        let (par_u32, total_u32) = offsets_from_counts::<u32>(&counts);
        let (par_usize, total_usize) = offsets_from_counts::<usize>(&counts);
        let mut acc = 0usize;
        for i in 0..counts.len() {
            assert_eq!(par_u32[i] as usize, acc, "u32 mismatch at {i}");
            assert_eq!(par_usize[i], acc, "usize mismatch at {i}");
            acc += counts[i] as usize;
        }
        assert_eq!(total_u32, acc);
        assert_eq!(total_usize, acc);
        assert_eq!(*par_u32.last().unwrap() as usize, acc);
        assert_eq!(*par_usize.last().unwrap(), acc);
    }
}
