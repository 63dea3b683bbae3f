//! `Reduce`, `Count`, and `PrefixSum` (§II-D of the paper).
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

/// `Count(S)`: the number of elements satisfying the predicate — the paper's
/// `Count` is `Reduce` with the indicator operator (§II-D).
pub fn count<T: Sync, F: Fn(&T) -> bool + Sync>(items: &[T], pred: F) -> usize {
    reduce_sum_u64(items, |x| pred(x) as u64) as usize
}

/// Parallel maximum with a default for empty input.
pub fn reduce_max<T: Sync, F: Fn(&T) -> u64 + Sync>(items: &[T], f: F) -> u64 {
    if items.len() < SEQ_THRESHOLD {
        items.iter().map(&f).max().unwrap_or(0)
    } else {
        items.par_iter().map(&f).max().unwrap_or(0)
    }
}

/// Exclusive prefix sum: `out[i] = Σ_{j<i} input[j]`; returns the total.
///
/// Classic two-pass blocked scan: per-block sums in parallel, sequential
/// scan over `O(P)` block sums, then parallel block fix-up. `O(n)` work,
/// `O(log n)` depth (the middle pass is over a constant-per-core number of
/// blocks).
pub fn prefix_sum_exclusive(input: &[u64], out: &mut Vec<u64>) -> u64 {
    let n = input.len();
    out.clear();
    out.resize(n, 0);
    if n == 0 {
        return 0;
    }
    if n < SEQ_THRESHOLD {
        let mut acc = 0u64;
        for i in 0..n {
            out[i] = acc;
            acc += input[i];
        }
        return acc;
    }
    let num_blocks = rayon::current_num_threads().max(1) * 4;
    let block = n.div_ceil(num_blocks);
    // Pass 1: per-block sums.
    let mut block_sums: Vec<u64> = input
        .par_chunks(block)
        .map(|c| c.iter().sum::<u64>())
        .collect();
    // Pass 2: sequential exclusive scan of block sums.
    let mut acc = 0u64;
    for s in block_sums.iter_mut() {
        let v = *s;
        *s = acc;
        acc += v;
    }
    let total = acc;
    // Pass 3: per-block exclusive scans offset by the block prefix.
    out.par_chunks_mut(block)
        .zip(input.par_chunks(block))
        .zip(block_sums.par_iter())
        .for_each(|((o, i), &base)| {
            let mut a = base;
            for (oj, &ij) in o.iter_mut().zip(i) {
                *oj = a;
                a += ij;
            }
        });
    total
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
/// Same blocked scan as [`prefix_sum_exclusive`]: `O(n)` work,
/// `O(log n)` depth.
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

/// Convenience: exclusive prefix sum of `u32` degrees into `usize` offsets
/// (the CSR construction path). Returns the total.
pub fn prefix_sum_offsets(counts: &[u32]) -> (Vec<usize>, usize) {
    offsets_from_counts::<usize>(counts)
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
    fn count_matches_filter() {
        let v: Vec<u64> = (0..50_000).collect();
        assert_eq!(
            count(&v, |&x| x % 3 == 0),
            v.iter().filter(|&&x| x % 3 == 0).count()
        );
    }

    #[test]
    fn reduce_max_works() {
        let v: Vec<u64> = vec![3, 9, 1, 9, 2];
        assert_eq!(reduce_max(&v, |&x| x), 9);
        let empty: Vec<u64> = vec![];
        assert_eq!(reduce_max(&empty, |&x| x), 0);
        let large: Vec<u64> = (0..60_000).rev().collect();
        assert_eq!(reduce_max(&large, |&x| x), 59_999);
    }

    #[test]
    fn prefix_sum_small() {
        let input = vec![1u64, 2, 3, 4];
        let mut out = Vec::new();
        let total = prefix_sum_exclusive(&input, &mut out);
        assert_eq!(out, vec![0, 1, 3, 6]);
        assert_eq!(total, 10);
    }

    #[test]
    fn prefix_sum_empty() {
        let mut out = Vec::new();
        assert_eq!(prefix_sum_exclusive(&[], &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn prefix_sum_large_matches_sequential() {
        let input: Vec<u64> = (0..200_000).map(|i| (i * 7 + 3) % 11).collect();
        let mut out = Vec::new();
        let total = prefix_sum_exclusive(&input, &mut out);
        let mut acc = 0u64;
        for i in 0..input.len() {
            assert_eq!(out[i], acc, "mismatch at {i}");
            acc += input[i];
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn offsets_from_counts_small() {
        let (offs, total) = prefix_sum_offsets(&[2, 0, 3]);
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
