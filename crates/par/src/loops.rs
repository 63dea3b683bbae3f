//! Blocked parallel loops and reductions over index ranges.
//!
//! These are the paper's `Reduce`/parallel-for primitives realized with
//! [`join`](crate::join()): recursively halve `0..len` down to a grain, run
//! leaves on whatever threads steal them, and combine results up a *fixed*
//! binary tree — so the combine order (and thus any non-commutative or
//! floating-point reduction) is deterministic for a given `len`/`grain`,
//! independent of scheduling.
//!
//! `for_each_chunk_mut` walks the same fixed tree and hands each leaf its
//! own part of a mutable array, cut along caller-given row starts with
//! `split_at_mut`: the paper's "each vertex writes only its own CSR row"
//! loop, safe and without atomics.
//!
//! `for_each_chunk` (no results to combine, so no tree to keep fixed)
//! additionally splits *adaptively*: it always divides down to one chunk
//! per strand, then keeps splitting toward the fine grain only while the
//! pool's steal counter is moving — i.e. only while some thread actually
//! ran out of work. Uncontended and evenly-loaded runs therefore execute
//! one coarse chunk per strand instead of paying the fixed 8×
//! oversubscription, while uneven runs still shed fine-grained halves to
//! idle thieves. `map_reduce_chunks` keeps the fully fixed tree: its
//! combine order must not depend on runtime contention.

use crate::pool::{current_width, join, steal_count};
use std::ops::Range;

/// Below this many items a leaf never splits further (unless the caller
/// passes a smaller explicit grain): task overhead would dominate.
pub const DEFAULT_MIN_GRAIN: usize = 1024;

/// Leaves-per-worker oversubscription factor: more leaves than workers so
/// work stealing can balance uneven leaf costs.
const PIECES_PER_WORKER: usize = 8;

/// A grain (leaf size) for `len` items at the current width: aims for
/// `PIECES_PER_WORKER` leaves per strand but never below `min_grain`.
/// At width 1 the grain is the whole range (fully sequential).
pub fn auto_grain(len: usize, min_grain: usize) -> usize {
    let width = current_width();
    if width <= 1 {
        return len.max(1);
    }
    len.div_ceil(width * PIECES_PER_WORKER)
        .max(min_grain)
        .max(1)
}

/// Parallel for over `0..len`, invoking `body` on disjoint sub-ranges.
///
/// Ranges are at most `len/width` items (one coarse chunk per strand) and
/// at least [`auto_grain`]`(len, DEFAULT_MIN_GRAIN)` — how far between
/// those bounds a chunk actually splits is *adaptive*: leaves only keep
/// splitting while steals are observed (see module docs). Callers must
/// therefore not depend on chunk boundaries, only on the disjoint-cover
/// property — every index appears in exactly one range.
pub fn for_each_chunk(len: usize, body: impl Fn(Range<usize>) + Sync) {
    let width = current_width();
    if width <= 1 {
        if len > 0 {
            body(0..len);
        }
        return;
    }
    let fine = auto_grain(len, DEFAULT_MIN_GRAIN);
    if len <= fine {
        if len > 0 {
            body(0..len);
        }
        return;
    }
    let coarse = len.div_ceil(width).max(fine);
    rec_for_adaptive(0, len, coarse, fine, &body, steal_count());
}

/// Recursive splitter for [`for_each_chunk`]. Above `coarse`, always
/// split (distribute one chunk per strand). At or below `coarse`,
/// re-sample the global steal counter: if it moved since the value
/// threaded down from the last sample (`steals_seen`), some thread went
/// hungry — split further toward `fine` so thieves find smaller halves;
/// if it is quiet, run the whole chunk here and skip the fork traffic.
fn rec_for_adaptive(
    lo: usize,
    hi: usize,
    coarse: usize,
    fine: usize,
    body: &(impl Fn(Range<usize>) + Sync),
    steals_seen: u64,
) {
    let n = hi - lo;
    if n <= fine {
        if lo < hi {
            body(lo..hi);
        }
        return;
    }
    let steals_seen = if n <= coarse {
        let now = steal_count();
        if now == steals_seen {
            body(lo..hi);
            return;
        }
        now
    } else {
        steals_seen
    };
    let mid = lo + n / 2;
    join(
        || rec_for_adaptive(lo, mid, coarse, fine, body, steals_seen),
        || rec_for_adaptive(mid, hi, coarse, fine, body, steals_seen),
    );
}

/// Blocked reduction over `0..len`: `fold` maps each leaf sub-range (at
/// most `grain` items, `grain = 0` ⇒ [`auto_grain`]) to an `R`, and
/// `combine` merges adjacent results up the tree. Returns `None` iff
/// `len == 0`. Deterministic: the tree shape depends only on `len`/`grain`.
pub fn map_reduce_chunks<R: Send>(
    len: usize,
    grain: usize,
    fold: impl Fn(Range<usize>) -> R + Sync,
    combine: impl Fn(R, R) -> R + Sync,
) -> Option<R> {
    if len == 0 {
        return None;
    }
    let grain = if grain == 0 {
        auto_grain(len, DEFAULT_MIN_GRAIN)
    } else {
        grain
    };
    Some(rec_fixed(
        0,
        len,
        grain,
        (),
        &|(), _, _| ((), ()),
        &|r, ()| fold(r),
        &combine,
    ))
}

/// Parallel for over `0..len` in which index `i` owns the sub-slice
/// `data[start(i) − start(0) .. start(i + 1) − start(0)]` — a CSR row, an
/// arena run — and may write it without atomics or `unsafe`: each leaf
/// range `lo..hi` of [`map_reduce_chunks`]' fixed tree (grain
/// [`auto_grain`]`(len, DEFAULT_MIN_GRAIN)`) gets `body(lo..hi, rows)`
/// with `rows = data[start(lo) − start(0) .. start(hi) − start(0)]`, cut
/// out by `split_at_mut` on the way down. `start` must be monotone, and
/// `start(len) − start(0)` must equal `data.len()`, or this panics. At
/// width 1 `body` runs once, over everything.
pub fn for_each_chunk_mut<T: Send>(
    len: usize,
    data: &mut [T],
    start: impl Fn(usize) -> usize + Sync,
    body: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let base = start(0);
    assert_eq!(
        start(len) - base,
        data.len(),
        "for_each_chunk_mut: start(len) − start(0) must be data.len()"
    );
    if len == 0 {
        return;
    }
    rec_fixed(
        0,
        len,
        auto_grain(len, DEFAULT_MIN_GRAIN),
        data,
        &|rows, lo, mid| <[T]>::split_at_mut(rows, start(mid) - start(lo)),
        &body,
        &|(), ()| (),
    );
}

/// The fixed binary tree behind [`map_reduce_chunks`] and
/// [`for_each_chunk_mut`]: halve `lo..hi` down to `grain`, handing each
/// half its part of `state` (`split(state, lo, mid)`), fold the leaves
/// and combine adjacent results on the way back up.
fn rec_fixed<S: Send, R: Send>(
    lo: usize,
    hi: usize,
    grain: usize,
    state: S,
    split: &(impl Fn(S, usize, usize) -> (S, S) + Sync),
    fold: &(impl Fn(Range<usize>, S) -> R + Sync),
    combine: &(impl Fn(R, R) -> R + Sync),
) -> R {
    if hi - lo <= grain {
        return fold(lo..hi, state);
    }
    let mid = lo + (hi - lo) / 2;
    let (left, right) = split(state, lo, mid);
    let (a, b) = join(
        || rec_fixed(lo, mid, grain, left, split, fold, combine),
        || rec_fixed(mid, hi, grain, right, split, fold, combine),
    );
    combine(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::install;
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

    #[test]
    fn for_each_chunk_covers_every_index_exactly_once() {
        for width in [1usize, 2, 8] {
            let n = 50_000;
            let marks: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            install(width, || {
                for_each_chunk(n, |r| {
                    for i in r {
                        marks[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
            assert!(
                marks.iter().all(|m| m.load(Ordering::Relaxed) == 1),
                "width {width}"
            );
        }
    }

    #[test]
    fn reduce_matches_sequential_sum() {
        let v: Vec<u64> = (0..100_000).map(|i| (i * 7 + 3) % 1000).collect();
        let expect: u64 = v.iter().sum();
        for width in [1usize, 3, 8] {
            let got = install(width, || {
                map_reduce_chunks(
                    v.len(),
                    0,
                    |r| v[r.clone()].iter().sum::<u64>(),
                    |a, b| a + b,
                )
            })
            .unwrap();
            assert_eq!(got, expect, "width {width}");
        }
    }

    #[test]
    fn reduce_is_deterministic_in_tree_shape() {
        // Non-commutative-ish combine (string concat) must be identical at
        // every width because the tree only depends on len/grain.
        let n = 10_000usize;
        let fold = |r: Range<usize>| format!("[{}..{})", r.start, r.end);
        let combine = |a: String, b: String| format!("({a}{b})");
        let seq = install(1, || map_reduce_chunks(n, 512, fold, combine)).unwrap();
        let par = install(8, || map_reduce_chunks(n, 512, fold, combine)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_ranges() {
        let calls = AtomicUsize::new(0);
        for_each_chunk(0, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(map_reduce_chunks(0, 0, |_| 1u32, |a, b| a + b), None);
    }

    #[test]
    fn for_each_chunk_width_one_is_a_single_chunk() {
        // The sequential path must not pay any splitting or fork traffic.
        let calls = AtomicUsize::new(0);
        install(1, || {
            for_each_chunk(1 << 16, |r| {
                assert_eq!(r, 0..1 << 16);
                calls.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn adaptive_chunks_stay_within_grain_bounds() {
        // Whatever the steal feedback does, chunks stay between the fine
        // grain's half (an odd split of a just-above-fine chunk) and the
        // coarse one-per-strand bound, and they tile 0..n exactly.
        let n = 1 << 20;
        let width = 4;
        install(width, || {
            let max_seen = AtomicUsize::new(0);
            let min_seen = AtomicUsize::new(usize::MAX);
            let total = AtomicUsize::new(0);
            for_each_chunk(n, |r| {
                max_seen.fetch_max(r.len(), Ordering::Relaxed);
                min_seen.fetch_min(r.len(), Ordering::Relaxed);
                total.fetch_add(r.len(), Ordering::Relaxed);
            });
            let coarse = n.div_ceil(width);
            let fine = install(width, || auto_grain(n, DEFAULT_MIN_GRAIN));
            assert_eq!(total.load(Ordering::Relaxed), n);
            assert!(max_seen.load(Ordering::Relaxed) <= coarse);
            assert!(min_seen.load(Ordering::Relaxed) >= fine / 2);
        });
    }

    /// Row `i` of a CSR-like layout is `i % 5` items long, so every fifth
    /// row is empty.
    fn ragged_starts(len: usize) -> Vec<usize> {
        let mut starts = vec![0];
        for i in 0..len {
            starts.push(starts[i] + i % 5);
        }
        starts
    }

    #[test]
    fn for_each_chunk_mut_hands_out_every_row_once_with_its_slice() {
        // More rows than the grain floor of 1,024, so widths > 1 split.
        let len = 20_000;
        let starts = ragged_starts(len);
        for width in [1usize, 2, 4, 8] {
            let mut data = vec![0u32; starts[len]];
            let seen: Vec<AtomicU8> = (0..len).map(|_| AtomicU8::new(0)).collect();
            let leaves = AtomicUsize::new(0);
            install(width, || {
                for_each_chunk_mut(
                    len,
                    &mut data,
                    |i| starts[i],
                    |r, rows| {
                        assert_eq!(rows.len(), starts[r.end] - starts[r.start]);
                        leaves.fetch_add(1, Ordering::Relaxed);
                        for i in r.clone() {
                            seen[i].fetch_add(1, Ordering::Relaxed);
                            let lo = starts[i] - starts[r.start];
                            for x in &mut rows[lo..lo + i % 5] {
                                *x += i as u32 + 1;
                            }
                        }
                    },
                );
            });
            assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
            assert_eq!(
                leaves.load(Ordering::Relaxed) > 1,
                width > 1,
                "width {width}"
            );
            for i in 0..len {
                assert!(
                    data[starts[i]..starts[i + 1]]
                        .iter()
                        .all(|&x| x == i as u32 + 1),
                    "width {width}, row {i}"
                );
            }
        }
    }

    #[test]
    fn for_each_chunk_mut_takes_an_offset_start_and_empty_rows() {
        // `start` need not begin at 0, and all-empty rows get empty slices.
        let calls = AtomicUsize::new(0);
        install(4, || {
            for_each_chunk_mut(
                5_000,
                &mut [0u8; 0],
                |_| 7,
                |_, rows| {
                    assert!(rows.is_empty());
                    calls.fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        assert!(calls.load(Ordering::Relaxed) >= 1);
        let mut data = [0u8; 3];
        for_each_chunk_mut(
            3,
            &mut data,
            |i| 10 + i,
            |r, rows| {
                for (i, x) in r.zip(rows) {
                    *x = i as u8;
                }
            },
        );
        assert_eq!(data, [0, 1, 2]);
    }

    #[test]
    fn for_each_chunk_mut_of_nothing_calls_nothing() {
        let calls = AtomicUsize::new(0);
        for width in [1usize, 4] {
            install(width, || {
                for_each_chunk_mut(
                    0,
                    &mut [0u32; 0],
                    |_| 3,
                    |_, _| {
                        calls.fetch_add(1, Ordering::Relaxed);
                    },
                );
            });
        }
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn for_each_chunk_mut_width_one_is_a_single_call() {
        let len = 1 << 16;
        let starts = ragged_starts(len);
        let mut data = vec![0u32; starts[len]];
        let calls = AtomicUsize::new(0);
        install(1, || {
            for_each_chunk_mut(
                len,
                &mut data,
                |i| starts[i],
                |r, rows| {
                    assert_eq!(r, 0..len);
                    assert_eq!(rows.len(), starts[len]);
                    calls.fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "must be data.len()")]
    fn for_each_chunk_mut_rejects_a_start_that_does_not_tile_data() {
        let mut data = [0u32; 10];
        for_each_chunk_mut(4, &mut data, |i| 2 * i, |_, _| {});
    }

    #[test]
    fn auto_grain_respects_floor_and_width() {
        install(1, || assert_eq!(auto_grain(100, 16), 100));
        install(4, || {
            assert_eq!(auto_grain(1 << 20, 1024), (1 << 20) / 32);
            assert_eq!(auto_grain(100, 1024), 1024);
        });
    }
}
