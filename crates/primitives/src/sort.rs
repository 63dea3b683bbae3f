//! Linear-time integer sorts (§V-B, §V-D).
//!
//! The paper's ADG-O sorts each removed batch `R(i)` by residual degree with
//! a linear-time integer sort ("Sorting can be performed with linear time
//! integer sort", §V-B) and evaluates radix sort, counting sort, and
//! quicksort variants (§VI-J). We provide:
//!
//! * [`counting_sort_by_key`] — stable counting sort for small key ranges
//!   (degrees are bounded by Δ),
//! * [`radix_sort_pairs`] — LSD radix sort on `(u32 key, u32 value)` pairs,
//! * [`sort_pairs_std`] — comparison sort baseline (pattern-defeating
//!   quicksort via `sort_unstable`), the paper's "quicksort" variant.

/// Stable counting sort of `items` by `key(item) < key_bound`.
///
/// `O(n + key_bound)` work. Suitable when keys are residual degrees
/// (bounded by the maximum degree of the shrinking subgraph).
pub fn counting_sort_by_key<T: Clone, F: Fn(&T) -> u32>(
    items: &mut Vec<T>,
    key_bound: u32,
    key: F,
) {
    let n = items.len();
    if n <= 1 {
        return;
    }
    let mut counts = vec![0u32; key_bound as usize + 1];
    for it in items.iter() {
        let k = key(it);
        debug_assert!(k < key_bound || key_bound == 0);
        counts[k.min(key_bound) as usize] += 1;
    }
    // Exclusive prefix sum over counts = starting position of each key.
    let mut acc = 0u32;
    for c in counts.iter_mut() {
        let v = *c;
        *c = acc;
        acc += v;
    }
    let mut out: Vec<T> = Vec::with_capacity(n);
    // SAFETY-free approach: clone into a scatter buffer.
    out.resize(n, items[0].clone());
    for it in items.iter() {
        let k = key(it).min(key_bound) as usize;
        out[counts[k] as usize] = it.clone();
        counts[k] += 1;
    }
    *items = out;
}

/// Stable LSD radix sort of `(key, value)` pairs by `key`, 2 × 16-bit digits.
///
/// `O(n)` work with two counting passes. This is the "Radix sort" variant
/// used in the paper's evaluation parametrization (Fig. 1 caption).
pub fn radix_sort_pairs(pairs: &mut Vec<(u32, u32)>) {
    const RADIX: usize = 1 << 16;
    let n = pairs.len();
    if n <= 1 {
        return;
    }
    let mut aux: Vec<(u32, u32)> = vec![(0, 0); n];
    let mut counts = vec![0u32; RADIX];

    for shift in [0u32, 16] {
        counts.fill(0);
        for &(k, _) in pairs.iter() {
            counts[((k >> shift) as usize) & (RADIX - 1)] += 1;
        }
        let mut acc = 0u32;
        for c in counts.iter_mut() {
            let v = *c;
            *c = acc;
            acc += v;
        }
        for &p in pairs.iter() {
            let d = ((p.0 >> shift) as usize) & (RADIX - 1);
            aux[counts[d] as usize] = p;
            counts[d] += 1;
        }
        std::mem::swap(pairs, &mut aux);
    }
}

/// Comparison-sort baseline on `(key, value)` pairs (unstable, by key then
/// value so the result is fully deterministic).
pub fn sort_pairs_std(pairs: &mut [(u32, u32)]) {
    pairs.sort_unstable();
}

/// Which integer sort to use for the §V-B batch ordering; evaluated as a
/// design choice in §VI-J.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortAlgo {
    /// LSD radix sort (paper's default parametrization).
    #[default]
    Radix,
    /// Counting sort keyed by (bounded) residual degree.
    Counting,
    /// `sort_unstable` comparison sort (the "quicksort" variant).
    Quick,
}

/// Sort `(key, value)` pairs with the selected algorithm. `key_bound` is an
/// exclusive upper bound on keys (used by counting sort; ignored otherwise).
pub fn sort_pairs(pairs: &mut Vec<(u32, u32)>, key_bound: u32, algo: SortAlgo) {
    match algo {
        SortAlgo::Radix => radix_sort_pairs(pairs),
        SortAlgo::Counting => counting_sort_by_key(pairs, key_bound.max(1), |p| p.0),
        SortAlgo::Quick => sort_pairs_std(pairs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_pairs(n: usize, key_bound: u32, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = SplitMix64::new(seed);
        (0..n as u32).map(|i| (rng.below(key_bound), i)).collect()
    }

    #[test]
    fn counting_sort_sorts_and_is_stable() {
        let mut v = vec![(3u32, 0u32), (1, 1), (3, 2), (0, 3), (1, 4)];
        counting_sort_by_key(&mut v, 4, |p| p.0);
        assert_eq!(v, vec![(0, 3), (1, 1), (1, 4), (3, 0), (3, 2)]);
    }

    #[test]
    fn counting_sort_trivial_inputs() {
        let mut empty: Vec<(u32, u32)> = vec![];
        counting_sort_by_key(&mut empty, 10, |p| p.0);
        assert!(empty.is_empty());
        let mut one = vec![(5u32, 9u32)];
        counting_sort_by_key(&mut one, 10, |p| p.0);
        assert_eq!(one, vec![(5, 9)]);
    }

    #[test]
    fn radix_matches_std_sort() {
        for seed in 0..5 {
            let mut a = random_pairs(10_000, u32::MAX, seed);
            let mut b = a.clone();
            radix_sort_pairs(&mut a);
            b.sort_by_key(|p| p.0);
            let ka: Vec<u32> = a.iter().map(|p| p.0).collect();
            let kb: Vec<u32> = b.iter().map(|p| p.0).collect();
            assert_eq!(ka, kb);
        }
    }

    #[test]
    fn radix_is_stable() {
        let mut v = vec![(7u32, 0u32), (7, 1), (7, 2), (1, 3)];
        radix_sort_pairs(&mut v);
        assert_eq!(v, vec![(1, 3), (7, 0), (7, 1), (7, 2)]);
    }

    #[test]
    fn radix_handles_large_keys() {
        let mut v = vec![(u32::MAX, 1u32), (0, 2), (1 << 16, 3), ((1 << 16) - 1, 4)];
        radix_sort_pairs(&mut v);
        assert_eq!(
            v.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![0, (1 << 16) - 1, 1 << 16, u32::MAX]
        );
    }

    #[test]
    fn all_algorithms_agree_on_keys() {
        let base = random_pairs(5000, 100, 42);
        let mut expected = base.clone();
        expected.sort_by_key(|p| p.0);
        let expected_keys: Vec<u32> = expected.iter().map(|p| p.0).collect();
        for algo in [SortAlgo::Radix, SortAlgo::Counting, SortAlgo::Quick] {
            let mut v = base.clone();
            sort_pairs(&mut v, 100, algo);
            let keys: Vec<u32> = v.iter().map(|p| p.0).collect();
            assert_eq!(keys, expected_keys, "{algo:?}");
        }
    }
}
