//! Deterministic, parallel-friendly random number generation.
//!
//! The paper's randomized components (the random tie-break priority `ρ_R`,
//! SIM-COL's uniform color draws, JP-R's random ordering) must be
//! reproducible under any thread schedule. We therefore use *counter-based*
//! randomness: a strong 64-bit mix function applied to `(seed, stream,
//! counter)` tuples. Two call sites with the same tuple always observe the
//! same value, independent of which rayon worker executes them.
//!
//! The mixer is SplitMix64's finalizer (Stafford variant 13), which passes
//! BigCrush when used as a counter RNG and is the standard choice for seeding
//! in the rand ecosystem.

/// SplitMix64 finalizer: a bijective 64-bit mix with full avalanche.
///
/// Used both as a stateless hash (`hash_mix(seed ^ counter)`) and as the
/// state-advance output function of [`SplitMix64`].
#[inline]
pub fn hash_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combine a seed with up to three stream identifiers into one 64-bit value
/// with good dispersion. Used to derive per-vertex, per-round random values.
#[inline]
pub fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    // Two rounds of the mixer with distinct odd constants between inputs.
    let x = hash_mix(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407));
    hash_mix(x ^ b.wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

/// SplitMix64's Weyl increment γ: the state after `k` draws is
/// `seed + k·γ (mod 2⁶⁴)`.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A tiny, fast sequential PRNG (SplitMix64). Each instance is an
/// independent stream determined entirely by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Distinct seeds give independent
    /// streams (the underlying mixer is a bijection of the counter).
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Skip the next `k` outputs in O(1): the state is a Weyl sequence
    /// (Steele, Lea & Flood, OOPSLA'14), so `advance(k)` leaves the
    /// generator exactly where `k` calls of [`next_u64`](Self::next_u64)
    /// would. This is what lets a seeded stream start at any index —
    /// e.g. a generator replaying only its edges `lo..hi`.
    #[inline]
    pub fn advance(&mut self, k: u64) {
        self.state = self.state.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA));
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let z = self.state;
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` using Lemire's widening-multiply
    /// method (no modulo bias worth worrying about at 64→32 bits).
    #[inline]
    pub fn below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        (((self.next_u32() as u64) * (bound as u64)) >> 32) as u32
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Trait alias-style convenience so call sites can accept any generator.
pub trait Rng {
    fn gen_u64(&mut self) -> u64;
    fn gen_below(&mut self, bound: u32) -> u32;
}

impl Rng for SplitMix64 {
    #[inline]
    fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }
    #[inline]
    fn gen_below(&mut self, bound: u32) -> u32 {
        self.below(bound)
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates), deterministic in
/// the seed. Used as the random tie-break bijection `ρ_R`: assigning
/// `perm[v]` as the low priority bits guarantees a *total* order on vertices
/// (no two vertices compare equal), which JP requires for termination.
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    // Fisher–Yates: O(n) work. Sequential by design: the permutation is
    // computed once per coloring and is not on the critical path measured by
    // the paper (the alternative — assigning independent random keys — risks
    // collisions and thus a non-total order).
    for i in (1..n).rev() {
        let j = rng.below((i + 1) as u32) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Deterministic per-`(round, vertex)` uniform draw from `[0, bound)`,
/// independent of thread schedule. This is how SIM-COL (Alg. 5, line 7)
/// chooses colors "u.a.r." in parallel while remaining reproducible.
#[inline]
pub fn uniform_at(seed: u64, round: u64, vertex: u64, bound: u32) -> u32 {
    debug_assert!(bound > 0);
    let r = hash3(seed, round, vertex);
    (((r >> 32) * (bound as u64)) >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_streams_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn advance_equals_repeated_draws() {
        // Seeds just below 2⁶⁴ make the very first step wrap the state.
        for seed in [0, 42, u64::MAX - 3, u64::MAX - GOLDEN_GAMMA / 2] {
            for k in [0u64, 1, 7, 1 << 20] {
                let mut stepped = SplitMix64::new(seed);
                for _ in 0..k {
                    stepped.next_u64();
                }
                let mut jumped = SplitMix64::new(seed);
                jumped.advance(k);
                assert_eq!(jumped.next_u64(), stepped.next_u64(), "seed {seed} k {k}");
            }
            // 2⁴⁰ draws are too many to step one by one; 2²⁰ jumps of
            // 2²⁰ each (the step just checked) are not.
            let mut composed = SplitMix64::new(seed);
            for _ in 0..1u64 << 20 {
                composed.advance(1 << 20);
            }
            let mut jumped = SplitMix64::new(seed);
            jumped.advance(1 << 40);
            assert_eq!(jumped.next_u64(), composed.next_u64(), "seed {seed} k 2^40");
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let n = 1000;
        let perm = random_permutation(n, 123);
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn permutation_deterministic_and_seed_sensitive() {
        assert_eq!(random_permutation(100, 5), random_permutation(100, 5));
        assert_ne!(random_permutation(100, 5), random_permutation(100, 6));
    }

    #[test]
    fn permutation_edge_cases() {
        assert!(random_permutation(0, 1).is_empty());
        assert_eq!(random_permutation(1, 1), vec![0]);
    }

    #[test]
    fn uniform_at_deterministic() {
        assert_eq!(uniform_at(1, 2, 3, 100), uniform_at(1, 2, 3, 100));
        for v in 0..100 {
            assert!(uniform_at(9, 0, v, 7) < 7);
        }
    }

    #[test]
    fn uniform_at_varies_per_vertex() {
        // Not all vertices should draw the same value.
        let vals: Vec<u32> = (0..32).map(|v| uniform_at(11, 0, v, 1 << 20)).collect();
        let first = vals[0];
        assert!(vals.iter().any(|&v| v != first));
    }

    #[test]
    fn hash_mix_bijective_spotcheck() {
        // hash_mix is a bijection; spot-check no collisions on a small set.
        let mut outs: Vec<u64> = (0..10_000u64).map(hash_mix).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn uniform_at_roughly_uniform() {
        // Chi-square-ish sanity: each of 8 buckets gets a reasonable share.
        let mut counts = [0usize; 8];
        for v in 0..8000u64 {
            counts[uniform_at(77, 1, v, 8) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c} out of range");
        }
    }
}
