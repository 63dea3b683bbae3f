//! Compressed Sparse Row invariants (§II-A).
//!
//! The paper stores `G` "using CSR, the standard graph representation that
//! consists of n sorted arrays with neighbors of each vertex (2m words) and
//! offsets to each array (n words)". Vertices are `u32` ids `0..n` (the
//! paper's `1..n` shifted to 0-based); the id order is the total order `≺`
//! used to sort neighborhoods. Every CSR-shaped representation
//! ([`crate::CompactCsr`] and the layouts built on it) shares the checks
//! below, so the invariants are spelled once:
//! * `offsets.len() == n + 1`, `offsets[0] == 0`, non-decreasing,
//! * each neighbor list is strictly increasing (sorted, no duplicates),
//! * no self-loops,
//! * symmetry: `u ∈ N(v) ⇔ v ∈ N(u)`.
//!
//! [`check_csr`] checks all four in one parallel O(n + m) pass, in every
//! build: the snapshot loaders run it on untrusted bytes, and
//! [`crate::CompactCsr::validate`] is the same pass. The first three are
//! read off each row directly. Symmetry is a multiset identity: once rows
//! are strictly ascending and loop-free, the graph is symmetric exactly
//! when its arcs `v → u` with `v < u`, as pairs `(v, u)`, are the same
//! multiset as its arcs `v → u` with `v > u`, as pairs `(u, v)`. The pass
//! compares the two multisets by fingerprint (Lipton, "Fingerprinting
//! Sets", 1989): each side is the product of `r − x − s·y` over its pairs
//! `(x, y)`, evaluated over GF(p), p = 2⁶¹ − 1, at a point `(r, s)` drawn
//! at random per check. Two different multisets of `m` pairs give
//! different degree-`m` polynomials, which agree on at most an `m/(p − 1)`
//! share of the points (Schwartz–Zippel), so an asymmetric graph passes
//! with probability at most `m/(p − 1)`, about 2⁻²⁹ even at `m = 2³²`
//! edges. A symmetric graph always passes.
//!
//! Each side costs one modular multiply per arc. In the row of `v`, the
//! pair of an arc to `u > v` is `(v, u)`, whose factor is `c_v − u` with
//! `c_v = r − s·v` fixed for the row. The pair of an arc to `u < v` is
//! `(u, v)`, whose factor `r − s·u − v = s·(d_v − u)` with
//! `d_v = (r − v)/s`; the pass multiplies `d_v − u` and scales that side
//! by `s` to the power of its arc count once at the end.

use crate::compact::Offsets;
use std::hash::{BuildHasher, RandomState};

/// Cached degree extremes `(Δ, δ)` from an offsets accessor — shared by
/// every CSR-shaped representation so the construction-time caching
/// semantics cannot diverge between layouts.
pub(crate) fn degree_extremes(n: usize, offset: impl Fn(usize) -> usize) -> (u32, u32) {
    let (max_deg, min_deg) = (0..n)
        .map(|v| (offset(v + 1) - offset(v)) as u32)
        .fold((0u32, u32::MAX), |(mx, mn), d| (mx.max(d), mn.min(d)));
    (max_deg, if n == 0 { 0 } else { min_deg })
}

/// The Mersenne prime 2⁶¹ − 1, the fingerprint's field.
const P: u64 = (1 << 61) - 1;

/// `a·b mod P` for `a, b < P`.
#[inline]
fn mul(a: u64, b: u64) -> u64 {
    let z = u128::from(a) * u128::from(b);
    let folded = (z as u64 & P) + (z >> 61) as u64;
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// `a − b mod P` for `a, b < P`.
#[inline]
fn sub(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

/// `b^e mod P`.
fn pow(mut b: u64, mut e: u64) -> u64 {
    let mut acc = 1;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul(acc, b);
        }
        b = mul(b, b);
        e >>= 1;
    }
    acc
}

/// Independent running products per side, so the multiplies of
/// consecutive arcs overlap instead of waiting on one another.
const LANES: usize = 4;

/// The random evaluation point `(r, s)` of one check, with `s⁻¹`.
#[derive(Clone, Copy, Debug)]
struct Point {
    r: u64,
    s: u64,
    s_inv: u64,
}

impl Point {
    /// A fresh point: `r` and `s` uniform in `1..P`, drawn from std's
    /// per-process random keys (each `RandomState` gets new ones).
    fn random() -> Self {
        let keys = RandomState::new();
        let draw = |i: u64| 1 + keys.hash_one(i) % (P - 1);
        Self::at(draw(0), draw(1))
    }

    fn at(r: u64, s: u64) -> Self {
        Self {
            r,
            s,
            s_inv: pow(s, P - 2),
        }
    }
}

/// Multiply `c − u` for every `u` in `ids` into `acc`, lane by lane.
#[inline]
fn fold_factors(acc: &mut [u64; LANES], c: u64, ids: &[u32]) {
    let mut quads = ids.chunks_exact(LANES);
    for q in &mut quads {
        for l in 0..LANES {
            acc[l] = mul(acc[l], sub(c, u64::from(q[l])));
        }
    }
    for (l, &u) in quads.remainder().iter().enumerate() {
        acc[l] = mul(acc[l], sub(c, u64::from(u)));
    }
}

/// What one leaf of the sweep has learned about its rows: the first
/// fault, the degree extremes, and both sides' fingerprint products.
#[derive(Debug)]
pub(crate) struct RowCheck {
    point: Point,
    n: u64,
    fault: Option<(u32, &'static str)>,
    max_deg: u32,
    min_deg: u32,
    /// Factors `c_v − u` of the arcs `v → u`, `u > v`.
    up: [u64; LANES],
    /// Factors `d_v − u` of the arcs `v → u`, `u < v`.
    down: [u64; LANES],
    up_arcs: u64,
    down_arcs: u64,
}

impl RowCheck {
    fn new(point: Point, n: usize) -> Self {
        Self {
            point,
            n: n as u64,
            fault: None,
            max_deg: 0,
            min_deg: u32::MAX,
            up: [1; LANES],
            down: [1; LANES],
            up_arcs: 0,
            down_arcs: 0,
        }
    }

    /// Record a fault at `v` (the first one a leaf sees is kept).
    pub(crate) fn fail(&mut self, v: u32, what: &'static str) {
        self.fault.get_or_insert((v, what));
    }

    /// Count one row's degree into the extremes.
    #[inline]
    pub(crate) fn degree(&mut self, d: usize) {
        let d = u32::try_from(d).unwrap_or(u32::MAX);
        self.max_deg = self.max_deg.max(d);
        self.min_deg = self.min_deg.min(d);
    }

    /// Check the next ids of `v`'s row (`prev` is the row's last id
    /// before them, if any) and fold them into the fingerprint. Returns
    /// false, with the fault recorded, when they break the shape.
    #[inline]
    pub(crate) fn ids(&mut self, v: u32, prev: Option<u32>, ids: &[u32]) -> bool {
        let (Some(&first), Some(&last)) = (ids.first(), ids.last()) else {
            return true;
        };
        // A fold, not `all`: no early exit, so the compares vectorize.
        let ascending = ids.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]));
        if prev.is_some_and(|p| first <= p) || !ascending {
            self.fail(
                v,
                "adjacency fails the shape sweep: neighbors not strictly ascending",
            );
            return false;
        }
        if u64::from(last) >= self.n {
            self.fail(v, "adjacency fails the shape sweep: neighbor out of range");
            return false;
        }
        let k = ids.partition_point(|&u| u < v);
        let (below, above) = ids.split_at(k);
        if above.first() == Some(&v) {
            self.fail(v, "adjacency fails the shape sweep: self-loop");
            return false;
        }
        let Point { r, s, s_inv } = self.point;
        if !below.is_empty() {
            fold_factors(&mut self.down, mul(sub(r, u64::from(v)), s_inv), below);
            self.down_arcs += below.len() as u64;
        }
        if !above.is_empty() {
            fold_factors(&mut self.up, sub(r, mul(s, u64::from(v))), above);
            self.up_arcs += above.len() as u64;
        }
        true
    }

    /// Merge the leaf to the right of `self` into it.
    fn combine(mut self, right: Self) -> Self {
        self.fault = self.fault.or(right.fault);
        self.max_deg = self.max_deg.max(right.max_deg);
        self.min_deg = self.min_deg.min(right.min_deg);
        for l in 0..LANES {
            self.up[l] = mul(self.up[l], right.up[l]);
            self.down[l] = mul(self.down[l], right.down[l]);
        }
        self.up_arcs += right.up_arcs;
        self.down_arcs += right.down_arcs;
        self
    }

    /// The verdict over all rows: the first fault, or asymmetry, or the
    /// degree extremes `(Δ, δ)`.
    fn finish(self) -> Result<(u32, u32), String> {
        if let Some((v, what)) = self.fault {
            return Err(format!("vertex {v}: {what}"));
        }
        let product = |lanes: [u64; LANES]| lanes.into_iter().fold(1, mul);
        let up = product(self.up);
        let down = mul(pow(self.point.s, self.down_arcs), product(self.down));
        if self.up_arcs != self.down_arcs || up != down {
            return Err(format!(
                "adjacency is not symmetric ({} arcs to higher ids, {} to lower; \
                 their pair multisets' fingerprints differ)",
                self.up_arcs, self.down_arcs
            ));
        }
        let min_deg = if self.n == 0 { 0 } else { self.min_deg };
        Ok((self.max_deg, min_deg))
    }
}

/// Run `row(v, check)` for every vertex of an `n`-vertex graph, one
/// [`RowCheck`] per leaf of [`pgc_par::map_reduce_chunks`]' fixed tree,
/// at a fresh random fingerprint point. A leaf stops at its first fault.
/// Returns the first fault in id order, or asymmetry, or `(Δ, δ)`.
pub(crate) fn check_rows(
    n: usize,
    row: impl Fn(u32, &mut RowCheck) + Sync,
) -> Result<(u32, u32), String> {
    check_rows_at(Point::random(), n, row)
}

fn check_rows_at(
    point: Point,
    n: usize,
    row: impl Fn(u32, &mut RowCheck) + Sync,
) -> Result<(u32, u32), String> {
    pgc_par::map_reduce_chunks(
        n,
        0,
        |range| {
            let mut check = RowCheck::new(point, n);
            for v in range {
                row(v as u32, &mut check);
                if check.fault.is_some() {
                    break;
                }
            }
            check
        },
        RowCheck::combine,
    )
    .unwrap_or_else(|| RowCheck::new(point, 0))
    .finish()
}

/// The full CSR contract of `(offsets, neighbors)` arrays in one parallel
/// pass: offsets run from 0 to `neighbors.len()` without decreasing, rows
/// are strictly ascending, in range and loop-free, and the graph is
/// symmetric (by fingerprint; see the module docs). Returns the first
/// violation, or the degree extremes `(Δ, δ)`.
pub(crate) fn check_csr(offsets: &Offsets, neighbors: &[u32]) -> Result<(u32, u32), String> {
    match offsets {
        Offsets::Small(o) => check_arrays(o.len(), |i| o[i] as usize, neighbors),
        Offsets::Wide(o) => check_arrays(o.len(), |i| o[i], neighbors),
    }
}

fn check_arrays(
    offsets_len: usize,
    offset: impl Fn(usize) -> usize + Sync,
    neighbors: &[u32],
) -> Result<(u32, u32), String> {
    let Some(n) = offsets_len.checked_sub(1) else {
        return Err("offsets must have length n+1 >= 1".into());
    };
    if n as u64 > 1 << 32 {
        return Err(format!("{n} vertices exceed the u32 id space"));
    }
    if offset(0) != 0 || offset(n) != neighbors.len() {
        return Err("offsets must run from 0 to neighbors.len()".into());
    }
    check_rows(n, |v, check| {
        let (lo, hi) = (offset(v as usize), offset(v as usize + 1));
        if lo > hi || hi > neighbors.len() {
            check.fail(v, "offsets decrease");
            return;
        }
        check.degree(hi - lo);
        check.ids(v, None, &neighbors[lo..hi]);
    })
}

/// Test oracle for [`check_csr`]: the same contract checked directly, with
/// a binary search per arc for symmetry.
#[cfg(test)]
pub(crate) fn validate_csr_arrays(
    offsets_len: usize,
    offset: impl Fn(usize) -> usize,
    neighbors: &[u32],
) -> Result<(), String> {
    if offsets_len == 0 {
        return Err("offsets must have length n+1 >= 1".into());
    }
    if offset(0) != 0 || offset(offsets_len - 1) != neighbors.len() {
        return Err("offsets must run from 0 to neighbors.len()".into());
    }
    let n = (offsets_len - 1) as u32;
    for v in 0..n {
        if offset(v as usize) > offset(v as usize + 1) {
            return Err(format!("offsets decrease at vertex {v}"));
        }
    }
    let adjacency = |v: u32| &neighbors[offset(v as usize)..offset(v as usize + 1)];
    for v in 0..n {
        let nbrs = adjacency(v);
        if nbrs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("neighbors of {v} not strictly increasing"));
        }
        if nbrs.last().is_some_and(|&last| last >= n) {
            return Err(format!("a neighbor of {v} is out of range"));
        }
        if nbrs.binary_search(&v).is_ok() {
            return Err(format!("self-loop at {v}"));
        }
    }
    for v in 0..n {
        for &u in adjacency(v) {
            if adjacency(u).binary_search(&v).is_err() {
                return Err(format!("asymmetric edge ({v},{u})"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_primitives::rng::SplitMix64;

    fn validate(offsets: &[usize], neighbors: &[u32]) -> Result<(), String> {
        validate_csr_arrays(offsets.len(), |i| offsets[i], neighbors)
    }

    fn check(offsets: &[usize], neighbors: &[u32]) -> Result<(u32, u32), String> {
        check_csr(&Offsets::Wide(offsets.to_vec()), neighbors)
    }

    #[test]
    fn empty_graph() {
        let offsets = [0; 6];
        assert!(validate(&offsets, &[]).is_ok());
        assert_eq!(check(&offsets, &[]), Ok((0, 0)));
        assert_eq!(degree_extremes(5, |i| offsets[i]), (0, 0));
    }

    #[test]
    fn zero_vertex_graph() {
        assert!(validate(&[0], &[]).is_ok());
        assert_eq!(check(&[0], &[]), Ok((0, 0)));
        assert_eq!(degree_extremes(0, |_| 0), (0, 0));
        assert!(validate(&[], &[]).is_err());
        assert!(check(&[], &[]).is_err());
    }

    #[test]
    fn triangle_basics() {
        let offsets = [0, 2, 4, 6];
        assert!(validate(&offsets, &[1, 2, 0, 2, 0, 1]).is_ok());
        assert_eq!(check(&offsets, &[1, 2, 0, 2, 0, 1]), Ok((2, 2)));
        assert_eq!(degree_extremes(3, |i| offsets[i]), (2, 2));
        // A path 0–1–2 has Δ = 2 and δ = 1.
        let path = [0, 1, 3, 4];
        assert!(validate(&path, &[1, 0, 2, 1]).is_ok());
        assert_eq!(check(&path, &[1, 0, 2, 1]), Ok((2, 1)));
        assert_eq!(degree_extremes(3, |i| path[i]), (2, 1));
    }

    #[test]
    fn validate_catches_asymmetry() {
        assert!(validate(&[0, 1, 1], &[1]).is_err());
        let err = check(&[0, 1, 1], &[1]).unwrap_err();
        assert!(err.contains("not symmetric"), "{err}");
    }

    #[test]
    fn validate_catches_self_loop() {
        assert!(validate(&[0, 1], &[0]).is_err());
        assert!(check(&[0, 1], &[0]).unwrap_err().contains("self-loop"));
    }

    #[test]
    fn validate_catches_unsorted() {
        assert!(validate(&[0, 2, 3, 5], &[2, 1, 0, 0, 1]).is_err());
        let err = check(&[0, 2, 3, 5], &[2, 1, 0, 0, 1]).unwrap_err();
        assert!(
            err.contains("vertex 0") && err.contains("ascending"),
            "{err}"
        );
    }

    #[test]
    fn check_catches_bad_offsets_and_range() {
        assert!(check(&[1, 1], &[0]).is_err());
        assert!(check(&[0, 1], &[]).is_err());
        assert!(check(&[0, 2, 1, 2], &[1, 2])
            .unwrap_err()
            .contains("decrease"));
        assert!(check(&[0, 1, 2], &[1, 2])
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn fingerprint_arithmetic() {
        assert_eq!(mul(P - 1, P - 1), 1, "(-1)(-1) = 1");
        assert_eq!(mul(1 << 60, 2), 1, "2^61 = 1 mod P");
        assert_eq!(sub(0, 1), P - 1);
        for s in [1, 2, 12_345, P - 2] {
            assert_eq!(mul(s, pow(s, P - 2)), 1, "s = {s}");
        }
    }

    #[test]
    fn fingerprint_matches_the_oracle_under_mutation() {
        // A ring of 4-cliques plus chords, then single-arc edits that keep
        // every row ascending and loop-free. The oracle decides symmetry by
        // binary search; the fingerprint, at several points, must agree.
        let n = 64u32;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        let mut add = |a: u32, b: u32| {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        };
        for v in 0..n {
            add(v, (v + 1) % n);
            if v % 4 == 0 {
                add(v, (v + 2) % n);
                add(v, (v + 7) % n);
            }
        }
        let flatten = |adj: &[Vec<u32>]| {
            let mut offsets = vec![0usize];
            let mut nbrs = Vec::new();
            for row in adj {
                let mut row = row.clone();
                row.sort_unstable();
                row.dedup();
                nbrs.extend_from_slice(&row);
                offsets.push(nbrs.len());
            }
            (offsets, nbrs)
        };
        let (offsets, nbrs) = flatten(&adj);
        assert!(validate(&offsets, &nbrs).is_ok());
        let mut rng = SplitMix64::new(5);
        let mut asymmetric = 0;
        for trial in 0..300 {
            let mut nb = nbrs.clone();
            let i = rng.below(nb.len() as u32) as usize;
            let v = offsets.partition_point(|&o| o <= i) as u32 - 1;
            nb[i] = rng.below(n);
            let row = &mut nb[offsets[v as usize]..offsets[v as usize + 1]];
            row.sort_unstable();
            let oracle = validate(&offsets, &nb);
            if oracle.as_ref().is_err_and(|e| e.contains("asymmetric")) {
                asymmetric += 1;
            }
            for (r, s) in [(3, 5), (P - 1, 2), (1 << 40, P - 7)] {
                let got = check_arrays(offsets.len(), |k| offsets[k], &nb);
                let at = check_rows_at(Point::at(r, s), n as usize, |w, c| {
                    let (lo, hi) = (offsets[w as usize], offsets[w as usize + 1]);
                    c.degree(hi - lo);
                    c.ids(w, None, &nb[lo..hi]);
                });
                assert_eq!(
                    got.is_ok(),
                    oracle.is_ok(),
                    "trial {trial}: {oracle:?} {got:?}"
                );
                assert_eq!(at.is_ok(), oracle.is_ok(), "trial {trial} at ({r}, {s})");
            }
        }
        assert!(asymmetric > 100, "only {asymmetric} asymmetric trials");
    }
}
