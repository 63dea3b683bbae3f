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

/// Cached degree extremes `(Δ, δ)` from an offsets accessor — shared by
/// every CSR-shaped representation so the construction-time caching
/// semantics cannot diverge between layouts.
pub(crate) fn degree_extremes(n: usize, offset: impl Fn(usize) -> usize) -> (u32, u32) {
    let (max_deg, min_deg) = (0..n)
        .map(|v| (offset(v + 1) - offset(v)) as u32)
        .fold((0u32, u32::MAX), |(mx, mn), d| (mx.max(d), mn.min(d)));
    (max_deg, if n == 0 { 0 } else { min_deg })
}

/// The linear-time part of the CSR invariants of `(offsets, neighbors)`
/// arrays behind an accessor: offsets non-decreasing from 0 to
/// `neighbors.len()`, adjacencies strictly ascending, in range, and
/// loop-free — one O(n + m) sweep, no symmetry cross-checks. Returns the
/// first violation, if any. The snapshot loader runs this on every load;
/// [`validate_csr_arrays`] adds the O(m log Δ) symmetry check on top.
pub(crate) fn validate_csr_shape(
    offsets_len: usize,
    offset: impl Fn(usize) -> usize,
    neighbors: &[u32],
) -> Result<(), String> {
    if offsets_len == 0 {
        return Err("offsets must have length n+1 >= 1".into());
    }
    if offset(0) != 0 {
        return Err("offsets[0] must be 0".into());
    }
    if offset(offsets_len - 1) != neighbors.len() {
        return Err("offsets must end at neighbors.len()".into());
    }
    let n = (offsets_len - 1) as u32;
    for v in 0..n {
        let (lo, hi) = (offset(v as usize), offset(v as usize + 1));
        if lo > hi {
            return Err(format!("offsets decrease at vertex {v}"));
        }
        let nbrs = &neighbors[lo..hi];
        for w in nbrs.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("neighbors of {v} not strictly increasing"));
            }
        }
        if let Some(&last) = nbrs.last() {
            if last >= n {
                return Err(format!("neighbor {last} of {v} out of range"));
            }
        }
        if nbrs.binary_search(&v).is_ok() {
            return Err(format!("self-loop at {v}"));
        }
    }
    Ok(())
}

/// Check the full CSR invariants of `(offsets, neighbors)` arrays behind
/// an accessor, without copying anything: everything
/// [`validate_csr_shape`] covers plus adjacency symmetry. Returns the
/// first violation, if any.
pub(crate) fn validate_csr_arrays(
    offsets_len: usize,
    offset: impl Fn(usize) -> usize,
    neighbors: &[u32],
) -> Result<(), String> {
    validate_csr_shape(offsets_len, &offset, neighbors)?;
    let n = (offsets_len - 1) as u32;
    let adjacency = |v: u32| &neighbors[offset(v as usize)..offset(v as usize + 1)];
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

    fn validate(offsets: &[usize], neighbors: &[u32]) -> Result<(), String> {
        validate_csr_arrays(offsets.len(), |i| offsets[i], neighbors)
    }

    #[test]
    fn empty_graph() {
        let offsets = [0; 6];
        assert!(validate(&offsets, &[]).is_ok());
        assert_eq!(degree_extremes(5, |i| offsets[i]), (0, 0));
    }

    #[test]
    fn zero_vertex_graph() {
        assert!(validate(&[0], &[]).is_ok());
        assert_eq!(degree_extremes(0, |_| 0), (0, 0));
        assert!(validate(&[], &[]).is_err());
    }

    #[test]
    fn triangle_basics() {
        let offsets = [0, 2, 4, 6];
        assert!(validate(&offsets, &[1, 2, 0, 2, 0, 1]).is_ok());
        assert_eq!(degree_extremes(3, |i| offsets[i]), (2, 2));
        // A path 0–1–2 has Δ = 2 and δ = 1.
        let path = [0, 1, 3, 4];
        assert!(validate(&path, &[1, 0, 2, 1]).is_ok());
        assert_eq!(degree_extremes(3, |i| path[i]), (2, 1));
    }

    #[test]
    fn validate_catches_asymmetry() {
        assert!(validate(&[0, 1, 1], &[1]).is_err());
    }

    #[test]
    fn validate_catches_self_loop() {
        assert!(validate(&[0, 1], &[0]).is_err());
    }

    #[test]
    fn validate_catches_unsorted() {
        assert!(validate(&[0, 2, 3, 5], &[2, 1, 0, 0, 1]).is_err());
    }
}
