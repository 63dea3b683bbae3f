//! Property tests: `pgc-par`'s parallel-for loops and blocked reductions must
//! match their sequential equivalents on arbitrary inputs, at every width.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

fn arb_widths() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(3), Just(8)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reduce_matches_sequential_sum(
        v in proptest::collection::vec(0u64..1_000_000, 0..5000),
        width in arb_widths(),
        grain in prop_oneof![Just(1usize), Just(7), Just(64), Just(0)],
    ) {
        let expect: u64 = v.iter().sum();
        let got = pgc_par::install(width, || {
            pgc_par::map_reduce_chunks(v.len(), grain, |r| v[r].iter().sum::<u64>(), |a, b| a + b)
        })
        .unwrap_or(0);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn reduce_preserves_non_commutative_order(
        v in proptest::collection::vec(0u32..100, 1..2000),
        width in arb_widths(),
    ) {
        // Concatenation is associative but not commutative: the blocked
        // reduction must still reassemble the input left-to-right.
        let got = pgc_par::install(width, || {
            pgc_par::map_reduce_chunks(
                v.len(),
                16,
                |r| v[r].to_vec(),
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            )
        })
        .unwrap();
        prop_assert_eq!(got, v);
    }

    #[test]
    fn parallel_for_visits_every_index_once(
        n in 0usize..5000,
        width in arb_widths(),
    ) {
        let marks: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pgc_par::install(width, || {
            pgc_par::for_each_chunk(n, |r| {
                for i in r {
                    marks[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        prop_assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_mut_fills_rows_like_the_sequential_loop(
        degrees in proptest::collection::vec(0usize..8, 0..5000),
        width in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        // Each index writes its own row of a CSR-like array, empty rows
        // included; the result must not depend on the width.
        let mut starts = vec![0usize];
        for &d in &degrees {
            starts.push(starts[starts.len() - 1] + d);
        }
        let mut got = vec![u32::MAX; starts[degrees.len()]];
        pgc_par::install(width, || {
            pgc_par::for_each_chunk_mut(degrees.len(), &mut got, |i| starts[i], |r, rows| {
                let base = starts[r.start];
                for i in r {
                    for (k, x) in rows[starts[i] - base..starts[i + 1] - base].iter_mut().enumerate() {
                        *x = (8 * i + k) as u32;
                    }
                }
            });
        });
        let expect: Vec<u32> = degrees
            .iter()
            .enumerate()
            .flat_map(|(i, &d)| (0..d).map(move |k| (8 * i + k) as u32))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn join_computes_both_halves(
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        width in arb_widths(),
    ) {
        let (x, y) = pgc_par::install(width, || pgc_par::join(|| a * 2, || b + 7));
        prop_assert_eq!(x, a * 2);
        prop_assert_eq!(y, b + 7);
    }

    #[test]
    fn uneven_nested_join_trees_sum_correctly(
        seed in 0u64..u64::MAX,
        width in arb_widths(),
    ) {
        // Deliberately lopsided fork trees (split point driven by the
        // seed, not the midpoint) exercise the deque's steal/reclaim
        // races far more than balanced halving does.
        fn skew_sum(lo: u64, hi: u64, seed: u64) -> u64 {
            let n = hi - lo;
            if n <= 8 {
                return (lo..hi).sum();
            }
            // 1..n-1, biased by the seed so subtree sizes vary wildly.
            let cut = lo + 1 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % (n - 1);
            let (a, b) = pgc_par::join(
                move || skew_sum(lo, cut, seed.rotate_left(13) ^ cut),
                move || skew_sum(cut, hi, seed.rotate_right(17) ^ lo),
            );
            a + b
        }
        let n = 3000 + (seed % 2000);
        let expect: u64 = (0..n).sum();
        let got = pgc_par::install(width, || skew_sum(0, n, seed));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn adaptive_for_each_handles_uneven_leaf_costs(
        n in 1usize..20_000,
        width in arb_widths(),
        hot in 0usize..16,
    ) {
        // A few indices are much more expensive than the rest, so the
        // adaptive splitter sees steals mid-loop and subdivides some
        // chunks but not others — coverage must stay exactly-once and
        // effects must match the sequential loop regardless.
        let marks: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pgc_par::install(width, || {
            pgc_par::for_each_chunk(n, |r| {
                for i in r {
                    let cost = if i % (hot + 2) == 0 { 500 } else { 1 };
                    let mut acc = i as u32;
                    for _ in 0..cost {
                        acc = acc.wrapping_mul(31).wrapping_add(7);
                    }
                    marks[i].fetch_add(acc.max(1) / acc.max(1), Ordering::Relaxed);
                }
            });
        });
        prop_assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
    }
}
