//! Output checks. Every rep's coloring must be proper, stay within the
//! proven bound ⌈2(1+ε)d⌉+1, and repeat the first rep's coloring digest
//! and graph size: JP-ADG and DEC-ADG-ITR are schedule-deterministic. A
//! rep that fails any check is counted as failed, never dropped.

use pgc_core::verify::{is_proper, num_colors};
use pgc_graph::GraphView;

/// FNV-1a over the colors' little-endian bytes: the same digest the
/// `pgc colorsum` subcommand prints.
pub fn digest(colors: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in colors {
        for b in c.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Reference {
    digest: u64,
    n: usize,
    m: usize,
}

/// Checks reps against the color bound and the first checked rep, and
/// tallies the outcome.
#[derive(Debug)]
pub struct Checker {
    bound: u32,
    reference: Option<Reference>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(bound: u32) -> Self {
        Self {
            bound,
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one rep's output and count it. Returns whether it passed.
    pub fn check<G: GraphView>(&mut self, g: &G, colors: &[u32]) -> bool {
        let seen = Reference {
            digest: digest(colors),
            n: g.n(),
            m: g.m(),
        };
        let ok = is_proper(g, colors)
            && num_colors(colors) <= self.bound
            && *self.reference.get_or_insert(seen) == seen;
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// Failed reps over attempted reps (0 before any rep).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
