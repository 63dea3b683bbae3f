//! The shared measurement record of a coloring run. [`Instrumentation`]
//! holds the quantities the paper reports (ordering/coloring wall time,
//! outer rounds, conflicts); [`run`](crate::run) and the DEC drivers fill
//! it via the [`Instrumentation::ordering`] /
//! [`Instrumentation::coloring`] phase timers instead of hand-rolling
//! `Instant::now()` pairs, and experiment drivers reuse [`best_of`] for
//! the paper's best-of-reps-after-warm-up protocol.

use crate::ColoringRun;
use std::time::{Duration, Instant};

/// Measurements of one coloring execution (times, rounds, conflicts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Instrumentation {
    /// Preprocessing/ordering wall time (the "reordering_time" fraction of
    /// the paper's Fig. 1 bars).
    pub ordering_time: Duration,
    /// Coloring wall time (the "coloring_time" fraction).
    pub coloring_time: Duration,
    /// Outer parallel rounds: ADG/peeling iterations plus speculative
    /// coloring rounds. A JP run records only its ordering's iterations:
    /// its prefix rounds are a schedule detail, seen in `jp.round` spans.
    pub rounds: u32,
    /// Vertices re-colored due to conflicts (speculative algorithms only).
    pub conflicts: u64,
    /// Parallel width observed *inside* the run: the widest
    /// `rayon::current_num_threads()` seen while a phase timer was
    /// executing (0 until a phase runs; [`ColoringRun::new`] falls back to
    /// the packaging-time width only if no phase ever stamped it). Stamped
    /// at execution time so a surrounding `install()` narrower or wider
    /// than the packaging context cannot misreport the width.
    pub threads: usize,
}

impl Instrumentation {
    /// Total wall time (ordering + coloring).
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.ordering_time + self.coloring_time
    }

    /// Run `f`, adding its wall time to `ordering_time`. Emits an
    /// `"ordering"` span when an observability session is recording.
    #[must_use = "the phase timer returns f's result"]
    pub fn ordering<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let _span = pgc_obs::span!("ordering");
        self.threads = self.threads.max(rayon::current_num_threads());
        let t0 = Instant::now();
        let r = f();
        self.ordering_time += t0.elapsed();
        r
    }

    /// Run `f`, adding its wall time to `coloring_time`. Emits a
    /// `"coloring"` span when an observability session is recording.
    #[must_use = "the phase timer returns f's result"]
    pub fn coloring<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let _span = pgc_obs::span!("coloring");
        self.threads = self.threads.max(rayon::current_num_threads());
        let t0 = Instant::now();
        let r = f();
        self.coloring_time += t0.elapsed();
        r
    }

    /// Accumulate round/conflict counters from one phase.
    pub fn record_rounds(&mut self, rounds: u32, conflicts: u64) {
        self.rounds += rounds;
        self.conflicts += conflicts;
    }
}

/// The paper's measurement protocol: run once to warm up (discarded), then
/// `reps` measured runs, keeping the one with the smallest total time.
#[must_use]
pub fn best_of(reps: usize, mut f: impl FnMut() -> ColoringRun) -> ColoringRun {
    let mut best = f(); // warm-up; only kept so the return value exists
    let mut best_t = Duration::MAX; // ... but it never wins the comparison
    for _ in 0..reps.max(1) {
        let r = f();
        let t = r.total_time();
        if t < best_t {
            best_t = t;
            best = r;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Params};
    use pgc_graph::gen::{generate, GraphSpec};

    #[test]
    fn phase_timers_accumulate() {
        let mut instr = Instrumentation::default();
        let x = instr.ordering(|| 21);
        let y = instr.coloring(|| x * 2);
        assert_eq!(y, 42);
        instr.record_rounds(3, 7);
        instr.record_rounds(2, 1);
        assert_eq!(instr.rounds, 5);
        assert_eq!(instr.conflicts, 8);
        assert_eq!(
            instr.total_time(),
            instr.ordering_time + instr.coloring_time
        );
    }

    #[test]
    fn threads_records_width_observed_inside_the_run() {
        // Regression: the width used to be stamped when `ColoringRun::new`
        // packaged the run, so an `install()` in effect *around the
        // packaging* — not around the execution — won the stamp. The
        // phase timers now record the width they actually ran under.
        let g = generate(&GraphSpec::BarabasiAlbert { n: 300, attach: 4 }, 5);
        let run = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap()
            .install(|| {
                let mut instr = Instrumentation::default();
                let colors = instr.coloring(|| crate::greedy::greedy_first_fit(&g));
                (colors, instr)
            });
        // Package under a *different* width; the observed width must win.
        let packaged = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| ColoringRun::new(Algorithm::GreedyFf, run.0, run.1));
        assert_eq!(packaged.instr.threads, 3);
        // The fallback still stamps runs whose phases never executed.
        let empty = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap()
            .install(|| ColoringRun::new(Algorithm::GreedyFf, vec![0], Instrumentation::default()));
        assert_eq!(empty.instr.threads, 2);
    }

    #[test]
    fn best_of_discards_warm_up() {
        let mut calls = 0u32;
        let g = generate(&GraphSpec::Path { n: 8 }, 0);
        let r = best_of(3, || {
            calls += 1;
            crate::run(&g, Algorithm::GreedyFf, &Params::default())
        });
        assert_eq!(calls, 4, "one warm-up plus three measured reps");
        assert_eq!(r.num_colors, 2);
    }
}
