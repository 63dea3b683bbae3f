//! Fork-heavy scheduler microbench: work-stealing deques vs the old
//! global mutex registry.
//!
//! Three workloads stress exactly what the Chase–Lev rewrite changed:
//! a dense `fib`-style fork tree (tens of thousands of tiny joins), an
//! uneven-leaf parallel-for (load balancing via steals), and a deep
//! join chain (the old `try_remove` O(queue) reclaim scan). The mutex
//! baseline below is a faithful miniature of the pre-rewrite pool — one
//! `Mutex<VecDeque>` of type-erased jobs, `rposition` reclaim scan,
//! helping waiters — minus parking (it spins/yields, which *favors* it).
//!
//! Like `tests/speedup.rs`, the ≥1.5× assertion self-skips on machines
//! with fewer than 4 cores; the measurements still run and print.

#![warn(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

use std::time::{Duration, Instant};

const WORKERS: usize = 4;

/// Miniature of the old mutex-registry pool (PR 2..8 era).
mod mutex_registry {
    use std::cell::UnsafeCell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock};

    #[derive(Clone, Copy)]
    struct JobRef {
        data: *const (),
        execute_fn: unsafe fn(*const ()),
    }
    // SAFETY: a JobRef leaves the queue exactly once (popped by one
    // worker or reclaimed by its owner), and `join` keeps its pointee
    // alive until it has run.
    unsafe impl Send for JobRef {}

    struct StackJob<F, R> {
        func: UnsafeCell<Option<F>>,
        result: UnsafeCell<Option<R>>,
        done: AtomicBool,
    }
    // SAFETY: `func`/`result` are touched by the job's single executor,
    // and the owner reads `result` only after `done` is set (release/
    // acquire).
    unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

    impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
        /// # Safety
        /// `data` must point at a live `StackJob<F, R>`, run at most once.
        unsafe fn execute(data: *const ()) {
            // SAFETY: `data` is a live `StackJob<F, R>` (the caller's
            // contract); `join` blocks on `done` before it drops the job.
            let job = unsafe { &*(data as *const Self) };
            // SAFETY: the single execution has `func` to itself.
            let func = unsafe { (*job.func.get()).take().unwrap() };
            // SAFETY: the owner reads `result` only after `done` is set.
            unsafe { *job.result.get() = Some(func()) };
            job.done.store(true, Ordering::Release);
        }
    }

    struct Registry {
        queue: Mutex<VecDeque<JobRef>>,
        work: Condvar,
    }

    fn registry() -> &'static Registry {
        static R: OnceLock<Registry> = OnceLock::new();
        R.get_or_init(|| {
            for _ in 0..super::WORKERS {
                std::thread::spawn(|| {
                    let r = registry();
                    loop {
                        let job = {
                            let mut q = r.queue.lock().unwrap();
                            loop {
                                if let Some(j) = q.pop_front() {
                                    break j;
                                }
                                q = r.work.wait(q).unwrap();
                            }
                        };
                        // SAFETY: popped under the queue lock, so this is the
                        // job's single execution, and its owner waits on
                        // `done` before releasing it.
                        unsafe { (job.execute_fn)(job.data) };
                    }
                });
            }
            Registry {
                queue: Mutex::new(VecDeque::new()),
                work: Condvar::new(),
            }
        })
    }

    /// The old reclaim path: scan the shared queue for our own job.
    fn try_remove(r: &Registry, job: JobRef) -> bool {
        let mut q = r.queue.lock().unwrap();
        if let Some(pos) = q.iter().rposition(|j| std::ptr::eq(j.data, job.data)) {
            q.remove(pos);
            true
        } else {
            false
        }
    }

    pub fn join<A, RA, B, RB>(a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let r = registry();
        let job_b = StackJob {
            func: UnsafeCell::new(Some(b)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
        };
        let job_ref = JobRef {
            data: &job_b as *const _ as *const (),
            execute_fn: StackJob::<B, RB>::execute,
        };
        r.queue.lock().unwrap().push_back(job_ref);
        r.work.notify_one();

        let ra = a();
        if try_remove(r, job_ref) {
            // SAFETY: removed from the queue — unique execution.
            unsafe { StackJob::<B, RB>::execute(job_ref.data) };
        } else {
            while !job_b.done.load(Ordering::Acquire) {
                // Help like the old pool did; spin-yield instead of
                // parking (cheaper than the old condvar for the bench).
                let stolen = r.queue.lock().unwrap().pop_front();
                match stolen {
                    // SAFETY: popped under the queue lock, as in the
                    // worker loop.
                    Some(j) => unsafe { (j.execute_fn)(j.data) },
                    None => std::thread::yield_now(),
                }
            }
        }
        let rb = job_b.result.into_inner().unwrap();
        (ra, rb)
    }
}

/// The three workloads, stamped out once per scheduler so both run the
/// exact same task trees through their respective `join`.
macro_rules! workloads {
    ($join:path) => {
        /// Dense fork tree: tens of thousands of near-empty joins.
        pub fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = $join(|| fib(n - 1), || fib(n - 2));
            a + b
        }

        /// Uneven leaves: cost varies ~30× across the range, so good
        /// schedulers rebalance mid-loop.
        pub fn uneven_for(lo: usize, hi: usize) -> u64 {
            const GRAIN: usize = 32;
            if hi - lo <= GRAIN {
                let mut acc = 0u64;
                for i in lo..hi {
                    let cost = 20 + (i % 13) * (i % 47);
                    let mut x = i as u64 | 1;
                    for _ in 0..cost {
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(11);
                    }
                    acc = acc.wrapping_add(x);
                }
                return acc;
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = $join(|| uneven_for(lo, mid), || uneven_for(mid, hi));
            a.wrapping_add(b)
        }

        /// Deep chain: `depth` pending halves; the old registry paid an
        /// O(pending) scan per reclaim here.
        pub fn deep_chain(depth: u32) -> u64 {
            if depth == 0 {
                return 1;
            }
            let (a, b) = $join(move || deep_chain(depth - 1), || 1u64);
            a + b
        }
    };
}

mod stealing {
    workloads!(pgc_par::join);
}
mod mutexed {
    workloads!(crate::mutex_registry::join);
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            criterion::black_box(f());
            t0.elapsed()
        })
        .min()
        .unwrap()
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Expected results, computed once sequentially.
    let fib_expect = {
        fn f(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                f(n - 1) + f(n - 2)
            }
        }
        f(21)
    };
    let uneven_expect = mutexed::uneven_for(0, 40_000); // deterministic sum

    let reps = 3;
    let run_suite = |name: &str,
                     fib: &dyn Fn() -> u64,
                     uneven: &dyn Fn() -> u64,
                     deep: &dyn Fn() -> u64| {
        let t_fib = best_of(reps, || {
            assert_eq!(fib(), fib_expect);
        });
        let t_uneven = best_of(reps, || {
            assert_eq!(uneven(), uneven_expect);
        });
        let t_deep = best_of(reps, || {
            assert_eq!(deep(), 8_193);
        });
        let total = t_fib + t_uneven + t_deep;
        println!(
            "steal [{name}]: fib(21) {t_fib:?}, uneven-for(40k) {t_uneven:?}, deep-chain(8k) {t_deep:?}, total {total:?}"
        );
        total
    };

    // Warm both pools before timing (worker spawning is not scheduling).
    pgc_par::install(WORKERS, || stealing::fib(10));
    mutexed::fib(10);

    let t_mutex = run_suite(
        "mutex registry",
        &|| mutexed::fib(21),
        &|| mutexed::uneven_for(0, 40_000),
        &|| mutexed::deep_chain(8_192),
    );
    let t_steal = run_suite(
        "work stealing",
        &|| pgc_par::install(WORKERS, || stealing::fib(21)),
        &|| pgc_par::install(WORKERS, || stealing::uneven_for(0, 40_000)),
        &|| pgc_par::install(WORKERS, || stealing::deep_chain(8_192)),
    );

    let speedup = t_mutex.as_secs_f64() / t_steal.as_secs_f64();
    println!(
        "steal: work-stealing vs mutex registry at {WORKERS} workers: {speedup:.2}x ({} steals so far)",
        pgc_par::steal_count()
    );

    if cores < WORKERS {
        eprintln!(
            "steal: SKIP ≥1.5x assertion — {cores} core(s) available, needs ≥{WORKERS} (same policy as tests/speedup.rs)"
        );
        return;
    }
    assert!(
        speedup >= 1.5,
        "work-stealing scheduler must be ≥1.5x the mutex registry on fork-heavy work at {WORKERS} workers, got {speedup:.2}x"
    );
}
