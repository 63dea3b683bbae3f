//! Structured task scopes: spawn non-`'static` tasks that all complete
//! before [`scope`] returns.
//!
//! Two execution modes, chosen by the width in effect when the scope is
//! created:
//!
//! * **width ≥ 2** — tasks are boxed, lifetime-erased, and published like
//!   fork halves: onto the spawning thread's work-stealing deque (or the
//!   shared injector if it has none), where workers and the scope owner
//!   (who helps while waiting) drain them concurrently. A pending-counter
//!   with `AcqRel` ordering makes every task's effects visible to code
//!   after `scope` returns.
//! * **width 1** — tasks go onto a scope-local FIFO drained by the owner
//!   after the body returns: fully sequential and allocation-cheap, and —
//!   like the deque path — iterative, so deeply recursive spawn chains use
//!   O(queue) heap instead of O(depth) stack. This FIFO is what keeps
//!   sequential scope execution deterministic and is deliberately
//!   untouched by the work-stealing scheduler.

use crate::pool::{current_width, JobRef, Published};
use crate::pool::{registry, with_width_raw, Registry};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

type ScopeTask<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;
type PanicPayload = Box<dyn Any + Send + 'static>;

/// A task scope handed to the [`scope`] body and to every spawned task.
/// Mirrors `rayon::Scope`: [`Scope::spawn`] registers a task that may
/// borrow anything outliving the scope.
pub struct Scope<'scope> {
    /// Width the scope was created under; tasks inherit it.
    width: usize,
    /// Tasks published to the pool but not yet finished (parallel mode).
    /// The last decrement may be the scope's destruction signal, so —
    /// like a join latch — finishing tasks never touch the scope after
    /// it; the owner parks on the registry-wide condvar instead.
    pending: AtomicUsize,
    /// First panic from any task, re-thrown at the scope boundary.
    panic: Mutex<Option<PanicPayload>>,
    /// Owner-drained FIFO (sequential mode).
    local: Mutex<VecDeque<ScopeTask<'scope>>>,
}

impl<'scope> Scope<'scope> {
    fn new(width: usize) -> Self {
        Self {
            width,
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            local: Mutex::new(VecDeque::new()),
        }
    }

    /// Spawn a task into the scope. The task may itself spawn more tasks;
    /// all of them complete before the enclosing [`scope`] call returns.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        if self.width <= 1 {
            self.local.lock().unwrap().push_back(Box::new(body));
            return;
        }
        self.pending.fetch_add(1, Ordering::AcqRel);
        let scope_ptr = SendConst(self as *const Scope<'scope>);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            // SAFETY: `scope` blocks until pending == 0, so the Scope (and
            // everything 'scope borrows) is alive for the whole execution.
            let scope = unsafe { &*scope_ptr.get() };
            let result = with_width_raw(scope.width, || {
                catch_unwind(AssertUnwindSafe(|| body(scope)))
            });
            if let Err(payload) = result {
                scope.record_panic(payload);
            }
            scope.task_done();
        });
        // SAFETY: lifetime erasure only — the layout is unchanged, and the
        // task cannot outlive 'scope because the scope owner blocks on
        // `pending` before returning.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        let raw = Box::into_raw(Box::new(task));
        // SAFETY: `execute_heap_task` reconstructs and consumes the unique
        // owning pointer exactly once.
        let job = unsafe { JobRef::new(raw as *const (), execute_heap_task) };
        if let Published::Declined = registry().publish(job) {
            // Injector full and no local deque: run the task inline. The
            // scope still sees a normal completion via task_done().
            // SAFETY: declined jobs were never made visible to any other
            // thread, so this is the unique execution.
            unsafe { execute_heap_task(raw as *const ()) };
        }
    }

    fn record_panic(&self, payload: PanicPayload) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn task_done(&self) {
        // The decrement is this task's LAST access to the scope: once
        // pending hits 0 the owner may return and destroy it. Waking a
        // parked owner goes through the 'static registry.
        self.pending.fetch_sub(1, Ordering::AcqRel);
        registry().notify();
    }

    fn wait_for_tasks(&self, registry: &Registry) {
        loop {
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            if let Some(job) = registry.find_help() {
                // SAFETY: claimed jobs are alive and executed exactly once.
                unsafe { job.execute() };
                continue;
            }
            registry.park_waiter(|| self.pending.load(Ordering::Acquire) == 0);
        }
    }
}

struct SendConst<T>(*const T);
// SAFETY: used only to smuggle a pointer to a Sync-accessed Scope into a
// task; the scope's own synchronization governs all access through it.
unsafe impl<T> Send for SendConst<T> {}

impl<T> SendConst<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Send` wrapper, not the raw pointer inside it.
    fn get(&self) -> *const T {
        self.0
    }
}

/// # Safety
/// `data` must be the pointer `spawn` made with `Box::into_raw`, and this
/// must be its only execution.
unsafe fn execute_heap_task(data: *const ()) {
    // SAFETY: `data` is the unique Box<Box<dyn FnOnce...>> made in `spawn`.
    let task = unsafe { Box::from_raw(data as *mut Box<dyn FnOnce() + Send + 'static>) };
    (*task)();
}

/// Create a task scope: all tasks spawned on it (transitively) complete
/// before `scope` returns. Mirrors `rayon::scope`, including panic
/// semantics: a panicking task or body unwinds out of `scope`, but only
/// after every already-spawned task has finished.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let width = current_width();
    if width > 1 {
        // Scopes run at the default width without an enclosing `install`
        // too: provision workers before any task is published.
        registry().ensure_workers(width);
    }
    let s = Scope::new(width);
    let body_result = catch_unwind(AssertUnwindSafe(|| f(&s)));

    if width <= 1 {
        // Sequential drain; tasks may push more while we pop. Panics are
        // recorded and re-thrown below, so — exactly like the parallel
        // mode — every already-spawned task still runs.
        loop {
            let task = s.local.lock().unwrap().pop_front();
            match task {
                Some(task) => {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(&s))) {
                        s.record_panic(payload);
                    }
                }
                None => break,
            }
        }
    } else {
        s.wait_for_tasks(registry());
    }

    if let Some(payload) = s.panic.lock().unwrap().take() {
        resume_unwind(payload);
    }
    match body_result {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::install;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn all_tasks_run_before_scope_returns() {
        let counter = AtomicU32::new(0);
        install(4, || {
            scope(|s| {
                for _ in 0..100 {
                    s.spawn(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn recursive_spawn_chains_complete() {
        fn chain<'a>(s: &Scope<'a>, c: &'a AtomicU32, left: u32) {
            if left > 0 {
                c.fetch_add(1, Ordering::Relaxed);
                s.spawn(move |s| chain(s, c, left - 1));
            }
        }
        for width in [1usize, 4] {
            let counter = AtomicU32::new(0);
            install(width, || scope(|s| chain(s, &counter, 10_000)));
            assert_eq!(counter.load(Ordering::Relaxed), 10_000, "width {width}");
        }
    }

    #[test]
    fn sequential_mode_uses_owner_thread() {
        let owner = std::thread::current().id();
        install(1, || {
            scope(|s| {
                s.spawn(move |_| assert_eq!(std::thread::current().id(), owner));
            });
        });
    }

    #[test]
    fn task_panic_propagates_after_completion() {
        // Both modes must finish every already-spawned task before the
        // panic unwinds out of `scope`.
        for width in [1usize, 4] {
            let finished = AtomicU32::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                install(width, || {
                    scope(|s| {
                        s.spawn(|_| panic!("task failed"));
                        for _ in 0..8 {
                            s.spawn(|_| {
                                finished.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }));
            assert!(result.is_err(), "width {width}");
            assert_eq!(finished.load(Ordering::Relaxed), 8, "width {width}");
        }
    }

    #[test]
    fn scope_returns_body_value() {
        assert_eq!(install(2, || scope(|_| 42)), 42);
    }
}
