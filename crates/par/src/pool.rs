//! The global worker pool, job plumbing, and the two-way [`join`].
//!
//! # Architecture: per-thread work-stealing deques
//!
//! Every thread that forks work owns a Chase–Lev deque (the `deque` module):
//! workers get one at spawn, and any other thread (the harness main
//! thread, a test thread) registers one lazily on its first fork. A fork
//! pushes the second half at the *bottom* of the owner's deque — a
//! lock-free single-writer operation — and idle workers *steal* from the
//! *top* of a randomly chosen victim with a single CAS. Local execution
//! is LIFO (cache-hot, depth-first); stealing is FIFO (takes the oldest,
//! and therefore largest, pending subtree).
//!
//! A small lock-free MPMC ring (the *injector*) catches the overflow
//! cases that have no deque to go to: submissions from threads that
//! could not get a deque slot, and scope tasks published while the slot
//! table is exhausted. If even the injector is full, publication falls
//! back to inline execution — callers never block on a full queue.
//!
//! `join`'s reclaim path is the owner-side `pop`: if the popped job is
//! the one we just pushed, nothing stole it and we run it inline — the
//! stolen-check is one CAS on the deque bottom, not a scan of a shared
//! queue. If the pop comes back with a *different* job (possible inside
//! scopes), the waiter executes it — blocked threads always *help*.
//!
//! # Park/wake layering
//!
//! Idle workers back off in three stages: exponential spin (cheapest,
//! for the fork–join gaps measured in nanoseconds), a few
//! `yield_now`s, and finally a condvar park. Parking is guarded by a
//! sleepers counter with seq-cst fences on both sides (publisher:
//! *publish work, fence, read sleepers*; sleeper: *announce, fence,
//! re-check work*), so a wake can only be missed in the window the
//! park timeout already bounds. Publishers skip the condvar lock
//! entirely while nobody sleeps — the common case under load.
//!
//! Determinism note: the scheduler decides *where* a leaf runs, never
//! what the leaf computes or how results combine — `loops.rs` keeps its
//! fixed combine trees and `scope.rs` its width-1 FIFO, so colorings
//! stay bit-identical across widths by construction.

use crate::deque::{Deque, Steal};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Hard cap on spawned worker threads, far above any realistic width.
pub const MAX_WORKERS: usize = 64;

/// Total deque slots: workers plus short-lived participant threads.
const MAX_DEQUES: usize = 256;

/// Deque slots reserved for workers; participants get the rest.
const MAX_PARTICIPANTS: usize = MAX_DEQUES - MAX_WORKERS;

/// How long a latch waiter parks before re-probing. Bounds the wake-up
/// latency of the steal/park race without spinning.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// Idle-worker park timeout. The sleepers protocol makes wake-ups
/// reliable; the timeout is a belt-and-braces backstop, so it can be
/// long enough that idle workers cost ~nothing.
const WORKER_PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// Spin stages before an idle worker starts yielding (1, 2, 4, ... 32
/// `spin_loop` hints).
const SPIN_ROUNDS: u32 = 6;

/// Yield stages after spinning, before an idle worker parks.
const YIELD_ROUNDS: u32 = 4;

/// Injector capacity (power of two). Overflow falls back to inline
/// execution, so "full" is a slow path, not an error.
const INJECTOR_CAP: usize = 1 << 13;

// ---------------------------------------------------------------------
// Width management
// ---------------------------------------------------------------------

thread_local! {
    /// The installed parallel width of the current thread; 0 = unset
    /// (fall back to [`default_width`]).
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// The parallel width in effect on the calling thread: how many strands
/// parallel loops split across. 1 means "execute inline, sequentially".
pub fn current_width() -> usize {
    let w = WIDTH.with(Cell::get);
    if w == 0 {
        default_width()
    } else {
        w
    }
}

/// The width used outside any [`install`] scope: the `PGC_THREADS`
/// environment variable (a single positive integer) if set, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_width() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(s) = std::env::var("PGC_THREADS") {
            if let Ok(n) = s.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Number of worker threads currently spawned (diagnostics).
pub fn pool_size() -> usize {
    registry().spawned.load(Ordering::Relaxed)
}

/// Total successful steals since process start (monotonic, relaxed).
///
/// Always on — independent of the `pgc-obs` `capture` feature — because
/// `loops.rs` uses it as contention feedback for adaptive grain
/// selection, and the harness reports it in scaling tables.
pub fn steal_count() -> u64 {
    STEALS.load(Ordering::Relaxed)
}

static STEALS: AtomicU64 = AtomicU64::new(0);

/// Restores the caller's width even if `f` unwinds.
struct WidthGuard {
    prev: usize,
}

impl WidthGuard {
    fn set(width: usize) -> Self {
        Self {
            prev: WIDTH.with(|c| c.replace(width)),
        }
    }
}

impl Drop for WidthGuard {
    fn drop(&mut self) {
        WIDTH.with(|c| c.set(self.prev));
    }
}

/// Run `f` with parallel width `width` (clamped to ≥ 1) installed on the
/// calling thread, making sure enough pool workers exist to serve it.
/// Nested installs are scoped: the previous width is restored on exit.
pub fn install<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let width = width.max(1);
    if width > 1 {
        registry().ensure_workers(width);
    }
    let _guard = WidthGuard::set(width);
    f()
}

/// [`install`] without worker provisioning — used when re-entering a width
/// that is already backed by workers (job execution on a worker thread).
pub(crate) fn with_width_raw<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _guard = WidthGuard::set(width.max(1));
    f()
}

// ---------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------

/// A type-erased pointer to an executable job. The pointee must outlive
/// execution; stack jobs guarantee this by blocking their frame until the
/// latch fires, heap jobs by being owned by the queue entry itself.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever executed once, and the protocols above
// guarantee the pointee is alive and uniquely executable when it runs.
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// `data` must be what `execute_fn` expects, and must stay alive
    /// until the job has run (or be dropped unexecuted).
    pub(crate) unsafe fn new(data: *const (), execute_fn: unsafe fn(*const ())) -> Self {
        Self { data, execute_fn }
    }

    /// # Safety
    /// Must be called at most once, while the pointee is alive.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: the caller runs this job at most once while its pointee
        // is alive, which is exactly what `execute_fn` requires of `data`.
        unsafe { (self.execute_fn)(self.data) }
    }

    /// Explode into two machine words for per-word atomic deque slots.
    pub(crate) fn to_words(self) -> (usize, usize) {
        (self.data as usize, self.execute_fn as usize)
    }

    /// # Safety
    /// `words` must come from [`JobRef::to_words`] on a still-live job,
    /// read under a protocol that rules out torn pairs (the deque's
    /// successful-CAS path, the injector's sequence protocol).
    pub(crate) unsafe fn from_words(words: (usize, usize)) -> Self {
        Self {
            data: words.0 as *const (),
            // SAFETY: round-trips the fn pointer stored by to_words.
            execute_fn: unsafe { std::mem::transmute::<usize, unsafe fn(*const ())>(words.1) },
        }
    }
}

/// A job whose closure and result live in the forking caller's stack frame
/// (the `join` fast path: no allocation per fork).
pub(crate) struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    latch: Latch,
    width: usize,
}

// SAFETY: `func`/`result` are accessed by exactly one executor (enforced by
// the single-execution protocol of JobRef) and read back by the owner only
// after the latch has fired (release/acquire).
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(func: F, width: usize) -> Self {
        Self {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            latch: Latch::new(),
            width,
        }
    }

    /// # Safety
    /// The returned ref must not outlive `self`, and the caller must keep
    /// `self` alive until the latch fires.
    unsafe fn as_job_ref(&self) -> JobRef {
        // SAFETY: `data` points at `self` and `execute` casts it back to
        // `Self`; the caller keeps `self` alive until the latch fires,
        // which `execute` does last.
        unsafe { JobRef::new(self as *const Self as *const (), Self::execute) }
    }

    /// # Safety
    /// `data` must come from [`as_job_ref`](Self::as_job_ref) on a live
    /// job, and the job must run at most once.
    unsafe fn execute(data: *const ()) {
        // SAFETY: `data` is a live `StackJob<F, R>` (the caller's
        // contract), and its owner keeps it alive until the latch fires.
        let job = unsafe { &*(data as *const Self) };
        // SAFETY: this is the job's single execution, so nothing else
        // touches `func`; the owner reads `result` only after the latch.
        let func = unsafe { (*job.func.get()).take().expect("job executed twice") };
        let result = with_width_raw(job.width, || catch_unwind(AssertUnwindSafe(func)));
        // SAFETY: as above, the executor has `result` to itself until
        // `latch.set()` publishes it (release).
        unsafe { *job.result.get() = Some(result) };
        job.latch.set();
        // `job` may be destroyed by its (probing) owner from here on —
        // wake any parked waiter through the registry, never the latch.
        registry().notify();
    }

    fn run_inline(&self) {
        // SAFETY: we own the job and it was reclaimed from the deque, so
        // this is the unique execution.
        unsafe { Self::execute(self as *const Self as *const ()) }
    }

    fn into_result(self) -> R {
        match self
            .result
            .into_inner()
            .expect("job result missing after latch")
        {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

// ---------------------------------------------------------------------
// Latch
// ---------------------------------------------------------------------

/// One-shot completion flag. `set` uses `Release`, `probe` uses
/// `Acquire`, so everything the setter did happens-before anything the
/// waiter does next.
///
/// Lifetime rule (the reason there is no per-latch condvar): a latch
/// typically lives in the *waiter's* stack frame, and the waiter is free
/// to return — destroying the latch — the instant `probe` turns true.
/// `set` is therefore the setter's **last** access to the latch; waking
/// the waiter goes through the `'static` registry ([`Registry::notify`]
/// after `set`), never through the dying frame.
pub(crate) struct Latch {
    done: AtomicBool,
}

impl Latch {
    pub(crate) fn new() -> Self {
        Self {
            done: AtomicBool::new(false),
        }
    }

    pub(crate) fn set(&self) {
        self.done.store(true, Ordering::Release);
    }

    pub(crate) fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Block until the latch fires, executing other pending work (own
    /// deque, injector, steals) while waiting.
    pub(crate) fn wait_while_helping(&self, registry: &Registry) {
        loop {
            if self.probe() {
                return;
            }
            if let Some(job) = registry.find_help() {
                // A blocked thread helping with someone else's job.
                pgc_obs::counter!("pool.help", 1);
                // SAFETY: claimed jobs are alive and executed exactly once.
                unsafe { job.execute() };
                continue;
            }
            registry.park_waiter(|| self.probe());
        }
    }
}

// ---------------------------------------------------------------------
// Injector (lock-free bounded MPMC ring, Vyukov-style)
// ---------------------------------------------------------------------

struct InjectorCell {
    /// Sequence stamp: `pos` when free for the producer of `pos`,
    /// `pos + 1` when holding that producer's job, `pos + CAP` once
    /// consumed and recycled for the next lap.
    seq: AtomicUsize,
    job: UnsafeCell<(usize, usize)>,
}

/// Bounded lock-free MPMC FIFO for submissions with no owner deque.
/// Producers and consumers each claim a cell by CAS on their position
/// counter; the per-cell sequence stamp hands the cell over between
/// them, so the `job` words are never accessed concurrently.
struct Injector {
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    cells: Box<[InjectorCell]>,
}

// SAFETY: cell handover is mediated by the seq/pos protocol above.
unsafe impl Sync for Injector {}

impl Injector {
    fn new() -> Self {
        Self {
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            cells: (0..INJECTOR_CAP)
                .map(|i| InjectorCell {
                    seq: AtomicUsize::new(i),
                    job: UnsafeCell::new((0, 0)),
                })
                .collect(),
        }
    }

    /// Enqueue; `false` means full (caller runs the job inline instead).
    fn push(&self, job: JobRef) -> bool {
        let mask = INJECTOR_CAP - 1;
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS gives exclusive access
                        // to the cell until the seq store below.
                        unsafe { *cell.job.get() = job.to_words() };
                        cell.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return false; // full: the cell is still a lap behind
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    fn pop(&self) -> Option<JobRef> {
        let mask = INJECTOR_CAP - 1;
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS gives exclusive access
                        // to the cell until the seq store below.
                        let words = unsafe { *cell.job.get() };
                        cell.seq.store(pos + mask + 1, Ordering::Release);
                        // SAFETY: written by push under the same protocol.
                        return Some(unsafe { JobRef::from_words(words) });
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate (racy) emptiness for sleep decisions only.
    fn is_empty(&self) -> bool {
        self.dequeue_pos.load(Ordering::Acquire) >= self.enqueue_pos.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// Registry (deque table + injector + workers)
// ---------------------------------------------------------------------

/// Where the current thread publishes fork halves.
#[derive(Clone, Copy)]
enum LocalState {
    /// Not yet decided; first fork resolves it.
    Unset,
    /// This thread owns a registered deque.
    Owned(&'static Deque),
    /// No deque slot available; publish through the injector.
    InjectorOnly,
}

thread_local! {
    static LOCAL: Cell<LocalState> = const { Cell::new(LocalState::Unset) };
    /// Participant threads only: returns the deque slot on thread death.
    static SLOT_GUARD: RefCell<Option<SlotReturner>> = const { RefCell::new(None) };
    /// xorshift state for victim selection; 0 = unseeded.
    static RNG: Cell<u64> = const { Cell::new(0) };
}

fn next_rand() -> u64 {
    RNG.with(|c| {
        let mut x = c.get();
        if x == 0 {
            static SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
            x = SEED.fetch_add(0xBF58_476D_1CE4_E5B9, Ordering::Relaxed) | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        x
    })
}

/// Returns a participant's deque slot to the free list when its thread
/// dies. By then the deque is empty: the owning thread only pushes
/// inside `join`/`scope`, both of which settle before returning.
struct SlotReturner {
    slot: usize,
}

impl Drop for SlotReturner {
    fn drop(&mut self) {
        // Reset the publish route first so nothing on this thread can
        // touch the deque after the slot is handed out again. The Cell
        // TLS is const-init and dropless, but be tolerant anyway.
        let _ = LOCAL.try_with(|c| c.set(LocalState::InjectorOnly));
        let r = registry();
        r.free_slots.lock().unwrap().push(self.slot);
        r.participants.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How a job was published (decides the reclaim strategy in `join`).
pub(crate) enum Published {
    /// Pushed onto the calling thread's own deque.
    Local(&'static Deque),
    /// Pushed into the shared injector.
    Injected,
    /// Both routes unavailable (injector full): caller must run inline.
    Declined,
}

pub(crate) struct Registry {
    /// Slot table of all registered deques. Slots are write-once per
    /// allocation (pointer stays valid forever — deques are leaked) and
    /// recycled whole via `free_slots` when a participant dies.
    deques: [std::sync::atomic::AtomicPtr<Deque>; MAX_DEQUES],
    /// High-water slot count; the steal sweep scans `0..n_deques`.
    n_deques: AtomicUsize,
    /// Recycled participant slots (their deques are empty).
    free_slots: Mutex<Vec<usize>>,
    /// Live participant count, capped so workers always find a slot.
    participants: AtomicUsize,
    injector: Injector,
    /// Number of workers inside the park protocol; publishers skip the
    /// condvar lock while this is 0.
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    work_available: Condvar,
    spawned: AtomicUsize,
    spawn_lock: Mutex<()>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

pub(crate) fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        deques: std::array::from_fn(|_| std::sync::atomic::AtomicPtr::new(std::ptr::null_mut())),
        n_deques: AtomicUsize::new(0),
        free_slots: Mutex::new(Vec::new()),
        participants: AtomicUsize::new(0),
        injector: Injector::new(),
        sleepers: AtomicUsize::new(0),
        sleep_lock: Mutex::new(()),
        work_available: Condvar::new(),
        spawned: AtomicUsize::new(0),
        spawn_lock: Mutex::new(()),
    })
}

impl Registry {
    /// Spawn daemon workers until at least `width` exist (capped). Called
    /// on every fork/spawn entry point (not just `install`), so work
    /// published at the *default* width is served too; the common
    /// already-provisioned case is a single relaxed load.
    pub(crate) fn ensure_workers(&'static self, width: usize) {
        let want = width.min(MAX_WORKERS);
        if self.spawned.load(Ordering::Relaxed) >= want {
            return;
        }
        let _guard = self.spawn_lock.lock().unwrap();
        let have = self.spawned.load(Ordering::Relaxed);
        for _ in have..want {
            let (_slot, deque) = self
                .alloc_slot()
                .expect("worker deque slots exhausted (MAX_WORKERS fits by construction)");
            std::thread::Builder::new()
                .name("pgc-par-worker".into())
                .spawn(move || worker_loop(self, deque))
                .expect("failed to spawn pgc-par worker");
        }
        if want > have {
            self.spawned.store(want, Ordering::Relaxed);
        }
    }

    /// Reserve a deque slot: reuse a recycled one (its deque is empty)
    /// or grow the high-water mark and leak a fresh deque.
    fn alloc_slot(&self) -> Option<(usize, &'static Deque)> {
        if let Some(slot) = self.free_slots.lock().unwrap().pop() {
            let ptr = self.deques[slot].load(Ordering::Acquire);
            debug_assert!(!ptr.is_null());
            // SAFETY: slot pointers are leaked Boxes, valid forever; the
            // free-list mutex hands ownership to exactly one new owner.
            return Some((slot, unsafe { &*ptr }));
        }
        let slot = self.n_deques.fetch_add(1, Ordering::AcqRel);
        if slot >= MAX_DEQUES {
            self.n_deques.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        let deque: &'static Deque = Box::leak(Box::new(Deque::new()));
        self.deques[slot].store(deque as *const Deque as *mut Deque, Ordering::Release);
        Some((slot, deque))
    }

    /// Register the calling (non-worker) thread as a deque owner, if the
    /// participant budget allows. Budget failures are not errors — the
    /// thread just publishes through the injector instead.
    fn register_participant(&self) -> Option<(usize, &'static Deque)> {
        if self.participants.fetch_add(1, Ordering::Relaxed) >= MAX_PARTICIPANTS {
            self.participants.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        match self.alloc_slot() {
            Some(pair) => Some(pair),
            None => {
                self.participants.fetch_sub(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Resolve (lazily registering) the calling thread's publish route.
    fn local_state(&self) -> LocalState {
        LOCAL.with(|c| match c.get() {
            LocalState::Unset => {
                let state = match self.register_participant() {
                    Some((slot, deque)) => {
                        SLOT_GUARD.with(|g| {
                            *g.borrow_mut() = Some(SlotReturner { slot });
                        });
                        LocalState::Owned(deque)
                    }
                    None => LocalState::InjectorOnly,
                };
                c.set(state);
                state
            }
            state => state,
        })
    }

    /// Publish a job for others to take: own deque if this thread has
    /// one, the injector otherwise. Never blocks; a full injector is
    /// reported as [`Published::Declined`] and the caller runs inline.
    pub(crate) fn publish(&self, job: JobRef) -> Published {
        match self.local_state() {
            LocalState::Owned(deque) => {
                deque.push(job);
                self.notify();
                Published::Local(deque)
            }
            _ => {
                if self.injector.push(job) {
                    self.notify();
                    Published::Injected
                } else {
                    Published::Declined
                }
            }
        }
    }

    /// Wake a parked worker if any is (or may be about to start)
    /// sleeping. The fence pairs with the one in `idle_wait`, forming
    /// the store-buffer-proof handshake described in the module docs.
    pub(crate) fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.sleep_lock.lock().unwrap();
            self.work_available.notify_all();
        }
    }

    /// A worker's next job: own deque (LIFO), injector, then steal.
    fn find_work(&self, own: &Deque) -> Option<JobRef> {
        if let Some(job) = own.pop() {
            return Some(job);
        }
        if let Some(job) = self.injector.pop() {
            return Some(job);
        }
        self.steal_sweep(Some(own as *const Deque))
    }

    /// A blocked thread's next job while it waits: like `find_work`, but
    /// the own-deque stage only applies if this thread has one. Does NOT
    /// register a deque — merely-waiting threads don't deserve a slot.
    pub(crate) fn find_help(&self) -> Option<JobRef> {
        let own = LOCAL.with(Cell::get);
        let own_ptr = if let LocalState::Owned(deque) = own {
            if let Some(job) = deque.pop() {
                return Some(job);
            }
            Some(deque as *const Deque)
        } else {
            None
        };
        if let Some(job) = self.injector.pop() {
            return Some(job);
        }
        self.steal_sweep(own_ptr)
    }

    /// One randomized-start pass over all victims. Retries a victim that
    /// answers `Retry` (we lost a race; its deque is likely non-empty),
    /// skips our own deque and unallocated slots.
    fn steal_sweep(&self, own: Option<*const Deque>) -> Option<JobRef> {
        let n = self.n_deques.load(Ordering::Acquire).min(MAX_DEQUES);
        if n == 0 {
            return None;
        }
        let start = (next_rand() as usize) % n;
        for i in 0..n {
            let idx = (start + i) % n;
            let ptr = self.deques[idx].load(Ordering::Acquire) as *const Deque;
            if ptr.is_null() || Some(ptr) == own {
                continue;
            }
            // SAFETY: deque pointers are leaked, valid forever.
            let victim = unsafe { &*ptr };
            loop {
                match victim.steal() {
                    Steal::Success(job) => {
                        STEALS.fetch_add(1, Ordering::Relaxed);
                        pgc_obs::counter!("pool.steal", 1);
                        return Some(job);
                    }
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => break,
                }
            }
        }
        pgc_obs::counter!("pool.steal_fail", 1);
        None
    }

    /// Racy "is there anything to take" probe for the park decision.
    fn has_visible_work(&self) -> bool {
        if !self.injector.is_empty() {
            return true;
        }
        let n = self.n_deques.load(Ordering::Acquire).min(MAX_DEQUES);
        (0..n).any(|i| {
            let ptr = self.deques[i].load(Ordering::Acquire);
            // SAFETY: deque pointers are leaked, valid forever.
            !ptr.is_null() && !unsafe { &*ptr }.is_empty()
        })
    }

    /// Timed park for a thread blocked on a completion flag (a join's
    /// latch, a scope's pending counter) that found nothing to help
    /// with. Parks on the registry-wide condvar — never on memory owned
    /// by the waiting frame — so completers can wake us after their
    /// final store without touching soon-to-be-destroyed state. The
    /// timeout bounds the window where a completion's notify raced our
    /// sleepers announcement.
    pub(crate) fn park_waiter(&self, done: impl Fn() -> bool) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !done() && !self.has_visible_work() {
            let guard = self.sleep_lock.lock().unwrap();
            if !done() {
                drop(
                    self.work_available
                        .wait_timeout(guard, PARK_TIMEOUT)
                        .unwrap(),
                );
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// One step of the idle backoff ladder: spin → yield → announce-park.
    fn idle_wait(&self, backoff: &mut u32) {
        if *backoff < SPIN_ROUNDS {
            for _ in 0..(1u32 << *backoff) {
                std::hint::spin_loop();
            }
            *backoff += 1;
        } else if *backoff < SPIN_ROUNDS + YIELD_ROUNDS {
            std::thread::yield_now();
            *backoff += 1;
        } else {
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if !self.has_visible_work() {
                pgc_obs::counter!("pool.park", 1);
                let guard = self.sleep_lock.lock().unwrap();
                drop(
                    self.work_available
                        .wait_timeout(guard, WORKER_PARK_TIMEOUT)
                        .unwrap(),
                );
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn worker_loop(registry: &'static Registry, own: &'static Deque) {
    LOCAL.with(|c| c.set(LocalState::Owned(own)));
    loop {
        let job = {
            // The idle span covers the whole hunt for work, so a Perfetto
            // row shows each worker alternating task/idle; the park
            // counter tallies how often the condvar actually blocked.
            let _idle = pgc_obs::span!("pool.idle");
            let mut backoff = 0u32;
            loop {
                if let Some(job) = registry.find_work(own) {
                    break job;
                }
                registry.idle_wait(&mut backoff);
            }
        };
        let _task = pgc_obs::span!("pool.task");
        // SAFETY: claimed jobs are alive and executed exactly once.
        unsafe { job.execute() };
    }
}

// ---------------------------------------------------------------------
// join
// ---------------------------------------------------------------------

/// Two-way fork–join: conceptually runs `a` and `b` in parallel and
/// returns both results. `a` runs on the calling thread; `b` is pushed
/// onto the caller's deque and reclaimed (inline) if nothing stole it —
/// the stolen-check is the owner-side `pop`, a single CAS in the
/// last-element race rather than a queue scan. With width 1 both halves
/// run inline with no scheduler traffic at all.
///
/// Panics in either closure propagate to the caller — after both halves
/// have finished, so borrowed data is never observed mid-use.
pub fn join<A, RA, B, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let width = current_width();
    if width <= 1 {
        return (a(), b());
    }
    let registry = registry();
    // Works at the default width without an enclosing `install` too: make
    // sure someone can actually steal what we are about to publish.
    registry.ensure_workers(width);
    let job_b = StackJob::new(b, width);
    // SAFETY: job_b outlives the ref — this frame blocks (below) until the
    // job has either been reclaimed or its latch has fired.
    let job_ref = unsafe { job_b.as_job_ref() };

    match registry.publish(job_ref) {
        Published::Local(deque) => {
            let result_a = catch_unwind(AssertUnwindSafe(a));
            // Settle b before doing anything else (including unwinding):
            // its frame must not die while the job can still run.
            settle(registry, deque, &job_b, job_ref);
            match result_a {
                Ok(ra) => (ra, job_b.into_result()),
                Err(payload) => resume_unwind(payload),
            }
        }
        Published::Injected => {
            let result_a = catch_unwind(AssertUnwindSafe(a));
            // Reclaim-by-helping: wait_while_helping drains the injector,
            // so an unstolen job_b is executed right here.
            job_b.latch.wait_while_helping(registry);
            match result_a {
                Ok(ra) => (ra, job_b.into_result()),
                Err(payload) => resume_unwind(payload),
            }
        }
        Published::Declined => {
            // Injector full: degrade to sequential execution.
            let result_a = catch_unwind(AssertUnwindSafe(a));
            job_b.run_inline();
            match result_a {
                Ok(ra) => (ra, job_b.into_result()),
                Err(payload) => resume_unwind(payload),
            }
        }
    }
}

/// Resolve a locally-published fork half: pop our own deque — if the job
/// that comes back is `job_b` itself, nothing stole it and it runs
/// inline. A different job (a scope task published below it) is executed
/// as helping; an empty deque means `job_b` was stolen, so wait on its
/// latch, helping globally meanwhile.
fn settle<F, R>(registry: &'static Registry, deque: &Deque, job_b: &StackJob<F, R>, job_ref: JobRef)
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    while !job_b.latch.probe() {
        match deque.pop() {
            Some(job) => {
                if std::ptr::eq(job.data, job_ref.data) {
                    job_b.run_inline();
                    return;
                }
                pgc_obs::counter!("pool.help", 1);
                // SAFETY: popped jobs are alive and executed exactly once.
                unsafe { job.execute() };
            }
            None => {
                job_b.latch.wait_while_helping(registry);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = install(4, || join(|| 2 + 2, || "ok"));
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_runs_inline_at_width_one() {
        install(1, || {
            assert_eq!(current_width(), 1);
            let (a, b) = join(|| 1, || 2);
            assert_eq!((a, b), (1, 2));
        });
    }

    #[test]
    fn nested_joins_complete() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(install(4, || fib(16)), 987);
    }

    #[test]
    fn install_restores_width() {
        let outer = current_width();
        install(3, || {
            assert_eq!(current_width(), 3);
            install(2, || assert_eq!(current_width(), 2));
            assert_eq!(current_width(), 3);
        });
        assert_eq!(current_width(), outer);
    }

    #[test]
    fn join_propagates_panics() {
        let hits = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            install(4, || {
                join(
                    || panic!("left side"),
                    || hits.fetch_add(1, Ordering::Relaxed),
                )
            })
        }));
        assert!(result.is_err());
        // The right half still ran to completion before the unwind.
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn workers_are_capped() {
        install(MAX_WORKERS + 10, || {});
        assert!(pool_size() <= MAX_WORKERS);
    }

    #[test]
    fn join_provisions_workers_without_install() {
        // A join at a >1 width that was never `install`ed (the process
        // default-width path) must still create stealable workers.
        with_width_raw(5, || {
            let _ = join(|| 1, || 2);
        });
        assert!(pool_size() >= 5);
    }

    #[test]
    fn injector_is_fifo_and_bounded() {
        static SINK: AtomicUsize = AtomicUsize::new(0);
        unsafe fn bump(data: *const ()) {
            SINK.fetch_add(data as usize, Ordering::Relaxed);
        }
        let inj = Injector::new();
        assert!(inj.is_empty());
        for i in 0..INJECTOR_CAP {
            // SAFETY: token jobs are never executed; `bump` reads `data`
            // only as an integer, so any pointer value is valid for it.
            assert!(inj.push(unsafe { JobRef::new(i as *const (), bump) }));
        }
        // Full: the next push must decline rather than block or clobber.
        // SAFETY: as above, a token job that is never executed.
        assert!(!inj.push(unsafe { JobRef::new(std::ptr::null(), bump) }));
        for expect in 0..INJECTOR_CAP {
            let job = inj.pop().expect("queue should still hold jobs");
            assert_eq!(job.to_words().0, expect, "injector must be FIFO");
        }
        assert!(inj.pop().is_none());
        // Wrap around a lap to exercise the sequence recycling.
        for i in 0..10 {
            // SAFETY: as above, a token job that is never executed.
            assert!(inj.push(unsafe { JobRef::new(i as *const (), bump) }));
        }
        for expect in 0..10 {
            assert_eq!(inj.pop().unwrap().to_words().0, expect);
        }
    }

    #[test]
    fn steal_count_is_monotonic() {
        let before = steal_count();
        install(4, || {
            let mut acc = 0u64;
            for i in 0..64 {
                let (a, b) = join(move || i, move || i * 2);
                acc += a + b;
            }
            assert!(acc > 0);
        });
        assert!(steal_count() >= before);
    }
}
