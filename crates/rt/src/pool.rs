//! Persistent work-stealing worker pool — the workspace's parallel runtime.
//!
//! Every parallel region in the system (PPR pushes over sources, level-1
//! block SVDs, CSR matvec bands, dynamic-update fan-out) dispatches through
//! this module. The pool exists because the alternative — spawning fresh OS
//! threads per region via `std::thread::scope`, as the seed did — puts
//! hundreds of microseconds of spawn/join overhead on exactly the path that
//! must be millisecond-scale: small-batch dynamic updates (Algorithms 2
//! and 4). Workers are spawned once, on first use, and park on a condition
//! variable between jobs; dispatching a job costs one lock + wakeup.
//!
//! Architecture:
//!
//! * **Sizing** — [`num_threads`] participants: the `TSVD_THREADS` env var
//!   if set, else available parallelism capped at 16. Resolved once per
//!   process ([`OnceLock`]); the pool spawns `num_threads() − 1` workers and
//!   the *caller of each parallel region is the final participant*, so a
//!   region always makes progress even if every worker is busy elsewhere.
//! * **Injector queue** — jobs are published as `num_workers` copies of a
//!   stack-allocated job record on a global injector deque; each parked
//!   worker pops one copy and joins the job. The caller retracts unclaimed
//!   copies before returning, so a job record never outlives its region.
//! * **Per-participant chunk deques** — each job pre-deals its index range
//!   into per-participant deques of contiguous chunks. A participant pops
//!   from the front of its own deque (locality) and steals from the back of
//!   a victim's when empty (balance under skew, e.g. hub-heavy PPR sources).
//! * **Nested-call safety** — a parallel primitive invoked *from inside* a
//!   worker runs its region inline on that worker (caller-runs fallback).
//!   The outer region already occupies the pool; nesting therefore cannot
//!   deadlock and does not oversubscribe.
//! * **Placement** — the kernel places the threads, except that a worker
//!   woken onto a CPU another participant of the same region is already on
//!   moves to an unclaimed one first (see `cpu.rs` for the measurement that
//!   made this necessary: the guest kernel left caller and worker stacked
//!   on one of two CPUs for over a second).
//! * **Panic propagation** — participant panics are caught, the first
//!   payload is stored on the job, and the caller re-raises it after every
//!   participant has left the region (so borrowed inputs are never touched
//!   after an unwind).
//!
//! Determinism: primitives place results by index (or hand each chunk a
//! disjoint output band), never reducing across participants, so outputs
//! are bitwise identical for every `TSVD_THREADS` setting — a property the
//! cross-crate `thread_determinism` test pins.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::{Condvar, Mutex, OnceLock};

use crate::cpu;

/// Number of pool participants: `TSVD_THREADS` env var if set, otherwise
/// the machine's available parallelism (capped at 16 — the workloads here
/// saturate memory bandwidth well before that). Resolved once per process
/// and memoized; later changes to the env var have no effect.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(s) = std::env::var("TSVD_THREADS") {
            if let Ok(n) = s.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    })
}

thread_local! {
    /// Set for pool worker threads; parallel primitives called on such a
    /// thread run inline (caller-runs fallback for nested regions).
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// A raw-pointer wrapper that asserts cross-thread use is externally
/// synchronised. The pool's primitives use it for disjoint-index writes
/// into caller-owned buffers; call sites with band-structured output (e.g.
/// CSR matvecs) use it the same way.
pub struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Wrap `p`. The wrapper itself is safe; dereferencing the pointer from
    /// [`SendPtr::get`] is where the caller's disjointness argument lives.
    pub fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    /// The wrapped pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the holder promises disjoint access (one writer per index/band),
// which is exactly the contract the pool's primitives maintain.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// The process-wide pool: injector queue + parked workers.
struct Pool {
    injector: Mutex<VecDeque<JobRef>>,
    work_ready: Condvar,
    /// Spawned worker threads (`num_threads() − 1`); the caller of each
    /// region is the extra participant, so slots run `0..=workers`.
    workers: usize,
}

impl Pool {
    /// The global pool, spawning its workers on first use.
    fn global() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                injector: Mutex::new(VecDeque::new()),
                work_ready: Condvar::new(),
                workers: num_threads() - 1,
            }));
            for slot in 0..pool.workers {
                std::thread::Builder::new()
                    .name(format!("tsvd-pool-{slot}"))
                    .spawn(move || worker_loop(pool, slot))
                    .expect("spawn pool worker");
            }
            pool
        })
    }
}

fn worker_loop(pool: &'static Pool, slot: usize) {
    IN_POOL.with(|c| c.set(true));
    loop {
        let job = {
            let mut q = pool.injector.lock().unwrap();
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = pool.work_ready.wait(q).unwrap();
            }
        };
        // SAFETY: the job record outlives every injected copy — the caller
        // retracts unclaimed copies and blocks until `pending` reaches zero
        // before its stack frame unwinds.
        let job = unsafe { &*job.0 };
        if let Some(free) = cpu::claim(&job.cpus) {
            cpu::move_to(free);
        }
        job.run(slot);
    }
}

/// One copy of a job on the injector. The pointee lives on the stack of the
/// caller running [`run_participants`].
#[derive(Clone, Copy)]
struct JobRef(*const Job);
// SAFETY: see the lifetime argument on `worker_loop`/`run_participants`.
unsafe impl Send for JobRef {}

/// A job record: the participant body plus completion/panic state.
struct Job {
    /// Participant body: claims chunks until the job is drained. The
    /// `'static` is a lie erased in [`run_participants`], which blocks
    /// until every participant has left the closure.
    f: &'static (dyn Fn(usize) + Sync),
    /// Injected copies not yet finished (retracted copies are subtracted).
    pending: Mutex<usize>,
    done: Condvar,
    /// CPUs (bit `c` = CPU `c`) the region's participants are on, the
    /// caller's first: a worker that wakes on a claimed one moves away.
    cpus: AtomicU64,
    /// First participant panic, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Job {
    /// Run the body as participant `slot`, then sign off.
    fn run(&self, slot: usize) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| (self.f)(slot))) {
            let mut stored = self.panic.lock().unwrap();
            if stored.is_none() {
                *stored = Some(p);
            }
        }
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Run `f(slot)` once per participant (workers on slots `0..workers`, the
/// caller on slot `workers`) and return when all of them have finished.
/// Panics from any participant are re-raised here, after the region quiesces.
fn run_participants(f: &(dyn Fn(usize) + Sync)) {
    let pool = Pool::global();
    if pool.workers == 0 || in_pool() {
        // Single-threaded, or nested inside a worker: caller-runs.
        f(pool.workers);
        return;
    }
    // SAFETY: the erased lifetime never escapes — this function blocks
    // until `pending == 0`, i.e. until no worker can still call `f`.
    let f_static: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    };
    let job = Job {
        f: f_static,
        pending: Mutex::new(pool.workers),
        done: Condvar::new(),
        cpus: AtomicU64::new(cpu::caller_claim()),
        panic: Mutex::new(None),
    };
    let jref = JobRef(&job);
    {
        let mut q = pool.injector.lock().unwrap();
        for _ in 0..pool.workers {
            q.push_back(jref);
        }
    }
    pool.work_ready.notify_all();
    // The caller is the last participant; its own panic (if any) is held
    // until the workers have drained out of the region.
    let mine = catch_unwind(AssertUnwindSafe(|| (job.f)(pool.workers)));
    let retracted = {
        let mut q = pool.injector.lock().unwrap();
        let before = q.len();
        q.retain(|j| !std::ptr::eq(j.0, jref.0));
        before - q.len()
    };
    {
        let mut pending = job.pending.lock().unwrap();
        *pending -= retracted;
        while *pending > 0 {
            pending = job.done.wait(pending).unwrap();
        }
    }
    if let Err(p) = mine {
        resume_unwind(p);
    }
    let stored = job.panic.lock().unwrap().take();
    if let Some(p) = stored {
        resume_unwind(p);
    }
}

/// Per-participant deques of contiguous index chunks: pop your own front,
/// steal a victim's back.
struct ChunkQueues {
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
}

impl ChunkQueues {
    /// Deal `0..n` into `slots` deques: participant `s` owns the `s`-th
    /// contiguous band, subdivided into `chunk`-sized ranges.
    fn deal(n: usize, chunk: usize, slots: usize) -> ChunkQueues {
        let per = n.div_ceil(slots);
        let queues = (0..slots)
            .map(|s| {
                let (lo, hi) = ((s * per).min(n), ((s + 1) * per).min(n));
                let mut q = VecDeque::new();
                let mut start = lo;
                while start < hi {
                    let end = (start + chunk).min(hi);
                    q.push_back(start..end);
                    start = end;
                }
                Mutex::new(q)
            })
            .collect();
        ChunkQueues { queues }
    }

    fn next(&self, slot: usize) -> Option<Range<usize>> {
        if let Some(r) = self.queues[slot].lock().unwrap().pop_front() {
            return Some(r);
        }
        for off in 1..self.queues.len() {
            let victim = (slot + off) % self.queues.len();
            if let Some(r) = self.queues[victim].lock().unwrap().pop_back() {
                return Some(r);
            }
        }
        None
    }
}

/// Apply `body(&mut state, i)` for every `i` in `0..n`, with one lazily
/// created `init()` state per participating thread (amortises per-worker
/// scratch such as a dense push workspace). Indices are visited exactly
/// once; visit order across participants is unspecified, so `body`'s side
/// effects must be index-disjoint.
pub fn par_for_init<S, I, F>(n: usize, init: I, body: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if n == 0 {
        return;
    }
    if num_threads() <= 1 || n < 2 || in_pool() {
        let mut s = init();
        for i in 0..n {
            body(&mut s, i);
        }
        return;
    }
    let slots = Pool::global().workers + 1;
    // Fine chunks so skewed work balances via stealing.
    let chunk = (n / (slots * 8)).max(1);
    let queues = ChunkQueues::deal(n, chunk, slots);
    run_participants(&|slot| {
        let mut scratch: Option<S> = None;
        while let Some(r) = queues.next(slot) {
            let s = scratch.get_or_insert_with(&init);
            for i in r {
                body(s, i);
            }
        }
    });
}

/// Apply `f(i)` for every `i` in `0..n`, collecting results in index order.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_init(n, || (), move |(), i| f(i))
}

/// [`par_map`] with one `init()` scratch state per participating thread.
pub fn par_map_init<T, S, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    par_for_init(n, init, |s, i| {
        let v = f(s, i);
        // SAFETY: each index is visited exactly once, so writes are
        // disjoint; `out` outlives the region (par_for_init blocks).
        unsafe { *out_ptr.get().add(i) = Some(v) };
    });
    out.into_iter()
        .map(|v| v.expect("pool filled every slot"))
        .collect()
}

/// Apply `f(i)` for every `i` in `0..n` for its side effects.
pub fn par_for_each<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    par_for_init(n, || (), move |(), i| f(i));
}

/// Apply `f` to every element of `items` in parallel. The exclusive
/// borrows handed to `f` are disjoint, so no `Sync` bound is needed on `T`.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let base = SendPtr::new(items.as_mut_ptr());
    par_for_each(items.len(), |i| {
        // SAFETY: each index is visited exactly once ⇒ the &mut are
        // disjoint, and `items` outlives the region.
        f(unsafe { &mut *base.get().add(i) });
    });
}

/// Run `f(range)` over disjoint contiguous chunks covering `0..n`, each at
/// least `min_chunk` long (except possibly the last); serial (one chunk
/// `0..n`) when `n ≤ min_chunk` or only one thread is available.
pub fn par_chunks<F>(n: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    if num_threads() <= 1 || n <= min_chunk || in_pool() {
        f(0..n);
        return;
    }
    let slots = Pool::global().workers + 1;
    let chunk = n.div_ceil(slots * 4).max(min_chunk.max(1));
    let queues = ChunkQueues::deal(n, chunk, slots);
    run_participants(&|slot| {
        while let Some(r) = queues.next(slot) {
            f(r);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(1000, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn nested_par_map_runs_inline() {
        // The inner region must complete correctly from inside an outer
        // region (caller-runs fallback on workers; no deadlock).
        let out = par_map(8, |i| par_map(50, |j| i * j).iter().sum::<usize>());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * (0..50).sum::<usize>());
        }
    }

    #[test]
    fn par_for_init_reuses_scratch_per_thread() {
        let inits = AtomicUsize::new(0);
        let visited: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        par_for_init(
            500,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                vec![0u8; 16] // stand-in for a per-worker workspace
            },
            |scratch, i| {
                scratch[0] ^= 1;
                visited[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        let n_inits = inits.load(Ordering::Relaxed);
        assert!(
            (1..=num_threads()).contains(&n_inits),
            "one scratch per participating thread, got {n_inits}"
        );
    }

    #[test]
    fn par_for_each_mut_visits_every_item_once() {
        let mut items: Vec<usize> = (0..777).collect();
        par_for_each_mut(&mut items, |v| *v += 1000);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, i + 1000);
        }
    }

    #[test]
    fn par_chunks_covers_everything_once() {
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        par_chunks(500, 7, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            par_map(100, |i| {
                if i == 37 {
                    panic!("boom in worker");
                }
                i
            })
        }));
        assert!(r.is_err(), "participant panic must reach the caller");
        // The pool must still dispatch jobs after a panicked region.
        let out = par_map(64, |i| i + 1);
        assert_eq!(out[63], 64);
    }

    #[test]
    fn concurrent_regions_from_user_threads() {
        std::thread::scope(|s| {
            for t in 0..4usize {
                s.spawn(move || {
                    let out = par_map(300, move |i| i * t);
                    for (i, v) in out.iter().enumerate() {
                        assert_eq!(*v, i * t);
                    }
                });
            }
        });
    }

    #[test]
    fn num_threads_memoized_and_positive() {
        let a = num_threads();
        let b = num_threads();
        assert!(a >= 1);
        assert_eq!(a, b);
    }
}
