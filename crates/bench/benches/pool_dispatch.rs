//! Dispatch-overhead microbenchmark: the persistent `rt::pool` vs spawning
//! fresh scoped threads per region (the seed's strategy) vs plain serial.
//!
//! The interesting regime is *small batches* — the per-update fan-outs of
//! Algorithms 2 and 4, where the parallel region body is microseconds and
//! per-region thread spawn/join used to dominate. The `tiny_10x1us` cell
//! is the smallest such region: ten chunks of ≈ 1 µs, the shape a
//! 600-row top-k scan had when it was split into 64-row panels over the
//! pool. The pool's median minus the serial median there is what one
//! dispatch costs, recorded as the `tiny_region_dispatch_ns` param. The spawn variant below
//! reproduces the seed's per-call `par_map` verbatim so the two
//! sides dispatch the same chunked index loop and differ only in how the
//! worker threads come to exist.

use std::sync::atomic::{AtomicUsize, Ordering};
use tsvd_rt::bench::BenchHarness;
use tsvd_rt::pool;

/// The seed's per-call implementation: spawn `num_threads()` scoped threads
/// per region, dynamic chunking off a shared atomic counter.
fn spawned_par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = pool::num_threads().min(n.max(1));
    if threads <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    let chunk = (n / (threads * 8)).max(1);
    let out_ptr = pool::SendPtr::new(out.as_mut_ptr());
    std::thread::scope(|s| {
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            let out_ptr = &out_ptr;
            s.spawn(move || loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for i in start..end {
                    let v = f(i);
                    // SAFETY: each index is claimed by exactly one thread
                    // via the atomic counter; `out` outlives the scope.
                    unsafe { *out_ptr.get().add(i) = Some(v) };
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("worker filled every slot"))
        .collect()
}

/// `busy_work` rounds in ≈ 1 µs: one chunk of the `tiny_10x1us` region.
const TINY_ROUNDS: usize = 300;

/// A few hundred nanoseconds of integer work — the scale of one dynamic
/// forward-push touch-up on a quiet source.
fn busy_work(i: usize, rounds: usize) -> u64 {
    let mut x = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
    for _ in 0..rounds {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
    }
    x
}

fn main() {
    let mut h = BenchHarness::from_args("pool_dispatch");
    // Warm the pool outside the timed region so the first benchmark does
    // not pay one-off worker spawning.
    pool::par_map(64, |i| i).len();
    for &batch in &[8usize, 64, 512] {
        h.bench(&format!("pool_par_map/batch_{batch}"), || {
            pool::par_map(batch, |i| busy_work(i, 100))
        });
        h.bench(&format!("spawn_par_map/batch_{batch}"), || {
            spawned_par_map(batch, |i| busy_work(i, 100))
        });
        h.bench(&format!("serial/batch_{batch}"), || {
            (0..batch).map(|i| busy_work(i, 100)).collect::<Vec<u64>>()
        });
    }
    let tiny = "tiny_10x1us";
    h.bench(&format!("pool_par_map/{tiny}"), || {
        pool::par_map(10, |i| busy_work(i, TINY_ROUNDS))
    });
    h.bench(&format!("serial/{tiny}"), || {
        (0..10)
            .map(|i| busy_work(i, TINY_ROUNDS))
            .collect::<Vec<u64>>()
    });
    let median = |name: String| {
        h.results()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    };
    // Absent when a name filter skipped either cell.
    if let (Some(pooled), Some(serial)) = (
        median(format!("pool_par_map/{tiny}")),
        median(format!("serial/{tiny}")),
    ) {
        h.record_param("tiny_region_dispatch_ns", pooled - serial);
    }
    h.finish();
}
