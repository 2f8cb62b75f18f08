//! Top-k query serving benchmark over an `n × d × k` grid: the blocked
//! scan against the naive score-everything-and-sort reference at the
//! kernel level, and `EpochSnapshot::top_k` — the same scan behind the
//! node lookup, the thread-local scratch and the row→node mapping — at
//! the snapshot level. At the serving shape (`n ∈ {300, 600}`, `d = 64`,
//! `k = 10`) the batch entry scoring `m ∈ {1, 16}` queries in one call
//! sits beside `m` single-query scans: what a pipelined run of `m`
//! `TopK` requests costs the front one way and the other.
//!
//! One extra check rides along: a counting `#[global_allocator]` asserts
//! the scan kernel — single query and batch — performs **zero**
//! allocations per call once its scratch is warm (the per-epoch norms are
//! cached on the snapshot; the kernel itself must never touch the heap).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsvd_core::{Embedding, PipelineTimings};
use tsvd_linalg::topk::{topk_scan, topk_scan_batch, topk_scan_naive, Hit, ScanQuery, ScanScratch};
use tsvd_linalg::DenseMatrix;
use tsvd_rt::bench::{black_box, BenchHarness};
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::{EpochSnapshot, Metric};

/// Counts every heap allocation so the bench can assert the steady-state
/// scan kernel allocates nothing. Deallocations are not counted — the
/// assertion is about acquiring memory on the query path.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Row-major matrix of `√rows` fuzzy clusters — grouped like a real
/// embedding, whose nodes sit near their community's centre, so the heap
/// sees runs of near-tied scores and not the uniform-random best case.
fn clustered_data(seed: u64, rows: usize, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers = (rows as f64).sqrt() as usize;
    let cdata: Vec<f64> = (0..centers * dim)
        .map(|_| rng.gen_range(-1000..1000) as f64 / 100.0)
        .collect();
    let mut data = vec![0.0f64; rows * dim];
    for r in 0..rows {
        let c = rng.gen_range(0..centers);
        for j in 0..dim {
            let noise = rng.gen_range(-100..100) as f64 / 1000.0;
            data[r * dim + j] = cdata[c * dim + j] + noise;
        }
    }
    data
}

fn query_vec(seed: u64, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dim)
        .map(|_| rng.gen_range(-1000..1000) as f64 / 100.0)
        .collect()
}

/// Wrap raw row-major data as a published snapshot (σ = 1 so the left
/// embedding is the data verbatim): the row norms are computed at
/// construction, exactly like a real publish.
fn snapshot_of(data: &[f64], rows: usize, dim: usize) -> EpochSnapshot {
    let mut u = DenseMatrix::zeros(rows, dim);
    for r in 0..rows {
        u.row_mut(r).copy_from_slice(&data[r * dim..(r + 1) * dim]);
    }
    let emb = Embedding {
        u,
        sigma: vec![1.0; dim],
        dim,
    };
    let sources: Vec<u32> = (0..rows as u32).collect();
    let index: HashMap<u32, usize> = sources.iter().map(|&n| (n, n as usize)).collect();
    EpochSnapshot::new(
        emb.tagged(0),
        Arc::new(sources),
        Arc::new(index),
        0,
        PipelineTimings::default(),
    )
}

fn main() {
    let mut h = BenchHarness::from_args("query");

    let ns = [4096usize, 16384, 65536];
    let dims = [8usize, 32];
    let ks = [10usize, 100];
    h.record_param(
        "rows_grid",
        ns.iter().map(|&n| n as u64).collect::<Vec<u64>>(),
    );
    h.record_param(
        "dim_grid",
        dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
    );
    h.record_param("k_grid", ks.iter().map(|&k| k as u64).collect::<Vec<u64>>());

    // ── Kernel level: naive reference vs blocked scan ────────────────
    for &n in &ns {
        for &d in &dims {
            let data = clustered_data(n as u64 ^ (d as u64) << 7, n, d);
            let q = query_vec(0xBEEF ^ d as u64, d);
            for &k in &ks {
                h.bench(&format!("naive/n{n}/d{d}/k{k}"), || {
                    black_box(topk_scan_naive(
                        black_box(&data),
                        n,
                        d,
                        black_box(&q),
                        k,
                        None,
                        1.0,
                        None,
                    ))
                });
                let mut scratch = ScanScratch::new();
                let mut out: Vec<Hit> = Vec::new();
                h.bench(&format!("blocked/n{n}/d{d}/k{k}"), || {
                    topk_scan(
                        black_box(&data),
                        n,
                        d,
                        black_box(&q),
                        k,
                        None,
                        1.0,
                        None,
                        &mut scratch,
                        &mut out,
                    );
                    black_box(out.len())
                });
            }
        }
    }

    // ── Serving shape: one batch of m queries vs m single scans ──────
    let (d, k) = (64usize, 10usize);
    let ms = [1usize, 16];
    h.record_param(
        "batch_m_grid",
        ms.iter().map(|&m| m as u64).collect::<Vec<u64>>(),
    );
    for n in [300usize, 600] {
        let data = clustered_data(n as u64 ^ 0xBA7C, n, d);
        // Node queries, as a pipelined run sends them: rows of the matrix.
        let probes: Vec<usize> = (0..16).map(|i| (i * 37 + 5) % n).collect();
        for &m in &ms {
            let queries: Vec<ScanQuery> = probes[..m]
                .iter()
                .map(|&r| ScanQuery {
                    q: &data[r * d..(r + 1) * d],
                    k,
                    exclude: Some(r as u32),
                    q_scale: 1.0,
                    row_scale: None,
                })
                .collect();
            let mut scratch = ScanScratch::new();
            let mut outs: Vec<Vec<Hit>> = vec![Vec::new(); m];
            h.bench(&format!("scan_batch/n{n}/d{d}/k{k}/m{m}"), || {
                topk_scan_batch(black_box(&data), n, d, &queries, &mut scratch, &mut outs);
                black_box(outs.len())
            });
            let mut out: Vec<Hit> = Vec::new();
            h.bench(&format!("scan_singles/n{n}/d{d}/k{k}/m{m}"), || {
                for query in &queries {
                    topk_scan(
                        black_box(&data),
                        n,
                        d,
                        query.q,
                        k,
                        query.exclude,
                        1.0,
                        None,
                        &mut scratch,
                        &mut out,
                    );
                    black_box(out.len());
                }
            });
        }
    }

    // ── Zero-allocation assertion on the kernel, single and batch ────
    // Warm the scratch once, then count allocations across real queries:
    // the steady state must not touch the allocator at all.
    {
        let (n, d, k) = (16384usize, 32usize, 100usize);
        let data = clustered_data(7, n, d);
        let q = query_vec(11, d);
        let mut scratch = ScanScratch::new();
        let mut out: Vec<Hit> = Vec::new();
        topk_scan(&data, n, d, &q, k, None, 1.0, None, &mut scratch, &mut out);
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..16 {
            topk_scan(
                &data,
                n,
                d,
                &q,
                k,
                Some(3),
                1.0,
                None,
                &mut scratch,
                &mut out,
            );
            black_box(out.len());
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "scan kernel allocated {allocs} times across 16 warm queries"
        );
        h.record_param("scan_allocs_per_warm_query", 0u64);

        // Eleven queries: one full lane group and a three-query tail.
        let vectors: Vec<Vec<f64>> = (0..11).map(|i| query_vec(20 + i, d)).collect();
        let queries: Vec<ScanQuery> = vectors
            .iter()
            .enumerate()
            .map(|(i, q)| ScanQuery {
                q,
                k: k + i,
                exclude: Some(i as u32),
                q_scale: 1.0,
                row_scale: None,
            })
            .collect();
        let mut outs: Vec<Vec<Hit>> = vec![Vec::new(); queries.len()];
        topk_scan_batch(&data, n, d, &queries, &mut scratch, &mut outs);
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..16 {
            topk_scan_batch(&data, n, d, &queries, &mut scratch, &mut outs);
            black_box(outs.len());
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "batch scan kernel allocated {allocs} times across 16 warm batches"
        );
        h.record_param("batch_allocs_per_warm_call", 0u64);
    }

    // ── Snapshot level: the published-snapshot path queries serve from ─
    for &n in &ns {
        for &d in &dims {
            let data = clustered_data(n as u64 ^ (d as u64) << 7, n, d);
            let snap = snapshot_of(&data, n, d);
            let probe = (n / 3) as u32;
            for &k in &ks {
                h.bench(&format!("snap_top_k/n{n}/d{d}/k{k}"), || {
                    black_box(snap.top_k(black_box(probe), k, Metric::Dot))
                });
            }
        }
    }

    h.finish();
}
