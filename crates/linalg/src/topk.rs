//! Cache-blocked top-k similarity scan over a row-major matrix.
//!
//! The serving layer's query kernel: given a query vector `q` and a
//! row-major matrix (the live embedding), find the `k` rows with the
//! largest dot/cosine score. The matrix is walked in **panels** of rows
//! sized so a panel plus the query stays inside L1/L2, and inside each
//! panel four rows are accumulated per pass with four independent
//! accumulators (FMA-friendly instruction-level parallelism; `q` is
//! streamed once per four rows instead of once per row). Candidates feed a
//! fixed-size binary min-heap whose root is the *worst* kept hit, so each
//! row costs one comparison in the common case.
//!
//! Determinism is a hard contract, matching the rest of the system:
//!
//! * each row's dot product is reduced **sequentially** over `j` — never
//!   split across threads — so every score is bitwise equal to the naive
//!   `q.iter().zip(row).map(|(a, b)| a * b).sum()`;
//! * the total order on hits is `score` descending ([`f64::total_cmp`])
//!   with ties broken by **ascending row**, so the kept set (and its
//!   sorted output order) is unique regardless of offer order;
//! * the panel split depends only on `dim`, never on the thread count, and
//!   panels merge through the same total order — results are identical at
//!   any `TSVD_THREADS`.
//!
//! Cosine is expressed as scaling: `score = (dot * q_scale) *
//! row_scale[row]` with precomputed inverse norms (see
//! `tsvd-serve`'s query layer). That parenthesisation is canonical — every
//! caller must use the same one for bitwise agreement.

use tsvd_rt::pool;

/// One scored candidate row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Row index in the scanned matrix.
    pub row: u32,
    /// Similarity score (dot product, optionally scaled).
    pub score: f64,
}

/// The canonical strict total order on hits: is `(a_score, a_row)` a
/// strictly better hit than `(b_score, b_row)`? Higher score wins;
/// [`f64::total_cmp`] keeps NaN/±0 deterministic; ties go to the lower
/// row index.
#[inline]
pub fn better(a_score: f64, a_row: u32, b_score: f64, b_row: u32) -> bool {
    match a_score.total_cmp(&b_score) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a_row < b_row,
    }
}

/// Comparator form of [`better`]: best hits first.
#[inline]
pub fn cmp_hits(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.row.cmp(&b.row))
}

/// Fixed-capacity top-k accumulator: a binary min-heap (under [`better`])
/// whose root is the worst kept hit. `offer` is O(1) for rows that do not
/// make the cut and O(log k) otherwise; no allocation after the first
/// [`reset`](TopK::reset) at a given `k`.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: Vec<Hit>,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: Vec::with_capacity(k),
        }
    }

    /// Clear kept hits and set the capacity to `k`, reusing the buffer.
    pub fn reset(&mut self, k: usize) {
        self.heap.clear();
        // Exact, so a reused buffer never holds more than the largest `k`
        // it was ever reset to (`reserve` may round up).
        self.heap.reserve_exact(k);
        self.k = k;
    }

    /// Offer one candidate; keeps it iff it beats the current worst (or
    /// the heap is still filling).
    #[inline]
    pub fn offer(&mut self, score: f64, row: u32) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Hit { row, score });
            self.sift_up(self.heap.len() - 1);
        } else {
            let root = self.heap[0];
            if better(score, row, root.score, root.row) {
                self.heap[0] = Hit { row, score };
                self.sift_down(0);
            }
        }
    }

    /// Offer every hit kept by `other` (panel → global merge).
    pub fn merge_from(&mut self, other: &TopK) {
        for h in &other.heap {
            self.offer(h.score, h.row);
        }
    }

    /// Write the kept hits into `out`, best first, clearing the heap.
    /// `out` is cleared first (reused across queries without allocating).
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Hit>) {
        out.clear();
        out.extend_from_slice(&self.heap);
        out.sort_unstable_by(cmp_hits);
        self.heap.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let p = (i - 1) / 2;
            let (n, pa) = (self.heap[i], self.heap[p]);
            // Parent must be the worse one; swap while it is better.
            if better(pa.score, pa.row, n.score, n.row) {
                self.heap.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut w = i;
            if l < n
                && better(
                    self.heap[w].score,
                    self.heap[w].row,
                    self.heap[l].score,
                    self.heap[l].row,
                )
            {
                w = l;
            }
            if r < n
                && better(
                    self.heap[w].score,
                    self.heap[w].row,
                    self.heap[r].score,
                    self.heap[r].row,
                )
            {
                w = r;
            }
            if w == i {
                break;
            }
            self.heap.swap(i, w);
            i = w;
        }
    }
}

/// Rows per panel: target ~32 KiB of matrix data per panel (half a typical
/// L1d), multiple of 4 for the unrolled inner loop, clamped to `[4, 512]`.
/// Depends only on `dim` — never on the thread count.
pub fn panel_rows(dim: usize) -> usize {
    let raw = (32 * 1024) / (8 * dim.max(1));
    let raw = raw.clamp(4, 512);
    (raw - raw % 4).max(4)
}

/// One panel's work slot: its row range plus a private heap, so the
/// parallel scan writes only disjoint state.
#[derive(Debug)]
struct PanelTask {
    lo: usize,
    hi: usize,
    topk: TopK,
}

/// Reusable workspace for [`topk_scan`]: per-panel heaps, the global merge
/// heap. Steady-state queries at a fixed `(rows, dim, k)` allocate
/// nothing.
#[derive(Debug)]
pub struct ScanScratch {
    panels: Vec<PanelTask>,
    global: TopK,
    /// Force the single-threaded path (no pool dispatch, no per-panel
    /// state): used by the bench-side allocation counter to assert the
    /// kernel proper is allocation-free, and by anyone wanting the scan
    /// off the shared pool.
    pub serial: bool,
}

impl Default for ScanScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanScratch {
    pub fn new() -> Self {
        ScanScratch {
            panels: Vec::new(),
            global: TopK::new(0),
            serial: false,
        }
    }
}

/// Scan rows `lo..hi` of `data` (row-major, `dim` columns), offering every
/// row except `exclude` to `topk`. Four rows per pass with independent
/// accumulators; each row's reduction is sequential over `j` (bitwise
/// equal to the naive dot).
#[allow(clippy::too_many_arguments)]
fn scan_range(
    data: &[f64],
    dim: usize,
    lo: usize,
    hi: usize,
    q: &[f64],
    exclude: Option<u32>,
    q_scale: f64,
    row_scale: Option<&[f64]>,
    topk: &mut TopK,
) {
    #[inline]
    fn offer(
        topk: &mut TopK,
        row: usize,
        dot: f64,
        exclude: Option<u32>,
        q_scale: f64,
        row_scale: Option<&[f64]>,
    ) {
        let row = row as u32;
        if exclude == Some(row) {
            return;
        }
        let score = match row_scale {
            // Canonical parenthesisation — see module docs.
            Some(rs) => (dot * q_scale) * rs[row as usize],
            None => dot,
        };
        topk.offer(score, row);
    }

    let mut r = lo;
    while r + 4 <= hi {
        let base = r * dim;
        let r0 = &data[base..base + dim];
        let r1 = &data[base + dim..base + 2 * dim];
        let r2 = &data[base + 2 * dim..base + 3 * dim];
        let r3 = &data[base + 3 * dim..base + 4 * dim];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for j in 0..dim {
            let qj = q[j];
            a0 += qj * r0[j];
            a1 += qj * r1[j];
            a2 += qj * r2[j];
            a3 += qj * r3[j];
        }
        offer(topk, r, a0, exclude, q_scale, row_scale);
        offer(topk, r + 1, a1, exclude, q_scale, row_scale);
        offer(topk, r + 2, a2, exclude, q_scale, row_scale);
        offer(topk, r + 3, a3, exclude, q_scale, row_scale);
        r += 4;
    }
    while r < hi {
        let row = &data[r * dim..(r + 1) * dim];
        let mut acc = 0.0f64;
        for j in 0..dim {
            acc += q[j] * row[j];
        }
        offer(topk, r, acc, exclude, q_scale, row_scale);
        r += 1;
    }
}

/// Blocked top-k scan over the whole matrix (see module docs). Results are
/// written into `out`, best hit first, bitwise identical at any thread
/// count and to [`topk_scan_naive`]. `q_scale`/`row_scale` implement
/// cosine scoring (`None` = plain dot product).
///
/// `k` comes off the wire (≤ 2^20) and `scratch` lives as long as its
/// thread, so heaps are sized by the rows they can be offered (`k.min(rows)`
/// to merge, `k.min(hi − lo)` per panel), not by `k`: a heap with room for
/// every row it is offered keeps them all, so the hits are unchanged.
#[allow(clippy::too_many_arguments)]
pub fn topk_scan(
    data: &[f64],
    rows: usize,
    dim: usize,
    q: &[f64],
    k: usize,
    exclude: Option<u32>,
    q_scale: f64,
    row_scale: Option<&[f64]>,
    scratch: &mut ScanScratch,
    out: &mut Vec<Hit>,
) {
    assert_eq!(data.len(), rows * dim, "data/rows/dim mismatch");
    assert_eq!(q.len(), dim, "query dimension mismatch");
    if let Some(rs) = row_scale {
        assert_eq!(rs.len(), rows, "row_scale length mismatch");
    }
    let pr = panel_rows(dim);
    let npanels = rows.div_ceil(pr).max(1);
    if scratch.serial || npanels == 1 || pool::num_threads() <= 1 {
        scratch.global.reset(k.min(rows));
        scan_range(
            data,
            dim,
            0,
            rows,
            q,
            exclude,
            q_scale,
            row_scale,
            &mut scratch.global,
        );
        scratch.global.drain_sorted_into(out);
        return;
    }
    // Panel slots carry their own row range so the parallel body needs no
    // index; heaps are reset serially (cheap) and reused across queries.
    scratch.panels.truncate(npanels);
    while scratch.panels.len() < npanels {
        scratch.panels.push(PanelTask {
            lo: 0,
            hi: 0,
            topk: TopK::new(0),
        });
    }
    for (p, t) in scratch.panels.iter_mut().enumerate() {
        t.lo = p * pr;
        t.hi = ((p + 1) * pr).min(rows);
        t.topk.reset(k.min(t.hi - t.lo));
    }
    let ScanScratch { panels, global, .. } = scratch;
    pool::par_for_each_mut(panels, |t| {
        scan_range(
            data,
            dim,
            t.lo,
            t.hi,
            q,
            exclude,
            q_scale,
            row_scale,
            &mut t.topk,
        );
    });
    global.reset(k.min(rows));
    for t in panels.iter() {
        global.merge_from(&t.topk);
    }
    global.drain_sorted_into(out);
}

/// The naive reference: score every row with a plain per-row dot loop,
/// sort everything, truncate. This is the baseline the blocked kernel is
/// benchmarked against and the oracle the equivalence tests compare to.
#[allow(clippy::too_many_arguments)]
pub fn topk_scan_naive(
    data: &[f64],
    rows: usize,
    dim: usize,
    q: &[f64],
    k: usize,
    exclude: Option<u32>,
    q_scale: f64,
    row_scale: Option<&[f64]>,
) -> Vec<Hit> {
    let mut hits: Vec<Hit> = (0..rows)
        .filter(|&r| exclude != Some(r as u32))
        .map(|r| {
            let row = &data[r * dim..(r + 1) * dim];
            let dot: f64 = q.iter().zip(row).map(|(a, b)| a * b).sum();
            let score = match row_scale {
                Some(rs) => (dot * q_scale) * rs[r],
                None => dot,
            };
            Hit {
                row: r as u32,
                score,
            }
        })
        .collect();
    hits.sort_unstable_by(cmp_hits);
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

    fn random_data(seed: u64, rows: usize, dim: usize) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * dim)
            .map(|_| rng.gen_range(-1000..1000) as f64 / 97.0)
            .collect();
        let q: Vec<f64> = (0..dim)
            .map(|_| rng.gen_range(-1000..1000) as f64 / 97.0)
            .collect();
        (data, q)
    }

    #[test]
    fn heap_keeps_true_top_k_with_row_tie_break() {
        let mut tk = TopK::new(3);
        tk.reset(3);
        // Two ties at 5.0: rows 7 and 2 — row 2 must win over row 7.
        for &(score, row) in &[
            (1.0, 0u32),
            (5.0, 7),
            (3.0, 4),
            (5.0, 2),
            (2.0, 9),
            (4.0, 1),
        ] {
            tk.offer(score, row);
        }
        let mut out = Vec::new();
        tk.drain_sorted_into(&mut out);
        assert_eq!(
            out,
            vec![
                Hit { row: 2, score: 5.0 },
                Hit { row: 7, score: 5.0 },
                Hit { row: 1, score: 4.0 },
            ]
        );
    }

    #[test]
    fn heap_k_zero_and_short_input() {
        let mut tk = TopK::new(0);
        tk.offer(1.0, 0);
        assert!(tk.heap.is_empty());
        let mut tk = TopK::new(10);
        tk.offer(1.0, 3);
        tk.offer(2.0, 1);
        let mut out = Vec::new();
        tk.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].row, 1);
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_shapes() {
        let mut scratch = ScanScratch::new();
        let mut out = Vec::new();
        for &(rows, dim, k) in &[
            (1usize, 3usize, 1usize),
            (5, 4, 3),
            (37, 8, 5),
            (130, 8, 10),  // crosses panel boundaries (panel_rows(8)=512 → clamp)
            (700, 64, 16), // multiple panels at dim 64
            (513, 7, 8),   // odd dim, odd rows
        ] {
            let (data, q) = random_data(rows as u64 * 31 + dim as u64, rows, dim);
            for exclude in [None, Some(0u32), Some((rows - 1) as u32)] {
                let naive = topk_scan_naive(&data, rows, dim, &q, k, exclude, 1.0, None);
                topk_scan(
                    &data,
                    rows,
                    dim,
                    &q,
                    k,
                    exclude,
                    1.0,
                    None,
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(out.len(), naive.len());
                for (a, b) in out.iter().zip(&naive) {
                    assert_eq!(a.row, b.row, "rows={rows} dim={dim} exclude={exclude:?}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn serial_flag_matches_parallel_path_bitwise() {
        let rows = 800;
        let dim = 32;
        let (data, q) = random_data(9, rows, dim);
        let mut s1 = ScanScratch::new();
        let mut s2 = ScanScratch::new();
        s2.serial = true;
        let mut o1 = Vec::new();
        let mut o2 = Vec::new();
        topk_scan(
            &data,
            rows,
            dim,
            &q,
            12,
            Some(5),
            1.0,
            None,
            &mut s1,
            &mut o1,
        );
        topk_scan(
            &data,
            rows,
            dim,
            &q,
            12,
            Some(5),
            1.0,
            None,
            &mut s2,
            &mut o2,
        );
        assert_eq!(o1.len(), o2.len());
        for (a, b) in o1.iter().zip(&o2) {
            assert_eq!((a.row, a.score.to_bits()), (b.row, b.score.to_bits()));
        }
    }

    #[test]
    fn cosine_scaling_matches_naive() {
        let rows = 300;
        let dim = 16;
        let (data, q) = random_data(17, rows, dim);
        let row_scale: Vec<f64> = (0..rows)
            .map(|r| {
                let row = &data[r * dim..(r + 1) * dim];
                let n: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
                if n == 0.0 {
                    0.0
                } else {
                    1.0 / n
                }
            })
            .collect();
        let qn: f64 = q.iter().map(|v| v * v).sum::<f64>().sqrt();
        let q_scale = 1.0 / qn;
        let naive = topk_scan_naive(&data, rows, dim, &q, 7, None, q_scale, Some(&row_scale));
        let mut scratch = ScanScratch::new();
        let mut out = Vec::new();
        topk_scan(
            &data,
            rows,
            dim,
            &q,
            7,
            None,
            q_scale,
            Some(&row_scale),
            &mut scratch,
            &mut out,
        );
        for (a, b) in out.iter().zip(&naive) {
            assert_eq!((a.row, a.score.to_bits()), (b.row, b.score.to_bits()));
            assert!(a.score.abs() <= 1.0 + 1e-12, "cosine out of range");
        }
    }

    /// A wire-sized `k` over a small matrix: same hits as `k = rows`, and
    /// no heap of the (thread-lifetime) scratch reserves more than the
    /// rows it can be offered — on the serial path and on the panel path.
    #[test]
    fn oversized_k_is_clamped_to_the_rows_on_offer() {
        let rows = 100;
        let dim = 128; // panel_rows(128) = 32 → four panels
        let (data, q) = random_data(41, rows, dim);
        let want = topk_scan_naive(&data, rows, dim, &q, rows, Some(7), 1.0, None);
        assert_eq!(want.len(), rows - 1);
        for serial in [true, false] {
            let mut scratch = ScanScratch::new();
            scratch.serial = serial;
            let mut got = Vec::new();
            topk_scan(
                &data,
                rows,
                dim,
                &q,
                1 << 20,
                Some(7),
                1.0,
                None,
                &mut scratch,
                &mut got,
            );
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!((a.row, a.score.to_bits()), (b.row, b.score.to_bits()));
            }
            assert!(scratch.global.heap.capacity() <= rows);
            for t in &scratch.panels {
                assert!(t.topk.heap.capacity() <= t.hi - t.lo);
            }
        }
    }

    #[test]
    fn panel_rows_is_bounded_and_aligned() {
        for dim in [1, 4, 8, 16, 64, 128, 1024, 100_000] {
            let pr = panel_rows(dim);
            assert!((4..=512).contains(&pr));
            assert_eq!(pr % 4, 0);
        }
    }
}
