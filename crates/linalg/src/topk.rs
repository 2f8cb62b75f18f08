//! Top-k similarity scan over a row-major matrix, one query or many.
//!
//! The serving layer's query kernel: given query vectors and a row-major
//! matrix (the live embedding), find for each query the `k` rows with the
//! largest dot/cosine score. A batch of queries is scored up to eight at a
//! time: the queries are packed `j`-major and each row is loaded once per
//! group, so the eight independent dot products of a row vectorise across
//! queries. A group of fewer than four queries runs each query through a
//! four-rows-per-pass body instead (four independent accumulators; `q` is
//! streamed once per four rows), so a lone query pays for no idle lanes.
//! Candidates feed a fixed-size binary min-heap per query whose root is the
//! *worst* kept hit, so each row costs one comparison in the common case.
//!
//! Determinism is a hard contract, matching the rest of the system: **one
//! sequential kernel, and a batch is bitwise its singles.**
//!
//! * each row's dot product is reduced **sequentially** over `j` from
//!   `0.0`, in either body — so every score is bitwise equal to the naive
//!   per-row loop of [`topk_scan_naive`], whichever group a query lands in
//!   and whatever else shares its call;
//! * the total order on hits is `score` descending ([`f64::total_cmp`])
//!   with ties broken by **ascending row**, so the kept set (and its
//!   sorted output order) is unique regardless of offer order;
//! * the scan runs on the calling thread, never on the shared pool, so
//!   nothing depends on `TSVD_THREADS`.
//!
//! Cosine is expressed as scaling: `score = (dot * q_scale) *
//! row_scale[row]` with precomputed inverse norms (see
//! `tsvd-serve`'s query layer). That parenthesisation is canonical — every
//! caller must use the same one for bitwise agreement.

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

/// Hits a drained [`TopK`] keeps room for (64 KiB): a scratch holds one
/// heap per query of its largest batch, for as long as its thread lives.
const RETAINED_HITS: usize = 4096;

/// Fixed-capacity top-k accumulator: a binary min-heap (under [`better`])
/// whose root is the worst kept hit. `offer` is O(1) for rows that do not
/// make the cut and O(log k) otherwise; no allocation after the first
/// [`reset`](TopK::reset) at a given `k` of at most 4 096.
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

    /// Write the kept hits into `out`, best first, clearing the heap.
    /// `out` is cleared first (reused across queries without allocating).
    /// The heap keeps at most 4 096 hits of buffer, so a scratch that
    /// once served a huge `k` does not pin it for its lifetime.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Hit>) {
        out.clear();
        out.extend_from_slice(&self.heap);
        out.sort_unstable_by(cmp_hits);
        self.heap.clear();
        self.heap.shrink_to(RETAINED_HITS);
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

/// Queries one lane pass of [`topk_scan_batch`] scores per row load.
const LANES: usize = 8;

/// The smallest group the lane pass takes; a smaller one runs each query
/// through the four-rows-per-pass body instead, so a lone query (or two,
/// or three) pays for no idle lanes.
const MIN_LANE_GROUP: usize = 4;

/// One query of a [`topk_scan_batch`] call: the vector, how many hits to
/// keep, a row to skip, and the cosine scaling (`q_scale = 1.0`,
/// `row_scale = None` for a plain dot product — see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ScanQuery<'a> {
    pub q: &'a [f64],
    pub k: usize,
    pub exclude: Option<u32>,
    pub q_scale: f64,
    pub row_scale: Option<&'a [f64]>,
}

impl ScanQuery<'_> {
    /// Score `dot` for `row` and offer it to `topk`, unless `row` is the
    /// excluded one.
    #[inline(always)]
    fn offer(&self, topk: &mut TopK, row: usize, dot: f64) {
        let row = row as u32;
        if self.exclude == Some(row) {
            return;
        }
        let score = match self.row_scale {
            // Canonical parenthesisation — see module docs.
            Some(rs) => (dot * self.q_scale) * rs[row as usize],
            None => dot,
        };
        topk.offer(score, row);
    }
}

/// Reusable workspace for [`topk_scan`] and [`topk_scan_batch`]: one heap
/// per query and the packed query block of a lane pass. Steady-state
/// calls at a fixed `(rows, dim, k…)` allocate nothing.
#[derive(Debug, Default)]
pub struct ScanScratch {
    heaps: Vec<TopK>,
    packed: Vec<[f64; LANES]>,
}

impl ScanScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scan every row of `data` (row-major, `dim` columns) for one query.
/// Four rows per pass with independent accumulators; each row's reduction
/// is sequential over `j` from `0.0` (bitwise equal to the naive dot).
fn scan_one(data: &[f64], rows: usize, dim: usize, query: &ScanQuery<'_>, topk: &mut TopK) {
    let q = query.q;
    let mut r = 0;
    while r + 4 <= rows {
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
        query.offer(topk, r, a0);
        query.offer(topk, r + 1, a1);
        query.offer(topk, r + 2, a2);
        query.offer(topk, r + 3, a3);
        r += 4;
    }
    while r < rows {
        let row = &data[r * dim..(r + 1) * dim];
        let mut acc = 0.0f64;
        for j in 0..dim {
            acc += q[j] * row[j];
        }
        query.offer(topk, r, acc);
        r += 1;
    }
}

/// Scan every row of `data` for up to [`LANES`] queries at once, loading
/// each row once. `packed[j][i]` is `queries[i].q[j]` (zero in unused
/// lanes). Lane `i` still reduces its dot sequentially over `j` from
/// `0.0`, so every score is bitwise what [`scan_one`] computes; the lanes
/// are independent, so the `j` step vectorises across them.
fn scan_lanes(
    data: &[f64],
    rows: usize,
    dim: usize,
    packed: &[[f64; LANES]],
    queries: &[ScanQuery<'_>],
    heaps: &mut [TopK],
) {
    for r in 0..rows {
        let row = &data[r * dim..(r + 1) * dim];
        let mut acc = [0.0f64; LANES];
        for (&x, qj) in row.iter().zip(packed) {
            for i in 0..LANES {
                acc[i] += qj[i] * x;
            }
        }
        for ((query, topk), &dot) in queries.iter().zip(heaps.iter_mut()).zip(&acc) {
            query.offer(topk, r, dot);
        }
    }
}

/// Top-k scan of many queries over the whole matrix (see module docs):
/// `outs[i]` receives the hits of `queries[i]`, best first, bitwise the
/// [`topk_scan`] answer of that query alone and [`topk_scan_naive`]'s.
/// Queries are scored eight at a time, one row load per group; a group
/// under four queries scans one query at a time.
///
/// `k` comes off the wire (≤ 2^20) and `scratch` lives as long as its
/// thread, so each heap is sized by the rows it can be offered
/// (`k.min(rows)`), not by `k`: a heap with room for every row keeps them
/// all, so the hits are unchanged.
pub fn topk_scan_batch(
    data: &[f64],
    rows: usize,
    dim: usize,
    queries: &[ScanQuery<'_>],
    scratch: &mut ScanScratch,
    outs: &mut [Vec<Hit>],
) {
    assert_eq!(data.len(), rows * dim, "data/rows/dim mismatch");
    assert_eq!(outs.len(), queries.len(), "one output per query");
    for query in queries {
        assert_eq!(query.q.len(), dim, "query dimension mismatch");
        if let Some(rs) = query.row_scale {
            assert_eq!(rs.len(), rows, "row_scale length mismatch");
        }
    }
    let ScanScratch { heaps, packed } = scratch;
    if heaps.len() < queries.len() {
        heaps.resize_with(queries.len(), || TopK::new(0));
    }
    let heaps = &mut heaps[..queries.len()];
    for (heap, query) in heaps.iter_mut().zip(queries) {
        heap.reset(query.k.min(rows));
    }
    for (group, group_heaps) in queries.chunks(LANES).zip(heaps.chunks_mut(LANES)) {
        if group.len() < MIN_LANE_GROUP {
            for (query, heap) in group.iter().zip(group_heaps.iter_mut()) {
                if query.k > 0 {
                    scan_one(data, rows, dim, query, heap);
                }
            }
            continue;
        }
        packed.clear();
        packed.extend((0..dim).map(|j| {
            let mut lanes = [0.0f64; LANES];
            for (lane, query) in lanes.iter_mut().zip(group) {
                *lane = query.q[j];
            }
            lanes
        }));
        scan_lanes(data, rows, dim, packed, group, group_heaps);
    }
    for (heap, out) in heaps.iter_mut().zip(outs.iter_mut()) {
        heap.drain_sorted_into(out);
    }
}

/// One query: the batch of one ([`topk_scan_batch`]). `q_scale` /
/// `row_scale` implement cosine scoring (`None` = plain dot product).
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
    let query = ScanQuery {
        q,
        k,
        exclude,
        q_scale,
        row_scale,
    };
    topk_scan_batch(
        data,
        rows,
        dim,
        std::slice::from_ref(&query),
        scratch,
        std::slice::from_mut(out),
    );
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
            // `fold` from `0.0`, not `sum()`: the std float sum starts
            // from `-0.0`, which differs when every product is `-0.0`.
            let dot = q.iter().zip(row).fold(0.0f64, |acc, (a, b)| acc + a * b);
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

    fn bits(hits: &[Hit]) -> Vec<(u32, u64)> {
        hits.iter().map(|h| (h.row, h.score.to_bits())).collect()
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
            (130, 8, 10),
            (700, 64, 16),
            (513, 7, 8), // odd dim, odd rows
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
    /// rows it can be offered — alone and in a lane group.
    #[test]
    fn oversized_k_is_clamped_to_the_rows_on_offer() {
        let rows = 100;
        let dim = 128;
        let (data, q) = random_data(41, rows, dim);
        let want = topk_scan_naive(&data, rows, dim, &q, rows, Some(7), 1.0, None);
        assert_eq!(want.len(), rows - 1);
        for m in [1, LANES] {
            let query = ScanQuery {
                q: &q,
                k: 1 << 20,
                exclude: Some(7),
                q_scale: 1.0,
                row_scale: None,
            };
            let queries = vec![query; m];
            let mut scratch = ScanScratch::new();
            let mut outs = vec![Vec::new(); m];
            topk_scan_batch(&data, rows, dim, &queries, &mut scratch, &mut outs);
            for got in &outs {
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!((a.row, a.score.to_bits()), (b.row, b.score.to_bits()));
                }
            }
            for heap in &scratch.heaps {
                assert!(heap.heap.capacity() <= rows);
            }
        }
    }

    /// A batch of queries that kept every row of a matrix larger than
    /// [`RETAINED_HITS`] leaves no heap holding room for all of them.
    #[test]
    fn a_drained_scratch_retains_bounded_heaps() {
        let (rows, dim) = (RETAINED_HITS + 100, 2);
        let (data, q) = random_data(43, rows, dim);
        let query = ScanQuery {
            q: &q,
            k: rows,
            exclude: None,
            q_scale: 1.0,
            row_scale: None,
        };
        let mut scratch = ScanScratch::new();
        let mut outs = vec![Vec::new(); LANES];
        topk_scan_batch(&data, rows, dim, &[query; LANES], &mut scratch, &mut outs);
        assert!(outs.iter().all(|out| out.len() == rows));
        for heap in &scratch.heaps {
            assert!(heap.heap.capacity() <= RETAINED_HITS);
        }
    }

    /// Every group shape — lone queries, a short tail, a padded lane
    /// group, two full groups and a tail — answers each query exactly as
    /// it is answered alone, with the scratch reused across calls.
    #[test]
    fn a_batch_is_bitwise_its_singles_at_every_group_shape() {
        let (rows, dim) = (203, 13);
        let (data, _) = random_data(5, rows, dim);
        let vectors: Vec<Vec<f64>> = (0..19).map(|i| random_data(100 + i, 0, dim).1).collect();
        let mut scratch = ScanScratch::new();
        let mut single = Vec::new();
        for m in [1, 2, 3, 4, 5, 8, 9, 11, 12, 16, 19] {
            let queries: Vec<ScanQuery> = vectors[..m]
                .iter()
                .enumerate()
                .map(|(i, q)| ScanQuery {
                    q,
                    k: [0, 1, 10, rows + 1][i % 4],
                    exclude: Some(i as u32),
                    q_scale: 1.0,
                    row_scale: None,
                })
                .collect();
            let mut outs = vec![Vec::new(); m];
            topk_scan_batch(&data, rows, dim, &queries, &mut scratch, &mut outs);
            for (query, got) in queries.iter().zip(&outs) {
                let mut alone = ScanScratch::new();
                topk_scan(
                    &data,
                    rows,
                    dim,
                    query.q,
                    query.k,
                    query.exclude,
                    1.0,
                    None,
                    &mut alone,
                    &mut single,
                );
                assert_eq!(bits(got), bits(&single), "m = {m}");
                assert_eq!(got.len(), query.k.min(rows - 1));
            }
        }
    }
}
