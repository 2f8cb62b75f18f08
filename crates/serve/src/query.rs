//! Top-k similarity over one published epoch: the [`Metric`], the per-row
//! norm cache, and the single query path.
//!
//! Every [`EpochSnapshot`](crate::EpochSnapshot) carries a `QueryState`:
//! the L2 norm and inverse norm of every embedding row, computed from
//! scratch when the snapshot is assembled (|S|·d multiply-adds) — never
//! per query, and never carried over from the previous epoch, so publish
//! is told nothing, remembers nothing and compares nothing. A cosine query
//! is then a scaled dot product with zero per-query norm work.
//!
//! Queries run the batch scan `tsvd_linalg::topk::topk_scan_batch` over
//! the whole matrix — the one top-k path: a lone query is a batch of one,
//! and the network front answers a pipelined run of `TopK` requests as one
//! batch from one snapshot. Its determinism contract — **one sequential
//! kernel; a batch is bitwise its singles** (each score bitwise the naive
//! sequential dot, hits ordered by score descending under `total_cmp` with
//! ties to the ascending row, the same answer alone or in any batch, at
//! any thread count) — is therefore the contract of every `TopKReply`:
//! in-process, over the wire, merged by the router, served by a follower.

use tsvd_core::TaggedEmbedding;
use tsvd_linalg::topk::{topk_scan_batch, Hit, ScanQuery, ScanScratch};
use tsvd_rt::bin::{BinError, Cursor, Decode, Encode};

/// Similarity metric of a top-k query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Plain dot product `q · x`.
    Dot,
    /// Cosine similarity `q · x / (‖q‖·‖x‖)`; zero-norm rows score 0.
    Cosine,
}

/// One byte on the wire: 0 = dot, 1 = cosine.
impl Encode for Metric {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Metric::Dot => 0,
            Metric::Cosine => 1,
        });
    }
}

impl Decode for Metric {
    const MIN_BYTES: usize = 1;
    fn decode(c: &mut Cursor<'_>) -> Result<Metric, BinError> {
        match u8::decode(c)? {
            0 => Ok(Metric::Dot),
            1 => Ok(Metric::Cosine),
            _ => Err(BinError("bad metric byte".into())),
        }
    }
}

/// The canonical inverse-norm: `1/‖v‖` with the sum of squares reduced
/// sequentially, `0.0` for the zero vector. Every caller (norm cache
/// build, ad-hoc query vectors, remote shards scoring a router-provided
/// vector) must use this exact function so cosine scores agree bitwise
/// across read paths.
pub(crate) fn inv_norm_of(v: &[f64]) -> f64 {
    inv_or_zero(norm_of(v))
}

fn inv_or_zero(norm: f64) -> f64 {
    if norm == 0.0 {
        0.0
    } else {
        1.0 / norm
    }
}

/// Sequential-sum L2 norm.
fn norm_of(v: &[f64]) -> f64 {
    let mut s = 0.0f64;
    for &x in v {
        s += x * x;
    }
    s.sqrt()
}

/// Immutable per-epoch query state (module docs): the cached row norms.
pub(crate) struct QueryState {
    norms: Vec<f64>,
    inv_norms: Vec<f64>,
}

impl QueryState {
    /// Norms of every row of `tagged`, by the same two functions
    /// [`inv_norm_of`] is made of — so they agree with it bitwise.
    pub(crate) fn build(tagged: &TaggedEmbedding) -> QueryState {
        let norms: Vec<f64> = (0..tagged.num_rows())
            .map(|r| norm_of(tagged.row(r)))
            .collect();
        let inv_norms = norms.iter().map(|&n| inv_or_zero(n)).collect();
        QueryState { norms, inv_norms }
    }

    /// Cached L2 norm of every row.
    pub(crate) fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Answer a batch of top-k queries over `tagged` (the matrix this
    /// state was built from) with one call to the batch kernel:
    /// `result[i]` answers `queries[i]`, bitwise as it would alone.
    pub(crate) fn top_k_rows(
        &self,
        tagged: &TaggedEmbedding,
        queries: &[RowQuery<'_>],
    ) -> Vec<Vec<Hit>> {
        let scans: Vec<ScanQuery> = queries
            .iter()
            .map(|query| {
                let (q_scale, row_scale) = match query.metric {
                    Metric::Dot => (1.0, None),
                    Metric::Cosine => (inv_norm_of(query.q), Some(self.inv_norms.as_slice())),
                };
                ScanQuery {
                    q: query.q,
                    k: query.k,
                    exclude: query.exclude,
                    q_scale,
                    row_scale,
                }
            })
            .collect();
        let mut out = vec![Vec::new(); queries.len()];
        QSCRATCH.with(|s| {
            topk_scan_batch(
                tagged.left().as_slice(),
                tagged.num_rows(),
                tagged.dim(),
                &scans,
                &mut s.borrow_mut(),
                &mut out,
            );
        });
        out
    }
}

/// One top-k query against the matrix of a [`QueryState`]: the query
/// vector (`dim` long), how many hits, the metric, and a row to skip (the
/// query node itself).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowQuery<'a> {
    pub(crate) q: &'a [f64],
    pub(crate) k: usize,
    pub(crate) metric: Metric,
    pub(crate) exclude: Option<u32>,
}

thread_local! {
    /// Per-thread scan workspace so snapshot-level queries allocate
    /// nothing in the kernel at steady state.
    static QSCRATCH: std::cell::RefCell<ScanScratch> = std::cell::RefCell::new(ScanScratch::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::Embedding;
    use tsvd_linalg::topk::topk_scan_naive;
    use tsvd_linalg::DenseMatrix;
    use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

    fn tagged(seed: u64, rows: usize, dim: usize) -> TaggedEmbedding {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * dim)
            .map(|_| rng.gen_range(-1000..1000) as f64 / 83.0)
            .collect();
        Embedding {
            u: DenseMatrix::from_vec(rows, dim, data),
            sigma: vec![1.0; dim],
            dim,
        }
        .tagged(0)
    }

    /// Both metrics and several query rows, alone and all in one batch:
    /// every answer is bitwise the naive reference.
    #[test]
    fn top_k_rows_is_bitwise_exact_vs_naive_both_metrics() {
        let rows = 300;
        let dim = 16;
        let t = tagged(3, rows, dim);
        let state = QueryState::build(&t);
        let data = t.left().as_slice();
        let mut batch = Vec::new();
        let mut want = Vec::new();
        for metric in [Metric::Dot, Metric::Cosine] {
            for qrow in [0usize, 17, 299] {
                let q = t.row(qrow);
                let (q_scale, row_scale) = match metric {
                    Metric::Dot => (1.0, None),
                    Metric::Cosine => (inv_norm_of(q), Some(state.inv_norms.as_slice())),
                };
                let naive = topk_scan_naive(
                    data,
                    rows,
                    dim,
                    q,
                    10,
                    Some(qrow as u32),
                    q_scale,
                    row_scale,
                );
                let query = RowQuery {
                    q,
                    k: 10,
                    metric,
                    exclude: Some(qrow as u32),
                };
                let alone = state.top_k_rows(&t, &[query]).remove(0);
                assert_eq!(bits(&alone), bits(&naive));
                batch.push(query);
                want.push(naive);
            }
        }
        let got = state.top_k_rows(&t, &batch);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(bits(g), bits(w));
        }
    }

    fn bits(hits: &[Hit]) -> Vec<(u32, u64)> {
        hits.iter().map(|h| (h.row, h.score.to_bits())).collect()
    }

    #[test]
    fn metric_wire_codes_round_trip() {
        for (m, byte) in [(Metric::Dot, 0u8), (Metric::Cosine, 1)] {
            let mut out = Vec::new();
            m.encode(&mut out);
            assert_eq!(out, [byte]);
            assert_eq!(tsvd_rt::bin::decode_all::<Metric>(&out).unwrap(), m);
        }
        for bad in [2u8, 255] {
            assert!(tsvd_rt::bin::decode_all::<Metric>(&[bad]).is_err());
        }
    }
}
