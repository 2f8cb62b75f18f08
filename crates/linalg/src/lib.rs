//! # tsvd-linalg
//!
//! Self-contained dense/sparse linear algebra for the Tree-SVD reproduction.
//! No linear-algebra crate exists in the offline set, so everything the paper
//! needs is implemented here:
//!
//! * [`DenseMatrix`] — row-major dense matrix with the usual products;
//! * [`CsrMatrix`] — compressed sparse row matrix (the proximity matrix and
//!   adjacency operators);
//! * [`qr`] — Householder QR (thin Q), the orthonormalisation kernel of
//!   randomized SVD;
//! * [`svd`] — exact SVD via Golub–Reinsch (one-sided Jacobi for small
//!   matrices, a QR pre-reduction for tall ones), and the `V`-free top-`d`
//!   `U·Σ` a Tree-SVD merge keeps;
//! * [`randomized`] — Halko–Martinsson–Tropp randomized SVD, including the
//!   sparse variant the paper uses at Tree-SVD's first level (cost
//!   `O(nnz·(d+p))` plus small dense work);
//! * [`sketch`] — Frequent-Directions matrix sketching (the FREDE baseline);
//! * [`topk`] — deterministic top-k similarity scan, one query or a batch
//!   (the serving layer's query kernel);
//! * [`rng`] — Gaussian sampling via Box–Muller on top of `rand`.
//!
//! All numerics are `f64`. Matrices are small enough in this system
//! (`|S| ≤ a few thousand` rows) that cache-oblivious blocking is not needed;
//! the hot loops are laid out for contiguous row access instead.

mod csr;
mod dense;
pub(crate) mod gr;
pub mod qr;
pub mod randomized;
pub mod rng;
pub mod sketch;
pub mod svd;
pub mod topk;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use randomized::{MatrixProduct, RandomizedSvdConfig};
pub use svd::Svd;
