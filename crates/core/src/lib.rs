//! # tsvd-core
//!
//! The paper's primary contribution: **Tree-SVD**, a hierarchical truncated
//! SVD over a vertically blocked proximity matrix, with lazily updated
//! blocks on dynamic graphs.
//!
//! * [`BlockedProximityMatrix`] — the `|S| × n` log-scaled PPR proximity
//!   matrix stored per (row, column-block) with exact incremental
//!   Frobenius-norm bookkeeping;
//! * [`TreeSvd`] — the static Algorithm 3: sparse randomized SVD per
//!   first-level block, exact truncated SVDs up the tree, embedding
//!   `X = U·√Σ` at the root. The same code with an exact first level is the
//!   HSVD baseline of Iwen & Ong ([`Level1Method::Exact`]);
//! * [`DynamicTreeSvd`] — the dynamic Algorithm 4: per-block change tracking
//!   against the cached factorisation, the √2·δ lazy-update rule of
//!   Lemma 3.4, and bottom-up recomputation of affected tree nodes only;
//! * [`TreeSvdPipeline`] — graph → PPR → proximity matrix → Tree-SVD glued
//!   into the end-to-end dynamic subset-embedding system.

mod blocked;
mod config;
mod dynamic_tree;
mod embedding;
mod persist;
mod pipeline;
mod static_tree;

pub use blocked::BlockedProximityMatrix;
pub use config::{Level1Method, PartitionStrategy, TreeSvdConfig, UpdatePolicy};
pub use dynamic_tree::{DynamicTreeSvd, UpdateStats};
pub use embedding::{Embedding, TaggedEmbedding};
pub use persist::{atomic_write_with, PersistError};
pub use pipeline::{PipelineTimings, TreeSvdPipeline};
pub use static_tree::TreeSvd;
