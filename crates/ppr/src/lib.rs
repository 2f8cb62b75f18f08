//! # tsvd-ppr
//!
//! Personalized PageRank engine for the Tree-SVD reproduction.
//!
//! * [`forward_push`] — the classic local-push algorithm of Andersen et al.
//!   (Algorithm 1 of the paper): maintains an estimate vector `p_s` and a
//!   residue vector `r_s` with the invariant
//!   `π_s(u) = p_s(u) + Σ_v r_s(v)·π_v(u)`;
//! * [`dynamic`] — the incremental update of Zhang et al. (Algorithm 2):
//!   O(1) residue/estimate adjustments per edge event followed by a
//!   re-push, `O(|Δ| + 1/r_max)` per source;
//! * [`SubsetPpr`] — maintains forward *and* reverse-graph PPR for every
//!   source in the subset `S` across snapshots, and materialises the
//!   STRAP-style log-scaled proximity rows
//!   `M_S(s,v) = log(p_s(v)/r_max + pᵀ_s(v)/r_max)`;
//! * [`exact`] — dense power-iteration PPR used as ground truth in tests.
//!
//! Dangling nodes (out-degree 0 in the push direction) absorb their residue:
//! an α-decay walk with nowhere to go terminates where it stands. This is
//! equivalent to the usual implicit-self-loop convention and keeps the push
//! invariant exact; see `push`.

pub mod dynamic;
pub mod exact;
mod proximity;
mod push;
mod state;
mod subset;

pub use proximity::proximity_row;
pub use push::{forward_push, forward_push_fresh, FreshPushWorkspace};
pub use state::PprState;
pub use subset::{PprConfig, RecordedBatch, RowUpdate, SubsetPpr};
