//! # tsvd-graph
//!
//! Dynamic directed graph substrate for the Tree-SVD reproduction.
//!
//! The paper (Definition 2.1) models a dynamic graph as an ordered set of
//! snapshots `G^0, G^1, …, G^τ` where `G^0` is empty, `G^1` is the initial
//! graph, and consecutive snapshots are separated by a batch `Δ^t` of edge
//! *events* (insertions and deletions). This crate provides:
//!
//! * [`DynGraph`] — an adjacency-list directed graph supporting O(deg)
//!   insert/delete and O(1) degree queries in both directions;
//! * [`EdgeEvent`] / [`EventKind`] — the edge-event vocabulary of Def. 2.1,
//!   with [`coalesce`] / [`coalesce_timed`] for last-write-wins batch
//!   normalisation (the serving layer's window semantics);
//! * [`SnapshotStream`] — a timestamped event log partitioned into snapshots.

mod dyngraph;
mod events;
mod stream;

pub use dyngraph::{Direction, DynGraph};
pub use events::{coalesce, coalesce_timed, CoalesceScratch, EdgeEvent, EventKind};
pub use stream::{SnapshotStream, TimedEvent};
