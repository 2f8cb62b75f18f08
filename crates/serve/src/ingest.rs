//! Shared graph ingest: one graph, one recording, N replays.
//!
//! Tenancy splits the serving stack along the record/replay seam of
//! [`tsvd_ppr::RecordedBatch`]: every flushed edge window mutates the
//! *single* shared graph exactly once (here), and the captured recording
//! is then replayed into each tenant's `SubsetPpr` shards. `GraphIngest`
//! owns that graph and counts recordings, so tests can assert the
//! record-once contract (`batches_recorded == windows`, not
//! `windows × tenants`). The optional in-memory window log lives here for
//! the same reason: a window is journaled once, where it is recorded.

use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::RecordedBatch;

/// Hard cap on the in-memory window log. The log exists for tests and
/// offline-replay ground truth; it grows by one window per flush and is
/// never drained, so a long-lived server must journal through the durable
/// WAL (`tsvd-store`) instead. Hitting the cap is a configuration error
/// and panics rather than silently dropping windows — a truncated journal
/// would break the "replay equals served" contract.
pub(crate) const WINDOW_LOG_CAP: usize = 1 << 16;

/// The single shared graph plus the record-once counter.
pub struct GraphIngest {
    graph: DynGraph,
    batches_recorded: u64,
    /// When enabled, every recorded window in order — the exact input an
    /// offline replay needs to reproduce any tenant's state bitwise (the
    /// soak tests' ground-truth hook). Not part of a checkpoint: the
    /// durable WAL replaces it.
    window_log: Option<Vec<Vec<EdgeEvent>>>,
}

impl GraphIngest {
    /// Start ingest from a snapshot of `g`.
    pub fn new(g: &DynGraph) -> Self {
        Self::restore(g.clone(), 0)
    }

    /// Rebuild ingest state from a checkpoint: the graph as of
    /// `batches_recorded` recordings, with the counter restored so replayed
    /// windows continue the original epoch numbering.
    pub(crate) fn restore(graph: DynGraph, batches_recorded: u64) -> Self {
        GraphIngest {
            graph,
            batches_recorded,
            window_log: None,
        }
    }

    /// Apply `events` to the shared graph and capture the replay recording.
    ///
    /// This is the only place a served edge batch touches the graph; each
    /// call bumps [`batches_recorded`](Self::batches_recorded). The
    /// returned batch must be replayed against [`graph`](Self::graph) *as
    /// it is now* (post-mutation), per the `apply_recorded` contract.
    pub fn record(&mut self, events: &[EdgeEvent]) -> RecordedBatch {
        if let Some(log) = &mut self.window_log {
            assert!(
                log.len() < WINDOW_LOG_CAP,
                "in-memory window_log reached its cap of {WINDOW_LOG_CAP} windows; \
                 long-lived servers must journal through the durable WAL \
                 (EmbeddingServer::start_host_with_store) instead"
            );
            log.push(events.to_vec());
        }
        self.batches_recorded += 1;
        RecordedBatch::record(&mut self.graph, events)
    }

    /// The shared graph (current, post-recording state).
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// How many edge batches were recorded since construction.
    ///
    /// With N tenants each replaying every window, this stays equal to the
    /// number of flushed windows — the acceptance counter proving the
    /// recording is captured once per batch rather than once per tenant.
    pub fn batches_recorded(&self) -> u64 {
        self.batches_recorded
    }

    /// Start journaling every recorded window (idempotent).
    pub(crate) fn enable_window_log(&mut self) {
        self.window_log.get_or_insert_with(Vec::new);
    }

    /// The journaled windows in recording order (`None` if never enabled).
    pub(crate) fn window_log(&self) -> Option<&[Vec<EdgeEvent>]> {
        self.window_log.as_deref()
    }
}
