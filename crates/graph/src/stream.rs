//! Snapshot streams: a timestamped event log cut into the paper's
//! `G^0, G^1, …, G^τ` snapshot sequence.

use crate::dyngraph::DynGraph;
use crate::events::EdgeEvent;

/// An edge event tagged with a (logical) timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Monotonically non-decreasing logical time.
    pub time: u64,
    /// The event itself.
    pub event: EdgeEvent,
}

tsvd_rt::impl_json_struct!(TimedEvent { time, event });

/// A dynamic graph presented as `τ` snapshots over a timestamped event log
/// (Definition 2.1). Snapshot `0` is the empty graph; snapshot `t ≥ 1` is the
/// graph after applying event batches `Δ^1, …, Δ^t`.
///
/// # Examples
///
/// ```
/// use tsvd_graph::{EdgeEvent, SnapshotStream, TimedEvent};
///
/// let log = vec![
///     TimedEvent { time: 0, event: EdgeEvent::insert(0, 1) },
///     TimedEvent { time: 1, event: EdgeEvent::insert(1, 2) },
/// ];
/// let stream = SnapshotStream::from_log(3, &log, 2);
/// assert_eq!(stream.snapshot(1).num_edges(), 1);
/// assert_eq!(stream.snapshot(2).num_edges(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotStream {
    num_nodes: usize,
    /// `batches[t-1]` is `Δ^t`, the events between snapshot `t-1` and `t`.
    batches: Vec<Vec<EdgeEvent>>,
}

tsvd_rt::impl_json_struct!(SnapshotStream { num_nodes, batches });

impl SnapshotStream {
    /// Partition a time-sorted event log into `tau` batches of (roughly)
    /// equal event count. `num_nodes` is the final node-id space.
    ///
    /// Panics if `tau == 0` or the log is not sorted by time.
    pub fn from_log(num_nodes: usize, log: &[TimedEvent], tau: usize) -> Self {
        assert!(tau > 0, "need at least one snapshot");
        assert!(
            log.windows(2).all(|w| w[0].time <= w[1].time),
            "event log must be sorted by time"
        );
        let mut batches: Vec<Vec<EdgeEvent>> = vec![Vec::new(); tau];
        let per = log.len().div_ceil(tau).max(1);
        for (i, te) in log.iter().enumerate() {
            let b = (i / per).min(tau - 1);
            batches[b].push(te.event);
        }
        SnapshotStream { num_nodes, batches }
    }

    /// Build directly from pre-cut batches.
    pub fn from_batches(num_nodes: usize, batches: Vec<Vec<EdgeEvent>>) -> Self {
        assert!(!batches.is_empty(), "need at least one batch");
        SnapshotStream { num_nodes, batches }
    }

    /// Number of snapshots `τ` (excluding the empty `G^0`).
    #[inline]
    pub fn num_snapshots(&self) -> usize {
        self.batches.len()
    }

    /// Node-id space of the final snapshot.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The event batch `Δ^t` for `t ∈ 1..=τ`.
    pub fn batch(&self, t: usize) -> &[EdgeEvent] {
        assert!(
            t >= 1 && t <= self.batches.len(),
            "snapshot {t} out of range"
        );
        &self.batches[t - 1]
    }

    /// Total number of events in the stream.
    pub fn num_events(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Materialise snapshot `t` (`0 ≤ t ≤ τ`) from scratch.
    pub fn snapshot(&self, t: usize) -> DynGraph {
        assert!(t <= self.batches.len(), "snapshot {t} out of range");
        let mut g = DynGraph::with_nodes(self.num_nodes);
        for batch in &self.batches[..t] {
            for e in batch {
                g.apply_event(e);
            }
        }
        g
    }

    /// Iterate `(t, Δ^t)` pairs for `t = 1..=τ`.
    pub fn iter_batches(&self) -> impl Iterator<Item = (usize, &[EdgeEvent])> {
        self.batches
            .iter()
            .enumerate()
            .map(|(i, b)| (i + 1, b.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log3() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                time: 0,
                event: EdgeEvent::insert(0, 1),
            },
            TimedEvent {
                time: 1,
                event: EdgeEvent::insert(1, 2),
            },
            TimedEvent {
                time: 2,
                event: EdgeEvent::insert(2, 0),
            },
            TimedEvent {
                time: 3,
                event: EdgeEvent::delete(0, 1),
            },
        ]
    }

    #[test]
    fn snapshots_accumulate_batches() {
        let s = SnapshotStream::from_log(3, &log3(), 2);
        assert_eq!(s.num_snapshots(), 2);
        let g0 = s.snapshot(0);
        assert_eq!(g0.num_edges(), 0);
        let g1 = s.snapshot(1);
        assert_eq!(g1.num_edges(), 2); // first two inserts
        let g2 = s.snapshot(2);
        assert_eq!(g2.num_edges(), 2); // +insert(2,0), -delete(0,1)
        assert!(g2.has_edge(2, 0));
        assert!(!g2.has_edge(0, 1));
    }

    #[test]
    fn batch_indexing_is_one_based() {
        let s = SnapshotStream::from_log(3, &log3(), 4);
        assert_eq!(s.batch(1).len(), 1);
        assert_eq!(s.num_events(), 4);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_log_rejected() {
        let mut log = log3();
        log.swap(0, 3);
        let _ = SnapshotStream::from_log(3, &log, 2);
    }

    #[test]
    fn incremental_equals_from_scratch() {
        let s = SnapshotStream::from_log(3, &log3(), 3);
        let mut g = s.snapshot(0);
        for (t, batch) in s.iter_batches() {
            for e in batch {
                g.apply_event(e);
            }
            let fresh = s.snapshot(t);
            assert_eq!(g.num_edges(), fresh.num_edges(), "snapshot {t}");
        }
    }
}
