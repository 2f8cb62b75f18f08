//! Durability and replication hooks on the flush path.
//!
//! Two pieces, both fed by the reactor at the same point — after a pending
//! window is coalesced, before/after it is recorded:
//!
//! * [`DurabilitySink`] — the write-ahead contract. The reactor calls
//!   [`append_window`](DurabilitySink::append_window) with the
//!   post-coalesce window *before* recording it on the graph or staging
//!   any tenant, so by the time an epoch is published its window is
//!   already durable (fsync'd by the sink). `tsvd-store`'s `WalStore` is
//!   the production implementation; the trait lives here so `tsvd-serve`
//!   never depends on the storage crate.
//! * [`WindowJournal`] — a bounded in-memory tail of recent windows,
//!   always on, shared between the reactor (writer) and the server handle
//!   (reader). It backs the `GetWindows` wire request that followers pull
//!   to replay the leader's exact flush windows. Bounded: followers that
//!   fall more than [`JOURNAL_KEEP`] windows behind get a typed
//!   [`JournalError::Compacted`] and must re-seed from a checkpoint.
//!
//! Windows here are always the **post-coalesce** global windows, applied
//! verbatim on replay (`TenantHost::apply_batch` with coalescing already
//! done) — which is what makes WAL recovery and follower replicas land on
//! bitwise-identical embeddings.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::RwLock;

use tsvd_graph::EdgeEvent;

use crate::tenant::TenantHost;

/// How many recent windows the in-memory journal retains for followers.
pub const JOURNAL_KEEP: usize = 4096;

/// Where the reactor writes each flush window before publishing it.
///
/// Contract: when `append_window(epoch, …)` returns `Ok`, the window is
/// durable — a crash immediately after must recover it. The reactor treats
/// an `Err` as a failed durability guarantee and panics (a server that
/// silently outruns its WAL would publish epochs a recovery cannot
/// reproduce). `checkpoint` is handed the live host itself — the reactor
/// is single-threaded, so nothing mutates it meanwhile and nothing needs
/// to be copied out first — and may compact the log behind `epoch`.
pub trait DurabilitySink: Send {
    /// Make the post-coalesce window for `epoch` durable. Called before
    /// the window is recorded on the graph or applied to any tenant.
    fn append_window(&mut self, epoch: u64, events: &[EdgeEvent]) -> io::Result<()>;

    /// Persist a full checkpoint of `host` at `epoch` (every window
    /// `≤ epoch` applied, none beyond) and optionally compact the log
    /// behind it.
    fn checkpoint(&mut self, epoch: u64, host: &TenantHost) -> io::Result<()>;
}

/// Typed failure of a journal read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// The requested windows have been dropped from the bounded tail; the
    /// reader must re-seed from a checkpoint (or a fresh host snapshot).
    Compacted {
        /// The oldest epoch still retained.
        oldest: u64,
        /// The epoch right after the reader's `after_epoch` — what it
        /// needed and could not get.
        requested: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Compacted { oldest, requested } => write!(
                f,
                "window {requested} compacted out of the journal (oldest retained: {oldest}); \
                 re-seed from a checkpoint"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// One contiguous run of journal windows, as handed to a follower.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalWindows {
    /// The newest epoch present in the journal when the read was taken
    /// (`after_epoch` itself if the reader is already caught up).
    pub latest: u64,
    /// Epoch of `windows[0]`; equals `after_epoch + 1` when non-empty.
    pub first_epoch: u64,
    /// The windows for epochs `first_epoch ..` in order (empty when the
    /// reader is caught up).
    pub windows: Vec<Vec<EdgeEvent>>,
}

struct JournalInner {
    /// Epoch of `windows[0]` (also the next epoch to append when empty).
    first: u64,
    windows: VecDeque<Vec<EdgeEvent>>,
}

/// Bounded shared tail of recent flush windows (see module docs).
pub struct WindowJournal {
    inner: RwLock<JournalInner>,
    keep: usize,
}

impl WindowJournal {
    /// An empty journal whose next appended window is `start_epoch + 1`
    /// (i.e. the server starts at `start_epoch` recorded batches).
    pub(crate) fn new(start_epoch: u64, keep: usize) -> Self {
        assert!(keep >= 1, "journal must retain at least one window");
        WindowJournal {
            inner: RwLock::new(JournalInner {
                first: start_epoch + 1,
                windows: VecDeque::new(),
            }),
            keep,
        }
    }

    /// Append the window for `epoch`, evicting the oldest beyond the cap.
    /// Epochs must arrive contiguously — the reactor is the only writer.
    pub(crate) fn push(&self, epoch: u64, events: &[EdgeEvent]) {
        let mut inner = self.inner.write().expect("journal lock poisoned");
        let expected = inner.first + inner.windows.len() as u64;
        assert_eq!(epoch, expected, "journal epochs must be contiguous");
        inner.windows.push_back(events.to_vec());
        if inner.windows.len() > self.keep {
            inner.windows.pop_front();
            inner.first += 1;
        }
    }

    /// The newest epoch present (the start epoch if nothing was appended).
    pub fn latest(&self) -> u64 {
        let inner = self.inner.read().expect("journal lock poisoned");
        inner.first + inner.windows.len() as u64 - 1
    }

    /// Up to `max` windows for epochs `> after_epoch`, in order.
    pub fn windows_after(
        &self,
        after_epoch: u64,
        max: usize,
    ) -> Result<JournalWindows, JournalError> {
        let inner = self.inner.read().expect("journal lock poisoned");
        let latest = inner.first + inner.windows.len() as u64 - 1;
        let first_needed = after_epoch + 1;
        if first_needed < inner.first {
            return Err(JournalError::Compacted {
                oldest: inner.first,
                requested: first_needed,
            });
        }
        if first_needed > latest {
            // Caught up (or ahead, which a correct follower never is).
            return Ok(JournalWindows {
                latest,
                first_epoch: first_needed,
                windows: Vec::new(),
            });
        }
        let skip = (first_needed - inner.first) as usize;
        let windows: Vec<Vec<EdgeEvent>> =
            inner.windows.iter().skip(skip).take(max).cloned().collect();
        Ok(JournalWindows {
            latest,
            first_epoch: first_needed,
            windows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(u: u32) -> Vec<EdgeEvent> {
        vec![EdgeEvent::insert(u, u + 1)]
    }

    #[test]
    fn journal_serves_contiguous_tail_and_reports_latest() {
        let j = WindowJournal::new(0, 8);
        assert_eq!(j.latest(), 0);
        for e in 1..=5u64 {
            j.push(e, &w(e as u32));
        }
        assert_eq!(j.latest(), 5);
        let got = j.windows_after(2, 100).unwrap();
        assert_eq!(got.latest, 5);
        assert_eq!(got.first_epoch, 3);
        assert_eq!(got.windows, vec![w(3), w(4), w(5)]);
        // max caps the run but not the metadata.
        let got = j.windows_after(0, 2).unwrap();
        assert_eq!(got.first_epoch, 1);
        assert_eq!(got.windows.len(), 2);
        assert_eq!(got.latest, 5);
        // Caught up: empty run, same latest.
        let got = j.windows_after(5, 100).unwrap();
        assert!(got.windows.is_empty());
        assert_eq!(got.latest, 5);
    }

    #[test]
    fn journal_evicts_beyond_cap_and_types_the_gap() {
        let j = WindowJournal::new(0, 3);
        for e in 1..=5u64 {
            j.push(e, &w(e as u32));
        }
        // Epochs 1 and 2 evicted; 3..=5 retained.
        let err = j.windows_after(0, 100).unwrap_err();
        assert_eq!(
            err,
            JournalError::Compacted {
                oldest: 3,
                requested: 1,
            }
        );
        let got = j.windows_after(2, 100).unwrap();
        assert_eq!(got.first_epoch, 3);
        assert_eq!(got.windows.len(), 3);
    }

    #[test]
    fn journal_starts_at_nonzero_epoch() {
        // A server recovered at epoch 7 journals 8, 9, ...
        let j = WindowJournal::new(7, 4);
        assert_eq!(j.latest(), 7);
        j.push(8, &w(8));
        let got = j.windows_after(7, 10).unwrap();
        assert_eq!(got.first_epoch, 8);
        assert_eq!(got.windows, vec![w(8)]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn journal_rejects_epoch_gaps() {
        let j = WindowJournal::new(0, 4);
        j.push(2, &w(2));
    }
}
