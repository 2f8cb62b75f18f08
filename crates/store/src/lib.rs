//! # tsvd-store
//!
//! Durability for the Tree-SVD serving layer: a write-ahead log of flush
//! windows, epoch checkpoints with log compaction, and crash recovery that
//! lands on a **bitwise-identical** published embedding.
//!
//! The layering deliberately mirrors the serving invariant. Every layer
//! below the reactor is deterministic — the same post-coalesce windows
//! replayed in the same order produce the same bits at any thread count
//! or tenant mix. So durability only has to preserve two
//! things: the host state at some epoch (a checkpoint) and the exact
//! window sequence after it (the WAL). Recovery is then *replay*, not
//! reconstruction:
//!
//! ```text
//!   reactor flush:   append_window(epoch, window)   [fsync]   ── WAL
//!                    └─ then record + stage + commit + publish
//!   checkpoint:      the live TenantHost streamed, section by section,
//!                    into an atomic checkpoint-<epoch>.bin
//!                    └─ then drop WAL segments entirely ≤ epoch
//!   recovery:        load the newest checkpoint that verifies
//!                    └─ replay WAL frames after it, verbatim
//! ```
//!
//! Because the window is durable *before* its epoch is published, a crash
//! at any instant loses at most un-acked work: every epoch a client ever
//! observed is reproduced exactly by [`recover`].
//!
//! * [`wal`] — segment files of checksummed, length-prefixed frames
//!   (an FNV-1a seal over an `rt::bin` payload), with the torn-tail
//!   discipline: a truncated final frame is a clean stop, a corrupted
//!   interior frame is a typed [`StoreError::Corrupt`].
//! * [`checkpoint`] — `checkpoint-<epoch>.bin`: a binary, checksummed
//!   file of sections (graph, then per tenant its PPR states, matrix, tree
//!   and the rest) encoded straight from the live host through one reused
//!   section buffer and written tmp + fsync + rename; each section is
//!   verified before it is decoded. The framing is `tsvd_serve::checkpoint`
//!   (re-exported), which a follower's re-seed reply carries too; this
//!   crate adds the files. **One writer, two readers:** every
//!   production path writes this format, and loading takes the newest
//!   epoch across `.bin` and the `.json` files earlier versions wrote
//!   (same epoch in both: binary first, JSON as its fallback), falling
//!   back to older checkpoints while the newest fails to load — which is
//!   how a directory written before the format existed keeps recovering;
//!   its first compaction afterwards removes the `.json`. The module docs
//!   have the compaction rule; `tsvd_serve::checkpoint`'s the byte layout.
//! * [`WalStore`] — the [`DurabilitySink`] implementation the serving
//!   reactor drives ([`EmbeddingServer::start_host_with_store`]);
//!   [`recover`] rebuilds a host from disk and returns a store positioned
//!   to append.
//!
//! [`EmbeddingServer::start_host_with_store`]: tsvd_serve::EmbeddingServer::start_host_with_store

pub mod checkpoint;
pub mod wal;

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use tsvd_graph::EdgeEvent;
use tsvd_rt::json::Json;
use tsvd_serve::checkpoint::CheckpointError;
use tsvd_serve::{DurabilitySink, TenantHost};

/// Where and how a store keeps its files.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding WAL segments and checkpoints (created on
    /// [`WalStore::create`] if missing).
    pub dir: PathBuf,
    /// Rotate to a new WAL segment once the current one reaches this many
    /// bytes. Compaction drops whole segments, so smaller segments compact
    /// sooner at the cost of more files.
    pub segment_bytes: u64,
}

impl StoreConfig {
    /// A config rooted at `dir` with the default 4 MiB segment size.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: 4 << 20,
        }
    }
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A WAL segment holds bytes that cannot be a valid frame sequence —
    /// an interior corruption, never a clean crash tail (those are
    /// tolerated and truncated instead).
    Corrupt {
        /// File name of the offending segment.
        segment: String,
        /// Byte offset of the frame the decoder rejected.
        offset: u64,
        /// What was wrong with it.
        what: &'static str,
    },
    /// A checkpoint file exists but cannot be decoded (and no older one
    /// could either), or its content contradicts the log.
    BadCheckpoint(String),
    /// The directory holds no checkpoint at all — nothing to recover from.
    NoCheckpoint,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt {
                segment,
                offset,
                what,
            } => write!(f, "corrupt WAL segment {segment} at byte {offset}: {what}"),
            StoreError::BadCheckpoint(why) => write!(f, "bad checkpoint: {why}"),
            StoreError::NoCheckpoint => write!(f, "no checkpoint found in store directory"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<CheckpointError> for StoreError {
    fn from(e: CheckpointError) -> StoreError {
        match e {
            CheckpointError::Io(e) => StoreError::Io(e),
            CheckpointError::Bad(why) => StoreError::BadCheckpoint(why),
        }
    }
}

struct OpenSegment {
    file: File,
    written: u64,
}

/// The durable log: WAL segments plus epoch checkpoints in one directory.
///
/// Implements [`DurabilitySink`], so the serving reactor drives it
/// directly: every post-coalesce flush window is appended and fsync'd
/// *before* the reactor records it, and periodic checkpoints compact the
/// log. Created fresh with [`WalStore::create`] or repositioned over an
/// existing directory by [`recover`].
pub struct WalStore {
    cfg: StoreConfig,
    seg: Option<OpenSegment>,
    /// Epoch the next appended frame must carry (appends are contiguous).
    next_epoch: u64,
}

impl WalStore {
    /// Initialise `cfg.dir` as a fresh store: create the directory and
    /// write the initial checkpoint of `host` (usually at epoch 0, but a
    /// pre-warmed host checkpoints at its current epoch). Refuses a
    /// directory that already holds store files — recover those instead.
    pub fn create(cfg: StoreConfig, host: &TenantHost) -> Result<WalStore, StoreError> {
        let epoch = host.batches_recorded();
        fs::create_dir_all(&cfg.dir)?;
        if !checkpoint::list_checkpoints(&cfg.dir)?.is_empty()
            || !wal::list_segments(&cfg.dir)?.is_empty()
        {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "store directory already holds WAL/checkpoint files; use recover()",
            )));
        }
        checkpoint::write_checkpoint(&cfg.dir, epoch, host)?;
        Ok(WalStore {
            cfg,
            seg: None,
            next_epoch: epoch + 1,
        })
    }

    /// The epoch the next [`append_window`](WalStore::append_window) must
    /// carry.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    fn open_segment(&mut self, start_epoch: u64) -> io::Result<()> {
        let path = wal::segment_path(&self.cfg.dir, start_epoch);
        let file = File::create(&path)?;
        // The segment must itself survive a crash: fsync the directory so
        // the new name is durable before any frame relies on it.
        fsync_dir(&self.cfg.dir)?;
        self.seg = Some(OpenSegment { file, written: 0 });
        Ok(())
    }
}

impl DurabilitySink for WalStore {
    /// Append one frame and fsync it. When this returns `Ok`, the window
    /// is durable: [`recover`] will replay it. A window too large for one
    /// frame ([`wal::WAL_MAX_PAYLOAD`]) is refused with
    /// [`io::ErrorKind::InvalidInput`] before a byte is written.
    fn append_window(&mut self, epoch: u64, events: &[EdgeEvent]) -> io::Result<()> {
        assert_eq!(
            epoch, self.next_epoch,
            "WAL appends must be contiguous (expected epoch {}, got {epoch})",
            self.next_epoch
        );
        let mut buf = Vec::new();
        wal::encode_frame(epoch, events, &mut buf)?;
        let rotate = match &self.seg {
            None => true,
            Some(seg) => seg.written >= self.cfg.segment_bytes,
        };
        if rotate {
            self.open_segment(epoch)?;
        }
        let seg = self.seg.as_mut().expect("segment just opened");
        seg.file.write_all(&buf)?;
        seg.file.sync_data()?;
        seg.written += buf.len() as u64;
        self.next_epoch += 1;
        Ok(())
    }

    /// Stream the host into `checkpoint-<epoch>.bin` atomically, then
    /// compact: drop older checkpoints and every WAL segment whose frames
    /// all fall at or before `epoch` (the last segment is always kept — it
    /// is the append tail).
    fn checkpoint(&mut self, epoch: u64, host: &TenantHost) -> io::Result<()> {
        checkpoint::write_checkpoint(&self.cfg.dir, epoch, host)
            .map_err(|e| io::Error::other(e.to_string()))?;
        checkpoint::compact(&self.cfg.dir, epoch)
    }
}

impl WalStore {
    /// **Kept for the frozen benchmark only**: `tsvd-e2e/src/trace.rs`
    /// calls `store.checkpoint(epoch, &host_json)` on a `WalStore`, and an
    /// inherent method is what that call resolves to. Writes the JSON
    /// format earlier versions wrote
    /// ([`checkpoint::write_json_checkpoint`]) and compacts. Everything
    /// else checkpoints through [`DurabilitySink::checkpoint`], which takes
    /// the host itself; the `[benchmark]` PR that moves the trace's pass B
    /// onto the engine deletes this.
    #[doc(hidden)]
    pub fn checkpoint(&mut self, epoch: u64, host: &Json) -> io::Result<()> {
        checkpoint::write_json_checkpoint(&self.cfg.dir, epoch, host)
            .map_err(|e| io::Error::other(e.to_string()))?;
        checkpoint::compact(&self.cfg.dir, epoch)
    }
}

/// What [`recover`] rebuilt from disk.
pub struct Recovered {
    /// The host, advanced to the last durable epoch — bitwise identical to
    /// the host the crashed server had published at that epoch.
    pub host: TenantHost,
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// WAL windows replayed on top of the checkpoint.
    pub windows_replayed: u64,
    /// A store positioned to append the next window (hand it back to
    /// [`EmbeddingServer::start_host_with_store`]).
    ///
    /// [`EmbeddingServer::start_host_with_store`]: tsvd_serve::EmbeddingServer::start_host_with_store
    pub store: WalStore,
}

/// Rebuild a host from `cfg.dir`: load the newest checkpoint that
/// verifies ([`checkpoint::load_checkpoint`] — either format, older ones
/// as fallback), then replay every WAL window after it through the host's
/// engines. A torn final frame (the crash tail) is truncated away, and so
/// is the temp file of a checkpoint the crash interrupted; interior
/// corruption is a typed [`StoreError::Corrupt`].
pub fn recover(cfg: StoreConfig) -> Result<Recovered, StoreError> {
    checkpoint::remove_stale_tmp(&cfg.dir)?;
    let (ck_epoch, mut host) = checkpoint::load_checkpoint(&cfg.dir)?;
    let windows = scan_log(&cfg.dir, true)?;
    let mut replayed = 0u64;
    for (epoch, events) in &windows {
        if *epoch <= ck_epoch {
            continue;
        }
        let expected = host.batches_recorded() + 1;
        if *epoch != expected {
            return Err(StoreError::BadCheckpoint(format!(
                "log gap: next durable window is epoch {epoch} but replay needs {expected}"
            )));
        }
        host.apply_batch(events);
        replayed += 1;
    }
    let next = host.batches_recorded() + 1;
    Ok(Recovered {
        host,
        checkpoint_epoch: ck_epoch,
        windows_replayed: replayed,
        store: WalStore {
            cfg,
            seg: None,
            next_epoch: next,
        },
    })
}

/// Every durable window in `dir`'s WAL, oldest first, tolerating a torn
/// tail — the offline ground truth a recovery is compared against.
pub fn read_windows(dir: &Path) -> Result<Vec<(u64, Vec<EdgeEvent>)>, StoreError> {
    scan_log(dir, false)
}

/// Scan all segments in order, enforcing global epoch contiguity; when
/// `truncate_tail` is set, physically cut a torn final frame off the last
/// segment so future appends start at a clean boundary.
fn scan_log(dir: &Path, truncate_tail: bool) -> Result<Vec<(u64, Vec<EdgeEvent>)>, StoreError> {
    let segments = wal::list_segments(dir)?;
    let mut out: Vec<(u64, Vec<EdgeEvent>)> = Vec::new();
    let last = segments.len().wrapping_sub(1);
    for (i, (start_epoch, path)) in segments.iter().enumerate() {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let bytes = fs::read(path)?;
        let scanned = wal::scan_segment(&name, &bytes, i == last)?;
        for (j, (epoch, events)) in scanned.frames.into_iter().enumerate() {
            let expected = match out.last() {
                Some((prev, _)) => prev + 1,
                None => *start_epoch,
            };
            if j == 0 && epoch != *start_epoch {
                return Err(StoreError::Corrupt {
                    segment: name.clone(),
                    offset: 0,
                    what: "first frame epoch does not match segment name",
                });
            }
            if epoch != expected {
                return Err(StoreError::Corrupt {
                    segment: name.clone(),
                    offset: 0,
                    what: "epoch gap between frames",
                });
            }
            out.push((epoch, events));
        }
        if scanned.torn && truncate_tail {
            let f = fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(scanned.valid_len)?;
            f.sync_all()?;
        }
    }
    Ok(out)
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync is how a new/renamed name becomes durable on unix;
    // opening a directory read-only for sync is not portable everywhere,
    // so failures here are not fatal to the data path itself.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Fixtures the unit tests of this crate share.
#[cfg(test)]
pub(crate) mod testutil {
    use std::fs;
    use std::path::PathBuf;

    use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdConfig, UpdatePolicy};
    use tsvd_graph::{DynGraph, EdgeEvent};
    use tsvd_ppr::PprConfig;
    use tsvd_rt::json::ToJson;
    use tsvd_serve::TenantHost;

    /// A fresh, empty directory unique to this process, thread and `tag`.
    pub fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "tsvd-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// One tenant, six sources, on a 40-node ring-with-chords.
    pub fn small_host() -> TenantHost {
        let mut g = DynGraph::with_nodes(40);
        for i in 0..40u32 {
            g.insert_edge(i, (i + 1) % 40);
            g.insert_edge(i, (i + 7) % 40);
        }
        let mut h = TenantHost::new(&g);
        let tree = TreeSvdConfig {
            dim: 6,
            branching: 2,
            num_blocks: 4,
            oversample: 4,
            power_iters: 1,
            level1: Level1Method::Randomized,
            policy: UpdatePolicy::Lazy { delta: 0.4 },
            partition: PartitionStrategy::EqualWidth,
            seed: 3,
        };
        h.register(0, &(0..6).collect::<Vec<_>>(), PprConfig::default(), tree)
            .unwrap();
        h
    }

    pub fn window(k: u32) -> Vec<EdgeEvent> {
        vec![
            EdgeEvent::insert(k % 40, (k * 3 + 11) % 40),
            EdgeEvent::delete(k % 40, (k + 1) % 40),
        ]
    }

    /// The host's whole readable export — graph, PPR states, matrix, tree
    /// caches, embedding, counters — minus the wall-clock `timings`, the
    /// only state two hosts fed the same windows do not share. `rt::json`
    /// writes every `f64` so that it re-parses to the same bits, so equal
    /// strings are equal states, bit for bit.
    pub fn state(host: &TenantHost) -> String {
        let mut j = host.to_json();
        j.remove_key("timings");
        j.to_string()
    }

    /// [`state`] equality. (Comparing embeddings alone would pass
    /// vacuously wherever the lazy rule never fired.)
    pub fn bits_equal(a: &TenantHost, b: &TenantHost) -> bool {
        state(a) == state(b)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{bits_equal, small_host, tmpdir, window};
    use super::*;
    use checkpoint::Format;

    fn checkpoints(dir: &Path) -> Vec<(u64, Format)> {
        checkpoint::list_checkpoints(dir)
            .unwrap()
            .into_iter()
            .map(|(e, f, _)| (e, f))
            .collect()
    }

    #[test]
    fn create_append_recover_is_bitwise_identical() {
        let dir = tmpdir("roundtrip");
        let mut live = small_host();
        let mut store = WalStore::create(StoreConfig::new(&dir), &live).unwrap();
        for k in 0..5u32 {
            let w = window(k);
            store.append_window(k as u64 + 1, &w).unwrap();
            live.apply_batch(&w);
        }
        // No checkpoint beyond the initial one: recovery replays all 5.
        let rec = recover(StoreConfig::new(&dir)).unwrap();
        assert_eq!(rec.checkpoint_epoch, 0);
        assert_eq!(rec.windows_replayed, 5);
        assert_eq!(rec.host.batches_recorded(), 5);
        assert_eq!(rec.store.next_epoch(), 6);
        assert!(bits_equal(&live, &rec.host), "recovered embedding diverged");
    }

    #[test]
    fn checkpoint_compacts_whole_segments_and_recovery_uses_it() {
        let dir = tmpdir("compact");
        let mut live = small_host();
        let mut cfg = StoreConfig::new(&dir);
        cfg.segment_bytes = 1; // rotate every frame: one segment per window
        let mut store = WalStore::create(cfg.clone(), &live).unwrap();
        for k in 0..6u32 {
            let w = window(k);
            store.append_window(k as u64 + 1, &w).unwrap();
            live.apply_batch(&w);
            if k == 3 {
                DurabilitySink::checkpoint(&mut store, 4, &live).unwrap();
            }
        }
        // At checkpoint time segments 1..=3 hold only epochs ≤ 4 and are
        // dropped; segment 4 was the append tail then, so it survives.
        let starts: Vec<u64> = wal::list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(starts, vec![4, 5, 6]);
        assert_eq!(checkpoints(&dir), vec![(4, Format::Bin)]);
        let rec = recover(StoreConfig::new(&dir)).unwrap();
        assert_eq!(rec.checkpoint_epoch, 4);
        assert_eq!(rec.windows_replayed, 2);
        assert!(bits_equal(&live, &rec.host));
    }

    #[test]
    fn recovered_store_appends_into_a_fresh_segment() {
        let dir = tmpdir("reappend");
        let mut live = small_host();
        let mut store = WalStore::create(StoreConfig::new(&dir), &live).unwrap();
        for k in 0..3u32 {
            let w = window(k);
            store.append_window(k as u64 + 1, &w).unwrap();
            live.apply_batch(&w);
        }
        drop(store);
        let mut rec = recover(StoreConfig::new(&dir)).unwrap();
        let w = window(9);
        rec.store.append_window(4, &w).unwrap();
        live.apply_batch(&w);
        let all = read_windows(&dir).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all.last().unwrap().0, 4);
        let rec2 = recover(StoreConfig::new(&dir)).unwrap();
        assert_eq!(rec2.host.batches_recorded(), 4);
        assert!(bits_equal(&live, &rec2.host));
    }

    #[test]
    fn an_oversized_window_is_refused_before_a_byte_is_written() {
        let dir = tmpdir("oversized");
        let live = small_host();
        let mut store = WalStore::create(StoreConfig::new(&dir), &live).unwrap();
        store.append_window(1, &window(0)).unwrap();
        let segment_len = || fs::metadata(wal::segment_path(&dir, 1)).unwrap().len();
        let before = segment_len();
        // One event more than a frame can carry (≈ 90 MB of events; the
        // refusal comes before anything is encoded).
        let too_many = (wal::WAL_MAX_PAYLOAD as usize - 4) / 9 + 1;
        let err = store
            .append_window(2, &vec![EdgeEvent::insert(0, 1); too_many])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(segment_len(), before, "segment grew");
        assert_eq!(store.next_epoch(), 2, "the epoch was not consumed");
        // The store is still good: the same epoch takes a window that fits.
        store.append_window(2, &window(1)).unwrap();
        assert_eq!(read_windows(&dir).unwrap().len(), 2);
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = tmpdir("refuse");
        let live = small_host();
        let _store = WalStore::create(StoreConfig::new(&dir), &live).unwrap();
        match WalStore::create(StoreConfig::new(&dir), &live) {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::AlreadyExists),
            Err(other) => panic!("expected AlreadyExists, got {other:?}"),
            Ok(_) => panic!("created over an existing store"),
        }
    }

    #[test]
    fn a_checkpoint_torn_mid_write_is_swept_and_recovery_uses_the_valid_one() {
        let dir = tmpdir("stale-tmp");
        let mut live = small_host();
        let mut store = WalStore::create(StoreConfig::new(&dir), &live).unwrap();
        for k in 0..3u32 {
            let w = window(k);
            store.append_window(k as u64 + 1, &w).unwrap();
            live.apply_batch(&w);
        }
        drop(store);
        // What a kill between the temp file's create and its rename leaves:
        // the first part of a checkpoint for epoch 3, under the temp name.
        let mut torn = Vec::new();
        checkpoint::write_host(&mut torn, 3, &live).unwrap();
        torn.truncate(torn.len() / 3);
        let tmp = dir.join("checkpoint-00000000000000000003.bin.tmp");
        fs::write(&tmp, &torn).unwrap();

        let rec = recover(StoreConfig::new(&dir)).unwrap();
        assert_eq!((rec.checkpoint_epoch, rec.windows_replayed), (0, 3));
        assert!(bits_equal(&live, &rec.host));
        assert!(!tmp.exists(), "the torn temp file outlived recovery");
        assert_eq!(checkpoints(&dir), vec![(0, Format::Bin)]);
    }

    #[test]
    fn recover_on_empty_dir_is_typed() {
        let dir = tmpdir("empty");
        match recover(StoreConfig::new(&dir)) {
            Err(StoreError::NoCheckpoint) => {}
            other => panic!("expected NoCheckpoint, got {:?}", other.err()),
        }
    }
}
