//! Epoch checkpoints: binary, checksummed, section-streamed snapshots of
//! the whole `TenantHost`, plus the compaction rule that lets them
//! truncate the WAL.
//!
//! A checkpoint `checkpoint-<epoch>.bin` (20-digit zero-padded epoch)
//! holds the host with every window `≤ epoch` applied and none beyond —
//! exactly the state the serving reactor sees between two flushes.
//!
//! The file is `tsvd_serve::checkpoint`'s format — header, then the
//! host's binary sections, each checksummed — re-exported here:
//! [`write_host`], [`read_host`], [`SectionReader`] and the header
//! constants. That module has the byte layout. The framing lives in
//! `tsvd-serve` because a `GetCheckpoint` reply carries the same bytes to
//! a re-seeding follower. This module adds the files: the atomic write
//! ([`tsvd_core::atomic_write_with`]: tmp + fsync + rename + dir fsync, one
//! section buffered at a time), the check that a file is what its name
//! says, and the choice among several. A damaged file is a typed
//! [`StoreError::BadCheckpoint`].
//!
//! # Formats, precedence and fallback
//!
//! Production code writes exactly one format, this one. Directories
//! written before it hold `checkpoint-<epoch>.json`
//! (`{"epoch": E, "host": <TenantHost JSON>}`), so the *reader* spans both
//! extensions: [`load_checkpoint`] takes the **newest epoch** across
//! `.bin` and `.json`; where one epoch exists in both, the binary file is
//! tried first and the JSON one is its fallback; a file that fails to load
//! (torn, flipped, wrong epoch) falls back to the next older candidate —
//! an older checkpoint is still a correct, just older, recovery point as
//! long as the WAL behind it is intact, which [`compact`] guarantees by
//! only ever deleting what the checkpoint it was called for covers.
//!
//! # Compaction rule
//!
//! After a checkpoint at `E`, replay only ever needs windows `> E`.
//! Segments are dropped whole: segment `i` (frames `start_i ..
//! start_{i+1}`) is deletable iff `start_{i+1} ≤ E + 1`, i.e. every frame
//! it holds is `≤ E`. The last segment is never deleted — it is the
//! writer's append tail. Checkpoint files older than `E` are removed at
//! the same time, **in both formats** (that is how a directory migrates:
//! the first checkpoint after an upgrade is `.bin`, and its compaction
//! removes the `.json`), along with any `checkpoint-*.tmp` a crash
//! mid-write left behind.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use tsvd_core::{atomic_write_with, PersistError};
use tsvd_rt::json::{field, FromJson, Json};
pub use tsvd_serve::checkpoint::{
    read_host, write_host, SectionReader, CHECKPOINT_HEADER_LEN, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};
use tsvd_serve::TenantHost;

use crate::{wal, StoreError};

/// The on-disk format of a checkpoint file. Ordered by preference: where
/// one epoch exists in both, [`Format::Bin`] is tried first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Format {
    /// `checkpoint-<epoch>.json`, written by earlier versions (and by the
    /// compatibility call [`write_json_checkpoint`]); read-only otherwise.
    Json,
    /// `checkpoint-<epoch>.bin` — what every production path writes.
    Bin,
}

impl Format {
    fn extension(self) -> &'static str {
        match self {
            Format::Json => "json",
            Format::Bin => "bin",
        }
    }
}

/// Path of the `format` checkpoint taken at `epoch`.
pub fn checkpoint_path(dir: &Path, epoch: u64, format: Format) -> PathBuf {
    dir.join(format!("checkpoint-{epoch:020}.{}", format.extension()))
}

/// All checkpoints in `dir` in both formats, ascending by epoch and, within
/// an epoch, by preference — so the last entry is the first to try.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, Format, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("checkpoint-")) else {
            continue;
        };
        let Some((stem, ext)) = rest.split_once('.') else {
            continue;
        };
        let format = match ext {
            "json" => Format::Json,
            "bin" => Format::Bin,
            _ => continue,
        };
        let Ok(epoch) = stem.parse::<u64>() else {
            continue;
        };
        out.push((epoch, format, entry.path()));
    }
    out.sort();
    Ok(out)
}

fn bad(why: impl Into<String>) -> StoreError {
    StoreError::BadCheckpoint(why.into())
}

/// Atomically write `host`'s checkpoint for `epoch` into `dir` — the one
/// checkpoint writer of every production path.
pub fn write_checkpoint(dir: &Path, epoch: u64, host: &TenantHost) -> Result<(), StoreError> {
    atomic_write_with(&checkpoint_path(dir, epoch, Format::Bin), |w| {
        write_host(w, epoch, host)
    })
    .map_err(write_failed)
}

fn write_failed(e: PersistError) -> StoreError {
    bad(format!("checkpoint write failed: {e}"))
}

/// Load the newest checkpoint that is whole, across both formats, falling
/// back to older candidates (see module docs): `(epoch, host)`.
pub fn load_checkpoint(dir: &Path) -> Result<(u64, TenantHost), StoreError> {
    load_newest(dir, |epoch, format, path| {
        Some(load_file(epoch, format, path))
    })
}

/// Walk `dir`'s checkpoints newest first (binary before JSON within an
/// epoch) and return the first that `load`s; `None` skips a file. If none
/// loads, the error names the newest failure.
fn load_newest<T>(
    dir: &Path,
    load: impl Fn(u64, Format, &Path) -> Option<Result<T, StoreError>>,
) -> Result<(u64, T), StoreError> {
    let mut newest_failure = None;
    for (epoch, format, path) in list_checkpoints(dir)?.iter().rev() {
        match load(*epoch, *format, path) {
            None => {}
            Some(Ok(loaded)) => return Ok((*epoch, loaded)),
            Some(Err(e)) => {
                newest_failure.get_or_insert(format!("{}: {e}", path.display()));
            }
        }
    }
    Err(match newest_failure {
        Some(why) => bad(format!(
            "no checkpoint in {} loads; newest failure: {why}",
            dir.display()
        )),
        None => StoreError::NoCheckpoint,
    })
}

/// Load one checkpoint file and check it is what its name says.
fn load_file(epoch: u64, format: Format, path: &Path) -> Result<TenantHost, StoreError> {
    let host = match format {
        Format::Bin => {
            let (named, host) = read_host(File::open(path)?)?;
            if named != epoch {
                return Err(bad(format!(
                    "file named for epoch {epoch} but its header says {named}"
                )));
            }
            host
        }
        Format::Json => TenantHost::from_json(&read_json_checkpoint(epoch, path)?)
            .map_err(|e| bad(format!("host decode failed: {e}")))?,
    };
    if host.batches_recorded() != epoch {
        return Err(bad(format!(
            "checkpoint named epoch {epoch} but its host is at {}",
            host.batches_recorded()
        )));
    }
    Ok(host)
}

/// The `host` value of a JSON checkpoint file (moved out, not cloned).
fn read_json_checkpoint(epoch: u64, path: &Path) -> Result<Json, StoreError> {
    let text = fs::read_to_string(path)?;
    let json = Json::parse(&text).map_err(|e| bad(e.to_string()))?;
    let named: u64 = field(&json, "epoch").map_err(|e| bad(e.to_string()))?;
    if named != epoch {
        return Err(bad(format!(
            "file named for epoch {epoch} but its body says {named}"
        )));
    }
    let Json::Obj(pairs) = json else {
        unreachable!("`field` found a key, so this is an object");
    };
    pairs
        .into_iter()
        .find_map(|(k, v)| (k == "host").then_some(v))
        .ok_or_else(|| bad("missing 'host' field"))
}

/// **Kept for the frozen benchmark only** (`tsvd-e2e/src/trace.rs` times a
/// JSON checkpoint through [`WalStore::checkpoint`](crate::WalStore) and
/// cannot be edited by a non-benchmark PR); the `[benchmark]` PR that
/// moves its pass B onto the engine deletes this, [`load_latest`] and the
/// `store.checkpoint.*` / `store.recover.load_ms` spans that time them.
/// The only JSON-to-disk writer left: `{"epoch":E,"host":<host>}`, the
/// bytes earlier versions wrote, without cloning the tree to add a key.
#[doc(hidden)]
pub fn write_json_checkpoint(dir: &Path, epoch: u64, host: &Json) -> Result<(), StoreError> {
    atomic_write_with(&checkpoint_path(dir, epoch, Format::Json), |w| {
        write!(w, "{{\"epoch\":{epoch},\"host\":{host}}}")
    })
    .map_err(write_failed)
}

/// **Kept for the frozen benchmark only** (see [`write_json_checkpoint`]):
/// the newest `.json` checkpoint that parses, as `(epoch, host JSON)`,
/// falling back across older ones. Binary checkpoints are not JSON and are
/// not looked at; everything else loads through [`load_checkpoint`].
#[doc(hidden)]
pub fn load_latest(dir: &Path) -> Result<(u64, Json), StoreError> {
    load_newest(dir, |epoch, format, path| {
        (format == Format::Json).then(|| read_json_checkpoint(epoch, path))
    })
}

/// Remove what a crash between a checkpoint's create and its rename leaves
/// behind: `checkpoint-*.tmp` (a whole checkpoint's worth of bytes each,
/// and nothing else ever lists them). Only safe where no checkpoint write
/// is in flight — recovery, and the writer's own compaction.
pub fn remove_stale_tmp(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if name
            .to_str()
            .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".tmp"))
        {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Drop checkpoints older than `epoch` (both formats), stale temp files,
/// and every WAL segment whose frames all fall at or before `epoch` (see
/// module docs).
pub fn compact(dir: &Path, epoch: u64) -> io::Result<()> {
    for (e, _, path) in list_checkpoints(dir)? {
        if e < epoch {
            fs::remove_file(path)?;
        }
    }
    remove_stale_tmp(dir)?;
    let segments = wal::list_segments(dir)?;
    for i in 0..segments.len().saturating_sub(1) {
        let next_start = segments[i + 1].0;
        if next_start <= epoch + 1 {
            fs::remove_file(&segments[i].1)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits_equal, small_host, tmpdir, window};
    use tsvd_rt::json::ToJson;

    /// A host `k` windows past [`small_host`].
    fn host_at(k: u32) -> TenantHost {
        let mut h = small_host();
        for i in 0..k {
            h.apply_batch(&window(i));
        }
        h
    }

    fn encode(host: &TenantHost) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_host(&mut bytes, host.batches_recorded(), host).unwrap();
        bytes
    }

    fn epochs(dir: &Path) -> Vec<(u64, Format)> {
        list_checkpoints(dir)
            .unwrap()
            .into_iter()
            .map(|(e, f, _)| (e, f))
            .collect()
    }

    #[test]
    fn a_host_round_trips_bitwise_and_its_bytes_are_deterministic() {
        let host = host_at(3);
        let bytes = encode(&host);
        assert_eq!(bytes, encode(&host), "one host, two encodings");
        let (epoch, back) = read_host(&bytes[..]).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(back.to_json().to_string(), host.to_json().to_string());
        assert_eq!(encode(&back), bytes, "decode then encode changed bytes");
        // One graph section, then the tenant's PPR states, matrix, tree,
        // rest — and nothing in the file but the header and their frames.
        let mut reader = SectionReader::open(&bytes[..]).unwrap();
        let (mut buf, mut tags, mut framed) = (Vec::new(), Vec::new(), CHECKPOINT_HEADER_LEN);
        while let Some(section) = reader.next_section(&mut buf).unwrap() {
            tags.push(section as u8);
            framed += 9 + buf.len() + 8;
        }
        assert_eq!(tags, b"GPMTR");
        assert_eq!(framed, bytes.len());
        // Smaller than the text it replaces even here, where most values
        // are one- and two-digit integers (at serving sizes: 26 MB vs 60).
        let text = host.to_json().to_string().len();
        assert!(bytes.len() < text, "{} vs {text}", bytes.len());
    }

    #[test]
    fn a_header_naming_another_version_is_refused_with_a_typed_error() {
        let bytes = encode(&host_at(2));
        for version in [1, 2, CHECKPOINT_VERSION + 1] {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&u32::to_le_bytes(version));
            let want = format!("unsupported checkpoint version {version}");
            match read_host(&other[..]).map_err(StoreError::from) {
                Err(StoreError::BadCheckpoint(why)) => assert_eq!(why, want),
                other => panic!("expected BadCheckpoint, got {:?}", other.err()),
            }
            let dir = tmpdir("ckpt-version");
            fs::write(checkpoint_path(&dir, 2, Format::Bin), &other).unwrap();
            match load_checkpoint(&dir) {
                Err(StoreError::BadCheckpoint(why)) => assert!(why.contains(&want), "{why}"),
                other => panic!("expected BadCheckpoint, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn a_json_checkpoint_naming_a_removed_variant_fails_recovery_typed() {
        let text = host_at(2).to_json().to_string();
        for (from, to, variant) in [
            (
                r#"{"Lazy":{"delta":0.4}}"#,
                r#"{"LazyNnz":{"threshold":0.5}}"#,
                "LazyNnz",
            ),
            (r#""Randomized""#, r#""Lanczos""#, "Lanczos"),
        ] {
            assert!(text.contains(from), "fixture lost {from}");
            let legacy = Json::parse(&text.replace(from, to)).unwrap();
            let dir = tmpdir("ckpt-removed-variant");
            write_json_checkpoint(&dir, 2, &legacy).unwrap();
            match crate::recover(crate::StoreConfig::new(&dir)) {
                Err(StoreError::BadCheckpoint(why)) => {
                    assert!(why.contains(&format!("variant `{variant}`")), "{why}")
                }
                other => panic!("expected BadCheckpoint, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn latest_valid_checkpoint_wins_with_fallback() {
        let dir = tmpdir("ckpt-fallback");
        write_checkpoint(&dir, 3, &host_at(3)).unwrap();
        write_checkpoint(&dir, 7, &host_at(7)).unwrap();
        let (e, host) = load_checkpoint(&dir).unwrap();
        assert_eq!(e, 7);
        assert!(bits_equal(&host, &host_at(7)));
        // Damage the newest: the older one is the recovery point.
        let newest = checkpoint_path(&dir, 7, Format::Bin);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&newest, &bytes).unwrap();
        let (e, host) = load_checkpoint(&dir).unwrap();
        assert_eq!(e, 3);
        assert!(bits_equal(&host, &host_at(3)));
        // Damage both: typed failure naming the newest file, not a panic.
        fs::write(checkpoint_path(&dir, 3, Format::Bin), b"").unwrap();
        match load_checkpoint(&dir) {
            Err(StoreError::BadCheckpoint(why)) => assert!(why.contains("0007.bin"), "{why}"),
            other => panic!("expected BadCheckpoint, got {:?}", other.err()),
        }
    }

    #[test]
    fn the_same_epoch_in_both_formats_loads_binary_first_and_json_as_fallback() {
        let dir = tmpdir("ckpt-precedence");
        // Two different hosts under one epoch number would never happen;
        // here it is how the test tells which file was read: only `b` ever
        // saw window 7's insert.
        let (a, mut b) = (host_at(2), small_host());
        b.apply_batch(&window(7));
        b.apply_batch(&window(8));
        let is_b = |h: &TenantHost| h.graph().has_edge(7, 32);
        assert!(is_b(&b) && !is_b(&a));
        write_checkpoint(&dir, 2, &a).unwrap();
        write_json_checkpoint(&dir, 2, &b.to_json()).unwrap();
        assert_eq!(epochs(&dir), vec![(2, Format::Json), (2, Format::Bin)]);
        assert!(!is_b(&load_checkpoint(&dir).unwrap().1));
        let bin = checkpoint_path(&dir, 2, Format::Bin);
        let len = fs::metadata(&bin).unwrap().len();
        File::options()
            .write(true)
            .open(&bin)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        assert!(is_b(&load_checkpoint(&dir).unwrap().1));
        // An older binary checkpoint ranks below a newer JSON one.
        write_checkpoint(&dir, 1, &host_at(1)).unwrap();
        assert!(is_b(&load_checkpoint(&dir).unwrap().1));
    }

    #[test]
    fn a_checkpoint_that_is_not_what_its_name_says_is_rejected() {
        for format in [Format::Bin, Format::Json] {
            let dir = tmpdir("ckpt-mismatch");
            let host = host_at(5);
            match format {
                Format::Bin => write_checkpoint(&dir, 5, &host).unwrap(),
                Format::Json => write_json_checkpoint(&dir, 5, &host.to_json()).unwrap(),
            }
            assert_eq!(load_checkpoint(&dir).unwrap().0, 5);
            fs::rename(
                checkpoint_path(&dir, 5, format),
                checkpoint_path(&dir, 9, format),
            )
            .unwrap();
            assert!(matches!(
                load_checkpoint(&dir),
                Err(StoreError::BadCheckpoint(_))
            ));
        }
        // Header and name agree, the host inside is at another epoch.
        let dir = tmpdir("ckpt-mismatch");
        let mut bytes = Vec::new();
        write_host(&mut bytes, 4, &host_at(5)).unwrap();
        fs::write(checkpoint_path(&dir, 4, Format::Bin), bytes).unwrap();
        assert!(matches!(
            load_checkpoint(&dir),
            Err(StoreError::BadCheckpoint(_))
        ));
    }

    #[test]
    fn the_compat_json_writer_is_byte_identical_to_the_tree_it_stopped_cloning() {
        let dir = tmpdir("ckpt-compat");
        let host = Json::object([
            ("mark", Json::Int(7)),
            ("rows", Json::Arr(vec![Json::Num(0.1), Json::Null])),
            ("name", Json::Str("quote\" and \\ slash".into())),
        ]);
        write_json_checkpoint(&dir, 12, &host).unwrap();
        let old = Json::object([("epoch", Json::Int(12)), ("host", host.clone())]).to_string();
        let path = checkpoint_path(&dir, 12, Format::Json);
        assert_eq!(fs::read_to_string(path).unwrap(), old);
        assert_eq!(load_latest(&dir).unwrap(), (12, host));
        // The compat loader falls back across JSON files and never looks
        // at a binary one.
        write_checkpoint(&dir, 20, &host_at(20)).unwrap();
        fs::write(checkpoint_path(&dir, 15, Format::Json), b"{ not json").unwrap();
        assert_eq!(load_latest(&dir).unwrap().0, 12);
        fs::write(checkpoint_path(&dir, 12, Format::Json), b"").unwrap();
        assert!(matches!(
            load_latest(&dir),
            Err(StoreError::BadCheckpoint(_))
        ));
        assert!(matches!(
            load_latest(&tmpdir("ckpt-compat-empty")),
            Err(StoreError::NoCheckpoint)
        ));
    }

    #[test]
    fn compaction_drops_covered_segments_old_checkpoints_of_both_formats_and_stale_tmp() {
        let dir = tmpdir("ckpt-compact");
        // Segments starting at epochs 1, 4, 8 — frames 1..=3, 4..=7, 8...
        for start in [1u64, 4, 8] {
            fs::write(wal::segment_path(&dir, start), b"").unwrap();
        }
        write_json_checkpoint(&dir, 2, &host_at(2).to_json()).unwrap();
        write_checkpoint(&dir, 3, &host_at(3)).unwrap();
        write_checkpoint(&dir, 5, &host_at(5)).unwrap();
        let torn = dir.join("checkpoint-00000000000000000006.bin.tmp");
        fs::write(&torn, b"TSVDCKPT half a checkpo").unwrap();
        compact(&dir, 5).unwrap();
        // Segment 1 covers 1..=3 ≤ 5: gone. Segment 4 covers 4..=7 — frame
        // 6 and 7 are > 5, kept. Segment 8 is the tail, kept.
        let starts = |dir: &Path| -> Vec<u64> {
            wal::list_segments(dir)
                .unwrap()
                .into_iter()
                .map(|(s, _)| s)
                .collect()
        };
        assert_eq!(starts(&dir), vec![4, 8]);
        assert_eq!(epochs(&dir), vec![(5, Format::Bin)]);
        assert!(!torn.exists(), "stale temp file survived compaction");
        // A checkpoint at 7 covers segment 4..=7 too; 8 stays as the tail.
        compact(&dir, 7).unwrap();
        assert_eq!(starts(&dir), vec![8]);
    }
}
