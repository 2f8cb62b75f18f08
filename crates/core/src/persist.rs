//! Pipeline-state persistence.
//!
//! A production deployment updates embeddings periodically (the paper:
//! "node embeddings are usually updated daily or weekly"); between runs,
//! the PPR states, proximity matrix, and Tree-SVD caches must survive a
//! restart — rebuilding them from the raw graph costs exactly the static
//! pass the dynamic algorithm exists to avoid. The whole
//! [`TreeSvdPipeline`](crate::TreeSvdPipeline) saves losslessly, as the
//! `rt::bin` encoding of its parts (every `f64` as its bits): a reloaded
//! pipeline produces bit-identical embeddings and continues incremental
//! updates from where it stopped.

use crate::pipeline::TreeSvdPipeline;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use tsvd_rt::bin::{BinError, Cursor, Decode, Encode};

/// Persistence failures.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a saved pipeline (corrupt, truncated or another
    /// format).
    Decode(BinError),
    /// A partial write or failed rename during an atomic replace. The
    /// destination file was never touched; at worst a `.tmp` sibling may
    /// be left behind (and is removed on a best-effort basis).
    Atomic {
        /// Which step failed: `"write"` (create/write/fsync of the temp
        /// file) or `"rename"` (the final rename over the destination).
        stage: &'static str,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Decode(e) => write!(f, "not a saved pipeline: {e}"),
            PersistError::Atomic { stage, source } => {
                write!(f, "atomic replace failed at {stage}: {source}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<BinError> for PersistError {
    fn from(e: BinError) -> Self {
        PersistError::Decode(e)
    }
}

/// Write `path` atomically: `fill` writes a `.tmp` sibling through a
/// buffered writer (so nothing has to hold the whole file in memory
/// first), which is fsynced and renamed over the destination, and then the
/// directory is fsynced. A crash at any point leaves either the old file
/// or the new file, never a torn mix. Failures surface as
/// [`PersistError::Atomic`]; single-writer only (concurrent writers to one
/// `path` race on the same temp name).
pub fn atomic_write_with(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), PersistError> {
    let file_name = path.file_name().ok_or_else(|| PersistError::Atomic {
        stage: "write",
        source: std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("path has no file name: {}", path.display()),
        ),
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let tmp = {
        let mut name = file_name.to_os_string();
        name.push(".tmp");
        dir.join(name)
    };
    let write = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        fill(&mut w)?;
        // `into_inner` flushes; dropping the writer would discard the error.
        let f = w.into_inner().map_err(|e| e.into_error())?;
        f.sync_all()
    })();
    if let Err(source) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(PersistError::Atomic {
            stage: "write",
            source,
        });
    }
    if let Err(source) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(PersistError::Atomic {
            stage: "rename",
            source,
        });
    }
    // Make the rename itself durable. Directory fsync is best-effort: it
    // can fail on filesystems that refuse to open directories for sync,
    // which does not affect the data already fsync'd above.
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

impl TreeSvdPipeline {
    /// Write the full pipeline state to `path`, atomically: the five parts
    /// [`TreeSvdPipeline::from_parts`] takes, in its order, each its
    /// `rt::bin` encoding. A crash mid-save leaves the previous file intact
    /// rather than a torn one.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let parts: [&dyn Encode; 5] = [
            self.ppr(),
            self.matrix(),
            self.tree(),
            self.embedding(),
            &self.timings(),
        ];
        atomic_write_with(path, |w| {
            let mut buf = Vec::new();
            for part in parts {
                buf.clear();
                part.encode(&mut buf);
                w.write_all(&buf)?;
            }
            Ok(())
        })
    }

    /// Restore a pipeline previously written with [`TreeSvdPipeline::save`].
    pub fn load(path: &Path) -> Result<TreeSvdPipeline, PersistError> {
        let bytes = std::fs::read(path)?;
        let mut cursor = Cursor::new(&bytes);
        let c = &mut cursor;
        let pipe = TreeSvdPipeline::from_parts(
            Decode::decode(c)?,
            Decode::decode(c)?,
            Decode::decode(c)?,
            Decode::decode(c)?,
            Decode::decode(c)?,
        );
        cursor.finish()?;
        Ok(pipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeSvdConfig;
    use tsvd_graph::{DynGraph, EdgeEvent};
    use tsvd_ppr::PprConfig;
    use tsvd_rt::rng::StdRng;
    use tsvd_rt::rng::{Rng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: usize, m: usize) -> DynGraph {
        let mut g = DynGraph::with_nodes(n);
        while g.num_edges() < m {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                g.insert_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn save_load_round_trips_and_continues_updates() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = random_graph(&mut rng, 120, 500);
        let sources: Vec<u32> = (0..10).collect();
        let cfg = TreeSvdConfig {
            dim: 8,
            branching: 2,
            num_blocks: 4,
            ..Default::default()
        };
        let mut pipe = TreeSvdPipeline::new(&g, &sources, PprConfig::default(), cfg);
        // Mutate once so the caches are non-trivial.
        pipe.update(
            &mut g,
            &[EdgeEvent::insert(0, 119), EdgeEvent::insert(1, 118)],
        );

        let dir = std::env::temp_dir().join(format!("tsvd_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.bin");
        pipe.save(&path).expect("save");
        let mut restored = TreeSvdPipeline::load(&path).expect("load");
        // A file cut short by one byte is refused, not half-loaded.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let cut = TreeSvdPipeline::load(&path).unwrap_err();
        assert!(matches!(cut, PersistError::Decode(_)), "{cut}");
        std::fs::remove_dir_all(&dir).ok();

        // Identical embedding after reload.
        let diff = pipe
            .embedding()
            .left()
            .sub(&restored.embedding().left())
            .max_abs();
        assert_eq!(diff, 0.0, "reload must be lossless");

        // Both continue identically through the same future events.
        let mut g2 = g.clone();
        let events: Vec<EdgeEvent> = (0..15)
            .map(|i| EdgeEvent::insert(i as u32, (i + 60) as u32))
            .collect();
        let s1 = pipe.update(&mut g, &events);
        let s2 = restored.update(&mut g2, &events);
        assert_eq!(s1, s2, "update stats diverged after reload");
        let diff = pipe
            .embedding()
            .left()
            .sub(&restored.embedding().left())
            .max_abs();
        assert_eq!(diff, 0.0, "post-update embeddings diverged");
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("tsvd_garbage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.bin");
        std::fs::write(&path, b"{not a pipeline at all").unwrap();
        let err = TreeSvdPipeline::load(&path).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(err, PersistError::Decode(_)));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = TreeSvdPipeline::load(Path::new("/nonexistent/tsvd.bin")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn atomic_write_replaces_without_leaving_tmp() {
        let dir = std::env::temp_dir().join(format!("tsvd_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        atomic_write_with(&path, |w| w.write_all(b"old")).unwrap();
        atomic_write_with(&path, |w| w.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(
            !dir.join("state.json.tmp").exists(),
            "temp file must not survive a successful replace"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_failure_is_typed_and_leaves_target_untouched() {
        // The parent directory does not exist, so the temp-file create fails
        // before anything could touch the (equally nonexistent) target.
        let err = atomic_write_with(Path::new("/nonexistent/tsvd/state.json"), |w| {
            w.write_all(b"x")
        })
        .unwrap_err();
        assert!(matches!(err, PersistError::Atomic { stage: "write", .. }));
    }

    #[test]
    fn a_streamed_write_that_fails_midway_keeps_the_old_file_and_no_tmp() {
        let dir = std::env::temp_dir().join(format!("tsvd_atomic_with_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        atomic_write_with(&path, |w| {
            w.write_all(b"first ")?;
            w.write_all(b"version")
        })
        .unwrap();
        let err = atomic_write_with(&path, |w| {
            w.write_all(b"half of the sec")?;
            Err(std::io::Error::other("encoder gave up"))
        })
        .unwrap_err();
        assert!(matches!(err, PersistError::Atomic { stage: "write", .. }));
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        assert!(!dir.join("state.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
