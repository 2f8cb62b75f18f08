//! The checkpoint file: a whole [`TenantHost`] as a header and a run of
//! binary, checksummed sections — what `tsvd-store` writes to disk and
//! recovers from, and what a `GetCheckpoint` reply carries to a follower.
//! One framing for both, so a re-seeded follower decodes with the reader
//! recovery uses.
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic      "TSVDCKPT"
//! 8       4     version    CHECKPOINT_VERSION (currently 3)
//! 12      8     epoch      the host's record-once counter (on disk, the
//!                          epoch in the file name too)
//! 20      …     sections   back to back until the end of the file
//!
//! one section:
//! 0       1     tag        which HostSection: 'G' 'P' 'M' 'T' 'R'
//! 1       8     len        payload length in bytes
//! 9       len   payload    rt::bin encoding (LE, raw IEEE-754 bits, maps
//!                          as key-sorted runs)
//! 9+len   8     checksum   rt::bin::checksum(payload), which mixes `len` in
//! ```
//!
//! The sections, in file order ([`HostSection`]):
//!
//! ```text
//! G  graph    shared graph · batches_recorded · shard count per tenant
//! then per tenant, in registration order:
//! P  shard    one per PPR replica: row range + every source's (p, r) state
//! M  matrix   blocked proximity matrix
//! T  tree     block caches + level factors
//! R  rest     id · sources · embedding · counters · timings
//! ```
//!
//! The writer streams: [`TenantHost::encode_sections`] fills **one reused
//! section buffer** straight from the live host and each section goes out
//! to the writer as it is done, so the extra memory a checkpoint costs is
//! its largest section (≈ 6 MB of a 26 MB file), not the file — and no
//! `Json` tree or text is ever built. The reader mirrors it: a section is
//! read into the same kind of buffer, **verified, then decoded**. Every
//! byte is checked by something — magic, version and tag against the one
//! value they may have, `len` against the bytes that are really there (it
//! bounds a read, never an allocation), the payload and `len` by the
//! checksum — and inside a payload every count is checked against the
//! bytes that remain before anything is sized from it (`rt::bin`). Damaged
//! bytes are a typed [`CheckpointError::Bad`], never a panic and never a
//! host that differs silently.

use std::fmt;
use std::io::{self, Read, Write};

use tsvd_rt::bin::{checksum, BinError};

use crate::tenant::{HostSection, TenantHost};

/// First eight bytes of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"TSVDCKPT";

/// Checkpoint format version. Older files are refused: version 1 (whose
/// tree section held the removed incremental-repair factors) and version 2
/// (whose `UpdatePolicy` tags counted the removed nnz-count policy, so
/// `ChangedOnly` and `All` were 2 and 3).
pub const CHECKPOINT_VERSION: u32 = 3;

/// Bytes in front of the first section: magic, version, epoch.
pub const CHECKPOINT_HEADER_LEN: usize = 20;

/// Why checkpoint bytes could not be read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The reader underneath failed.
    Io(io::Error),
    /// The bytes are not a whole, intact checkpoint (the reason says where).
    Bad(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::Bad(why) => write!(f, "bad checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// A section that verified but does not decode.
impl From<BinError> for CheckpointError {
    fn from(e: BinError) -> CheckpointError {
        CheckpointError::Bad(e.0)
    }
}

fn bad(why: impl Into<String>) -> CheckpointError {
    CheckpointError::Bad(why.into())
}

/// Write `host`'s checkpoint for `epoch` to `w`: header, then every
/// section as `tag · len · payload · checksum` (see module docs). Holds
/// one section at a time.
pub fn write_host(w: &mut impl Write, epoch: u64, host: &TenantHost) -> io::Result<()> {
    w.write_all(&CHECKPOINT_MAGIC)?;
    w.write_all(&CHECKPOINT_VERSION.to_le_bytes())?;
    w.write_all(&epoch.to_le_bytes())?;
    let mut buf = Vec::new();
    host.encode_sections(&mut buf, |section, payload| {
        w.write_all(&[section as u8])?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(payload)?;
        w.write_all(&checksum(payload).to_le_bytes())
    })
}

/// Reads a checkpoint one verified section at a time — what [`read_host`]
/// decodes from, and the way to look inside a file without decoding it
/// (section sizes, a byte-level diff of two checkpoints).
pub struct SectionReader<R> {
    r: R,
    epoch: u64,
}

impl<R: Read> SectionReader<R> {
    /// Check the header and position at the first section.
    pub fn open(mut r: R) -> Result<Self, CheckpointError> {
        let mut head = [0u8; CHECKPOINT_HEADER_LEN];
        if read_up_to(&mut r, &mut head)? != head.len() {
            return Err(bad("file ends inside the header"));
        }
        if head[..8] != CHECKPOINT_MAGIC {
            return Err(bad("not a checkpoint file (bad magic)"));
        }
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(bad(format!("unsupported checkpoint version {version}")));
        }
        let epoch = u64::from_le_bytes(head[12..20].try_into().expect("8 bytes"));
        Ok(SectionReader { r, epoch })
    }

    /// The epoch the header names.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Read the next section's payload into `buf` (replacing its content)
    /// and verify it; `None` at a clean end of file. `buf` grows with the
    /// bytes that are actually read, so a corrupt `len` can cut a read
    /// short but cannot size an allocation.
    pub fn next_section(
        &mut self,
        buf: &mut Vec<u8>,
    ) -> Result<Option<HostSection>, CheckpointError> {
        let mut head = [0u8; 9];
        match read_up_to(&mut self.r, &mut head)? {
            0 => return Ok(None),
            9 => {}
            _ => return Err(bad("file ends inside a section header")),
        }
        let section = HostSection::from_tag(head[0])
            .ok_or_else(|| bad(format!("unknown section tag {:#04x}", head[0])))?;
        let len = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
        buf.clear();
        let got = (&mut self.r).take(len).read_to_end(buf)?;
        let mut sum = [0u8; 8];
        if got as u64 != len || read_up_to(&mut self.r, &mut sum)? != sum.len() {
            return Err(bad(format!("file ends inside a {section:?} section")));
        }
        if checksum(buf) != u64::from_le_bytes(sum) {
            return Err(bad(format!("{section:?} section fails its checksum")));
        }
        Ok(Some(section))
    }
}

/// Fill `buf` from `r` as far as the input goes; the count read.
fn read_up_to(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Read a checkpoint written by [`write_host`]: `(header epoch, host)`.
/// Each section is verified before it is decoded, and the input must end
/// with the host's last section.
pub fn read_host(r: impl Read) -> Result<(u64, TenantHost), CheckpointError> {
    let mut reader = SectionReader::open(r)?;
    let host = TenantHost::decode_sections(|want, buf| match reader.next_section(buf)? {
        Some(got) if got == want => Ok(()),
        Some(got) => Err(bad(format!("expected a {want:?} section, found {got:?}"))),
        None => Err(bad(format!(
            "file ends where a {want:?} section should start"
        ))),
    })?;
    if reader.next_section(&mut Vec::new())?.is_some() {
        return Err(bad("sections continue past the end of the host"));
    }
    Ok((reader.epoch, host))
}
