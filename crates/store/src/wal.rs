//! WAL segment files: checksummed, length-prefixed frames of flush
//! windows. The payload is `rt::bin`'s encoding of the window's
//! `[EdgeEvent]`; the seal is byte-at-a-time FNV-1a
//! ([`tsvd_rt::bin::fnv1a64`]), which segments on disk already carry.
//!
//! # Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0x4C57 ("WL")
//! 2       1     version      WAL_VERSION (currently 1)
//! 3       1     kind         FRAME_WINDOW (1) — the only kind so far
//! 4       8     epoch        global window counter this frame commits
//! 12      4     payload_len  must equal 4 + 9·n exactly
//! 16      8     checksum     FNV-1a 64 over header bytes [2, 16) then the
//!                            payload — every field except the magic is in
//!                            the checksummed range or is the checksum
//! 24      len   payload      rt::bin of the window's [EdgeEvent]: u32 n,
//!                            then n × (u32 u, u32 v, u8 kind) with kind
//!                            0=insert 1=delete
//! ```
//!
//! A segment file `wal-<start_epoch>.seg` is a plain concatenation of
//! frames with contiguous epochs starting at `start_epoch` (20-digit
//! zero-padded, so lexicographic order is epoch order).
//!
//! # The torn-tail discipline
//!
//! The writer appends and fsyncs one frame at a time, so the only state a
//! crash can leave behind is a *prefix* of a frame at the end of the
//! **last** segment. [`scan_segment`] therefore distinguishes:
//!
//! * trailing bytes of the last segment too short to be a frame, or a
//!   valid header whose payload is cut off **with nothing decodable
//!   after it** — a torn tail: clean stop at the longest valid prefix;
//! * the same shapes anywhere else — interior corruption: a frame that
//!   decodes wrong *in front of* durable data can never be a crash
//!   artefact, so it is a typed [`StoreError::Corrupt`], never a silent
//!   truncation of committed windows. The "anything decodable after it"
//!   probe is what catches a flipped `payload_len` byte that would
//!   otherwise masquerade as a truncated tail;
//! * a *complete* frame that fails its checksum — corruption even at the
//!   tail (truncation shortens a frame; it cannot rewrite its bytes).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use tsvd_graph::EdgeEvent;
use tsvd_rt::bin::{self, fnv1a64, Cursor, Decode, Encode, CHECKSUM_OFFSET};

use crate::StoreError;

/// First two bytes of every WAL frame: "WL" little-endian.
pub const WAL_MAGIC: u16 = 0x4C57;

/// Frame format version.
pub const WAL_VERSION: u8 = 1;

/// Frame kind: one post-coalesce flush window.
pub const FRAME_WINDOW: u8 = 1;

/// Fixed frame-header size in bytes.
pub const WAL_HEADER_LEN: usize = 24;

/// Maximum accepted payload size (64 MiB) — a header announcing more is
/// corrupt by definition, long before allocation.
pub const WAL_MAX_PAYLOAD: u32 = 64 << 20;

/// Payload length of a frame carrying `n` events, if it fits under `cap` —
/// computed in `usize` with checked steps, so no event count can wrap its
/// way past the check.
fn payload_len(n: usize, cap: u32) -> Option<u32> {
    let len = n.checked_mul(9)?.checked_add(4)?;
    u32::try_from(len).ok().filter(|&len| len <= cap)
}

/// Append one frame for `epoch` carrying `events` to `out`, or refuse with
/// [`io::ErrorKind::InvalidInput`], leaving `out` as it was, when the
/// window's payload would exceed [`WAL_MAX_PAYLOAD`] — a frame
/// [`scan_segment`] would reject as corrupt must never be written.
pub fn encode_frame(epoch: u64, events: &[EdgeEvent], out: &mut Vec<u8>) -> io::Result<()> {
    encode_frame_capped(epoch, events, WAL_MAX_PAYLOAD, out)
}

/// [`encode_frame`] against an explicit payload cap (the boundary is unit
/// tested at a cap a test can afford to fill).
fn encode_frame_capped(
    epoch: u64,
    events: &[EdgeEvent],
    cap: u32,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    let payload_len = payload_len(events.len(), cap).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "window of {} events exceeds the {cap}-byte WAL frame payload cap",
                events.len()
            ),
        )
    })?;
    let start = out.len();
    out.reserve(WAL_HEADER_LEN + payload_len as usize);
    WAL_MAGIC.encode(out);
    WAL_VERSION.encode(out);
    FRAME_WINDOW.encode(out);
    epoch.encode(out);
    payload_len.encode(out);
    0u64.encode(out); // checksum backfilled below
    events.encode(out);
    let crc = seal(&out[start + 2..start + 16], &out[start + WAL_HEADER_LEN..]);
    out[start + 16..start + 24].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// A frame's checksum: FNV-1a over header bytes `[2, 16)`, then the
/// payload.
fn seal(header_tail: &[u8], payload: &[u8]) -> u64 {
    fnv1a64(fnv1a64(CHECKSUM_OFFSET, header_tail), payload)
}

/// Result of scanning one segment.
pub struct ScannedSegment {
    /// Decoded `(epoch, window)` frames, in file order.
    pub frames: Vec<(u64, Vec<EdgeEvent>)>,
    /// Byte length of the longest valid frame prefix (equals the file
    /// length unless the tail was torn).
    pub valid_len: u64,
    /// Whether a torn tail was dropped (only ever set on the last
    /// segment).
    pub torn: bool,
}

/// Outcome of inspecting the frame at one offset.
enum FrameAt {
    Ok {
        epoch: u64,
        events: Vec<EdgeEvent>,
        len: usize,
    },
    /// Not enough bytes for a complete frame; a valid header may or may
    /// not be present.
    Incomplete,
    Bad(&'static str),
}

fn frame_at(bytes: &[u8]) -> FrameAt {
    if bytes.len() < WAL_HEADER_LEN {
        return FrameAt::Incomplete;
    }
    let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
    if magic != WAL_MAGIC {
        return FrameAt::Bad("bad frame magic");
    }
    if bytes[2] != WAL_VERSION {
        return FrameAt::Bad("unsupported frame version");
    }
    if bytes[3] != FRAME_WINDOW {
        return FrameAt::Bad("unknown frame kind");
    }
    let len = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if len > WAL_MAX_PAYLOAD {
        return FrameAt::Bad("oversized frame");
    }
    let total = WAL_HEADER_LEN + len as usize;
    if bytes.len() < total {
        return FrameAt::Incomplete;
    }
    let payload = &bytes[WAL_HEADER_LEN..total];
    let want = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if seal(&bytes[2..16], payload) != want {
        return FrameAt::Bad("frame checksum mismatch");
    }
    // Payload shape: the count must account for the length exactly.
    let Ok(n) = u32::decode(&mut Cursor::new(payload)) else {
        return FrameAt::Bad("payload shorter than its count");
    };
    if payload_len(n as usize, WAL_MAX_PAYLOAD) != Some(len) {
        return FrameAt::Bad("payload length does not match event count");
    }
    // Every event is whole, so only a kind byte can fail to decode.
    let Ok(events) = bin::decode_all::<Vec<EdgeEvent>>(payload) else {
        return FrameAt::Bad("bad event kind");
    };
    let epoch = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    FrameAt::Ok {
        epoch,
        events,
        len: total,
    }
}

/// Is there any complete, checksum-valid frame starting anywhere in
/// `bytes`? Used to tell a genuinely torn tail (nothing decodable beyond
/// the incomplete frame) from a flipped length byte in front of durable
/// frames.
fn any_valid_frame_within(bytes: &[u8]) -> bool {
    let mut o = 0;
    while o + WAL_HEADER_LEN <= bytes.len() {
        // Cheap magic prefilter before attempting a full decode.
        if u16::from_le_bytes([bytes[o], bytes[o + 1]]) == WAL_MAGIC {
            if let FrameAt::Ok { .. } = frame_at(&bytes[o..]) {
                return true;
            }
        }
        o += 1;
    }
    false
}

/// Decode every frame in one segment, applying the torn-tail discipline
/// (module docs). `is_last` marks the newest segment — the only place a
/// crash tail can legitimately live.
pub fn scan_segment(name: &str, bytes: &[u8], is_last: bool) -> Result<ScannedSegment, StoreError> {
    let corrupt = |offset: usize, what: &'static str| StoreError::Corrupt {
        segment: name.to_string(),
        offset: offset as u64,
        what,
    };
    let mut frames = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            return Ok(ScannedSegment {
                frames,
                valid_len: pos as u64,
                torn: false,
            });
        }
        match frame_at(&bytes[pos..]) {
            FrameAt::Ok { epoch, events, len } => {
                frames.push((epoch, events));
                pos += len;
            }
            FrameAt::Incomplete => {
                if !is_last {
                    return Err(corrupt(pos, "incomplete frame in non-final segment"));
                }
                if any_valid_frame_within(&bytes[pos + 1..]) {
                    return Err(corrupt(pos, "undecodable frame in front of valid frames"));
                }
                return Ok(ScannedSegment {
                    frames,
                    valid_len: pos as u64,
                    torn: true,
                });
            }
            FrameAt::Bad(what) => return Err(corrupt(pos, what)),
        }
    }
}

/// Path of the segment whose first frame carries `start_epoch`.
pub fn segment_path(dir: &Path, start_epoch: u64) -> PathBuf {
    dir.join(format!("wal-{start_epoch:020}.seg"))
}

/// All WAL segments in `dir`, sorted by start epoch (= file order).
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        else {
            continue;
        };
        let Ok(start) = stem.parse::<u64>() else {
            continue;
        };
        out.push((start, entry.path()));
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(epoch: u64, events: &[EdgeEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(epoch, events, &mut out).unwrap();
        out
    }

    fn ev(k: u32) -> EdgeEvent {
        if k.is_multiple_of(2) {
            EdgeEvent::insert(k, k + 1)
        } else {
            EdgeEvent::delete(k, k + 1)
        }
    }

    #[test]
    fn frames_keep_their_golden_bytes() {
        // `bin::checksum` of two whole frames, header and seal included:
        // segments already on disk hold these bytes, so they never change.
        let mixed = [
            EdgeEvent::insert(0, 1),
            EdgeEvent::delete(1, 2),
            EdgeEvent::insert(u32::MAX, 7),
            EdgeEvent::delete(5, u32::MAX),
        ];
        let got = [
            bin::checksum(&frame_bytes(1, &[])),
            bin::checksum(&frame_bytes(0x0102_0304_0506_0708, &mixed)),
        ];
        assert_eq!(got, [0xc895_bf20_a86e_42ce, 0xd86f_cdd7_fabe_e899]);
    }

    #[test]
    fn frames_round_trip_including_empty_windows() {
        let mut buf = Vec::new();
        encode_frame(1, &[ev(0), ev(1), ev(2)], &mut buf).unwrap();
        encode_frame(2, &[], &mut buf).unwrap();
        encode_frame(3, &[ev(7)], &mut buf).unwrap();
        let s = scan_segment("t", &buf, true).unwrap();
        assert!(!s.torn);
        assert_eq!(s.valid_len, buf.len() as u64);
        assert_eq!(s.frames.len(), 3);
        assert_eq!(s.frames[0], (1, vec![ev(0), ev(1), ev(2)]));
        assert_eq!(s.frames[1], (2, vec![]));
        assert_eq!(s.frames[2], (3, vec![ev(7)]));
    }

    #[test]
    fn payload_length_is_checked_without_wrapping() {
        let fits = ((WAL_MAX_PAYLOAD - 4) / 9) as usize;
        assert_eq!(
            payload_len(fits, WAL_MAX_PAYLOAD),
            Some(4 + 9 * fits as u32)
        );
        assert_eq!(payload_len(fits + 1, WAL_MAX_PAYLOAD), None);
        // `4 + n as u32 * 9` wraps to a small number here and used to pass.
        assert_eq!(
            payload_len((u32::MAX as usize + 6) / 9, WAL_MAX_PAYLOAD),
            None
        );
        assert_eq!(payload_len(usize::MAX, WAL_MAX_PAYLOAD), None);
        assert_eq!(payload_len(0, WAL_MAX_PAYLOAD), Some(4));
    }

    #[test]
    fn a_window_at_the_cap_round_trips_and_one_more_is_refused() {
        let cap = 4 + 9 * 50;
        let events: Vec<EdgeEvent> = (0..51).map(ev).collect();
        let mut buf = frame_bytes(1, &[ev(0)]);
        encode_frame_capped(2, &events[..50], cap, &mut buf).unwrap();
        let s = scan_segment("t", &buf, true).unwrap();
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.frames[1], (2, events[..50].to_vec()));
        let before = buf.clone();
        let err = encode_frame_capped(3, &events, cap, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(buf, before, "a refused window writes nothing");
    }

    #[test]
    fn truncation_of_the_final_frame_is_a_clean_stop() {
        let mut buf = frame_bytes(1, &[ev(0), ev(1)]);
        let keep = buf.len();
        buf.extend(frame_bytes(2, &[ev(2), ev(3), ev(4)]));
        for cut in keep..buf.len() {
            let s = scan_segment("t", &buf[..cut], true)
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(s.frames.len(), 1, "cut at {cut}");
            assert_eq!(s.valid_len, keep as u64, "cut at {cut}");
            assert_eq!(s.torn, cut != keep);
        }
    }

    #[test]
    fn interior_byte_flips_are_typed_errors() {
        let mut buf = frame_bytes(5, &[ev(0), ev(1)]);
        let interior = buf.len();
        buf.extend(frame_bytes(6, &[ev(2)]));
        buf.extend(frame_bytes(7, &[ev(3), ev(4)]));
        for byte in 0..interior {
            for flip in [0x01u8, 0x80] {
                let mut bad = buf.clone();
                bad[byte] ^= flip;
                let err = scan_segment("t", &bad, true);
                assert!(
                    err.is_err(),
                    "flip {flip:#x} of interior byte {byte} accepted"
                );
            }
        }
    }

    #[test]
    fn partial_tail_in_a_non_final_segment_is_corrupt() {
        let mut buf = frame_bytes(1, &[ev(0)]);
        let keep = buf.len();
        buf.extend(frame_bytes(2, &[ev(1)]));
        let cut = &buf[..buf.len() - 3];
        assert!(scan_segment("t", cut, true).unwrap().torn);
        match scan_segment("t", cut, false) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, keep as u64),
            other => panic!(
                "expected Corrupt, got {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
    }

    #[test]
    fn complete_frame_with_bad_checksum_is_corrupt_even_at_the_tail() {
        let mut buf = frame_bytes(1, &[ev(0)]);
        let last = buf.len() - 1;
        buf[last] ^= 0x40; // payload byte of the final (complete) frame
        assert!(scan_segment("t", &buf, true).is_err());
    }

    #[test]
    fn decoder_never_panics_on_fuzzed_bytes() {
        use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x57A1);
        let mut buf = Vec::new();
        for e in 1..5u64 {
            encode_frame(e, &[ev(e as u32), ev(e as u32 + 9)], &mut buf).unwrap();
        }
        for _ in 0..2000 {
            let mut bad = buf.clone();
            let flips = rng.gen_range(1..6usize);
            for _ in 0..flips {
                let i = rng.gen_range(0..bad.len());
                bad[i] ^= rng.gen_range(1..256usize) as u8;
            }
            let cut = rng.gen_range(0..bad.len() + 1);
            // Must return, never panic; content is unspecified.
            let _ = scan_segment("t", &bad[..cut], true);
            let _ = scan_segment("t", &bad[..cut], false);
        }
        // Pure random noise too.
        for _ in 0..500 {
            let len = rng.gen_range(0..200usize);
            let noise: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256usize) as u8).collect();
            let _ = scan_segment("t", &noise, true);
        }
    }
}
