//! The hermetic binary wire protocol: length-prefixed, versioned,
//! checksummed frames carrying the serving API (`std`-only, no external
//! codecs — consistent with the workspace hermeticity gate). Payloads are
//! written and read through `tsvd_rt::bin` — the codec checkpoints and WAL
//! frames use — so a field has one encoding wherever it travels.
//!
//! # Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0x5654 ("TV")
//! 2       1     version      WIRE_VERSION (currently 5)
//! 3       1     msg_id       message discriminant (see below)
//! 4       8     request_id   client-chosen; echoed verbatim in the reply
//! 12      4     tenant_id    the tenant this request/reply is pinned to
//!                            (0 for single-tenant servers); echoed in the
//!                            reply
//! 16      4     payload_len  ≤ MAX_PAYLOAD, else the frame is rejected
//!                            before any allocation
//! 20      8     checksum     frame_checksum: rt::bin's word-folding sum
//!                            over bytes [2, 20) of the header, continued
//!                            over the payload — any single-byte
//!                            corruption outside the magic field lands in
//!                            the checksummed range or in the checksum
//!                            itself, so it is always detected
//! 28      len   payload      message-specific body (encodings below)
//! ```
//!
//! Version history:
//!
//! * v5 — the `Stats` reply's `ServeStats` no longer has a `num_shards`
//!   key (a tenant is one pipeline, not `R` shards). A v4 decoder needs
//!   every key it knows, so it would read a v5 `Stats` body as `Malformed`;
//!   the version byte makes it fail at the header instead;
//! * v4 — a `Checkpoint` reply carries the bytes of a checkpoint file
//!   (`crate::checkpoint`), not the host as JSON text;
//! * v3 — frames are sealed with [`frame_checksum`], the word-folding sum
//!   `tsvd_rt::bin::checksum_from(checksum(header[2..20]), payload)` that
//!   checkpoint sections are sealed with, instead of byte-at-a-time FNV-1a.
//!   Each word step is a bijection of the running state, so a changed byte
//!   in either range still always changes the sum;
//! * v2 — the header gained the `tenant_id` field.
//!
//! Frames of any other version byte (v1 … v4, …) are rejected with
//! [`WireError::BadVersion`] straight from the header — mixed-version
//! deployments fail closed at the first frame rather than misparsing
//! offsets, checksums or bodies.
//!
//! Request id `0` is reserved for connection-level [`Reply::Error`] frames
//! the server emits when it cannot attribute a fault to a request (e.g. an
//! undecodable frame); clients start their ids at 1.
//!
//! # Streams: one read buffer, one write per burst
//!
//! Every connection loop — the one both fronts share (`net::conn`) and the
//! client's — reads through a [`FrameReader`] (one 64 KiB buffer; a frame that sits
//! whole in it is decoded in place) and writes through a `FrameWriter`
//! (frames are encoded into one reused buffer that leaves in one
//! `write_all`). The serving side's contract:
//!
//! * replies come in request order, one per request, on the request's id;
//! * a reply is held back only while another whole request frame is
//!   already buffered behind it ([`FrameReader::has_buffered_frame`]) and
//!   the buffer is under 64 KiB, so a pipelined burst answers with one
//!   write and **a lone request is never delayed**;
//! * replies buffered ahead of a request that can block
//!   ([`Request::may_block`]: `Flush`, `Shutdown`, `GetCheckpoint`) are
//!   written before it runs;
//! * on `NetFront`, a pipelined run of `TopK` requests (each with another
//!   request buffered behind it, one tenant, up to 64) is answered from
//!   one snapshot: **one `TopK` run shares one epoch**, and every reply in
//!   it is bitwise the answer the request would get alone;
//! * a reply whose payload exceeds [`MAX_PAYLOAD`] is replaced by a
//!   [`Reply::Error`] on the same request id, and the connection stays
//!   open (`FrameWriter::push_reply`).
//!
//! # Message ids and payload encodings
//!
//! | id   | message        | payload |
//! |------|----------------|---------|
//! | 0x01 | `Ping`         | empty |
//! | 0x02 | `SubmitEvents` | `u32 n`, then n × (`u32 u`, `u32 v`, `u8 kind`) with kind 0=insert 1=delete |
//! | 0x03 | `Flush`        | empty |
//! | 0x04 | `GetRows`      | `u32 n`, then n × `u32 node` |
//! | 0x05 | `GetEmbedding` | empty |
//! | 0x06 | `GetStats`     | empty |
//! | 0x07 | `Shutdown`     | empty |
//! | 0x08 | `GetWindows`   | `u64 after_epoch`, `u32 max` |
//! | 0x09 | `GetCheckpoint`| empty |
//! | 0x0A | `TopK`         | `u32 node`, `u32 k` (≤ 2^20), `u8 metric` (0=dot 1=cosine), `u8 has_query`, has_query × (`u32 dim`, dim × `f64`) |
//! | 0x81 | `Pong`         | empty |
//! | 0x82 | `SubmitAck`    | `u64 accepted` |
//! | 0x83 | `FlushAck`     | `u64 epoch` |
//! | 0x84 | `Rows`         | `u64 epoch`, `u64 checksum_bits`, `u32 dim`, `u32 n`, then n × (`u8 present`, present × dim × `f64`) |
//! | 0x85 | `Embedding`    | `u64 epoch`, `u64 checksum_bits`, `u32 dim`, `u32 rows`, rows × `u32 source`, rows·dim × `f64` (row-major) |
//! | 0x86 | `Stats`        | `u32 len`, UTF-8 JSON body (`StatsReply`: the tenant's `ServeStats` plus the `HostStats` rollup; the rt::json codec round-trips every `f64` bitwise; a decoder ignores keys it does not know but needs every key it does, so a body without one of them is `Malformed`) |
//! | 0x87 | `ShutdownAck`  | empty |
//! | 0x88 | `Windows`      | `u64 latest`, `u64 first_epoch`, `u32 n`, then n × (`u32 m`, m × (`u32 u`, `u32 v`, `u8 kind`)) |
//! | 0x89 | `Checkpoint`   | `u64 epoch`, `u32 len`, the bytes of a checkpoint file of the host at `epoch` (`crate::checkpoint`'s format, the one on disk; every `f64` is its bits, so a re-seeded follower continues bit-exact) |
//! | 0x8A | `JournalGap`   | `u64 oldest`, `u64 requested` — typed answer to a `GetWindows` that fell behind the leader's bounded journal (the `Compacted` condition); the puller must re-seed via `GetCheckpoint` |
//! | 0x8B | `TopKReply`    | `u64 epoch`, `u64 checksum_bits`, `u8 found`, `u32 n`, then n × (`u32 node`, `f64 score`) |
//! | 0xFF | `Error`        | `u32 len`, UTF-8 message |
//!
//! Every field is its `rt::bin` encoding (`u32 n` a `Vec`'s count,
//! `u8 has_query` an `Option`'s tag, `u32 len` a `String`'s length); the
//! `f64` runs of `Rows` and `Embedding` have no count (`dim` gives it).
//! `f64`s travel as raw IEEE-754 bits, so a decoded reply is **bitwise
//! identical** to the server-side value — the property the loopback
//! equivalence tests pin. Every decoder checks a count against the
//! remaining payload, at its item's smallest encoding, *before*
//! allocating, rejects unknown discriminants, and requires the payload to
//! be consumed exactly, so corrupted or truncated frames fail closed.

use std::io::{self, BufRead, BufReader, Read, Write};

use tsvd_graph::EdgeEvent;
use tsvd_rt::bin::{self, BinError, Cursor, Decode, Encode};
use tsvd_rt::json::{FromJson, Json, ToJson};

use crate::query::Metric;
use crate::stats::StatsReply;

/// First two bytes of every frame: "TV" little-endian.
pub const WIRE_MAGIC: u16 = 0x5654;

/// Protocol version stamped into (and required of) every frame. Version 5
/// drops `num_shards` from the `Stats` reply; version 4 carries a
/// `Checkpoint` reply as a checkpoint file instead of JSON; version 3
/// switched the frame checksum to [`frame_checksum`]'s word fold; version
/// 2 added the `tenant_id` header field. Other versions are rejected.
pub const WIRE_VERSION: u8 = 5;

/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 28;

/// Maximum accepted payload size (64 MiB). A frame announcing more is
/// rejected from its header alone — no allocation is attempted.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Why a frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// First two bytes were not [`WIRE_MAGIC`].
    BadMagic(u16),
    /// Version byte differs from [`WIRE_VERSION`].
    BadVersion(u8),
    /// Unknown message discriminant.
    UnknownMsg(u8),
    /// A payload over [`MAX_PAYLOAD`]: announced by a frame header, or
    /// refused while encoding (`FrameWriter::push`). Saturates at
    /// `u32::MAX`.
    Oversized(u32),
    /// Input ended before the announced frame did.
    Truncated,
    /// Checksum mismatch: the frame was corrupted in flight.
    Checksum,
    /// Structurally invalid payload (bad discriminant, bad count, bad
    /// UTF-8, trailing bytes, …): `rt::bin`'s reason, or the wire's own
    /// for the checks it adds.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownMsg(id) => write!(f, "unknown message id {id:#04x}"),
            WireError::Oversized(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<BinError> for WireError {
    fn from(e: BinError) -> WireError {
        WireError::Malformed(e.0)
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// Edge events for the server's pending flush window.
    SubmitEvents(Vec<EdgeEvent>),
    /// Flush everything pending and block until applied.
    Flush,
    /// Embedding rows for the given nodes from the current epoch snapshot.
    GetRows(Vec<u32>),
    /// The whole served embedding (all subset rows) at the current epoch.
    GetEmbedding,
    /// Point-in-time [`ServeStats`](crate::ServeStats).
    GetStats,
    /// Flush, then stop accepting traffic (the owner reclaims the engine).
    Shutdown,
    /// Journal windows for epochs `> after_epoch` (follower catch-up).
    GetWindows {
        /// The follower's applied epoch; the reply starts right after it.
        after_epoch: u64,
        /// Page size: at most this many windows per reply.
        max: u32,
    },
    /// A full host checkpoint at a consistent epoch — the re-seed path for
    /// a follower that outlived the leader's bounded journal.
    GetCheckpoint,
    /// Top-k similar subset nodes at the current epoch snapshot.
    TopK {
        /// The query node. Excluded from its own results when it owns a
        /// row on the answering snapshot.
        node: u32,
        /// Number of neighbours requested (capped at [`MAX_TOP_K`]).
        k: u32,
        /// Similarity metric to score under.
        metric: Metric,
        /// Explicit query vector. `None` means "score against `node`'s own
        /// row" (single-shard form); the router's scatter path sends
        /// `Some(row)` so shards that don't own `node` can still score it.
        query: Option<Vec<f64>>,
    },
}

impl Request {
    /// Whether serving this request can wait on more than the connection
    /// itself (a flush, a shutdown, a checkpoint serialisation): replies
    /// buffered ahead of it are written out before it runs.
    pub fn may_block(&self) -> bool {
        matches!(
            self,
            Request::Flush | Request::Shutdown | Request::GetCheckpoint
        )
    }
}

/// Largest accepted `k` in a [`Request::TopK`] — a sanity cap well above
/// any real working set; larger values are rejected as malformed.
pub const MAX_TOP_K: u32 = 1 << 20;

/// A full host checkpoint at one consistent epoch: the answer to
/// [`Request::GetCheckpoint`]. `host` holds the bytes of a checkpoint file
/// (`crate::checkpoint`: the one format `tsvd-store` writes to disk),
/// which carries every `f64` as its bits — a follower installed from it
/// continues bit-exact from `epoch` and resumes `GetWindows` paging there.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointReply {
    /// The epoch the checkpointed host state reflects (every window `≤
    /// epoch` applied, none beyond); the file's header names it too.
    pub epoch: u64,
    /// The checkpoint file's bytes.
    pub host: Vec<u8>,
}

/// Embedding rows for an explicit node list, stamped with the epoch and
/// the snapshot's content checksum so the client can detect staleness
/// (epoch going backwards) and divergence (same epoch, different bits).
#[derive(Debug, Clone, PartialEq)]
pub struct RowsReply {
    /// Epoch of the snapshot the rows were read from.
    pub epoch: u64,
    /// Bit pattern of the snapshot's sequential-sum content checksum.
    pub checksum_bits: u64,
    /// Embedding dimension (length of every present row).
    pub dim: u32,
    /// One slot per requested node; `None` for nodes outside the subset.
    pub rows: Vec<Option<Vec<f64>>>,
}

/// The full served embedding at one epoch. Carries enough to recompute the
/// content checksum client-side ([`EmbeddingReply::verify_checksum`]) — the
/// end-to-end torn-read detector.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingReply {
    /// Epoch of the snapshot.
    pub epoch: u64,
    /// Bit pattern of the snapshot's sequential-sum content checksum.
    pub checksum_bits: u64,
    /// Embedding dimension.
    pub dim: u32,
    /// Subset node ids in row order (`sources[i]` owns row `i`).
    pub sources: Vec<u32>,
    /// Row-major embedding entries, `sources.len() × dim`.
    pub data: Vec<f64>,
}

impl EmbeddingReply {
    /// Row `i` of the embedding.
    pub fn row(&self, i: usize) -> &[f64] {
        let d = self.dim as usize;
        &self.data[i * d..(i + 1) * d]
    }

    /// Recompute the sequential entry sum (the exact summation order the
    /// server stamps at publish time) and compare bitwise against
    /// [`EmbeddingReply::checksum_bits`]. `false` means the reply does not
    /// describe one consistent epoch — a torn read or wire corruption that
    /// slipped past the frame checksum.
    pub fn verify_checksum(&self) -> bool {
        let mut sum = 0.0f64;
        for v in &self.data {
            sum += v;
        }
        sum.to_bits() == self.checksum_bits
    }
}

/// A contiguous run of the leader's journal windows — the follower
/// catch-up payload (answer to [`Request::GetWindows`]). Field meanings
/// mirror `JournalWindows` in the serve crate: `windows[i]` is the exact
/// post-coalesce window the leader applied at epoch `first_epoch + i`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowsReply {
    /// Newest epoch in the leader's journal when the read was taken.
    pub latest: u64,
    /// Epoch of `windows[0]` (`after_epoch + 1`; meaningless when empty).
    pub first_epoch: u64,
    /// Windows for epochs `first_epoch ..`, in order (empty = caught up).
    pub windows: Vec<Vec<EdgeEvent>>,
}

/// Top-k neighbours from one snapshot, stamped (like [`RowsReply`]) with
/// the answering epoch and its content checksum so clients can detect
/// staleness and the router can require cross-shard epoch agreement.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKReply {
    /// Epoch of the snapshot the scan ran against.
    pub epoch: u64,
    /// Bit pattern of the snapshot's sequential-sum content checksum.
    pub checksum_bits: u64,
    /// `false` only when the request carried no explicit query vector and
    /// the query node is outside this snapshot's subset.
    pub found: bool,
    /// `(node, score)` pairs, best first (score descending, ties by
    /// ascending row — the canonical deterministic order).
    pub neighbors: Vec<(u32, f64)>,
}

/// A server-to-client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Events accepted into the pending window.
    SubmitAck {
        /// Number of events accepted.
        accepted: u64,
    },
    /// The epoch being served once the flush completed.
    FlushAck {
        /// Served epoch after the flush.
        epoch: u64,
    },
    /// Answer to [`Request::GetRows`].
    Rows(RowsReply),
    /// Answer to [`Request::GetEmbedding`].
    Embedding(EmbeddingReply),
    /// Answer to [`Request::GetStats`]: the requesting tenant's stats plus
    /// the host rollup. Boxed: the stats blob dwarfs every other reply, and
    /// boxing it keeps plain `Reply` values (acks, rows) small.
    Stats(Box<StatsReply>),
    /// The server flushed and is shutting its network front down.
    ShutdownAck,
    /// Answer to [`Request::GetWindows`].
    Windows(WindowsReply),
    /// Answer to [`Request::GetCheckpoint`]. Boxed for the same reason as
    /// [`Reply::Stats`]: the checkpoint file dwarfs every other reply.
    Checkpoint(Box<CheckpointReply>),
    /// Answer to [`Request::TopK`].
    TopKReply(TopKReply),
    /// Typed answer to a [`Request::GetWindows`] whose `after_epoch` fell
    /// behind the leader's bounded journal: the requested window was
    /// compacted away. Unlike [`Reply::Error`] this is machine-readable —
    /// the puller re-seeds via [`Request::GetCheckpoint`] and resumes.
    JournalGap {
        /// The oldest epoch the leader's journal still retains.
        oldest: u64,
        /// The epoch the puller needed (`after_epoch + 1`).
        requested: u64,
    },
    /// The request could not be served (message is human-readable).
    Error(String),
}

/// Either half of the conversation; what a frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server.
    Request(Request),
    /// Server → client.
    Reply(Reply),
}

/// One decoded frame: the echoed request id and tenant id plus the message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Correlation id (client-chosen; `0` reserved for connection errors).
    pub request_id: u64,
    /// Tenant the frame is pinned to (0 for single-tenant servers);
    /// replies echo the request's tenant.
    pub tenant: u32,
    /// The decoded message.
    pub message: Message,
}

// ---------------------------------------------------------------- codec

impl Message {
    /// The wire discriminant of this message.
    pub fn msg_id(&self) -> u8 {
        match self {
            Message::Request(Request::Ping) => 0x01,
            Message::Request(Request::SubmitEvents(_)) => 0x02,
            Message::Request(Request::Flush) => 0x03,
            Message::Request(Request::GetRows(_)) => 0x04,
            Message::Request(Request::GetEmbedding) => 0x05,
            Message::Request(Request::GetStats) => 0x06,
            Message::Request(Request::Shutdown) => 0x07,
            Message::Request(Request::GetWindows { .. }) => 0x08,
            Message::Request(Request::GetCheckpoint) => 0x09,
            Message::Request(Request::TopK { .. }) => 0x0A,
            Message::Reply(Reply::Pong) => 0x81,
            Message::Reply(Reply::SubmitAck { .. }) => 0x82,
            Message::Reply(Reply::FlushAck { .. }) => 0x83,
            Message::Reply(Reply::Rows(_)) => 0x84,
            Message::Reply(Reply::Embedding(_)) => 0x85,
            Message::Reply(Reply::Stats(_)) => 0x86,
            Message::Reply(Reply::ShutdownAck) => 0x87,
            Message::Reply(Reply::Windows(_)) => 0x88,
            Message::Reply(Reply::Checkpoint(_)) => 0x89,
            Message::Reply(Reply::JournalGap { .. }) => 0x8A,
            Message::Reply(Reply::TopKReply(_)) => 0x8B,
            Message::Reply(Reply::Error(_)) => 0xFF,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Request(Request::Ping)
            | Message::Request(Request::Flush)
            | Message::Request(Request::GetEmbedding)
            | Message::Request(Request::GetStats)
            | Message::Request(Request::Shutdown)
            | Message::Request(Request::GetCheckpoint)
            | Message::Reply(Reply::Pong)
            | Message::Reply(Reply::ShutdownAck) => {}
            Message::Request(Request::SubmitEvents(events)) => events.encode(out),
            Message::Request(Request::GetRows(nodes)) => nodes.encode(out),
            Message::Request(Request::GetWindows { after_epoch, max }) => {
                after_epoch.encode(out);
                max.encode(out);
            }
            Message::Request(Request::TopK {
                node,
                k,
                metric,
                query,
            }) => {
                node.encode(out);
                k.encode(out);
                metric.as_u8().encode(out);
                query.encode(out);
            }
            Message::Reply(Reply::SubmitAck { accepted }) => accepted.encode(out),
            Message::Reply(Reply::FlushAck { epoch }) => epoch.encode(out),
            Message::Reply(Reply::Rows(r)) => {
                r.epoch.encode(out);
                r.checksum_bits.encode(out);
                r.dim.encode(out);
                (r.rows.len() as u32).encode(out);
                // No count per row: every present row is `dim` long.
                for row in &r.rows {
                    row.is_some().encode(out);
                    if let Some(v) = row {
                        debug_assert_eq!(v.len(), r.dim as usize);
                        bin::put_f64s(out, v);
                    }
                }
            }
            Message::Reply(Reply::Embedding(e)) => {
                e.epoch.encode(out);
                e.checksum_bits.encode(out);
                e.dim.encode(out);
                e.sources.encode(out);
                debug_assert_eq!(e.data.len(), e.sources.len() * e.dim as usize);
                bin::put_f64s(out, &e.data);
            }
            Message::Reply(Reply::Stats(reply)) => reply.to_json().to_string().encode(out),
            Message::Reply(Reply::Windows(w)) => {
                w.latest.encode(out);
                w.first_epoch.encode(out);
                w.windows.encode(out);
            }
            Message::Reply(Reply::Checkpoint(ck)) => {
                ck.epoch.encode(out);
                bin::put_bytes(out, &ck.host);
            }
            Message::Reply(Reply::JournalGap { oldest, requested }) => {
                oldest.encode(out);
                requested.encode(out);
            }
            Message::Reply(Reply::TopKReply(t)) => {
                t.epoch.encode(out);
                t.checksum_bits.encode(out);
                t.found.encode(out);
                t.neighbors.encode(out);
            }
            Message::Reply(Reply::Error(msg)) => msg.encode(out),
        }
    }
}

/// Append one complete frame for `message` (with `request_id`, pinned to
/// `tenant`) to `out`. The payload is not checked against [`MAX_PAYLOAD`]
/// here: every connection encodes through `FrameWriter::push`, which
/// measures each frame and refuses one over the cap.
pub fn encode_frame(request_id: u64, tenant: u32, message: &Message, out: &mut Vec<u8>) {
    let start = out.len();
    WIRE_MAGIC.encode(out);
    WIRE_VERSION.encode(out);
    message.msg_id().encode(out);
    request_id.encode(out);
    tenant.encode(out);
    0u32.encode(out); // payload_len backfilled below
    0u64.encode(out); // checksum backfilled below
    let payload_start = out.len();
    message.encode_payload(out);
    let payload_len = (out.len() - payload_start) as u32;
    out[start + 16..start + 20].copy_from_slice(&payload_len.to_le_bytes());
    let crc = frame_checksum(&out[start + 2..start + 20], &out[payload_start..]);
    out[start + 20..start + 28].copy_from_slice(&crc.to_le_bytes());
}

/// The frame seal: [`bin::checksum`] over the post-magic header fields
/// (bytes `[2, 20)`), continued over the payload with
/// [`bin::checksum_from`]. Both ends compute it over every frame.
pub fn frame_checksum(header_tail: &[u8], payload: &[u8]) -> u64 {
    bin::checksum_from(bin::checksum(header_tail), payload)
}

/// Decode a payload that must be consumed exactly.
fn decode_payload(msg_id: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut c = Cursor::new(payload);
    let message = decode_message(msg_id, &mut c)?;
    c.finish()?;
    Ok(message)
}

fn decode_message(msg_id: u8, c: &mut Cursor<'_>) -> Result<Message, WireError> {
    Ok(match msg_id {
        0x01 => Message::Request(Request::Ping),
        0x02 => Message::Request(Request::SubmitEvents(Decode::decode(c)?)),
        0x03 => Message::Request(Request::Flush),
        0x04 => Message::Request(Request::GetRows(Decode::decode(c)?)),
        0x05 => Message::Request(Request::GetEmbedding),
        0x06 => Message::Request(Request::GetStats),
        0x07 => Message::Request(Request::Shutdown),
        0x08 => Message::Request(Request::GetWindows {
            after_epoch: Decode::decode(c)?,
            max: Decode::decode(c)?,
        }),
        0x09 => Message::Request(Request::GetCheckpoint),
        0x0A => {
            let node = Decode::decode(c)?;
            let k = u32::decode(c)?;
            if k > MAX_TOP_K {
                return Err(WireError::Malformed("top-k k exceeds cap".into()));
            }
            let metric = Metric::from_u8(u8::decode(c)?)
                .ok_or_else(|| WireError::Malformed("bad metric byte".into()))?;
            Message::Request(Request::TopK {
                node,
                k,
                metric,
                query: Decode::decode(c)?,
            })
        }
        0x81 => Message::Reply(Reply::Pong),
        0x82 => Message::Reply(Reply::SubmitAck {
            accepted: Decode::decode(c)?,
        }),
        0x83 => Message::Reply(Reply::FlushAck {
            epoch: Decode::decode(c)?,
        }),
        0x84 => {
            let epoch = Decode::decode(c)?;
            let checksum_bits = Decode::decode(c)?;
            let dim = u32::decode(c)?;
            let n = c.count(bool::MIN_BYTES)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(match bool::decode(c)? {
                    true => Some(c.f64s(dim as usize)?),
                    false => None,
                });
            }
            Message::Reply(Reply::Rows(RowsReply {
                epoch,
                checksum_bits,
                dim,
                rows,
            }))
        }
        0x85 => {
            let epoch = Decode::decode(c)?;
            let checksum_bits = Decode::decode(c)?;
            let dim = u32::decode(c)?;
            let sources = Vec::<u32>::decode(c)?;
            let entries = sources
                .len()
                .checked_mul(dim as usize)
                .ok_or_else(|| WireError::Malformed("embedding size overflow".into()))?;
            Message::Reply(Reply::Embedding(EmbeddingReply {
                epoch,
                checksum_bits,
                dim,
                sources,
                data: c.f64s(entries)?,
            }))
        }
        0x86 => {
            let body = String::decode(c)?;
            let json = Json::parse(&body)
                .map_err(|e| WireError::Malformed(format!("stats not JSON: {e}")))?;
            let reply = StatsReply::from_json(&json)
                .map_err(|e| WireError::Malformed(format!("stats JSON shape: {e}")))?;
            Message::Reply(Reply::Stats(Box::new(reply)))
        }
        0x87 => Message::Reply(Reply::ShutdownAck),
        0x88 => Message::Reply(Reply::Windows(WindowsReply {
            latest: Decode::decode(c)?,
            first_epoch: Decode::decode(c)?,
            windows: Decode::decode(c)?,
        })),
        0x89 => Message::Reply(Reply::Checkpoint(Box::new(CheckpointReply {
            epoch: Decode::decode(c)?,
            host: c.bytes()?.to_vec(),
        }))),
        0x8A => Message::Reply(Reply::JournalGap {
            oldest: Decode::decode(c)?,
            requested: Decode::decode(c)?,
        }),
        0x8B => Message::Reply(Reply::TopKReply(TopKReply {
            epoch: Decode::decode(c)?,
            checksum_bits: Decode::decode(c)?,
            found: Decode::decode(c)?,
            neighbors: Decode::decode(c)?,
        })),
        0xFF => Message::Reply(Reply::Error(Decode::decode(c)?)),
        other => return Err(WireError::UnknownMsg(other)),
    })
}

/// Parsed fixed-size header.
struct Header {
    msg_id: u8,
    request_id: u64,
    tenant: u32,
    payload_len: u32,
    checksum: u64,
}

fn decode_header(h: &[u8; HEADER_LEN]) -> Result<Header, WireError> {
    let c = &mut Cursor::new(h);
    let magic = u16::decode(c)?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u8::decode(c)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let h = Header {
        msg_id: Decode::decode(c)?,
        request_id: Decode::decode(c)?,
        tenant: Decode::decode(c)?,
        payload_len: Decode::decode(c)?,
        checksum: Decode::decode(c)?,
    };
    if h.payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized(h.payload_len));
    }
    Ok(h)
}

/// Decode one frame from the front of `bytes`. Returns the frame and the
/// number of bytes it occupied (so a buffer of concatenated frames can be
/// walked). Never panics and never allocates more than the input length on
/// any input — the fuzz property the protocol test battery pins.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
    let h = decode_header(header)?;
    let total = HEADER_LEN + h.payload_len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated);
    }
    let payload = &bytes[HEADER_LEN..total];
    if frame_checksum(&bytes[2..20], payload) != h.checksum {
        return Err(WireError::Checksum);
    }
    let message = decode_payload(h.msg_id, payload)?;
    Ok((
        Frame {
            request_id: h.request_id,
            tenant: h.tenant,
            message,
        },
        total,
    ))
}

// ---------------------------------------------------------------- stream

/// Size of a connection's read buffer, and the point past which a
/// `FrameWriter` writes out even with more requests waiting (64 KiB).
pub(crate) const IO_BUF: usize = 64 << 10;

/// A read that consumed nothing and may be retried: a read timeout
/// (socket `set_read_timeout`, or the pipe's equivalent) or a signal.
fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// The read half of a connection: frames off a byte stream through one
/// 64 KiB buffer, so a pipelined burst costs one `read` rather than three
/// per frame, and a frame that sits whole in the buffer is checked and
/// decoded in place.
pub struct FrameReader<R> {
    inner: BufReader<R>,
}

impl<R: Read> FrameReader<R> {
    /// Buffer `inner`.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner: BufReader::with_capacity(IO_BUF, inner),
        }
    }

    /// Whether another whole frame is already buffered, so the next read
    /// returns without waiting on the stream. Only the length field is
    /// looked at: a damaged frame still counts, and fails when read.
    pub fn has_buffered_frame(&self) -> bool {
        let b = self.inner.buffer();
        b.len() >= HEADER_LEN
            && b.len() - HEADER_LEN
                >= u32::from_le_bytes(b[16..20].try_into().expect("4 bytes")) as usize
    }

    /// Read one frame. Returns `Ok(None)` on clean EOF (the peer closed
    /// between frames); EOF mid-frame is an error, and so is a read
    /// timeout (the caller decides whether to reconnect). Protocol
    /// violations surface as [`io::ErrorKind::InvalidData`] wrapping a
    /// [`WireError`].
    pub fn read_frame(&mut self) -> io::Result<Option<Frame>> {
        self.next(None)
    }

    /// Like [`read_frame`](Self::read_frame), but built for a stream with
    /// a short read timeout: timeouts are retried so slow frames are never
    /// torn, and `should_stop` is polled before each frame and between
    /// retries so the loop can be told to give up. Returns `Ok(None)` on
    /// clean EOF or when stopped.
    pub fn read_frame_until(
        &mut self,
        mut should_stop: impl FnMut() -> bool,
    ) -> io::Result<Option<Frame>> {
        self.next(Some(&mut should_stop))
    }

    fn next(
        &mut self,
        mut should_stop: Option<&mut dyn FnMut() -> bool>,
    ) -> io::Result<Option<Frame>> {
        // Between frames the stop flag is polled even on a busy line: a
        // peer that never pauses for a read timeout cannot keep a stopping
        // loop alive.
        if should_stop.as_mut().is_some_and(|stop| stop()) {
            return Ok(None);
        }
        // A retryable read error: `Ok(true)` to stop, `Ok(false)` to retry,
        // the error itself when there is no stop flag to poll.
        let mut idle = |e: io::Error| match should_stop.as_mut() {
            _ if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            Some(stop) => Ok(stop()),
            None => Err(e),
        };
        // Wait for the first byte of a frame — nothing has been consumed
        // yet, so bailing is safe.
        loop {
            match self.inner.fill_buf() {
                Ok([]) => return Ok(None),
                Ok(_) => break,
                Err(e) if is_retryable(&e) => {
                    if idle(e)? {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if self.has_buffered_frame() {
            let (frame, used) = decode_frame(self.inner.buffer())?;
            self.inner.consume(used);
            return Ok(Some(frame));
        }
        // A frame has started but is not all here: finish it, retrying
        // timeouts (the peer may be mid-write) but still honouring the stop
        // flag, so shutdown cannot hang on a peer that died mid-frame.
        // The header is checked before the payload is allocated.
        let mut header = [0u8; HEADER_LEN];
        if !fill(&mut self.inner, &mut header, &mut idle)? {
            return Ok(None);
        }
        let mut bytes = header.to_vec();
        bytes.resize(HEADER_LEN + decode_header(&header)?.payload_len as usize, 0);
        if !fill(&mut self.inner, &mut bytes[HEADER_LEN..], &mut idle)? {
            return Ok(None);
        }
        Ok(Some(decode_frame(&bytes)?.0))
    }
}

/// Fill `buf` from `r`, handing retryable errors to `idle`; `Ok(false)`
/// when it says stop.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    idle: &mut impl FnMut(io::Error) -> io::Result<bool>,
) -> io::Result<bool> {
    let mut done = 0;
    while done < buf.len() {
        match r.read(&mut buf[done..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "mid-frame EOF",
                ))
            }
            Ok(n) => done += n,
            Err(e) if is_retryable(&e) => {
                if idle(e)? {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// The write half of a connection: frames are encoded into one reused
/// buffer and leave together in one `write_all` on
/// [`flush`](Self::flush) — see the module docs for when the serving
/// loops flush.
pub(crate) struct FrameWriter<W> {
    inner: W,
    buf: Vec<u8>,
    /// The payload cap [`push`](Self::push) enforces: [`MAX_PAYLOAD`]
    /// outside of tests.
    cap: usize,
}

impl<W: Write> FrameWriter<W> {
    /// An empty buffer in front of `inner`.
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter::with_cap(inner, MAX_PAYLOAD as usize)
    }

    /// A writer that refuses payloads over `cap` instead of
    /// [`MAX_PAYLOAD`], so a test can reach the guard without a 64 MiB
    /// reply.
    pub(crate) fn with_cap(inner: W, cap: usize) -> FrameWriter<W> {
        FrameWriter {
            inner,
            buf: Vec::new(),
            cap,
        }
    }

    /// Append one frame; no I/O. A frame whose payload is over the cap is
    /// taken back out of the buffer and refused with
    /// [`WireError::Oversized`] — in release builds too — instead of going
    /// out as a frame every peer rejects.
    pub fn push(
        &mut self,
        request_id: u64,
        tenant: u32,
        message: &Message,
    ) -> Result<(), WireError> {
        let start = self.buf.len();
        encode_frame(request_id, tenant, message, &mut self.buf);
        let payload = self.buf.len() - start - HEADER_LEN;
        if payload > self.cap {
            self.buf.truncate(start);
            return Err(WireError::Oversized(
                u32::try_from(payload).unwrap_or(u32::MAX),
            ));
        }
        Ok(())
    }

    /// Append a reply. One over the cap is answered with a
    /// [`Reply::Error`] on the same request id instead, so the peer gets a
    /// typed answer and the connection stays usable.
    pub fn push_reply(&mut self, request_id: u64, tenant: u32, reply: Reply) {
        if let Err(WireError::Oversized(n)) = self.push(request_id, tenant, &Message::Reply(reply))
        {
            let why = format!(
                "reply exceeds the frame cap: a {n}-byte payload against {}",
                self.cap
            );
            self.push(request_id, tenant, &Message::Reply(Reply::Error(why)))
                .expect("an error reply fits the frame cap");
        }
    }

    /// The end of one answer: write the buffer out unless `more` — another
    /// whole request is already buffered behind the one just answered —
    /// and the buffer is still under [`IO_BUF`]. A lone request is never
    /// held back.
    pub fn end_reply(&mut self, more: bool) -> io::Result<()> {
        if more && self.buf.len() < IO_BUF {
            return Ok(());
        }
        self.flush()
    }

    /// Write everything buffered with one `write_all`, then flush the
    /// stream.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let wrote = self
            .inner
            .write_all(&self.buf)
            .and_then(|()| self.inner.flush());
        self.buf.clear();
        // One outsized reply (an embedding, a checkpoint) does not pin its
        // buffer for the life of the connection.
        if self.buf.capacity() > 4 * IO_BUF {
            self.buf = Vec::new();
        }
        wrote
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode `message` as one frame and decode it through the slice
    /// path and the stream path (in place, and a byte at a time): each
    /// decode encodes back to the same frame, so request id, tenant and
    /// payload all survive bitwise (NaN payloads too, which `==` on the
    /// messages would not see).
    fn round_trip(id: u64, message: &Message) {
        let tenant = (id as u32).wrapping_mul(3); // vary the tenant field too
        let frame_of = |m: &Message| {
            let mut buf = Vec::new();
            encode_frame(id, tenant, m, &mut buf);
            buf
        };
        let buf = frame_of(message);
        let (frame, used) = decode_frame(&buf).expect("decode");
        assert_eq!(
            (used, frame.request_id, frame.tenant),
            (buf.len(), id, tenant)
        );
        assert_eq!(frame_of(&frame.message), buf, "{message:?}");
        for mut r in [
            FrameReader::new(Trickle(&buf[..], usize::MAX)),
            FrameReader::new(Trickle(&buf[..], 1)),
        ] {
            let streamed = r.read_frame().unwrap().unwrap();
            assert_eq!(streamed.tenant, tenant);
            assert_eq!(frame_of(&streamed.message), buf, "{message:?}");
            assert!(r.read_frame().unwrap().is_none(), "clean EOF");
        }
    }

    /// A reader handing out at most `.1` bytes per `read`.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.1).min(self.0.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_stopping_reader_stops_between_frames_even_on_a_busy_line() {
        let mut buf = Vec::new();
        for id in 1..=3 {
            encode_frame(id, 0, &Message::Request(Request::Ping), &mut buf);
        }
        let mut r = FrameReader::new(&buf[..]);
        let mut stop = false;
        assert_eq!(r.read_frame_until(|| stop).unwrap().unwrap().request_id, 1);
        stop = true;
        assert!(r.has_buffered_frame());
        assert!(r.read_frame_until(|| stop).unwrap().is_none());
    }

    #[test]
    fn the_reader_knows_when_a_whole_frame_is_buffered() {
        let mut buf = Vec::new();
        for id in 1..=3 {
            encode_frame(
                id,
                0,
                &Message::Request(Request::GetRows(vec![1, 2])),
                &mut buf,
            );
        }
        let mut r = FrameReader::new(&buf[..]);
        for id in 1..=3 {
            assert_eq!(r.read_frame().unwrap().unwrap().request_id, id);
            assert_eq!(r.has_buffered_frame(), id < 3, "after frame {id}");
        }
        assert!(r.read_frame().unwrap().is_none());
        // A frame cut short is not a buffered frame.
        let cut = &buf[..buf.len() / 3 + 1];
        let mut r = FrameReader::new(cut);
        assert_eq!(r.read_frame().unwrap().unwrap().request_id, 1);
        assert!(!r.has_buffered_frame());
        assert_eq!(
            r.read_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn the_writer_sends_a_burst_in_one_write_and_refuses_over_cap_frames() {
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.push(b.to_vec());
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = FrameWriter::with_cap(Writes::default(), 64);
        w.push_reply(1, 0, Reply::Pong);
        w.end_reply(true).unwrap();
        // 65 payload bytes: one over the cap.
        w.push_reply(2, 5, Reply::Error("e".repeat(61)));
        w.end_reply(true).unwrap();
        w.push_reply(3, 0, Reply::FlushAck { epoch: 4 });
        assert!(
            w.inner.0.is_empty(),
            "nothing written while more is buffered"
        );
        w.end_reply(false).unwrap();
        assert_eq!(w.inner.0.len(), 1, "one write for the burst");
        let bytes = &w.inner.0[0];
        let (f1, a) = decode_frame(bytes).unwrap();
        let (f2, b) = decode_frame(&bytes[a..]).unwrap();
        let (f3, c) = decode_frame(&bytes[a + b..]).unwrap();
        assert_eq!(a + b + c, bytes.len());
        assert_eq!(
            (f1.request_id, f1.message),
            (1, Message::Reply(Reply::Pong))
        );
        assert_eq!((f2.request_id, f2.tenant), (2, 5));
        assert!(
            matches!(&f2.message, Message::Reply(Reply::Error(why))
                if why.starts_with("reply exceeds the frame cap") && why.contains("65")),
            "{:?}",
            f2.message
        );
        assert_eq!(f3.request_id, 3);
        // A request over the cap is refused outright.
        assert_eq!(
            w.push(4, 0, &Message::Request(Request::GetRows(vec![0; 16]))),
            Err(WireError::Oversized(68))
        );
        w.flush().unwrap();
        assert_eq!(w.inner.0.len(), 1, "an empty buffer writes nothing");
    }

    /// Recompute a hand-edited frame's checksum, so that the payload
    /// decoder itself is reached.
    fn reseal(buf: &mut [u8]) {
        let crc = frame_checksum(&buf[2..20], &buf[HEADER_LEN..]);
        buf[20..28].copy_from_slice(&crc.to_le_bytes());
    }

    /// `m`'s frame with the `u32` at payload offset `at` set to `count`.
    fn with_count(m: &Message, at: usize, count: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(1, 0, m, &mut buf);
        buf[HEADER_LEN + at..HEADER_LEN + at + 4].copy_from_slice(&count.to_le_bytes());
        reseal(&mut buf);
        buf
    }

    /// The decode of `buf` failed on a count check (`rt::bin`'s "count N
    /// exceeds …"), not on a read further on.
    fn assert_refused_at_the_count(buf: &[u8], what: &str) {
        match decode_frame(buf) {
            Err(WireError::Malformed(why)) => assert!(
                why.contains("count") && why.contains("exceeds"),
                "{what}: refused, but not at the count: {why}"
            ),
            other => panic!("{what}: expected a count refusal, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_length_larger_than_payload_rejected_before_allocation() {
        // A Checkpoint frame whose body-length field claims more bytes than
        // the payload holds must fail on the count check, not allocate.
        let m = Message::Reply(Reply::Checkpoint(Box::new(CheckpointReply {
            epoch: 3,
            host: b"x".to_vec(),
        })));
        // The length field sits right after the u64 epoch in the payload.
        assert_refused_at_the_count(&with_count(&m, 8, u32::MAX), "checkpoint");
        assert_refused_at_the_count(&with_count(&m, 8, 2), "checkpoint + 1");
    }

    #[test]
    fn top_k_bad_bytes_rejected() {
        let msg = Message::Request(Request::TopK {
            node: 1,
            k: 2,
            metric: Metric::Dot,
            query: None,
        });
        let mut buf = Vec::new();
        encode_frame(1, 0, &msg, &mut buf);
        // Metric byte is payload offset 8; presence tag offset 9.
        let bad_byte = |off: usize| {
            let mut bad = buf.clone();
            bad[HEADER_LEN + off] = 7;
            reseal(&mut bad);
            decode_frame(&bad)
        };
        assert_eq!(
            bad_byte(8),
            Err(WireError::Malformed("bad metric byte".into()))
        );
        // The query presence tag is an `Option`'s: rt::bin names it.
        assert!(
            matches!(bad_byte(9), Err(WireError::Malformed(why)) if why.contains("option byte 7")),
            "bad query presence tag accepted"
        );
        // k above the cap is malformed even with a valid checksum.
        assert_eq!(
            decode_frame(&with_count(&msg, 4, MAX_TOP_K + 1)),
            Err(WireError::Malformed("top-k k exceeds cap".into()))
        );
        // TopKReply found byte must be 0 or 1.
        let reply = Message::Reply(Reply::TopKReply(TopKReply {
            epoch: 1,
            checksum_bits: 2,
            found: true,
            neighbors: vec![],
        }));
        let mut buf = Vec::new();
        encode_frame(1, 0, &reply, &mut buf);
        buf[HEADER_LEN + 16] = 2;
        reseal(&mut buf);
        assert!(
            matches!(decode_frame(&buf), Err(WireError::Malformed(why)) if why.contains("bool byte 2")),
            "bad found byte accepted"
        );
    }

    #[test]
    fn oversized_frame_rejected_from_header() {
        let mut buf = Vec::new();
        encode_frame(1, 0, &Message::Request(Request::Ping), &mut buf);
        buf[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&buf),
            Err(WireError::Oversized(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn truncation_and_bad_magic_rejected() {
        let mut buf = Vec::new();
        encode_frame(
            1,
            0,
            &Message::Request(Request::GetRows(vec![1, 2, 3])),
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert!(decode_frame(&buf[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bad), Err(WireError::BadMagic(_))));
        let mut wrong_version = buf.clone();
        wrong_version[2] = WIRE_VERSION + 1;
        // The version byte is inside the checksummed range, so either error
        // is a rejection; BadVersion fires first by layout.
        assert_eq!(
            decode_frame(&wrong_version),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );
    }

    #[test]
    fn old_version_frames_rejected() {
        // A v1 peer stamps version 1 and uses the narrower 24-byte header;
        // a v2 peer has this header but seals frames with FNV-1a; a v3
        // peer sends a `Checkpoint` as JSON text. Whatever follows the
        // version byte, the decoder must refuse the frame from the header
        // alone — downgrade fails closed.
        for old in [1u8, 2, 3] {
            let mut buf = Vec::new();
            encode_frame(9, 3, &Message::Request(Request::Flush), &mut buf);
            buf[2] = old;
            assert_eq!(decode_frame(&buf), Err(WireError::BadVersion(old)));
            // Same on the stream path.
            let err = FrameReader::new(&buf[..])
                .read_frame()
                .expect_err("old-version frame accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn frame_checksum_is_the_word_fold_over_header_tail_then_payload() {
        let mut buf = Vec::new();
        encode_frame(
            5,
            2,
            &Message::Request(Request::GetRows(vec![3, 1, 4])),
            &mut buf,
        );
        let want = bin::checksum_from(bin::checksum(&buf[2..20]), &buf[HEADER_LEN..]);
        assert_eq!(buf[20..28], want.to_le_bytes());
        let fnv = |seed, b: &[u8]| bin::fnv1a64(seed, b);
        assert_ne!(
            want,
            fnv(fnv(bin::CHECKSUM_OFFSET, &buf[2..20]), &buf[HEADER_LEN..]),
            "frames are not FNV-1a sealed"
        );
    }

    #[test]
    fn tenant_byte_flips_break_the_checksum() {
        // The tenant field sits inside the checksummed range: a flipped
        // tenant id cannot silently reroute a request.
        let mut buf = Vec::new();
        encode_frame(4, 0x0102_0304, &Message::Request(Request::Flush), &mut buf);
        for byte in 12..16 {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            assert_eq!(
                decode_frame(&bad),
                Err(WireError::Checksum),
                "tenant byte {byte} flip undetected"
            );
        }
    }

    #[test]
    fn count_larger_than_payload_rejected_before_allocation() {
        // A GetRows frame whose count field claims 2^32 - 1 nodes but whose
        // payload holds none: must fail on the count check.
        let empty = Message::Request(Request::GetRows(vec![]));
        assert_refused_at_the_count(&with_count(&empty, 0, u32::MAX), "nodes");
        // Every counted field, with its count one item over the two items
        // the payload holds: refused at the count, at the field's own item
        // size, so nothing is allocated from it.
        let two = |k| EdgeEvent::insert(k, k + 1);
        let q = Message::Request;
        let p = Message::Reply;
        for (what, item_bytes, at, m) in [
            (
                "events",
                9,
                0,
                q(Request::SubmitEvents(vec![two(1), two(2)])),
            ),
            ("nodes", 4, 0, q(Request::GetRows(vec![1, 2]))),
            (
                "query f64s",
                8,
                10,
                q(Request::TopK {
                    node: 1,
                    k: 2,
                    metric: Metric::Dot,
                    query: Some(vec![0.5, -0.0]),
                }),
            ),
            (
                "windows",
                4,
                16,
                p(Reply::Windows(WindowsReply {
                    latest: 2,
                    first_epoch: 1,
                    windows: vec![vec![], vec![]],
                })),
            ),
            (
                "window events",
                9,
                20,
                p(Reply::Windows(WindowsReply {
                    latest: 1,
                    first_epoch: 1,
                    windows: vec![vec![two(1), two(2)]],
                })),
            ),
            (
                "sources",
                4,
                20,
                p(Reply::Embedding(EmbeddingReply {
                    epoch: 1,
                    checksum_bits: 0,
                    dim: 0,
                    sources: vec![1, 2],
                    data: vec![],
                })),
            ),
            (
                "neighbours",
                12,
                17,
                p(Reply::TopKReply(TopKReply {
                    epoch: 1,
                    checksum_bits: 0,
                    found: true,
                    neighbors: vec![(1, 0.5), (2, 0.25)],
                })),
            ),
        ] {
            let whole = with_count(&m, at, 2);
            assert_eq!(decode_frame(&whole).unwrap().0.message, m, "{what}");
            assert_eq!(whole.len() - HEADER_LEN - at - 4, 2 * item_bytes, "{what}");
            assert_refused_at_the_count(&with_count(&m, at, 3), what);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        encode_frame(1, 0, &Message::Request(Request::Ping), &mut buf);
        // Grow the payload by one byte and re-stamp length + checksum: the
        // frame is well-formed at the frame layer but the Ping decoder must
        // reject the leftover byte.
        buf.push(0xAB);
        buf[16..20].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut buf);
        assert!(
            matches!(decode_frame(&buf), Err(WireError::Malformed(why)) if why.contains("trailing bytes")),
            "a trailing byte accepted"
        );
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        encode_frame(1, 0, &Message::Request(Request::Ping), &mut buf);
        encode_frame(
            2,
            1,
            &Message::Reply(Reply::FlushAck { epoch: 5 }),
            &mut buf,
        );
        let (f1, used) = decode_frame(&buf).unwrap();
        assert_eq!(f1.request_id, 1);
        let (f2, used2) = decode_frame(&buf[used..]).unwrap();
        assert_eq!(f2.request_id, 2);
        assert_eq!(f2.tenant, 1);
        assert_eq!(used + used2, buf.len());
    }

    /// The payload bytes (everything after the header) of one frame.
    fn payload_of(message: &Message) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(1, 0, message, &mut buf);
        buf.split_off(HEADER_LEN)
    }

    /// One fixed instance of every message kind but `Checkpoint`, with the
    /// empty, `None`, NaN, `-0.0`, infinite and subnormal cases.
    fn golden_messages() -> Vec<Message> {
        use Message::{Reply as P, Request as Q};
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let stats = StatsReply {
            tenant: crate::stats::ServeStats {
                tenant: 2,
                epoch: 12,
                events_submitted: 1000,
                events_applied: 900,
                events_coalesced: 80,
                events_pending: 20,
                batches_flushed: 12,
                flush_ms_last: 1.25,
                flush_ms_mean: -0.0,
                flush_ms_max: 0.1 + 0.2,
                blocks_refactored: 3,
                timings: Default::default(),
            },
            host: crate::stats::HostStats {
                tenants: 3,
                batches_recorded: 12,
                epoch: 11,
                events_submitted: 3000,
                events_applied: 2700,
                events_coalesced: 240,
                events_pending: 60,
            },
        };
        vec![
            Q(Request::Ping),
            Q(Request::SubmitEvents(vec![
                EdgeEvent::insert(3, 4),
                EdgeEvent::delete(9, 2),
                EdgeEvent::insert(u32::MAX, 0),
            ])),
            Q(Request::SubmitEvents(vec![])),
            Q(Request::Flush),
            Q(Request::GetRows(vec![0, 7, 42, u32::MAX])),
            Q(Request::GetRows(vec![])),
            Q(Request::GetEmbedding),
            Q(Request::GetStats),
            Q(Request::Shutdown),
            Q(Request::GetWindows {
                after_epoch: 41,
                max: 128,
            }),
            Q(Request::GetCheckpoint),
            Q(Request::TopK {
                node: 42,
                k: 10,
                metric: Metric::Dot,
                query: None,
            }),
            Q(Request::TopK {
                node: 7,
                k: MAX_TOP_K,
                metric: Metric::Cosine,
                query: Some(vec![1.5, -0.0, nan, f64::NEG_INFINITY]),
            }),
            Q(Request::TopK {
                node: 0,
                k: 0,
                metric: Metric::Dot,
                query: Some(vec![]),
            }),
            P(Reply::Pong),
            P(Reply::SubmitAck { accepted: 17 }),
            P(Reply::FlushAck { epoch: u64::MAX }),
            P(Reply::Rows(RowsReply {
                epoch: 3,
                checksum_bits: 0xDEAD_BEEF,
                dim: 2,
                rows: vec![Some(vec![1.5, -0.25]), None, Some(vec![nan, -0.0])],
            })),
            P(Reply::Rows(RowsReply {
                epoch: 0,
                checksum_bits: 0,
                dim: 0,
                rows: vec![],
            })),
            P(Reply::Embedding(EmbeddingReply {
                epoch: 9,
                checksum_bits: 1,
                dim: 2,
                sources: vec![5, 6],
                data: vec![0.1, -0.0, nan, f64::MIN_POSITIVE / 2.0],
            })),
            P(Reply::Embedding(EmbeddingReply {
                epoch: 1,
                checksum_bits: 0,
                dim: 3,
                sources: vec![],
                data: vec![],
            })),
            P(Reply::Stats(Box::new(stats))),
            P(Reply::ShutdownAck),
            P(Reply::Windows(WindowsReply {
                latest: 44,
                first_epoch: 42,
                windows: vec![
                    vec![EdgeEvent::insert(1, 2), EdgeEvent::delete(3, 4)],
                    vec![],
                    vec![EdgeEvent::insert(9, 9)],
                ],
            })),
            P(Reply::Windows(WindowsReply {
                latest: 7,
                first_epoch: 8,
                windows: vec![],
            })),
            P(Reply::JournalGap {
                oldest: 4097,
                requested: 12,
            }),
            P(Reply::TopKReply(TopKReply {
                epoch: 9,
                checksum_bits: 0xFEED_F00D,
                found: true,
                neighbors: vec![(3, 0.5), (1, -0.0), (9, nan)],
            })),
            P(Reply::TopKReply(TopKReply {
                epoch: 0,
                checksum_bits: 0,
                found: false,
                neighbors: vec![],
            })),
            P(Reply::Error("no such node".into())),
            P(Reply::Error(String::new())),
        ]
    }

    #[test]
    fn every_payload_keeps_its_golden_bytes() {
        // `bin::checksum` of each payload above, in order. A codec change
        // that moves one byte of any of them breaks every peer and every
        // recorded capture: a value changes only with `WIRE_VERSION`.
        const GOLDEN: [u64; 30] = [
            0xaf63_bd4c_8601_b7df, // 0x01
            0x4da7_a300_08f6_c01c, // 0x02
            0x0824_f007_b4df_e349, // 0x02
            0xaf63_bd4c_8601_b7df, // 0x03
            0xfaa0_6b75_4415_c25b, // 0x04
            0x0824_f007_b4df_e349, // 0x04
            0xaf63_bd4c_8601_b7df, // 0x05
            0xaf63_bd4c_8601_b7df, // 0x06
            0xaf63_bd4c_8601_b7df, // 0x07
            0xfb67_2818_7f37_ef52, // 0x08
            0xaf63_bd4c_8601_b7df, // 0x09
            0x3032_e922_9d6a_348f, // 0x0a
            0x3035_ec44_701b_a65e, // 0x0a
            0x0d46_f418_8980_dab9, // 0x0a
            0xaf63_bd4c_8601_b7df, // 0x81
            0x084d_a707_b502_6c52, // 0x82
            0xf7b2_46f8_4afd_7518, // 0x83
            0x0315_0a72_3808_4ee9, // 0x84
            0x4ca5_9747_b2d7_c18d, // 0x84
            0xeb7e_a616_5833_b21f, // 0x85
            0x43fc_1b47_adef_c12f, // 0x85
            0x1c17_445e_8b9a_7070, // 0x86 (wire v5: `num_shards` left `ServeStats`)
            0xaf63_bd4c_8601_b7df, // 0x87
            0xb977_5836_7010_9aa0, // 0x88
            0xd573_d1e3_ad23_d024, // 0x88
            0x2d81_5818_8c59_a072, // 0x8a
            0x140e_868e_83ce_1d25, // 0x8b
            0x2cea_dadb_521d_2e30, // 0x8b
            0x5ea0_c322_f096_6e84, // 0xff
            0x0824_f007_b4df_e349, // 0xff
        ];
        assert_eq!(golden_messages().len(), GOLDEN.len());
        for (id, (m, golden)) in golden_messages().iter().zip(GOLDEN).enumerate() {
            let got = bin::checksum(&payload_of(m));
            assert_eq!(
                got,
                golden,
                "payload digest of {:#04x}: {got:#x}",
                m.msg_id()
            );
            round_trip(id as u64 + 1, m);
        }
    }

    #[test]
    fn the_checkpoint_payload_keeps_its_golden_bytes() {
        let m = Message::Reply(Reply::Checkpoint(Box::new(CheckpointReply {
            epoch: 42,
            host: b"TSVDCKPT\x03".to_vec(),
        })));
        assert_eq!(bin::checksum(&payload_of(&m)), 0xb69c_a0b0_638f_b012);
        round_trip(13, &m);
        // An empty body survives (a degenerate but legal reply).
        round_trip(
            14,
            &Message::Reply(Reply::Checkpoint(Box::new(CheckpointReply {
                epoch: 0,
                host: Vec::new(),
            }))),
        );
    }
}
