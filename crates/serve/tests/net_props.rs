//! Property tests for the wire codec (`rt::check`):
//!
//! 1. encode→decode is the identity for every message type over
//!    randomized payloads;
//! 2. every single-byte corruption of a valid frame is rejected —
//!    the checksum covers the header tail + payload and the magic check
//!    covers the rest, so no flip can slip through;
//! 3. truncation at any boundary is rejected;
//! 4. arbitrary fuzz bytes fed straight into the decoder never panic and
//!    never provoke an allocation larger than the input could justify
//!    (counts are validated against the remaining payload first).

use tsvd_core::PipelineTimings;
use tsvd_graph::EdgeEvent;
use tsvd_rt::check::{Checker, Gen};
use tsvd_rt::{ensure, ensure_eq};
use tsvd_serve::net::wire::{
    decode_frame, encode_frame, frame_checksum, CheckpointReply, EmbeddingReply, Message, Reply,
    Request, RowsReply, TopKReply, WindowsReply, WireError, HEADER_LEN, MAX_PAYLOAD, MAX_TOP_K,
    MESSAGE_IDS, WIRE_VERSION,
};
use tsvd_serve::{HostStats, Metric, ServeStats, StatsReply};

fn gen_events(g: &mut Gen, max: usize) -> Vec<EdgeEvent> {
    let n = g.usize_in(0..max);
    (0..n)
        .map(|_| {
            let u = g.u32_in(0..10_000);
            let v = g.u32_in(0..10_000);
            if g.bool() {
                EdgeEvent::insert(u, v)
            } else {
                EdgeEvent::delete(u, v)
            }
        })
        .collect()
}

fn gen_row(g: &mut Gen, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| g.f64_in(-1e6..1e6)).collect()
}

fn gen_top_k(g: &mut Gen) -> Request {
    Request::TopK {
        node: g.u32_in(0..10_000),
        k: g.u32_in(0..MAX_TOP_K + 1),
        metric: if g.bool() {
            Metric::Dot
        } else {
            Metric::Cosine
        },
        query: if g.bool() {
            let dim = g.usize_in(0..9);
            Some(gen_row(g, dim))
        } else {
            None
        },
    }
}

fn gen_top_k_reply(g: &mut Gen) -> TopKReply {
    let n = g.usize_in(0..16);
    TopKReply {
        epoch: g.u64_in(0..1_000_000),
        checksum_bits: g.u64_in(0..u64::MAX),
        found: g.bool(),
        neighbors: (0..n)
            .map(|_| (g.u32_in(0..10_000), g.f64_in(-1e6..1e6)))
            .collect(),
    }
}

/// A randomized message of any declared type (finite floats: the
/// identity check uses `PartialEq`; NaN bit preservation is pinned by a
/// codec unit test).
fn gen_message(g: &mut Gen) -> Message {
    let id = MESSAGE_IDS[g.usize_in(0..MESSAGE_IDS.len())];
    gen_message_of(g, id)
}

/// A randomized message with wire id `id`; panics on an id it has no
/// generator for.
fn gen_message_of(g: &mut Gen, id: u8) -> Message {
    match id {
        0x01 => Message::Request(Request::Ping),
        0x02 => Message::Request(Request::SubmitEvents(gen_events(g, 40))),
        0x03 => Message::Request(Request::Flush),
        0x04 => {
            let n = g.usize_in(0..40);
            Message::Request(Request::GetRows(
                (0..n).map(|_| g.u32_in(0..10_000)).collect(),
            ))
        }
        0x05 => Message::Request(Request::GetEmbedding),
        0x06 => Message::Request(Request::GetStats),
        0x07 => Message::Request(Request::Shutdown),
        0x81 => Message::Reply(Reply::Pong),
        0x82 => Message::Reply(Reply::SubmitAck {
            accepted: g.u64_in(0..u64::MAX),
        }),
        0x83 => Message::Reply(Reply::FlushAck {
            epoch: g.u64_in(0..u64::MAX),
        }),
        0x84 => {
            let dim = g.usize_in(1..9);
            let n = g.usize_in(0..12);
            let rows = (0..n)
                .map(|_| {
                    if g.prob(0.3) {
                        None
                    } else {
                        Some(gen_row(g, dim))
                    }
                })
                .collect();
            Message::Reply(Reply::Rows(RowsReply {
                epoch: g.u64_in(0..1_000_000),
                checksum_bits: g.u64_in(0..u64::MAX),
                dim: dim as u32,
                rows,
            }))
        }
        0x85 => {
            let dim = g.usize_in(1..9);
            let n = g.usize_in(0..12);
            let data: Vec<f64> = (0..n * dim).map(|_| g.f64_in(-1e6..1e6)).collect();
            Message::Reply(Reply::Embedding(EmbeddingReply {
                epoch: g.u64_in(0..1_000_000),
                checksum_bits: g.u64_in(0..u64::MAX),
                dim: dim as u32,
                sources: (0..n as u32).collect(),
                data,
            }))
        }
        0x86 => Message::Reply(Reply::Stats(Box::new(StatsReply {
            tenant: ServeStats {
                tenant: g.u32_in(0..64),
                epoch: g.u64_in(0..1_000_000),
                events_submitted: g.u64_in(0..1_000_000),
                events_applied: g.u64_in(0..1_000_000),
                events_coalesced: g.u64_in(0..1_000_000),
                events_pending: g.u64_in(0..1_000_000),
                batches_flushed: g.u64_in(0..1_000_000),
                flush_ms_last: g.f64_in(0.0..1e4),
                flush_ms_mean: g.f64_in(0.0..1e4),
                flush_ms_max: g.f64_in(0.0..1e4),
                blocks_refactored: g.u64_in(0..1_000_000),
                timings: PipelineTimings {
                    ppr_secs: g.f64_in(0.0..1e3),
                    rows_secs: g.f64_in(0.0..1e3),
                    svd_secs: g.f64_in(0.0..1e3),
                    updates: g.usize_in(0..1_000),
                },
            },
            host: HostStats {
                tenants: g.usize_in(1..8),
                batches_recorded: g.u64_in(0..1_000_000),
                epoch: g.u64_in(0..1_000_000),
                events_submitted: g.u64_in(0..1_000_000),
                events_applied: g.u64_in(0..1_000_000),
                events_coalesced: g.u64_in(0..1_000_000),
                events_pending: g.u64_in(0..1_000_000),
            },
        }))),
        0x87 => Message::Reply(Reply::ShutdownAck),
        0x0A => Message::Request(gen_top_k(g)),
        0x08 => Message::Request(Request::GetWindows {
            after_epoch: g.u64_in(0..u64::MAX),
            max: g.u32_in(0..u32::MAX),
        }),
        0x88 => {
            let n = g.usize_in(0..6);
            let windows = (0..n).map(|_| gen_events(g, 20)).collect();
            Message::Reply(Reply::Windows(WindowsReply {
                latest: g.u64_in(0..1_000_000),
                first_epoch: g.u64_in(0..1_000_000),
                windows,
            }))
        }
        0x09 => Message::Request(Request::GetCheckpoint),
        0x89 => {
            // Checkpoint bodies are checkpoint files in production, but
            // the codec promises byte transparency for any bytes — fuzz it
            // as such.
            let n = g.usize_in(0..200);
            let host: Vec<u8> = (0..n).map(|_| g.u32_in(0..256) as u8).collect();
            Message::Reply(Reply::Checkpoint(Box::new(CheckpointReply {
                epoch: g.u64_in(0..u64::MAX),
                host,
            })))
        }
        0x8A => Message::Reply(Reply::JournalGap {
            oldest: g.u64_in(0..u64::MAX),
            requested: g.u64_in(0..u64::MAX),
        }),
        0x8B => Message::Reply(Reply::TopKReply(gen_top_k_reply(g))),
        0xFF => {
            let n = g.usize_in(0..120);
            let msg: String = (0..n)
                .map(|_| char::from_u32(g.u32_in(32..0x2500)).unwrap_or('?'))
                .collect();
            Message::Reply(Reply::Error(msg))
        }
        other => panic!("no generator for declared message id {other:#04x}"),
    }
}

#[test]
fn every_declared_message_has_a_generator() {
    Checker::new(20).run("wire_ids", |g| {
        for &id in MESSAGE_IDS {
            ensure_eq!(gen_message_of(g, id).msg_id(), id);
        }
        Ok(())
    });
}

#[test]
fn prop_encode_decode_round_trip_identity() {
    Checker::new(400).run("wire_round_trip", |g| {
        let id = g.u64_in(0..u64::MAX);
        let tenant = g.u32_in(0..u32::MAX);
        let msg = gen_message(g);
        let mut buf = Vec::new();
        encode_frame(id, tenant, &msg, &mut buf);
        let (frame, used) = decode_frame(&buf).map_err(|e| format!("rejected own frame: {e}"))?;
        ensure_eq!(used, buf.len());
        ensure_eq!(frame.request_id, id);
        ensure_eq!(frame.tenant, tenant);
        ensure!(frame.message == msg, "decoded message differs");
        Ok(())
    });
}

#[test]
fn prop_any_single_byte_corruption_is_rejected() {
    Checker::new(300).run("wire_byte_flip", |g| {
        let msg = gen_message(g);
        let mut buf = Vec::new();
        encode_frame(g.u64_in(0..u64::MAX), g.u32_in(0..u32::MAX), &msg, &mut buf);
        let pos = g.usize_in(0..buf.len());
        let flip = 1u8 << g.usize_in(0..8);
        buf[pos] ^= flip;
        match decode_frame(&buf) {
            Err(_) => Ok(()),
            // A flipped length byte can make the frame *longer* than the
            // buffer only if it grows the length — shrinking it still fails
            // the checksum. Either way Ok(..) must be impossible.
            Ok(_) => Err(format!("flip of bit {flip:#x} at byte {pos} accepted")),
        }
    });
}

#[test]
fn prop_top_k_frames_round_trip_and_reject_every_flip() {
    // The serving-path messages specifically: identity on the nose, the
    // tenant echoed exactly, and *every* single-byte corruption — header,
    // discriminant bytes (metric, presence tag, found), k field, floats —
    // rejected. Complements the targeted offset tests in the codec.
    Checker::new(400).run("wire_top_k", |g| {
        let id = g.u64_in(0..u64::MAX);
        let tenant = g.u32_in(0..u32::MAX);
        let msg = if g.bool() {
            Message::Request(gen_top_k(g))
        } else {
            Message::Reply(Reply::TopKReply(gen_top_k_reply(g)))
        };
        let mut buf = Vec::new();
        encode_frame(id, tenant, &msg, &mut buf);
        let (frame, used) = decode_frame(&buf).map_err(|e| format!("rejected own frame: {e}"))?;
        ensure_eq!(used, buf.len());
        ensure_eq!(frame.tenant, tenant);
        ensure!(frame.message == msg, "decoded top-k message differs");
        let pos = g.usize_in(0..buf.len());
        let flip = 1u8 << g.usize_in(0..8);
        buf[pos] ^= flip;
        match decode_frame(&buf) {
            Err(_) => Ok(()),
            Ok(_) => Err(format!("flip of bit {flip:#x} at byte {pos} accepted")),
        }
    });
}

#[test]
fn prop_tenant_id_byte_flips_are_rejected() {
    // The tenant id sits at header bytes [12..16), inside the checksummed
    // range — a flipped tenant must never decode as a different tenant's
    // valid frame (that would cross-deliver replies between clients).
    Checker::new(300).run("wire_tenant_flip", |g| {
        let tenant = g.u32_in(0..u32::MAX);
        let msg = gen_message(g);
        let mut buf = Vec::new();
        encode_frame(g.u64_in(0..u64::MAX), tenant, &msg, &mut buf);
        let pos = 12 + g.usize_in(0..4);
        let flip = 1u8 << g.usize_in(0..8);
        buf[pos] ^= flip;
        match decode_frame(&buf) {
            Err(WireError::Checksum) => Ok(()),
            Err(e) => Err(format!(
                "tenant flip at byte {pos}: expected Checksum, got {e}"
            )),
            Ok(_) => Err(format!("tenant flip at byte {pos} accepted")),
        }
    });
}

#[test]
fn prop_old_version_frames_are_rejected_from_header_alone() {
    // Version negotiation fails closed: every older version (v1, v2, v3)
    // and any other non-current version byte is rejected as BadVersion
    // before the payload is even looked at.
    Checker::new(200).run("wire_bad_version", |g| {
        let msg = gen_message(g);
        let mut buf = Vec::new();
        encode_frame(g.u64_in(0..u64::MAX), g.u32_in(0..64), &msg, &mut buf);
        let drawn = loop {
            let v = g.u32_in(0..256) as u8;
            if v != buf[2] {
                break v;
            }
        };
        for bad in (1..WIRE_VERSION).chain([drawn]) {
            buf[2] = bad;
            match decode_frame(&buf) {
                Err(WireError::BadVersion(v)) => ensure_eq!(v, bad),
                Err(e) => return Err(format!("version {bad}: expected BadVersion, got {e}")),
                Ok(_) => return Err(format!("version {bad} accepted")),
            }
        }
        Ok(())
    });
}

#[test]
fn prop_truncation_at_any_point_is_rejected() {
    Checker::new(200).run("wire_truncation", |g| {
        let msg = gen_message(g);
        let mut buf = Vec::new();
        encode_frame(1, g.u32_in(0..u32::MAX), &msg, &mut buf);
        let cut = g.usize_in(0..buf.len());
        match decode_frame(&buf[..cut]) {
            Err(WireError::Truncated) => Ok(()),
            Err(e) => Err(format!("cut at {cut}: expected Truncated, got {e}")),
            Ok(_) => Err(format!("cut at {cut} accepted")),
        }
    });
}

#[test]
fn prop_fuzz_bytes_never_panic_decoder() {
    Checker::new(600).run("wire_fuzz", |g| {
        let n = g.usize_in(0..200);
        let mut bytes: Vec<u8> = (0..n).map(|_| g.u32_in(0..256) as u8).collect();
        // Half the time, plant a plausible header so deeper decode paths
        // (version/msg-id/length/checksum/payload walks) get fuzzed too.
        if g.bool() && bytes.len() >= HEADER_LEN {
            bytes[0..2].copy_from_slice(&0x5654u16.to_le_bytes());
            if g.bool() {
                bytes[2] = WIRE_VERSION;
            }
            if g.bool() {
                // In-range announced length; checksum still random.
                let len = g.u32_in(0..(bytes.len() as u32 + 8));
                bytes[16..20].copy_from_slice(&len.to_le_bytes());
            }
        }
        // Must not panic; Ok is astronomically unlikely but legal (a
        // planted header with a colliding checksum would be a miracle).
        let _ = decode_frame(&bytes);
        Ok(())
    });
}

#[test]
fn oversized_announcement_is_rejected_without_allocation() {
    // Frame claiming a 4 GiB payload: decode must fail fast from the
    // header. (If it tried to allocate, this test would OOM, not fail.)
    let mut buf = vec![0u8; HEADER_LEN];
    buf[0..2].copy_from_slice(&0x5654u16.to_le_bytes());
    buf[2] = WIRE_VERSION;
    buf[3] = 0x01;
    buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&buf),
        Err(WireError::Oversized(n)) if n > MAX_PAYLOAD
    ));
}

#[test]
fn checkpoint_body_length_beyond_payload_rejected_before_allocation() {
    // The checkpoint-specific oversize path: a *genuine* Checkpoint frame
    // (valid header, recomputed frame checksum) whose inner body-length
    // field announces more bytes than the payload holds. The 0x89 decoder
    // must reject it from the count check before sizing any allocation
    // from the field — a header-level `payload_len` above MAX_PAYLOAD
    // never reaches the message decoder at all, so only this construction
    // exercises the checkpoint decoder. (The checkpoint reply is the
    // largest message in practice: it carries a whole checkpoint file.)
    let mut buf = Vec::new();
    encode_frame(
        7,
        0,
        &Message::Reply(Reply::Checkpoint(Box::new(CheckpointReply {
            epoch: 5,
            host: b"TSVDCKPT".to_vec(),
        }))),
        &mut buf,
    );
    // The length field sits right after the u64 epoch in the payload.
    buf[HEADER_LEN + 8..HEADER_LEN + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = frame_checksum(&buf[2..20], &buf[HEADER_LEN..]);
    buf[20..28].copy_from_slice(&crc.to_le_bytes());
    match decode_frame(&buf) {
        Err(WireError::Malformed(why)) => {
            assert!(why.contains("count") && why.contains("exceeds"), "{why}")
        }
        other => panic!("expected a count refusal, got {other:?}"),
    }
}
