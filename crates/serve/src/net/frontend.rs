//! The network front: accepts connections (TCP or in-process loopback)
//! and serves the wire protocol against a running [`EmbeddingServer`](crate::EmbeddingServer).
//!
//! Every connection is served on one thread by the shared loop in
//! `conn`:
//!
//! ```text
//!  socket ──▶ FrameReader ──▶ execute / one batch scan per TopK run ──▶ FrameWriter ──▶ socket
//!                             (against the server handle and the
//!                              per-tenant wait-free readers)
//! ```
//!
//! Replies leave one write per pipelined burst, a lone request is never
//! held back, and a pipelined run of `TopK` requests is answered from one
//! `reader.snapshot()` by one call to the batch scan, every reply naming
//! the same epoch. Each answer is bitwise the single-query answer (see the
//! [`query`](crate::query) module docs); a lone `TopK` is a run of one,
//! answered at once.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::engine::ShardedEngine;
use crate::journal::JournalError;
use crate::server::{EmbeddingReader, ServerHandle, SubmitError};
use crate::snapshot::TopKQuery;
use crate::tenant::{TenantHost, TenantId};

use super::conn::{self, Conns, Handler, TopK};
use super::transport::{pipe, Duplex, Transport};
use super::wire::{
    CheckpointReply, EmbeddingReply, FrameWriter, Reply, Request, RowsReply, TopKReply,
    WindowsReply, MAX_PAYLOAD,
};

/// Byte capacity of each loopback pipe direction (socket-buffer analogue).
const LOOPBACK_PIPE_CAP: usize = 64 * 1024;

/// State shared by the front, its listeners, and every connection.
struct FrontShared {
    /// The server handle; taken (→ `None`) by [`NetFront::shutdown`].
    handle: RwLock<Option<ServerHandle>>,
    /// Wait-free read path, one reader per tenant, shared by all
    /// connections. Requests name their tenant in the frame header.
    readers: HashMap<TenantId, EmbeddingReader>,
    /// Listener and connection threads, and the stop flag.
    conns: Arc<Conns>,
}

/// The network front over a running [`EmbeddingServer`](crate::EmbeddingServer).
///
/// ```no_run
/// # use tsvd_serve::*;
/// # let engine: ShardedEngine = unimplemented!();
/// let front = NetFront::start(EmbeddingServer::start(engine, ServeConfig::default()));
/// let addr = front.listen("127.0.0.1:0").unwrap(); // real TCP
/// let lb = front.loopback();                        // deterministic in-process
/// # let _ = (addr, lb);
/// let engine = front.shutdown(); // stop listeners + connections, reclaim engine
/// ```
pub struct NetFront {
    shared: Arc<FrontShared>,
}

impl NetFront {
    /// Wrap a running server. No listener is opened yet — call
    /// [`NetFront::listen`] and/or [`NetFront::loopback`].
    pub fn start(handle: ServerHandle) -> NetFront {
        let readers = handle
            .tenant_ids()
            .into_iter()
            .map(|id| (id, handle.reader_for(id).expect("listed tenant has a cell")))
            .collect();
        NetFront::with(Some(handle), readers)
    }

    /// A **read-only** front over externally-owned readers — no server
    /// handle behind it. This is how a follower process exposes its
    /// replicated state on the network: the follower keeps applying
    /// windows through its own cells, and every `GetRows` served here
    /// sees the follower's latest published epoch. Write-path requests
    /// (`SubmitEvents`, `Flush`, `GetStats`, `GetWindows`,
    /// `GetCheckpoint`) answer `Reply::Error` as if the server were shut
    /// down; `Shutdown` stops the front. Reclaim nothing — tear down with
    /// [`NetFront::shutdown_readers`].
    pub fn start_readers(readers: Vec<(TenantId, EmbeddingReader)>) -> NetFront {
        NetFront::with(None, readers.into_iter().collect())
    }

    fn with(handle: Option<ServerHandle>, readers: HashMap<TenantId, EmbeddingReader>) -> NetFront {
        NetFront {
            shared: Arc::new(FrontShared {
                handle: RwLock::new(handle),
                readers,
                conns: Conns::new("tsvd-net"),
            }),
        }
    }

    /// Bind a TCP listener on `addr` (use port 0 for an OS-assigned port)
    /// and start accepting connections. Returns the bound address. May be
    /// called more than once to listen on several addresses.
    pub fn listen(&self, addr: &str) -> io::Result<SocketAddr> {
        let shared = self.shared.clone();
        self.shared.conns.listen(addr, move |duplex| {
            serve_connection(&shared, duplex, MAX_PAYLOAD)
        })
    }

    /// A deterministic in-process transport: each
    /// [`Transport::open`] builds a bounded pipe pair and serves it with
    /// the exact same connection code path as TCP. Used by the equivalence
    /// tests to prove wire replies bitwise identical to in-process calls.
    pub fn loopback(&self) -> LoopbackTransport {
        LoopbackTransport {
            shared: self.shared.clone(),
        }
    }

    /// Whether the front has been told to stop (e.g. a client sent
    /// [`Request::Shutdown`]). The engine is still owned by the front
    /// until [`NetFront::shutdown`] reclaims it.
    pub fn is_stopped(&self) -> bool {
        self.shared.conns.is_stopped()
    }

    /// Block until the front is stopped or `timeout` elapses.
    pub fn wait_stopped(&self, timeout: Duration) -> bool {
        self.shared.conns.wait_stopped(timeout)
    }

    /// Stop listeners and connections, shut the server down, and take the
    /// engine back (mirrors [`ServerHandle::shutdown`]). Single-tenant
    /// fronts only; multi-tenant fronts use
    /// [`shutdown_host`](Self::shutdown_host).
    pub fn shutdown(self) -> ShardedEngine {
        self.shutdown_host().into_single_engine()
    }

    /// Stop listeners and connections, shut the server down, and take the
    /// whole tenant host back (mirrors [`ServerHandle::shutdown_host`]).
    pub fn shutdown_host(self) -> TenantHost {
        self.shared.conns.shutdown();
        let handle = self
            .shared
            .handle
            .write()
            .unwrap()
            .take()
            .expect("NetFront::shutdown called twice");
        handle.shutdown_host()
    }

    /// Stop a readers-only front ([`NetFront::start_readers`]): listeners
    /// and connections are joined; there is no server or host to reclaim.
    /// If this front *does* own a server handle it is shut down and its
    /// host dropped.
    pub fn shutdown_readers(self) {
        self.shared.conns.shutdown();
        if let Some(handle) = self.shared.handle.write().unwrap().take() {
            drop(handle.shutdown_host());
        }
    }
}

/// In-process [`Transport`] built by [`NetFront::loopback`].
#[derive(Clone)]
pub struct LoopbackTransport {
    shared: Arc<FrontShared>,
}

impl Transport for LoopbackTransport {
    fn open(&self) -> io::Result<Duplex> {
        if self.shared.conns.is_stopped() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "network front is shut down",
            ));
        }
        // client → server direction: no timeout; the front's stop closes it.
        let (c2s_w, c2s_r) = pipe(LOOPBACK_PIPE_CAP, None);
        let close = c2s_r.closer();
        // server → client direction: the client's reply-read timeout.
        let (s2c_w, s2c_r) = pipe(LOOPBACK_PIPE_CAP, Some(Duration::from_secs(10)));
        let shared = self.shared.clone();
        let duplex = Duplex {
            reader: Box::new(c2s_r),
            writer: Box::new(s2c_w),
            peer: "loopback-peer".into(),
        };
        self.shared.conns.spawn(close, move || {
            serve_connection(&shared, duplex, MAX_PAYLOAD)
        });
        Ok(Duplex {
            reader: Box::new(s2c_r),
            writer: Box::new(c2s_w),
            peer: "loopback".into(),
        })
    }
}

/// Serve one connection to completion on the calling thread, answering
/// replies over `cap` payload bytes with a typed error.
fn serve_connection(shared: &FrontShared, duplex: Duplex, cap: u32) {
    conn::serve(
        &mut &*shared,
        duplex.reader,
        FrameWriter::with_cap(duplex.writer, cap as usize),
        &shared.conns.stop,
    );
}

impl Handler for &FrontShared {
    /// Execute one request against the tenant named in its frame header.
    /// Returns the reply and whether the connection (and for
    /// [`Request::Shutdown`], the whole front) should stop afterwards.
    ///
    /// An unknown tenant or an exceeded quota is a *request*-level fault:
    /// the reply is [`Reply::Error`] but the connection stays open (the
    /// client may be multiplexing tenants or waiting out backpressure).
    fn execute(&mut self, tenant: u32, req: Request) -> (Reply, bool) {
        let shared = *self;
        match req {
            Request::Ping => (Reply::Pong, false),
            Request::SubmitEvents(events) => {
                let accepted = events.len() as u64;
                match &*shared.handle.read().unwrap() {
                    Some(h) => match h.submit_batch_to(tenant, events) {
                        Ok(()) => (Reply::SubmitAck { accepted }, false),
                        Err(e @ SubmitError::Closed) => (Reply::Error(e.to_string()), true),
                        Err(e) => (Reply::Error(e.to_string()), false),
                    },
                    None => (Reply::Error("server is shut down".into()), true),
                }
            }
            Request::Flush => match &*shared.handle.read().unwrap() {
                Some(h) => (
                    Reply::FlushAck {
                        epoch: h.flush_sync(),
                    },
                    false,
                ),
                None => (Reply::Error("server is shut down".into()), true),
            },
            Request::GetRows(nodes) => {
                let Some(reader) = shared.readers.get(&tenant) else {
                    return (Reply::Error(format!("unknown tenant {tenant}")), false);
                };
                let snap = reader.snapshot();
                let rows = nodes
                    .iter()
                    .map(|&n| snap.get(n).map(|r| r.to_vec()))
                    .collect();
                (
                    Reply::Rows(RowsReply {
                        epoch: snap.epoch(),
                        checksum_bits: snap.checksum().to_bits(),
                        dim: snap.dim() as u32,
                        rows,
                    }),
                    false,
                )
            }
            // Readers-only path too (no server handle), so follower fronts
            // serve top-k like GetRows — but always in runs, never here.
            Request::TopK { .. } => unreachable!("the connection loop answers TopK in runs"),
            Request::GetEmbedding => {
                let Some(reader) = shared.readers.get(&tenant) else {
                    return (Reply::Error(format!("unknown tenant {tenant}")), false);
                };
                let snap = reader.snapshot();
                let left = snap.tagged().left();
                let mut data = Vec::with_capacity(left.rows() * snap.dim());
                for r in 0..left.rows() {
                    data.extend_from_slice(left.row(r));
                }
                (
                    Reply::Embedding(EmbeddingReply {
                        epoch: snap.epoch(),
                        checksum_bits: snap.checksum().to_bits(),
                        dim: snap.dim() as u32,
                        sources: snap.sources().to_vec(),
                        data,
                    }),
                    false,
                )
            }
            Request::GetStats => match &*shared.handle.read().unwrap() {
                Some(h) => match h.stats_reply(tenant) {
                    Some(reply) => (Reply::Stats(Box::new(reply)), false),
                    None => (Reply::Error(format!("unknown tenant {tenant}")), false),
                },
                None => (Reply::Error("server is shut down".into()), true),
            },
            Request::Shutdown => {
                // Flush so everything submitted is durable in the engines, then
                // stop the whole front. The owner reclaims the host via
                // NetFront::shutdown / shutdown_host.
                if let Some(h) = &*shared.handle.read().unwrap() {
                    h.flush_sync();
                }
                shared.conns.stop();
                (Reply::ShutdownAck, true)
            }
            Request::GetWindows { after_epoch, max } => match &*shared.handle.read().unwrap() {
                Some(h) => match h.journal_windows(after_epoch, max as usize) {
                    Ok(run) => (
                        Reply::Windows(WindowsReply {
                            latest: run.latest,
                            first_epoch: run.first_epoch,
                            windows: run.windows,
                        }),
                        false,
                    ),
                    // First-class over the wire: the follower branches on
                    // the typed gap (re-seed from a checkpoint) instead of
                    // parsing an error string.
                    Err(JournalError::Compacted { oldest, requested }) => {
                        (Reply::JournalGap { oldest, requested }, false)
                    }
                },
                None => (Reply::Error("server is shut down".into()), true),
            },
            Request::GetCheckpoint => match &*shared.handle.read().unwrap() {
                Some(h) => match h.checkpoint_bytes() {
                    Some((epoch, host)) => (
                        Reply::Checkpoint(Box::new(CheckpointReply { epoch, host })),
                        false,
                    ),
                    None => (Reply::Error("server is shut down".into()), true),
                },
                None => (Reply::Error("server is shut down".into()), true),
            },
        }
    }

    /// Answer a run from one snapshot with one batch scan, replies in
    /// request order. A query vector of the wrong dimension, or a tenant
    /// this front does not serve, is answered with its typed error in its
    /// own place.
    fn execute_run(&mut self, tenant: u32, run: Vec<TopK>) -> (Vec<Reply>, bool) {
        let Some(reader) = self.readers.get(&tenant) else {
            let why = format!("unknown tenant {tenant}");
            return (vec![Reply::Error(why); run.len()], false);
        };
        let snap = reader.snapshot();
        let dim = snap.dim();
        let queries: Vec<TopKQuery> = run
            .iter()
            .filter_map(|held| match &held.query {
                Some(q) if q.len() != dim => None,
                Some(q) => Some(TopKQuery::Vector {
                    q,
                    k: held.k as usize,
                    metric: held.metric,
                    exclude: Some(held.node),
                }),
                None => Some(TopKQuery::Node {
                    node: held.node,
                    k: held.k as usize,
                    metric: held.metric,
                }),
            })
            .collect();
        let mut answers = snap.top_k_batch(&queries).into_iter();
        let replies = run
            .iter()
            .map(|held| match &held.query {
                Some(q) if q.len() != dim => Reply::Error(format!(
                    "query dim {} does not match embedding dim {dim}",
                    q.len()
                )),
                _ => {
                    let neighbors = answers.next().expect("one answer per scanned query");
                    Reply::TopKReply(TopKReply {
                        epoch: snap.epoch(),
                        checksum_bits: snap.checksum().to_bits(),
                        found: neighbors.is_some(),
                        neighbors: neighbors.unwrap_or_default(),
                    })
                }
            })
            .collect();
        (replies, false)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::io::Write;

    use tsvd_core::TreeSvdConfig;
    use tsvd_graph::{DynGraph, EdgeEvent};
    use tsvd_ppr::PprConfig;

    use super::super::conn::tests::Served;
    use super::super::wire::{decode_frame, encode_frame, FrameReader, Message};
    use super::*;
    use crate::query::Metric;
    use crate::{EmbeddingServer, ServeConfig};

    #[test]
    fn a_checkpoint_over_the_frame_cap_is_a_typed_error_not_an_undecodable_frame() {
        let cap = 4096;
        let checkpoint = |len: usize| {
            Reply::Checkpoint(Box::new(CheckpointReply {
                epoch: 7,
                host: vec![0xA5; len],
            }))
        };
        let mut frame = Vec::new();
        let mut w = FrameWriter::with_cap(&mut frame, cap);
        // Exactly at the cap: a Checkpoint whose frame payload is the cap —
        // `u64 epoch`, `u32 len`, then the file's bytes.
        w.push_reply(1, 0, checkpoint(cap - 12));
        w.flush().unwrap();
        let payload_len = u32::from_le_bytes(frame[16..20].try_into().unwrap()) as usize;
        assert_eq!(payload_len, cap);
        assert_eq!(frame.len(), 28 + cap);
        // One byte more: refused on the same request id, with both numbers
        // in the message.
        frame.clear();
        let mut w = FrameWriter::with_cap(&mut frame, cap);
        w.push_reply(1, 0, checkpoint(cap - 11));
        w.flush().unwrap();
        let (f, used) = decode_frame(&frame).unwrap();
        assert_eq!((f.request_id, used), (1, frame.len()));
        match f.message {
            Message::Reply(Reply::Error(why)) => {
                assert!(why.starts_with("reply exceeds the frame cap"), "{why}");
                assert!(why.contains("4097") && why.contains("4096"), "{why}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    /// A served test host over `sources` of one 40-node graph, flushed
    /// only on request.
    pub(crate) fn server(sources: &[u32]) -> ServerHandle {
        let mut g = DynGraph::with_nodes(40);
        for u in 0..40u32 {
            g.insert_edge(u, (u + 1) % 40);
            g.insert_edge(u, (u * 7 + 3) % 40);
        }
        let tree = TreeSvdConfig {
            dim: 4,
            num_blocks: 2,
            ..Default::default()
        };
        let engine = ShardedEngine::new(&g, sources, 1, PprConfig::default(), tree);
        let cfg = ServeConfig {
            flush_max_events: 1 << 20,
            flush_interval_ms: 60_000,
            ..Default::default()
        };
        EmbeddingServer::start(engine, cfg)
    }

    /// A `NetFront` over eight subset rows.
    pub(crate) fn served() -> Served {
        let handle = server(&(0..8).collect::<Vec<u32>>());
        let reader = handle.reader_for(0).expect("tenant 0");
        let front = NetFront::start(handle);
        let shared = front.shared.clone();
        Served {
            conns: shared.conns.clone(),
            serve: Box::new(move |close, duplex, cap| {
                let conn = shared.clone();
                shared
                    .conns
                    .spawn(close, move || serve_connection(&conn, duplex, cap));
            }),
            reader,
            shutdown: Box::new(move || drop(front.shutdown())),
        }
    }

    /// The threads and stop of `front`.
    pub(crate) fn conns_of(front: &NetFront) -> Arc<Conns> {
        front.shared.conns.clone()
    }

    fn top_k(node: u32, k: u32, metric: Metric, query: Option<Vec<f64>>) -> Request {
        Request::TopK {
            node,
            k,
            metric,
            query,
        }
    }

    /// A pipelined burst of `TopK` replies, as `(epoch, checksum, found,
    /// neighbours as bits)` — what a bitwise comparison needs.
    fn top_k_bits(reply: &Reply) -> (u64, u64, bool, Vec<(u32, u64)>) {
        let Reply::TopKReply(t) = reply else {
            panic!("expected a TopK reply, got {reply:?}");
        };
        let neighbors = t.neighbors.iter().map(|&(n, s)| (n, s.to_bits())).collect();
        (t.epoch, t.checksum_bits, t.found, neighbors)
    }

    #[test]
    fn a_pipelined_top_k_burst_is_one_write_at_one_epoch() {
        let served = served();
        let (mut client, log) = served.connect(MAX_PAYLOAD);
        let metrics = [Metric::Dot, Metric::Cosine];
        let burst: Vec<Request> = (0..16u32)
            .map(|i| top_k(i % 8, 1 + i % 5, metrics[i as usize % 2], None))
            .collect();
        let replies = client.pipeline(&burst).unwrap();
        assert_eq!(log.writes(), [(0, 16)]);
        let snap = served.reader.snapshot();
        for (req, reply) in burst.iter().zip(&replies) {
            let Request::TopK {
                node, k, metric, ..
            } = *req
            else {
                unreachable!()
            };
            let want = snap.top_k(node, k as usize, metric).unwrap();
            let want = want.iter().map(|&(n, s)| (n, s.to_bits())).collect();
            assert_eq!(
                top_k_bits(reply),
                (0, snap.checksum().to_bits(), true, want)
            );
        }
        drop(client);
        served.shutdown();
    }

    #[test]
    fn a_top_k_run_ahead_of_a_flush_is_answered_and_written_before_it_runs() {
        let served = served();
        let (mut client, log) = served.connect(MAX_PAYLOAD);
        client
            .submit_events(vec![EdgeEvent::insert(0, 20)])
            .unwrap();
        let replies = client
            .pipeline(&[
                top_k(1, 3, Metric::Dot, None),
                top_k(2, 3, Metric::Cosine, None),
                Request::Flush,
                top_k(1, 3, Metric::Dot, None),
            ])
            .unwrap();
        assert!(matches!(replies[2], Reply::FlushAck { epoch: 1 }));
        let epochs: Vec<u64> = [&replies[0], &replies[1], &replies[3]]
            .into_iter()
            .map(|r| top_k_bits(r).0)
            .collect();
        assert_eq!(epochs, [0, 0, 1]);
        // The submit ack; the two-query run, written while epoch 0 was
        // still served; then the flush ack and the query behind it.
        assert_eq!(log.writes(), [(0, 1), (0, 2), (1, 2)]);
        drop(client);
        served.shutdown();
    }

    /// Misses and faults inside a run are answered in their own places:
    /// a node outside the subset is `found: false`, a query vector of the
    /// wrong dimension and an unknown tenant are typed errors, and the
    /// queries around them are answered as if alone.
    #[test]
    fn misses_and_faults_inside_a_top_k_run_are_answered_in_place() {
        let served = served();
        let (duplex, log) = served.connect_raw(MAX_PAYLOAD);
        let snap = served.reader.snapshot();
        let q = snap.get(6).unwrap().to_vec();
        let burst = [
            (0, top_k(3, 4, Metric::Dot, None)),
            (0, top_k(999, 4, Metric::Dot, None)),
            (0, top_k(2, 4, Metric::Dot, Some(vec![1.0; 3]))),
            (9, top_k(2, 4, Metric::Dot, None)),
            (0, top_k(6, 3, Metric::Cosine, Some(q.clone()))),
            (0, top_k(5, 2, Metric::Cosine, None)),
        ];
        let mut bytes = Vec::new();
        for (i, (tenant, req)) in burst.iter().enumerate() {
            encode_frame(
                i as u64 + 1,
                *tenant,
                &Message::Request(req.clone()),
                &mut bytes,
            );
        }
        let Duplex {
            reader, mut writer, ..
        } = duplex;
        writer.write_all(&bytes).unwrap();
        let mut reader = FrameReader::new(reader);
        let replies: Vec<_> = (1..=burst.len() as u64)
            .map(|id| {
                let frame = reader.read_frame().unwrap().expect("a reply per request");
                assert_eq!(frame.request_id, id);
                let Message::Reply(reply) = frame.message else {
                    panic!("request frame on the reply path");
                };
                (frame.tenant, reply)
            })
            .collect();
        let found = |want: Vec<(u32, f64)>| {
            let want = want.iter().map(|&(n, s)| (n, s.to_bits())).collect();
            (0, snap.checksum().to_bits(), true, want)
        };
        assert_eq!(
            top_k_bits(&replies[0].1),
            found(snap.top_k(3, 4, Metric::Dot).unwrap())
        );
        assert_eq!(
            top_k_bits(&replies[1].1),
            (0, snap.checksum().to_bits(), false, vec![])
        );
        assert!(
            matches!(&replies[2].1, Reply::Error(why) if why == "query dim 3 does not match embedding dim 4"),
            "{:?}",
            replies[2]
        );
        assert!(
            matches!(&replies[3], (9, Reply::Error(why)) if why == "unknown tenant 9"),
            "{:?}",
            replies[3]
        );
        assert_eq!(
            top_k_bits(&replies[4].1),
            found(snap.top_k_by_vector(&q, 3, Metric::Cosine, Some(6)))
        );
        assert_eq!(
            top_k_bits(&replies[5].1),
            found(snap.top_k(5, 2, Metric::Cosine).unwrap())
        );
        // The unknown tenant splits the run in two; still one write.
        assert_eq!(log.writes(), [(0, 6)]);
        drop((writer, reader));
        served.shutdown();
    }
}
