//! The network front: accepts connections (TCP or in-process loopback)
//! and serves the wire protocol against a running [`EmbeddingServer`].
//!
//! Every connection gets two threads wired through an
//! [`rt::exec`](tsvd_rt::exec) reactor:
//!
//! ```text
//!  socket ──▶ reader thread ─────▶ bounded Mailbox<ConnMsg> ──▶ dispatcher
//!             (FrameReader, one     (cap 256 requests:           (EventLoop:
//!              64 KiB buffer:        backpressure)                execute, encode
//!              decode, tag each                                   into FrameWriter;
//!              request "more is                                   hold a TopK run,
//!              buffered behind me")                               answer it with
//!                                                                 one scan; write
//!                                                                 on an untagged
//!                                                                 request)
//!  socket ◀────────────────────────────────── one write_all per burst ──┘
//! ```
//!
//! The reader thread tags each request with whether another whole frame
//! already sits in its buffer. The dispatcher appends each reply to one
//! reused buffer and writes it out when the request was untagged (nothing
//! more is waiting, so **a lone request is never held back**), when the
//! buffer passes 64 KiB, and before running a request that can block
//! ([`Request::may_block`]). A pipelined burst of 16 `GetRows` is
//! therefore one `read` in and one `write` out. The tag travels with the
//! request, so the mailbox stays bounded in requests, not bytes.
//!
//! A tagged `TopK` is not answered on arrival: it joins the current **run**
//! of `TopK`s. The run is answered — from one `reader.snapshot()`, by one
//! call to the batch scan, replies in request order — at its first
//! untagged `TopK`, when another request kind or another tenant arrives
//! (before that request runs), at a connection error, when the reader
//! stops, or at 64 requests. A pipelined burst of 16 `TopK` therefore
//! costs one scan of the matrix for 16 queries, and every reply in it
//! names the same epoch. Each answer is bitwise the single-query answer
//! (see the [`query`](crate::query) module docs); a lone `TopK` is a run
//! of one, answered at once.
//!
//! The bounded mailbox is the backpressure boundary: when a client floods
//! requests faster than flushes complete, the mailbox fills, the reader
//! thread blocks on `send`, the socket's receive buffer fills, and the
//! client's own writes stall — no unbounded queue anywhere. Requests on
//! one connection are executed strictly in arrival order, so replies need
//! no reordering metadata beyond the echoed request id.
//!
//! Reads (both the server's and the loopback pipes') carry a short timeout
//! so every blocking loop observes the stop flag promptly; a frame in
//! flight is never torn by the timeout (see
//! [`FrameReader::read_frame_until`]).

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use tsvd_rt::exec::{Event, EventLoop, Flow};

use crate::engine::ShardedEngine;
use crate::journal::JournalError;
use crate::query::Metric;
use crate::server::{EmbeddingReader, ServerHandle, SubmitError};
use crate::snapshot::TopKQuery;
use crate::tenant::{TenantHost, TenantId};

use super::transport::{pipe, Duplex, Transport};
use super::wire::{
    CheckpointReply, EmbeddingReply, FrameReader, FrameWriter, Message, Reply, Request, RowsReply,
    TopKReply, WindowsReply, MAX_PAYLOAD,
};

/// Poll interval for stop-flag checks in blocking reads and accept loops.
const POLL: Duration = Duration::from_millis(25);

/// Per-connection request queue depth (the backpressure bound).
const CONN_MAILBOX_CAP: usize = 256;

/// Most pipelined `TopK` requests answered by one scan.
const TOP_K_RUN_CAP: usize = 64;

/// Byte capacity of each loopback pipe direction (socket-buffer analogue).
const LOOPBACK_PIPE_CAP: usize = 64 * 1024;

/// What the connection reader thread hands to the dispatcher.
enum ConnMsg {
    /// A decoded request: id, tenant (from the frame header), the request,
    /// and whether another whole frame was already buffered behind it.
    Request {
        id: u64,
        tenant: u32,
        req: Request,
        more: bool,
    },
    /// The byte stream is unusable (corrupt frame / protocol violation):
    /// report to the peer, then close.
    Corrupt(String),
}

/// State shared by the front, its listeners, and every connection.
struct FrontShared {
    /// The server handle; taken (→ `None`) by [`NetFront::shutdown`].
    handle: RwLock<Option<ServerHandle>>,
    /// Wait-free read path, one reader per tenant, shared by all
    /// connections. Requests name their tenant in the frame header.
    readers: HashMap<TenantId, EmbeddingReader>,
    /// Set once; all listeners and connections wind down when they see it.
    stop: AtomicBool,
    /// Connection threads to join on shutdown.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Monotone connection counter (thread labels / diagnostics).
    accepted: AtomicU64,
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
    listeners: Mutex<Vec<JoinHandle<()>>>,
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
        NetFront {
            shared: Arc::new(FrontShared {
                handle: RwLock::new(Some(handle)),
                readers,
                stop: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
                accepted: AtomicU64::new(0),
            }),
            listeners: Mutex::new(Vec::new()),
        }
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
        NetFront {
            shared: Arc::new(FrontShared {
                handle: RwLock::new(None),
                readers: readers.into_iter().collect(),
                stop: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
                accepted: AtomicU64::new(0),
            }),
            listeners: Mutex::new(Vec::new()),
        }
    }

    /// Bind a TCP listener on `addr` (use port 0 for an OS-assigned port)
    /// and start accepting connections. Returns the bound address. May be
    /// called more than once to listen on several addresses.
    pub fn listen(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = self.shared.clone();
        let jh = std::thread::Builder::new()
            .name("tsvd-net-accept".into())
            .spawn(move || {
                while !shared.stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            if stream.set_nodelay(true).is_err()
                                || stream.set_read_timeout(Some(POLL)).is_err()
                            {
                                continue;
                            }
                            let reader = match stream.try_clone() {
                                Ok(r) => r,
                                Err(_) => continue,
                            };
                            spawn_connection(
                                shared.clone(),
                                Duplex {
                                    reader: Box::new(reader),
                                    writer: Box::new(stream),
                                    peer: peer.to_string(),
                                },
                            );
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
            })
            .expect("spawn tsvd-net-accept");
        self.listeners.lock().unwrap().push(jh);
        Ok(local)
    }

    /// A deterministic in-process transport: each
    /// [`Transport::open`] builds a bounded pipe pair and serves it with
    /// the exact same connection code path as TCP. Used by the equivalence
    /// tests to prove wire replies bitwise identical to in-process calls.
    pub fn loopback(&self) -> LoopbackTransport {
        LoopbackTransport {
            shared: self.shared.clone(),
            read_timeout: Some(Duration::from_secs(10)),
        }
    }

    /// Whether the front has been told to stop (e.g. a client sent
    /// [`Request::Shutdown`]). The engine is still owned by the front
    /// until [`NetFront::shutdown`] reclaims it.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Number of connections accepted over the front's lifetime.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Block (polling) until the front is stopped or `timeout` elapses.
    pub fn wait_stopped(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while !self.is_stopped() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
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
        self.stop_network();
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
        self.stop_network();
        if let Some(handle) = self.shared.handle.write().unwrap().take() {
            drop(handle.shutdown_host());
        }
    }

    /// Set the stop flag and join every listener and connection thread.
    fn stop_network(&self) {
        self.shared.stop.store(true, Ordering::Release);
        for jh in self.listeners.lock().unwrap().drain(..) {
            let _ = jh.join();
        }
        let conns: Vec<_> = self.shared.conns.lock().unwrap().drain(..).collect();
        for jh in conns {
            let _ = jh.join();
        }
    }
}

/// In-process [`Transport`] built by [`NetFront::loopback`].
#[derive(Clone)]
pub struct LoopbackTransport {
    shared: Arc<FrontShared>,
    read_timeout: Option<Duration>,
}

impl LoopbackTransport {
    /// Override the client-side reply-read timeout (default 10 s).
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> LoopbackTransport {
        self.read_timeout = timeout;
        self
    }
}

impl Transport for LoopbackTransport {
    fn open(&self) -> io::Result<Duplex> {
        if self.shared.stop.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "network front is shut down",
            ));
        }
        // client → server direction: server reads with the poll timeout so
        // its reader thread observes the stop flag like a TCP socket would.
        let (c2s_w, c2s_r) = pipe(LOOPBACK_PIPE_CAP, Some(POLL));
        // server → client direction: client reads with its own timeout.
        let (s2c_w, s2c_r) = pipe(LOOPBACK_PIPE_CAP, self.read_timeout);
        spawn_connection(
            self.shared.clone(),
            Duplex {
                reader: Box::new(c2s_r),
                writer: Box::new(s2c_w),
                peer: "loopback-peer".into(),
            },
        );
        Ok(Duplex {
            reader: Box::new(s2c_r),
            writer: Box::new(c2s_w),
            peer: "loopback".into(),
        })
    }
}

/// Spawn the two connection threads (reader + dispatcher) for one duplex.
fn spawn_connection(shared: Arc<FrontShared>, duplex: Duplex) {
    let n = shared.accepted.fetch_add(1, Ordering::Relaxed) + 1;
    let registry = shared.clone();
    let jh = std::thread::Builder::new()
        .name(format!("tsvd-net-conn-{n}"))
        .spawn(move || serve_connection(shared, duplex, MAX_PAYLOAD as usize))
        .expect("spawn tsvd-net-conn");
    registry.conns.lock().unwrap().push(jh);
}

/// Serve one connection to completion: decode requests on a reader
/// thread, execute them in order on this thread's event loop, and write
/// the replies back one burst at a time (see the module docs). Replies
/// over `cap` payload bytes are answered with a typed error instead.
/// Returns when the peer disconnects, a protocol violation occurs, a write
/// fails, or the front stops.
fn serve_connection(shared: Arc<FrontShared>, duplex: Duplex, cap: usize) {
    let Duplex {
        reader: r,
        writer: w,
        peer: _peer,
    } = duplex;
    let mut out = FrameWriter::with_cap(w, cap);
    let conn_stop = Arc::new(AtomicBool::new(false));
    let (mailbox, ev) = EventLoop::<ConnMsg>::bounded(CONN_MAILBOX_CAP);

    let reader_stop = conn_stop.clone();
    let reader_shared = shared.clone();
    let reader_jh = std::thread::Builder::new()
        .name("tsvd-net-read".into())
        .spawn(move || {
            let should_stop = || {
                reader_stop.load(Ordering::Acquire) || reader_shared.stop.load(Ordering::Acquire)
            };
            let mut r = FrameReader::new(r);
            loop {
                match r.read_frame_until(should_stop) {
                    Ok(Some(frame)) => match frame.message {
                        Message::Request(req) => {
                            // Bounded send: blocks when the dispatcher is
                            // behind — the backpressure path.
                            let msg = ConnMsg::Request {
                                id: frame.request_id,
                                tenant: frame.tenant,
                                req,
                                more: r.has_buffered_frame(),
                            };
                            if !mailbox.send(msg) {
                                break;
                            }
                        }
                        Message::Reply(_) => {
                            let _ = mailbox.send(ConnMsg::Corrupt(
                                "reply-direction frame on the request path".into(),
                            ));
                            break;
                        }
                    },
                    Ok(None) => break, // clean EOF or stop
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        let _ = mailbox.send(ConnMsg::Corrupt(e.to_string()));
                        break;
                    }
                    Err(_) => break, // connection-level failure
                }
            }
            // Dropping the mailbox lets the dispatcher drain and exit.
        })
        .expect("spawn tsvd-net-read");

    let mut run = TopKRun {
        tenant: 0,
        held: Vec::new(),
    };
    ev.run(|_timers, event| match event {
        Event::Message(ConnMsg::Request {
            id,
            tenant,
            req,
            more,
        }) => {
            let close = match req {
                Request::TopK {
                    node,
                    k,
                    metric,
                    query,
                } => {
                    if run.tenant != tenant {
                        run.answer(&shared, &mut out);
                        run.tenant = tenant;
                    }
                    run.held.push(HeldTopK {
                        id,
                        node,
                        k,
                        metric,
                        query,
                    });
                    // Held while more is buffered behind it: the run is
                    // answered at its last `TopK`, or by whatever ends it.
                    if more && run.held.len() < TOP_K_RUN_CAP {
                        return Flow::Continue;
                    }
                    run.answer(&shared, &mut out);
                    false
                }
                req => {
                    run.answer(&shared, &mut out);
                    // What is buffered goes out before anything that can
                    // block.
                    if req.may_block() && out.flush().is_err() {
                        conn_stop.store(true, Ordering::Release);
                        return Flow::Stop;
                    }
                    let (reply, close) = execute(&shared, tenant, req);
                    out.push_reply(id, tenant, reply);
                    close
                }
            };
            if close || out.end_reply(more).is_err() {
                conn_stop.store(true, Ordering::Release);
                Flow::Stop
            } else {
                Flow::Continue
            }
        }
        Event::Message(ConnMsg::Corrupt(what)) => {
            // Best-effort connection-level error (request id 0), written
            // with whatever is buffered ahead of it; then close.
            run.answer(&shared, &mut out);
            out.push_reply(0, 0, Reply::Error(what));
            conn_stop.store(true, Ordering::Release);
            Flow::Stop
        }
        Event::Timer(_) => Flow::Continue,
    });
    conn_stop.store(true, Ordering::Release);
    run.answer(&shared, &mut out); // a run the reader ended inside
    let _ = out.flush(); // nothing answered stays behind
    drop(out); // EOF towards the client
    let _ = reader_jh.join();
}

/// A `TopK` request held in a [`TopKRun`].
struct HeldTopK {
    id: u64,
    node: u32,
    k: u32,
    metric: Metric,
    query: Option<Vec<f64>>,
}

/// The pipelined `TopK` requests of one tenant the dispatcher holds until
/// their run ends (module docs), to answer them with one scan.
struct TopKRun {
    tenant: u32,
    held: Vec<HeldTopK>,
}

impl TopKRun {
    /// Answer every held request from one snapshot with one batch scan,
    /// replies appended in request order; the run is left empty. A query
    /// vector of the wrong dimension, or a tenant this front does not
    /// serve, is answered with its typed error in its own place.
    fn answer<W: Write>(&mut self, shared: &FrontShared, out: &mut FrameWriter<W>) {
        if self.held.is_empty() {
            return;
        }
        let tenant = self.tenant;
        let Some(reader) = shared.readers.get(&tenant) else {
            for held in self.held.drain(..) {
                let why = format!("unknown tenant {tenant}");
                out.push_reply(held.id, tenant, Reply::Error(why));
            }
            return;
        };
        let snap = reader.snapshot();
        let dim = snap.dim();
        let queries: Vec<TopKQuery> = self
            .held
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
        for held in self.held.drain(..) {
            let reply = match held.query {
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
            };
            out.push_reply(held.id, tenant, reply);
        }
    }
}

/// Execute one request against the tenant named in its frame header.
/// Returns the reply and whether the connection (and for
/// [`Request::Shutdown`], the whole front) should stop afterwards.
///
/// An unknown tenant or an exceeded quota is a *request*-level fault: the
/// reply is [`Reply::Error`] but the connection stays open (the client may
/// be multiplexing tenants or waiting out backpressure).
fn execute(shared: &FrontShared, tenant: u32, req: Request) -> (Reply, bool) {
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
        Request::TopK { .. } => unreachable!("the dispatcher answers TopK in runs"),
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
            shared.stop.store(true, Ordering::Release);
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
            Some(h) => match h.checkpoint_json() {
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

#[cfg(test)]
mod tests {
    use std::io::Write;

    use tsvd_core::TreeSvdConfig;
    use tsvd_graph::{DynGraph, EdgeEvent};
    use tsvd_ppr::PprConfig;

    use super::super::transport::PipeWriter;
    use super::super::wire::{decode_frame, encode_frame};
    use super::*;
    use crate::{ClientConfig, EmbeddingServer, NetClient, ServeConfig};

    #[test]
    fn a_checkpoint_over_the_frame_cap_is_a_typed_error_not_an_undecodable_frame() {
        let cap = 4096;
        let checkpoint = |len: usize| {
            Reply::Checkpoint(Box::new(CheckpointReply {
                epoch: 7,
                host: "x".repeat(len),
            }))
        };
        let mut frame = Vec::new();
        let mut w = FrameWriter::with_cap(&mut frame, cap);
        // Exactly at the cap: a Checkpoint whose frame payload is the cap —
        // `u64 epoch`, `u32 len`, then the text.
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

    /// A served test host: eight subset rows, flushed only on request.
    fn front() -> NetFront {
        let mut g = DynGraph::with_nodes(40);
        for u in 0..40u32 {
            g.insert_edge(u, (u + 1) % 40);
            g.insert_edge(u, (u * 7 + 3) % 40);
        }
        let sources: Vec<u32> = (0..8).collect();
        let tree = TreeSvdConfig {
            dim: 4,
            num_blocks: 2,
            ..Default::default()
        };
        let engine = ShardedEngine::new(&g, &sources, 1, PprConfig::default(), tree);
        let cfg = ServeConfig {
            flush_max_events: 1 << 20,
            flush_interval_ms: 60_000,
            ..Default::default()
        };
        NetFront::start(EmbeddingServer::start(engine, cfg))
    }

    /// One `write` per call: the served epoch when it happened, and how
    /// many frames it carried.
    type WriteLog = Arc<Mutex<Vec<(u64, usize)>>>;

    /// The server's end of an in-memory connection, logging every write.
    struct LoggedWriter {
        inner: PipeWriter,
        reader: EmbeddingReader,
        log: WriteLog,
    }

    impl Write for LoggedWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            let mut frames = 0;
            let mut at = 0;
            while at < bytes.len() {
                at += decode_frame(&bytes[at..]).expect("whole frames").1;
                frames += 1;
            }
            // Logged before the bytes go out, so the log is complete by the
            // time the client has read the replies.
            let epoch = self.reader.snapshot().epoch();
            self.log.lock().unwrap().push((epoch, frames));
            self.inner.write_all(bytes)?;
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A transport handing out one prepared connection, then refusing:
    /// a client over it cannot survive a server-side close by reconnecting.
    struct Once(Mutex<Option<Duplex>>);

    impl Transport for Once {
        fn open(&self) -> io::Result<Duplex> {
            self.0.lock().unwrap().take().ok_or_else(|| {
                io::Error::new(io::ErrorKind::ConnectionRefused, "one connection only")
            })
        }
    }

    /// The client's ends of a connection `front` serves with payload cap
    /// `cap`, and the log of the server's writes on it.
    fn connect_raw(front: &NetFront, cap: usize) -> (Duplex, WriteLog) {
        let (c2s_w, c2s_r) = pipe(LOOPBACK_PIPE_CAP, Some(POLL));
        let (s2c_w, s2c_r) = pipe(1 << 20, Some(Duration::from_secs(10)));
        let log = WriteLog::default();
        let shared = front.shared.clone();
        let server_end = Duplex {
            reader: Box::new(c2s_r),
            writer: Box::new(LoggedWriter {
                inner: s2c_w,
                reader: shared.readers[&0].clone(),
                log: log.clone(),
            }),
            peer: "test".into(),
        };
        let registry = shared.clone();
        let jh = std::thread::spawn(move || serve_connection(shared, server_end, cap));
        registry.conns.lock().unwrap().push(jh);
        let client_end = Duplex {
            reader: Box::new(s2c_r),
            writer: Box::new(c2s_w),
            peer: "test".into(),
        };
        (client_end, log)
    }

    /// A client on a connection `front` serves with payload cap `cap`,
    /// and the log of the server's writes on it.
    fn connect(front: &NetFront, cap: usize) -> (NetClient, WriteLog) {
        let (client_end, log) = connect_raw(front, cap);
        let client =
            NetClient::connect(Once(Mutex::new(Some(client_end))), ClientConfig::default());
        (client.unwrap(), log)
    }

    fn writes(log: &WriteLog) -> Vec<(u64, usize)> {
        log.lock().unwrap().clone()
    }

    #[test]
    fn a_pipelined_burst_is_answered_with_one_write() {
        let front = front();
        let (mut client, log) = connect(&front, MAX_PAYLOAD as usize);
        let burst: Vec<Request> = (0..16).map(|i| Request::GetRows(vec![i % 8, 3])).collect();
        assert_eq!(client.pipeline(&burst).unwrap().len(), 16);
        assert_eq!(writes(&log), [(0, 16)]);
        drop(client);
        front.shutdown();
    }

    #[test]
    fn sequential_round_trips_are_never_held_back() {
        let front = front();
        let (mut client, log) = connect(&front, MAX_PAYLOAD as usize);
        for i in 0..16 {
            client.get_rows(&[i % 8]).unwrap();
        }
        assert_eq!(writes(&log), vec![(0, 1); 16]);
        drop(client);
        front.shutdown();
    }

    #[test]
    fn replies_ahead_of_a_flush_are_written_before_it_runs() {
        let front = front();
        let (mut client, log) = connect(&front, MAX_PAYLOAD as usize);
        client
            .submit_events(vec![EdgeEvent::insert(0, 20)])
            .unwrap();
        let replies = client
            .pipeline(&[
                Request::GetRows(vec![0]),
                Request::Flush,
                Request::GetRows(vec![0]),
            ])
            .unwrap();
        assert!(matches!(replies[1], Reply::FlushAck { epoch: 1 }));
        // The submit ack; the first rows reply alone, written while epoch 0
        // was still served (the flush had not run); then the flush ack and
        // the read behind it, together.
        assert_eq!(writes(&log), [(0, 1), (0, 1), (1, 2)]);
        drop(client);
        front.shutdown();
    }

    #[test]
    fn an_over_cap_reply_is_a_typed_error_and_the_connection_stays_open() {
        let front = front();
        // 8 rows × 4 f64s alone are 256 payload bytes: GetEmbedding is over.
        let (mut client, log) = connect(&front, 200);
        let err = client.get_embedding().unwrap_err();
        assert!(
            err.to_string().contains("reply exceeds the frame cap"),
            "{err}"
        );
        // Same connection (the transport cannot reopen it): still served.
        client.ping().unwrap();
        assert_eq!(client.get_rows(&[1]).unwrap().rows.len(), 1);
        assert_eq!(client.reconnects(), 0);
        assert_eq!(writes(&log).len(), 3);
        drop(client);
        front.shutdown();
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
        let front = front();
        let (mut client, log) = connect(&front, MAX_PAYLOAD as usize);
        let metrics = [Metric::Dot, Metric::Cosine];
        let burst: Vec<Request> = (0..16u32)
            .map(|i| top_k(i % 8, 1 + i % 5, metrics[i as usize % 2], None))
            .collect();
        let replies = client.pipeline(&burst).unwrap();
        assert_eq!(writes(&log), [(0, 16)]);
        let snap = front.shared.readers[&0].snapshot();
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
        front.shutdown();
    }

    #[test]
    fn a_top_k_run_ahead_of_a_flush_is_answered_and_written_before_it_runs() {
        let front = front();
        let (mut client, log) = connect(&front, MAX_PAYLOAD as usize);
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
        assert_eq!(writes(&log), [(0, 1), (0, 2), (1, 2)]);
        drop(client);
        front.shutdown();
    }

    /// Misses and faults inside a run are answered in their own places:
    /// a node outside the subset is `found: false`, a query vector of the
    /// wrong dimension and an unknown tenant are typed errors, and the
    /// queries around them are answered as if alone.
    #[test]
    fn misses_and_faults_inside_a_top_k_run_are_answered_in_place() {
        let front = front();
        let (duplex, log) = connect_raw(&front, MAX_PAYLOAD as usize);
        let snap = front.shared.readers[&0].snapshot();
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
        assert_eq!(writes(&log), [(0, 6)]);
        drop((writer, reader));
        front.shutdown();
    }
}
