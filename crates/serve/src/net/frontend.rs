//! The network front: accepts connections (TCP or in-process loopback)
//! and serves the wire protocol against a running [`EmbeddingServer`].
//!
//! Every connection gets two threads wired through an
//! [`rt::exec`](tsvd_rt::exec) reactor:
//!
//! ```text
//!  socket ──▶ reader thread ──▶ bounded Mailbox<ConnMsg> ──▶ dispatcher
//!             (decode frames)    (cap 256: backpressure)     (EventLoop:
//!                                                             execute +
//!  socket ◀───────────────────────────────────────────────── write reply)
//! ```
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
//! [`wire::read_frame_until`](super::wire::read_frame_until)).

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use tsvd_rt::exec::{Event, EventLoop, Flow};

use crate::engine::ShardedEngine;
use crate::journal::JournalError;
use crate::server::{EmbeddingReader, ServerHandle, SubmitError};
use crate::tenant::{TenantHost, TenantId};

use super::transport::{pipe, Duplex, Transport};
use super::wire::{
    read_frame_until, write_frame, CheckpointReply, EmbeddingReply, Message, Reply, Request,
    RowsReply, TopKReply, WindowsReply, MAX_PAYLOAD,
};

/// Poll interval for stop-flag checks in blocking reads and accept loops.
const POLL: Duration = Duration::from_millis(25);

/// Per-connection request queue depth (the backpressure bound).
const CONN_MAILBOX_CAP: usize = 256;

/// Byte capacity of each loopback pipe direction (socket-buffer analogue).
const LOOPBACK_PIPE_CAP: usize = 64 * 1024;

/// What the connection reader thread hands to the dispatcher.
enum ConnMsg {
    /// A decoded request: id, tenant (from the frame header), request.
    Request(u64, u32, Request),
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
        .spawn(move || serve_connection(shared, duplex))
        .expect("spawn tsvd-net-conn");
    registry.conns.lock().unwrap().push(jh);
}

/// Serve one connection to completion: decode requests on a reader
/// thread, execute them in order on this thread's event loop, write each
/// reply back. Returns when the peer disconnects, a protocol violation
/// occurs, a write fails, or the front stops.
fn serve_connection(shared: Arc<FrontShared>, duplex: Duplex) {
    let Duplex {
        reader: mut r,
        writer: mut w,
        peer: _peer,
    } = duplex;
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
            loop {
                match read_frame_until(&mut r, should_stop) {
                    Ok(Some(frame)) => match frame.message {
                        Message::Request(req) => {
                            // Bounded send: blocks when the dispatcher is
                            // behind — the backpressure path.
                            if !mailbox.send(ConnMsg::Request(frame.request_id, frame.tenant, req))
                            {
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

    ev.run(|_timers, event| match event {
        Event::Message(ConnMsg::Request(id, tenant, req)) => {
            let (reply, close) = execute(&shared, tenant, req);
            if write_frame(&mut w, id, tenant, &Message::Reply(reply)).is_err() || close {
                conn_stop.store(true, Ordering::Release);
                Flow::Stop
            } else {
                Flow::Continue
            }
        }
        Event::Message(ConnMsg::Corrupt(what)) => {
            // Best-effort connection-level error (request id 0), then close.
            let _ = write_frame(&mut w, 0, 0, &Message::Reply(Reply::Error(what)));
            conn_stop.store(true, Ordering::Release);
            Flow::Stop
        }
        Event::Timer(_) => Flow::Continue,
    });
    conn_stop.store(true, Ordering::Release);
    drop(w); // EOF towards the client
    let _ = reader_jh.join();
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
        Request::TopK {
            node,
            k,
            metric,
            query,
        } => {
            // Readers-only path (no server handle), so follower fronts
            // serve top-k too — same as GetRows.
            let Some(reader) = shared.readers.get(&tenant) else {
                return (Reply::Error(format!("unknown tenant {tenant}")), false);
            };
            let snap = reader.snapshot();
            let (found, neighbors) = match query {
                Some(q) => {
                    if q.len() != snap.dim() {
                        return (
                            Reply::Error(format!(
                                "query dim {} does not match embedding dim {}",
                                q.len(),
                                snap.dim()
                            )),
                            false,
                        );
                    }
                    (
                        true,
                        snap.top_k_by_vector(&q, k as usize, metric, Some(node)),
                    )
                }
                None => match snap.top_k(node, k as usize, metric) {
                    Some(n) => (true, n),
                    None => (false, Vec::new()),
                },
            };
            (
                Reply::TopKReply(TopKReply {
                    epoch: snap.epoch(),
                    checksum_bits: snap.checksum().to_bits(),
                    found,
                    neighbors,
                }),
                false,
            )
        }
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
                Some((epoch, host)) => (checkpoint_reply(epoch, host, MAX_PAYLOAD as usize), false),
                None => (Reply::Error("server is shut down".into()), true),
            },
            None => (Reply::Error("server is shut down".into()), true),
        },
    }
}

/// The `Checkpoint` reply for a host serialisation, or a typed error when
/// its payload (`u64 epoch`, `u32 len`, the text) would exceed `cap` —
/// `wire::encode_frame` guards [`MAX_PAYLOAD`] with a `debug_assert!`
/// only, so in a release build an oversized reply would go out as a frame
/// every peer rejects. The cap is a parameter so that a test can reach it
/// without a 64 MiB host; paging the reply is roadmap item 2(b).
fn checkpoint_reply(epoch: u64, host: String, cap: usize) -> Reply {
    let payload = 12 + host.len();
    if payload > cap {
        return Reply::Error(format!(
            "checkpoint exceeds the frame cap: a {payload}-byte payload against {cap} \
             (re-seed this replica from a checkpoint file instead)"
        ));
    }
    Reply::Checkpoint(Box::new(CheckpointReply { epoch, host }))
}

#[cfg(test)]
mod tests {
    use super::super::wire::encode_frame;
    use super::*;

    #[test]
    fn a_checkpoint_over_the_frame_cap_is_a_typed_error_not_an_undecodable_frame() {
        let cap = 4096;
        // Exactly at the cap: a Checkpoint whose frame payload is the cap —
        // which also pins the `12 + len` here to what the codec writes.
        let fits = checkpoint_reply(7, "x".repeat(cap - 12), cap);
        let mut frame = Vec::new();
        encode_frame(1, 0, &Message::Reply(fits), &mut frame);
        let payload_len = u32::from_le_bytes(frame[16..20].try_into().unwrap()) as usize;
        assert_eq!(payload_len, cap);
        assert_eq!(frame.len(), 28 + cap);
        // One byte more: refused, with both numbers in the message.
        match checkpoint_reply(7, "x".repeat(cap - 11), cap) {
            Reply::Error(why) => {
                assert!(why.starts_with("checkpoint exceeds the frame cap"), "{why}");
                assert!(why.contains("4097") && why.contains("4096"), "{why}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
}
