//! The client library: typed calls over any [`Transport`], with request
//! pipelining, reply-timeout surfacing, reconnect-and-retry for idempotent
//! requests, and client-side freshness guards.
//!
//! # Freshness guards
//!
//! Every epoch-stamped reply passes through two checks before the caller
//! sees it:
//!
//! * **staleness** — epochs must be monotone over the client's lifetime
//!   (including across reconnects; the server's epoch counter never goes
//!   backwards). A regression means the client was silently switched to a
//!   different/older server and surfaces as an error.
//! * **torn reads** — two replies stamped with the *same* epoch must carry
//!   the *same* content checksum, and a [`Reply::Embedding`] body must
//!   reproduce its own checksum bit-for-bit
//!   ([`EmbeddingReply::verify_checksum`]).
//!
//! # Retry policy
//!
//! A single call whose transport fails with a transient error (the
//! connection or the process behind it is gone) reconnects and is sent
//! again, at most twice, if its request is idempotent (a flag of its
//! entry in the wire's message table): every request but `SubmitEvents`
//! and `Shutdown`.
//! `SubmitEvents` is **never** auto-retried: the failure may have struck
//! after the server applied the batch, and a blind resend would
//! double-apply events. The caller decides (e.g. by comparing
//! `stats().events_submitted`). [`NetClient::pipeline`] and the
//! split-phase [`dispatch`](NetClient::dispatch) /
//! [`collect`](NetClient::collect) pair are never retried: their caller
//! owns what is in flight.

use std::io::{self, Read, Write};

use tsvd_graph::EdgeEvent;

use crate::query::Metric;
use crate::stats::StatsReply;

use super::transport::{Duplex, Transport};
use super::wire::{
    CheckpointReply, EmbeddingReply, FrameReader, FrameWriter, Message, Reply, Request, RowsReply,
    WindowsReply,
};

/// Typed outcome of a journal pull ([`NetClient::pull_windows`]): either a
/// run of windows, or the machine-readable compaction condition — the
/// leader's bounded journal no longer holds what the puller needs, so the
/// puller must re-seed via [`NetClient::get_checkpoint`] and resume.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowsPull {
    /// A contiguous run of journal windows (possibly empty: caught up).
    Windows(WindowsReply),
    /// The leader compacted past the puller's epoch (`Reply::JournalGap`).
    Compacted {
        /// Oldest epoch the leader's journal still retains.
        oldest: u64,
        /// The epoch the puller needed and could not get.
        requested: u64,
    },
}

/// How many times a single idempotent call is sent again, on a fresh
/// connection, after a transient transport failure.
const MAX_RETRIES: u32 = 2;

/// Client settings (the reply-read timeout lives on the transport).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientConfig {
    /// Tenant every request from this client is pinned to (stamped into
    /// the frame header and verified against each reply's echo). `0` is
    /// the default tenant of a single-tenant server.
    pub tenant: u32,
}

/// Whether a transport failure means the connection (or the process
/// behind it) is gone rather than that one request was refused: the
/// client's retry trigger, and the router's failover trigger.
pub(crate) fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// One open connection: a transport's [`Duplex`] behind the buffered
/// framing layer.
struct Conn {
    reader: FrameReader<Box<dyn Read + Send>>,
    writer: FrameWriter<Box<dyn Write + Send>>,
}

impl Conn {
    fn new(duplex: Duplex) -> Conn {
        Conn {
            reader: FrameReader::new(duplex.reader),
            writer: FrameWriter::new(duplex.writer),
        }
    }

    /// Buffer one request frame (no I/O).
    fn push(&mut self, id: u64, tenant: u32, req: &Request) -> io::Result<()> {
        Ok(self
            .writer
            .push(id, tenant, &Message::Request(req.clone()))?)
    }

    /// The reply to request `id`: the next frame, which must answer in
    /// the reply direction, echo `id` and echo `tenant`. A connection-level
    /// error (id 0, not tenant-addressed, the server's last frame before
    /// it closes) surfaces as that server error, whichever request it
    /// answers.
    fn read_reply(&mut self, id: u64, tenant: u32) -> io::Result<Reply> {
        let frame = self
            .reader
            .read_frame()?
            .ok_or_else(|| closed("server closed connection"))?;
        let Message::Reply(reply) = frame.message else {
            return Err(protocol("request frame in reply direction".into()));
        };
        if frame.request_id == 0 {
            return Err(match reply {
                Reply::Error(msg) => server_error(&msg),
                other => unexpected(&other),
            });
        }
        if frame.request_id != id {
            return Err(protocol(format!(
                "reply id {} does not match request id {id}",
                frame.request_id
            )));
        }
        if frame.tenant != tenant {
            return Err(protocol(format!(
                "reply tenant {} does not match pinned tenant {tenant}",
                frame.tenant
            )));
        }
        Ok(reply)
    }
}

/// A connection to a [`NetFront`](super::NetFront) over some transport.
///
/// Methods take `&mut self`: a client is a single ordered request stream
/// (share work across threads by opening one client per thread — the
/// server multiplexes connections, not the client).
pub struct NetClient {
    transport: Box<dyn Transport>,
    cfg: ClientConfig,
    conn: Option<Conn>,
    next_id: u64,
    reconnects: u64,
    last_epoch: u64,
    /// Content checksum observed at `last_epoch`, once one has been seen.
    last_checksum: Option<u64>,
}

impl NetClient {
    /// Open a connection immediately.
    pub fn connect(transport: impl Transport + 'static, cfg: ClientConfig) -> io::Result<Self> {
        let transport: Box<dyn Transport> = Box::new(transport);
        let conn = Conn::new(transport.open()?);
        Ok(NetClient {
            transport,
            cfg,
            conn: Some(conn),
            next_id: 1, // id 0 is reserved for connection-level errors
            reconnects: 0,
            last_epoch: 0,
            last_checksum: None,
        })
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Submit an event batch; returns the number of accepted events.
    /// Never auto-retried (see the module docs on double-apply).
    pub fn submit_events(&mut self, events: Vec<EdgeEvent>) -> io::Result<u64> {
        match self.call(Request::SubmitEvents(events))? {
            Reply::SubmitAck { accepted } => Ok(accepted),
            other => Err(unexpected(&other)),
        }
    }

    /// Flush everything pending server-side; returns the epoch then served.
    pub fn flush(&mut self) -> io::Result<u64> {
        match self.call(Request::Flush)? {
            Reply::FlushAck { epoch } => Ok(epoch),
            other => Err(unexpected(&other)),
        }
    }

    /// Embedding rows for `nodes` from the served snapshot.
    pub fn get_rows(&mut self, nodes: &[u32]) -> io::Result<RowsReply> {
        match self.call(Request::GetRows(nodes.to_vec()))? {
            Reply::Rows(rows) => Ok(rows),
            other => Err(unexpected(&other)),
        }
    }

    /// The `k` subset nodes most similar to `node` under `metric` at the
    /// served snapshot. `Ok(None)` when `node` is outside the subset.
    /// Idempotent (a pure read), so safe to retry; the reply's epoch and
    /// checksum pass the same freshness guards as [`get_rows`]
    /// (stale/torn replies surface as errors).
    ///
    /// [`get_rows`]: Self::get_rows
    pub fn top_k(
        &mut self,
        node: u32,
        k: u32,
        metric: Metric,
    ) -> io::Result<Option<Vec<(u32, f64)>>> {
        let req = Request::TopK {
            node,
            k,
            metric,
            query: None,
        };
        match self.call(req)? {
            Reply::TopKReply(t) => Ok(t.found.then_some(t.neighbors)),
            other => Err(unexpected(&other)),
        }
    }

    /// The full served embedding (checksum-verified end to end).
    pub fn get_embedding(&mut self) -> io::Result<EmbeddingReply> {
        match self.call(Request::GetEmbedding)? {
            Reply::Embedding(e) => Ok(e),
            other => Err(unexpected(&other)),
        }
    }

    /// Point-in-time statistics: this client's tenant plus the host rollup.
    pub fn stats(&mut self) -> io::Result<StatsReply> {
        match self.call(Request::GetStats)? {
            Reply::Stats(s) => Ok(*s),
            other => Err(unexpected(&other)),
        }
    }

    /// Journal windows for epochs `> after_epoch`, up to `max` per reply —
    /// the follower catch-up pull ([`Follower::catch_up`] loops this).
    /// Idempotent, so safe to retry. A leader that compacted past
    /// `after_epoch` answers with the typed [`WindowsPull::Compacted`]:
    /// the caller can re-seed ([`NetClient::get_checkpoint`]) and resume.
    ///
    /// [`Follower::catch_up`]: crate::Follower::catch_up
    pub fn pull_windows(&mut self, after_epoch: u64, max: u32) -> io::Result<WindowsPull> {
        match self.call(Request::GetWindows { after_epoch, max })? {
            Reply::Windows(w) => Ok(WindowsPull::Windows(w)),
            Reply::JournalGap { oldest, requested } => {
                Ok(WindowsPull::Compacted { oldest, requested })
            }
            other => Err(unexpected(&other)),
        }
    }

    /// A full host checkpoint at a consistent epoch — the re-seed payload
    /// for a follower that outlived the leader's bounded journal.
    /// Idempotent (the leader drains in-flight windows and serialises; no
    /// state changes), so safe to retry.
    pub fn get_checkpoint(&mut self) -> io::Result<CheckpointReply> {
        match self.call(Request::GetCheckpoint)? {
            Reply::Checkpoint(ck) => Ok(*ck),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to flush and stop its network front. Not retried.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.call(Request::Shutdown)? {
            Reply::ShutdownAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Pipeline `requests` over the connection: all frames leave in one
    /// write before any reply is read, then replies are collected in
    /// order (the server answers such a burst with one write too). One
    /// round-trip latency for the whole batch. Not retried (a failure
    /// mid-batch leaves an unknown prefix applied).
    pub fn pipeline(&mut self, requests: &[Request]) -> io::Result<Vec<Reply>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let ids = self.next_id..self.next_id + requests.len() as u64;
        self.next_id = ids.end;
        let tenant = self.cfg.tenant;
        let raw = self.conn().and_then(|conn| {
            for (id, req) in ids.clone().zip(requests) {
                conn.push(id, tenant, req)?;
            }
            conn.writer.flush()?;
            ids.map(|id| conn.read_reply(id, tenant)).collect()
        });
        let raw: Vec<Reply> = self.drop_on_error(raw)?;
        raw.into_iter().map(|r| self.observe(r)).collect()
    }

    /// Split-phase send half: write one request frame and return its id
    /// without reading the reply. The router's scatter-gather uses this to
    /// put one request in flight on *every* shard connection before
    /// reading any reply — true cross-shard fan-out, one round-trip for
    /// the whole scatter. Pair each dispatch with exactly one
    /// [`collect`](Self::collect) on the same client, in dispatch order.
    /// Not auto-retried (the caller owns the in-flight set).
    pub fn dispatch(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let tenant = self.cfg.tenant;
        let sent = self.conn().and_then(|conn| {
            conn.push(id, tenant, req)?;
            conn.writer.flush()
        });
        self.drop_on_error(sent).map(|()| id)
    }

    /// Split-phase receive half: read the reply for a
    /// [`dispatch`](Self::dispatch)ed request. `id` must be the value that
    /// dispatch returned; replies arrive in dispatch order on one
    /// connection. Applies the same freshness guards as the one-shot
    /// calls. Any failure drops the connection (the in-flight set is lost;
    /// the next call reconnects).
    pub fn collect(&mut self, id: u64) -> io::Result<Reply> {
        let tenant = self.cfg.tenant;
        let reply = match self.conn.as_mut() {
            Some(conn) => conn.read_reply(id, tenant),
            None => Err(closed("no connection holds the in-flight request")),
        };
        let reply = self.drop_on_error(reply)?;
        self.observe(reply)
    }

    /// Drop the current connection; the next call reopens the transport.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// How many times the transport was reopened after the initial connect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Highest epoch observed in any reply so far.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    // ------------------------------------------------------------ internals

    fn conn(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            self.conn = Some(Conn::new(self.transport.open()?));
            self.reconnects += 1;
        }
        Ok(self.conn.as_mut().expect("connection just opened"))
    }

    /// A transport failure leaves the stream in an unknown state: drop the
    /// connection so the next call reopens it.
    fn drop_on_error<T>(&mut self, res: io::Result<T>) -> io::Result<T> {
        if res.is_err() {
            self.disconnect();
        }
        res
    }

    /// One request, one reply, through the freshness guards; an
    /// idempotent request is sent again on a fresh connection after a
    /// transient failure, at most [`MAX_RETRIES`] times.
    pub(crate) fn call(&mut self, req: Request) -> io::Result<Reply> {
        let mut retries = 0;
        loop {
            match self.dispatch(&req).and_then(|id| self.collect(id)) {
                Err(e) if is_transient(&e) && req.idempotent() && retries < MAX_RETRIES => {
                    retries += 1;
                }
                done => return done,
            }
        }
    }

    /// Apply the freshness guards to a reply before handing it out.
    fn observe(&mut self, reply: Reply) -> io::Result<Reply> {
        match &reply {
            Reply::Rows(r) => self.check_epoch(r.epoch, Some(r.checksum_bits))?,
            Reply::TopKReply(t) => self.check_epoch(t.epoch, Some(t.checksum_bits))?,
            Reply::Embedding(e) => {
                if !e.verify_checksum() {
                    return Err(protocol(format!(
                        "torn read: embedding at epoch {} does not reproduce its checksum",
                        e.epoch
                    )));
                }
                self.check_epoch(e.epoch, Some(e.checksum_bits))?;
            }
            Reply::FlushAck { epoch } => self.check_epoch(*epoch, None)?,
            Reply::Stats(s) => self.check_epoch(s.tenant.epoch, None)?,
            Reply::Error(msg) => return Err(server_error(msg)),
            // Journal/checkpoint epochs are global window counts, not this
            // tenant's read epochs — no freshness guard.
            Reply::Pong
            | Reply::SubmitAck { .. }
            | Reply::ShutdownAck
            | Reply::Windows(_)
            | Reply::Checkpoint(_)
            | Reply::JournalGap { .. } => {}
        }
        Ok(reply)
    }

    fn check_epoch(&mut self, epoch: u64, checksum_bits: Option<u64>) -> io::Result<()> {
        if epoch < self.last_epoch {
            return Err(protocol(format!(
                "stale reply: epoch {epoch} after already observing {}",
                self.last_epoch
            )));
        }
        if epoch > self.last_epoch {
            self.last_epoch = epoch;
            self.last_checksum = checksum_bits;
            return Ok(());
        }
        match (self.last_checksum, checksum_bits) {
            (Some(prev), Some(now)) if prev != now => Err(protocol(format!(
                "torn read: epoch {epoch} served two different checksums"
            ))),
            (None, Some(now)) => {
                self.last_checksum = Some(now);
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

pub(crate) fn unexpected(reply: &Reply) -> io::Error {
    protocol(format!("unexpected reply variant: {reply:?}"))
}

/// A request the server answered with [`Reply::Error`]: it is alive and
/// refused (or could not serve) the request.
fn server_error(msg: &str) -> io::Error {
    io::Error::other(format!("server error: {msg}"))
}

fn protocol(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn closed(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg)
}
