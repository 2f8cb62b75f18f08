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
//! Only idempotent requests (`Ping`, `Flush`, `GetRows`, `GetEmbedding`,
//! `GetStats`, `GetWindows`, `TopK`) are retried after a transport failure. `SubmitEvents` is
//! **never** auto-retried: the failure may have struck after the server
//! applied the batch, and a blind resend would double-apply events. The
//! caller decides (e.g. by comparing `stats().events_submitted`).

use std::io::{self, Read, Write};

use tsvd_graph::EdgeEvent;

use crate::query::Metric;
use crate::stats::StatsReply;

use super::transport::{Duplex, Transport};
use super::wire::{
    CheckpointReply, EmbeddingReply, Frame, FrameReader, FrameWriter, Message, Reply, Request,
    RowsReply, WindowsReply,
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

/// Client behaviour knobs (the reply-read timeout lives on the transport).
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Reopen the transport and retry idempotent requests on failure.
    pub reconnect: bool,
    /// Retry attempts per call after the initial try.
    pub max_retries: u32,
    /// Tenant every request from this client is pinned to (stamped into
    /// the frame header and verified against each reply's echo). `0` is
    /// the default tenant of a single-tenant server.
    pub tenant: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            reconnect: true,
            max_retries: 2,
            tenant: 0,
        }
    }
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

    /// Write one request frame.
    fn send(&mut self, id: u64, tenant: u32, req: &Request) -> io::Result<()> {
        self.push(id, tenant, req)?;
        self.writer.flush()
    }

    /// The next frame, which must exist.
    fn next_frame(&mut self) -> io::Result<Frame> {
        self.reader
            .read_frame()?
            .ok_or_else(|| closed("server closed connection"))
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
        match self.call(Request::Ping, true)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Submit an event batch; returns the number of accepted events.
    /// Never auto-retried (see the module docs on double-apply).
    pub fn submit_events(&mut self, events: Vec<EdgeEvent>) -> io::Result<u64> {
        match self.call(Request::SubmitEvents(events), false)? {
            Reply::SubmitAck { accepted } => Ok(accepted),
            other => Err(unexpected(&other)),
        }
    }

    /// Flush everything pending server-side; returns the epoch then served.
    pub fn flush(&mut self) -> io::Result<u64> {
        match self.call(Request::Flush, true)? {
            Reply::FlushAck { epoch } => Ok(epoch),
            other => Err(unexpected(&other)),
        }
    }

    /// Embedding rows for `nodes` from the served snapshot.
    pub fn get_rows(&mut self, nodes: &[u32]) -> io::Result<RowsReply> {
        match self.call(Request::GetRows(nodes.to_vec()), true)? {
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
        match self.call(req, true)? {
            Reply::TopKReply(t) => Ok(t.found.then_some(t.neighbors)),
            other => Err(unexpected(&other)),
        }
    }

    /// The full served embedding (checksum-verified end to end).
    pub fn get_embedding(&mut self) -> io::Result<EmbeddingReply> {
        match self.call(Request::GetEmbedding, true)? {
            Reply::Embedding(e) => Ok(e),
            other => Err(unexpected(&other)),
        }
    }

    /// Point-in-time statistics: this client's tenant plus the host rollup.
    pub fn stats(&mut self) -> io::Result<StatsReply> {
        match self.call(Request::GetStats, true)? {
            Reply::Stats(s) => Ok(*s),
            other => Err(unexpected(&other)),
        }
    }

    /// Journal windows for epochs `> after_epoch`, up to `max` per reply —
    /// the follower catch-up pull ([`Follower::catch_up`] loops this).
    /// Idempotent, so safe to retry. A leader that compacted past
    /// `after_epoch` answers with an error reply (surfaced as
    /// [`io::ErrorKind::InvalidData`]): re-seed from a checkpoint.
    ///
    /// [`Follower::catch_up`]: crate::Follower::catch_up
    pub fn get_windows(&mut self, after_epoch: u64, max: u32) -> io::Result<WindowsReply> {
        match self.pull_windows(after_epoch, max)? {
            WindowsPull::Windows(w) => Ok(w),
            WindowsPull::Compacted { oldest, requested } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "window {requested} compacted out of the leader's journal \
                     (oldest retained: {oldest}); re-seed from a checkpoint"
                ),
            )),
        }
    }

    /// Like [`get_windows`](Self::get_windows), but surfaces the leader's
    /// compaction condition as the typed [`WindowsPull::Compacted`] instead
    /// of an opaque error — the caller can re-seed
    /// ([`NetClient::get_checkpoint`]) and retry instead of giving up.
    pub fn pull_windows(&mut self, after_epoch: u64, max: u32) -> io::Result<WindowsPull> {
        match self.call(Request::GetWindows { after_epoch, max }, true)? {
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
        match self.call(Request::GetCheckpoint, true)? {
            Reply::Checkpoint(ck) => Ok(*ck),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to flush and stop its network front. Not retried.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.call(Request::Shutdown, false)? {
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
        let first = self.next_id;
        self.next_id += requests.len() as u64;
        let raw = {
            let tenant = self.cfg.tenant;
            let conn = self.conn()?;
            let io = (|| {
                for (i, req) in requests.iter().enumerate() {
                    conn.push(first + i as u64, tenant, req)?;
                }
                conn.writer.flush()?;
                let mut raw = Vec::with_capacity(requests.len());
                for i in 0..requests.len() {
                    let frame = conn.next_frame()?;
                    let want = first + i as u64;
                    if frame.request_id != want {
                        return Err(protocol(format!(
                            "pipelined reply id {} (expected {want})",
                            frame.request_id
                        )));
                    }
                    if frame.tenant != tenant {
                        return Err(protocol(format!(
                            "pipelined reply tenant {} (expected {tenant})",
                            frame.tenant
                        )));
                    }
                    match frame.message {
                        Message::Reply(reply) => raw.push(reply),
                        Message::Request(_) => {
                            return Err(protocol("request frame in reply direction".into()))
                        }
                    }
                }
                Ok(raw)
            })();
            match io {
                Ok(raw) => raw,
                Err(e) => {
                    self.disconnect();
                    return Err(e);
                }
            }
        };
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
        let conn = self.conn()?;
        match conn.send(id, tenant, req) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    /// Split-phase receive half: read the reply for a
    /// [`dispatch`](Self::dispatch)ed request. `id` must be the value that
    /// dispatch returned; replies arrive in dispatch order on one
    /// connection. Applies the same freshness guards as the one-shot
    /// calls. Any failure drops the connection (the in-flight set is lost;
    /// the next call reconnects).
    pub fn collect(&mut self, id: u64) -> io::Result<Reply> {
        let tenant = self.cfg.tenant;
        let io = (|| {
            let conn = self
                .conn
                .as_mut()
                .ok_or_else(|| closed("no connection holds the in-flight request"))?;
            let frame = conn.next_frame()?;
            if frame.request_id != id && frame.request_id != 0 {
                return Err(protocol(format!(
                    "reply id {} does not match dispatched id {id}",
                    frame.request_id
                )));
            }
            if frame.request_id != 0 && frame.tenant != tenant {
                return Err(protocol(format!(
                    "reply tenant {} does not match pinned tenant {tenant}",
                    frame.tenant
                )));
            }
            match frame.message {
                Message::Reply(reply) => Ok(reply),
                Message::Request(_) => Err(protocol("request frame in reply direction".into())),
            }
        })();
        match io {
            Ok(reply) => self.observe(reply),
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
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

    /// One request → one reply on the current connection.
    fn exchange(&mut self, req: &Request) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let tenant = self.cfg.tenant;
        let conn = self.conn()?;
        conn.send(id, tenant, req)?;
        let frame = conn.next_frame()?;
        if frame.request_id != id && frame.request_id != 0 {
            return Err(protocol(format!(
                "reply id {} does not match request id {id}",
                frame.request_id
            )));
        }
        // Connection-level errors (id 0) are not tenant-addressed; every
        // real reply must echo the tenant the request was pinned to.
        if frame.request_id != 0 && frame.tenant != tenant {
            return Err(protocol(format!(
                "reply tenant {} does not match pinned tenant {tenant}",
                frame.tenant
            )));
        }
        match frame.message {
            Message::Reply(reply) => Ok(reply),
            Message::Request(_) => Err(protocol("request frame in reply direction".into())),
        }
    }

    /// `exchange` plus freshness guards plus (for `retryable` requests)
    /// reconnect-and-retry on transport-level failures.
    fn call(&mut self, req: Request, retryable: bool) -> io::Result<Reply> {
        let mut attempts = 0u32;
        loop {
            match self.exchange(&req) {
                Ok(reply) => return self.observe(reply),
                Err(e) => {
                    self.disconnect();
                    let transient = matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::BrokenPipe
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionRefused
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::WouldBlock
                    );
                    if !(retryable && self.cfg.reconnect && transient)
                        || attempts >= self.cfg.max_retries
                    {
                        return Err(e);
                    }
                    attempts += 1;
                }
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
            Reply::Error(msg) => {
                return Err(io::Error::other(format!("server error: {msg}")));
            }
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

fn unexpected(reply: &Reply) -> io::Error {
    protocol(format!("unexpected reply variant: {reply:?}"))
}

fn protocol(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn closed(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg)
}
