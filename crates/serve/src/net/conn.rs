//! The connection loop and the thread registry both network fronts share
//! ([`NetFront`](super::NetFront) and [`RouterFront`](crate::RouterFront)).
//!
//! Every connection is served on one thread, by one loop:
//!
//! ```text
//!  socket ──▶ FrameReader ──────────▶ Handler ─────────────────▶ FrameWriter ──▶ socket
//!             (one 64 KiB buffer;      (execute, in arrival       (one reused buffer,
//!              after each read:        order; a pipelined TopK    one write_all per
//!              "is another whole       run goes to execute_run    burst)
//!              frame buffered?")       at once)
//! ```
//!
//! After each read the loop asks the reader whether another whole frame
//! already sits in its buffer. Each reply is appended to one buffer, which
//! is written out when nothing more was buffered behind the request (so
//! **a lone request is never held back**), when it passes 64 KiB, and
//! before a request that can block ([`Request::may_block`]) runs. A
//! pipelined burst of 16 `GetRows` is therefore one `read` in and one
//! `write` out.
//!
//! A `TopK` with more buffered behind it is not answered on arrival: it
//! joins the current **run** of `TopK`s. The run goes to
//! [`Handler::execute_run`] — replies in request order — at its first
//! `TopK` with nothing behind it, when another request kind or another
//! tenant arrives (before that request runs), at a connection error, when
//! the loop ends, or at 64 requests. `NetFront` answers a run from one
//! snapshot with one batch scan; the default answers each `TopK` singly.
//!
//! Backpressure needs no queue: the loop does not read while a write
//! blocks, so a client that sends faster than it reads fills the server's
//! receive buffer, and then its own writes stall. Requests on one
//! connection run strictly in arrival order, so replies need no
//! reordering metadata beyond the echoed request id.
//!
//! Every read blocks without a timeout: the accept loop in `accept`, a
//! connection in [`FrameReader::read_frame`]. [`Conns::stop`] closes what
//! they wait on — each connection's read half, so a blocked read returns
//! EOF, and each listener, woken by a connect to its own address — and
//! the loop checks the stop flag before every frame.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::query::Metric;

use super::transport::Duplex;
use super::wire::{Frame, FrameReader, FrameWriter, Message, Reply, Request};

/// Most pipelined `TopK` requests answered as one run.
const TOP_K_RUN_CAP: usize = 64;

/// One `TopK` request held in a run.
pub(crate) struct TopK {
    pub node: u32,
    pub k: u32,
    pub metric: Metric,
    pub query: Option<Vec<f64>>,
}

/// What a front does with the requests of one connection.
pub(crate) trait Handler {
    /// Answer one request for `tenant`: the reply, and whether the
    /// connection closes after it.
    fn execute(&mut self, tenant: u32, req: Request) -> (Reply, bool);

    /// Answer a run of pipelined `TopK` requests for `tenant`, one reply
    /// per request in request order, and whether the connection closes
    /// after them. By default each request is answered singly through
    /// [`execute`](Self::execute), and a reply that closes the connection
    /// ends the run.
    fn execute_run(&mut self, tenant: u32, run: Vec<TopK>) -> (Vec<Reply>, bool) {
        let mut replies = Vec::with_capacity(run.len());
        for TopK {
            node,
            k,
            metric,
            query,
        } in run
        {
            let req = Request::TopK {
                node,
                k,
                metric,
                query,
            };
            let (reply, close) = self.execute(tenant, req);
            replies.push(reply);
            if close {
                return (replies, true);
            }
        }
        (replies, false)
    }
}

/// The pipelined `TopK` requests of one tenant held until their run ends.
#[derive(Default)]
struct Run {
    tenant: u32,
    ids: Vec<u64>,
    queries: Vec<TopK>,
}

impl Run {
    /// Answer every held request, replies appended in request order; the
    /// run is left empty. Returns whether the connection closes.
    fn answer<H: Handler, W: Write>(&mut self, handler: &mut H, out: &mut FrameWriter<W>) -> bool {
        if self.ids.is_empty() {
            return false;
        }
        let (replies, close) = handler.execute_run(self.tenant, std::mem::take(&mut self.queries));
        for (id, reply) in self.ids.drain(..).zip(replies) {
            out.push_reply(id, self.tenant, reply);
        }
        close
    }
}

/// Serve one connection to completion on the calling thread (see the
/// module docs). Returns when the peer disconnects or the read half is
/// closed, a protocol violation occurs, a write fails, a reply closes the
/// connection, or `stop` is set.
pub(crate) fn serve<H: Handler, W: Write>(
    handler: &mut H,
    reader: impl Read,
    mut out: FrameWriter<W>,
    stop: &AtomicBool,
) {
    let mut reader = FrameReader::new(reader);
    let mut run = Run::default();
    // The byte stream became unusable: answered with a connection-level
    // error (request id 0) after everything ahead of it, then closed.
    let mut corrupt = None;
    // Checked before every frame, even one already buffered: a peer that
    // never pauses cannot keep a stopping loop alive.
    while !stop.load(Ordering::Acquire) {
        let (id, tenant, req) = match reader.read_frame() {
            Ok(Some(Frame {
                request_id,
                tenant,
                message: Message::Request(req),
            })) => (request_id, tenant, req),
            Ok(Some(_)) => {
                corrupt = Some("reply-direction frame on the request path".to_string());
                break;
            }
            Ok(None) => break, // clean EOF, or the read half closed
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                corrupt = Some(e.to_string());
                break;
            }
            Err(_) => break, // connection-level failure
        };
        let more = reader.has_buffered_frame();
        let close = match req {
            Request::TopK {
                node,
                k,
                metric,
                query,
            } => {
                if run.tenant != tenant && run.answer(handler, &mut out) {
                    break;
                }
                run.tenant = tenant;
                run.ids.push(id);
                run.queries.push(TopK {
                    node,
                    k,
                    metric,
                    query,
                });
                // Held while more is buffered behind it: the run is
                // answered at its last `TopK`, or by whatever ends it.
                if more && run.ids.len() < TOP_K_RUN_CAP {
                    continue;
                }
                run.answer(handler, &mut out)
            }
            req => {
                if run.answer(handler, &mut out) {
                    break;
                }
                // What is buffered goes out before anything that can block.
                if req.may_block() && out.flush().is_err() {
                    break;
                }
                let (reply, close) = handler.execute(tenant, req);
                out.push_reply(id, tenant, reply);
                close
            }
        };
        if close || out.end_reply(more).is_err() {
            break;
        }
    }
    run.answer(handler, &mut out); // a run the loop ended inside
    if let Some(why) = corrupt {
        out.push_reply(0, 0, Reply::Error(why));
    }
    let _ = out.flush(); // nothing answered stays behind
}

/// Closes one connection's read half, so that a blocked read returns EOF:
/// a TCP socket's read half shut down, or a loopback pipe closed. It holds
/// the connection weakly: once the connection's thread ends it is a no-op.
pub(crate) type Closer = Box<dyn Fn() + Send>;

/// A [`Closer`] that calls `close` on `of` while anything else holds it.
pub(crate) fn closer<T: Send + Sync + 'static>(of: &Arc<T>, close: fn(&T)) -> Closer {
    let of = Arc::downgrade(of);
    Box::new(move || {
        if let Some(of) = of.upgrade() {
            close(&of);
        }
    })
}

/// The threads of one network front — its accept loops and one per
/// connection — and the one [`stop`](Self::stop) that ends them all.
pub(crate) struct Conns {
    /// Thread name prefix (`<name>-accept`, `<name>-conn`).
    name: &'static str,
    /// Raised once, under the registry lock, by [`stop`](Self::stop).
    pub(crate) stop: AtomicBool,
    reg: Mutex<Registry>,
    /// Signalled by [`stop`](Self::stop), for [`wait_stopped`](Self::wait_stopped).
    stopped: Condvar,
}

#[derive(Default)]
struct Registry {
    /// Each listener's bound address and accept thread.
    listeners: Vec<(SocketAddr, JoinHandle<()>)>,
    /// Connection threads not joined yet, each with its closer: the live
    /// ones, and any that finished since the last [`spawn`](Conns::spawn).
    conns: Vec<(JoinHandle<()>, Closer)>,
}

impl Conns {
    pub(crate) fn new(name: &'static str) -> Arc<Conns> {
        Arc::new(Conns {
            name,
            stop: AtomicBool::new(false),
            reg: Mutex::new(Registry::default()),
            stopped: Condvar::new(),
        })
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.reg.lock().expect("connection registry poisoned")
    }

    /// Block until stopped or `timeout` elapses.
    pub(crate) fn wait_stopped(&self, timeout: Duration) -> bool {
        let reg = self.registry();
        let waited = self
            .stopped
            .wait_timeout_while(reg, timeout, |_| !self.is_stopped());
        !waited.expect("connection registry poisoned").1.timed_out()
    }

    /// Serve one connection on a thread of its own; `close` wakes its
    /// blocked read. After [`stop`](Self::stop) the connection is closed
    /// here instead, and `serve` dropped unrun. The threads of connections
    /// that have closed are joined first, so a closed connection does not
    /// keep its stack mapped until shutdown.
    pub(crate) fn spawn(&self, close: Closer, serve: impl FnOnce() + Send + 'static) {
        let mut reg = self.registry();
        if self.is_stopped() {
            return close();
        }
        let jh = thread::Builder::new()
            .name(format!("{}-conn", self.name))
            .spawn(serve)
            .expect("spawn a connection thread");
        let (done, live) = reg.conns.drain(..).partition(|(jh, _)| jh.is_finished());
        reg.conns = live;
        reg.conns.push((jh, close));
        drop(reg);
        join_all(done.into_iter().map(|(jh, _)| jh));
    }

    /// Bind a TCP listener on `addr` (port 0 for an OS-assigned port) and
    /// accept on a thread of its own, handing each connection to `serve`
    /// on a thread of its own. Returns the bound address. After
    /// [`stop`](Self::stop) the listener is dropped at once.
    pub(crate) fn listen(
        self: &Arc<Self>,
        addr: &str,
        serve: impl Fn(Duplex) + Clone + Send + 'static,
    ) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut reg = self.registry();
        if self.is_stopped() {
            return Ok(local);
        }
        let conns = self.clone();
        let jh = thread::Builder::new()
            .name(format!("{}-accept", self.name))
            .spawn(move || loop {
                let accepted = listener.accept();
                // The wake-up connect from `stop`, or a connection that
                // raced it: either way the listener is done.
                if conns.is_stopped() {
                    break;
                }
                let Ok((stream, peer)) = accepted else {
                    continue;
                };
                let (Ok(reader), Ok(())) = (stream.try_clone(), stream.set_nodelay(true)) else {
                    continue;
                };
                let reader = Arc::new(reader);
                let close = closer(&reader, |s| drop(s.shutdown(Shutdown::Read)));
                let serve = serve.clone();
                let duplex = Duplex {
                    reader: Box::new(SharedRead(reader)),
                    writer: Box::new(stream),
                    peer: peer.to_string(),
                };
                conns.spawn(close, move || serve(duplex));
            })
            .expect("spawn an accept thread");
        reg.listeners.push((local, jh));
        Ok(local)
    }

    /// Stop the front: raise the flag, close every registered connection,
    /// wake every listener and [`wait_stopped`](Self::wait_stopped). Joins
    /// nothing, so a connection's own handler may call it (a wire
    /// `Shutdown`); only the first call acts.
    pub(crate) fn stop(&self) {
        let reg = self.registry();
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        for (_, close) in &reg.conns {
            close();
        }
        for &(at, _) in &reg.listeners {
            drop(TcpStream::connect(loopback(at)));
        }
        self.stopped.notify_all();
    }

    /// [`stop`](Self::stop), then join every listener and connection thread.
    pub(crate) fn shutdown(&self) {
        self.stop();
        // Listeners first: one may still hand over a connection it
        // accepted before it saw the flag.
        let listeners = std::mem::take(&mut self.registry().listeners);
        join_all(listeners.into_iter().map(|(_, jh)| jh));
        let conns = std::mem::take(&mut self.registry().conns);
        join_all(conns.into_iter().map(|(jh, _)| jh));
    }
}

/// A TCP connection's read half, shared with its [`Closer`].
struct SharedRead(Arc<TcpStream>);

impl Read for SharedRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self.0).read(buf)
    }
}

/// Where a connect reaches a listener bound at `at`: an unspecified IP
/// is reached on the loopback address of its family.
fn loopback(at: SocketAddr) -> SocketAddr {
    match at.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, at.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, at.port()).into(),
        _ => at,
    }
}

/// Join threads whose panics, if any, were already reported by the
/// default hook; the connection they served is closed either way.
fn join_all(threads: impl IntoIterator<Item = JoinHandle<()>>) {
    for jh in threads {
        let _ = jh.join();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use tsvd_graph::EdgeEvent;

    use std::time::Instant;

    use super::super::transport::{pipe, PipeWriter, Transport};
    use super::super::wire::{decode_frame, encode_frame, MAX_PAYLOAD};
    use super::*;
    use crate::server::EmbeddingReader;
    use crate::{net, ClientConfig, NetClient, NetFront, TcpTransport};

    /// One front under test: how to serve a connection on it, and what it
    /// serves.
    pub(crate) struct Served {
        /// Serve the server end of a connection, closed by the closer,
        /// with payload cap `cap`, on a connection thread of the front.
        pub serve: Box<dyn Fn(Closer, Duplex, u32)>,
        /// The front's threads and stop.
        pub conns: Arc<Conns>,
        /// The epoch the front serves (a router's shards flush in
        /// lockstep, so shard 0's).
        pub reader: EmbeddingReader,
        /// Stop the front and everything behind it.
        pub shutdown: Box<dyn FnOnce()>,
    }

    impl Served {
        /// The client's ends of a connection served with payload cap
        /// `cap`, and the log of the server's writes on it.
        pub fn connect_raw(&self, cap: u32) -> (Duplex, WriteLog) {
            let (c2s_w, c2s_r) = pipe(64 << 10, None);
            let close = c2s_r.closer();
            let (s2c_w, s2c_r) = pipe(1 << 20, Some(Duration::from_secs(10)));
            let log = WriteLog::default();
            let server_end = Duplex {
                reader: Box::new(c2s_r),
                writer: Box::new(LoggedWriter {
                    inner: s2c_w,
                    reader: self.reader.clone(),
                    log: log.clone(),
                }),
                peer: "test".into(),
            };
            (self.serve)(close, server_end, cap);
            let client_end = Duplex {
                reader: Box::new(s2c_r),
                writer: Box::new(c2s_w),
                peer: "test".into(),
            };
            (client_end, log)
        }

        /// A client on a connection served with payload cap `cap`, and
        /// the log of the server's writes on it.
        pub fn connect(&self, cap: u32) -> (NetClient, WriteLog) {
            let (client_end, log) = self.connect_raw(cap);
            let client =
                NetClient::connect(Once(Mutex::new(Some(client_end))), ClientConfig::default());
            (client.expect("connected"), log)
        }

        pub fn shutdown(self) {
            (self.shutdown)()
        }
    }

    /// One entry per server `write`: the served epoch when it happened,
    /// and how many frames it carried.
    #[derive(Clone, Default)]
    pub(crate) struct WriteLog(Arc<Mutex<Vec<(u64, usize)>>>);

    impl WriteLog {
        pub fn writes(&self) -> Vec<(u64, usize)> {
            self.0.lock().unwrap().clone()
        }
    }

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
            self.log.0.lock().unwrap().push((epoch, frames));
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

    /// Both fronts over the same eight subset rows: a `NetFront`, and a
    /// `RouterFront` over two `NetFront` shards of four rows each.
    fn both() -> [Served; 2] {
        [
            net::frontend::tests::served(),
            crate::router::tests::served(),
        ]
    }

    #[test]
    fn a_pipelined_burst_is_answered_with_one_write() {
        for served in both() {
            let (mut client, log) = served.connect(MAX_PAYLOAD);
            let burst: Vec<Request> = (0..16).map(|i| Request::GetRows(vec![i % 8, 3])).collect();
            assert_eq!(client.pipeline(&burst).unwrap().len(), 16);
            assert_eq!(log.writes(), [(0, 16)]);
            drop(client);
            served.shutdown();
        }
    }

    #[test]
    fn sequential_round_trips_are_never_held_back() {
        for served in both() {
            let (mut client, log) = served.connect(MAX_PAYLOAD);
            for i in 0..16 {
                client.get_rows(&[i % 8]).unwrap();
            }
            assert_eq!(log.writes(), vec![(0, 1); 16]);
            drop(client);
            served.shutdown();
        }
    }

    #[test]
    fn replies_ahead_of_a_flush_are_written_before_it_runs() {
        for served in both() {
            let (mut client, log) = served.connect(MAX_PAYLOAD);
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
            // The submit ack; the first rows reply alone, written while
            // epoch 0 was still served (the flush had not run); then the
            // flush ack and the read behind it, together.
            assert_eq!(log.writes(), [(0, 1), (0, 1), (1, 2)]);
            drop(client);
            served.shutdown();
        }
    }

    #[test]
    fn an_over_cap_reply_is_a_typed_error_and_the_connection_stays_open() {
        for served in both() {
            // 8 rows × 4 f64s alone are 256 payload bytes: all eight are
            // over.
            let (mut client, log) = served.connect(200);
            let err = client.get_rows(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap_err();
            assert!(
                err.to_string().contains("reply exceeds the frame cap"),
                "{err}"
            );
            // Same connection (the transport cannot reopen it): still served.
            client.ping().unwrap();
            assert_eq!(client.get_rows(&[1]).unwrap().rows.len(), 1);
            assert_eq!(client.reconnects(), 0);
            assert_eq!(log.writes().len(), 3);
            drop(client);
            served.shutdown();
        }
    }

    /// Answers every request with `Pong`.
    struct Pong;

    impl Handler for Pong {
        fn execute(&mut self, _tenant: u32, _req: Request) -> (Reply, bool) {
            (Reply::Pong, false)
        }
    }

    #[test]
    fn closed_connections_leave_the_registry_at_the_next_accept() {
        let conns = Conns::new("tsvd-test");
        let flag = conns.clone();
        let addr = conns
            .listen("127.0.0.1:0", move |duplex: Duplex| {
                let out = FrameWriter::new(duplex.writer);
                serve(&mut Pong, duplex.reader, out, &flag.stop)
            })
            .unwrap()
            .to_string();
        let connect = || {
            let transport = TcpTransport::new(addr.clone());
            let mut client = NetClient::connect(transport, ClientConfig::default()).unwrap();
            client.ping().unwrap();
            client
        };
        for _ in 0..200 {
            drop(connect());
        }
        // A closed connection's thread ends on its own; the accept after
        // that joins it. So, once they have ended, a registry serving one
        // live connection holds one handle.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let live = connect();
            let held = conns.registry().conns.len();
            if held <= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{held} connection handles held with one connection live"
            );
            drop(live);
            thread::sleep(Duration::from_millis(25));
        }
        conns.shutdown();
    }

    /// Sets the stop flag while answering the first request.
    struct StopAtFirst<'a>(&'a AtomicBool);

    impl Handler for StopAtFirst<'_> {
        fn execute(&mut self, _tenant: u32, _req: Request) -> (Reply, bool) {
            self.0.store(true, Ordering::Release);
            (Reply::Pong, false)
        }
    }

    /// The loop checks the stop flag before every frame, even one already
    /// buffered: a peer that never pauses cannot keep a stopping loop
    /// alive.
    #[test]
    fn a_stopping_loop_stops_between_frames_even_on_a_busy_line() {
        let mut burst = Vec::new();
        for id in 1..=3 {
            encode_frame(id, 0, &Message::Request(Request::Ping), &mut burst);
        }
        let stop = AtomicBool::new(false);
        let mut wrote = Vec::new();
        serve(
            &mut StopAtFirst(&stop),
            &burst[..],
            FrameWriter::new(&mut wrote),
            &stop,
        );
        let (reply, used) = decode_frame(&wrote).unwrap();
        assert_eq!((reply.request_id, used), (1, wrote.len()), "one reply only");
    }

    /// A wire `Shutdown` stops the whole front from inside one of its
    /// connections: the sender still gets its ack, another idle
    /// connection reads EOF, and `wait_stopped` returns.
    #[test]
    fn a_wire_shutdown_is_acked_and_closes_every_other_connection() {
        for served in both() {
            let (mut sender, _) = served.connect(MAX_PAYLOAD);
            let (mut idle, _) = served.connect_raw(MAX_PAYLOAD);
            sender.ping().unwrap();
            sender.shutdown_server().unwrap();
            assert_eq!(idle.reader.read(&mut [0; 1]).unwrap(), 0, "EOF");
            assert!(served.conns.wait_stopped(Duration::from_secs(10)));
            drop((sender, idle));
            served.shutdown();
        }
    }

    /// A connection that reaches the registry after the stop (a loopback
    /// open or an accept racing it) is closed there and never served, so
    /// `shutdown` has nothing to wait on.
    #[test]
    fn a_connection_registered_after_stop_is_closed_at_registration() {
        let conns = Conns::new("tsvd-test");
        conns.stop();
        let (_writer, mut reader) = pipe(16, Some(Duration::from_secs(5)));
        let served = Arc::new(AtomicBool::new(false));
        let flag = served.clone();
        conns.spawn(reader.closer(), move || flag.store(true, Ordering::Release));
        assert_eq!(reader.read(&mut [0; 1]).unwrap(), 0, "EOF");
        conns.shutdown();
        assert!(!served.load(Ordering::Acquire));
        assert!(conns.registry().conns.is_empty());
    }

    /// A `Pong` front listening on loopback TCP: its threads, and its
    /// address.
    fn pong_front() -> (Arc<Conns>, String) {
        let conns = Conns::new("tsvd-test");
        let flag = conns.clone();
        let addr = conns
            .listen("127.0.0.1:0", move |duplex: Duplex| {
                let out = FrameWriter::new(duplex.writer);
                serve(&mut Pong, duplex.reader, out, &flag.stop)
            })
            .unwrap();
        (conns, addr.to_string())
    }

    /// The accept loop blocks in `accept`, so a new connection is served
    /// at once: no round waits out a poll interval (25 ms before the
    /// accept loop blocked, in about half the rounds).
    #[test]
    fn a_new_connection_is_answered_without_waiting_to_be_accepted() {
        let slow = (0..11)
            .filter(|_| {
                let (conns, addr) = pong_front();
                let t = Instant::now();
                let mut client =
                    NetClient::connect(TcpTransport::new(addr), ClientConfig::default()).unwrap();
                client.ping().unwrap();
                let took = t.elapsed();
                drop(client);
                conns.shutdown();
                took > Duration::from_millis(10)
            })
            .count();
        assert!(slow <= 2, "{slow} of 11 first pings took over 10 ms");
    }

    /// `shutdown` closes what every thread waits on and joins them all:
    /// the accept loop, an idle TCP connection and an idle loopback one.
    /// Nothing waits out a poll interval (25 ms every time before reads
    /// blocked).
    #[test]
    fn a_front_with_idle_connections_shuts_down_at_once_and_joins_every_thread() {
        let mut took: Vec<Duration> = (0..5)
            .map(|_| {
                let front = NetFront::start(net::frontend::tests::server(&[0, 1, 2, 3]));
                let addr = front.listen("127.0.0.1:0").unwrap().to_string();
                let conns = net::frontend::tests::conns_of(&front);
                let mut tcp_client =
                    NetClient::connect(TcpTransport::new(addr), ClientConfig::default()).unwrap();
                let mut lb_client =
                    NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
                tcp_client.ping().unwrap();
                lb_client.ping().unwrap();
                let t = Instant::now();
                drop(front.shutdown());
                let took = t.elapsed();
                let reg = conns.registry();
                assert!(reg.listeners.is_empty() && reg.conns.is_empty());
                // Neither connection is served any more.
                assert!(tcp_client.ping().is_err() && lb_client.ping().is_err());
                took
            })
            .collect();
        took.sort();
        assert!(
            took[2] < Duration::from_millis(10),
            "shutdown took {took:?}"
        );
    }
}
