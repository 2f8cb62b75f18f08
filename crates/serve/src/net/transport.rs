//! Byte transports under the wire protocol.
//!
//! A [`Transport`] turns "where the server is" into a connected [`Duplex`]
//! byte stream. Two implementations ship:
//!
//! * [`TcpTransport`] — a real `std::net::TcpStream` (`TCP_NODELAY`,
//!   optional read timeout), for production traffic.
//! * the in-memory [`pipe`] — a bounded, blocking byte queue used by the
//!   loopback transport (`NetFront::loopback`) so the entire client ↔
//!   server path runs deterministically inside one process, with the same
//!   backpressure and timeout semantics as a socket. This is what lets the
//!   equivalence tests prove network replies bitwise identical to
//!   in-process calls without touching the host network stack.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::conn::{closer, Closer};

/// A connected bidirectional byte stream plus a peer label for diagnostics.
pub struct Duplex {
    /// Incoming bytes (replies on the client side, requests on the server).
    pub reader: Box<dyn Read + Send>,
    /// Outgoing bytes.
    pub writer: Box<dyn Write + Send>,
    /// Human-readable peer description (address or "loopback").
    pub peer: String,
}

/// A way to open connections to one server.
///
/// `open` is called for the initial connection and again on every
/// reconnect, so implementations must be reusable.
pub trait Transport: Send + Sync {
    /// Open a fresh connection.
    fn open(&self) -> io::Result<Duplex>;
}

/// TCP transport: connects to `addr`, enables `TCP_NODELAY` (the protocol
/// is request/reply; Nagle would serialise pipelined round trips), and
/// applies `read_timeout` to reply reads so a dead server surfaces as
/// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] instead of a
/// hang.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    /// Server address, e.g. `"127.0.0.1:7070"`.
    pub addr: String,
    /// Reply-read timeout; `None` blocks forever.
    pub read_timeout: Option<Duration>,
}

impl TcpTransport {
    /// A transport for `addr` with a 5-second read timeout.
    pub fn new(addr: impl Into<String>) -> TcpTransport {
        TcpTransport {
            addr: addr.into(),
            read_timeout: Some(Duration::from_secs(5)),
        }
    }
}

impl Transport for TcpTransport {
    fn open(&self) -> io::Result<Duplex> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        let reader = stream.try_clone()?;
        Ok(Duplex {
            reader: Box::new(reader),
            writer: Box::new(stream),
            peer: self.addr.clone(),
        })
    }
}

// ------------------------------------------------------------------ pipe

/// Shared state of one in-memory pipe direction.
struct PipeState {
    buf: VecDeque<u8>,
    write_closed: bool,
    read_closed: bool,
}

struct PipeShared {
    state: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
    capacity: usize,
}

/// Read half of an in-memory [`pipe`].
pub struct PipeReader {
    shared: Arc<PipeShared>,
    timeout: Option<Duration>,
}

/// Write half of an in-memory [`pipe`].
pub struct PipeWriter {
    shared: Arc<PipeShared>,
}

/// A bounded in-process byte queue with socket-like blocking semantics:
/// writes block while the buffer holds `capacity` bytes (backpressure),
/// reads block until bytes arrive, dropping the writer (or a front's
/// stop closing the reader) yields clean EOF once the buffered bytes
/// are read, and dropping the reader turns writes into `BrokenPipe`.
/// `read_timeout` (the client's end of a loopback connection sets one)
/// makes blocked reads fail with [`io::ErrorKind::TimedOut`], like
/// `TcpStream::set_read_timeout`.
pub fn pipe(capacity: usize, read_timeout: Option<Duration>) -> (PipeWriter, PipeReader) {
    assert!(capacity > 0, "pipe capacity must be positive");
    let shared = Arc::new(PipeShared {
        state: Mutex::new(PipeState {
            buf: VecDeque::new(),
            write_closed: false,
            read_closed: false,
        }),
        readable: Condvar::new(),
        writable: Condvar::new(),
        capacity,
    });
    (
        PipeWriter {
            shared: shared.clone(),
        },
        PipeReader {
            shared,
            timeout: read_timeout,
        },
    )
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if !state.buf.is_empty() {
                let n = out.len().min(state.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = state.buf.pop_front().unwrap();
                }
                self.shared.writable.notify_all();
                return Ok(n);
            }
            if state.write_closed {
                return Ok(0); // clean EOF
            }
            state = match deadline {
                None => self.shared.readable.wait(state).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "pipe read timeout"));
                    }
                    self.shared.readable.wait_timeout(state, d - now).unwrap().0
                }
            };
        }
    }
}

impl PipeReader {
    /// Close this reader's stream from another thread, as if its writer
    /// were dropped: a blocked read wakes, and reads see EOF once the
    /// buffered bytes are gone.
    pub(crate) fn closer(&self) -> Closer {
        closer(&self.shared, PipeShared::close_write)
    }
}

impl PipeShared {
    fn close_write(&self) {
        self.state.lock().unwrap().write_closed = true;
        self.readable.notify_all();
    }
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.read_closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "pipe reader dropped",
                ));
            }
            let free = self.shared.capacity.saturating_sub(state.buf.len());
            if free > 0 {
                let n = data.len().min(free);
                state.buf.extend(&data[..n]);
                self.shared.readable.notify_all();
                return Ok(n); // partial write; write_all loops
            }
            state = self.shared.writable.wait(state).unwrap();
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.read_closed = true;
        self.shared.writable.notify_all();
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.shared.close_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn pipe_round_trips_bytes_in_order() {
        let (mut w, mut r) = pipe(8, None);
        let handle = std::thread::spawn(move || {
            let payload: Vec<u8> = (0..100u8).collect();
            w.write_all(&payload).unwrap(); // > capacity: must block + drain
        });
        let mut got = Vec::new();
        let mut buf = [0u8; 7];
        loop {
            match r.read(&mut buf).unwrap() {
                0 => break,
                n => got.extend_from_slice(&buf[..n]),
            }
        }
        handle.join().unwrap();
        assert_eq!(got, (0..100u8).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_writer_is_clean_eof_and_dropped_reader_breaks_pipe() {
        let (w, mut r) = pipe(4, None);
        drop(w);
        let mut buf = [0u8; 4];
        assert_eq!(r.read(&mut buf).unwrap(), 0, "EOF after writer drop");

        let (mut w, r) = pipe(4, None);
        drop(r);
        let err = w.write_all(&[1, 2, 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_timeout_fires_when_no_data_arrives() {
        let (_w, mut r) = pipe(4, Some(Duration::from_millis(20)));
        let mut buf = [0u8; 1];
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
