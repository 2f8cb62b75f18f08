//! The network front: the serving API over a hermetic binary wire
//! protocol (`std::net` only — no external deps, per the workspace
//! hermeticity gate).
//!
//! * [`wire`] — frame codec: length-prefixed, versioned, checksummed
//!   frames; `f64`s travel as raw bits so replies are bitwise identical to
//!   in-process values. See the module docs for the byte-level spec. Also
//!   the buffered stream halves every connection uses
//!   ([`FrameReader`](wire::FrameReader) and the crate's `FrameWriter`).
//! * [`transport`] — the [`Transport`] abstraction: [`TcpTransport`] for
//!   real sockets, plus a bounded in-memory pipe behind
//!   [`LoopbackTransport`] for deterministic in-process testing.
//! * `conn` — the connection loop and thread registry both network
//!   fronts share: one thread per connection, one write per pipelined
//!   burst, pipelined `TopK` requests answered as runs.
//! * [`frontend`] — [`NetFront`]: serves the wire protocol on that loop
//!   against the running [`EmbeddingServer`](crate::EmbeddingServer).
//! * [`client`] — [`NetClient`]: typed calls, pipelining, reconnect, and
//!   client-side staleness / torn-read guards. Each client pins one tenant
//!   ([`ClientConfig::tenant`], default `0`): the id rides the frame
//!   header, the server routes per tenant, and replies must echo it.
//!
//! ```no_run
//! use tsvd_serve::net::{ClientConfig, NetClient, NetFront, TcpTransport};
//! # use tsvd_serve::*;
//! # let engine: ShardedEngine = unimplemented!();
//! let front = NetFront::start(EmbeddingServer::start(engine, ServeConfig::default()));
//! let addr = front.listen("127.0.0.1:0").unwrap();
//! let mut client =
//!     NetClient::connect(TcpTransport::new(addr.to_string()), ClientConfig::default()).unwrap();
//! client.submit_events(vec![tsvd_graph::EdgeEvent::insert(3, 17)]).unwrap();
//! let epoch = client.flush().unwrap();
//! let rows = client.get_rows(&[3, 17]).unwrap();
//! assert_eq!(rows.epoch, epoch);
//! ```

pub mod client;
pub(crate) mod conn;
pub mod frontend;
pub mod transport;
pub mod wire;

pub use client::{ClientConfig, NetClient, WindowsPull};
pub use frontend::{LoopbackTransport, NetFront};
pub use transport::{Duplex, TcpTransport, Transport};
pub use wire::{
    CheckpointReply, EmbeddingReply, Frame, Message, Reply, Request, RowsReply, WindowsReply,
    WireError,
};
