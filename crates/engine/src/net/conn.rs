//! Shared per-connection state: the socket, its buffered output, the FIFO
//! frame queue, and the session — the pieces the reactor and the worker
//! pool hand back and forth.
//!
//! ### Ordering invariant
//!
//! Pipelining is only sound if one connection's commands execute — and
//! respond — strictly in request order. Two rules enforce that here:
//!
//! 1. The reactor appends frames to `pending.queue` in wire order (it is
//!    the only reader of the socket).
//! 2. At most one worker processes a connection at a time: the reactor
//!    schedules a connection onto the worker channel only when
//!    `pending.in_flight` is false, and the owning worker drains the queue
//!    FIFO, clearing `in_flight` under the same lock that guards the
//!    queue — so a frame arriving concurrently is either seen by the
//!    draining worker or triggers a fresh schedule, never neither.
//!
//! Responses are appended to `io.out` by that single owning worker, so
//! output order equals execution order equals request order.

use crate::engine::Session;
use crate::protocol::Command;
use crate::stats::EngineStats;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One complete request, assembled by the reactor (command line plus any
/// dot-terminated body), or a protocol error that must still produce an
/// in-order response.
#[derive(Debug)]
pub(crate) enum Frame {
    /// A parsed command, body already attached.
    Cmd {
        /// Echoed back on the response header.
        tag: Option<String>,
        /// The command to dispatch.
        cmd: Command,
    },
    /// A request that failed framing/parsing; answered `ERR proto …` in
    /// its request slot so pipelined clients stay positionally paired.
    ProtoErr {
        /// Echoed back on the response header.
        tag: Option<String>,
        /// Human-readable error detail.
        msg: String,
    },
}

/// Buffered response bytes for one connection, flushed non-blockingly.
/// The owning worker appends a reply per frame but writes only when its
/// queue runs dry, when [`FLUSH_BYTES`] are waiting or when the frame
/// closes the connection; the reactor writes whatever waits on each of its
/// passes. So a pipelined burst's replies leave in a few large writes,
/// none later than one reactor pass after it was ready.
pub(crate) struct ConnIo {
    /// Serialized responses not yet fully written to the socket.
    pub out: Vec<u8>,
    /// How many bytes of `out` have been written so far.
    pub pos: usize,
    /// Close the connection once `out` drains (set by `CLOSE`, `SHUTDOWN`,
    /// EOF, and fatal protocol errors).
    pub close_after_flush: bool,
    /// When the last flush attempt made no progress on a non-empty buffer;
    /// the reactor turns a long stall into a `write_errors`-counted drop.
    pub stalled_since: Option<Instant>,
}

/// The FIFO frame queue plus the single-owner flag (see module docs).
pub(crate) struct Pending {
    /// Assembled frames awaiting execution, in wire order.
    pub queue: VecDeque<Frame>,
    /// Whether a worker currently owns this connection's queue.
    pub in_flight: bool,
}

/// One live connection, shared between the reactor and the worker pool.
pub(crate) struct Conn {
    /// The non-blocking socket. The reactor reads; the owning worker and
    /// the reactor both write (serialized by the `io` lock).
    pub stream: TcpStream,
    /// Output buffer state.
    pub io: Mutex<ConnIo>,
    /// Frame queue state.
    pub pending: Mutex<Pending>,
    /// The session; locked by the one worker executing this connection's
    /// frames (the lock makes `Conn: Sync`, the scheduling makes it
    /// uncontended).
    pub session: Mutex<Session>,
    /// Set when the connection is beyond saving (I/O error, write-stall
    /// timeout, handler panic); the reactor reaps it on its next tick.
    pub dead: AtomicBool,
}

/// Buffered bytes at which a worker writes without waiting for its queue
/// to run dry, so a long burst of large replies never holds them all.
pub(crate) const FLUSH_BYTES: usize = 64 << 10;

/// Serializes a response (tag prefixed onto the header line when present)
/// straight onto the end of the connection's output buffer. Actual socket
/// writes happen in [`Conn::flush_io`].
pub(crate) fn push_response(conn: &Conn, tag: Option<&str>, resp: &crate::protocol::Response) {
    let mut io = conn.lock_io();
    // Writes into a `Vec` cannot fail.
    if let Some(t) = tag {
        let _ = write!(io.out, "@{t} ");
    }
    let _ = resp.write_to(&mut io.out);
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, session: Session) -> Conn {
        Conn {
            stream,
            io: Mutex::new(ConnIo {
                out: Vec::new(),
                pos: 0,
                close_after_flush: false,
                stalled_since: None,
            }),
            pending: Mutex::new(Pending {
                queue: VecDeque::new(),
                in_flight: false,
            }),
            session: Mutex::new(session),
            dead: AtomicBool::new(false),
        }
    }

    /// Marks the connection for reaping.
    pub(crate) fn kill(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Whether the connection is marked for reaping.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Locks the io half, recovering from poisoning (a panicking worker
    /// must not wedge the reactor's flush loop).
    pub(crate) fn lock_io(&self) -> MutexGuard<'_, ConnIo> {
        self.io.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the pending half, recovering from poisoning.
    pub(crate) fn lock_pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes appended to the output buffer and not yet written.
    pub(crate) fn buffered(&self) -> usize {
        let io = self.lock_io();
        io.out.len() - io.pos
    }

    /// Attempts to flush buffered output without blocking. Returns
    /// `Ok(true)` when the buffer fully drained, `Ok(false)` when bytes
    /// remain (the socket is backed up), `Err` on a dead socket. Progress
    /// resets the stall clock; a no-progress attempt starts it. Every
    /// `write` that moves bytes counts in `stats.net_writes`.
    pub(crate) fn flush_io(&self, stats: &EngineStats) -> io::Result<bool> {
        let mut io = self.lock_io();
        if io.pos >= io.out.len() {
            io.out.clear();
            io.pos = 0;
            io.stalled_since = None;
            return Ok(true);
        }
        loop {
            let pos = io.pos;
            match (&self.stream).write(&io.out[pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    stats.net_writes.fetch_add(1, Ordering::Relaxed);
                    io.pos += n;
                    io.stalled_since = None;
                    if io.pos >= io.out.len() {
                        io.out.clear();
                        io.pos = 0;
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if io.stalled_since.is_none() {
                        io.stalled_since = Some(Instant::now());
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}
