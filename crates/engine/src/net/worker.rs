//! The worker pool: frames in, responses out.
//!
//! A worker receives a *connection* (not a frame) from the reactor,
//! drains that connection's frame queue FIFO, and clears `in_flight`
//! under the queue lock when it runs dry — the handshake that keeps one
//! connection's commands strictly ordered while different connections
//! execute in parallel (see `conn.rs`). Responses are appended to the
//! connection's output buffer; the worker writes them itself only when
//! the queue has run dry (the last reply of a burst, or the only reply of
//! a round trip, so warm-path latency is a socket write, not a reactor
//! tick), when [`FLUSH_BYTES`] are waiting, or when the frame closes the
//! connection. Between those, the reactor writes whatever waits on each
//! pass, so a pipelined burst of n replies costs about one `write` per
//! reactor pass it spans instead of n, and no reply waits longer than one
//! pass behind a slow frame.
//!
//! A panicking command handler is contained per frame: the worker counts
//! it, kills only that connection, and survives to serve the next one —
//! the pool never shrinks.

use super::conn::{push_response, Conn, Frame, FLUSH_BYTES};
use crate::engine::Engine;
use crate::protocol::{Command, Response};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

/// Spawns one worker thread off the shared channel, with the request
/// stack size ([`cqa_logic::REQUEST_STACK_BYTES`]). The worker exits when
/// the reactor drops the sender.
pub(crate) fn spawn(
    engine: Arc<Engine>,
    rx: Arc<Mutex<mpsc::Receiver<Arc<Conn>>>>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .stack_size(cqa_logic::REQUEST_STACK_BYTES)
        .spawn(move || loop {
            let conn = {
                let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                guard.recv()
            };
            let Ok(conn) = conn else { break };
            drain(&engine, &conn, &shutdown);
        })
        .expect("failed to spawn a worker thread")
}

/// Drains one connection's frame queue, releasing ownership when empty.
fn drain(engine: &Engine, conn: &Arc<Conn>, shutdown: &AtomicBool) {
    loop {
        let frame = {
            let mut p = conn.lock_pending();
            match p.queue.pop_front() {
                Some(f) => f,
                None => {
                    // Clearing in_flight under the queue lock closes the
                    // race with the reactor appending a frame right now:
                    // either we saw it above, or the reactor sees
                    // `in_flight == false` and schedules afresh.
                    p.in_flight = false;
                    return;
                }
            }
        };
        if conn.is_dead() {
            let mut p = conn.lock_pending();
            p.queue.clear();
            p.in_flight = false;
            return;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process(engine, conn, frame, shutdown)
        }));
        let stop = match result {
            Ok(stop) => stop,
            Err(_) => {
                // One bad request costs exactly one connection; the worker
                // lives on. The replies to the frames before it still go
                // out, as far as the socket takes them now.
                engine.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                let _ = conn.flush_io(&engine.stats);
                conn.kill();
                let mut p = conn.lock_pending();
                p.queue.clear();
                p.in_flight = false;
                return;
            }
        };
        // Write now only when no queued frame will add to the buffer soon;
        // otherwise a later write here, or the reactor's next pass, carries
        // these bytes (and the close_after_flush close itself).
        let last = conn.lock_pending().queue.is_empty();
        if (stop || last || conn.buffered() >= FLUSH_BYTES) && conn.flush_io(&engine.stats).is_err()
        {
            engine.stats.write_errors.fetch_add(1, Ordering::Relaxed);
            conn.kill();
        }
    }
}

/// Executes one frame and appends its response in-slot. Returns whether
/// the frame closes the connection.
fn process(engine: &Engine, conn: &Arc<Conn>, frame: Frame, shutdown: &AtomicBool) -> bool {
    let (tag, resp, stop, is_shutdown) = match frame {
        Frame::ProtoErr { tag, msg } => (tag, Response::err("proto", msg), false, false),
        Frame::Cmd { tag, cmd } => {
            let stop = matches!(cmd, Command::Close | Command::Shutdown);
            let is_shutdown = matches!(cmd, Command::Shutdown);
            let mut session = conn.session.lock().unwrap_or_else(PoisonError::into_inner);
            let resp = engine.dispatch(&mut session, cmd);
            (tag, resp, stop, is_shutdown)
        }
    };
    if is_shutdown {
        // Raise the flag before the (fallible) acknowledgement flush: a
        // client that sends SHUTDOWN and slams its socket shut must still
        // stop the server. `dispatch` already flushed the warm file.
        shutdown.store(true, Ordering::Release);
    }
    push_response(conn, tag.as_deref(), &resp);
    engine.stats.net_replies.fetch_add(1, Ordering::Relaxed);
    if stop {
        // Later pipelined frames on a closed session get no responses —
        // the connection is going away, exactly like a mid-pipeline
        // disconnect.
        conn.lock_pending().queue.clear();
        conn.lock_io().close_after_flush = true;
    }
    stop
}
