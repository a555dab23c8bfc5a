//! The worker pool: frames in, responses out.
//!
//! A worker receives a *connection* (not a frame) from the reactor,
//! drains that connection's frame queue FIFO, and clears `in_flight`
//! under the queue lock when it runs dry — the handshake that keeps one
//! connection's commands strictly ordered while different connections
//! execute in parallel (see `conn.rs`). Responses are appended to the
//! connection's output buffer and flushed opportunistically right here,
//! so warm-path latency is a socket write, not a reactor tick.
//!
//! A panicking command handler is contained per frame: the worker counts
//! it, kills only that connection, and survives to serve the next one —
//! the pool never shrinks.

use super::conn::{push_response, Conn, Frame};
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
        if result.is_err() {
            // One bad request costs exactly one connection; the worker
            // lives on.
            engine.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            conn.kill();
            let mut p = conn.lock_pending();
            p.queue.clear();
            p.in_flight = false;
            return;
        }
    }
}

/// Executes one frame and appends its response in-slot.
fn process(engine: &Engine, conn: &Arc<Conn>, frame: Frame, shutdown: &AtomicBool) {
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
    if stop {
        // Later pipelined frames on a closed session get no responses —
        // the connection is going away, exactly like a mid-pipeline
        // disconnect.
        conn.lock_pending().queue.clear();
        conn.lock_io().close_after_flush = true;
    }
    // Opportunistic flush; whatever stays buffered (or the
    // close_after_flush close itself) is the reactor's next pass.
    if conn.flush_io().is_err() {
        engine.stats.write_errors.fetch_add(1, Ordering::Relaxed);
        conn.kill();
    }
}
