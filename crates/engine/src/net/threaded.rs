//! The thread-per-connection front end: the pre-reactor serving model,
//! kept as the reactor's parity oracle (`cqa-serve --threaded`) until a
//! measurement settles which of the two front ends stays.
//!
//! One listener thread accepts connections and hands them to
//! `cfg.workers` worker threads over an `mpsc` channel; a session costs a
//! whole worker for its lifetime, so admission is strict: when every
//! worker is busy a new connection gets a one-line `ERR busy` — written
//! non-blockingly, so a slow-loris client can no longer freeze the accept
//! loop — and is closed. Sockets carry both read *and* write timeouts: a
//! client that stops draining responses expires the write (counted in
//! `write_errors`) instead of hanging its worker forever. The protocol
//! surface matches the reactor front end (tags, `BATCH`, body caps);
//! only the execution model differs.

use crate::engine::Engine;
use crate::protocol::{parse_command, read_body, split_tag, BodyError, Command, Response};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// Writes one response, prefixing the echoed request tag when present.
fn write_tagged(w: &mut impl Write, tag: Option<&str>, resp: &Response) -> io::Result<()> {
    if let Some(t) = tag {
        write!(w, "@{t} ")?;
    }
    resp.write_to(w)
}

/// Runs the thread-per-connection accept loop until a client sends
/// `SHUTDOWN`. Returns once all worker threads have drained and joined.
pub fn serve_threaded(engine: Arc<Engine>, listener: TcpListener) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let workers = engine.cfg.workers.max(1);
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut pool = Vec::with_capacity(workers);
    for _ in 0..workers {
        let rx = Arc::clone(&rx);
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        let active = Arc::clone(&active);
        // A request thread's stack, whatever `RUST_MIN_STACK` says.
        let spawn = thread::Builder::new().stack_size(cqa_logic::REQUEST_STACK_BYTES);
        pool.push(spawn.spawn(move || loop {
            let stream = {
                let guard = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                guard.recv()
            };
            let Ok(stream) = stream else { break };
            // One bad connection must cost exactly one connection: a
            // handler panic is contained here so the worker survives to
            // serve the next client instead of silently shrinking the
            // pool (and leaking its admission slot) forever.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_connection(&engine, stream, &shutdown, addr)
            }));
            match result {
                Ok(Ok(())) => {}
                Ok(Err(_)) => {
                    // The client vanished mid-response (broken pipe /
                    // reset / timeout on write). The session died with the
                    // socket; count it and move on.
                    engine.stats.write_errors.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    engine.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                }
            }
            active.fetch_sub(1, Ordering::Release);
        })?);
    }
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if super::set_socket_options(&stream).is_err() {
            continue;
        }
        // Strict admission: claim a worker slot before queueing; if none is
        // free, tell the client now instead of letting it wait in line.
        if active.fetch_add(1, Ordering::Acquire) >= workers {
            active.fetch_sub(1, Ordering::Release);
            engine.stats.rejected_conns.fetch_add(1, Ordering::Relaxed);
            // Non-blocking rejection: one attempt into the (empty) socket
            // send buffer. A client that refuses to read cannot stall the
            // accept loop — worst case it just never sees the reason.
            let mut out = Vec::new();
            let _ = Response::err("busy", format!("all {workers} workers busy, try again"))
                .write_to(&mut out);
            if stream.set_nonblocking(true).is_ok() {
                let _ = (&stream).write(&out);
            }
            continue;
        }
        if tx.send(stream).is_err() {
            break;
        }
    }
    drop(tx);
    for h in pool {
        let _ = h.join();
    }
    Ok(())
}

/// Serves one connection: a session lives exactly as long as its socket.
fn handle_connection(
    engine: &Engine,
    stream: TcpStream,
    shutdown: &AtomicBool,
    listener_addr: SocketAddr,
) -> io::Result<()> {
    stream.set_read_timeout(Some(engine.cfg.idle_timeout))?;
    // The write timeout is the stalled-client guard: without it, a peer
    // that stops draining responses parks this worker inside a blocking
    // write for good.
    stream.set_write_timeout(Some(engine.cfg.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut session = engine.open_session();
    Response::ok("cqa-engine ready").write_to(&mut writer)?;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            // Idle timeout or torn connection: drop the session.
            Err(_) => break,
        }
        if line.trim().is_empty() {
            continue;
        }
        let (tag, rest) = match split_tag(&line) {
            Ok(parts) => parts,
            Err(e) => {
                write_tagged(&mut writer, None, &Response::err("proto", e))?;
                continue;
            }
        };
        let cmd = match parse_command(rest) {
            Ok(cmd) => cmd,
            Err(e) => {
                write_tagged(&mut writer, tag, &Response::err("proto", e))?;
                continue;
            }
        };
        let cmd = match cmd {
            Command::Load { program: None } => {
                match read_body(&mut reader, engine.cfg.max_body_bytes) {
                    Ok(body) => Command::Load {
                        program: Some(body),
                    },
                    Err(e @ BodyError::TooLarge { .. }) => {
                        write_tagged(&mut writer, tag, &Response::err("proto", e.to_string()))?;
                        continue;
                    }
                    Err(BodyError::Io(_)) => break,
                }
            }
            Command::Batch { specs: None } => {
                match read_body(&mut reader, engine.cfg.max_body_bytes) {
                    Ok(body) => Command::Batch { specs: Some(body) },
                    Err(e @ BodyError::TooLarge { .. }) => {
                        write_tagged(&mut writer, tag, &Response::err("proto", e.to_string()))?;
                        continue;
                    }
                    Err(BodyError::Io(_)) => break,
                }
            }
            other => other,
        };
        let stop = matches!(cmd, Command::Close | Command::Shutdown);
        let is_shutdown = matches!(cmd, Command::Shutdown);
        let resp = engine.dispatch(&mut session, cmd);
        if is_shutdown {
            // Raise the flag before the (fallible) acknowledgement write:
            // a client that sends SHUTDOWN and slams its socket shut must
            // still stop the server.
            shutdown.store(true, Ordering::Release);
            // Self-connect to pop the listener out of its blocking accept.
            let _ = TcpStream::connect(listener_addr);
        }
        write_tagged(&mut writer, tag, &resp)?;
        if stop {
            break;
        }
    }
    Ok(())
}
