//! The TCP serving layer: one event-driven front end, [`serve`].
//!
//! A reactor thread ([`reactor`]) parks every open connection on a
//! non-blocking socket, assembles complete request frames (command line
//! plus any dot-terminated body), and schedules connections with queued
//! frames onto a fixed worker pool ([`worker`]). A connection costs a
//! worker thread only while a frame of its is executing, so hundreds of
//! idle sessions cost zero workers; admission is a `max_sessions` limit
//! (`ERR busy` beyond it, counted in `rejected_conns`). The protocol
//! pipelines: clients may send many commands without waiting, and
//! responses come back in request order, `@tag`-prefixed when the request
//! was.
//!
//! It is std-only (no async runtime, no epoll binding): the reactor is a
//! poll loop over non-blocking sockets that sleeps only when a full pass
//! made no progress. `SHUTDOWN` raises a flag; the reactor drains buffered
//! responses (bounded), closes every socket, drops the worker channel, and
//! joins every thread — a clean shutdown leaks nothing.
//!
//! Every accepted socket passes through [`set_socket_options`] before it
//! serves a byte: `TCP_NODELAY` is what lets a pipelined burst come back
//! as fast as it is executed (DESIGN.md §15, "Socket options").

mod conn;
mod reactor;
mod worker;

use crate::engine::Engine;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// The options every connection the engine accepts gets. `TCP_NODELAY`:
/// with Nagle's algorithm on, a reply written while an earlier reply is
/// still unacknowledged is held until the client's delayed ACK fires — at
/// least 40 ms on Linux — so without it every pipelined burst of two or
/// more frames pays that timer once.
fn set_socket_options(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// A handle to a server spawned with [`spawn_server`]: its bound address
/// and the serving thread to join after `SHUTDOWN`.
pub struct ServerHandle {
    addr: SocketAddr,
    join: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to stop (a client must send `SHUTDOWN`).
    pub fn join(mut self) -> io::Result<()> {
        match self.join.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("server thread panicked"))?,
            None => Ok(()),
        }
    }
}

/// Runs the event-driven serving loop until a client sends `SHUTDOWN`.
/// Returns once the reactor and all worker threads have drained and
/// joined.
pub fn serve(engine: Arc<Engine>, listener: TcpListener) -> io::Result<()> {
    reactor::run(engine, listener)
}

/// Binds an ephemeral localhost port and runs [`serve`] on a background
/// thread. Used by in-process tests and `cqa-e2e`; the `cqa-serve` binary
/// binds its own `--addr` and calls [`serve`].
pub fn spawn_server(engine: Arc<Engine>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let join = thread::spawn(move || serve(engine, listener));
    Ok(ServerHandle {
        addr,
        join: Some(join),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::protocol::{read_response, Response};
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;

    fn send(r: &mut impl BufRead, w: &mut impl Write, line: &str) -> Response {
        writeln!(w, "{line}").unwrap();
        w.flush().unwrap();
        read_response(r).unwrap().expect("response")
    }

    #[test]
    fn tcp_roundtrip_and_clean_shutdown() {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        }));
        let handle = spawn_server(engine).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        let greeting = read_response(&mut r).unwrap().unwrap();
        assert!(greeting.is_ok(), "{greeting:?}");

        // LOAD with a dot-terminated body.
        writeln!(w, "LOAD").unwrap();
        writeln!(w, "rel S(y) := 0 <= y & y <= 1/2").unwrap();
        writeln!(w, ".").unwrap();
        w.flush().unwrap();
        let resp = read_response(&mut r).unwrap().unwrap();
        assert!(resp.is_ok(), "{resp:?}");

        let resp = send(&mut r, &mut w, "PREPARE half S(x)");
        assert!(resp.is_ok(), "{resp:?}");
        let resp = send(&mut r, &mut w, "EXEC half");
        assert!(resp.header.contains("status=exact value=1/2"), "{resp:?}");

        // Tagged request: the tag comes back on the header.
        let resp = send(&mut r, &mut w, "@t1 EXEC half");
        assert!(
            resp.header.starts_with("@t1 OK") && resp.header.contains("value=1/2"),
            "{resp:?}"
        );

        // BATCH with a dot-terminated spec body.
        writeln!(w, "BATCH").unwrap();
        writeln!(w, "half").unwrap();
        writeln!(w, "half 0.25 0.1").unwrap();
        writeln!(w, ".").unwrap();
        w.flush().unwrap();
        let resp = read_response(&mut r).unwrap().unwrap();
        assert!(resp.header.starts_with("OK BATCH n=2 errors=0"), "{resp:?}");
        assert_eq!(resp.body.len(), 2, "{resp:?}");
        assert!(resp.body[0].contains("value=1/2"), "{resp:?}");

        let resp = send(&mut r, &mut w, "FROB");
        assert!(resp.header.starts_with("ERR proto"), "{resp:?}");

        let resp = send(&mut r, &mut w, "SHUTDOWN");
        assert!(resp.is_ok(), "{resp:?}");
        handle.join().unwrap();
    }

    #[test]
    fn client_disconnecting_mid_response_does_not_kill_the_worker() {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        }));
        let handle = spawn_server(Arc::clone(&engine)).unwrap();
        // Pipeline many large STATS responses and vanish without reading:
        // the kernel buffers fill, the server's writes hit
        // EPIPE/ECONNRESET mid-response, and the (sole) worker must
        // survive it.
        {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            let mut w = BufWriter::new(stream.try_clone().unwrap());
            for _ in 0..5_000 {
                if writeln!(w, "STATS").and_then(|()| w.flush()).is_err() {
                    break; // server already saw the reset — also fine
                }
            }
            // Closing with unread response data pending makes the kernel
            // send RST, so the server's next write fails instead of
            // buffering forever.
        }
        // The worker must come back and serve a fresh connection.
        let mut ok = false;
        for _ in 0..50 {
            std::thread::sleep(std::time::Duration::from_millis(100));
            let Ok(stream) = TcpStream::connect(handle.addr()) else {
                continue;
            };
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let Ok(Some(greeting)) = read_response(&mut r) else {
                continue;
            };
            if greeting.header.starts_with("ERR busy") {
                continue; // dead connection not yet reaped
            }
            assert!(greeting.is_ok(), "{greeting:?}");
            let mut w = BufWriter::new(stream);
            let resp = send(&mut r, &mut w, "VOLUME 0 <= x & x <= 1/2");
            assert!(resp.header.contains("value=1/2"), "{resp:?}");
            send(&mut r, &mut w, "SHUTDOWN");
            ok = true;
            break;
        }
        assert!(ok, "worker never recovered after the broken-pipe client");
        handle.join().unwrap();
    }

    #[test]
    fn server_survives_a_poisoned_cache() {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        }));
        let handle = spawn_server(Arc::clone(&engine)).unwrap();
        // Poison the shared cache mutexes exactly as a worker panicking
        // while holding one would.
        engine.cache.poison_for_tests();
        // Every cache-touching command must still be served.
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        assert!(read_response(&mut r).unwrap().unwrap().is_ok());
        let resp = send(&mut r, &mut w, "PREPARE half 0 <= x & x <= 1/2");
        assert!(resp.is_ok(), "{resp:?}");
        let resp = send(&mut r, &mut w, "EXEC half");
        assert!(resp.header.contains("value=1/2"), "{resp:?}");
        let resp = send(&mut r, &mut w, "STATS");
        let body = resp.body.join("\n");
        assert!(body.contains("poison_recoveries="), "{body}");
        assert!(!body.contains("poison_recoveries=0"), "{body}");
        send(&mut r, &mut w, "SHUTDOWN");
        handle.join().unwrap();
    }

    #[test]
    fn half_close_mid_body_closes_the_connection() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let handle = spawn_server(engine).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        assert!(read_response(&mut r).unwrap().unwrap().is_ok());
        // A body whose terminating `.` can no longer arrive.
        (&stream).write_all(b"LOAD\nrel S(y) := y > 0\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(read_response(&mut r).unwrap().is_none(), "still open");
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        assert!(read_response(&mut r).unwrap().unwrap().is_ok());
        send(&mut r, &mut BufWriter::new(stream), "SHUTDOWN");
        handle.join().unwrap();
    }

    #[test]
    fn session_limit_rejects_with_busy() {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            max_sessions: 1,
            ..EngineConfig::default()
        }));
        let handle = spawn_server(Arc::clone(&engine)).unwrap();
        // First connection occupies the only session slot.
        let s1 = TcpStream::connect(handle.addr()).unwrap();
        let mut r1 = BufReader::new(s1.try_clone().unwrap());
        assert!(read_response(&mut r1).unwrap().unwrap().is_ok());
        // Second connection must be turned away.
        let s2 = TcpStream::connect(handle.addr()).unwrap();
        let mut r2 = BufReader::new(s2.try_clone().unwrap());
        let resp = read_response(&mut r2).unwrap().unwrap();
        assert!(resp.header.starts_with("ERR busy"), "{resp:?}");
        assert_eq!(
            crate::stats::EngineStats::get(&engine.stats.rejected_conns),
            1
        );
        // Release the slot, then stop the server.
        let mut w1 = BufWriter::new(s1);
        writeln!(w1, "SHUTDOWN").unwrap();
        w1.flush().unwrap();
        assert!(read_response(&mut r1).unwrap().unwrap().is_ok());
        handle.join().unwrap();
    }
}
