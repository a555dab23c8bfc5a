//! The reactor: every open connection parked on a non-blocking socket,
//! one thread assembling complete request frames and flushing buffered
//! responses.
//!
//! std-only means no epoll/kqueue: the reactor is a poll loop over the
//! registered sockets. Each pass it accepts new connections (admission =
//! `max_sessions`, overflow answered `ERR busy` without ever blocking the
//! accept path), drains readable bytes into per-connection buffers, cuts
//! complete frames (command line + optional dot-terminated body, with the
//! `max_body_bytes` cap enforced *during* assembly so an oversized body
//! never materializes in memory), schedules connections with runnable
//! frames onto the worker channel, flushes pending output, and enforces
//! the idle/write-stall timeouts. A pass that made progress loops again
//! immediately; an idle pass sleeps ~1 ms — so N parked sessions cost one
//! mostly-sleeping thread and zero workers, while a loaded reactor runs
//! syscall-bound.

use super::conn::{push_response, Conn, Frame};
use super::worker;
use crate::engine::Engine;
use crate::protocol::{parse_command, split_tag, Command, Response};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle reactor pass sleeps before polling again.
const IDLE_TICK: Duration = Duration::from_millis(1);
/// How long the shutdown drain waits for in-flight work and unflushed
/// responses before closing sockets anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);
/// How long a rejected connection gets to drain its one-line `ERR busy`
/// before the reactor drops it.
const REJECT_DEADLINE: Duration = Duration::from_secs(2);

/// A dot-terminated body under assembly.
struct BodyAssembly {
    tag: Option<String>,
    /// `true` for `BATCH`, `false` for `LOAD`.
    batch: bool,
    text: String,
    /// The body blew the cap; keep consuming (the stream must stay
    /// framed) but stop buffering.
    over: bool,
}

/// Reactor-private per-connection read state. Only the reactor touches
/// it, so frames are cut in wire order by construction.
pub(crate) struct ReadState {
    /// Raw bytes read off the socket, not yet cut into lines.
    buf: Vec<u8>,
    /// `Some` while a `LOAD`/`BATCH` body is being assembled.
    body: Option<BodyAssembly>,
    /// Last time bytes or frames arrived (drives the idle timeout).
    last_activity: Instant,
    /// The peer half-closed its send side.
    eof: bool,
}

impl ReadState {
    pub(crate) fn new() -> ReadState {
        ReadState {
            buf: Vec::new(),
            body: None,
            last_activity: Instant::now(),
            eof: false,
        }
    }
}

/// Cuts complete frames out of `state.buf`, advancing the body-assembly
/// state machine. Returns `Err` only for unrecoverable framing damage (a
/// line longer than the cap): the caller answers `ERR proto` and closes.
pub(crate) fn assemble(
    state: &mut ReadState,
    max_body: usize,
    frames: &mut Vec<Frame>,
) -> Result<(), String> {
    let max_line = max_body.max(64 << 10) + 1024;
    let mut start = 0usize;
    while let Some(rel) = state.buf[start..].iter().position(|&b| b == b'\n') {
        let end = start + rel;
        let mut line_bytes = &state.buf[start..end];
        if line_bytes.last() == Some(&b'\r') {
            line_bytes = &line_bytes[..line_bytes.len() - 1];
        }
        let line = String::from_utf8_lossy(line_bytes);
        start = end + 1;
        match &mut state.body {
            Some(body) => {
                if line == "." {
                    let body = state.body.take().expect("assembly in progress");
                    frames.push(if body.over {
                        Frame::ProtoErr {
                            tag: body.tag,
                            msg: format!("body too large (limit={max_body} bytes)"),
                        }
                    } else {
                        Frame::Cmd {
                            tag: body.tag,
                            cmd: if body.batch {
                                Command::Batch {
                                    specs: Some(body.text),
                                }
                            } else {
                                Command::Load {
                                    program: Some(body.text),
                                }
                            },
                        }
                    });
                } else {
                    let line = line.strip_prefix('.').unwrap_or(&line);
                    if !body.over && body.text.len() + line.len() + 1 > max_body {
                        body.over = true;
                        body.text.clear();
                    }
                    if !body.over {
                        body.text.push_str(line);
                        body.text.push('\n');
                    }
                }
            }
            None => {
                if line.trim().is_empty() {
                    continue;
                }
                let (tag, rest) = match split_tag(&line) {
                    Ok((tag, rest)) => (tag.map(|t| t.to_string()), rest),
                    Err(e) => {
                        frames.push(Frame::ProtoErr { tag: None, msg: e });
                        continue;
                    }
                };
                match parse_command(rest) {
                    Ok(Command::Load { program: None }) => {
                        state.body = Some(BodyAssembly {
                            tag,
                            batch: false,
                            text: String::new(),
                            over: false,
                        });
                    }
                    Ok(Command::Batch { specs: None }) => {
                        state.body = Some(BodyAssembly {
                            tag,
                            batch: true,
                            text: String::new(),
                            over: false,
                        });
                    }
                    Ok(cmd) => frames.push(Frame::Cmd { tag, cmd }),
                    Err(e) => frames.push(Frame::ProtoErr { tag, msg: e }),
                }
            }
        }
    }
    state.buf.drain(..start);
    if state.buf.len() > max_line {
        state.buf.clear();
        state.eof = true;
        return Err(format!("request line too long (limit={max_line} bytes)"));
    }
    Ok(())
}

/// Drains readable bytes into the connection's buffer. Returns bytes read
/// this pass; sets `eof` on a half-close.
fn read_into(conn: &Conn, rs: &mut ReadState) -> io::Result<usize> {
    let mut chunk = [0u8; 4096];
    let mut total = 0usize;
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                rs.eof = true;
                break;
            }
            Ok(n) => {
                rs.buf.extend_from_slice(&chunk[..n]);
                total += n;
                // Fairness valve: one greedy connection cannot starve the
                // rest of the pass.
                if total >= 1 << 20 {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// An over-admission connection draining its `ERR busy` non-blockingly.
struct Reject {
    stream: TcpStream,
    out: Vec<u8>,
    pos: usize,
    deadline: Instant,
}

/// Attempts each pending rejection write without blocking; drops finished,
/// dead, or expired ones.
fn service_rejects(rejects: &mut Vec<Reject>, now: Instant) {
    rejects.retain_mut(|r| {
        if now >= r.deadline {
            return false;
        }
        loop {
            match (&r.stream).write(&r.out[r.pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    r.pos += n;
                    if r.pos >= r.out.len() {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    });
}

/// Runs the reactor until a client sends `SHUTDOWN`. Spawns and joins the
/// worker pool; returns once every worker has drained.
pub(crate) fn run(engine: Arc<Engine>, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers = engine.cfg.workers.max(1);
    let (tx, rx) = mpsc::channel::<Arc<Conn>>();
    let rx = Arc::new(Mutex::new(rx));
    let pool: Vec<_> = (0..workers)
        .map(|_| worker::spawn(Arc::clone(&engine), Arc::clone(&rx), Arc::clone(&shutdown)))
        .collect();
    let max_sessions = engine.cfg.max_sessions.max(1);
    let mut conns: Vec<(Arc<Conn>, ReadState)> = Vec::new();
    let mut rejects: Vec<Reject> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        let mut progressed = false;
        // Admission: accept everything ready, register up to the session
        // limit, queue the rest for a non-blocking `ERR busy`.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    if stream.set_nonblocking(true).is_err()
                        || super::set_socket_options(&stream).is_err()
                    {
                        continue;
                    }
                    if conns.len() >= max_sessions {
                        engine.stats.rejected_conns.fetch_add(1, Ordering::Relaxed);
                        let mut out = Vec::new();
                        let _ = Response::err(
                            "busy",
                            format!("all {max_sessions} sessions in use, try again"),
                        )
                        .write_to(&mut out);
                        rejects.push(Reject {
                            stream,
                            out,
                            pos: 0,
                            deadline: Instant::now() + REJECT_DEADLINE,
                        });
                        continue;
                    }
                    engine.stats.open_conns.fetch_add(1, Ordering::Relaxed);
                    let conn = Arc::new(Conn::new(stream, engine.open_session()));
                    push_response(&conn, None, &Response::ok("cqa-engine ready"));
                    let _ = conn.flush_io(&engine.stats);
                    conns.push((conn, ReadState::new()));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let now = Instant::now();
        for (conn, rs) in conns.iter_mut() {
            if conn.is_dead() {
                continue;
            }
            // Read and frame.
            if !rs.eof {
                match read_into(conn, rs) {
                    Ok(n) if n > 0 => {
                        progressed = true;
                        rs.last_activity = now;
                    }
                    Ok(_) => {}
                    Err(_) => {
                        conn.kill();
                        continue;
                    }
                }
            }
            let mut frames = Vec::new();
            if let Err(msg) = assemble(rs, engine.cfg.max_body_bytes, &mut frames) {
                frames.push(Frame::ProtoErr { tag: None, msg });
                conn.lock_io().close_after_flush = true;
            }
            if !frames.is_empty() {
                progressed = true;
                let mut p = conn.lock_pending();
                p.queue.extend(frames);
                if !p.in_flight {
                    p.in_flight = true;
                    drop(p);
                    let _ = tx.send(Arc::clone(conn));
                }
            }
            // Flush, and turn a long write stall into a counted drop.
            match conn.flush_io(&engine.stats) {
                Ok(true) => {
                    if conn.lock_io().close_after_flush {
                        conn.kill();
                        continue;
                    }
                }
                Ok(false) => {
                    let stalled = conn.lock_io().stalled_since;
                    if let Some(t) = stalled {
                        if now.duration_since(t) >= engine.cfg.write_timeout {
                            engine.stats.write_errors.fetch_add(1, Ordering::Relaxed);
                            conn.kill();
                            continue;
                        }
                    }
                }
                Err(_) => {
                    engine.stats.write_errors.fetch_add(1, Ordering::Relaxed);
                    conn.kill();
                    continue;
                }
            }
            // EOF and idle reaping — only once nothing is queued, running,
            // or buffered for this connection.
            let queue_idle = {
                let p = conn.lock_pending();
                p.queue.is_empty() && !p.in_flight
            };
            let out_empty = {
                let io = conn.lock_io();
                io.pos >= io.out.len()
            };
            if queue_idle
                && out_empty
                && rs.body.is_none()
                && (rs.eof || now.duration_since(rs.last_activity) >= engine.cfg.idle_timeout)
            {
                conn.kill();
            } else if rs.eof && queue_idle && rs.body.is_some() {
                // Half-closed mid-body: no terminator can arrive.
                conn.kill();
            }
        }
        let before = conns.len();
        conns.retain(|(conn, _)| {
            if conn.is_dead() {
                engine.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
                let _ = conn.stream.shutdown(Shutdown::Both);
                false
            } else {
                true
            }
        });
        progressed |= conns.len() != before || !rejects.is_empty();
        service_rejects(&mut rejects, now);
        if !progressed {
            thread::sleep(IDLE_TICK);
        }
    }
    // Drain: give in-flight commands and buffered responses (the SHUTDOWN
    // acknowledgement included) a bounded window to finish.
    let deadline = Instant::now() + DRAIN_DEADLINE;
    loop {
        let mut all_idle = true;
        for (conn, _) in &conns {
            if conn.is_dead() {
                continue;
            }
            let busy = {
                let p = conn.lock_pending();
                !p.queue.is_empty() || p.in_flight
            };
            let flushed = matches!(conn.flush_io(&engine.stats), Ok(true));
            if busy || !flushed {
                all_idle = false;
            }
        }
        if all_idle || Instant::now() >= deadline {
            break;
        }
        thread::sleep(IDLE_TICK);
    }
    for (conn, _) in &conns {
        engine.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    drop(tx);
    for h in pool {
        let _ = h.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cut(input: &[u8], max_body: usize) -> (Vec<Frame>, Result<(), String>, ReadState) {
        let mut rs = ReadState::new();
        rs.buf.extend_from_slice(input);
        let mut frames = Vec::new();
        let r = assemble(&mut rs, max_body, &mut frames);
        (frames, r, rs)
    }

    #[test]
    fn cuts_simple_and_tagged_commands() {
        let (frames, r, rs) = cut(b"STATS\n@7 EXEC q\npartial", 1024);
        r.unwrap();
        assert_eq!(frames.len(), 2);
        assert!(
            matches!(
                &frames[0],
                Frame::Cmd {
                    tag: None,
                    cmd: Command::Stats
                }
            ),
            "untagged STATS"
        );
        match &frames[1] {
            Frame::Cmd {
                tag: Some(t),
                cmd: Command::Exec { name, .. },
            } => {
                assert_eq!(t, "7");
                assert_eq!(name, "q");
            }
            other => panic!("expected tagged EXEC, got {other:?}"),
        }
        assert_eq!(rs.buf, b"partial", "incomplete line stays buffered");
    }

    #[test]
    fn assembles_load_and_batch_bodies() {
        let (frames, r, _) = cut(
            b"LOAD\nrel S(y) := y > 0\n..dot\n.\nBATCH\nq 0.1\n.\n",
            1024,
        );
        r.unwrap();
        assert_eq!(frames.len(), 2);
        match &frames[0] {
            Frame::Cmd {
                cmd: Command::Load { program: Some(p) },
                ..
            } => assert_eq!(p, "rel S(y) := y > 0\n.dot\n"),
            other => panic!("expected LOAD frame, got {other:?}"),
        }
        match &frames[1] {
            Frame::Cmd {
                cmd: Command::Batch { specs: Some(s) },
                ..
            } => assert_eq!(s, "q 0.1\n"),
            other => panic!("expected BATCH frame, got {other:?}"),
        }
    }

    /// The first `.` of a body line is stripped (RFC 5321 §4.5.2), so `.x`
    /// is `x` and `..x` is `.x`; only a lone `.` ends the body, and a CRLF
    /// line arrives without its `\r`.
    #[test]
    fn body_lines_lose_one_leading_dot_and_their_cr() {
        let (frames, r, rs) = cut(b"LOAD\r\n.x\r\n..x\nx.\r\n.\r\nSTATS\n", 1024);
        r.unwrap();
        assert!(rs.body.is_none(), "the lone dot ended the body");
        match &frames[..] {
            [Frame::Cmd {
                cmd: Command::Load { program: Some(p) },
                ..
            }, Frame::Cmd {
                cmd: Command::Stats,
                ..
            }] => assert_eq!(p, "x\n.x\nx.\n"),
            other => panic!("expected LOAD then STATS, got {other:?}"),
        }
    }

    #[test]
    fn body_cap_admits_a_body_of_exactly_max_body_bytes() {
        // "abc\n" is exactly 4 bytes: a cap of 4 accepts it, 3 rejects it.
        let (frames, r, _) = cut(b"LOAD\nabc\n.\n", 4);
        r.unwrap();
        assert!(
            matches!(&frames[..], [Frame::Cmd { cmd: Command::Load { program: Some(p) }, .. }] if p == "abc\n"),
            "{frames:?}"
        );
        let (frames, r, _) = cut(b"LOAD\nabc\n.\n", 3);
        r.unwrap();
        assert!(
            matches!(&frames[..], [Frame::ProtoErr { msg, .. }] if msg == "body too large (limit=3 bytes)"),
            "{frames:?}"
        );
    }

    #[test]
    fn split_body_arrives_across_reads() {
        let mut rs = ReadState::new();
        let mut frames = Vec::new();
        rs.buf.extend_from_slice(b"LOAD\nrel S(y)");
        assemble(&mut rs, 1024, &mut frames).unwrap();
        assert!(frames.is_empty());
        rs.buf.extend_from_slice(b" := y > 0\n.\nSTATS\n");
        assemble(&mut rs, 1024, &mut frames).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(matches!(
            &frames[0],
            Frame::Cmd {
                cmd: Command::Load { program: Some(_) },
                ..
            }
        ));
        assert!(matches!(
            &frames[1],
            Frame::Cmd {
                cmd: Command::Stats,
                ..
            }
        ));
    }

    #[test]
    fn oversized_body_yields_proto_err_and_keeps_framing() {
        let (frames, r, _) = cut(b"@t LOAD\n0123456789abcdef\n.\nSTATS\n", 8);
        r.unwrap();
        assert_eq!(frames.len(), 2);
        match &frames[0] {
            Frame::ProtoErr { tag: Some(t), msg } => {
                assert_eq!(t, "t");
                assert!(msg.contains("body too large"), "{msg}");
            }
            other => panic!("expected ProtoErr, got {other:?}"),
        }
        assert!(
            matches!(
                &frames[1],
                Frame::Cmd {
                    cmd: Command::Stats,
                    ..
                }
            ),
            "the next pipelined command still parses"
        );
    }

    #[test]
    fn unparsable_line_becomes_in_slot_proto_err() {
        let (frames, r, _) = cut(b"@a FROB\n@b STATS\n", 1024);
        r.unwrap();
        assert_eq!(frames.len(), 2);
        assert!(matches!(&frames[0], Frame::ProtoErr { tag: Some(t), .. } if t == "a"));
        assert!(matches!(&frames[1], Frame::Cmd { tag: Some(t), .. } if t == "b"));
    }

    #[test]
    fn runaway_line_is_fatal() {
        let mut rs = ReadState::new();
        rs.buf = vec![b'x'; (64 << 10) + 2048];
        let mut frames = Vec::new();
        let err = assemble(&mut rs, 1024, &mut frames).unwrap_err();
        assert!(err.contains("line too long"), "{err}");
        assert!(rs.eof, "connection stops reading after framing damage");
        assert!(rs.buf.is_empty());
    }
}
