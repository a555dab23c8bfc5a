//! Wire-level helpers: a query pool, a TCP client, request lines
//! dispatched in-process, header filters for comparing answers across
//! cache states, a scratch data directory, and FNV-1a for pinned digests.

use cqa_engine::{parse_command, read_response, Engine, Response, Session};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;

/// Named queries with exact answers and (ε, δ)-degraded Monte Carlo ones
/// (the MC path is seeded, so even degraded answers are bit-identical
/// across runs, threads and servers).
pub const QUERIES: &[(&str, &str)] = &[
    ("half", "0 <= x & x <= 1/2"),
    ("quarter", "0 <= x & x <= 1/4"),
    ("wedge", "exists y. (0 <= x & x <= y & y <= 1/3)"),
    ("band", "0 <= x & 0 <= y & x + y <= 1"),
    ("disk", "x*x + y*y <= 1"),
    ("bump", "y <= x*x & 0 <= y & 0 <= x & x <= 1"),
];

/// A client connection: requests go out through `w`, replies come back
/// through `r`.
pub struct Client {
    /// The reply side.
    pub r: BufReader<TcpStream>,
    /// The request side.
    pub w: BufWriter<TcpStream>,
}

impl Client {
    /// Connects and consumes the greeting, which must be `OK cqa-engine
    /// ready`.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        let r = BufReader::new(stream.try_clone().unwrap());
        let mut c = Client {
            r,
            w: BufWriter::new(stream),
        };
        let greeting = c.read();
        assert_eq!(greeting.header, "OK cqa-engine ready", "{greeting:?}");
        c
    }

    /// The next reply.
    pub fn read(&mut self) -> Response {
        read_response(&mut self.r).unwrap().expect("response")
    }

    /// Sends `line` and waits for its reply.
    pub fn send(&mut self, line: &str) -> Response {
        writeln!(self.w, "{line}").unwrap();
        self.w.flush().unwrap();
        self.read()
    }

    /// Sends `SHUTDOWN`, which must be acknowledged.
    pub fn shutdown(mut self) {
        let resp = self.send("SHUTDOWN");
        assert!(resp.is_ok(), "{resp:?}");
    }
}

/// The request `line` (no body) parsed and dispatched on `session`.
pub fn dispatch(engine: &Engine, session: &mut Session, line: &str) -> Response {
    engine.dispatch(session, parse_command(line).expect(line))
}

/// `name` under the system temporary directory, tagged with this process's
/// id, with whatever an earlier run left there removed.
pub fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cqa-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `header` without the tokens that depend on cache state and history:
/// `steps=` and `cache=`.
pub fn strip(header: &str) -> String {
    keep(header, |t| {
        !t.starts_with("steps=") && !t.starts_with("cache=")
    })
}

/// The tokens of `header` that define the answer: `status=`, `value=`,
/// `eps=`, `delta=`, `samples=` and `reason=`.
pub fn answer_part(header: &str) -> String {
    let answer = ["status=", "value=", "eps=", "delta=", "samples=", "reason="];
    keep(header, |t| answer.iter().any(|p| t.starts_with(p)))
}

fn keep(header: &str, f: impl Fn(&str) -> bool) -> String {
    let tokens: Vec<&str> = header.split_whitespace().filter(|t| f(t)).collect();
    tokens.join(" ")
}

/// FNV-1a, 64-bit, of `bytes`.
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, step)
}
