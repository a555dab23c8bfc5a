//! The wire protocol: newline-delimited text, hand-rolled, std-only.
//!
//! ### Grammar
//!
//! ```text
//! request   := ["@" tag SP] command-line NL [body]
//! command   := "LOAD" [SP inline-stmt]          ; no inline ⇒ body follows
//!            | "PREPARE" SP name SP formula
//!            | "EXEC" SP name [SP eps [SP delta]]
//!            | "BATCH"                          ; body of EXEC specs follows
//!            | "VOLUME" SP formula
//!            | "SUM" SP name
//!            | "PERSIST" SP name                ; attach to a durable database
//!            | "STATS" | "CLOSE" | "SHUTDOWN"
//! body      := { line NL } "." NL               ; dot-stuffed like SMTP
//!
//! response  := ["@" tag SP] header NL { payload NL } "." NL
//! header    := "OK" [SP info] | "ERR" SP code [SP info]
//! ```
//!
//! A body (or payload) line that itself starts with `.` is escaped by
//! doubling the dot; a lone `.` terminates the block. Responses always end
//! with the `.` terminator so clients can stream without knowing payload
//! sizes in advance.
//!
//! ### Pipelining
//!
//! A client may send many requests without waiting for responses; the
//! server executes each connection's commands strictly in order and writes
//! the responses in the same order. An optional `@tag` prefix (any
//! whitespace-free token) is echoed back verbatim on the response header,
//! so a pipelining client can pair responses positionally *and* by tag.
//! `BATCH` amortizes one round trip over many prepared executions: its
//! dot-terminated body holds one `name [eps [delta]]` spec per line, and
//! the single response carries one payload line per spec (each inner
//! EXEC's header), with the `OK BATCH n=<specs> errors=<failures>` header
//! summarizing the run.

use std::io::{self, BufRead, Write};

/// The command kinds, used to index per-command latency histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommandKind {
    /// `LOAD` — merge a `.cqa` program into the session database.
    Load,
    /// `PREPARE` — name a query for repeated execution.
    Prepare,
    /// `EXEC` — run a prepared query (cached QE).
    Exec,
    /// `BATCH` — run many prepared queries from one dot-terminated body.
    Batch,
    /// `VOLUME` — one-shot volume of an ad-hoc formula.
    Volume,
    /// `SUM` — evaluate a loaded Σ-term.
    Sum,
    /// `PERSIST` — attach the session to a named durable database
    /// (replayed from snapshot+WAL; subsequent `LOAD`s are logged).
    Persist,
    /// `STATS` — service and cache counters.
    Stats,
    /// `CLOSE` — end the session.
    Close,
    /// `SHUTDOWN` — stop the whole server (drains workers).
    Shutdown,
}

/// Number of command kinds (histogram array size).
pub const N_COMMAND_KINDS: usize = 10;

impl CommandKind {
    /// Stable index into the latency histogram array.
    pub fn index(self) -> usize {
        match self {
            CommandKind::Load => 0,
            CommandKind::Prepare => 1,
            CommandKind::Exec => 2,
            CommandKind::Volume => 3,
            CommandKind::Sum => 4,
            CommandKind::Persist => 5,
            CommandKind::Stats => 6,
            CommandKind::Close => 7,
            CommandKind::Shutdown => 8,
            CommandKind::Batch => 9,
        }
    }

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            CommandKind::Load => "LOAD",
            CommandKind::Prepare => "PREPARE",
            CommandKind::Exec => "EXEC",
            CommandKind::Volume => "VOLUME",
            CommandKind::Sum => "SUM",
            CommandKind::Persist => "PERSIST",
            CommandKind::Stats => "STATS",
            CommandKind::Close => "CLOSE",
            CommandKind::Shutdown => "SHUTDOWN",
            CommandKind::Batch => "BATCH",
        }
    }
}

/// A parsed request. `Load.program` is `None` when a dot-terminated body
/// follows the command line (the connection layer reads it and fills the
/// program in before dispatch).
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `LOAD [inline-stmt]`.
    Load {
        /// The program text; `None` until the body has been read.
        program: Option<String>,
    },
    /// `PREPARE name formula`.
    Prepare {
        /// Prepared-query name.
        name: String,
        /// Formula source text.
        query: String,
    },
    /// `EXEC name [eps [delta]]`.
    Exec {
        /// Prepared-query name.
        name: String,
        /// Override for the degraded-path ε.
        eps: Option<f64>,
        /// Override for the degraded-path δ.
        delta: Option<f64>,
    },
    /// `BATCH` — body of `name [eps [delta]]` spec lines.
    Batch {
        /// The spec text; `None` until the body has been read.
        specs: Option<String>,
    },
    /// `VOLUME formula`.
    Volume {
        /// Formula source text.
        query: String,
    },
    /// `SUM name`.
    Sum {
        /// Name of a loaded `sum` statement.
        name: String,
    },
    /// `PERSIST name`.
    Persist {
        /// Durable database name.
        name: String,
    },
    /// `STATS`.
    Stats,
    /// `CLOSE`.
    Close,
    /// `SHUTDOWN`.
    Shutdown,
}

impl Command {
    /// The command's kind (histogram index / wire name).
    pub fn kind(&self) -> CommandKind {
        match self {
            Command::Load { .. } => CommandKind::Load,
            Command::Prepare { .. } => CommandKind::Prepare,
            Command::Exec { .. } => CommandKind::Exec,
            Command::Batch { .. } => CommandKind::Batch,
            Command::Volume { .. } => CommandKind::Volume,
            Command::Sum { .. } => CommandKind::Sum,
            Command::Persist { .. } => CommandKind::Persist,
            Command::Stats => CommandKind::Stats,
            Command::Close => CommandKind::Close,
            Command::Shutdown => CommandKind::Shutdown,
        }
    }
}

fn ident_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c == '_'
                || if i == 0 {
                    c.is_ascii_alphabetic()
                } else {
                    c.is_ascii_alphanumeric()
                }
        })
}

/// Splits an optional `@tag` prefix off a request line. The tag is any
/// non-empty whitespace-free token after `@`; it is echoed back verbatim
/// on the response header so pipelining clients can pair responses by tag
/// as well as by position.
pub fn split_tag(line: &str) -> Result<(Option<&str>, &str), String> {
    let line = line.trim_start();
    let Some(tagged) = line.strip_prefix('@') else {
        return Ok((None, line));
    };
    let (tag, rest) = match tagged.find(char::is_whitespace) {
        Some(i) => (&tagged[..i], tagged[i..].trim_start()),
        None => (tagged, ""),
    };
    if tag.is_empty() {
        return Err("request tag after `@` must be non-empty".into());
    }
    Ok((Some(tag), rest))
}

/// Parses one `name [eps [delta]]` execution spec — the argument form
/// shared by the `EXEC` command line and each `BATCH` body line. `verb`
/// labels error messages.
pub(crate) fn parse_exec_args(
    verb: &str,
    rest: &str,
) -> Result<(String, Option<f64>, Option<f64>), String> {
    let mut parts = rest.split_whitespace();
    let name = parts.next().unwrap_or("");
    if !ident_ok(name) {
        return Err(format!("{verb} needs an identifier name, got `{name}`"));
    }
    let parse_f64 = |tok: Option<&str>, what: &str| -> Result<Option<f64>, String> {
        match tok {
            None => Ok(None),
            Some(t) => t
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("{verb} {what} must be numeric, got `{t}`")),
        }
    };
    let eps = parse_f64(parts.next(), "eps")?;
    let delta = parse_f64(parts.next(), "delta")?;
    if parts.next().is_some() {
        return Err(format!("{verb} takes at most `name eps delta`"));
    }
    Ok((name.to_string(), eps, delta))
}

/// Parses one request line (tag already split off). Errors are
/// human-readable and become `ERR proto …` responses.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    let (verb, rest) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim_start()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "LOAD" => Ok(Command::Load {
            program: if rest.is_empty() {
                None
            } else {
                Some(rest.to_string())
            },
        }),
        "PREPARE" => {
            let (name, query) = match rest.find(char::is_whitespace) {
                Some(i) => (&rest[..i], rest[i..].trim_start()),
                None => (rest, ""),
            };
            if !ident_ok(name) {
                return Err(format!("PREPARE needs an identifier name, got `{name}`"));
            }
            if query.is_empty() {
                return Err("PREPARE needs a formula after the name".into());
            }
            Ok(Command::Prepare {
                name: name.to_string(),
                query: query.to_string(),
            })
        }
        "EXEC" => {
            let (name, eps, delta) = parse_exec_args("EXEC", rest)?;
            Ok(Command::Exec { name, eps, delta })
        }
        "BATCH" => {
            if !rest.is_empty() {
                return Err("BATCH takes no arguments; specs follow as a `.`-terminated body".into());
            }
            Ok(Command::Batch { specs: None })
        }
        "VOLUME" => {
            if rest.is_empty() {
                return Err("VOLUME needs a formula".into());
            }
            Ok(Command::Volume {
                query: rest.to_string(),
            })
        }
        "SUM" => {
            if !ident_ok(rest) {
                return Err(format!("SUM needs an identifier name, got `{rest}`"));
            }
            Ok(Command::Sum {
                name: rest.to_string(),
            })
        }
        "PERSIST" => {
            if !ident_ok(rest) {
                return Err(format!("PERSIST needs an identifier name, got `{rest}`"));
            }
            Ok(Command::Persist {
                name: rest.to_string(),
            })
        }
        "STATS" => Ok(Command::Stats),
        "CLOSE" => Ok(Command::Close),
        "SHUTDOWN" => Ok(Command::Shutdown),
        other => Err(format!(
            "unknown command `{other}` (expected LOAD, PREPARE, EXEC, BATCH, VOLUME, SUM, PERSIST, STATS, CLOSE or SHUTDOWN)"
        )),
    }
}

/// A response: one header line plus zero or more payload lines, written
/// with the `.` terminator and dot-stuffing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// `OK …` or `ERR code …`.
    pub header: String,
    /// Payload lines (diagnostics, stats, transcripts).
    pub body: Vec<String>,
}

impl Response {
    /// An `OK` response with extra header info.
    pub fn ok(info: impl Into<String>) -> Response {
        let info = info.into();
        Response {
            header: if info.is_empty() {
                "OK".to_string()
            } else {
                format!("OK {info}")
            },
            body: Vec::new(),
        }
    }

    /// An `ERR <code> <msg>` response.
    pub fn err(code: &str, msg: impl Into<String>) -> Response {
        Response {
            header: format!("ERR {code} {}", msg.into()),
            body: Vec::new(),
        }
    }

    /// Appends payload lines (splitting on embedded newlines).
    #[must_use]
    pub fn with_body(mut self, text: &str) -> Response {
        self.body.extend(text.lines().map(|l| l.to_string()));
        self
    }

    /// `true` iff the header starts with `OK`.
    pub fn is_ok(&self) -> bool {
        self.header.starts_with("OK")
    }

    /// Serializes to the wire: header, dot-stuffed payload, `.` line.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "{}", self.header)?;
        for line in &self.body {
            if line.starts_with('.') {
                writeln!(w, ".{line}")?;
            } else {
                writeln!(w, "{line}")?;
            }
        }
        writeln!(w, ".")?;
        w.flush()
    }
}

/// Reads one dot-terminated response from `r` (client side): returns the
/// header line and un-stuffed payload lines. `Ok(None)` on clean EOF
/// before a header.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Option<Response>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let header = header.trim_end_matches(['\n', '\r']).to_string();
    let mut body = Vec::new();
    loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        let line = line.trim_end_matches(['\n', '\r']);
        if line == "." {
            break;
        }
        let unstuffed = line.strip_prefix('.').filter(|_| line.starts_with(".."));
        match unstuffed {
            Some(s) => body.push(s.to_string()),
            None => body.push(line.to_string()),
        }
    }
    Ok(Some(Response { header, body }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_command("LOAD").unwrap(),
            Command::Load { program: None }
        );
        assert!(matches!(
            parse_command("LOAD rel S(y) := y > 0").unwrap(),
            Command::Load { program: Some(p) } if p.starts_with("rel")
        ));
        assert!(matches!(
            parse_command("PREPARE q exists y. x < y").unwrap(),
            Command::Prepare { name, .. } if name == "q"
        ));
        assert_eq!(
            parse_command("EXEC q 0.1 0.01").unwrap(),
            Command::Exec {
                name: "q".into(),
                eps: Some(0.1),
                delta: Some(0.01)
            }
        );
        assert!(matches!(
            parse_command("volume x < 1").unwrap(),
            Command::Volume { .. }
        ));
        assert!(matches!(
            parse_command("SUM t").unwrap(),
            Command::Sum { .. }
        ));
        assert!(matches!(
            parse_command("PERSIST main").unwrap(),
            Command::Persist { name } if name == "main"
        ));
        assert_eq!(parse_command("STATS").unwrap(), Command::Stats);
        assert_eq!(parse_command("CLOSE").unwrap(), Command::Close);
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
        assert_eq!(
            parse_command("BATCH").unwrap(),
            Command::Batch { specs: None }
        );
    }

    #[test]
    fn rejects_malformed_commands() {
        assert!(parse_command("FROB").is_err());
        assert!(parse_command("PREPARE 1bad x < 1").is_err());
        assert!(parse_command("PREPARE q").is_err());
        assert!(parse_command("EXEC q nope").is_err());
        assert!(parse_command("EXEC q 0.1 0.1 0.1").is_err());
        assert!(parse_command("SUM").is_err());
        assert!(parse_command("PERSIST").is_err());
        assert!(parse_command("PERSIST 1bad").is_err());
        assert!(parse_command("BATCH q").is_err(), "specs go in the body");
    }

    #[test]
    fn splits_request_tags() {
        assert_eq!(split_tag("EXEC q").unwrap(), (None, "EXEC q"));
        assert_eq!(split_tag("@7 EXEC q").unwrap(), (Some("7"), "EXEC q"));
        assert_eq!(split_tag("@a-b STATS").unwrap(), (Some("a-b"), "STATS"));
        assert_eq!(split_tag("@t").unwrap(), (Some("t"), ""));
        assert!(split_tag("@ EXEC q").is_err(), "empty tag rejected");
    }

    #[test]
    fn kind_indices_are_a_bijection() {
        let kinds = [
            CommandKind::Load,
            CommandKind::Prepare,
            CommandKind::Exec,
            CommandKind::Volume,
            CommandKind::Sum,
            CommandKind::Persist,
            CommandKind::Stats,
            CommandKind::Close,
            CommandKind::Shutdown,
            CommandKind::Batch,
        ];
        let mut seen = [false; N_COMMAND_KINDS];
        for k in kinds {
            assert!(!seen[k.index()], "duplicate index for {}", k.name());
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn response_roundtrip_with_dot_stuffing() {
        let resp = Response::ok("EXEC q status=exact value=1/2")
            .with_body("line one\n.starts with dot\nline three");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let mut r = BufReader::new(&wire[..]);
        let back = read_response(&mut r).unwrap().unwrap();
        assert_eq!(back, resp);
        assert!(back.is_ok());
    }

    #[test]
    fn eof_handling() {
        let mut r = BufReader::new(&b""[..]);
        assert!(read_response(&mut r).unwrap().is_none());
        let mut r = BufReader::new(&b"OK\n"[..]);
        assert!(read_response(&mut r).is_err());
    }
}
