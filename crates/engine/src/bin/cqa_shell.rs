//! `cqa-shell` — line-oriented client for `cqa-serve`.
//!
//! ```text
//! cqa-shell HOST:PORT
//! ```
//!
//! Reads protocol commands from stdin, forwards them, and prints each
//! response (header plus payload lines). Suitable both interactively and
//! piped (the CI smoke test drives it with a heredoc). Conveniences:
//!
//! * after a bare `LOAD` or `BATCH` (with or without a leading `@tag`),
//!   stdin lines up to a lone `.` are forwarded as the dot-stuffed body,
//!   exactly as the protocol expects;
//! * `.load FILE` (client-side command) sends `LOAD` with the contents of
//!   `FILE` as the body, so programs don't have to be pasted.
//!
//! Exits 0 when the server closes the conversation cleanly (`CLOSE`,
//! `SHUTDOWN`, or stdin EOF), 1 on connection errors.

use cqa_engine::read_response;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;

fn print_response(resp: &cqa_engine::Response) {
    println!("{}", resp.header);
    for line in &resp.body {
        println!("{line}");
    }
}

fn run(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    // The client half of the server's TCP_NODELAY: nothing we write waits
    // for the server's delayed ACK.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let greeting = read_response(&mut reader)
        .map_err(|e| e.to_string())?
        .ok_or("server closed the connection before greeting")?;
    print_response(&greeting);

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    while let Some(line) = lines.next() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(path) = trimmed.strip_prefix(".load ") {
            let src = std::fs::read_to_string(path.trim())
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            writeln!(writer, "LOAD").map_err(|e| e.to_string())?;
            for l in src.lines() {
                let stuffed = if l.starts_with('.') {
                    format!(".{l}")
                } else {
                    l.to_string()
                };
                writeln!(writer, "{stuffed}").map_err(|e| e.to_string())?;
            }
            writeln!(writer, ".").map_err(|e| e.to_string())?;
        } else {
            writeln!(writer, "{line}").map_err(|e| e.to_string())?;
            // The command verb, skipping a `@tag` prefix if present.
            let mut words = trimmed.split_whitespace();
            let mut verb = words.next().unwrap_or("");
            if verb.starts_with('@') {
                verb = words.next().unwrap_or("");
            }
            let bare = words.next().is_none();
            if bare && (verb.eq_ignore_ascii_case("LOAD") || verb.eq_ignore_ascii_case("BATCH")) {
                // Bare LOAD/BATCH: forward the dot-terminated body
                // verbatim.
                for body_line in lines.by_ref() {
                    let body_line = body_line.map_err(|e| e.to_string())?;
                    writeln!(writer, "{body_line}").map_err(|e| e.to_string())?;
                    if body_line.trim_end() == "." {
                        break;
                    }
                }
            }
        }
        writer.flush().map_err(|e| e.to_string())?;
        match read_response(&mut reader).map_err(|e| e.to_string())? {
            Some(resp) => {
                print_response(&resp);
                let mut words = trimmed.split_whitespace();
                let mut verb = words.next().unwrap_or("");
                if verb.starts_with('@') {
                    verb = words.next().unwrap_or("");
                }
                if verb.eq_ignore_ascii_case("CLOSE") || verb.eq_ignore_ascii_case("SHUTDOWN") {
                    return Ok(());
                }
            }
            None => return Err("server closed the connection".into()),
        }
    }
    // stdin exhausted: end the session politely.
    writeln!(writer, "CLOSE").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    if let Some(resp) = read_response(&mut reader).map_err(|e| e.to_string())? {
        print_response(&resp);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [addr] = args.as_slice() else {
        eprintln!("usage: cqa-shell HOST:PORT");
        return ExitCode::from(2);
    };
    match run(addr) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cqa-shell: {e}");
            ExitCode::FAILURE
        }
    }
}
