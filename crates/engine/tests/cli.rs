//! The `cqa-serve` binary's startup gate: what it refuses never gets as far
//! as `LISTENING`. And the stack its request threads get: not the one the
//! environment asks for.

use cqa_engine::read_response;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Runs `cqa-serve <args>` from the repository root up to its first stdout
/// line. A server that gets as far as `LISTENING` is killed, so a test that
/// expects a refusal fails instead of hanging. Returns (exit code, first
/// stdout line, stderr). stderr is drained only afterwards: the refusals
/// tested here write a few KB, far below a pipe buffer.
fn start(args: &str) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cqa-serve"))
        .args(args.split(' '))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    let stdout = child.stdout.take().unwrap();
    BufReader::new(stdout).read_line(&mut first).unwrap();
    if first.starts_with("LISTENING") {
        child.kill().unwrap();
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), first, stderr)
}

#[test]
fn preload_the_analyzer_rejects_or_cannot_read_never_listens() {
    for (file, why) in [
        ("examples/lint/broken.cqa", "rejected by the analyzer"),
        ("/nonexistent.cqa", "cannot read /nonexistent.cqa"),
    ] {
        let (code, stdout, stderr) = start(&format!("--preload {file}"));
        assert_ne!(code, Some(0), "{file}");
        assert_eq!(stdout, "", "{file}");
        assert!(stderr.contains(why), "{file}: {stderr}");
    }
}

#[test]
fn bad_numeric_flags_exit_2_naming_the_flag() {
    for case in [
        "--eps 2",
        "--delta 0",
        "--eps nan",
        "--workers 2.9",
        "--timeout-ms -1",
        "--max-body-bytes -5",
        // In range, but past the sample cap with the other default.
        "--eps 0.0001",
        "--delta 1e-300 --eps 0.0005",
    ] {
        let (code, stdout, stderr) = start(case);
        assert_eq!((code, stdout.as_str()), (Some(2), ""), "{case}: {stderr}");
        let flag = case.split(' ').next().unwrap();
        assert!(stderr.contains(flag), "{stderr}");
    }
    // Valid values, with a program the analyzer accepts, still start.
    let (_, stdout, stderr) =
        start("--eps 0.05 --delta 0.05 --workers 2 --preload examples/lint/endpoints.cqa");
    assert!(stdout.starts_with("LISTENING "), "{stderr}");
}

/// Kills the server if a test fails before `SHUTDOWN` is answered.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_query_inside_the_nesting_cap_answers_whatever_rust_min_stack_says() {
    // 64 KiB is what `RUST_MIN_STACK` gives every thread spawned without an
    // explicit size; 127 parentheses need ≈ 1.1 MiB of it unoptimised.
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_cqa-serve"))
            .args(["--workers", "2"])
            .env("RUST_MIN_STACK", "65536")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut first = String::new();
    BufReader::new(server.0.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    let addr = first.trim().strip_prefix("LISTENING ").expect(&first);
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let mut ask = |line: Option<&str>| {
        if let Some(line) = line {
            writeln!(conn, "{line}").unwrap();
        }
        read_response(&mut replies)
            .unwrap()
            .expect("a reply")
            .header
    };
    assert_eq!(ask(None), "OK cqa-engine ready");
    let depth = cqa_logic::MAX_NESTING - 1;
    let probe = format!("VOLUME {}x > 1/2{}", "(".repeat(depth), ")".repeat(depth));
    let reply = ask(Some(&probe));
    assert!(
        reply.starts_with("OK VOLUME - status=exact value=1/2 "),
        "{reply:?}"
    );
    let reply = ask(Some("VOLUME x > 1/2"));
    assert!(
        reply.starts_with("OK VOLUME - status=exact value=1/2 "),
        "{reply:?}"
    );
    ask(Some("SHUTDOWN"));
    assert!(server.0.wait().unwrap().success());
}
