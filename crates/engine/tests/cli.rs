//! The `cqa-serve` binary's startup gate: what it refuses never gets as far
//! as `LISTENING`.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

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
