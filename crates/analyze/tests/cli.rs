//! The `cqa-lint` binary: the demo programs, the diagnostic catalog, and
//! flag parsing.

use std::process::{Command, Output};

/// Runs `cqa-lint <args>` from the repository root.
fn lint(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cqa-lint"))
        .args(args.split(' '))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .unwrap()
}

#[test]
fn demo_programs_and_the_catalog() {
    let clean = lint("--max-atoms inf --max-quantifiers inf examples/lint/endpoints.cqa");
    assert!(clean.status.success());
    assert!(!lint("examples/lint/broken.cqa").status.success());
    let explain = lint("--explain CQA011");
    assert!(explain.status.success());
    assert!(String::from_utf8_lossy(&explain.stdout).contains("statically"));
    assert!(!lint("--explain CQA999").status.success());
}

#[test]
fn bad_numeric_flags_exit_2_naming_the_flag() {
    for case in [
        "--eps 2",
        "--delta 0",
        "--db-size -5",
        "--timeout-ms 2.5",
        "--max-steps -1",
    ] {
        let out = lint(&format!("{case} examples/lint/endpoints.cqa"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(out.stdout.is_empty(), "{case}");
        let flag = case.split(' ').next().unwrap();
        assert!(stderr.contains(flag), "{stderr}");
    }
}
