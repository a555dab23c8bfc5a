//! `cqa-lint` — static checker for `.cqa` programs.
//!
//! ```text
//! cqa-lint [--eps E] [--delta D] [--db-size N] [--max-atoms A] [--max-quantifiers Q]
//!          [--timeout-ms MS] [--max-steps N] FILE...
//! cqa-lint --explain CQA0NN
//! ```
//!
//! Parses each file, runs the `cqa-analyze` passes (scope, fragment/schema,
//! Σ-discipline, cost/VC estimation), prints rustc-style diagnostics with
//! source excerpts, and summarizes each statement's fragment and predicted
//! approximation cost. Exits non-zero iff any file has errors.
//!
//! With `--timeout-ms` and/or `--max-steps` an additional **dynamic pass**
//! runs each statement through budget-governed quantifier elimination /
//! Σ-evaluation: statements that blow past the budget are reported with a
//! budget diagnostic (and a non-zero exit) instead of hanging the linter.

use cqa_analyze::{lint_file, AnalyzerConfig, Code, Program, Statement};
use cqa_logic::budget::EvalBudget;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: cqa-lint [--eps E] [--delta D] [--db-size N] \
         [--max-atoms A] [--max-quantifiers Q] \
         [--timeout-ms MS] [--max-steps N] FILE...\n\
         \x20      cqa-lint --explain CQA0NN"
    );
    std::process::exit(2);
}

/// `--explain CQA0NN`: prints the diagnostic catalog entry for one code,
/// or the whole catalog index when the code is unknown.
fn explain(code_str: &str) -> ExitCode {
    match Code::parse(code_str) {
        Some(code) => {
            println!("{}: {}", code.as_str(), code.title());
            println!("severity: {:?}", code.severity());
            println!();
            println!("{}", code.explain());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("cqa-lint: unknown diagnostic code `{code_str}`; known codes:");
            for c in Code::ALL {
                eprintln!("  {}  {}", c.as_str(), c.title());
            }
            std::process::exit(2);
        }
    }
}

/// Runs the budget-governed dynamic pass over every statement of `program`.
/// Returns `true` if any statement tripped the budget or failed to
/// evaluate. The budget is per statement, so one runaway query cannot
/// starve the diagnostics of the statements after it.
fn dynamic_pass(
    file: &str,
    program: &Program,
    timeout_ms: Option<u64>,
    max_steps: Option<u64>,
) -> bool {
    let db = match program.to_database() {
        Ok(db) => db,
        Err(e) => {
            eprintln!("{file}: dynamic pass skipped: {e}");
            return true;
        }
    };
    let fresh_budget = || {
        let mut b = EvalBudget::unlimited();
        if let Some(ms) = timeout_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = max_steps {
            b = b.with_max_steps(n);
        }
        b
    };
    // (note, is_budget_trip, message) — budget trips get the dedicated
    // diagnostic; other evaluation failures are reported as plain errors.
    let eliminate = |body: cqa_logic::Formula, budget: &EvalBudget| {
        let expanded = db.expand(&body).map_err(|e| (false, e.to_string()))?;
        cqa_qe::eliminate(&expanded, budget)
            .map(|_| "eliminates".to_string())
            .map_err(|e| (matches!(e, cqa_qe::QeError::Budget(_)), e.to_string()))
    };
    let mut any_tripped = false;
    for stmt in &program.statements {
        let budget = fresh_budget();
        let outcome: Result<String, (bool, String)> = match stmt {
            Statement::Rel(r) => eliminate(r.body.to_formula(), &budget),
            Statement::Query(q) => eliminate(q.body.to_formula(), &budget),
            Statement::Sum(s) => s
                .to_sum_term()
                .eval_with_budget(&db, &budget)
                .map(|v| format!("Σ = {v}"))
                .map_err(|e| (matches!(e, cqa_agg::AggError::Budget(_)), e.to_string())),
        };
        match outcome {
            Ok(note) => println!(
                "{file}: dynamic `{}`: {note} ({} budget steps)",
                stmt.name(),
                budget.steps()
            ),
            Err((tripped, msg)) => {
                let label = if tripped {
                    "budget diagnostic"
                } else {
                    "evaluation error"
                };
                println!(
                    "{file}: dynamic `{}`: {label}: {msg} (after {} budget steps)",
                    stmt.name(),
                    budget.steps()
                );
                any_tripped = true;
            }
        }
    }
    any_tripped
}

/// Exits 2, naming the flag, what it needs and the value it got.
fn bad_flag(flag: &str, what: &str, v: &str) -> ! {
    eprintln!("cqa-lint: {flag} needs {what}, got `{v}`");
    std::process::exit(2);
}

const INT: &str = "a non-negative integer";

/// A flag's value as `T`: integer flags refuse negative and fractional
/// values instead of truncating them; the budgets are `f64` (`inf` allowed).
fn parse<T: FromStr>(flag: &str, v: String, what: &str) -> T {
    v.parse().unwrap_or_else(|_| bad_flag(flag, what, &v))
}

/// `--eps` / `--delta`: refused unless in (0,1), where the sample bound is
/// defined.
fn prob(flag: &str, v: String) -> f64 {
    match v.parse::<f64>() {
        Ok(p) if p > 0.0 && p < 1.0 => p,
        _ => bad_flag(flag, "a number in (0,1)", &v),
    }
}

fn main() -> ExitCode {
    let mut cfg = AnalyzerConfig::default();
    let mut files: Vec<String> = Vec::new();
    let mut timeout_ms: Option<u64> = None;
    let mut max_steps: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("cqa-lint: {arg} needs an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--eps" => cfg.cost.eps = prob(&arg, value()),
            "--delta" => cfg.cost.delta = prob(&arg, value()),
            "--db-size" => cfg.cost.db_size = parse(&arg, value(), INT),
            "--max-atoms" => cfg.cost.budget.max_atoms = parse(&arg, value(), "a number"),
            "--max-quantifiers" => {
                cfg.cost.budget.max_quantifiers = parse(&arg, value(), "a number")
            }
            "--timeout-ms" => timeout_ms = Some(parse(&arg, value(), INT)),
            "--max-steps" => max_steps = Some(parse(&arg, value(), INT)),
            "--explain" => {
                let code = args.next().unwrap_or_else(|| {
                    eprintln!("cqa-lint: --explain needs a diagnostic code (e.g. CQA011)");
                    std::process::exit(2);
                });
                return explain(&code);
            }
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        usage();
    }
    let dynamic = timeout_ms.is_some() || max_steps.is_some();

    let mut any_errors = false;
    for file in &files {
        let linted = match lint_file(file, &cfg) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cqa-lint: {e}");
                any_errors = true;
                continue;
            }
        };
        let rendered = linted.diagnostics();
        if !rendered.is_empty() {
            println!("{rendered}");
        }
        println!("{}", linted.summary());
        any_errors |= linted.has_errors();
        if dynamic && !linted.has_errors() {
            any_errors |= dynamic_pass(file, &linted.program, timeout_ms, max_steps);
        }
    }
    if any_errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
