//! Typed errors for the approximation layer.

use cqa_logic::budget::BudgetExceeded;
use cqa_qe::QeError;

/// Errors from approximate evaluation (Monte Carlo estimation, Löwner–John
/// bounds, sample-size computation).
#[derive(Debug, Clone, PartialEq)]
pub enum ApproxError {
    /// Quantifier elimination / kernel compilation failed while preparing
    /// the query matrix.
    Qe(QeError),
    /// The evaluation budget was exhausted mid-estimation (see
    /// [`cqa_logic::budget`]).
    Budget(BudgetExceeded),
    /// A parallel work item (a lane range of a sweep) panicked; the panic
    /// was contained (the process and sibling items survive) and surfaced
    /// here.
    WorkerPanicked {
        /// Index of the failed item (the lowest, if several failed).
        chunk: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A parameter vector's length disagrees with the estimator's
    /// parameter count.
    ParamArity {
        /// Parameters the estimator was built with.
        expected: usize,
        /// Parameters supplied.
        got: usize,
    },
    /// A numeric parameter was out of its valid range (e.g. ε ∉ (0, 1)).
    InvalidParameter(String),
}

impl std::fmt::Display for ApproxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApproxError::Qe(e) => write!(f, "quantifier elimination failed: {e}"),
            ApproxError::Budget(b) => write!(f, "{b}"),
            ApproxError::WorkerPanicked { chunk, message } => {
                write!(f, "worker panicked on chunk {chunk}: {message}")
            }
            ApproxError::ParamArity { expected, got } => {
                write!(f, "expected {expected} parameters, got {got}")
            }
            ApproxError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}
impl std::error::Error for ApproxError {}

impl From<QeError> for ApproxError {
    fn from(e: QeError) -> ApproxError {
        // Budget trips inside QE surface as the approx-level budget variant
        // so callers match on one place.
        match e {
            QeError::Budget(b) => ApproxError::Budget(b),
            other => ApproxError::Qe(other),
        }
    }
}

impl From<BudgetExceeded> for ApproxError {
    fn from(b: BudgetExceeded) -> ApproxError {
        ApproxError::Budget(b)
    }
}
