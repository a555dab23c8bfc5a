//! Cooperative evaluation budgets: deadlines, step limits, atom limits.
//!
//! Every exact evaluation path in this workspace — Fourier–Motzkin,
//! Loos–Weispfenning, Cohen–Hörmander, SAF enumeration, Σ-term evaluation —
//! is worst-case (doubly) exponential; the paper's Section 3 quantifies the
//! blow-up (≥10⁹ atoms for ε = 1/10). A production service cannot let one
//! query wedge a worker thread forever, so the hot recursive loops accept an
//! [`EvalBudget`] and call [`EvalBudget::check`] cooperatively: when the
//! budget is exhausted, evaluation unwinds with a typed [`BudgetExceeded`]
//! error instead of hanging or dying. Callers can then degrade gracefully —
//! e.g. fall back from exact volume to the Monte Carlo estimator with a
//! certified (ε, δ) bound (see `cqa_agg::volume_with_fallback`).
//!
//! `check()` is designed for inner loops: one relaxed atomic increment, and
//! the (comparatively expensive) monotonic-clock read only every
//! [`CLOCK_PERIOD`] steps. The budget only ever *aborts* work, never alters
//! it, so results are bit-identical with and without a budget whenever the
//! budget is not hit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many [`EvalBudget::check`] calls elapse between deadline probes.
/// Small enough that a 10 ms deadline trips promptly even in heavy
/// case-splitting loops, large enough that `Instant::now()` stays off the
/// hot path.
pub const CLOCK_PERIOD: u64 = 64;

/// Which budgeted resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cooperative step counter crossed `max_steps`.
    Steps,
    /// An intermediate formula grew past `max_atoms` atoms.
    Atoms,
    /// A recursion nested deeper than its fixed cap, which keeps it inside
    /// a request thread's stack (`REQUEST_STACK_BYTES`). Not a setting: the
    /// cap is a constant of the recursion that charges it.
    Depth,
}

/// Typed cancellation: the evaluation exceeded its [`EvalBudget`].
///
/// Carried through `QeError::Budget`, `SafetyError::Budget` and
/// `AggError::Budget` so any caller can distinguish "the query is wrong"
/// from "the query is too expensive" and react (retry bigger, degrade to an
/// approximation, shed load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The resource that ran out.
    pub resource: BudgetResource,
    /// Cooperative steps taken when the budget tripped.
    pub steps: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.resource {
            BudgetResource::Deadline => "deadline passed",
            BudgetResource::Steps => "step limit reached",
            BudgetResource::Atoms => "intermediate formula exceeded the atom limit",
            BudgetResource::Depth => "recursion exceeded the nesting limit",
        };
        write!(
            f,
            "evaluation budget exceeded after {} step(s): {what}",
            self.steps
        )
    }
}
impl std::error::Error for BudgetExceeded {}

/// A cooperative evaluation budget.
///
/// Construct with [`EvalBudget::unlimited`] and narrow with the builder
/// methods; thread `&EvalBudget` through evaluation. The step counter is
/// atomic, so one budget may be shared by the parallel Monte Carlo workers
/// and still observed coherently.
///
/// ```
/// use cqa_logic::budget::EvalBudget;
/// let b = EvalBudget::unlimited().with_max_steps(2);
/// assert!(b.check().is_ok());
/// assert!(b.check().is_ok());
/// assert!(b.check().is_err()); // third step crosses the limit
/// ```
#[derive(Debug)]
pub struct EvalBudget {
    deadline: Option<Instant>,
    max_steps: u64,
    max_atoms: u64,
    steps: AtomicU64,
}

impl Default for EvalBudget {
    fn default() -> EvalBudget {
        EvalBudget::unlimited()
    }
}

impl EvalBudget {
    /// A budget that never trips: what a caller with no limit passes.
    pub fn unlimited() -> EvalBudget {
        EvalBudget {
            deadline: None,
            max_steps: u64::MAX,
            max_atoms: u64::MAX,
            steps: AtomicU64::new(0),
        }
    }

    /// Trips once the wall clock passes `now + timeout`.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> EvalBudget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Trips once more than `max_steps` cooperative steps have been taken.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> EvalBudget {
        self.max_steps = max_steps;
        self
    }

    /// Trips when [`EvalBudget::check_atoms`] sees a formula with more than
    /// `max_atoms` atoms.
    #[must_use]
    pub fn with_max_atoms(mut self, max_atoms: u64) -> EvalBudget {
        self.max_atoms = max_atoms;
        self
    }

    /// Is every resource unlimited? (Lets wrappers skip bookkeeping.)
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_steps == u64::MAX && self.max_atoms == u64::MAX
    }

    /// Cooperative steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// One cooperative step: cheap enough for inner loops. Increments the
    /// shared step counter, checks the step limit, and probes the deadline
    /// every [`CLOCK_PERIOD`] steps (a coarse clock — cancellation latency
    /// is bounded by `CLOCK_PERIOD` steps, not by one).
    #[inline]
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        let steps = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if steps > self.max_steps {
            return Err(BudgetExceeded {
                resource: BudgetResource::Steps,
                steps,
            });
        }
        if steps % CLOCK_PERIOD == 1 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(BudgetExceeded {
                        resource: BudgetResource::Deadline,
                        steps,
                    });
                }
            }
        }
        Ok(())
    }

    /// Gate on the size of an intermediate formula: errors when `atoms`
    /// exceeds the configured `max_atoms`. Called at elimination-round
    /// granularity (the formula walk is O(size), so not per step).
    pub fn check_atoms(&self, atoms: u64) -> Result<(), BudgetExceeded> {
        if atoms > self.max_atoms {
            return Err(BudgetExceeded {
                resource: BudgetResource::Atoms,
                steps: self.steps(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = EvalBudget::unlimited();
        for _ in 0..10_000 {
            assert!(b.check().is_ok());
        }
        assert!(b.check_atoms(u64::MAX - 1).is_ok());
        assert!(b.is_unlimited());
        assert_eq!(b.steps(), 10_000);
    }

    #[test]
    fn step_limit_trips_with_resource() {
        let b = EvalBudget::unlimited().with_max_steps(5);
        for _ in 0..5 {
            assert!(b.check().is_ok());
        }
        let err = b.check().unwrap_err();
        assert_eq!(err.resource, BudgetResource::Steps);
        assert_eq!(err.steps, 6);
        // Once tripped, it stays tripped.
        assert!(b.check().is_err());
    }

    #[test]
    fn deadline_trips_within_clock_period() {
        let b = EvalBudget::unlimited().with_deadline(Duration::from_millis(0));
        let mut tripped = None;
        for i in 0..(2 * CLOCK_PERIOD) {
            if b.check().is_err() {
                tripped = Some(i);
                break;
            }
        }
        let at = tripped.expect("an already-passed deadline must trip");
        assert!(at < CLOCK_PERIOD + 1, "tripped only after {at} steps");
    }

    #[test]
    fn atom_limit() {
        let b = EvalBudget::unlimited().with_max_atoms(100);
        assert!(b.check_atoms(100).is_ok());
        let err = b.check_atoms(101).unwrap_err();
        assert_eq!(err.resource, BudgetResource::Atoms);
    }

    #[test]
    fn shared_across_threads() {
        let b = EvalBudget::unlimited().with_max_steps(1000);
        let tripped = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        if b.check().is_err() {
                            tripped.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
        // 4 × 500 = 2000 > 1000: someone must observe the shared trip.
        assert!(tripped.load(Ordering::Relaxed) > 0);
    }
}
