//! Error type of the core optimizer.

use std::fmt;

/// Errors raised by the resource-allocation algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The system model rejected an input (invalid scenario, weights, or allocation shape).
    Model(flsys::FlError),
    /// A numerical routine failed.
    Numerical(numopt::NumError),
    /// The scheme cannot meet the requested completion-time deadline
    /// ([`flsys::model::meets_deadline`]).
    InfeasibleDeadline {
        /// The requested total completion time in seconds.
        requested_s: f64,
        /// The scheme's own best total completion time in seconds: every resource at its
        /// maximum for Algorithm 2's deadline variant, the one allocation a fixed-split
        /// baseline computes for the deadline.
        achievable_s: f64,
    },
    /// The solver produced an infeasible or non-finite allocation and the fallback also failed.
    SolverFailure(String),
    /// The watchdog abandoned a solve: no outer iteration produced a finite objective
    /// within the iteration budget. Unlike [`CoreError::SolverFailure`] this is a
    /// *degradation*, not an abort — sweep layers treat the affected cell as infeasible
    /// (`None` sample, counted in `SolveCounters::degraded_solves`) instead of killing the
    /// whole run, so one pathological draw cannot take a fleet shard down with it.
    NonFiniteObjective {
        /// Outer iterations attempted before the watchdog gave up.
        iterations: usize,
    },
    /// The caller-supplied wall-clock budget ([`SolverWorkspace::solve_deadline`]) expired
    /// before the outer loop converged. Like [`CoreError::NonFiniteObjective`] this is a
    /// *degradation*, not an abort: the solve is abandoned at an iteration boundary so it
    /// can never hang a serving thread, and request-level callers answer with a typed
    /// `degraded` response instead of tearing anything down. The workspace itself stays
    /// healthy — no quarantine is implied.
    ///
    /// [`SolverWorkspace::solve_deadline`]: crate::SolverWorkspace::solve_deadline
    DeadlineExpired {
        /// Outer iterations completed before the budget ran out.
        iterations: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "system model error: {e}"),
            CoreError::Numerical(e) => write!(f, "numerical error: {e}"),
            CoreError::InfeasibleDeadline { requested_s, achievable_s } => write!(
                f,
                "deadline {requested_s} s is infeasible; best achievable is {achievable_s} s"
            ),
            CoreError::SolverFailure(msg) => write!(f, "solver failure: {msg}"),
            CoreError::NonFiniteObjective { iterations } => {
                write!(f, "solver degraded: no finite objective in {iterations} outer iteration(s)")
            }
            CoreError::DeadlineExpired { iterations } => {
                write!(
                    f,
                    "solver degraded: wall-clock budget expired after {iterations} outer iteration(s)"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flsys::FlError> for CoreError {
    fn from(e: flsys::FlError) -> Self {
        CoreError::Model(e)
    }
}

impl From<numopt::NumError> for CoreError {
    fn from(e: numopt::NumError) -> Self {
        CoreError::Numerical(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: CoreError = flsys::FlError::NoDevices.into();
        assert!(matches!(e, CoreError::Model(_)));
        assert!(std::error::Error::source(&e).is_some());

        let e: CoreError = numopt::NumError::NonFiniteValue { at: 1.0 }.into();
        assert!(matches!(e, CoreError::Numerical(_)));

        let e = CoreError::InfeasibleDeadline { requested_s: 10.0, achievable_s: 24.0 };
        assert!(e.to_string().contains("24"));
        assert!(std::error::Error::source(&e).is_none());

        let e = CoreError::DeadlineExpired { iterations: 3 };
        assert!(e.to_string().contains("wall-clock budget expired after 3"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
