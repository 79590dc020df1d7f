use ams_kernel::SimTime;
use std::fmt;

/// Errors from TDF elaboration, execution and analyses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// No module in the cluster declared a timestep, so the cluster
    /// period cannot be derived.
    NoTimestep,
    /// Two timestep declarations disagree after rate propagation.
    InconsistentTimestep {
        /// Module that declared the conflicting timestep.
        module: String,
        /// The cluster period implied by this module.
        implied_period: SimTime,
        /// The cluster period implied by earlier declarations.
        established_period: SimTime,
    },
    /// The cluster period is not divisible by a module's repetition
    /// count, so that module has no exact femtosecond-aligned timestep.
    InexactTimestep {
        /// The module with no exact timestep.
        module: String,
        /// The cluster period.
        period: SimTime,
        /// The module's firings per period.
        repetitions: u64,
    },
    /// A TDF signal has more than one writer.
    MultipleWriters {
        /// Name of the signal.
        signal: String,
    },
    /// A TDF signal is read but never written.
    NoWriter {
        /// Name of the signal.
        signal: String,
    },
    /// Rate/consistency/deadlock errors from the dataflow analysis.
    Sdf(ams_sdf::SdfError),
    /// The DE kernel reported an error during co-simulation.
    Kernel(ams_kernel::KernelError),
    /// An embedded continuous-time solver failed.
    Solver {
        /// Which solver/module failed.
        module: String,
        /// Underlying message.
        message: String,
    },
    /// Invalid argument (zero rate, empty frequency list, …).
    Invalid {
        /// Description of the violated precondition.
        reason: String,
    },
    /// Pre-elaboration static analysis rejected the model: at least one
    /// diagnostic reached deny level under the active
    /// [`ams_lint::LintPolicy`]. The full report (including allowed and
    /// warned findings) is attached.
    Lint(ams_lint::LintReport),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoTimestep => {
                write!(f, "no module declared a timestep; cluster period unknown")
            }
            CoreError::InconsistentTimestep {
                module,
                implied_period,
                established_period,
            } => write!(
                f,
                "module '{module}' implies cluster period {implied_period} but {established_period} was already established"
            ),
            CoreError::InexactTimestep {
                module,
                period,
                repetitions,
            } => write!(
                f,
                "cluster period {period} is not divisible by {repetitions} firings of module '{module}'"
            ),
            CoreError::MultipleWriters { signal } => {
                write!(f, "tdf signal '{signal}' has more than one writer")
            }
            CoreError::NoWriter { signal } => {
                write!(f, "tdf signal '{signal}' is read but never written")
            }
            CoreError::Sdf(e) => write!(f, "dataflow error: {e}"),
            CoreError::Kernel(e) => write!(f, "kernel error: {e}"),
            CoreError::Solver { module, message } => {
                write!(f, "solver failure in module '{module}': {message}")
            }
            CoreError::Invalid { reason } => write!(f, "invalid argument: {reason}"),
            CoreError::Lint(report) => {
                write!(
                    f,
                    "static analysis rejected '{}' ({} error(s), {} warning(s)):\n{}",
                    report.context,
                    report.error_count(),
                    report.warning_count(),
                    report.render()
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sdf(e) => Some(e),
            CoreError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ams_sdf::SdfError> for CoreError {
    fn from(e: ams_sdf::SdfError) -> Self {
        CoreError::Sdf(e)
    }
}

impl From<ams_kernel::KernelError> for CoreError {
    fn from(e: ams_kernel::KernelError) -> Self {
        CoreError::Kernel(e)
    }
}

impl CoreError {
    /// Builds an [`CoreError::Invalid`] from a reason string.
    pub fn invalid(reason: impl Into<String>) -> Self {
        CoreError::Invalid {
            reason: reason.into(),
        }
    }

    /// Builds a [`CoreError::Solver`] failure record.
    pub fn solver(module: impl Into<String>, message: impl fmt::Display) -> Self {
        CoreError::Solver {
            module: module.into(),
            message: message.to_string(),
        }
    }

    /// The stable diagnostic code of this error from the `ams-lint`
    /// registry, when the failure corresponds to a static-analysis
    /// finding (`TDF005` = no timestep, `TDF006` = inconsistent
    /// timesteps, …). `None` for failures with no static counterpart
    /// (kernel errors, solver divergence, runtime solver faults). For
    /// [`CoreError::Lint`] the code of the first error-severity
    /// diagnostic (or, failing that, the first diagnostic) is returned.
    pub fn code(&self) -> Option<&'static str> {
        match self {
            CoreError::NoTimestep => Some("TDF005"),
            CoreError::InconsistentTimestep { .. } => Some("TDF006"),
            CoreError::InexactTimestep { .. } => Some("TDF012"),
            CoreError::MultipleWriters { .. } => Some("TDF004"),
            CoreError::NoWriter { .. } => Some("TDF003"),
            CoreError::Sdf(e) => Some(e.code()),
            CoreError::Lint(report) => report
                .diagnostics
                .iter()
                .find(|d| d.severity == ams_lint::Severity::Error)
                .or_else(|| report.diagnostics.first())
                .map(|d| d.code),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::NoWriter { signal: "x".into() };
        assert!(e.to_string().contains("'x'"));
        let e: CoreError = ams_sdf::SdfError::ZeroRate { edge: 1 }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
