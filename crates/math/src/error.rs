use std::fmt;

/// Error type for all numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MathError {
    /// A matrix was singular (or numerically singular) during factorization
    /// or solve. Carries the pivot column where breakdown occurred.
    SingularMatrix {
        /// Column index at which no acceptable pivot was found.
        pivot: usize,
    },
    /// Operand dimensions were incompatible.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was found.
        found: String,
    },
    /// An iterative method failed to converge.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the last iteration.
        residual: f64,
    },
    /// An argument was outside its valid domain.
    InvalidArgument {
        /// Description of the violated precondition.
        reason: String,
    },
    /// A step-size controller reduced the step below its minimum.
    StepSizeUnderflow {
        /// Simulated time at which the underflow occurred.
        time: f64,
        /// The step size that fell below the allowed minimum.
        step: f64,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            MathError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            MathError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            MathError::InvalidArgument { reason } => {
                write!(f, "invalid argument: {reason}")
            }
            MathError::StepSizeUnderflow { time, step } => {
                write!(f, "step size underflow at t = {time:.6e} (step {step:.3e})")
            }
        }
    }
}

impl std::error::Error for MathError {}

impl MathError {
    /// Builds a [`MathError::DimensionMismatch`] from two shape descriptions.
    pub fn dims(expected: impl Into<String>, found: impl Into<String>) -> Self {
        MathError::DimensionMismatch {
            expected: expected.into(),
            found: found.into(),
        }
    }

    /// Builds a [`MathError::InvalidArgument`] from a reason string.
    pub fn invalid(reason: impl Into<String>) -> Self {
        MathError::InvalidArgument {
            reason: reason.into(),
        }
    }
}

/// Checks that a solve operand (`what`) has the factored dimension `n`.
pub(crate) fn check_len(what: &str, n: usize, len: usize) -> crate::Result<()> {
    if len == n {
        Ok(())
    } else {
        Err(MathError::dims(
            format!("{what} of length {n}"),
            format!("length {len}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = MathError::SingularMatrix { pivot: 3 };
        assert_eq!(e.to_string(), "matrix is singular at pivot column 3");
        let e = MathError::dims("2x2", "3x1");
        assert_eq!(e.to_string(), "dimension mismatch: expected 2x2, found 3x1");
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<MathError>();
    }
}
