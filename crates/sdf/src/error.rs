use std::fmt;

/// Errors from SDF graph construction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdfError {
    /// The balance equations have no non-trivial solution: some cycle of
    /// rate ratios is inconsistent, so no periodic schedule with bounded
    /// buffers exists.
    InconsistentRates {
        /// Index of the edge where the inconsistency was detected.
        edge: usize,
    },
    /// The graph is consistent but deadlocks: no actor can fire even
    /// though the iteration is incomplete (insufficient initial tokens on
    /// some cycle).
    Deadlock {
        /// Actors (by index) with unfinished firings when scheduling stalled.
        stuck_actors: Vec<usize>,
    },
    /// A rate of zero was specified; every port must move at least one
    /// token per firing.
    ZeroRate {
        /// Index of the offending edge.
        edge: usize,
    },
    /// A handle referenced an actor or edge that does not exist.
    UnknownHandle {
        /// What kind of handle was invalid.
        kind: &'static str,
        /// Raw index of the invalid handle.
        index: usize,
    },
}

impl SdfError {
    /// The stable diagnostic code of this error, from the same registry
    /// `ams-lint` uses (`TDF001` = inconsistent rates, `TDF002` =
    /// deadlock, …), so a runtime scheduling failure and the
    /// pre-elaboration lint finding that predicts it are correlated by
    /// code.
    pub fn code(&self) -> &'static str {
        match self {
            SdfError::InconsistentRates { .. } => "TDF001",
            SdfError::Deadlock { .. } => "TDF002",
            SdfError::ZeroRate { .. } => "TDF009",
            SdfError::UnknownHandle { .. } => "TDF010",
        }
    }
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::InconsistentRates { edge } => {
                write!(f, "inconsistent dataflow rates at edge {edge}")
            }
            SdfError::Deadlock { stuck_actors } => {
                write!(f, "dataflow deadlock; stuck actors: {stuck_actors:?}")
            }
            SdfError::ZeroRate { edge } => write!(f, "zero token rate on edge {edge}"),
            SdfError::UnknownHandle { kind, index } => {
                write!(f, "unknown {kind} handle with index {index}")
            }
        }
    }
}

impl std::error::Error for SdfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SdfError::InconsistentRates { edge: 2 }
            .to_string()
            .contains("edge 2"));
        assert!(SdfError::Deadlock {
            stuck_actors: vec![0, 1]
        }
        .to_string()
        .contains("[0, 1]"));
    }
}
