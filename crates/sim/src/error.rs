//! Simulation errors.

use std::error::Error;
use std::fmt;

/// An error raised during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The global step budget was exhausted — almost always a zero-time
    /// infinite loop (a `loop` without a `wait`) or a livelocked handshake.
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// Every live process is blocked on a `wait until` that can never
    /// become true and no time-based wakeups remain.
    Deadlock {
        /// Simulated time at which the deadlock was detected.
        time: u64,
        /// Names of the blocked behaviors.
        blocked: Vec<String>,
    },
    /// An array access evaluated to an index outside the array.
    IndexOutOfBounds {
        /// The variable's name.
        var: String,
        /// The offending index.
        index: i64,
        /// The array length.
        len: u32,
    },
    /// A parameter name was referenced outside any subroutine call frame
    /// or does not exist in the enclosing frame.
    UnboundParam(String),
    /// The variables hold more elements in total than the simulator
    /// allocates ([`MAX_ELEMENTS`](crate::process::MAX_ELEMENTS)); the
    /// run is refused before any storage is allocated.
    StorageLimit {
        /// The variable whose storage crosses the limit.
        var: String,
        /// The limit on the total element count.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StepLimitExceeded { limit } => {
                write!(f, "step limit of {limit} exceeded (zero-time loop?)")
            }
            SimError::Deadlock { time, blocked } => {
                write!(f, "deadlock at t={time}: blocked behaviors {blocked:?}")
            }
            SimError::IndexOutOfBounds { var, index, len } => {
                write!(f, "index {index} out of bounds for `{var}` (len {len})")
            }
            SimError::UnboundParam(name) => write!(f, "unbound parameter `${name}`"),
            SimError::StorageLimit { var, limit } => write!(
                f,
                "variable `{var}` takes the spec past {limit} elements, \
                 the most the simulator allocates"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::Deadlock {
            time: 10,
            blocked: vec!["B_NEW".into()],
        };
        assert!(e.to_string().contains("deadlock at t=10"));
        let e = SimError::IndexOutOfBounds {
            var: "a".into(),
            index: 9,
            len: 4,
        };
        assert!(e.to_string().contains("index 9"));
    }

    #[test]
    fn implements_std_error() {
        fn takes<E: Error>(_: E) {}
        takes(SimError::UnboundParam("x".into()));
    }
}
