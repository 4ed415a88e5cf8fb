//! Refinement errors.

use std::error::Error;
use std::fmt;

use modref_partition::ComponentId;
use modref_spec::{BehaviorId, SpecError, VarId};

/// An error raised by the refinement engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefineError {
    /// The partition does not assign a component to a leaf behavior.
    UnassignedBehavior(BehaviorId),
    /// The partition does not assign a component to a variable.
    UnassignedVar(VarId),
    /// The partition assigns an object to a component the allocation
    /// lacks.
    UnknownComponent(ComponentId),
    /// The chosen model requires at least one component.
    EmptyAllocation,
    /// The refined specification failed validation — an engine bug
    /// surfaced as an error rather than a panic.
    InvalidOutput(SpecError),
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::UnassignedBehavior(b) => {
                write!(f, "partition assigns no component to behavior {b}")
            }
            RefineError::UnassignedVar(v) => {
                write!(f, "partition assigns no component to variable {v}")
            }
            RefineError::UnknownComponent(c) => {
                write!(
                    f,
                    "partition assigns objects to {c}, which the allocation lacks"
                )
            }
            RefineError::EmptyAllocation => write!(f, "allocation has no components"),
            RefineError::InvalidOutput(e) => write!(f, "refined spec failed validation: {e}"),
        }
    }
}

impl Error for RefineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RefineError::InvalidOutput(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for RefineError {
    fn from(e: SpecError) -> Self {
        RefineError::InvalidOutput(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = RefineError::EmptyAllocation;
        assert_eq!(e.to_string(), "allocation has no components");
        let inner = SpecError::UnknownVar(VarId::from_raw(0));
        let e = RefineError::InvalidOutput(inner.clone());
        assert!(e.to_string().contains("failed validation"));
        assert!(e.source().is_some());
    }
}
