use std::error::Error;
use std::fmt;

/// Errors produced by the physical-design flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PhysError {
    /// The netlist has no cells to place.
    EmptyNetlist,
    /// A placement was queried for a cell it does not contain.
    UnknownCell {
        /// The offending cell id.
        id: usize,
    },
    /// An option value is outside its legal range.
    InvalidOption {
        /// Which option.
        what: &'static str,
        /// Offending value rendered as text.
        value: String,
    },
    /// The router could not complete even after relaxing virtual capacity
    /// up to its limit.
    Unroutable {
        /// Wires left unrouted.
        failed: usize,
        /// Relaxation rounds performed.
        relaxations: usize,
    },
    /// A wire has a pin that names no cell of its netlist.
    DegenerateWire {
        /// The offending wire id.
        id: usize,
    },
}

impl fmt::Display for PhysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysError::EmptyNetlist => write!(f, "netlist contains no cells"),
            PhysError::UnknownCell { id } => write!(f, "unknown cell id {id}"),
            PhysError::InvalidOption { what, value } => {
                write!(f, "invalid option {what} = {value}")
            }
            PhysError::Unroutable {
                failed,
                relaxations,
            } => write!(
                f,
                "{failed} wires unroutable after {relaxations} capacity relaxations"
            ),
            PhysError::DegenerateWire { id } => {
                write!(f, "wire {id} has a pin that names no cell")
            }
        }
    }
}

impl Error for PhysError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PhysError::EmptyNetlist.to_string().contains("no cells"));
        assert!(PhysError::Unroutable {
            failed: 3,
            relaxations: 5
        }
        .to_string()
        .contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PhysError>();
    }
}
