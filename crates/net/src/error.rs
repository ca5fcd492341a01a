use std::error::Error;
use std::fmt;

/// Errors produced by the network substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// A neuron index was out of range.
    NeuronOutOfRange {
        /// Offending index.
        index: usize,
        /// Network size.
        neurons: usize,
    },
    /// A requested sparsity was outside `[0, 1]`.
    InvalidSparsity {
        /// The offending value.
        value: f64,
    },
    /// Pattern dimension does not match the network size.
    PatternDimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Provided dimension.
        found: usize,
    },
    /// A generator was asked for an empty artifact (zero neurons/patterns).
    EmptyRequest {
        /// What was requested.
        what: &'static str,
    },
    /// An unknown paper testbench id (valid ids are 1, 2, 3).
    UnknownTestbench {
        /// The offending id.
        id: usize,
    },
    /// A parameter that must lie in `(0, 1]` was invalid.
    InvalidFraction {
        /// Description of the parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The `n × n` connection bitmap overflows `usize` or cannot be
    /// allocated.
    TooLarge {
        /// The requested network size.
        neurons: usize,
    },
}

// `InvalidSparsity`/`InvalidFraction` hold f64 but only for reporting;
// Eq is fine because we never compare NaN-carrying errors.
impl Eq for NetError {}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NeuronOutOfRange { index, neurons } => {
                write!(f, "neuron index {index} out of range for {neurons} neurons")
            }
            NetError::InvalidSparsity { value } => {
                write!(f, "sparsity {value} must lie in [0, 1]")
            }
            NetError::PatternDimensionMismatch { expected, found } => {
                write!(
                    f,
                    "pattern dimension {found} does not match network size {expected}"
                )
            }
            NetError::EmptyRequest { what } => write!(f, "cannot create an empty {what}"),
            NetError::UnknownTestbench { id } => {
                write!(f, "unknown testbench id {id}, valid ids are 1, 2 and 3")
            }
            NetError::InvalidFraction { what, value } => {
                write!(f, "{what} {value} must lie in (0, 1]")
            }
            NetError::TooLarge { neurons } => {
                write!(
                    f,
                    "cannot allocate a connection matrix for {neurons} neurons"
                )
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(NetError::UnknownTestbench { id: 9 }
            .to_string()
            .contains('9'));
        assert!(NetError::InvalidSparsity { value: 2.0 }
            .to_string()
            .contains("2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}
