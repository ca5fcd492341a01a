//! Error types for the flow service.
//!
//! Follows the workspace convention (PR 4): enums derive `Clone` and
//! `PartialEq` so tests can assert exact variants, `Display` texts are
//! stable, and wrapped stage errors surface through `source()`.
//! Transport failures are captured as `(context, ErrorKind, message)`
//! rather than a raw `std::io::Error` precisely to keep those derives.

use std::error::Error;
use std::fmt;
use std::io::ErrorKind;

use ncs_cluster::ClusterError;
use ncs_net::NetError;
use ncs_phys::PhysError;

use crate::proto::ProtoError;

/// Errors from the flow service: job failures, protocol violations and
/// transport faults.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The clustering stage of a job failed.
    Cluster(ClusterError),
    /// The physical-design stage of a job failed.
    Phys(PhysError),
    /// A network generator rejected its parameters.
    Net(NetError),
    /// The submitted edge-list network did not parse.
    Parse {
        /// The parse failure, flattened to text (the underlying
        /// `ParseNetError` owns an `io::Error` and cannot be cloned).
        message: String,
    },
    /// The peer sent a malformed frame or message.
    Protocol(ProtoError),
    /// A socket operation failed.
    Io {
        /// What was being done ("bind", "accept", "read frame", ...).
        context: &'static str,
        /// The I/O error kind.
        kind: ErrorKind,
        /// The I/O error text.
        message: String,
    },
    /// The server shut down before the job ran.
    ServerClosed,
    /// A [`crate::ServeOptions`] field is out of range, so the server
    /// refuses to start.
    InvalidOption {
        /// The offending field.
        field: &'static str,
        /// What the field must satisfy.
        requirement: &'static str,
    },
    /// The server answered with a structured error frame (client side).
    Remote {
        /// Wire error code ([`crate::proto::code`]).
        code: u16,
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Cluster(e) => write!(f, "job failed in clustering: {e}"),
            ServeError::Phys(e) => write!(f, "job failed in physical design: {e}"),
            ServeError::Net(e) => write!(f, "generator rejected the request: {e}"),
            ServeError::Parse { message } => write!(f, "network did not parse: {message}"),
            ServeError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ServeError::Io {
                context,
                kind,
                message,
            } => write!(f, "i/o failure during {context} ({kind:?}): {message}"),
            ServeError::ServerClosed => write!(f, "server is shutting down"),
            ServeError::InvalidOption { field, requirement } => {
                write!(f, "invalid server option {field}: {requirement}")
            }
            ServeError::Remote { code, message } => {
                write!(f, "server reported error {code}: {message}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Cluster(e) => Some(e),
            ServeError::Phys(e) => Some(e),
            ServeError::Net(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::Parse { .. }
            | ServeError::Io { .. }
            | ServeError::ServerClosed
            | ServeError::InvalidOption { .. }
            | ServeError::Remote { .. } => None,
        }
    }
}

impl From<ClusterError> for ServeError {
    fn from(e: ClusterError) -> Self {
        ServeError::Cluster(e)
    }
}

impl From<PhysError> for ServeError {
    fn from(e: PhysError) -> Self {
        ServeError::Phys(e)
    }
}

impl From<NetError> for ServeError {
    fn from(e: NetError) -> Self {
        ServeError::Net(e)
    }
}

impl From<ProtoError> for ServeError {
    fn from(e: ProtoError) -> Self {
        ServeError::Protocol(e)
    }
}

impl ServeError {
    /// Wraps an `io::Error` with the operation that failed.
    pub fn io(context: &'static str, e: &std::io::Error) -> Self {
        ServeError::Io {
            context,
            kind: e.kind(),
            message: e.to_string(),
        }
    }

    /// The wire error code this error maps to ([`crate::proto::code`]).
    pub fn wire_code(&self) -> u16 {
        match self {
            ServeError::Protocol(_) => crate::proto::code::PROTOCOL,
            ServeError::ServerClosed => crate::proto::code::SHUTDOWN,
            _ => crate::proto::code::JOB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources_follow_the_convention() {
        let e = ServeError::Cluster(ClusterError::EmptySizeSet);
        assert!(e.to_string().starts_with("job failed in clustering:"));
        assert!(e.source().is_some());

        let e = ServeError::Protocol(ProtoError::BadTag { tag: 9 });
        assert_eq!(
            e.to_string(),
            "protocol violation: unknown message tag 0x09"
        );
        assert!(e.source().is_some());
        assert_eq!(e.wire_code(), crate::proto::code::PROTOCOL);

        let e = ServeError::ServerClosed;
        assert_eq!(e.to_string(), "server is shutting down");
        assert!(e.source().is_none());
        assert_eq!(e.wire_code(), crate::proto::code::SHUTDOWN);
    }

    #[test]
    fn io_wrapper_preserves_kind_and_text() {
        let raw = std::io::Error::new(ErrorKind::ConnectionReset, "peer vanished");
        let e = ServeError::io("read frame", &raw);
        assert_eq!(
            e,
            ServeError::Io {
                context: "read frame",
                kind: ErrorKind::ConnectionReset,
                message: "peer vanished".into(),
            }
        );
        assert!(e.to_string().contains("read frame"));
        assert_eq!(e.wire_code(), crate::proto::code::JOB);
    }
}
