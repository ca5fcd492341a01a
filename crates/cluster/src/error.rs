use std::error::Error;
use std::fmt;

use ncs_linalg::LinalgError;
use ncs_net::NetError;

/// Errors produced by the clustering algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// `k` must satisfy `1 <= k <= n`.
    InvalidClusterCount {
        /// Requested number of clusters.
        k: usize,
        /// Number of points available.
        points: usize,
    },
    /// The crossbar size set is empty or unusable.
    EmptySizeSet,
    /// A size limit of zero was requested, or one that no available
    /// crossbar size matches.
    InvalidSizeLimit {
        /// The offending limit.
        limit: usize,
    },
    /// The utilization threshold must lie in `[0, 1]`.
    InvalidThreshold {
        /// The offending value.
        value: f64,
    },
    /// An underlying eigensolver failure.
    Linalg(LinalgError),
    /// An underlying network-substrate failure.
    Net(NetError),
    /// The traversing baseline exceeded its `k` scan budget.
    TraversingBudgetExceeded {
        /// Largest `k` tried.
        max_k: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidClusterCount { k, points } => {
                write!(f, "cluster count {k} invalid for {points} points")
            }
            ClusterError::EmptySizeSet => write!(f, "crossbar size set is empty"),
            ClusterError::InvalidSizeLimit { limit: 0 } => {
                write!(f, "cluster size limit 0 must be at least 1")
            }
            ClusterError::InvalidSizeLimit { limit } => {
                write!(
                    f,
                    "cluster size limit {limit} matches no available crossbar size"
                )
            }
            ClusterError::InvalidThreshold { value } => {
                write!(f, "utilization threshold {value} must lie in [0, 1]")
            }
            ClusterError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            ClusterError::Net(e) => write!(f, "network failure: {e}"),
            ClusterError::TraversingBudgetExceeded { max_k } => {
                write!(f, "traversing baseline exhausted its budget at k = {max_k}")
            }
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Linalg(e) => Some(e),
            ClusterError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ClusterError {
    fn from(e: LinalgError) -> Self {
        ClusterError::Linalg(e)
    }
}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = ClusterError::InvalidClusterCount { k: 5, points: 3 };
        assert!(e.to_string().contains('5'));
        let e: ClusterError = LinalgError::Empty.into();
        assert!(e.source().is_some());
        let e: ClusterError = NetError::EmptyRequest { what: "x" }.into();
        assert!(e.source().is_some());
        assert!(ClusterError::EmptySizeSet.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterError>();
    }
}
