//! Connection clustering — the core contribution of the AutoNCS paper.
//!
//! Sparse neural networks map poorly onto fixed-size memristor crossbars:
//! a crossbar offers `s²` connections but a sparse network uses only a few
//! of them, so utilization craters. AutoNCS fixes this with three
//! cooperating algorithms, all implemented here:
//!
//! * [`msc`] — **Modified Spectral Clustering** (Algorithm 1): spectral
//!   clustering where similarity *is* the connection count, grouping
//!   neurons so that connections concentrate inside clusters.
//! * [`gcp`] — **Greedy Cluster size Prediction** (Algorithm 2): keeps the
//!   largest cluster below the maximum crossbar size by greedily bisecting
//!   oversize clusters inside the k-means loop instead of re-scanning `k`
//!   (the much slower [`traversing`] baseline, also provided).
//! * [`Isc`] — **Iterative Spectral Clustering** (Algorithm 3): repeatedly
//!   clusters the *remaining* network, realizes only the top-quartile
//!   clusters by [crossbar preference](CpModel) on crossbars, and leaves
//!   the rest for later rounds; leftovers become discrete synapses.
//!
//! The result of the flow is a [`HybridMapping`]: a set of
//! [`CrossbarAssignment`]s plus outlier connections, with the invariant
//! that every connection of the input network is realized exactly once.
//! The brute-force baseline the paper compares against ([`full_crossbar`],
//! "FullCro") is also implemented.
//!
//! # Examples
//!
//! Mapping a small sparse network:
//!
//! ```
//! use ncs_cluster::{Isc, IscOptions};
//! use ncs_net::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = generators::planted_clusters(96, 4, 0.5, 0.01, 7)?.0;
//! let mapping = Isc::new(IscOptions::default()).run(&net)?;
//! assert_eq!(
//!     mapping.realized_connections() + mapping.outliers().len(),
//!     net.connections()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clustering;
mod cp;
mod error;
mod fullcro;
mod gcp;
mod isc;
mod kmeans;
mod mapping;
mod msc;
pub mod stats;
mod traversing;

pub use clustering::Clustering;
pub use cp::{crossbar_preference, min_satisfiable_size, CpModel, CrossbarSizeSet};
pub use error::ClusterError;
pub use fullcro::full_crossbar;
pub use gcp::gcp;
pub use isc::{Isc, IscIteration, IscOptions, IscTrace, StopReason};
pub use kmeans::{kmeans, KmeansResult};
pub use mapping::{CrossbarAssignment, HybridMapping};
pub use msc::{
    msc, spectral_embedding, spectral_embedding_partial, spectral_embedding_partial_warm,
    DENSE_EIGEN_MAX_N,
};
pub use traversing::traversing;
