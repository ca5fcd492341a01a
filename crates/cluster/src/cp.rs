use crate::ClusterError;

/// The set of crossbar sizes available in the technology specification.
///
/// The paper's experiments allow square crossbars "from 16 to 64 at a step
/// of 4" ([`CrossbarSizeSet::paper`]); the current reliable fabrication
/// limit is 64×64. Sizes are kept sorted and deduplicated.
///
/// # Examples
///
/// ```
/// use ncs_cluster::CrossbarSizeSet;
///
/// let s = CrossbarSizeSet::paper();
/// assert_eq!(s.min(), 16);
/// assert_eq!(s.max(), 64);
/// assert_eq!(s.smallest_fitting(17), Some(20));
/// assert_eq!(s.smallest_fitting(65), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarSizeSet {
    sizes: Vec<usize>,
}

impl CrossbarSizeSet {
    /// Builds a size set from arbitrary sizes (sorted, deduplicated).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptySizeSet`] if no size remains, or
    /// [`ClusterError::InvalidSizeLimit`] if any size is zero.
    pub fn new<I: IntoIterator<Item = usize>>(sizes: I) -> Result<Self, ClusterError> {
        let mut sizes: Vec<usize> = sizes.into_iter().collect();
        if sizes.contains(&0) {
            return Err(ClusterError::InvalidSizeLimit { limit: 0 });
        }
        sizes.sort_unstable();
        sizes.dedup();
        if sizes.is_empty() {
            return Err(ClusterError::EmptySizeSet);
        }
        Ok(CrossbarSizeSet { sizes })
    }

    /// The paper's specification: 16, 20, 24, …, 64.
    pub fn paper() -> Self {
        // Built directly: the static range is already sorted, deduplicated,
        // and zero-free, so the fallible constructor has nothing to check.
        CrossbarSizeSet {
            sizes: (16..=64).step_by(4).collect(),
        }
    }

    /// The paper's sizes up to `max`: 16, 20, …, `max`. A limit outside
    /// the paper's sizes is refused rather than rounded, so a request can
    /// neither fall below 16×16 nor reach past the 64×64 fabrication
    /// limit.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidSizeLimit`] unless `max` is one of
    /// 16, 20, …, 64; nothing is allocated in that case.
    ///
    /// # Examples
    ///
    /// ```
    /// use ncs_cluster::CrossbarSizeSet;
    ///
    /// assert_eq!(CrossbarSizeSet::paper_up_to(24).unwrap().sizes(), &[16, 20, 24]);
    /// assert!(CrossbarSizeSet::paper_up_to(30).is_err());
    /// assert!(CrossbarSizeSet::paper_up_to(96).is_err());
    /// ```
    pub fn paper_up_to(max: usize) -> Result<Self, ClusterError> {
        if !(16..=64).contains(&max) || !max.is_multiple_of(4) {
            return Err(ClusterError::InvalidSizeLimit { limit: max });
        }
        Ok(CrossbarSizeSet {
            sizes: (16..=max).step_by(4).collect(),
        })
    }

    /// A single-size set (used by the FullCro baseline).
    pub fn single(size: usize) -> Result<Self, ClusterError> {
        Self::new([size])
    }

    /// Smallest available size.
    pub fn min(&self) -> usize {
        self.sizes[0]
    }

    /// Largest available size.
    pub fn max(&self) -> usize {
        // Non-empty by construction (every constructor rejects empty sets).
        self.sizes[self.sizes.len() - 1]
    }

    /// All sizes, ascending.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The smallest size that can host a cluster of `cluster_size` neurons,
    /// or `None` if even the largest crossbar is too small.
    pub fn smallest_fitting(&self, cluster_size: usize) -> Option<usize> {
        self.sizes.iter().copied().find(|&s| s >= cluster_size)
    }
}

/// How the *crossbar preference* (CP) of a cluster is computed.
///
/// The paper defines CP so that (a) for fixed size `s` it grows with the
/// utilized connections `m` (equivalently utilization `u = m/s²`), and
/// (b) for fixed `m` it shrinks with `s`. The printed formula is garbled
/// in the PDF; the default reading `CP = (m/s)·√u` satisfies both criteria
/// and is what the experiments use. `MuOverS` (`CP = m·u/s`) is an
/// alternative consistent reading provided for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpModel {
    /// `CP = (m / s) · √u` (default, used in all experiments).
    #[default]
    MOverSSqrtU,
    /// `CP = m · u / s` (ablation alternative).
    MuOverS,
}

/// Computes the crossbar preference of a cluster that uses `m` connections
/// on a crossbar of size `s`.
///
/// Returns 0.0 when `s == 0` (degenerate) so callers can rank uniformly.
///
/// # Examples
///
/// ```
/// use ncs_cluster::{crossbar_preference, CpModel};
///
/// let full = crossbar_preference(16 * 16, 16, CpModel::default());
/// let half = crossbar_preference(16 * 16 / 2, 16, CpModel::default());
/// assert!(full > half, "CP grows with utilized connections");
///
/// let small = crossbar_preference(100, 16, CpModel::default());
/// let large = crossbar_preference(100, 64, CpModel::default());
/// assert!(small > large, "CP shrinks with crossbar size at fixed m");
/// ```
pub fn crossbar_preference(m: usize, s: usize, model: CpModel) -> f64 {
    if s == 0 {
        return 0.0;
    }
    let m = m as f64;
    let s = s as f64;
    let u = m / (s * s);
    match model {
        CpModel::MOverSSqrtU => (m / s) * u.sqrt(),
        CpModel::MuOverS => m * u / s,
    }
}

/// Picks the minimum satisfiable crossbar size in `sizes` for a cluster of
/// `cluster_size` neurons (Algorithm 3, line 11).
///
/// # Errors
///
/// Returns [`ClusterError::InvalidSizeLimit`] if the cluster exceeds the
/// largest crossbar — callers should have bounded cluster sizes with GCP
/// first.
pub fn min_satisfiable_size(
    sizes: &CrossbarSizeSet,
    cluster_size: usize,
) -> Result<usize, ClusterError> {
    sizes
        .smallest_fitting(cluster_size)
        .ok_or(ClusterError::InvalidSizeLimit {
            limit: cluster_size,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_contents() {
        let s = CrossbarSizeSet::paper();
        assert_eq!(
            s.sizes(),
            &[16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64]
        );
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = CrossbarSizeSet::new([32, 16, 32]).unwrap();
        assert_eq!(s.sizes(), &[16, 32]);
        assert!(CrossbarSizeSet::new([]).is_err());
        assert!(CrossbarSizeSet::new([0, 3]).is_err());
    }

    #[test]
    fn smallest_fitting_boundaries() {
        let s = CrossbarSizeSet::paper();
        assert_eq!(s.smallest_fitting(0), Some(16));
        assert_eq!(s.smallest_fitting(16), Some(16));
        assert_eq!(s.smallest_fitting(64), Some(64));
        assert_eq!(s.smallest_fitting(65), None);
    }

    #[test]
    fn cp_monotonicity_criterion_a() {
        // Fixed s: CP strictly increases with m for both models.
        for model in [CpModel::MOverSSqrtU, CpModel::MuOverS] {
            let mut last = -1.0;
            for m in [0usize, 10, 100, 256] {
                let cp = crossbar_preference(m, 16, model);
                assert!(cp > last || (m == 0 && cp >= last), "{model:?} m={m}");
                last = cp;
            }
        }
    }

    #[test]
    fn cp_monotonicity_criterion_b() {
        // Fixed m: CP strictly decreases with s for both models.
        for model in [CpModel::MOverSSqrtU, CpModel::MuOverS] {
            let mut last = f64::INFINITY;
            for s in [16usize, 32, 48, 64] {
                let cp = crossbar_preference(200, s, model);
                assert!(cp < last, "{model:?} s={s}");
                last = cp;
            }
        }
    }

    #[test]
    fn cp_degenerate_size_is_zero() {
        assert_eq!(crossbar_preference(5, 0, CpModel::default()), 0.0);
    }

    #[test]
    fn min_satisfiable_errors_when_oversize() {
        let s = CrossbarSizeSet::paper();
        assert_eq!(min_satisfiable_size(&s, 30).unwrap(), 32);
        assert!(min_satisfiable_size(&s, 100).is_err());
    }
}
