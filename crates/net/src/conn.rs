use std::fmt;

use ncs_linalg::DenseMatrix;

use crate::NetError;

/// A binary `n × n` connection matrix.
///
/// Entry `(i, j) == true` means a synapse connects neuron `i` (fan-in side)
/// to neuron `j` (fan-out side). Following the paper, the *connection
/// matrix* and the *network* are the same object; all clustering operates
/// on this structure. Storage is a bit-packed row-major bitmap, so a
/// 500-neuron network costs ~31 KiB.
///
/// # Examples
///
/// ```
/// use ncs_net::ConnectionMatrix;
///
/// # fn main() -> Result<(), ncs_net::NetError> {
/// let mut net = ConnectionMatrix::empty(4)?;
/// net.connect(0, 1)?;
/// net.connect(1, 0)?;
/// assert_eq!(net.connections(), 2);
/// assert_eq!(net.sparsity(), 1.0 - 2.0 / 16.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl ConnectionMatrix {
    /// Creates an `n × n` matrix with no connections.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyRequest`] for `n == 0` and
    /// [`NetError::TooLarge`] when the `n × n` bitmap overflows `usize`
    /// or cannot be allocated.
    pub fn empty(n: usize) -> Result<Self, NetError> {
        if n == 0 {
            return Err(NetError::EmptyRequest {
                what: "connection matrix",
            });
        }
        let too_large = || NetError::TooLarge { neurons: n };
        let words_per_row = n.div_ceil(64);
        let words = n.checked_mul(words_per_row).ok_or_else(too_large)?;
        let mut bits = Vec::new();
        bits.try_reserve_exact(words).map_err(|_| too_large())?;
        bits.resize(words, 0);
        Ok(ConnectionMatrix {
            n,
            words_per_row,
            bits,
        })
    }

    /// Builds a matrix from an iterator of `(from, to)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NeuronOutOfRange`] on the first bad index, or
    /// [`NetError::EmptyRequest`] for `n == 0`.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut m = Self::empty(n)?;
        for (i, j) in pairs {
            m.connect(i, j)?;
        }
        Ok(m)
    }

    /// Number of neurons `n`.
    pub fn neurons(&self) -> usize {
        self.n
    }

    /// Whether a connection `(from, to)` exists.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn is_connected(&self, from: usize, to: usize) -> bool {
        assert!(
            from < self.n && to < self.n,
            "index ({from},{to}) out of range"
        );
        let word = self.bits[from * self.words_per_row + to / 64];
        (word >> (to % 64)) & 1 == 1
    }

    /// Adds a connection.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NeuronOutOfRange`] if an index is out of range.
    pub fn connect(&mut self, from: usize, to: usize) -> Result<(), NetError> {
        self.check(from)?;
        self.check(to)?;
        self.set(from, to, true);
        Ok(())
    }

    /// Infallible bit write for indices already proven in range (panics
    /// via slice indexing otherwise — internal use only).
    fn set(&mut self, from: usize, to: usize, on: bool) {
        let word = &mut self.bits[from * self.words_per_row + to / 64];
        if on {
            *word |= 1 << (to % 64);
        } else {
            *word &= !(1 << (to % 64));
        }
    }

    /// Removes a connection (no-op if absent).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NeuronOutOfRange`] if an index is out of range.
    pub fn disconnect(&mut self, from: usize, to: usize) -> Result<(), NetError> {
        self.check(from)?;
        self.check(to)?;
        self.set(from, to, false);
        Ok(())
    }

    fn check(&self, idx: usize) -> Result<(), NetError> {
        if idx >= self.n {
            Err(NetError::NeuronOutOfRange {
                index: idx,
                neurons: self.n,
            })
        } else {
            Ok(())
        }
    }

    /// Total number of connections (set bits).
    pub fn connections(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sparsity per the paper: one minus actual connections over all `n²`
    /// possible connections.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.connections() as f64 / (self.n * self.n) as f64
    }

    /// Density, `1 - sparsity`.
    pub fn density(&self) -> f64 {
        1.0 - self.sparsity()
    }

    /// Iterator over the fan-out targets of neuron `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn fanout_of(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(from < self.n, "neuron {from} out of range");
        let row = &self.bits[from * self.words_per_row..(from + 1) * self.words_per_row];
        let n = self.n;
        row.iter().enumerate().flat_map(move |(wi, &w)| {
            BitIter {
                word: w,
                base: wi * 64,
            }
            .take_while(move |&b| b < n)
        })
    }

    /// Iterator over the neighbours recorded in row `row` of the bitmap
    /// (a bit-scan, so cost is proportional to the set bits). On a
    /// [`symmetrized`](Self::symmetrized) matrix this is the undirected
    /// neighbour list that row-parallel Laplacian builders consume.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_neighbors(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        self.fanout_of(row)
    }

    /// Number of fan-outs (out-degree) of a neuron.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn fanout(&self, from: usize) -> usize {
        assert!(from < self.n, "neuron {from} out of range");
        self.bits[from * self.words_per_row..(from + 1) * self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of fan-ins (in-degree) of a neuron.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn fanin(&self, to: usize) -> usize {
        assert!(to < self.n, "neuron {to} out of range");
        let word = to / 64;
        let bit = 1u64 << (to % 64);
        (0..self.n)
            .filter(|&i| self.bits[i * self.words_per_row + word] & bit != 0)
            .count()
    }

    /// Out-degrees of every neuron in one pass: `out_degrees()[i] ==
    /// fanout(i)`. Popcounts whole words, so the cost is O(n·words) —
    /// the bulk form the CSR builder uses to size row pointers without
    /// per-bit probing.
    pub fn out_degrees(&self) -> Vec<usize> {
        self.bits
            .chunks_exact(self.words_per_row)
            .map(|row| row.iter().map(|w| w.count_ones() as usize).sum())
            .collect()
    }

    /// In-degrees of every neuron in one pass: `fanins()[j] == fanin(j)`.
    /// A single word-level sweep over the bitmap (O(n·words + nnz))
    /// instead of `n` calls to [`fanin`](Self::fanin) (O(n²) probes).
    pub fn fanins(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n];
        for row in 0..self.n {
            for j in self.row_neighbors(row) {
                counts[j] += 1;
            }
        }
        counts
    }

    /// Appends the fan-out targets of `row` to `out` (which is cleared
    /// first), in ascending order. Word-level scan like
    /// [`row_neighbors`](Self::row_neighbors), but writing into a caller
    /// scratch buffer so hot loops can reuse one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_neighbors_into(&self, row: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.row_neighbors(row));
    }

    /// `fanin + fanout` of a neuron — the paper's congestion proxy.
    ///
    /// # Panics
    ///
    /// Panics if `neuron` is out of range.
    pub fn fanin_fanout(&self, neuron: usize) -> usize {
        self.fanin(neuron) + self.fanout(neuron)
    }

    /// Iterator over all `(from, to)` connections in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.fanout_of(i).map(move |j| (i, j)))
    }

    /// Whether the matrix is symmetric (every connection has its reverse).
    pub fn is_symmetric(&self) -> bool {
        self.iter().all(|(i, j)| self.is_connected(j, i))
    }

    /// Symmetrized copy: connection `(i, j)` exists if either direction
    /// exists in `self`. This is the undirected similarity graph MSC
    /// clusters on.
    pub fn symmetrized(&self) -> ConnectionMatrix {
        let mut out = self.clone();
        for (i, j) in self.iter() {
            // Indices come from self, so they are in range.
            out.set(j, i, true);
        }
        out
    }

    /// Node degrees of the symmetrized graph, counting each incident
    /// connection once.
    pub fn degrees(&self) -> Vec<f64> {
        let sym = self.symmetrized();
        sym.out_degrees().into_iter().map(|d| d as f64).collect()
    }

    /// Bit-mask over neuron indices with one bit set per in-range member
    /// (out-of-range entries and duplicates are ignored).
    fn member_word_mask(&self, members: &[usize]) -> Vec<u64> {
        let mut mask = vec![0u64; self.words_per_row];
        for &m in members {
            if m < self.n {
                mask[m / 64] |= 1 << (m % 64);
            }
        }
        mask
    }

    /// Number of connections `(i, j)` with both `i` and `j` inside
    /// `members` — the within-cluster connections a crossbar would absorb.
    ///
    /// Only member rows are visited, AND-ed word-by-word against the
    /// member mask: O(|members|·words) instead of a full-matrix scan.
    pub fn connections_within(&self, members: &[usize]) -> usize {
        let mask = self.member_word_mask(members);
        let mut count = 0;
        for i in mask_rows(&mask, self.n) {
            let row = &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row];
            count += row
                .iter()
                .zip(&mask)
                .map(|(w, m)| (w & m).count_ones() as usize)
                .sum::<usize>();
        }
        count
    }

    /// Removes every connection `(i, j)` with both endpoints in `members`
    /// and returns how many were removed. This is the "delete connections
    /// within Ai from R" step of ISC (Algorithm 3, line 12).
    ///
    /// Word-level like [`connections_within`](Self::connections_within):
    /// each member row is popcounted against the member mask and cleared
    /// in one pass, so a selected cluster is deleted in
    /// O(|members|·words) regardless of how large the network is.
    pub fn remove_within(&mut self, members: &[usize]) -> usize {
        let mask = self.member_word_mask(members);
        let mut removed = 0;
        for i in mask_rows(&mask, self.n) {
            let row = &mut self.bits[i * self.words_per_row..(i + 1) * self.words_per_row];
            for (w, m) in row.iter_mut().zip(&mask) {
                removed += (*w & m).count_ones() as usize;
                *w &= !m;
            }
        }
        removed
    }

    /// Dense `{0,1}` matrix view (used by the spectral embedding).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.n, self.n);
        for (i, j) in self.iter() {
            m[(i, j)] = 1.0;
        }
        m
    }

    /// Builds from a dense matrix, treating entries with `|v| > tol` as
    /// connections.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyRequest`] for an empty matrix and
    /// [`NetError::PatternDimensionMismatch`] for a non-square one.
    pub fn from_dense(m: &DenseMatrix, tol: f64) -> Result<Self, NetError> {
        if m.nrows() == 0 {
            return Err(NetError::EmptyRequest {
                what: "connection matrix",
            });
        }
        if m.nrows() != m.ncols() {
            return Err(NetError::PatternDimensionMismatch {
                expected: m.nrows(),
                found: m.ncols(),
            });
        }
        let mut out = Self::empty(m.nrows())?;
        for i in 0..m.nrows() {
            for j in 0..m.ncols() {
                if m[(i, j)].abs() > tol {
                    out.connect(i, j)?;
                }
            }
        }
        Ok(out)
    }

    /// The union of two networks of the same size.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PatternDimensionMismatch`] if sizes differ.
    pub fn union(&self, other: &ConnectionMatrix) -> Result<ConnectionMatrix, NetError> {
        if self.n != other.n {
            return Err(NetError::PatternDimensionMismatch {
                expected: self.n,
                found: other.n,
            });
        }
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        Ok(out)
    }

    /// Connections present in `self` but not in `other` (set difference).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PatternDimensionMismatch`] if sizes differ.
    pub fn difference(&self, other: &ConnectionMatrix) -> Result<ConnectionMatrix, NetError> {
        if self.n != other.n {
            return Err(NetError::PatternDimensionMismatch {
                expected: self.n,
                found: other.n,
            });
        }
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
        Ok(out)
    }
}

impl fmt::Display for ConnectionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ConnectionMatrix({} neurons, {} connections, sparsity {:.2}%)",
            self.n,
            self.connections(),
            self.sparsity() * 100.0
        )
    }
}

/// Iterator over the set-bit positions (`< n`) of a word-packed mask.
fn mask_rows(mask: &[u64], n: usize) -> impl Iterator<Item = usize> + '_ {
    mask.iter()
        .enumerate()
        .flat_map(|(wi, &w)| BitIter {
            word: w,
            base: wi * 64,
        })
        .take_while(move |&b| b < n)
}

/// Iterator over set-bit positions of a single word.
struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_connections() {
        let m = ConnectionMatrix::empty(5).unwrap();
        assert_eq!(m.connections(), 0);
        assert_eq!(m.sparsity(), 1.0);
        assert!(ConnectionMatrix::empty(0).is_err());
    }

    #[test]
    fn connect_disconnect_roundtrip() {
        let mut m = ConnectionMatrix::empty(100).unwrap();
        m.connect(3, 77).unwrap();
        assert!(m.is_connected(3, 77));
        assert!(!m.is_connected(77, 3));
        m.disconnect(3, 77).unwrap();
        assert!(!m.is_connected(3, 77));
        assert!(m.connect(100, 0).is_err());
        assert!(m.disconnect(0, 100).is_err());
    }

    #[test]
    fn bit_packing_across_word_boundaries() {
        let mut m = ConnectionMatrix::empty(130).unwrap();
        for j in [0, 63, 64, 65, 127, 128, 129] {
            m.connect(1, j).unwrap();
        }
        let targets: Vec<usize> = m.fanout_of(1).collect();
        assert_eq!(targets, vec![0, 63, 64, 65, 127, 128, 129]);
        assert_eq!(m.fanout(1), 7);
    }

    #[test]
    fn fanin_fanout_counts() {
        let m = ConnectionMatrix::from_pairs(4, [(0, 1), (0, 2), (2, 1), (3, 0)]).unwrap();
        assert_eq!(m.fanout(0), 2);
        assert_eq!(m.fanin(1), 2);
        assert_eq!(m.fanin_fanout(0), 3); // fanin 1 (from 3), fanout 2
        assert_eq!(m.fanin_fanout(1), 2);
    }

    #[test]
    fn row_neighbors_matches_fanout() {
        let m = ConnectionMatrix::from_pairs(70, [(2, 1), (2, 65), (2, 2)]).unwrap();
        let got: Vec<usize> = m.row_neighbors(2).collect();
        assert_eq!(got, vec![1, 2, 65]);
        assert_eq!(m.row_neighbors(0).count(), 0);
    }

    #[test]
    fn iteration_yields_all_pairs() {
        let pairs = [(0, 1), (1, 0), (2, 2)];
        let m = ConnectionMatrix::from_pairs(3, pairs).unwrap();
        let got: Vec<(usize, usize)> = m.iter().collect();
        assert_eq!(got, vec![(0, 1), (1, 0), (2, 2)]);
    }

    #[test]
    fn symmetrize_and_check() {
        let m = ConnectionMatrix::from_pairs(3, [(0, 1)]).unwrap();
        assert!(!m.is_symmetric());
        let s = m.symmetrized();
        assert!(s.is_symmetric());
        assert_eq!(s.connections(), 2);
        assert_eq!(s.degrees(), vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn within_cluster_counting_and_removal() {
        let mut m =
            ConnectionMatrix::from_pairs(5, [(0, 1), (1, 0), (0, 4), (2, 3), (3, 2)]).unwrap();
        assert_eq!(m.connections_within(&[0, 1]), 2);
        assert_eq!(m.connections_within(&[0, 1, 4]), 3);
        assert_eq!(m.connections_within(&[4]), 0);
        let removed = m.remove_within(&[0, 1]);
        assert_eq!(removed, 2);
        assert_eq!(m.connections(), 3);
        assert!(m.is_connected(0, 4), "cross-cluster connection survives");
    }

    #[test]
    fn dense_roundtrip() {
        let m = ConnectionMatrix::from_pairs(3, [(0, 2), (1, 1)]).unwrap();
        let d = m.to_dense();
        assert_eq!(d[(0, 2)], 1.0);
        assert_eq!(d[(0, 0)], 0.0);
        let back = ConnectionMatrix::from_dense(&d, 0.5).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn union_and_difference() {
        let a = ConnectionMatrix::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        let b = ConnectionMatrix::from_pairs(3, [(1, 2), (2, 0)]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.connections(), 3);
        let d = a.difference(&b).unwrap();
        assert_eq!(d.connections(), 1);
        assert!(d.is_connected(0, 1));
        let c = ConnectionMatrix::empty(4).unwrap();
        assert!(a.union(&c).is_err());
        assert!(a.difference(&c).is_err());
    }

    /// Seeded pseudo-random matrix without going through `generators`
    /// (keeps these unit tests independent of generator semantics).
    fn lcg_matrix(n: usize, seed: u64, keep_mod: u64) -> ConnectionMatrix {
        let mut m = ConnectionMatrix::empty(n).unwrap();
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for i in 0..n {
            for j in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state.is_multiple_of(keep_mod) {
                    m.connect(i, j).unwrap();
                }
            }
        }
        m
    }

    #[test]
    fn bulk_degree_kernels_match_naive_bit_probes() {
        for n in [5, 63, 64, 65, 130] {
            let m = lcg_matrix(n, n as u64, 7);
            let naive_out: Vec<usize> = (0..n).map(|i| m.fanout(i)).collect();
            assert_eq!(m.out_degrees(), naive_out, "out_degrees at n={n}");
            let naive_in: Vec<usize> = (0..n)
                .map(|j| (0..n).filter(|&i| m.is_connected(i, j)).count())
                .collect();
            assert_eq!(m.fanins(), naive_in, "fanins at n={n}");
            let mut buf = vec![usize::MAX; 3];
            for i in 0..n {
                m.row_neighbors_into(i, &mut buf);
                let naive: Vec<usize> = m.fanout_of(i).collect();
                assert_eq!(buf, naive, "row_neighbors_into at n={n} row={i}");
            }
        }
    }

    #[test]
    fn word_level_within_kernels_match_naive_scan() {
        for (n, members) in [
            (65, vec![0, 1, 63, 64]),
            (130, vec![5, 5, 128, 129, 7]),
            (40, vec![]),
            (40, (0..40).collect::<Vec<_>>()),
        ] {
            let m = lcg_matrix(n, 99, 5);
            // Naive reference: bool mask plus a full-matrix scan, exactly
            // the pre-word-level implementation.
            let mut mask = vec![false; n];
            for &mm in &members {
                if mm < n {
                    mask[mm] = true;
                }
            }
            let naive_count = m.iter().filter(|&(i, j)| mask[i] && mask[j]).count();
            assert_eq!(
                m.connections_within(&members),
                naive_count,
                "connections_within n={n}"
            );
            let mut naive_removed = m.clone();
            let doomed: Vec<(usize, usize)> =
                m.iter().filter(|&(i, j)| mask[i] && mask[j]).collect();
            for &(i, j) in &doomed {
                naive_removed.set(i, j, false);
            }
            let mut fast_removed = m.clone();
            let removed = fast_removed.remove_within(&members);
            assert_eq!(removed, doomed.len(), "removal count n={n}");
            assert_eq!(fast_removed, naive_removed, "post-removal bits n={n}");
        }
    }

    #[test]
    fn sparsity_definition_uses_n_squared() {
        let mut m = ConnectionMatrix::empty(10).unwrap();
        for j in 0..10 {
            m.connect(0, j).unwrap();
        }
        assert!((m.sparsity() - 0.9).abs() < 1e-12);
        assert!((m.density() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_sparsity() {
        let m = ConnectionMatrix::empty(4).unwrap();
        assert!(m.to_string().contains("sparsity"));
    }
}
