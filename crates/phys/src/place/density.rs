//! Grid-binned density field for the Nesterov placement engine.
//!
//! The reference placer scores density with the paper's Eq. 2 — a sum
//! over *pairs* of nearby cells — which is the known-slow corner of
//! analytical placement: every gradient evaluation rebuilds a spatial
//! hash and walks O(n·neighbors) pairs. This module replaces the pairs
//! with an electrostatic-style field: cells deposit their (virtually
//! inflated) area into an m×m grid of bins over a fixed die region, the
//! per-bin overflow over a target utilization is penalized
//! quadratically, and the gradient of the penalty with respect to every
//! cell coordinate follows from the piecewise-linear cell/bin overlap
//! in a second sweep. One evaluation costs O(n·b + m²) where `b` is the
//! handful of bins a cell touches — independent of how clumped the
//! placement is.
//!
//! Cells narrower than a bin are inflated to `√2` bin widths with their
//! deposited density scaled down to conserve area (ePlace's local
//! smoothing): an uninflated cell strictly inside one bin would have a
//! zero density gradient and never feel spreading pressure.
//!
//! Determinism: the bin field is accumulated by cell chunks whose
//! partial fields fold in ascending chunk order, and the gradient sweep
//! writes only to each cell's own slots — both bit-identical at any
//! `NCS_THREADS`.

use crate::Netlist;

/// Cells per chunk of the parallel field/gradient sweeps. Fixed — part
/// of the numeric contract, never derived from the thread count.
const DENSITY_GRID_GRAIN: usize = 256;

/// Minimum cells before the density sweeps fan out across ncs-par workers.
const DENSITY_GRID_MIN_ITEMS: usize = 4 * DENSITY_GRID_GRAIN;

/// Virtual-inflation floor in units of bin width: cells narrower than
/// this many bins are widened (density-conserving) so they always
/// straddle at least one bin boundary and keep a live gradient.
const SMOOTH_BINS: f64 = std::f64::consts::SQRT_2;

/// A fixed die region binned into `cols × rows` equal rectangles.
///
/// The region is decided once per placement run (from the total virtual
/// cell area and the target utilization) so the field does not swim
/// under the optimizer as cells spread.
#[derive(Debug, Clone)]
pub(crate) struct DensityGrid {
    /// Bins per axis.
    pub cols: usize,
    /// Bins per axis.
    pub rows: usize,
    /// Die lower-left corner.
    pub x0: f64,
    /// Die lower-left corner.
    pub y0: f64,
    /// Bin width, µm.
    pub bin_w: f64,
    /// Bin height, µm.
    pub bin_h: f64,
    /// Target utilization per bin in (0, 1].
    pub target: f64,
    /// Per-cell virtually inflated half-extents and deposit scale:
    /// `(half_w, half_h, scale)` with `scale` chosen so the deposited
    /// area equals the cell's virtual area.
    extents: Vec<(f64, f64, f64)>,
    /// Per-bin deposited area, row-major — rebuilt by [`Self::evaluate`].
    field: Vec<f64>,
    /// Per-bin penalty derivative `∂D/∂field_b`, filled after the field.
    coeff: Vec<f64>,
}

/// One density evaluation: penalty value and the overflow fraction
/// (overflowing area over total deposited area, the Nesterov engine's
/// convergence metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DensityEval {
    /// Σ_b max(0, ρ_b − target)² over the grid.
    pub penalty: f64,
    /// Σ_b max(0, area_b − target·bin_area) / Σ cell area, in [0, ∞).
    pub overflow: f64,
}

impl DensityGrid {
    /// Builds the grid for `netlist`: a square die sized so the virtual
    /// cell area fills `target` of it, centred on the centroid of the
    /// starting placement, with `bins` bins per axis (0 = auto,
    /// `⌈√n⌉` clamped to `[4, 256]`).
    pub fn new(
        netlist: &Netlist,
        xs: &[f64],
        ys: &[f64],
        omega: f64,
        target: f64,
        bins: usize,
    ) -> DensityGrid {
        let n = netlist.cells.len();
        let m = if bins == 0 {
            ((n as f64).sqrt().ceil() as usize).clamp(4, 256)
        } else {
            bins.max(2)
        };
        let virtual_area: f64 = netlist
            .cells
            .iter()
            .map(|c| (omega * c.dims.width) * (omega * c.dims.height))
            .sum();
        let max_w = netlist
            .cells
            .iter()
            .map(|c| c.dims.width)
            .fold(0.0_f64, f64::max);
        let max_h = netlist
            .cells
            .iter()
            .map(|c| c.dims.height)
            .fold(0.0_f64, f64::max);
        // The die must hold the virtual area at the target utilization
        // and be at least one macro wide in each direction.
        let side = (virtual_area / target.max(1e-3)).sqrt().max(1.0);
        let side = side.max(omega * max_w).max(omega * max_h);
        let cx = xs.iter().sum::<f64>() / n as f64;
        let cy = ys.iter().sum::<f64>() / n as f64;
        let x0 = cx - side / 2.0;
        let y0 = cy - side / 2.0;
        let bin_w = side / m as f64;
        let bin_h = side / m as f64;
        let extents = netlist
            .cells
            .iter()
            .map(|c| {
                let vw = omega * c.dims.width;
                let vh = omega * c.dims.height;
                let hw = vw.max(SMOOTH_BINS * bin_w) / 2.0;
                let hh = vh.max(SMOOTH_BINS * bin_h) / 2.0;
                // Conserve area: the inflated rectangle deposits the
                // cell's true virtual area.
                let scale = (vw * vh) / (4.0 * hw * hh);
                (hw, hh, scale)
            })
            .collect();
        DensityGrid {
            cols: m,
            rows: m,
            x0,
            y0,
            bin_w,
            bin_h,
            target,
            extents,
            field: vec![0.0; m * m],
            coeff: vec![0.0; m * m],
        }
    }

    /// Clamps a cell centre into the die so its inflated extent stays on
    /// the grid (lookahead points of the Nesterov solver can overshoot).
    pub fn clamp(&self, i: usize, x: f64, y: f64) -> (f64, f64) {
        let (hw, hh, _) = self.extents[i];
        let x1 = self.x0 + self.cols as f64 * self.bin_w;
        let y1 = self.y0 + self.rows as f64 * self.bin_h;
        // A macro wider than the die parks at the centre.
        let cx = if 2.0 * hw >= x1 - self.x0 {
            (self.x0 + x1) / 2.0
        } else {
            x.clamp(self.x0 + hw, x1 - hw)
        };
        let cy = if 2.0 * hh >= y1 - self.y0 {
            (self.y0 + y1) / 2.0
        } else {
            y.clamp(self.y0 + hh, y1 - hh)
        };
        (cx, cy)
    }

    /// Evaluates the density penalty at `p = [x..., y...]` and, when
    /// `grad` is given, accumulates `∂D/∂p` into it (same layout).
    ///
    /// Cost: one O(n·bins-per-cell) deposit sweep (chunk-parallel,
    /// folded in chunk order), one O(m²) coefficient pass, and — with a
    /// gradient — one more O(n·bins-per-cell) sweep writing only each
    /// cell's own slots.
    pub fn evaluate(&mut self, p: &[f64], grad: Option<&mut [f64]>) -> DensityEval {
        let n = self.extents.len();
        let (xs, ys) = p.split_at(n);
        self.deposit(xs, ys);
        let bin_area = self.bin_w * self.bin_h;
        let cap = self.target * bin_area;
        let mut penalty = 0.0;
        let mut over_area = 0.0;
        let mut total_area = 0.0;
        for (f, c) in self.field.iter().zip(self.coeff.iter_mut()) {
            total_area += f;
            let over = f - cap;
            if over > 0.0 {
                let rho = over / bin_area;
                penalty += rho * rho;
                over_area += over;
                // d(rho²)/d(field) = 2·over/bin_area².
                *c = 2.0 * over / (bin_area * bin_area);
            } else {
                *c = 0.0;
            }
        }
        if let Some(g) = grad {
            self.gradient(xs, ys, g);
        }
        DensityEval {
            penalty,
            overflow: if total_area > 0.0 {
                over_area / total_area
            } else {
                0.0
            },
        }
    }

    /// Rebuilds the per-bin deposited-area field from cell centres.
    fn deposit(&mut self, xs: &[f64], ys: &[f64]) {
        let n = self.extents.len();
        let bins = self.cols * self.rows;
        let grid = &*self;
        let cutoff = ncs_par::Cutoff::min_work(DENSITY_GRID_MIN_ITEMS);
        let partials = ncs_par::par_map_reduce(
            n,
            DENSITY_GRID_GRAIN,
            cutoff,
            // ncs-lint: hot
            |r| {
                let mut local = vec![0.0; bins];
                for i in r {
                    grid.splat(i, xs[i], ys[i], &mut local);
                }
                local
            },
            vec![0.0; bins],
            |mut acc, local| {
                for (a, l) in acc.iter_mut().zip(&local) {
                    *a += l;
                }
                acc
            },
        );
        self.field.copy_from_slice(&partials);
    }

    /// Deposits cell `i`'s inflated rectangle into `field`.
    // ncs-lint: hot
    fn splat(&self, i: usize, x: f64, y: f64, field: &mut [f64]) {
        let (hw, hh, scale) = self.extents[i];
        let (x, y) = self.clamp_raw(x, y, hw, hh);
        let (c0, c1) = self.span_cols(x - hw, x + hw);
        let (r0, r1) = self.span_rows(y - hh, y + hh);
        for r in r0..r1 {
            let oy = self.overlap_y(r, y - hh, y + hh);
            let row = r * self.cols;
            for c in c0..c1 {
                let ox = self.overlap_x(c, x - hw, x + hw);
                field[row + c] += scale * ox * oy;
            }
        }
    }

    /// Adds cell `i`'s density-gradient contribution to its own grad
    /// slots, reading the precomputed per-bin coefficients.
    // ncs-lint: hot
    fn grad_cell(&self, i: usize, x: f64, y: f64) -> (f64, f64) {
        let (hw, hh, scale) = self.extents[i];
        let (x, y) = self.clamp_raw(x, y, hw, hh);
        let (c0, c1) = self.span_cols(x - hw, x + hw);
        let (r0, r1) = self.span_rows(y - hh, y + hh);
        let mut gx = 0.0;
        let mut gy = 0.0;
        for r in r0..r1 {
            let oy = self.overlap_y(r, y - hh, y + hh);
            let doy = self.d_overlap_y(r, y - hh, y + hh);
            let row = r * self.cols;
            for c in c0..c1 {
                let coeff = self.coeff[row + c];
                // ncs-lint: allow(float-eq) — coeff is set to exactly 0.0 for non-overflowing bins; the skip is a no-op elision
                if coeff == 0.0 {
                    continue;
                }
                let ox = self.overlap_x(c, x - hw, x + hw);
                let dox = self.d_overlap_x(c, x - hw, x + hw);
                gx += coeff * scale * dox * oy;
                gy += coeff * scale * ox * doy;
            }
        }
        (gx, gy)
    }

    /// Gradient sweep: each cell's (gx, gy) computed independently and
    /// written to its own slots in `grad` (layout `[∂x..., ∂y...]`).
    fn gradient(&self, xs: &[f64], ys: &[f64], grad: &mut [f64]) {
        let n = self.extents.len();
        let cutoff = ncs_par::Cutoff::min_work(DENSITY_GRID_MIN_ITEMS);
        let parts = ncs_par::par_map(xs, DENSITY_GRID_GRAIN, cutoff, |i, &x| {
            self.grad_cell(i, x, ys[i])
        });
        for (i, (gx, gy)) in parts.into_iter().enumerate() {
            grad[i] += gx;
            grad[n + i] += gy;
        }
    }

    fn clamp_raw(&self, x: f64, y: f64, hw: f64, hh: f64) -> (f64, f64) {
        let x1 = self.x0 + self.cols as f64 * self.bin_w;
        let y1 = self.y0 + self.rows as f64 * self.bin_h;
        let cx = if 2.0 * hw >= x1 - self.x0 {
            (self.x0 + x1) / 2.0
        } else {
            x.clamp(self.x0 + hw, x1 - hw)
        };
        let cy = if 2.0 * hh >= y1 - self.y0 {
            (self.y0 + y1) / 2.0
        } else {
            y.clamp(self.y0 + hh, y1 - hh)
        };
        (cx, cy)
    }

    /// Bin columns intersecting `[lo, hi]`, as a half-open range.
    fn span_cols(&self, lo: f64, hi: f64) -> (usize, usize) {
        let c0 = (((lo - self.x0) / self.bin_w).floor().max(0.0)) as usize;
        let c1 = ((((hi - self.x0) / self.bin_w).ceil()).max(0.0) as usize).min(self.cols);
        (c0.min(self.cols), c1)
    }

    fn span_rows(&self, lo: f64, hi: f64) -> (usize, usize) {
        let r0 = (((lo - self.y0) / self.bin_h).floor().max(0.0)) as usize;
        let r1 = ((((hi - self.y0) / self.bin_h).ceil()).max(0.0) as usize).min(self.rows);
        (r0.min(self.rows), r1)
    }

    /// Overlap length of `[lo, hi]` with column `c`.
    fn overlap_x(&self, c: usize, lo: f64, hi: f64) -> f64 {
        let b0 = self.x0 + c as f64 * self.bin_w;
        let b1 = b0 + self.bin_w;
        (hi.min(b1) - lo.max(b0)).max(0.0)
    }

    fn overlap_y(&self, r: usize, lo: f64, hi: f64) -> f64 {
        let b0 = self.y0 + r as f64 * self.bin_h;
        let b1 = b0 + self.bin_h;
        (hi.min(b1) - lo.max(b0)).max(0.0)
    }

    /// `∂/∂x` of [`Self::overlap_x`]: the cell's right edge inside the
    /// bin contributes +1, its left edge −1 (both inside the same bin
    /// cannot happen once inflated past a bin width — the net is 0 and
    /// so is the true derivative of a constant full overlap).
    fn d_overlap_x(&self, c: usize, lo: f64, hi: f64) -> f64 {
        if hi.min(self.x0 + (c + 1) as f64 * self.bin_w) <= lo.max(self.x0 + c as f64 * self.bin_w)
        {
            return 0.0;
        }
        let b0 = self.x0 + c as f64 * self.bin_w;
        let b1 = b0 + self.bin_w;
        f64::from(hi < b1) - f64::from(lo > b0)
    }

    fn d_overlap_y(&self, r: usize, lo: f64, hi: f64) -> f64 {
        if hi.min(self.y0 + (r + 1) as f64 * self.bin_h) <= lo.max(self.y0 + r as f64 * self.bin_h)
        {
            return 0.0;
        }
        let b0 = self.y0 + r as f64 * self.bin_h;
        let b1 = b0 + self.bin_h;
        f64::from(hi < b1) - f64::from(lo > b0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;
    use ncs_cluster::{CrossbarAssignment, HybridMapping};
    use ncs_tech::TechnologyModel;

    fn mixed_netlist() -> Netlist {
        let xbar = CrossbarAssignment::new(vec![0, 1, 2], vec![0, 1, 2], 16, vec![(0, 1), (1, 2)]);
        let mapping = HybridMapping::new(6, vec![xbar], vec![(3, 4), (4, 5)]);
        Netlist::from_mapping(&mapping, &TechnologyModel::nm45())
    }

    /// Deterministic pseudo-random positions away from bin-boundary
    /// kinks of the piecewise-linear overlap.
    fn jittered_positions(n: usize, spread: f64, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..2 * n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * spread
            })
            .collect()
    }

    #[test]
    fn field_conserves_total_area() {
        let nl = mixed_netlist();
        let n = nl.cells.len();
        let p = jittered_positions(n, 10.0, 7);
        let mut grid = DensityGrid::new(&nl, &p[..n], &p[n..], 1.2, 0.9, 8);
        grid.evaluate(&p, None);
        let deposited: f64 = grid.field.iter().sum();
        let virtual_area: f64 = nl
            .cells
            .iter()
            .map(|c| 1.2 * c.dims.width * 1.2 * c.dims.height)
            .sum();
        assert!(
            (deposited - virtual_area).abs() < 1e-6 * virtual_area,
            "deposited {deposited} vs virtual {virtual_area}"
        );
    }

    #[test]
    fn clumped_placement_overflows_and_spread_relieves_it() {
        let nl = mixed_netlist();
        let n = nl.cells.len();
        // Everyone at the origin: maximal overflow.
        let clumped = vec![0.0; 2 * n];
        let mut grid = DensityGrid::new(&nl, &clumped[..n], &clumped[n..], 1.2, 0.9, 8);
        let tight = grid.evaluate(&clumped, None);
        assert!(tight.penalty > 0.0);
        assert!(tight.overflow > 0.0);
        // Spread out: strictly better on both metrics.
        let spread = jittered_positions(n, 60.0, 3);
        let loose = grid.evaluate(&spread, None);
        assert!(loose.penalty < tight.penalty);
        assert!(loose.overflow < tight.overflow);
    }

    /// Pulls every coordinate of `p` strictly inside the die (the
    /// gradient is only meaningful away from the clamp boundary, where
    /// finite differences see the clamped — constant — objective).
    fn pull_inside(grid: &DensityGrid, p: &mut [f64]) {
        let n = p.len() / 2;
        let cx = grid.x0 + grid.cols as f64 * grid.bin_w / 2.0;
        let cy = grid.y0 + grid.rows as f64 * grid.bin_h / 2.0;
        for i in 0..n {
            let (x, y) = grid.clamp(i, p[i], p[n + i]);
            p[i] = x + 0.07 * (cx - x);
            p[n + i] = y + 0.07 * (cy - y);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let nl = mixed_netlist();
        let n = nl.cells.len();
        let mut p = jittered_positions(n, 8.0, 13);
        let mut grid = DensityGrid::new(&nl, &p[..n], &p[n..], 1.2, 0.9, 8);
        pull_inside(&grid, &mut p);
        let mut grad = vec![0.0; 2 * n];
        let e0 = grid.evaluate(&p, Some(&mut grad));
        assert!(e0.penalty > 0.0, "expected an overflowing configuration");
        let h = 1e-6;
        for idx in 0..2 * n {
            p[idx] += h;
            let f1 = grid.evaluate(&p, None).penalty;
            p[idx] -= 2.0 * h;
            let f2 = grid.evaluate(&p, None).penalty;
            p[idx] += h;
            let fd = (f1 - f2) / (2.0 * h);
            assert!(
                (fd - grad[idx]).abs() < 1e-3 * (1.0 + fd.abs()),
                "idx {idx}: analytic {} vs fd {fd}",
                grad[idx]
            );
        }
    }

    #[test]
    fn negative_gradient_is_a_descent_direction() {
        // A small step against the gradient must lower the penalty —
        // i.e. the field genuinely spreads overflowing bins apart.
        let nl = mixed_netlist();
        let n = nl.cells.len();
        let mut p = jittered_positions(n, 4.0, 17);
        let mut grid = DensityGrid::new(&nl, &p[..n], &p[n..], 1.2, 0.9, 8);
        pull_inside(&grid, &mut p);
        let mut grad = vec![0.0; 2 * n];
        let e0 = grid.evaluate(&p, Some(&mut grad));
        assert!(e0.penalty > 0.0, "expected an overflowing configuration");
        let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        assert!(gnorm > 0.0);
        let t = 1e-4 * grid.bin_w / gnorm * n as f64;
        let stepped: Vec<f64> = p.iter().zip(&grad).map(|(x, g)| x - t * g).collect();
        let e1 = grid.evaluate(&stepped, None);
        assert!(
            e1.penalty < e0.penalty,
            "descent step raised the penalty: {} -> {}",
            e0.penalty,
            e1.penalty
        );
    }

    #[test]
    fn evaluation_is_bit_identical_across_thread_counts() {
        let nl = mixed_netlist();
        let n = nl.cells.len();
        let p = jittered_positions(n, 12.0, 29);
        let run = |threads: usize| {
            ncs_par::set_thread_override(Some(threads));
            let mut grid = DensityGrid::new(&nl, &p[..n], &p[n..], 1.2, 0.9, 8);
            let mut grad = vec![0.0; 2 * n];
            let eval = grid.evaluate(&p, Some(&mut grad));
            ncs_par::set_thread_override(None);
            (
                eval.penalty.to_bits(),
                grad.iter().map(|g| g.to_bits()).collect::<Vec<u64>>(),
            )
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn auto_bin_count_scales_with_cell_count() {
        let nl = mixed_netlist();
        let n = nl.cells.len();
        let p = vec![0.0; 2 * n];
        let grid = DensityGrid::new(&nl, &p[..n], &p[n..], 1.2, 0.9, 0);
        assert!(grid.cols >= 4 && grid.cols <= 256);
        assert_eq!(grid.cols, grid.rows);
    }

    #[test]
    fn clamp_keeps_cells_on_the_die() {
        let nl = mixed_netlist();
        let n = nl.cells.len();
        let p = vec![0.0; 2 * n];
        let grid = DensityGrid::new(&nl, &p[..n], &p[n..], 1.2, 0.9, 8);
        let (x, y) = grid.clamp(0, -1e9, 1e9);
        let side = grid.cols as f64 * grid.bin_w;
        assert!(x >= grid.x0 && x <= grid.x0 + side);
        assert!(y >= grid.y0 && y <= grid.y0 + side);
    }
}
