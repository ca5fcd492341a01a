use ncs_linalg::optimize::{minimize, CgOptions};

use crate::{CellId, Netlist, PhysError};

/// Options for the analytical placer of Algorithm 4: the WA wirelength
/// and pairwise density models, the λ-doubling CG schedule, the
/// push-apart legalizer and the optional detailed swap.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerOptions {
    /// Smoothness `γ` of the weighted-average wirelength model, µm.
    /// Smaller values track HPWL more closely but are harder to optimize.
    pub gamma: f64,
    /// Virtual-width factor `ω ≥ 1`: cells repel each other as if they were
    /// `ω×` wider/taller, reserving space for routing (Section 3.5).
    pub omega: f64,
    /// Multiplier applied to the density penalty `λ` each outer iteration
    /// (Algorithm 4 line 5 doubles it).
    pub lambda_multiplier: f64,
    /// Maximum outer (λ-escalation) iterations.
    pub max_outer_iterations: usize,
    /// Stop when the total pairwise overlap area falls below this fraction
    /// of the total cell area.
    pub overlap_stop_fraction: f64,
    /// Conjugate-gradient options for the inner solve.
    pub cg: CgOptions,
    /// Maximum pairwise push-apart passes during legalization.
    pub legalizer_passes: usize,
    /// Detailed-placement refinement passes after legalization: same-size
    /// cells are greedily swapped whenever the swap shortens the weighted
    /// HPWL of their incident wires. Legality is preserved exactly
    /// (identical footprints exchange positions). 0 disables refinement
    /// (the default, matching the paper's flow).
    pub detailed_swap_passes: usize,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        PlacerOptions {
            gamma: 2.0,
            omega: 1.2,
            lambda_multiplier: 2.0,
            max_outer_iterations: 10,
            overlap_stop_fraction: 0.05,
            cg: CgOptions {
                max_iterations: 120,
                gradient_tolerance: 1e-4,
                ..CgOptions::default()
            },
            legalizer_passes: 200,
            detailed_swap_passes: 0,
        }
    }
}

impl PlacerOptions {
    /// Reduced-effort configuration for tests and doc examples.
    pub fn fast() -> Self {
        PlacerOptions {
            max_outer_iterations: 5,
            cg: CgOptions {
                max_iterations: 40,
                gradient_tolerance: 1e-3,
                ..CgOptions::default()
            },
            legalizer_passes: 80,
            ..PlacerOptions::default()
        }
    }
}

/// Result of placement: legalized cell-center coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Cell-center x coordinates, µm (indexed by [`CellId`]).
    pub x: Vec<f64>,
    /// Cell-center y coordinates, µm.
    pub y: Vec<f64>,
    /// Outer λ-escalation iterations performed.
    pub outer_iterations: usize,
    /// Remaining overlap area after legalization, µm².
    pub final_overlap_um2: f64,
}

impl Placement {
    /// Center of cell `id`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysError::UnknownCell`] if `id` is out of range.
    pub fn position(&self, id: CellId) -> Result<(f64, f64), PhysError> {
        if id >= self.x.len() {
            return Err(PhysError::UnknownCell { id });
        }
        Ok((self.x[id], self.y[id]))
    }

    /// Axis-aligned bounding box `(min_x, min_y, max_x, max_y)` of all
    /// placed cells including their extents.
    pub fn bounding_box(&self, netlist: &Netlist) -> (f64, f64, f64, f64) {
        let mut bb = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for cell in &netlist.cells {
            let hw = cell.dims.width / 2.0;
            let hh = cell.dims.height / 2.0;
            bb.0 = bb.0.min(self.x[cell.id] - hw);
            bb.1 = bb.1.min(self.y[cell.id] - hh);
            bb.2 = bb.2.max(self.x[cell.id] + hw);
            bb.3 = bb.3.max(self.y[cell.id] + hh);
        }
        bb
    }

    /// Chip (placement bounding-box) area, µm².
    pub fn area_um2(&self, netlist: &Netlist) -> f64 {
        let (x0, y0, x1, y1) = self.bounding_box(netlist);
        ((x1 - x0) * (y1 - y0)).max(0.0)
    }

    /// Weighted half-perimeter wirelength of the placement, µm.
    pub fn weighted_hpwl(&self, netlist: &Netlist) -> f64 {
        netlist
            .wires
            .iter()
            .map(|w| {
                let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
                let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for &p in &w.pins {
                    x0 = x0.min(self.x[p]);
                    x1 = x1.max(self.x[p]);
                    y0 = y0.min(self.y[p]);
                    y1 = y1.max(self.y[p]);
                }
                w.weight * ((x1 - x0) + (y1 - y0))
            })
            .sum()
    }

    /// Exact pairwise overlap area of the placement, µm².
    pub fn overlap_area_um2(&self, netlist: &Netlist) -> f64 {
        overlap_area(netlist, &self.x, &self.y)
    }
}

/// Runs the analytical placement of Algorithm 4: starting from a regular
/// grid, repeatedly minimize `WL(x,y) + λ·D(x,y)` with conjugate gradient,
/// doubling `λ` until the overlap is small, then legalize the remainder
/// with pairwise push-apart.
///
/// # Errors
///
/// Returns [`PhysError::EmptyNetlist`] for a cell-less netlist,
/// [`PhysError::DegenerateWire`] for a wire pin that names no cell, and
/// [`PhysError::InvalidOption`] unless `gamma` is finite and > 0, `omega`
/// finite and ≥ 1, and `lambda_multiplier` finite and > 1.
pub fn place(netlist: &Netlist, options: &PlacerOptions) -> Result<Placement, PhysError> {
    netlist.check()?;
    for (what, value, in_range) in [
        ("gamma", options.gamma, options.gamma > 0.0),
        ("omega", options.omega, options.omega >= 1.0),
        (
            "lambda_multiplier",
            options.lambda_multiplier,
            options.lambda_multiplier > 1.0,
        ),
    ] {
        if !(value.is_finite() && in_range) {
            return Err(PhysError::InvalidOption {
                what,
                value: value.to_string(),
            });
        }
    }

    let mut placement = place_cg(netlist, options);
    if options.detailed_swap_passes > 0 {
        detailed_swap(netlist, &mut placement, options.detailed_swap_passes);
    }
    ncs_trace::record(
        "place.overlap_um2",
        placement.final_overlap_um2.round() as u64,
    );
    Ok(placement)
}

/// The global placement and legalization of Algorithm 4: λ-doubling
/// outer loop over conjugate-gradient inner solves of `WL + λ·D` with
/// the pairwise density, then mixed-size legalization (crossbar macros
/// pushed apart and compacted, small cells gap-filled — the topology of
/// the paper's Figure 10(c)) and a shift to the positive quadrant.
fn place_cg(netlist: &Netlist, options: &PlacerOptions) -> Placement {
    let n = netlist.cells.len();
    // Line 1 of Algorithm 4: initialize cells at regular grid locations.
    let (mut xs, mut ys) = initial_grid(netlist, options.omega);

    let total_area = netlist.total_cell_area().max(1e-9);
    let stop_overlap = options.overlap_stop_fraction * total_area;

    // λ0 = Σ|∂WL| / Σ|∂D| at the initial placement. A spread start can
    // have *no* density pressure at all (every pairwise potential at
    // zero): in that degenerate case the density term is skipped
    // outright (λ = 0) instead of silently pinned to a fake λ = 1, and
    // λ is re-estimated at each outer iteration until the wirelength
    // pull creates real overlap to push against.
    let mut grad_wl = vec![0.0; 2 * n];
    let mut grad_d = vec![0.0; 2 * n];
    let mut work = PairWork::default();
    let point: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
    wa_wirelength(netlist, &point, options.gamma, Some(&mut grad_wl[..]));
    density(
        netlist,
        &point,
        options.omega,
        Some(&mut grad_d[..]),
        &mut work,
    );
    let mut lambda = match initial_lambda(&grad_wl, &grad_d) {
        Some(l) => l,
        None => {
            ncs_trace::add("place.lambda_density_skips", 1);
            0.0
        }
    };

    // Lines 2-6: escalate λ until overlap is under control.
    let mut grad_density = vec![0.0; 2 * n];
    let mut outer = 0;
    for _ in 0..options.max_outer_iterations {
        outer += 1;
        let p0: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        // ncs-lint: allow(float-eq) — λ = 0.0 is an exact sentinel for "density skipped", never a computed value
        if lambda == 0.0 {
            // Degenerate start: try again from the current placement.
            grad_wl.fill(0.0);
            grad_d.fill(0.0);
            wa_wirelength(netlist, &p0, options.gamma, Some(&mut grad_wl[..]));
            density(
                netlist,
                &p0,
                options.omega,
                Some(&mut grad_d[..]),
                &mut work,
            );
            if let Some(l) = initial_lambda(&grad_wl, &grad_d) {
                lambda = l;
            } else {
                ncs_trace::add("place.lambda_density_skips", 1);
            }
        }
        let gamma = options.gamma;
        let omega = options.omega;
        let lam = lambda;
        let result = minimize(
            |p, grad| {
                grad.fill(0.0);
                let wl = wa_wirelength(netlist, p, gamma, Some(grad));
                // ncs-lint: allow(float-eq) — same exact sentinel as above
                if lam == 0.0 {
                    // Density pressure known absent: pure wirelength.
                    return wl;
                }
                grad_density.fill(0.0);
                let d = density(netlist, p, omega, Some(&mut grad_density[..]), &mut work);
                for (g, gd) in grad.iter_mut().zip(&grad_density) {
                    *g += lam * gd;
                }
                wl + lam * d
            },
            p0,
            &options.cg,
        );
        ncs_trace::add("place.cg_iterations", result.iterations as u64);
        xs.copy_from_slice(&result.x[..n]);
        ys.copy_from_slice(&result.x[n..]);
        if overlap_area(netlist, &xs, &ys) <= stop_overlap {
            break;
        }
        if lambda > 0.0 {
            lambda *= options.lambda_multiplier;
        }
    }
    ncs_trace::record("place.outer_iterations", outer as u64);
    ncs_trace::add("place.density_candidates", work.candidates);
    ncs_trace::add("place.density_pairs", work.pairs);

    // Line 7: process the remaining overlap, then normalize.
    legalize_mixed_size(netlist, &mut xs, &mut ys, options.legalizer_passes);
    shift_to_positive_quadrant(netlist, &mut xs, &mut ys);
    let final_overlap = overlap_area(netlist, &xs, &ys);
    Placement {
        x: xs,
        y: ys,
        outer_iterations: outer,
        final_overlap_um2: final_overlap,
    }
}

/// λ0 = Σ|∂WL| / Σ|∂D|, or `None` when there is no density gradient to
/// balance against (the structured condition for the degenerate spread
/// start — callers decide how to proceed instead of inheriting a
/// meaningless λ).
fn initial_lambda(grad_wl: &[f64], grad_d: &[f64]) -> Option<f64> {
    let sum_wl: f64 = grad_wl.iter().map(|g| g.abs()).sum();
    let sum_d: f64 = grad_d.iter().map(|g| g.abs()).sum();
    if sum_d <= 0.0 {
        return None;
    }
    let lambda = sum_wl / sum_d;
    if lambda.is_finite() && lambda > 0.0 {
        Some(lambda)
    } else {
        None
    }
}

/// Cells incident to each wire, and footprint groups of swappable cells,
/// shared by both detailed-placement implementations. A BTreeMap keeps
/// the group visit order a pure function of the netlist (footprints
/// quantized to 1e-6 µm) — hash iteration order would leak into the swap
/// sequence and break bit-identical placement.
#[allow(clippy::type_complexity)]
fn swap_structures(
    netlist: &Netlist,
) -> (
    Vec<Vec<usize>>,
    std::collections::BTreeMap<(u64, u64), Vec<usize>>,
) {
    let mut wires_of: Vec<Vec<usize>> = vec![Vec::new(); netlist.cells.len()];
    for w in &netlist.wires {
        for &p in &w.pins {
            wires_of[p].push(w.id);
        }
    }
    let mut groups: std::collections::BTreeMap<(u64, u64), Vec<usize>> =
        std::collections::BTreeMap::new();
    for cell in &netlist.cells {
        let key = (
            (cell.dims.width * 1e6) as u64,
            (cell.dims.height * 1e6) as u64,
        );
        groups.entry(key).or_default().push(cell.id);
    }
    (wires_of, groups)
}

/// Greedy detailed placement: exchange positions of same-footprint cells
/// whenever the swap shortens the weighted HPWL of their incident wires.
/// Identical footprints make every swap legality-preserving. `netlist`
/// must be one that [`place`] accepts and `placement` that netlist's
/// placement.
///
/// A swap of `a` and `b` moves one pin of each wire it touches, so a
/// candidate costs O(1) per wire: the wire's other pin `o` stays, and its
/// weighted HPWL becomes `w·(|x − x_o| + |y − y_o|)` at the moved pin's
/// new position. A wire whose other pin moves too (one joining `a` and
/// `b`, or with both pins on one cell) keeps its length. The sums run
/// over the wires of `a`, then of `b`, as the full-recompute oracle in
/// the tests does. For finite coordinates each term equals the oracle's
/// up to the sign of a zero, which neither the sums' values nor the `<`
/// test can see, so the accept/reject sequence — and the final
/// placement, bit for bit — cannot diverge from it; the tests pin this
/// on the determinism suite's flow design.
pub fn detailed_swap(netlist: &Netlist, placement: &mut Placement, passes: usize) {
    let (wires_of, groups) = swap_structures(netlist);
    for _ in 0..passes {
        let mut improved = false;
        for members in groups.values() {
            for (ai, &a) in members.iter().enumerate() {
                for &b in &members[ai + 1..] {
                    let (xs, ys) = (&placement.x, &placement.y);
                    let mut before = 0.0;
                    let mut after = 0.0;
                    for (mover, dest) in [(a, b), (b, a)] {
                        for &wid in &wires_of[mover] {
                            let wire = &netlist.wires[wid];
                            let [p, q] = wire.pins;
                            let o = if p == mover { q } else { p };
                            let length_from = |c: CellId| {
                                wire.weight * ((xs[c] - xs[o]).abs() + (ys[c] - ys[o]).abs())
                            };
                            let now = length_from(mover);
                            before += now;
                            after += if o == a || o == b {
                                now
                            } else {
                                length_from(dest)
                            };
                        }
                    }
                    if after + 1e-12 < before {
                        improved = true;
                        placement.x.swap(a, b);
                        placement.y.swap(a, b);
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// Normalizes a placement to the positive quadrant for readability.
fn shift_to_positive_quadrant(netlist: &Netlist, xs: &mut [f64], ys: &mut [f64]) {
    let min_x = netlist
        .cells
        .iter()
        .map(|c| xs[c.id] - c.dims.width / 2.0)
        .fold(f64::INFINITY, f64::min);
    let min_y = netlist
        .cells
        .iter()
        .map(|c| ys[c.id] - c.dims.height / 2.0)
        .fold(f64::INFINITY, f64::min);
    for x in xs.iter_mut() {
        *x -= min_x;
    }
    for y in ys.iter_mut() {
        *y -= min_y;
    }
}

/// Regular grid initialization, roughly area-balanced.
fn initial_grid(netlist: &Netlist, omega: f64) -> (Vec<f64>, Vec<f64>) {
    let n = netlist.cells.len();
    let cols = (n as f64).sqrt().ceil() as usize;
    let total = netlist.total_cell_area() * omega * omega * 2.0;
    let pitch = (total / n as f64).sqrt().max(1.0);
    let mut xs = vec![0.0; n];
    let mut ys = vec![0.0; n];
    for cell in &netlist.cells {
        let r = cell.id / cols;
        let c = cell.id % cols;
        xs[cell.id] = c as f64 * pitch;
        ys[cell.id] = r as f64 * pitch;
    }
    (xs, ys)
}

/// Wires per chunk of the wirelength evaluation. The chunk grid is part
/// of the numeric contract: each chunk's total and scratch gradient fold
/// into the result in ascending chunk order, so this constant determines
/// the rounding of the result.
const WL_GRAIN: usize = 64;

/// Cells per chunk of the density evaluation (same contract as
/// [`WL_GRAIN`]).
const DENSITY_GRAIN: usize = 64;

/// Folds one chunk's evaluation into the running `total` and, when a
/// gradient is requested, into `grad`: `eval` accumulates the chunk's
/// gradient into `scratch` (zeroed here first) and returns its total.
/// Summing per chunk, then folding the chunks in order, is what fixes
/// the rounding of both kernels.
fn fold_chunk(
    total: &mut f64,
    grad: Option<&mut [f64]>,
    scratch: &mut [f64],
    eval: impl FnOnce(Option<&mut [f64]>) -> f64,
) {
    match grad {
        Some(g) => {
            scratch.fill(0.0);
            *total += eval(Some(scratch));
            for (slot, s) in g.iter_mut().zip(scratch.iter()) {
                *slot += s;
            }
        }
        None => *total += eval(None),
    }
}

/// Weighted-average wirelength (Eq. 1) over all wires; optionally
/// accumulates the gradient into `grad` (layout `[∂x..., ∂y...]`).
///
/// Each [`WL_GRAIN`]-wire chunk scatters its gradient into one `2n`
/// scratch buffer, folded into `grad` in chunk order.
// ncs-lint: hot
fn wa_wirelength(netlist: &Netlist, p: &[f64], gamma: f64, mut grad: Option<&mut [f64]>) -> f64 {
    let n = netlist.cells.len();
    let (xs, ys) = p.split_at(n);
    let mut scratch = vec![0.0; if grad.is_some() { 2 * n } else { 0 }];
    let mut total = 0.0;
    for chunk in netlist.wires.chunks(WL_GRAIN) {
        fold_chunk(&mut total, grad.as_deref_mut(), &mut scratch, |mut g| {
            let mut chunk_total = 0.0;
            for wire in chunk {
                let [a, b] = wire.pins;
                for (coords, offset) in [(xs, 0usize), (ys, n)] {
                    let (span, [da, db]) = wa_span(coords[a], coords[b], gamma);
                    chunk_total += wire.weight * span;
                    if let Some(g) = g.as_deref_mut() {
                        g[offset + a] += wire.weight * da;
                        g[offset + b] += wire.weight * db;
                    }
                }
            }
            chunk_total
        });
    }
    total
}

/// WA smooth max-minus-min (Eq. 1) of one coordinate over a wire's pins
/// at `a` and `b`, with its derivatives in `a` and `b`. It is the n-pin
/// WA formula with one `exp` instead of four: the extreme pins' own
/// weights are exp(±0) = 1 and both others are exp((min − max)/γ), as
/// −(max − min) = min − max exactly. Every other operation is the n-pin
/// formula's, in its order; the tests hold the two bit for bit.
// ncs-lint: hot
fn wa_span(a: f64, b: f64, gamma: f64) -> (f64, [f64; 2]) {
    let max = f64::NEG_INFINITY.max(a).max(b);
    let min = f64::INFINITY.min(a).min(b);
    let e = ((min - max) / gamma).exp();
    // The max-side weights of a and b; their min-side weights swap them,
    // so both sides' weights have the same sum.
    let (pa, pb) = if a == max { (1.0, e) } else { (e, 1.0) };
    let sum = pa + pb;
    let wa_max = (a * pa + b * pb) / sum;
    let wa_min = (a * pb + b * pa) / sum;
    let derivs = [
        (pa / sum) * (1.0 + (a - wa_max) / gamma) - (pb / sum) * (1.0 - (a - wa_min) / gamma),
        (pb / sum) * (1.0 + (b - wa_max) / gamma) - (pa / sum) * (1.0 - (b - wa_min) / gamma),
    ];
    (wa_max - wa_min, derivs)
}

/// Smooth finite-support overlap potential along one axis: bell-shaped,
/// C¹, 1 at zero distance, 0 beyond the half-width sum `w`.
fn bell(t: f64, w: f64) -> (f64, f64) {
    let t = t.abs();
    if t <= w / 2.0 {
        (1.0 - 2.0 * t * t / (w * w), -4.0 * t / (w * w))
    } else if t <= w {
        (2.0 * (t - w) * (t - w) / (w * w), 4.0 * (t - w) / (w * w))
    } else {
        (0.0, 0.0)
    }
}

/// Smooth cell-density penalty (Eq. 2): sum over nearby cell pairs of
/// `a_ij · O_x · O_y` where `O` are bell potentials over virtual widths
/// `ω·w`. Optionally accumulates the gradient; adds the pair search's
/// work to `work`.
///
/// The pair set and its order are defined by a coarse bucketing of the
/// plane at the largest virtual extent (so every interacting pair lies
/// in adjacent coarse buckets): cell `i` meets its partners `j > i` by
/// 3×3 coarse-bucket offset, then by ascending `j`. [`PairList::find`]
/// lists the pairs in that order, so the sums see the same terms in the
/// same order as a walk over the coarse buckets.
// ncs-lint: hot
fn density(
    netlist: &Netlist,
    p: &[f64],
    omega: f64,
    mut grad: Option<&mut [f64]>,
    work: &mut PairWork,
) -> f64 {
    let n = netlist.cells.len();
    let (xs, ys) = p.split_at(n);
    let pairs = PairList::find(netlist, xs, ys, omega);
    work.candidates += pairs.candidates;
    work.pairs += pairs.partners.len() as u64;
    // Each pair is charged to the [`DENSITY_GRAIN`]-cell chunk owning
    // its smaller index `i`.
    let mut scratch = vec![0.0; if grad.is_some() { 2 * n } else { 0 }];
    let mut total = 0.0;
    for chunk in netlist.cells.chunks(DENSITY_GRAIN) {
        fold_chunk(&mut total, grad.as_deref_mut(), &mut scratch, |mut g| {
            let mut chunk_total = 0.0;
            for cell in chunk {
                let i = cell.id;
                for &j in pairs.of(i) {
                    let cj = &netlist.cells[j];
                    let wx = omega * (cell.dims.width + cj.dims.width) / 2.0;
                    let wy = omega * (cell.dims.height + cj.dims.height) / 2.0;
                    let tx = xs[i] - xs[j];
                    let ty = ys[i] - ys[j];
                    let (ox, dox) = bell(tx, wx);
                    let (oy, doy) = bell(ty, wy);
                    let aij = cell.dims.area().min(cj.dims.area());
                    chunk_total += aij * ox * oy;
                    if let Some(g) = g.as_deref_mut() {
                        let gx = aij * dox * tx.signum() * oy;
                        let gy = aij * ox * doy * ty.signum();
                        g[i] += gx;
                        g[j] -= gx;
                        g[n + i] += gy;
                        g[n + j] -= gy;
                    }
                }
            }
            chunk_total
        });
    }
    total
}

/// The work of [`density`]'s pair search, summed over evaluations.
#[derive(Debug, Default)]
struct PairWork {
    /// Candidate pairs tested.
    candidates: u64,
    /// Interacting pairs found.
    pairs: u64,
}

/// Relative slack between a grid's pitch and the largest interaction
/// reach it must cover, so rounding in `x / pitch` can never push an
/// interacting pair more than the computed number of buckets apart.
const GRID_SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// The interacting pairs of one [`density`] evaluation, grouped by their
/// smaller index: cell `i`'s partners `j > i` are
/// `partners[start[i]..start[i + 1]]`, ordered by coarse offset, then by
/// `j`.
struct PairList {
    start: Vec<usize>,
    partners: Vec<CellId>,
    /// Candidate pairs the search tested.
    candidates: u64,
}

impl PairList {
    /// Finds every pair of cells whose virtual footprints overlap and
    /// whose coarse keys differ by at most one on each axis, testing each
    /// candidate once.
    ///
    /// Small cells (neurons, synapses) and crossbar macros are binned on
    /// a [`CellGrid`] each. Two members of one grid interact only within
    /// `ω·(w_i + w_j)/2`, at most the grid's reach, and its pitch is
    /// larger, so only from the same or adjacent buckets:
    /// [`CellGrid::sweep`] meets each such pair once. Macro–small pairs
    /// come from each macro's query of the small grid. Stable counting
    /// sorts then put the pairs in order.
    // ncs-lint: hot
    fn find(netlist: &Netlist, xs: &[f64], ys: &[f64], omega: f64) -> Self {
        let n = netlist.cells.len();
        let coarse = (netlist
            .cells
            .iter()
            .map(|c| c.dims.width.max(c.dims.height))
            .fold(0.0_f64, f64::max)
            * omega)
            .max(1.0);
        let (macros, small): (Vec<Member>, Vec<Member>) = netlist
            .cells
            .iter()
            .map(|c| Member {
                id: c.id,
                x: xs[c.id],
                y: ys[c.id],
                width: c.dims.width,
                height: c.dims.height,
                coarse: (
                    (xs[c.id] / coarse).floor() as i64,
                    (ys[c.id] / coarse).floor() as i64,
                ),
            })
            .partition(|m| matches!(netlist.cells[m.id].kind, ncs_tech::CellKind::Crossbar(_)));
        let small = CellGrid::new(small, omega);
        let macros = CellGrid::new(macros, omega);

        let mut found = Found::default();
        small.sweep(|a, others| found.test(a, others, omega));
        macros.sweep(|a, others| found.test(a, others, omega));
        for m in &macros.members {
            let ext = omega * m.width.max(m.height);
            small.visit(m.x, m.y, ext, |row| found.test(m, row, omega));
        }
        let mut pairs = found.slots;
        pairs.truncate(found.len);

        // Least significant digit first: by `j`, by coarse offset, by `i`.
        let (_, pairs) = counting_sort(&pairs, n, |k| pairs[k].2);
        let (_, pairs) = counting_sort(&pairs, 9, |k| pairs[k].1);
        let (start, pairs) = counting_sort(&pairs, n, |k| pairs[k].0);
        PairList {
            start,
            partners: pairs.iter().map(|&(_, _, j)| j).collect(),
            candidates: found.candidates,
        }
    }

    /// Cell `i`'s partners `j`.
    fn of(&self, i: CellId) -> &[CellId] {
        &self.partners[self.start[i]..self.start[i + 1]]
    }
}

/// The pairs found so far, as `(i, coarse offset, j)`.
/// `slots` always has room for the candidates under test: each
/// candidate is written to slot `len`, and kept by advancing `len` when
/// it interacts, so the test does not branch on the outcome.
#[derive(Default)]
struct Found {
    slots: Vec<(CellId, usize, CellId)>,
    len: usize,
    candidates: u64,
}

impl Found {
    /// Tests `a` against each of `others`.
    // ncs-lint: hot
    fn test(&mut self, a: &Member, others: &[Member], omega: f64) {
        self.candidates += others.len() as u64;
        if self.slots.len() < self.len + others.len() {
            let room = (self.len + others.len()).max(2 * self.slots.len());
            self.slots.resize(room, (0, 0, 0));
        }
        for b in others {
            let wx = omega * (a.width + b.width) / 2.0;
            let wy = omega * (a.height + b.height) / 2.0;
            let apart = ((a.x - b.x).abs() >= wx)
                | ((a.y - b.y).abs() >= wy)
                | (a.coarse.0.abs_diff(b.coarse.0) > 1)
                | (a.coarse.1.abs_diff(b.coarse.1) > 1);
            let (lo, hi) = if a.id < b.id { (a, b) } else { (b, a) };
            // The coarse walk's visit order, x offset then y offset: the
            // 3×3 index (dx + 1) · 3 + (dy + 1). Wrapping, as the keys of
            // a pair that is apart may lie far apart.
            let offset = (hi.coarse.0.wrapping_sub(lo.coarse.0))
                .wrapping_mul(3)
                .wrapping_add(hi.coarse.1.wrapping_sub(lo.coarse.1))
                .wrapping_add(4);
            self.slots[self.len] = (lo.id, offset as usize, hi.id);
            self.len += usize::from(!apart);
        }
    }
}

/// Stable counting sort of `items` by `digit(k)`, the digit of
/// `items[k]` (below `buckets`): returns the offsets `start`, where digit
/// `d`'s items are `sorted[start[d]..start[d + 1]]`, and `sorted`.
fn counting_sort<T: Copy>(
    items: &[T],
    buckets: usize,
    digit: impl Fn(usize) -> usize,
) -> (Vec<usize>, Vec<T>) {
    let mut start = vec![0; buckets + 1];
    for k in 0..items.len() {
        start[digit(k) + 1] += 1;
    }
    for d in 0..buckets {
        start[d + 1] += start[d];
    }
    let mut fill = start.clone();
    let mut sorted = items.to_vec();
    for (k, item) in items.iter().enumerate() {
        let d = digit(k);
        sorted[fill[d]] = *item;
        fill[d] += 1;
    }
    (start, sorted)
}

/// A cell as the pair search reads it, copied into its grid's bucket
/// order.
#[derive(Debug, Clone, Copy)]
struct Member {
    id: CellId,
    x: f64,
    y: f64,
    width: f64,
    height: f64,
    /// `(⌊x/b⌋, ⌊y/b⌋)`, where the coarse bucket edge `b` is the largest
    /// virtual extent, at least 1 µm.
    coarse: (i64, i64),
}

/// Cells binned on a uniform grid, CSR-style: bucket `by · cols + bx`
/// holds `members[start[b]..start[b + 1]]`, in ascending id order. The
/// pitch is at least the members' largest virtual extent (`reach`),
/// grown when the members' bounding box would need more than a few
/// buckets per member.
struct CellGrid {
    pitch: f64,
    reach: f64,
    /// Key of bucket column/row 0.
    origin: (i64, i64),
    cols: usize,
    rows: usize,
    start: Vec<usize>,
    members: Vec<Member>,
}

impl CellGrid {
    fn new(members: Vec<Member>, omega: f64) -> Self {
        let reach = members
            .iter()
            .map(|m| m.width.max(m.height))
            .fold(0.0_f64, f64::max)
            * omega;
        let (mut lo, mut hi) = (
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for m in &members {
            if m.x.is_finite() && m.y.is_finite() {
                lo = (lo.0.min(m.x), lo.1.min(m.y));
                hi = (hi.0.max(m.x), hi.1.max(m.y));
            }
        }
        if lo.0 > hi.0 {
            (lo, hi) = ((0.0, 0.0), (0.0, 0.0));
        }
        // At most ~2√members + 2 buckets per axis; and keys no larger than
        // 2^30, so the rounding of `x / pitch` stays far inside the slack.
        let side = 2.0 * (members.len() as f64).sqrt() + 1.0;
        let magnitude = [lo.0, lo.1, hi.0, hi.1]
            .iter()
            .fold(0.0_f64, |m, v| m.max(v.abs()));
        let pitch = (reach * (1.0 + 2.0 * GRID_SLACK))
            .max((hi.0 - lo.0).max(hi.1 - lo.1) / side)
            .max(magnitude / (1u64 << 30) as f64)
            .max(f64::MIN_POSITIVE);
        let key = |v: f64| (v / pitch).floor() as i64;
        let origin = (key(lo.0), key(lo.1));
        let cols = (key(hi.0) - origin.0) as usize + 1;
        let rows = (key(hi.1) - origin.1) as usize + 1;
        // Members off the finite bounding box (non-finite coordinates)
        // are clamped into its edge buckets.
        let bucket: Vec<usize> = members
            .iter()
            .map(|m| {
                let bx = key(m.x).saturating_sub(origin.0).clamp(0, cols as i64 - 1) as usize;
                let by = key(m.y).saturating_sub(origin.1).clamp(0, rows as i64 - 1) as usize;
                by * cols + bx
            })
            .collect();
        let (start, members) = counting_sort(&members, cols * rows, |k| bucket[k]);
        CellGrid {
            pitch,
            reach,
            origin,
            cols,
            rows,
            start,
            members,
        }
    }

    /// Calls `f(a, others)` so that every unordered pair of members in
    /// the same or adjacent buckets is met exactly once (a half stencil):
    /// each member meets its bucket's later members and its E neighbour
    /// bucket, then the NW, N and NE neighbours on the next row. Buckets
    /// adjacent in a row are adjacent in `members`, so each of the two
    /// runs is one slice.
    // ncs-lint: hot
    fn sweep(&self, mut f: impl FnMut(&Member, &[Member])) {
        for by in 0..self.rows {
            for bx in 0..self.cols {
                let b = by * self.cols + bx;
                let east = usize::from(bx + 1 < self.cols);
                let row_end = self.start[b + 1 + east];
                let next_row = if by + 1 < self.rows {
                    let above = b + self.cols;
                    self.start[above - usize::from(bx > 0)]..self.start[above + 1 + east]
                } else {
                    0..0
                };
                for pos in self.start[b]..self.start[b + 1] {
                    let a = &self.members[pos];
                    f(a, &self.members[pos + 1..row_end]);
                    f(a, &self.members[next_row.clone()]);
                }
            }
        }
    }

    /// Calls `f` on runs of members covering every member that could
    /// interact with a cell of virtual extent `ext` centred at `(x, y)`:
    /// all members within `(ext + reach) / 2` per axis, plus possibly a
    /// few farther ones. Each run is one bucket row of the window.
    fn visit(&self, x: f64, y: f64, ext: f64, mut f: impl FnMut(&[Member])) {
        if self.members.is_empty() {
            return;
        }
        let steps = ((ext + self.reach) / 2.0 / self.pitch * (1.0 + GRID_SLACK)).ceil() as i64;
        let key = |v: f64| (v / self.pitch).floor() as i64;
        let span = |k: i64, origin: i64, len: usize| {
            let lo = k.saturating_sub(steps).saturating_sub(origin).max(0);
            let hi = k
                .saturating_add(steps)
                .saturating_sub(origin)
                .min(len as i64 - 1);
            (lo, hi)
        };
        let (x_lo, x_hi) = span(key(x), self.origin.0, self.cols);
        let (y_lo, y_hi) = span(key(y), self.origin.1, self.rows);
        if x_lo > x_hi {
            return;
        }
        for by in y_lo..=y_hi {
            let row = by as usize * self.cols;
            f(&self.members[self.start[row + x_lo as usize]..self.start[row + x_hi as usize + 1]]);
        }
    }
}

/// Exact total pairwise rectangle-overlap area.
fn overlap_area(netlist: &Netlist, xs: &[f64], ys: &[f64]) -> f64 {
    let cells = &netlist.cells;
    let max_width = cells.iter().map(|c| c.dims.width).fold(0.0_f64, f64::max);
    // Sweep on x-sorted order to skip far-apart pairs.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut total = 0.0;
    for (oi, &i) in order.iter().enumerate() {
        let ci = &cells[i];
        for &j in &order[oi + 1..] {
            let cj = &cells[j];
            if xs[j] - xs[i] >= (ci.dims.width + max_width) / 2.0 {
                // Sorted by x: even the widest later cell cannot overlap.
                break;
            }
            let dx = (ci.dims.width + cj.dims.width) / 2.0 - (xs[j] - xs[i]);
            if dx <= 0.0 {
                continue;
            }
            let ox = dx.min(ci.dims.width.min(cj.dims.width));
            let dy = (ci.dims.height + cj.dims.height) / 2.0 - (ys[i] - ys[j]).abs();
            if dy > 0.0 {
                let oy = dy.min(ci.dims.height.min(cj.dims.height));
                total += ox * oy;
            }
        }
    }
    total
}

/// Mixed-size legalization: crossbar macros are pushed apart and
/// compacted; neurons and synapses are then slotted into the whitespace
/// between them with an occupancy grid. Netlists with only one class of
/// cell fall back to whole-netlist push-apart plus compaction.
fn legalize_mixed_size(netlist: &Netlist, xs: &mut [f64], ys: &mut [f64], passes: usize) {
    let mut macros = Vec::new();
    let mut smalls = Vec::new();
    for c in &netlist.cells {
        if matches!(c.kind, ncs_tech::CellKind::Crossbar(_)) {
            macros.push(c.id);
        } else {
            smalls.push(c.id);
        }
    }
    let widths: Vec<f64> = netlist.cells.iter().map(|c| c.dims.width).collect();
    let heights: Vec<f64> = netlist.cells.iter().map(|c| c.dims.height).collect();
    if macros.is_empty() || smalls.is_empty() {
        let all: Vec<usize> = (0..netlist.cells.len()).collect();
        legalize_subset(&all, &widths, &heights, xs, ys, passes);
        compact_subset(&all, &widths, &heights, xs, ys);
        return;
    }
    // Remember where the global placement wanted the small cells, relative
    // to the pre-legalization macro bounding box.
    let bbox_of = |ids: &[usize], xs: &[f64], ys: &[f64]| -> (f64, f64, f64, f64) {
        let mut bb = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for &i in ids {
            bb.0 = bb.0.min(xs[i] - widths[i] / 2.0);
            bb.1 = bb.1.min(ys[i] - heights[i] / 2.0);
            bb.2 = bb.2.max(xs[i] + widths[i] / 2.0);
            bb.3 = bb.3.max(ys[i] + heights[i] / 2.0);
        }
        bb
    };
    let old_bb = bbox_of(&macros, xs, ys);
    legalize_subset(&macros, &widths, &heights, xs, ys, passes);
    compact_subset(&macros, &widths, &heights, xs, ys);
    let new_bb = bbox_of(&macros, xs, ys);
    // Affine-map small-cell targets from the old frame into the new one.
    let sx = (new_bb.2 - new_bb.0) / (old_bb.2 - old_bb.0).max(1e-9);
    let sy = (new_bb.3 - new_bb.1) / (old_bb.3 - old_bb.1).max(1e-9);
    let targets: Vec<(f64, f64)> = smalls
        .iter()
        .map(|&i| {
            (
                new_bb.0 + (xs[i] - old_bb.0) * sx,
                new_bb.1 + (ys[i] - old_bb.1) * sy,
            )
        })
        .collect();
    gap_fill(
        &macros, &smalls, &targets, &widths, &heights, xs, ys, new_bb, ring_walk,
    );
}

/// The free `w × h` block nearest cell `(t_c, t_r)` of a row-major
/// occupancy grid: walks the boundary of each ring of growing Chebyshev
/// radius around it in row-major order, skipping the rows and columns
/// where the block would leave the grid.
// ncs-lint: hot
fn ring_walk(
    occupied: &[bool],
    cols: usize,
    (t_c, t_r): (isize, isize),
    (w, h): (usize, usize),
) -> Option<(usize, usize)> {
    let rows = occupied.len() / cols;
    let (c_max, r_max) = (cols as isize - w as isize, rows as isize - h as isize);
    for ring in 0..cols.max(rows) as isize {
        let (lo_c, hi_c, lo_r, hi_r) = (t_c - ring, t_c + ring, t_r - ring, t_r + ring);
        for r in lo_r.max(0)..=hi_r.min(r_max) {
            // The top and bottom rows whole; between them, the two sides.
            let step = if r == lo_r || r == hi_r { 1 } else { 2 * ring };
            let ring_cols = (lo_c..=hi_c).step_by(step as usize);
            for c in ring_cols.filter(|c| (0..=c_max).contains(c)) {
                let (c, r) = (c as usize, r as usize);
                if (r..r + h).all(|rr| (c..c + w).all(|cc| !occupied[rr * cols + cc])) {
                    return Some((c, r));
                }
            }
        }
    }
    None
}

/// Places small cells at the free spot nearest their target using an
/// occupancy grid over the macro region (with a margin so overflow can
/// spill to the periphery instead of failing). `search` finds each spot:
/// [`ring_walk`], or in the tests the full-square scan it replaced.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
// ncs-lint: hot
fn gap_fill(
    macros: &[usize],
    smalls: &[usize],
    targets: &[(f64, f64)],
    widths: &[f64],
    heights: &[f64],
    xs: &mut [f64],
    ys: &mut [f64],
    macro_bb: (f64, f64, f64, f64),
    search: fn(&[bool], usize, (isize, isize), (usize, usize)) -> Option<(usize, usize)>,
) {
    let res = smalls
        .iter()
        .map(|&i| widths[i].min(heights[i]))
        .fold(f64::INFINITY, f64::min)
        .clamp(0.25, 4.0);
    let small_area: f64 = smalls.iter().map(|&i| widths[i] * heights[i]).sum();
    let margin = (small_area.sqrt() * 1.5).max(8.0);
    let origin = (macro_bb.0 - margin, macro_bb.1 - margin);
    let cols = (((macro_bb.2 - macro_bb.0) + 2.0 * margin) / res).ceil() as usize + 1;
    let rows = (((macro_bb.3 - macro_bb.1) + 2.0 * margin) / res).ceil() as usize + 1;
    let mut occupied = vec![false; cols * rows];
    let mark = |occupied: &mut Vec<bool>, x0: f64, y0: f64, x1: f64, y1: f64| {
        let c0 = (((x0 - origin.0) / res).floor().max(0.0)) as usize;
        let r0 = (((y0 - origin.1) / res).floor().max(0.0)) as usize;
        let c1 = ((((x1 - origin.0) / res).ceil()).max(0.0) as usize).min(cols);
        let r1 = ((((y1 - origin.1) / res).ceil()).max(0.0) as usize).min(rows);
        for r in r0..r1 {
            for c in c0..c1 {
                occupied[r * cols + c] = true;
            }
        }
    };
    for &m in macros {
        mark(
            &mut occupied,
            xs[m] - widths[m] / 2.0,
            ys[m] - heights[m] / 2.0,
            xs[m] + widths[m] / 2.0,
            ys[m] + heights[m] / 2.0,
        );
    }
    // Largest small cells claim space first.
    let mut order: Vec<usize> = (0..smalls.len()).collect();
    order.sort_by(|&a, &b| {
        let aa = widths[smalls[a]] * heights[smalls[a]];
        let ab = widths[smalls[b]] * heights[smalls[b]];
        ab.total_cmp(&aa).then(a.cmp(&b))
    });
    for &si in &order {
        let id = smalls[si];
        let (tx, ty) = targets[si];
        let w_cells = ((widths[id] / res).ceil() as usize).max(1);
        let h_cells = ((heights[id] / res).ceil() as usize).max(1);
        let t_c = (((tx - origin.0) / res).round() as isize).clamp(0, cols as isize - 1);
        let t_r = (((ty - origin.1) / res).round() as isize).clamp(0, rows as isize - 1);
        let (c, r) = search(&occupied, cols, (t_c, t_r), (w_cells, h_cells)).unwrap_or((0, 0));
        let x0 = origin.0 + c as f64 * res;
        let y0 = origin.1 + r as f64 * res;
        xs[id] = x0 + w_cells as f64 * res / 2.0;
        ys[id] = y0 + h_cells as f64 * res / 2.0;
        mark(
            &mut occupied,
            x0,
            y0,
            x0 + w_cells as f64 * res,
            y0 + h_cells as f64 * res,
        );
    }
}

/// Greedy pairwise push-apart legalizer over a subset of cells:
/// repeatedly resolves overlapping pairs along the axis of least
/// penetration until no overlap remains or the pass budget is exhausted.
fn legalize_subset(
    ids: &[usize],
    widths: &[f64],
    heights: &[f64],
    xs: &mut [f64],
    ys: &mut [f64],
    passes: usize,
) {
    let max_width = ids.iter().map(|&i| widths[i]).fold(0.0_f64, f64::max);
    for _ in 0..passes {
        let mut moved = false;
        let mut order: Vec<usize> = ids.to_vec();
        order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        for (oi, &i) in order.iter().enumerate() {
            for &j in &order[oi + 1..] {
                let dx = xs[j] - xs[i];
                if dx >= (widths[i] + max_width) / 2.0 {
                    break;
                }
                let need_x = (widths[i] + widths[j]) / 2.0;
                if dx >= need_x {
                    continue;
                }
                let need_y = (heights[i] + heights[j]) / 2.0;
                let dy = ys[j] - ys[i];
                if dy.abs() >= need_y {
                    continue;
                }
                let pen_x = need_x - dx;
                let pen_y = need_y - dy.abs();
                // Push along the cheaper axis, split between both cells.
                // A hair of slack avoids zero-distance ties cycling.
                if pen_x <= pen_y {
                    let shift = pen_x / 2.0 + 1e-6;
                    xs[i] -= shift;
                    xs[j] += shift;
                } else {
                    let dir = if dy >= 0.0 { 1.0 } else { -1.0 };
                    let shift = pen_y / 2.0 + 1e-6;
                    ys[i] -= dir * shift;
                    ys[j] += dir * shift;
                }
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Compacts a subset of cells toward the origin, trying both axis orders
/// and keeping the smaller bounding box.
fn compact_subset(ids: &[usize], widths: &[f64], heights: &[f64], xs: &mut [f64], ys: &mut [f64]) {
    let bbox = |xs: &[f64], ys: &[f64]| -> f64 {
        let mut w = 0.0_f64;
        let mut h = 0.0_f64;
        for &i in ids {
            w = w.max(xs[i] + widths[i] / 2.0);
            h = h.max(ys[i] + heights[i] / 2.0);
        }
        w * h
    };
    let mut ax = xs.to_vec();
    let mut ay = ys.to_vec();
    for _ in 0..2 {
        compact_axis(ids, &mut ax, &ay, widths, heights);
        compact_axis(ids, &mut ay, &ax, heights, widths);
    }
    let mut bx = xs.to_vec();
    let mut by = ys.to_vec();
    for _ in 0..2 {
        compact_axis(ids, &mut by, &bx, heights, widths);
        compact_axis(ids, &mut bx, &by, widths, heights);
    }
    if bbox(&ax, &ay) <= bbox(&bx, &by) {
        xs.copy_from_slice(&ax);
        ys.copy_from_slice(&ay);
    } else {
        xs.copy_from_slice(&bx);
        ys.copy_from_slice(&by);
    }
}

/// Slides every subset cell toward zero along the primary axis as far as
/// the already-compacted subset cells allow (classic left-edge
/// compaction). The result is overlap-free within the subset along the
/// primary axis regardless of input.
fn compact_axis(
    ids: &[usize],
    primary: &mut [f64],
    secondary: &[f64],
    extent_p: &[f64],
    extent_s: &[f64],
) {
    let mut order: Vec<usize> = ids.to_vec();
    order.sort_by(|&a, &b| {
        (primary[a] - extent_p[a] / 2.0).total_cmp(&(primary[b] - extent_p[b] / 2.0))
    });
    let mut placed: Vec<usize> = Vec::with_capacity(order.len());
    for &i in &order {
        let mut edge = 0.0_f64;
        for &j in &placed {
            // Overlap along the secondary axis blocks sliding past j.
            let gap = (extent_s[i] + extent_s[j]) / 2.0 - (secondary[i] - secondary[j]).abs();
            if gap > 1e-9 {
                edge = edge.max(primary[j] + extent_p[j] / 2.0);
            }
        }
        primary[i] = edge + extent_p[i] / 2.0;
        placed.push(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;
    use ncs_cluster::{CrossbarAssignment, HybridMapping};
    use ncs_tech::TechnologyModel;

    /// The oracle for [`detailed_swap`]: identical swap order and accept
    /// rule, but every candidate is scored by fully recomputing the HPWL
    /// of the touched wires.
    fn detailed_swap_reference(netlist: &Netlist, placement: &mut Placement, passes: usize) {
        let (wires_of, groups) = swap_structures(netlist);
        let hpwl = |wid: usize, xs: &[f64], ys: &[f64]| -> f64 {
            let w = &netlist.wires[wid];
            let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
            let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for &p in &w.pins {
                x0 = x0.min(xs[p]);
                x1 = x1.max(xs[p]);
                y0 = y0.min(ys[p]);
                y1 = y1.max(ys[p]);
            }
            w.weight * ((x1 - x0) + (y1 - y0))
        };
        for _ in 0..passes {
            let mut improved = false;
            for members in groups.values() {
                for (ai, &a) in members.iter().enumerate() {
                    for &b in &members[ai + 1..] {
                        let before: f64 = wires_of[a]
                            .iter()
                            .chain(&wires_of[b])
                            .map(|&w| hpwl(w, &placement.x, &placement.y))
                            .sum();
                        placement.x.swap(a, b);
                        placement.y.swap(a, b);
                        let after: f64 = wires_of[a]
                            .iter()
                            .chain(&wires_of[b])
                            .map(|&w| hpwl(w, &placement.x, &placement.y))
                            .sum();
                        if after + 1e-12 < before {
                            improved = true;
                        } else {
                            placement.x.swap(a, b);
                            placement.y.swap(a, b);
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    fn small_netlist() -> Netlist {
        let xbar = CrossbarAssignment::new(vec![0, 1, 2], vec![0, 1, 2], 16, vec![(0, 1), (1, 2)]);
        let mapping = HybridMapping::new(5, vec![xbar], vec![(3, 4)]);
        Netlist::from_mapping(&mapping, &TechnologyModel::nm45())
    }

    #[test]
    fn placement_removes_overlap() {
        let nl = small_netlist();
        let p = place(&nl, &PlacerOptions::default()).unwrap();
        assert!(
            p.final_overlap_um2 < 0.05 * nl.total_cell_area(),
            "overlap {} vs area {}",
            p.final_overlap_um2,
            nl.total_cell_area()
        );
        assert!(p.area_um2(&nl) >= nl.total_cell_area() * 0.8);
    }

    #[test]
    fn placement_is_in_positive_quadrant() {
        let nl = small_netlist();
        let p = place(&nl, &PlacerOptions::default()).unwrap();
        let (x0, y0, _, _) = p.bounding_box(&nl);
        assert!(x0 > -1e-9 && y0 > -1e-9);
    }

    #[test]
    fn connected_cells_end_up_closer_than_random_grid() {
        let nl = small_netlist();
        let p = place(&nl, &PlacerOptions::default()).unwrap();
        let opt = p.weighted_hpwl(&nl);
        // The initial grid is a valid reference placement.
        let (gx, gy) = initial_grid(&nl, 1.2);
        let grid = Placement {
            x: gx,
            y: gy,
            outer_iterations: 0,
            final_overlap_um2: 0.0,
        };
        assert!(
            opt <= grid.weighted_hpwl(&nl) * 1.05,
            "optimized {} vs grid {}",
            opt,
            grid.weighted_hpwl(&nl)
        );
    }

    #[test]
    fn empty_netlist_rejected() {
        let nl = Netlist {
            cells: vec![],
            wires: vec![],
        };
        assert!(matches!(
            place(&nl, &PlacerOptions::default()),
            Err(PhysError::EmptyNetlist)
        ));
    }

    #[test]
    fn invalid_options_rejected() {
        let nl = small_netlist();
        let bad = PlacerOptions {
            gamma: 0.0,
            ..PlacerOptions::default()
        };
        assert!(place(&nl, &bad).is_err());
        let bad = PlacerOptions {
            omega: 0.5,
            ..PlacerOptions::default()
        };
        assert!(place(&nl, &bad).is_err());
        let bad = PlacerOptions {
            lambda_multiplier: 1.0,
            ..PlacerOptions::default()
        };
        assert!(place(&nl, &bad).is_err());
        // NaN and +∞ pass every `<`/`<=` bound, so they need their own
        // checks.
        for v in [f64::NAN, f64::INFINITY] {
            for (what, bad) in [
                (
                    "gamma",
                    PlacerOptions {
                        gamma: v,
                        ..PlacerOptions::fast()
                    },
                ),
                (
                    "omega",
                    PlacerOptions {
                        omega: v,
                        ..PlacerOptions::fast()
                    },
                ),
                (
                    "lambda_multiplier",
                    PlacerOptions {
                        lambda_multiplier: v,
                        ..PlacerOptions::fast()
                    },
                ),
            ] {
                match place(&nl, &bad) {
                    Err(PhysError::InvalidOption { what: w, .. }) => assert_eq!(w, what),
                    other => panic!("{what} = {v}: expected InvalidOption, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn degenerate_wire_rejected() {
        let mut nl = small_netlist();
        let id = nl.wires.len();
        nl.wires.push(crate::Wire {
            id,
            pins: [0, nl.cells.len()],
            weight: 1.0,
        });
        assert_eq!(
            place(&nl, &PlacerOptions::default()),
            Err(PhysError::DegenerateWire { id })
        );
    }

    #[test]
    fn wa_span_approximates_true_span() {
        let (span, _) = wa_span(0.0, 10.0, 0.5);
        assert!((span - 10.0).abs() < 0.5, "span {span}");
    }

    /// The n-pin WA formula, kept as the bit-exactness oracle of
    /// [`wa_span`].
    fn wa_span_oracle(pins: &[CellId], coords: &[f64], gamma: f64) -> (f64, Vec<f64>) {
        let vals: Vec<f64> = pins.iter().map(|&p| coords[p]).collect();
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let ep: Vec<f64> = vals.iter().map(|&v| ((v - max) / gamma).exp()).collect();
        let sp: f64 = ep.iter().sum();
        let sxp: f64 = vals.iter().zip(&ep).map(|(v, e)| v * e).sum();
        let wa_max = sxp / sp;
        let em: Vec<f64> = vals.iter().map(|&v| (-(v - min) / gamma).exp()).collect();
        let sm: f64 = em.iter().sum();
        let sxm: f64 = vals.iter().zip(&em).map(|(v, e)| v * e).sum();
        let wa_min = sxm / sm;
        let derivs = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let dmax = (ep[i] / sp) * (1.0 + (v - wa_max) / gamma);
                let dmin = (em[i] / sm) * (1.0 - (v - wa_min) / gamma);
                dmax - dmin
            })
            .collect();
        (wa_max - wa_min, derivs)
    }

    #[test]
    fn two_pin_wa_span_matches_the_oracle_bit_for_bit() {
        // Every ordered pin pair over a seeded coordinate set: equal
        // coordinates (±0 among them), a pin paired with itself, both pin
        // orders, negative coordinates, and gaps so wide against γ that
        // the weight exp((min − max)/γ) underflows to 0.
        let mut rng = ncs_rng::Rng::seed_from_u64(24);
        let mut coords = vec![0.0, -0.0, 3.5, 3.5, -120.25, 1e-300, -7.0, 5e3, -5e3];
        coords.extend((0..24).map(|_| rng.normal(0.0, 40.0)));
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<u64>>();
        let mut underflows = 0;
        for gamma in [0.5, 2.0, 8.0] {
            for p in 0..coords.len() {
                for q in 0..coords.len() {
                    let (span, derivs) = wa_span_oracle(&[p, q], &coords, gamma);
                    let (got, got_derivs) = wa_span(coords[p], coords[q], gamma);
                    let case = format!("pins ({}, {}) γ {gamma}", coords[p], coords[q]);
                    assert_eq!(got.to_bits(), span.to_bits(), "span, {case}");
                    assert_eq!(bits(&got_derivs), bits(&derivs), "derivs, {case}");
                    if (-(coords[p] - coords[q]).abs() / gamma).exp() == 0.0 {
                        underflows += 1;
                    }
                }
            }
        }
        assert!(underflows > 0, "no pair underflowed exp");
        // A non-finite coordinate makes both spans NaN (their bits may
        // differ), so the CG line search rejects such a trial either way.
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 4.5];
        for p in 0..odd.len() {
            for q in 0..odd.len() {
                if odd[p].is_finite() && odd[q].is_finite() {
                    continue;
                }
                let (span, _) = wa_span_oracle(&[p, q], &odd, 2.0);
                let (got, _) = wa_span(odd[p], odd[q], 2.0);
                assert!(span.is_nan() && got.is_nan(), "({}, {})", odd[p], odd[q]);
            }
        }
    }

    /// The ranges `start..start + grain` covering `0..len`, the last one
    /// clipped: the chunk grid of [`wa_wirelength`] and [`density`].
    fn chunk_ranges(len: usize, grain: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        (0..len)
            .step_by(grain)
            .map(move |start| start..(start + grain).min(len))
    }

    /// The replaced `wa_wirelength` (same chunk grid and folds, one
    /// n-pin [`wa_span_oracle`] call per wire and axis).
    fn wa_wirelength_oracle(netlist: &Netlist, p: &[f64], gamma: f64, grad: &mut [f64]) -> f64 {
        let n = netlist.cells.len();
        let (xs, ys) = p.split_at(n);
        let mut total_all = 0.0;
        for r in chunk_ranges(netlist.wires.len(), WL_GRAIN) {
            let mut scratch = vec![0.0; 2 * n];
            let mut total = 0.0;
            for wire in &netlist.wires[r] {
                for (coords, offset) in [(xs, 0usize), (ys, n)] {
                    let (span, derivs) = wa_span_oracle(&wire.pins, coords, gamma);
                    total += wire.weight * span;
                    for (&pin, d) in wire.pins.iter().zip(&derivs) {
                        scratch[offset + pin] += wire.weight * d;
                    }
                }
            }
            for (slot, s) in grad.iter_mut().zip(&scratch) {
                *slot += s;
            }
            total_all += total;
        }
        total_all
    }

    /// The replaced `density`: a `BTreeMap` spatial hash bucketed at the
    /// largest virtual extent, each cell walking its 3×3 buckets in
    /// offset order and every member `j > i` of each.
    fn density_oracle(netlist: &Netlist, p: &[f64], omega: f64, grad: &mut [f64]) -> f64 {
        let n = netlist.cells.len();
        let (xs, ys) = p.split_at(n);
        let max_ext = netlist
            .cells
            .iter()
            .map(|c| c.dims.width.max(c.dims.height))
            .fold(0.0_f64, f64::max)
            * omega;
        let bucket = max_ext.max(1.0);
        let mut hash: std::collections::BTreeMap<(i64, i64), Vec<CellId>> =
            std::collections::BTreeMap::new();
        for cell in &netlist.cells {
            let key = (
                (xs[cell.id] / bucket).floor() as i64,
                (ys[cell.id] / bucket).floor() as i64,
            );
            hash.entry(key).or_default().push(cell.id);
        }
        let mut total_all = 0.0;
        for r in chunk_ranges(n, DENSITY_GRAIN) {
            let mut scratch = vec![0.0; 2 * n];
            let mut total = 0.0;
            for cell in &netlist.cells[r] {
                let i = cell.id;
                let kx = (xs[i] / bucket).floor() as i64;
                let ky = (ys[i] / bucket).floor() as i64;
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let Some(others) = hash.get(&(kx + dx, ky + dy)) else {
                            continue;
                        };
                        for &j in others {
                            if j <= i {
                                continue;
                            }
                            let cj = &netlist.cells[j];
                            let wx = omega * (cell.dims.width + cj.dims.width) / 2.0;
                            let wy = omega * (cell.dims.height + cj.dims.height) / 2.0;
                            let tx = xs[i] - xs[j];
                            let ty = ys[i] - ys[j];
                            if tx.abs() >= wx || ty.abs() >= wy {
                                continue;
                            }
                            let (ox, dox) = bell(tx, wx);
                            let (oy, doy) = bell(ty, wy);
                            let aij = cell.dims.area().min(cj.dims.area());
                            total += aij * ox * oy;
                            let gx = aij * dox * tx.signum() * oy;
                            let gy = aij * ox * doy * ty.signum();
                            scratch[i] += gx;
                            scratch[j] -= gx;
                            scratch[n + i] += gy;
                            scratch[n + j] -= gy;
                        }
                    }
                }
            }
            for (slot, s) in grad.iter_mut().zip(&scratch) {
                *slot += s;
            }
            total_all += total;
        }
        total_all
    }

    /// A seeded mixed-size netlist: neurons, discrete synapses and
    /// crossbars of three sizes (the largest first among the macros), in
    /// shuffled id order, with wires between random cells.
    fn mixed_netlist(seed: u64, cells: usize, wires: usize) -> Netlist {
        use ncs_rng::Rng;
        use ncs_tech::CellKind;
        let mut rng = Rng::seed_from_u64(seed);
        let mut kinds: Vec<CellKind> = (0..cells)
            .map(|k| match k % 10 {
                0 => CellKind::Crossbar([64, 16, 32][(k / 10) % 3]),
                1..=3 => CellKind::Synapse,
                _ => CellKind::Neuron,
            })
            .collect();
        rng.shuffle(&mut kinds);
        let Netlist { cells, .. } = netlist_of(kinds);
        let wires = (0..wires)
            .map(|id| crate::Wire {
                id,
                pins: [rng.gen_range(0..cells.len()), rng.gen_range(0..cells.len())],
                weight: 0.5 + rng.gen_f64(),
            })
            .collect();
        Netlist { cells, wires }
    }

    /// A netlist of cells of the given kinds, in id order, without wires.
    fn netlist_of(kinds: impl IntoIterator<Item = ncs_tech::CellKind>) -> Netlist {
        let tech = TechnologyModel::nm45();
        let cells = kinds
            .into_iter()
            .enumerate()
            .map(|(id, kind)| crate::Cell {
                id,
                kind,
                dims: tech.dims(kind),
                source: id,
            })
            .collect();
        Netlist {
            cells,
            wires: Vec::new(),
        }
    }

    /// Evaluates `kernel` with and without a gradient and asserts value
    /// and gradient equal `oracle`'s bit for bit.
    fn assert_matches_oracle(
        what: &str,
        p: &[f64],
        kernel: impl Fn(&[f64], Option<&mut [f64]>) -> f64,
        oracle: impl Fn(&[f64], &mut [f64]) -> f64,
    ) {
        let mut grad_ref = vec![0.0; p.len()];
        let value_ref = oracle(p, &mut grad_ref);
        let bits = |g: &[f64]| -> Vec<u64> { g.iter().map(|v| v.to_bits()).collect() };
        let mut grad = vec![0.0; p.len()];
        let value = kernel(p, Some(&mut grad));
        let value_only = kernel(p, None);
        assert_eq!(value.to_bits(), value_ref.to_bits(), "{what} value");
        assert_eq!(value_only.to_bits(), value_ref.to_bits(), "{what}");
        assert_eq!(bits(&grad), bits(&grad_ref), "{what} gradient");
    }

    #[test]
    fn wa_wirelength_matches_the_allocating_oracle() {
        // 40 wires fit one chunk; 300 span five, the last one short.
        for (seed, wires) in [(1, 40), (2, 300)] {
            let nl = mixed_netlist(seed, 120, wires);
            let n = nl.cells.len();
            let mut rng = ncs_rng::Rng::seed_from_u64(seed);
            let p: Vec<f64> = (0..2 * n).map(|_| rng.normal(0.0, 30.0)).collect();
            assert_matches_oracle(
                &format!("wa seed {seed}"),
                &p,
                |p, g| wa_wirelength(&nl, p, 2.0, g),
                |p, g| wa_wirelength_oracle(&nl, p, 2.0, g),
            );
        }
    }

    #[test]
    fn density_matches_the_coarse_hash_oracle() {
        use ncs_tech::CellKind;
        let omega = 1.2;
        let nl = mixed_netlist(7, 320, 0);
        let n = nl.cells.len();
        // Coarse bucket of the oracle: the largest virtual extent.
        let big = omega * TechnologyModel::nm45().crossbar_dims(64).width;
        let mut rng = ncs_rng::Rng::seed_from_u64(7);
        let mut layouts: Vec<(&str, Vec<f64>)> = Vec::new();
        // Clumped random layouts at a few densities, one shifted well
        // into negative coordinates.
        for (name, side, shift) in [
            ("dense", 60.0, 0.0),
            ("sparse", 400.0, 0.0),
            ("negative", 120.0, -500.0),
        ] {
            layouts.push((
                name,
                (0..2 * n).map(|_| shift + side * rng.gen_f64()).collect(),
            ));
        }
        // Every cell stacked on a handful of points.
        layouts.push((
            "stacked",
            (0..2 * n).map(|k| (k % 3) as f64 * 0.25).collect(),
        ));
        // Cells snapped to coarse and small-cell bucket edges, and one
        // ulp either side of them.
        layouts.push((
            "edges",
            (0..2 * n)
                .map(|k| {
                    let edge = if k % 2 == 0 { big } else { 2.4 };
                    let v = (k % 9) as f64 * edge - 4.0 * edge;
                    match k % 3 {
                        0 => v,
                        1 => f64::from_bits(v.to_bits() + 1),
                        _ => f64::from_bits(v.to_bits() - 1),
                    }
                })
                .collect(),
        ));
        // Every 64-crossbar on a row, each pair just under one coarse
        // bucket apart, over a uniform spread of the other cells.
        let mut rows: Vec<f64> = (0..2 * n).map(|_| 300.0 * rng.gen_f64()).collect();
        let mut x = 0.5 * big;
        for cell in &nl.cells {
            if cell.kind == ncs_tech::CellKind::Crossbar(64) {
                rows[cell.id] = x;
                rows[n + cell.id] = 100.0;
                x += big * (1.0 - 1e-12);
            }
        }
        layouts.push(("macro row", rows));
        let mut cases: Vec<(String, &Netlist, Vec<f64>)> = layouts
            .into_iter()
            .map(|(name, p)| (name.to_string(), &nl, p))
            .collect();
        // A netlist without crossbars and one of crossbars only, so one of
        // the two grids is empty: clumped, stacked, and snapped to their
        // own coarse bucket edges (the largest virtual extent, `unit`)
        // and one ulp either side of them.
        let no_macros = netlist_of((0..200).map(|k| match k % 3 {
            0 => CellKind::Synapse,
            _ => CellKind::Neuron,
        }));
        let macros_only = netlist_of((0..60).map(|k| CellKind::Crossbar([64, 16, 32][k % 3])));
        for (what, other, unit, side) in [
            ("no crossbars", &no_macros, 2.4, 48.0),
            ("crossbars only", &macros_only, big, 105.0),
        ] {
            let m = other.cells.len();
            let clumped = (0..2 * m).map(|_| side * rng.gen_f64()).collect();
            let stacked = (0..2 * m).map(|k| (k % 3) as f64 * 0.25).collect();
            let edges = (0..2 * m)
                .map(|k| {
                    let v = (k % 9) as f64 * unit - 4.0 * unit;
                    match k % 3 {
                        0 => v,
                        1 => f64::from_bits(v.to_bits() + 1),
                        _ => f64::from_bits(v.to_bits() - 1),
                    }
                })
                .collect();
            for (layout, p) in [("clumped", clumped), ("stacked", stacked), ("edges", edges)] {
                cases.push((format!("{what}, {layout}"), other, p));
            }
        }
        // Every netlist spread along a single row and along a single
        // column, so each grid is one bucket thick.
        for (what, other, side) in [
            ("mixed", &nl, 400.0),
            ("no crossbars", &no_macros, 48.0),
            ("crossbars only", &macros_only, 105.0),
        ] {
            let m = other.cells.len();
            for (layout, axis) in [("row", 0), ("column", 1)] {
                let mut p = vec![0.5; 2 * m];
                for v in &mut p[axis * m..(axis + 1) * m] {
                    *v = side * rng.gen_f64();
                }
                cases.push((format!("{what}, {layout}"), other, p));
            }
        }
        for (name, nl, p) in &cases {
            let mut grad = vec![0.0; p.len()];
            assert!(
                density_oracle(nl, p, omega, &mut grad) > 0.0,
                "{name}: no overlap"
            );
            assert_matches_oracle(
                name,
                p,
                |p, g| density(nl, p, omega, g, &mut PairWork::default()),
                |p, g| density_oracle(nl, p, omega, g),
            );
        }
    }

    #[test]
    fn wa_gradient_matches_finite_difference() {
        let nl = small_netlist();
        let n = nl.cells.len();
        let mut p: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let mut grad = vec![0.0; 2 * n];
        let f0 = wa_wirelength(&nl, &p, 2.0, Some(&mut grad));
        let h = 1e-6;
        for idx in 0..2 * n {
            p[idx] += h;
            let f1 = wa_wirelength(&nl, &p, 2.0, None);
            p[idx] -= h;
            let fd = (f1 - f0) / h;
            assert!(
                (fd - grad[idx]).abs() < 1e-4 * (1.0 + fd.abs()),
                "idx {idx}: analytic {} vs fd {fd}",
                grad[idx]
            );
        }
    }

    #[test]
    fn density_gradient_matches_finite_difference() {
        let nl = small_netlist();
        let n = nl.cells.len();
        // Clump everything together so overlaps are active.
        let mut p: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.37).cos() * 3.0).collect();
        let mut grad = vec![0.0; 2 * n];
        let work = &mut PairWork::default();
        let f0 = density(&nl, &p, 1.2, Some(&mut grad), work);
        assert!(f0 > 0.0, "expected active overlaps");
        let h = 1e-6;
        for idx in 0..2 * n {
            p[idx] += h;
            let f1 = density(&nl, &p, 1.2, None, work);
            p[idx] -= h;
            let fd = (f1 - f0) / h;
            assert!(
                (fd - grad[idx]).abs() < 1e-3 * (1.0 + fd.abs()),
                "idx {idx}: analytic {} vs fd {fd}",
                grad[idx]
            );
        }
    }

    #[test]
    fn density_indexes_non_finite_coordinates_without_panicking() {
        // A diverged descent can hand the density non-finite coordinates;
        // the grids clamp such cells into their edge buckets.
        let nl = mixed_netlist(3, 40, 0);
        let n = nl.cells.len();
        let mut p: Vec<f64> = (0..2 * n).map(|k| (k % 7) as f64).collect();
        p[0] = f64::NAN;
        p[1] = f64::INFINITY;
        p[n + 2] = f64::NEG_INFINITY;
        p[3] = 1e300;
        let mut grad = vec![0.0; 2 * n];
        density(&nl, &p, 1.2, Some(&mut grad), &mut PairWork::default());
        density(&nl, &p, 1.2, None, &mut PairWork::default());
    }

    #[test]
    fn bell_is_continuous_and_compact() {
        let w = 4.0;
        let (v0, _) = bell(0.0, w);
        assert_eq!(v0, 1.0);
        let (vh_lo, _) = bell(w / 2.0 - 1e-9, w);
        let (vh_hi, _) = bell(w / 2.0 + 1e-9, w);
        assert!((vh_lo - vh_hi).abs() < 1e-6);
        let (vw, dw) = bell(w, w);
        assert_eq!(vw, 0.0);
        assert_eq!(dw, 0.0);
        let (beyond, _) = bell(w * 1.5, w);
        assert_eq!(beyond, 0.0);
    }

    #[test]
    fn overlap_area_of_known_configuration() {
        let nl = small_netlist();
        // Stack the first two cells (both neurons, 2x2) exactly on top of
        // each other; spread the rest far away.
        let n = nl.cells.len();
        let mut xs = vec![0.0; n];
        let ys = vec![0.0; n];
        for (i, x) in xs.iter_mut().enumerate().skip(2) {
            *x = 1000.0 + 100.0 * i as f64;
        }
        let area = overlap_area(&nl, &xs, &ys);
        assert!((area - 4.0).abs() < 1e-9, "area {area}");
    }

    #[test]
    fn legalizer_separates_stacked_cells() {
        let nl = small_netlist();
        let n = nl.cells.len();
        let mut xs = vec![0.0; n];
        let mut ys = vec![0.0; n];
        legalize_mixed_size(&nl, &mut xs, &mut ys, 500);
        assert!(overlap_area(&nl, &xs, &ys) < 1e-6);
    }

    #[test]
    fn gap_fill_places_small_cells_overlap_free() {
        // Two crossbar macros plus small cells; legalization must finish
        // with zero overlap and keep the die close to the macro area.
        let xbar_a = CrossbarAssignment::new(vec![0], vec![0], 16, vec![(0, 0)]);
        let xbar_b = CrossbarAssignment::new(vec![1], vec![1], 16, vec![(1, 1)]);
        let mapping = HybridMapping::new(4, vec![xbar_a, xbar_b], vec![(2, 3)]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let p = place(&nl, &PlacerOptions::fast()).unwrap();
        assert!(
            p.final_overlap_um2 < 1e-6,
            "overlap {}",
            p.final_overlap_um2
        );
    }

    /// The spiral search [`ring_walk`] replaced, kept as its oracle: it
    /// loops over every ring's whole (2r+1)² square and skips the interior
    /// cell by cell.
    fn full_square_scan(
        occupied: &[bool],
        cols: usize,
        (t_c, t_r): (isize, isize),
        (w, h): (usize, usize),
    ) -> Option<(usize, usize)> {
        let rows = occupied.len() / cols;
        for ring in 0..cols.max(rows) as isize {
            let (lo_c, hi_c, lo_r, hi_r) = (t_c - ring, t_c + ring, t_r - ring, t_r + ring);
            for r in lo_r..=hi_r {
                for c in lo_c..=hi_c {
                    if ring > 0 && r != lo_r && r != hi_r && c != lo_c && c != hi_c {
                        continue;
                    }
                    if r < 0 || c < 0 {
                        continue;
                    }
                    let (c, r) = (c as usize, r as usize);
                    if c + w > cols || r + h > rows {
                        continue;
                    }
                    if (r..r + h).all(|rr| (c..c + w).all(|cc| !occupied[rr * cols + cc])) {
                        return Some((c, r));
                    }
                }
            }
        }
        None
    }

    #[test]
    fn ring_walk_matches_the_full_square_scan_at_the_grid_edges() {
        // Small seeded grids from empty to full, every target cell, and
        // blocks up to wider or taller than the grid: the rings run off
        // every edge and corner, where the walk skips rows and columns.
        let mut rng = ncs_rng::Rng::seed_from_u64(5);
        for (cols, rows) in [(1, 1), (7, 3), (5, 9), (12, 12)] {
            for density in [0.0, 0.6, 0.95, 1.0] {
                let occupied: Vec<bool> =
                    (0..cols * rows).map(|_| rng.gen_f64() < density).collect();
                let targets =
                    (0..rows as isize).flat_map(|r| (0..cols as isize).map(move |c| (c, r)));
                let blocks = [(1, 1), (2, 1), (1, 3), (3, 2), (cols, rows), (cols + 1, 1)];
                for (target, block) in targets.flat_map(|t| blocks.map(|b| (t, b))) {
                    assert_eq!(
                        ring_walk(&occupied, cols, target, block),
                        full_square_scan(&occupied, cols, target, block),
                        "{cols}×{rows} grid, density {density}, target {target:?}, block {block:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_walk_places_like_the_full_square_scan() {
        // A crowded mixed-size layout: a 4×4 block of 64- and 32-crossbar
        // macros 0.3 µm apart, and 1,000 neurons and synapses whose
        // targets all sit in the middle half of a macro, so their free
        // blocks lie many rings out: beside the smaller macros at first,
        // then in the margin around the block.
        use ncs_tech::CellKind;
        let tech = TechnologyModel::nm45();
        let mut rng = ncs_rng::Rng::seed_from_u64(23);
        let kinds: Vec<CellKind> = (0..16)
            .map(|k| CellKind::Crossbar([64, 64, 32][k % 3]))
            .chain((0..1000).map(|k| [CellKind::Neuron, CellKind::Synapse][k % 2]))
            .collect();
        let widths: Vec<f64> = kinds.iter().map(|&k| tech.dims(k).width).collect();
        let heights: Vec<f64> = kinds.iter().map(|&k| tech.dims(k).height).collect();
        let pitch = widths[0] + 0.3;
        let xs: Vec<f64> = (0..kinds.len()).map(|k| (k % 4) as f64 * pitch).collect();
        let ys: Vec<f64> = (0..kinds.len())
            .map(|k| (k / 4 % 4) as f64 * pitch)
            .collect();
        let (macros, smalls): (Vec<usize>, Vec<usize>) =
            ((0..16).collect(), (16..kinds.len()).collect());
        let targets: Vec<(f64, f64)> = smalls
            .iter()
            .map(|_| {
                let m = rng.gen_range(0..16usize);
                let half = widths[m] / 4.0;
                let offset = |rng: &mut ncs_rng::Rng| half * (2.0 * rng.gen_f64() - 1.0);
                (xs[m] + offset(&mut rng), ys[m] + offset(&mut rng))
            })
            .collect();
        let inf = f64::INFINITY;
        let bb = macros.iter().fold((inf, inf, -inf, -inf), |bb, &m| {
            let (hw, hh) = (widths[m] / 2.0, heights[m] / 2.0);
            (
                bb.0.min(xs[m] - hw),
                bb.1.min(ys[m] - hh),
                bb.2.max(xs[m] + hw),
                bb.3.max(ys[m] + hh),
            )
        });
        let fill = |search| {
            let (mut x, mut y) = (xs.clone(), ys.clone());
            gap_fill(
                &macros, &smalls, &targets, &widths, &heights, &mut x, &mut y, bb, search,
            );
            (x, y)
        };
        let (ring_x, ring_y) = fill(ring_walk);
        let (square_x, square_y) = fill(full_square_scan);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&ring_x), bits(&square_x), "x diverged");
        assert_eq!(bits(&ring_y), bits(&square_y), "y diverged");
        // Chebyshev distance from target to placed centre, in 0.5 µm rings.
        let rings = smalls
            .iter()
            .zip(&targets)
            .map(|(&i, &(tx, ty))| (ring_x[i] - tx).abs().max((ring_y[i] - ty).abs()) / 0.5)
            .fold(0.0_f64, f64::max);
        assert!(
            rings > 50.0,
            "the farthest block lay only {rings} rings out"
        );
    }

    #[test]
    fn pure_small_cell_netlist_still_legalizes() {
        // No crossbars at all: only synapses and neurons.
        let mapping = HybridMapping::new(6, vec![], vec![(0, 1), (2, 3), (4, 5)]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let p = place(&nl, &PlacerOptions::fast()).unwrap();
        assert!(p.final_overlap_um2 < 1e-6);
    }

    #[test]
    fn degenerate_lambda_start_is_skipped_not_faked() {
        // Small cells on the initial grid sit outside each other's bell
        // support: Σ|∂D| = 0 and no λ can be balanced. The placer used
        // to silently pin λ = 1; it must now skip the density term as a
        // structured condition (observable via the trace counter) and
        // re-engage it once the wirelength pull creates real overlap.
        let mapping = HybridMapping::new(6, vec![], vec![(0, 1), (2, 3), (4, 5)]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let (gx, gy) = initial_grid(&nl, 1.2);
        let n = nl.cells.len();
        let p0: Vec<f64> = gx.iter().chain(gy.iter()).copied().collect();
        let mut grad_d = vec![0.0; 2 * n];
        density(
            &nl,
            &p0,
            1.2,
            Some(&mut grad_d[..]),
            &mut PairWork::default(),
        );
        assert!(
            grad_d.iter().all(|&g| g == 0.0),
            "precondition: the spread grid must have no density gradient"
        );
        assert_eq!(initial_lambda(&[1.0, 2.0], &grad_d), None);
        let ((), events) = ncs_trace::capture(|| {
            let placement = place(&nl, &PlacerOptions::fast()).unwrap();
            assert!(placement.final_overlap_um2 < 1e-6);
        });
        let report = ncs_trace::TraceReport::from_events(&events);
        let skips = report
            .counters
            .iter()
            .find(|c| c.name == "place.lambda_density_skips")
            .map_or(0, |c| c.total);
        assert!(skips > 0, "the degenerate start must be surfaced");
        // A non-degenerate start must not fire the counter.
        let ((), events) = ncs_trace::capture(|| {
            place(&small_netlist(), &PlacerOptions::fast()).unwrap();
        });
        let report = ncs_trace::TraceReport::from_events(&events);
        assert!(
            !report
                .counters
                .iter()
                .any(|c| c.name == "place.lambda_density_skips"),
            "crossbar netlists have density pressure at the start"
        );
    }

    #[test]
    fn detailed_swap_never_worsens_hpwl_and_preserves_legality() {
        let nl = small_netlist();
        let base = place(&nl, &PlacerOptions::fast()).unwrap();
        let refined = place(
            &nl,
            &PlacerOptions {
                detailed_swap_passes: 4,
                ..PlacerOptions::fast()
            },
        )
        .unwrap();
        assert!(
            refined.weighted_hpwl(&nl) <= base.weighted_hpwl(&nl) + 1e-9,
            "refined {} vs base {}",
            refined.weighted_hpwl(&nl),
            base.weighted_hpwl(&nl)
        );
        // Swapping identical footprints cannot create overlap.
        assert!(refined.final_overlap_um2 <= base.final_overlap_um2 + 1e-9);
        // The occupied positions are a permutation within each footprint
        // class, so the die area is unchanged.
        assert!((refined.area_um2(&nl) - base.area_um2(&nl)).abs() < 1e-6);
    }

    #[test]
    fn position_lookup_checks_range() {
        let nl = small_netlist();
        let p = place(&nl, &PlacerOptions::fast()).unwrap();
        assert!(p.position(0).is_ok());
        assert!(matches!(
            p.position(999),
            Err(crate::PhysError::UnknownCell { id: 999 })
        ));
    }

    #[test]
    fn single_cell_netlist_places_at_origin_quadrant() {
        let mapping = HybridMapping::new(1, vec![], vec![]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let p = place(&nl, &PlacerOptions::fast()).unwrap();
        let (x0, y0, x1, y1) = p.bounding_box(&nl);
        assert!(x0 >= -1e-9 && y0 >= -1e-9);
        assert!((x1 - x0) > 0.0 && (y1 - y0) > 0.0);
    }

    /// A pseudo-random mapping with several same-size crossbars (so the
    /// swap groups are non-trivial) and discrete synapses.
    fn swap_heavy_netlist(seed: u64) -> Netlist {
        let mut state = seed | 1;
        let mut next = move |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as usize) % m
        };
        let neurons = 40;
        let mut xbars = Vec::new();
        for b in 0..4 {
            let members: Vec<usize> = (0..6).map(|i| (b * 6 + i) % neurons).collect();
            let conns: Vec<(usize, usize)> = (0..8)
                .map(|_| (members[next(6)], members[next(6)]))
                .collect();
            xbars.push(CrossbarAssignment::new(members.clone(), members, 16, conns));
        }
        let outliers: Vec<(usize, usize)> = (0..30)
            .map(|_| (next(neurons), next(neurons)))
            .filter(|&(f, t)| f != t)
            .collect();
        let mapping = HybridMapping::new(neurons, xbars, outliers);
        Netlist::from_mapping(&mapping, &TechnologyModel::nm45())
    }

    #[test]
    fn incremental_swap_matches_reference_bit_for_bit() {
        // The incremental evaluator must reproduce the reference's
        // accept/reject sequence exactly, so the refined placements agree
        // to the last bit, across several seeds.
        for seed in [3u64, 11, 42] {
            let nl = swap_heavy_netlist(seed);
            let base = place(&nl, &PlacerOptions::fast()).unwrap();
            let mut fast = base.clone();
            detailed_swap(&nl, &mut fast, 6);
            let mut slow = base.clone();
            detailed_swap_reference(&nl, &mut slow, 6);
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&fast.x), bits(&slow.x), "x diverged (seed {seed})");
            assert_eq!(bits(&fast.y), bits(&slow.y), "y diverged (seed {seed})");
            assert!(
                fast.weighted_hpwl(&nl) <= base.weighted_hpwl(&nl) + 1e-9,
                "refinement must not worsen HPWL"
            );
        }
    }

    #[test]
    fn incremental_detailed_swap_matches_reference_on_the_flow() {
        // The incremental evaluation in detailed_swap must make exactly
        // the same accept/reject decisions as the
        // full-HPWL-recompute oracle — on the determinism suite's pinned
        // flow design the refined coordinates agree bit for bit after
        // several passes.
        let (nl, placement) = crate::pinned_flow_design();
        let mut incremental = placement.clone();
        let mut reference = placement.clone();
        detailed_swap(nl, &mut incremental, 4);
        detailed_swap_reference(nl, &mut reference, 4);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&incremental.x),
            bits(&reference.x),
            "incremental detailed swap diverged from the reference in x"
        );
        assert_eq!(
            bits(&incremental.y),
            bits(&reference.y),
            "incremental detailed swap diverged from the reference in y"
        );
        assert_ne!(
            bits(&incremental.x),
            bits(&placement.x),
            "the swap passes did real refinement work on the flow placement"
        );
    }

    #[test]
    fn incremental_swap_handles_duplicate_pins() {
        // Two hand-built wires whose other pin moves with the swapped
        // one: a wire with both pins on one cell, and a wire joining two
        // neurons, which share a footprint group. Each keeps its length
        // through a swap of its cells, and the refined placement must
        // match the reference's.
        for pins in [[1, 1], [0, 1]] {
            let mut nl = swap_heavy_netlist(7);
            let id = nl.wires.len();
            nl.wires.push(crate::Wire {
                id,
                pins,
                weight: 2.0,
            });
            let base = place(&nl, &PlacerOptions::fast()).unwrap();
            let mut fast = base.clone();
            detailed_swap(&nl, &mut fast, 4);
            let mut slow = base.clone();
            detailed_swap_reference(&nl, &mut slow, 4);
            assert_eq!(fast, slow, "wire {pins:?} broke the equivalence");
            assert_ne!(fast, base, "the swap passes refined nothing");
        }
    }
}
