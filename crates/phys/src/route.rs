use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ncs_tech::TechnologyModel;

use crate::{CellId, Netlist, PhysError, Placement, WireId};

/// A segment search: `(grid, source bin, target bin, capacity, penalty,
/// settled bins)` to the canonical optimal bin path, or `None` when no
/// capacity-respecting path exists. The search appends the bins it
/// settles to the settled list; when it fails, they are the closed
/// component of one pin, which [`DeadEnds::record`] labels. [`route`]
/// uses [`Grid::shortest_path`]; the tests substitute the full-grid
/// Dijkstra oracle, which appends nothing and so routes without dead
/// ends.
type SegmentSearch = fn(
    &Grid,
    (usize, usize),
    (usize, usize),
    usize,
    f64,
    &mut Vec<usize>,
) -> Option<Vec<(usize, usize)>>;

/// Options for the global router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterOptions {
    /// Bin width `θ` of the grid graph, µm (Section 3.5: "a grid graph
    /// model is constructed with bin width θ, a user-defined parameter").
    pub theta: f64,
    /// Routing tracks available per grid edge before relaxation — the
    /// FastRoute-style *virtual capacity*.
    pub virtual_capacity: usize,
    /// Extra cost added per unit of congestion overflow when a wire has to
    /// squeeze through a saturated edge during relaxed rerouting.
    pub congestion_penalty: f64,
    /// Maximum capacity-relaxation rounds before reporting
    /// [`PhysError::Unroutable`].
    pub max_relaxations: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            theta: 4.0,
            virtual_capacity: 8,
            congestion_penalty: 2.0,
            max_relaxations: 16,
        }
    }
}

/// A single routed wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedWire {
    /// The wire this path implements.
    pub wire: WireId,
    /// Grid bins visited from the bin of the wire's `pins[0]` to the bin
    /// of its `pins[1]`, as `(col, row)` pairs.
    pub path: Vec<(usize, usize)>,
    /// Routed length, µm (steps along the path · θ).
    pub length_um: f64,
}

/// Per-bin wire congestion, for the Figure 10 heatmaps.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Bin width θ, µm.
    pub theta: f64,
    /// Wires passing through each bin, row-major.
    pub usage: Vec<usize>,
}

impl CongestionMap {
    /// Usage of bin `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the bin is out of range.
    pub fn at(&self, col: usize, row: usize) -> usize {
        assert!(
            col < self.cols && row < self.rows,
            "bin ({col},{row}) out of range"
        );
        self.usage[row * self.cols + col]
    }

    /// Maximum bin usage.
    pub fn max_usage(&self) -> usize {
        self.usage.iter().copied().max().unwrap_or(0)
    }

    /// Mean bin usage over non-empty bins.
    pub fn mean_nonzero_usage(&self) -> f64 {
        let (mut sum, mut count) = (0usize, 0usize);
        for &u in &self.usage {
            if u > 0 {
                sum += u;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

/// Result of routing a placed netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// One routed path per wire (same order as the netlist wires).
    pub routed: Vec<RoutedWire>,
    /// Total routed wirelength, µm.
    pub total_wirelength_um: f64,
    /// Congestion map over the placement region.
    pub congestion: CongestionMap,
    /// Capacity-relaxation rounds that were needed.
    pub relaxations: usize,
}

/// Routes every wire of a placed netlist with maze routing (Lee-style
/// shortest path on the bin grid) under virtual edge capacities.
///
/// Per Section 3.5: wires are ordered by the distance from the center of
/// gravity of all cells to their closest pin (with wire weight as the tie
/// breaker), maze-routed one at a time on the live grid under the current
/// capacity (A*), and any wires that fail are retried after the virtual
/// capacity is relaxed. Each wire routes from its `pins[0]` to its
/// `pins[1]` and commits its path as soon as it is found. Wires that the
/// round's dead ends prove unroutable fail without a search (DESIGN.md,
/// "Full-grid A\* maze routing with dead ends").
///
/// # Errors
///
/// Returns [`PhysError::Unroutable`] if wires remain unrouted after
/// `max_relaxations` rounds, [`PhysError::InvalidOption`] unless `theta`
/// is finite and > 0 and `congestion_penalty` finite and ≥ 0,
/// [`PhysError::EmptyNetlist`] for a cell-less netlist,
/// [`PhysError::DegenerateWire`] for a wire pin that names no cell, and
/// [`PhysError::UnknownCell`] for the first cell the placement lacks.
pub fn route(
    netlist: &Netlist,
    placement: &Placement,
    _tech: &TechnologyModel,
    options: &RouterOptions,
) -> Result<Routing, PhysError> {
    route_with(netlist, placement, options, Grid::shortest_path)
}

/// [`route`] with the segment search as a parameter, so the tests can run
/// the whole router on the full-grid Dijkstra oracle.
fn route_with(
    netlist: &Netlist,
    placement: &Placement,
    options: &RouterOptions,
    shortest_path: SegmentSearch,
) -> Result<Routing, PhysError> {
    // A negative penalty would also break the unit edge-cost floor the
    // A* heuristic relies on.
    for (what, value, in_range) in [
        ("theta", options.theta, options.theta > 0.0),
        (
            "congestion_penalty",
            options.congestion_penalty,
            options.congestion_penalty >= 0.0,
        ),
    ] {
        if !(value.is_finite() && in_range) {
            return Err(PhysError::InvalidOption {
                what,
                value: value.to_string(),
            });
        }
    }
    netlist.check()?;
    let placed = placement.x.len().min(placement.y.len());
    if placed < netlist.cells.len() {
        return Err(PhysError::UnknownCell { id: placed });
    }

    // Grid over the placement bounding box plus one bin of margin.
    let (x0, y0, x1, y1) = placement.bounding_box(netlist);
    let theta = options.theta;
    let cols = (((x1 - x0) / theta).ceil() as usize + 3).max(3);
    let rows = (((y1 - y0) / theta).ceil() as usize + 3).max(3);
    let origin = (x0 - theta, y0 - theta);
    let bin_of = |cell: CellId| -> (usize, usize) {
        let bx = ((placement.x[cell] - origin.0) / theta).floor() as isize;
        let by = ((placement.y[cell] - origin.1) / theta).floor() as isize;
        (
            bx.clamp(0, cols as isize - 1) as usize,
            by.clamp(0, rows as isize - 1) as usize,
        )
    };

    // Routing order: distance from the center of gravity to the closest
    // pin, ties broken by descending wire weight. Squared distances sort
    // identically (x ↦ x² is monotone on non-negative reals), so the
    // sqrt per pin is skipped; the determinism suite pins the order.
    let cg_x: f64 = placement.x.iter().sum::<f64>() / placement.x.len() as f64;
    let cg_y: f64 = placement.y.iter().sum::<f64>() / placement.y.len() as f64;
    let mut order: Vec<WireId> = (0..netlist.wires.len()).collect();
    let closest: Vec<f64> = netlist
        .wires
        .iter()
        .map(|w| {
            w.pins
                .iter()
                .map(|&p| {
                    let dx = placement.x[p] - cg_x;
                    let dy = placement.y[p] - cg_y;
                    dx * dx + dy * dy
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    order.sort_by(|&a, &b| {
        closest[a]
            .total_cmp(&closest[b])
            .then(netlist.wires[b].weight.total_cmp(&netlist.wires[a].weight))
            .then(a.cmp(&b))
    });

    let mut grid = Grid::new(cols, rows);
    let mut dead_ends = DeadEnds::new(cols * rows);
    let mut routed: Vec<Option<RoutedWire>> = vec![None; netlist.wires.len()];
    let mut pending: Vec<WireId> = order;
    let mut capacity = options.virtual_capacity;
    let mut relaxations = 0;

    loop {
        let mut failed = Vec::new();
        for &wid in &pending {
            let [a, b] = netlist.wires[wid].pins;
            let Some(mut path) = route_wire(
                &mut grid,
                (bin_of(a), bin_of(b)),
                capacity,
                options.congestion_penalty,
                shortest_path,
                &mut dead_ends,
            ) else {
                failed.push(wid);
                continue;
            };
            ncs_trace::add("route.commits", 1);
            // The routing keeps every path: drop the slack its growth left.
            path.shrink_to_fit();
            routed[wid] = Some(RoutedWire {
                wire: wid,
                length_um: path.len().saturating_sub(1) as f64 * theta,
                path,
            });
        }
        if failed.is_empty() {
            break;
        }
        ncs_trace::add("route.failed", failed.len() as u64);
        relaxations += 1;
        if relaxations > options.max_relaxations {
            return Err(PhysError::Unroutable {
                failed: failed.len(),
                relaxations: relaxations - 1,
            });
        }
        // Relax the virtual capacity and retry only the failed wires. The
        // wider edges can join components, so the dead ends start over.
        capacity = capacity.saturating_mul(2).max(capacity + 1);
        dead_ends.relax();
        pending = failed;
    }

    // The retry loop only exits once `pending` drains, so every slot is
    // filled — but surface a routing error rather than panic if not. The
    // same tally feeds the `route.missing` counter, so the observability
    // stream and the error path share one source of truth.
    let missing = routed.iter().filter(|r| r.is_none()).count();
    ncs_trace::add("route.missing", missing as u64);
    if missing > 0 {
        return Err(PhysError::Unroutable {
            failed: missing,
            relaxations,
        });
    }
    ncs_trace::add("route.dead_end_hits", dead_ends.hits);
    ncs_trace::record("route.relaxations", relaxations as u64);
    let routed: Vec<RoutedWire> = routed.into_iter().flatten().collect();
    let total = routed.iter().map(|r| r.length_um).sum();
    let mut usage = vec![0usize; cols * rows];
    for r in &routed {
        for &(c, row) in &r.path {
            usage[row * cols + c] += 1;
        }
    }
    Ok(Routing {
        routed,
        total_wirelength_um: total,
        congestion: CongestionMap {
            cols,
            rows,
            theta,
            usage,
        },
        relaxations,
    })
}

/// Routes one wire from its source bin to its target bin on the live
/// grid and commits the path. `None` leaves the grid as it was: the wire
/// has no capacity-respecting path, or `dead_ends` separates its bins and
/// it fails without a search.
fn route_wire(
    grid: &mut Grid,
    (src, dst): ((usize, usize), (usize, usize)),
    capacity: usize,
    penalty: f64,
    shortest_path: SegmentSearch,
    dead_ends: &mut DeadEnds,
) -> Option<Vec<(usize, usize)>> {
    if dead_ends.separates(grid.idx(src.0, src.1), grid.idx(dst.0, dst.1)) {
        dead_ends.hits += 1;
        return None;
    }
    dead_ends.settled.clear();
    let Some(path) = shortest_path(grid, src, dst, capacity, penalty, &mut dead_ends.settled)
    else {
        // The failed search settled a whole component of the grid.
        dead_ends.record();
        return None;
    };
    grid.commit(&path);
    Some(path)
}

/// The dead ends of the current capacity round: one label per grid bin,
/// marking components of the routing graph that failed searches exhausted.
///
/// A failed search settles the whole component of one pin (a sealed pin
/// alone, or all that the start reaches), and [`DeadEnds::record`] gives
/// those bins a fresh label. Within a round, usage only grows (a wire
/// either commits its path or leaves the grid as it was), so components
/// only split: a later component that meets an earlier labelled set lies
/// inside it. A pin with a current label therefore has no path to a pin
/// without that label until the capacity changes, and
/// [`DeadEnds::separates`] answers such a wire without a search. A
/// relaxation starts a new round; labels below its base are stale.
struct DeadEnds {
    /// Label of each bin.
    label: Vec<u32>,
    /// First label of the current round.
    base: u32,
    /// Next fresh label.
    next: u32,
    /// Bins the last search settled.
    settled: Vec<usize>,
    /// Wires answered without searching.
    hits: u64,
}

impl DeadEnds {
    fn new(bins: usize) -> Self {
        DeadEnds {
            label: vec![0; bins],
            base: 1,
            next: 1,
            settled: Vec::new(),
            hits: 0,
        }
    }

    /// Starts a new capacity round: every earlier label goes stale.
    fn relax(&mut self) {
        self.base = self.next;
    }

    /// True when bins `a` and `b` lie in different dead ends, or only one
    /// of them lies in a dead end, so no path joins them this round.
    fn separates(&self, a: usize, b: usize) -> bool {
        let current = |bin: usize| Some(self.label[bin]).filter(|&l| l >= self.base);
        current(a) != current(b)
    }

    /// Labels the bins the last (failed) search settled as a dead end.
    fn record(&mut self) {
        // Out of labels: record nothing more, which only costs searches.
        let Some(next) = self.next.checked_add(1) else {
            return;
        };
        for &bin in &self.settled {
            self.label[bin] = self.next;
        }
        self.next = next;
    }
}

/// Persistent scratch for the maze search. The arrays cover the full
/// grid but are *epoch-stamped*: bumping `epoch` invalidates every entry
/// in O(1), so no per-search reallocation or clearing ever happens — a
/// node's `dist`/`closed` state is only meaningful where
/// `stamp[node] == epoch`. One arena lives in a thread-local and is
/// reused across wires and `route()` calls; it grows
/// monotonically to the largest grid routed on its thread.
struct RouteScratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<f64>,
    closed: Vec<bool>,
    heap: BinaryHeap<HeapNode>,
}

impl RouteScratch {
    fn new() -> Self {
        RouteScratch {
            epoch: 0,
            stamp: Vec::new(),
            dist: Vec::new(),
            closed: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Starts a fresh search over a grid of `n` bins: grows the arrays if
    /// this thread has never seen a grid this large, then invalidates all
    /// previous state by bumping the epoch (wrap-around resets stamps).
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, f64::INFINITY);
            self.closed.resize(n, false);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
        self.heap.clear();
    }

    fn is_set(&self, node: usize) -> bool {
        self.stamp[node] == self.epoch
    }

    fn set_dist(&mut self, node: usize, d: f64) {
        self.stamp[node] = self.epoch;
        self.dist[node] = d;
        self.closed[node] = false;
    }
}

thread_local! {
    static ROUTE_SCRATCH: RefCell<RouteScratch> = RefCell::new(RouteScratch::new());
}

/// A move out of a grid node: `(destination node, its column, its row,
/// edge key)`, where the edge key is the index of the bin that owns the
/// edge plus a horizontal flag.
type Move = (usize, usize, usize, usize, bool);

/// The routing grid: horizontal/vertical edge usage counters plus a
/// capacity-respecting shortest-path search (full-grid A*; full-grid
/// Dijkstra is the tests' oracle).
struct Grid {
    cols: usize,
    rows: usize,
    /// Usage of the edge to the right of each bin.
    h_use: Vec<usize>,
    /// Usage of the edge above each bin.
    v_use: Vec<usize>,
}

impl Grid {
    fn new(cols: usize, rows: usize) -> Self {
        Grid {
            cols,
            rows,
            h_use: vec![0; cols * rows],
            v_use: vec![0; cols * rows],
        }
    }

    fn idx(&self, c: usize, r: usize) -> usize {
        r * self.cols + c
    }

    /// Cost of traversing the usable edge `(eidx, horizontal)`, or `None`
    /// when the edge is at or over the virtual capacity (the
    /// FastRoute-style hard limit). Usable edges cost
    /// `1 + penalty · usage / capacity` so wires spread away from
    /// congested regions.
    #[inline]
    fn edge_cost(
        &self,
        eidx: usize,
        horizontal: bool,
        capacity: usize,
        penalty: f64,
    ) -> Option<f64> {
        let usage = if horizontal {
            self.h_use[eidx]
        } else {
            self.v_use[eidx]
        };
        if usage >= capacity {
            return None;
        }
        Some(1.0 + penalty * usage as f64 / capacity as f64)
    }

    /// True when every grid edge incident to `node` is saturated at the
    /// current capacity: the node can neither reach nor be reached by any
    /// other node, so a search touching it is pointless.
    fn pin_sealed(&self, node: usize, capacity: usize, penalty: f64) -> bool {
        let c = node % self.cols;
        let r = node / self.cols;
        (c + 1 >= self.cols || self.edge_cost(node, true, capacity, penalty).is_none())
            && (c == 0 || self.edge_cost(node - 1, true, capacity, penalty).is_none())
            && (r + 1 >= self.rows || self.edge_cost(node, false, capacity, penalty).is_none())
            && (r == 0
                || self
                    .edge_cost(node - self.cols, false, capacity, penalty)
                    .is_none())
    }

    /// The in-grid moves out of `node`. The order — +x, −x, +y, −y — is
    /// fixed; the canonical path reconstruction relies on it.
    #[inline]
    fn moves(&self, node: usize) -> ([Move; 4], usize) {
        let c = node % self.cols;
        let r = node / self.cols;
        let mut out: [Move; 4] = [(0, 0, 0, 0, false); 4];
        let mut count = 0;
        if c + 1 < self.cols {
            out[count] = (node + 1, c + 1, r, node, true);
            count += 1;
        }
        if c > 0 {
            out[count] = (node - 1, c - 1, r, node - 1, true);
            count += 1;
        }
        if r + 1 < self.rows {
            out[count] = (node + self.cols, c, r + 1, node, false);
            count += 1;
        }
        if r > 0 {
            out[count] = (node - self.cols, c, r - 1, node - self.cols, false);
            count += 1;
        }
        (out, count)
    }

    /// Settles the shortest-path tree from `start` towards `goal` over the
    /// whole grid, writing `dist`/`closed` into `scratch` and appending
    /// every settled node to `settled`. With `heuristic = true` this is A*
    /// under the admissible and consistent Manhattan heuristic (every edge
    /// costs at least 1); with `false` it is plain Dijkstra. Either way the
    /// loop does **not** stop at the first goal pop: it keeps draining
    /// until the heap's best f-value exceeds the goal cost (plus a
    /// relative-rounding slack), so every node that could sit on *any*
    /// optimal path is settled with its final distance. That drain is
    /// what lets [`Grid::canonical_path`] reconstruct the same optimal
    /// path regardless of which search produced the tree.
    ///
    /// Returns the goal cost, or `None` when the goal is unreachable; the
    /// search then drained the heap, so `settled` is the whole component
    /// of `start`.
    #[allow(clippy::too_many_arguments)]
    // ncs-lint: hot
    fn search(
        &self,
        scratch: &mut RouteScratch,
        start: usize,
        goal: usize,
        capacity: usize,
        penalty: f64,
        heuristic: bool,
        settled: &mut Vec<usize>,
    ) -> Option<f64> {
        scratch.begin(self.cols * self.rows);
        let (gc, gr) = (goal % self.cols, goal / self.cols);
        let h = |c: usize, r: usize| -> f64 {
            if heuristic {
                (c.abs_diff(gc) + r.abs_diff(gr)) as f64
            } else {
                0.0
            }
        };
        scratch.set_dist(start, 0.0);
        scratch.heap.push(HeapNode {
            cost: h(start % self.cols, start / self.cols),
            node: start,
        });
        let mut best: Option<f64> = None;
        while let Some(HeapNode { cost, node }) = scratch.heap.pop() {
            if let Some(g_star) = best {
                // Goal settled: keep settling ties (nodes whose f equals
                // the optimum, up to summation rounding), then stop.
                if cost > g_star + 1e-9 * (1.0 + g_star) {
                    break;
                }
            }
            if scratch.closed[node] {
                continue;
            }
            scratch.closed[node] = true;
            settled.push(node);
            if node == goal {
                best = Some(scratch.dist[node]);
                continue;
            }
            let g = scratch.dist[node];
            // Candidate coordinates ride along so the heuristic needs no
            // divisions on this hot path.
            let (moves, count) = self.moves(node);
            for &(nn, nc, nr, eidx, horizontal) in &moves[..count] {
                let Some(edge) = self.edge_cost(eidx, horizontal, capacity, penalty) else {
                    continue;
                };
                let nd = g + edge;
                if !scratch.is_set(nn) || nd < scratch.dist[nn] {
                    scratch.set_dist(nn, nd);
                    scratch.heap.push(HeapNode {
                        cost: nd + h(nc, nr),
                        node: nn,
                    });
                }
            }
        }
        best
    }

    /// Reconstructs the canonical optimal path from a settled search
    /// tree: walk backwards from the goal, at each node taking the first
    /// settled neighbor (in the fixed [`Grid::moves`] order) that
    /// minimizes `dist[u] + edge_cost(u, v)`. Optimal predecessors are
    /// exactly the minimizers (the minimum equals `dist[v]`), and the
    /// drain in [`Grid::search`] guarantees both A* and Dijkstra settle
    /// every optimal predecessor with identical final distances — so the
    /// reconstructed path is a pure function of the grid state, not of
    /// which search ran or in what order it settled nodes.
    fn canonical_path(
        &self,
        scratch: &RouteScratch,
        start: usize,
        goal: usize,
        capacity: usize,
        penalty: f64,
    ) -> Option<Vec<(usize, usize)>> {
        let mut path = vec![(goal % self.cols, goal / self.cols)];
        let mut node = goal;
        // Every backward step strictly decreases dist (edges cost ≥ 1),
        // so the walk reaches the start in at most `bins` steps; the
        // bound is a defensive guard, not a reachable state.
        for _ in 0..self.cols * self.rows {
            if node == start {
                path.reverse();
                return Some(path);
            }
            let mut pick: Option<(f64, usize)> = None;
            let (moves, count) = self.moves(node);
            for &(u, _, _, eidx, horizontal) in &moves[..count] {
                if !scratch.is_set(u) || !scratch.closed[u] {
                    continue;
                }
                let Some(edge) = self.edge_cost(eidx, horizontal, capacity, penalty) else {
                    continue;
                };
                let through = scratch.dist[u] + edge;
                // Strict improvement only: ties keep the earlier
                // neighbor, making the fixed move order the tiebreak.
                if pick.is_none_or(|(best, _)| through < best) {
                    pick = Some((through, u));
                }
            }
            let (_, u) = pick?;
            path.push((u % self.cols, u / self.cols));
            node = u;
        }
        None
    }

    /// Capacity-aware shortest path from `src` to `dst` (see
    /// [`Grid::edge_cost`] for the cost model), appending the bins the
    /// search settles to `settled`. Returns `None` when no
    /// capacity-respecting path exists — the caller then relaxes the
    /// virtual capacity and reroutes, per Section 3.5. `settled` then
    /// holds the closed component of one pin: a sealed pin alone, or
    /// everything the search reached from `src`.
    ///
    /// One full-grid A* with the drain of [`Grid::search`], then
    /// [`Grid::canonical_path`]: the tests hold the result to the
    /// full-grid Dijkstra oracle bit for bit. Most failures never get
    /// here — the router answers them from its [`DeadEnds`].
    fn shortest_path(
        &self,
        src: (usize, usize),
        dst: (usize, usize),
        capacity: usize,
        penalty: f64,
        settled: &mut Vec<usize>,
    ) -> Option<Vec<(usize, usize)>> {
        if src == dst {
            return Some(vec![src]);
        }
        let start = self.idx(src.0, src.1);
        let goal = self.idx(dst.0, dst.1);
        // O(1) unroutability check: a pin with every incident edge
        // saturated can neither reach nor be reached (`src != dst` here),
        // so skip the search entirely — a sealed *goal* would otherwise
        // cost a full exhaust of the start's component. The sealed pin is
        // a whole component on its own.
        for pin in [start, goal] {
            if self.pin_sealed(pin, capacity, penalty) {
                settled.push(pin);
                return None;
            }
        }
        ROUTE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.search(scratch, start, goal, capacity, penalty, true, settled)?;
            self.canonical_path(scratch, start, goal, capacity, penalty)
        })
    }

    /// Full-grid Dijkstra with the same drain and canonical
    /// reconstruction: the oracle [`Grid::shortest_path`] must match bit
    /// for bit.
    #[cfg(test)]
    fn dijkstra_path(
        &self,
        src: (usize, usize),
        dst: (usize, usize),
        capacity: usize,
        penalty: f64,
    ) -> Option<Vec<(usize, usize)>> {
        if src == dst {
            return Some(vec![src]);
        }
        let start = self.idx(src.0, src.1);
        let goal = self.idx(dst.0, dst.1);
        ROUTE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.search(
                scratch,
                start,
                goal,
                capacity,
                penalty,
                false,
                &mut Vec::new(),
            )?;
            self.canonical_path(scratch, start, goal, capacity, penalty)
        })
    }

    /// Commits a path, incrementing the usage of every traversed edge.
    fn commit(&mut self, path: &[(usize, usize)]) {
        for step in path.windows(2) {
            *self.edge_use(step[0], step[1]) += 1;
        }
    }

    /// Usage counter of the edge between the adjacent bins `a` and `b`.
    fn edge_use(&mut self, a: (usize, usize), b: (usize, usize)) -> &mut usize {
        if a.1 == b.1 {
            let idx = self.idx(a.0.min(b.0), a.1);
            &mut self.h_use[idx]
        } else {
            let idx = self.idx(a.0, a.1.min(b.1));
            &mut self.v_use[idx]
        }
    }
}

/// Min-heap adapter over f64 costs.
struct HeapNode {
    cost: f64,
    node: usize,
}

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap; costs are always finite.
        other
            .cost
            .total_cmp(&self.cost)
            .then(self.node.cmp(&other.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{place, Netlist, PlacerOptions};
    use ncs_cluster::{full_crossbar, HybridMapping};
    use ncs_net::generators;
    use ncs_tech::TechnologyModel;

    fn placed_netlist() -> (Netlist, Placement) {
        let net = generators::uniform_random(30, 0.06, 5).unwrap();
        let mapping = full_crossbar(&net, 16).unwrap();
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let p = place(&nl, &PlacerOptions::fast()).unwrap();
        (nl, p)
    }

    #[test]
    fn routes_every_wire() {
        let (nl, p) = placed_netlist();
        let r = route(&nl, &p, &TechnologyModel::nm45(), &RouterOptions::default()).unwrap();
        assert_eq!(r.routed.len(), nl.wires.len());
        assert!(r.total_wirelength_um >= 0.0);
        for (i, rw) in r.routed.iter().enumerate() {
            assert_eq!(rw.wire, i);
            assert!(!rw.path.is_empty());
        }
    }

    #[test]
    fn path_lengths_match_theta() {
        let (nl, p) = placed_netlist();
        let opts = RouterOptions::default();
        let r = route(&nl, &p, &TechnologyModel::nm45(), &opts).unwrap();
        for rw in &r.routed {
            assert!((rw.length_um - (rw.path.len() as f64 - 1.0) * opts.theta).abs() < 1e-9);
            // Consecutive bins are 4-neighbors.
            for seg in rw.path.windows(2) {
                let dc = seg[0].0.abs_diff(seg[1].0);
                let dr = seg[0].1.abs_diff(seg[1].1);
                assert_eq!(dc + dr, 1, "non-adjacent bins in path");
            }
        }
    }

    #[test]
    fn congestion_map_counts_paths() {
        let (nl, p) = placed_netlist();
        let r = route(&nl, &p, &TechnologyModel::nm45(), &RouterOptions::default()).unwrap();
        let total_bins: usize = r.routed.iter().map(|rw| rw.path.len()).sum();
        let total_usage: usize = r.congestion.usage.iter().sum();
        assert_eq!(total_bins, total_usage);
        assert!(r.congestion.max_usage() >= 1);
        assert!(r.congestion.mean_nonzero_usage() >= 1.0);
    }

    #[test]
    fn tight_capacity_forces_relaxation_or_detours() {
        let (nl, p) = placed_netlist();
        let tight = RouterOptions {
            virtual_capacity: 1,
            ..RouterOptions::default()
        };
        let loose = RouterOptions {
            virtual_capacity: 1000,
            ..RouterOptions::default()
        };
        let rt = route(&nl, &p, &TechnologyModel::nm45(), &tight).unwrap();
        let rl = route(&nl, &p, &TechnologyModel::nm45(), &loose).unwrap();
        // Tight capacity cannot yield shorter total wirelength.
        assert!(rt.total_wirelength_um >= rl.total_wirelength_um - 1e-9);
    }

    #[test]
    fn zero_capacity_without_relaxation_is_unroutable() {
        let (nl, p) = placed_netlist();
        let opts = RouterOptions {
            virtual_capacity: 0,
            max_relaxations: 0,
            ..RouterOptions::default()
        };
        match route(&nl, &p, &TechnologyModel::nm45(), &opts) {
            Err(PhysError::Unroutable { failed, .. }) => assert!(failed > 0),
            other => panic!("expected Unroutable, got {other:?}"),
        }
    }

    #[test]
    fn relaxation_recovers_from_zero_capacity() {
        let (nl, p) = placed_netlist();
        let opts = RouterOptions {
            virtual_capacity: 0,
            max_relaxations: 16,
            ..RouterOptions::default()
        };
        let r = route(&nl, &p, &TechnologyModel::nm45(), &opts).unwrap();
        assert!(r.relaxations >= 1, "expected at least one relaxation round");
        assert_eq!(r.routed.len(), nl.wires.len());
    }

    #[test]
    fn invalid_theta_rejected() {
        let (nl, p) = placed_netlist();
        let bad = RouterOptions {
            theta: 0.0,
            ..RouterOptions::default()
        };
        assert!(route(&nl, &p, &TechnologyModel::nm45(), &bad).is_err());
        // Non-finite values, and the congestion penalty (a negative one
        // would undercut the A* heuristic's unit edge-cost floor).
        let cases = [
            ("theta", f64::NAN, 2.0),
            ("theta", f64::INFINITY, 2.0),
            ("congestion_penalty", 4.0, f64::NAN),
            ("congestion_penalty", 4.0, f64::INFINITY),
            ("congestion_penalty", 4.0, -1.0),
        ];
        for (what, theta, congestion_penalty) in cases {
            let bad = RouterOptions {
                theta,
                congestion_penalty,
                ..RouterOptions::default()
            };
            match route(&nl, &p, &TechnologyModel::nm45(), &bad) {
                Err(PhysError::InvalidOption { what: w, .. }) => assert_eq!(w, what),
                other => panic!("theta {theta}, penalty {congestion_penalty}: got {other:?}"),
            }
        }
    }

    #[test]
    fn same_bin_wire_routes_trivially() {
        // Two neurons placed at the same spot (one wire between them).
        let mapping = HybridMapping::new(2, vec![], vec![(0, 1)]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let placement = Placement {
            x: vec![0.0, 0.1, 0.2],
            y: vec![0.0, 0.1, 0.2],
            outer_iterations: 0,
            final_overlap_um2: 0.0,
        };
        let r = route(
            &nl,
            &placement,
            &TechnologyModel::nm45(),
            &RouterOptions::default(),
        )
        .unwrap();
        assert!(r
            .routed
            .iter()
            .all(|rw| rw.length_um <= RouterOptions::default().theta * 2.0));
    }

    fn astar_path(grid: &Grid, src: (usize, usize), dst: (usize, usize)) -> Vec<(usize, usize)> {
        grid.shortest_path(src, dst, 8, 2.0, &mut Vec::new())
            .unwrap()
    }

    /// [`route`] with every wire searched by the full-grid Dijkstra
    /// oracle instead of A*. The oracle reports no settled bins, so no
    /// dead end is ever recorded: every failure is a real search.
    fn route_dijkstra(nl: &Netlist, p: &Placement, options: &RouterOptions) -> Routing {
        route_with(nl, p, options, |grid, src, dst, capacity, penalty, _| {
            grid.dijkstra_path(src, dst, capacity, penalty)
        })
        .unwrap()
    }

    thread_local! {
        static SEARCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// [`Grid::shortest_path`], counting its calls on this thread.
    fn counted_search(
        grid: &Grid,
        src: (usize, usize),
        dst: (usize, usize),
        capacity: usize,
        penalty: f64,
        settled: &mut Vec<usize>,
    ) -> Option<Vec<(usize, usize)>> {
        SEARCHES.with(|n| n.set(n.get() + 1));
        grid.shortest_path(src, dst, capacity, penalty, settled)
    }

    fn searches() -> usize {
        SEARCHES.with(std::cell::Cell::get)
    }

    #[test]
    fn grid_shortest_path_is_manhattan_when_uncongested() {
        let grid = Grid::new(10, 10);
        let path = astar_path(&grid, (1, 1), (4, 5));
        assert_eq!(path.len(), 1 + 3 + 4);
        assert_eq!(path[0], (1, 1));
        assert_eq!(*path.last().unwrap(), (4, 5));
    }

    #[test]
    fn congested_edges_cause_detours() {
        let mut grid = Grid::new(5, 3);
        // Saturate the straight corridor between (0,1) and (4,1).
        for c in 0..4 {
            for _ in 0..4 {
                grid.commit(&[(c, 1), (c + 1, 1)]);
            }
        }
        let path = grid
            .shortest_path((0, 1), (4, 1), 2, 10.0, &mut Vec::new())
            .unwrap();
        // The detour leaves row 1.
        assert!(
            path.iter().any(|&(_, r)| r != 1),
            "expected a detour, got {path:?}"
        );
    }

    #[test]
    fn astar_and_dijkstra_agree_bit_for_bit_per_segment() {
        // Exhaustive per-segment equivalence on a grid with uneven
        // congestion: every (src, dst) pair must yield the identical
        // canonical path from both searches.
        let mut grid = Grid::new(12, 9);
        // An asymmetric congestion pattern (diagonal stripes of commits).
        for c in 0..11 {
            for r in 0..9 {
                for _ in 0..((c + 2 * r) % 4) {
                    grid.commit(&[(c, r), (c + 1, r)]);
                }
            }
        }
        for c in 0..12 {
            for r in 0..8 {
                for _ in 0..((3 * c + r) % 3) {
                    grid.commit(&[(c, r), (c, r + 1)]);
                }
            }
        }
        for (src, dst) in [
            ((0, 0), (11, 8)),
            ((11, 0), (0, 8)),
            ((2, 7), (9, 1)),
            ((5, 4), (6, 4)),
            ((0, 4), (11, 4)),
            ((3, 0), (3, 8)),
        ] {
            let astar = grid.shortest_path(src, dst, 4, 5.0, &mut Vec::new());
            let dijkstra = grid.dijkstra_path(src, dst, 4, 5.0);
            assert_eq!(astar, dijkstra, "paths diverged for {src:?} -> {dst:?}");
        }
    }

    #[test]
    fn a_long_detour_around_a_wall_matches_the_oracle() {
        // Wall off the direct corridor so the only path detours far
        // outside the wire's bounding box; the search must still find
        // the same path as the oracle.
        let mut grid = Grid::new(30, 15);
        // Block the vertical edges of a wall at column 10 except row 14,
        // and the horizontal edges crossing column 10 except at row 14.
        for r in 0..14 {
            for _ in 0..8 {
                grid.commit(&[(10, r), (11, r)]);
            }
        }
        let src = (8, 2);
        let dst = (13, 2);
        let astar = grid
            .shortest_path(src, dst, 8, 2.0, &mut Vec::new())
            .unwrap();
        let dijkstra = grid.dijkstra_path(src, dst, 8, 2.0).unwrap();
        assert_eq!(astar, dijkstra, "the long detour diverged from the oracle");
        assert!(
            astar.iter().any(|&(_, r)| r >= 13),
            "path should detour around the wall, got {astar:?}"
        );
    }

    #[test]
    fn scratch_survives_grid_size_changes() {
        // The thread-local arena is shared across searches on grids of
        // different sizes; epoch stamping must keep results correct when
        // a smaller grid follows a larger one (indices alias).
        let big = Grid::new(40, 40);
        let p1 = astar_path(&big, (0, 0), (39, 39));
        assert_eq!(p1.len(), 79);
        let small = Grid::new(4, 4);
        let p2 = astar_path(&small, (0, 0), (3, 3));
        assert_eq!(p2.len(), 7);
        for &(c, r) in &p2 {
            assert!(c < 4 && r < 4, "stale scratch leaked an out-of-grid bin");
        }
        let p3 = astar_path(&big, (39, 0), (0, 39));
        assert_eq!(p3.len(), 79);
    }

    #[test]
    fn routing_is_identical_for_both_algorithms() {
        // End-to-end equivalence under congestion and capacity
        // relaxation: the full Routing structure (paths, lengths,
        // congestion map, relaxations) of A* with dead ends must be
        // bit-identical to the oracle's, which searches every wire. At
        // capacity 1, wires commit, fail and wait for relaxations.
        let (nl, p) = placed_netlist();
        for virtual_capacity in [2, 1] {
            let options = RouterOptions {
                virtual_capacity,
                ..RouterOptions::default()
            };
            let astar = route(&nl, &p, &TechnologyModel::nm45(), &options).unwrap();
            assert_eq!(
                astar,
                route_dijkstra(&nl, &p, &options),
                "A* routing diverged from the oracle at capacity {virtual_capacity}"
            );
            if virtual_capacity == 1 {
                assert!(astar.relaxations > 0, "capacity 1 relaxed nothing");
            }
        }
    }

    #[test]
    fn astar_routes_bit_identical_to_dijkstra_on_the_flow() {
        // The hot-path contract of the router at flow scale: on the
        // determinism suite's pinned design it must produce the exact
        // Routing — every path bin, length, congestion cell — that the
        // full-grid Dijkstra oracle produces without dead ends. The
        // sealed-pin check and the dead ends are pure work reducers,
        // never result changers.
        let (nl, p) = crate::pinned_flow_design();
        let options = RouterOptions::default();
        let astar = route(nl, p, &TechnologyModel::nm45(), &options).unwrap();
        assert!(!astar.routed.is_empty(), "the flow routed real wires");
        assert_eq!(
            astar,
            route_dijkstra(nl, p, &options),
            "A* routing diverged from the Dijkstra oracle"
        );
    }

    /// An edge between two adjacent bins.
    type Edge = ((usize, usize), (usize, usize));

    /// The eight boundary edges of a 2 × 2 pocket at columns 6–7, rows
    /// 3–4, of a 10 × 8 grid, as `(inside, outside)` bins.
    const POCKET_WALL: [Edge; 8] = [
        ((6, 3), (5, 3)),
        ((6, 4), (5, 4)),
        ((7, 3), (8, 3)),
        ((7, 4), (8, 4)),
        ((6, 3), (6, 2)),
        ((7, 3), (7, 2)),
        ((6, 4), (6, 5)),
        ((7, 4), (7, 5)),
    ];

    /// A 10 × 8 grid whose [`POCKET_WALL`] edges each carry `load` wires.
    /// The pocket's own edges stay free, so no pin in it is sealed.
    fn pocket_grid(load: usize) -> Grid {
        let mut grid = Grid::new(10, 8);
        for &(inside, outside) in &POCKET_WALL {
            for _ in 0..load {
                grid.commit(&[inside, outside]);
            }
        }
        grid
    }

    #[test]
    fn dead_ends_answer_a_second_wire_into_a_sealed_pocket() {
        // The first wire into the pocket searches and fails, exhausting
        // the component outside the pocket. A second wire from elsewhere
        // outside into the pocket is then answered without a search, and
        // a wire inside the pocket still searches and routes. After one
        // relaxation opens the pocket, both wires into it route.
        let capacity = 2;
        let mut grid = pocket_grid(capacity);
        let mut dead_ends = DeadEnds::new(10 * 8);
        let first = ((1, 1), (6, 3));
        let second = ((2, 6), (7, 4));
        let base = searches();
        let wire = |grid: &mut Grid, dead_ends: &mut DeadEnds, bins, capacity| {
            route_wire(grid, bins, capacity, 2.0, counted_search, dead_ends)
        };
        assert_eq!(wire(&mut grid, &mut dead_ends, first, capacity), None);
        assert_eq!(searches() - base, 1, "the first wire searches");
        assert_eq!(wire(&mut grid, &mut dead_ends, second, capacity), None);
        assert_eq!(searches() - base, 1, "the dead end answers the second");
        assert_eq!(dead_ends.hits, 1);
        let inner = ((6, 3), (7, 4));
        assert!(wire(&mut grid, &mut dead_ends, inner, capacity).is_some());
        assert_eq!(searches() - base, 2, "a wire inside the pocket searches");
        // Relax: the pocket's boundary edges are usable again.
        dead_ends.relax();
        let relaxed = capacity + 1;
        for (src, dst) in [first, second] {
            let oracle = grid.dijkstra_path(src, dst, relaxed, 2.0);
            assert!(oracle.is_some(), "the relaxed pocket is open");
            let path = wire(&mut grid, &mut dead_ends, (src, dst), relaxed);
            assert_eq!(path, oracle, "{src:?} -> {dst:?}");
        }
    }
}
