use std::collections::BTreeSet;

use ncs_cluster::HybridMapping;
use ncs_tech::{CellDims, CellKind, TechnologyModel};

use crate::PhysError;

/// Identifier of a cell within a [`Netlist`].
pub type CellId = usize;

/// Identifier of a wire within a [`Netlist`].
pub type WireId = usize;

/// A placeable cell: a crossbar, a neuron, or a discrete synapse.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Cell id (index into [`Netlist::cells`]).
    pub id: CellId,
    /// What the cell is.
    pub kind: CellKind,
    /// Physical footprint.
    pub dims: CellDims,
    /// For neuron cells, the neuron index in the source network; for
    /// crossbar cells, the index of the crossbar in the mapping; for
    /// synapse cells, the index of the outlier connection.
    pub source: usize,
}

/// A weighted wire joining two cells. [`Netlist::from_mapping`] emits one
/// per neuron ↔ crossbar and neuron ↔ synapse connection, as Table 1
/// counts wire per connection. Both pins may name the same cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    /// Wire id (index into [`Netlist::wires`]).
    pub id: WireId,
    /// The two joined cells. The router routes from `pins[0]` to
    /// `pins[1]`.
    pub pins: [CellId; 2],
    /// RC-delay-derived weight (higher = more timing-critical, shortened
    /// preferentially by the placer).
    pub weight: f64,
}

/// The cell/wire graph that the placer and router operate on.
///
/// # Examples
///
/// ```
/// use ncs_cluster::full_crossbar;
/// use ncs_net::generators;
/// use ncs_phys::Netlist;
/// use ncs_tech::TechnologyModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::uniform_random(40, 0.06, 1)?;
/// let mapping = full_crossbar(&net, 16)?;
/// let netlist = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
/// // One neuron cell per network neuron plus one cell per crossbar.
/// assert_eq!(netlist.cells.len(), 40 + mapping.crossbars().len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// All cells; `cells[i].id == i`.
    pub cells: Vec<Cell>,
    /// All wires; `wires[i].id == i`.
    pub wires: Vec<Wire>,
}

impl Netlist {
    /// Builds the netlist of a hybrid mapping:
    ///
    /// * one **neuron** cell per network neuron,
    /// * one **crossbar** cell per crossbar assignment, wired to every
    ///   distinct neuron it touches,
    /// * one **synapse** cell per outlier connection, wired to its source
    ///   and destination neurons.
    ///
    /// Wire weights come from
    /// [`TechnologyModel::wire_weight`], i.e. RC-delay estimates of the
    /// endpoints (Section 3.5, Eq. 1: "user-defined various wire weights
    /// between memristors and crossbars").
    pub fn from_mapping(mapping: &HybridMapping, tech: &TechnologyModel) -> Self {
        let mut cells = Vec::new();
        let mut wires = Vec::new();
        // Neuron cells first: neuron i -> cell id i.
        for neuron in 0..mapping.neurons() {
            cells.push(Cell {
                id: cells.len(),
                kind: CellKind::Neuron,
                dims: tech.dims(CellKind::Neuron),
                source: neuron,
            });
        }
        for (ci, xbar) in mapping.crossbars().iter().enumerate() {
            let kind = CellKind::Crossbar(xbar.size);
            let xbar_cell = cells.len();
            cells.push(Cell {
                id: xbar_cell,
                kind,
                dims: tech.dims(kind),
                source: ci,
            });
            let touched: BTreeSet<usize> = xbar
                .inputs
                .iter()
                .chain(xbar.outputs.iter())
                .copied()
                .collect();
            for neuron in touched {
                wires.push(Wire {
                    id: wires.len(),
                    pins: [neuron, xbar_cell],
                    weight: tech.wire_weight(CellKind::Neuron, kind),
                });
            }
        }
        for (oi, &(from, to)) in mapping.outliers().iter().enumerate() {
            let syn_cell = cells.len();
            cells.push(Cell {
                id: syn_cell,
                kind: CellKind::Synapse,
                dims: tech.dims(CellKind::Synapse),
                source: oi,
            });
            let weight = tech.wire_weight(CellKind::Neuron, CellKind::Synapse);
            wires.push(Wire {
                id: wires.len(),
                pins: [from, syn_cell],
                weight,
            });
            if to != from {
                wires.push(Wire {
                    id: wires.len(),
                    pins: [syn_cell, to],
                    weight,
                });
            }
        }
        Netlist { cells, wires }
    }

    /// Checks what [`place`](crate::place) and [`route`](crate::route)
    /// index by: the netlist has a cell, and every wire pin names one.
    ///
    /// # Errors
    ///
    /// Returns [`PhysError::EmptyNetlist`] for a cell-less netlist and
    /// [`PhysError::DegenerateWire`] for the first wire with a pin that
    /// names no cell.
    pub(crate) fn check(&self) -> Result<(), PhysError> {
        if self.cells.is_empty() {
            return Err(PhysError::EmptyNetlist);
        }
        let names_no_cell = |w: &&Wire| w.pins.iter().any(|&p| p >= self.cells.len());
        match self.wires.iter().find(names_no_cell) {
            Some(w) => Err(PhysError::DegenerateWire { id: w.id }),
            None => Ok(()),
        }
    }

    /// Total cell area, µm².
    pub fn total_cell_area(&self) -> f64 {
        self.cells.iter().map(|c| c.dims.area()).sum()
    }

    /// Number of cells of each kind: `(crossbars, synapses, neurons)`.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut x = 0;
        let mut s = 0;
        let mut n = 0;
        for c in &self.cells {
            match c.kind {
                CellKind::Crossbar(_) => x += 1,
                CellKind::Synapse => s += 1,
                CellKind::Neuron => n += 1,
            }
        }
        (x, s, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_cluster::{full_crossbar, CrossbarAssignment, HybridMapping};
    use ncs_net::generators;

    #[test]
    fn cell_ids_are_indices() {
        let net = generators::uniform_random(30, 0.08, 2).unwrap();
        let mapping = full_crossbar(&net, 16).unwrap();
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        for (i, c) in nl.cells.iter().enumerate() {
            assert_eq!(c.id, i);
        }
        for (i, w) in nl.wires.iter().enumerate() {
            assert_eq!(w.id, i);
            for &p in &w.pins {
                assert!(p < nl.cells.len());
            }
        }
    }

    #[test]
    fn outliers_become_synapse_cells_with_two_wires() {
        let mapping = HybridMapping::new(4, vec![], vec![(0, 1), (2, 3)]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let (x, s, n) = nl.kind_counts();
        assert_eq!((x, s, n), (0, 2, 4));
        assert_eq!(nl.wires.len(), 4);
    }

    #[test]
    fn self_loop_outlier_gets_single_wire() {
        let mapping = HybridMapping::new(2, vec![], vec![(1, 1)]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        assert_eq!(nl.wires.len(), 1);
    }

    #[test]
    fn crossbar_wires_touch_each_distinct_neuron_once() {
        let xbar = CrossbarAssignment::new(
            vec![0, 1, 2],
            vec![0, 1, 2],
            16,
            vec![(0, 1), (1, 2), (2, 0)],
        );
        let mapping = HybridMapping::new(3, vec![xbar], vec![]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        // 3 neurons + 1 crossbar, 3 neuron-to-crossbar wires.
        assert_eq!(nl.cells.len(), 4);
        assert_eq!(nl.wires.len(), 3);
    }

    #[test]
    fn crossbar_wires_are_heavier_than_synapse_wires() {
        let xbar = CrossbarAssignment::new(vec![0], vec![0], 64, vec![(0, 0)]);
        let mapping = HybridMapping::new(2, vec![xbar], vec![(0, 1)]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let xbar_wire = nl
            .wires
            .iter()
            .find(|w| w.pins.contains(&2))
            .expect("crossbar wire exists");
        let syn_wire = nl
            .wires
            .iter()
            .find(|w| w.pins.contains(&3))
            .expect("synapse wire exists");
        assert!(xbar_wire.weight > syn_wire.weight);
    }

    #[test]
    fn total_area_sums_cells() {
        let mapping = HybridMapping::new(2, vec![], vec![(0, 1)]);
        let tech = TechnologyModel::nm45();
        let nl = Netlist::from_mapping(&mapping, &tech);
        let expect = 2.0 * tech.area(CellKind::Neuron) + tech.area(CellKind::Synapse);
        assert!((nl.total_cell_area() - expect).abs() < 1e-9);
    }
}
