//! Physical-design substrate for the AutoNCS reproduction.
//!
//! Section 3.5 of the paper describes a customized placement & routing
//! flow: crossbars, neurons and discrete synapses are mixed-size cells that
//! need not align into rows; wires carry RC-delay-derived weights; the
//! placer minimizes a weighted-average (WA) smooth wirelength plus a
//! density penalty with conjugate gradient (Algorithm 4); and routing is
//! maze routing on a grid graph with FastRoute-style *virtual capacity*
//! that is relaxed until every wire routes. The final physical cost is
//! `α·L + β·A + δ·T` (Eq. 3) over total wirelength, chip area and average
//! wire delay.
//!
//! This crate implements that flow from scratch:
//!
//! * [`Netlist`] — cells and weighted wires derived from a
//!   `HybridMapping` (ncs-cluster) and a `TechnologyModel` (ncs-tech),
//! * [`place`] — the placer of Algorithm 4 (WA wirelength +
//!   finite-support pairwise density, λ-doubling outer loop, CG inner
//!   solver, push-apart and gap-fill legalization, optional detailed
//!   swap),
//! * [`route`] — the grid-graph maze router with virtual capacity and
//!   congestion-map output,
//! * [`PhysicalCost`] / [`CostWeights`] — the Eq. 3 evaluator,
//! * [`implement_mapping`] — the one-call flow used by the experiments.
//!
//! # Examples
//!
//! ```
//! use ncs_cluster::full_crossbar;
//! use ncs_net::generators;
//! use ncs_phys::{implement_mapping, ImplementOptions};
//! use ncs_tech::TechnologyModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = generators::uniform_random(60, 0.05, 3)?;
//! let mapping = full_crossbar(&net, 16)?;
//! let design = implement_mapping(&mapping, &TechnologyModel::nm45(),
//!                                &ImplementOptions::fast())?;
//! assert!(design.cost.wirelength_um > 0.0);
//! assert!(design.cost.area_um2 > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod error;
mod netlist;
mod place;
mod route;

pub use cost::{CostWeights, PhysicalCost};
pub use error::PhysError;
pub use netlist::{Cell, CellId, Netlist, Wire, WireId};
pub use place::{detailed_swap, place, Placement, PlacerOptions};
pub use route::{route, CongestionMap, RouterOptions, Routing};

use ncs_cluster::HybridMapping;
use ncs_tech::TechnologyModel;

/// Options for the end-to-end [`implement_mapping`] flow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImplementOptions {
    /// Placement options.
    pub placer: PlacerOptions,
    /// Routing options.
    pub router: RouterOptions,
    /// Cost weights (α, β, δ); the paper sets all three to 1.
    pub weights: CostWeights,
}

impl ImplementOptions {
    /// A reduced-effort configuration for tests and doc examples.
    pub fn fast() -> Self {
        ImplementOptions {
            placer: PlacerOptions::fast(),
            ..ImplementOptions::default()
        }
    }
}

/// A complete physical design: netlist, placement, routing and cost.
#[derive(Debug, Clone)]
pub struct PhysicalDesign {
    /// The placed-and-routed netlist.
    pub netlist: Netlist,
    /// Final legalized cell locations.
    pub placement: Placement,
    /// Routed wires and congestion data.
    pub routing: Routing,
    /// The Eq. 3 cost breakdown.
    pub cost: PhysicalCost,
}

/// Runs the full physical-design flow of Section 3.5 on a hybrid mapping:
/// netlist generation, analytical placement, maze routing, and cost
/// evaluation.
///
/// # Errors
///
/// Propagates [`PhysError`] from any stage (degenerate netlists, routing
/// failures that survive capacity relaxation, invalid options).
pub fn implement_mapping(
    mapping: &HybridMapping,
    tech: &TechnologyModel,
    options: &ImplementOptions,
) -> Result<PhysicalDesign, PhysError> {
    let netlist = Netlist::from_mapping(mapping, tech);
    let placement = {
        let _span = ncs_trace::span("phys.place");
        place(&netlist, &options.placer)?
    };
    let routing = {
        let _span = ncs_trace::span("phys.route");
        route(&netlist, &placement, tech, &options.router)?
    };
    let cost = PhysicalCost::evaluate(&netlist, &placement, &routing, tech, options.weights);
    Ok(PhysicalDesign {
        netlist,
        placement,
        routing,
        cost,
    })
}

/// The determinism suite's pinned flow design, built once per test
/// binary: testbench spec 77 (120 neurons) at seed 42, mapped by ISC with
/// default options and placed with [`PlacerOptions::fast`], as
/// `AutoNcs::fast()` does. The equivalence tests against the swap and
/// router oracles run on it.
#[cfg(test)]
fn pinned_flow_design() -> &'static (Netlist, Placement) {
    static DESIGN: std::sync::OnceLock<(Netlist, Placement)> = std::sync::OnceLock::new();
    DESIGN.get_or_init(|| {
        let spec = ncs_net::TestbenchSpec {
            id: 77,
            patterns: 6,
            neurons: 120,
            sparsity: 0.92,
        };
        let tb = ncs_net::Testbench::from_spec(spec, 42).unwrap();
        let mapping = ncs_cluster::Isc::new(ncs_cluster::IscOptions::default())
            .run(tb.network())
            .unwrap();
        let netlist = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let placement = place(&netlist, &PlacerOptions::fast()).unwrap();
        (netlist, placement)
    })
}
