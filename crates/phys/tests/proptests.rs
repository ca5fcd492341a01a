//! Seeded property tests for the physical-design substrate: placement
//! legality and routing consistency over randomized mappings.
//!
//! Formerly a proptest suite; rewritten as deterministic case loops over
//! `ncs_rng`-generated inputs so the workspace builds offline with no
//! registry dependencies. The invariants are unchanged.

use ncs_cluster::full_crossbar;
use ncs_net::generators;
use ncs_phys::{place, route, Netlist, PlacerOptions, RouterOptions};
use ncs_rng::Rng;
use ncs_tech::TechnologyModel;

// Placement is expensive; keep case counts modest (matches the old
// ProptestConfig::with_cases(10)).
const CASES: usize = 10;

fn random_netlist(n: usize, density: f64, size: usize, seed: u64) -> Netlist {
    let net = generators::uniform_random(n, density, seed).expect("valid generator args");
    let mapping = full_crossbar(&net, size).expect("valid crossbar size");
    Netlist::from_mapping(&mapping, &TechnologyModel::nm45())
}

#[test]
fn placement_is_always_legal() {
    let mut rng = Rng::seed_from_u64(0x7031);
    for case in 0..CASES {
        let n = rng.gen_range(10usize..50);
        let density = rng.gen_range(0.02f64..0.12);
        let size = rng.gen_range(8usize..24);
        let seed = rng.gen_range(0u64..100);
        let nl = random_netlist(n, density, size, seed);
        let p = place(&nl, &PlacerOptions::fast()).unwrap();
        // Legal: negligible overlap, positive quadrant, finite coordinates.
        assert!(
            p.final_overlap_um2 < 0.02 * nl.total_cell_area().max(1.0),
            "case {case}: n={n} size={size} seed={seed}"
        );
        let (x0, y0, x1, y1) = p.bounding_box(&nl);
        assert!(x0 > -1e-9 && y0 > -1e-9, "case {case}");
        assert!(x1.is_finite() && y1.is_finite(), "case {case}");
        // The die can hold all cells.
        assert!(
            p.area_um2(&nl) >= nl.total_cell_area() * 0.99,
            "case {case}"
        );
    }
}

#[test]
fn routing_is_complete_and_consistent() {
    let mut rng = Rng::seed_from_u64(0x7033);
    for case in 0..CASES {
        let n = rng.gen_range(10usize..40);
        let theta = rng.gen_range(2.0f64..10.0);
        let seed = rng.gen_range(0u64..100);
        let nl = random_netlist(n, 0.06, 16, seed);
        let p = place(&nl, &PlacerOptions::fast()).unwrap();
        let opts = RouterOptions {
            theta,
            ..RouterOptions::default()
        };
        let r = route(&nl, &p, &TechnologyModel::nm45(), &opts).unwrap();
        assert_eq!(r.routed.len(), nl.wires.len(), "case {case}");
        // Lengths are non-negative multiples of theta; paths visit valid bins.
        for rw in &r.routed {
            assert!(rw.length_um >= 0.0, "case {case}");
            let steps = (rw.length_um / theta).round() as usize;
            assert!(
                (rw.length_um - steps as f64 * theta).abs() < 1e-9,
                "case {case}: length {} not a multiple of theta {theta}",
                rw.length_um
            );
            for &(c, row) in &rw.path {
                assert!(
                    c < r.congestion.cols && row < r.congestion.rows,
                    "case {case}"
                );
            }
        }
        // Usage bookkeeping matches the paths.
        let bins: usize = r.routed.iter().map(|w| w.path.len()).sum();
        assert_eq!(
            bins,
            r.congestion.usage.iter().sum::<usize>(),
            "case {case}"
        );
    }
}

#[test]
fn detailed_swap_is_monotone() {
    let mut rng = Rng::seed_from_u64(0x7034);
    for case in 0..CASES {
        let n = rng.gen_range(10usize..40);
        let seed = rng.gen_range(0u64..100);
        let nl = random_netlist(n, 0.06, 16, seed);
        let base = place(&nl, &PlacerOptions::fast()).unwrap();
        let refined = place(
            &nl,
            &PlacerOptions {
                detailed_swap_passes: 3,
                ..PlacerOptions::fast()
            },
        )
        .unwrap();
        assert!(
            refined.weighted_hpwl(&nl) <= base.weighted_hpwl(&nl) + 1e-9,
            "case {case}: n={n} seed={seed}"
        );
        assert!(
            (refined.area_um2(&nl) - base.area_um2(&nl)).abs() < 1e-6,
            "case {case}"
        );
    }
}
