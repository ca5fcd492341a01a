//! Full-scale checks of the paper's headline claims on the real
//! testbenches. These run the complete flow on 300-500 neuron networks,
//! so they are `#[ignore]`d by default and exercised in release mode:
//!
//! ```text
//! cargo test --release --test paper_claims -- --ignored
//! ```
//!
//! CI runs every test here that passes, by name with `--exact`;
//! `isc_clusters_the_overwhelming_majority_of_connections` stays out
//! until the defect its ignore reason names is fixed.
//!
//! (The `repro` binary in `crates/bench` regenerates the full tables and
//! figures; these tests assert the headline directions only.)

use autoncs::AutoNcs;
use ncs_net::Testbench;

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn testbench_sparsities_match_section_4_1() {
    for (id, expect) in [(1usize, 0.9447f64), (2, 0.9359), (3, 0.9439)] {
        let tb = Testbench::paper(id, 42).unwrap();
        assert!(
            (tb.network().sparsity() - expect).abs() < 1e-3,
            "testbench {id}: {} vs {expect}",
            tb.network().sparsity()
        );
    }
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn recognition_rate_above_90_percent() {
    for id in [1usize, 2, 3] {
        let tb = Testbench::paper(id, 42).unwrap();
        let report = tb.recognition_rate(0.02, 777).unwrap();
        assert!(
            report.rate() > 0.9,
            "testbench {id} recognition rate {}",
            report.rate()
        );
    }
}

#[test]
#[ignore = "known defect: testbench 1 at seed 42 ends ISC at 14.4 % outliers after 5 iterations"]
fn isc_clusters_the_overwhelming_majority_of_connections() {
    // Figures 7-9: after ISC, ~95% of connections are clustered.
    for id in [1usize, 2, 3] {
        let tb = Testbench::paper(id, 42).unwrap();
        let (mapping, trace) = AutoNcs::new().map(tb.network()).unwrap();
        mapping.verify_covers(tb.network()).unwrap();
        assert!(
            mapping.outlier_ratio() < 0.12,
            "testbench {id}: outlier ratio {} after {} iterations",
            mapping.outlier_ratio(),
            trace.iterations.len()
        );
        assert!(
            trace.iterations.len() >= 8,
            "testbench {id}: {} iterations",
            trace.iterations.len()
        );
    }
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn testbenches_that_stalled_the_ql_eigensolver_map_and_cover() {
    // The dense QL eigensolver used to stop with `NoConvergence` inside
    // ISC on these testbenches: a remainder with many isolated neurons
    // leaves a block of near-zero diagonals that its local split test
    // never deflates. The norm-relative fallback maps every one.
    for (id, seed) in [
        (1usize, 19u64),
        (1, 28),
        (1, 29),
        (1, 35),
        (3, 13),
        (3, 44),
        (3, 58),
    ] {
        let tb = Testbench::paper(id, seed).unwrap();
        let (mapping, _) = AutoNcs::new()
            .map(tb.network())
            .unwrap_or_else(|e| panic!("testbench {id} seed {seed}: {e}"));
        mapping.verify_covers(tb.network()).unwrap();
    }
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn table_1_reductions_hold_in_direction_and_rough_magnitude() {
    // Table 1: AutoNCS reduces wirelength / area / delay on every
    // testbench; average reductions are 47.80% / 31.97% / 47.18% in the
    // paper. The reproduction asserts the directions plus loose bands.
    let framework = AutoNcs::new();
    let mut avg = (0.0, 0.0, 0.0);
    for id in [1usize, 2, 3] {
        let tb = Testbench::paper(id, 42).unwrap();
        let report = framework.compare(tb.network()).unwrap();
        let (w, a, d) = (
            report.wirelength_reduction(),
            report.area_reduction(),
            report.delay_reduction(),
        );
        assert!(w > 0.2, "testbench {id}: wirelength reduction {w}");
        assert!(a > 0.05, "testbench {id}: area reduction {a}");
        assert!(d > 0.2, "testbench {id}: delay reduction {d}");
        avg.0 += w / 3.0;
        avg.1 += a / 3.0;
        avg.2 += d / 3.0;
    }
    assert!(avg.0 > 0.3, "average wirelength reduction {}", avg.0);
    assert!(avg.1 > 0.15, "average area reduction {}", avg.1);
    assert!(avg.2 > 0.3, "average delay reduction {}", avg.2);
    // Table 1's scalability observation: area reduction grows with the
    // scale of the NCS (21.3% -> 29.5% -> 45.1% in the paper).
}
