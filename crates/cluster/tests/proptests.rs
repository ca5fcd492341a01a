//! Seeded property tests for the clustering algorithms.
//!
//! Formerly a proptest suite; rewritten as deterministic case loops so the
//! workspace builds offline with no registry dependencies. Each test draws
//! its case parameters from a fixed-seed `ncs_rng::Rng` stream, so the
//! exact cases are reproducible run to run while still sweeping the same
//! parameter ranges the proptest strategies covered.

use ncs_cluster::{full_crossbar, gcp, msc, CpModel, CrossbarSizeSet, Isc, IscOptions};
use ncs_net::generators;
use ncs_rng::Rng;

// Spectral work is expensive; keep case counts modest (matches the old
// ProptestConfig::with_cases(12)).
const CASES: usize = 12;

#[test]
fn msc_partitions_all_neurons() {
    let mut rng = Rng::seed_from_u64(0x6d7363);
    for case in 0..CASES {
        let n = rng.gen_range(8usize..40);
        let k = rng.gen_range(1usize..6).min(n);
        let seed = rng.gen_range(0u64..50);
        let net = generators::uniform_random(n, 0.15, seed).unwrap();
        let c = msc(&net, k, seed).unwrap();
        let total: usize = c.sizes().iter().sum();
        assert_eq!(total, n, "case {case}: n={n} k={k} seed={seed}");
        // Within + outliers == all connections.
        assert_eq!(
            c.within_connections(&net) + c.outlier_count(&net),
            net.connections(),
            "case {case}: n={n} k={k} seed={seed}"
        );
    }
}

#[test]
fn gcp_never_exceeds_limit() {
    let mut rng = Rng::seed_from_u64(0x676370);
    for case in 0..CASES {
        let n = rng.gen_range(10usize..60);
        let limit = rng.gen_range(4usize..20);
        let seed = rng.gen_range(0u64..50);
        let net = generators::uniform_random(n, 0.1, seed).unwrap();
        let c = gcp(&net, limit, seed).unwrap();
        assert!(
            c.max_cluster_size() <= limit,
            "case {case}: n={n} limit={limit} seed={seed} got {}",
            c.max_cluster_size()
        );
        assert_eq!(c.sizes().iter().sum::<usize>(), n, "case {case}");
    }
}

#[test]
fn isc_covering_invariant() {
    let mut rng = Rng::seed_from_u64(0x697363);
    for case in 0..CASES {
        let n = rng.gen_range(16usize..70);
        let density = rng.gen_range(0.03f64..0.15);
        let seed = rng.gen_range(0u64..50);
        let net = generators::uniform_random(n, density, seed).unwrap();
        let opts = IscOptions {
            sizes: CrossbarSizeSet::new([8, 16, 24, 32]).unwrap(),
            seed,
            ..IscOptions::default()
        };
        let (mapping, _) = Isc::new(opts).run_traced(&net).unwrap();
        assert!(
            mapping.verify_covers(&net).is_ok(),
            "case {case}: n={n} density={density} seed={seed}"
        );
        // All crossbar sizes come from the specified set.
        for c in mapping.crossbars() {
            assert!([8usize, 16, 24, 32].contains(&c.size), "case {case}");
            assert!(c.inputs.len() <= c.size, "case {case}");
            assert!(c.outputs.len() <= c.size, "case {case}");
        }
    }
}

#[test]
fn fullcro_covers_everything() {
    let mut rng = Rng::seed_from_u64(0x666372);
    for case in 0..CASES {
        let n = rng.gen_range(10usize..80);
        let size = rng.gen_range(8usize..40);
        let seed = rng.gen_range(0u64..50);
        let net = generators::uniform_random(n, 0.08, seed).unwrap();
        let mapping = full_crossbar(&net, size).unwrap();
        assert!(
            mapping.verify_covers(&net).is_ok(),
            "case {case}: n={n} size={size} seed={seed}"
        );
        assert!(mapping.outliers().is_empty(), "case {case}");
    }
}

#[test]
fn cp_orderings_hold_for_any_m_s() {
    use ncs_cluster::crossbar_preference;
    let mut rng = Rng::seed_from_u64(0x6370);
    // Pure arithmetic, so sweep many more cases than the spectral tests.
    for case in 0..200 {
        let m = rng.gen_range(0usize..5000);
        let s = rng.gen_range(1usize..128);
        for model in [CpModel::MOverSSqrtU, CpModel::MuOverS] {
            let base = crossbar_preference(m, s, model);
            // More connections never lowers CP.
            assert!(
                crossbar_preference(m + 1, s, model) >= base,
                "case {case}: m={m} s={s} {model:?}"
            );
            // A bigger crossbar never raises CP for fixed m.
            assert!(
                crossbar_preference(m, s + 1, model) <= base,
                "case {case}: m={m} s={s} {model:?}"
            );
            assert!(base.is_finite() && base >= 0.0, "case {case}");
        }
    }
}
