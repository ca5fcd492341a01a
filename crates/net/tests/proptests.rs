//! Seeded property tests for the network substrate.
//!
//! Formerly a proptest suite; rewritten as deterministic case loops over
//! `ncs_rng`-generated inputs so the workspace builds offline with no
//! registry dependencies. The invariants are unchanged.

use ncs_net::io::{read_edge_list, write_edge_list};
use ncs_net::{generators, ConnectionMatrix, HopfieldNetwork, PatternSet};
use ncs_rng::Rng;

const CASES: usize = 48;

/// Random connection pairs with both endpoints below `n`.
fn random_pairs(rng: &mut Rng, n: usize, max_len: usize) -> Vec<(usize, usize)> {
    let len = rng.gen_range(0usize..max_len);
    (0..len)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

#[test]
fn connections_match_iteration_count() {
    let mut rng = Rng::seed_from_u64(0xA1);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..40);
        let pairs = random_pairs(&mut rng, n, 80);
        let m = ConnectionMatrix::from_pairs(n, pairs.clone()).unwrap();
        assert_eq!(m.connections(), m.iter().count(), "case {case}");
        for (a, b) in pairs {
            assert!(m.is_connected(a, b), "case {case}: ({a},{b})");
        }
    }
}

#[test]
fn symmetrized_is_idempotent() {
    let mut rng = Rng::seed_from_u64(0xA2);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..30);
        let pairs = random_pairs(&mut rng, n, 60);
        let m = ConnectionMatrix::from_pairs(n, pairs).unwrap();
        let s = m.symmetrized();
        assert!(s.is_symmetric(), "case {case}");
        assert_eq!(s.symmetrized(), s.clone(), "case {case}");
        // Symmetrizing never loses connections.
        assert!(s.connections() >= m.connections(), "case {case}");
    }
}

#[test]
fn difference_then_union_restores() {
    let mut rng = Rng::seed_from_u64(0xA3);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..25);
        let pairs = random_pairs(&mut rng, n, 50);
        let m = ConnectionMatrix::from_pairs(n, pairs).unwrap();
        let cut_len = rng.gen_range(0usize..10);
        let members: Vec<usize> = (0..cut_len).map(|_| rng.gen_range(0..n)).collect();
        let mut remaining = m.clone();
        let removed = remaining.remove_within(&members);
        assert_eq!(
            removed,
            m.connections() - remaining.connections(),
            "case {case}"
        );
        // Removed connections all had both endpoints in members.
        let removed_net = m.difference(&remaining).unwrap();
        for (i, j) in removed_net.iter() {
            assert!(
                members.contains(&i) && members.contains(&j),
                "case {case}: ({i},{j})"
            );
        }
        assert_eq!(remaining.union(&removed_net).unwrap(), m, "case {case}");
    }
}

#[test]
fn fanin_fanout_sums_to_twice_connections() {
    let mut rng = Rng::seed_from_u64(0xA4);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..25);
        let pairs = random_pairs(&mut rng, n, 50);
        let m = ConnectionMatrix::from_pairs(n, pairs).unwrap();
        let total: usize = (0..n).map(|i| m.fanin_fanout(i)).sum();
        assert_eq!(total, 2 * m.connections(), "case {case}");
    }
}

#[test]
fn noisy_pattern_flip_count_is_exact() {
    let mut rng = Rng::seed_from_u64(0xA5);
    for case in 0..CASES {
        let dim = rng.gen_range(1usize..200);
        let frac = rng.gen_range(0.0..1.0);
        let s = PatternSet::random_qr(1, dim, 9).unwrap();
        let noisy = s.noisy_pattern(0, frac, 4).unwrap();
        let flips = s
            .pattern(0)
            .iter()
            .zip(&noisy)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(
            flips,
            (frac * dim as f64).round() as usize,
            "case {case}: dim={dim} frac={frac}"
        );
    }
}

#[test]
fn hopfield_async_recall_is_a_descent() {
    let mut rng = Rng::seed_from_u64(0xA6);
    for case in 0..CASES {
        let patterns = rng.gen_range(1usize..4);
        let dim = rng.gen_range(20usize..60);
        let noise = rng.gen_range(0.0..0.4);
        let seed = rng.gen_range(0u64..50);
        let set = PatternSet::random_qr(patterns, dim, seed).unwrap();
        let mut h = HopfieldNetwork::train(&set).unwrap();
        h.sparsify_to(0.7).unwrap();
        let noisy = set.noisy_pattern(0, noise, seed ^ 1).unwrap();
        let e0 = h.energy(&noisy).unwrap();
        let out = h.recall_async(&noisy, 100).unwrap();
        assert!(
            out.converged,
            "case {case}: async recall must reach a fixed point"
        );
        let e1 = h.energy(&out.state).unwrap();
        assert!(e1 <= e0 + 1e-9, "case {case}: energy rose {e0} -> {e1}");
        // The fixed point really is fixed.
        let again = h.recall_async(&out.state, 2).unwrap();
        assert_eq!(again.state, out.state, "case {case}");
    }
}

#[test]
fn uniform_random_within_density_bounds() {
    let mut rng = Rng::seed_from_u64(0xA7);
    for case in 0..CASES {
        let n = rng.gen_range(10usize..60);
        let density = rng.gen_range(0.0..0.5);
        let net = generators::uniform_random(n, density, 11).unwrap();
        let expected = density * (n * n) as f64;
        let sd = (expected.max(1.0)).sqrt();
        assert!(
            (net.connections() as f64 - expected).abs() < 6.0 * sd + 2.0,
            "case {case}: n={n} density={density} got {}",
            net.connections()
        );
    }
}

/// Appends one random line of edge-list text, then a line end (LF, CRLF
/// or none). Kinds 0–3 are valid after a `neurons n` header: an edge in
/// range, a comment, whitespace. The rest are not, or not always: a
/// header (including counts no bitmap can hold), an edge that may be out
/// of range, trailing tokens, a byte-order mark, raw bytes.
fn push_fragment(rng: &mut Rng, out: &mut Vec<u8>, n: u64, kind: usize) {
    let index = |rng: &mut Rng| rng.gen_range(0u64..24);
    match kind {
        0 | 1 => out.extend(format!("{} {}", rng.gen_range(0..n), rng.gen_range(0..n)).bytes()),
        2 => out.extend(b"# comment"),
        3 => out.extend(b" \t "),
        4 => {
            let n = [0, 1, 4, 17, 4_000_000_000, u64::MAX][rng.gen_range(0usize..6)];
            out.extend(format!("neurons {n}").bytes());
        }
        5 => out.extend(format!("{} {}", index(rng), index(rng)).bytes()),
        6 => out.extend(format!("{} {} {}", index(rng), index(rng), index(rng)).bytes()),
        7 => out.extend("\u{feff}neurons 3".bytes()),
        _ => {
            for _ in 0..rng.gen_range(0usize..16) {
                out.push((rng.next_u64() & 0xff) as u8);
            }
        }
    }
    match rng.gen_range(0usize..8) {
        0 => {}
        1..=3 => out.extend(b"\r\n"),
        _ => out.push(b'\n'),
    }
}

#[test]
fn edge_list_parser_fails_only_with_typed_errors() {
    // Every input either parses — and then survives a write/read round
    // trip — or fails with a `ParseNetError` that renders; none panics
    // or aborts on an allocation. Half the inputs are valid edge lists
    // with at most one bad line; the rest are any mix of fragments.
    let mut rng = Rng::seed_from_u64(0xA8);
    let mut parsed = 0;
    for case in 0..3000 {
        let n = rng.gen_range(1u64..24);
        let clean = case % 2 == 0;
        let mut text = Vec::new();
        if clean {
            text.extend(format!("neurons {n}\n").bytes());
        }
        let lines = rng.gen_range(0usize..12);
        let bad_line = rng.gen_range(0..2 * lines.max(1));
        for line in 0..lines {
            let kind = if !clean || line == bad_line {
                rng.gen_range(0usize..10)
            } else {
                rng.gen_range(0usize..4)
            };
            push_fragment(&mut rng, &mut text, n, kind);
        }
        match read_edge_list(&text[..]) {
            Ok(net) => {
                parsed += 1;
                let mut written = Vec::new();
                write_edge_list(&net, &mut written).unwrap();
                let back = read_edge_list(&written[..]).unwrap();
                assert_eq!(back, net, "case {case}: round trip changed the network");
            }
            Err(e) => assert!(!e.to_string().is_empty(), "case {case}"),
        }
    }
    // Enough inputs parse that the round trip is exercised.
    assert!(parsed > 500, "only {parsed} inputs parsed");
}
