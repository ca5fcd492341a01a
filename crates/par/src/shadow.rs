//! The shadow-access checker: an in-house race detector for the
//! deterministic parallel layer.
//!
//! The mutable-split primitive `par_chunks_mut` rests on one invariant:
//! the element ranges handed to the workers are **pairwise disjoint and
//! cover the input exactly**. The borrow checker enforces this for the
//! `split_at_mut` calls themselves, but not for the *claim arithmetic*
//! that feeds them — an off-by-one in the worker-run computation would
//! silently skip or double-visit elements, which is exactly the bug
//! class that breaks bit-identity across thread counts.
//!
//! When the checker is enabled (`NCS_SHADOW=1` or
//! [`set_shadow_override`]), launches verify their claim tables before
//! spawning and panic on a violation. It is a debug/test facility: the
//! checker is off by default and costs one branch per launch when
//! disabled.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Shadow-checker override: 0 unset, 1 forced off, 2 forced on.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `NCS_SHADOW`, resolved once per process.
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether the shadow-access checker is active.
///
/// Priority: [`set_shadow_override`] > the `NCS_SHADOW` environment
/// variable (`1` / `true` enable; read once per process) > off.
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *ENV_ENABLED
            .get_or_init(|| resolve_enabled(std::env::var("NCS_SHADOW").ok().as_deref())),
    }
}

/// Pure resolution of the `NCS_SHADOW` value, separated from process
/// state so it can be unit-tested without touching the environment.
pub fn resolve_enabled(env_value: Option<&str>) -> bool {
    matches!(env_value.map(str::trim), Some("1") | Some("true"))
}

/// Installs (`Some(v)`) or removes (`None`) an in-process override for
/// the shadow checker, taking priority over `NCS_SHADOW`. Tests use
/// this to enable checking without racy environment mutation.
pub fn set_shadow_override(v: Option<bool>) {
    let raw = match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    OVERRIDE.store(raw, Ordering::Relaxed);
}

/// A violated claim-table invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShadowError {
    /// Two claims share at least one element index.
    Overlap {
        /// The earlier claim (after sorting by start).
        first: Range<usize>,
        /// The claim that re-enters `first` before it ends.
        second: Range<usize>,
    },
    /// The claim table leaves a hole: no claim starts at `expected`.
    Gap {
        /// First unclaimed element index.
        expected: usize,
        /// Start of the next claim after the hole (`total` if none).
        found: usize,
    },
    /// A claim reaches past the end of the data.
    OutOfBounds {
        /// The offending claim.
        claim: Range<usize>,
        /// Total number of elements in the launch.
        total: usize,
    },
}

impl fmt::Display for ShadowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShadowError::Overlap { first, second } => write!(
                f,
                "claims {}..{} and {}..{} overlap: an element has two writers",
                first.start, first.end, second.start, second.end
            ),
            ShadowError::Gap { expected, found } => write!(
                f,
                "claims leave elements {expected}..{found} unclaimed: they would never be visited"
            ),
            ShadowError::OutOfBounds { claim, total } => write!(
                f,
                "claim {}..{} reaches past the data (len {total})",
                claim.start, claim.end
            ),
        }
    }
}

/// Verifies that `claims` are pairwise disjoint and cover `0..total`
/// exactly — the contract every mutable-split launch must satisfy.
///
/// Empty claims are permitted (a worker run can be empty when there are
/// more workers than chunks). The check is order-independent: claims
/// are sorted by start before scanning, so a buggy split that produced
/// out-of-order ranges is still diagnosed precisely.
///
/// # Errors
///
/// Returns the first [`ShadowError`] found, scanning left to right.
pub fn verify_claims(total: usize, claims: &[Range<usize>]) -> Result<(), ShadowError> {
    let mut sorted: Vec<Range<usize>> =
        claims.iter().filter(|r| r.start < r.end).cloned().collect();
    sorted.sort_by_key(|r| (r.start, r.end));
    let mut prev: Option<Range<usize>> = None;
    for claim in &sorted {
        if claim.end > total {
            return Err(ShadowError::OutOfBounds {
                claim: claim.clone(),
                total,
            });
        }
        let covered = prev.as_ref().map_or(0, |p| p.end);
        match claim.start.cmp(&covered) {
            std::cmp::Ordering::Less => {
                return Err(ShadowError::Overlap {
                    first: prev.clone().unwrap_or(0..0),
                    second: claim.clone(),
                });
            }
            std::cmp::Ordering::Greater => {
                return Err(ShadowError::Gap {
                    expected: covered,
                    found: claim.start,
                });
            }
            std::cmp::Ordering::Equal => prev = Some(claim.clone()),
        }
    }
    let covered = prev.map_or(0, |p| p.end);
    if covered != total {
        return Err(ShadowError::Gap {
            expected: covered,
            found: total,
        });
    }
    Ok(())
}

/// Launch-side assertion used by `par_chunks_mut` before any worker
/// spawns, so a violation surfaces on the launching thread.
///
/// # Panics
///
/// Panics with the primitive name and the precise claim defect when the
/// table violates the disjoint-cover contract.
pub(crate) fn check_launch(primitive: &str, total: usize, claims: &[Range<usize>]) {
    if let Err(e) = verify_claims(total, claims) {
        panic!("ncs-par shadow-access checker: {primitive} claim table is invalid: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_enabled_parses_truthy_values() {
        assert!(resolve_enabled(Some("1")));
        assert!(resolve_enabled(Some("true")));
        assert!(resolve_enabled(Some(" 1 ")));
        assert!(!resolve_enabled(Some("0")));
        assert!(!resolve_enabled(Some("yes")));
        assert!(!resolve_enabled(None));
    }

    #[test]
    fn disjoint_cover_passes() {
        assert_eq!(verify_claims(10, &[0..4, 4..7, 7..10]), Ok(()));
        assert_eq!(verify_claims(0, &[]), Ok(()));
        // Empty worker runs (more workers than chunks) are fine.
        assert_eq!(verify_claims(3, &[0..3, 3..3, 3..3]), Ok(()));
        // Order independence: a permuted-but-valid table still passes.
        assert_eq!(verify_claims(10, &[7..10, 0..4, 4..7]), Ok(()));
    }

    #[test]
    fn overlap_is_diagnosed() {
        let err = verify_claims(10, &[0..6, 4..10]).unwrap_err();
        assert!(matches!(err, ShadowError::Overlap { .. }), "{err}");
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn gap_is_diagnosed() {
        let err = verify_claims(10, &[0..4, 6..10]).unwrap_err();
        assert_eq!(
            err,
            ShadowError::Gap {
                expected: 4,
                found: 6
            }
        );
        // A short table is a trailing gap.
        #[allow(clippy::single_range_in_vec_init)]
        let err = verify_claims(10, &[0..4]).unwrap_err();
        assert_eq!(
            err,
            ShadowError::Gap {
                expected: 4,
                found: 10
            }
        );
    }

    #[test]
    fn out_of_bounds_is_diagnosed() {
        let err = verify_claims(10, &[0..4, 4..12]).unwrap_err();
        assert_eq!(
            err,
            ShadowError::OutOfBounds {
                claim: 4..12,
                total: 10
            }
        );
    }
}
