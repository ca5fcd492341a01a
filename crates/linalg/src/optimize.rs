//! Nonlinear conjugate-gradient minimization.
//!
//! The AutoNCS placer (Algorithm 4 in the paper, following NTUplace3's
//! approach) repeatedly minimizes the smooth penalty function
//! `WL(x, y) + λ · D(x, y)` with a conjugate-gradient solver. This module
//! provides a self-contained Polak–Ribière+ CG with Armijo backtracking
//! line search over an arbitrary differentiable objective.
//!
//! # Examples
//!
//! Minimizing a shifted quadratic bowl:
//!
//! ```
//! use ncs_linalg::optimize::{minimize, CgOptions};
//!
//! let result = minimize(
//!     |x, grad| {
//!         grad[0] = 2.0 * (x[0] - 3.0);
//!         grad[1] = 2.0 * (x[1] + 1.0);
//!         (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2)
//!     },
//!     vec![0.0, 0.0],
//!     &CgOptions::default(),
//! );
//! assert!(result.converged);
//! assert!((result.x[0] - 3.0).abs() < 1e-5);
//! assert!((result.x[1] + 1.0).abs() < 1e-5);
//! ```

use crate::vector::{axpy, dot, norm};

/// Configuration for [`minimize`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Maximum CG iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the gradient Euclidean norm.
    pub gradient_tolerance: f64,
    /// Initial step length tried by the line search.
    pub initial_step: f64,
    /// Armijo sufficient-decrease constant (`c1`).
    pub armijo_c1: f64,
    /// Multiplicative backtracking factor in `(0, 1)`.
    pub backtrack_factor: f64,
    /// Maximum backtracking steps per line search.
    pub max_backtracks: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iterations: 500,
            gradient_tolerance: 1e-6,
            initial_step: 1.0,
            armijo_c1: 1e-4,
            backtrack_factor: 0.5,
            max_backtracks: 40,
        }
    }
}

/// Result of a [`minimize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizeResult {
    /// The final point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Euclidean norm of the gradient at `x`.
    pub gradient_norm: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
}

/// Minimizes a differentiable function with Polak–Ribière+ conjugate
/// gradient and Armijo backtracking line search.
///
/// The objective closure receives the current point and a gradient buffer
/// (same length) that it must fill: the buffer is reused between calls,
/// so it arrives holding an earlier gradient. It returns the objective
/// value. This "fused" signature lets objectives share work between the
/// value and the gradient — the placer's WA wirelength does exactly that.
///
/// The solver never fails: if the line search stalls it restarts along the
/// steepest-descent direction, and if that stalls too it stops and reports
/// `converged: false` with the best point found.
///
/// # Panics
///
/// Panics if `x0` is empty.
// ncs-lint: hot
pub fn minimize<F>(mut objective: F, x0: Vec<f64>, options: &CgOptions) -> MinimizeResult
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    assert!(!x0.is_empty(), "cannot minimize over an empty point");
    let n = x0.len();
    let mut x = x0;
    let mut grad = vec![0.0; n];
    let mut value = objective(&x, &mut grad);
    let mut direction: Vec<f64> = grad.iter().map(|g| -g).collect();
    let mut grad_norm = norm(&grad);
    let mut prev_grad = grad.clone();
    let mut step_hint = options.initial_step;
    // Line-search buffers, rebuilt from `x` and refilled by the objective.
    let mut trial = vec![0.0; n];
    let mut trial_grad = vec![0.0; n];

    let mut iterations = 0;
    while iterations < options.max_iterations {
        if grad_norm <= options.gradient_tolerance {
            return MinimizeResult {
                x,
                value,
                gradient_norm: grad_norm,
                iterations,
                converged: true,
            };
        }
        iterations += 1;

        // Ensure descent; restart on uphill directions.
        let mut slope = dot(&grad, &direction);
        if slope >= 0.0 {
            for (d, g) in direction.iter_mut().zip(&grad) {
                *d = -g;
            }
            slope = -grad_norm * grad_norm;
        }

        // Armijo backtracking line search.
        let mut step = step_hint;
        let mut accepted = false;
        let mut trial_value = value;
        for _ in 0..options.max_backtracks {
            trial.copy_from_slice(&x);
            axpy(step, &direction, &mut trial);
            trial_value = objective(&trial, &mut trial_grad);
            if trial_value.is_finite() && trial_value <= value + options.armijo_c1 * step * slope {
                accepted = true;
                break;
            }
            step *= options.backtrack_factor;
        }
        if !accepted {
            // The direction is numerically useless; try a pure gradient
            // step once, then give up.
            let tiny = 1e-12_f64.max(step);
            trial.copy_from_slice(&x);
            axpy(-tiny / grad_norm.max(1e-30), &grad, &mut trial);
            trial_value = objective(&trial, &mut trial_grad);
            if !(trial_value.is_finite() && trial_value < value) {
                return MinimizeResult {
                    x,
                    value,
                    gradient_norm: grad_norm,
                    iterations,
                    converged: grad_norm <= options.gradient_tolerance,
                };
            }
        }

        // Accept the step.
        std::mem::swap(&mut x, &mut trial);
        value = trial_value;
        prev_grad.copy_from_slice(&grad);
        grad.copy_from_slice(&trial_grad);
        let new_norm = norm(&grad);

        // Polak–Ribière+ with automatic restart (beta clamped at 0).
        let denom = dot(&prev_grad, &prev_grad);
        let beta = if denom > 0.0 {
            let mut num = 0.0;
            for i in 0..n {
                num += grad[i] * (grad[i] - prev_grad[i]);
            }
            (num / denom).max(0.0)
        } else {
            0.0
        };
        for i in 0..n {
            direction[i] = -grad[i] + beta * direction[i];
        }
        grad_norm = new_norm;
        // Carry the successful step forward, nudged up so the search can
        // re-lengthen after a cautious stretch.
        step_hint = (step * 2.0).min(options.initial_step.max(1.0));
    }

    MinimizeResult {
        converged: grad_norm <= options.gradient_tolerance,
        x,
        value,
        gradient_norm: grad_norm,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_bowl_converges() {
        let r = minimize(
            |x, g| {
                g[0] = 2.0 * x[0];
                g[1] = 8.0 * x[1];
                x[0] * x[0] + 4.0 * x[1] * x[1]
            },
            vec![5.0, -3.0],
            &CgOptions::default(),
        );
        assert!(r.converged, "grad norm {}", r.gradient_norm);
        assert!(r.x[0].abs() < 1e-5);
        assert!(r.x[1].abs() < 1e-5);
        assert!(r.value < 1e-9);
    }

    #[test]
    fn rosenbrock_makes_progress() {
        let rosen = |x: &[f64], g: &mut [f64]| {
            let (a, b) = (1.0, 100.0);
            g[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
            g[1] = 2.0 * b * (x[1] - x[0] * x[0]);
            (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2)
        };
        let opts = CgOptions {
            max_iterations: 8000,
            gradient_tolerance: 1e-6,
            ..CgOptions::default()
        };
        let r = minimize(rosen, vec![-1.2, 1.0], &opts);
        assert!(r.value < 1e-4, "rosenbrock value {}", r.value);
    }

    #[test]
    fn already_at_minimum_returns_immediately() {
        let r = minimize(
            |x, g| {
                g[0] = 2.0 * x[0];
                x[0] * x[0]
            },
            vec![0.0],
            &CgOptions::default(),
        );
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn respects_iteration_budget() {
        let opts = CgOptions {
            max_iterations: 3,
            gradient_tolerance: 0.0,
            ..CgOptions::default()
        };
        // A quartic never reaches an exactly-zero gradient in floating
        // point from this start, so the budget is the binding stop.
        let r = minimize(
            |x, g| {
                g[0] = 4.0 * (x[0] - std::f64::consts::PI).powi(3);
                (x[0] - std::f64::consts::PI).powi(4)
            },
            vec![0.0],
            &opts,
        );
        assert!(r.iterations <= 3);
        assert!(!r.converged);
    }

    #[test]
    fn high_dimension_quadratic() {
        let n = 200;
        let r = minimize(
            |x, g| {
                let mut v = 0.0;
                for i in 0..x.len() {
                    let w = 1.0 + (i % 7) as f64;
                    g[i] = 2.0 * w * x[i];
                    v += w * x[i] * x[i];
                }
                v
            },
            (0..n).map(|i| (i as f64 * 0.37).sin()).collect(),
            &CgOptions {
                max_iterations: 2000,
                ..CgOptions::default()
            },
        );
        assert!(r.converged);
        assert!(r.value < 1e-8);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_point_panics() {
        minimize(|_, _| 0.0, vec![], &CgOptions::default());
    }
}
