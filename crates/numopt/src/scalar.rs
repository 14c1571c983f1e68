//! One-dimensional minimization of unimodal (convex) functions.
//!
//! Subproblem 1 of the paper reduces, after eliminating the per-device frequencies, to a
//! one-dimensional convex minimization over the round completion time `T`; Algorithm 2's
//! deadline variant does the same per device over the compute/upload time split.
//! Golden-section search solves both without derivatives.

use crate::error::NumError;

/// Result of a scalar minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarMinimum {
    /// Argument attaining the (approximate) minimum.
    pub argmin: f64,
    /// Objective value at [`ScalarMinimum::argmin`].
    pub value: f64,
    /// Iterations used.
    pub iterations: usize,
}

const INV_PHI: f64 = 0.618_033_988_749_894_8; // 1/φ
const INV_PHI2: f64 = 0.381_966_011_250_105_2; // 1/φ²

/// Minimizes a unimodal function on `[lo, hi]` by golden-section search.
///
/// The function must be unimodal on the interval (strictly decreasing then increasing, or
/// monotone — in which case the minimum is at an endpoint). Convex functions qualify.
///
/// # Errors
///
/// * [`NumError::InvalidInterval`] for a malformed bracket.
/// * [`NumError::NonFiniteValue`] if an evaluation returns NaN/∞.
/// * [`NumError::MaxIterations`] if the bracket has not shrunk to `tol` within `max_iter`.
///
/// # Examples
///
/// ```rust
/// # use numopt::scalar::golden_section_min;
/// let m = golden_section_min(|x: f64| (x - 2.0).powi(2) + 1.0, -10.0, 10.0, 1e-9, 500)?;
/// assert!((m.argmin - 2.0).abs() < 1e-6);
/// assert!((m.value - 1.0).abs() < 1e-9);
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn golden_section_min<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<ScalarMinimum, NumError>
where
    F: FnMut(f64) -> f64,
{
    if !lo.is_finite() || !hi.is_finite() || lo > hi {
        return Err(NumError::InvalidInterval { lo, hi });
    }
    if hi - lo <= tol {
        let mid = 0.5 * (lo + hi);
        let v = f(mid);
        if !v.is_finite() {
            return Err(NumError::NonFiniteValue { at: mid });
        }
        return Ok(ScalarMinimum { argmin: mid, value: v, iterations: 0 });
    }

    let mut a = lo;
    let mut b = hi;
    let mut c = a + INV_PHI2 * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    if !fc.is_finite() {
        return Err(NumError::NonFiniteValue { at: c });
    }
    if !fd.is_finite() {
        return Err(NumError::NonFiniteValue { at: d });
    }

    for it in 0..max_iter {
        if (b - a) <= tol {
            let (argmin, value) = if fc < fd { (c, fc) } else { (d, fd) };
            return Ok(ScalarMinimum { argmin, value, iterations: it });
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = a + INV_PHI2 * (b - a);
            fc = f(c);
            if !fc.is_finite() {
                return Err(NumError::NonFiniteValue { at: c });
            }
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
            if !fd.is_finite() {
                return Err(NumError::NonFiniteValue { at: d });
            }
        }
    }
    Err(NumError::MaxIterations { iterations: max_iter, residual: b - a })
}

/// Minimizes a unimodal function over `[lo, hi]` but also evaluates both endpoints, returning
/// whichever of {endpoints, interior golden-section minimum} is best.
///
/// Golden-section converges to an interior stationary point; when the minimum of a monotone
/// objective sits exactly on the boundary the interior estimate can be a hair off. The
/// allocation code paths in `fedopt-core` always call this variant so that box-constrained
/// quantities (frequencies, time splits) land exactly on their bounds when optimal.
///
/// # Errors
///
/// Same as [`golden_section_min`].
pub fn golden_section_min_with_endpoints<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<ScalarMinimum, NumError>
where
    F: FnMut(f64) -> f64,
{
    let f_lo = f(lo);
    let f_hi = f(hi);
    if !f_lo.is_finite() {
        return Err(NumError::NonFiniteValue { at: lo });
    }
    if !f_hi.is_finite() {
        return Err(NumError::NonFiniteValue { at: hi });
    }
    let interior = golden_section_min(&mut f, lo, hi, tol, max_iter)?;
    let mut best = interior;
    if f_lo <= best.value {
        best = ScalarMinimum { argmin: lo, value: f_lo, iterations: interior.iterations };
    }
    if f_hi < best.value {
        best = ScalarMinimum { argmin: hi, value: f_hi, iterations: interior.iterations };
    }
    Ok(best)
}

/// Clamps `x` into `[lo, hi]`.
///
/// Tiny convenience used throughout the workspace; defined here so that every crate clamps
/// identically (NaN-safe: a NaN input returns `lo`).
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    if x.is_nan() {
        return lo;
    }
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_parabola_minimum() {
        let m = golden_section_min(|x: f64| (x - 3.5).powi(2), 0.0, 10.0, 1e-10, 500).unwrap();
        assert!((m.argmin - 3.5).abs() < 1e-6);
        assert!(m.value < 1e-10);
    }

    #[test]
    fn handles_monotone_decreasing() {
        let m = golden_section_min(|x: f64| -x, 0.0, 1.0, 1e-10, 500).unwrap();
        assert!((m.argmin - 1.0).abs() < 1e-4);
    }

    #[test]
    fn endpoint_variant_hits_boundary_exactly() {
        let m = golden_section_min_with_endpoints(|x: f64| -x, 0.0, 1.0, 1e-10, 500).unwrap();
        assert_eq!(m.argmin, 1.0);
        assert_eq!(m.value, -1.0);
    }

    #[test]
    fn degenerate_interval_ok() {
        let m = golden_section_min(|x: f64| x * x, 2.0, 2.0, 1e-12, 10).unwrap();
        assert_eq!(m.argmin, 2.0);
    }

    #[test]
    fn rejects_reversed_interval() {
        let err = golden_section_min(|x: f64| x, 1.0, 0.0, 1e-12, 10).unwrap_err();
        assert!(matches!(err, NumError::InvalidInterval { .. }));
    }

    #[test]
    fn detects_nan_objective() {
        let err = golden_section_min(|_x: f64| f64::NAN, 0.0, 1.0, 1e-12, 10).unwrap_err();
        assert!(matches!(err, NumError::NonFiniteValue { .. }));
    }

    #[test]
    fn clamp_is_nan_safe() {
        assert_eq!(clamp(f64::NAN, 1.0, 2.0), 1.0);
        assert_eq!(clamp(5.0, 1.0, 2.0), 2.0);
        assert_eq!(clamp(0.0, 1.0, 2.0), 1.0);
        assert_eq!(clamp(1.5, 1.0, 2.0), 1.5);
    }

    #[test]
    fn asymmetric_convex_function() {
        // f(x) = e^x + e^{-2x}; minimum at x = ln(2)/3.
        let m =
            golden_section_min(|x: f64| x.exp() + (-2.0 * x).exp(), -5.0, 5.0, 1e-11, 500).unwrap();
        assert!((m.argmin - (2f64.ln() / 3.0)).abs() < 1e-6);
    }
}
