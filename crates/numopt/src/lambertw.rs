//! Principal branch `W₀` of the Lambert W function.
//!
//! Equation (A.4) of the paper expresses the per-device rate-constraint multiplier as
//! `τ_n = (μ − j_n) ln 2 / W((μ − j_n) / (e·j_n)) − ν_n β_n`, so the inner KKT solver of
//! Subproblem 2 needs `W₀` on `[-1/e, ∞)`. We implement it with a high-quality initial guess
//! followed by Halley iterations, which converges to machine precision in a handful of steps
//! over the whole domain.

use crate::error::NumError;

/// `1/e`, the left edge of the domain of the principal branch.
pub const NEG_INV_E: f64 = -0.367_879_441_171_442_33;

/// Computes the principal branch `W₀(x)` of the Lambert W function, i.e. the solution
/// `w ≥ −1` of `w·e^w = x`, for `x ≥ −1/e`.
///
/// Accuracy is close to machine precision (the tests require `|W e^W − x| ≤ 1e−12·max(1,|x|)`).
///
/// # Errors
///
/// * [`NumError::DomainError`] if `x < −1/e` (allowing for a tiny numerical slack of `1e−12`
///   below the edge, which is clamped to the edge) or `x` is NaN.
///
/// # Examples
///
/// ```rust
/// # use numopt::lambertw::lambert_w0;
/// let w = lambert_w0(1.0)?;                 // Ω constant
/// assert!((w - 0.5671432904097838).abs() < 1e-12);
/// assert!((lambert_w0(0.0)?).abs() < 1e-15);
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn lambert_w0(x: f64) -> Result<f64, NumError> {
    match edge_value(x)? {
        Some(w) => Ok(w),
        None => halley(x, initial_guess(x)),
    }
}

/// [`lambert_w0`] with the Halley iteration started from `guess` instead of the built-in
/// initial guess — the warm entry point for callers that evaluate `W₀` at a slowly moving
/// argument (the `g'(μ)` passes of one bandwidth-price search seed each device from its
/// value in the previous pass).
///
/// Same domain handling, the same Halley loop and the same stopping rule as
/// [`lambert_w0`], so the result agrees with it to within that loop's tolerance (it is
/// not bit-identical: the iterates differ). A guess that is not finite or not above the
/// branch point `−1` cannot start Halley, and one from which Halley does not reach the
/// principal branch within its budget is abandoned; both fall back to the built-in guess,
/// so this entry fails only where [`lambert_w0`] does. A poor guess costs iterations, never
/// accuracy.
///
/// # Errors
///
/// Same as [`lambert_w0`].
///
/// # Examples
///
/// ```rust
/// # use numopt::lambertw::{lambert_w0, lambert_w0_seeded};
/// let cold = lambert_w0(50.0)?;
/// let warm = lambert_w0_seeded(50.0, 1.1 * cold)?;
/// assert!((warm - cold).abs() <= 1e-14 * cold);
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn lambert_w0_seeded(x: f64, guess: f64) -> Result<f64, NumError> {
    match edge_value(x)? {
        Some(w) => Ok(w),
        None if guess > -1.0 && guess.is_finite() => match halley(x, guess) {
            Ok(w) if w >= -1.0 => Ok(w),
            _ => halley(x, initial_guess(x)),
        },
        None => halley(x, initial_guess(x)),
    }
}

/// The domain check and the closed-form values of `W₀`: `Ok(Some(w))` for `x = 0`, `+∞`
/// and round-off just below `−1/e`, `Ok(None)` when `x` needs the Halley iteration.
fn edge_value(x: f64) -> Result<Option<f64>, NumError> {
    if x.is_nan() {
        return Err(NumError::DomainError { value: x, expected: "x >= -1/e" });
    }
    if x < NEG_INV_E {
        // Tolerate round-off just below the edge; reject anything materially outside.
        if x > NEG_INV_E - 1e-12 {
            return Ok(Some(-1.0));
        }
        return Err(NumError::DomainError { value: x, expected: "x >= -1/e" });
    }
    if x == 0.0 {
        return Ok(Some(0.0));
    }
    if x.is_infinite() {
        return Ok(Some(f64::INFINITY));
    }
    Ok(None)
}

/// The built-in starting point of the Halley iteration for `x` in `[−1/e, ∞)`, `x ≠ 0`.
fn initial_guess(x: f64) -> f64 {
    if x < -0.25 {
        // Near the branch point use the series in p = sqrt(2(ex + 1)).
        let p = (2.0 * (std::f64::consts::E * x + 1.0)).max(0.0).sqrt();
        -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0
    } else if x < 10.0 {
        // ln(1+x) is within ~15% of W0 on this range — plenty for Halley to converge.
        x.ln_1p() * (1.0 - x.ln_1p() / (2.0 + 2.0 * x.ln_1p()))
    } else {
        // Asymptotic expansion for large x (safe: ln(x) > 2 here).
        let l1 = x.ln();
        let l2 = l1.ln();
        l1 - l2 + l2 / l1
    }
}

/// Halley iterations on `w·e^w − x` from `w`, to `|w e^w − x| ≤ 1e−14·max(1, |x|)`.
fn halley(x: f64, mut w: f64) -> Result<f64, NumError> {
    for _ in 0..50 {
        let ew = w.exp();
        let wew = w * ew;
        let diff = wew - x;
        if diff.abs() <= 1e-14 * x.abs().max(1.0) {
            return Ok(w);
        }
        let wp1 = w + 1.0;
        let delta = diff / (ew * wp1 - (w + 2.0) * diff / (2.0 * wp1));
        w -= delta;
        if !w.is_finite() {
            return Err(NumError::NonFiniteValue { at: x });
        }
    }
    // Accept whatever precision we reached if it is reasonable; otherwise report failure.
    let resid = (w * w.exp() - x).abs();
    if resid <= 1e-9 * x.abs().max(1.0) {
        Ok(w)
    } else {
        Err(NumError::MaxIterations { iterations: 50, residual: resid })
    }
}

/// Evaluates the expression `y / W₀(y / (e·j))` that appears in equation (A.4) of the paper,
/// given `w = W₀(y / (e·j))`, with the removable singularity at `y = 0` filled in by its
/// limit `e·j`.
///
/// Here `y = μ − j_n` and `j = j_n = ν_n d_n N₀ / g_n > 0`. For `y → 0` the ratio
/// `y / W₀(y/(e·j)) → e·j` because `W₀(z) ≈ z` near zero. The caller supplies `w` — the
/// KKT solver reads it from the lane its last `g'(μ)` pass left behind instead of
/// evaluating `W₀` a second time; `w` is not read when the singular limit applies.
///
/// # Errors
///
/// * [`NumError::NonPositiveParameter`] if `j ≤ 0`.
///
/// # Examples
///
/// ```rust
/// # use numopt::lambertw::{lambert_w0, ratio_over_w0};
/// let (y, j) = (3.0, 2.0);
/// let w = lambert_w0(y / (std::f64::consts::E * j))?;
/// assert_eq!(ratio_over_w0(y, j, w)?, y / w);
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn ratio_over_w0(y: f64, j: f64, w: f64) -> Result<f64, NumError> {
    if j <= 0.0 || !j.is_finite() {
        return Err(NumError::NonPositiveParameter { name: "j", value: j });
    }
    let arg = y / (std::f64::consts::E * j);
    // Removable singularity at y = 0 (W0(0) = 0).
    if y.abs() < 1e-300 || arg.abs() < 1e-16 || w == 0.0 {
        return Ok(std::f64::consts::E * j);
    }
    Ok(y / w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `x` values of the inverse-identity check, shared with the seeded entry's test.
    const INVERSE_INPUTS: [f64; 17] = [
        -0.367, -0.3, -0.2, -0.1, -0.01, -1e-6, 1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e4,
        1e8, 1e15,
    ];

    /// `ratio_over_w0` fed the `W₀` of its own argument.
    fn ratio(y: f64, j: f64) -> Result<f64, NumError> {
        let w = lambert_w0(y / (std::f64::consts::E * j)).unwrap_or(f64::NAN);
        ratio_over_w0(y, j, w)
    }

    fn check_inverse(x: f64) {
        let w = lambert_w0(x).unwrap();
        let back = w * w.exp();
        assert!(
            (back - x).abs() <= 1e-12 * x.abs().max(1.0),
            "W0 inverse identity failed at x={x}: w={w}, w e^w={back}"
        );
    }

    #[test]
    fn known_values() {
        assert!((lambert_w0(std::f64::consts::E).unwrap() - 1.0).abs() < 1e-13);
        assert!((lambert_w0(0.0).unwrap()).abs() < 1e-15);
        assert!((lambert_w0(1.0).unwrap() - 0.567_143_290_409_783_8).abs() < 1e-12);
        // W0(-1/e) = -1.
        assert!((lambert_w0(NEG_INV_E).unwrap() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn inverse_identity_over_wide_range() {
        for x in INVERSE_INPUTS {
            check_inverse(x);
        }
    }

    /// Both entries stop once `|w e^w − x| ≤ 1e−14·max(1, |x|)`, so two converged iterates
    /// can differ by up to twice that residual over the slope `e^w (1 + w)` of `w e^w` —
    /// the bound below. (It is not a fixed relative bound: near `x = 0` the residual
    /// tolerance is absolute, near `−1/e` the slope vanishes.)
    #[test]
    fn seeded_entry_matches_the_cold_entry_from_guesses_off_by_half() {
        for x in INVERSE_INPUTS {
            let cold = lambert_w0(x).unwrap();
            let bound = 2e-14 * x.abs().max(1.0) / (cold.exp() * (1.0 + cold));
            for factor in [0.5, 0.9, 1.0, 1.1, 1.5] {
                let warm = lambert_w0_seeded(x, factor * cold).unwrap();
                assert!(
                    (warm - cold).abs() <= bound,
                    "seeded W0({x}) from {factor} x the root: {warm} vs cold {cold}"
                );
                let back = warm * warm.exp();
                assert!((back - x).abs() <= 1e-14 * x.abs().max(1.0), "residual at x={x}");
            }
        }
        // Unusable guesses fall back to the built-in one, and so does a guess so far off that
        // Halley runs out of iterations (it walks down about 2 per step from 700); closed-form
        // values ignore the guess.
        for guess in [-1.0, -3.0, f64::NAN, f64::INFINITY, 700.0] {
            assert_eq!(lambert_w0_seeded(2.0, guess).unwrap(), lambert_w0(2.0).unwrap());
        }
        assert_eq!(lambert_w0_seeded(0.0, 5.0).unwrap(), 0.0);
        assert_eq!(lambert_w0_seeded(f64::INFINITY, 5.0).unwrap(), f64::INFINITY);
        assert!(matches!(lambert_w0_seeded(-1.0, 0.5), Err(NumError::DomainError { .. })));
    }

    #[test]
    fn rejects_out_of_domain() {
        assert!(matches!(lambert_w0(-1.0), Err(NumError::DomainError { .. })));
        assert!(matches!(lambert_w0(f64::NAN), Err(NumError::DomainError { .. })));
    }

    #[test]
    fn slightly_below_edge_clamps() {
        let w = lambert_w0(NEG_INV_E - 1e-15).unwrap();
        assert!((w + 1.0).abs() < 1e-6);
    }

    #[test]
    fn infinity_maps_to_infinity() {
        assert_eq!(lambert_w0(f64::INFINITY).unwrap(), f64::INFINITY);
    }

    #[test]
    fn monotone_increasing() {
        let mut prev = lambert_w0(-0.36).unwrap();
        let mut x = -0.35;
        while x < 50.0 {
            let w = lambert_w0(x).unwrap();
            assert!(w >= prev - 1e-12, "W0 not monotone at {x}");
            prev = w;
            x += 0.37;
        }
    }

    #[test]
    fn ratio_limit_at_zero() {
        let j = 2.5;
        let lim = ratio(0.0, j).unwrap();
        assert!((lim - std::f64::consts::E * j).abs() < 1e-12);
        // Continuity: tiny y gives nearly the same value.
        let near = ratio(1e-12, j).unwrap();
        assert!((near - lim).abs() / lim < 1e-6);
    }

    #[test]
    fn ratio_rejects_nonpositive_j() {
        assert!(matches!(ratio(1.0, 0.0), Err(NumError::NonPositiveParameter { .. })));
        assert!(matches!(ratio(1.0, -3.0), Err(NumError::NonPositiveParameter { .. })));
    }

    #[test]
    fn ratio_positive_for_negative_y_above_minus_j() {
        // y in (-j, 0): argument in (-1/e, 0), W0 in (-1, 0), ratio positive.
        let j = 1.0;
        for &y in &[-0.9, -0.5, -0.1, -0.001] {
            let r = ratio(y, j).unwrap();
            assert!(r > 0.0, "ratio should be positive for y={y}");
        }
    }
}
