//! Euclidean projection onto the scaled probability simplex.
//!
//! The dual problem (17) of the paper maximizes a concave function of the multipliers
//! `λ ∈ R^N` over the set `{λ ≥ 0, Σ λ_n = w₂ R_g}` — a simplex scaled by `w₂ R_g`.
//! Projected gradient ascent needs the Euclidean projection onto that set, computed here with
//! the classic sort-and-threshold algorithm (Held, Wolfe & Crowder; see also Duchi et al. 2008),
//! which runs in `O(N log N)`.

use crate::error::NumError;

/// Projects `v` onto the simplex `{x ≥ 0, Σ x_i = radius}` in Euclidean norm, in place.
///
/// # Errors
///
/// * [`NumError::NonPositiveParameter`] if `radius` is not strictly positive.
/// * [`NumError::DimensionMismatch`] if `v` is empty.
/// * [`NumError::NonFiniteValue`] if any component of `v` is NaN/∞.
///
/// # Examples
///
/// ```rust
/// # use numopt::simplex::project_simplex;
/// let mut v = vec![0.5, 1.5, -3.0];
/// project_simplex(&mut v, 1.0)?;
/// let sum: f64 = v.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-12);
/// assert!(v.iter().all(|&x| x >= 0.0));
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn project_simplex(v: &mut [f64], radius: f64) -> Result<(), NumError> {
    if radius <= 0.0 || !radius.is_finite() {
        return Err(NumError::NonPositiveParameter { name: "radius", value: radius });
    }
    if v.is_empty() {
        return Err(NumError::DimensionMismatch { expected: 1, actual: 0 });
    }
    if let Some(&bad) = v.iter().find(|x| !x.is_finite()) {
        return Err(NumError::NonFiniteValue { at: bad });
    }

    // Sort a copy in decreasing order and find the threshold.
    let mut u: Vec<f64> = v.to_vec();
    u.sort_by(|a, b| b.partial_cmp(a).expect("finite values compare"));
    let mut cumsum = 0.0;
    let mut theta = 0.0;
    let mut rho = 0usize;
    for (i, &ui) in u.iter().enumerate() {
        cumsum += ui;
        let t = (cumsum - radius) / (i as f64 + 1.0);
        if ui - t > 0.0 {
            rho = i + 1;
            theta = t;
        }
    }
    // rho >= 1 always holds because the largest element minus (largest - radius) = radius > 0.
    debug_assert!(rho >= 1);
    for x in v.iter_mut() {
        *x = (*x - theta).max(0.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_on_simplex(v: &[f64], radius: f64) {
        let sum: f64 = v.iter().sum();
        assert!((sum - radius).abs() < 1e-10, "sum {sum} != radius {radius}");
        assert!(v.iter().all(|&x| x >= -1e-15), "negative component in {v:?}");
    }

    #[test]
    fn already_on_simplex_is_fixed_point() {
        let mut v = vec![0.2, 0.3, 0.5];
        let orig = v.clone();
        project_simplex(&mut v, 1.0).unwrap();
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projects_negative_vector() {
        let mut v = vec![-1.0, -2.0, -3.0];
        project_simplex(&mut v, 2.0).unwrap();
        assert_on_simplex(&v, 2.0);
        // Hand-computed Euclidean projection: threshold theta = -2.5.
        assert!((v[0] - 1.5).abs() < 1e-12);
        assert!((v[1] - 0.5).abs() < 1e-12);
        assert!(v[2].abs() < 1e-12);
    }

    #[test]
    fn scaled_radius() {
        let mut v = vec![10.0, 0.0, 0.0, 5.0];
        project_simplex(&mut v, 3.0).unwrap();
        assert_on_simplex(&v, 3.0);
    }

    #[test]
    fn single_element() {
        let mut v = vec![-7.0];
        project_simplex(&mut v, 4.0).unwrap();
        assert_eq!(v[0], 4.0);
    }

    #[test]
    fn rejects_empty_and_bad_radius() {
        let mut empty: Vec<f64> = vec![];
        assert!(matches!(
            project_simplex(&mut empty, 1.0),
            Err(NumError::DimensionMismatch { .. })
        ));
        let mut v = vec![1.0];
        assert!(matches!(project_simplex(&mut v, 0.0), Err(NumError::NonPositiveParameter { .. })));
        assert!(matches!(
            project_simplex(&mut v, f64::NAN),
            Err(NumError::NonPositiveParameter { .. })
        ));
    }

    #[test]
    fn rejects_nan_component() {
        let mut v = vec![1.0, f64::NAN];
        assert!(matches!(project_simplex(&mut v, 1.0), Err(NumError::NonFiniteValue { .. })));
    }

    #[test]
    fn projection_is_idempotent() {
        let mut v = vec![3.0, -1.0, 0.5, 2.0, 0.0];
        project_simplex(&mut v, 1.5).unwrap();
        let first = v.clone();
        project_simplex(&mut v, 1.5).unwrap();
        assert_eq!(first, v);
    }
}
