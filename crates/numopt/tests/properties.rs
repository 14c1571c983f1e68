//! Property-based tests of the numerical substrate.

use numopt::grid::{grid_min, linspace};
use numopt::lambertw::lambert_w0;
use numopt::roots::{bisect, root_of_decreasing_brent, root_of_decreasing_newton};
use numopt::scalar::golden_section_min;
use numopt::simplex::project_simplex;
use proptest::prelude::*;

proptest! {
    /// `W0(x)·e^{W0(x)} = x` across the whole principal-branch domain.
    #[test]
    fn lambert_w_inverse_identity(x in -0.3678f64..1.0e6) {
        let w = lambert_w0(x).unwrap();
        let back = w * w.exp();
        prop_assert!((back - x).abs() <= 1e-9 * x.abs().max(1.0));
    }

    /// W0 is monotone increasing.
    #[test]
    fn lambert_w_monotone(a in -0.36f64..1.0e4, delta in 1e-6f64..1.0e4) {
        let w1 = lambert_w0(a).unwrap();
        let w2 = lambert_w0(a + delta).unwrap();
        prop_assert!(w2 >= w1);
    }

    /// The safeguarded Newton driver agrees with the Brent clamp-search on random convex
    /// decreasing log ratios `a/ln(1 + x/c) − b` from any start (clamping to `hi` alike when
    /// the root lies beyond it), and returns the point it probed last.
    #[test]
    fn newton_root_matches_brent_on_log_ratios(
        a in 0.1f64..10.0,
        b in 0.1f64..10.0,
        c in 1e-3f64..1e3,
        start in 1e-6f64..1e6,
    ) {
        let f = |x: f64| {
            let l = (x / c).ln_1p();
            (a / l - b, -a / (l * l * (c + x)))
        };
        let (lo, hi, tol) = (1e-9, 1e9, 1e-8);
        let mut last = f64::NAN;
        let newton = root_of_decreasing_newton(|x| { last = x; f(x) }, lo, hi, start, tol, 200)
            .unwrap();
        let brent = root_of_decreasing_brent(|x| f(x).0, lo, hi, tol, 300).unwrap();
        prop_assert_eq!(newton, last);
        prop_assert!((newton - brent).abs() <= 2.0 * tol + 8.0 * f64::EPSILON * brent);
    }

    /// The same on sums `Σ r_n/(1 + W₀((x − j_n)/(e·j_n))) − B`, the shape of the Theorem-2
    /// bandwidth-price derivative `g'(μ)`.
    #[test]
    fn newton_root_matches_brent_on_lambert_sums(
        r in proptest::collection::vec(0.1f64..10.0, 1..12),
        j in proptest::collection::vec(1e-3f64..1e3, 12..13),
        budget in 0.05f64..20.0,
        start_scale in 1e-3f64..1e3,
    ) {
        let terms: Vec<(f64, f64)> = r.iter().copied().zip(j.iter().copied()).collect();
        let f = |x: f64| {
            let (mut g, mut dg) = (-budget, 0.0);
            for &(rn, jn) in &terms {
                let w = lambert_w0((x - jn) / (std::f64::consts::E * jn)).unwrap();
                let w_over_y = if w == 0.0 { 1.0 / (std::f64::consts::E * jn) } else { w / (x - jn) };
                g += rn / (1.0 + w);
                dg -= rn * w_over_y / ((1.0 + w) * (1.0 + w) * (1.0 + w));
            }
            (g, dg)
        };
        let j_max = terms.iter().map(|t| t.1).fold(0.0, f64::max);
        let (lo, hi, tol) = (1e-9, 1e15, 1e-9 * j_max);
        let mut last = f64::NAN;
        let start = start_scale * j_max;
        let newton = root_of_decreasing_newton(|x| { last = x; f(x) }, lo, hi, start, tol, 200)
            .unwrap();
        let brent = root_of_decreasing_brent(|x| f(x).0, lo, hi, tol, 300).unwrap();
        prop_assert_eq!(newton, last);
        prop_assert!(
            (newton - brent).abs() <= 2.0 * tol + 8.0 * f64::EPSILON * brent,
            "newton {} vs brent {}", newton, brent
        );
    }

    /// The simplex projection lands on the simplex and is idempotent.
    #[test]
    fn simplex_projection_feasible_and_idempotent(
        v in proptest::collection::vec(-100.0f64..100.0, 1..40),
        radius in 0.1f64..50.0,
    ) {
        let mut x = v.clone();
        project_simplex(&mut x, radius).unwrap();
        let sum: f64 = x.iter().sum();
        prop_assert!((sum - radius).abs() < 1e-8 * radius.max(1.0));
        prop_assert!(x.iter().all(|&xi| xi >= -1e-12));
        let mut y = x.clone();
        project_simplex(&mut y, radius).unwrap();
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The projection never moves a point that is already on the simplex by more than the
    /// distance to any other candidate (optimality check against random feasible points).
    #[test]
    fn simplex_projection_is_closest_among_samples(
        v in proptest::collection::vec(-10.0f64..10.0, 2..10),
        radius in 0.5f64..5.0,
        seed_point in proptest::collection::vec(0.0f64..1.0, 2..10),
    ) {
        let n = v.len().min(seed_point.len());
        let v = &v[..n];
        // Build a random feasible point from the seed by normalizing to the simplex.
        let total: f64 = seed_point[..n].iter().sum::<f64>().max(1e-9);
        let feasible: Vec<f64> = seed_point[..n].iter().map(|s| s / total * radius).collect();

        let mut projected = v.to_vec();
        project_simplex(&mut projected, radius).unwrap();
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        prop_assert!(dist(v, &projected) <= dist(v, &feasible) + 1e-9);
    }

    /// Golden-section search matches a dense grid on random convex parabolas.
    #[test]
    fn golden_section_matches_grid_on_parabolas(center in -50.0f64..50.0, scale in 0.1f64..10.0) {
        let f = |x: f64| scale * (x - center) * (x - center) + 1.0;
        let m = golden_section_min(f, -100.0, 100.0, 1e-9, 500).unwrap();
        let axes = vec![linspace(-100.0, 100.0, 4001).unwrap()];
        let g = grid_min(&axes, |p| f(p[0])).unwrap();
        prop_assert!(m.value <= g.value + 1e-6);
        prop_assert!((m.argmin - center).abs() < 1e-4);
    }

    /// Bisection finds the root of any monotone cubic with a sign change.
    #[test]
    fn bisection_finds_root_of_monotone_cubic(shift in -100.0f64..100.0) {
        let f = |x: f64| x * x * x - shift;
        let out = bisect(f, -10.0, 10.0, 1e-12, 300);
        // Only valid when the root lies in the bracket.
        prop_assume!(shift.abs() <= 1000.0);
        let root = out.unwrap().root;
        prop_assert!((root * root * root - shift).abs() < 1e-6);
    }
}
