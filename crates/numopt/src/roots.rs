//! Scalar root finding: safeguarded bisection, a Brent-style hybrid and a safeguarded Newton
//! iteration for convex decreasing functions.
//!
//! The paper's Theorem 2 finds the bandwidth-budget multiplier `μ` as the root of the
//! monotone decreasing derivative `g'(μ)` of a concave dual function; the baselines use the
//! same machinery to price bandwidth. Bisection is slow but unconditionally robust, which is
//! what an inner solver that runs thousands of times per experiment sweep needs.

use crate::error::NumError;

/// Result of a successful root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BisectOutcome {
    /// Approximate root.
    pub root: f64,
    /// Function value at [`BisectOutcome::root`].
    pub f_root: f64,
    /// Number of iterations used.
    pub iterations: usize,
}

fn check_interval(lo: f64, hi: f64) -> Result<(), NumError> {
    if !lo.is_finite() || !hi.is_finite() || lo > hi {
        return Err(NumError::InvalidInterval { lo, hi });
    }
    Ok(())
}

/// Finds a root of `f` on `[lo, hi]` by bisection.
///
/// The function must be continuous on the interval and `f(lo)` / `f(hi)` must have opposite
/// signs (a zero at either endpoint is accepted and returned immediately).
///
/// # Errors
///
/// * [`NumError::InvalidInterval`] if `lo > hi` or either endpoint is not finite.
/// * [`NumError::NoSignChange`] if the endpoint values have the same (nonzero) sign.
/// * [`NumError::NonFiniteValue`] if any evaluation returns NaN/∞.
/// * [`NumError::MaxIterations`] if the interval is still wider than `tol` after `max_iter`
///   halvings (with `tol = 1e-12` and a unit interval this needs ~40 iterations, so the error
///   indicates a pathological input rather than a tight budget).
///
/// # Examples
///
/// ```rust
/// # use numopt::roots::bisect;
/// let out = bisect(|x| x.cos() - x, 0.0, 1.0, 1e-12, 200)?;
/// assert!((out.root - 0.7390851332151607).abs() < 1e-9);
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn bisect<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<BisectOutcome, NumError>
where
    F: FnMut(f64) -> f64,
{
    check_interval(lo, hi)?;
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let fb = f(b);
    if !fa.is_finite() {
        return Err(NumError::NonFiniteValue { at: a });
    }
    if !fb.is_finite() {
        return Err(NumError::NonFiniteValue { at: b });
    }
    if fa == 0.0 {
        return Ok(BisectOutcome { root: a, f_root: 0.0, iterations: 0 });
    }
    if fb == 0.0 {
        return Ok(BisectOutcome { root: b, f_root: 0.0, iterations: 0 });
    }
    if fa.signum() == fb.signum() {
        return Err(NumError::NoSignChange { f_lo: fa, f_hi: fb });
    }
    let mut mid = 0.5 * (a + b);
    let mut fm = f(mid);
    for it in 0..max_iter {
        mid = 0.5 * (a + b);
        fm = f(mid);
        if !fm.is_finite() {
            return Err(NumError::NonFiniteValue { at: mid });
        }
        if fm == 0.0 || (b - a) <= tol {
            return Ok(BisectOutcome { root: mid, f_root: fm, iterations: it + 1 });
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Err(NumError::MaxIterations { iterations: max_iter, residual: (b - a).abs().max(fm.abs()) })
}

/// Finds the root of a **monotone decreasing** function on `[lo, hi]`, clamping to the
/// endpoints when the root lies outside the bracket.
///
/// This is the shape of every "price" search in the paper (bandwidth multiplier `μ`,
/// bandwidth price in Scheme 1): the derivative of a concave dual is decreasing, and a root
/// below `lo` (resp. above `hi`) simply means the constraint is inactive (resp. the budget is
/// binding at the boundary). Returning the clamped endpoint is the economically meaningful
/// answer, so this helper never fails on a missing sign change.
///
/// # Errors
///
/// * [`NumError::InvalidInterval`] for a malformed bracket.
/// * [`NumError::NonFiniteValue`] if an evaluation is NaN/∞.
///
/// # Examples
///
/// ```rust
/// # use numopt::roots::root_of_decreasing;
/// // g'(mu) = 5 - mu; root at 5, inside [0, 10].
/// let mu = root_of_decreasing(|x| 5.0 - x, 0.0, 10.0, 1e-10, 200)?;
/// assert!((mu - 5.0).abs() < 1e-8);
/// // Root outside the bracket: clamp.
/// let clamped = root_of_decreasing(|x| -1.0 - x, 0.0, 10.0, 1e-10, 200)?;
/// assert_eq!(clamped, 0.0);
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn root_of_decreasing<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, NumError>
where
    F: FnMut(f64) -> f64,
{
    check_interval(lo, hi)?;
    let f_lo = f(lo);
    if !f_lo.is_finite() {
        return Err(NumError::NonFiniteValue { at: lo });
    }
    // Decreasing and already non-positive at the left end: the root is at or below `lo`.
    if f_lo <= 0.0 {
        return Ok(lo);
    }
    let f_hi = f(hi);
    if !f_hi.is_finite() {
        return Err(NumError::NonFiniteValue { at: hi });
    }
    // Still positive at the right end: the root is beyond `hi`.
    if f_hi >= 0.0 {
        return Ok(hi);
    }
    bisect(f, lo, hi, tol, max_iter).map(|o| o.root)
}

/// Finds a root of `f` on `[lo, hi]` by Brent's method: inverse quadratic interpolation and
/// secant steps safeguarded by bisection.
///
/// Same contract as [`bisect`] — continuous `f`, endpoint values of opposite sign (an
/// endpoint zero is returned immediately), and the same stopping rule (the bracketing
/// interval has shrunk to `tol`, up to a few machine epsilons of the iterate's magnitude) —
/// but with superlinear convergence on smooth functions: where bisection needs
/// `log2(width/tol)` evaluations unconditionally, Brent typically needs a handful, falling
/// back to a bisection step whenever an interpolated step would leave the bracket or fail
/// to halve it. This is the `μ`-root accelerator of the Theorem-2 KKT solver; `g'(μ)` is
/// smooth in `μ`, so the interpolated steps almost always land.
///
/// # Errors
///
/// Same as [`bisect`].
///
/// # Examples
///
/// ```rust
/// # use numopt::roots::brent;
/// let out = brent(|x| x.cos() - x, 0.0, 1.0, 1e-12, 200)?;
/// assert!((out.root - 0.7390851332151607).abs() < 1e-9);
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn brent<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<BisectOutcome, NumError>
where
    F: FnMut(f64) -> f64,
{
    check_interval(lo, hi)?;
    let a = lo;
    let b = hi;
    let fa = f(a);
    let fb = f(b);
    if !fa.is_finite() {
        return Err(NumError::NonFiniteValue { at: a });
    }
    if !fb.is_finite() {
        return Err(NumError::NonFiniteValue { at: b });
    }
    if fa == 0.0 {
        return Ok(BisectOutcome { root: a, f_root: 0.0, iterations: 0 });
    }
    if fb == 0.0 {
        return Ok(BisectOutcome { root: b, f_root: 0.0, iterations: 0 });
    }
    if fa.signum() == fb.signum() {
        return Err(NumError::NoSignChange { f_lo: fa, f_hi: fb });
    }
    brent_seeded(f, a, fa, b, fb, tol, max_iter)
}

/// [`brent`] with both endpoint values already known: the iteration starts immediately,
/// spending zero evaluations re-probing `lo` and `hi`. Bit-identical to [`brent`] fed the
/// same endpoint values — this is the same loop, entered past the entry probes.
///
/// The caller vouches for the preconditions [`brent`] normally checks: `lo < hi` finite,
/// `f_lo`/`f_hi` finite, of opposite sign and neither zero, and actually equal to
/// `f(lo)` / `f(hi)`. This is the warm-start entry of the `μ`-root search, where the
/// bracket-validation probes double as the endpoint values.
///
/// # Errors
///
/// Same as [`brent`], except that the endpoint preconditions are not re-checked.
pub fn brent_with_endpoints<F>(
    f: F,
    lo: f64,
    f_lo: f64,
    hi: f64,
    f_hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<BisectOutcome, NumError>
where
    F: FnMut(f64) -> f64,
{
    check_interval(lo, hi)?;
    if f_lo == 0.0 {
        return Ok(BisectOutcome { root: lo, f_root: 0.0, iterations: 0 });
    }
    if f_hi == 0.0 {
        return Ok(BisectOutcome { root: hi, f_root: 0.0, iterations: 0 });
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(NumError::NoSignChange { f_lo, f_hi });
    }
    brent_seeded(f, lo, f_lo, hi, f_hi, tol, max_iter)
}

/// The Brent iteration proper, entered with both endpoint values in hand.
fn brent_seeded<F>(
    mut f: F,
    mut a: f64,
    mut fa: f64,
    mut b: f64,
    mut fb: f64,
    tol: f64,
    max_iter: usize,
) -> Result<BisectOutcome, NumError>
where
    F: FnMut(f64) -> f64,
{
    // Invariant: the root is bracketed by `b` (best iterate) and `c`; `a` is the previous
    // iterate feeding the interpolation.
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;
    for it in 0..max_iter {
        if fb.signum() == fc.signum() {
            // `b` and `c` fell on the same side: restore the bracket from `a`.
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
        if fc.abs() < fb.abs() {
            // Keep the smaller residual in `b`.
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        // Half-width convergence test: `|c - b| <= tol` matches bisection's `(b - a) <= tol`
        // stop, with a machine-epsilon floor so a tol far below the iterate's ulp spacing
        // cannot stall the loop.
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * tol;
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(BisectOutcome { root: b, f_root: fb, iterations: it });
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt inverse quadratic interpolation (secant when only two points exist).
            let s = fb / fa;
            let mut p;
            let mut q;
            if a == c {
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                let r0 = fa / fc;
                let r1 = fb / fc;
                p = s * (2.0 * xm * r0 * (r0 - r1) - (b - a) * (r1 - 1.0));
                q = (r0 - 1.0) * (r1 - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            // Accept only steps that stay in the bracket and beat the previous shrink rate;
            // otherwise take the safeguarding bisection step.
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        if d.abs() > tol1 {
            b += d;
        } else {
            b += if xm > 0.0 { tol1 } else { -tol1 };
        }
        fb = f(b);
        if !fb.is_finite() {
            return Err(NumError::NonFiniteValue { at: b });
        }
    }
    Err(NumError::MaxIterations { iterations: max_iter, residual: (c - b).abs().max(fb.abs()) })
}

/// [`root_of_decreasing`] with the interior search performed by [`brent`] instead of
/// [`bisect`]: identical endpoint-clamp semantics and tolerance, superlinear convergence in
/// the interior. Falls back to plain bisection if the Brent iteration errors out (it cannot
/// on a finite monotone function, but the solver stack must never be less robust than the
/// pure-bisection path it replaces).
///
/// # Errors
///
/// Same as [`root_of_decreasing`].
pub fn root_of_decreasing_brent<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, NumError>
where
    F: FnMut(f64) -> f64,
{
    check_interval(lo, hi)?;
    let f_lo = f(lo);
    if !f_lo.is_finite() {
        return Err(NumError::NonFiniteValue { at: lo });
    }
    if f_lo <= 0.0 {
        return Ok(lo);
    }
    let f_hi = f(hi);
    if !f_hi.is_finite() {
        return Err(NumError::NonFiniteValue { at: hi });
    }
    if f_hi >= 0.0 {
        return Ok(hi);
    }
    match brent(&mut f, lo, hi, tol, max_iter) {
        Ok(o) => Ok(o.root),
        Err(NumError::MaxIterations { .. }) => bisect(f, lo, hi, tol, max_iter).map(|o| o.root),
        Err(e) => Err(e),
    }
}

/// How many times closer to `lo` one step of [`root_of_decreasing_newton`] may move while
/// no probe left of the root is known.
const DESCENT: f64 = 16.0;

/// [`root_of_decreasing`] for a **convex** decreasing function with a known derivative:
/// safeguarded Newton steps from `start`, quadratically convergent and with no bracket to
/// validate first.
///
/// `f` returns `(f(x), f'(x))`. On a convex decreasing `f`, a Newton step from left of the
/// root never passes it and a step from right of the root lands left of it, so once a probe
/// lies left of the root the iterates climb monotonically onto it. This is the shape of the
/// Theorem-2 dual derivative `g'(μ)`, whose own derivative the KKT solver gets from the same
/// lane pass.
///
/// Safeguards, all inside `[lo, hi]` (`start` is clamped into it):
///
/// * The search keeps the sign bracket of its probes (`f > 0` at its left end, `f ≤ 0` at
///   its right end; an end not yet probed is `lo` or `hi`). A step that leaves it, or a
///   derivative that is not finite and negative, bisects it instead.
/// * While every probe lies right of the root, a step moves at most 16-fold closer to `lo`,
///   and onto `lo` itself once that is within `tol`. A flat right tail would otherwise throw
///   the tangent far below the root, and near a pole of `f` Newton climbs back by only a
///   constant factor per step.
/// * It clamps as [`root_of_decreasing`] does: `lo` when `f(lo) ≤ 0`, `hi` when
///   `f(hi) ≥ 0`.
///
/// The search stops when the next step would move `x` by at most `tol + 4ε|x|`, and returns
/// the point it probed **last**: a caller that caches per-probe work (the KKT solver's `W₀`
/// lane) then holds exactly the values at the returned root. A step from right of the root
/// overshoots the distance to it, so it bounds the error. A step from left of the root falls
/// short, badly so next to a pole of `f` at `lo`, so it ends the search only if it is also
/// at most a quarter of `x − lo`.
///
/// # Errors
///
/// * [`NumError::InvalidInterval`] for a malformed bracket.
/// * [`NumError::NonFiniteValue`] if an evaluation of `f` is NaN/∞.
/// * [`NumError::MaxIterations`] if `max_iter` probes do not converge (a smooth convex
///   decreasing function converges in a handful).
///
/// # Examples
///
/// ```rust
/// # use numopt::roots::root_of_decreasing_newton;
/// // f(x) = 1/x − 0.25: convex and decreasing on x > 0, root at 4.
/// let f = |x: f64| (1.0 / x - 0.25, -1.0 / (x * x));
/// let root = root_of_decreasing_newton(f, 0.1, 100.0, 5.0, 1e-12, 100)?;
/// assert!((root - 4.0).abs() < 1e-10);
/// // Root below the bracket: clamp to `lo`.
/// assert_eq!(root_of_decreasing_newton(f, 5.0, 100.0, 10.0, 1e-12, 100)?, 5.0);
/// # Ok::<(), numopt::NumError>(())
/// ```
pub fn root_of_decreasing_newton<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    start: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, NumError>
where
    F: FnMut(f64) -> (f64, f64),
{
    check_interval(lo, hi)?;
    // Sign bracket of the probes so far; an end not yet probed is still `lo` / `hi`.
    let (mut a, mut b) = (lo, hi);
    let (mut a_probed, mut b_probed) = (false, false);
    let mut x = start.max(lo).min(hi);
    for _ in 0..max_iter {
        let (fx, dfx) = f(x);
        if !fx.is_finite() {
            return Err(NumError::NonFiniteValue { at: x });
        }
        if fx > 0.0 {
            if x == hi {
                return Ok(hi);
            }
            a = x;
            a_probed = true;
        } else {
            if fx == 0.0 || x == lo {
                return Ok(x);
            }
            b = x;
            b_probed = true;
        }
        let tol_x = tol + 4.0 * f64::EPSILON * x.abs();
        let newton = x - fx / dfx;
        let bisection = a + 0.5 * (b - a);
        let next = if !(dfx < 0.0 && dfx.is_finite()) {
            bisection
        } else if !a_probed {
            let floor = lo + (x - lo) / DESCENT;
            if newton > floor {
                newton
            } else if floor - lo > tol_x {
                floor
            } else {
                lo
            }
        } else if newton <= a || (b_probed && newton >= b) {
            bisection
        } else {
            newton.min(hi)
        };
        let step = (next - x).abs();
        if step <= tol_x && (fx < 0.0 || step <= 0.25 * (x - lo)) {
            return Ok(x);
        }
        x = next;
    }
    Err(NumError::MaxIterations { iterations: max_iter, residual: b - a })
}

/// Expands `hi` geometrically until `f(hi)` changes sign relative to `f(lo)`, then bisects.
///
/// Useful when only a lower bound of the bracket is known (e.g. searching for the completion
/// time `T` at which a feasibility function flips). The bracket grows by `factor` up to
/// `max_expansions` times.
///
/// # Errors
///
/// Same as [`bisect`], plus [`NumError::NoSignChange`] if no sign change is found after all
/// expansions.
pub fn bisect_with_expansion<F>(
    mut f: F,
    lo: f64,
    initial_hi: f64,
    factor: f64,
    max_expansions: usize,
    tol: f64,
    max_iter: usize,
) -> Result<BisectOutcome, NumError>
where
    F: FnMut(f64) -> f64,
{
    check_interval(lo, initial_hi)?;
    if factor <= 1.0 {
        return Err(NumError::NonPositiveParameter { name: "factor - 1", value: factor - 1.0 });
    }
    let f_lo = f(lo);
    if !f_lo.is_finite() {
        return Err(NumError::NonFiniteValue { at: lo });
    }
    let mut hi = initial_hi;
    let mut f_hi = f(hi);
    let mut expansions = 0usize;
    while f_hi.is_finite() && f_lo.signum() == f_hi.signum() && expansions < max_expansions {
        hi *= factor;
        f_hi = f(hi);
        expansions += 1;
    }
    if !f_hi.is_finite() {
        return Err(NumError::NonFiniteValue { at: hi });
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(NumError::NoSignChange { f_lo, f_hi });
    }
    bisect(f, lo, hi, tol, max_iter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_cube_root_of_two() {
        let out = bisect(|x| x * x * x - 2.0, 0.0, 2.0, 1e-13, 200).unwrap();
        assert!((out.root - 2f64.powf(1.0 / 3.0)).abs() < 1e-10);
        assert!(out.iterations > 0);
    }

    #[test]
    fn bisect_accepts_root_at_endpoint() {
        let out = bisect(|x| x, 0.0, 5.0, 1e-12, 100).unwrap();
        assert_eq!(out.root, 0.0);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn bisect_rejects_bad_interval() {
        let err = bisect(|x| x, 2.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::InvalidInterval { .. }));
    }

    #[test]
    fn bisect_rejects_same_sign() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::NoSignChange { .. }));
    }

    #[test]
    fn bisect_detects_nan() {
        let err =
            bisect(|x| if x > 0.5 { f64::NAN } else { -1.0 }, 0.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::NonFiniteValue { .. }));
    }

    #[test]
    fn decreasing_root_interior() {
        let mu = root_of_decreasing(|x| 3.0 - x * x, 0.0, 10.0, 1e-12, 200).unwrap();
        assert!((mu - 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn decreasing_root_clamps_left() {
        let mu = root_of_decreasing(|x| -1.0 - x, 0.0, 10.0, 1e-12, 200).unwrap();
        assert_eq!(mu, 0.0);
    }

    #[test]
    fn decreasing_root_clamps_right() {
        let mu = root_of_decreasing(|x| 100.0 - x, 0.0, 10.0, 1e-12, 200).unwrap();
        assert_eq!(mu, 10.0);
    }

    #[test]
    fn brent_matches_bisect_with_fewer_evaluations() {
        let mut evals_brent = 0usize;
        let mut evals_bisect = 0usize;
        let f = |x: f64| x.exp() - 3.0 * x * x; // smooth, one root in [-1, 0]
        let b1 = brent(
            |x| {
                evals_brent += 1;
                f(x)
            },
            -1.0,
            0.0,
            1e-13,
            200,
        )
        .unwrap();
        let b2 = bisect(
            |x| {
                evals_bisect += 1;
                f(x)
            },
            -1.0,
            0.0,
            1e-13,
            200,
        )
        .unwrap();
        assert!((b1.root - b2.root).abs() < 1e-10, "{} vs {}", b1.root, b2.root);
        assert!(f(b1.root).abs() < 1e-9);
        assert!(
            evals_brent < evals_bisect / 2,
            "brent used {evals_brent} evaluations, bisect {evals_bisect}"
        );
    }

    #[test]
    fn brent_accepts_root_at_endpoint_and_rejects_same_sign() {
        let out = brent(|x| x, 0.0, 5.0, 1e-12, 100).unwrap();
        assert_eq!(out.root, 0.0);
        assert_eq!(out.iterations, 0);
        let err = brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::NoSignChange { .. }));
        let err = brent(|x| x, 2.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::InvalidInterval { .. }));
    }

    #[test]
    fn brent_handles_hard_functions_via_bisection_safeguard() {
        // A kink at the root defeats interpolation; the safeguard must still converge.
        let out = brent(|x: f64| x.abs().sqrt() * x.signum() - 0.3, -1.0, 1.0, 1e-12, 200).unwrap();
        assert!((out.root - 0.09).abs() < 1e-9, "root {}", out.root);
        // A step function: no smoothness at all.
        let out = brent(|x: f64| if x < 0.25 { 1.0 } else { -1.0 }, 0.0, 1.0, 1e-9, 200).unwrap();
        assert!((out.root - 0.25).abs() < 1e-8);
    }

    #[test]
    fn decreasing_brent_matches_decreasing_bisect_clamps() {
        // Interior root: both agree within tolerance.
        let a = root_of_decreasing(|x| 3.0 - x * x, 0.0, 10.0, 1e-12, 200).unwrap();
        let b = root_of_decreasing_brent(|x| 3.0 - x * x, 0.0, 10.0, 1e-12, 200).unwrap();
        assert!((a - b).abs() < 1e-9);
        // Clamps are bit-identical to the bisection helper.
        assert_eq!(root_of_decreasing_brent(|x| -1.0 - x, 0.0, 10.0, 1e-12, 200).unwrap(), 0.0);
        assert_eq!(root_of_decreasing_brent(|x| 100.0 - x, 0.0, 10.0, 1e-12, 200).unwrap(), 10.0);
    }

    /// `a / ln(1 + x/c) − b` and its derivative: convex and decreasing on `x > 0`, root at
    /// `c·(e^{a/b} − 1)`.
    fn log_ratio(a: f64, b: f64, c: f64) -> impl Fn(f64) -> (f64, f64) {
        move |x| {
            let l = (x / c).ln_1p();
            (a / l - b, -a / (l * l * (c + x)))
        }
    }

    /// `Σ r_n / (1 + W₀((x − j_n)/(e·j_n))) − budget` and its derivative — the shape of the
    /// Theorem-2 `g'(μ)`, convex and decreasing on `x > 0`.
    fn lambert_sum(terms: &[(f64, f64)], budget: f64) -> impl Fn(f64) -> (f64, f64) + '_ {
        move |x| {
            let (mut f, mut df) = (-budget, 0.0);
            for &(r, j) in terms {
                let w = crate::lambertw::lambert_w0((x - j) / (std::f64::consts::E * j)).unwrap();
                let w_over_y = if w == 0.0 { 1.0 / (std::f64::consts::E * j) } else { w / (x - j) };
                f += r / (1.0 + w);
                df -= r * w_over_y / ((1.0 + w) * (1.0 + w) * (1.0 + w));
            }
            (f, df)
        }
    }

    const LAMBERT_TERMS: [(f64, f64); 4] = [(3.0, 0.5), (1.0, 2.0), (0.5, 7.0), (2.0, 1.0)];

    #[test]
    fn newton_agrees_with_brent_on_convex_decreasing_functions() {
        let tol = 1e-10;
        let check = |f: &dyn Fn(f64) -> (f64, f64), start: f64| {
            let (lo, hi) = (1e-9, 1e9);
            let newton = root_of_decreasing_newton(f, lo, hi, start, tol, 100).unwrap();
            let brent = root_of_decreasing_brent(|x| f(x).0, lo, hi, tol, 300).unwrap();
            assert!(
                (newton - brent).abs() <= 2.0 * tol + 8.0 * f64::EPSILON * brent,
                "newton {newton} vs brent {brent}"
            );
        };
        check(&log_ratio(1.0, 0.5, 2.0), 1.0);
        check(&log_ratio(3.0, 0.2, 0.01), 50.0);
        check(&lambert_sum(&LAMBERT_TERMS, 2.0), 10.0);
        check(&lambert_sum(&LAMBERT_TERMS, 0.7), 40.0);
        // The closed form of the log ratio's root.
        let root = root_of_decreasing_newton(log_ratio(1.0, 0.5, 2.0), 1e-9, 1e9, 1.0, 1e-13, 100);
        assert!((root.unwrap() - 2.0 * (2f64.exp() - 1.0)).abs() < 1e-11);
    }

    #[test]
    fn newton_converges_from_either_side_of_the_root() {
        let f = lambert_sum(&LAMBERT_TERMS, 2.0);
        let reference = root_of_decreasing_brent(|x| f(x).0, 1e-9, 1e9, 1e-13, 300).unwrap();
        for start in [1e-3, 0.1, 0.5 * reference, reference, 2.0 * reference, 1e3, 1e6] {
            let mut probes = Vec::new();
            let root = root_of_decreasing_newton(
                |x| {
                    probes.push(x);
                    f(x)
                },
                1e-9,
                1e9,
                start,
                1e-12,
                100,
            )
            .unwrap();
            assert!((root - reference).abs() < 1e-10, "from {start}: {root} vs {reference}");
            // Probes right of the root only step down; once one lands left of it, the rest
            // climb monotonically (up to round-off at the root itself).
            let first_left = probes.iter().position(|&x| f(x).0 > 0.0).unwrap_or(probes.len());
            for pair in probes[..first_left].windows(2) {
                assert!(pair[1] < pair[0], "from {start}: probes {probes:?}");
            }
            for pair in probes[first_left..].windows(2) {
                assert!(pair[1] >= pair[0] - 1e-12, "from {start}: probes {probes:?}");
            }
            assert!(probes.len() <= 40, "from {start}: {} probes", probes.len());
        }
    }

    #[test]
    fn newton_returns_the_point_it_probed_last() {
        let f = lambert_sum(&LAMBERT_TERMS, 2.0);
        for (lo, hi, start) in
            [(1e-9, 1e9, 5.0), (1e-9, 1e9, 0.01), (4.0, 1e9, 5.0), (1e-9, 0.5, 0.1)]
        {
            let mut last = f64::NAN;
            let root = root_of_decreasing_newton(
                |x| {
                    last = x;
                    f(x)
                },
                lo,
                hi,
                start,
                1e-12,
                100,
            )
            .unwrap();
            assert_eq!(root, last, "bracket [{lo}, {hi}] from {start}");
        }
    }

    #[test]
    fn newton_clamps_like_root_of_decreasing() {
        // Root below `lo`: the answer is `lo`, whichever side the search starts from.
        for start in [0.0, 5.0, 50.0, 1e9] {
            let clamped =
                root_of_decreasing_newton(log_ratio(1.0, 0.5, 2.0), 20.0, 1e9, start, 1e-12, 100);
            assert_eq!(clamped.unwrap(), 20.0, "from {start}");
        }
        let f = |x: f64| (-1.0 - x, -1.0);
        assert_eq!(root_of_decreasing_newton(f, 0.0, 10.0, 3.0, 1e-12, 100).unwrap(), 0.0);
        // Root beyond `hi`: the answer is `hi`.
        let f = |x: f64| (100.0 - x, -1.0);
        assert_eq!(root_of_decreasing_newton(f, 0.0, 10.0, 3.0, 1e-12, 100).unwrap(), 10.0);
        assert_eq!(root_of_decreasing_newton(f, 0.0, 10.0, 10.0, 1e-12, 100).unwrap(), 10.0);
    }

    #[test]
    fn newton_bisects_past_a_useless_derivative_and_reports_bad_input() {
        // A zero derivative gives no Newton step; the bracket bisection still converges.
        let f = |x: f64| (2.0 - x, 0.0);
        let root = root_of_decreasing_newton(f, 0.0, 10.0, 5.0, 1e-12, 200).unwrap();
        assert!((root - 2.0).abs() < 1e-11, "root {root}");
        let err = root_of_decreasing_newton(f, 2.0, 1.0, 1.5, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::InvalidInterval { .. }));
        let nan = |x: f64| (if x > 1.0 { f64::NAN } else { 1.0 }, -1.0);
        let err = root_of_decreasing_newton(nan, 0.0, 10.0, 5.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::NonFiniteValue { .. }));
        let err = root_of_decreasing_newton(f, 0.0, 10.0, 5.0, 1e-12, 3).unwrap_err();
        assert!(matches!(err, NumError::MaxIterations { .. }));
    }

    #[test]
    fn expansion_finds_far_root() {
        let out = bisect_with_expansion(|x| x - 1000.0, 0.0, 1.0, 2.0, 60, 1e-9, 300).unwrap();
        assert!((out.root - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn expansion_gives_up_gracefully() {
        let err = bisect_with_expansion(|x| x + 1.0, 0.0, 1.0, 2.0, 5, 1e-9, 100).unwrap_err();
        assert!(matches!(err, NumError::NoSignChange { .. }));
    }

    #[test]
    fn expansion_rejects_bad_factor() {
        let err = bisect_with_expansion(|x| x - 3.0, 0.0, 1.0, 0.5, 5, 1e-9, 100).unwrap_err();
        assert!(matches!(err, NumError::NonPositiveParameter { .. }));
    }
}
