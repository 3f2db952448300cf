//! Polynomial root finding.
//!
//! The primary entry point is [`poly_roots`], an Aberth–Ehrlich simultaneous
//! iteration started from the Newton polygon of the coefficients (Bini
//! 1996). Degrees 1 and 2 are solved in closed form (with the numerically
//! stable quadratic formula); the iteration is used from degree 3 upward.
//! Transfer functions arising from the DPI/SFG analysis have modest degree
//! (≤ ~10) but widely spread root magnitudes (circuit poles span
//! 10⁴–10¹⁰ rad/s). The Newton polygon places one circle of starts per
//! magnitude cluster, so each root begins near its own magnitude; results
//! are polished with a few Newton steps.

use crate::complex::Complex;

/// Maximum Aberth iterations before declaring non-convergence (the best
/// iterate so far is still returned; circuit analysis treats this as a
/// degraded-accuracy result rather than a hard failure).
const MAX_ITER: usize = 200;

/// Convergence tolerance on the relative correction size.
const TOL: f64 = 1e-13;

/// Computes all complex roots of the polynomial with ascending real
/// coefficients `coeffs` (`coeffs[k]` multiplies `x^k`).
///
/// Leading and trailing zero coefficients are handled: trailing structural
/// zeros become roots at the origin; a (near-)zero leading coefficient
/// reduces the effective degree.
///
/// Returns an empty vector for constant or zero polynomials.
///
/// # Example
/// ```
/// use adc_numerics::roots::poly_roots;
/// let r = poly_roots(&[2.0, -3.0, 1.0]); // (x-1)(x-2)
/// assert_eq!(r.len(), 2);
/// ```
pub fn poly_roots(coeffs: &[f64]) -> Vec<Complex> {
    // Strip high-order zeros.
    let mut hi = coeffs.len();
    while hi > 0 && coeffs[hi - 1] == 0.0 {
        hi -= 1;
    }
    if hi <= 1 {
        return Vec::new();
    }
    // Roots at the origin from trailing (low-order) zeros.
    let mut lo = 0;
    while lo < hi && coeffs[lo] == 0.0 {
        lo += 1;
    }
    let mut out = vec![Complex::ZERO; lo];
    let work: Vec<f64> = coeffs[lo..hi].to_vec();
    if work.len() <= 1 {
        return out;
    }
    out.extend(roots_nonzero(&work));
    out
}

/// Roots of a polynomial with nonzero constant and leading coefficients.
fn roots_nonzero(coeffs: &[f64]) -> Vec<Complex> {
    let n = coeffs.len() - 1;
    match n {
        1 => vec![Complex::from_real(-coeffs[0] / coeffs[1])],
        2 => quadratic_roots(coeffs[0], coeffs[1], coeffs[2]),
        _ => aberth(coeffs).0,
    }
}

/// Numerically stable quadratic formula for `c + b x + a x²`.
pub fn quadratic_roots(c: f64, b: f64, a: f64) -> Vec<Complex> {
    debug_assert!(a != 0.0);
    let disc = b * b - 4.0 * a * c;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        // q = -(b + sign(b)·sqrt(disc))/2 avoids cancellation.
        let q = -0.5 * (b + sq.copysign(if b == 0.0 { 1.0 } else { b }));
        if q == 0.0 {
            // b == 0 and c == 0: double root at origin.
            return vec![Complex::ZERO, Complex::ZERO];
        }
        vec![Complex::from_real(q / a), Complex::from_real(c / q)]
    } else {
        let re = -b / (2.0 * a);
        let im = (-disc).sqrt() / (2.0 * a);
        vec![Complex::new(re, im), Complex::new(re, -im)]
    }
}

/// Evaluates p and p' at `z` via one Horner pass.
fn eval_with_derivative(coeffs: &[f64], z: Complex) -> (Complex, Complex) {
    let mut p = Complex::ZERO;
    let mut dp = Complex::ZERO;
    for &c in coeffs.iter().rev() {
        dp = dp * z + p;
        p = p * z + c;
    }
    (p, dp)
}

/// Aberth–Ehrlich simultaneous root refinement. Also returns the number
/// of iterations it ran.
fn aberth(coeffs: &[f64]) -> (Vec<Complex>, usize) {
    let n = coeffs.len() - 1;
    let mut z = newton_polygon_starts(coeffs);
    let mut iters = 0;
    while iters < MAX_ITER {
        iters += 1;
        let mut max_step = 0.0_f64;
        for i in 0..n {
            let (p, dp) = eval_with_derivative(coeffs, z[i]);
            if p.norm() == 0.0 {
                continue;
            }
            let newton = if dp.norm() > 0.0 {
                p / dp
            } else {
                Complex::new(TOL, TOL)
            };
            // Aberth correction: subtract the repulsion of the other roots.
            let mut sum = Complex::ZERO;
            for (j, &zj) in z.iter().enumerate() {
                if j != i {
                    let d = z[i] - zj;
                    if d.norm_sqr() > 0.0 {
                        sum += d.inv();
                    }
                }
            }
            let denom = Complex::ONE - newton * sum;
            let step = if denom.norm() > 1e-300 {
                newton / denom
            } else {
                newton
            };
            z[i] -= step;
            let rel = step.norm() / (1.0 + z[i].norm());
            if rel > max_step {
                max_step = rel;
            }
        }
        if max_step < TOL {
            break;
        }
    }

    // Newton polish (helps multiple-ish roots settle).
    for zi in z.iter_mut() {
        for _ in 0..3 {
            let (p, dp) = eval_with_derivative(coeffs, *zi);
            if dp.norm() == 0.0 {
                break;
            }
            let step = p / dp;
            if !step.is_finite() || step.norm() < 1e-16 * (1.0 + zi.norm()) {
                break;
            }
            *zi -= step;
        }
    }

    // Conjugate pairing cleanup: real-coefficient polynomials have conjugate
    // root sets; snap tiny imaginary parts to zero.
    for zi in z.iter_mut() {
        if zi.im.abs() < 1e-9 * (1.0 + zi.re.abs()) {
            zi.im = 0.0;
        }
    }
    (z, iters)
}

/// Initial Aberth guesses from the Newton polygon: the upper convex hull
/// of `(k, ln|a_k|)` over the nonzero coefficients. Each hull edge `i→j`
/// bounds the magnitude of `j−i` roots near `(|a_i|/|a_j|)^(1/(j−i))`, so
/// that many starts go on that circle, at angles offset off the real axis.
///
/// `coeffs[0]` and `coeffs[n]` must be nonzero; the hull then spans
/// `0..=n` and yields exactly `n` starts for any `f64` input.
fn newton_polygon_starts(coeffs: &[f64]) -> Vec<Complex> {
    let n = coeffs.len() - 1;
    let mut hull: Vec<(usize, f64)> = Vec::with_capacity(n + 1);
    for (k, &c) in coeffs.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        let y = c.abs().ln();
        // Pop while the last hull point lies on or below the chord to `k`.
        while let [.., (i0, y0), (i1, y1)] = hull[..] {
            let cross = (i1 - i0) as f64 * (y - y0) - (k - i0) as f64 * (y1 - y0);
            if cross >= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push((k, y));
    }
    let mut z = Vec::with_capacity(n);
    for w in hull.windows(2) {
        let ((i, yi), (j, yj)) = (w[0], w[1]);
        let m = j - i;
        let r = ((yi - yj) / m as f64).exp();
        for k in 0..m {
            let theta =
                2.0 * std::f64::consts::PI * (k as f64 / m as f64 + i as f64 / n as f64) + 0.7;
            z.push(Complex::from_polar(r, theta));
        }
    }
    z
}

/// Sorts roots by (real part, imaginary part) — handy for deterministic
/// comparisons in tests and reports.
pub fn sort_roots(mut roots: Vec<Complex>) -> Vec<Complex> {
    roots.sort_by(|a, b| {
        a.re.partial_cmp(&b.re)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.im.partial_cmp(&b.im).unwrap_or(std::cmp::Ordering::Equal))
    });
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Poly;

    fn assert_root_set(coeffs: &[f64], expected: &[Complex], tol: f64) {
        let got = sort_roots(poly_roots(coeffs));
        let want = sort_roots(expected.to_vec());
        assert_eq!(
            got.len(),
            want.len(),
            "root count mismatch: {got:?} vs {want:?}"
        );
        for (g, w) in got.iter().zip(want.iter()) {
            assert!(
                (*g - *w).norm() < tol * (1.0 + w.norm()),
                "root {g} != expected {w} (all: {got:?})"
            );
        }
    }

    #[test]
    fn linear_and_constant() {
        assert!(poly_roots(&[5.0]).is_empty());
        assert!(poly_roots(&[]).is_empty());
        assert_root_set(&[2.0, 4.0], &[Complex::from_real(-0.5)], 1e-14);
    }

    #[test]
    fn quadratic_real_and_complex() {
        assert_root_set(
            &[2.0, -3.0, 1.0],
            &[Complex::from_real(1.0), Complex::from_real(2.0)],
            1e-12,
        );
        assert_root_set(
            &[5.0, 2.0, 1.0],
            &[Complex::new(-1.0, 2.0), Complex::new(-1.0, -2.0)],
            1e-12,
        );
    }

    #[test]
    fn quadratic_cancellation_resistant() {
        // x^2 - 1e8 x + 1 : roots ~1e8 and ~1e-8
        let r = sort_roots(poly_roots(&[1.0, -1e8, 1.0]));
        assert!((r[0].re - 1e-8).abs() < 1e-14);
        assert!((r[1].re - 1e8).abs() < 1.0);
    }

    #[test]
    fn cubic_known() {
        // (x-1)(x-2)(x-3) = -6 + 11x - 6x^2 + x^3
        assert_root_set(
            &[-6.0, 11.0, -6.0, 1.0],
            &[
                Complex::from_real(1.0),
                Complex::from_real(2.0),
                Complex::from_real(3.0),
            ],
            1e-9,
        );
    }

    #[test]
    fn widely_spread_circuit_poles() {
        // Poles at -1e4, -1e7, -1e9 (rad/s): typical OTA pole spread.
        let p = Poly::from_roots(&[-1e4, -1e7, -1e9]);
        let r = sort_roots(p.roots());
        let want = [-1e9, -1e7, -1e4];
        for (g, w) in r.iter().zip(want.iter()) {
            assert!((g.re - w).abs() < 1e-4 * w.abs(), "{} vs {}", g.re, w);
            assert!(g.im.abs() < 1e-3 * w.abs());
        }
    }

    #[test]
    fn spread_poles_converge_in_few_iterations() {
        // The fixture of `widely_spread_circuit_poles`: one Newton-polygon
        // circle per pole, so each start begins at its own magnitude.
        let p = Poly::from_roots(&[-1e4, -1e7, -1e9]);
        let (_, iters) = aberth(p.coeffs());
        assert!(iters <= 10, "{iters} iterations");
    }

    #[test]
    fn roots_at_origin() {
        // x^2 (x+3)
        let r = sort_roots(poly_roots(&[0.0, 0.0, 3.0, 1.0]));
        assert_eq!(r.len(), 3);
        assert!((r[0].re + 3.0).abs() < 1e-9);
        assert!(r[1].norm() < 1e-12 && r[2].norm() < 1e-12);
    }

    #[test]
    fn conjugate_pair_with_real_root() {
        // (x+2)(x^2 + 2x + 10): roots -2, -1±3i
        let p = &Poly::from_roots(&[-2.0]) * &Poly::new(vec![10.0, 2.0, 1.0]);
        assert_root_set(
            p.coeffs(),
            &[
                Complex::from_real(-2.0),
                Complex::new(-1.0, 3.0),
                Complex::new(-1.0, -3.0),
            ],
            1e-8,
        );
    }

    #[test]
    fn degree_six_random_reconstruction() {
        let true_roots = [-0.5, -1.5, -2.5, 3.0, 4.5, -6.0];
        let p = Poly::from_roots(&true_roots);
        let got = sort_roots(p.roots());
        let mut want: Vec<f64> = true_roots.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.re - w).abs() < 1e-6, "{} vs {}", g.re, w);
        }
    }

    #[test]
    fn double_root_is_found_approximately() {
        // (x+1)^2 (x+5)
        let p = Poly::from_roots(&[-1.0, -1.0, -5.0]);
        let r = sort_roots(p.roots());
        assert_eq!(r.len(), 3);
        assert!((r[0].re + 5.0).abs() < 1e-6);
        // Double roots converge with ~sqrt(eps) accuracy; accept 1e-5.
        assert!((r[1].re + 1.0).abs() < 1e-4);
        assert!((r[2].re + 1.0).abs() < 1e-4);
    }
}
