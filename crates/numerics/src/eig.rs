//! Eigenvalue computation for real matrices: Hessenberg reduction followed
//! by the shifted QR iteration, plus inverse iteration for selected
//! eigenvectors.
//!
//! Consumers in the toolkit:
//! - reduced-order modeling: poles of the reduced system are eigenvalues of
//!   the small reduced matrix (PVL tridiagonal / Arnoldi Hessenberg);
//! - phase noise: Floquet multipliers are eigenvalues of the monodromy
//!   matrix, and the perturbation projection vector is the left eigenvector
//!   for the multiplier 1.

use crate::dense::Mat;
use crate::Complex;
use crate::{Error, Result};

/// Reduces a square real matrix to upper Hessenberg form by Householder
/// similarity transforms, returning `H` (same eigenvalues as the input).
pub fn hessenberg(a: &Mat<f64>) -> Mat<f64> {
    let n = a.rows();
    assert!(a.is_square(), "hessenberg: matrix must be square");
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        // Householder vector zeroing h[k+2.., k].
        let mut alpha = 0.0;
        for i in k + 1..n {
            alpha += h[(i, k)] * h[(i, k)];
        }
        alpha = alpha.sqrt();
        if alpha == 0.0 {
            continue;
        }
        if h[(k + 1, k)] > 0.0 {
            alpha = -alpha;
        }
        let mut v = vec![0.0; n];
        v[k + 1] = h[(k + 1, k)] - alpha;
        for i in k + 2..n {
            v[i] = h[(i, k)];
        }
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        // H ← (I − 2vvᵀ/vᵀv) H (I − 2vvᵀ/vᵀv)
        // Left multiply.
        for j in 0..n {
            let mut dot = 0.0;
            for i in k + 1..n {
                dot += v[i] * h[(i, j)];
            }
            let f = 2.0 * dot / vnorm2;
            for i in k + 1..n {
                h[(i, j)] -= f * v[i];
            }
        }
        // Right multiply.
        for i in 0..n {
            let mut dot = 0.0;
            for j in k + 1..n {
                dot += h[(i, j)] * v[j];
            }
            let f = 2.0 * dot / vnorm2;
            for j in k + 1..n {
                h[(i, j)] -= f * v[j];
            }
        }
    }
    h
}

/// Computes all eigenvalues of a square real matrix via Hessenberg reduction
/// and the (Wilkinson-shifted) QR iteration with deflation.
///
/// Complex conjugate pairs are returned as such; ordering is by decreasing
/// modulus.
///
/// # Errors
/// Returns [`Error::NoConvergence`] if the QR iteration stalls (pathological
/// inputs) and [`Error::InvalidArgument`] for non-square matrices.
pub fn eigenvalues(a: &Mat<f64>) -> Result<Vec<Complex>> {
    if !a.is_square() {
        return Err(Error::InvalidArgument("eigenvalues: matrix must be square"));
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut h = hessenberg(a);
    let mut eigs: Vec<Complex> = Vec::with_capacity(n);
    let mut hi = n; // active block is rows/cols 0..hi
    let max_total_iters = 100 * n.max(1);
    let mut iters_on_block = 0usize;
    let mut total = 0usize;
    while hi > 0 {
        total += 1;
        if total > max_total_iters {
            return Err(Error::NoConvergence {
                iterations: total,
                residual: f64::NAN,
                residual_tail: Vec::new(),
            });
        }
        // Check for small subdiagonal to deflate.
        let mut lo = hi - 1;
        while lo > 0 {
            let s = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            let s = if s == 0.0 { 1.0 } else { s };
            if h[(lo, lo - 1)].abs() < 1e-14 * s {
                h[(lo, lo - 1)] = 0.0;
                break;
            }
            lo -= 1;
        }
        if lo == hi - 1 {
            // 1x1 block deflated.
            eigs.push(Complex::from_re(h[(hi - 1, hi - 1)]));
            hi -= 1;
            iters_on_block = 0;
            continue;
        }
        if lo == hi - 2 {
            // 2x2 block: solve quadratic directly.
            let a11 = h[(hi - 2, hi - 2)];
            let a12 = h[(hi - 2, hi - 1)];
            let a21 = h[(hi - 1, hi - 2)];
            let a22 = h[(hi - 1, hi - 1)];
            let tr = a11 + a22;
            let det = a11 * a22 - a12 * a21;
            let disc = tr * tr / 4.0 - det;
            if disc >= 0.0 {
                let rt = disc.sqrt();
                eigs.push(Complex::from_re(tr / 2.0 + rt));
                eigs.push(Complex::from_re(tr / 2.0 - rt));
            } else {
                let rt = (-disc).sqrt();
                eigs.push(Complex::new(tr / 2.0, rt));
                eigs.push(Complex::new(tr / 2.0, -rt));
            }
            hi -= 2;
            iters_on_block = 0;
            continue;
        }
        iters_on_block += 1;
        // Wilkinson shift from the trailing 2x2; occasionally use an
        // exceptional shift to break symmetry-induced cycling.
        let shift = if iters_on_block % 11 == 10 {
            h[(hi - 1, hi - 1)].abs() + h[(hi - 1, hi - 2)].abs()
        } else {
            let a11 = h[(hi - 2, hi - 2)];
            let a12 = h[(hi - 2, hi - 1)];
            let a21 = h[(hi - 1, hi - 2)];
            let a22 = h[(hi - 1, hi - 1)];
            let tr = a11 + a22;
            let det = a11 * a22 - a12 * a21;
            let disc = tr * tr / 4.0 - det;
            if disc >= 0.0 {
                let r1 = tr / 2.0 + disc.sqrt();
                let r2 = tr / 2.0 - disc.sqrt();
                if (r1 - a22).abs() < (r2 - a22).abs() {
                    r1
                } else {
                    r2
                }
            } else {
                // Complex pair: use real part (a simple, stable choice that
                // still converges for the conjugate-pair case via the 2x2
                // deflation above).
                tr / 2.0
            }
        };
        // Single-shift QR step on the active block via Givens rotations.
        qr_step(&mut h, lo, hi, shift);
    }
    eigs.sort_by(|x, y| y.abs().partial_cmp(&x.abs()).expect("finite eigenvalues"));
    Ok(eigs)
}

/// One explicit single-shift QR step restricted to rows/cols `lo..hi`:
/// `H_s = H − σI = Q·R`, then `H ← R·Q + σI`. The coupling entries outside
/// the active block are not updated; they do not affect the eigenvalues of
/// the remaining active blocks.
fn qr_step(h: &mut Mat<f64>, lo: usize, hi: usize, shift: f64) {
    for i in lo..hi {
        h[(i, i)] -= shift;
    }
    // Left-multiply: Givens rotations triangularizing the shifted block.
    let mut cs = Vec::with_capacity(hi - lo);
    for k in lo..hi - 1 {
        let x = h[(k, k)];
        let z = h[(k + 1, k)];
        let r = x.hypot(z);
        let (c, s) = if r == 0.0 { (1.0, 0.0) } else { (x / r, z / r) };
        cs.push((c, s));
        for j in k..hi {
            let hkj = h[(k, j)];
            let hk1j = h[(k + 1, j)];
            h[(k, j)] = c * hkj + s * hk1j;
            h[(k + 1, j)] = -s * hkj + c * hk1j;
        }
    }
    // Right-multiply by Qᵀ: H ← R·Q (re-creates the Hessenberg subdiagonal).
    for (idx, &(c, s)) in cs.iter().enumerate() {
        let k = lo + idx;
        for i in lo..=(k + 1).min(hi - 1) {
            let hik = h[(i, k)];
            let hik1 = h[(i, k + 1)];
            h[(i, k)] = c * hik + s * hik1;
            h[(i, k + 1)] = -s * hik + c * hik1;
        }
    }
    for i in lo..hi {
        h[(i, i)] += shift;
    }
}

/// Computes a **left** eigenvector (`vᵀA = λvᵀ`, i.e. a right eigenvector of
/// `Aᵀ`) for a real eigenvalue by shifted inverse iteration. Used to compute
/// the perturbation projection vector of oscillator phase-noise analysis.
///
/// # Errors
/// Returns [`Error::NoConvergence`] if inverse iteration fails to settle.
pub fn left_eigenvector_for(a: &Mat<f64>, lambda: f64) -> Result<Vec<f64>> {
    let n = a.rows();
    let at = a.transpose();
    // Perturb the shift slightly so Aᵀ - λI is invertible even for exact λ.
    let scale = a.norm_max().max(1.0);
    let mut shifted = at.clone();
    for i in 0..n {
        shifted[(i, i)] -= lambda + 1e-10 * scale;
    }
    let lu = match shifted.lu() {
        Ok(lu) => lu,
        Err(_) => {
            // Try a slightly larger perturbation.
            for i in 0..n {
                shifted[(i, i)] -= 1e-7 * scale;
            }
            shifted.lu()?
        }
    };
    let mut v = vec![0.0; n];
    // Deterministic non-degenerate start vector.
    for (i, vi) in v.iter_mut().enumerate() {
        *vi = 1.0 + (i as f64) * 0.37;
    }
    let mut last_resid = f64::INFINITY;
    for it in 0..200 {
        let mut w = lu.solve(&v)?;
        let nrm = crate::norm2(&w);
        if !nrm.is_finite() || nrm == 0.0 {
            return Err(Error::Breakdown("inverse iteration: zero/overflow iterate"));
        }
        for x in &mut w {
            *x /= nrm;
        }
        // Residual ‖(Aᵀ−λI)w‖ against the *unperturbed* matrix.
        let mut r = at.matvec(&w);
        for i in 0..n {
            r[i] -= lambda * w[i];
        }
        last_resid = crate::norm2(&r);
        v = w;
        if last_resid < 1e-10 * scale {
            return Ok(v);
        }
        if it > 5 && last_resid < 1e-8 * scale {
            return Ok(v);
        }
    }
    Err(Error::NoConvergence { iterations: 200, residual: last_resid, residual_tail: Vec::new() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_re(mut v: Vec<Complex>) -> Vec<Complex> {
        v.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        v
    }

    #[test]
    fn hessenberg_preserves_trace_and_shape() {
        let a = Mat::from_fn(5, 5, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
        let h = hessenberg(&a);
        // Hessenberg: zero below first subdiagonal.
        for i in 0..5usize {
            for j in 0..i.saturating_sub(1) {
                assert!(h[(i, j)].abs() < 1e-12, "h[{i},{j}] = {}", h[(i, j)]);
            }
        }
        let tr_a: f64 = (0..5).map(|i| a[(i, i)]).sum();
        let tr_h: f64 = (0..5).map(|i| h[(i, i)]).sum();
        assert!((tr_a - tr_h).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_of_diagonal() {
        let a = Mat::from_fn(3, 3, |i, j| if i == j { [1.0, -2.0, 3.0][i] } else { 0.0 });
        let e = sorted_re(eigenvalues(&a).unwrap());
        assert!((e[0].re + 2.0).abs() < 1e-10);
        assert!((e[1].re - 1.0).abs() < 1e-10);
        assert!((e[2].re - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_of_rotation_are_complex_pair() {
        // 2D rotation by θ has eigenvalues e^{±jθ}.
        let th = 0.5f64;
        let a = Mat::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]]);
        let e = eigenvalues(&a).unwrap();
        assert_eq!(e.len(), 2);
        for z in &e {
            assert!((z.abs() - 1.0).abs() < 1e-10);
            assert!((z.arg().abs() - th).abs() < 1e-10);
        }
    }

    #[test]
    fn eigenvalues_of_general_matrix() {
        // Companion-style matrix with known eigenvalues 1, 2, 3.
        // p(x) = (x-1)(x-2)(x-3) = x³ -6x² +11x -6
        let a = Mat::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let e = sorted_re(eigenvalues(&a).unwrap());
        assert!((e[0].re - 1.0).abs() < 1e-8, "{e:?}");
        assert!((e[1].re - 2.0).abs() < 1e-8);
        assert!((e[2].re - 3.0).abs() < 1e-8);
        for z in &e {
            assert!(z.im.abs() < 1e-8);
        }
    }

    #[test]
    fn eigenvalues_satisfy_characteristic_equation() {
        // Random-ish 8×8: every computed eigenvalue must make A − λI
        // singular, checked through the complex determinant.
        let n = 8;
        let a = Mat::from_fn(n, n, |i, j| (((i * 31 + j * 17 + 7) % 23) as f64 - 11.0) / 5.0);
        let eigs = eigenvalues(&a).unwrap();
        assert_eq!(eigs.len(), n);
        // Scale reference: det of A itself.
        for lam in &eigs {
            let shifted = Mat::from_fn(n, n, |i, j| {
                let base = crate::Complex::from_re(a[(i, j)]);
                if i == j {
                    base - *lam
                } else {
                    base
                }
            });
            let d = shifted.det();
            assert!(d.abs() < 1e-6 * a.norm_fro().powi(n as i32), "det(A − {lam}I) = {d}");
        }
        // Trace equals the eigenvalue sum (1st Newton identity).
        let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: crate::Complex = eigs.iter().copied().sum();
        assert!((sum.re - tr).abs() < 1e-8 && sum.im.abs() < 1e-8);
    }

    #[test]
    fn left_eigenvector() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let v = left_eigenvector_for(&a, 2.0).unwrap();
        let atv = a.transpose().matvec(&v);
        for i in 0..2 {
            assert!((atv[i] - 2.0 * v[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn monodromy_style_unit_multiplier() {
        // A matrix constructed to have eigenvalue exactly 1 (like a
        // monodromy matrix of an orbitally stable oscillator) plus a
        // contracting direction.
        let a = Mat::from_rows(&[&[1.0, 0.7], &[0.0, 0.4]]);
        let e = eigenvalues(&a).unwrap();
        assert!(e.iter().any(|z| (z.re - 1.0).abs() < 1e-10 && z.im.abs() < 1e-12));
        let v = left_eigenvector_for(&a, 1.0).unwrap();
        let atv = a.transpose().matvec(&v);
        for i in 0..2 {
            assert!((atv[i] - v[i]).abs() < 1e-7);
        }
    }
}
