//! Singular value decomposition by one-sided Jacobi rotations.
//!
//! The SVD is the workhorse of the IES³ extraction kernel (Section 4 of the
//! paper): interaction blocks between well-separated element groups are
//! recursively compressed into low-rank outer products whose rank is chosen
//! by singular-value truncation. One-sided Jacobi is simple, accurate for
//! small singular values, and entirely adequate for the block sizes involved.

use crate::dense::Mat;
use crate::{Error, Result};

/// Thin SVD `A = U·diag(σ)·Vᵀ` of a real matrix with `rows ≥ cols`
/// (the factorization routine transposes internally when needed).
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (`m×r`).
    pub u: Mat<f64>,
    /// Singular values, non-increasing.
    pub sigma: Vec<f64>,
    /// Right singular vectors (`n×r`), stored as V (not Vᵀ).
    pub v: Mat<f64>,
}

impl Svd {
    /// Computes the thin SVD of `a` by the one-sided Jacobi method.
    ///
    /// # Errors
    /// Returns [`Error::InvalidArgument`] for an empty matrix and
    /// [`Error::NoConvergence`] if the sweep limit is exhausted (does not
    /// happen for well-scaled finite inputs).
    pub fn new(a: &Mat<f64>) -> Result<Self> {
        if a.rows() == 0 || a.cols() == 0 {
            return Err(Error::InvalidArgument("svd: empty matrix"));
        }
        if a.rows() >= a.cols() {
            Self::one_sided(a)
        } else {
            // A = U Σ Vᵀ  ⇔  Aᵀ = V Σ Uᵀ.
            let t = Self::one_sided(&a.transpose())?;
            Ok(Svd { u: t.v, sigma: t.sigma, v: t.u })
        }
    }

    fn one_sided(a: &Mat<f64>) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        // Work on columns of W = A; rotate pairs of columns until mutually
        // orthogonal. Accumulate rotations in V.
        let mut w = a.clone();
        let mut v: Mat<f64> = Mat::identity(n);
        let tol = 1e-14;
        let max_sweeps = 60;
        let mut converged = false;
        for _sweep in 0..max_sweeps {
            let mut off = 0.0f64;
            for p in 0..n {
                for q in p + 1..n {
                    // Gram entries for columns p, q.
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for i in 0..m {
                        let wp = w[(i, p)];
                        let wq = w[(i, q)];
                        app += wp * wp;
                        aqq += wq * wq;
                        apq += wp * wq;
                    }
                    let denom = (app * aqq).sqrt();
                    if denom <= 0.0 || apq.abs() <= tol * denom {
                        continue;
                    }
                    off = off.max(apq.abs() / denom);
                    // Jacobi rotation zeroing the (p,q) Gram entry.
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let wp = w[(i, p)];
                        let wq = w[(i, q)];
                        w[(i, p)] = c * wp - s * wq;
                        w[(i, q)] = s * wp + c * wq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp - s * vq;
                        v[(i, q)] = s * vp + c * vq;
                    }
                }
            }
            if off < tol {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(Error::NoConvergence {
                iterations: max_sweeps,
                residual: f64::NAN,
                residual_tail: Vec::new(),
            });
        }
        // Column norms of W are the singular values; normalize to get U.
        let mut sigma: Vec<f64> =
            (0..n).map(|j| (0..m).map(|i| w[(i, j)] * w[(i, j)]).sum::<f64>().sqrt()).collect();
        let mut u = Mat::zeros(m, n);
        for j in 0..n {
            if sigma[j] > 0.0 {
                for i in 0..m {
                    u[(i, j)] = w[(i, j)] / sigma[j];
                }
            }
        }
        // Sort by descending singular value.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).expect("finite sigma"));
        let us = Mat::from_fn(m, n, |i, j| u[(i, order[j])]);
        let vs = Mat::from_fn(n, n, |i, j| v[(i, order[j])]);
        sigma = order.iter().map(|&k| sigma[k]).collect();
        Ok(Svd { u: us, sigma, v: vs })
    }

    /// Numerical rank at relative tolerance `rtol` (relative to σ₁).
    pub fn rank(&self, rtol: f64) -> usize {
        let s0 = self.sigma.first().copied().unwrap_or(0.0);
        self.sigma.iter().filter(|&&s| s > rtol * s0).count()
    }

    /// Reconstructs the rank-`r` truncation `U_r·Σ_r·V_rᵀ`.
    pub fn truncate(&self, r: usize) -> (Mat<f64>, Mat<f64>) {
        // Return (U_r·Σ_r, V_rᵀ) as the two factors of the outer product,
        // which is the representation IES³ stores.
        let r = r.min(self.sigma.len());
        let m = self.u.rows();
        let n = self.v.rows();
        let us = Mat::from_fn(m, r, |i, j| self.u[(i, j)] * self.sigma[j]);
        let vt = Mat::from_fn(r, n, |i, j| self.v[(j, i)]);
        (us, vt)
    }

    /// 2-norm condition number σ₁/σₙ (∞ if σₙ = 0).
    pub fn cond2(&self) -> f64 {
        let first = self.sigma.first().copied().unwrap_or(0.0);
        let last = self.sigma.last().copied().unwrap_or(0.0);
        if last == 0.0 {
            f64::INFINITY
        } else {
            first / last
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(svd: &Svd) -> Mat<f64> {
        let r = svd.sigma.len();
        let (us, vt) = svd.truncate(r);
        us.matmul(&vt)
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Mat::from_fn(3, 3, |i, j| if i == j { [3.0, 1.0, 2.0][i] } else { 0.0 });
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - 3.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 2.0).abs() < 1e-12);
        assert!((svd.sigma[2] - 1.0).abs() < 1e-12);
        assert!((&reconstruct(&svd) - &a).norm_fro() < 1e-12);
    }

    #[test]
    fn reconstruction_tall_and_wide() {
        let tall = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let svd = Svd::new(&tall).unwrap();
        assert!((&reconstruct(&svd) - &tall).norm_fro() < 1e-10);
        let wide = tall.transpose();
        let svdw = Svd::new(&wide).unwrap();
        assert!((&reconstruct(&svdw) - &wide).norm_fro() < 1e-10);
        // Singular values agree between A and Aᵀ.
        for (a, b) in svd.sigma.iter().zip(&svdw.sigma) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn orthogonality_of_factors() {
        let a = Mat::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let svd = Svd::new(&a).unwrap();
        let utu = svd.u.transpose().matmul(&svd.u);
        let vtv = svd.v.transpose().matmul(&svd.v);
        let id: Mat<f64> = Mat::identity(4);
        assert!((&utu - &id).norm_fro() < 1e-10);
        assert!((&vtv - &id).norm_fro() < 1e-10);
    }

    #[test]
    fn low_rank_detection() {
        // Rank-1 outer product.
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [1.0, -1.0, 0.5];
        let a = Mat::from_fn(4, 3, |i, j| u[i] * v[j]);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        let (us, vt) = svd.truncate(1);
        let approx = us.matmul(&vt);
        assert!((&approx - &a).norm_fro() < 1e-10);
    }

    #[test]
    fn cond2_identity() {
        let id: Mat<f64> = Mat::identity(4);
        let svd = Svd::new(&id).unwrap();
        assert!((svd.cond2() - 1.0).abs() < 1e-12);
    }
}
