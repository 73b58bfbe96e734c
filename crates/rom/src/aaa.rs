//! AAA rational approximation (Nakatsukasa–Sète–Trefethen) for adaptive
//! frequency sweeps.
//!
//! The sweep engines (`SweptExtractor`, `HbSweep`) march a fixed grid
//! even though neighboring solves are nearly redundant; the adaptive
//! driver instead fits the response with a barycentric rational
//! interpolant and only issues true solves where the model is uncertain.
//! AAA is the right fitter for that job: greedy support-point selection
//! puts interpolation nodes where the residual is largest (exactly the
//! SRF-style regions that need dense sampling), the least-squares weight
//! solve is a single small SVD, and the barycentric form is numerically
//! stable where the explicit-coefficient Padé of [`crate::awe`] is not —
//! the same instability argument the paper makes for moment matching,
//! resolved the same way (work with a stable basis, never monomial
//! coefficients).
//!
//! The fit is real-to-real over a real frequency interval:
//!
//! ```text
//! r(z) = Σⱼ wⱼ fⱼ/(z − zⱼ)  /  Σⱼ wⱼ/(z − zⱼ)
//! ```
//!
//! which interpolates `fⱼ` at every support point `zⱼ` for any nonzero
//! weights, so accuracy only ever depends on the *weight* least-squares
//! problem — the smallest right singular vector of the Loewner matrix
//! over the non-support samples, optionally polished by a few Lawson
//! (iteratively reweighted) passes toward the minimax weights. Poles of
//! the fitted model come from the roots of the barycentric denominator,
//! computed on an affinely normalized domain for conditioning.

use crate::{Error, Result};
use rfsim_numerics::dense::Mat;
use rfsim_numerics::eig::eigenvalues;
use rfsim_numerics::svd::Svd;
use rfsim_numerics::Complex;

/// Knobs for [`AaaFit::fit`].
#[derive(Debug, Clone, Copy)]
pub struct AaaOptions {
    /// Relative residual target: greedy support selection stops once the
    /// worst sample residual falls below `tol · max|f|`.
    pub tol: f64,
    /// Cap on support points (the barycentric order). The fit also never
    /// uses more than `n − 1` support points so at least one sample is
    /// left to determine the weights.
    pub max_support: usize,
    /// Lawson reweighting passes after the greedy stage (0 disables).
    /// Each pass re-solves the weight SVD with rows scaled by the
    /// running residual, walking the least-squares weights toward the
    /// minimax ones; the best weights seen are kept.
    pub lawson_iters: usize,
}

impl Default for AaaOptions {
    fn default() -> Self {
        AaaOptions { tol: 1e-12, max_support: 24, lawson_iters: 6 }
    }
}

/// A fitted barycentric rational interpolant.
#[derive(Debug, Clone)]
pub struct AaaFit {
    support: Vec<f64>,
    values: Vec<f64>,
    weights: Vec<f64>,
    /// Worst relative residual over the non-support samples at the end
    /// of the fit.
    max_rel_residual: f64,
}

impl AaaFit {
    /// Fits `values[i] ≈ r(points[i])` by greedy AAA.
    ///
    /// # Errors
    /// [`Error::InvalidSetup`] on length mismatch, fewer than two
    /// samples, non-finite data, or duplicate sample points.
    pub fn fit(points: &[f64], values: &[f64], opts: &AaaOptions) -> Result<AaaFit> {
        let n = points.len();
        if n != values.len() {
            return Err(Error::InvalidSetup(format!(
                "aaa: {n} points but {} values",
                values.len()
            )));
        }
        if n < 2 {
            return Err(Error::InvalidSetup("aaa: need at least two samples".to_string()));
        }
        if points.iter().chain(values).any(|v| !v.is_finite()) {
            return Err(Error::InvalidSetup("aaa: non-finite sample data".to_string()));
        }
        let mut sorted: Vec<f64> = points.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::InvalidSetup("aaa: duplicate sample points".to_string()));
        }

        let scale = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut fit = AaaFit {
            support: Vec::new(),
            values: Vec::new(),
            weights: Vec::new(),
            max_rel_residual: 0.0,
        };
        if scale == 0.0 {
            // Identically zero data: a single zero-valued support point
            // reproduces it everywhere.
            fit.support.push(points[0]);
            fit.values.push(0.0);
            fit.weights.push(1.0);
            return Ok(fit);
        }

        let mean = values.iter().sum::<f64>() / n as f64;
        let mut is_support = vec![false; n];
        let mut residual: Vec<f64> = values.iter().map(|f| f - mean).collect();
        let max_support = opts.max_support.min(n - 1).max(1);
        // Greedy growth is not pointwise monotone — an added support
        // point can transiently worsen the max residual (a spurious pole
        // wandering between samples). Keep the best configuration seen,
        // so a larger support budget never returns a worse model.
        let mut best: Option<(AaaFit, f64)> = None;
        loop {
            // Next support point: the worst-approximated free sample.
            let (pick, pick_err) = residual
                .iter()
                .enumerate()
                .filter(|(i, _)| !is_support[*i])
                .map(|(i, r)| (i, r.abs()))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one free sample by construction");
            if !fit.support.is_empty() && pick_err <= opts.tol * scale {
                break;
            }
            if fit.support.len() >= max_support {
                break;
            }
            is_support[pick] = true;
            fit.support.push(points[pick]);
            fit.values.push(values[pick]);
            let free: Vec<usize> = (0..n).filter(|&i| !is_support[i]).collect();
            fit.weights = loewner_weights(points, values, &fit, &free, None)?;
            let mut worst = 0.0f64;
            for &i in &free {
                residual[i] = values[i] - fit.eval(points[i]);
                worst = worst.max(residual[i].abs());
            }
            if best.as_ref().is_none_or(|(_, b)| worst < *b) {
                best = Some((fit.clone(), worst));
            }
        }
        if let Some((b, _)) = best {
            fit = b;
        }

        let free: Vec<usize> = (0..n).filter(|&i| !fit.support.contains(&points[i])).collect();
        let max_res = |w: &AaaFit| {
            free.iter().map(|&i| (values[i] - w.eval(points[i])).abs()).fold(0.0f64, f64::max)
        };
        fit.max_rel_residual = max_res(&fit) / scale;

        // Lawson polish: reweight rows by their running residual and
        // re-solve; keep the best weights seen (the iteration is not
        // monotone, so never accept a regression).
        if opts.lawson_iters > 0 && !free.is_empty() {
            let mut gamma = vec![1.0; free.len()];
            for _ in 0..opts.lawson_iters {
                for (g, &i) in gamma.iter_mut().zip(&free) {
                    *g *= (values[i] - fit.eval(points[i])).abs() + 1e-3 * opts.tol * scale;
                }
                let gmax = gamma.iter().fold(0.0f64, |m, g| m.max(*g));
                if gmax <= 0.0 {
                    break;
                }
                gamma.iter_mut().for_each(|g| *g /= gmax);
                let mut trial = fit.clone();
                trial.weights = loewner_weights(points, values, &fit, &free, Some(&gamma))?;
                let rel = max_res(&trial) / scale;
                if rel < fit.max_rel_residual {
                    fit.weights = trial.weights;
                    fit.max_rel_residual = rel;
                }
            }
        }
        Ok(fit)
    }

    /// Evaluates the interpolant at `z` (exact at support points).
    pub fn eval(&self, z: f64) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for ((&zj, &fj), &wj) in self.support.iter().zip(&self.values).zip(&self.weights) {
            let d = z - zj;
            if d == 0.0 {
                return fj;
            }
            num += wj * fj / d;
            den += wj / d;
        }
        let r = num / den;
        if r.is_finite() {
            r
        } else {
            // A denominator zero between support points (a real pole of
            // the fit): answer the nearest support value rather than ±∞.
            let j = self
                .support
                .iter()
                .enumerate()
                .min_by(|a, b| (a.1 - z).abs().total_cmp(&(b.1 - z).abs()))
                .map_or(0, |(j, _)| j);
            self.values[j]
        }
    }

    /// Number of support points (the barycentric order).
    pub fn order(&self) -> usize {
        self.support.len()
    }

    /// Support points of the fit, in greedy selection order.
    pub fn support(&self) -> &[f64] {
        &self.support
    }

    /// Worst relative residual over the non-support fitting samples.
    pub fn max_rel_residual(&self) -> f64 {
        self.max_rel_residual
    }

    /// Poles of the fitted rational: roots of the barycentric
    /// denominator `d(z) = Σⱼ wⱼ Πₖ≠ⱼ (z − zₖ)`, expanded on the
    /// affinely normalized support domain and solved as the eigenvalues
    /// of the companion matrix. Complex poles come in conjugate pairs
    /// (the data is real).
    ///
    /// # Errors
    /// Propagates eigenvalue failures (does not happen for finite
    /// weights).
    pub fn poles(&self) -> Result<Vec<Complex>> {
        let m = self.support.len();
        if m < 2 {
            return Ok(Vec::new());
        }
        let lo = self.support.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let hi = self.support.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let c = 0.5 * (lo + hi);
        let s = 0.5 * (hi - lo);
        if s == 0.0 {
            return Ok(Vec::new());
        }
        let t: Vec<f64> = self.support.iter().map(|z| (z - c) / s).collect();
        // d(t) = Σⱼ wⱼ Πₖ≠ⱼ (t − tₖ), degree ≤ m−1, by convolution.
        let mut coeffs = vec![0.0; m]; // coeffs[p] multiplies t^p
        for j in 0..m {
            let mut poly = vec![0.0; m];
            poly[0] = 1.0;
            let mut deg = 0;
            for (k, &tk) in t.iter().enumerate() {
                if k == j {
                    continue;
                }
                // poly ← poly·(t − tₖ)
                for p in (0..=deg).rev() {
                    poly[p + 1] += poly[p];
                    poly[p] *= -tk;
                }
                deg += 1;
            }
            for (cp, pp) in coeffs.iter_mut().zip(&poly) {
                *cp += self.weights[j] * pp;
            }
        }
        let cmax = coeffs.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        if cmax == 0.0 {
            return Ok(Vec::new());
        }
        let mut deg = m - 1;
        while deg > 0 && coeffs[deg].abs() <= 1e-13 * cmax {
            deg -= 1;
        }
        if deg == 0 {
            return Ok(Vec::new());
        }
        let lead = coeffs[deg];
        let companion = Mat::from_fn(deg, deg, |i, j| {
            if j == deg - 1 {
                -coeffs[i] / lead
            } else if i == j + 1 {
                1.0
            } else {
                0.0
            }
        });
        let roots = eigenvalues(&companion)?;
        Ok(roots.into_iter().map(|r| Complex::new(c + s * r.re, s * r.im)).collect())
    }

    /// Approximate heap bytes of the fit (three `f64` vectors).
    pub fn memory_bytes(&self) -> usize {
        3 * self.support.len() * 8
    }
}

/// Solves the AAA weight problem: the unit vector `w` minimizing
/// `‖diag(γ)·A·w‖₂` over the free (non-support) rows of the Loewner
/// matrix `A[i][j] = (f_i − f_j)/(z_i − z_j)`. Tall or square systems
/// take the smallest right singular vector directly; wide ones (more
/// support points than free samples, the near-interpolating regime) go
/// through the Gram matrix, whose smallest eigenvector is the same
/// minimizer and which the thin SVD can actually reach.
fn loewner_weights(
    points: &[f64],
    values: &[f64],
    fit: &AaaFit,
    free: &[usize],
    row_scale: Option<&[f64]>,
) -> Result<Vec<f64>> {
    let m = fit.support.len();
    if free.is_empty() {
        return Ok(vec![1.0; m]);
    }
    let a = Mat::from_fn(free.len(), m, |r, j| {
        let i = free[r];
        let g = row_scale.map_or(1.0, |s| s[r]);
        g * (values[i] - fit.values[j]) / (points[i] - fit.support[j])
    });
    let v = if a.rows() >= a.cols() {
        let svd = Svd::new(&a)?;
        svd.v.col(svd.sigma.len() - 1)
    } else {
        let gram = a.transpose().matmul(&a);
        let svd = Svd::new(&gram)?;
        svd.v.col(svd.sigma.len() - 1)
    };
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm == 0.0 || !norm.is_finite() {
        return Err(Error::Breakdown("aaa: degenerate weight vector"));
    }
    Ok(v.iter().map(|x| x / norm).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn interpolates_support_and_fits_rational_exactly() {
        // f(x) = (x + 2)/(x² + 1): degree-(1,2) rational, needs 4 points.
        let xs = grid(-3.0, 3.0, 40);
        let f = |x: f64| (x + 2.0) / (x * x + 1.0);
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let fit = AaaFit::fit(&xs, &ys, &AaaOptions::default()).unwrap();
        assert!(fit.order() <= 6, "low-order data must stay low order: {}", fit.order());
        assert!(fit.max_rel_residual() < 1e-10, "residual {}", fit.max_rel_residual());
        for &x in &[-2.77, -0.1, 0.33, 2.9] {
            assert!((fit.eval(x) - f(x)).abs() < 1e-9, "off-sample at {x}");
        }
        // Support points reproduce exactly.
        let z0 = fit.support()[0];
        assert_eq!(fit.eval(z0), f(z0));
    }

    #[test]
    fn recovers_known_poles() {
        // f(x) = 1/(x − 5) sampled on [0, 4]: one real pole at 5.
        let xs = grid(0.0, 4.0, 30);
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 / (x - 5.0)).collect();
        let fit = AaaFit::fit(&xs, &ys, &AaaOptions::default()).unwrap();
        let poles = fit.poles().unwrap();
        let hit = poles.iter().any(|p| (p.re - 5.0).abs() < 1e-6 && p.im.abs() < 1e-6);
        assert!(hit, "pole at 5 not found in {poles:?}");
    }

    #[test]
    fn complex_pole_pair_from_resonance() {
        // 1/(1 + x²) has poles at ±i.
        let xs = grid(-2.0, 2.0, 41);
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 / (1.0 + x * x)).collect();
        let fit = AaaFit::fit(&xs, &ys, &AaaOptions::default()).unwrap();
        let poles = fit.poles().unwrap();
        let hit = poles.iter().any(|p| p.re.abs() < 1e-6 && (p.im.abs() - 1.0).abs() < 1e-6);
        assert!(hit, "poles at ±i not found in {poles:?}");
    }

    #[test]
    fn residual_drops_as_support_grows() {
        // Non-rational data: the greedy residual (best configuration
        // over the explored orders, Lawson off — the polish optimizes
        // each cap independently and is therefore not comparable across
        // caps) must decrease monotonically as the support budget grows.
        let xs = grid(0.1, 3.0, 60);
        let ys: Vec<f64> = xs.iter().map(|&x| x.ln() * (3.0 * x).sin()).collect();
        let mut prev = f64::INFINITY;
        for cap in 2..=10 {
            let opts = AaaOptions { tol: 0.0, max_support: cap, lawson_iters: 0 };
            let fit = AaaFit::fit(&xs, &ys, &opts).unwrap();
            let res = fit.max_rel_residual();
            assert!(res <= prev * (1.0 + 1e-9), "cap {cap}: {res} > {prev}");
            prev = res;
        }
        assert!(prev < 1e-2, "10 support points should fit this well: {prev}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(AaaFit::fit(&[1.0], &[1.0], &AaaOptions::default()).is_err());
        assert!(AaaFit::fit(&[1.0, 1.0], &[1.0, 2.0], &AaaOptions::default()).is_err());
        assert!(AaaFit::fit(&[1.0, 2.0], &[1.0, f64::NAN], &AaaOptions::default()).is_err());
        assert!(AaaFit::fit(&[1.0, 2.0], &[1.0], &AaaOptions::default()).is_err());
    }

    #[test]
    fn zero_data_fits_zero() {
        let xs = grid(0.0, 1.0, 5);
        let fit = AaaFit::fit(&xs, &[0.0; 5], &AaaOptions::default()).unwrap();
        assert_eq!(fit.eval(0.37), 0.0);
    }
}
