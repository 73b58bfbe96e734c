//! Shared biperiodic grid Newton solver used by MFDTD and MMFT.
//!
//! Both methods solve the MPDE on an `n1 × n2` collocation grid with
//! biperiodic boundary conditions; they differ only in the slow-axis
//! (`t₁`) differentiation operator: backward differences (MFDTD) or a
//! dense spectral matrix (MMFT). The fast axis (`t₂`) always uses backward
//! differences, which is what lets both methods handle strongly nonlinear
//! switching waveforms along `t₂`.

use crate::bivariate::BivariateWaveform;
use crate::{Error, Result};
use rfsim_circuit::dae::{Dae, TwoTime};
use rfsim_circuit::dc::{dc_operating_point, DcOptions};
use rfsim_circuit::newton::Newton;
use rfsim_numerics::dense::Mat;
use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::Complex;

/// Slow-axis differentiation operator.
pub(crate) enum SlowOp {
    /// First-order periodic backward difference with step `T₁/n1`.
    BackwardDiff,
    /// Dense spectral differentiation matrix (`n1 × n1`).
    Spectral(Mat<f64>),
}

/// Builds the periodic spectral differentiation matrix for `n` (odd)
/// samples of a period-`t` function.
pub(crate) fn spectral_diff_matrix(n: usize, period: f64) -> Mat<f64> {
    let omega = 2.0 * std::f64::consts::PI / period;
    let h = n / 2;
    Mat::from_fn(n, n, |i, j| {
        // D[i,j] = (1/n)·Σ_k jkω·e^{j2πk(i−j)/n}, real by symmetry.
        let mut acc = Complex::ZERO;
        for k in 1..=h {
            let phase = 2.0 * std::f64::consts::PI * k as f64 * (i as f64 - j as f64) / n as f64;
            let e = Complex::from_polar(1.0, phase);
            acc += Complex::new(0.0, k as f64 * omega) * e;
            acc += Complex::new(0.0, -(k as f64) * omega) * e.conj();
        }
        acc.re / n as f64
    })
}

/// One grid point's `G = ∂f/∂x` and `C = ∂q/∂x` stamps.
struct PointLin {
    g: Triplets<f64>,
    c: Triplets<f64>,
}

pub(crate) struct GridProblem<'a> {
    pub dae: &'a dyn Dae,
    pub t1_period: f64,
    pub t2_period: f64,
    pub n1: usize,
    pub n2: usize,
    pub slow: SlowOp,
}

/// Statistics from the grid Newton solve.
#[derive(Debug, Clone, Default)]
pub struct GridStats {
    /// Newton iterations.
    pub newton_iterations: usize,
    /// Total grid unknowns.
    pub unknowns: usize,
}

/// The MPDE engines' error for a failed Newton kernel solve.
pub(crate) fn newton_error(e: rfsim_circuit::Error) -> Error {
    match e {
        rfsim_circuit::Error::NewtonNoConvergence { iterations, residual } => {
            Error::NoConvergence { iterations, residual }
        }
        e => e.into(),
    }
}

impl GridProblem<'_> {
    /// Evaluates `f` and `q` at every grid point of `x` into `fall` and
    /// `qall`, and each point's stamps into `lins`.
    fn eval_all(&self, x: &[f64], fall: &mut [f64], qall: &mut [f64], lins: &mut [PointLin]) {
        let n = self.dae.dim();
        for (s, lin) in lins.iter_mut().enumerate() {
            let at = s * n..(s + 1) * n;
            self.dae.eval(
                &x[at.clone()],
                &mut fall[at.clone()],
                &mut qall[at],
                &mut lin.g,
                &mut lin.c,
            );
        }
    }

    fn time(&self, i1: usize, i2: usize) -> TwoTime {
        TwoTime::new(
            i1 as f64 * self.t1_period / self.n1 as f64,
            i2 as f64 * self.t2_period / self.n2 as f64,
        )
    }

    fn residual(&self, fall: &[f64], qall: &[f64], b: &[f64], r: &mut [f64]) {
        let n = self.dae.dim();
        let (n1, n2) = (self.n1, self.n2);
        let h1 = self.t1_period / n1 as f64;
        let h2 = self.t2_period / n2 as f64;
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                let s = i1 * n2 + i2;
                let sp2 = i1 * n2 + (i2 + n2 - 1) % n2;
                for k in 0..n {
                    let mut acc = fall[s * n + k] - b[s * n + k];
                    // Fast axis: backward difference, periodic.
                    acc += (qall[s * n + k] - qall[sp2 * n + k]) / h2;
                    // Slow axis.
                    match &self.slow {
                        SlowOp::BackwardDiff => {
                            let sp1 = ((i1 + n1 - 1) % n1) * n2 + i2;
                            acc += (qall[s * n + k] - qall[sp1 * n + k]) / h1;
                        }
                        SlowOp::Spectral(d) => {
                            for i1p in 0..n1 {
                                let sp = i1p * n2 + i2;
                                acc += d[(i1, i1p)] * qall[sp * n + k];
                            }
                        }
                    }
                    r[s * n + k] = acc;
                }
            }
        }
    }

    fn jacobian(&self, lins: &[PointLin], t: &mut Triplets<f64>) {
        let n = self.dae.dim();
        let (n1, n2) = (self.n1, self.n2);
        let h1 = self.t1_period / n1 as f64;
        let h2 = self.t2_period / n2 as f64;
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                let s = i1 * n2 + i2;
                // f and fast-axis diagonal parts.
                for &(r, c, v) in lins[s].g.entries() {
                    t.push(s * n + r, s * n + c, v);
                }
                for &(r, c, v) in lins[s].c.entries() {
                    t.push(s * n + r, s * n + c, v / h2);
                }
                let sp2 = i1 * n2 + (i2 + n2 - 1) % n2;
                for &(r, c, v) in lins[sp2].c.entries() {
                    t.push(s * n + r, sp2 * n + c, -v / h2);
                }
                match &self.slow {
                    SlowOp::BackwardDiff => {
                        for &(r, c, v) in lins[s].c.entries() {
                            t.push(s * n + r, s * n + c, v / h1);
                        }
                        let sp1 = ((i1 + n1 - 1) % n1) * n2 + i2;
                        for &(r, c, v) in lins[sp1].c.entries() {
                            t.push(s * n + r, sp1 * n + c, -v / h1);
                        }
                    }
                    SlowOp::Spectral(d) => {
                        for i1p in 0..n1 {
                            let sp = i1p * n2 + i2;
                            let coeff = d[(i1, i1p)];
                            if coeff == 0.0 {
                                continue;
                            }
                            for &(r, c, v) in lins[sp].c.entries() {
                                t.push(s * n + r, sp * n + c, coeff * v);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Runs the global Newton iteration on the shared kernel; returns the
    /// bivariate waveform.
    pub(crate) fn solve(
        &self,
        tol: f64,
        max_newton: usize,
        dc: &DcOptions,
    ) -> Result<(BivariateWaveform, GridStats)> {
        let n = self.dae.dim();
        let total = self.n1 * self.n2;
        let op = dc_operating_point(self.dae, dc)?;
        let mut x = vec![0.0; total * n];
        for s in 0..total {
            x[s * n..(s + 1) * n].copy_from_slice(&op.x);
        }
        // Excitation samples.
        let mut b = vec![0.0; total * n];
        {
            let mut bs = vec![0.0; n];
            for i1 in 0..self.n1 {
                for i2 in 0..self.n2 {
                    let s = i1 * self.n2 + i2;
                    self.dae.eval_b(self.time(i1, i2), &mut bs);
                    b[s * n..(s + 1) * n].copy_from_slice(&bs);
                }
            }
        }
        let (mut fall, mut qall) = (vec![0.0; total * n], vec![0.0; total * n]);
        let mut lins: Vec<PointLin> = (0..total)
            .map(|_| PointLin { g: Triplets::new(n, n), c: Triplets::new(n, n) })
            .collect();
        let newton_opts = DcOptions { max_iters: max_newton, ..*dc };
        let iterations = Newton::default()
            .solve(&mut x, &newton_opts, |x, r, jac| {
                self.eval_all(x, &mut fall, &mut qall, &mut lins);
                self.residual(&fall, &qall, &b, r);
                self.jacobian(&lins, jac);
                tol
            })
            .map_err(newton_error)?;
        let w = BivariateWaveform {
            t1_period: self.t1_period,
            t2_period: self.t2_period,
            n1: self.n1,
            n2: self.n2,
            n,
            data: x,
        };
        Ok((w, GridStats { newton_iterations: iterations, unknowns: total * n }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectral_matrix_differentiates_sine() {
        let n = 9;
        let period = 2.0;
        let d = spectral_diff_matrix(n, period);
        let omega = 2.0 * std::f64::consts::PI / period;
        let xs: Vec<f64> = (0..n).map(|i| (omega * i as f64 * period / n as f64).sin()).collect();
        let dx = d.matvec(&xs);
        for (i, v) in dx.iter().enumerate() {
            let expect = omega * (omega * i as f64 * period / n as f64).cos();
            assert!((v - expect).abs() < 1e-9, "i={i}: {v} vs {expect}");
        }
    }

    #[test]
    fn spectral_matrix_kills_constants() {
        let d = spectral_diff_matrix(7, 1.0);
        let ones = vec![1.0; 7];
        let dx = d.matvec(&ones);
        for v in dx {
            assert!(v.abs() < 1e-12);
        }
    }
}
