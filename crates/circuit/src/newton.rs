//! The damped-Newton kernel of every direct engine: the DC operating
//! point, each transient and shooting step, and the MFDTD/MMFT grid and
//! envelope lines of `rfsim-mpde`.
//!
//! An engine hands [`Newton::solve`] an evaluation: at a point `x` it
//! writes the residual `r(x)`, pushes the stamps of the Jacobian `J(x)`,
//! and returns the residual tolerance at that point. The kernel compiles
//! a position-complete pattern of `J` ([`Triplets::to_pattern`]) the
//! first time it must factor, and keeps one [`SparseLu`] on it: every
//! later correction scatters its stamps by position ([`Csr::scatter`])
//! and [refactors](SparseLu::refactor) on the kept analysis (KLU's
//! numeric refactorization; Davis & Palamadai Natarajan, ACM TOMS 2010).
//! A stamp at a position the pattern lacks grows the pattern and gets a
//! fresh analysis; so does a pivot that fails, inside `refactor`. The
//! pattern and the factor outlive a solve, so an engine that keeps its
//! kernel (across time steps, continuation steps or lines) analyses its
//! Jacobian once.

use crate::dc::DcOptions;
use crate::{Error, Result};
use rfsim_numerics::sparse::{Csr, SparseLu, Triplets};
use rfsim_numerics::{norm2, norm_inf};
use rfsim_telemetry::TraceBuf;

/// The residual, the Jacobian stamps and the residual tolerance at one
/// point.
#[derive(Debug, Default)]
struct Eval {
    r: Vec<f64>,
    jac: Triplets<f64>,
    tol: f64,
}

impl Eval {
    fn at<F>(&mut self, x: &[f64], eval: &mut F)
    where
        F: FnMut(&[f64], &mut [f64], &mut Triplets<f64>) -> f64,
    {
        let n = x.len();
        self.r.resize(n, 0.0);
        self.jac.reset(n, n);
        self.tol = eval(x, &mut self.r, &mut self.jac);
    }
}

/// One damped-Newton solver and the Jacobian analysis it keeps between
/// solves.
///
/// The policy is one for every engine:
/// - converged when `‖r‖∞` is below the point's tolerance, checked
///   before any factorization (a solve that starts converged factors
///   nothing), or when the accepted update stalls below
///   `opts.reltol·max(‖x‖∞, 1)` with `‖r‖∞` within 10³ of the tolerance;
/// - the line search halves the step, up to 8 times, until `‖r‖₂` does
///   not grow, and takes a finite step below 0.02 anyway;
/// - the accepted trial's evaluation is carried into the next iteration,
///   so an iteration evaluates once when its full step is taken.
///
/// When [`Newton::solve`] returns, `Ok` or `Err`, its last call of the
/// evaluation was at the `x` it leaves; on failure that is the last
/// iterate, for engines that accept a looser residual.
#[derive(Debug, Default)]
pub struct Newton {
    cur: Eval,
    trial: Eval,
    /// The compiled pattern, holding the last factored values.
    jac: Option<Csr<f64>>,
    lu: Option<SparseLu<f64>>,
    dx: Vec<f64>,
    xt: Vec<f64>,
    trace: Option<&'static str>,
}

impl Newton {
    /// A kernel that records each solve's residuals as a convergence
    /// trace of `solver`.
    pub fn traced(solver: &'static str) -> Self {
        Newton { trace: Some(solver), ..Default::default() }
    }

    /// Solves `r(x) = 0` from the `x` given, in place. `eval(x, r, jac)`
    /// writes every entry of the residual `r`, pushes the stamps of
    /// `∂r/∂x` into `jac` (empty on entry) and returns the residual
    /// tolerance at `x`. `opts.max_iters` bounds the iterations and
    /// `opts.reltol` sets the stall test; `opts.abstol` is the engine's to
    /// return. Returns the corrections made.
    ///
    /// # Errors
    /// [`Error::NewtonNoConvergence`] with the residual at the `x` left
    /// when the iterations run out or the residual is not finite;
    /// [`Error::Numerics`] when a Jacobian is singular.
    pub fn solve<F>(&mut self, x: &mut [f64], opts: &DcOptions, mut eval: F) -> Result<usize>
    where
        F: FnMut(&[f64], &mut [f64], &mut Triplets<f64>) -> f64,
    {
        let mut trace = self.trace.map(TraceBuf::new);
        // Whether `cur` holds the evaluation at `x`.
        let mut carried = false;
        let mut iterations = opts.max_iters;
        for it in 0..opts.max_iters {
            if !std::mem::take(&mut carried) {
                self.cur.at(x, &mut eval);
            }
            let (res, tol) = (norm_inf(&self.cur.r), self.cur.tol);
            if let Some(t) = trace.as_mut() {
                t.push(res);
            }
            if res < tol {
                if let Some(t) = trace {
                    t.commit(true);
                }
                return Ok(it);
            }
            if !res.is_finite() {
                iterations = it;
                carried = true;
                break;
            }
            self.refactor()?;
            self.dx.resize(x.len(), 0.0);
            self.lu.as_ref().expect("factored above").solve_into(&self.cur.r, &mut self.dx)?;
            let base = norm2(&self.cur.r);
            let mut alpha = 1.0;
            for _ in 0..8 {
                self.xt.clear();
                self.xt.extend(x.iter().zip(&self.dx).map(|(xi, di)| xi - alpha * di));
                self.trial.at(&self.xt, &mut eval);
                let rt = norm2(&self.trial.r);
                if rt.is_finite() && (rt <= base || alpha < 0.02) {
                    x.copy_from_slice(&self.xt);
                    std::mem::swap(&mut self.cur, &mut self.trial);
                    carried = true;
                    break;
                }
                alpha *= 0.5;
            }
            let stalled = alpha * norm_inf(&self.dx) < opts.reltol * norm_inf(x).max(1.0);
            if carried && stalled && res < 1e3 * tol {
                if let Some(t) = trace {
                    t.commit(true);
                }
                return Ok(it + 1);
            }
        }
        if !carried {
            self.cur.at(x, &mut eval);
        }
        if let Some(t) = trace {
            t.commit(false);
        }
        Err(Error::NewtonNoConvergence { iterations, residual: norm_inf(&self.cur.r) })
    }

    /// The factored Jacobian at the `x` the last [`Newton::solve`] left,
    /// refactored on the kept analysis.
    ///
    /// # Errors
    /// [`Error::Numerics`] when the Jacobian is singular.
    pub fn factor(&mut self) -> Result<&SparseLu<f64>> {
        self.refactor()?;
        Ok(self.lu.as_ref().expect("factored above"))
    }

    /// Factors the Jacobian of `cur`: its stamps scattered onto the kept
    /// pattern and refactored on the kept analysis, or, when some stamp
    /// has no slot, onto the pattern compiled (or grown) for them and
    /// analysed afresh.
    fn refactor(&mut self) -> Result<()> {
        let stamps = &self.cur.jac;
        if !self.jac.as_mut().is_some_and(|a| a.restamp(stamps)) {
            let mut a = match &self.jac {
                Some(kept) => kept.grown(stamps),
                None => stamps.to_pattern(),
            };
            a.restamp(stamps);
            self.jac = Some(a);
            self.lu = None;
        }
        let a = self.jac.as_ref().expect("compiled above");
        self.lu = Some(match &self.lu {
            Some(lu) => lu.refactor(a)?,
            None => a.lu()?,
        });
        Ok(())
    }
}
