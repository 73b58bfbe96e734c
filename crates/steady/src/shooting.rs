//! Univariate shooting: Newton iteration on the period map
//! `φ_T(x₀) − x₀ = 0` with monodromy (sensitivity) propagation.
//!
//! This is the classic time-domain steady-state method the paper uses as
//! the baseline against MMFT in Fig. 5 ("univariate shooting … took almost
//! 300 times as long"), and the monodromy matrix it produces is the input
//! to Floquet/phase-noise analysis in `rfsim-phasenoise`.

use crate::{Error, Result};
use rfsim_circuit::dae::{Dae, TwoTime};
use rfsim_circuit::dc::{dc_operating_point, DcOptions};
use rfsim_circuit::newton::Newton;
use rfsim_numerics::dense::Mat;
use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::{norm_inf, Complex, ResidualTail};
use rfsim_telemetry as telemetry;

/// Options for [`shooting`].
#[derive(Debug, Clone)]
pub struct ShootingOptions {
    /// Time steps per period (the paper's Fig. 5 run used 50).
    pub steps_per_period: usize,
    /// Use trapezoidal (2nd-order) stepping instead of backward Euler.
    pub trapezoidal: bool,
    /// Newton tolerance on `‖φ(x₀) − x₀‖∞`.
    pub tol: f64,
    /// Maximum outer Newton iterations.
    pub max_newton: usize,
    /// Inner per-step Newton options.
    pub inner: DcOptions,
}

impl Default for ShootingOptions {
    fn default() -> Self {
        ShootingOptions {
            steps_per_period: 50,
            trapezoidal: true,
            tol: 1e-9,
            max_newton: 30,
            inner: DcOptions::default(),
        }
    }
}

/// A converged periodic steady state from shooting.
#[derive(Debug, Clone)]
pub struct ShootingResult {
    /// Period (s).
    pub period: f64,
    /// Time points across one period (length `steps + 1`, endpoints both
    /// present; `states.last() ≈ states[0]`).
    pub times: Vec<f64>,
    /// State at each time point.
    pub states: Vec<Vec<f64>>,
    /// Monodromy matrix `∂φ_T/∂x₀` at the solution.
    pub monodromy: Mat<f64>,
    /// Outer Newton iterations used.
    pub newton_iterations: usize,
    /// Total linear solves performed (cost proxy).
    pub linear_solves: usize,
}

impl ShootingResult {
    /// Waveform of unknown `i` over the period (without the repeated
    /// endpoint).
    pub fn waveform(&self, i: usize) -> Vec<f64> {
        self.states[..self.states.len() - 1].iter().map(|s| s[i]).collect()
    }

    /// Complex Fourier coefficient of unknown `i` at harmonic `k` of the
    /// period.
    pub fn coefficient(&self, i: usize, k: i32) -> Complex {
        let w = self.waveform(i);
        let ns = w.len();
        let spec = rfsim_numerics::fft::dft_real(&w);
        let bin = if k >= 0 { k as usize } else { (ns as i32 + k) as usize };
        spec[bin].scale(1.0 / ns as f64)
    }

    /// Peak amplitude at harmonic `k` (`2|c_k|`, or `|c₀|` for DC).
    pub fn amplitude(&self, i: usize, k: i32) -> f64 {
        let c = self.coefficient(i, k).abs();
        if k == 0 {
            c
        } else {
            2.0 * c
        }
    }
}

/// `f`, `q`, `G = ∂f/∂x` and `C = ∂q/∂x` at one state.
struct Point {
    f: Vec<f64>,
    q: Vec<f64>,
    g: Triplets<f64>,
    c: Triplets<f64>,
}

impl Point {
    fn new(n: usize) -> Self {
        Point { f: vec![0.0; n], q: vec![0.0; n], g: Triplets::new(n, n), c: Triplets::new(n, n) }
    }

    fn eval(&mut self, dae: &dyn Dae, x: &[f64]) {
        dae.eval(x, &mut self.f, &mut self.q, &mut self.g, &mut self.c);
    }
}

/// One period's stepping state: the Newton kernel every step shares, and
/// the DAE at the current state and at the kernel's last evaluation.
struct Stepper<'a> {
    dae: &'a dyn Dae,
    newton: &'a mut Newton,
    prev: Point,
    next: Point,
}

impl Stepper<'_> {
    /// One implicit step from the state `prev` was evaluated at, with
    /// sensitivity propagation: returns the new state and updates `m`
    /// (the accumulated monodromy) in place.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        x_prev: &[f64],
        m: &mut Mat<f64>,
        t_new: f64,
        h: f64,
        trapezoidal: bool,
        inner: &DcOptions,
        solves: &mut usize,
    ) -> Result<Vec<f64>> {
        let dae = self.dae;
        let n = dae.dim();
        let mut b_prev = vec![0.0; n];
        dae.eval_b(TwoTime::uni(t_new - h), &mut b_prev);
        let mut b = vec![0.0; n];
        dae.eval_b(TwoTime::uni(t_new), &mut b);
        let a0 = if trapezoidal { 2.0 / h } else { 1.0 / h };
        let Stepper { newton, prev, next, .. } = self;
        let mut x = x_prev.to_vec();
        let solved = newton.solve(&mut x, inner, |x, r, jac| {
            next.eval(dae, x);
            for i in 0..n {
                // 2(q − q_prev)/h − q̇_prev + f − b under trapezoidal
                // stepping, with q̇_prev = b_prev − f_prev from the DAE.
                let qdot_prev = if trapezoidal { b_prev[i] - prev.f[i] } else { 0.0 };
                r[i] = a0 * (next.q[i] - prev.q[i]) - qdot_prev + next.f[i] - b[i];
            }
            for &(i, j, v) in next.c.entries() {
                jac.push(i, j, a0 * v);
            }
            for &(i, j, v) in next.g.entries() {
                jac.push(i, j, v);
            }
            inner.abstol
        });
        *solves += match solved {
            Ok(iterations) => iterations,
            // Accept a residual that is merely small rather than tiny.
            Err(rfsim_circuit::Error::NewtonNoConvergence { iterations, residual })
                if residual <= 1e-4 =>
            {
                iterations
            }
            Err(rfsim_circuit::Error::NewtonNoConvergence { iterations, residual }) => {
                return Err(Error::NoConvergence {
                    iterations,
                    residual,
                    residual_tail: Vec::new(),
                });
            }
            Err(e) => return Err(e.into()),
        };
        // Sensitivity: (a0·C₊ + G₊)·M₊ = RHS·M, with
        //   BE:   RHS = a0·C_prev
        //   Trap: RHS = a0·C_prev − G_prev  (∂q̇_prev/∂x_prev = −G_prev … via
        //          q̇_prev = b_prev − f_prev).
        // The kernel's last evaluation is at `x`, so its Jacobian is J₊.
        let lu = newton.factor()?;
        *solves += 1;
        let mut m_new = Mat::zeros(n, n);
        let mut rhs = vec![0.0; n];
        for col in 0..n {
            let mcol = m.col(col);
            rhs.fill(0.0);
            for &(i, j, v) in prev.c.entries() {
                rhs[i] += a0 * v * mcol[j];
            }
            if trapezoidal {
                for &(i, j, v) in prev.g.entries() {
                    rhs[i] -= v * mcol[j];
                }
            }
            let sol = lu.solve(&rhs)?;
            m_new.set_col(col, &sol);
        }
        *m = m_new;
        // The new state's evaluation is the next step's previous one.
        std::mem::swap(prev, next);
        Ok(x)
    }
}

/// Trajectory states, times, and monodromy from one period of integration.
type Flight = (Vec<Vec<f64>>, Vec<f64>, Mat<f64>);

/// Integrates one period from `x0`, returning the trajectory and the
/// monodromy matrix.
fn fly(
    dae: &dyn Dae,
    x0: &[f64],
    period: f64,
    opts: &ShootingOptions,
    newton: &mut Newton,
    solves: &mut usize,
) -> Result<Flight> {
    let n = dae.dim();
    let m_steps = opts.steps_per_period;
    let h = period / m_steps as f64;
    let mut monodromy: Mat<f64> = Mat::identity(n);
    let mut states = Vec::with_capacity(m_steps + 1);
    let mut times = Vec::with_capacity(m_steps + 1);
    states.push(x0.to_vec());
    times.push(0.0);
    let mut stepper = Stepper { dae, newton, prev: Point::new(n), next: Point::new(n) };
    stepper.prev.eval(dae, x0);
    let mut x = x0.to_vec();
    for k in 0..m_steps {
        let t_new = (k + 1) as f64 * h;
        // The first step always uses backward Euler: trapezoidal stepping
        // preserves any algebraic-constraint violation of x₀ exactly, which
        // would give the monodromy a unit eigenvalue along algebraic
        // directions and make the shooting Jacobian (M − I) singular. One
        // BE step projects onto the constraint manifold.
        let trap = opts.trapezoidal && k > 0;
        x = stepper.step(&x, &mut monodromy, t_new, h, trap, &opts.inner, solves)?;
        states.push(x.clone());
        times.push(t_new);
    }
    Ok((states, times, monodromy))
}

/// Finds the forced periodic steady state with the given period.
///
/// # Errors
/// [`Error::NoConvergence`] if the outer Newton iteration stalls.
pub fn shooting(dae: &dyn Dae, period: f64, opts: &ShootingOptions) -> Result<ShootingResult> {
    let _span = telemetry::span("shooting.solve");
    let mut trace = telemetry::TraceBuf::new("shooting.newton");
    if trace.is_active() {
        trace.set_label(format!("period {period:.3e}s, {} steps", opts.steps_per_period));
    }
    let mut tail = ResidualTail::new();
    let mut monitor = telemetry::ResidualMonitor::newton("shooting.newton");
    let n = dae.dim();
    let op = dc_operating_point(dae, &opts.inner)?;
    let mut x0 = op.x;
    let mut solves = 0usize;
    let mut last_res = f64::INFINITY;
    // One kernel, and so one Jacobian analysis, for every step of every
    // flight.
    let mut newton = Newton::default();
    for it in 0..opts.max_newton {
        let (states, times, monodromy) = fly(dae, &x0, period, opts, &mut newton, &mut solves)?;
        let x_end = states.last().expect("nonempty trajectory");
        let r: Vec<f64> = (0..n).map(|i| x_end[i] - x0[i]).collect();
        let res = norm_inf(&r);
        last_res = res;
        trace.push(res);
        monitor.observe(res);
        tail.push(res);
        if !res.is_finite() {
            // Same tripwire as HB: a poisoned trajectory cannot recover.
            trace.commit(false);
            telemetry::counter_add("shooting.newton.iterations", it as u64);
            telemetry::counter_add("shooting.linear_solves", solves as u64);
            return Err(Error::NoConvergence {
                iterations: it,
                residual: res,
                residual_tail: tail.to_vec(),
            });
        }
        if res < opts.tol {
            trace.commit(true);
            telemetry::counter_add("shooting.newton.iterations", it as u64);
            telemetry::counter_add("shooting.linear_solves", solves as u64);
            return Ok(ShootingResult {
                period,
                times,
                states,
                monodromy,
                newton_iterations: it,
                linear_solves: solves,
            });
        }
        // Newton: (M − I)·dx₀ = −r  ⇒  x₀ ← x₀ − (M − I)⁻¹ r.
        let id: Mat<f64> = Mat::identity(n);
        let j = &monodromy - &id;
        let dx = j.solve(&r).map_err(Error::Numerics)?;
        solves += 1;
        for i in 0..n {
            x0[i] -= dx[i];
        }
    }
    trace.commit(false);
    telemetry::counter_add("shooting.newton.iterations", opts.max_newton as u64);
    telemetry::counter_add("shooting.linear_solves", solves as u64);
    Err(Error::NoConvergence {
        iterations: opts.max_newton,
        residual: last_res,
        residual_tail: tail.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::prelude::*;
    use rfsim_circuit::Circuit;

    #[test]
    fn rc_sine_pss_matches_theory() {
        let f0 = 1e6;
        let (r, c) = (1e3, 1e-9);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, f0));
        ckt.add(Resistor::new("R1", a, out, r));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, c));
        let dae = ckt.into_dae().unwrap();
        let opts = ShootingOptions { steps_per_period: 200, ..Default::default() };
        let res = shooting(&dae, 1.0 / f0, &opts).unwrap();
        let oi = dae.node_index(out).unwrap();
        let gain = 1.0 / (1.0 + (2.0 * std::f64::consts::PI * f0 * r * c).powi(2)).sqrt();
        let amp = res.amplitude(oi, 1);
        assert!((amp - gain).abs() < 2e-3, "amp {amp} vs {gain}");
        // Converged in few outer iterations (linear circuit → 1 step).
        assert!(res.newton_iterations <= 2);
    }

    #[test]
    fn periodicity_of_solution() {
        let f0 = 2e6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.2, 0.8, f0));
        ckt.add(Resistor::new("R1", a, out, 500.0));
        ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-13));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 2e-10));
        let dae = ckt.into_dae().unwrap();
        let res = shooting(&dae, 1.0 / f0, &ShootingOptions::default()).unwrap();
        let first = &res.states[0];
        let last = res.states.last().unwrap();
        for (a, b) in first.iter().zip(last) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn monodromy_of_stable_rc_contracts() {
        // RC relaxation: monodromy eigenvalue e^{−T/RC} < 1.
        let f0 = 1e6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, f0));
        ckt.add(Resistor::new("R1", a, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-9));
        let dae = ckt.into_dae().unwrap();
        let opts = ShootingOptions { steps_per_period: 400, ..Default::default() };
        let res = shooting(&dae, 1.0 / f0, &opts).unwrap();
        let eigs = rfsim_numerics::eig::eigenvalues(&res.monodromy).unwrap();
        // Largest nonzero multiplier ≈ exp(−T/RC) = exp(−1).
        let expect = (-1.0f64).exp();
        let found = eigs.iter().map(|z| z.abs()).filter(|&m| m > 1e-6).fold(0.0f64, f64::max);
        assert!((found - expect).abs() < 0.02, "found {found}, expect {expect}");
    }

    #[test]
    fn shooting_agrees_with_hb() {
        let f0 = 1e6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 0.9, f0));
        ckt.add(Resistor::new("R1", a, out, 800.0));
        ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-12));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-10));
        let dae = ckt.into_dae().unwrap();
        let sh = shooting(
            &dae,
            1.0 / f0,
            &ShootingOptions { steps_per_period: 600, ..Default::default() },
        )
        .unwrap();
        let grid = crate::fourier::SpectralGrid::single_tone(f0, 12).unwrap();
        let hb = crate::hb::solve_hb(&dae, &grid, &crate::hb::HbOptions::default()).unwrap();
        let oi = dae.node_index(out).unwrap();
        for k in 0..4 {
            let a_sh = sh.amplitude(oi, k);
            let a_hb = hb.amplitude(oi, &[k]);
            assert!((a_sh - a_hb).abs() < 3e-3, "harmonic {k}: shooting {a_sh} vs hb {a_hb}");
        }
    }
}
